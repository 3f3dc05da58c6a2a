"""Shared test helpers: hand-built subframe jobs with known durations."""

import dataclasses

import numpy as np

from repro.constants import SUBFRAME_US
from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe, UplinkGrant
from repro.sched.base import SubframeJob
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import build_subframe_work


def make_job(bs, index, mcs, iters, rtt=500.0, noise=0.0, antennas=2):
    """A SubframeJob with explicit per-code-block iteration counts.

    ``iters`` is cycled/truncated to the grant's code-block count, so
    ``make_job(0, 0, 27, [4])`` gives six blocks at four iterations.
    """
    grant = UplinkGrant(mcs=mcs, num_prbs=50, num_antennas=antennas)
    iters = (list(iters) * 8)[: grant.code_blocks]
    work = build_subframe_work(LinearTimingModel(), grant, iters, max_iterations=4)
    sf = Subframe(
        bs_id=bs, index=index, grant=grant, transport_latency_us=rtt, grid=GridConfig(10.0)
    )
    return SubframeJob(subframe=sf, work=work, noise_us=noise, load=mcs / 27.0)


def with_budgets(jobs, budgets):
    """``jobs`` with per-job delay budgets (µs after air time), as service classes set."""
    return [
        dataclasses.replace(job, deadline_override_us=job.subframe.air_time_us + budget)
        for job, budget in zip(jobs, budgets)
    ]


# -- job-walking oracles for the array-native provisioning path --------------


def demand_from_jobs(jobs):
    """Per-BS core-utilization rows rebuilt by walking a job list.

    The reference for :meth:`WorkloadArrays.demand_rows`: rows keyed in
    first-appearance order, samples in job order.
    """
    per_bs = {}
    for job in jobs:
        per_bs.setdefault(job.subframe.bs_id, []).append(job.serial_time_us / SUBFRAME_US)
    return {bs: np.array(values) for bs, values in per_bs.items()}


def localize(jobs, cells):
    """Keep ``cells``' jobs, renumbered 0..k-1 by ascending global id.

    The reference for ``materialize_jobs(arrays, cells)``.
    """
    local_of = {bs: i for i, bs in enumerate(sorted(cells))}
    return [
        dataclasses.replace(
            job,
            subframe=dataclasses.replace(job.subframe, bs_id=local_of[job.subframe.bs_id]),
        )
        for job in jobs
        if job.subframe.bs_id in local_of
    ]
