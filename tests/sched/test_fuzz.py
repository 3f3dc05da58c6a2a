"""Property-based fuzzing of the schedulers over random job sets.

These tests generate arbitrary (but valid) workloads and check the
invariants every scheduler must uphold regardless of load pattern:
conservation, causality, deadline enforcement, and RT-OPEX's
no-worse-than-baseline guarantee.  RT-OPEX (under every migration
planner), the shared-queue schedulers and CloudIQ also run under the
virtual-time sanitizer; the shared-queue ones on per-job delay budgets,
few cores and small ring buffers, so both eviction rules are exercised.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sched import (
    CRanConfig,
    PartitionedScheduler,
    PranScheduler,
    RtOpexScheduler,
)
from repro.sched.migration import plan_migrate_all, plan_migration, plan_steal_half
from repro.sched.runner import run_scheduler

from tests.helpers import make_job, with_budgets

# A workload: per (bs, subframe) an (mcs, iteration) pair.
job_specs = st.lists(
    st.tuples(
        st.integers(0, 3),  # bs
        st.integers(0, 9),  # subframe index
        st.integers(0, 27),  # mcs
        st.integers(1, 4),  # iterations for every code block
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda s: (s[0], s[1]),
)

rtts = st.sampled_from([400.0, 550.0, 700.0])
PLANNERS = [plan_migration, plan_steal_half, plan_migrate_all]


# Per-job delay budgets (µs from air time), as the service classes set.
budgets = st.lists(st.sampled_from([1500.0, 2000.0, 3000.0]), min_size=40, max_size=40)
shared_queue_setups = st.tuples(
    st.sampled_from([1, 2, 8]),  # cores
    st.sampled_from([2, 256]),  # queue capacity
)


def build_jobs(specs, rtt):
    return [make_job(bs, idx, mcs, [l], rtt=rtt) for bs, idx, mcs, l in specs]


def run_shared_queue(name, jobs, rtt, setup):
    """Run shared-queue scheduler ``name`` under the sanitizer."""
    cores, capacity = setup
    cfg = CRanConfig(transport_latency_us=rtt, num_cores=cores)
    result = run_scheduler(
        name, cfg, jobs, seed=0, sanitize=True, queue_capacity=capacity
    )
    assert result.sanitizer_report["events_checked"] > 0
    return result


def check_invariants(result, jobs):
    assert len(result.records) == len(jobs)
    keys = sorted((r.bs_id, r.index) for r in result.records)
    assert keys == sorted((j.subframe.bs_id, j.subframe.index) for j in jobs)
    for r in result.records:
        if not np.isnan(r.finish_us):
            assert r.finish_us >= r.start_us - 1e-9
            assert r.finish_us <= r.deadline_us + 1e-6
        if not (r.missed or r.dropped):
            assert r.finish_us <= r.deadline_us + 1e-6


class TestSchedulerFuzz:
    @given(job_specs, rtts)
    @settings(max_examples=60, deadline=None)
    def test_partitioned_invariants(self, specs, rtt):
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt)
        check_invariants(PartitionedScheduler(cfg).run(jobs), jobs)

    @given(job_specs, rtts, shared_queue_setups)
    @settings(max_examples=40, deadline=None)
    def test_global_invariants(self, specs, rtt, setup):
        # One delay budget: every queued frame's deadline is no earlier
        # than those of the frames running ahead of it, so none expires
        # in the queue.  Per-job budgets break that on few cores (the
        # strict xfail in test_global.py).
        jobs = build_jobs(specs, rtt)
        check_invariants(run_shared_queue("global", jobs, rtt, setup), jobs)

    @given(job_specs, rtts, budgets, st.sampled_from([2, 256]))
    @settings(max_examples=40, deadline=None)
    def test_das_invariants(self, specs, rtt, budget_list, capacity):
        # Eight cores: on one or two, DAS can leave a frame queued past
        # its deadline (the strict xfail in test_das.py).
        jobs = with_budgets(build_jobs(specs, rtt), budget_list)
        check_invariants(run_shared_queue("das", jobs, rtt, (8, capacity)), jobs)

    @given(
        st.sampled_from(["global", "das"]), job_specs, rtts, budgets, shared_queue_setups
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_queue_sanitized_on_every_setup(
        self, name, specs, rtt, budget_list, setup
    ):
        # Where frames can expire in the queue, the run still passes the
        # sanitizer and accounts for every frame exactly once.
        jobs = with_budgets(build_jobs(specs, rtt), budget_list)
        result = run_shared_queue(name, jobs, rtt, setup)
        assert sorted((r.bs_id, r.index) for r in result.records) == sorted(
            (j.subframe.bs_id, j.subframe.index) for j in jobs
        )

    @given(job_specs, rtts)
    @settings(max_examples=40, deadline=None)
    def test_cloudiq_invariants(self, specs, rtt):
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt)
        result = run_scheduler("cloudiq", cfg, jobs, sanitize=True)
        assert result.sanitizer_report["events_checked"] > 0
        check_invariants(result, jobs)

    @given(job_specs, rtts, st.sampled_from(PLANNERS), st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_rtopex_invariants(self, specs, rtt, planner, cores_per_bs):
        # Sanitized, under every migration planner and at two and three
        # cores per cell: the free-window filter relies on each
        # planner's stopping rule, and the core layout sets the windows.
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt, cores_per_bs=cores_per_bs)
        result = run_scheduler(
            "rt-opex", cfg, jobs, seed=0, sanitize=True, planner=planner
        )
        assert result.sanitizer_report["events_checked"] > 0
        check_invariants(result, jobs)

    @given(job_specs, rtts)
    @settings(max_examples=30, deadline=None)
    def test_pran_invariants(self, specs, rtt):
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt)
        result = PranScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        check_invariants(result, jobs)

    @given(job_specs, rtts)
    @settings(max_examples=40, deadline=None)
    def test_rtopex_never_worse_than_partitioned(self, specs, rtt):
        # The paper's central guarantee, fuzzed: across arbitrary
        # workloads RT-OPEX must not miss more than the partitioned
        # baseline it builds on (modulo its noisier helpers: allow the
        # rare single extra miss from a recovery landing on the line).
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt)
        part = PartitionedScheduler(cfg).run(jobs)
        opex = RtOpexScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        assert opex.miss_count() <= part.miss_count() + 1

    @given(job_specs)
    @settings(max_examples=20, deadline=None)
    def test_helpers_never_delayed_by_migration(self, specs):
        jobs = build_jobs(specs, 500.0)
        cfg = CRanConfig(transport_latency_us=500.0)
        result = RtOpexScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        for r in result.records:
            assert r.queue_delay_us == 0.0
