"""Tests for the delay-aware scheduler (DAS)."""

import dataclasses

import numpy as np
import pytest

from repro.lte.mcs import max_mcs, throughput_mbps
from repro.sched import CRanConfig, DelayAwareScheduler, run_scheduler
from repro.workload.classes import parse_class_spec
from repro.workload.mixed import build_mixed_workload

from tests.helpers import make_job, with_budgets


@pytest.fixture(scope="module")
def mixed_config():
    return CRanConfig(transport_latency_us=500.0, num_cores=8)


@pytest.fixture(scope="module")
def mixed_jobs(mixed_config):
    mix = parse_class_spec("urllc:0.3,embb:0.4,mmtc:0.3")
    return build_mixed_workload(mixed_config, 300, mix=mix, seed=11)


class TestRegistration:
    def test_registered_with_runner(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=11)
        assert result.scheduler_name == f"das-{mixed_config.total_cores}"
        assert len(result.records) == len(mixed_jobs)

    def test_traceable(self, mixed_config, mixed_jobs):
        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, capture_trace=True
        )
        kinds = {e.kind for e in result.trace_run.events}
        assert {"arrival", "task", "deadline"} <= kinds

    def test_unknown_name_still_rejected(self, mixed_config, mixed_jobs):
        with pytest.raises(ValueError):
            run_scheduler("dass", mixed_config, mixed_jobs)


class TestBehaviour:
    def test_deterministic(self, mixed_config, mixed_jobs):
        a = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        b = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        assert [r.finish_us for r in a.records] == [r.finish_us for r in b.records]

    def test_every_record_tagged_with_class(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        assert {r.service for r in result.records} == {"urllc", "embb", "mmtc"}
        by_class = result.miss_rate_by_class()
        assert set(by_class) == {"urllc", "embb", "mmtc"}
        assert all(0.0 <= v <= 1.0 for v in by_class.values())

    def test_no_finish_exceeds_deadline(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        for r in result.records:
            assert r.finish_us <= r.deadline_us + 1e-9

    def test_single_class_workload_near_edf(self, small_config, small_workload):
        # On one shared budget, criticality ordering degenerates to
        # (roughly) EDF: DAS should be in the same league as the global
        # scheduler, not the partitioned stragglers.
        das = run_scheduler("das", small_config, small_workload, seed=2)
        glob = run_scheduler("global", small_config, small_workload, seed=2)
        assert das.miss_rate() <= glob.miss_rate() + 0.02

    def test_priority_prefers_tighter_budget(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        base = make_job(0, 0, 20, [3])
        urgent = dataclasses.replace(
            base, deadline_override_us=base.subframe.air_time_us + 1500.0
        )
        relaxed = make_job(1, 0, 20, [3])
        now = base.arrival_us
        # Same work, same instant: the 1.5 ms budget consumes a larger
        # fraction than the 2 ms budget, so it must rank higher — this
        # is exactly where DAS diverges from EDF (the 2 ms job's
        # absolute deadline here is *earlier* in bs order).
        assert sched._priority(urgent, now) > sched._priority(relaxed, now)

    def test_priority_formula(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        job = make_job(0, 0, 20, [3])
        now = job.arrival_us + 100.0
        hol = now - job.subframe.air_time_us
        crit = (hol + job.optimistic_time_us) / job.delay_budget_us
        eff = throughput_mbps(20) / throughput_mbps(max_mcs())
        assert sched._priority(job, now) == pytest.approx(crit * (1.0 + eff))

    def test_priority_grows_with_waiting(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        job = make_job(0, 0, 20, [3])
        t0 = job.arrival_us
        assert sched._priority(job, t0 + 500.0) > sched._priority(job, t0)

    def test_queue_overflow_drops_least_urgent(self):
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=1)
        sched = DelayAwareScheduler(
            cfg, rng=np.random.default_rng(0), queue_capacity=4
        )
        # 12 same-instant arrivals against one core and a 4-slot queue:
        # someone must get dropped, and the run must stay consistent.
        jobs = [make_job(0, j, 27, [4], noise=100.0) for j in range(12)]
        result = sched.run(jobs)
        dropped = [r for r in result.records if r.dropped]
        assert dropped
        assert {r.drop_stage for r in dropped} <= {"queue-overflow", "dispatch"}
        assert len(result.records) == 12


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="a frame that expires while queued gets its drop verdict "
        "at the next dispatch instant, after its deadline (ROADMAP)",
    )
    def test_queue_expiry_verdict_not_after_deadline(self):
        # One core, two simultaneous frames.  DAS runs the MCS-11 frame
        # (2 ms budget) first; the MCS-0 frame's 1.5 ms budget lapses
        # while it waits, and it is dropped only when the core frees.
        cfg = CRanConfig(transport_latency_us=700.0, num_cores=1)
        jobs = with_budgets(
            [make_job(0, 4, 11, [2], rtt=700.0), make_job(1, 4, 0, [1], rtt=700.0)],
            (2000.0, 1500.0),
        )
        result = DelayAwareScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        for r in result.records:
            assert r.finish_us <= r.deadline_us


class TestSanitized:
    def test_full_sanitizer_profile_over_mixed_workload(
        self, mixed_config, mixed_jobs
    ):
        # The das event stream must satisfy every virtual-time invariant
        # (overlap, monotonicity, span nesting, verdict consistency);
        # the attestation report proves the sanitizer actually ran.
        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, sanitize=True
        )
        assert result.sanitizer_report is not None
        assert result.sanitizer_report["events_checked"] > 0

    def test_deadline_events_carry_service(self, mixed_config, mixed_jobs):
        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, capture_trace=True
        )
        verdicts = [
            e for e in result.trace_run.events if e.kind == "deadline"
        ]
        assert len(verdicts) == len(mixed_jobs)
        services = {e.args.get("service", "embb") for e in verdicts}
        assert services == {"urllc", "embb", "mmtc"}


class TestVerdictRollup:
    def test_deadline_verdicts_by_class_matches_records(
        self, mixed_config, mixed_jobs
    ):
        from repro.analysis.tracestats import deadline_verdicts_by_class

        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, capture_trace=True
        )
        rollup = deadline_verdicts_by_class(result.trace_run)
        for service, (hits, misses) in rollup.items():
            records = [r for r in result.records if r.service == service]
            assert hits + misses == len(records)
            assert misses == sum(1 for r in records if r.missed or r.dropped)

    def test_single_class_trace_rolls_up_under_embb(
        self, small_config, small_workload
    ):
        from repro.analysis.tracestats import (
            deadline_verdicts,
            deadline_verdicts_by_class,
        )

        result = run_scheduler(
            "rt-opex", small_config, small_workload, seed=3, capture_trace=True
        )
        rollup = deadline_verdicts_by_class(result.trace_run)
        assert list(rollup) == ["embb"]
        assert rollup["embb"] == deadline_verdicts(result.trace_run)
