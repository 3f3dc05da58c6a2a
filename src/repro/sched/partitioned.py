"""Partitioned scheduler (paper sec. 3.1.1).

Subframe ``j`` of basestation ``i`` is processed on core
``i*ceil(Tmax) + j mod ceil(Tmax)`` — a schedule fixed offline.  With
``ceil(Tmax) = 2`` each core sees one subframe of its basestation every
2 ms, which exceeds the Tmax upper bound, so a core is always free when
its next subframe arrives: partitioned scheduling is queue-free by
construction (and this implementation asserts it).

Deadline enforcement follows sec. 4.1: before each task the thread
checks the remaining slack against the task model and drops the
subframe if even the optimistic execution cannot fit; an overrunning
task is terminated at the deadline.  Either case is a deadline miss.
The resulting idle gaps (``~2 ms - Trxproc``) are recorded — they are
exactly the resource RT-OPEX later harvests (Fig. 16).

With a :class:`~repro.obs.trace.RunTrace` attached the run emits the
full timeline: arrival instants, per-task busy spans (clipped at the
deadline on termination), idle-gap spans, and one deadline verdict per
subframe.  Per-core busy time is accounted either way and returned in
``SchedulerResult.core_busy_us``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.trace import RunTrace
from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeJob,
    SubframeRecord,
    arrival_order,
    assigned_core_for,
    next_partitioned_activation,
    record_for,
)


class PartitionedScheduler:
    """Offline partitioned schedule with slack-check dropping."""

    name = "partitioned"

    def __init__(self, config: CRanConfig, trace: Optional[RunTrace] = None):
        self.config = config
        self.trace = trace

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        """Replay ``jobs`` (any order) through the fixed schedule."""
        config = self.config
        trace = self.trace
        core_free_at: Dict[int, float] = {}
        busy: Dict[int, float] = {}
        records: List[SubframeRecord] = []

        for job in arrival_order(jobs):
            sf = job.subframe
            core = assigned_core_for(job, config.cores_per_bs)
            record = record_for(job, core_id=core)
            # With ceil(Tmax) >= 2 cores per BS the core is always free by
            # construction (processing terminates at the 2 ms deadline,
            # before the next assigned arrival).  Under-provisioned
            # configurations (cores_per_bs = 1) make the thread busy-wait
            # on the semaphore, which surfaces as queueing delay here.
            start = max(job.arrival_us, core_free_at.get(core, 0.0))
            record.queue_delay_us = start - job.arrival_us
            record.start_us = start
            if trace is not None:
                trace.arrival(job.arrival_us, core, sf.bs_id, sf.index)
            finish = self._execute(job, start, record, busy, trace)
            record.finish_us = finish
            core_free_at[core] = finish
            slot = sf.index % config.cores_per_bs
            activation = next_partitioned_activation(
                sf.bs_id, slot, finish, config.cores_per_bs, config.transport_latency_us
            )
            record.gap_us = max(0.0, activation - finish)
            if trace is not None:
                trace.deadline(
                    finish, core, record.missed or record.dropped,
                    sf.bs_id, sf.index, drop_stage=record.drop_stage,
                    service=record.service,
                )
                # A slack-check drop frees the core early but the gap is
                # "not used" (sec. 4.1); flag it so the aggregators can
                # separate harvestable gaps from framework-reserved ones.
                trace.gap(
                    core, finish, record.gap_us, sf.bs_id, sf.index,
                    usable=not record.dropped,
                )
            records.append(record)

        return SchedulerResult(self.name, config, records, core_busy_us=busy)

    def _execute(
        self,
        job: SubframeJob,
        start: float,
        record: SubframeRecord,
        busy: Optional[Dict[int, float]] = None,
        trace: Optional[RunTrace] = None,
    ) -> float:
        """Serial task-by-task execution with slack checks; returns finish.

        The slack check compares each task's model-based lower bound
        with the remaining slack.  FFT/demod are deterministic; decode's
        bound assumes one iteration per code block (L = 1), so a drop
        happens only when the deadline is unreachable even in the best
        case.
        """
        now = start
        deadline = job.deadline_us
        noise_left = job.noise_us
        core = record.core_id
        decode_lower_bound_us = job.work.tables.decode_lower_bound_us
        slack_check = self.config.drop_on_slack_check
        for task in job.work.tasks:
            name = task.name
            duration = optimistic = task.serial_duration_us
            if name == "demod":
                # The platform error E lands on the owning thread's
                # serial path; demod is the always-serial stage.
                duration += noise_left
                noise_left = 0.0
            elif name == "decode":
                optimistic = decode_lower_bound_us
            if slack_check and now + optimistic > deadline:
                record.dropped = True
                record.drop_stage = name
                record.missed = True
                return now  # the remaining gap is not used (sec. 4.1)
            end = now + duration
            executed_until = min(end, deadline)
            if busy is not None and executed_until > now:
                busy[core] = busy.get(core, 0.0) + (executed_until - now)
            if trace is not None:
                trace.task(core, name, now, executed_until, record.bs_id, record.index)
            now = end
            if now > deadline:
                record.missed = True
                return deadline  # terminated at the deadline
        return now
