"""RT-OPEX: partitioned scheduling + opportunistic subtask migration.

This is the paper's contribution (sec. 3.2).  The base placement is the
partitioned schedule; at each parallelizable task boundary (FFT and
decode) the processing thread runs Algorithm 1 against the *currently
idle* cores and migrates subtasks into their free windows.  Design
points implemented faithfully:

* **Free-window computation** — the partitioned schedule makes arrivals
  deterministic, so the free time of an idle core k is the span until
  its next activation; it is additionally clipped at the migrating
  subframe's own deadline, since results arriving later are useless.
  This clipping is why gaps "get narrower" as RTT/2 grows (sec. 4.3) —
  the deadline moves earlier relative to the decode start.
* **Preemption** — a migrated subtask still running when the helper
  core's own subframe arrives is abandoned (*result not ready*); the
  helper always starts its own work on time, so migration can never
  hurt other basestations.
* **Recovery** — the owning thread recomputes any not-ready migrated
  subtasks locally after finishing its local share, bounding RT-OPEX's
  worst case at the serial baseline (sec. 3.2.1 B).
* **Migration cost** — the paper measures a fixed ~20 us per migrated
  task, dominated by fetching the shared OAI state into the helper's
  cache (Fig. 18); Fig. 4 shows a ~6 us incremental cost for extra
  subtasks on the same core.  We therefore split delta into a per-batch
  component (paid once per helper core) and a small per-subtask
  component, and feed their sum per subtask into Algorithm 1's R1 bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import SUBFRAME_US
from repro.obs.trace import RunTrace
from repro.sched.base import (
    CRanConfig,
    MigrationEvent,
    SchedulerResult,
    SubframeJob,
    SubframeRecord,
    arrival_order,
    assigned_core_for,
    next_partitioned_activation,
    record_for,
)
from repro.sim.engine import Simulator
from repro.timing.platform import PlatformNoiseModel

#: Fixed cost of the first migration to a helper core (shared-state fetch).
DEFAULT_BATCH_OVERHEAD_US = 20.0
#: Incremental cost per additional migrated subtask in the same batch.
DEFAULT_SUBTASK_OVERHEAD_US = 0.5


@dataclass(frozen=True)
class _BatchOutcome:
    """Result of executing one migrated batch on a helper core."""

    target_core: int
    num_subtasks: int
    completed: int
    ready_time: float  # when the last *completed* subtask's flag was set
    recovered_durations: Tuple[float, ...]  # actual times of unfinished subtasks
    planned_us: float
    actual_us: float


class RtOpexScheduler:
    """RT-OPEX on top of the partitioned base schedule."""

    name = "rt-opex"

    def __init__(
        self,
        config: CRanConfig,
        rng: Optional[np.random.Generator] = None,
        batch_overhead_us: float = DEFAULT_BATCH_OVERHEAD_US,
        subtask_overhead_us: float = DEFAULT_SUBTASK_OVERHEAD_US,
        flag_patience_us: float = 30.0,
        remote_noise: Optional[PlatformNoiseModel] = None,
        migrate_fft: bool = True,
        migrate_decode: bool = True,
        planner=None,
        trace: Optional[RunTrace] = None,
    ):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.batch_overhead_us = batch_overhead_us
        self.subtask_overhead_us = subtask_overhead_us
        self.flag_patience_us = flag_patience_us
        self.remote_noise = remote_noise if remote_noise is not None else PlatformNoiseModel()
        self.migrate_fft = migrate_fft
        self.migrate_decode = migrate_decode
        self.trace = trace
        # Migration planner: Algorithm 1 by default; the ablations swap
        # in plan_steal_half / plan_migrate_all from repro.sched.migration.
        if planner is None:
            from repro.sched.migration import plan_migration

            planner = plan_migration
        self.planner = planner

    # ------------------------------------------------------------------ run

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        config = self.config
        num_cores = config.num_basestations * config.cores_per_bs
        # Per-core bookkeeping as parallel float lists: the planner scans
        # every core at every parallelizable boundary, so attribute
        # access on per-core objects is measurable overhead there.
        busy_until = [0.0] * num_cores  # own (local) processing
        remote_cursor = [0.0] * num_cores  # end of last booked migrated batch
        records: List[SubframeRecord] = []
        busy: Dict[int, float] = {}
        trace = self.trace
        sim = Simulator()
        # Migration batch ids, stamped into the planned/executed/returned
        # events so the exporters can link one batch's three instants
        # into a Perfetto flow across core tracks.  Allocated in
        # decision order, so serial and parallel runs agree.
        batch_counter = itertools.count()

        def note_busy(core: int, start: float, end: float) -> None:
            if end > start:
                busy[core] = busy.get(core, 0.0) + (end - start)

        # Actual arrival times per core: the preemption instants for
        # migrated batches (equals the planned activations when the
        # transport delay is fixed).
        core_arrivals: Dict[int, List[float]] = {c: [] for c in range(num_cores)}
        ordered_jobs = arrival_order(jobs)
        for job in ordered_jobs:
            core = assigned_core_for(job, config.cores_per_bs)
            core_arrivals[core].append(job.arrival_us)
        for core in sorted(core_arrivals):
            core_arrivals[core].sort()

        # Index of each core's next not-yet-dispatched arrival.  The
        # preemption horizon must come from this cursor, not from a
        # timestamp search: when two subframes arrive at the same
        # instant, the owner processed first would otherwise see the
        # helper's pre-arrival idle state, skip the simultaneous arrival
        # in the lookup, and book a batch that overlaps the helper's own
        # processing.  A pending arrival bars the core no matter how its
        # timestamp compares to the window start.
        arrival_cursor = [0] * num_cores
        #: Next pending arrival per core (``inf`` once the trace is
        #: exhausted) — write-through so planning never searches.
        core_arrival = [
            core_arrivals[c][0] if core_arrivals[c] else math.inf
            for c in range(num_cores)
        ]

        # Donor-window memoization: a core's free window can only change
        # on one of three mutations — its own arrival (cursor bump), a
        # local completion (``busy_until`` write), or a booked migrated
        # batch (``remote_cursor`` write).  Every mutation site bumps
        # that core's epoch; ``free_windows`` recomputes a core's window
        # floor only when its epoch moved since the floor was cached.
        # Invariant: ``core_epoch[c]`` strictly increases on every write
        # to ``busy_until[c]``, ``remote_cursor[c]`` or
        # ``arrival_cursor[c]``; a stale epoch therefore proves
        # ``window_start[c]`` still equals
        # ``max(busy_until[c], remote_cursor[c])``.
        core_epoch = [0] * num_cores
        window_epoch = [-1] * num_cores
        window_start = [0.0] * num_cores
        # Past the arrival trace the preemption horizon comes from the
        # closed-form partitioned rule; the last value is cached per
        # core and revalidated against the activation period instead of
        # recomputed (the rule yields the smallest activation > start,
        # so a cached value is still correct iff start lies within one
        # period below it).
        closed_act = [0.0] * num_cores
        cores_per_bs = config.cores_per_bs
        transport = config.transport_latency_us
        activation_period = cores_per_bs * SUBFRAME_US

        # -------------------------------------------------------- helpers

        def free_windows(
            now: float, me: int, deadline: float
        ) -> Tuple[List[Tuple[int, float]], Dict[int, float]]:
            """Free time per waiting-state helper core, largest first.

            A helper qualifies when its *local* processing is done; a
            migrated batch already queued on it only delays the start
            (the waiting thread executes migrated subtasks back to
            back), so the new batch is booked behind it.  Returns the
            ``(core, fck)`` list Algorithm 1 consumes plus each core's
            batch start time.
            """
            windows: List[Tuple[int, float]] = []
            starts: Dict[int, float] = {}
            for c in range(num_cores):
                if c == me:
                    continue
                # The shared CPU-state structure exposes "active, idle —
                # with remaining time" (sec. 4.1): an active core with a
                # known completion time is a valid target, its window
                # simply starts when it goes idle (and behind any batch
                # already queued on it).
                if window_epoch[c] != core_epoch[c]:
                    window_epoch[c] = core_epoch[c]
                    b = busy_until[c]
                    r = remote_cursor[c]
                    window_start[c] = b if b >= r else r
                start = window_start[c]
                if start < now:
                    start = now
                # "The underlying scheduler should be able to inform
                # when each idle core will be preempted" (sec. 3.2):
                # arrivals are deterministic under the partitioned
                # schedule, so planning consults the arrival table; the
                # closed-form rule covers the span past the trace end.
                activation = core_arrival[c]
                if activation == math.inf:
                    # Valid iff ``start`` sits within one period below
                    # the cached activation (``activation - period`` is
                    # exact: activations and the period are integral).
                    activation = closed_act[c]
                    if not (
                        activation > start
                        and activation - activation_period <= start
                    ):
                        activation = next_partitioned_activation(
                            c // cores_per_bs, c % cores_per_bs,
                            start, cores_per_bs, transport,
                        )
                        closed_act[c] = activation
                horizon = activation if activation < deadline else deadline
                fck = horizon - start
                if fck > 0:
                    windows.append((c, fck))
                    starts[c] = start
            windows.sort(key=lambda item: (-item[1], item[0]))
            return windows, starts

        def execute_batch(
            target: int,
            start: float,
            actual_durations: Sequence[float],
            planned_us: float,
            local_end: float,
            task_name: str = "",
            owner: int = -1,
            bs_id: int = -1,
            sf_index: int = -1,
            batch_id: int = -1,
        ) -> _BatchOutcome:
            """Book and execute a migrated batch on ``target``.

            Subtasks run back-to-back after the one-off state fetch.  A
            subtask's result counts only if its flag is set by the time
            the owner checks it — the later of the owner's local finish
            and the batch's *planned* completion (Algorithm 1 sized the
            batch from the model, so the owner waits that long and no
            longer).  A subtask still running at the helper's next
            arrival is preempted.  Either way the owner recomputes
            whatever is not ready (the recovery state, sec. 3.2.1 B).
            """
            preempt_at = core_arrival[target]
            # The owner polls the flag until the batch's planned end plus
            # a small patience margin for nominal kernel jitter; it will
            # not stall behind a helper hit by a long preemption.
            flag_check_at = max(local_end, start + planned_us + self.flag_patience_us)
            usable_until = min(preempt_at, flag_check_at)

            # Execution timeline on the helper, independent of whether
            # the owner ends up using the results.
            cursor = start + self.batch_overhead_us + self.remote_noise.draw_one(self.rng)
            subtask_ends: List[float] = []
            for duration in actual_durations:
                cursor = cursor + duration + self.subtask_overhead_us
                subtask_ends.append(cursor)
            # The helper burns cycles until it finishes or is preempted.
            booked_until = min(max(cursor, start), preempt_at)
            if booked_until > remote_cursor[target]:
                remote_cursor[target] = booked_until
                core_epoch[target] += 1
            note_busy(target, start, booked_until)

            # Results are usable up to the first not-ready subtask;
            # execution is sequential so usability is a prefix.
            completed = 0
            ready_time = start
            for end in subtask_ends:
                if end <= usable_until:
                    completed += 1
                    ready_time = end
                else:
                    break
            recovered = list(actual_durations[completed:])
            if trace is not None:
                trace.migration_executed(
                    target, task_name, start, booked_until,
                    owner_core=owner, shipped=len(actual_durations),
                    completed=completed, bs_id=bs_id, sf_index=sf_index,
                    batch=batch_id,
                )
                # Per-subtask spans, nested in the batch span: fully
                # executed subtasks plus the one the preemption cut.
                for k, sub_end in enumerate(subtask_ends):
                    sub_start = sub_end - actual_durations[k] - self.subtask_overhead_us
                    if sub_start >= booked_until:
                        break
                    trace.subtask(
                        target, f"{task_name}[{k}]",
                        sub_start, min(sub_end, booked_until),
                        bs_id=bs_id, sf_index=sf_index,
                        preempted=sub_end > booked_until,
                    )
            actual_total = (subtask_ends[completed - 1] - start) if completed else 0.0
            return _BatchOutcome(
                target_core=target,
                num_subtasks=len(actual_durations),
                completed=completed,
                ready_time=ready_time,
                recovered_durations=tuple(recovered),
                planned_us=planned_us,
                actual_us=actual_total,
            )

        def run_parallelizable_stage(
            job: SubframeJob,
            record: SubframeRecord,
            task_name: str,
            now: float,
            me: int,
            enabled: bool,
        ) -> float:
            """Execute one parallelizable task with migration; returns end time."""
            task = job.work.task(task_name)
            subtasks = task.subtasks
            serial_total = task.serial_duration_us
            if not subtasks or not enabled:
                return now + serial_total

            tp_planned = max(s.planned_us for s in subtasks)
            per_subtask_delta = self.batch_overhead_us / max(1, len(subtasks) // 2)
            # Algorithm 1 charges delta per subtask; amortize the batch
            # fetch over the largest batch R3 allows, plus the true
            # per-subtask increment.
            delta = per_subtask_delta + self.subtask_overhead_us
            windows, starts = free_windows(now + task.serial_us, me, job.deadline_us)
            decision = self.planner(len(subtasks), tp_planned, delta, windows)
            if not decision.assignments:
                return now + serial_total

            # Dominance guard (sec. 3.2.1 B): migration must leave the
            # thread no worse off than serial execution.  A batch whose
            # *planned* completion (WCET subtasks + overheads, from its
            # possibly delayed start behind already-queued batches) lands
            # after the serial baseline is not worth shipping — keep
            # those subtasks local instead.
            earliest_start = now + task.serial_us
            serial_end = now + serial_total
            assignments = []
            for target, count in decision.assignments:
                batch_start = max(earliest_start, starts.get(target, earliest_start))
                planned = self.batch_overhead_us + count * (
                    tp_planned + self.subtask_overhead_us
                )
                if batch_start + planned <= serial_end:
                    assignments.append((target, count, batch_start, planned))
            if not assignments:
                return now + serial_total

            # Local share: the serial prologue plus the kept subtasks.
            # The thread cannot predict which code block will need more
            # iterations, so the split is positional: the head of the
            # list stays local, the tail ships out.
            shipped = sum(count for _, count, _, _ in assignments)
            local_count = len(subtasks) - shipped
            local_end = now + task.serial_us + sum(
                s.duration_us for s in subtasks[:local_count]
            )
            batch_ids = [next(batch_counter) for _ in assignments]
            if trace is not None:
                trace.migration_planned(
                    earliest_start, me, task_name, shipped,
                    [target for target, _, _, _ in assignments],
                    bs_id=record.bs_id, sf_index=record.index,
                    batches=batch_ids,
                )

            stage_end = local_end
            cursor = 0
            for batch_id, (target, num, batch_start, planned) in zip(
                batch_ids, assignments
            ):
                # Positional split: remote subtasks are the tail, taken
                # contiguously in decision order.
                first = local_count + cursor
                cursor += num
                durations = [s.duration_us for s in subtasks[first : first + num]]
                outcome = execute_batch(
                    target, batch_start, durations, planned, local_end,
                    task_name=task_name, owner=me,
                    bs_id=record.bs_id, sf_index=record.index,
                    batch_id=batch_id,
                )
                if outcome.completed:
                    stage_end = max(stage_end, outcome.ready_time)
                # Recovery: recompute preempted subtasks locally, after
                # everything else this thread was doing.
                recovery = sum(outcome.recovered_durations)
                if recovery:
                    stage_end = max(stage_end, local_end) + recovery
                if trace is not None:
                    trace.migration_returned(
                        max(local_end, outcome.ready_time), me, task_name,
                        completed=outcome.completed,
                        recovered=len(outcome.recovered_durations),
                        bs_id=record.bs_id, sf_index=record.index,
                        batch=batch_id,
                    )
                record.migrations.append(
                    MigrationEvent(
                        task=task_name,
                        num_subtasks=outcome.completed,
                        target_core=target,
                        planned_us=outcome.planned_us,
                        actual_us=outcome.actual_us,
                        recovered_subtasks=len(outcome.recovered_durations),
                    )
                )
            return stage_end

        # ------------------------------------------------------- pipeline

        def start_decode(job: SubframeJob, record: SubframeRecord, now: float, me: int) -> None:
            deadline = job.deadline_us
            decode = job.work.task("decode")
            optimistic = decode.serial_us + sum(
                s.duration_us / l for s, l in zip(decode.subtasks, job.work.iterations)
            ) if decode.subtasks else decode.serial_duration_us
            if self.config.drop_on_slack_check and now + optimistic > deadline:
                record.dropped = True
                record.missed = True
                record.drop_stage = "decode"
                finalize(job, record, now, me)
                return
            end = run_parallelizable_stage(job, record, "decode", now, me, self.migrate_decode)
            if end > deadline:
                record.missed = True
                end = deadline
            # The owner occupies its core for the whole stage — local
            # subtasks, flag polling, and recovery are one busy span.
            note_busy(me, now, end)
            if trace is not None:
                trace.task(me, "decode", now, end, record.bs_id, record.index)
            finalize(job, record, end, me)

        def finalize(job: SubframeJob, record: SubframeRecord, finish: float, me: int) -> None:
            record.finish_us = finish
            slot = job.subframe.index % config.cores_per_bs
            activation = next_partitioned_activation(
                job.subframe.bs_id,
                slot,
                finish,
                config.cores_per_bs,
                config.transport_latency_us,
            )
            record.gap_us = max(0.0, activation - finish)
            if record.dropped:
                # "The resulting gaps are, however, not used for
                # migration" (sec. 4.1): a slack-check drop frees the
                # core early but the framework keeps it out of the
                # helper pool until its next activation.
                busy_until[me] = activation
            else:
                busy_until[me] = finish
            core_epoch[me] += 1
            if trace is not None:
                trace.deadline(
                    finish, me, record.missed or record.dropped,
                    record.bs_id, record.index, drop_stage=record.drop_stage,
                    service=record.service,
                )
                trace.gap(
                    me, finish, record.gap_us, record.bs_id, record.index,
                    usable=not record.dropped,
                )

        def arrive(job: SubframeJob) -> None:
            sf = job.subframe
            me = assigned_core_for(job, config.cores_per_bs)
            # This arrival is being dispatched: the next preemption
            # barrier on this core is the one after it.
            idx = arrival_cursor[me] = arrival_cursor[me] + 1
            arrivals = core_arrivals[me]
            core_arrival[me] = arrivals[idx] if idx < len(arrivals) else math.inf
            record = record_for(job, core_id=me)
            records.append(record)
            now = max(job.arrival_us, busy_until[me])
            record.queue_delay_us = now - job.arrival_us
            record.start_us = now
            if trace is not None:
                trace.arrival(job.arrival_us, me, sf.bs_id, sf.index)
            # The arrival preempts any migrated batch on this core.
            remote_cursor[me] = min(remote_cursor[me], now)
            busy_until[me] = job.deadline_us  # refined when finish is known
            core_epoch[me] += 1

            # Serial-only jobs (downlink Tx encodes) have no
            # parallelizable stages: run to completion on this core.
            task_names = {t.name for t in job.work.tasks}
            if "fft" not in task_names or "decode" not in task_names:
                end = now + job.serial_time_us
                if end > job.deadline_us:
                    record.missed = True
                    end = job.deadline_us
                note_busy(me, now, end)
                if trace is not None:
                    trace.task(me, "serial", now, end, sf.bs_id, sf.index)
                finalize(job, record, end, me)
                return

            # FFT stage (parallelizable).
            fft_end = run_parallelizable_stage(job, record, "fft", now, me, self.migrate_fft)
            # demod stage: serial; the platform error E lands here.
            demod_end = fft_end + job.work.task("demod").serial_duration_us + job.noise_us
            deadline = job.deadline_us
            note_busy(me, now, min(fft_end, deadline))
            note_busy(me, fft_end, min(demod_end, deadline))
            if trace is not None:
                trace.task(me, "fft", now, min(fft_end, deadline), sf.bs_id, sf.index)
                trace.task(me, "demod", fft_end, min(demod_end, deadline), sf.bs_id, sf.index)
            if demod_end > job.deadline_us:
                record.missed = True
                finalize(job, record, job.deadline_us, me)
                return
            if demod_end > busy_until[me]:
                busy_until[me] = demod_end
                core_epoch[me] += 1
            sim.schedule(demod_end, lambda: start_decode(job, record, demod_end, me), priority=1)

        for job in ordered_jobs:
            sim.schedule(job.arrival_us, lambda j=job: arrive(j))
        sim.run()
        if trace is not None:
            trace.meta["sim"] = sim.stats()
        return SchedulerResult(self.name, config, records, core_busy_us=busy)
