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
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from repro.timing.tasks import TaskSpec

#: Fixed cost of the first migration to a helper core (shared-state fetch).
DEFAULT_BATCH_OVERHEAD_US = 20.0
#: Incremental cost per additional migrated subtask in the same batch.
DEFAULT_SUBTASK_OVERHEAD_US = 0.5


class _BatchOutcome(NamedTuple):
    """Result of executing one migrated batch on a helper core.

    A ``NamedTuple``, like :class:`~repro.sched.migration.MigrationDecision`:
    one is built per migrated batch, and tuple construction is a single
    C call where a frozen dataclass pays ``object.__setattr__`` per field.
    """

    completed: int
    ready_time: float  # when the last *completed* subtask's flag was set
    recovered_durations: Tuple[float, ...]  # actual times of unfinished subtasks
    actual_us: float


#: Sort key of a ``(core, fck)`` window: its free time.
_FREE_TIME = itemgetter(1)


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
        if config.cores_per_bs < 2:
            # With one core per cell a subframe's reservation (its core
            # is held to its deadline, 2 ms after air time) outlasts the
            # next arrival on the same core, so two subframes would run
            # on it at once.  The paper's Tmax > 1 ms needs at least two
            # cores per cell anyway.
            raise ValueError(
                f"rt-opex needs cores_per_bs >= 2, got {config.cores_per_bs}"
            )
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
        rng = self.rng
        draw_remote_noise = self.remote_noise.draw_one
        planner = self.planner
        batch_overhead_us = self.batch_overhead_us
        subtask_overhead_us = self.subtask_overhead_us
        flag_patience_us = self.flag_patience_us
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
        cores_per_bs = config.cores_per_bs
        core_arrivals: List[List[float]] = [[] for _ in range(num_cores)]
        ordered_jobs = arrival_order(jobs)
        job_cores = [assigned_core_for(job, cores_per_bs) for job in ordered_jobs]
        for job, core in zip(ordered_jobs, job_cores):
            core_arrivals[core].append(job.arrival_us)
        for arrivals in core_arrivals:
            arrivals.sort()

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
            arrivals[0] if arrivals else math.inf for arrivals in core_arrivals
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
        # Batch start per core, written by ``free_windows`` for every
        # window it returns; the planner only assigns returned windows,
        # so a stale entry is never read.
        batch_start = [0.0] * num_cores
        # Past the arrival trace the preemption horizon comes from the
        # closed-form partitioned rule; the last value is cached per
        # core and revalidated against the activation period instead of
        # recomputed (the rule yields the smallest activation > start,
        # so a cached value is still correct iff start lies within one
        # period below it).
        closed_act = [0.0] * num_cores
        transport = config.transport_latency_us
        activation_period = cores_per_bs * SUBFRAME_US

        # -------------------------------------------------------- helpers

        def free_windows(
            now: float, me: int, deadline: float, min_fck: float
        ) -> List[Tuple[int, float]]:
            """Free time per waiting-state helper core, largest first.

            A helper qualifies when its *local* processing is done; a
            migrated batch already queued on it only delays the start
            (the waiting thread executes migrated subtasks back to
            back), so the new batch is booked behind it.  Returns the
            ``(core, fck)`` list Algorithm 1 consumes and records each
            returned core's batch start in ``batch_start``.

            Windows shorter than ``min_fck`` (one subtask plus its
            migration cost) are left out: every planner stops at the
            first window, in this order, that cannot hold one subtask,
            so they could never be assigned.
            """
            windows: List[Tuple[int, float]] = []
            if deadline - now < min_fck:
                # Every window ends by the deadline and starts no
                # earlier than ``now``, so none can reach ``min_fck``.
                return windows
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
                if fck >= min_fck and fck > 0:
                    windows.append((c, fck))
                    batch_start[c] = start
            if len(windows) > 1:
                # Algorithm 1's order, largest window first and core id
                # breaking ties: the list is built in core order and a
                # reversed sort is still stable.
                windows.sort(key=_FREE_TIME, reverse=True)
            return windows

        def execute_batch(
            target: int,
            start: float,
            actual_durations: Sequence[float],
            planned_us: float,
            local_end: float,
            task_name: str,
            owner: int,
            bs_id: int,
            sf_index: int,
            batch_id: int,
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
            flag_check_at = max(local_end, start + planned_us + flag_patience_us)
            usable_until = min(preempt_at, flag_check_at)

            # Execution timeline on the helper, independent of whether
            # the owner ends up using the results.
            cursor = start + batch_overhead_us + draw_remote_noise(rng)
            subtask_ends: List[float] = []
            for duration in actual_durations:
                cursor = cursor + duration + subtask_overhead_us
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
                    sub_start = sub_end - actual_durations[k] - subtask_overhead_us
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
                completed, ready_time, tuple(actual_durations[completed:]), actual_total
            )

        def run_parallelizable_stage(
            job: SubframeJob,
            record: SubframeRecord,
            task: TaskSpec,
            tp_planned: float,
            now: float,
            me: int,
            enabled: bool,
        ) -> float:
            """Execute one parallelizable task with migration; returns end time.

            ``tp_planned`` is the stage's largest planning-time subtask
            duration, Algorithm 1's ``tp``.
            """
            subtasks = task.subtasks
            num_subtasks = len(subtasks)
            if num_subtasks < 2 or not enabled:
                # Every planner keeps the last subtask local, so a stage
                # with fewer than two has nothing to migrate.
                return now + task.serial_duration_us

            per_subtask_delta = batch_overhead_us / max(1, num_subtasks // 2)
            # Algorithm 1 charges delta per subtask; amortize the batch
            # fetch over the largest batch R3 allows, plus the true
            # per-subtask increment.
            delta = per_subtask_delta + subtask_overhead_us
            earliest_start = now + task.serial_us
            windows = free_windows(
                earliest_start, me, job.deadline_us, tp_planned + delta
            )
            decision = planner(num_subtasks, tp_planned, delta, windows)
            if not decision.assignments:
                return now + task.serial_duration_us

            # Dominance guard (sec. 3.2.1 B): migration must leave the
            # thread no worse off than serial execution.  A batch whose
            # *planned* completion (WCET subtasks + overheads, from its
            # possibly delayed start behind already-queued batches) lands
            # after the serial baseline is not worth shipping — keep
            # those subtasks local instead.
            serial_end = now + task.serial_duration_us
            assignments = []
            for target, count in decision.assignments:
                start = batch_start[target]
                planned = batch_overhead_us + count * (tp_planned + subtask_overhead_us)
                if start + planned <= serial_end:
                    assignments.append((target, count, start, planned))
            if not assignments:
                return serial_end

            # Local share: the serial prologue plus the kept subtasks.
            # The thread cannot predict which code block will need more
            # iterations, so the split is positional: the head of the
            # list stays local, the tail ships out.
            task_name = task.name
            shipped = sum(count for _, count, _, _ in assignments)
            local_count = num_subtasks - shipped
            local_end = now + task.serial_us + sum(
                s.duration_us for s in subtasks[:local_count]
            )
            batch_ids = [next(batch_counter) for _ in assignments]
            bs_id = record.bs_id
            sf_index = record.index
            if trace is not None:
                trace.migration_planned(
                    earliest_start, me, task_name, shipped,
                    [target for target, _, _, _ in assignments],
                    bs_id=bs_id, sf_index=sf_index,
                    batches=batch_ids,
                )

            stage_end = local_end
            first = local_count
            for batch_id, (target, num, start, planned) in zip(batch_ids, assignments):
                # Positional split: remote subtasks are the tail, taken
                # contiguously in decision order.
                durations = [s.duration_us for s in subtasks[first : first + num]]
                first += num
                outcome = execute_batch(
                    target, start, durations, planned, local_end,
                    task_name, me, bs_id, sf_index, batch_id,
                )
                if outcome.completed:
                    stage_end = max(stage_end, outcome.ready_time)
                # Recovery: recompute preempted subtasks locally, after
                # everything else this thread was doing.
                recovered = outcome.recovered_durations
                recovery = sum(recovered)
                if recovery:
                    stage_end = max(stage_end, local_end) + recovery
                if trace is not None:
                    trace.migration_returned(
                        max(local_end, outcome.ready_time), me, task_name,
                        completed=outcome.completed,
                        recovered=len(recovered),
                        bs_id=bs_id, sf_index=sf_index,
                        batch=batch_id,
                    )
                record.migrations.append(
                    MigrationEvent(
                        task=task_name,
                        num_subtasks=outcome.completed,
                        target_core=target,
                        planned_us=planned,
                        actual_us=outcome.actual_us,
                        recovered_subtasks=len(recovered),
                    )
                )
            return stage_end

        # ------------------------------------------------------- pipeline

        def start_decode(job: SubframeJob, record: SubframeRecord, now: float, me: int) -> None:
            deadline = job.deadline_us
            tables = job.work.tables
            if config.drop_on_slack_check and now + tables.decode_lower_bound_us > deadline:
                record.dropped = True
                record.missed = True
                record.drop_stage = "decode"
                finalize(job, record, now, me)
                return
            end = run_parallelizable_stage(
                job, record, tables.decode, tables.decode_planned_us,
                now, me, self.migrate_decode,
            )
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
            sf = job.subframe
            activation = next_partitioned_activation(
                sf.bs_id,
                sf.index % cores_per_bs,
                finish,
                cores_per_bs,
                transport,
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

        def arrive(job: SubframeJob, me: int) -> None:
            sf = job.subframe
            # This arrival is being dispatched: the next preemption
            # barrier on this core is the one after it.
            idx = arrival_cursor[me] = arrival_cursor[me] + 1
            arrivals = core_arrivals[me]
            core_arrival[me] = arrivals[idx] if idx < len(arrivals) else math.inf
            record = record_for(job, core_id=me)
            records.append(record)
            arrival = job.arrival_us
            deadline = job.deadline_us
            now = max(arrival, busy_until[me])
            record.queue_delay_us = now - arrival
            record.start_us = now
            if trace is not None:
                trace.arrival(arrival, me, sf.bs_id, sf.index)
            # The arrival preempts any migrated batch on this core.
            remote_cursor[me] = min(remote_cursor[me], now)
            busy_until[me] = deadline  # refined when finish is known
            core_epoch[me] += 1

            # Serial-only jobs (downlink Tx encodes) have no
            # parallelizable stages: run to completion on this core.
            tables = job.work.tables
            fft = tables.fft
            if fft is None or tables.decode is None:
                end = now + job.serial_time_us
                if end > deadline:
                    record.missed = True
                    end = deadline
                note_busy(me, now, end)
                if trace is not None:
                    trace.task(me, "serial", now, end, sf.bs_id, sf.index)
                finalize(job, record, end, me)
                return

            # FFT stage (parallelizable).
            fft_end = run_parallelizable_stage(
                job, record, fft, tables.fft_planned_us, now, me, self.migrate_fft
            )
            # demod stage: serial; the platform error E lands here.
            demod_end = fft_end + tables.demod.serial_duration_us + job.noise_us
            note_busy(me, now, min(fft_end, deadline))
            note_busy(me, fft_end, min(demod_end, deadline))
            if trace is not None:
                trace.task(me, "fft", now, min(fft_end, deadline), sf.bs_id, sf.index)
                trace.task(me, "demod", fft_end, min(demod_end, deadline), sf.bs_id, sf.index)
            if demod_end > deadline:
                record.missed = True
                finalize(job, record, deadline, me)
                return
            if demod_end > busy_until[me]:
                busy_until[me] = demod_end
                core_epoch[me] += 1
            sim.schedule(demod_end, lambda: start_decode(job, record, demod_end, me), priority=1)

        for job, core in zip(ordered_jobs, job_cores):
            sim.schedule(job.arrival_us, lambda j=job, c=core: arrive(j, c))
        sim.run()
        if trace is not None:
            trace.meta["sim"] = sim.stats()
        return SchedulerResult(self.name, config, records, core_busy_us=busy)
