"""Shared-queue schedulers: global (paper sec. 3.1.2) and delay-aware.

One shared ring-buffer queue holds incoming subframes from all
basestations; a scheduling thread on its own core dispatches them to
idle processing cores.  Each core processes one subframe at a time,
terminates it at the deadline if it overruns, and returns to idle.
:meth:`SharedQueueScheduler.run` also models the runtime overheads
behind the paper's "surprising" global-scheduler results: a dispatch
overhead per assignment (semaphore wake-up + queue bookkeeping), a
cache-affinity penalty when a core switches basestation (Fig. 19: with
more cores each basestation's subframes scatter more widely, so 16
cores do no better than 8), a capacity-bounded ring buffer, and
drop-at-dispatch for frames whose optimistic finish already overshoots.

The policies differ only in queue discipline — which pending frame is
dispatched next and which one a full buffer overwrites — so
DAS-vs-global deltas isolate the ordering policy:

* :class:`GlobalScheduler` dispatches in EDF order (FIFO when every
  frame has the same transport delay and budget, as in the paper).  A
  full buffer evicts the EDF head, the earliest deadline: the oldest
  entry only while every job has one delay budget, the most urgent one
  under per-class budgets.
* :class:`DelayAwareScheduler` (DAS), the mixed-service baseline, ranks
  frames by an M-LWDF-style priority recomputed at every dispatch
  instant; a full buffer evicts the least urgent frame.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lte.mcs import max_mcs, throughput_mbps
from repro.obs.trace import RunTrace
from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeJob,
    SubframeRecord,
    arrival_order,
    record_for,
)
from repro.sim.engine import Simulator
from repro.timing.cache import CacheAffinityModel

#: Scheduling-thread cost per dispatch (semaphore signal + ring buffer).
DEFAULT_DISPATCH_OVERHEAD_US = 12.0


class _Entry:
    """A queued job and its record; orders by ``(deadline_us, seq)``, the EDF key."""

    __slots__ = ("deadline_us", "seq", "job", "record")

    def __init__(self, job: SubframeJob, record: SubframeRecord, seq: int) -> None:
        self.deadline_us = job.deadline_us
        self.seq = seq
        self.job = job
        self.record = record

    def __lt__(self, other: _Entry) -> bool:
        return (self.deadline_us, self.seq) < (other.deadline_us, other.seq)


class SharedQueueScheduler:
    """One shared queue dispatching to idle cores.

    Subclasses supply the queue discipline: :meth:`_push`,
    :meth:`_pop_next` and :meth:`_pop_victim`.
    """

    name: str

    def __init__(
        self,
        config: CRanConfig,
        rng: Optional[np.random.Generator] = None,
        cache_model: Optional[CacheAffinityModel] = None,
        dispatch_overhead_us: float = DEFAULT_DISPATCH_OVERHEAD_US,
        queue_capacity: int = 256,
        trace: Optional[RunTrace] = None,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.cache = cache_model if cache_model is not None else CacheAffinityModel()
        self.dispatch_overhead_us = dispatch_overhead_us
        self.queue_capacity = queue_capacity
        self.trace = trace

    # -- queue discipline ----------------------------------------------------

    def _push(self, queue: List[_Entry], entry: _Entry) -> None:
        """Add a newly arrived entry to ``queue``."""
        raise NotImplementedError

    def _pop_next(self, queue: List[_Entry], now: float) -> _Entry:
        """Remove and return the entry to dispatch at ``now``."""
        raise NotImplementedError

    def _pop_victim(self, queue: List[_Entry], now: float) -> _Entry:
        """Remove and return the entry a full ring buffer overwrites."""
        raise NotImplementedError

    # -- the shared loop -----------------------------------------------------

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        sim = Simulator()
        trace = self.trace
        rng = self.rng
        num_cores = self.config.total_cores
        # Idle cores, ascending: kept in order as cores go busy and come
        # back, so the random pick indexes the same list a scan of every
        # core would build.
        idle: List[int] = list(range(num_cores))
        queue: List[_Entry] = []
        records: List[SubframeRecord] = []
        busy: Dict[int, float] = {}
        seq = itertools.count(1)
        pop_next = self._pop_next
        dispatch_overhead_us = self.dispatch_overhead_us
        cache_penalty = self.cache.penalty
        self.cache.reset()

        def drop(record: SubframeRecord, stage: str) -> None:
            record.dropped = True
            record.missed = True
            record.drop_stage = stage
            record.start_us = sim.now
            record.finish_us = sim.now
            if trace is not None:
                trace.deadline(
                    sim.now, -1, True, record.bs_id, record.index,
                    drop_stage=stage, service=record.service,
                )

        def try_dispatch() -> None:
            while queue and idle:
                # The waiting processing threads all block on the same
                # semaphore; which one wakes first is up to the kernel, so
                # the dispatched core is effectively arbitrary.  (A
                # deterministic lowest-index pick would accidentally
                # recreate per-BS affinity and hide the cache thrashing
                # the paper observes.)  Drawn before the pop.
                pick = int(rng.integers(0, len(idle)))
                core = idle[pick]
                entry = pop_next(queue, sim.now)
                job, record = entry.job, entry.record
                start = sim.now + dispatch_overhead_us
                deadline = entry.deadline_us
                # A queued subframe whose deadline cannot possibly be met
                # any more is dropped by the dispatcher (before any cache
                # penalty is drawn for it).
                if start + job.work.tables.optimistic_time_us > deadline:
                    drop(record, "dispatch")
                    continue
                del idle[pick]
                sf = job.subframe
                record.core_id = core
                record.start_us = start
                record.queue_delay_us = start - job.arrival_us
                penalty = cache_penalty(core, sf.bs_id, sf.index, rng)
                record.cache_penalty_us = penalty
                finish = start + job.serial_time_us + penalty
                if finish > deadline:
                    record.missed = True
                    finish = deadline  # terminated at the deadline
                record.finish_us = finish
                if finish > start:
                    busy[core] = busy.get(core, 0.0) + (finish - start)
                if trace is not None:
                    trace.task(
                        core, "process", start, finish, record.bs_id, record.index,
                        cache_penalty_us=penalty,
                    )
                    trace.deadline(
                        finish, core, record.missed,
                        record.bs_id, record.index, service=record.service,
                    )

                def complete(core: int = core) -> None:
                    insort(idle, core)
                    try_dispatch()

                sim.schedule(finish, complete)

        def arrive(job: SubframeJob) -> None:
            record = record_for(job)
            records.append(record)
            if trace is not None:
                trace.arrival(job.arrival_us, -1, record.bs_id, record.index)
            if len(queue) >= self.queue_capacity:
                # Ring buffer full: the transport thread overwrites a
                # pending entry (it can never block, sec. 4.1).
                drop(self._pop_victim(queue, sim.now).record, "queue-overflow")
            self._push(queue, _Entry(job, record, next(seq)))
            # Dispatch runs after every same-instant arrival has been
            # enqueued (priority 1 > arrivals' 0), so a burst of
            # simultaneous subframes is ordered by the discipline rather
            # than by the order the transport threads happened to signal.
            sim.schedule(sim.now, try_dispatch, priority=1)

        for job in arrival_order(jobs):
            sim.schedule(job.arrival_us, lambda j=job: arrive(j))
        sim.run()
        if trace is not None:
            trace.meta["sim"] = sim.stats()
        return SchedulerResult(f"{self.name}-{num_cores}", self.config, records, core_busy_us=busy)


class GlobalScheduler(SharedQueueScheduler):
    """EDF/FIFO global scheduler; overflow evicts the EDF head."""

    name = "global"

    def _push(self, queue: List[_Entry], entry: _Entry) -> None:
        heapq.heappush(queue, entry)

    def _pop_next(self, queue: List[_Entry], now: float) -> _Entry:
        return heapq.heappop(queue)

    _pop_victim = _pop_next


class DelayAwareScheduler(SharedQueueScheduler):
    """Shared queue ordered by budget criticality × channel quality.

    ``priority = (hol_delay + optimistic_time) / delay_budget
    × (1 + channel_efficiency)``.  The first factor is the fraction of
    the job's delay budget elapsed by its earliest possible finish, so
    a URLLC frame at 60% of 1 ms outranks an eMBB frame at 20% of 2 ms
    even when the eMBB deadline is earlier.  ``channel_efficiency`` is
    the grant's throughput relative to the top MCS (the static part of
    M-LWDF's ``r_i/R̄_i``; no per-dispatch fading is drawn).  On one
    shared budget the order degenerates to EDF with a throughput
    tiebreak.
    """

    name = "das"
    _peak_throughput = throughput_mbps(max_mcs())

    def _priority(self, job: SubframeJob, now: float) -> float:
        """M-LWDF-style urgency of dispatching ``job`` at ``now``."""
        hol_delay = max(0.0, now - job.subframe.air_time_us)
        criticality = (hol_delay + job.work.tables.optimistic_time_us) / job.delay_budget_us
        efficiency = throughput_mbps(job.subframe.grant.mcs) / self._peak_throughput
        return criticality * (1.0 + efficiency)

    def _push(self, queue: List[_Entry], entry: _Entry) -> None:
        queue.append(entry)

    def _pop_next(self, queue: List[_Entry], now: float) -> _Entry:
        # Priorities depend on the current instant, so they are
        # recomputed over the (capacity-bounded) pending set at every
        # dispatch.  Ties break by deadline, basestation, then arrival.
        def rank(i: int) -> Tuple[float, float, int, int]:
            e = queue[i]
            return (-self._priority(e.job, now), e.job.deadline_us, e.job.subframe.bs_id, e.seq)

        return queue.pop(min(range(len(queue)), key=rank))

    def _pop_victim(self, queue: List[_Entry], now: float) -> _Entry:
        def urgency(i: int) -> Tuple[float, int]:
            return (-self._priority(queue[i].job, now), queue[i].seq)

        return queue.pop(max(range(len(queue)), key=urgency))
