"""C-RAN schedulers: the paper's five policies plus a delay-aware one.

All six schedulers consume the same precomputed workload (so
comparisons are paired) and produce :class:`~repro.sched.base.SchedulerResult`
records.  The module map follows the paper's sec. 3:

* :mod:`repro.sched.partitioned` — offline partitioned schedule,
  ``ceil(Tmax)`` cores per basestation, round-robin subframe placement;
* :mod:`repro.sched.cloudiq` — the partitioned schedule behind a WCET
  admission test (CloudIQ, Table 2);
* :mod:`repro.sched.pran` — PRAN-style subtask splitting planned before
  reception, with no runtime adaptation (Table 2);
* :mod:`repro.sched.shared_queue` — one shared ring-buffer queue
  dispatching to idle cores with per-core cache-affinity penalties,
  under two queue disciplines: the global scheduler's EDF and the
  delay-aware mixed-service baseline's (``das``) budget-criticality ×
  channel-quality order;
* :mod:`repro.sched.migration` — Algorithm 1, the greedy migration
  planner (pure function, property-tested);
* :mod:`repro.sched.rtopex` — RT-OPEX: partitioned base schedule plus
  opportunistic migration of FFT/decode subtasks into idle-core gaps,
  with the recovery path for preempted migrations;
* :mod:`repro.sched.runner` — workload construction and the
  one-call-per-experiment entry points.
"""

from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeJob,
    SubframeRecord,
)
from repro.sched.cloudiq import CloudIqScheduler
from repro.sched.migration import MigrationDecision, plan_migration
from repro.sched.partitioned import PartitionedScheduler
from repro.sched.pran import PranScheduler
from repro.sched.rtopex import RtOpexScheduler
from repro.sched.runner import build_workload, run_scheduler
from repro.sched.shared_queue import (
    DEFAULT_DISPATCH_OVERHEAD_US,
    DelayAwareScheduler,
    GlobalScheduler,
)

__all__ = [
    "CRanConfig",
    "SchedulerResult",
    "SubframeJob",
    "SubframeRecord",
    "CloudIqScheduler",
    "DEFAULT_DISPATCH_OVERHEAD_US",
    "DelayAwareScheduler",
    "GlobalScheduler",
    "MigrationDecision",
    "plan_migration",
    "PartitionedScheduler",
    "PranScheduler",
    "RtOpexScheduler",
    "build_workload",
    "run_scheduler",
]
