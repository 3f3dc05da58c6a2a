"""CloudIQ-style scheduler: WCET-provisioned partitioned scheduling.

Table 2 characterizes CloudIQ [15]: no migration, fixed resources,
task-granular scheduling, and — critically — it "assumes fixed
processing time (equal to the WCET) for each LTE subframe".  On a single
node that amounts to the partitioned schedule plus a WCET admission
test: a subframe whose worst-case time (Eq. (1) at L = Lm plus the
transport share) does not fit the processing budget is rejected *at
arrival*, guaranteeing the schedule stays feasible for everything that
is admitted.

The contrast this exposes against both partitioned-with-termination and
RT-OPEX: CloudIQ never wastes cycles on a frame it cannot guarantee,
but it also forfeits every frame that would usually have finished in
fewer than Lm iterations — exactly the conservatism the paper's
Fig. 15/17 penalize.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs.trace import RunTrace
from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeJob,
    assigned_core_for,
    record_for,
)
from repro.sched.partitioned import PartitionedScheduler
from repro.timing.model import LinearTimingModel


class CloudIqScheduler(PartitionedScheduler):
    """Partitioned schedule with WCET admission control."""

    name = "cloudiq"

    def __init__(
        self,
        config: CRanConfig,
        timing_model: Optional[LinearTimingModel] = None,
        trace: Optional[RunTrace] = None,
    ):
        super().__init__(config, trace=trace)
        self.timing_model = timing_model if timing_model is not None else LinearTimingModel()

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        admitted: List[SubframeJob] = []
        rejected: List[SubframeJob] = []
        for job in jobs:
            wcet = self.timing_model.worst_case_time(
                job.subframe.grant, self.config.max_iterations
            )
            if wcet <= job.subframe.processing_budget_us:
                admitted.append(job)
            else:
                rejected.append(job)

        result = super().run(admitted)
        result.scheduler_name = self.name
        # Rejected subframes are deadline misses by definition: the
        # admission test refused to decode them.
        for job in rejected:
            sf = job.subframe
            if self.trace is not None:
                core = assigned_core_for(job, self.config.cores_per_bs)
                self.trace.arrival(job.arrival_us, core, sf.bs_id, sf.index)
                self.trace.deadline(
                    job.arrival_us, core, True, sf.bs_id, sf.index,
                    drop_stage="admission", service=job.service,
                )
            result.records.append(
                record_for(
                    job,
                    start_us=job.arrival_us,
                    finish_us=job.arrival_us,
                    missed=True,
                    dropped=True,
                    drop_stage="admission",
                )
            )
        result.records.sort(key=lambda r: (r.index, r.bs_id))
        return result

    def admitted_fraction(self, jobs: Sequence[SubframeJob]) -> float:
        """Fraction of the offered subframes the WCET test admits."""
        if not jobs:
            return 0.0
        admitted = sum(
            1
            for job in jobs
            if self.timing_model.worst_case_time(job.subframe.grant, self.config.max_iterations)
            <= job.subframe.processing_budget_us
        )
        return admitted / len(jobs)
