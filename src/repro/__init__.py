"""RT-OPEX reproduction: flexible scheduling for Cloud-RAN processing.

A from-scratch Python reproduction of *RT-OPEX: Flexible Scheduling for
Cloud-RAN Processing* (Garikipati, Fawaz, Shin — CoNEXT 2016), built on
a deterministic discrete-event simulation of a multicore C-RAN compute
node (see DESIGN.md for the testbed-to-simulation substitutions).

Quick tour of the public API::

    from repro import CRanConfig, build_workload, run_scheduler

    cfg = CRanConfig(transport_latency_us=500.0)
    jobs = build_workload(cfg, num_subframes=5000)
    result = run_scheduler("rt-opex", cfg, jobs)
    print(result.miss_rate())

Subpackages:

* ``repro.lte`` — MCS/TBS tables, grid geometry, code-block segmentation;
* ``repro.phy`` — a functional numpy LTE uplink chain (OFDM, QAM, turbo);
* ``repro.timing`` — Eq. (1) timing model, task graphs, platform noise;
* ``repro.transport`` — fronthaul/cloud/WARP latency models;
* ``repro.sim`` — the discrete-event engine;
* ``repro.sched`` — the six scheduling policies and their runner;
* ``repro.workload`` — cellular load traces and grant mapping;
* ``repro.experiments`` — one driver per paper table/figure.
"""

from repro.lte.subframe import Subframe, UplinkGrant
from repro.sched import (
    DEFAULT_DISPATCH_OVERHEAD_US,
    CRanConfig,
    DelayAwareScheduler,
    GlobalScheduler,
    PartitionedScheduler,
    RtOpexScheduler,
    SchedulerResult,
    build_workload,
    run_scheduler,
)
from repro.sched.migration import MigrationDecision, plan_migration
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel, ModelCoefficients, fit_linear_model

__version__ = "1.0.0"

__all__ = [
    "Subframe",
    "UplinkGrant",
    "CRanConfig",
    "DEFAULT_DISPATCH_OVERHEAD_US",
    "DelayAwareScheduler",
    "GlobalScheduler",
    "PartitionedScheduler",
    "RtOpexScheduler",
    "SchedulerResult",
    "build_workload",
    "run_scheduler",
    "MigrationDecision",
    "plan_migration",
    "IterationModel",
    "LinearTimingModel",
    "ModelCoefficients",
    "fit_linear_model",
    "__version__",
]
