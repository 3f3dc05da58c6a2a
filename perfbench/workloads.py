"""The benchmark's workloads: which experiments run, and how.

Every workload drives the public runner (``ExperimentRunner`` over the
registered experiments) exactly as ``python -m repro`` would.  NOTES.md
gives the reason for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Experiments left out of ``paper-serial``: each has its own workload.
_OWN_WORKLOAD = ("ext-fleet", "ext-pooling")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Experiment ids; ``None`` means every registered experiment
    #: except those in ``_OWN_WORKLOAD``.
    ids: Optional[Tuple[str, ...]]
    scale: float
    jobs: int = 1
    options: Dict[str, str] = field(default_factory=dict)
    #: Run against a fresh, empty on-disk result cache.
    cache: bool = False
    #: Stream a Chrome trace of every scheduler run (the CLI's ``--trace``).
    trace_file: bool = False

    def experiment_ids(self):
        if self.ids is not None:
            return list(self.ids)
        from repro.experiments import list_experiments

        return [
            e.experiment_id for e in list_experiments()
            if e.experiment_id not in _OWN_WORKLOAD
        ]

    def params(self) -> Dict[str, object]:
        """JSON-native description for the result file."""
        return {
            "ids": list(self.ids) if self.ids is not None else "all-but:" + ",".join(_OWN_WORKLOAD),
            "scale": self.scale,
            "jobs": self.jobs,
            "options": dict(self.options),
            "cache": self.cache,
            "trace_file": self.trace_file,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-serial", None, scale=0.02, cache=True),
        Workload(
            "fleet-pool", ("ext-fleet",), scale=0.02, jobs=2,
            options={"fleet_cells": "24"},
        ),
        Workload("provision", ("ext-pooling",), scale=0.5),
        Workload("obs-trace", ("table2",), scale=0.02, trace_file=True),
    )
}
