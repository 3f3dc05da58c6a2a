"""Basestation-to-node placement and resource-pooling analysis.

The paper adopts the separation principle (sec. 1, Problem Statement):
assigning basestations to compute nodes is decoupled from scheduling a
node's subframes.  This subpackage implements the first half — the
CloudIQ-style provisioning question "how many cores does a set of
basestations need?" — and reproduces the pooling argument the paper
cites: statistical multiplexing of fluctuating cells saves on the order
of 22% of compute relative to per-basestation peak provisioning [15].
"""

from repro.placement.optimal import (
    OptimalPlacement,
    optimal_place_by_weights,
    optimal_placement,
    placement_gap,
)
from repro.placement.pool import (
    DemandRows,
    NodePlacement,
    demand_weights,
    peak_cores_required,
    place_basestations,
    place_by_weights,
    pooled_cores_required,
    pooling_savings,
)

__all__ = [
    "DemandRows",
    "NodePlacement",
    "OptimalPlacement",
    "demand_weights",
    "optimal_place_by_weights",
    "optimal_placement",
    "peak_cores_required",
    "place_basestations",
    "place_by_weights",
    "placement_gap",
    "pooled_cores_required",
    "pooling_savings",
]
