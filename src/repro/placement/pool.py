"""Provisioning and placement: peak vs statistically multiplexed cores.

Definitions, with per-subframe processing demand expressed in *core
utilization* (processing time / subframe period):

* **peak provisioning** — each basestation independently reserves
  ``ceil(q-quantile of its own demand)`` cores; the paper's critique of
  per-basestation hardware ("provisioned for their peak usage");
* **pooled provisioning** — one reservation sized by the same quantile
  of the *aggregate* demand of all basestations on the node; cells'
  fluctuations are rarely simultaneous, so the aggregate quantile is
  far below the sum of individual peaks (CloudIQ's ~22% saving [15]).

Every function here takes *demand rows*: a mapping from basestation id
to that cell's per-subframe demand in core utilization, one sample per
subframe in trace order.  :meth:`repro.workload.soa.WorkloadArrays.
demand_rows` reads them straight off the workload pipeline's serial-time
column (load trace -> MCS -> Eq. (1) time), so provisioning and
scheduling reason about identical workloads without materializing a job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

#: Per-basestation demand rows in core-utilization units.
DemandRows = Mapping[int, np.ndarray]


def peak_cores_required(demand: DemandRows, quantile: float = 0.999) -> int:
    """Cores under per-basestation peak provisioning.

    Every basestation reserves enough cores for the ``quantile`` of its
    own demand, independently; reservations are integral (a core cannot
    be split across isolation boundaries).
    """
    _check_quantile(quantile)
    return sum(
        max(1, math.ceil(float(np.quantile(row, quantile)))) for row in demand.values()
    )


def pooled_cores_required(demand: DemandRows, quantile: float = 0.999) -> int:
    """Cores when all basestations share one statistical reservation.

    The aggregate is formed subframe-by-subframe, summing cells in
    ascending id order, so every basestation must contribute the same
    number of demand samples; truncating a longer series would silently
    bias the aggregate quantile low.
    """
    _check_quantile(quantile)
    if not demand:
        return 0
    lengths = {bs: len(row) for bs, row in sorted(demand.items())}
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"bs{bs}={n}" for bs, n in lengths.items())
        raise ValueError(
            f"per-basestation demand series differ in length ({detail}); "
            "pooled aggregation needs one sample per basestation per subframe"
        )
    aggregate = np.sum([demand[bs] for bs in sorted(demand)], axis=0)
    return max(1, math.ceil(float(np.quantile(aggregate, quantile))))


def pooling_savings(demand: DemandRows, quantile: float = 0.999) -> float:
    """Fractional compute saving of pooling over peak provisioning."""
    peak = peak_cores_required(demand, quantile)
    pooled = pooled_cores_required(demand, quantile)
    if peak == 0:
        return 0.0
    return 1.0 - pooled / peak


def demand_weights(demand: DemandRows, quantile: float = 0.999) -> Dict[int, float]:
    """Per-basestation placement weight: the ``quantile`` of its demand.

    This is the additive per-cell weight both placers (greedy FFD and
    the MILP baseline) pack against a node's core budget.  Note the
    conservatism: the sum of per-cell quantiles overestimates the
    quantile of the summed demand (cells' fluctuations are rarely
    simultaneous), so weight-packed nodes are provisioned *above* their
    pooled requirement — the price of reducing placement to bin packing.
    """
    _check_quantile(quantile)
    return {
        bs: float(np.quantile(row, quantile)) for bs, row in sorted(demand.items())
    }


@dataclass(frozen=True)
class NodePlacement:
    """Assignment of basestations to compute nodes."""

    node_of: Dict[int, int]
    node_count: int

    def basestations_on(self, node: int) -> List[int]:
        return sorted(bs for bs, n in self.node_of.items() if n == node)


def place_by_weights(
    weights: Mapping[int, float], cores_per_node: float
) -> NodePlacement:
    """First-fit-decreasing bin packing of explicit per-cell weights.

    Cells are visited heaviest-first with ties broken by basestation id
    — *not* by mapping insertion order, which would make the placement
    depend on the order the caller enumerated its cells in (a
    nondeterminism `repro.check` exists to forbid).
    """
    if cores_per_node <= 0:
        raise ValueError("cores_per_node must be positive")
    if not weights:
        return NodePlacement(node_of={}, node_count=0)
    for bs, weight in sorted(weights.items()):
        if weight > cores_per_node:
            raise ValueError(
                f"basestation {bs} needs {weight:.2f} cores, node has {cores_per_node}"
            )
    node_of: Dict[int, int] = {}
    node_load: List[float] = []
    for bs in sorted(weights, key=lambda b: (-weights[b], b)):
        placed = False
        for node, load in enumerate(node_load):
            if load + weights[bs] <= cores_per_node:
                node_of[bs] = node
                node_load[node] += weights[bs]
                placed = True
                break
        if not placed:
            node_of[bs] = len(node_load)
            node_load.append(weights[bs])
    return NodePlacement(node_of=node_of, node_count=len(node_load))


def place_basestations(
    demand: DemandRows,
    cores_per_node: int,
    quantile: float = 0.999,
) -> NodePlacement:
    """First-fit-decreasing placement of basestations onto nodes.

    Each basestation's weight is the ``quantile`` of its demand; a node
    accepts a cell while the *sum of weights* fits its core budget —
    i.e. nodes are provisioned statistically, not by per-cell peaks.
    This is the offline half of the paper's separation principle.
    """
    if cores_per_node < 1:
        raise ValueError("cores_per_node must be >= 1")
    return place_by_weights(demand_weights(demand, quantile), cores_per_node)


def _check_quantile(quantile: float) -> None:
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
