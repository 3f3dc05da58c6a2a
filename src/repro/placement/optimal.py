"""Optimization-based placement baseline: bin packing as a MILP.

The greedy first-fit-decreasing placer (:func:`repro.placement.pool.
place_by_weights`) is fast but only 11/9-OPT in the worst case.  This
module poses the same question — pack per-cell demand weights onto the
fewest ``cores_per_node``-capacity nodes — as an exact mixed-integer
program, giving the fleet sweeps an *optimal* baseline to report the
greedy placer's gap against:

    minimize    sum_j y_j
    subject to  sum_j x_ij = 1                 (every cell placed once)
                sum_i w_i x_ij <= C * y_j      (node capacity)
                x_ij, y_j in {0, 1}

with two standard symmetry reductions that keep branch-and-bound off
the exponentially many relabelings of an identical solution: cell ``i``
(in heaviest-first order) may only use nodes ``0..i``, and node ``j+1``
can only be open when node ``j`` is.

Solved with ``scipy.optimize.milp`` (HiGHS).  cvxpy is deliberately not
used — it is absent from the floor environment; scipy >= 1.9 ships the
MILP interface.  The import is lazy so everything else in
``repro.placement`` works without scipy installed.

Determinism: the model is built cell-by-cell in sorted-id order, HiGHS
is deterministic for a fixed model and library version, and the
resulting assignment is canonicalized (nodes relabeled by their
smallest cell id) before it is returned — so serial and ``--jobs N``
fleet sweeps agree byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.placement.pool import (
    DemandRows,
    NodePlacement,
    demand_weights,
    place_by_weights,
)

#: Feasibility slack when auditing the solver's (floating-point) packing.
_CAPACITY_EPS = 1e-6


@dataclass(frozen=True)
class OptimalPlacement:
    """An exact placement plus the solver evidence behind it.

    ``lower_bound`` is the solver's dual bound on the node count
    (rounded up — the objective is integral); ``solver_gap`` the
    relative gap HiGHS stopped at (0.0 when proved optimal);
    ``bnb_nodes`` the branch-and-bound nodes explored.
    """

    placement: NodePlacement
    optimal: bool
    lower_bound: int
    solver_gap: float
    bnb_nodes: int

    @property
    def node_count(self) -> int:
        return self.placement.node_count


def optimal_place_by_weights(
    weights: Mapping[int, float],
    cores_per_node: float,
    mip_rel_gap: float = 0.0,
) -> OptimalPlacement:
    """Minimum-node placement of explicit per-cell weights via MILP.

    ``mip_rel_gap`` > 0 lets the solver stop once the incumbent is
    proved within that relative distance of the bound (still
    deterministic — the stopping rule depends only on the search tree,
    not on wall time; never pass a time limit here for that reason).
    """
    try:
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:  # pragma: no cover - scipy is in the test env
        raise RuntimeError(
            "optimal placement needs scipy >= 1.9 (scipy.optimize.milp); "
            "install scipy or use the greedy placer"
        ) from exc

    if cores_per_node <= 0:
        raise ValueError("cores_per_node must be positive")
    if not weights:
        return OptimalPlacement(
            placement=NodePlacement(node_of={}, node_count=0),
            optimal=True, lower_bound=0, solver_gap=0.0, bnb_nodes=0,
        )

    # Greedy FFD is always feasible, so its node count bounds the model:
    # no optimal solution opens more nodes than FFD did.
    greedy = place_by_weights(weights, cores_per_node)
    max_nodes = greedy.node_count
    # Heaviest-first cell order (id tie-break) — the order the symmetry
    # reduction "cell i uses nodes 0..i" is valid in.
    cells = sorted(weights, key=lambda b: (-weights[b], b))
    n = len(cells)
    if max_nodes <= 1:
        return OptimalPlacement(
            placement=greedy, optimal=True,
            lower_bound=greedy.node_count, solver_gap=0.0, bnb_nodes=0,
        )

    # Variables: x_ij for j <= min(i, max_nodes-1), then y_j.
    col_of: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for j in range(min(i, max_nodes - 1) + 1):
            col_of[(i, j)] = len(col_of)
    num_x = len(col_of)
    num_cols = num_x + max_nodes

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    row = 0
    # Every cell placed exactly once.
    for i in range(n):
        for j in range(min(i, max_nodes - 1) + 1):
            rows.append(row)
            cols.append(col_of[(i, j)])
            vals.append(1.0)
        lower.append(1.0)
        upper.append(1.0)
        row += 1
    # Node capacity, tied to the node-open indicator.
    for j in range(max_nodes):
        for i in range(j, n):
            rows.append(row)
            cols.append(col_of[(i, j)])
            vals.append(float(weights[cells[i]]))
        rows.append(row)
        cols.append(num_x + j)
        vals.append(-float(cores_per_node))
        lower.append(-math.inf)
        upper.append(0.0)
        row += 1
    # Open nodes form a prefix: y_{j+1} <= y_j.
    for j in range(max_nodes - 1):
        rows.extend((row, row))
        cols.extend((num_x + j + 1, num_x + j))
        vals.extend((1.0, -1.0))
        lower.append(-math.inf)
        upper.append(0.0)
        row += 1

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, num_cols)
    )
    objective = np.concatenate([np.zeros(num_x), np.ones(max_nodes)])
    result = milp(
        c=objective,
        constraints=LinearConstraint(matrix, np.array(lower), np.array(upper)),
        integrality=np.ones(num_cols),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": float(mip_rel_gap)},
    )
    if result.x is None:
        raise RuntimeError(
            f"optimal placement solve failed (status {result.status}): "
            f"{result.message}"
        )

    assignment = np.asarray(result.x[:num_x])
    node_of: Dict[int, int] = {}
    for i, bs in enumerate(cells):
        choices = [
            j for j in range(min(i, max_nodes - 1) + 1)
            if assignment[col_of[(i, j)]] > 0.5
        ]
        if len(choices) != 1:
            raise RuntimeError(
                f"solver returned a non-assignment for basestation {bs}"
            )
        node_of[bs] = choices[0]
    _audit_capacity(node_of, weights, cores_per_node)

    placement = _canonicalize(node_of)
    solver_gap = float(getattr(result, "mip_gap", 0.0) or 0.0)
    dual_bound = getattr(result, "mip_dual_bound", None)
    lower_bound = (
        int(math.ceil(float(dual_bound) - _CAPACITY_EPS))
        if dual_bound is not None
        else placement.node_count
    )
    return OptimalPlacement(
        placement=placement,
        optimal=solver_gap <= _CAPACITY_EPS,
        lower_bound=min(lower_bound, placement.node_count),
        solver_gap=solver_gap,
        bnb_nodes=int(getattr(result, "mip_node_count", 0) or 0),
    )


def optimal_placement(
    demand: DemandRows,
    cores_per_node: int,
    quantile: float = 0.999,
    mip_rel_gap: float = 0.0,
) -> OptimalPlacement:
    """MILP counterpart of :func:`~repro.placement.pool.place_basestations`."""
    if cores_per_node < 1:
        raise ValueError("cores_per_node must be >= 1")
    return optimal_place_by_weights(
        demand_weights(demand, quantile), cores_per_node, mip_rel_gap=mip_rel_gap
    )


def placement_gap(greedy_nodes: int, optimal_nodes: int) -> float:
    """Fractional node overhead of the greedy placement over the optimum."""
    if optimal_nodes <= 0:
        return 0.0
    return greedy_nodes / optimal_nodes - 1.0


def _audit_capacity(
    node_of: Mapping[int, int],
    weights: Mapping[int, float],
    cores_per_node: float,
) -> None:
    loads: Dict[int, float] = {}
    for bs, node in sorted(node_of.items()):
        loads[node] = loads.get(node, 0.0) + float(weights[bs])
    for node, load in sorted(loads.items()):
        if load > cores_per_node + _CAPACITY_EPS:
            raise RuntimeError(
                f"solver packed {load:.6f} cores onto node {node} "
                f"(capacity {cores_per_node})"
            )


def _canonicalize(node_of: Mapping[int, int]) -> NodePlacement:
    """Relabel nodes by their smallest cell id (stable across solvers)."""
    first_cell: Dict[int, int] = {}
    for bs, node in sorted(node_of.items()):
        if node not in first_cell:
            first_cell[node] = bs
    relabel = {
        node: rank
        for rank, node in enumerate(
            sorted(first_cell, key=lambda nd: first_cell[nd])
        )
    }
    return NodePlacement(
        node_of={bs: relabel[node] for bs, node in sorted(node_of.items())},
        node_count=len(relabel),
    )
