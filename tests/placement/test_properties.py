"""Property-based tests for provisioning and placement.

Three invariants that must hold on *every* instance, not just the
hand-picked ones:

* statistical multiplexing never loses — the pooled quantile demand is
  at most the sum of per-cell quantile demands (sum-of-quantiles
  overestimates quantile-of-sums);
* neither placer ever overfills a node;
* the exact MILP never opens more nodes than greedy first-fit
  decreasing.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.placement import (
    optimal_place_by_weights,
    peak_cores_required,
    place_by_weights,
    pooled_cores_required,
)

from tests.helpers import demand_from_jobs, make_job

pytest.importorskip("scipy.optimize")

_CAP_EPS = 1e-6

#: Weight dicts: up to 10 cells, weights in (0, 1] of a unit-capacity
#: node so every instance is feasible for both placers.
weight_dicts = st.dictionaries(
    keys=st.integers(min_value=0, max_value=99),
    values=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=10,
)

#: Per-cell grants: (mcs, iterations) pairs; each cell runs the same
#: number of subframes so the pooled aggregation is well-defined.
cell_grants = st.lists(
    st.tuples(st.integers(min_value=5, max_value=27), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=4,
)


@given(grants=cell_grants, quantile=st.sampled_from([0.9, 0.99, 0.999]))
@settings(max_examples=25, deadline=None)
def test_pooled_never_exceeds_peak(grants, quantile):
    demand = demand_from_jobs(
        make_job(bs, index, mcs, [iters])
        for bs, (mcs, iters) in enumerate(grants)
        for index in range(8)
    )
    assert pooled_cores_required(demand, quantile) <= peak_cores_required(demand, quantile)


@given(weights=weight_dicts)
@settings(max_examples=50, deadline=None)
def test_ffd_respects_capacity_and_places_everyone(weights):
    placement = place_by_weights(weights, cores_per_node=1.0)
    placed = []
    for node in range(placement.node_count):
        cells = placement.basestations_on(node)
        placed.extend(cells)
        assert sum(weights[bs] for bs in cells) <= 1.0 + _CAP_EPS
    assert sorted(placed) == sorted(weights)


@given(weights=weight_dicts)
@settings(max_examples=25, deadline=None)
def test_milp_respects_capacity_and_places_everyone(weights):
    opt = optimal_place_by_weights(weights, cores_per_node=1.0)
    placed = []
    for node in range(opt.placement.node_count):
        cells = opt.placement.basestations_on(node)
        placed.extend(cells)
        assert sum(weights[bs] for bs in cells) <= 1.0 + _CAP_EPS
    assert sorted(placed) == sorted(weights)


@given(weights=weight_dicts)
@settings(max_examples=25, deadline=None)
def test_milp_never_opens_more_nodes_than_greedy(weights):
    greedy = place_by_weights(weights, cores_per_node=1.0)
    opt = optimal_place_by_weights(weights, cores_per_node=1.0)
    assert opt.node_count <= greedy.node_count
    # And never fewer than the volume lower bound.
    assert opt.node_count >= math.ceil(sum(weights.values()) / 1.0 - _CAP_EPS)
