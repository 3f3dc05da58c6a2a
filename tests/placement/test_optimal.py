"""Tests for the exact MILP placement baseline."""

import pytest

from repro.placement import (
    demand_weights,
    optimal_place_by_weights,
    optimal_placement,
    place_by_weights,
    placement_gap,
)
from repro.sched import CRanConfig
from repro.workload.soa import build_workload_arrays

pytest.importorskip("scipy.optimize")


@pytest.fixture(scope="module")
def fleet_demand():
    cfg = CRanConfig(transport_latency_us=500.0)
    return build_workload_arrays(cfg, 1000, seed=21).demand_rows()


class TestOptimalPlacement:
    def test_classic_ffd_suboptimal_instance(self):
        # {0.4, 0.4, 0.3, 0.3, 0.3, 0.3} with unit capacity: FFD opens
        # three nodes (0.4+0.4, 0.3+0.3+0.3, 0.3) but two suffice
        # (0.4+0.3+0.3 twice).  The MILP must find the two-node packing.
        weights = {i: w for i, w in enumerate([0.4, 0.4, 0.3, 0.3, 0.3, 0.3])}
        greedy = place_by_weights(weights, cores_per_node=1.0)
        opt = optimal_place_by_weights(weights, cores_per_node=1.0)
        assert greedy.node_count == 3
        assert opt.node_count == 2
        assert opt.optimal
        assert placement_gap(greedy.node_count, opt.node_count) == pytest.approx(0.5)

    def test_every_cell_placed_once(self):
        weights = {i: 0.7 for i in range(7)}
        opt = optimal_place_by_weights(weights, cores_per_node=2.0)
        placed = []
        for node in range(opt.placement.node_count):
            placed.extend(opt.placement.basestations_on(node))
        assert sorted(placed) == list(range(7))

    def test_capacity_respected(self):
        weights = {i: 0.9 + 0.1 * (i % 3) for i in range(9)}
        capacity = 2.5
        opt = optimal_place_by_weights(weights, cores_per_node=capacity)
        for node in range(opt.placement.node_count):
            total = sum(weights[bs] for bs in opt.placement.basestations_on(node))
            assert total <= capacity + 1e-6

    def test_never_worse_than_greedy(self):
        weights = {i: 0.2 + 0.13 * (i % 5) for i in range(20)}
        greedy = place_by_weights(weights, cores_per_node=1.0)
        opt = optimal_place_by_weights(weights, cores_per_node=1.0)
        assert opt.node_count <= greedy.node_count
        assert opt.lower_bound <= opt.node_count

    def test_deterministic_across_insertion_orders(self):
        weights = {i: 0.4 if i % 2 else 0.3 for i in range(8)}
        permuted = dict(sorted(weights.items(), reverse=True))
        a = optimal_place_by_weights(weights, cores_per_node=1.0)
        b = optimal_place_by_weights(permuted, cores_per_node=1.0)
        assert a.placement.node_of == b.placement.node_of
        assert a.node_count == b.node_count

    def test_canonical_node_labels(self):
        # Node ids are relabeled so node k is the one holding the
        # smallest not-yet-seen cell id — the MILP's arbitrary bin
        # indices never leak into the output.
        weights = {i: 0.5 for i in range(6)}
        opt = optimal_place_by_weights(weights, cores_per_node=1.0)
        first_seen = {}
        for bs in sorted(opt.placement.node_of):
            node = opt.placement.node_of[bs]
            first_seen.setdefault(node, bs)
        assert list(first_seen) == sorted(first_seen)

    def test_single_node_early_return(self):
        weights = {0: 0.3, 1: 0.3}
        opt = optimal_place_by_weights(weights, cores_per_node=8.0)
        assert opt.node_count == 1
        assert opt.optimal
        assert opt.solver_gap == 0.0

    def test_oversized_cell_rejected(self):
        with pytest.raises(ValueError):
            optimal_place_by_weights({0: 3.0}, cores_per_node=2.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            optimal_place_by_weights({0: 0.5}, cores_per_node=0.0)

    def test_empty_weights(self):
        opt = optimal_place_by_weights({}, cores_per_node=2.0)
        assert opt.node_count == 0

    def test_from_jobs_matches_greedy_weighting(self, fleet_demand):
        greedy = place_by_weights(demand_weights(fleet_demand, 0.99), cores_per_node=3.0)
        opt = optimal_placement(fleet_demand, cores_per_node=3, quantile=0.99)
        assert opt.node_count <= greedy.node_count


class TestPlacementGap:
    def test_zero_gap_when_equal(self):
        assert placement_gap(4, 4) == 0.0

    def test_fractional_gap(self):
        assert placement_gap(3, 2) == pytest.approx(0.5)

    def test_degenerate_optimal(self):
        assert placement_gap(3, 0) == 0.0
