"""Tests for provisioning and placement."""

import pytest

from repro.placement import (
    demand_weights,
    peak_cores_required,
    place_basestations,
    place_by_weights,
    pooled_cores_required,
    pooling_savings,
)
from repro.sched import CRanConfig
from repro.workload.soa import build_workload_arrays

from tests.helpers import demand_from_jobs, make_job


@pytest.fixture(scope="module")
def fleet_demand():
    cfg = CRanConfig(transport_latency_us=500.0)
    return build_workload_arrays(cfg, 2000, seed=21).demand_rows()


def _permuted(demand):
    """The same demand with cells and samples in reverse order."""
    return {bs: row[::-1] for bs, row in reversed(list(demand.items()))}


class TestProvisioning:
    def test_pooled_never_exceeds_peak(self, fleet_demand):
        for q in (0.9, 0.99, 0.999):
            assert pooled_cores_required(fleet_demand, q) <= peak_cores_required(fleet_demand, q)

    def test_savings_in_unit_interval(self, fleet_demand):
        saving = pooling_savings(fleet_demand)
        assert 0.0 <= saving < 1.0

    def test_savings_material(self, fleet_demand):
        # The pooling argument: savings of the order CloudIQ reports
        # (tens of percent) on fluctuating cellular traffic.
        assert pooling_savings(fleet_demand, 0.999) >= 0.15

    def test_higher_quantile_needs_no_fewer_cores(self, fleet_demand):
        demand = fleet_demand
        assert peak_cores_required(demand, 0.999) >= peak_cores_required(demand, 0.9)
        assert pooled_cores_required(demand, 0.999) >= pooled_cores_required(demand, 0.9)

    def test_deterministic_workload_exact(self):
        # Constant 50% utilization per cell: peak = 1 core each, pooled
        # = ceil(0.5 * n).
        jobs = [make_job(b, j, 13, [1], noise=0.0) for b in range(4) for j in range(50)]
        util = jobs[0].serial_time_us / 1000.0
        assert 0.4 < util < 1.0
        demand = demand_from_jobs(jobs)
        assert peak_cores_required(demand, 0.999) == 4
        assert pooled_cores_required(demand, 0.999) == -(-int(util * 4 * 1000) // 1000)

    def test_quantile_validation(self, fleet_demand):
        with pytest.raises(ValueError):
            peak_cores_required(fleet_demand, 0.0)
        with pytest.raises(ValueError):
            pooled_cores_required(fleet_demand, 1.5)

    def test_empty_jobs(self):
        assert pooled_cores_required({}, 0.99) == 0

    def test_mismatched_series_lengths_rejected(self):
        # Regression: the aggregation used to zip the per-BS demand
        # series, silently truncating every series to the shortest and
        # biasing the pooled quantile low.  Unequal lengths are a caller
        # bug and must raise, naming the offenders.
        jobs = [make_job(0, j, 13, [1]) for j in range(5)]
        jobs += [make_job(1, j, 13, [1]) for j in range(3)]
        with pytest.raises(ValueError, match=r"bs0=5.*bs1=3"):
            pooled_cores_required(demand_from_jobs(jobs), 0.99)

    def test_equal_lengths_still_aggregate(self):
        jobs = [make_job(b, j, 13, [1]) for b in range(2) for j in range(5)]
        assert pooled_cores_required(demand_from_jobs(jobs), 0.99) >= 1

    def test_peak_provisioning_tolerates_mismatch(self):
        # Per-BS peaks never aggregate across cells, so unequal series
        # remain well-defined there.
        jobs = [make_job(0, j, 13, [1]) for j in range(5)]
        jobs += [make_job(1, j, 13, [1]) for j in range(3)]
        assert peak_cores_required(demand_from_jobs(jobs), 0.99) == 2


class TestPlacement:
    def test_every_bs_placed_once(self, fleet_demand):
        placement = place_basestations(fleet_demand, cores_per_node=8)
        assert sorted(placement.node_of) == [0, 1, 2, 3]

    def test_single_node_fits_default_fleet(self, fleet_demand):
        placement = place_basestations(fleet_demand, cores_per_node=8)
        assert placement.node_count == 1

    def test_small_nodes_force_spreading(self, fleet_demand):
        placement = place_basestations(fleet_demand, cores_per_node=3)
        assert placement.node_count >= 2

    def test_basestations_on_lists_membership(self, fleet_demand):
        placement = place_basestations(fleet_demand, cores_per_node=3)
        seen = []
        for node in range(placement.node_count):
            seen.extend(placement.basestations_on(node))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_oversized_cell_rejected(self):
        # A cell demanding more than a whole node cannot be placed.
        jobs = [make_job(0, j, 27, [4], noise=500.0) for j in range(20)]
        with pytest.raises(ValueError):
            place_basestations(demand_from_jobs(jobs), cores_per_node=2)

    def test_node_budget_respected(self, fleet_demand):
        import numpy as np

        placement = place_basestations(fleet_demand, cores_per_node=3, quantile=0.99)
        # Recompute weights and verify no node exceeds its budget.
        weights = {bs: float(np.quantile(d, 0.99)) for bs, d in fleet_demand.items()}
        for node in range(placement.node_count):
            total = sum(weights[bs] for bs in placement.basestations_on(node))
            assert total <= 3.0 + 1e-9

    def test_invalid_cores_per_node(self, fleet_demand):
        with pytest.raises(ValueError):
            place_basestations(fleet_demand, cores_per_node=0)


class TestTieBreak:
    def test_equal_weights_tie_break_by_bs_id(self):
        # Regression: the FFD sort keyed only on weight, so equal-weight
        # cells were placed in dict insertion order and the placement
        # depended on how the caller happened to assemble the weights.
        placement = place_by_weights({5: 1.0, 1: 1.0, 3: 1.0}, cores_per_node=2.0)
        assert placement.node_of == {1: 0, 3: 0, 5: 1}

    def test_placement_invariant_under_weight_insertion_order(self):
        weights = {0: 1.5, 1: 1.5, 2: 1.5, 3: 0.5, 4: 0.5}
        reversed_weights = dict(sorted(weights.items(), reverse=True))
        a = place_by_weights(weights, cores_per_node=2.0)
        b = place_by_weights(reversed_weights, cores_per_node=2.0)
        assert a.node_of == b.node_of

    def test_placement_invariant_under_job_order(self, fleet_demand):
        # Permuting the cells and their samples permutes the weight-dict
        # insertion order; the placement must not care.
        a = place_basestations(fleet_demand, cores_per_node=3, quantile=0.99)
        b = place_basestations(_permuted(fleet_demand), cores_per_node=3, quantile=0.99)
        assert a.node_of == b.node_of

    def test_demand_weights_match_job_order_permutation(self, fleet_demand):
        a = demand_weights(fleet_demand, 0.99)
        b = demand_weights(_permuted(fleet_demand), 0.99)
        assert a == b
        assert list(b) == sorted(b)
