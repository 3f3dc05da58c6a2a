"""Benchmarks for array-native provisioning (the ``placement`` group).

Provisioning reads per-cell demand rows off the workload columns and
materializes scheduler jobs only for the cells a placed node runs:

* the 16-cell ``ext-pooling`` fleet: demand rows, placement weights and
  greedy first-fit-decreasing placement, from a freshly built columnar
  workload (the build itself is set-up, not timed);
* one 24-cell ``ext-fleet`` grid point: materializing every placed
  node's local job list from the shared columns.

The asserts pin the invariants the fast path relies on: one row per
cell, every cell placed once, every subframe materialized exactly once.
"""

import pytest

from repro.experiments import ext_fleet, ext_pooling
from repro.placement import demand_weights, place_by_weights
from repro.workload.soa import materialize_jobs

from benchmarks.conftest import BENCH_SEED

#: Subframes per cell: ext-pooling's floor, and ext-fleet's at scale 0.02.
POOLING_SUBFRAMES = 1000
FLEET_SUBFRAMES = 240


@pytest.mark.benchmark(group="placement")
def test_bench_pooling_demand_and_placement(benchmark):
    def setup():
        return (ext_pooling._fleet_arrays(16, POOLING_SUBFRAMES, BENCH_SEED),), {}

    def provision(arrays):
        weights = demand_weights(arrays.demand_rows(), 0.999)
        return weights, place_by_weights(weights, cores_per_node=8)

    weights, placement = benchmark.pedantic(provision, setup=setup, rounds=10, iterations=1)
    assert sorted(weights) == list(range(16))
    assert sorted(placement.node_of) == list(range(16))


@pytest.mark.benchmark(group="placement")
def test_bench_node_subset_materialize(benchmark):
    arrays = ext_fleet._fleet_arrays(24, 1.0, FLEET_SUBFRAMES, BENCH_SEED)
    weights = demand_weights(arrays.demand_rows(), ext_fleet.PLACEMENT_QUANTILE)
    placement = place_by_weights(weights, cores_per_node=8)
    nodes = [placement.basestations_on(node) for node in range(placement.node_count)]

    per_node = benchmark.pedantic(
        lambda: [materialize_jobs(arrays, cells) for cells in nodes],
        rounds=10, iterations=1,
    )
    assert len(nodes) > 1
    assert sum(len(jobs) for jobs in per_node) == arrays.num_jobs
