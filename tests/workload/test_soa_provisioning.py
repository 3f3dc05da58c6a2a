"""Array-native provisioning: the demand column and node-subset materialization.

Provisioning reads demand rows straight off :class:`WorkloadArrays`, and
each placed node materializes only its own cells' jobs.  Both must agree
exactly with the job-walking oracles in :mod:`tests.helpers`: the demand
rows bit for bit, the node jobs field for field and in the same order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sched import CRanConfig
from repro.workload.soa import build_workload_arrays, materialize_jobs

from tests.helpers import demand_from_jobs, localize


def _arrays(num_bs, num_subframes, seed, jitter):
    rng = np.random.default_rng(seed)
    loads = rng.uniform(0.0, 1.0, size=(num_bs, num_subframes))
    transport_jitter = rng.normal(0.0, 25.0, size=loads.shape) if jitter else None
    cfg = CRanConfig(num_basestations=num_bs, transport_latency_us=500.0)
    return build_workload_arrays(
        cfg, num_subframes, seed=seed, loads=loads, transport_jitter=transport_jitter
    )


workloads = st.builds(
    _arrays,
    num_bs=st.integers(1, 16),
    num_subframes=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    jitter=st.booleans(),
)


@given(arrays=workloads)
@settings(max_examples=30, deadline=None)
def test_demand_rows_match_job_walk_bit_for_bit(arrays):
    jobs = materialize_jobs(arrays)
    rows = arrays.demand_rows()
    oracle = demand_from_jobs(jobs)
    assert list(rows) == list(oracle) == sorted(oracle)
    for bs, row in rows.items():
        assert row.dtype == np.float64
        assert row.tobytes() == oracle[bs].tobytes()
    serial = np.array([job.serial_time_us for job in jobs], dtype=np.float64)
    assert arrays.serial_us.tobytes() == serial.tobytes()


@given(arrays=workloads, data=st.data())
@settings(max_examples=30, deadline=None)
def test_node_subset_matches_localized_jobs(arrays, data):
    num_bs = int(arrays.bs_id[-1]) + 1
    cells = data.draw(
        st.lists(st.integers(0, num_bs - 1), min_size=1, max_size=num_bs, unique=True)
    )
    local = materialize_jobs(arrays, cells)
    oracle = localize(materialize_jobs(arrays), cells)
    # Dataclass equality compares every field, subframe included, in order.
    assert local == oracle
    assert {job.subframe.bs_id for job in local} == set(range(len(cells)))


@pytest.fixture(scope="module")
def small_arrays():
    return _arrays(3, 20, seed=5, jitter=True)


def _columns(obj):
    return [
        (f.name, getattr(obj, f.name))
        for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), np.ndarray)
    ]


def test_every_column_is_read_only(small_arrays):
    columns = _columns(small_arrays) + [
        (f"subtasks.{name}", column) for name, column in _columns(small_arrays.subtasks)
    ]
    columns.append(("serial_us", small_arrays.serial_us))
    assert len(columns) > 20
    for name, column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
        assert not column.flags.writeable, name


def test_demand_rows_split_the_serial_column(small_arrays):
    rows = small_arrays.demand_rows()
    assert list(rows) == [0, 1, 2]
    assert all(row.size == 20 for row in rows.values())
    np.testing.assert_array_equal(
        np.concatenate(list(rows.values())), small_arrays.serial_us / 1000.0
    )
