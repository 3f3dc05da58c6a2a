"""The compute-once attribute behind the job and task-graph fields."""

import dataclasses
import pickle

import pytest

from repro.lazy import lazy_property
from repro.lte.subframe import Subframe
from repro.sched.base import SubframeJob
from repro.timing.tasks import SubframeWork, TaskSpec

from tests.helpers import make_job


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: float

    @lazy_property
    def norm(self) -> float:
        """Euclidean length."""
        Point.calls += 1
        return (self.x**2 + self.y**2) ** 0.5


Point.calls = 0


def test_computed_once_and_stored_in_dict():
    Point.calls = 0
    p = Point(3.0, 4.0)
    assert "norm" not in vars(p)
    assert p.norm == 5.0
    assert vars(p)["norm"] == 5.0
    assert p.norm == 5.0
    assert Point.calls == 1


def test_class_access_returns_the_descriptor():
    descriptor = Point.norm
    assert isinstance(descriptor, lazy_property)
    assert descriptor.name == "norm"
    assert descriptor.__doc__ == "Euclidean length."
    assert Point.__dict__["norm"] is descriptor


def test_frozen_instance_keeps_rejecting_assignment():
    p = Point(1.0, 0.0)
    assert p.norm == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.norm = 2.0


def test_equality_and_hash_ignore_cached_values():
    cached, fresh = Point(3.0, 4.0), Point(3.0, 4.0)
    assert cached.norm == 5.0
    assert cached == fresh and hash(cached) == hash(fresh)
    assert dataclasses.astuple(cached) == dataclasses.astuple(fresh)


@pytest.mark.parametrize(
    "cls,name",
    [
        (SubframeJob, "arrival_us"),
        (SubframeJob, "deadline_us"),
        (SubframeJob, "serial_time_us"),
        (SubframeJob, "delay_budget_us"),
        (TaskSpec, "serial_duration_us"),
        (SubframeWork, "tables"),
    ],
)
def test_job_types_use_the_descriptor(cls, name):
    assert isinstance(cls.__dict__[name], lazy_property)


def test_subframe_times_are_not_cached():
    # The job caches the values it reads; caching them on the subframe
    # too would only grow its ``__dict__``.
    job = make_job(0, 3, 10, [1], rtt=400.0)
    assert (job.arrival_us, job.deadline_us, job.delay_budget_us) == (3400.0, 5000.0, 2000.0)
    assert set(vars(job.subframe)) == {f.name for f in dataclasses.fields(Subframe)}


def test_job_types_compare_and_hash_as_before_after_access():
    cached, fresh = make_job(1, 7, 20, [2], rtt=450.0), make_job(1, 7, 20, [2], rtt=450.0)
    assert cached.deadline_us - cached.arrival_us == 1550.0
    assert cached.serial_time_us > 0 and cached.delay_budget_us == 2000.0
    assert cached.optimistic_time_us > 0 and cached.work.tables.decode is not None
    assert cached == fresh
    assert hash(cached) == hash(fresh)
    assert hash(cached.work) == hash(fresh.work)
    assert hash(cached.subframe) == hash(fresh.subframe)
    # Cached values travel with a pickled job and still agree.
    clone = pickle.loads(pickle.dumps(cached))
    assert clone == fresh and clone.arrival_us == cached.arrival_us
