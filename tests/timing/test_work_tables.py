"""Exactness of the per-work tables the schedulers read.

``SubframeWork.tables`` caches job-invariant values (stage references,
the two lower bounds, each stage's planning-time ``tp``) so the
schedulers stop recomputing them per job.  Each cached value must
equal, bit for bit, the expression the schedulers used to evaluate —
reproduced verbatim below as the reference — on interned works from
:class:`WorkMaterializer`, on per-job works from
:func:`build_subframe_work` (serial stage variants included) and
:func:`build_multiuser_workload`, and on serial downlink works.  The
tables hold scalars or stage references only, never per-subtask
tuples, and the work's own ``__dict__`` gains only the table (beside
the existing ``total_serial_us``).
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.lte.subframe import UplinkGrant
from repro.sched.base import CRanConfig
from repro.timing.downlink import DownlinkTimingModel, build_tx_work
from repro.timing.model import LinearTimingModel, duration_oracle
from repro.timing.tasks import (
    TaskSpec,
    WorkMaterializer,
    WorkTables,
    build_subframe_work,
)
from repro.workload.multiuser import build_multiuser_workload

MODEL = LinearTimingModel()
MAX_ITERATIONS = 4
TABLES = duration_oracle(MODEL, MAX_ITERATIONS).tables()

# -- the replaced expressions, verbatim -----------------------------------


def ref_optimistic_time_us(work):
    """``SubframeJob.optimistic_time_us``: min(d/l)·n on the last stage."""
    decode = work.tasks[-1]  # was ``work.decode_task``
    best_subtask = min((s.duration_us / i for s, i in
                        zip(decode.subtasks, work.iterations)), default=0.0)
    if decode.subtasks:
        optimistic_decode = decode.serial_us + best_subtask * len(decode.subtasks)
    else:
        optimistic_decode = decode.serial_us
    other = sum(t.serial_duration_us for t in work.tasks[:-1])
    return other + optimistic_decode


def ref_decode_lower_bound_us(work):
    """The partitioned and RT-OPEX decode slack bound: Σ d/l."""
    decode = work.task("decode")
    return decode.serial_us + sum(
        s.duration_us / l for s, l in zip(decode.subtasks, work.iterations)
    ) if decode.subtasks else decode.serial_duration_us


def ref_tp_planned(task):
    """RT-OPEX's per-stage planning-time subtask duration."""
    return max(s.planned_us for s in task.subtasks)


def same_float(a, b):
    return a.hex() == b.hex()


def check_tables(work):
    tables = work.tables
    assert isinstance(tables, WorkTables)
    names = {t.name for t in work.tasks}
    for stage in ("fft", "demod", "decode"):
        cached = getattr(tables, stage)
        if stage in names:
            assert cached is work.task(stage)
        else:
            assert cached is None
    assert same_float(tables.optimistic_time_us, ref_optimistic_time_us(work))
    if "decode" in names:
        assert same_float(tables.decode_lower_bound_us, ref_decode_lower_bound_us(work))
    else:
        assert tables.decode_lower_bound_us is None
    for stage, planned in ((tables.fft, tables.fft_planned_us),
                           (tables.decode, tables.decode_planned_us)):
        if stage is not None and stage.subtasks:
            assert same_float(planned, ref_tp_planned(stage))
        else:
            assert planned == 0.0
    # Scalars and stage references only: a per-subtask tuple per work
    # costs memory on workloads whose works are not shared.
    for value in tables:
        assert value is None or isinstance(value, (float, TaskSpec))
    assert set(vars(work)) <= {f.name for f in fields(work)} | {"tables", "total_serial_us"}


@st.composite
def uplink_specs(draw):
    """(mcs, per-block iterations, crc) for one single-user subframe."""
    mcs = draw(st.integers(0, 27))
    blocks = int(TABLES.code_blocks[mcs])
    iterations = tuple(
        draw(st.lists(st.integers(1, MAX_ITERATIONS), min_size=blocks, max_size=blocks))
    )
    return mcs, iterations, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(st.lists(uplink_specs(), min_size=1, max_size=8))
def test_interned_works_match_replaced_expressions(specs):
    materializer = WorkMaterializer(TABLES)
    for mcs, iterations, crc in specs:
        check_tables(materializer.work_for(mcs, iterations, crc))


@settings(max_examples=80, deadline=None)
@given(uplink_specs(), st.booleans(), st.booleans())
def test_per_job_works_match_replaced_expressions(spec, par_fft, par_decode):
    mcs, iterations, crc = spec
    grant = UplinkGrant(mcs=mcs, num_prbs=50, num_antennas=2)
    work = build_subframe_work(
        MODEL, grant, iterations, MAX_ITERATIONS, crc_pass=crc,
        parallelize_fft=par_fft, parallelize_decode=par_decode,
    )
    check_tables(work)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 4), st.booleans())
def test_multiuser_works_match_replaced_expressions(seed, max_users, full_prb):
    cfg = CRanConfig(num_basestations=2)
    jobs = build_multiuser_workload(
        cfg, 6, seed=seed, max_users=max_users, full_prb=full_prb
    )
    for job in jobs:
        check_tables(job.work)
        assert job.optimistic_time_us == job.work.tables.optimistic_time_us


@given(st.integers(0, 27), st.floats(0.0, 50.0))
def test_serial_downlink_work(mcs, noise_us):
    grant = UplinkGrant(mcs=mcs, num_prbs=50, num_antennas=2)
    check_tables(build_tx_work(DownlinkTimingModel(), grant, noise_us))


def test_bounds_stay_distinct():
    # min(d/l)·n and Σ d/l are different lower bounds, not two
    # spellings of one: with unequal iteration counts they differ.
    grant = UplinkGrant(mcs=27, num_prbs=50, num_antennas=2)
    iterations = (1, 4) * (grant.code_blocks // 2) + (2,) * (grant.code_blocks % 2)
    work = build_subframe_work(MODEL, grant, iterations, MAX_ITERATIONS)
    other = work.task("fft").serial_duration_us + work.task("demod").serial_duration_us
    assert work.tables.optimistic_time_us - other != work.tables.decode_lower_bound_us
