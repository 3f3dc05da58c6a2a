"""Concrete task graphs: Fig. 5's task/subtask breakdown with durations.

A :class:`SubframeWork` is the schedulable representation of one
subframe: an ordered list of tasks (FFT -> demod -> decode) with a
precedence constraint between stages ("all of its subtasks must complete
execution before moving on to the next stage", sec. 2.2).  Parallelizable
tasks carry their subtasks explicitly; these are the units RT-OPEX
migrates.

Durations come from :class:`repro.timing.model.LinearTimingModel`; the
per-code-block iteration counts are drawn by the caller (usually via
:class:`repro.timing.iterations.IterationModel`) so that planning-time
estimates and actual execution can differ — the source of RT-OPEX's
recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lazy import lazy_property
from repro.lte.subframe import UplinkGrant
from repro.timing.model import DurationTables, LinearTimingModel

#: ``SubtaskArrays.kind`` codes.
KIND_FFT = 0
KIND_DECODE = 1


@dataclass(frozen=True)
class SubtaskSpec:
    """An independently executable unit of a parallelizable task."""

    name: str
    duration_us: float
    #: Planning-time duration the scheduler assumes (WCET-style bound);
    #: actual execution uses ``duration_us``.
    planned_us: float

    def __post_init__(self) -> None:
        if self.duration_us < 0 or self.planned_us < 0:
            raise ValueError("subtask durations must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """One stage of the processing chain.

    ``serial_us`` is the non-parallelizable prologue executed by the
    owning thread; ``subtasks`` may be empty for fully serial tasks.
    """

    name: str
    serial_us: float
    subtasks: tuple = ()
    parallelizable: bool = False

    @lazy_property
    def serial_duration_us(self) -> float:
        """Time to execute the whole task on a single core.

        Cached: the schedulers read this at every stage boundary and
        the specs are immutable.
        """
        return self.serial_us + sum(s.duration_us for s in self.subtasks)

    @property
    def num_subtasks(self) -> int:
        return len(self.subtasks)


class WorkTables(NamedTuple):
    """Job-invariant values of one :class:`SubframeWork`.

    Works are interned (one object per distinct MCS, iteration vector
    and CRC outcome), so the schedulers read these from the work instead
    of recomputing them per job.  Every value is the exact expression
    the schedulers used to evaluate per job.  Scalars and stage
    references only: a per-subtask tuple would cost memory on workloads
    whose works are not shared, and one table rather than a cached field
    per value keeps the work's ``__dict__`` small.
    """

    #: The stages named ``fft``, ``demod`` and ``decode`` (``None`` when
    #: absent, as in downlink encodes).
    fft: Optional[TaskSpec]
    demod: Optional[TaskSpec]
    decode: Optional[TaskSpec]
    #: Largest planning-time subtask duration of the fft / decode stage
    #: (0 without subtasks): RT-OPEX's ``tp`` for Algorithm 1.
    fft_planned_us: float
    decode_planned_us: float
    #: Whole-work lower bound for the shared-queue slack check: the last
    #: stage's subtasks all at ``min(d / l)``, the other stages at their
    #: single-core time.  Rounds differently from the bound below.
    optimistic_time_us: float
    #: Decode lower bound for the partitioned and RT-OPEX slack check:
    #: ``sum(d / l)``, one iteration per code block (``None`` without a
    #: decode stage).
    decode_lower_bound_us: Optional[float]


def _planned_max(task: Optional[TaskSpec]) -> float:
    if task is None:
        return 0.0
    return max((s.planned_us for s in task.subtasks), default=0.0)


@dataclass(frozen=True)
class SubframeWork:
    """All processing for one subframe, in execution order."""

    tasks: tuple
    iterations: tuple  # per-code-block turbo iterations actually needed
    crc_pass: bool

    @lazy_property
    def total_serial_us(self) -> float:
        """Single-core processing time — Eq. (1) without the error term."""
        return sum(t.serial_duration_us for t in self.tasks)

    @lazy_property
    def tables(self) -> WorkTables:
        """The job-invariant values the schedulers read, computed once.

        Separate from :attr:`total_serial_us`, which provisioning reads
        for many works that never reach a scheduler.
        """
        def stage(name: str) -> Optional[TaskSpec]:
            return next((t for t in self.tasks if t.name == name), None)

        fft = stage("fft")
        decode = stage("decode")
        last = self.tasks[-1]
        best_subtask = min((s.duration_us / i for s, i in
                            zip(last.subtasks, self.iterations)), default=0.0)
        if last.subtasks:
            optimistic_decode = last.serial_us + best_subtask * len(last.subtasks)
        else:
            optimistic_decode = last.serial_us
        other = sum(t.serial_duration_us for t in self.tasks[:-1])
        lower_bound: Optional[float] = None
        if decode is not None:
            lower_bound = decode.serial_us + sum(
                s.duration_us / l for s, l in zip(decode.subtasks, self.iterations)
            ) if decode.subtasks else decode.serial_duration_us
        return WorkTables(
            fft=fft,
            demod=stage("demod"),
            decode=decode,
            fft_planned_us=_planned_max(fft),
            decode_planned_us=_planned_max(decode),
            optimistic_time_us=other + optimistic_decode,
            decode_lower_bound_us=lower_bound,
        )

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r}")


def build_subframe_work(
    model: LinearTimingModel,
    grant: UplinkGrant,
    iterations: Sequence[int],
    max_iterations: int,
    crc_pass: bool = True,
    parallelize_fft: bool = True,
    parallelize_decode: bool = True,
) -> SubframeWork:
    """Build the FFT -> demod -> decode task graph for one subframe.

    ``iterations`` holds the drawn per-code-block iteration counts; the
    planned duration of each decode subtask uses ``max_iterations`` (the
    WCET bound the scheduler can rely on before decoding starts).
    """
    num_blocks = grant.code_blocks
    if len(iterations) != num_blocks:
        raise ValueError(
            f"need {num_blocks} iteration counts for this grant, got {len(iterations)}"
        )

    fft_sub = model.fft_subtask_time()
    fft_subtasks = tuple(
        SubtaskSpec(name=f"fft/ant{a}", duration_us=fft_sub, planned_us=fft_sub)
        for a in range(grant.num_antennas)
    )
    fft = TaskSpec(
        name="fft",
        serial_us=0.0,
        subtasks=fft_subtasks if parallelize_fft else (),
        parallelizable=parallelize_fft,
    )
    if not parallelize_fft:
        fft = TaskSpec(name="fft", serial_us=model.fft_task_time(grant.num_antennas))

    demod = TaskSpec(
        name="demod",
        serial_us=model.demod_task_time(grant.num_antennas, grant.modulation_order),
    )

    load = grant.subcarrier_load
    planned_cb = model.decode_subtask_time(load, float(max_iterations), num_blocks)
    decode_subtasks = tuple(
        SubtaskSpec(
            name=f"decode/cb{i}",
            duration_us=model.decode_subtask_time(load, float(l), num_blocks),
            planned_us=planned_cb,
        )
        for i, l in enumerate(iterations)
    )
    prologue = model.decode_prologue_time(grant.modulation_order)
    decode = TaskSpec(
        name="decode",
        serial_us=prologue,
        subtasks=decode_subtasks if parallelize_decode else (),
        parallelizable=parallelize_decode,
    )
    if not parallelize_decode:
        decode = TaskSpec(
            name="decode",
            serial_us=prologue + sum(s.duration_us for s in decode_subtasks),
        )

    return SubframeWork(
        tasks=(fft, demod, decode),
        iterations=tuple(int(l) for l in iterations),
        crc_pass=crc_pass,
    )


# -- structure-of-arrays fast path ------------------------------------------


@dataclass(frozen=True)
class SubtaskArrays:
    """Structure-of-arrays representation of a workload's subtasks.

    One flat row per subtask across *all* subframes of a workload, laid
    out per subframe as ``[fft x num_antennas, decode x code_blocks]``
    (the execution order of :func:`build_subframe_work`).  Columns are
    numpy arrays built in one vectorized pass — no per-subtask Python
    objects exist until :meth:`materialize_works` lazily re-creates the
    legacy dataclasses for schedulers that still need them.

    ``offsets[i]:offsets[i + 1]`` is subframe ``i``'s subtask range;
    ``row`` maps each subtask back to its subframe;
    ``iterations``/``block_offsets`` carry the ragged per-code-block
    draw exactly as the decode rows consume it.  Columns are read-only
    once built.
    """

    num_antennas: int
    #: per-subtask columns (flat)
    kind: np.ndarray  # uint8: KIND_FFT | KIND_DECODE
    cb_index: np.ndarray  # antenna index for fft rows, code-block index for decode
    duration_us: np.ndarray
    planned_us: np.ndarray
    bs_id: np.ndarray
    subframe_index: np.ndarray
    row: np.ndarray  # owning subframe (index into the per-subframe columns)
    #: per-subframe columns
    offsets: np.ndarray  # (n + 1,) subtask ranges
    mcs: np.ndarray
    iterations: np.ndarray  # ragged per-code-block draws, flattened
    block_offsets: np.ndarray  # (n + 1,) ranges into ``iterations``

    def __post_init__(self) -> None:
        for f in fields(self):
            column = getattr(self, f.name)
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    @property
    def num_subframes(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_subtasks(self) -> int:
        return len(self.kind)

    def materialize_works(
        self,
        materializer: "WorkMaterializer",
        crc_pass: Sequence[bool],
        rows: Union[slice, np.ndarray] = slice(None),
    ) -> List[SubframeWork]:
        """Lazily materialize the legacy :class:`SubframeWork` objects.

        ``rows`` (a slice or an index array) selects the subframes, in
        the order given; the default is all of them.
        """
        mcs = self.mcs[rows].tolist()
        starts = self.block_offsets[:-1][rows].tolist()
        ends = self.block_offsets[1:][rows].tolist()
        crc = np.asarray(crc_pass, dtype=bool)[rows].tolist()
        iters = self.iterations.tolist()
        return [
            materializer.work_for(m, tuple(iters[lo:hi]), c)
            for m, lo, hi, c in zip(mcs, starts, ends, crc)
        ]


def build_subtask_arrays(
    tables: DurationTables,
    mcs: np.ndarray,
    bs_ids: np.ndarray,
    subframe_indices: np.ndarray,
    iterations: np.ndarray,
    block_offsets: np.ndarray,
) -> SubtaskArrays:
    """One vectorized pass from (MCS trace, iteration draws) to the SoA.

    ``iterations`` is the flattened per-code-block draw;
    ``block_offsets`` its per-subframe ranges (``block_offsets[i + 1] -
    block_offsets[i] == tables.code_blocks[mcs[i]]``).  Durations are
    gathered from the oracle tables, so every float equals the scalar
    value :func:`build_subframe_work` would compute.
    """
    mcs = np.asarray(mcs, dtype=np.int64)
    bs_ids = np.asarray(bs_ids, dtype=np.int64)
    subframe_indices = np.asarray(subframe_indices, dtype=np.int64)
    iterations = np.asarray(iterations, dtype=np.int64)
    block_offsets = np.asarray(block_offsets, dtype=np.int64)
    n = mcs.size
    num_antennas = tables.num_antennas
    blocks = np.diff(block_offsets)
    counts = num_antennas + blocks
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    row = np.repeat(np.arange(n, dtype=np.int64), counts)
    pos = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    decode = pos >= num_antennas
    kind = decode.astype(np.uint8)  # KIND_FFT = 0, KIND_DECODE = 1
    cb_index = np.where(decode, pos - num_antennas, pos)
    duration_us = np.full(total, tables.fft_subtask_us, dtype=np.float64)
    planned_us = np.full(total, tables.fft_subtask_us, dtype=np.float64)
    decode_mcs = mcs[row[decode]]
    duration_us[decode] = tables.decode_cb_us[decode_mcs, iterations - 1]
    planned_us[decode] = tables.planned_cb_us[decode_mcs]
    return SubtaskArrays(
        num_antennas=num_antennas,
        kind=kind,
        cb_index=cb_index,
        duration_us=duration_us,
        planned_us=planned_us,
        bs_id=bs_ids[row],
        subframe_index=subframe_indices[row],
        row=row,
        offsets=offsets,
        mcs=mcs,
        iterations=iterations,
        block_offsets=block_offsets,
    )


class WorkMaterializer:
    """Materializes byte-identical :class:`SubframeWork` objects from SoA rows.

    Frozen specs are value objects, so equal pieces are *interned*: one
    ``fft`` task per materializer, one ``demod`` task per MCS, one
    decode :class:`SubtaskSpec` per (MCS, block index, L) and one
    :class:`SubframeWork` per (MCS, iteration vector, CRC) — the whole
    population the evaluation can produce is a few hundred distinct
    objects.  Every float comes from the oracle tables, which computed
    it with the exact scalar formulas, so ``work_for`` output compares
    equal, field for field, with :func:`build_subframe_work`.
    """

    def __init__(self, tables: DurationTables):
        self.tables = tables
        fft_us = float(tables.fft_subtask_us)
        self._fft_task = TaskSpec(
            name="fft",
            serial_us=0.0,
            subtasks=tuple(
                SubtaskSpec(name=f"fft/ant{a}", duration_us=fft_us, planned_us=fft_us)
                for a in range(tables.num_antennas)
            ),
            parallelizable=True,
        )
        self._demod_us = tables.demod_us.tolist()
        self._prologue_us = tables.prologue_us.tolist()
        self._planned_cb_us = tables.planned_cb_us.tolist()
        self._decode_cb_us = tables.decode_cb_us.tolist()
        self._demod_tasks: dict = {}
        self._decode_subtasks: dict = {}
        self._works: dict = {}

    def work_for(
        self, mcs: int, iterations: Tuple[int, ...], crc_pass: bool
    ) -> SubframeWork:
        """The (interned) task graph for one subframe."""
        key = (mcs, iterations, crc_pass)
        work = self._works.get(key)
        if work is None:
            work = self._build(mcs, iterations, crc_pass)
            self._works[key] = work
        return work

    def _build(
        self, mcs: int, iterations: Tuple[int, ...], crc_pass: bool
    ) -> SubframeWork:
        demod = self._demod_tasks.get(mcs)
        if demod is None:
            demod = TaskSpec(name="demod", serial_us=self._demod_us[mcs])
            self._demod_tasks[mcs] = demod
        subtasks = self._decode_subtasks
        planned_us = self._planned_cb_us[mcs]
        durations = self._decode_cb_us[mcs]
        decode_subtasks = []
        for cb, l in enumerate(iterations):
            sub_key = (mcs, cb, l)
            spec = subtasks.get(sub_key)
            if spec is None:
                spec = SubtaskSpec(
                    name=f"decode/cb{cb}",
                    duration_us=durations[l - 1],
                    planned_us=planned_us,
                )
                subtasks[sub_key] = spec
            decode_subtasks.append(spec)
        decode = TaskSpec(
            name="decode",
            serial_us=self._prologue_us[mcs],
            subtasks=tuple(decode_subtasks),
            parallelizable=True,
        )
        return SubframeWork(
            tasks=(self._fft_task, demod, decode),
            iterations=iterations,
            crc_pass=crc_pass,
        )
