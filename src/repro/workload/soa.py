"""Array-native workload pipeline: the structure-of-arrays fast path.

``build_workload_arrays`` runs the whole evaluation-workload
construction — load trace → MCS → per-code-block iteration draws →
Eq. (1) durations — as numpy column operations, producing a
:class:`WorkloadArrays` whose only per-subframe Python work is the
stream-exact RNG replay (:meth:`IterationModel.draw_trace`) and the
platform-noise draw (whose conditional uniforms preclude batching).
``materialize_jobs`` then lazily re-creates the legacy
:class:`~repro.sched.base.SubframeJob` dataclasses for the schedulers,
interning every frozen value object (grants, task specs, whole
subframe works) so equal subframes share one instance.

The contract is byte-identity: for the default model types the job list
compares equal, field for field, with the scalar builder retained as
``build_workload_legacy`` in :mod:`repro.sched.runner` — the RNG streams
are consumed bit-for-bit identically and every float is gathered from
tables the duration oracle computed with the exact scalar formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.constants import SUBFRAME_US
from repro.lazy import lazy_property
from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe, interned_grant
from repro.sched.base import CRanConfig, SubframeJob
from repro.sim.rng import RngStreams
from repro.timing.iterations import IterationModel
from repro.timing.model import DurationTables, LinearTimingModel, duration_oracle
from repro.timing.platform import PlatformNoiseModel
from repro.timing.tasks import SubtaskArrays, WorkMaterializer, build_subtask_arrays
from repro.workload.mapping import GrantMapper
from repro.workload.traces import CellularTraceGenerator


@dataclass(frozen=True)
class WorkloadArrays:
    """Columnar form of one experiment's workload.

    Per-subframe columns are ordered basestation-major — exactly the
    legacy builder's ``(bs, subframe)`` loop order, so materialized
    jobs come out in the same sequence.  ``subtasks`` is the flat
    per-subtask SoA (durations, kinds, code-block indices) built in the
    same pass.  Every numpy column is read-only once built: one
    instance feeds placement weights, pooling rows and every node's
    materialization, so no consumer may mutate it under the others.
    """

    snr_db: float
    num_prbs: int
    num_antennas: int
    tables: DurationTables
    bs_id: np.ndarray
    subframe_index: np.ndarray
    load: np.ndarray
    mcs: np.ndarray
    transport_latency_us: np.ndarray
    noise_us: np.ndarray
    crc_pass: np.ndarray
    iterations: np.ndarray
    block_offsets: np.ndarray
    subtasks: SubtaskArrays

    def __post_init__(self) -> None:
        for f in fields(self):
            column = getattr(self, f.name)
            if isinstance(column, np.ndarray):
                column.setflags(write=False)

    @property
    def num_jobs(self) -> int:
        return len(self.mcs)

    @lazy_property
    def serial_us(self) -> np.ndarray:
        """Per-subframe single-core time: ``SubframeJob.serial_time_us`` as a column.

        One ``total_serial_us`` per distinct (MCS, iteration vector) —
        the interned :class:`~repro.timing.tasks.SubframeWork` key —
        computed by the same work objects the schedulers run, gathered
        back per subframe, plus the platform noise.  Bit-equal to the
        materialized jobs' ``serial_time_us``.
        """
        n = self.num_jobs
        blocks = np.diff(self.block_offsets)
        keys = np.zeros((n, 1 + int(blocks.max(initial=0))), dtype=np.int64)
        keys[:, 0] = self.mcs
        block_row = np.repeat(np.arange(n), blocks)
        block_pos = np.arange(self.iterations.size) - self.block_offsets[block_row]
        keys[block_row, 1 + block_pos] = self.iterations
        # Group equal key rows: lexsort, then mark where a sorted row differs
        # from its predecessor.  (``np.unique(axis=0)`` is ~10x slower.)
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.ones(n, dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
        group = np.empty(n, dtype=np.int64)
        group[order] = np.cumsum(starts) - 1
        works = self.subtasks.materialize_works(
            WorkMaterializer(self.tables), self.crc_pass, order[starts]
        )
        totals = np.array([work.total_serial_us for work in works], dtype=np.float64)
        serial = totals[group] + self.noise_us
        serial.setflags(write=False)
        return serial

    def demand_rows(self) -> Dict[int, np.ndarray]:
        """Per-basestation demand in core-utilization units, ascending id.

        Row ``bs`` holds ``serial_us / SUBFRAME_US`` for that cell's
        subframes in trace order — the input form of every
        :mod:`repro.placement` provisioning and placement function.
        """
        utilization = self.serial_us / SUBFRAME_US
        ids, starts = np.unique(self.bs_id, return_index=True)
        rows = np.split(utilization, starts[1:])
        return dict(zip(ids.tolist(), rows))


def build_workload_arrays(
    config: CRanConfig,
    num_subframes: int,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
    timing_model: Optional[LinearTimingModel] = None,
    iteration_model: Optional[IterationModel] = None,
    noise_model: Optional[PlatformNoiseModel] = None,
    mapper: Optional[GrantMapper] = None,
    transport_jitter: Optional[np.ndarray] = None,
) -> WorkloadArrays:
    """Columnar equivalent of :func:`repro.sched.runner.build_workload`.

    Accepts the same parameters and consumes the same RNG streams in
    the same order; see the module docstring for the identity contract.
    """
    streams = RngStreams(seed)
    timing = timing_model if timing_model is not None else LinearTimingModel()
    iters = iteration_model if iteration_model is not None else IterationModel(
        max_iterations=config.max_iterations
    )
    noise = noise_model if noise_model is not None else PlatformNoiseModel()
    grants = mapper if mapper is not None else GrantMapper(num_antennas=config.num_antennas)

    if loads is None:
        generator = CellularTraceGenerator(seed=seed)
        if generator.num_basestations < config.num_basestations:
            raise ValueError(
                "default trace model has fewer basestations than the config; pass loads="
            )
        loads = generator.generate(num_subframes)[: config.num_basestations]
    loads = np.asarray(loads, dtype=np.float64)
    if loads.shape != (config.num_basestations, num_subframes):
        raise ValueError(
            f"loads must be shaped {(config.num_basestations, num_subframes)}, got {loads.shape}"
        )
    if transport_jitter is not None:
        transport_jitter = np.asarray(transport_jitter, dtype=np.float64)
        if transport_jitter.shape != loads.shape:
            raise ValueError("transport_jitter must match the loads shape")

    load_flat = loads.ravel()  # C order == the legacy (bs, subframe) loop
    n = load_flat.size
    mcs = grants.mcs_for_trace(load_flat)

    oracle = duration_oracle(timing, config.max_iterations)
    tables = oracle.tables(
        num_prbs=grants.num_prbs,
        num_antennas=grants.num_antennas,
        mcs_cap=grants.mcs_cap,
    )
    blocks = tables.code_blocks[mcs]
    block_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(blocks, out=block_offsets[1:])

    draw = iters.draw_trace(mcs, config.snr_db, streams.stream("iterations"), block_offsets)

    # The noise model's conditional spike/tail uniforms consume a
    # data-dependent number of stream doubles, so this stays a scalar
    # loop — three cheap rng calls per subframe.
    noise_rng = streams.stream("platform-noise")
    noise_us = np.array([noise.draw_one(noise_rng) for _ in range(n)], dtype=np.float64)

    transport_us = np.full(n, config.transport_latency_us, dtype=np.float64)
    if transport_jitter is not None:
        transport_us = transport_us + transport_jitter.ravel()

    bs_id = np.repeat(np.arange(config.num_basestations, dtype=np.int64), num_subframes)
    subframe_index = np.tile(np.arange(num_subframes, dtype=np.int64), config.num_basestations)
    subtasks = build_subtask_arrays(
        tables, mcs, bs_id, subframe_index, draw.iterations, block_offsets
    )
    return WorkloadArrays(
        snr_db=config.snr_db,
        num_prbs=grants.num_prbs,
        num_antennas=grants.num_antennas,
        tables=tables,
        bs_id=bs_id,
        subframe_index=subframe_index,
        load=load_flat,
        mcs=mcs,
        transport_latency_us=transport_us,
        noise_us=noise_us,
        crc_pass=draw.crc_pass,
        iterations=draw.iterations,
        block_offsets=block_offsets,
        subtasks=subtasks,
    )


def materialize_jobs(
    arrays: WorkloadArrays, cells: Optional[Sequence[int]] = None
) -> List[SubframeJob]:
    """Materialize the legacy job list from the columnar workload.

    Every frozen piece is interned — one grant per MCS, one
    :class:`~repro.timing.tasks.SubframeWork` per distinct
    (MCS, iteration vector, CRC) — so the job list allocates O(distinct)
    value objects instead of O(subframes).

    With ``cells``, only those basestations' rows are materialized, in
    workload order, with ids renumbered ``0..k-1`` by ascending global
    id: one placed node's dense local view of a fleet.  Work and noise
    are the globally drawn columns, unchanged — placement must never
    perturb the workload (paired methodology).
    """
    rows: Union[slice, np.ndarray] = slice(None)
    bs_column = arrays.bs_id
    if cells is not None:
        ordered = np.unique(np.asarray(cells, dtype=np.int64))
        rows = np.flatnonzero(np.isin(bs_column, ordered))
        bs_column = np.searchsorted(ordered, bs_column[rows])
    grid = GridConfig(10.0)
    materializer = WorkMaterializer(arrays.tables)
    works = arrays.subtasks.materialize_works(materializer, arrays.crc_pass, rows)
    mcs = arrays.mcs[rows].tolist()
    bs_id = bs_column.tolist()
    index = arrays.subframe_index[rows].tolist()
    latency = arrays.transport_latency_us[rows].tolist()
    noise = arrays.noise_us[rows].tolist()
    load = arrays.load[rows].tolist()
    snr_db = arrays.snr_db
    grants = {
        m: interned_grant(m, arrays.num_prbs, arrays.num_antennas) for m in set(mcs)
    }
    return [
        SubframeJob(
            subframe=Subframe(
                bs_id=bs_id[i],
                index=index[i],
                grant=grants[mcs[i]],
                snr_db=snr_db,
                transport_latency_us=latency[i],
                grid=grid,
            ),
            work=works[i],
            noise_us=noise[i],
            load=load[i],
        )
        for i in range(len(mcs))
    ]
