"""Outside-in layer ledger for the traced benchmark run.

Wall-clock spans are recorded around each layer's public entry points by
replacing those functions, from this file, with timing wrappers; nothing
under ``src/repro`` is edited.  A layer's self time is its span's
duration minus the time its child spans cover, so the self times of all
layers (plus the runner's own residue) add up to the measured time.

Pool workers are forked from the instrumented process and inherit the
wrappers.  Each worker drops the spans it inherited, and after every
unit writes a snapshot of its own ledger to ``<out_dir>/worker-<pid>.json``;
the parent merges those snapshots once the pool has shut down.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

#: Canonical scheduler names (``rtopex`` is an alias of ``rt-opex``).
POLICIES = ("partitioned", "global", "rt-opex", "pran", "cloudiq", "das")

#: Layers whose self time is not work of a named layer: the runner's own
#: loop (the residual) and the parent blocked on pool workers (counted by
#: the workers' spans instead).
ROOT = "runtime.runner"
POOL_WAIT = "runtime.pool.wait"
#: Time the benchmark itself spends keying scheduler runs for the census.
CENSUS = "trace.census"
#: Share of the ledger total the layers may leave unaccounted.
COVERAGE_BUDGET = 0.05


class Ledger:
    """Per-process span accumulators."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.census: Counter = Counter()
        self.stack: List[list] = []
        self.callback_layer = ROOT
        self.pid = os.getpid()

    def reset(self) -> None:
        """Forget everything; called in a freshly forked worker."""
        self.self_s.clear()
        self.counts.clear()
        self.census.clear()
        del self.stack[:]
        self.pid = os.getpid()

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str) -> list:
        frame = [layer, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        duration = perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def wrap(self, layer: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` inside a ``layer`` span; ``after(args, result)`` counts."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- cross-process -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "census": dict(self.census),
        }

    def dump_worker(self) -> None:
        path = self.out_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def merge_workers(self) -> None:
        for path in sorted(self.out_dir.glob("worker-*.json")):
            snap = json.loads(path.read_text())
            for key, value in snap["self_s"].items():
                self.self_s[key] += value
            for key, value in snap["counts"].items():
                self.counts[key] += value
            self.census.update(snap["census"])


def _replace_everywhere(orig: Callable, wrapped: Callable) -> None:
    """Rebind every ``repro`` module attribute that holds ``orig``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def _census_key(name: str, config, jobs, seed: int, kwargs) -> int:
    """Content key of one scheduler run: scheduler, config, seed, kwargs,
    and a digest of the job list.  ``hash`` is consistent between a
    process and the workers forked from it, which is all the census
    compares."""
    works: Dict[int, int] = {}
    grants: Dict[int, int] = {}
    rows = []
    for job in jobs:
        work = job.work
        wh = works.get(id(work))
        if wh is None:
            wh = works[id(work)] = hash(work)
        sf = job.subframe
        gh = grants.get(id(sf.grant))
        if gh is None:
            gh = grants[id(sf.grant)] = hash(sf.grant)
        rows.append(hash((
            sf.bs_id, sf.index, gh, sf.snr_db, sf.transport_latency_us,
            job.noise_us, job.load, job.kind, job.arrival_override_us,
            job.deadline_override_us, job.service, wh,
        )))
    return hash((name, repr(config), seed, repr(sorted(kwargs.items())), tuple(rows)))


def install(ledger: Ledger) -> None:
    """Wrap every layer's public entry points in ``ledger`` spans."""
    import repro.experiments  # noqa: F401  (registration)
    from repro.analysis import fleet, report, stats, tracestats
    from repro.experiments import base as exp_base
    from repro.obs import export, trace
    from repro.placement import optimal, pool
    from repro.runtime import cache, engine
    from repro.sched import runner
    from repro.sim.engine import Simulator
    from repro.timing.iterations import IterationModel
    from repro.workload import soa
    from repro.workload.mapping import GrantMapper
    from repro.workload.traces import CellularTraceGenerator

    counts = ledger.counts

    def method(cls, name: str, layer: str, after: Callable = None) -> None:
        setattr(cls, name, ledger.wrap(layer, cls.__dict__[name], after))

    def function(module, name: str, layer: str, after: Callable = None) -> None:
        orig = getattr(module, name)
        _replace_everywhere(orig, ledger.wrap(layer, orig, after))

    def add(metric: str, value) -> None:
        counts[metric] += value

    # -- workload pipeline ---------------------------------------------------
    method(CellularTraceGenerator, "generate", "workload.traces",
           lambda a, r: add("workload.traces.subframes", r.size))
    method(GrantMapper, "mcs_for_trace", "workload.mapping")
    method(IterationModel, "draw_trace", "timing.iterations",
           lambda a, r: add("timing.iterations.code_blocks", len(r.iterations)))
    function(soa, "build_workload_arrays", "workload.soa.build")

    def count_jobs(args, jobs) -> None:
        add("workload.soa.jobs", len(jobs))
        add("workload.soa.distinct_works", len({id(j.work) for j in jobs}))

    function(soa, "materialize_jobs", "workload.soa.materialize", count_jobs)

    # -- schedulers and the DES engine ----------------------------------------
    orig_run_scheduler = runner.run_scheduler

    @functools.wraps(orig_run_scheduler)
    def run_scheduler(name, config, jobs, seed=2016, *args, **kwargs):
        policy = "rt-opex" if name == "rtopex" else name
        start = perf_counter()
        ledger.census[str(_census_key(policy, config, jobs, seed, kwargs))] += 1
        spent = perf_counter() - start
        ledger.self_s[CENSUS] += spent
        if ledger.stack:
            ledger.stack[-1][2] += spent
        layer = f"sched.{policy}"
        frame = ledger.enter(layer)
        try:
            return orig_run_scheduler(name, config, jobs, seed, *args, **kwargs)
        finally:
            ledger.exit(frame)
            add(f"{layer}.subframes", len(jobs))
            add("sched.runs", 1)

    _replace_everywhere(orig_run_scheduler, run_scheduler)

    def timed_callback(callback: Callable) -> Callable:
        def fire():
            frame = ledger.enter(ledger.callback_layer)
            try:
                callback()
            finally:
                ledger.exit(frame)

        return fire

    orig_schedule = Simulator.schedule
    orig_schedule_in = Simulator.schedule_in

    def schedule(self, time, callback, priority=0):
        return orig_schedule(self, time, timed_callback(callback), priority)

    def schedule_in(self, delay, callback, priority=0):
        return orig_schedule_in(self, delay, timed_callback(callback), priority)

    Simulator.schedule = schedule
    Simulator.schedule_in = schedule_in
    orig_sim_run = Simulator.run

    def sim_run(self, *args, **kwargs):
        # Event callbacks are policy code: charge them to the layer that
        # called run(), so the engine keeps only its own loop.
        previous = ledger.callback_layer
        ledger.callback_layer = ledger.stack[-1][0] if ledger.stack else ROOT
        executed = self._executed
        frame = ledger.enter("sim.engine")
        try:
            return orig_sim_run(self, *args, **kwargs)
        finally:
            ledger.exit(frame)
            ledger.callback_layer = previous
            add("sim.engine.events", self._executed - executed)

    Simulator.run = sim_run
    method(Simulator, "stats", "sim.engine")

    # -- placement -------------------------------------------------------------
    for name in ("demand_weights", "place_by_weights", "place_basestations",
                 "peak_cores_required", "pooled_cores_required", "pooling_savings"):
        function(pool, name, "placement")
    function(optimal, "optimal_place_by_weights", "placement",
             lambda a, r: add("placement.milp_solves", 1))

    # -- analysis ----------------------------------------------------------------
    for module in (fleet, report, stats, tracestats):
        for name, value in list(vars(module).items()):
            if (callable(value) and not name.startswith("_") and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__):
                function(module, name, "analysis")
    method(report.Table, "render", "analysis")

    # -- obs: trace emission and the streaming sinks -----------------------------
    for name in ("emit", "arrival", "task", "subtask", "migration_planned",
                 "migration_executed", "migration_returned", "gap", "deadline"):
        method(trace.RunTrace, name, "obs")
    method(trace.TeeRunTrace, "emit", "obs")
    method(trace.Tracer, "begin_run", "obs")
    for name in ("begin_run", "event", "close"):
        method(export.ChromeTraceSink, name, "obs")

    # -- runtime: result cache and process pool ----------------------------------
    def count_get(args, payload) -> None:
        add("runtime.cache.gets", 1)
        add("runtime.cache.hits", payload is not None)

    def count_put(args, _result) -> None:
        cache_obj, key = args[0], args[1]
        add("runtime.cache.puts", 1)
        add("runtime.cache.bytes", os.path.getsize(cache_obj._path(key)))

    method(cache.ResultCache, "get", "runtime.cache", count_get)
    method(cache.ResultCache, "put", "runtime.cache", count_put)
    method(cache.ResultCache, "key", "runtime.cache")
    method(engine.ExperimentRunner, "_run_parallel", "runtime.pool")
    engine.wait = ledger.wrap(POOL_WAIT, engine.wait)

    def worker(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != ledger.pid:
                ledger.reset()
            frame = ledger.enter("runtime.pool")
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = ledger.exit(frame)
            add("runtime.pool.units", 1)
            add("runtime.pool.unit_compute_s", duration)
            add("runtime.pool.result_bytes", len(pickle.dumps(result)))
            ledger.dump_worker()
            return result

        return wrapper

    # Pickle finds pool functions by module and name, so the rebound
    # wrappers (which keep the originals' names) are what workers run.
    engine._worker_unit = worker(engine._worker_unit)
    engine._worker_whole = worker(engine._worker_whole)

    # -- experiment drivers ------------------------------------------------------
    for eid, exp in list(exp_base._REGISTRY.items()):
        sweep = exp.sweep
        if sweep is not None:
            sweep = dataclasses.replace(
                sweep,
                units=ledger.wrap("experiments", sweep.units),
                run_unit=ledger.wrap("experiments", sweep.run_unit),
                combine=ledger.wrap("experiments", sweep.combine),
            )
        exp_base._REGISTRY[eid] = dataclasses.replace(
            exp, fn=ledger.wrap("experiments", exp.fn), sweep=sweep
        )


def layer_metrics(ledger: Ledger, wall_s: float, jobs: int, obs_events: int,
                  obs_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration (workers merged)."""
    s, c = ledger.self_s, ledger.counts
    m: Dict[str, float] = {}
    m["workload.traces.busy_s"] = s["workload.traces"]
    m["workload.traces.subframes"] = c["workload.traces.subframes"]
    m["workload.mapping.busy_s"] = s["workload.mapping"]
    m["timing.iterations.busy_s"] = s["timing.iterations"]
    m["timing.iterations.code_blocks"] = c["timing.iterations.code_blocks"]
    m["workload.soa.build_self_s"] = s["workload.soa.build"]
    m["workload.soa.materialize_s"] = s["workload.soa.materialize"]
    m["workload.soa.jobs"] = c["workload.soa.jobs"]
    m["workload.soa.distinct_works_per_job"] = (
        c["workload.soa.distinct_works"] / c["workload.soa.jobs"]
        if c["workload.soa.jobs"] else 0.0
    )
    for policy in POLICIES:
        busy = s[f"sched.{policy}"]
        subframes = c[f"sched.{policy}.subframes"]
        m[f"sched.{policy}.busy_s"] = busy
        m[f"sched.{policy}.subframes"] = subframes
        m[f"sched.{policy}.subframes_per_s"] = subframes / busy if busy else 0.0
    m["sched.runs"] = c["sched.runs"]
    m["sched.duplicate_runs"] = sum(n - 1 for n in ledger.census.values())
    events = c["sim.engine.events"]
    m["sim.engine.busy_s"] = s["sim.engine"]
    m["sim.engine.events"] = events
    m["sim.engine.us_per_event"] = s["sim.engine"] / events * 1e6 if events else 0.0
    m["placement.busy_s"] = s["placement"]
    m["placement.milp_solves"] = c["placement.milp_solves"]
    m["experiments.self_s"] = s["experiments"]
    m["analysis.busy_s"] = s["analysis"]
    m["obs.busy_s"] = s["obs"]
    m["obs.events"] = obs_events
    m["obs.bytes"] = obs_bytes
    m["runtime.cache.gets"] = c["runtime.cache.gets"]
    m["runtime.cache.hits"] = c["runtime.cache.hits"]
    m["runtime.cache.puts"] = c["runtime.cache.puts"]
    m["runtime.cache.bytes"] = c["runtime.cache.bytes"]
    m["runtime.cache.busy_s"] = s["runtime.cache"]
    unit_compute = c["runtime.pool.unit_compute_s"]
    m["runtime.pool.busy_s"] = s["runtime.pool"]
    m["runtime.pool.units"] = c["runtime.pool.units"]
    m["runtime.pool.parent_wait_s"] = s[POOL_WAIT]
    m["runtime.pool.unit_compute_s"] = unit_compute
    m["runtime.pool.result_bytes"] = c["runtime.pool.result_bytes"]
    m["runtime.pool.parallel_efficiency"] = (
        unit_compute / (jobs * wall_s) if unit_compute else 0.0
    )
    # Work seconds to account for: the parent's own time (its pool wait
    # excluded) plus every unit the workers computed.  Serially that is
    # the wall time.
    total = wall_s - s[POOL_WAIT] + unit_compute
    accounted = sum(v for k, v in s.items() if k not in (ROOT, POOL_WAIT, CENSUS))
    m["trace.census_s"] = s[CENSUS]
    m["residual.ledger_total_s"] = total
    m["residual.unaccounted_s"] = total - accounted - s[CENSUS]
    m["residual.unaccounted_share"] = m["residual.unaccounted_s"] / total
    m["residual.over_budget"] = float(m["residual.unaccounted_share"] > COVERAGE_BUDGET)
    return m
