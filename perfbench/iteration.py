"""One iteration of one workload, in a fresh process.

Usage (from ``run.py``)::

    python3 perfbench/iteration.py '<json request>'

The request names the workload, seed, scratch directory and the
parent's ``perf_counter()`` reading at spawn time (``CLOCK_MONOTONIC``
is shared by all processes, so set-up time counts from process start).
Prints one JSON object: set-up time, the measured phase's wall/CPU time
and peak RSS, and a sha256 digest per experiment output.  With
``"traced": true`` the layer ledger is installed first and its
per-layer metrics are included.  With ``"setup_only": true`` it stops
after set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _digest(output, trace_path) -> str:
    """sha256 over the rendered text and the sort-keyed JSON data (and
    the trace file, when the workload writes one)."""
    h = hashlib.sha256()
    h.update(output.text.encode("utf-8"))
    h.update(b"\0")
    h.update(json.dumps(output.data, sort_keys=True, default=repr).encode("utf-8"))
    if trace_path is not None:
        h.update(b"\0")
        with open(trace_path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(request: dict) -> dict:
    sys.path.insert(0, str(Path(request["root"]) / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    scratch = Path(request["scratch"])

    # -- set-up: imports, experiment registration, cache-dir creation --------
    import repro.experiments  # noqa: F401  (registration)
    from repro.runtime import ExperimentRunner, ResultCache

    cache = None
    if workload.cache:
        cache_dir = scratch / "cache"
        cache_dir.mkdir(parents=True)
        cache = ResultCache(cache_dir)
    runner = ExperimentRunner(jobs=workload.jobs, cache=cache)
    ids = workload.experiment_ids()
    setup_s = time.perf_counter() - request["t_spawn"]
    if request.get("setup_only"):
        return {"setup_s": setup_s}

    ledger = None
    if request["traced"]:
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger(scratch)
        ledger_mod.install(ledger)

    trace_path = scratch / "trace.json" if workload.trace_file else None
    tracer = None
    # -- measured phase --------------------------------------------------------
    cpu0 = _cpu_s()
    start = time.perf_counter()
    root = ledger.enter(ledger_mod.ROOT) if ledger is not None else None
    if trace_path is not None:
        from repro.obs import Tracer, open_sink, tracing

        sink = open_sink(trace_path, "chrome")
        tracer = Tracer(sink=sink)
        with tracing(tracer):
            results, _report = runner.run(
                ids, scale=workload.scale, seed=request["seed"], options=workload.options
            )
        sink.close()
    else:
        results, _report = runner.run(
            ids, scale=workload.scale, seed=request["seed"], options=workload.options
        )
    if root is not None:
        ledger.exit(root)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    digests, errors = {}, {}
    for result in results:
        if result.error is not None:
            errors[result.experiment_id] = result.error
        else:
            digests[result.experiment_id] = _digest(result.output, trace_path)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "digests": digests,
        "errors": errors,
        "versions": _versions(),
    }
    if ledger is not None:
        ledger.merge_workers()
        out["layers"] = ledger_mod.layer_metrics(
            ledger, wall_s, workload.jobs,
            obs_events=tracer.num_events() if tracer is not None else 0,
            obs_bytes=os.path.getsize(trace_path) if trace_path is not None else 0,
        )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
