"""End-to-end harness benchmark for the RT-OPEX reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 2016 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 2016 --seconds 28 --trace 1

Each iteration of a workload runs in a fresh process (``iteration.py``)
that imports the package from ``src/``, so set-up time, CPU time and
peak memory are those a ``python -m repro`` user pays.  ``--trace 0``
repeats the workload for ``--seconds`` and reports medians of the
end-to-end metrics, with every time scaled to a nominal host speed
measured by a gauge process that shares the workload's CPUs
(``reference.py``); ``--trace 1`` alternates untraced iterations and
iterations under the layer ledger (``ledger.py``) and reports the
per-layer metrics and the tracing overhead.  Outputs are checked against the digests pinned in
``digests.json`` for the seeds listed there, and for every seed each
iteration must reproduce the others' digests.  The last line of standard
output is the JSON result; a fuller record with provenance goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import COVERAGE_BUDGET
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up samples per run (iteration set-ups plus extra set-up-only probes).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: End-to-end metrics that are times, reported at the nominal host speed.
SCALED = ("wall_s", "cpu_s", "setup_s")
#: Gauge kernels per CPU second that count as the nominal host speed;
#: about what a 2-vCPU VM gives the gauge beside the workload.
NOMINAL_SPEED = 50_000.0
LAYER_UNITS = {
    "busy_s": "s", "self_s": "s", "build_self_s": "s", "materialize_s": "s",
    "parent_wait_s": "s", "unit_compute_s": "s", "unaccounted_s": "s",
    "ledger_total_s": "s", "census_s": "s", "wall_s": "s", "overhead_s": "s",
    "untraced_wall_s": "s", "subframes_per_s": "1/s", "us_per_event": "us",
    "bytes": "B", "result_bytes": "B", "distinct_works_per_job": "ratio",
    "parallel_efficiency": "ratio", "unaccounted_share": "ratio",
    "over_budget": "flag", "speed": "1/s",
}


class BenchError(RuntimeError):
    """The program under test could not be run at all."""


def _child_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if k not in ("RTOPEX_SANITIZE", "RTOPEX_CACHE_DIR", "PYTHONPATH")}


class HostGauge:
    """One ``reference.py`` process per CPU the workload runs on, for the
    length of one workload's measurement; stopped on every way out."""

    def __init__(self, cpus):
        self.procs = []
        try:
            for cpu in cpus:
                # Same session as the iterations: nice only orders tasks
                # within one scheduling group.
                self.procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "reference.py"), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                    cwd=ROOT, env=_child_env(),
                ))
        except OSError:
            self.close()
            raise

    def read(self) -> list:
        """(kernels completed, CPU seconds) of every gauge process."""
        readings = []
        for proc in self.procs:
            try:
                proc.stdin.write("\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            except OSError as exc:
                raise BenchError(f"host gauge failed: {exc}") from exc
            if not line:
                raise BenchError(f"host gauge exited {proc.poll()}")
            count, cpu = line.split()
            readings.append((int(count), float(cpu)))
        return readings

    @staticmethod
    def speed(before: list, after: list) -> float:
        """Mean over the CPUs of kernels per CPU second between readings."""
        return statistics.mean(
            (a[0] - b[0]) / (a[1] - b[1]) for b, a in zip(before, after)
        )

    def close(self) -> None:
        for proc in self.procs:
            try:
                proc.stdin.close()
                proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_iteration(workload: str, seed: int, traced: bool = False,
                  setup_only: bool = False, gauge: HostGauge = None) -> dict:
    """One iteration in a fresh process.  With a ``gauge``, the result's
    ``speed`` is the host speed over the process's whole life."""
    scratch = ROOT / ".bench_tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    request = {
        "root": str(ROOT), "workload": workload, "seed": seed,
        "scratch": str(scratch), "traced": traced, "setup_only": setup_only,
    }
    env = _child_env()
    try:
        before = gauge.read() if gauge is not None else None
        request["t_spawn"] = time.perf_counter()
        # A process group, not a session, so the gauge shares its
        # scheduling group (see reference.py).
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "iteration.py"), json.dumps(request)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env,
            preexec_fn=os.setpgrp,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload}: iteration exceeded {CHILD_TIMEOUT_S}s")
        after = gauge.read() if gauge is not None else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: iteration exited {proc.returncode}\n{err.decode()[-4000:]}"
        )
    result = json.loads(lines[-1])
    if gauge is not None:
        result["speed"] = HostGauge.speed(before, after)
    return result


def check_outputs(workload: str, seed: int, iterations: list) -> tuple:
    """(attempted, failed, notes): one unit per experiment per iteration.

    A unit fails when it raised, when its digest differs from the first
    iteration's, or when the seed is pinned and the digest differs from
    the pinned one."""
    pinned = json.loads((HERE / "digests.json").read_text())
    expected = pinned.get(workload, {}).get(str(seed))
    reference = iterations[0]["digests"]
    attempted = failed = 0
    notes = []
    for n, it in enumerate(iterations):
        for eid in sorted(set(it["digests"]) | set(it["errors"])):
            attempted += 1
            digest = it["digests"].get(eid)
            if digest is None:
                failed += 1
                notes.append(f"iteration {n}: {eid} raised: {it['errors'][eid][-300:]}")
            elif digest != reference.get(eid):
                failed += 1
                notes.append(f"iteration {n}: {eid} output differs from iteration 0")
            elif expected is not None and expected.get(eid) != digest:
                failed += 1
                notes.append(f"iteration {n}: {eid} digest differs from the pinned one")
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Repeat the workload for ``seconds``; medians of the samples.

    The iterations run on the first ``jobs`` CPUs, each CPU shared with a
    host gauge.  Every time is scaled by the host speed over its own
    iteration, to seconds at ``NOMINAL_SPEED``, before the medians are
    taken; the unscaled medians are kept too."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:WORKLOADS[workload].jobs]
    os.sched_setaffinity(0, cpus)  # inherited by iterations and pool workers
    try:
        with HostGauge(cpus) as gauge:
            run_iteration(workload, seed, setup_only=True)  # warm-up: bytecode, file cache
            start = time.perf_counter()
            iterations = []
            while True:
                t0 = time.perf_counter()
                iterations.append(run_iteration(workload, seed, gauge=gauge))
                took = time.perf_counter() - t0
                if time.perf_counter() - start + took > seconds:
                    break
            probes = iterations[:]
            while len(probes) < SETUP_SAMPLES:
                probes.append(run_iteration(workload, seed, setup_only=True, gauge=gauge))
    finally:
        os.sched_setaffinity(0, allowed)
    samples = {name: [it[name] for it in iterations]
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [it["setup_s"] for it in probes]
    samples["speed"] = [it["speed"] for it in probes]
    raw = {name: statistics.median(values) for name, values in samples.items()}
    metrics = {"peak_rss_mb": raw["peak_rss_mb"]}
    for name in SCALED:
        runs = iterations if name != "setup_s" else probes
        metrics[name] = statistics.median(
            it[name] * it["speed"] / NOMINAL_SPEED for it in runs
        )
    return metrics, iterations, samples, raw


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced and traced iterations in turn, for ``seconds``.

    The layer metrics come from the traced iteration of median wall
    time, so they still add up; the overhead is the difference of the
    traced and untraced median wall times."""
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(run_iteration(workload, seed))
        traced.append(run_iteration(workload, seed, traced=True))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    samples = {
        "untraced_wall_s": [it["wall_s"] for it in plain],
        "traced_wall_s": [it["wall_s"] for it in traced],
    }
    median_run = sorted(traced, key=lambda it: it["wall_s"])[(len(traced) - 1) // 2]
    metrics = dict(median_run["layers"])
    metrics["trace.wall_s"] = statistics.median(samples["traced_wall_s"])
    metrics["trace.untraced_wall_s"] = statistics.median(samples["untraced_wall_s"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, plain + traced, samples, None


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def provenance(seed: int, versions: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    in_git = sha is not None and sha.returncode == 0
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha.stdout.strip() if in_git else None,
        "git_dirty": bool(status.stdout.strip()) if in_git else None,
        "source_sha256": source.hexdigest(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "versions": versions,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, iterations, samples, raw = measure_traced(name, seed, seconds)
    else:
        metrics, iterations, samples, raw = measure(name, seed, seconds)
    attempted, failed, notes = check_outputs(name, seed, iterations)
    return {
        "workload": name,
        "params": WORKLOADS[name].params(),
        "metrics": metrics,
        "unscaled_metrics": raw,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "notes": notes,
        "digests": iterations[0]["digests"],
        "versions": iterations[0]["versions"],
    }


def print_report(record: dict, trace: bool) -> None:
    name = record["workload"]
    for note in record["notes"]:
        print(f"{name}: FAILED {note}")
    metrics = record["metrics"]
    if trace:
        total = metrics["residual.ledger_total_s"]
        print(f"{name}: layer ledger (self seconds, share of {total:.3f} s)")
        for metric in sorted(metrics):
            if metric.rsplit(".", 1)[-1] in ("busy_s", "self_s", "build_self_s",
                                             "materialize_s", "unaccounted_s",
                                             "census_s"):
                value = metrics[metric]
                print(f"  {metric:40s} {value:10.4f} s  {value / total:7.1%}")
        print(f"{name}: census: {metrics['sched.duplicate_runs']:g} duplicate of "
              f"{metrics['sched.runs']:g} scheduler runs")
        if metrics["residual.over_budget"]:
            print(f"{name}: WARNING layers leave {metrics['residual.unaccounted_share']:.1%} "
                  f"of the ledger unaccounted (budget {COVERAGE_BUDGET:.0%})")
    for metric in sorted(metrics):
        print(f"{name} {metric} {metrics[metric]:.6g} {unit_of(metric)}")
    if record["unscaled_metrics"] is not None:
        print(f"{name}: unscaled " + ", ".join(
            f"{metric} {value:.6g} {unit_of(metric)}"
            for metric, value in sorted(record["unscaled_metrics"].items())))
    print(f"{name} failed_fraction {record['failed_fraction']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} units)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Experiments take non-negative seeds; fold any integer onto them.
    seed = args.seed % 2**32
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        records = [run_workload(name, seed, args.seconds, trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_report(record, trace)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "provenance": provenance(args.seed, records[0]["versions"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": records,
    }, indent=2, sort_keys=True))
    print(f"result file: {result_file.relative_to(ROOT)}")

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
        for r in records for k, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
