"""Byte pins for RT-OPEX under every migration planner.

The table2 golden runs RT-OPEX only with Algorithm 1 at the default
core count.  These pins cover the ablation planners too
(``plan_steal_half`` and ``plan_migrate_all``, plus Algorithm 1 for
reference) at two and three cores per cell and at both ends of the
RTT/2 sweep, where the free windows, the dominance guard and the
preemption/recovery path all see different inputs.  Each run's record
CSV and streamed JSONL trace are hashed.

Regenerate (only for a change that is *supposed* to alter results)::

    PYTHONPATH=src python tests/sched/test_rtopex_planner_pins.py

and paste the printed table over ``PINS``.
"""

import hashlib
import itertools
from pathlib import Path

import pytest

from repro.analysis.results_io import save_result_csv
from repro.obs import Tracer, tracing
from repro.obs.export import JsonlTraceSink
from repro.sched import CRanConfig
from repro.sched.migration import plan_migrate_all, plan_migration, plan_steal_half
from repro.sched.runner import build_workload, run_scheduler

NUM_SUBFRAMES = 120
SEED = 11
PLANNERS = {
    "alg1": plan_migration,
    "steal-half": plan_steal_half,
    "migrate-all": plan_migrate_all,
}
CORES_PER_BS = (2, 3)
RTTS = (400.0, 700.0)

#: ``{planner}-c{cores_per_bs}-rtt{rtt}`` -> (csv sha256, jsonl sha256)
PINS = {
    "alg1-c2-rtt400": (
        "627158af9abed5ee627b04bd41bd90083f870542bb565c5d360a785ebda508d6",
        "10d469fd8ef347a9416dd7112cb3ad253545f201d0d85f1b76e7cfc8c5db422f",
    ),
    "alg1-c2-rtt700": (
        "06b58f870b09298a514ea064e71f01617928ef58fe93473346481f1924af405e",
        "cac3069d86b9e68795a7876eb0764565959d2d6ad164b3326e2c599da0133ae7",
    ),
    "alg1-c3-rtt400": (
        "5bbfa3c4f43ee6f34fbdde31aea18897c33c6fdda64685f57c55705314f25d89",
        "f49bd71814f5be68833c42f12feee75aecffcaf039d64046d4fbe8393676e3cb",
    ),
    "alg1-c3-rtt700": (
        "5b846da1f89e6c01bfed2b6b182c9d7c41904243c02a3ef6ff3a347f4c1a0cdc",
        "d7a96178c65017afd75bf0b711b077861954be34df9e0c1cc1a1a7a069caa532",
    ),
    "steal-half-c2-rtt400": (
        "fd09d825394898f049fffe4e3136dd630c9a92c0188ced5e65efc12d6dcbf2db",
        "840df80f935eef300cbbc49b1af131c3b17b79c87fc7a9ed07957bae400bf353",
    ),
    "steal-half-c2-rtt700": (
        "b3c010c515876a505305b85bfb884bdc49b4ff87c12fa0c20124e430ca1aaaf4",
        "b744723942682b77201c5ff5e2c8bf796424792d5cd963d6282096e3d9733b93",
    ),
    "steal-half-c3-rtt400": (
        "db1f15ecd3046722c43446c461062508ccb30d383d999b5a78ba6465ffc4f4b6",
        "8a9c0fc26c303818305d6b26e31dd621c22e6663d1cf1eac372a92c7403fb04b",
    ),
    "steal-half-c3-rtt700": (
        "e0715e600d787f9d1b697b9bf39fac810b4d57a9c789d0ca014bc76009beb857",
        "c98ccb19c9d7f6378d9eee94ec08c2d06ef13ec45fb2cc419edc42e31b66f923",
    ),
    "migrate-all-c2-rtt400": (
        "5701b5907672a6c513fb7807cb664ac2d73133e689f2b9fc57bfd8dfa040c775",
        "3ac95cd769aac6b7816de346737284a91f6d87db3229c6d6d0aaf7b403389f19",
    ),
    "migrate-all-c2-rtt700": (
        "c4aaabbaff00060175a8acdfbfc51d088c5443b3392a53d3efbd4734206a28b1",
        "6e85a16ceb9932999233b1d426c3dcde917982b84a2daaa8a64f03733089a175",
    ),
    "migrate-all-c3-rtt400": (
        "2fcc5aa6f2593ea40551186c78493baf682f38643f94f6cc8f613c81c5fd6dd4",
        "42ce36863d5850917a2ea56175c4d702dde8d8aa848c00dc0f31ba701832e9eb",
    ),
    "migrate-all-c3-rtt700": (
        "95c635c1d8d0cc2cb52a5a0780760c00ac0ee5a4df0f481713dc0f1749db53ed",
        "11a35afdc357567815dde15e1c3856dbb673dd009ea52e1775b85fd4e14fa116",
    ),
}

CASES = list(itertools.product(PLANNERS, CORES_PER_BS, RTTS))


def _key(planner, cores, rtt):
    return f"{planner}-c{cores}-rtt{rtt:g}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(planner, cores, rtt, out_dir: Path):
    cfg = CRanConfig(cores_per_bs=cores, transport_latency_us=rtt)
    jobs = build_workload(cfg, NUM_SUBFRAMES, seed=SEED)
    jsonl_path = out_dir / "trace.jsonl"
    csv_path = out_dir / "records.csv"
    sink = JsonlTraceSink(jsonl_path)
    with tracing(Tracer(sink=sink)):
        result = run_scheduler(
            "rt-opex", cfg, jobs, seed=SEED, planner=PLANNERS[planner]
        )
    sink.close()
    save_result_csv(csv_path, result)
    return result, (_sha256(csv_path), _sha256(jsonl_path))


@pytest.mark.parametrize("planner,cores,rtt", CASES, ids=[_key(*case) for case in CASES])
def test_rtopex_planner_output_pinned(planner, cores, rtt, tmp_path):
    result, hashes = _run(planner, cores, rtt, tmp_path)
    # Both parallelizable stages must migrate on the pinned run, or the
    # pin says nothing about the stage loop.
    counts = result.migration_counts()
    assert counts["fft"] > 0 and counts["decode"] > 0
    assert hashes == PINS[_key(planner, cores, rtt)]


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(_key(*case) for case in CASES)


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("PINS = {")
        for case in CASES:
            _, (csv_sha, jsonl_sha) = _run(*case, Path(tmp))
            print(f'    "{_key(*case)}": (\n        "{csv_sha}",\n        "{jsonl_sha}",\n    ),')
        print("}")


if __name__ == "__main__":
    regenerate()
