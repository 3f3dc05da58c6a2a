"""Byte pins for the shared-queue schedulers (``global`` and ``das``).

The table2 golden only runs single-class workloads at the default queue
capacity, where neither eviction rule ever fires and every job shares
one delay budget.  These pins cover what it cannot: a URLLC/eMBB/mMTC
mix (per-class budgets, so EDF order, arrival order and urgency order
all diverge) on one or two cores, with a 4-slot ring buffer that
overflows constantly and with the default capacity.  Each run's record
CSV and streamed JSONL trace are hashed.

Regenerate (only for a change that is *supposed* to alter results)::

    PYTHONPATH=src python tests/sched/test_shared_queue_pins.py

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
from repro.sched.runner import run_scheduler
from repro.workload.classes import parse_class_spec
from repro.workload.mixed import build_mixed_workload

MIX = "urllc:0.3,embb:0.4,mmtc:0.3"
NUM_SUBFRAMES = 40
SCHEDULERS = ("global", "das")
SEEDS = (5, 13)
CORES = (1, 2)
CAPACITIES = (4, None)  # None: the constructor default

#: ``{scheduler}-s{seed}-c{cores}-q{capacity}`` -> (csv sha256, jsonl sha256)
PINS = {
    "global-s5-c1-q4": (
        "89f7b05c55886b60efa57dd298fcb51537f0f74dac37a644c80f55cf8d193515",
        "b9586f69d1cc49abab53e644b22cbd662dd23116bd14ce2c510f7dc38d019cec",
    ),
    "global-s5-c1-qdefault": (
        "c82288fc2500b1f86543ea1e4e7cddb421a00b5e869ac67f3abf8b6dc9107494",
        "4aa68df0695291345617bae87a36fa65a355d1123f2e7d0a09e20cf6a654f5bf",
    ),
    "global-s5-c2-q4": (
        "09b56500258ff2541f1e136dd2e4ab2c819075daa2cc54d3ae356ffb6809c12e",
        "08e6803e242dfa623d3a311fcaaea578b6f33157149be657770bc6c935cad934",
    ),
    "global-s5-c2-qdefault": (
        "7a2d2dff9e1d26df3b451650fa38b09e861e4120a995e5d999a96577a7622144",
        "3da3af804b33d67ed6c24594a56464ff9528087cd8070282bde47b50842aaca1",
    ),
    "global-s13-c1-q4": (
        "f6288fc1c823d8fa34dc5dd576eba695a84b6d906d0b57143d7bfedf1afc3b52",
        "975c402eb4637547430a5717f7dc88b773eafc2a211662a68661dd67108a6ee6",
    ),
    "global-s13-c1-qdefault": (
        "9308e3fa1603fd9c05de86a10a8720c19848e41f592516b6117e4d844c91ffbd",
        "e2cc0f4607663f552c85f3c9763e2da9915e1eb493f76af99536c64381cca827",
    ),
    "global-s13-c2-q4": (
        "5e68bcad06570b92bf058bd56572b43bf4149fe0167a59dd6bfe699b1d82c141",
        "d106368bffc41795c17c247dedaa28cdbe450ee918a72d4c1274e79b9cdecfc3",
    ),
    "global-s13-c2-qdefault": (
        "7719a7c30472a452c09161870ac1e02ae9b7d1175aafc4019cc45b9a78808474",
        "de83cea4bd4826de379a7a619577232bdb3daeea437d027e7b8e64ce02f436aa",
    ),
    "das-s5-c1-q4": (
        "429977581a5d86b245aa41d4a56f65573bea31a31a615a6e4a9fdc8703627260",
        "5c26671565cf30d5c3a63ef6ae4950624ce3a1422be56dca56d47cca557b1836",
    ),
    "das-s5-c1-qdefault": (
        "ad2a5f8b59639705ad3df58cdc8b192843b824ebc67fb075003fc1fabbc0c6d0",
        "0c2f9c41edadedffc16752389dae74d7c39f671a0c7d218946e79212af8ba43a",
    ),
    "das-s5-c2-q4": (
        "d0e6f3761620a6cbe938fb99be6e1e4ec4a28f44fcb5c1e0be218e99fdc87257",
        "da91bcf754038542565c17571f227c8f8017a9e5280878489d8f2c234276fd4a",
    ),
    "das-s5-c2-qdefault": (
        "ee5e9f259a7a93b8f16582c977772ba31e7ecf78efcbf7c87e42d853f146bbd2",
        "f66b1753851d8fc7121c2e3baa56c5d51abee73685e93244c3850499f4c205ba",
    ),
    "das-s13-c1-q4": (
        "142a4dad5899c2970d2606a50b1f1ac94380302dc52af41bc6b863ea4d1f102d",
        "b8a5bc76d9c25cfc14c21a326ff0a641e8dd552609f05b3a1adbba9117b6a28d",
    ),
    "das-s13-c1-qdefault": (
        "762bae6e6c729c3584e626723bdb1b126262dad97ee20f641d628de71f23ee86",
        "6794abc987c057f9ba3ebe53889d5df574b72849b87954d353d1e9f8c613d745",
    ),
    "das-s13-c2-q4": (
        "77c7886eb7218206af5cc52404e4cd3301baf796b827d61e2d6119d4dbf1772e",
        "212b8883d927206424c9fdcdc5e7eed4f72edbc8c7161b7525057be7e732f477",
    ),
    "das-s13-c2-qdefault": (
        "affbc611574cfcca0734513716ba5fd59f32884f79b09f09c422151f0d09f374",
        "17e7af70843ae621b92b64501d9944a23b6dc098b7d6cdf363d24b973f5b333b",
    ),
}

CASES = list(itertools.product(SCHEDULERS, SEEDS, CORES, CAPACITIES))


def _key(name, seed, cores, capacity):
    return f"{name}-s{seed}-c{cores}-q{capacity if capacity else 'default'}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(name, seed, cores, capacity, out_dir: Path):
    cfg = CRanConfig(transport_latency_us=500.0, num_cores=cores)
    jobs = build_mixed_workload(
        cfg, NUM_SUBFRAMES, mix=parse_class_spec(MIX), seed=seed
    )
    kwargs = {} if capacity is None else {"queue_capacity": capacity}
    jsonl_path = out_dir / "trace.jsonl"
    csv_path = out_dir / "records.csv"
    sink = JsonlTraceSink(jsonl_path)
    with tracing(Tracer(sink=sink)):
        result = run_scheduler(name, cfg, jobs, seed=seed, **kwargs)
    sink.close()
    save_result_csv(csv_path, result)
    return result, (_sha256(csv_path), _sha256(jsonl_path))


@pytest.mark.parametrize(
    "name,seed,cores,capacity", CASES, ids=[_key(*case) for case in CASES]
)
def test_shared_queue_output_pinned(name, seed, cores, capacity, tmp_path):
    result, hashes = _run(name, seed, cores, capacity, tmp_path)
    if capacity is not None:
        # Both drop paths must be on the pinned run, or the pin says
        # nothing about eviction order.
        stages = {r.drop_stage for r in result.records if r.dropped}
        assert {"queue-overflow", "dispatch"} <= stages
    assert hashes == PINS[_key(name, seed, cores, capacity)]


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
