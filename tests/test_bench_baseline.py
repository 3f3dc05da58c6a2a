"""``benchmarks/baseline.py compare``: provenance report and machine check."""

import json

import pytest

from benchmarks.baseline import compare


def _capture(path, median_ns, cpu="Test CPU @ 2.0GHz", nproc=2, provenance=True):
    data = {
        "git_sha": "abc123",
        "benchmarks": {"engine/test_heap": {"group": "engine", "median_ns": median_ns}},
    }
    if provenance:
        data["provenance"] = {
            "cpu_model": cpu,
            "nproc": nproc,
            "git_sha": "abc123",
            "versions": {"python": "3.11.7", "numpy": "1.26.4"},
        }
    path.write_text(json.dumps(data))
    return str(path)


def test_same_machine_prints_provenance_without_warning(tmp_path, capsys):
    base = _capture(tmp_path / "base.json", 1000.0)
    fresh = _capture(tmp_path / "fresh.json", 1000.0)
    assert compare(base, fresh, 0.3) == 0
    out = capsys.readouterr().out
    assert "baseline: cpu=Test CPU @ 2.0GHz nproc=2 python=3.11.7 numpy=1.26.4" in out
    assert "fresh: cpu=Test CPU @ 2.0GHz nproc=2" in out
    assert "machine mismatch" not in out


@pytest.mark.parametrize(
    "fresh_kwargs,field",
    [
        ({"cpu": "Other CPU"}, "cpu_model"),
        ({"nproc": 8}, "nproc"),
        ({"provenance": False}, "nproc 2 vs unknown"),
    ],
)
def test_machine_mismatch_warns(tmp_path, capsys, fresh_kwargs, field):
    base = _capture(tmp_path / "base.json", 1000.0)
    fresh = _capture(tmp_path / "fresh.json", 1000.0, **fresh_kwargs)
    assert compare(base, fresh, 0.3) == 0
    out = capsys.readouterr().out
    assert "warning: machine mismatch" in out
    assert field in out


def test_mismatch_does_not_change_the_gate(tmp_path):
    base = _capture(tmp_path / "base.json", 1000.0)
    same = _capture(tmp_path / "same.json", 2000.0)
    other = _capture(tmp_path / "other.json", 2000.0, nproc=16)
    assert compare(base, same, 0.3) == 1
    assert compare(base, other, 0.3) == 1
