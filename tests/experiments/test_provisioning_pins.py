"""Pinned provisioning outputs: ext-pooling and a small ext-fleet grid.

Each digest is the sha256 of the rendered text, a NUL byte, and the
sort-keyed JSON of the output data.  The provisioning path (demand rows,
pooling quantiles, placement, per-node materialization) may change its
mechanics freely, but never these bytes.
"""

import hashlib
import json

import pytest

from repro.experiments import run_experiment

PINS = [
    pytest.param(
        "ext-pooling", 0.02, 7, None,
        "270fc33734d8b9bf417b90fa29a10beb515dd2bc395df6a216890fa6b78c0924",
        id="ext-pooling-seed7",
    ),
    pytest.param(
        "ext-pooling", 0.02, 2016, None,
        "0252c2bbe45e8a29f12690cbc9b22ab2f0f0e430cf9082dcdc12ef07eea87221",
        id="ext-pooling-seed2016",
    ),
    pytest.param(
        "ext-fleet", 0.02, 2016, {"fleet_cells": "12", "nodes": "6,8"},
        "4a6c9d9c9e729d839e58b96d5449309b2a92184f66dd3d5c4a7bb2a84e88e8f2",
        id="ext-fleet-12cells",
    ),
]


def _digest(output) -> str:
    h = hashlib.sha256()
    h.update(output.text.encode("utf-8"))
    h.update(b"\0")
    h.update(json.dumps(output.data, sort_keys=True, default=repr).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("experiment_id,scale,seed,options,expected", PINS)
def test_output_digest_pinned(experiment_id, scale, seed, options, expected):
    output = run_experiment(experiment_id, scale=scale, seed=seed, options=options)
    assert _digest(output) == expected
