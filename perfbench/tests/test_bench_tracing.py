"""Traced-run wrappers record spans and restore every patched attribute."""

import sys

import numpy as np
import pytest

import btensor
import btensor.cli

from tracing import Tracer


def _snapshot():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "btensor" or name.startswith("btensor.")
        for attr, value in vars(module).items()
    }


def test_wrappers_restore_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert btensor.oracle.form_values is not before[("btensor.core", "form_values")]
        assert btensor.cli.main is not before[("btensor.cli", "main")]
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_restore_happens_when_the_body_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_snapshot()[k] is v for k, v in before.items())


def test_spans_nest_and_counters_follow_the_calls():
    T = btensor.Tensor(4, 3, np.random.default_rng(0).normal(size=81))
    with Tracer() as tracer:
        tracer.item = 7
        btensor.sphere_minimize(T, starts=4, seed=1)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "oracle.sphere_minimize"
    assert "core.symmetrize" in names and "core.form_values" in names
    assert all(s[4] == 7 for s in tracer.spans)
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "core.symmetrize")
    metrics = tracer.layer_metrics()
    assert metrics["oracle.sphere_minimize.calls"] == 1
    assert metrics["core.form_values.rows"] > 0
    assert metrics["oracle.form_evals_per_solve"] > 0
    assert metrics["core.contract.peak_intermediate_bytes"] >= 8 * 81
    assert 0.0 <= metrics["oracle.sphere_minimize.self_s"] <= metrics["oracle.sphere_minimize.s"]
