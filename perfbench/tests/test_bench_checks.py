"""Each output check passes a genuine result and flags a corrupted one."""

import copy
import dataclasses
import json

import numpy as np
import pytest

import btensor
import btensor.cli

import checks
import inputs
from workloads import run_cli


@pytest.fixture
def quasi_file(tmp_path):
    data = inputs.certify_tensor("quasi", 4, 3, inputs.rng_for(7))
    text = inputs.tensor_file_text(data, "quasi")
    path = tmp_path / "quasi.json"
    path.write_text(text)
    return str(path), text, data, inputs.expected_outcomes("quasi", 4)


def test_oracle_check_flags_a_perturbed_min_value():
    data = np.random.default_rng(0).normal(size=(3,) * 4)
    result = btensor.sphere_minimize(btensor.Tensor(4, 3, data), starts=8, seed=1)
    assert checks.check_oracle(data, result, "l2", inputs.rng_for(1), False) == []
    bad = dataclasses.replace(result, min_value=result.min_value + 1e-6)
    assert checks.check_oracle(data, bad, "l2", inputs.rng_for(1), False)


def test_oracle_check_flags_a_minimum_above_the_sample():
    data = np.random.default_rng(2).normal(size=(3,) * 4)
    result = btensor.sphere_minimize(btensor.Tensor(4, 3, data), starts=8, seed=1)
    worst = max(np.vstack([np.eye(3), -np.eye(3)]), key=lambda x: checks.form_ref(data, x))
    bad = dataclasses.replace(result, minimizer=tuple(worst),
                              min_value=checks.form_ref(data, worst))
    assert any("sampled minimum" in e for e in checks.check_oracle(
        data, bad, "l2", inputs.rng_for(1), False))


def test_decompose_check_flags_a_dropped_step(quasi_file):
    path, text, data, expect = quasi_file
    code, out = run_cli(btensor.cli, ["decompose", path])
    report = json.loads(out)
    assert checks.check_decompose(code, report, text, data, expect) == []
    assert report["decomposition"]["steps"], "the quasi file should need at least one step"
    bad = copy.deepcopy(report)
    bad["decomposition"]["steps"].pop()
    bad["decomposition"]["step_count"] -= 1
    assert any("reconstruction" in e for e in checks.check_decompose(code, bad, text, data, expect))


def test_report_check_flags_a_wrong_hash(quasi_file):
    path, text, data, expect = quasi_file
    code, out = run_cli(btensor.cli, ["classify", path])
    report = json.loads(out)
    assert checks.check_classify(code, report, text, data, expect) == []
    report["input"]["content_hash"] = "0" * 64
    assert any("content_hash" in e for e in checks.check_classify(code, report, text, data, expect))


def test_certify_check_flags_a_positive_verdict_on_an_indefinite_tensor(quasi_file):
    path, text, data, expect = quasi_file
    code, out = run_cli(btensor.cli, ["certify", path])
    report = json.loads(out)
    assert checks.check_certify(code, report, text, data, expect, inputs.rng_for(1)) == []
    flipped = data.copy()
    flipped[(0,) * 4] = -1.0
    errors = checks.check_certify(code, report, text, flipped, expect, inputs.rng_for(1))
    assert any("positive_definite verdict" in e for e in errors)


def test_search_check_flags_an_exit_code_without_candidates():
    code, out = run_cli(btensor.cli, ["search-b0", "--order", "4", "--dim", "2",
                                      "--trials", "2", "--seed", "5"])
    report = json.loads(out)
    assert checks.check_search(code, report, 2, 5, 1e-6) == []
    assert checks.check_search(1 - code, report, 2, 5, 1e-6)


def test_replay_comparison_ignores_only_the_timestamp():
    a = '{\n  "seed": 1,\n  "timestamp": "2026-01-01T00:00:00"\n}'
    b = a.replace("2026-01-01", "2027-02-02")
    assert checks.without_timestamp(a) == checks.without_timestamp(b)
    assert checks.without_timestamp(a) != checks.without_timestamp(b.replace('"seed": 1', '"seed": 2'))
