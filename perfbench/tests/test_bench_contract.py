"""BENCHMARK.json matches what run.py prints, the inputs land where they
were built to, and a checkout without the library fails cleanly."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import btensor
from btensor.decompose import PreconditionError

import inputs
import run
from tracing import Tracer
from workloads import CERTIFY_FILES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_ONLY = ("trace.items", "trace.spans", "trace.items_per_s",
              "trace.untraced_items_per_s", "trace.overhead_items_per_s")


def test_spec_lists_the_workloads_and_metrics_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer = list(Tracer().layer_metrics()) + list(TRACE_ONLY)
    assert [m["name"] for m in SPEC["per_layer"]] == layer
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("kind", sorted({k for k, _, _ in CERTIFY_FILES}))
def test_certify_inputs_land_on_their_rung(kind):
    for seed in range(3):
        for m, n in ((4, 3), (4, 4), (3, 4)):
            T = btensor.Tensor(m, n, inputs.certify_tensor(kind, m, n, inputs.rng_for(seed, m, n)))
            expect = inputs.expected_outcomes(kind, m)
            cert = btensor.pd_certify(T)
            assert {"positive_definite": 0, "inconclusive": 3}[cert.verdict] == expect.certify_exit
            if expect.route_prefix:
                assert cert.route.startswith(expect.route_prefix)
            assert btensor.is_symmetric(T) == expect.symmetric
            try:
                btensor.decompose(T)
                code = 0
            except PreconditionError:
                code = 4
            assert code == expect.decompose_exit


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "search-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


@pytest.mark.xfail(strict=True, raises=btensor.InternalConsistencyError,
                   reason="known defect: a DoubleB tensor whose tail b[1,2,...,2] equals "
                          "beta_1 fails the strict quasi pair (0 > 0), so classify_all "
                          "reports a broken subset chain; the double-rung files avoid the tie")
def test_double_rung_with_a_tail_at_beta_keeps_the_class_chain():
    data = inputs.certify_tensor("double", 4, 2, inputs.rng_for(0))
    inputs._set_orbit(data, (0, 1, 1, 1), 0.25)  # tail up to beta_1 = 0.25
    _, beta, delta, _ = inputs.row_stats(data)
    inputs._set_diag(data, beta + delta + [0.0, 0.5])
    btensor.classify_all(btensor.Tensor(4, 2, data))
