import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import btensor
from btensor import Tensor, make_tensor, unit_tensor
from btensor.cli import main
from btensor.io import TensorFormatError, load_tensor, save_tensor, tensor_to_doc

from test_decompose import sym_from_multisets


@pytest.fixture
def remark_file(tmp_path, remark_tensor):
    path = tmp_path / "remark.json"
    save_tensor(remark_tensor, path, name="order3-remark")
    return str(path)


@pytest.fixture
def counterexample_file(tmp_path, counterexample_tensor):
    path = tmp_path / "counterexample.json"
    save_tensor(counterexample_tensor, path, name="order4-counterexample")
    return str(path)


@pytest.fixture
def b_tensor_file(tmp_path):
    path = tmp_path / "unit.json"
    save_tensor(unit_tensor(4, 2), path, name="unit")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTensorFiles:
    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        T = Tensor(3, 3, rng.uniform(-2, 2, size=27), name="random")
        path = tmp_path / "t.json"
        save_tensor(T, path)
        with pytest.warns(UserWarning):  # random tensor is not symmetric
            back = load_tensor(path)
        assert back == T  # exact entry equality
        assert back.name == "random"

    def test_empty_entries_is_zero_tensor(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"order": 3, "dim": 2, "entries": []}')
        T = load_tensor(path)
        assert np.all(T.data == 0.0)

    def test_out_of_range_index_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 3, "dim": 2, "entries": [{"idx": [1, 2, 3], "val": 1.0}]}')
        with pytest.raises(TensorFormatError, match="3"):
            load_tensor(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"order": 3,\n  "dim": 2,\n  "entries": [}')
        with pytest.raises(TensorFormatError, match="line 3"):
            load_tensor(path)

    def test_duplicate_idx_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"order": 2, "dim": 2, "entries": ['
            '{"idx": [1, 2], "val": 1.0}, {"idx": [1, 2], "val": 2.0}]}')
        with pytest.raises(TensorFormatError, match="duplicate"):
            load_tensor(path)

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": 1e999}]}')
        with pytest.raises(TensorFormatError):
            load_tensor(path)

    def test_asymmetric_load_warns_not_errors(self, tmp_path, remark_tensor):
        path = tmp_path / "asym.json"
        save_tensor(remark_tensor, path)
        with pytest.warns(UserWarning, match="not symmetric"):
            T = load_tensor(path)
        assert T == remark_tensor


class TestClassifyCommand:
    def test_remark_report(self, capsys, remark_file):
        code, out, _ = run(capsys, ["classify", remark_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"]["verdicts"]["QuasiDoubleB"] is True
        assert doc["classes"]["verdicts"]["DoubleB"] is False
        assert doc["input"]["order"] == 3
        assert doc["input"]["entry_count"] == 6
        assert doc["tool"]["name"] == "btensor"

    def test_unit_all_true(self, capsys, b_tensor_file):
        code, out, _ = run(capsys, ["classify", b_tensor_file])
        assert code == 0
        doc = json.loads(out)
        assert all(v for v in doc["classes"]["verdicts"].values())

    def test_counterexample_product_holds(self, capsys, counterexample_file):
        code, out, _ = run(capsys, ["classify", counterexample_file])
        assert code == 0
        doc = json.loads(out)
        verdicts = doc["classes"]["verdicts"]
        assert verdicts["ProductIneq"] is True
        assert verdicts["QuasiDoubleB"] is False

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in err

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2
        assert "parse error" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        # a UTF-16 byte-order mark: tensor files are JSON, read as UTF-8
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"order": 2}'.encode("utf-16-le"))
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2
        assert str(path) in err and "UTF-8" in err

    def test_asymmetric_warning_on_stderr(self, capsys, remark_file):
        code, _, err = run(capsys, ["classify", remark_file])
        assert code == 0
        assert "not symmetric" in err
        code, _, err = run(capsys, ["--quiet", "classify", remark_file])
        assert code == 0
        assert err == ""

    def test_determinism_modulo_timestamp(self, capsys, counterexample_file):
        _, out1, _ = run(capsys, ["classify", counterexample_file])
        _, out2, _ = run(capsys, ["classify", counterexample_file])
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamp"), d2.pop("timestamp")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


class TestCertifyCommand:
    def test_b_tensor_exits_0(self, capsys, b_tensor_file):
        code, out, _ = run(capsys, ["certify", b_tensor_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["verdict"] == "positive_definite"
        assert doc["certificate"]["route"].startswith("b-tensor")

    def test_counterexample_with_oracle_exits_1(self, capsys, counterexample_file):
        code, out, _ = run(capsys, ["certify", counterexample_file, "--oracle", "--seed", "42"])
        assert code == 1
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["verdict"] == "not_positive_definite"
        assert cert["witness_value"] <= -0.76
        assert cert["oracle"]["min_value"] < 0

    def test_zero_starts_with_oracle_exits_2(self, capsys, counterexample_file):
        with pytest.raises(SystemExit) as exc:
            main(["certify", counterexample_file, "--oracle", "--starts", "0"])
        assert exc.value.code == 2
        assert "--starts" in capsys.readouterr().err
        # without --oracle no search runs, so the value is not used
        assert run(capsys, ["certify", counterexample_file, "--starts", "0"])[0] == 3

    def test_remark_exits_3(self, capsys, remark_file):
        code, out, _ = run(capsys, ["certify", remark_file])
        assert code == 3
        doc = json.loads(out)
        assert doc["certificate"]["verdict"] == "inconclusive"
        assert "odd order" in doc["certificate"]["note"]

    def test_quasi_route_serializes_decomposition(self, capsys, tmp_path):
        T = sym_from_multisets(4, 2, {(0, 0, 0, 1): 0.1, (0, 1, 1, 1): -1.0}, [1.4, 4.5])
        path = tmp_path / "quasi.json"
        save_tensor(T, path)
        code, out, _ = run(capsys, ["certify", str(path)])
        assert code == 0
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["route"].startswith("quasi-double-b")
        assert cert["decomposition"]["step_count"] == 1
        step = cert["decomposition"]["steps"][0]
        assert step["rows"] == [1, 2]
        assert step["weight"] == pytest.approx(0.1)


class TestDecomposeCommand:
    def test_happy_path(self, capsys, tmp_path):
        T = sym_from_multisets(4, 2, {(0, 0, 0, 1): 0.1, (0, 1, 1, 1): -1.0}, [1.4, 4.5])
        path = tmp_path / "quasi.json"
        save_tensor(T, path)
        code, out, _ = run(capsys, ["decompose", str(path)])
        assert code == 0
        doc = json.loads(out)
        dec = doc["decomposition"]
        assert dec["step_count"] == 1
        assert dec["residual"]["order"] == 4
        assert dec["max_beta_shift_error"] <= 1e-12

    def test_z_input_zero_steps(self, capsys, tmp_path):
        T = sym_from_multisets(4, 2, {(0, 0, 0, 1): -0.5, (0, 1, 1, 1): -0.5}, [3.45, 4.5])
        path = tmp_path / "z.json"
        save_tensor(T, path)
        code, out, _ = run(capsys, ["decompose", str(path)])
        assert code == 0
        assert json.loads(out)["decomposition"]["step_count"] == 0

    def test_asymmetric_exits_4(self, capsys, remark_file):
        code, _, err = run(capsys, ["decompose", remark_file])
        assert code == 4
        assert "not symmetric" in err

    def test_class_failure_exits_4_with_witness(self, capsys, counterexample_file):
        code, _, err = run(capsys, ["decompose", counterexample_file])
        assert code == 4
        assert "pair=(1, 2)" in err

    def test_double_mode(self, capsys, tmp_path):
        T = sym_from_multisets(
            4, 2, {(0, 0, 0, 1): -0.5, (0, 0, 1, 1): -0.5, (0, 1, 1, 1): -0.5}, [3.5, 4.0])
        path = tmp_path / "double.json"
        save_tensor(T, path)
        code, out, _ = run(capsys, ["decompose", str(path), "--mode", "double"])
        assert code == 0


class TestOracleCommand:
    def test_reports_minimum(self, capsys, counterexample_file):
        code, out, _ = run(capsys, ["oracle", counterexample_file, "--seed", "42"])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["min_value"] < 0
        assert doc["oracle"]["normalization"] == "l2"
        assert doc["flags"]["normalization"] == "l2"

    def test_lm_normalization(self, capsys, b_tensor_file):
        code, out, _ = run(capsys, ["oracle", b_tensor_file, "--normalization", "lm"])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["min_value"] == pytest.approx(1.0, abs=1e-9)

    def test_lm_on_odd_order_exits_2(self, capsys, remark_file):
        code, _, err = run(capsys, ["oracle", remark_file, "--normalization", "lm"])
        assert code == 2
        assert "even" in err

    def test_negative_margin_exits_2(self, capsys, remark_file):
        with pytest.raises(SystemExit) as exc:
            main(["classify", remark_file, "--margin", "-0.5"])
        assert exc.value.code == 2


class TestSearchCommand:
    def test_smoke_exit_0(self, capsys):
        code, out, _ = run(capsys, ["search-b0", "--order", "4", "--dim", "2",
                                    "--trials", "8", "--seed", "42"])
        assert code == 0
        doc = json.loads(out)
        assert doc["search"]["trials"] == 8
        assert doc["search"]["candidates"] == []

    def test_odd_order_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-b0", "--order", "3", "--dim", "2", "--trials", "5"])
        assert exc.value.code == 2

    def test_zero_trials_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-b0", "--order", "4", "--dim", "2", "--trials", "0"])
        assert exc.value.code == 2

    def test_zero_starts_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-b0", "--order", "4", "--dim", "2", "--trials", "5", "--starts", "0"])
        assert exc.value.code == 2
        assert "--starts" in capsys.readouterr().err

    def test_bad_tolerance_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-b0", "--order", "4", "--dim", "2", "--trials", "5", "--tol", "0"])
        assert exc.value.code == 2

    def test_search_runs_without_scipy(self):
        # a fresh interpreter, so modules imported by other tests do not count
        script = (
            "import sys, contextlib, io\n"
            "from btensor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['search-b0', '--order', '4', '--dim', '2', '--trials', '2'])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(btensor.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"


class TestReportDigest:
    def test_content_hash_tracks_entries(self, counterexample_tensor):
        from btensor.io import content_hash
        h1 = content_hash(counterexample_tensor)
        bumped = make_tensor(4, 2, [((1, 1, 1, 1), 2.0000001)])
        assert h1 != content_hash(bumped)
        assert h1 == content_hash(Tensor(4, 2, counterexample_tensor.data))

    def test_doc_sorted_lexicographically(self, counterexample_tensor):
        doc = tensor_to_doc(counterexample_tensor)
        idxs = [tuple(e["idx"]) for e in doc["entries"]]
        assert idxs == sorted(idxs)


class TestParserReuse:
    """``build_parser`` is cached: one parser serves every ``main`` call of a
    process, so no call may see another's arguments."""

    def test_parser_is_built_once(self):
        from btensor.cli import build_parser
        assert build_parser() is build_parser()

    def test_consecutive_calls_share_no_state(self, capsys, counterexample_file):
        code, out, _ = run(capsys, ["certify", counterexample_file, "--oracle", "--starts", "3"])
        assert code == 1
        assert json.loads(out)["flags"] == {"oracle": True, "starts": 3, "margin": 0.0}
        code, out, _ = run(capsys, ["certify", counterexample_file])
        assert code == 3
        doc = json.loads(out)
        assert doc["flags"] == {"oracle": False, "starts": None, "margin": 0.0}
        assert "oracle" not in doc["certificate"]

    def test_repeated_parser_errors_exit_2(self, capsys, remark_file):
        for _ in range(3):
            for argv in (["classify", remark_file, "--margin", "-1"],
                         ["search-b0", "--order", "3", "--dim", "2", "--trials", "5"],
                         ["certify"],
                         ["no-such-command"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert "usage: btensor" in capsys.readouterr().err
        assert run(capsys, ["classify", remark_file])[0] == 0


class TestNestedFiles:
    """A document nested past the parser's recursion limit is a malformed
    file (exit 2), not a crash that ``certify`` would report as exit 1."""

    @pytest.fixture
    def nested_file(self, tmp_path):
        path = tmp_path / "nested.json"
        depth = 100_000
        path.write_text('{"order": 2, "dim": 2, "entries": [{"idx": '
                        + "[" * depth + "]" * depth + ', "val": 1.0}]}')
        return str(path)

    @pytest.mark.parametrize("command", ["classify", "certify"])
    def test_exits_2_naming_the_file(self, capsys, nested_file, command):
        code, out, err = run(capsys, [command, nested_file])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {nested_file}: ") and "nested too deeply" in err

    def test_load_tensor_raises_format_error(self, nested_file):
        with pytest.raises(TensorFormatError, match="nested too deeply"):
            load_tensor(nested_file)


class TestDocumentName:
    """``name`` is a string or null; anything else is a malformed file."""

    @pytest.fixture
    def deep_name_file(self, tmp_path):
        # json.loads parses 950 levels; encoding them back into a report
        # would pass the recursion limit
        path = tmp_path / "deep-name.json"
        path.write_text('{"order": 2, "dim": 2, "name": ' + "[" * 950 + "]" * 950
                        + ', "entries": [{"idx": [1, 1], "val": 1.0}]}')
        return str(path)

    @pytest.mark.parametrize("command", ["classify", "certify"])
    def test_nested_name_exits_2(self, capsys, deep_name_file, command):
        code, out, err = run(capsys, [command, deep_name_file])
        assert code == 2
        assert out == ""
        assert err == "error: 'name' must be a string or null, got list\n"

    @pytest.mark.parametrize("name", [7, 1.5, True, {"a": "b"}, ["x"]])
    def test_other_types_are_refused(self, tmp_path, name):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"order": 2, "dim": 1, "name": name, "entries": []}))
        with pytest.raises(TensorFormatError, match="'name' must be a string or null"):
            load_tensor(path)

    @pytest.mark.parametrize("name", [None, "", "[" * 100_000])
    def test_strings_and_null_are_kept(self, capsys, tmp_path, name):
        # a string name keeps the report's nesting at its schema's depth
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"order": 2, "dim": 1, "name": name,
                                    "entries": [{"idx": [1, 1], "val": 1.0}]}))
        code, out, _ = run(capsys, ["certify", str(path)])
        assert code == 0
        assert json.loads(out)["input"]["name"] == name


class TestInternalErrors:
    """An unexpected exception exits 5 with its traceback on stderr, so no
    crash reads as ``certify``'s 1 (not positive definite)."""

    @pytest.mark.parametrize("command", ["classify", "certify", "decompose", "oracle"])
    def test_unexpected_exception_exits_5(self, capsys, monkeypatch, b_tensor_file, command):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        for target in ("classify_all", "pd_certify", "decompose", "sphere_minimize"):
            monkeypatch.setattr(f"btensor.cli.{target}", boom)
        code, out, err = run(capsys, [command, b_tensor_file])
        assert code == 5
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: boom\n")

    def test_search_exception_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("btensor.cli.conjecture_search", lambda *a, **k: 1 / 0)
        code, _, err = run(capsys, ["search-b0", "--order", "4", "--dim", "2", "--trials", "2"])
        assert code == 5
        assert "ZeroDivisionError" in err

    @pytest.mark.parametrize("command", ["classify", "certify"])
    def test_class_chain_failure_exits_5(self, capsys, tmp_path, command):
        # DoubleB holds, and row 2 sits exactly on the tie b_22..2 - beta_2 =
        # Delta_2 with b_21..1 = beta_2, which the quasi inequality does not
        # forgive: the chain check raises where a verdict belongs
        path = tmp_path / "tie.json"
        save_tensor(make_tensor(3, 2, [((1, 1, 1), 5.0), ((2, 1, 2), -1.0), ((2, 2, 2), 1.0)]), path)
        code, out, err = run(capsys, ["--quiet", command, str(path)])
        assert code == 5
        assert out == ""
        assert raised(err) == "InternalConsistencyError"
        assert "subset chain violated" in err

    def test_interrupt_is_not_caught(self, monkeypatch, b_tensor_file):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("btensor.cli.classify_all", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["classify", b_tensor_file])


_json_leaves = (st.none() | st.booleans() | st.integers(-3, 6) | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def tensor_documents(draw):
    """Arbitrary JSON, or a small tensor document with distinct in-range
    indices and small dyadic values, or one with a field replaced by
    arbitrary JSON."""
    kind = draw(st.sampled_from(["json", "tensor", "perturbed"]))
    if kind == "json":
        return draw(json_values)
    order, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    record = st.fixed_dictionaries({
        "idx": st.lists(st.integers(1, dim), min_size=order, max_size=order),
        "val": st.integers(-2, 4) | st.sampled_from([0.25, 0.5, -0.5, 1.5]),
    })
    doc = {"order": order, "dim": dim, "name": draw(st.none() | st.text(max_size=4)),
           "entries": draw(st.lists(record, max_size=10, unique_by=lambda r: tuple(r["idx"])))}
    if kind == "perturbed":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_values)
    return doc


# exact ties between the class inequalities can still raise inside the class
# chain check and the decomposition; the catch-all reports them as exit 5
_KNOWN_CRASHES = ("InternalConsistencyError", "DecompositionError")


def raised(err: str) -> str:
    """Unqualified name of the exception a traceback on stderr ends with."""
    return err.rstrip().rsplit("\n", 1)[-1].split(":", 1)[0].rsplit(".", 1)[-1]


@pytest.mark.parametrize("field", ["order", "dim"])
def test_boolean_shape_exits_2(capsys, tmp_path, field):
    # JSON true is a bool, an int subclass that numpy refuses as a shape
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"order": 2, "dim": 1, "entries": []} | {field: True}))
    code, out, err = run(capsys, ["certify", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: 'order' and 'dim' must be integers\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=tensor_documents())
def test_arbitrary_documents_never_exit_1(tmp_path, capsys, doc):
    """Without ``--oracle`` nothing can yield "not positive definite", so no
    JSON document makes ``certify`` exit 1; ``classify`` exits 0 or 2."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command, codes in (("classify", {0, 2}), ("certify", {0, 2, 3})):
        code, _, err = run(capsys, ["--quiet", command, str(path)])
        if code == 5:
            assert raised(err) in _KNOWN_CRASHES, err
        else:
            assert code in codes, err
