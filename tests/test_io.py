"""Bulk tensor-file I/O against the stdlib and per-entry references.

The loader validates entry lists in bulk and the writers render entry lists
from tables of index digits and distinct values; both must match, byte for
byte and message for message, the straightforward per-entry code kept below
as the reference.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btensor import Tensor, make_tensor, partially_all_one, unit_tensor
from btensor.cli import main
from btensor.classify import classify_all
from btensor.core import _TENSOR_BUDGET_BYTES, _check_index, _check_shape
from btensor.decompose import DecompositionError, decompose, pd_certify
import btensor.io as bio
from btensor.io import (
    TensorFormatError,
    build_report,
    certificate_to_dict,
    content_hash,
    decomposition_to_dict,
    doc_to_tensor,
    dump_report,
    load_tensor,
    save_tensor,
    search_report_to_dict,
    tensor_to_doc,
)
from btensor.oracle import SearchCandidate, SearchReport, sphere_minimize

from conftest import random_quasi_instance

SPECIAL_VALUES = (2.0, -1e300, 5e-324, 0.1)


# ---------------------------------------------------------------------------
# references: the per-entry code the bulk paths replaced


def ref_tensor_to_doc(T: Tensor, name: str | None = None) -> dict:
    entries = []
    for idx in np.argwhere(T.data != 0.0):
        key = tuple(int(k) + 1 for k in idx)
        entries.append({"idx": list(key), "val": float(T.data[tuple(idx)])})
    doc = {"order": T.order, "dim": T.dim, "entries": entries}
    label = name if name is not None else T.name
    if label is not None:
        doc["name"] = label
    return doc


def ref_content_hash(T: Tensor) -> str:
    doc = ref_tensor_to_doc(T)
    payload = json.dumps(
        {"order": doc["order"], "dim": doc["dim"], "entries": doc["entries"]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def ref_dump_tensor_doc(doc: dict) -> str:
    lines = ["{", f'  "order": {doc["order"]},', f'  "dim": {doc["dim"]},']
    if "name" in doc:
        lines.append(f'  "name": {json.dumps(doc["name"])},')
    body = ",\n".join(
        "    " + json.dumps(entry, separators=(", ", ": ")) for entry in doc["entries"]
    )
    lines.append('  "entries": [' + ("\n" + body + "\n  ]" if body else "]"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_dump_report(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def ref_doc_to_tensor(doc) -> Tensor:
    """The record-by-record loader: type checks over all entries, then
    length, range and duplicate checks entry by entry."""
    if not isinstance(doc, dict):
        raise TensorFormatError(f"tensor document must be an object, got {type(doc).__name__}")
    for field in ("order", "dim", "entries"):
        if field not in doc:
            raise TensorFormatError(f"tensor document is missing the {field!r} field")
    order, dim = doc["order"], doc["dim"]
    if not isinstance(order, int) or not isinstance(dim, int):
        raise TensorFormatError("'order' and 'dim' must be integers")
    raw = doc["entries"]
    if not isinstance(raw, list):
        raise TensorFormatError("'entries' must be a list of {idx, val} records")
    pairs = []
    for pos, record in enumerate(raw):
        if not isinstance(record, dict) or "idx" not in record or "val" not in record:
            raise TensorFormatError(f"entry {pos} must be an object with 'idx' and 'val'")
        idx, val = record["idx"], record["val"]
        if not isinstance(idx, list) or not all(isinstance(k, int) for k in idx):
            raise TensorFormatError(f"entry {pos}: 'idx' must be a list of integers")
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise TensorFormatError(f"entry {pos}: 'val' must be a real number")
        pairs.append((tuple(idx), float(val)))
    try:
        data = np.zeros((dim,) * order)
        seen: dict = {}
        for pos, (index, value) in enumerate(pairs):
            idx = tuple(int(k) for k in index)
            _check_index(idx, order, dim)
            if idx in seen:
                raise ValueError(f"duplicate multi-index {idx} at entries {seen[idx]} and {pos}")
            seen[idx] = pos
            data[tuple(k - 1 for k in idx)] = value
        return Tensor(order, dim, data, name=doc.get("name"))
    except ValueError as exc:
        raise TensorFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# tensors and reports to compare on


def sample_tensor(m: int, n: int, seed: int, name: str | None = None) -> Tensor:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n**m) * 10.0 ** rng.integers(-300, 300, size=n**m)
    data[rng.random(n**m) < 0.3] = 0.0
    data[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    return Tensor(m, n, data, name=name)


SHAPES = [(2, 5), (3, 4), (4, 3), (6, 2)]
TENSORS = [
    pytest.param(sample_tensor(m, n, seed=m, name=name), id=f"m{m}-{name}")
    for m, n in SHAPES
    for name in (None, 'label "quoted" ü\n')
] + [
    pytest.param(Tensor(3, 2, np.zeros(8)), id="empty"),
    pytest.param(Tensor(4, 2, np.zeros(16), name="zero"), id="empty-named"),
    pytest.param(Tensor(2, 1, [7.0]), id="dim1"),
]


def decomposable(m: int, n: int, seed: int = 0) -> Tensor:
    """Quasi-double-B tensor whose decomposition takes at least one step."""
    rng = np.random.default_rng(seed)
    while True:
        T = random_quasi_instance(rng, m, n)
        if decompose(T).step_count:
            return T


class TestTensorDocuments:
    @pytest.mark.parametrize("T", TENSORS)
    def test_tensor_to_doc_matches_per_entry_loop(self, T):
        doc = tensor_to_doc(T)
        assert doc == ref_tensor_to_doc(T)
        assert json.dumps(doc) == json.dumps(ref_tensor_to_doc(T))
        assert tensor_to_doc(T, name="other") == ref_tensor_to_doc(T, name="other")

    @pytest.mark.parametrize("T", TENSORS)
    def test_content_hash_matches_compact_payload(self, T):
        assert content_hash(T) == ref_content_hash(T)

    @pytest.mark.parametrize("T", TENSORS)
    def test_save_tensor_text_matches_per_entry_dump(self, T, tmp_path):
        path = tmp_path / "t.json"
        save_tensor(T, path)
        assert path.read_text() == ref_dump_tensor_doc(ref_tensor_to_doc(T))
        save_tensor(T, path, name="renamed")
        assert path.read_text() == ref_dump_tensor_doc(ref_tensor_to_doc(T, name="renamed"))

    @pytest.mark.parametrize("entries", [
        [{"idx": [1, 2], "val": 3}],
        [{"val": 1.5, "idx": [1, 2]}],
        [{"idx": [1, 2], "val": True}],
        [{"idx": [1, 2], "val": float("nan")}, {"idx": [2, 2], "val": float("-inf")}],
        [{"idx": [1, 2], "val": np.float64(0.1)}],
        [{"idx": (1, 2), "val": 0.5}],
        [{"idx": [1, 2], "val": 0.5, "note": "x"}],
    ], ids=["int-val", "val-first", "bool", "nonfinite", "numpy-float", "tuple-idx", "extra-key"])
    def test_noncanonical_entries_render_like_json(self, entries):
        doc = {"order": 2, "dim": 2, "entries": entries}
        report = {"residual": doc, "other": [doc, {"entries": entries}]}
        assert dump_report(report) == ref_dump_report(report)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_rendering_across_chunks(self, chunk, monkeypatch, tmp_path):
        if chunk is None:  # the real chunk size, crossed by a dense m=4 n=9 tensor
            T = sample_tensor(4, 9, seed=5)
            T = Tensor(4, 9, np.where(T.data == 0.0, 0.5, T.data))
        else:
            monkeypatch.setattr(bio, "_RENDER_CHUNK", chunk)
            T = sample_tensor(3, 4, seed=6)
        assert content_hash(T) == ref_content_hash(T)
        save_tensor(T, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == ref_dump_tensor_doc(ref_tensor_to_doc(T))
        report = {"residual": tensor_to_doc(T), "more": [tensor_to_doc(T)]}
        assert dump_report(report) == ref_dump_report(report)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_entry_lists_at_the_edges_of_the_array_renderer(self, chunk, monkeypatch):
        # signed zeros must not share a rendered value; components that are
        # not ints, or outside 1..number of components (0, -1, past intp),
        # go through json.dumps
        if chunk is not None:
            monkeypatch.setattr(bio, "_RENDER_CHUNK", chunk)
        lists = [
            [entry([1, 1], 0.0), entry([1, 2], -0.0), entry([2, 1], 0.0), entry([2, 2], -0.0)],
            [entry([1, 1], 5e-324), entry([1, 2], -1e300), entry([2, 1], 0.1),
             entry([2, 2], 5e-324), entry([2, 3], -5e-324)],
            [entry([0, 1]), entry([1, 1], -0.0)],
            [entry([-1, 2]), entry([2, 2], 0.5)],
            [entry([2**70, 1]), entry([1, 1], 0.5)],
            [entry([1, 9]), entry([1, 1], 0.5)],
            [entry([1, 1.0]), entry([1, 2], 0.5)],
            [entry([True, 2]), entry([1, 2], 0.5)],
        ]
        for entries in lists:
            doc = {"order": 2, "dim": 2, "entries": entries}
            report = {"residual": doc, "other": [doc, {"order": 2, "entries": entries[::-1]}]}
            assert dump_report(report) == ref_dump_report(report)
        idx = np.array([[1, 2], [2, 1], [2, 2], [1, 1]])
        vals = np.array([0.0, -0.0, -0.0, 0.0])
        compact = [json.dumps(entry(k, v), separators=(",", ":"))
                   for k, v in zip(idx.tolist(), vals.tolist())]
        rendered = bio._render_entries(idx, vals, bio._entry_layout(",", ":"), ",")
        assert b"".join(rendered).decode() == ",".join(compact)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_dense_tensor_of_distinct_values(self, chunk, monkeypatch, tmp_path):
        if chunk is not None:
            monkeypatch.setattr(bio, "_RENDER_CHUNK", chunk)
        rng = np.random.default_rng(8)
        T = Tensor(3, 5, rng.normal(size=125) * 10.0 ** rng.integers(-300, 300, size=125))
        assert len(set(T.data.ravel().tolist())) == 125 and not np.any(T.data == 0.0)
        assert content_hash(T) == ref_content_hash(T)
        save_tensor(T, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == ref_dump_tensor_doc(ref_tensor_to_doc(T))
        report = {"residual": tensor_to_doc(T), "more": [tensor_to_doc(T)]}
        assert dump_report(report) == ref_dump_report(report)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_tensor_to_doc_leaves_the_collector_as_it_was(self, enabled, counterexample_tensor):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            doc = tensor_to_doc(counterexample_tensor)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert doc == ref_tensor_to_doc(counterexample_tensor)

    def test_golden_content_hashes(self, counterexample_tensor):
        # computed with the per-entry json.dumps implementation
        T = Tensor(3, 2, [2.0, -1e300, 5e-324, 0.1, 0.0, -0.0, 1e16, 1 / 3], name="golden")
        assert content_hash(T) == (
            "7fa4cedfd562b9ae971c66f2aeced7f8654271ef642a057f2f01fdae275e344f")
        assert content_hash(counterexample_tensor) == (
            "7d80931bef89cb66c13e3773ecf209db19f7b8afa60c036cf0d1d049847a28a3")
        assert content_hash(Tensor(4, 3, np.zeros(81))) == (
            "57ccdabf4fcb972d73b41822f97994438ee890d5b2a464a2002b6f5e825b16df")


class TestReports:
    @pytest.mark.parametrize("T", TENSORS)
    def test_report_with_residual_matches_stdlib(self, T):
        report = build_report(T, timestamp="t")
        report["decomposition"] = {"residual": tensor_to_doc(T), "steps": []}
        assert dump_report(report) == ref_dump_report(report)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 3), (6, 2)])
    def test_decompose_and_certify_reports_match_stdlib(self, m, n):
        T = decomposable(m, n)
        result = decompose(T)
        assert result.step_count >= 1
        cert = pd_certify(T)
        report = build_report(
            T, classes=classify_all(T), certificate=cert, decomposition=result,
            seed=3, flags={"mode": "quasi"}, timestamp="t",
        )
        assert report["decomposition"] == decomposition_to_dict(result)
        assert report["certificate"] == certificate_to_dict(cert)
        assert dump_report(report) == ref_dump_report(report)

    def test_search_candidates_match_stdlib(self):
        tensors = [sample_tensor(m, n, seed=10 + m) for m, n in SHAPES] + [
            Tensor(4, 2, np.zeros(16))]
        oracle = sphere_minimize(unit_tensor(4, 2), starts=4, seed=0)
        report = SearchReport(
            trials=len(tensors), accepted=len(tensors),
            candidates=[SearchCandidate(k, T, oracle) for k, T in enumerate(tensors)],
            seed=1, generator_params={"order": 4, "nested": {"a": [1, 2]}},
        )
        doc = {"search": search_report_to_dict(report), "seed": 1, "timestamp": "t"}
        assert dump_report(doc) == ref_dump_report(doc)

    @pytest.mark.parametrize("report", [
        {},
        {"a": []},
        {"a": {}, "b": [[], {}], "c": (1, "x", None, True, 2.5)},
        {"tensor": {"order": 2, "dim": 2, "entries": []}},
        {"tensor": {"dim": 2, "entries": [{"idx": [1, 1], "val": 1.0}]}},
        {"tensor": {"order": "2", "dim": 2, "entries": [{"idx": [1, 1], "val": 1.0}]}},
        {"tensor": {"order": 3, "dim": 2, "entries": [{"idx": [1, 1], "val": 1.0}]}},
        {"tensor": {"order": 0, "dim": 2, "entries": [{"idx": [], "val": 1.0}]}},
        {"keys": {1: "int key", 2: [{"order": 2, "entries": []}]}},
        {"deep": [[{"x": {"order": 2, "entries": [{"idx": [2, 1], "val": -0.5}]}}]]},
        {"unicode é": "☃", "t": ({"order": 2, "entries": [{"idx": [1, 1], "val": 1e-7}]},)},
    ], ids=["empty", "empty-list", "scalars", "empty-entries", "no-order", "str-order",
            "short-idx", "order-zero", "int-keys", "deep", "tuple-and-unicode"])
    def test_arbitrary_reports_match_stdlib(self, report):
        assert dump_report(report) == ref_dump_report(report)

    def test_decompose_cli_report_holds_one_decomposition(self, capsys, tmp_path):
        T = decomposable(4, 3)
        path = tmp_path / "t.json"
        save_tensor(T, path, name="d")
        assert main(["decompose", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decomposition"] == decomposition_to_dict(decompose(T))


# ---------------------------------------------------------------------------
# loading


def entry(idx, val=1.0):
    return {"idx": idx, "val": val}


MALFORMED = {
    "not-an-object": [1, 2],
    "missing-entries": {"order": 2, "dim": 2},
    "order-not-int": {"order": "2", "dim": 2, "entries": []},
    "entries-not-list": {"order": 2, "dim": 2, "entries": {}},
    "record-not-object": {"order": 2, "dim": 2, "entries": [[1, 2]]},
    "record-missing-val": {"order": 2, "dim": 2, "entries": [{"idx": [1, 1]}]},
    "idx-not-list": {"order": 2, "dim": 2, "entries": [entry("11")]},
    "idx-float": {"order": 2, "dim": 2, "entries": [entry([1, 1.0])]},
    "val-bool": {"order": 2, "dim": 2, "entries": [entry([1, 1], True)]},
    "val-string": {"order": 2, "dim": 2, "entries": [entry([1, 1], "1")]},
    "val-null": {"order": 2, "dim": 2, "entries": [entry([1, 1], None)]},
    "idx-and-val": {"order": 2, "dim": 2, "entries": [entry([1, 1]), entry(["a"], "x")]},
    "idx-short": {"order": 3, "dim": 2, "entries": [entry([1, 1, 1]), entry([1, 1])]},
    "idx-long": {"order": 2, "dim": 2, "entries": [entry([1, 1, 1])]},
    "range-before-ragged": {"order": 2, "dim": 2, "entries": [entry([1, 3]), entry([1])]},
    "ragged-before-range": {"order": 2, "dim": 2, "entries": [entry([1]), entry([1, 3])]},
    "range-zero": {"order": 2, "dim": 2, "entries": [entry([0, 1])]},
    "range-negative": {"order": 2, "dim": 2, "entries": [entry([1, -4])]},
    "range-huge": {"order": 2, "dim": 2, "entries": [entry([1, 10**30])]},
    "duplicate": {"order": 2, "dim": 2,
                  "entries": [entry([1, 2]), entry([2, 2]), entry([1, 2], 3.0)]},
    "duplicate-before-range": {"order": 2, "dim": 2,
                               "entries": [entry([1, 2]), entry([1, 2]), entry([3, 2])]},
    "range-before-duplicate": {"order": 2, "dim": 2,
                               "entries": [entry([1, 2]), entry([3, 2]), entry([1, 2])]},
    "type-after-range": {"order": 2, "dim": 2, "entries": [entry([9, 9]), entry([1, 1], "x")]},
    "type-after-type": {"order": 2, "dim": 2,
                        "entries": [entry([1, 1]), entry([1, "a"]), {"val": 1.0}]},
    "nonfinite": {"order": 2, "dim": 2, "entries": [entry([2, 1]), entry([1, 2], 1e999)]},
    "dim-zero": {"order": 2, "dim": 0, "entries": []},
    "order-one": {"order": 1, "dim": 2, "entries": []},
    "bool-idx": {"order": 2, "dim": 2, "entries": [entry([True, 2])]},
    "int-val": {"order": 2, "dim": 2, "entries": [entry([1, 2], 3)]},
    "valid-unsorted": {"order": 2, "dim": 3, "name": "x",
                       "entries": [entry([3, 1], 1.5), entry([1, 3], -2.0)]},
}


def outcome(load, doc):
    try:
        T = load(doc)
    except TensorFormatError as exc:
        return "rejected", str(exc)
    return "accepted", T.data.tolist(), T.name


class TestLoading:
    @pytest.mark.parametrize("key", sorted(MALFORMED))
    def test_same_verdict_and_message_as_record_loop(self, key):
        doc = MALFORMED[key]
        assert outcome(doc_to_tensor, doc) == outcome(ref_doc_to_tensor, doc)

    def test_duplicate_names_both_entries(self):
        with pytest.raises(TensorFormatError,
                           match=r"duplicate multi-index \(1, 2\) at entries 0 and 2"):
            doc_to_tensor(MALFORMED["duplicate"])

    @pytest.mark.parametrize("T", TENSORS)
    def test_round_trip_through_file(self, T, tmp_path):
        path = tmp_path / "t.json"
        save_tensor(T, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sample tensors are not symmetric
            back = load_tensor(path)
        assert back == T
        assert back.name == T.name

    def test_make_tensor_checks_entries_in_list_order(self):
        with pytest.raises(ValueError, match=r"length 1, expected 2"):
            make_tensor(2, 2, [((1, 2), 1.0), ((1,), 1.0), ((1, 2), 2.0)])
        with pytest.raises(ValueError, match=r"duplicate multi-index \(1, 2\) at entries 0 and 2"):
            make_tensor(2, 2, [((1, 2), 1.0), ((2, 1), 1.0), ((1, 2), 2.0), ((3, 1), 1.0)])
        with pytest.raises(ValueError, match=r"multi-index \(1,\) has length 1, expected 2"):
            make_tensor(2, 3, [(iter([1]), 1.0)])
        for index in (np.array([3, 1]), (k for k in (3, 1)), map(int, "31")):
            T = make_tensor(2, 3, [(index, 1.5), ([1, 3], -2)])
            assert T.data.tolist() == [[0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]

    @pytest.mark.parametrize("tail", ["", ', {"idx": [1], "val": "x"}'], ids=["alone", "first"])
    def test_value_too_large_for_a_float_is_a_format_error(self, tail, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"order": 2, "dim": 2, "entries": ['
                        '{"idx": [1, 1], "val": 1.0}, {"idx": [2, 2], "val": 1' + "0" * 400
                        + "}" + tail + "]}")
        with pytest.raises(TensorFormatError, match=r"entry 1: 'val' is too large for a float"):
            load_tensor(path)
        assert main(["classify", str(path)]) == 2
        assert "entry 1" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": 1'
                        + "0" * 5000 + "}]}")
        with pytest.raises(TensorFormatError, match="digits"):
            load_tensor(path)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("text", [
        '{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "val": 2.0}]}'.encode(),
        b'{"order": 2, "dim": 1, "entries": [',
        b"\xff\xfe{}",
    ], ids=["good", "parse-error", "not-utf8"])
    def test_parse_pauses_the_collector_and_restores_it(self, text, enabled, monkeypatch,
                                                        tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(text)
        seen = []
        real_loads = json.loads

        def loads(*args, **kwargs):
            seen.append(gc.isenabled())
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(bio.json, "loads", loads)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_tensor(path)
            except TensorFormatError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([] if text.startswith(b"\xff") else [False])

    def test_oversized_shape_is_refused_before_allocating(self, tmp_path, capsys):
        # order 8, dim 16 is 16**8 float64 values: 34 GB
        doc = {"order": 8, "dim": 16, "entries": [{"idx": [1] * 8, "val": 1.0}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match="order 8 and dim 16 needs more than"):
                load_tensor(path)
            with pytest.raises(ValueError, match="order 8 and dim 16 needs more than"):
                make_tensor(8, 16, [((1,) * 8, 1.0)])
            for build in (lambda: Tensor(8, 16, [1.0]), lambda: unit_tensor(8, 16),
                          lambda: partially_all_one(8, 16, [1])):
                with pytest.raises(ValueError, match="order 8 and dim 16 needs more than"):
                    build()
            assert main(["classify", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "needs more than" in capsys.readouterr().err
        side = math.isqrt(_TENSOR_BUDGET_BYTES // 8)
        _check_shape(2, side)  # the largest square matrix within the budget
        with pytest.raises(ValueError, match="needs more than"):
            _check_shape(2, side + 1)
        _check_shape(10**6, 1)  # dim 1 holds one value at any order

    @pytest.mark.parametrize("order,dim,message", [
        (2, -1, "dim must be >= 1, got -1"),
        (-3, 2, "order must be >= 2, got -3"),
        (10**400, 2, "index-sized integer"),
    ], ids=["dim-negative", "order-negative", "order-huge"])
    def test_bad_shape_uses_btensor_messages(self, order, dim, message, tmp_path, capsys):
        doc = {"order": order, "dim": dim, "entries": [{"idx": [1, 1], "val": 1.0}]}
        with pytest.raises(TensorFormatError, match=message):
            doc_to_tensor(doc)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# the entry scanner on long lists with one perturbed record


class Record(dict):
    pass


SCAN_ORDER, SCAN_DIM = 4, 9


def scan_records(count: int = 5000) -> list:
    """``count`` valid records with distinct multi-indices in shuffled order."""
    rng = np.random.default_rng(12)
    cells = rng.permutation(SCAN_DIM**SCAN_ORDER)[:count]
    idx = np.argwhere(np.ones((SCAN_DIM,) * SCAN_ORDER))[cells] + 1
    vals = rng.normal(size=count) * 10.0 ** rng.integers(-300, 300, size=count)
    return [entry(k, v) for k, v in zip(idx.tolist(), vals.tolist())]


SCAN_RECORDS = scan_records()

# kind: (perturbed record from the record at the chosen position and another
# record, whether the loader's scan takes the list, whether the encoder's does)
PERTURBATIONS = {
    "bool-idx": (lambda r, o: entry([True] + r["idx"][1:], r["val"]), True, False),
    "float-idx": (lambda r, o: entry(r["idx"][:-1] + [1.0], r["val"]), False, False),
    "huge-idx": (lambda r, o: entry([2**70] + r["idx"][1:], r["val"]), False, False),
    "int-val": (lambda r, o: entry(r["idx"], 3), True, False),
    "huge-int-val": (lambda r, o: entry(r["idx"], 10**400), False, False),
    "numpy-float": (lambda r, o: entry(r["idx"], np.float64(r["val"])), False, False),
    "dict-subclass": (lambda r, o: Record(r), False, False),
    "extra-key": (lambda r, o: {**r, "note": "x"}, True, False),
    "missing-key": (lambda r, o: {"idx": r["idx"]}, False, False),
    "ragged": (lambda r, o: entry(r["idx"][:-1], r["val"]), False, False),
    "out-of-range": (lambda r, o: entry(r["idx"][:-1] + [SCAN_DIM + 1], r["val"]),
                     True, True),
    "duplicate": (lambda r, o: entry(list(o["idx"]), r["val"]), True, True),
}


def perturbed(kind: str, pos: int, other: int) -> list:
    entries = list(SCAN_RECORDS)
    entries[pos] = PERTURBATIONS[kind][0](SCAN_RECORDS[pos], SCAN_RECORDS[other])
    return entries


class TestEntryScanner:
    """The whole-list scanner and its per-record fallbacks against the
    record-by-record loader and ``json.dumps``."""

    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    @settings(max_examples=10, deadline=None)
    @given(pos=st.integers(0, len(SCAN_RECORDS) - 1), other=st.integers(0, len(SCAN_RECORDS) - 1))
    def test_loader_matches_record_loop(self, kind, pos, other):
        doc = {"order": SCAN_ORDER, "dim": SCAN_DIM, "name": kind,
               "entries": perturbed(kind, pos, other)}
        if kind == "huge-int-val":  # the record loop lets float() raise OverflowError
            expected = ("rejected", f"entry {pos}: 'val' is too large for a float")
        else:
            expected = outcome(ref_doc_to_tensor, doc)
        assert outcome(doc_to_tensor, doc) == expected

    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    @settings(max_examples=3, deadline=None)  # json.dumps with indent runs in Python
    @given(pos=st.integers(0, len(SCAN_RECORDS) - 1), other=st.integers(0, len(SCAN_RECORDS) - 1))
    def test_encoder_matches_json_dumps(self, kind, pos, other):
        report = {"residual": {"order": SCAN_ORDER, "dim": SCAN_DIM,
                               "entries": perturbed(kind, pos, other)}}
        assert dump_report(report) == ref_dump_report(report)

    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    def test_which_lists_the_scanner_takes(self, kind):
        _, loads, renders = PERTURBATIONS[kind]
        entries = perturbed(kind, 17, 4000)
        for exact, expected in ((False, loads), (True, renders)):
            columns = bio._entry_arrays(entries, SCAN_ORDER, exact)
            assert (columns is not None) is expected
            if columns is not None:
                idx, vals = columns
                assert idx.tolist() == [[int(k) for k in r["idx"]] for r in entries]
                assert vals.tolist() == [float(r["val"]) for r in entries]

    def test_plain_list_is_taken_by_both_rules(self):
        for exact in (False, True):
            idx, vals = bio._entry_arrays(SCAN_RECORDS, SCAN_ORDER, exact)
            assert idx.dtype == np.intp and idx.shape == (len(SCAN_RECORDS), SCAN_ORDER)
            assert vals.dtype == np.float64
        assert bio._entry_arrays(SCAN_RECORDS, SCAN_ORDER - 1, False) is None
        assert bio._entry_arrays([], SCAN_ORDER, False) is None

    def test_no_collection_follows_the_parse(self, tmp_path):
        # the parsed document is freed while the collector is still paused
        path = tmp_path / "t.json"
        save_tensor(Tensor(SCAN_ORDER, SCAN_DIM, np.arange(SCAN_DIM**SCAN_ORDER) + 1.0), path)
        started = []

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(note)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                load_tensor(path)
        finally:
            gc.callbacks.remove(note)
        assert gc.isenabled() and started == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("text,converted", [
        ('{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "val": 2.0}]}', True),
        ('{"order": 2, "dim": 1, "entries": [{"idx": [1, 1], "val": "x"}]}', True),
        ('{"order": 2, "dim": 1, "entries": [' + "[" * 100_000, False),
    ], ids=["good", "bad-record", "nested"])
    def test_collector_stays_paused_through_conversion(self, text, converted, enabled,
                                                        monkeypatch, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(text)
        seen = []
        real = bio.doc_to_tensor

        def doc_to_tensor(doc):
            seen.append(gc.isenabled())
            return real(doc)

        monkeypatch.setattr(bio, "doc_to_tensor", doc_to_tensor)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_tensor(path)
            except TensorFormatError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([False] if converted else [])


# ---------------------------------------------------------------------------
# decomposition escape check


def test_escape_check_names_first_escaping_entry(monkeypatch):
    """Drop the last row from the located block so that entries escape it;
    the message names the first escaping entry in lexicographic order, as
    the per-entry scan over the positive entries did."""
    dec = importlib.import_module("btensor.decompose")  # the package exports a function of that name
    T = decomposable(4, 4, seed=1)
    real = dec.partially_all_one
    monkeypatch.setattr(
        dec, "partially_all_one", lambda m, n, members: real(m, n, sorted(members)[:-1]))
    j_hat = {i0 for i0 in range(T.dim) if (np.delete(T.data[i0].ravel(), 0) > 0).any()}
    kept = set(sorted(j_hat)[:-1])
    expected = next(
        tuple(int(k) + 1 for k in idx)
        for idx in np.argwhere(T.data > 0.0)
        if len(set(idx)) > 1 and not set(int(k) for k in idx) <= kept
    )
    pattern = r"entry at \(" + ", ".join(map(str, expected)) + r"\) escapes"
    with pytest.raises(DecompositionError, match=pattern):
        decompose(T)
