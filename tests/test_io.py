"""Bulk tensor-file I/O against the stdlib and per-entry references.

The loader validates entry lists in bulk and the writers render entry lists
from tables of index digits and distinct values; both must match, byte for
byte and message for message, the straightforward per-entry code kept below
as the reference.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from btensor import Tensor, make_tensor, partially_all_one, unit_tensor
import btensor.cli
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
from btensor.oracle import SearchCandidate, SearchReport, conjecture_search, sphere_minimize

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
        if not isinstance(idx, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in idx
        ):
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


def ref_load_tensor(path) -> Tensor:
    """The JSON path of the loader: the whole file through ``json.loads``
    and :func:`doc_to_tensor`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TensorFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TensorFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise TensorFormatError(f"{path}: arrays or objects nested too deeply") from exc
    except ValueError as exc:
        raise TensorFormatError(f"{path}: {exc}") from exc
    return doc_to_tensor(doc)


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

    # The CLI's reports keep each entry list as arrays (io._Entries) until
    # dump_report renders it; the public builders return the same documents
    # with records in their place.

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 3), (4, 5), (6, 2)])
    def test_array_carrying_reports_render_as_the_public_dicts(self, m, n):
        T = decomposable(m, n, seed=m + n)
        cert = dataclasses.replace(pd_certify(T), decomposition=decompose(T, mode="double"))
        for parts in (
            {"classes": classify_all(T), "certificate": cert, "seed": 0,
             "flags": {"oracle": False, "starts": None, "margin": 0.0}},
            {"decomposition": decompose(T), "flags": {"mode": "quasi", "verify": True}},
        ):
            carried = bio._report(T, timestamp="t", **parts)
            public = build_report(T, timestamp="t", **parts)
            assert is_plain(public)
            if "certificate" in parts:
                residual = carried["certificate"]["decomposition"]["residual"]
                assert public["certificate"] == certificate_to_dict(cert)
            else:
                residual = carried["decomposition"]["residual"]
                assert public["decomposition"] == decomposition_to_dict(parts["decomposition"])
            assert type(residual["entries"]) is bio._Entries
            assert dump_report(carried) == ref_dump_report(public)

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2)])
    def test_array_carrying_search_report_renders_as_the_public_dict(self, m, n):
        found = conjecture_search(m, n, trials=30, seed=5, tolerance=1e-300, starts=4)
        assert found.candidates
        oracle = found.candidates[0].oracle_result
        candidates = [SearchCandidate(9, sample_tensor(m, n, seed=3), oracle)]
        for report in (found, SearchReport(1, 1, candidates, 2, {"order": m})):
            public = search_report_to_dict(report)
            assert is_plain(public)
            assert dump_report({"search": bio._search_doc(report)}) == ref_dump_report(
                {"search": public})

    @pytest.mark.parametrize("T", TENSORS + [
        pytest.param(Tensor(2, 5, np.eye(5)[4] * np.eye(5)[:, [4]]), id="past-renderer"),
    ])
    def test_array_carrying_tensor_documents(self, T):
        # arrays the renderer does not take go to the stdlib encoder as records
        carried = {"residual": bio._tensor_doc(T), "more": [bio._tensor_doc(T, name="x")]}
        public = {"residual": tensor_to_doc(T), "more": [tensor_to_doc(T, name="x")]}
        assert is_plain(public) and bio._materialized(carried) == public
        assert dump_report(carried) == ref_dump_report(public)

    @pytest.mark.parametrize("command", ["certify", "decompose"])
    def test_cli_report_is_the_public_report(self, command, capsys, monkeypatch, tmp_path):
        rng = np.random.default_rng(0)
        T = random_quasi_instance(rng, 6, 2)
        while pd_certify(T).decomposition is None:  # a certificate that carries a residual
            T = random_quasi_instance(rng, 6, 2)
        path = tmp_path / "t.json"
        save_tensor(T, path, name="cli")
        monkeypatch.setattr(btensor.cli, "_timestamp", lambda: "t")
        assert main(["--quiet", command, str(path)]) == 0
        T = load_tensor(path)
        if command == "certify":
            public = build_report(
                T, classes=classify_all(T), certificate=pd_certify(T), seed=0,
                flags={"oracle": False, "starts": None, "margin": 0.0}, timestamp="t")
        else:
            public = build_report(T, decomposition=decompose(T),
                                  flags={"mode": "quasi", "verify": True}, timestamp="t")
        assert capsys.readouterr().out == ref_dump_report(public) + "\n"


def is_plain(obj) -> bool:
    """Whether ``obj`` is built of plain JSON types only."""
    if type(obj) is dict:
        return all(type(k) is str and is_plain(v) for k, v in obj.items())
    if type(obj) is list:
        return all(map(is_plain, obj))
    return obj is None or type(obj) in (str, int, float, bool)


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
    "false-idx": {"order": 2, "dim": 2, "entries": [entry([1, 1]), entry([2, False])]},
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


    @pytest.mark.parametrize("idx", [[True, 2], [2, False], [1, 1, True]],
                             ids=["true", "false", "ragged"])
    def test_boolean_components_exit_2_naming_the_entry(self, idx, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "entries": [
            {"idx": [1, 1], "val": 1.0}, {"idx": idx, "val": 2.0}]}))
        with pytest.raises(TensorFormatError, match=r"^entry 1: 'idx' must be a list of integers$"):
            load_tensor(path)
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == "error: entry 1: 'idx' must be a list of integers\n"


# ---------------------------------------------------------------------------
# the canonical reader: files in save_tensor's layout, and files a few bytes
# away from it, against the JSON path


def load_outcome(load, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            T = load(path)
    except TensorFormatError as exc:
        return "rejected", str(exc)
    return "accepted", T.order, T.dim, T.data.tobytes(), T.name


VALUE_POOL = (0.0, 0.0, 0.0, 1.5, -2.0, 0.1, 1e-05, 1e16, -1e300, 5e-324, 1 / 3, -2.5e-7, 123456.75)
NAME_POOL = (None, "t", 'label "quoted" ü\n', '"entries": [', '\n  "entries": [\n    {"idx": [1')


@st.composite
def file_tensors(draw) -> Tensor:
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3 if m == 4 else 4))
    data = draw(st.lists(st.sampled_from(VALUE_POOL), min_size=n**m, max_size=n**m))
    return Tensor(m, n, data, name=draw(st.sampled_from(NAME_POOL)))


def block_span(raw: bytes) -> tuple[int, int]:
    """Start and end of the entry lines of a saved file (empty if none)."""
    start = raw.find(b'"entries": [\n    ')
    if start < 0:
        return len(raw), len(raw)
    start += len(b'"entries": [\n    ')
    return start, raw.index(b"\n  ]", start)


def value_tokens(raw: bytes) -> list[re.Match]:
    start, end = block_span(raw)
    return list(re.compile(rb'"val": ([^}]+)\}').finditer(raw, start, end))


def respelled(raw: bytes, at: int, spell) -> bytes:
    """``raw`` with one value token (if any) spelled by ``spell(value)``."""
    tokens = value_tokens(raw)
    if not tokens:
        return raw
    token = tokens[at % len(tokens)]
    return raw[: token.start(1)] + spell(float(token.group(1))).encode() + raw[token.end(1):]


def zero_appended(v: float) -> str:
    """A spelling of ``v`` other than its repr: a zero appended to the
    mantissa (``1.50``, ``1.0e-05``)."""
    mantissa, e, exponent = repr(v).partition("e")
    return mantissa + ("0" if "." in mantissa else ".0") + e + exponent


def flipped_digit(raw: bytes, at: int) -> bytes:
    digits = [k for k, c in enumerate(raw) if chr(c).isdigit()]
    k = digits[at % len(digits)]
    return raw[:k] + b"%d" % ((raw[k] - 47) % 10) + raw[k + 1:]


def with_trailing_space(raw: bytes, at: int) -> bytes:
    lines = raw.split(b"\n")
    lines[at % len(lines)] += b" "
    return b"\n".join(lines)


def entries_first(raw: bytes, at: int) -> bytes:
    cut = raw.index(b'\n  "entries": ')
    fields = raw[2:cut].rstrip(b",")  # the lines between "{\n" and the entries key
    entries = raw[cut + 1: raw.rindex(b"\n}")]
    return b"{\n" + entries + b",\n" + fields + b"\n}\n"


MUTATIONS = {
    "none": lambda raw, at: raw,
    "flipped-digit": flipped_digit,
    "trailing-zero": lambda raw, at: respelled(raw, at, zero_appended),
    "exponent-form": lambda raw, at: respelled(raw, at, lambda v: "%.16e" % v),
    "negative-zero": lambda raw, at: respelled(raw, at, lambda v: "-0.0"),
    "int-value": lambda raw, at: respelled(raw, at, lambda v: "%d" % v if abs(v) < 1e300 else "7"),
    "crlf": lambda raw, at: raw.replace(b"\n", b"\r\n"),
    "lone-cr": lambda raw, at: raw.replace(b"\n", b"\r", 1 + at % 3),
    "trailing-space": with_trailing_space,
    "entries-key-before": lambda raw, at: raw.replace(
        b"{\n", b'{\n  "entries": [%s],\n' % (b'{"idx": [9], "val": 1.0}' if at % 2 else b""), 1),
    "entries-key-after": lambda raw, at: raw[: raw.rindex(b"\n}")] + (
        b',\n  "entries": []' if at % 2
        else b',\n  "entries": [\n    {"idx": [1, 1], "val": 2.0}\n  ]'
    ) + b"\n}\n",
    "entries-first": entries_first,
    "bom": lambda raw, at: b"\xef\xbb\xbf" + raw,
    "invalid-utf8": lambda raw, at: raw[: at % len(raw)] + b"\xff" + raw[at % len(raw):],
    "truncated": lambda raw, at: raw[: at % len(raw)],
    "nan-name": lambda raw, at: raw.replace(b'"dim"', b'"nan": NaN,\n  "dim"', 1),
}


class TestCanonicalReader:
    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(T=file_tensors(), at=st.integers(0, 10**6))
    def test_same_tensor_or_message_as_the_json_path(self, kind, T, at, tmp_path):
        path = tmp_path / "t.json"
        save_tensor(T, path)
        path.write_bytes(MUTATIONS[kind](path.read_bytes(), at))
        assert load_outcome(load_tensor, path) == load_outcome(ref_load_tensor, path)

    @pytest.mark.parametrize("kind,canonical", [
        ("none", True), ("negative-zero", True), ("entries-first", True),
        ("entries-key-before", True), ("trailing-zero", False), ("exponent-form", False),
        ("int-value", False), ("crlf", False), ("entries-key-after", False), ("bom", False),
        ("nan-name", False),
    ])
    def test_which_files_take_the_array_reader(self, kind, canonical, tmp_path):
        # a dense m=4 n=9 file crosses the renderer's block of 4,096 entries
        T = sample_tensor(4, 9, seed=21, name="big")
        T = Tensor(4, 9, np.where(T.data == 0.0, 0.25, T.data), name="big")
        path = tmp_path / "t.json"
        save_tensor(T, path)
        raw = MUTATIONS[kind](path.read_bytes(), 6000)
        path.write_bytes(raw)
        assert (bio._canonical_tensor(raw) is not None) is canonical
        assert load_outcome(load_tensor, path) == load_outcome(ref_load_tensor, path)
        if kind == "none":
            assert load_outcome(load_tensor, path)[3] == T.data.tobytes()

    @pytest.mark.parametrize("at", [0, 5, 4095, 4096, 6560])
    def test_one_flipped_digit_in_a_long_file(self, at, tmp_path):
        T = Tensor(4, 9, np.arange(9**4) * 0.5 + 0.25)
        path = tmp_path / "t.json"
        save_tensor(T, path)
        raw = path.read_bytes()
        token = value_tokens(raw)[at]
        k = token.start(1) + len(token.group(1)) - 1
        for raw in (raw[:k] + b"%d" % ((raw[k] - 47) % 10) + raw[k + 1:],
                    flipped_digit(raw, 7 * at + 11)):
            path.write_bytes(raw)
            assert load_outcome(load_tensor, path) == load_outcome(ref_load_tensor, path)

    def test_perfbench_layout_takes_the_array_reader(self):
        # the benchmark writes its files with this layout and a name
        body = ",\n".join('    {"idx": [%d, %d], "val": %r}' % (i, j, i - j / 3)
                          for i in (1, 2) for j in (1, 2))
        raw = ('{\n  "order": 2,\n  "dim": 2,\n  "name": "b",\n  "entries": [\n' + body
               + "\n  ]\n}\n").encode()
        T = bio._canonical_tensor(raw)
        assert T is not None and T.name == "b"
        assert T.data.tolist() == [[1 - 1 / 3, 1 - 2 / 3], [2 - 1 / 3, 2 - 2 / 3]]


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
    "bool-idx": (lambda r, o: entry([True] + r["idx"][1:], r["val"]), False, False),
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
