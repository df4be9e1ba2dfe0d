"""Tensor file format and machine-readable report documents.

Tensors are stored as sparse JSON entry lists::

    {"order": 4, "dim": 2, "name": "example",
     "entries": [{"idx": [1, 1, 1, 1], "val": 2.0}, ...]}

Indices in files are 1-based throughout.  Unlisted entries are zero.
Values round-trip bit-for-bit (shortest round-trip decimals).
"""

from __future__ import annotations

import gc
import hashlib
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .core import Tensor, _tensor_from_columns, _tensor_from_rows, is_symmetric
from .classify import ClassReport, Witness
from .decompose import Certificate, Decomposition
from .oracle import OracleResult, SearchReport

__all__ = [
    "TensorFormatError",
    "load_tensor",
    "save_tensor",
    "tensor_to_doc",
    "doc_to_tensor",
    "content_hash",
    "witness_to_dict",
    "class_report_to_dict",
    "decomposition_to_dict",
    "oracle_result_to_dict",
    "certificate_to_dict",
    "search_report_to_dict",
    "build_report",
    "dump_report",
]


class TensorFormatError(ValueError):
    """Malformed tensor document (parse failure or semantic violation)."""


def _nonzeros(T: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """1-based multi-indices (an ``(N, m)`` int array) and values of the
    nonzero entries, in lexicographic order."""
    mask = T.data != 0.0
    return np.argwhere(mask) + 1, T.data[mask]


def _entry_layout(item_sep: str, key_sep: str, nl: str = "") -> tuple[str, str, str, str]:
    """Literal text of one ``{"idx": [...], "val": ...}`` entry laid out as
    ``json.dumps`` lays it out with these separators: before the first idx
    component, between two components, between the last component and the
    value, and after the value.  A nonempty ``nl`` (a newline plus the
    entry's indent) puts every item on its own line, as ``indent=2`` does."""
    keys = nl and nl + "  "
    items = keys and keys + "  "
    return (
        "{" + keys + '"idx"' + key_sep + "[" + items,
        item_sep + items,
        keys + "]" + item_sep + keys + '"val"' + key_sep,
        nl + "}",
    )


# Entries per assembled block, so that no bytes array the rendering builds
# on the way grows with the entry list.
_RENDER_CHUNK = 4096


def _render_entries(
    idx: np.ndarray, vals: np.ndarray, layout: tuple[str, str, str, str], sep: str
) -> list[bytes]:
    """Pieces whose concatenation is the entries joined by ``sep``, each laid
    out by ``layout`` (see :func:`_entry_layout`).  ``idx`` holds the
    entries' components, all at least 1, as an ``(N, m)`` int array and
    ``vals`` their finite float values.

    Each component from 0 to the largest is printed once (``%d``), and each
    distinct value once (``repr``, deduplicated by bit pattern so that 0.0
    and -0.0 stay apart); both print as ``json.dumps`` prints ints and
    floats.  The entries of a block are then gathered from these tables and
    concatenated column by column as bytes arrays."""
    if not len(vals):
        return []
    head, between, before_val, tail = (part.encode() for part in layout)
    digits = np.array([b"%d" % k for k in range(int(idx.max()) + 1)])
    first, later = np.char.add(head, digits), np.char.add(between, digits)
    bits, which = np.unique(vals.view(np.uint64), return_inverse=True)
    values = np.array([
        before_val + repr(v).encode() + tail + sep.encode()
        for v in bits.view(np.float64).tolist()
    ])
    pieces = []
    for start in range(0, len(vals), _RENDER_CHUNK):
        rows = idx[start:start + _RENDER_CHUNK]
        text = first[rows[:, 0]]
        for k in range(1, rows.shape[1]):
            text = np.char.add(text, later[rows[:, k]])
        text = np.char.add(text, values[which[start:start + _RENDER_CHUNK]])
        pieces.append(b"".join(text.tolist()))
    pieces[-1] = pieces[-1][: -len(sep)]
    return pieces


def _renderable(idx: np.ndarray, vals: np.ndarray) -> bool:
    """Whether :func:`_render_entries` prints these arrays as ``json.dumps``
    prints their entry list: at least one entry, finite values, and
    components from 1 through the number of components, which keeps the
    digit table no longer than the list it prints."""
    return bool(len(vals) and np.isfinite(vals).all()) and idx.min() >= 1 and idx.max() <= idx.size


def _entry_arrays(entries, order, exact: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(N, order)`` index array and the float64 value array of a
    nonempty list of plain entry records, or None for any other list.

    Plain means dicts with the keys idx and val, each idx a list of
    ``order`` ints (not bools) within intp, and each val a float; with
    ``exact`` the dicts hold no other key, as ``json.dumps`` of the list
    would show, while without it (the loader's rule) int values are plain
    too.  Every check is a whole-list pass of builtins and the components
    go to numpy in one conversion, so no Python code runs per entry."""
    if (
        type(order) is not int
        or order < 1
        or type(entries) is not list
        or set(map(type, entries)) != {dict}
        or (exact and set(map(len, entries)) != {2})
    ):
        return None
    try:
        idxs = list(map(itemgetter("idx"), entries))
        vals = list(map(itemgetter("val"), entries))
    except KeyError:
        return None
    if (
        set(map(type, idxs)) != {list}
        or set(map(len, idxs)) != {order}
        or not set(map(type, chain.from_iterable(idxs))) <= {int}
        or not set(map(type, vals)) <= ({float} if exact else {float, int})
    ):
        return None
    try:
        idx = np.fromiter(chain.from_iterable(idxs), dtype=np.intp, count=len(idxs) * order)
        values = np.array(vals, dtype=np.float64)
    except OverflowError:  # a component past intp, or an int value past float
        return None
    return idx.reshape(-1, order), values


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector and restore the caller's setting,
    for building or parsing one dict and one idx list per entry: none of
    them is garbage while the block runs, so the collections that their
    allocation would trigger find nothing to free, and together cost about
    as much as the building."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True, eq=False)
class _Entries:
    """An entry list kept as the arrays of :func:`_nonzeros` inside the
    documents that :func:`_tensor_doc` and the report builders assemble,
    until :func:`dump_report` renders it or :func:`_materialized` turns it
    into ``{"idx", "val"}`` records."""

    idx: np.ndarray
    vals: np.ndarray


def _materialized(obj):
    """``obj`` with every :class:`_Entries` inside its dicts and lists
    replaced by the records it stands for: the plain JSON document."""
    if type(obj) is _Entries:
        with _collector_paused():
            return [
                {"idx": key, "val": val} for key, val in zip(obj.idx.tolist(), obj.vals.tolist())
            ]
    if type(obj) is dict:
        return {key: _materialized(value) for key, value in obj.items()}
    if type(obj) is list:
        return [_materialized(item) for item in obj]
    return obj


def _tensor_doc(T: Tensor, name: str | None = None) -> dict:
    doc = {"order": T.order, "dim": T.dim, "entries": _Entries(*_nonzeros(T))}
    label = name if name is not None else T.name
    if label is not None:
        doc["name"] = label
    return doc


def tensor_to_doc(T: Tensor, name: str | None = None) -> dict:
    """Sparse document for a tensor: nonzero entries in lexicographic order."""
    return _materialized(_tensor_doc(T, name))


def _record_problem(record) -> str | None:
    """The message, with a ``{}`` for the entry's position, of the first
    condition that one entry record fails, or None."""
    if not isinstance(record, dict) or "idx" not in record or "val" not in record:
        return "entry {} must be an object with 'idx' and 'val'"
    idx, val = record["idx"], record["val"]
    # JSON true and false parse to bool, a subclass of int
    if not isinstance(idx, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in idx
    ):
        return "entry {}: 'idx' must be a list of integers"
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return "entry {}: 'val' must be a real number"
    try:
        float(val)
    except OverflowError:
        return "entry {}: 'val' is too large for a float"
    return None


def _header(doc) -> tuple[int, int, list, str | None]:
    """Order, dim, entry list and name of a tensor document, each checked
    for its type."""
    if not isinstance(doc, dict):
        raise TensorFormatError(f"tensor document must be an object, got {type(doc).__name__}")
    for field in ("order", "dim", "entries"):
        if field not in doc:
            raise TensorFormatError(f"tensor document is missing the {field!r} field")
    order, dim = doc["order"], doc["dim"]
    # JSON true and false parse to bool, a subclass of int
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (order, dim)):
        raise TensorFormatError("'order' and 'dim' must be integers")
    raw = doc["entries"]
    if not isinstance(raw, list):
        raise TensorFormatError("'entries' must be a list of {idx, val} records")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise TensorFormatError(f"'name' must be a string or null, got {type(name).__name__}")
    return order, dim, raw, name


def _densified(build, *args) -> Tensor:
    """``build(*args)``, with a ValueError or OverflowError it raises as a
    TensorFormatError."""
    try:
        return build(*args)
    except (ValueError, OverflowError) as exc:
        raise TensorFormatError(str(exc)) from exc


def doc_to_tensor(doc: dict) -> Tensor:
    """Validate and densify a tensor document."""
    order, dim, raw, name = _header(doc)
    columns = _entry_arrays(raw, order, exact=False)
    if columns is not None:
        return _densified(_tensor_from_columns, order, dim, *columns, name)
    # the per-record path names the first bad record
    for pos, problem in enumerate(map(_record_problem, raw)):
        if problem is not None:
            raise TensorFormatError(problem.format(pos))
    rows, vals = [r["idx"] for r in raw], [float(r["val"]) for r in raw]
    return _densified(_tensor_from_rows, order, dim, rows, vals, name)


# The entry list as save_tensor (and any writer of the same layout) lays it
# out: one {"idx": [...], "val": ...} per line, indented by four spaces.
_BLOCK_OPEN = b'\n  "entries": '
_BLOCK_LIST = b"[\n    "
_BLOCK_CLOSE = b"\n  ]"
_BLOCK_LAYOUT = (_entry_layout(", ", ": "), ",\n    ")
# the longest repr of a float, '-2.2250738585072014e-308', in 64-bit words
_VALUE_WIDTH = 24
# odd multipliers that mix a value token's three words into one sort key
_VALUE_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)


def _canonical_tensor(raw: bytes) -> Tensor | None:
    """The tensor of a file whose entry list has the layout of
    :func:`save_tensor`, read without parsing the entries as JSON; None
    for any other file, which then takes the JSON parser.

    The document with the entry list cut out, and ``NaN`` in its place,
    goes to ``json.loads``; the one ``NaN`` it meets must be the value of
    the top-level ``entries`` key.  The list is read into index and value
    arrays by :func:`_block_columns` and then rendered again: the arrays
    are taken only if that gives back the same bytes.  Since every float
    prints as its ``repr`` and ``float(repr(x)) == x``, the arrays are then
    the ones the JSON parser would give, and the tensor, or the error
    raised on it, is the one :func:`doc_to_tensor` would give."""
    start = raw.find(_BLOCK_OPEN + _BLOCK_LIST)
    begin = start + len(_BLOCK_OPEN) + len(_BLOCK_LIST)
    end = raw.find(_BLOCK_CLOSE, begin)
    if start < 0 or end <= begin:
        return None
    head, tail = raw[: start + len(_BLOCK_OPEN)], raw[end + len(_BLOCK_CLOSE) :]
    block = raw[begin:end]
    if b"\r" in head + tail:  # the JSON path reads the file with newlines translated
        return None
    marker, seen = object(), []

    def constant(token):
        seen.append(token)
        return marker

    try:
        doc = json.loads((head + b"NaN" + tail).decode("utf-8"), parse_constant=constant)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    if type(doc) is not dict or doc.get("entries") is not marker or len(seen) != 1:
        return None
    order = doc.get("order")
    columns = type(order) is int and order >= 1 and _block_columns(block, order)
    if not columns:
        return None
    doc["entries"] = []
    order, dim, _, name = _header(doc)
    return _densified(_tensor_from_columns, order, dim, *columns, name)


def _block_columns(block: bytes, order: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(N, order)`` index array and the value array of an entry list
    laid out as :func:`save_tensor` lays it out (``block`` runs from the
    first entry's ``{`` to the last one's ``}``), or None when the bytes
    are not that layout of plain ints and finite floats.

    Numbers are the runs of the bytes ``0-9.e+-``; each entry holds
    ``order`` index components and then its value.  The components come
    from their digits by array arithmetic, and the values from a table of
    the distinct value tokens, with one ``float()`` each."""
    buf = np.frombuffer(block + b" " * _VALUE_WIDTH, dtype=np.uint8)
    number = (buf - np.uint8(48) < 10) | (buf == 46) | (buf == 101) | (buf == 43) | (buf == 45)
    # the padding ends every run; a run at the block's first byte has no
    # start edge and leaves the count odd
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    if not len(edges) or len(edges) % (2 * (order + 1)):
        return None
    runs = edges.reshape(-1, order + 1, 2)
    starts, widths = runs[..., 0], runs[..., 1] - runs[..., 0]
    first, digits = starts[:, :-1], widths[:, :-1]
    if digits.max() > 18 or widths[:, -1].max() > _VALUE_WIDTH:  # past intp, or not a repr
        return None
    idx = buf[first] - np.intp(48)
    for k in range(1, int(digits.max())):
        idx = np.where(k < digits, idx * 10 + (buf[first + k] - np.intp(48)), idx)
    # each value token, padded with NUL bytes, and one sort key per token
    windows = np.ndarray((len(block), _VALUE_WIDTH), np.uint8, buf, strides=(1, 1))
    tokens = windows[starts[:, -1]]
    tokens *= np.arange(_VALUE_WIDTH) < widths[:, -1:]
    keys = (tokens.view(np.uint64) * _VALUE_MIX).sum(axis=1)
    _, distinct, which = np.unique(keys, return_index=True, return_inverse=True)
    try:
        table = [float(t) for t in tokens[distinct].view(f"S{_VALUE_WIDTH}").ravel().tolist()]
    except ValueError:
        return None
    # two tokens that share a key share a value, which then renders unlike one of them
    vals = np.array(table)[which]
    if not _renderable(idx, vals) or b"".join(_render_entries(idx, vals, *_BLOCK_LAYOUT)) != block:
        return None
    return idx, vals


def load_tensor(path: str | Path) -> Tensor:
    """Read a tensor document; warns (without failing) when the tensor is
    not symmetric, since classification applies regardless.

    A file whose entry list has the layout of :func:`save_tensor` is read
    by :func:`_canonical_tensor`; any other goes through ``json.loads``
    and :func:`doc_to_tensor`, and both give the same tensor or error."""
    raw = Path(path).read_bytes()
    # the parsed document is dropped before the collector resumes: freeing its
    # objects drains the allocation count that would trigger a collection
    with _collector_paused():
        T = _canonical_tensor(raw)
        if T is None:
            T = doc_to_tensor(_parsed(raw, path))
    if not is_symmetric(T):
        warnings.warn(f"{path}: tensor is not symmetric", stacklevel=2)
    return T


def _parsed(raw: bytes, path) -> object:
    """``json.loads`` of a file's bytes read as UTF-8 text with universal
    newlines, as ``Path.read_text`` reads it."""
    try:
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise TensorFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TensorFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise TensorFormatError(f"{path}: arrays or objects nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the int-string conversion limit
        raise TensorFormatError(f"{path}: {exc}") from exc


def save_tensor(T: Tensor, path: str | Path, name: str | None = None) -> None:
    """Write the document of :func:`tensor_to_doc` with one entry per line
    (diff-friendly)."""
    label = name if name is not None else T.name
    lines = ["{", f'  "order": {T.order},', f'  "dim": {T.dim},']
    if label is not None:
        lines.append(f'  "name": {json.dumps(label)},')
    body = b"".join(_render_entries(*_nonzeros(T), *_BLOCK_LAYOUT))
    lines.append('  "entries": [' + ("\n    " + body.decode() + "\n  ]" if body else "]"))
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def content_hash(T: Tensor) -> str:
    """SHA-256 over the canonical sparse serialization of the entries: the
    compact ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of
    the document's order, dim and entries."""
    digest = hashlib.sha256(b'{"dim":%d,"entries":[' % T.dim)
    for piece in _render_entries(*_nonzeros(T), _entry_layout(",", ":"), ","):
        digest.update(piece)
    digest.update(b'],"order":%d}' % T.order)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# report documents


def witness_to_dict(w: Witness) -> dict:
    out = {"condition": w.condition, "lhs": w.lhs, "rhs": w.rhs}
    if w.index is not None:
        out["index"] = w.index
    if w.pair is not None:
        out["pair"] = list(w.pair)
    if w.multi_index is not None:
        out["multi_index"] = list(w.multi_index)
    return out


def class_report_to_dict(report: ClassReport) -> dict:
    return {
        "verdicts": dict(report.verdicts),
        "witnesses": {k: witness_to_dict(w) for k, w in report.witnesses.items()},
        "symmetric": report.symmetric,
        "even_order": report.even_order,
    }


def _decomposition_doc(d: Decomposition) -> dict:
    return {
        "residual": _tensor_doc(d.residual),
        "steps": [
            {"weight": weight, "rows": sorted(members)} for weight, members in d.steps
        ],
        "step_count": d.step_count,
        "max_beta_shift_error": d.max_beta_shift_error,
    }


def oracle_result_to_dict(r: OracleResult) -> dict:
    return {
        "min_value": r.min_value,
        "minimizer": list(r.minimizer),
        "normalization": r.normalization,
        "lambda_min_estimate": r.lambda_min_estimate,
        "samples": r.samples,
        "converged": r.converged,
        "witness": list(r.witness),
        "witness_value": r.witness_value,
    }


def decomposition_to_dict(d: Decomposition) -> dict:
    return _materialized(_decomposition_doc(d))


def _certificate_doc(c: Certificate) -> dict:
    out = {"verdict": c.verdict, "route": c.route, "note": c.note}
    if c.decomposition is not None:
        out["decomposition"] = _decomposition_doc(c.decomposition)
    if c.oracle_result is not None:
        out["oracle"] = oracle_result_to_dict(c.oracle_result)
    if c.witness is not None:
        out["witness"] = list(c.witness)
        out["witness_value"] = c.witness_value
    return out


def certificate_to_dict(c: Certificate) -> dict:
    return _materialized(_certificate_doc(c))


def _search_doc(r: SearchReport) -> dict:
    return {
        "trials": r.trials,
        "accepted": r.accepted,
        "seed": r.seed,
        "generator_params": dict(r.generator_params),
        "candidates": [
            {
                "trial": c.trial,
                "tensor": _tensor_doc(c.tensor),
                "oracle": oracle_result_to_dict(c.oracle_result),
            }
            for c in r.candidates
        ],
    }


def search_report_to_dict(r: SearchReport) -> dict:
    return _materialized(_search_doc(r))


def _report(
    T: Tensor,
    *,
    classes: ClassReport | None = None,
    certificate: Certificate | None = None,
    oracle_result: OracleResult | None = None,
    decomposition: Decomposition | None = None,
    seed: int | None = None,
    flags: dict | None = None,
    timestamp: str | None = None,
) -> dict:
    """The report of :func:`build_report` with its entry lists kept as
    :class:`_Entries`, for :func:`dump_report` to render."""
    report: dict = {
        "input": {
            "order": T.order,
            "dim": T.dim,
            "entry_count": int(np.count_nonzero(T.data)),
            "content_hash": content_hash(T),
            "name": T.name,
        },
        "tool": {"name": "btensor", "version": __version__},
        "seed": seed,
        "flags": dict(flags or {}),
    }
    if timestamp is not None:
        report["timestamp"] = timestamp
    if classes is not None:
        report["classes"] = class_report_to_dict(classes)
    if certificate is not None:
        report["certificate"] = _certificate_doc(certificate)
    if oracle_result is not None:
        report["oracle"] = oracle_result_to_dict(oracle_result)
    if decomposition is not None:
        report["decomposition"] = _decomposition_doc(decomposition)
    return report


def build_report(T: Tensor, **parts) -> dict:
    """Assemble the full machine-readable report for one input tensor from
    the keyword-only parts ``classes``, ``certificate``, ``oracle_result``,
    ``decomposition``, ``seed``, ``flags`` and ``timestamp`` (see
    :func:`_report`)."""
    return _materialized(_report(T, **parts))


def dump_report(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte.

    The entry lists of the tensor documents inside (decomposition
    residuals, search candidates), which hold nearly all the bytes of a
    large report, go through :func:`_render_entries` when
    :func:`_renderable` accepts their arrays: those of an :class:`_Entries`
    (the documents of the private builders, which the CLI prints), or of a
    list of records that :func:`_entry_arrays` takes under the exact rule
    (the plain documents of the public builders).  Everything else goes
    through the stdlib encoder, with an :class:`_Entries` as its records."""
    out: list[str] = []
    _encode(report, "\n", out)
    return "".join(out)


def _encode(obj, nl: str, out: list[str]) -> None:
    """Append the ``indent=2, sort_keys=True`` rendering of ``obj`` placed at
    the indent that ``nl`` (a newline plus that indent) opens."""
    inner = nl + "  "
    if isinstance(obj, dict) and _holds_entries(obj) and all(isinstance(k, str) for k in obj):
        sep = "{"
        for key in sorted(obj):
            out.append(sep + inner + json.dumps(key) + ": ")
            value = obj[key]
            columns = key == "entries" and (
                (value.idx, value.vals) if type(value) is _Entries
                else _entry_arrays(value, obj.get("order"), exact=True)
            )
            if not columns or not _renderable(*columns):
                _encode(_materialized(value) if type(value) is _Entries else value, inner, out)
            else:
                item_nl = inner + "  "
                pieces = _render_entries(*columns, _entry_layout(",", ": ", item_nl), "," + item_nl)
                out.append("[" + item_nl)
                out += [piece.decode() for piece in pieces]
                out.append(inner + "]")
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)) and _holds_entries(obj):
        sep = "["
        for item in obj:
            out.append(sep + inner)
            _encode(item, inner, out)
            sep = ","
        out.append(nl + "]")
    elif isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))
    else:  # a scalar, which indent and sort_keys do not affect
        out.append(json.dumps(obj))


_CONTAINERS = {dict, list, tuple}


def _holds_entries(obj) -> bool:
    """Whether a dict with an ``entries`` key sits anywhere in ``obj``,
    searching plain dicts, lists and tuples."""
    if type(obj) is dict:
        if "entries" in obj:
            return True
        obj = obj.values()
    elif type(obj) not in _CONTAINERS:
        return False
    return any(map(_holds_entries, [v for v in obj if type(v) in _CONTAINERS]))
