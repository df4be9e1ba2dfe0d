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
    prints their entry list: finite values, and components from 1 through
    the number of components, which keeps the digit table no longer than
    the list it prints."""
    return bool(np.isfinite(vals).all()) and idx.min() >= 1 and idx.max() <= idx.size


def _entry_arrays(entries, order, exact: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(N, order)`` index array and the float64 value array of a
    nonempty list of plain entry records, or None for any other list.

    Plain means dicts with the keys idx and val, each idx a list of
    ``order`` ints within intp, and each val a float; with ``exact`` the
    dicts hold no other key, as ``json.dumps`` of the list would show,
    while without it (the loader's rule) bool components and int values
    are plain too, as ``isinstance`` counts them.  Every check is a
    whole-list pass of builtins and the components go to numpy in one
    conversion, so no Python code runs per entry."""
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
        or not set(map(type, chain.from_iterable(idxs))) <= ({int} if exact else {int, bool})
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


def tensor_to_doc(T: Tensor, name: str | None = None) -> dict:
    """Sparse document for a tensor: nonzero entries in lexicographic order."""
    idx, vals = _nonzeros(T)
    with _collector_paused():
        entries = [{"idx": key, "val": val} for key, val in zip(idx.tolist(), vals.tolist())]
    doc = {"order": T.order, "dim": T.dim, "entries": entries}
    label = name if name is not None else T.name
    if label is not None:
        doc["name"] = label
    return doc


def _record_problem(record) -> str | None:
    """The message, with a ``{}`` for the entry's position, of the first
    condition that one entry record fails, or None."""
    if not isinstance(record, dict) or "idx" not in record or "val" not in record:
        return "entry {} must be an object with 'idx' and 'val'"
    idx, val = record["idx"], record["val"]
    if not isinstance(idx, list) or not all(isinstance(k, int) for k in idx):
        return "entry {}: 'idx' must be a list of integers"
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return "entry {}: 'val' must be a real number"
    try:
        float(val)
    except OverflowError:
        return "entry {}: 'val' is too large for a float"
    return None


def doc_to_tensor(doc: dict) -> Tensor:
    """Validate and densify a tensor document."""
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
    columns = _entry_arrays(raw, order, exact=False)
    if columns is None:  # the per-record path names the first bad record
        for pos, problem in enumerate(map(_record_problem, raw)):
            if problem is not None:
                raise TensorFormatError(problem.format(pos))
    try:
        if columns is None:
            rows, vals = [r["idx"] for r in raw], [float(r["val"]) for r in raw]
            return _tensor_from_rows(order, dim, rows, vals, name)
        return _tensor_from_columns(order, dim, *columns, name)
    except (ValueError, OverflowError) as exc:
        raise TensorFormatError(str(exc)) from exc


def load_tensor(path: str | Path) -> Tensor:
    """Read a tensor document; warns (without failing) when the tensor is
    not symmetric, since classification applies regardless."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TensorFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    # the parsed document is dropped before the collector resumes: freeing its
    # objects drains the allocation count that would trigger a collection
    with _collector_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TensorFormatError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise TensorFormatError(f"{path}: arrays or objects nested too deeply") from exc
        except ValueError as exc:  # an integer literal past the int-string conversion limit
            raise TensorFormatError(f"{path}: {exc}") from exc
        T = doc_to_tensor(doc)
        del doc
    if not is_symmetric(T):
        warnings.warn(f"{path}: tensor is not symmetric", stacklevel=2)
    return T


def save_tensor(T: Tensor, path: str | Path, name: str | None = None) -> None:
    """Write the document of :func:`tensor_to_doc` with one entry per line
    (diff-friendly)."""
    label = name if name is not None else T.name
    lines = ["{", f'  "order": {T.order},', f'  "dim": {T.dim},']
    if label is not None:
        lines.append(f'  "name": {json.dumps(label)},')
    body = b"".join(_render_entries(*_nonzeros(T), _entry_layout(", ", ": "), ",\n    "))
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


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "residual": tensor_to_doc(d.residual),
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


def certificate_to_dict(c: Certificate) -> dict:
    out = {"verdict": c.verdict, "route": c.route, "note": c.note}
    if c.decomposition is not None:
        out["decomposition"] = decomposition_to_dict(c.decomposition)
    if c.oracle_result is not None:
        out["oracle"] = oracle_result_to_dict(c.oracle_result)
    if c.witness is not None:
        out["witness"] = list(c.witness)
        out["witness_value"] = c.witness_value
    return out


def search_report_to_dict(r: SearchReport) -> dict:
    return {
        "trials": r.trials,
        "accepted": r.accepted,
        "seed": r.seed,
        "generator_params": dict(r.generator_params),
        "candidates": [
            {
                "trial": c.trial,
                "tensor": tensor_to_doc(c.tensor),
                "oracle": oracle_result_to_dict(c.oracle_result),
            }
            for c in r.candidates
        ],
    }


def build_report(
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
    """Assemble the full machine-readable report for one input tensor."""
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
        report["certificate"] = certificate_to_dict(certificate)
    if oracle_result is not None:
        report["oracle"] = oracle_result_to_dict(oracle_result)
    if decomposition is not None:
        report["decomposition"] = decomposition_to_dict(decomposition)
    return report


def dump_report(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, byte for byte.

    The entry lists of the tensor documents inside (decomposition
    residuals, search candidates), which hold nearly all the bytes of a
    large report, go through :func:`_render_entries` when
    :func:`_entry_arrays` takes them under the exact rule and
    :func:`_renderable` accepts the arrays; everything else goes through
    the stdlib encoder."""
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
            columns = key == "entries" and _entry_arrays(obj[key], obj.get("order"), exact=True)
            if not columns or not _renderable(*columns):
                _encode(obj[key], inner, out)
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
