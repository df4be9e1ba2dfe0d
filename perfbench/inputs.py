"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and never calls btensor, so the expected
outcome of each input follows from its construction, not from the library
under test.  Tensors are dense arrays of shape ``(n,) * m``.

Certification files use dyadic values ``k / 1024`` of small magnitude, so
every row sum, max and product the classifier evaluates is exact in double
precision and each file lands on the ladder rung it was built for.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

GRID = 1024

# certify exit codes by construction: 0 positive definite, 3 inconclusive
PD_EXIT = 0
INCONCLUSIVE_EXIT = 3

# pd_certify route prefix expected for each certification kind
ROUTE_PREFIX = {
    "b": "b-tensor",
    "double": "double-b decomposition",
    "quasi": "quasi-double-b decomposition",
    "dsdd": "dsdd rows",
    "anchor": "qdsdd anchor row",
}


def rng_for(*key: int) -> np.random.Generator:
    """Independent stream per (seed, item, ...) key."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@functools.lru_cache(maxsize=32)
def orbit_ids(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit id of every position (shape ``(n,)*m``) and the sorted index
    tuple that represents each orbit (shape ``(orbits, m)``).  Cached per
    shape; callers must not modify the arrays."""
    idx = np.indices((n,) * m).reshape(m, -1).T
    srt = np.sort(idx, axis=1)
    key = srt @ (n ** np.arange(m - 1, -1, -1))
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return inv.reshape((n,) * m), srt[first]


def diag_positions(m: int, n: int) -> tuple[np.ndarray, ...]:
    return tuple(np.tile(np.arange(n), (m, 1)))


def reference_symmetrize(data: np.ndarray) -> np.ndarray:
    """Orbit mean through an orbit-id ``bincount`` (independent of the
    permutation loops in the library)."""
    m, n = data.ndim, data.shape[0]
    inv, reps = orbit_ids(m, n)
    sums = np.bincount(inv.ravel(), weights=data.ravel(), minlength=len(reps))
    counts = np.bincount(inv.ravel(), minlength=len(reps))
    return (sums / counts)[inv]


def row_stats(data: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-row ``(diag, beta, delta, r)`` with the off-diagonal slots of
    row i being every position ``(i, ...)`` except ``(i, ..., i)``."""
    m, n = data.ndim, data.shape[0]
    rows = data.reshape(n, -1)
    stride = sum(n**k for k in range(m - 1))
    mask = np.ones(rows.shape, dtype=bool)
    mask[np.arange(n), np.arange(n) * stride] = False
    off = rows[mask].reshape(n, -1)
    diag = rows[np.arange(n), np.arange(n) * stride]
    beta = np.maximum(0.0, off.max(axis=1))
    delta = (beta[:, None] - off).sum(axis=1)
    r = np.abs(off).sum(axis=1)
    return diag, beta, delta, r


def _dyadic(rng, size, lo: float, hi: float) -> np.ndarray:
    return rng.integers(int(lo * GRID), int(hi * GRID) + 1, size=size) / GRID


def _noise(rng, m: int, n: int, lo: float, hi: float, skip=None) -> np.ndarray:
    """Symmetric dyadic off-diagonal noise, zero diagonal.  Orbits whose
    representative contains an index in ``skip`` stay zero."""
    inv, reps = orbit_ids(m, n)
    vals = _dyadic(rng, len(reps), lo, hi)
    diagonal = np.all(reps == reps[:, :1], axis=1)
    vals[diagonal] = 0.0
    if skip is not None:
        vals[np.isin(reps, list(skip)).any(axis=1)] = 0.0
    return vals[inv]


def _set_orbit(data: np.ndarray, index: tuple[int, ...], value: float) -> None:
    m, n = data.ndim, data.shape[0]
    inv, _ = orbit_ids(m, n)
    data[inv == inv[index]] = value


def _set_diag(data: np.ndarray, values) -> None:
    data[diag_positions(data.ndim, data.shape[0])] = values


def _slack(rng, n: int) -> np.ndarray:
    return rng.integers(1, GRID // 2 + 1, size=n) / GRID


def certify_tensor(kind: str, m: int, n: int, rng) -> np.ndarray:
    """Dense tensor built to land on one certification outcome.

    ``b``, ``double``, ``quasi``, ``dsdd`` and ``anchor`` are even-order
    positive-definite members that fire the matching ``pd_certify`` rung
    (``b`` at odd order is a class member the ladder must skip).
    ``indefinite`` has a negative diagonal entry; ``nonsym`` is a B-type
    tensor with one entry moved off its orbit.
    """
    if kind in ("b", "double", "nonsym"):
        data = _noise(rng, m, n, -0.25, 0.25)
        if kind == "double":
            # row 1 ties its row dominance; a positive entry keeps delta_1 > 0
            # and tails b[1, i, ..., i] below beta_1 keep every quasi pair
            # strict (a tail at beta_1 makes the quasi pair read 0 > 0)
            _set_orbit(data, (0,) * (m - 1) + (1,), 0.25)
            for i in range(1, n):
                _set_orbit(data, (0,) + (i,) * (m - 1), -0.25)
        _, beta, delta, _ = row_stats(data)
        slack = _slack(rng, n)
        if kind == "double":
            slack[0] = 0.0  # weak row dominance only: fails the strict B test
        _set_diag(data, beta + delta + slack)
        if kind == "nonsym":
            data[(0,) * (m - 1) + (1,)] += 0.125
        return data
    if kind == "quasi":
        # row q's deficit sits entirely in its tails b[q, i, ..., i] = -1,
        # which the ordered-pair inequality forgives and row dominance does not
        q = 1
        data = _noise(rng, m, n, -0.25, 0.25)
        for i in range(n):
            if i != q:
                _set_orbit(data, (q,) + (i,) * (m - 1), -1.0)
        _, beta, delta, _ = row_stats(data)
        diag = beta + 2.0 * delta + _slack(rng, n)
        diag[q] = beta[q] + delta[q] - 0.5
        _set_diag(data, diag)
        return data
    if kind == "dsdd":
        # row p: diagonal equals its only off-diagonal entry, so d_p = beta_p
        # fails every beta-based class while absolute dominance still holds
        p, j = 0, 1
        data = _noise(rng, m, n, -0.25, 0.25, skip={p})
        _set_orbit(data, (p,) + (j,) * (m - 1), 1.0)
        _, _, _, r = row_stats(data)
        diag = r + _slack(rng, n)
        diag[p] = 1.0
        _set_diag(data, diag)
        return data
    if kind == "anchor":
        # Z tensor; row q falls short of absolute dominance by 1/2, covered
        # by its tail toward the anchor row a, which dominates twice over
        a, q = 0, 1
        data = _noise(rng, m, n, -0.25, 0.0)
        _set_orbit(data, (q,) + (a,) * (m - 1), -1.0)
        _, _, _, r = row_stats(data)
        slack = _slack(rng, n)
        diag = r + slack
        diag[q] = r[q] - 0.5
        diag[a] = 2.0 * r[a] + slack[a]
        _set_diag(data, diag)
        return data
    if kind == "indefinite":
        data = _noise(rng, m, n, -0.25, 0.25)
        _, beta, delta, _ = row_stats(data)
        diag = beta + delta + _slack(rng, n)
        diag[int(rng.integers(n))] = -float(_slack(rng, 1)[0])
        _set_diag(data, diag)
        return data
    raise ValueError(f"unknown certification kind {kind!r}")


@dataclass(frozen=True)
class Expected:
    """What a certification file's construction implies about each command."""

    symmetric: bool
    certify_exit: int
    decompose_exit: int
    route_prefix: str | None


def expected_outcomes(kind: str, m: int) -> Expected:
    member = kind in ROUTE_PREFIX and m % 2 == 0
    return Expected(
        symmetric=kind != "nonsym",
        certify_exit=PD_EXIT if member else INCONCLUSIVE_EXIT,
        # the quasi class (so also b and double) is what decompose accepts
        decompose_exit=0 if kind in ("b", "double", "quasi") else 4,
        route_prefix=ROUTE_PREFIX[kind] if member else None,
    )


def tensor_file_text(data: np.ndarray, name: str) -> str:
    """The tensor file format: sparse 1-based entry list, one per line."""
    m, n = data.ndim, data.shape[0]
    nz = np.argwhere(data != 0.0)
    vals = data[tuple(nz.T)]
    lines = [
        f'    {{"idx": [{", ".join(str(int(k) + 1) for k in idx)}], "val": {float(v)!r}}}'
        for idx, v in zip(nz, vals)
    ]
    body = "\n" + ",\n".join(lines) + "\n  " if lines else ""
    return (
        f'{{\n  "order": {m},\n  "dim": {n},\n  "name": {json.dumps(name)},\n'
        f'  "entries": [{body}]\n}}\n'
    )


def dense_from_doc(doc: dict) -> np.ndarray:
    """Dense array from a tensor document (file or report residual)."""
    m, n = doc["order"], doc["dim"]
    data = np.zeros((n,) * m)
    for e in doc["entries"]:
        data[tuple(k - 1 for k in e["idx"])] = e["val"]
    return data


# ---------------------------------------------------------------------------
# oracle-dense tensors


def all_one(m: int, n: int, members) -> np.ndarray:
    """1 where every index lies in ``members`` (0-based), 0 elsewhere."""
    mask = np.zeros(n)
    mask[list(members)] = 1.0
    out = mask
    for _ in range(m - 1):
        out = np.multiply.outer(out, mask)
    return out


def pd_tensor(m: int, n: int, rng) -> np.ndarray:
    """Quasi-class positive-definite instance at even order: a strictly
    diagonally dominant symmetric Z tensor plus positively weighted all-one
    blocks on nested index sets, each adding ``h * (sum_J x_j)^m >= 0``."""
    inv, reps = orbit_ids(m, n)
    vals = -rng.uniform(0.0, 1.0, size=len(reps))
    vals[np.all(reps == reps[:, :1], axis=1)] = 0.0
    data = vals[inv]
    _, _, _, r = row_stats(data)
    _set_diag(data, r + rng.uniform(0.5, 1.5, size=n))
    members = np.arange(n)
    for _ in range(int(rng.integers(1, 4))):
        members = np.sort(rng.choice(members, size=max(1, len(members) - int(rng.integers(0, 2))),
                                     replace=False))
        data = data + rng.uniform(0.25, 1.0) * all_one(m, n, members)
    return data


def antisymmetric_shift(data: np.ndarray, rng) -> np.ndarray:
    """Add ``P - P`` with the first two axes swapped: the symmetric part,
    and so the form, is unchanged while the tensor becomes non-symmetric."""
    P = rng.uniform(-0.5, 0.5, size=data.shape)
    return data + P - P.swapaxes(0, 1)
