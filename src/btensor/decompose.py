"""Constructive splitting of symmetric (quasi-)double-dominant tensors into
a nonpositive-off-diagonal residual plus positively weighted partially-all-one
terms, and the positive-definiteness certification ladder built on it.

The splitting loop repeatedly locates the rows still holding a positive
off-diagonal entry, subtracts the smallest per-row maximum times the
partially-all-one tensor on those rows, and stops when no positive
off-diagonal entry remains.  Class membership, the per-step beta shift, and
entrywise reconstruction are re-verified along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Tensor,
    _orbit_index,
    is_symmetric,
    linear_combine,
    partially_all_one,
)
from .classify import (
    Witness,
    _Stats,
    is_b_tensor,
    is_double_b_tensor,
    is_dsdd,
    is_qdsdd,
    is_quasi_double_b_tensor,
    is_z_tensor,
)
from .oracle import OracleResult, sphere_minimize

__all__ = [
    "Decomposition",
    "Certificate",
    "HEigenReport",
    "PreconditionError",
    "DecompositionError",
    "decompose",
    "pd_certify",
    "h_eigen_positivity_check",
    "POSITIVE_DEFINITE",
    "NOT_POSITIVE_DEFINITE",
    "INCONCLUSIVE",
]

POSITIVE_DEFINITE = "positive_definite"
NOT_POSITIVE_DEFINITE = "not_positive_definite"
INCONCLUSIVE = "inconclusive"

_SHIFT_TOL = 1e-12


class PreconditionError(ValueError):
    """Input fails a required class or shape precondition."""

    def __init__(self, message: str, witness: Witness | None = None):
        super().__init__(message)
        self.witness = witness


class DecompositionError(RuntimeError):
    """An invariant of the splitting loop failed (numerical drift)."""


@dataclass(frozen=True)
class Decomposition:
    """Residual tensor plus the ordered ``(weight, row_set)`` subtractions.

    ``residual`` has no positive off-diagonal entry; ``steps`` holds
    ``s`` pairs with strictly shrinking 1-based row sets and positive
    weights.  ``residual + sum(weight * all_one_on(row_set))`` reproduces
    the input entrywise.
    """

    residual: Tensor
    steps: tuple[tuple[float, frozenset[int]], ...]
    max_beta_shift_error: float

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def reconstruct(self) -> Tensor:
        out = self.residual
        for weight, members in reversed(self.steps):
            out = linear_combine(out, partially_all_one(out.order, out.dim, members), weight)
        return out


@dataclass(frozen=True)
class Certificate:
    """Definiteness verdict with its justification chain.

    ``verdict`` is one of :data:`POSITIVE_DEFINITE`,
    :data:`NOT_POSITIVE_DEFINITE`, :data:`INCONCLUSIVE`.  A positive verdict
    always names the class ``route`` that fired, attaching the decomposition
    when the route goes through one; a negative verdict carries a witness
    vector whose form value is nonpositive.
    """

    verdict: str
    route: str | None
    note: str
    decomposition: Decomposition | None = None
    oracle_result: OracleResult | None = None
    witness: tuple[float, ...] | None = None
    witness_value: float | None = None


@dataclass(frozen=True)
class HEigenReport:
    certified_class: str
    claim: str
    lambda_min_estimate: float
    positive: bool
    oracle_result: OracleResult


def _find_asymmetry(T: Tensor) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First position, in (orbit rank, flat index) order, whose entry differs
    from the first entry of its orbit; returned with that first position."""
    if is_symmetric(T):
        return None
    # an orbit's first flat position holds its sorted multi-index, so the
    # positions with non-decreasing indices list the orbits in rank order
    g = np.indices(T.shape, sparse=True)
    nondecreasing = True
    for a, b in zip(g, g[1:]):
        nondecreasing = nondecreasing & (a <= b)
    first = np.flatnonzero(nondecreasing)
    rank = _orbit_index(T.order, T.dim)
    flat = T.data.ravel()
    bad = np.flatnonzero(flat != flat[first][rank])
    k = int(bad[np.argmin(rank[bad])])
    one, two = (np.unravel_index(i, T.shape) for i in (first[rank[k]], k))
    return tuple(int(i) + 1 for i in one), tuple(int(i) + 1 for i in two)


def decompose(
    T: Tensor,
    mode: str = "quasi",
    verify_steps: bool = True,
    tol: float = _SHIFT_TOL,
) -> Decomposition:
    """Split a symmetric (quasi-)double-dominant tensor per the constructive loop.

    ``mode`` selects the entry predicate: ``"quasi"`` requires
    :func:`is_quasi_double_b_tensor`, ``"double"`` requires
    :func:`is_double_b_tensor`; the loop body is identical.  With
    ``verify_steps`` every intermediate tensor is re-checked against the
    entry predicate (catches floating-point drift; disable for speed).

    The residual of quasi mode is always a Z tensor passing
    :func:`is_qdsdd`; in double mode it passes :func:`is_dsdd`.
    """
    if mode not in ("quasi", "double"):
        raise ValueError(f"mode must be 'quasi' or 'double', got {mode!r}")
    bad = _find_asymmetry(T)
    if bad is not None:
        raise PreconditionError(
            f"input is not symmetric: entries at {bad[0]} and {bad[1]} differ"
        )
    predicate = is_quasi_double_b_tensor if mode == "quasi" else is_double_b_tensor
    verdict = predicate(T)
    if not verdict:
        raise PreconditionError(
            f"input is not in the {mode} entry class: {verdict.witness}",
            witness=verdict.witness,
        )

    n, m = T.dim, T.order
    current = T
    steps: list[tuple[float, frozenset[int]]] = []
    max_shift_err = 0.0
    prev_members: frozenset[int] | None = None

    for _ in range(n + 1):
        stats = _Stats(current)
        j_hat = frozenset(
            i0 + 1 for i0 in range(n) if stats.off[i0].size and stats.max_off[i0] > 0.0
        )
        if not j_hat:
            break
        if prev_members is not None and not j_hat < prev_members:
            raise DecompositionError(
                f"row sets failed to shrink strictly: {sorted(j_hat)} after {sorted(prev_members)}"
            )
        # symmetry guarantees every positive off-diagonal entry lives fully
        # inside the located row set; the beta bookkeeping below relies on it
        block = partially_all_one(m, n, j_hat)
        escaping = (current.data > 0.0) & (block.data == 0.0)
        escaping[(np.arange(n),) * m] = False
        if escaping.any():
            idx = np.argwhere(escaping)[0]
            raise DecompositionError(
                f"positive off-diagonal entry at {tuple(int(k) + 1 for k in idx)} "
                f"escapes the row set {sorted(j_hat)}"
            )
        members0 = {k - 1 for k in j_hat}
        d = {i0: float(stats.max_off[i0]) for i0 in members0}
        h = min(d.values())
        arg_min = frozenset(i0 + 1 for i0, v in d.items() if v == h)
        nxt = linear_combine(current, block, -h)
        nxt_stats = _Stats(nxt)
        for i0 in range(n):
            if i0 in members0:
                err = abs(nxt_stats.beta[i0] - (stats.beta[i0] - h))
            else:
                err = abs(nxt_stats.beta[i0] - stats.beta[i0])
            max_shift_err = max(max_shift_err, float(err))
            if err > tol:
                raise DecompositionError(
                    f"beta shift drifted by {err:.3e} at row {i0 + 1} (tolerance {tol})"
                )
        expected_next = j_hat - arg_min
        actual_next = frozenset(
            i0 + 1 for i0 in range(n) if nxt_stats.off[i0].size and nxt_stats.max_off[i0] > 0.0
        )
        if actual_next != expected_next:
            raise DecompositionError(
                f"row set after subtraction is {sorted(actual_next)}, expected {sorted(expected_next)}"
            )
        if verify_steps:
            check = predicate(nxt)
            if not check:
                raise DecompositionError(
                    f"intermediate tensor left the {mode} class: {check.witness}"
                )
        steps.append((h, j_hat))
        prev_members = j_hat
        current = nxt

    residual = current
    z = is_z_tensor(residual)
    if not z:
        raise DecompositionError(f"residual has a positive off-diagonal entry: {z.witness}")
    if T.dim >= 2:
        dominant = is_qdsdd(residual) if mode == "quasi" else is_dsdd(residual)
        if not dominant:
            raise DecompositionError(
                f"residual failed its dominance class in {mode} mode: {dominant.witness}"
            )
    rebuilt = residual
    for weight, members in reversed(steps):
        rebuilt = linear_combine(rebuilt, partially_all_one(m, n, members), weight)
    err = float(np.max(np.abs(rebuilt.data - T.data))) if T.data.size else 0.0
    if err > tol:
        raise DecompositionError(f"reconstruction error {err:.3e} exceeds {tol}")

    return Decomposition(
        residual=residual,
        steps=tuple(steps),
        max_beta_shift_error=max_shift_err,
    )


# ---------------------------------------------------------------------------
# certification


def _positive_diagonal(stats: _Stats) -> bool:
    return bool(np.all(stats.diag > 0.0))


def _qdsdd_anchor_row(stats: _Stats) -> int | None:
    """1-based row with |diag| >= r whose ordered pairs (row, j) all satisfy
    the quasi dominance inequality; None when no row qualifies."""
    from .classify import _qdsdd_sides

    n = stats.n
    for i0 in range(n):
        if not abs(stats.diag[i0]) >= stats.r[i0]:
            continue
        ok = True
        for j0 in range(n):
            if j0 == i0:
                continue
            lhs, rhs = _qdsdd_sides(stats, i0, j0)
            if not lhs > rhs:
                ok = False
                break
        if ok:
            return i0 + 1
    return None


def pd_certify(
    T: Tensor,
    oracle: bool = False,
    starts: int | None = None,
    seed: int = 0,
    margin: float = 0.0,
) -> Certificate:
    """Certify positive definiteness through the cheapest class that fires.

    Ladder, for even-order symmetric input: the strict row-sum class, the
    double class (decomposition attached), the quasi class (decomposition
    attached), then absolute-value double dominance with an all-positive
    diagonal (full or single-anchor-row form).  Odd order or asymmetry skips
    the ladder.  With ``oracle`` set, a certificate carries a sphere-search
    confirmation, and when no rung fires the search may produce a
    non-positive-definiteness witness; a positive sampled minimum is only
    ever reported as "no violation found".
    """
    m, n = T.order, T.dim
    symmetric = is_symmetric(T)
    even = m % 2 == 0
    stats = _Stats(T)

    def confirmed(cert: Certificate) -> Certificate:
        if not oracle:
            return cert
        result = sphere_minimize(T, starts=starts, seed=seed)
        return replace(
            cert,
            oracle_result=result,
            note=cert.note + f"; oracle confirmation: sampled minimum {result.min_value:.6g}",
        )

    if even and symmetric:
        if is_b_tensor(T, margin, _stats=stats):
            return confirmed(Certificate(
                verdict=POSITIVE_DEFINITE,
                route="b-tensor (even order, symmetric)",
                note="strict row-sum dominance in every row",
            ))
        if n >= 2 and is_double_b_tensor(T, margin, _stats=stats):
            return confirmed(Certificate(
                verdict=POSITIVE_DEFINITE,
                route="double-b decomposition (even order, symmetric)",
                note="split into a dominant Z part plus positive all-one blocks",
                decomposition=decompose(T, mode="double"),
            ))
        if n >= 2 and is_quasi_double_b_tensor(T, margin, _stats=stats):
            return confirmed(Certificate(
                verdict=POSITIVE_DEFINITE,
                route="quasi-double-b decomposition (even order, symmetric)",
                note="split into a quasi-dominant Z part plus positive all-one blocks",
                decomposition=decompose(T, mode="quasi"),
            ))
        if n >= 2 and _positive_diagonal(stats):
            # certification needs the per-row absolute dominance alongside the
            # pairwise products; for order > 2 the class predicate already
            # includes it, the matrix case adds it here
            row_dominant = bool(np.all(np.abs(stats.diag) >= stats.r))
            if row_dominant and is_dsdd(T, margin, _stats=stats):
                return confirmed(Certificate(
                    verdict=POSITIVE_DEFINITE,
                    route="dsdd rows (even order, symmetric, positive diagonal)",
                    note="absolute row dominance in every row plus pairwise products",
                ))
            anchor = _qdsdd_anchor_row(stats)
            if anchor is not None:
                return confirmed(Certificate(
                    verdict=POSITIVE_DEFINITE,
                    route="qdsdd anchor row (even order, symmetric, positive diagonal)",
                    note=f"row {anchor} dominates absolutely and wins every ordered pair",
                ))

    if not even:
        note = "odd order: the certification ladder requires an even order"
    elif not symmetric:
        note = "not symmetric: the certification ladder requires symmetry"
    else:
        note = "no dominance class fired"

    if oracle:
        result = sphere_minimize(T, starts=starts, seed=seed)
        if result.witness_value <= 0.0:
            return Certificate(
                verdict=NOT_POSITIVE_DEFINITE,
                route="sphere search",
                note=note + "; sphere search found a nonpositive form value",
                oracle_result=result,
                witness=result.witness,
                witness_value=result.witness_value,
            )
        return Certificate(
            verdict=INCONCLUSIVE,
            route=None,
            note=note + (
                "; sphere search found no violation "
                f"(sampled minimum {result.min_value:.6g}), which is not a proof"
            ),
            oracle_result=result,
        )
    return Certificate(verdict=INCONCLUSIVE, route=None, note=note)


def h_eigen_positivity_check(
    T: Tensor,
    starts: int | None = None,
    seed: int = 0,
) -> HEigenReport:
    """Check the positive-H-spectrum claim for an even-order symmetric
    tensor in the double or quasi class against the sampled variational
    minimum on the m-norm sphere."""
    if T.order % 2 != 0:
        raise PreconditionError("even order required for the H-spectrum claim")
    if not is_symmetric(T):
        raise PreconditionError("symmetric tensor required for the H-spectrum claim")
    if T.dim < 2:
        raise PreconditionError("the double and quasi classes need dimension n >= 2")
    stats = _Stats(T)
    if is_double_b_tensor(T, _stats=stats):
        certified = "double-b"
    elif is_quasi_double_b_tensor(T, _stats=stats):
        certified = "quasi-double-b"
    else:
        verdict = is_quasi_double_b_tensor(T, _stats=stats)
        raise PreconditionError(
            f"tensor is in neither the double nor the quasi class: {verdict.witness}",
            witness=verdict.witness,
        )
    result = sphere_minimize(T, starts=starts, seed=seed, normalization="lm")
    lam = result.min_value
    return HEigenReport(
        certified_class=certified,
        claim="every H-eigenvalue of this tensor is positive",
        lambda_min_estimate=lam,
        positive=lam > 0.0,
        oracle_result=result,
    )
