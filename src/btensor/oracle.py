"""Independent numerical evidence: minimize the m-form over a unit sphere.

The oracle is an evidence generator, not a prover.  A positive minimum over
its sample set means "no violation found"; only the class-based routes in
:mod:`btensor.decompose` ever issue a positive-definiteness certificate.

Two normalizations coexist: the 2-norm sphere for generic sign decisions
(any norm works there) and the m-norm sphere, on which the minimum of the
form equals the least H-eigenvalue of an even-order symmetric tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Tensor,
    _orbit_index,
    apply_many,
    form_value,
    form_values,
    is_symmetric,
    symmetrize,
)
from .classify import (
    _Stats,
    all_row_stats,
    is_quasi_double_b0_tensor,
    is_quasi_double_b_tensor,
)

__all__ = [
    "OracleResult",
    "SearchCandidate",
    "SearchReport",
    "sphere_minimize",
    "lambda_min_estimate",
    "conjecture_search",
]

MAX_ITER = 10_000
GRAD_TOL = 1e-10
_ARMIJO = 1e-4
_HALVINGS = 80  # Armijo ladder length: steps alpha * 2^-k for k < _HALVINGS
_STEP_FLOOR = 1e-20  # the ladder stops once every pending step is below this
_LADDER = 0.5 ** np.arange(_HALVINGS + 1)  # exact powers of two


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a sphere minimization.

    ``min_value`` is the least form value found, attained at ``minimizer``
    (a unit vector in the declared normalization).  ``witness`` is the same
    direction rescaled to a convenient magnitude; ``witness_value`` is the
    raw form value there, which certifies non-positive-definiteness whenever
    it is nonpositive.  ``lambda_min_estimate`` re-expresses the best point
    on the m-norm sphere (even order only); it upper-bounds the least
    H-eigenvalue.
    """

    min_value: float
    minimizer: tuple[float, ...]
    normalization: str
    lambda_min_estimate: float | None
    samples: int
    converged: bool
    witness: tuple[float, ...]
    witness_value: float


@dataclass(frozen=True)
class SearchCandidate:
    trial: int
    tensor: Tensor
    oracle_result: OracleResult


@dataclass(frozen=True)
class SearchReport:
    trials: int
    accepted: int
    candidates: list[SearchCandidate]
    seed: int
    generator_params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sphere geometry


def _norm(X: np.ndarray, m: int, normalization: str) -> np.ndarray:
    if normalization == "l2":
        return np.linalg.norm(X, axis=-1)
    return np.power(np.sum(np.abs(X) ** m, axis=-1), 1.0 / m)


def _project(X: np.ndarray, m: int, normalization: str) -> np.ndarray:
    norms = _norm(X, m, normalization)
    norms = np.where(norms == 0.0, 1.0, norms)
    return X / norms[..., None]


def _constraint_grad(X: np.ndarray, m: int, normalization: str) -> np.ndarray:
    if normalization == "l2":
        return X
    return np.sign(X) * np.abs(X) ** (m - 1)


def _tangent(G: np.ndarray, X: np.ndarray, m: int, normalization: str) -> np.ndarray:
    C = _constraint_grad(X, m, normalization)
    cc = np.sum(C * C, axis=1)
    cc = np.where(cc == 0.0, 1.0, cc)
    coef = np.sum(G * C, axis=1) / cc
    return G - coef[:, None] * C


def _descend(
    S: Tensor,
    X0: np.ndarray,
    normalization: str,
    max_iter: int,
    grad_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient descent from a batch of unit starts.

    Returns final points, their form values, and a per-start convergence
    flag.  A start counts as converged when the projected gradient norm
    drops below ``grad_tol`` or when no step of any size still decreases
    the value (the floating-point floor); only exhausting ``max_iter``
    while still improving reports non-convergence.

    Each iteration backtracks by halving: a start tries the steps
    ``alpha * 2^-k`` for k = 0, 1, ... from its warm step ``alpha`` and
    takes the first that decreases its value strictly by the Armijo margin.
    The starts share one stop rule: the ladder ends after the first k at
    which every start still pending has a next step below ``_STEP_FLOOR``,
    or after k = ``_HALVINGS - 1``, so a start whose own steps are below
    the floor is still tried while another keeps the ladder going.  One
    ``form_values`` call evaluates a block of consecutive k for every
    pending start, at most twice the iteration's rows, and each start takes
    its first passing k at or before the stop: the steps accepted are those
    of evaluating one k per call.
    """
    m = S.order
    X = _project(np.array(X0, dtype=float), m, normalization)
    f = form_values(S, X)
    total, n = X.shape
    converged = np.zeros(total, dtype=bool)
    alpha = np.ones(total)  # warm-started per-row step size
    active = np.arange(total)
    width = 1  # halvings in an iteration's first ladder call
    for _ in range(max_iter):
        if active.size == 0:
            break
        Xa = X[active]
        G = m * apply_many(S, Xa)
        GT = _tangent(G, Xa, m, normalization)
        gn = np.linalg.norm(GT, axis=1)
        hit = gn < grad_tol
        if hit.any():
            converged[active[hit]] = True
            keep = ~hit
            active = active[keep]
            if active.size == 0:
                break
            Xa, GT, gn = Xa[keep], GT[keep], gn[keep]
        rows = active.size
        fa, aa, gn2 = f[active], alpha[active], gn**2
        pending = np.arange(rows)  # positions in active with no passing k yet
        lo, hi = 0, width
        while True:
            steps = aa[:, None] * _LADDER[lo:hi]
            cand = (Xa[:, None, :] - steps[:, :, None] * GT[:, None, :]).reshape(-1, n)
            cand = _project(cand, m, normalization)
            fc = form_values(S, cand).reshape(steps.shape)
            # strict decrease, so a step that no longer moves the value
            # cannot be accepted
            ok = fc < fa[:, None] - _ARMIJO * steps * gn2[:, None]
            took = np.count_nonzero(ok[:, 0])
            if lo == 0:
                # two halvings in the next first call when most rows need one
                width = 2 if 2 * took < rows else 1
            if took == pending.size:
                # every pending row passes at k = lo, where the ladder stops
                accepted = active[pending]
                X[accepted] = cand[:: hi - lo]
                f[accepted] = fc[:, 0]
                alpha[accepted] = np.minimum(1.0, 2.0 * steps[:, 0])
                break
            # the ladder stops after the first k where no row that is still
            # without a pass has a next step at or above the floor
            waiting = ~np.logical_or.accumulate(ok, axis=1)
            stop = ~np.any(waiting & (steps / 2.0 >= _STEP_FLOOR), axis=0)
            stop[-1] |= hi == _HALVINGS
            done = stop.any()
            if done:
                ok = ok[:, : stop.argmax() + 1]
            passed = ok.any(axis=1)
            if passed.any():
                k = ok[passed].argmax(axis=1)
                accepted = active[pending[passed]]
                X[accepted] = cand.reshape(*steps.shape, n)[passed, k]
                f[accepted] = fc[passed, k]
                alpha[accepted] = np.minimum(1.0, 2.0 * steps[passed, k])
                wait = ~passed
                pending, Xa, GT, fa, aa, gn2 = (
                    pending[wait], Xa[wait], GT[wait], fa[wait], aa[wait], gn2[wait]
                )
            if done:
                if pending.size:
                    # the floating-point floor: no step of any size decreases f
                    converged[active[pending]] = True
                    active = np.delete(active, pending)
                break
            # later calls stay within 2 * rows, and go no further than the
            # k at which every pending next step is below the floor
            lo = hi
            below = aa.max() * _LADDER[lo + 1:] < _STEP_FLOOR
            last = lo + int(below.argmax()) if below.any() else _HALVINGS - 1
            hi = min(lo + 2 * rows // pending.size, last + 1)
    return X, f, converged


def _axis_and_uniform_starts(n: int) -> np.ndarray:
    eye = np.eye(n)
    ones = np.ones((1, n))
    return np.vstack([eye, -eye, ones])


def _circle_critical_points(W: Tensor, normalization: str) -> np.ndarray:
    """Unnormalized candidates containing every critical point of the form
    of a dim-2 tensor on the circle, with both signs.

    At ``x = (t, 1)``, ``p(t) = f(t, 1)`` and Euler's identity turn the
    Lagrange conditions ``x2*d1f - x1*d2f = 0`` (l2, ``k = 2``) and
    ``x2^(m-1)*d1f - x1^(m-1)*d2f = 0`` (lm, ``k = m``) into
    ``(1+t^k) p' - m t^(k-1) p = 0``.  Roots at infinity are the axis
    points; real parts of complex roots cover split multiple roots.
    """
    m = W.order
    # orbit r of a dim-2 tensor holds the positions with r indices equal to
    # 2, whose products carry t^(m-r): c holds p's ascending coefficients
    c = np.bincount(_orbit_index(m, 2), weights=W.data.ravel())[::-1]
    k = 2 if normalization == "l2" else m
    dp = c[1:] * np.arange(1, m + 1)
    q = np.zeros(k + m)
    q[:m] = dp
    q[k:] += dp
    q[k - 1:] -= m * c
    # np.polynomial is imported on first use, so only n = 2 solves load it.
    # A root at t = 0 may come back as -0.0; adding 0.0 makes it 0.0, so no
    # candidate or minimizer taken from it carries a negative zero.
    roots = np.polynomial.polynomial.polyroots(q).real + 0.0
    X = np.vstack([np.eye(2), np.column_stack([roots, np.ones_like(roots)])])
    return np.vstack([X, -X])


def _canonical_witness(x: np.ndarray) -> np.ndarray:
    """Rescale a direction so its smallest non-negligible component is 1."""
    ax = np.abs(x)
    top = ax.max()
    if top == 0.0:
        return x
    significant = ax[ax > 1e-3 * top]
    return x / significant.min()


def sphere_minimize(
    T: Tensor,
    starts: int | None = None,
    seed: int = 0,
    normalization: str = "l2",
    grid_points: int | None = None,
    max_iter: int = MAX_ITER,
    grad_tol: float = GRAD_TOL,
) -> OracleResult:
    """Minimize the m-form of ``T`` over the unit sphere.

    Non-symmetric inputs are symmetrized first (the form value depends only
    on the symmetric part).  For n = 2 the candidates are the critical
    points on the circle in closed form.  For n >= 3, the only case where
    ``starts`` and ``seed`` act, projected gradient descent runs from
    ``starts`` random unit vectors split from ``seed``, plus all signed axis
    vectors and the uniform vector.  Ties go to the lexicographically
    smallest point, so results are deterministic.  ``grid_points`` is unused.
    """
    if normalization not in ("l2", "lm"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if normalization == "lm" and T.order % 2 != 0:
        raise ValueError("the m-norm sphere requires even order")
    if starts is None:
        starts = 256
    if starts < 1:
        raise ValueError("starts must be >= 1")

    S = T if is_symmetric(T) else symmetrize(T)
    n, m = S.dim, S.order
    # scale to unit max entry so step sizes and tolerances are scale-free;
    # the form scales back linearly
    scale = float(np.max(np.abs(S.data)))
    W = S if scale in (0.0, 1.0) else Tensor(m, n, S.data / scale)

    if n <= 2:
        X = np.array([[1.0], [-1.0]]) if n == 1 else _circle_critical_points(W, normalization)
        X = _project(X, m, normalization)
        f = form_values(W, X)
        conv = np.ones(len(X), dtype=bool)
    else:
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(starts)
        rand = np.vstack([
            np.random.default_rng(child).normal(size=n) for child in children
        ])
        X0 = np.vstack([_axis_and_uniform_starts(n), rand])
        X, f, conv = _descend(W, X0, normalization, max_iter, grad_tol)

    ties = np.flatnonzero(f == f.min())
    best = ties[np.lexsort(X[ties].T[::-1])[0]]
    x_best = _project(X[best], m, normalization)
    min_value = form_value(S, x_best)
    witness = _canonical_witness(x_best)
    witness_value = form_value(S, witness)

    if m % 2 == 0:
        lam = form_value(S, _project(x_best, m, "lm"))
    else:
        lam = None

    return OracleResult(
        min_value=min_value,
        minimizer=tuple(float(v) for v in x_best),
        normalization=normalization,
        lambda_min_estimate=lam,
        samples=len(X),
        converged=bool(conv[best]),
        witness=tuple(float(v) for v in witness),
        witness_value=witness_value,
    )


def lambda_min_estimate(
    T: Tensor,
    starts: int | None = None,
    seed: int = 0,
    grid_points: int | None = None,
) -> float:
    """Least form value over the m-norm sphere: for an even-order symmetric
    tensor this is the variational value of the least H-eigenvalue, and the
    sampled minimum upper-bounds it.  ``starts`` and ``seed`` act only at
    n >= 3, and ``grid_points`` has no effect; see :func:`sphere_minimize`."""
    if T.order % 2 != 0:
        raise ValueError("the H-eigenvalue variational identity requires even order")
    if not is_symmetric(T):
        raise ValueError("lambda_min_estimate requires a symmetric tensor")
    result = sphere_minimize(T, starts=starts, seed=seed, normalization="lm")
    return result.min_value


# ---------------------------------------------------------------------------
# boundary sampling for the weak-class positive-semidefiniteness conjecture

_GRID_DENOM = 1024  # dyadic value grid keeps all classifier arithmetic exact


def _symmetric_offdiag(rng: np.random.Generator, order: int, dim: int) -> np.ndarray:
    """Symmetric array with dyadic off-diagonal values in [-1, 1], zero diagonal."""
    rank = _orbit_index(order, dim)
    offdiag = np.bincount(rank) > 1  # only the diagonal orbits are singletons
    values = np.zeros(offdiag.size)
    # one draw per off-diagonal orbit, in lexicographic orbit order
    values[offdiag] = rng.integers(-_GRID_DENOM, _GRID_DENOM + 1, size=offdiag.sum()) / _GRID_DENOM
    return values[rank].reshape((dim,) * order)


def _boundary_tie_sample(rng: np.random.Generator, order: int, dim: int) -> Tensor:
    """Every diagonal entry at ``beta_i + delta_i``: all pair inequalities tie."""
    data = _symmetric_offdiag(rng, order, dim)
    stats = all_row_stats(Tensor(order, dim, data))
    for i0, st in enumerate(stats):
        data[(i0,) * order] = st.beta + st.delta
    return Tensor(order, dim, data)


def _anchored_row_sample(rng: np.random.Generator, order: int, dim: int) -> Tensor:
    """One row with constant off-diagonal value c and diagonal exactly c;
    the remaining diagonals sit strictly above their dominance threshold."""
    data = _symmetric_offdiag(rng, order, dim)
    special = int(rng.integers(dim))
    c = rng.integers(0, _GRID_DENOM + 1) / _GRID_DENOM
    # every position holding the special index, its diagonal included
    for axis in range(order):
        data[(slice(None),) * axis + (special,)] = c
    stats = all_row_stats(Tensor(order, dim, data))
    for i0, st in enumerate(stats):
        if i0 == special:
            continue
        slack = rng.integers(0, _GRID_DENOM // 2 + 1) / _GRID_DENOM
        data[(i0,) * order] = st.beta + st.delta + slack
    return Tensor(order, dim, data)


def conjecture_search(
    order: int,
    dim: int,
    trials: int,
    seed: int,
    tolerance: float,
    starts: int | None = None,
    grid_points: int | None = None,
) -> SearchReport:
    """Randomized search for an even-order symmetric weak-class tensor with
    a negative form minimum.

    Samples symmetric tensors with diagonals pinned to the boundary where
    the weak pairwise inequality holds with equality, keeps those passing
    the weak predicate but failing the strict one, and sphere-minimizes each
    accepted sample.  Samples with ``min_value < -tolerance`` are recorded
    with full reproduction data.  Deterministic given ``seed``.
    ``grid_points`` has no effect and is recorded as given.
    """
    if order % 2 != 0:
        raise ValueError("conjecture_search requires an even order")
    if order < 2 or dim < 2:
        raise ValueError("order must be even >= 2 and dim >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")

    root = np.random.SeedSequence(seed)
    children = root.spawn(trials)
    accepted = 0
    candidates: list[SearchCandidate] = []
    for trial, child in enumerate(children):
        rng = np.random.default_rng(child)
        sampler = _boundary_tie_sample if trial % 2 == 0 else _anchored_row_sample
        t = sampler(rng, order, dim)
        s = _Stats(t)
        if not (is_quasi_double_b0_tensor(t, _stats=s) and not is_quasi_double_b_tensor(t, _stats=s)):
            continue
        accepted += 1
        result = sphere_minimize(
            t,
            starts=starts,
            seed=int(rng.integers(2**31)),
            normalization="l2",
        )
        if result.min_value < -tolerance:
            candidates.append(SearchCandidate(trial=trial, tensor=t, oracle_result=result))
    return SearchReport(
        trials=trials,
        accepted=accepted,
        candidates=candidates,
        seed=seed,
        generator_params={
            "off_diagonal": f"symmetric dyadic grid k/{_GRID_DENOM} in [-1, 1]",
            "diagonal": "pinned to the weak-inequality boundary (tie / anchored-row variants)",
            "variants": ["boundary-tie", "anchored-row"],
            "tolerance": tolerance,
            "grid_points": grid_points,
            "starts": starts,
        },
    )
