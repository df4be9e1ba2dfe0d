"""Independent numerical evidence: minimize the m-form over a unit sphere.

The oracle is an evidence generator, not a prover.  A positive minimum over
its sample set means "no violation found"; only the class-based routes in
:mod:`btensor.decompose` ever issue a positive-definiteness certificate.

Two normalizations coexist: the 2-norm sphere for generic sign decisions
(any norm works there) and the m-norm sphere, on which the minimum of the
form equals the least H-eigenvalue of an even-order symmetric tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Tensor,
    apply_many,
    form_value,
    form_values,
    is_symmetric,
    symmetrize,
)
from .classify import (
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

GRID_POINTS = 100_000
MAX_ITER = 10_000
GRAD_TOL = 1e-10
_ARMIJO = 1e-4


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
    """
    m = S.order
    X = _project(np.array(X0, dtype=float), m, normalization)
    f = form_values(S, X)
    total = len(X)
    converged = np.zeros(total, dtype=bool)
    alpha = np.ones(total)  # warm-started per-row step size
    active = np.arange(total)
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
        fa = f[active]
        aa = alpha[active]
        pending = np.arange(active.size)  # positions in active still backtracking
        # Armijo backtracking, halving, on the pending rows only; strict
        # decrease so a step that no longer moves the value cannot be accepted
        for _ in range(80):
            cand = _project(Xa - aa[:, None] * GT, m, normalization)
            fc = form_values(S, cand)
            ok = fc < fa - _ARMIJO * aa * gn**2
            if ok.any():
                rows = active[pending[ok]]
                X[rows] = cand[ok]
                f[rows] = fc[ok]
                alpha[rows] = np.minimum(1.0, 2.0 * aa[ok])
                wait = ~ok
                pending, Xa, GT, fa, aa, gn = (
                    pending[wait], Xa[wait], GT[wait], fa[wait], aa[wait], gn[wait]
                )
                if pending.size == 0:
                    break
            aa = aa / 2.0
            if aa.max() < 1e-20:
                break
        if pending.size:
            # the floating-point floor: no step of any size decreases f
            converged[active[pending]] = True
            active = np.delete(active, pending)
    return X, f, converged


def _axis_and_uniform_starts(n: int) -> np.ndarray:
    eye = np.eye(n)
    ones = np.ones((1, n))
    return np.vstack([eye, -eye, ones])


def _angular_grid(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), theta


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
    grid_points: int = GRID_POINTS,
    max_iter: int = MAX_ITER,
    grad_tol: float = GRAD_TOL,
) -> OracleResult:
    """Minimize the m-form of ``T`` over the unit sphere.

    Non-symmetric inputs are symmetrized first (the form value depends only
    on the symmetric part).  Starts are ``starts`` seeded random unit
    vectors plus all signed axis vectors and the uniform vector; for n = 2
    an angular grid of ``grid_points`` directions with golden-section
    refinement around the best cell makes the search effectively
    exhaustive.  Deterministic given ``seed``; per-start random streams are
    split from the seed so the merge order never matters.
    """
    if normalization not in ("l2", "lm"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if normalization == "lm" and T.order % 2 != 0:
        raise ValueError("the m-norm sphere requires even order")
    if starts is None:
        starts = 32 if T.dim <= 2 else 256
    if starts < 1:
        raise ValueError("starts must be >= 1")

    S = T if is_symmetric(T) else symmetrize(T)
    n, m = S.dim, S.order
    # scale to unit max entry so step sizes and tolerances are scale-free;
    # the form scales back linearly
    scale = float(np.max(np.abs(S.data)))
    W = S if scale in (0.0, 1.0) else Tensor(m, n, S.data / scale)

    sample_count = 0
    pool_x: list[np.ndarray] = []
    pool_f: list[float] = []
    pool_conv: list[bool] = []

    if n == 1:
        for x in (np.array([1.0]), np.array([-1.0])):
            pool_x.append(x)
            pool_f.append(float(form_values(W, x[None, :])[0]))
            pool_conv.append(True)
        sample_count = 2
    else:
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(starts)
        rand = np.vstack([
            np.random.default_rng(child).normal(size=n) for child in children
        ])
        X0 = np.vstack([_axis_and_uniform_starts(n), rand])
        sample_count += len(X0)
        X, f, conv = _descend(W, X0, normalization, max_iter, grad_tol)
        pool_x.extend(X)
        pool_f.extend(f.tolist())
        pool_conv.extend(conv.tolist())

        if n == 2 and grid_points >= 3:
            Xg, theta = _angular_grid(grid_points)
            Xg = _project(Xg, m, normalization)
            fg = form_values(W, Xg)
            sample_count += grid_points
            k = int(np.argmin(fg))
            pool_x.append(Xg[k])
            pool_f.append(float(fg[k]))
            pool_conv.append(True)
            step = 2.0 * np.pi / grid_points

            def g(t: float) -> float:
                v = _project(np.array([[np.cos(t), np.sin(t)]]), m, normalization)
                return float(form_values(W, v)[0])

            tk = float(theta[k])
            if g(tk) < min(g(tk - step), g(tk + step)):
                # imported here: scipy costs most of the package's import time
                from scipy.optimize import minimize_scalar

                res = minimize_scalar(g, bracket=(tk - step, tk, tk + step), method="golden")
                xr = _project(
                    np.array([np.cos(res.x), np.sin(res.x)]), m, normalization
                )
                pool_x.append(xr)
                pool_f.append(float(form_values(W, xr[None, :])[0]))
                pool_conv.append(True)

    best = min(range(len(pool_f)), key=lambda k: (pool_f[k], tuple(pool_x[k])))
    x_best = _project(pool_x[best], m, normalization)
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
        samples=sample_count,
        converged=bool(pool_conv[best]),
        witness=tuple(float(v) for v in witness),
        witness_value=witness_value,
    )


def lambda_min_estimate(
    T: Tensor,
    starts: int | None = None,
    seed: int = 0,
    grid_points: int = GRID_POINTS,
) -> float:
    """Least form value over the m-norm sphere: for an even-order symmetric
    tensor this is the variational value of the least H-eigenvalue, and the
    sampled minimum upper-bounds it."""
    if T.order % 2 != 0:
        raise ValueError("the H-eigenvalue variational identity requires even order")
    if not is_symmetric(T):
        raise ValueError("lambda_min_estimate requires a symmetric tensor")
    result = sphere_minimize(
        T, starts=starts, seed=seed, normalization="lm", grid_points=grid_points
    )
    return result.min_value


# ---------------------------------------------------------------------------
# boundary sampling for the weak-class positive-semidefiniteness conjecture

_GRID_DENOM = 1024  # dyadic value grid keeps all classifier arithmetic exact


def _symmetric_offdiag(rng: np.random.Generator, order: int, dim: int) -> np.ndarray:
    """Symmetric array with dyadic off-diagonal values in [-1, 1], zero diagonal."""
    data = np.zeros((dim,) * order)
    for canon in itertools.combinations_with_replacement(range(dim), order):
        if len(set(canon)) == 1:
            continue
        value = rng.integers(-_GRID_DENOM, _GRID_DENOM + 1) / _GRID_DENOM
        for p in set(itertools.permutations(canon)):
            data[p] = value
    return data


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
    for canon in itertools.combinations_with_replacement(range(dim), order):
        if special in canon and len(set(canon)) > 1:
            for p in set(itertools.permutations(canon)):
                data[p] = c
    data[(special,) * order] = c
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
    grid_points: int = GRID_POINTS,
) -> SearchReport:
    """Randomized search for an even-order symmetric weak-class tensor with
    a negative form minimum.

    Samples symmetric tensors with diagonals pinned to the boundary where
    the weak pairwise inequality holds with equality, keeps those passing
    the weak predicate but failing the strict one, and sphere-minimizes each
    accepted sample.  Samples with ``min_value < -tolerance`` are recorded
    with full reproduction data.  Deterministic given ``seed``.
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
        if not (is_quasi_double_b0_tensor(t) and not is_quasi_double_b_tensor(t)):
            continue
        accepted += 1
        result = sphere_minimize(
            t,
            starts=starts,
            seed=int(rng.integers(2**31)),
            normalization="l2",
            grid_points=grid_points,
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
