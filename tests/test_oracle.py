import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import btensor
from btensor import (
    Tensor,
    conjecture_search,
    form_value,
    is_quasi_double_b0_tensor,
    is_quasi_double_b_tensor,
    is_symmetric,
    lambda_min_estimate,
    make_tensor,
    sphere_minimize,
    symmetrize,
    unit_tensor,
)
from btensor import oracle
from btensor.core import _orbit_index
from btensor.oracle import _ARMIJO, _descend, _project, _tangent


class TestSphereMinimize:
    def test_counterexample_is_refuted(self, counterexample_tensor):
        res = sphere_minimize(counterexample_tensor, seed=42)
        assert res.min_value < -0.15  # true sphere minimum is about -0.1505
        assert res.min_value > -0.16
        assert res.converged
        assert res.witness_value <= -0.76

    def test_minimizer_invariants(self, counterexample_tensor):
        res = sphere_minimize(counterexample_tensor, seed=42)
        assert np.linalg.norm(res.minimizer) == pytest.approx(1.0, abs=1e-10)
        assert form_value(counterexample_tensor, np.array(res.minimizer)) == pytest.approx(
            res.min_value, abs=1e-10)

    def test_witness_revalidates(self, counterexample_tensor):
        res = sphere_minimize(counterexample_tensor, seed=7)
        assert form_value(counterexample_tensor, np.array(res.witness)) == pytest.approx(
            res.witness_value, rel=1e-12)

    def test_unit_tensor_min_at_uniform_vector(self):
        res = sphere_minimize(unit_tensor(4, 2), seed=1)
        assert res.min_value == pytest.approx(0.5, abs=1e-9)
        assert np.abs(res.minimizer) == pytest.approx([2**-0.5, 2**-0.5], abs=1e-6)

    def test_zero_tensor(self):
        res = sphere_minimize(make_tensor(3, 2, []), seed=0)
        assert res.min_value == 0.0
        assert res.converged

    def test_dim_one(self):
        res = sphere_minimize(make_tensor(4, 1, [((1, 1, 1, 1), 3.0)]), seed=0)
        assert res.min_value == pytest.approx(3.0)
        assert res.samples == 2

    def test_lm_sphere_norm(self, counterexample_tensor):
        res = sphere_minimize(counterexample_tensor, seed=3, normalization="lm")
        m = counterexample_tensor.order
        assert np.sum(np.abs(res.minimizer) ** m) ** (1 / m) == pytest.approx(1.0, abs=1e-10)
        assert res.lambda_min_estimate == pytest.approx(res.min_value, abs=1e-12)

    def test_lm_odd_order_rejected(self, remark_tensor):
        with pytest.raises(ValueError, match="even"):
            sphere_minimize(remark_tensor, normalization="lm")

    def test_asymmetric_input_uses_symmetric_part(self, remark_tensor):
        res = sphere_minimize(remark_tensor, seed=5)
        sym = symmetrize(remark_tensor)
        assert form_value(sym, np.array(res.minimizer)) == pytest.approx(res.min_value, abs=1e-10)

    def test_determinism(self, counterexample_tensor):
        a = sphere_minimize(counterexample_tensor, seed=11)
        b = sphere_minimize(counterexample_tensor, seed=11)
        assert a == b

    def test_determinism_across_blas_threads(self):
        # a fresh interpreter per BLAS thread count; the 20,000-vector
        # batch is large enough that OpenBLAS splits its product across threads
        script = (
            "import hashlib, numpy as np, btensor as bt\n"
            "rng = np.random.default_rng(6)\n"
            "T = bt.symmetrize(bt.Tensor(4, 3, rng.uniform(-1, 1, size=81)))\n"
            "print(repr(bt.sphere_minimize(T, starts=64, seed=13)))\n"
            "X = rng.normal(size=(20000, 3))\n"
            "print(hashlib.sha256(bt.form_values(T, X).tobytes()).hexdigest())\n"
        )
        src = str(Path(btensor.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_scale_equivariance_dim2(self, counterexample_tensor):
        base = sphere_minimize(counterexample_tensor, seed=4)
        for c in (2.0, 0.5, 3.0):
            scaled = Tensor(4, 2, c * counterexample_tensor.data)
            res = sphere_minimize(scaled, seed=4)
            assert res.min_value == pytest.approx(c * base.min_value, rel=1e-10)
            assert res.minimizer == pytest.approx(base.minimizer, abs=1e-10)

    def test_scale_equivariance_dim3_power_of_two(self):
        rng = np.random.default_rng(8)
        T = symmetrize(Tensor(4, 3, rng.uniform(-1, 1, size=81)))
        base = sphere_minimize(T, seed=9)
        res = sphere_minimize(Tensor(4, 3, 4.0 * T.data), seed=9)
        assert res.min_value == pytest.approx(4.0 * base.min_value, rel=1e-10)
        assert res.minimizer == pytest.approx(base.minimizer, abs=1e-10)

    def test_starts_validation(self, counterexample_tensor):
        with pytest.raises(ValueError, match="starts"):
            sphere_minimize(counterexample_tensor, starts=0)
        with pytest.raises(ValueError, match="normalization"):
            sphere_minimize(counterexample_tensor, normalization="l7")


# ---------------------------------------------------------------------------
# the batched Armijo ladder against the one-halving-per-call loop it replaced


def rowwise_form_values(S, X):
    """``form_values`` one vector at a time, so that a row's value cannot
    depend on which rows share a call, as it can through BLAS blocking."""
    out = np.empty(len(X))
    for i, x in enumerate(X):
        cur = S.data
        for _ in range(S.order):
            cur = cur @ x
        out[i] = cur
    return out


def rowwise_apply_many(S, X):
    out = np.empty_like(X)
    for i, x in enumerate(X):
        cur = S.data
        for _ in range(S.order - 1):
            cur = cur @ x
        out[i] = cur
    return out


def ref_descend(S, X0, normalization, max_iter, grad_tol, stops):
    """The descent with one Armijo halving per form evaluation, as it was
    before the ladder was batched; the reference for ``oracle._descend``.
    ``stops`` counts the starts stopped at ``grad_tol`` and at the floor,
    and the steps accepted below the floor after a halving ("late"), which
    only the shared stop rule allows."""
    m = S.order
    X = _project(np.array(X0, dtype=float), m, normalization)
    f = rowwise_form_values(S, X)
    total = len(X)
    converged = np.zeros(total, dtype=bool)
    alpha = np.ones(total)
    active = np.arange(total)
    for _ in range(max_iter):
        if active.size == 0:
            break
        Xa = X[active]
        G = m * rowwise_apply_many(S, Xa)
        GT = _tangent(G, Xa, m, normalization)
        gn = np.linalg.norm(GT, axis=1)
        hit = gn < grad_tol
        if hit.any():
            stops["grad_tol"] += int(hit.sum())
            converged[active[hit]] = True
            keep = ~hit
            active = active[keep]
            if active.size == 0:
                break
            Xa, GT, gn = Xa[keep], GT[keep], gn[keep]
        fa = f[active]
        aa = alpha[active]
        pending = np.arange(active.size)
        for k in range(80):
            cand = _project(Xa - aa[:, None] * GT, m, normalization)
            fc = rowwise_form_values(S, cand)
            ok = fc < fa - _ARMIJO * aa * gn**2
            if ok.any():
                if k > 0:
                    stops["late"] += int(np.sum(aa[ok] < 1e-20))
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
            stops["floor"] += pending.size
            converged[active[pending]] = True
            active = np.delete(active, pending)
    return X, f, converged


class TestBatchedLadder:
    """``oracle._descend`` tries several halvings per ``form_values`` call;
    with a row-independent contraction it must accept exactly the steps of
    the one-halving loop, bit for bit."""

    @pytest.fixture(autouse=True)
    def rowwise(self, monkeypatch):
        monkeypatch.setattr(oracle, "form_values", rowwise_form_values)
        monkeypatch.setattr(oracle, "apply_many", rowwise_apply_many)

    @staticmethod
    def check(S, X0, normalization, max_iter=10_000, grad_tol=1e-10):
        stops = {"grad_tol": 0, "floor": 0, "late": 0}
        ref = ref_descend(S, X0, normalization, max_iter, grad_tol, stops)
        new = _descend(S, X0, normalization, max_iter, grad_tol)
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return ref, stops

    CASES = [(m, n, "l2") for m in (3, 4, 6) for n in (3, 4, 5)] + [
        (m, n, "lm") for m in (4, 6) for n in (3, 4, 5)]

    @pytest.mark.parametrize("m,n,normalization", CASES)
    def test_matches_one_halving_per_call(self, m, n, normalization):
        rng = np.random.default_rng(10 * m + n)
        S = symmetrize(Tensor(m, n, rng.uniform(-1, 1, size=n**m)))
        X0 = np.vstack([np.eye(n), -np.eye(n), np.ones((1, n)), rng.normal(size=(12, n))])
        # a few slow m-norm starts still improve after 500 iterations
        _, stops = self.check(S, X0, normalization, max_iter=500)
        assert stops["floor"] > 0

    @pytest.mark.parametrize("normalization", ["l2", "lm"])
    def test_grad_tol_stops(self, normalization):
        # the signed axis points are critical points of a diagonal tensor
        S = make_tensor(4, 4, [((i,) * 4, float(i)) for i in range(1, 5)])
        rng = np.random.default_rng(3)
        X0 = np.vstack([np.eye(4), -np.eye(4), rng.normal(size=(8, 4))])
        _, stops = self.check(S, X0, normalization, max_iter=500)
        assert stops["grad_tol"] >= 8

    def test_max_iter_cap(self):
        rng = np.random.default_rng(4)
        S = symmetrize(Tensor(4, 4, rng.uniform(-1, 1, size=256)))
        (_, _, converged), _ = self.check(S, rng.normal(size=(16, 4)), "l2", max_iter=3)
        assert not converged.all()

    def test_tiny_step_accepted_while_another_row_keeps_the_ladder_going(self):
        # at this scale a step far below the floor still moves a point; in
        # the second iteration one row passes at a step near 5e-23 while the
        # other row still pends near 1e-6
        S = Tensor(4, 3, 1e22 * unit_tensor(4, 3).data)
        _, stops = self.check(S, np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]), "l2",
                              max_iter=3, grad_tol=0.0)
        assert stops["late"] >= 1

    def test_form_calls_bounded(self, monkeypatch):
        # the real contraction: counts are fixed for a given seed and BLAS
        calls, last_apply = [], []
        values, apply = btensor.core.form_values, btensor.core.apply_many

        def counting_values(S, X):
            if last_apply:
                # no call evaluates more than twice the iteration's rows
                assert len(X) <= 2 * last_apply[-1]
            calls.append(len(X))
            return values(S, X)

        def counting_apply(S, X):
            last_apply.append(len(X))
            return apply(S, X)

        monkeypatch.setattr(oracle, "form_values", counting_values)
        monkeypatch.setattr(oracle, "apply_many", counting_apply)
        rng = np.random.default_rng(6)
        T = symmetrize(Tensor(4, 3, rng.uniform(-1, 1, size=81)))
        sphere_minimize(T, starts=64, seed=13)
        # one halving per call took 1,492 calls here (13,620 rows); batched,
        # 276 (17,460 rows)
        assert len(calls) <= 400


def dense_circle_values(T, normalization, points=20_001):
    """Form values on a dense angular grid, by einsum, independent of the oracle."""
    theta = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    X = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    m = T.order
    if normalization == "lm":
        X = X / np.sum(np.abs(X) ** m, axis=1, keepdims=True) ** (1.0 / m)
    slots = "abcdefgh"[:m]
    spec = slots + "," + ",".join("N" + c for c in slots) + "->N"
    return np.einsum(spec, T.data, *([X] * m))


def quartic_power(factor):
    """The symmetric m=4 n=2 tensor whose form is ``g(x1, x2)^(4 / deg g)``,
    for ``g`` given by its coefficients in descending powers of ``x1``."""
    g = np.polynomial.Polynomial(factor[::-1])
    coef = (g ** (4 // g.degree())).coef  # f(t, 1) in ascending powers of t
    # a position with j indices equal to 2 carries t^(4-j), shared by comb(4, j)
    return Tensor(4, 2, [coef[4 - sum(p)] / math.comb(4, sum(p)) for p in np.ndindex((2,) * 4)])


class TestCircleClosedForm:
    """n = 2 solved from the roots of one polynomial."""

    CASES = [(m, "l2") for m in (2, 3, 4, 5, 6)] + [(m, "lm") for m in (2, 4, 6)]

    @staticmethod
    def check_on_circle(T, res):
        x = np.array(res.minimizer)
        m = T.order
        if res.normalization == "l2":
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.sum(np.abs(x) ** m) ** (1 / m) == pytest.approx(1.0, abs=1e-12)
        assert form_value(T, x) == res.min_value
        assert res.converged

    @pytest.mark.parametrize("m,normalization", CASES)
    def test_matches_dense_reference(self, m, normalization):
        rng = np.random.default_rng(100 + m)
        for k in range(8):
            T = symmetrize(Tensor(m, 2, rng.uniform(-1, 1, size=2**m) * 10.0 ** (k % 3 - 1)))
            scale = np.abs(T.data).max()
            res = sphere_minimize(T, normalization=normalization)
            ref = dense_circle_values(T, normalization)
            assert res.min_value <= ref.min() + 1e-12 * scale
            # the reference grid is within (2*pi/20001)^2 of the true minimum
            assert res.min_value >= ref.min() - 1e-6 * scale
            self.check_on_circle(T, res)

    def test_grid_points_has_no_effect(self):
        T = symmetrize(Tensor(4, 2, np.random.default_rng(5).uniform(-1, 1, size=16)))
        res = sphere_minimize(T)
        assert repr(sphere_minimize(T, grid_points=2000)) == repr(res)
        # both signs of the two axis points and at most four roots
        assert res.samples <= 12

    @pytest.mark.parametrize("normalization", ["l2", "lm"])
    def test_zero_tensor(self, normalization):
        res = sphere_minimize(make_tensor(4, 2, []), normalization=normalization)
        assert res.min_value == 0.0
        assert res.converged

    def test_matrix_identity_has_no_condition_polynomial(self):
        # x2*d1f - x1*d2f vanishes identically: every point is critical
        from btensor.oracle import _circle_critical_points

        eye = unit_tensor(2, 2)
        assert len(_circle_critical_points(eye, "l2")) == 4  # the signed axis points
        res = sphere_minimize(eye)
        assert res.min_value == pytest.approx(1.0, abs=1e-15)
        self.check_on_circle(eye, res)

    @pytest.mark.parametrize("normalization", ["l2", "lm"])
    def test_minimum_on_an_axis(self, normalization):
        # diag(-1, 2): the condition polynomial loses its leading
        # coefficient, so the minimizer is a root at infinity
        T = make_tensor(2, 2, [((1, 1), -1.0), ((2, 2), 2.0)])
        res = sphere_minimize(T, normalization=normalization)
        assert res.min_value == -1.0
        assert res.minimizer == (-1.0, 0.0)  # ties go to the smallest point

    def test_odd_order_minimum_is_the_negated_maximum(self):
        rng = np.random.default_rng(31)
        T = symmetrize(Tensor(3, 2, rng.uniform(-1, 1, size=8)))
        res = sphere_minimize(T)
        ref = dense_circle_values(T, "l2")
        assert res.min_value <= ref.min() + 1e-12
        assert form_value(T, -np.array(res.minimizer)) == -res.min_value
        assert -res.min_value >= ref.max() - 1e-12
        self.check_on_circle(T, res)

    @pytest.mark.parametrize("normalization", ["l2", "lm"])
    @pytest.mark.parametrize("factor", [(1.0, 0.0, -1.0), (1.0, -1.0)])
    def test_repeated_roots(self, factor, normalization):
        # (x1^2 - x2^2)^2 touches zero at double roots; (x1 - x2)^4 also
        # gives the condition polynomial a triple root at t = 1
        T = quartic_power(factor)
        res = sphere_minimize(T, normalization=normalization)
        assert abs(res.min_value) <= 1e-12
        assert abs(res.minimizer[0]) == pytest.approx(abs(res.minimizer[1]), abs=1e-4)
        self.check_on_circle(T, res)


def ref_circle_critical_points(W, normalization):
    """The circle candidates computed with ``np.polynomial.Polynomial``
    arithmetic: the reference for the oracle's coefficient arrays."""
    m = W.order
    p = np.polynomial.Polynomial(np.bincount(_orbit_index(m, 2), weights=W.data.ravel())[::-1])
    t = np.polynomial.Polynomial([0.0, 1.0])
    k = 2 if normalization == "l2" else m
    roots = ((1 + t**k) * p.deriv() - m * t ** (k - 1) * p).roots().real
    X = np.vstack([np.eye(2), np.column_stack([roots, np.ones_like(roots)])])
    return np.vstack([X, -X])


def same_bits(a, b):
    """Equal arrays, down to the sign of every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestCircleArrays:
    """The coefficient-array candidates equal the Polynomial reference bit for bit."""

    CASES = [(m, "l2") for m in range(2, 9)] + [(m, "lm") for m in (2, 4, 6, 8)]

    @staticmethod
    def inputs(m, rng):
        for _ in range(6):
            yield symmetrize(Tensor(m, 2, rng.normal(size=2**m)))
            yield symmetrize(Tensor(m, 2, rng.normal(size=2**m) * 10.0 ** rng.integers(-8, 9)))
            yield symmetrize(Tensor(m, 2, rng.integers(-8, 9, size=2**m) / 8))
            yield oracle._boundary_tie_sample(rng, m, 2)

    @pytest.mark.parametrize("m,normalization", CASES)
    def test_matches_polynomial_reference(self, m, normalization):
        rng = np.random.default_rng(700 + m)
        for T in self.inputs(m, rng):
            got = oracle._circle_critical_points(T, normalization)
            assert same_bits(got, ref_circle_critical_points(T, normalization))

    @pytest.mark.parametrize("normalization", ["l2", "lm"])
    @pytest.mark.parametrize("tensor", [
        make_tensor(4, 2, []),  # the zero tensor: no condition polynomial
        unit_tensor(2, 2),  # the matrix identity: the coefficients cancel to zero
        make_tensor(2, 2, [((1, 1), -1.0), ((2, 2), 2.0)]),  # the leading coefficient cancels
        make_tensor(2, 2, [((1, 1), 0.5), ((2, 2), -1.0)]),  # a root at t = 0 that eigvals returns as -0.0
        quartic_power((1.0, 0.0, -1.0)),  # (x1^2 - x2^2)^2: double roots
        quartic_power((1.0, -1.0)),  # (x1 - x2)^4: a triple root at t = 1
    ])
    def test_special_cases(self, tensor, normalization):
        got = oracle._circle_critical_points(tensor, normalization)
        assert same_bits(got, ref_circle_critical_points(tensor, normalization))


class TestLambdaMin:
    @pytest.mark.parametrize("n", [2, 3])
    def test_unit_tensor_spectrum_floor(self, n):
        assert lambda_min_estimate(unit_tensor(4, n)) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_tensor(self):
        T = make_tensor(4, 2, [((1, 1, 1, 1), 2.0), ((2, 2, 2, 2), 5.0)])
        assert lambda_min_estimate(T) == pytest.approx(2.0, abs=1e-9)

    def test_counterexample_negative(self, counterexample_tensor):
        lam = lambda_min_estimate(counterexample_tensor)
        assert lam < -0.2  # about -0.2794 on the m-norm sphere

    def test_odd_order_rejected(self, remark_tensor):
        with pytest.raises(ValueError, match="even"):
            lambda_min_estimate(remark_tensor)

    def test_asymmetric_rejected(self):
        T = make_tensor(2, 2, [((1, 2), 1.0)])
        with pytest.raises(ValueError, match="symmetric"):
            lambda_min_estimate(T)

    def test_block_embedding_restriction(self):
        # embed diag(0.5, 3) into dimension 3 with a unit extra row:
        # the least H-eigenvalue becomes min(0.5, 1)
        small = make_tensor(4, 2, [((1, 1, 1, 1), 0.5), ((2, 2, 2, 2), 3.0)])
        big = make_tensor(4, 3, [
            ((1, 1, 1, 1), 0.5), ((2, 2, 2, 2), 3.0), ((3, 3, 3, 3), 1.0)])
        lam_small = lambda_min_estimate(small)
        lam_big = lambda_min_estimate(big)
        assert lam_big == pytest.approx(min(lam_small, 1.0), abs=1e-6)

    def test_embedding_above_one_clips_at_unit_row(self):
        small = make_tensor(4, 2, [((1, 1, 1, 1), 2.0), ((2, 2, 2, 2), 5.0)])
        big = make_tensor(4, 3, [
            ((1, 1, 1, 1), 2.0), ((2, 2, 2, 2), 5.0), ((3, 3, 3, 3), 1.0)])
        assert lambda_min_estimate(big) == pytest.approx(1.0, abs=1e-6)


class TestConjectureSearch:
    def test_smoke_and_report_fields(self):
        rep = conjecture_search(4, 2, trials=30, seed=5, tolerance=1e-6)
        assert rep.trials == 30
        assert 0 < rep.accepted <= 30
        assert rep.seed == 5
        assert rep.generator_params["tolerance"] == 1e-6

    def test_accepted_samples_sit_on_the_boundary(self):
        # regenerate a few samples through the private samplers and check the filter
        from btensor.oracle import _anchored_row_sample, _boundary_tie_sample

        rng = np.random.default_rng(123)
        for sampler in (_boundary_tie_sample, _anchored_row_sample):
            for _ in range(10):
                T = sampler(rng, 4, 2)
                assert is_symmetric(T)
                assert is_quasi_double_b0_tensor(T)
                assert not is_quasi_double_b_tensor(T)

    def test_matrix_case(self):
        rep = conjecture_search(2, 2, trials=25, seed=1, tolerance=1e-6)
        assert rep.accepted > 0
        assert rep.candidates == []  # expected: the weak class stays nonnegative

    def test_determinism(self):
        a = conjecture_search(4, 2, trials=10, seed=9, tolerance=1e-6)
        b = conjecture_search(4, 2, trials=10, seed=9, tolerance=1e-6)
        assert a == b

    def test_one_row_stats_pass_per_sample(self, monkeypatch):
        # each trial builds the stats of its off-diagonal draw in the sampler,
        # then one set for the finished sample that both predicates share
        from btensor import classify

        made = []

        class CountingStats(classify._Stats):
            def __init__(self, T):
                made.append(T)
                super().__init__(T)

        monkeypatch.setattr(classify, "_Stats", CountingStats)
        monkeypatch.setattr(oracle, "_Stats", CountingStats)
        for trials in (1, 2):
            made.clear()
            rep = conjecture_search(4, 2, trials=trials, seed=9, tolerance=1e-6)
            assert rep.accepted == trials
            assert len(made) == 2 * trials

    def test_candidates_reverify_if_any(self):
        rep = conjecture_search(4, 2, trials=40, seed=77, tolerance=1e-6)
        for cand in rep.candidates:
            assert is_quasi_double_b0_tensor(cand.tensor)
            assert not is_quasi_double_b_tensor(cand.tensor)
            x = np.array(cand.oracle_result.minimizer)
            assert form_value(cand.tensor, x) == pytest.approx(
                cand.oracle_result.min_value, abs=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError, match="even"):
            conjecture_search(3, 2, trials=5, seed=0, tolerance=1e-6)
        with pytest.raises(ValueError, match="trials"):
            conjecture_search(4, 2, trials=0, seed=0, tolerance=1e-6)
        with pytest.raises(ValueError, match="tolerance"):
            conjecture_search(4, 2, trials=5, seed=0, tolerance=0.0)
        with pytest.raises(ValueError, match="dim"):
            conjecture_search(4, 1, trials=5, seed=0, tolerance=1e-6)
