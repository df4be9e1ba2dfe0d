import string
import tracemalloc

import numpy as np
import pytest

from btensor import (
    Tensor,
    apply,
    core,
    form_value,
    form_values,
    is_diagonal_index,
    is_symmetric,
    linear_combine,
    make_tensor,
    partially_all_one,
    symmetrize,
    unit_tensor,
)


class TestMakeTensor:
    def test_counterexample_entries(self, counterexample_tensor):
        T = counterexample_tensor
        assert T.order == 4 and T.dim == 2
        assert T.entry((1, 1, 1, 1)) == 2.0
        assert T.entry((2, 2, 2, 2)) == 2.0
        for idx in [(1, 2, 2, 2), (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 1)]:
            assert T.entry(idx) == -1.0
        assert T.entry((1, 1, 2, 2)) == 0.0
        assert np.count_nonzero(T.data) == 6

    def test_empty_entries_is_zero_tensor(self):
        T = make_tensor(3, 2, [])
        assert T.data.shape == (2, 2, 2)
        assert np.all(T.data == 0.0)

    def test_identity_matrix(self):
        T = make_tensor(2, 2, [((1, 1), 1.0), ((2, 2), 1.0)])
        assert np.array_equal(T.data, np.eye(2))

    def test_duplicate_index_names_both_positions(self):
        with pytest.raises(ValueError, match=r"entries 0 and 2"):
            make_tensor(2, 2, [((1, 2), 1.0), ((2, 1), 1.0), ((1, 2), 3.0)])

    def test_out_of_range_index_named(self):
        with pytest.raises(ValueError, match="3"):
            make_tensor(2, 2, [((1, 3), 1.0)])

    def test_wrong_index_length(self):
        with pytest.raises(ValueError, match="length"):
            make_tensor(3, 2, [((1, 2), 1.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor(2, 2, [1.0, np.nan, 0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            make_tensor(2, 2, [((1, 1), np.inf)])

    def test_order_and_dim_validation(self):
        with pytest.raises(ValueError):
            Tensor(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            Tensor(2, 0, [])

    def test_immutability(self):
        T = unit_tensor(2, 2)
        with pytest.raises(ValueError):
            T.data[0, 0] = 5.0
        with pytest.raises(AttributeError):
            T.order = 3

    def test_constructor_does_not_freeze_caller_array(self):
        arr = np.zeros((2, 2))
        Tensor(2, 2, arr)
        arr[0, 0] = 1.0  # caller array must remain writable


class TestUnitTensor:
    def test_order3_dim2(self):
        T = unit_tensor(3, 2)
        assert T.entry((1, 1, 1)) == 1.0
        assert T.entry((2, 2, 2)) == 1.0
        assert np.count_nonzero(T.data) == 2

    def test_matrix_case(self):
        assert np.array_equal(unit_tensor(2, 3).data, np.eye(3))

    def test_degenerate_dim1(self):
        T = unit_tensor(4, 1)
        assert T.data.shape == (1, 1, 1, 1)
        assert T.entry((1, 1, 1, 1)) == 1.0

    def test_symmetric(self):
        assert is_symmetric(unit_tensor(3, 4))


class TestPartiallyAllOne:
    def test_full_set_is_all_one(self):
        T = partially_all_one(3, 2, {1, 2})
        assert np.all(T.data == 1.0)

    def test_singleton(self):
        T = partially_all_one(3, 2, {1})
        assert T.entry((1, 1, 1)) == 1.0
        assert np.count_nonzero(T.data) == 1

    def test_block_count(self):
        T = partially_all_one(4, 3, {1, 2})
        assert int(T.data.sum()) == 2**4
        assert np.count_nonzero(T.data == 0.0) == 3**4 - 2**4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partially_all_one(3, 2, set())

    def test_out_of_range_member(self):
        with pytest.raises(ValueError, match="3"):
            partially_all_one(3, 2, {1, 3})

    def test_symmetric(self):
        assert is_symmetric(partially_all_one(4, 3, {2, 3}))


class TestSymmetry:
    def test_counterexample_is_symmetric(self, counterexample_tensor):
        assert is_symmetric(counterexample_tensor)

    def test_remark_example_is_not(self, remark_tensor):
        # entry (1,2,2) = -0.3 while (2,2,1) = -1.5
        assert not is_symmetric(remark_tensor)

    def test_symmetrize_output_exactly_symmetric(self, remark_tensor):
        S = symmetrize(remark_tensor)
        assert is_symmetric(S)

    def test_symmetrize_fixpoint_on_symmetric(self, counterexample_tensor):
        assert symmetrize(counterexample_tensor) is counterexample_tensor

    def test_symmetrize_preserves_form(self, remark_tensor):
        x = np.array([0.7, -1.3])
        a = form_value(remark_tensor, x)
        b = form_value(symmetrize(remark_tensor), x)
        assert a == pytest.approx(b, rel=1e-12)

    def test_is_diagonal_index(self):
        assert is_diagonal_index((2, 2, 2))
        assert not is_diagonal_index((1, 2, 1))


class TestFormAndApply:
    def test_counterexample_form_at_ones(self, counterexample_tensor):
        assert form_value(counterexample_tensor, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_form_negative_witness(self, counterexample_tensor):
        v = form_value(counterexample_tensor, [1.0, 1.2])
        assert v == pytest.approx(-0.7648, rel=1e-12)

    def test_unit_form(self):
        assert form_value(unit_tensor(4, 2), [1.0, 1.0]) == pytest.approx(2.0)

    def test_apply_counterexample(self, counterexample_tensor):
        out = apply(counterexample_tensor, [1.0, 1.0])
        assert out == pytest.approx([1.0, -1.0])

    def test_apply_unit_powers(self):
        out = apply(unit_tensor(3, 2), [2.0, 3.0])
        assert out == pytest.approx([4.0, 9.0])

    def test_apply_zero_tensor(self):
        T = make_tensor(3, 3, [])
        assert np.all(apply(T, [1.0, 2.0, 3.0]) == 0.0)

    def test_length_mismatch(self, counterexample_tensor):
        with pytest.raises(ValueError, match="shape"):
            form_value(counterexample_tensor, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="shape"):
            apply(counterexample_tensor, [1.0])

    def test_duality_identity(self, counterexample_tensor):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            lhs = float(np.dot(x, apply(counterexample_tensor, x)))
            rhs = form_value(counterexample_tensor, x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_batched_matches_scalar(self, counterexample_tensor):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(17, 2))
        batch = form_values(counterexample_tensor, X)
        for k in range(17):
            assert batch[k] == form_value(counterexample_tensor, X[k])


def _einsum_reference(T, X):
    """Form values and row contractions of T at every row of X, by einsum."""
    idx = string.ascii_lowercase[: T.order]
    vecs = [f"z{k}" for k in idx]  # z runs over the rows of X
    values = np.einsum(f"{idx},{','.join(vecs)}->z", T.data, *[X] * T.order)
    rows = np.einsum(f"{idx},{','.join(vecs[1:])}->z{idx[0]}", T.data, *[X] * (T.order - 1))
    return values, rows


class TestBatchedContraction:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 2), (4, 3), (6, 3), (4, 8)])
    def test_matches_einsum_across_chunks(self, monkeypatch, m, n):
        rng = np.random.default_rng(10 * m + n)
        T = Tensor(m, n, rng.uniform(-1, 1, size=n**m))
        X = rng.normal(size=(11, n))
        # three vectors per chunk: chunks of 3, 3, 3 and a partial 2
        monkeypatch.setattr(core, "_CONTRACT_BUDGET_BYTES", 3 * 8 * n ** (m - 1))
        ref_values, ref_rows = _einsum_reference(T, X)
        values = form_values(T, X)
        rows = core.apply_many(T, X)
        assert values.shape == (11,) and rows.shape == (11, n)
        assert np.max(np.abs(values - ref_values)) <= 1e-12 * np.max(np.abs(ref_values))
        assert np.max(np.abs(rows - ref_rows)) <= 1e-12 * np.max(np.abs(ref_rows))

    def test_peak_memory_stays_near_budget(self):
        # unchunked, the (1000, 32^3) product of this call would take ~8 GB
        rng = np.random.default_rng(3)
        T = Tensor(4, 32, rng.uniform(-1, 1, size=32**4))
        X = rng.normal(size=(1000, 32))
        tracemalloc.start()
        try:
            values = form_values(T, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (1000,)
        assert peak <= 3 * core._CONTRACT_BUDGET_BYTES


class TestLinearCombine:
    def test_self_cancellation(self, counterexample_tensor):
        Z = linear_combine(counterexample_tensor, counterexample_tensor, -1.0)
        assert np.all(Z.data == 0.0)

    def test_unit_plus_all_one(self):
        T = linear_combine(unit_tensor(3, 2), partially_all_one(3, 2, {1, 2}), 1.0)
        assert T.entry((1, 1, 1)) == 2.0
        assert T.entry((1, 2, 1)) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linear_combine(unit_tensor(3, 2), unit_tensor(2, 2), 1.0)
