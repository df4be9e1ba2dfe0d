"""The orbit index behind symmetrize, the asymmetry scan and the boundary
samplers, checked bit for bit against the permutation loops it replaced.
The loops below are the reference and stay here."""

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from btensor import PreconditionError, Tensor, all_row_stats, decompose, symmetrize
from btensor.core import _orbit_index
from btensor.decompose import _find_asymmetry
from btensor.oracle import (
    _GRID_DENOM,
    _anchored_row_sample,
    _boundary_tie_sample,
    _symmetric_offdiag,
)

SHAPES = [(2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2), (5, 3), (6, 2), (6, 4), (4, 6)]


def orbits(order, dim):
    """Every orbit as its sorted list of positions, in lexicographic order."""
    for canon in itertools.combinations_with_replacement(range(dim), order):
        yield sorted(set(itertools.permutations(canon)))


def ref_symmetrize(T):
    data = np.empty_like(T.data)
    for orbit in orbits(T.order, T.dim):
        val = sum(float(T.data[p]) for p in orbit) / len(orbit)
        for p in orbit:
            data[p] = val
    return data


def ref_find_asymmetry(T):
    for orbit in orbits(T.order, T.dim):
        ref = float(T.data[orbit[0]])
        for p in orbit[1:]:
            if float(T.data[p]) != ref:
                return tuple(k + 1 for k in orbit[0]), tuple(k + 1 for k in p)
    return None


def ref_symmetric_offdiag(rng, order, dim):
    data = np.zeros((dim,) * order)
    for orbit in orbits(order, dim):
        if len(orbit) == 1:
            continue
        value = rng.integers(-_GRID_DENOM, _GRID_DENOM + 1) / _GRID_DENOM
        for p in orbit:
            data[p] = value
    return data


def ref_boundary_tie_sample(rng, order, dim):
    data = ref_symmetric_offdiag(rng, order, dim)
    for i0, st in enumerate(all_row_stats(Tensor(order, dim, data))):
        data[(i0,) * order] = st.beta + st.delta
    return data


def ref_anchored_row_sample(rng, order, dim):
    data = ref_symmetric_offdiag(rng, order, dim)
    special = int(rng.integers(dim))
    c = rng.integers(0, _GRID_DENOM + 1) / _GRID_DENOM
    for orbit in orbits(order, dim):
        if special in orbit[0] and len(orbit) > 1:
            for p in orbit:
                data[p] = c
    data[(special,) * order] = c
    for i0, st in enumerate(all_row_stats(Tensor(order, dim, data))):
        if i0 == special:
            continue
        slack = rng.integers(0, _GRID_DENOM // 2 + 1) / _GRID_DENOM
        data[(i0,) * order] = st.beta + st.delta + slack
    return data


def same_bits(a, b):
    return a.shape == b.shape and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("order,dim", SHAPES)
def test_orbit_index_ranks_sorted_multi_indices(order, dim):
    rank = _orbit_index(order, dim)
    canon = list(itertools.combinations_with_replacement(range(dim), order))
    expected = [canon.index(tuple(sorted(p))) for p in np.ndindex((dim,) * order)]
    assert rank.tolist() == expected
    assert not rank.flags.writeable


def test_orbit_index_needs_less_memory_than_the_tensor():
    order, dim = 6, 8
    tracemalloc.start()
    try:
        _orbit_index.__wrapped__(order, dim)  # uncached build
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim**order


def test_symmetric_input_skips_the_orbit_index(monkeypatch):
    def fail(order, dim):
        raise AssertionError("orbit index built for a symmetric tensor")

    # the package exports a function of the same name as the module
    monkeypatch.setattr(importlib.import_module("btensor.decompose"), "_orbit_index", fail)
    T = symmetrize(Tensor(4, 3, np.random.default_rng(1).normal(size=81)))
    assert _find_asymmetry(T) is None


@pytest.mark.parametrize("order,dim", SHAPES)
def test_symmetrize_bit_identical(order, dim):
    rng = np.random.default_rng(order * 10 + dim)
    # mixed magnitudes make the summation order visible in the last bits
    data = rng.normal(size=dim**order) * 10.0 ** rng.integers(-4, 5, size=dim**order)
    T = Tensor(order, dim, data)
    assert same_bits(symmetrize(T).data, ref_symmetrize(T))


@pytest.mark.parametrize("order,dim", [(2, 3), (3, 2), (4, 2), (4, 3), (6, 2), (4, 4)])
def test_samplers_bit_identical_and_leave_the_same_generator_state(order, dim):
    pairs = [
        (_symmetric_offdiag, ref_symmetric_offdiag),
        (lambda r, o, d: _boundary_tie_sample(r, o, d).data, ref_boundary_tie_sample),
        (lambda r, o, d: _anchored_row_sample(r, o, d).data, ref_anchored_row_sample),
    ]
    for new, ref in pairs:
        for seed in range(4):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_bits(new(a, order, dim), ref(b, order, dim))
            assert a.integers(2**62) == b.integers(2**62)


@pytest.mark.parametrize("order,dim", [(3, 2), (3, 3), (4, 3), (5, 2), (4, 4)])
def test_asymmetry_pair_matches_the_orbit_loop(order, dim):
    rng = np.random.default_rng(order * 7 + dim)
    base = symmetrize(Tensor(order, dim, rng.integers(-3, 4, size=dim**order)))
    assert _find_asymmetry(base) is None
    offdiag = [k for k, p in enumerate(np.ndindex(base.shape)) if len(set(p)) > 1]
    for _ in range(10):
        data = np.array(base.data).ravel()
        # several asymmetric orbits, so the first-pair order matters
        for pos in rng.choice(offdiag, size=4, replace=False):
            data[pos] += float(rng.integers(1, 3))
        T = Tensor(order, dim, data)
        expected = ref_find_asymmetry(T)
        assert expected is not None
        assert _find_asymmetry(T) == expected
        with pytest.raises(PreconditionError) as err:
            decompose(T)
        assert str(err.value) == (
            f"input is not symmetric: entries at {expected[0]} and {expected[1]} differ"
        )
