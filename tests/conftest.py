"""Shared fixtures: the two reference tensors exercised throughout, plus
random-instance generators used by the property and acceptance suites."""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest

from btensor import (
    Tensor,
    all_row_stats,
    is_quasi_double_b_tensor,
    is_double_b_tensor,
    linear_combine,
    make_tensor,
    partially_all_one,
)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail any test after which the cyclic garbage collector is switched or
    tuned differently than before it: the I/O paths pause the collector and
    must restore it on every exit, errors included."""
    before = gc.isenabled(), gc.get_threshold()
    yield
    after = gc.isenabled(), gc.get_threshold()
    assert after == before, f"collector (enabled, thresholds) went from {before} to {after}"


@pytest.fixture
def remark_tensor() -> Tensor:
    """Order-3 dim-2 example: quasi-double dominant but not double dominant,
    and not symmetric (entry (1,2,2) differs from (2,2,1))."""
    return make_tensor(3, 2, [
        ((1, 1, 1), 2.0),
        ((1, 2, 2), -0.3),
        ((2, 1, 1), -1.0),
        ((2, 1, 2), -0.3),
        ((2, 2, 1), -1.5),
        ((2, 2, 2), 2.0),
    ])


@pytest.fixture
def counterexample_tensor() -> Tensor:
    """Order-4 dim-2 symmetric tensor satisfying the pairwise product
    inequality yet indefinite (form is negative near x = (1, 1.2))."""
    return make_tensor(4, 2, [
        ((1, 1, 1, 1), 2.0),
        ((2, 2, 2, 2), 2.0),
        ((1, 2, 2, 2), -1.0),
        ((2, 1, 2, 2), -1.0),
        ((2, 2, 1, 2), -1.0),
        ((2, 2, 2, 1), -1.0),
    ])


# ---------------------------------------------------------------------------
# generators


def random_tensor(rng: np.random.Generator, order: int, dim: int,
                  low: float = -2.0, high: float = 2.0) -> Tensor:
    return Tensor(order, dim, rng.uniform(low, high, size=dim**order))


def symmetric_tensor_from_multisets(order: int, dim: int, assign) -> Tensor:
    """Symmetric tensor built by assigning one value per index multiset.

    ``assign(canon)`` maps a 0-based sorted multi-index tuple to a value.
    """
    data = np.zeros((dim,) * order)
    for canon in itertools.combinations_with_replacement(range(dim), order):
        value = assign(canon)
        for p in set(itertools.permutations(canon)):
            data[p] = value
    return Tensor(order, dim, data)


def random_z_quasi_dominant(rng: np.random.Generator, order: int, dim: int) -> Tensor:
    """Symmetric Z tensor with diagonal pinned above the dominance threshold,
    hence in the strict quasi class (and usually the double class too)."""

    def assign(canon):
        if len(set(canon)) == 1:
            return 0.0
        return -float(rng.uniform(0.0, 1.0))

    base = symmetric_tensor_from_multisets(order, dim, assign)
    stats = all_row_stats(base)
    data = np.array(base.data)
    soften = int(rng.integers(dim)) if rng.random() < 0.3 else -1
    for i0, st in enumerate(stats):
        if i0 == soften and dim >= 2:
            # at most one row may sit at or below its dominance threshold
            data[(i0,) * order] = st.r * float(rng.uniform(0.6, 1.0)) + 1e-6
        else:
            data[(i0,) * order] = st.r + float(rng.uniform(0.5, 1.5))
    return Tensor(order, dim, data)


def nested_row_sets(rng: np.random.Generator, dim: int, levels: int) -> list[frozenset[int]]:
    """Strictly shrinking chain of 1-based row subsets, each of size >= 2."""
    current = list(range(1, dim + 1))
    chain = [frozenset(current)]
    while len(chain) < levels and len(current) > 2:
        drop = int(rng.integers(len(current)))
        current = current[:drop] + current[drop + 1:]
        chain.append(frozenset(current))
    return chain[:levels]


def random_quasi_instance(
    rng: np.random.Generator,
    order: int,
    dim: int,
    require_double: bool = False,
    max_attempts: int = 200,
) -> Tensor:
    """Symmetric tensor in the (quasi-)double class built as a dominant Z
    tensor plus nested positively weighted all-one blocks, re-verified by
    the classifier (rejection sampled)."""
    predicate = is_double_b_tensor if require_double else is_quasi_double_b_tensor
    for _ in range(max_attempts):
        T = random_z_quasi_dominant(rng, order, dim)
        levels = int(rng.integers(0, 3))
        for members in nested_row_sets(rng, dim, levels):
            h = float(rng.uniform(0.05, 0.6))
            T = linear_combine(T, partially_all_one(order, dim, members), h)
        if predicate(T):
            return T
    raise AssertionError(f"no accepted instance in {max_attempts} attempts (order={order}, dim={dim})")
