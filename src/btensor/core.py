"""Dense real tensors of order m and dimension n, plus the multilinear
form machinery everything else is built on.

A tensor here is an array ``a[i1, ..., im]`` with every index ranging over
``{1, ..., n}``.  Entries are stored densely in C order, so the first index
varies slowest.  All indices in the public interface are 1-based (converted
once at this boundary); the raw ``.data`` array is an ordinary 0-based
numpy array.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "Tensor",
    "make_tensor",
    "unit_tensor",
    "partially_all_one",
    "is_symmetric",
    "symmetrize",
    "form_value",
    "apply",
    "form_values",
    "apply_many",
    "linear_combine",
    "is_diagonal_index",
]


# Byte budget for the (n^(m-1), chunk) intermediate of the batched
# contraction behind form_values/apply_many.
_CONTRACT_BUDGET_BYTES = 16 * 2**20

# Largest dense tensor, n^m float64 values, that the constructors and the
# file loader will allocate (1 GiB: m=4 up to n=107, m=6 up to n=22, m=8 up
# to n=10).  Larger shapes are refused with a ValueError before any array
# exists, since the classifiers and the decomposition hold several arrays of
# that size at once.
_TENSOR_BUDGET_BYTES = 2**30


def is_diagonal_index(index: tuple[int, ...]) -> bool:
    """True iff all components of the multi-index are equal."""
    return len(set(index)) == 1


class Tensor:
    """Immutable dense real tensor of order ``m >= 2`` and dimension ``n >= 1``.

    Parameters
    ----------
    order : int
        Number of indices m.
    dim : int
        Range n of each index.
    data : array_like
        ``n**m`` finite real values in shape ``(n,)*m`` (or anything that
        reshapes to it), first index slowest.
    name : str, optional
        Free-form label carried through serialization; ignored by ``==``.
    """

    __slots__ = ("order", "dim", "data", "name")

    def __init__(self, order: int, dim: int, data, name: str | None = None):
        _check_shape(order, dim)
        arr = np.array(data, dtype=np.float64, copy=True)
        if arr.size != dim**order:
            raise ValueError(
                f"expected {dim ** order} entries for order {order} dim {dim}, got {arr.size}"
            )
        arr = np.ascontiguousarray(arr.reshape((dim,) * order))
        if not np.all(np.isfinite(arr)):
            bad = tuple(int(k) + 1 for k in np.argwhere(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite entry at index {bad}")
        arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def entry(self, index: Iterable[int]) -> float:
        """Entry at a 1-based multi-index."""
        idx = tuple(index)
        _check_index(idx, self.order, self.dim)
        return float(self.data[tuple(k - 1 for k in idx)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.order, self.dim, self.data.tobytes()))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor(order={self.order}, dim={self.dim}{label})"


def _check_shape(order: int, dim: int) -> None:
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if order > sys.maxsize:
        raise OverflowError("order does not fit an index-sized integer")
    # past the budget's bit length every dim >= 2 is over it, and dim**order
    # is not computed
    if dim > 1 and (
        order >= _TENSOR_BUDGET_BYTES.bit_length() or 8 * dim**order > _TENSOR_BUDGET_BYTES
    ):
        raise ValueError(
            f"a dense tensor of order {order} and dim {dim} needs more than the "
            f"{_TENSOR_BUDGET_BYTES} bytes allowed"
        )


def _check_index(index: tuple[int, ...], order: int, dim: int) -> None:
    if len(index) != order:
        raise ValueError(f"multi-index {index} has length {len(index)}, expected {order}")
    for k in index:
        if not (1 <= int(k) <= dim):
            raise ValueError(f"index component {k} out of range 1..{dim} in {index}")


def make_tensor(
    order: int,
    dim: int,
    entries: Iterable[tuple[tuple[int, ...], float]],
    name: str | None = None,
) -> Tensor:
    """Build a tensor from a sparse list of ``(multi_index, value)`` pairs.

    Multi-indices are 1-based iterables of integers.  Unlisted entries are
    zero.  The list is validated in bulk, and the error names the first
    entry, in list order, whose multi-index has the wrong length, a
    component out of range, or repeats an earlier one (naming both
    positions).
    """
    pairs = list(entries)
    return _tensor_from_rows(
        order, dim, [tuple(index) for index, _ in pairs], [value for _, value in pairs], name
    )


def _tensor_from_rows(order: int, dim: int, rows: list, values, name: str | None) -> Tensor:
    """:func:`make_tensor` from its multi-indices as a list of sequences,
    converted once to an index array up to the first of the wrong length."""
    _check_shape(order, dim)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    stop = _first_true(lengths != order, len(rows))
    try:
        idx = np.array(rows[:stop], dtype=np.intp).reshape(stop, order)
    except OverflowError:  # components past intp are out of range; compare them as objects
        idx = np.array(rows[:stop], dtype=object).reshape(stop, order)
    misfit = rows[stop] if stop < len(rows) else None
    return _tensor_from_columns(order, dim, idx, values, name, misfit)


def _tensor_from_columns(
    order: int, dim: int, idx: np.ndarray, values, name: str | None, misfit=None
) -> Tensor:
    """:func:`make_tensor` from its multi-indices as an ``(N, order)`` integer
    (or object) array and its N values.  ``misfit`` is a multi-index of the
    wrong length that follows the N rows; its error comes after theirs."""
    _check_shape(order, dim)
    data = np.zeros((dim,) * order)
    # `stop` is the first entry whose range is wrong (len(idx) if none)
    stop = _first_true(((idx < 1) | (idx > dim)).any(axis=1), len(idx))
    flat = np.ravel_multi_index(tuple(idx[:stop].astype(np.intp, copy=False).T - 1), data.shape)
    # each entry writes its position into its cell: a cell that reads back
    # another entry's position is shared
    cells = data.reshape(-1)
    positions = np.arange(stop, dtype=np.float64)
    cells[flat] = positions
    if (cells[flat] != positions).any():
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        earlier = first[inverse]
        repeat = _first_true(earlier != np.arange(stop), stop)
        key = tuple(int(k) for k in idx[repeat])
        raise ValueError(
            f"duplicate multi-index {key} at entries {int(earlier[repeat])} and {repeat}"
        )
    if stop < len(idx):
        _check_index(tuple(int(k) for k in idx[stop]), order, dim)
    if misfit is not None:
        _check_index(tuple(int(k) for k in misfit), order, dim)
    cells[flat] = values
    return Tensor(order, dim, data, name=name)


def _first_true(mask: np.ndarray, default: int) -> int:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


def unit_tensor(order: int, dim: int) -> Tensor:
    """Identity-like tensor: 1 on the diagonal ``(i, ..., i)``, 0 elsewhere."""
    _check_shape(order, dim)
    data = np.zeros((dim,) * order)
    for i in range(dim):
        data[(i,) * order] = 1.0
    return Tensor(order, dim, data)


def partially_all_one(order: int, dim: int, members: Iterable[int]) -> Tensor:
    """Tensor that is 1 exactly where every index lies in ``members``.

    ``members`` is a nonempty 1-based subset of ``{1, ..., dim}``.  With
    ``members`` equal to the full index set this is the all-one tensor.
    """
    J = sorted({int(k) for k in members})
    if not J:
        raise ValueError("members must be a nonempty subset of {1, ..., dim}")
    for k in J:
        if not (1 <= k <= dim):
            raise ValueError(f"member {k} out of range 1..{dim}")
    _check_shape(order, dim)
    mask = np.zeros(dim, dtype=bool)
    mask[[k - 1 for k in J]] = True
    data = np.ones((dim,) * order)
    for axis in range(order):
        shape = [1] * order
        shape[axis] = dim
        data = data * mask.reshape(shape)
    return Tensor(order, dim, data)


def is_symmetric(T: Tensor) -> bool:
    """Exact (tolerance-free) invariance under every permutation of the indices.

    Checked via the adjacent transpositions, which generate the full
    permutation group.
    """
    for k in range(T.order - 1):
        if not np.array_equal(T.data, T.data.swapaxes(k, k + 1)):
            return False
    return True


@lru_cache(maxsize=32)
def _orbit_index(order: int, dim: int) -> np.ndarray:
    """Read-only orbit rank of every flat position: the lexicographic rank of
    its sorted multi-index, i.e. its place in ``combinations_with_replacement``.

    With ``K_u`` indices ``<= u``, the smaller sorted sequences branch off
    at place ``K_u`` with value ``u`` (if ``K_u < m``), then run through any
    sorted tail over ``{u, ..., n-1}``; the rank sums these counts, no sort.
    """
    dtype = np.int32 if comb(dim + order - 1, order) <= np.iinfo(np.int32).max else np.int64
    count = np.zeros((dim,) * order, dtype=np.uint8)  # K_u at every position
    rank = np.zeros(dim**order, dtype=dtype)
    for u in range(dim - 1):
        for axis in range(order):
            count[(slice(None),) * axis + (u,)] += 1
        tails = [comb(dim - u + order - k - 2, order - k - 1) for k in range(order)]
        table = np.array(tails + [0], dtype=dtype)
        # the lookup widens its indices to intp, so it runs slice by slice
        for lo in range(0, rank.size, 2**16):
            rank[lo:lo + 2**16] += table[count.reshape(-1)[lo:lo + 2**16]]
    rank.setflags(write=False)
    return rank


def symmetrize(T: Tensor) -> Tensor:
    """Average of a tensor over all permutations of its indices.

    The orbit mean is computed once per index multiset and written to every
    position of the orbit, so the result passes :func:`is_symmetric` exactly.
    Symmetric inputs are returned unchanged.
    """
    if is_symmetric(T):
        return T
    rank = _orbit_index(T.order, T.dim)
    mean = np.bincount(rank, weights=T.data.ravel()) / np.bincount(rank)
    return Tensor(T.order, T.dim, mean[rank])


def _check_vector(T: Tensor, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (T.dim,):
        raise ValueError(f"vector has shape {x.shape}, expected ({T.dim},)")
    return x


def _contract(T: Tensor, X: np.ndarray, keep_first: bool) -> np.ndarray:
    # One BLAS product contracts the last slot of every vector in a chunk;
    # each remaining slot is a per-vector matrix-vector product on an array
    # n times smaller.  Chunks keep the first product, n^(m-1) values per
    # vector, within _CONTRACT_BUDGET_BYTES.
    n = T.dim
    A = T.data.reshape(-1, n)
    chunk = max(1, _CONTRACT_BUDGET_BYTES // (8 * A.shape[0]))
    slots = T.order - 2 if keep_first else T.order - 1
    out = np.empty((X.shape[0], n if keep_first else 1))
    for lo in range(0, X.shape[0], chunk):
        Xc = X[lo:lo + chunk]
        cur = Xc @ A.T
        for _ in range(slots):
            cur = np.matmul(cur.reshape(len(Xc), -1, n), Xc[:, :, None])[:, :, 0]
        out[lo:lo + chunk] = cur
    return out


def form_value(T: Tensor, x) -> float:
    """Full m-form contraction sum over all entries of ``a[i1..im] * x[i1] ... x[im]``."""
    x = _check_vector(T, x)
    return float(_contract(T, x[None, :], keep_first=False)[0, 0])


def apply(T: Tensor, x) -> np.ndarray:
    """Contraction over the last m-1 slots; component i is the row-i sum
    of ``a[i, i2..im] * x[i2] ... x[im]``."""
    x = _check_vector(T, x)
    return _contract(T, x[None, :], keep_first=True)[0]


def form_values(T: Tensor, X: np.ndarray) -> np.ndarray:
    """Batched :func:`form_value` for an ``(N, n)`` array of vectors."""
    X = np.asarray(X, dtype=np.float64)
    return _contract(T, X, keep_first=False)[:, 0]


def apply_many(T: Tensor, X: np.ndarray) -> np.ndarray:
    """Batched :func:`apply` for an ``(N, n)`` array of vectors."""
    X = np.asarray(X, dtype=np.float64)
    return _contract(T, X, keep_first=True)


def linear_combine(T: Tensor, U: Tensor, c: float) -> Tensor:
    """Entrywise ``T + c * U`` for tensors of identical order and dimension."""
    if (T.order, T.dim) != (U.order, U.dim):
        raise ValueError(
            f"shape mismatch: order/dim ({T.order}, {T.dim}) vs ({U.order}, {U.dim})"
        )
    return Tensor(T.order, T.dim, T.data + c * U.data)
