"""Masked indexing, SPD factors, eigenvalue extremes, subset enumeration
and the batched computations over it: principal submatrices gathered from
chunks of subset index arrays, and the greedy-minibatch quadratic forms.

Coordinate indices are 0-based internally.  All user-facing I/O (configs,
trace files) converts to 1-based.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf

#: Hard default on the number of subsets any exact enumeration may visit.
DEFAULT_ENUMERATION_BUDGET = 2_000_000

SYMMETRY_RTOL = 1e-12

#: Working memory of one chunk of any walk over the cardinality-tau subsets
#: (`rates.L_tau`, `rates.expected_inverse_matrix`, `block_inverse_forms`):
#: the stacked tau x tau arrays of 8-byte entries its subsets need.
SUBSET_CHUNK_BYTES = 2**20

#: Bytes of Cholesky factors an objective keeps (`Objective.factor_for`),
#: summed over the factors' arrays; a single larger factor is kept alone.
FACTOR_CACHE_BYTES = 2**24


class InvalidSetError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


class EnumerationTooLargeError(ValueError):
    """Raised when C(n, tau) exceeds the enumeration budget."""


@dataclass(frozen=True)
class CoordSet:
    """A non-empty, strictly increasing set of coordinate indices in [0, n).

    `array` and `block_text` are derived once per set object, on first read,
    and kept on it; the set is frozen, so neither can be assigned.
    """

    indices: tuple[int, ...]
    ambient_dim: int

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise InvalidSetError("coordinate set must be non-empty")
        if not all(map(operator.lt, idx, idx[1:])):
            raise InvalidSetError(f"indices must be strictly increasing: {idx}")
        if idx[0] < 0 or idx[-1] >= self.ambient_dim:
            raise InvalidSetError(
                f"indices {idx} out of range for dimension {self.ambient_dim}"
            )

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The indices as a read-only intp array, built on first read."""
        arr = np.array(self.indices, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    @functools.cached_property
    def block_text(self) -> str:
        """The 1-based indices joined by ';', the `block` field of a trace
        CSV row, built on first read."""
        return ";".join(map(str, self.one_based()))

    def is_full(self) -> bool:
        return len(self.indices) == self.ambient_dim

    @staticmethod
    def full(n: int) -> "CoordSet":
        return CoordSet(tuple(range(n)), n)

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.indices)


def check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric to within tolerance")
    return M


def mask_vector(x: np.ndarray, S: CoordSet) -> np.ndarray:
    """Entries of x with indices in S, as a dense |S|-vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (S.ambient_dim,):
        raise InvalidSetError(
            f"vector of dim {x.shape} does not match ambient dim {S.ambient_dim}"
        )
    return x[S.array]


def spd_factor(M: np.ndarray):
    """Lower Cholesky factor of M as `(c, True)`, the bytes and layout of
    `scipy.linalg.cho_factor(M, lower=True)` through the same LAPACK call
    without its wrapper.  Raises ValueError on a non-square or non-finite M
    and NotPositiveDefiniteError when M is not positive definite."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(M, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c, True


def is_spd(M: np.ndarray) -> bool:
    try:
        spd_factor(M)
        return True
    except NotPositiveDefiniteError:
        return False


def eig_extremes(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix."""
    w = np.linalg.eigvalsh(check_symmetric(M))
    return float(w[0]), float(w[-1])


def subset_count(n: int, tau: int) -> int:
    return math.comb(n, tau)


def _check_enumeration(n: int, tau: int, budget: int) -> None:
    if not 1 <= tau <= n:
        raise InvalidSetError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    count = subset_count(n, tau)
    if count > budget:
        raise EnumerationTooLargeError(
            f"C({n},{tau}) = {count} exceeds enumeration budget {budget}"
        )


def enumerate_subsets(n: int, tau: int, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Yield every cardinality-tau CoordSet in lexicographic order."""
    _check_enumeration(n, tau, budget)
    for combo in itertools.combinations(range(n), tau):
        yield CoordSet(combo, n)


def subset_index_chunks(n: int, tau: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET,
                        rows: int = 2**16):
    """Every cardinality-tau subset of range(n) in lexicographic order, as
    consecutive (k, tau) intp arrays of at most `rows` rows each; the walks
    over them size `rows` by `chunk_rows`, within SUBSET_CHUNK_BYTES.

    Raises on a bad tau or EnumerationTooLargeError when called, before any
    row is built; the chunks are then produced lazily.
    """
    _check_enumeration(n, tau, budget)
    rows = max(1, int(rows))

    def chunks():
        combos = itertools.combinations(range(n), tau)
        row = np.dtype((np.intp, tau))
        while True:
            chunk = np.fromiter(itertools.islice(combos, rows), dtype=row)
            if not len(chunk):
                return
            yield chunk

    return chunks()


def chunk_rows(tau: int, arrays: int = 1, extra: int = 0) -> int:
    """Subsets per chunk so that `arrays` stacked tau x tau arrays, plus
    `extra` entries, of 8 bytes each per subset fit in SUBSET_CHUNK_BYTES."""
    return max(1, SUBSET_CHUNK_BYTES // (8 * (arrays * tau * tau + extra)))


def gather_blocks(M: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The principal submatrices M[S, S] of the rows S of `subsets`, stacked."""
    return M[subsets[:, :, None], subsets[:, None, :]]


class BlockInverseForms(NamedTuple):
    """The quadratic forms g_S' inv(M[S, S]) g_S of every cardinality-tau
    set S, as weights on the pairs a <= b of positions in S: inv_aa on the
    diagonal and inv_ab + inv_ba off it.  Row S of `weights` holds them at
    the columns S_a * n + S_b, so that the forms at g are one sparse
    product with outer(g, g), each row summed in pair order."""

    subsets: np.ndarray  # (count, tau): the sets in lexicographic order
    weights: scipy.sparse.csr_array  # (count, n * n), tau (tau + 1) / 2 per row

    def values(self, g: np.ndarray) -> np.ndarray:
        """g_S' inv(M[S, S]) g_S for every set S, in enumeration order."""
        return self.weights @ np.multiply.outer(g, g).ravel()


def block_inverse_forms(M: np.ndarray, tau: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockInverseForms:
    """`BlockInverseForms` of M, built a chunk of subsets at a time (the
    blocks and their inverses within SUBSET_CHUNK_BYTES) into preallocated
    tables of the smallest index types that hold them.

    Raises EnumerationTooLargeError, before allocating, when C(n, tau)
    exceeds the budget.
    """
    # imported here rather than with the module: it adds about 2 MB of
    # resident memory that no other path needs
    import scipy.sparse

    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    chunks = subset_index_chunks(n, tau, budget, chunk_rows(tau, 2))
    count = subset_count(n, tau)
    a, b = np.triu_indices(tau)
    off = a < b
    pairs = len(a)
    index = np.int32 if max(n * n, count * pairs) <= np.iinfo(np.int32).max else np.int64
    subsets = np.empty((count, tau), dtype=np.min_scalar_type(n - 1))
    data = np.empty((count, pairs))
    columns = np.empty((count, pairs), dtype=index)
    start = 0
    for chunk in chunks:
        stop = start + len(chunk)
        inv = np.linalg.inv(gather_blocks(M, chunk))
        data[start:stop] = inv[:, a, b]
        data[start:stop, off] += inv[:, b[off], a[off]]
        columns[start:stop] = chunk[:, a] * n + chunk[:, b]  # increasing along a row
        subsets[start:stop] = chunk
        start = stop
    indptr = np.arange(0, count * pairs + 1, pairs, dtype=index)
    weights = scipy.sparse.csr_array((data.ravel(), columns.ravel(), indptr),
                                     shape=(count, n * n))
    subsets.setflags(write=False)  # shared by every rule that reads them
    weights.data.setflags(write=False)
    return BlockInverseForms(subsets, weights)
