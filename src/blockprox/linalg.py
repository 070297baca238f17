"""SPD factors and solves, eigenvalue extremes, and the subset walk every
exact table reads: lexicographic chunks of subset index arrays unranked in
numpy (`subset_index_chunks`), the principal submatrices gathered from them,
and the greedy-minibatch quadratic forms, whose weights also give
E[inv(M_S)] (`rates.expected_inverse_matrix`).

This is the one module that calls LAPACK directly, and only through
`spd_factor`, `factor_solve` and `spd_solve`, each call without scipy's
checked wrappers and with their bytes; the caller vouches for its inputs as
stated per function.  The table's blocks are inverted in numpy, a chunk at a
time (`spd_inverses`), with no LAPACK call per block.

Coordinate indices are 0-based internally.  All user-facing I/O (configs,
trace files) converts to 1-based.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv, dpotrf, dpotrs

#: Hard default on the number of subsets any exact enumeration may visit.
DEFAULT_ENUMERATION_BUDGET = 2_000_000

SYMMETRY_RTOL = 1e-12

#: Working memory of one chunk of either walk over the cardinality-tau
#: subsets, in stacked tau x tau arrays of 8-byte entries (`chunk_rows`):
#: three for `rates.L_tau` (the chunk's flat block index, its gather of |M|
#: and its gather of M) and five for `block_inverse_forms` (the flat index,
#: the gather of M, and `spd_inverses`' factor, the factor's inverse and
#: their product; as the factor is freed before the product, the fifth
#: holds a temporary of terms and the chunk's index rows).  Block steps
#: keep no factor: each solves its gather by one `spd_solve`.  The same
#: budget sizes a chunk of a diagnostics run's iterates (`descent.run`),
#: 16 n bytes a row for the iterate's gradient and x, whose certificate
#: totals are taken in one pass (a few temporaries of the chunk's size),
#: and bounds the forms an objective keeps after taking E from them
#: (`Objective.expected_inverse`).
SUBSET_CHUNK_BYTES = 2**20


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

    @classmethod
    def _trusted(cls, indices: tuple[int, ...], n: int, array: np.ndarray) -> "CoordSet":
        """The set a draw or a sorted pick has built: `indices` strictly
        increasing Python ints in [0, n), and `array` the same indices as an
        intp array, which becomes the set's read-only `array`.  The public
        constructor's checks are skipped; the caller vouches for them."""
        S = object.__new__(cls)
        array.setflags(write=False)
        # set as the frozen dataclass's __init__ sets its fields, so the
        # instance keeps the compact dict its class's instances share
        object.__setattr__(S, "indices", indices)
        object.__setattr__(S, "ambient_dim", n)
        object.__setattr__(S, "array", array)
        return S

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


def _square(M: np.ndarray, finite: bool = True) -> np.ndarray:
    """M as a float array, or ValueError unless square (and `finite`)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if finite and not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    return M


def check_symmetric(M: np.ndarray) -> np.ndarray:
    """M as a float array, or ValueError unless finite, square and symmetric."""
    M = _square(M)
    scale = max(1.0, float(np.abs(M).max()))
    if not np.abs(M - M.T).max() <= SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric to within tolerance")
    return M


def _check_info(info: int, routine: str) -> None:
    """The exception of a LAPACK Cholesky call's nonzero `info`."""
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def spd_factor(M: np.ndarray):
    """Lower Cholesky factor of M as `(c, True)`, the bytes and layout of
    `scipy.linalg.cho_factor(M, lower=True)` through the same LAPACK call
    without its wrapper.  Raises ValueError on a non-square or non-finite M
    and NotPositiveDefiniteError when M is not positive definite."""
    c, info = dpotrf(_square(M), lower=1, clean=0)
    _check_info(info, "potrf")
    return c, True


def factor_solve(factor, b: np.ndarray) -> np.ndarray:
    """x with A x = b given `spd_factor(A)`: LAPACK `dpotrs`, the call and
    bytes of `scipy.linalg.cho_solve` without its input checks."""
    c, lower = factor
    x, info = dpotrs(c, b, lower=int(lower))
    _check_info(info, "potrs")
    return x


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b by one LAPACK `dposv(lower=1)`, the bits of `spd_factor`
    and `dpotrs`; A's finiteness is not checked (an objective checks M once).
    Raises ValueError on a non-square A, NotPositiveDefiniteError on a non-SPD one."""
    _, x, info = dposv(_square(A, finite=False), b, lower=1)
    _check_info(info, "posv")
    return x


def eig_extremes(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix."""
    w = np.linalg.eigvalsh(check_symmetric(M))
    return float(w[0]), float(w[-1])


def subset_count(n: int, tau: int) -> int:
    return math.comb(n, tau)


def _check_enumeration(n: int, tau: int, budget: int) -> int:
    if not 1 <= tau <= n:
        raise InvalidSetError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    count = subset_count(n, tau)
    if count > budget:
        raise EnumerationTooLargeError(
            f"C({n},{tau}) = {count} exceeds enumeration budget {budget}"
        )
    if count > np.iinfo(np.int64).max:  # the walk's ranks are int64
        raise EnumerationTooLargeError(f"C({n},{tau}) = {count} exceeds the int64 range")
    return count


def enumerate_subsets(n: int, tau: int, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Yield each cardinality-tau CoordSet, in lexicographic order, from `subset_index_chunks`."""
    for chunk in subset_index_chunks(n, tau, budget):
        for row in chunk:
            yield CoordSet._trusted(tuple(row.tolist()), n, row.copy())


def subset_index_chunks(n: int, tau: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET,
                        rows: int = 2**16):
    """Every cardinality-tau subset of range(n) in lexicographic order, as
    consecutive (k, tau) intp arrays of at most `rows` rows each; the walks
    over them size `rows` by `chunk_rows`, within SUBSET_CHUNK_BYTES.

    Chunks are unranked from int64 ranks: rank r's set is S_j = n - 1 - a_j
    with C(n, tau) - 1 - r = sum_j C(a_j, tau - j), a_0 > a_1 > ... (the
    combinatorial number system), one `searchsorted` per position.  Raises
    on a bad tau, or EnumerationTooLargeError past the budget or int64, when
    called, before any row is built; the chunks are then produced lazily.
    """
    total = _check_enumeration(n, tau, budget)
    rows = max(1, int(rows))
    # remainders stay below C(n, tau): clipped there, every table fits in int64
    tables = [np.array([min(math.comb(a, k), total) for a in range(n)], np.int64)
              for k in range(tau, 0, -1)]

    def chunks():
        for last in range(total - 1, -1, -rows):
            remainder = np.arange(last, max(last - rows, -1), -1, dtype=np.int64)
            chunk = np.empty((len(remainder), tau), dtype=np.intp)
            for j, table in enumerate(tables):
                digit = table.searchsorted(remainder, side="right") - 1
                remainder -= table[digit]
                chunk[:, j] = n - 1 - digit
            yield chunk

    return chunks()


def chunk_rows(tau: int, arrays: int) -> int:
    """Subsets per chunk so that a walk's `arrays` stacked tau x tau arrays
    of 8-byte entries fit in SUBSET_CHUNK_BYTES."""
    return max(1, SUBSET_CHUNK_BYTES // (arrays * 8 * tau * tau))


def _flat_index_sets_last(n: int, subsets: np.ndarray) -> np.ndarray:
    """The flat indices S_a * n + S_b of each row S of `subsets` in an n x n
    matrix, laid out [a, b, S] (sets last, so numpy builds them in long
    inner loops)."""
    positions = np.ascontiguousarray(subsets.T)
    return (positions * n)[:, None, :] + positions[None, :, :]


def _gather_sets_last(M: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """M[S, S] for each row S of `subsets`, shape (tau, tau, rows), taken at
    `_flat_index_sets_last`; a C-contiguous M is read without a copy."""
    return M.ravel().take(_flat_index_sets_last(M.shape[0], subsets))


def gather_blocks(M: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """M[S, S] for each row S of `subsets`, stacked: a (rows, tau, tau) view
    of `_gather_sets_last`."""
    return _gather_sets_last(M, subsets).transpose(2, 0, 1)


def spd_inverses(blocks: np.ndarray) -> np.ndarray:
    """inv(B) for each SPD block B = blocks[:, :, s] of a (tau, tau, rows)
    stack, in the same layout and exactly symmetric, by numpy calls
    vectorized over the sets: O(tau) of them, each over at most
    tau * tau * rows entries, and no LAPACK call per block.

    The lower Cholesky factor L is built column by column (left-looking,
    so `blocks` is only read; L's diagonal is kept only as its reciprocals,
    the diagonal of X), its inverse X row by row, and inv(B) = X' X as the
    sum over k of the outer products of X's rows, so entries (a, b) and
    (b, a) add the same terms in the same order.  Besides `blocks`, at most
    three stacks of its size are alive at once: L or the product, X, and
    one temporary of terms.  Raises NotPositiveDefiniteError, whose `block`
    is the index of the first set that is not positive definite, before the
    square root of a pivot that is not positive.
    """
    tau = blocks.shape[0]
    factor = np.empty_like(blocks)
    inverse = np.zeros_like(blocks)  # of the factor: lower triangular
    for j in range(tau):
        column = blocks[j:, j] - (factor[j:, :j] * factor[j, :j]).sum(axis=1)
        positive = column[0] > 0
        if not positive.all():
            first = int(positive.argmin())
            spd_inverses(blocks[:, :, :first])  # raises for an earlier set failing later
            error = NotPositiveDefiniteError(
                f"{j + 1}-th leading minor of block {first} is not positive definite")
            error.block = first
            raise error
        inverse[j, j] = reciprocal = 1.0 / np.sqrt(column[0])
        factor[j + 1:, j] = column[1:] * reciprocal
    for i in range(1, tau):
        inverse[i, :i] = (factor[i, :i, None] * inverse[:i, :i]).sum(axis=0) * -inverse[i, i]
    del factor  # not read again: freed before the product is allocated
    product = np.zeros_like(blocks)
    for k in range(tau):
        row = inverse[k, :k + 1]
        product[:k + 1, :k + 1] += row[:, None] * row[None, :]
    return product


class BlockInverseForms(NamedTuple):
    """The quadratic forms g_S' inv(M[S, S]) g_S of every cardinality-tau
    set S, as weights on the pairs a <= b of positions in S: inv_aa on the
    diagonal and 2 inv_ab off it, inv(M[S, S]) being exactly symmetric
    (`spd_inverses`).  Row S of `weights` holds them at the columns
    S_a * n + S_b, so that the forms at g are one sparse product with
    outer(g, g), each row summed in pair order, and their mean over the
    sets is E[inv(M_S)] (`rates.expected_inverse_matrix`)."""

    subsets: np.ndarray  # (count, tau): the sets in lexicographic order
    weights: scipy.sparse.csr_array  # (count, n * n), tau (tau + 1) / 2 per row

    def values(self, g: np.ndarray) -> np.ndarray:
        """g_S' inv(M[S, S]) g_S for every set S, in enumeration order."""
        return self.weights @ np.multiply.outer(g, g).ravel()

    @property
    def nbytes(self) -> int:
        """The bytes of the tables' arrays."""
        w = self.weights
        return self.subsets.nbytes + w.data.nbytes + w.indices.nbytes + w.indptr.nbytes


def block_inverse_forms(M: np.ndarray, tau: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET) -> BlockInverseForms:
    """`BlockInverseForms` of M, built a chunk of subsets at a time (the
    flat index, the blocks and `spd_inverses`' arrays within
    SUBSET_CHUNK_BYTES) into tables of the smallest index types that hold
    them, allocated before the walk starts.

    Raises EnumerationTooLargeError, before allocating, when C(n, tau)
    exceeds the budget, and NotPositiveDefiniteError naming the first set
    S (1-based) whose block M[S, S] is not positive definite.
    """
    # imported here rather than with the module: it adds about 2 MB of
    # resident memory that no other path needs
    import scipy.sparse

    M = np.ascontiguousarray(M, dtype=float)
    n = M.shape[0]
    chunks = subset_index_chunks(n, tau, budget, chunk_rows(tau, arrays=5))
    count = subset_count(n, tau)
    a, b = np.triu_indices(tau)
    pairs = len(a)
    scale = np.where(a < b, 2.0, 1.0)[:, None]
    index = np.int32 if max(n * n, count * pairs) <= np.iinfo(np.int32).max else np.int64
    subsets = np.empty((count, tau), dtype=np.min_scalar_type(n - 1))
    data = np.empty((count, pairs))
    columns = np.empty((count, pairs), dtype=index)
    start = 0
    for chunk in chunks:
        stop = start + len(chunk)
        flat = _flat_index_sets_last(n, chunk)
        columns[start:stop] = flat[a, b].T  # S_a * n + S_b, increasing along a row
        blocks = M.ravel().take(flat)
        del flat  # freed before the inverses' arrays are allocated
        try:  # no chunk's inverses outlive their pair weights
            data[start:stop] = (spd_inverses(blocks)[a, b] * scale).T
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"block M[S, S] at S = {chunk[exc.block] + 1} (1-based) "
                "is not positive definite") from None
        subsets[start:stop] = chunk
        start = stop
    indptr = np.arange(0, count * pairs + 1, pairs, dtype=index)
    weights = scipy.sparse.csr_array((data.ravel(), columns.ravel(), indptr),
                                     shape=(count, n * n))
    subsets.setflags(write=False)  # shared by every rule that reads them
    weights.data.setflags(write=False)
    return BlockInverseForms(subsets, weights)
