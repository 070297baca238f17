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

It also owns the one handle on the OpenBLAS runtime that numpy and scipy
each bundle (`openblas`, looked up through ctypes on first use): the core
and thread count a run names in its report (`blas_runtime`), and the scope
in which numpy's BLAS runs on one thread (`one_blas_thread`).  The QR
factors of the generated instances are taken in that scope, so their bytes
do not depend on the caller's thread count, and a QR at the paper's
m=1000, n=100 takes half the time it takes split over two threads.

Coordinate indices are 0-based internally.  All user-facing I/O (configs,
trace files) converts to 1-based.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


class OpenBLAS(NamedTuple):
    """The runtime calls of an OpenBLAS bundled with numpy or scipy; those
    the library does not export are None."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None] | None
    get_corename: Callable[[], bytes] | None


#: package name -> its bundled OpenBLAS, or None where none answers;
#: filled by `openblas` on the first call for each package
_OPENBLAS: dict[str, OpenBLAS | None] = {}


def _find_openblas(package) -> OpenBLAS | None:
    """The first `*openblas*` library in the wheel's `<package>.libs`
    directory that exports a `get_num_threads` under one of the names the
    scipy-openblas and plain OpenBLAS builds use (64-bit or not)."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"),
                                                ("64_", "")):
            def symbol(name, restype):
                fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
                if fn is not None:
                    fn.restype = restype
                return fn

            get_threads = symbol("get_num_threads", ctypes.c_int)
            if get_threads is not None:
                return OpenBLAS(get_threads, symbol("set_num_threads", None),
                                symbol("get_corename", ctypes.c_char_p))
    return None


def openblas(package) -> OpenBLAS | None:
    """The OpenBLAS bundled with `package` (numpy or scipy, each of which
    ships its own), found on the first call and kept; None where no such
    library answers (say a BLAS from the system)."""
    name = package.__name__
    if name not in _OPENBLAS:
        _OPENBLAS[name] = _find_openblas(package)
    return _OPENBLAS[name]


def blas_runtime(package) -> dict:
    """The core name and thread count of `package`'s OpenBLAS as
    {"core", "threads"}, each None where the library cannot be asked."""
    lib = openblas(package)
    if lib is None:
        return {"core": None, "threads": None}
    core = lib.get_corename() if lib.get_corename is not None else None
    return {"core": core.decode() if core is not None else None,
            "threads": lib.get_num_threads()}


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one thread of numpy's OpenBLAS, and restore the
    caller's thread count after it, also when it raises.  Nothing is done
    where numpy's BLAS has no thread setter.

    Taken around the QR of each generated instance: at 1000 x 100 one
    thread factors in half the time of two, and the factors' bytes no
    longer depend on the caller's thread count.  A large square QR is
    slower on one thread (2000 x 2000: 0.47 s on two, 0.58-0.61 s on one,
    on a 2-CPU SkylakeX host); no instance the benchmark or the tests
    generate is that large."""
    lib = openblas(np)
    if lib is None or lib.set_num_threads is None:
        yield
        return
    threads = lib.get_num_threads()
    lib.set_num_threads(1)
    try:
        yield
    finally:
        lib.set_num_threads(threads)


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
