import math

import numpy as np
import pytest

from blockprox.linalg import (
    CoordSet,
    EnumerationTooLargeError,
    InvalidSetError,
    NotPositiveDefiniteError,
    check_symmetric,
    eig_extremes,
    embed_vector,
    enumerate_subsets,
    is_spd,
    mask_vector,
    principal_submatrix,
    solve_spd,
    subset_count,
)


def test_coordset_validation():
    s = CoordSet((0, 2, 4), 5)
    assert len(s) == 3
    assert s.one_based() == (1, 3, 5)
    with pytest.raises(InvalidSetError):
        CoordSet((), 5)
    with pytest.raises(InvalidSetError):
        CoordSet((2, 1), 5)
    with pytest.raises(InvalidSetError):
        CoordSet((0, 0), 5)
    with pytest.raises(InvalidSetError):
        CoordSet((0, 5), 5)
    with pytest.raises(InvalidSetError):
        CoordSet((-1,), 5)
    for indices in [(0, 2, 2, 3), (3, 4, 1)]:  # a repeat or a descent past the first pair
        with pytest.raises(InvalidSetError):
            CoordSet(indices, 5)
    s = CoordSet(np.array([1, 4, 3])[[0, 2, 1]], 5)
    assert s.indices == (1, 3, 4) and all(type(i) is int for i in s.indices)


def test_coordset_full_and_roundtrip():
    s = CoordSet.full(4)
    assert s.is_full() and s.indices == (0, 1, 2, 3)
    t = CoordSet.from_one_based([3, 1], 4)
    assert t.indices == (0, 2)
    assert CoordSet.from_one_based(t.one_based(), 4) == t


def test_mask_and_embed_are_adjoint():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(7)
    S = CoordSet((1, 3, 6), 7)
    u = mask_vector(x, S)
    assert u.tolist() == [x[1], x[3], x[6]]
    e = embed_vector(u, S, 7)
    assert e[1] == x[1] and e[0] == 0.0 and e[5] == 0.0
    # <embed(u), y> == <u, mask(y)>
    y = rng.standard_normal(7)
    assert math.isclose(float(e @ y), float(u @ mask_vector(y, S)))


def test_mask_embed_shape_errors():
    S = CoordSet((0, 1), 3)
    with pytest.raises(InvalidSetError):
        mask_vector(np.zeros(4), S)
    with pytest.raises(InvalidSetError):
        embed_vector(np.zeros(3), S, 3)
    with pytest.raises(InvalidSetError):
        embed_vector(np.zeros(2), S, 4)


def test_principal_submatrix():
    M = np.arange(16, dtype=float).reshape(4, 4)
    M = (M + M.T) / 2
    S = CoordSet((0, 2), 4)
    sub = principal_submatrix(M, S)
    assert sub.shape == (2, 2)
    assert sub[0, 1] == M[0, 2]


def test_check_symmetric_rejects_asymmetry():
    M = np.eye(3)
    M[0, 1] = 1e-6
    with pytest.raises(ValueError):
        check_symmetric(M)
    # tiny asymmetry within tolerance is accepted
    N = np.eye(3)
    N[0, 1] = 1e-14
    N[1, 0] = 0.0
    check_symmetric(N)


def test_solve_spd_matches_numpy():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    M = A @ A.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    np.testing.assert_allclose(solve_spd(M, b), np.linalg.solve(M, b),
                               rtol=1e-10)


def test_is_spd():
    assert is_spd(np.eye(3))
    assert not is_spd(np.diag([1.0, -1.0, 2.0]))
    assert not is_spd(np.zeros((2, 2)))


def test_eig_extremes():
    lo, hi = eig_extremes(np.diag([3.0, 1.0, 7.0]))
    assert lo == 1.0 and hi == 7.0


def test_enumerate_subsets_lexicographic_and_count():
    sets = list(enumerate_subsets(5, 3))
    assert len(sets) == subset_count(5, 3) == 10
    tuples = [s.indices for s in sets]
    assert tuples == sorted(tuples)
    assert tuples[0] == (0, 1, 2) and tuples[-1] == (2, 3, 4)


def test_enumeration_budget():
    with pytest.raises(EnumerationTooLargeError):
        list(enumerate_subsets(30, 15, budget=1000))
    # at the boundary it still enumerates
    assert len(list(enumerate_subsets(6, 3, budget=20))) == 20


def test_enumerate_subsets_bad_tau():
    with pytest.raises(InvalidSetError):
        list(enumerate_subsets(4, 0))
    with pytest.raises(InvalidSetError):
        list(enumerate_subsets(4, 5))
