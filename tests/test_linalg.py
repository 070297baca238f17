import ast
from pathlib import Path

import numpy as np
import pytest

import blockprox
from blockprox.linalg import (
    CoordSet,
    EnumerationTooLargeError,
    InvalidSetError,
    NotPositiveDefiniteError,
    check_symmetric,
    eig_extremes,
    enumerate_subsets,
    subset_count,
)
from blockprox.objectives import Objective


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
    assert CoordSet((0, 2), 4).one_based() == (1, 3)


def test_coordset_block_text_is_built_once_and_read_only():
    s = CoordSet((0, 2, 9), 10)
    assert s.block_text == "1;3;10"
    assert s.block_text is s.block_text
    with pytest.raises(AttributeError):  # a frozen dataclass
        s.block_text = "2"


def test_check_symmetric_rejects_asymmetry():
    M = np.eye(3)
    M[0, 1] = 1e-6
    with pytest.raises(ValueError):
        check_symmetric(M)
    for bad in (np.nan, np.inf):
        P = np.eye(3)
        P[0, 1] = P[1, 0] = bad
        with pytest.raises(ValueError):
            check_symmetric(P)
    # tiny asymmetry within tolerance is accepted
    N = np.eye(3)
    N[0, 1] = 1e-14
    N[1, 0] = 0.0
    check_symmetric(N)


def test_objective_factor_is_its_positive_definiteness_check():
    def objective(M):
        return Objective(dim=len(M), eval_f=lambda x: 0.0, grad_f=np.zeros_like,
                         smoothness=M)

    assert objective(np.eye(3)).smoothness_factor[0].tobytes() == np.eye(3).tobytes()
    for M in (np.diag([1.0, -1.0, 2.0]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="smoothness matrix must be positive definite"):
            objective(M)


def test_only_linalg_calls_lapack():
    """`linalg` is the one module of the package importing from
    `scipy.linalg.lapack`, in any import form."""
    importers = set()
    for path in sorted(Path(blockprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.linalg.lapack") for name in names):
                importers.add(path.name)
    assert importers == {"linalg.py"}


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
