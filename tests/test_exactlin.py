"""Exact elimination: solve, det and inv checked against each other on seeded
random rational matrices, some of deficient rank."""

from fractions import Fraction as F

import numpy as np
import pytest

from instab import exactlin


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _random(rng, rows, cols):
    # half the entries are zero, so the elimination often has to swap rows
    return [[F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) * int(rng.random() < 0.5)
             for _ in range(cols)] for _ in range(rows)]


def _random_matrix(rng, n, rank):
    """An n x n rational matrix of rank at most ``rank``."""
    return _random(rng, n, n) if rank == n else _matmul(_random(rng, n, rank),
                                                        _random(rng, rank, n))


@pytest.mark.parametrize("seed", range(4))
def test_elimination_properties(seed):
    rng = np.random.default_rng(seed)
    singular = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(1, n + 1))
        a = _random_matrix(rng, n, rank)
        b = _random_matrix(rng, n, n)
        d = exactlin.det(a)
        assert float(d) == pytest.approx(np.linalg.det(np.array(a, dtype=float)),
                                         rel=1e-9, abs=1e-9)
        assert exactlin.det(_matmul(a, b)) == d * exactlin.det(b)
        if rank < n:
            assert d == 0
        if d == 0:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                exactlin.inv(a)
            with pytest.raises(ZeroDivisionError):
                exactlin.solve(a, [row[0] for row in b])
            continue
        a_inv = exactlin.inv(a)
        assert _matmul(a, a_inv) == _identity(n)
        rhs = [row[0] for row in b]
        assert exactlin.solve(a, rhs) == [row[0] for row in _matmul(a_inv, b)]
    assert 0 < singular < 40


@pytest.mark.parametrize("fn, args", [
    (exactlin.solve, ([[1, 0], [0, 1.0]], [1, 2])),
    (exactlin.solve, ([[1, 0], [0, 1]], [F(1), 2.0])),
    (exactlin.det, ([[1, 0.5], [0, 1]],)),
    (exactlin.inv, ([[2.0]],)),
], ids=["solve-matrix", "solve-rhs", "det", "inv"])
def test_float_entry_raises(fn, args):
    with pytest.raises(ValueError):
        fn(*args)
