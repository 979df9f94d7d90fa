"""Exact elimination: ``solve`` on integer systems, ``det`` and ``inv`` on
rational ones, checked against each other on seeded random matrices, some of
deficient rank, and against the ``Fraction`` Gauss-Jordan reference of
``oracles``."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instab import exactlin

import oracles


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


def _integer_system(a, rhs):
    """``a x = rhs`` with each row scaled to integers by the lcm of its
    denominators, which leaves x as it is."""
    a_int, rhs_int = [], []
    for row, y in zip(a, rhs):
        s = math.lcm(*(F(x).denominator for x in (*row, y)))
        a_int.append([int(x * s) for x in row])
        rhs_int.append(int(y * s))
    return a_int, rhs_int


def _solved(a, b):
    """``solve(a, b)`` as Fractions, after checking that its (x, d) are in
    lowest terms with d > 0."""
    x, d = exactlin.solve(a, b)
    assert all(type(y) is int for y in (*x, d))
    assert d > 0 and math.gcd(d, *x) == 1
    return [F(y, d) for y in x]


@pytest.mark.parametrize("seed", range(4))
def test_elimination_properties(seed):
    rng = np.random.default_rng(seed)
    singular = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(1, n + 1))
        a = _random_matrix(rng, n, rank)
        b = _random_matrix(rng, n, n)
        a_int, rhs_int = _integer_system(a, [row[0] for row in b])
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
                exactlin.solve(a_int, rhs_int)
            continue
        a_inv = exactlin.inv(a)
        assert _matmul(a, a_inv) == _identity(n)
        assert _solved(a_int, rhs_int) == [row[0] for row in _matmul(a_inv, b)]
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


@st.composite
def exact_system(draw):
    """A square exact matrix with n <= 6 and two right-hand sides: integer
    or rational entries up to 10^30, possibly of deficient rank (a product
    through rank columns), possibly with a zero leading column block so
    that elimination swaps rows."""
    n = draw(st.integers(min_value=1, max_value=6))
    bound = draw(st.sampled_from([3, 10**6, 10**30]))
    num = st.integers(min_value=-bound, max_value=bound)
    entry = draw(st.sampled_from([num, st.builds(F, num, st.integers(1, bound))]))

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    rank = draw(st.integers(min_value=1, max_value=n))
    a = matrix(n, n) if rank == n else _matmul(matrix(n, rank), matrix(rank, n))
    for r in range(draw(st.integers(min_value=0, max_value=n - 1))):
        a[r][0] = 0
    return a, matrix(n, 2)


@settings(max_examples=150, deadline=None)
@given(exact_system())
def test_elimination_matches_the_fraction_reference(system):
    a, b = system
    d, x = oracles.fraction_eliminate(a, b)
    assert exactlin.det(a) == d
    a_int, rhs_int = _integer_system(a, [row[1] for row in b])
    if x is None:
        for fn, args in ((exactlin.solve, (a_int, rhs_int)), (exactlin.inv, (a,))):
            with pytest.raises(ZeroDivisionError):
                fn(*args)
        return
    assert _solved(a_int, rhs_int) == [row[1] for row in x]
    assert exactlin.inv(a) == oracles.fraction_eliminate(a, _identity(len(a)))[1]


@st.composite
def integer_system(draw):
    """A square integer system with n <= 8 and entries up to 10^30,
    possibly of deficient rank (a product through rank columns)."""
    n = draw(st.integers(min_value=1, max_value=8))
    bound = draw(st.sampled_from([3, 10**6, 10**30]))
    entry = st.integers(min_value=-bound, max_value=bound)

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    rank = draw(st.integers(min_value=1, max_value=n))
    a = matrix(n, n) if rank == n else _matmul(matrix(n, rank), matrix(rank, n))
    return a, [draw(entry) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(integer_system())
def test_integer_solve_matches_the_fraction_reference(system):
    # integers in lowest terms over d > 0; a singular system raises in both
    a, rhs = system
    try:
        expected = oracles.solve(a, rhs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            exactlin.solve(a, rhs)
        return
    assert _solved(a, rhs) == expected


@pytest.mark.parametrize("value", [True, np.int64(1), 1.0, F(1, 2), F(2)],
                         ids=["True", "np.int64", "float", "Fraction", "integral Fraction"])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_solve_takes_int_entries_only(value, where):
    # the exact type is tested: neither a bool, a numpy integer nor a
    # rational is scaled or converted
    a, rhs = [[2, 1], [1, 3]], [1, 2]
    if where == "matrix":
        a[1][0] = value
    else:
        rhs[1] = value
    with pytest.raises(ValueError, match="integer system"):
        exactlin.solve(a, rhs)


class _Count(int):
    """An int subclass, exact like int."""


@pytest.mark.parametrize("value, exact", [
    (3, True), (F(-2, 7), True), (_Count(4), True), (True, False), (False, False),
    (np.int64(3), False), (2.5, False), (np.float64(1.0), False), ("1", False)],
    ids=["int", "Fraction", "int subclass", "True", "False", "np.int64", "float",
         "np.float64", "str"])
def test_is_exact_tells_each_type_as_isinstance_does(value, exact):
    # the exact-type test comes first; a subclass falls back to isinstance,
    # and a bool, though an int, is no exact coordinate
    reference = isinstance(value, (int, F)) and not isinstance(value, bool)
    assert reference == exact
    assert exactlin.is_exact([value]) == exact
    assert exactlin.is_exact([F(1, 3), value, 2]) == exact
    assert exactlin.is_exact([]) is True
