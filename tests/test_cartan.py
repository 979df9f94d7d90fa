import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instab import (CartanVector, Cocharacter, SimpleSystem, ZeroVectorError,
                    chi_decompose, dominant_order, fundamental_weights)
from instab.errors import DimensionError
from oracles import solve, trace_form


def test_cartan_vector_must_be_traceless():
    with pytest.raises(ValueError):
        CartanVector([1, 1])
    with pytest.raises(ValueError):
        CartanVector([0.5, 0.50001])
    CartanVector([0.5, -0.5 + 1e-14])  # small float slack is fine


def _solve_pairing_equations(n, j):
    # independent oracle: chi_j is the unique sum-zero vector pairing to
    # delta_ij against the simple roots (each root has squared length 2)
    rows, rhs = [], []
    for i in range(1, n):
        row = [F(0)] * n
        row[i - 1] = F(1)
        row[i] = F(-1)
        rows.append(row)
        rhs.append(F(1) if i == j else F(0))
    rows.append([F(1)] * n)
    rhs.append(F(0))
    return tuple(solve(rows, rhs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fundamental_weights_against_linear_solve(n):
    chis = fundamental_weights(n)
    for j in range(1, n):
        assert chis[j - 1].coords == _solve_pairing_equations(n, j)


def test_fundamental_weights_known_values():
    assert fundamental_weights(2)[0].coords == (F(1, 2), F(-1, 2))
    chi1, chi2 = fundamental_weights(3)
    assert chi1.coords == (F(2, 3), F(-1, 3), F(-1, 3))
    assert chi2.coords == (F(1, 3), F(1, 3), F(-2, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pairing_is_kronecker_delta(n):
    chis = fundamental_weights(n, SimpleSystem.identity(n))
    # the simple roots e_i - e_{i+1} of the identity order
    roots = [CartanVector([1 if k == i else -1 if k == i + 1 else 0 for k in range(n)])
             for i in range(n - 1)]
    for i, alpha in enumerate(roots):
        for j, chi in enumerate(chis):
            val = 2 * trace_form(alpha, chi) / trace_form(alpha, alpha)
            assert val == (1 if i == j else 0)


def test_fundamental_weights_rejects_small_n():
    with pytest.raises(DimensionError):
        fundamental_weights(1)


def test_chi_decompose_rank_one():
    coeffs = chi_decompose(CartanVector([1, -1]), SimpleSystem.identity(2))
    assert coeffs == (F(1),)


def test_chi_decompose_matches_linear_solve():
    # oracle: solve sum_j c_j chi_j = a / <a,a> as an exact linear system
    a = CartanVector([1, 0, -1])
    order = SimpleSystem.identity(3)
    chis = fundamental_weights(3, order)
    nsq = trace_form(a, a)
    rows = [[chis[j].coords[i] for j in range(2)] for i in range(2)]
    rhs = [F(a.coords[i]) / nsq for i in range(2)]
    expected = tuple(solve(rows, rhs))
    got = chi_decompose(a, order)
    assert got == expected
    assert all(c > 0 for c in got)


def test_chi_decompose_dual_direction():
    # decomposing the direction dual to chi_1 gives (1, 0, ...) up to the
    # <a,a> normalization
    a = fundamental_weights(3)[0]
    coeffs = chi_decompose(a, SimpleSystem.identity(3))
    nsq = trace_form(a, a)
    assert coeffs == (F(1) / nsq, F(0))


def test_chi_decompose_zero_raises():
    with pytest.raises(ZeroVectorError):
        chi_decompose(CartanVector([0, 0]), SimpleSystem.identity(2))


@st.composite
def rational_direction(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    nums = draw(st.lists(st.integers(min_value=-12, max_value=12),
                         min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(min_value=1, max_value=6),
                         min_size=n, max_size=n))
    coords = [F(a, b) for a, b in zip(nums, dens)]
    shift = sum(coords) / n
    coords = [c - shift for c in coords]
    return CartanVector(coords)


@settings(max_examples=60, deadline=None)
@given(rational_direction())
def test_chi_roundtrip_exact(a):
    if a.is_zero():
        return
    order = dominant_order(a)
    coeffs = chi_decompose(a, order)
    recombined = CartanVector([0] * a.n)
    for coef, chi in zip(coeffs, fundamental_weights(a.n, order)):
        recombined = recombined.add(chi.scale(coef))
    nsq = trace_form(a, a)
    assert recombined.coords == tuple(F(c) / nsq for c in a.coords)
    assert all(c >= 0 for c in coeffs)


def test_dominant_order_examples():
    assert dominant_order(CartanVector([-1, 1])).perm == (1, 0)
    assert dominant_order(CartanVector([1, 1, -2])).perm == (0, 1, 2)
    assert dominant_order(CartanVector([0, 0, 0])).perm == (0, 1, 2)


def test_dominant_order_chamber_membership():
    a = CartanVector([-2.0, 3.5, -1.5])
    along = [a.coords[i] for i in dominant_order(a).perm]
    assert all(x >= y for x, y in zip(along, along[1:]))


def test_dominant_order_stable_ties():
    a = CartanVector([F(1, 2), -1, F(1, 2)])
    assert dominant_order(a).perm == (0, 2, 1)


def test_simple_system_validation():
    with pytest.raises(ValueError):
        SimpleSystem((0, 0, 1))


@pytest.mark.parametrize("make, entries", [
    (Cocharacter, [1.5, -1.5]), (Cocharacter, [F(1, 2), F(-1, 2)]), (SimpleSystem, [0.9, 1.2])])
def test_entries_that_are_not_integers_are_rejected(make, entries):
    # int() would truncate these to (1, -1), (0, 0) and (0, 1)
    with pytest.raises(TypeError):
        make(entries)


def test_numpy_integer_entries_become_ints():
    tau, order = Cocharacter(np.array([2, -1, -1])), SimpleSystem(np.array([2, 0, 1]))
    assert (tau.exps, order.perm) == ((2, -1, -1), (2, 0, 1))
    assert all(type(x) is int for x in tau.exps + order.perm)


def test_cocharacter_invariants():
    tau = Cocharacter([2, -1, -1])
    assert tau.norm_sq() == 6
    with pytest.raises(ValueError):
        Cocharacter([1, 1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=5))
def test_cocharacter_norm_sq_is_nonnegative_integer(exps):
    exps = list(exps)
    exps[-1] -= sum(exps)
    tau = Cocharacter(exps)
    ns = tau.norm_sq()
    assert isinstance(ns, int) and ns >= 0
    assert abs(trace_form(CartanVector(tau.exps), CartanVector(tau.exps)) - ns) == 0


def test_unit_of_a_float_direction_whose_squares_overflow():
    u = CartanVector([1e308, -1e308]).unit()
    assert u.coords == pytest.approx((2 ** -0.5, -2 ** -0.5), rel=1e-15)
    assert CartanVector([1e308, -1e308]).norm() == pytest.approx(2 ** 0.5 * 1e308, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.just(0.0) | st.floats(min_value=1e-50, max_value=1e50)
                | st.floats(min_value=-1e50, max_value=-1e-50), min_size=1, max_size=4))
def test_float_norm_keeps_its_bits_where_no_square_leaves_the_range(xs):
    v = CartanVector(xs + [-sum(xs)])
    assert v.norm() == math.sqrt(sum(c * c for c in v.coords))
