import math
from fractions import Fraction as F

import numpy as np
import pytest

from instab import (Cocharacter, ParseError, ZeroVectorError, act,
                    active_weights, build_rep, fundamental_weights,
                    highest_weight_vector, log_rep_norm, m_value, moment_map,
                    norm_sq, parse_rep_spec, rep_matrix, rep_norm,
                    weight_components)
from instab.cartan import SimpleSystem
from instab.errors import DimensionError
from instab.reps import Dual, Standard, Sym, Tensor, Wedge
from instab.symspace import exp_sym, haar_so

import oracles


# ---------------------------------------------------------------------------
# DSL


def test_parse_roundtrip():
    for text in ["std", "dual(std)", "wedge(2,std)", "sym(3,std)",
                 "wedge(2,std)*std", "std*std*std", "dual(wedge(2,std))*sym(2,std)"]:
        spec = parse_rep_spec(text)
        assert parse_rep_spec(str(spec)) == spec


def test_parse_tensor_associativity():
    spec = parse_rep_spec("std*std*std")
    assert spec == Tensor(Tensor(Standard(), Standard()), Standard())
    spec2 = parse_rep_spec("std*(std*std)")
    assert spec2 == Tensor(Standard(), Tensor(Standard(), Standard()))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_rep_spec("wedge(2 std)")
    assert err.value.pos == 8
    with pytest.raises(ParseError):
        parse_rep_spec("std*")
    with pytest.raises(ParseError):
        parse_rep_spec("foo(2,std)")
    with pytest.raises(ParseError):
        parse_rep_spec("std std")


# ---------------------------------------------------------------------------
# Dimensions, weights, gram


def test_standard_rep_data():
    rep = build_rep(Standard(), 3)
    assert rep.dim == 3
    assert rep.weights[0].coords == (F(2, 3), F(-1, 3), F(-1, 3))
    assert rep.gram == (F(1), F(1), F(1))


def test_wedge_dimension_and_weights():
    rep = build_rep(Wedge(2, Standard()), 3)
    assert rep.dim == math.comb(3, 2)
    # weights are e_i + e_j (sum-zero representatives), lexicographic pairs
    expected = [(F(1, 3), F(1, 3), F(-2, 3)),
                (F(1, 3), F(-2, 3), F(1, 3)),
                (F(-2, 3), F(1, 3), F(1, 3))]
    assert [w.coords for w in rep.weights] == expected


@pytest.mark.parametrize("spec,n,dim", [
    (Wedge(2, Standard()), 4, math.comb(4, 2)),
    (Wedge(3, Standard()), 4, math.comb(4, 3)),
    (Sym(2, Standard()), 2, 3),
    (Sym(4, Standard()), 3, math.comb(6, 4)),
    (Tensor(Standard(), Dual(Standard())), 3, 9),
    (Tensor(Wedge(2, Standard()), Standard()), 3, 9),
    (Sym(2, Sym(2, Standard())), 2, 6),
    (Wedge(2, Sym(2, Standard())), 3, math.comb(6, 2)),
    (Sym(6, Standard()), 4, math.comb(9, 6)),
    (Tensor(Tensor(Standard(), Standard()), Sym(2, Standard())), 4, 160),
    (Tensor(Wedge(2, Standard()), Wedge(2, Standard())), 4, 36),
    (Dual(Sym(4, Standard())), 3, math.comb(6, 4)),
])
def test_dimension_formulas(spec, n, dim):
    assert build_rep(spec, n).dim == dim


def test_wedge_degree_validation():
    with pytest.raises(DimensionError):
        build_rep(Wedge(4, Standard()), 3)
    with pytest.raises(DimensionError):
        build_rep(Wedge(0, Standard()), 3)


def test_sym_gram_matches_tensor_embedding():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        rep = build_rep(Sym(k, Standard()), n)
        from itertools import combinations_with_replacement
        monos = list(combinations_with_replacement(range(n), k))
        for mono, g in zip(monos, rep.gram):
            vec = oracles.sym_monomial_embedding(mono, n)
            assert float(g) == pytest.approx(float(vec @ vec), abs=0)


def test_sym2_gram_n2():
    rep = build_rep(Sym(2, Standard()), 2)
    assert rep.gram == (F(1), F(2), F(1))


def test_dual_gram_inverts():
    rep = build_rep(Dual(Sym(2, Standard())), 2)
    assert rep.gram == (F(1), F(1, 2), F(1))
    base = build_rep(Sym(2, Standard()), 2)
    assert [w.coords for w in rep.weights] == \
        [tuple(-c for c in w.coords) for w in base.weights]


# ---------------------------------------------------------------------------
# Actions


def test_act_identity():
    rep = build_rep(parse_rep_spec("wedge(2,std)*std"), 3)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(rep.dim)
    out = act(rep, np.eye(3), v)
    np.testing.assert_allclose(out, v, atol=1e-14)


def test_top_wedge_is_determinant_character():
    rep = build_rep(Wedge(2, Standard()), 2)
    assert rep.dim == 1
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = haar_so(2, rng)
        out = act(rep, g, [1.0])
        assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_act_diagonal_eigenvector():
    rep = build_rep(Standard(), 3)
    g = np.diag([2.0, 1.0, 0.5])
    out = act(rep, g, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0])


# nested and dual modes of the tensor-power embedding
NESTED = [("dual(sym(2,std))", 3), ("wedge(2,wedge(2,std))", 4),
          ("sym(2,sym(2,std))", 3), ("dual(wedge(2,std))*sym(2,dual(std))", 3),
          ("sym(4,std)", 4)]
ACTION_SPECS = [("std", 3), ("wedge(2,std)", 3), ("sym(2,std)", 2),
                ("std*dual(std)", 2), ("dual(sym(2,std))", 2),
                ("wedge(2,std)*std", 3)] + NESTED


@pytest.mark.parametrize("text,n", ACTION_SPECS)
def test_act_is_a_homomorphism(text, n):
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = oracles_random_sl(rng, n)
        b = oracles_random_sl(rng, n)
        v = rng.standard_normal(rep.dim)
        lhs = act(rep, a @ b, v)
        rhs = act(rep, a, act(rep, b, v))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("text,n", ACTION_SPECS)
def test_moment_map_is_the_log_norm_derivative(text, n):
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(5):
        w = rng.standard_normal(rep.dim)
        mu = moment_map(rep, w)
        x = rng.standard_normal((n, n))
        x = x + x.T - 2 * np.trace(x) / n * np.eye(n)
        diff = (log_rep_norm(rep, act(rep, exp_sym(h * x), w))
                - log_rep_norm(rep, act(rep, exp_sym(-h * x), w))) / (2 * h)
        assert abs(diff - float(np.sum(mu * x))) <= 1e-7
        assert abs(np.trace(mu)) <= 1e-14
        k = haar_so(n, rng)
        np.testing.assert_allclose(moment_map(rep, act(rep, k, w)), k @ mu @ k.T,
                                   atol=1e-12)
        for e in (600, -600):
            np.testing.assert_array_equal(moment_map(rep, np.ldexp(w, e)), mu)


def test_moment_map_of_rationals_beyond_the_float_range():
    # a rational vector is scaled exactly before it is rounded to floats
    rep = build_rep(Standard(), 3)
    mu = moment_map(rep, [F(1), F(1, 3), F(0)])
    for s in (F(2**1500), F(1, 2**1500)):
        np.testing.assert_array_equal(moment_map(rep, [s, s / 3, 0]), mu)
    for s in (F(10**400), F(1, 10**400)):
        np.testing.assert_allclose(moment_map(rep, [s, s / 3, 0]), mu, atol=1e-15)


def oracles_random_sl(rng, n, spread=0.7):
    from instab import cartan_box_sample
    return cartan_box_sample(rng, n, spread)


def test_sym_action_matches_tensor_power_embedding():
    n, k = 2, 3
    rep = build_rep(Sym(k, Standard()), n)
    rng = np.random.default_rng(3)
    from itertools import combinations_with_replacement
    monos = list(combinations_with_replacement(range(n), k))
    for _ in range(5):
        g = oracles_random_sl(rng, n)
        m = rep_matrix(rep, g)
        big = oracles.kron_power(g, k)
        for ci, mono in enumerate(monos):
            lhs = sum(m[ri, ci] * oracles.sym_monomial_embedding(mj, n)
                      for ri, mj in enumerate(monos))
            rhs = big @ oracles.sym_monomial_embedding(mono, n)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_wedge_action_matches_tensor_power_embedding():
    n, k = 3, 2
    rep = build_rep(Wedge(k, Standard()), n)
    rng = np.random.default_rng(4)
    from itertools import combinations
    monos = list(combinations(range(n), k))
    for _ in range(5):
        g = oracles_random_sl(rng, n)
        m = rep_matrix(rep, g)
        big = oracles.kron_power(g, k)
        for ci, mono in enumerate(monos):
            lhs = sum(m[ri, ci] * oracles.wedge_monomial_embedding(mj, n)
                      for ri, mj in enumerate(monos))
            rhs = big @ oracles.wedge_monomial_embedding(mono, n)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_act_exact_path():
    rep = build_rep(Wedge(2, Standard()), 3)
    g = [[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    out = act(rep, g, [F(0), F(0), F(1)])  # e2 ^ e3; g e2 = e1 + e2
    assert out == (F(0), F(1), F(1))  # e1 ^ e3 + e2 ^ e3


def elementary_unipotent_product(n, entries):
    """Exact product of the matrices I + c E_ij for (i, j, c) in ``entries``."""
    g = np.eye(n, dtype=object)
    for i, j, c in entries:
        e = np.eye(n, dtype=object)
        e[i, j] = F(c)
        g = g @ e
    return g


@pytest.mark.parametrize("text,n", NESTED)
def test_exact_act_matches_float_act(text, n):
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(8)
    g = elementary_unipotent_product(
        n, [(0, 1, F(1, 2)), (1, 0, -2), (n - 1, 0, F(3, 4)), (1, n - 1, 1)])
    v = [int(x) for x in rng.integers(-3, 4, size=rep.dim)]
    exact = act(rep, g.tolist(), v)
    assert all(isinstance(x, F) for x in exact)
    floats = act(rep, g.astype(float), np.asarray(v, dtype=float))
    scale = max(abs(float(x)) for x in exact)
    np.testing.assert_allclose([float(x) for x in exact], floats, rtol=0,
                               atol=1e-12 * scale)
    # the exact inverse undoes the exact action
    g_inv = elementary_unipotent_product(
        n, [(1, n - 1, -1), (n - 1, 0, F(-3, 4)), (1, 0, 2), (0, 1, F(-1, 2))])
    assert act(rep, g_inv.tolist(), exact) == tuple(F(x) for x in v)


def test_act_rejects_non_unimodular():
    rep = build_rep(Standard(), 2)
    with pytest.raises(ValueError):
        act(rep, np.diag([2.0, 1.0]), [1.0, 0.0])


# ---------------------------------------------------------------------------
# Norms and weight components


def test_rep_norm_unit_basis_vector():
    rep = build_rep(Wedge(2, Standard()), 3)
    assert rep_norm(rep, [1, 0, 0]) == pytest.approx(1.0)


def test_rep_norm_so_invariance():
    rng = np.random.default_rng(11)
    for text, n in [("std", 3), ("sym(2,std)", 2), ("wedge(2,std)", 4),
                    ("std*dual(std)", 2), ("dual(sym(2,std))", 2)]:
        rep = build_rep(parse_rep_spec(text), n)
        v = rng.standard_normal(rep.dim)
        base = rep_norm(rep, v)
        for _ in range(100):
            k = haar_so(n, rng)
            assert rep_norm(rep, act(rep, k, v)) == pytest.approx(base, rel=1e-8)


def test_sym_norm_value():
    rep = build_rep(Sym(2, Standard()), 2)
    assert rep_norm(rep, [1, 1, 1]) == pytest.approx(2.0)


def test_weight_components_unit_vector():
    rep = build_rep(Standard(), 2)
    comps = weight_components(rep, [1.0, 0.0])
    active = [(w, r) for w, r in comps if r != float("-inf")]
    assert len(active) == 1
    assert active[0][0].coords == (F(1, 2), F(-1, 2))
    assert active[0][1] == pytest.approx(0.0, abs=1e-14)


def test_weight_components_two_units():
    rep = build_rep(Standard(), 2)
    comps = weight_components(rep, [1.0, 1.0])
    assert all(r == pytest.approx(0.0, abs=1e-14) for _, r in comps)


def test_weight_components_gram_weighted():
    # middle symmetric monomial has squared norm 2 under the tensor embedding
    rep = build_rep(Sym(2, Standard()), 2)
    vec = oracles.sym_monomial_embedding((0, 1), 2)
    expected = 0.5 * math.log(float(vec @ vec))
    comps = active_weights(rep, [0, 1, 0])
    assert len(comps) == 1
    assert comps[0][1] == pytest.approx(expected)
    assert expected == pytest.approx(0.5 * math.log(2.0))


def test_weight_components_zero_vector_raises():
    rep = build_rep(Standard(), 2)
    with pytest.raises(ZeroVectorError):
        weight_components(rep, [0.0, 0.0])


def test_log_norms_beyond_the_float_range():
    # a subnormal entry, and a norm larger than the largest float
    (_, r), = active_weights(build_rep(Standard(), 3), [1e-310, 0.0, 0.0])
    assert r == pytest.approx(math.log(1e-310), rel=1e-12)
    rep = build_rep(Sym(2, Standard()), 2)
    assert log_rep_norm(rep, [0.0, 1.5e308, 0.0]) == \
        pytest.approx(math.log(1.5e308) + 0.5 * math.log(2.0), rel=1e-12)


def test_norms_beyond_the_float_range_are_inf():
    rep = build_rep(Sym(2, Standard()), 2)
    assert norm_sq(rep, [0.0, 1e200, 0.0]) == math.inf
    assert rep_norm(rep, [0.0, 1.5e308, 0.0]) == math.inf
    assert rep_norm(rep, [F(0), F(10) ** 400, F(0)]) == math.inf
    assert log_rep_norm(rep, [0.0, 1.5e308, 0.0]) == pytest.approx(709.948, abs=1e-3)
    assert norm_sq(rep, [0.0, 1e100, 0.0]) == pytest.approx(2e200)


def test_exact_weight_components():
    rep = build_rep(Standard(), 2)
    comps = active_weights(rep, [F(3), F(0)])
    assert len(comps) == 1
    assert comps[0][1] == pytest.approx(math.log(3.0))


# ---------------------------------------------------------------------------
# Highest weight vectors


def test_highest_weight_vector_weights():
    for n in (2, 3, 4):
        chis = fundamental_weights(n)
        for j in range(1, n):
            rep, v = highest_weight_vector(n, j)
            (w, r), = active_weights(rep, v)
            assert w.coords == chis[j - 1].coords
            assert r == pytest.approx(0.0, abs=1e-14)


def test_highest_weight_vector_fixed_by_upper_unipotent():
    rng = np.random.default_rng(5)
    n = 3
    for j in (1, 2):
        rep, v = highest_weight_vector(n, j)
        for _ in range(5):
            u = np.eye(n)
            u[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
            np.testing.assert_allclose(act(rep, u, v), v, atol=1e-12)


def test_highest_weight_vector_reversed_order():
    rep, v = highest_weight_vector(3, 1, SimpleSystem((2, 1, 0)))
    (w, _), = active_weights(rep, v)
    assert w.coords == (F(-1, 3), F(-1, 3), F(2, 3))


def test_highest_weight_vector_range():
    with pytest.raises(DimensionError):
        highest_weight_vector(3, 3)
    with pytest.raises(DimensionError):
        highest_weight_vector(3, 0)


# ---------------------------------------------------------------------------
# Valuations


def test_m_value_examples():
    std2 = build_rep(Standard(), 2)
    assert m_value(std2, [1, 0], Cocharacter([1, -1])) == 1
    assert m_value(std2, [1, 1], Cocharacter([1, -1])) == -1
    wedge = build_rep(Wedge(2, Standard()), 3)
    assert m_value(wedge, [1, 0, 0], Cocharacter([1, 1, -2])) == 2


def test_m_value_matches_valuation_oracle():
    cases = [
        (build_rep(Standard(), 2), [1, 0], (1, -1)),
        (build_rep(Standard(), 2), [1, 1], (1, -1)),
        (build_rep(Wedge(2, Standard()), 3), [1, 0, 0], (1, 1, -2)),
        (build_rep(Sym(2, Standard()), 2), [1, 2, 0], (3, -3)),
        (build_rep(Tensor(Standard(), Dual(Standard())), 2), [0, 1, 0, 0], (1, -1)),
        (build_rep(Dual(Standard()), 3), [1, 0, 2], (2, -1, -1)),
    ]
    for rep, v, exps in cases:
        assert m_value(rep, v, Cocharacter(exps)) == oracles.valuation_m(rep, v, exps)


def test_m_value_scaling():
    rep = build_rep(Sym(2, Standard()), 2)
    v = [1, 2, 0]
    tau = Cocharacter([3, -3])
    base = m_value(rep, v, tau)
    for k in (1, 2, 3):
        assert m_value(rep, v, tau.power(k)) == k * base


def test_m_value_zero_inputs():
    rep = build_rep(Standard(), 2)
    with pytest.raises(ZeroVectorError):
        m_value(rep, [0, 0], Cocharacter([1, -1]))
    with pytest.raises(ZeroVectorError):
        m_value(rep, [1, 0], Cocharacter([0, 0]))


def test_torus_trace_bookkeeping():
    # trace of the exact diagonal action equals the weight-exponent sum
    for text, n, exps in [("wedge(2,std)", 3, (1, 1, -2)),
                          ("sym(2,std)", 2, (1, -1))]:
        rep = build_rep(parse_rep_spec(text), n)
        tau = Cocharacter(exps)
        g = [[F(2) ** e if i == j else F(0) for j, e in enumerate([0] * n)]
             for i in range(n)]
        for i, e in enumerate(exps):
            g[i][i] = F(2) ** e
        m = rep_matrix(rep, g)
        trace = sum(m[i, i] for i in range(rep.dim))
        expected = sum(F(2) ** w.pair_int(tau) for w in rep.weights)
        assert trace == expected
