import math
import time
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instab import (Cocharacter, ParseError, ZeroVectorError, act,
                    active_weights, build_rep, fundamental_weights,
                    highest_weight_vector, log_rep_norm, m_value, moment_map,
                    parse_rep_spec, rep_norm, weight_components)
from instab.cartan import CartanVector, SimpleSystem
from instab.errors import DimensionError, NonFiniteError
from instab.reps import (NEG_INF, Dual, Standard, Sym, Tensor, Wedge, _log_norm,
                         _vector_in, _weighted_squares, pow2_scaled, scaled_floats)
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


def test_build_rep_builds_each_spec_once():
    # the representation is its own basis: one object per (spec, n), shared
    # with the nodes built under it, its weights exact CartanVectors
    rep = build_rep(parse_rep_spec("dual(wedge(2,std))*std"), 3)
    assert build_rep(parse_rep_spec("dual(wedge(2,std))*std"), 3) is rep
    assert build_rep(Dual(Wedge(2, Standard())), 3) is build_rep(rep.spec.left, 3)
    assert all(isinstance(w, CartanVector) and w.is_exact for w in rep.weights)
    assert rep.dim == len(rep.index) == len(rep.gram) == len(rep.words) == 9


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


@pytest.mark.parametrize("k", range(1, 7))
def test_sym_words_are_the_distinct_permutations(k):
    # the reference enumerates all k! orderings of each monomial
    for n in (2, 3):
        rep = build_rep(Sym(k, Standard()), n)
        for idx, words in zip(rep.index, rep.words):
            expected = [(sum(i * n ** (k - 1 - m) for m, i in enumerate(p)), 1)
                        for p in sorted(set(permutations(idx)))]
            assert list(words) == expected


def test_a_high_symmetric_power_builds_without_enumerating_k_factorial():
    start = time.perf_counter()
    rep = build_rep.__wrapped__(Sym(13, Standard()), 2)  # not the cached one
    assert time.perf_counter() - start < 1.0
    assert rep.dim == 14 and sum(len(w) for w in rep.words) == 2 ** 13


def test_sym2_gram_n2():
    rep = build_rep(Sym(2, Standard()), 2)
    assert rep.gram == (F(1), F(2), F(1))


def test_dual_gram_inverts():
    rep = build_rep(Dual(Sym(2, Standard())), 2)
    assert rep.gram == (F(1), F(1, 2), F(1))
    base = build_rep(Sym(2, Standard()), 2)
    assert [w.coords for w in rep.weights] == \
        [tuple(-c for c in w.coords) for w in base.weights]


@pytest.mark.parametrize("text,n", [("sym(2,std)", 3), ("std*wedge(2,std)", 3),
                                    ("sym(4,std)", 4), ("dual(wedge(2,std))*sym(2,dual(std))", 3),
                                    ("wedge(2,std)*wedge(2,std)*std", 4)])
def test_levels_match_the_rational_scan(text, n):
    # each level against the sign of <lambda, u> - |u|^2 in Fractions, for u
    # every weight, its multiples and the midpoints of pairs of weights
    rep = build_rep(parse_rep_spec(text), n)
    weights = [w for w, _ in rep.weight_groups]
    us = [w.scale(s) for w in weights if not w.is_zero() for s in (1, F(1, 2), F(3, 7))]
    us += [a.add(b).scale(F(1, 2)) for a, b in zip(weights, weights[1:])]
    signs, shared = set(), set()
    for u in us:
        if u.is_zero():
            continue
        gaps = [oracles.trace_form(w, u) - u.norm_sq() for w in weights]
        expected = [(g > 0) - (g < 0) for g in gaps]
        assert rep.levels(u).tolist() == expected
        signs.update(expected)
        shared.add(expected.count(0) > 1)
    assert signs == {-1, 0, 1} and shared == {True, False}


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


def rep_matrix(rep, g):
    # the matrix of g on the monomial basis: its action on the unit vectors
    return np.array([act(rep, g, col) for col in np.eye(rep.dim, dtype=int).tolist()]).T


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


@pytest.mark.parametrize("text,n", [("std", 3), ("dual(std)", 3), ("std*dual(std)", 3),
                                    ("sym(3,std)", 3),
                                    ("wedge(2,std)*wedge(2,std)*std", 4),
                                    ("dual(wedge(2,std))*sym(2,dual(std))", 3)])
@pytest.mark.parametrize("size", [50, 1])
def test_act_on_a_stack_matches_the_single_action(text, n, size):
    from instab import cartan_box_sample
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(12)
    gs = np.stack([cartan_box_sample(rng, n, 5.0) for _ in range(size)])
    v = rng.standard_normal(rep.dim)
    stacked = act(rep, gs, v)
    assert stacked.shape == (size, rep.dim)
    for g, row in zip(gs, stacked):
        single = act(rep, g, v)
        assert np.max(np.abs(row - single)) <= 1e-12 * np.max(np.abs(single))


def _exact_sl(rng, n):
    """A random rational matrix of determinant 1: a rational diagonal of
    determinant 1 times elementary unipotents with small rational entries."""
    d = [F(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(n - 1)]
    diag = np.diag(d + [1 / math.prod(d)]).astype(object)
    pairs = [rng.choice(n, 2, replace=False) for _ in range(2 * n)]
    return diag @ elementary_unipotent_product(
        n, [(int(i), int(j), F(int(rng.integers(-2, 3)), int(rng.integers(1, 4))))
            for i, j in pairs])


@pytest.mark.parametrize("text,n", ACTION_SPECS)
def test_float_stack_matches_the_exact_action(text, n):
    # every row of one stacked float action, against the exact single action
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(14)
    gs = [_exact_sl(rng, n) for _ in range(8)]
    v = [F(int(a), int(b)) for a, b in zip(rng.integers(-3, 4, rep.dim), rng.integers(1, 4, rep.dim))]
    stacked = act(rep, np.stack(gs).astype(float), [float(x) for x in v])
    for g, row in zip(gs, stacked):
        exact = act(rep, g.tolist(), v)
        assert all(isinstance(x, F) for x in exact)
        exact = np.asarray([float(x) for x in exact])
        assert np.max(np.abs(row - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_act_on_a_stack_checks_every_element():
    from instab import cartan_box_sample
    rep = build_rep(parse_rep_spec("std*dual(std)"), 3)
    rng = np.random.default_rng(13)
    gs = np.stack([cartan_box_sample(rng, 3, 1.0) for _ in range(20)])
    gs[11] = np.diag([2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="determinant 1"):
        act(rep, gs, np.ones(rep.dim))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_act_rejects_non_finite_group_elements(bad):
    rep = build_rep(Standard(), 2)
    with pytest.raises(NonFiniteError, match=r"entry \(0, 0\)"):
        act(rep, [[bad, 0.0], [0.0, 1.0]], [1.0, 0.0])
    gs = np.stack([np.eye(2)] * 5)
    gs[3, 1, 0] = bad
    with pytest.raises(NonFiniteError, match=r"entry \(3, 1, 0\)"):
        act(rep, gs, [1.0, 0.0])


@pytest.mark.parametrize("v", [
    np.array([0.1, -2.5e-300, 3.0, 1e300, 0.0, -0.0]),
    [0.1, -2.5e-300, 3.0, 1e300, 0.0, -0.0],
    np.array([1, -3, 0, 7, 2**60 + 1, -5])], ids=["float ndarray", "float list", "int ndarray"])
def test_vector_in_matches_the_entry_by_entry_conversion(v):
    rep = build_rep(parse_rep_spec("sym(2,std)"), 3)
    vec, exact = _vector_in(rep, v)
    assert not exact
    assert vec.dtype == float
    assert vec.tobytes() == np.asarray([float(c) for c in list(v)]).tobytes()
    bad = np.array(v, dtype=float)
    bad[2], bad[4] = math.nan, math.inf
    with pytest.raises(NonFiniteError, match="entry 2 is nan"):
        _vector_in(rep, bad)


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


def _component_log_norms(rep, v):
    """(weight, log norm) of each active weight component of ``v``."""
    active, sums, e = weight_components(rep, v)
    return [(w, _log_norm(s, int(e[0])))
            for (w, _), s, a in zip(rep.weight_groups, sums[0].tolist(), active[0].tolist()) if a]


def test_weight_components_unit_vector():
    rep = build_rep(Standard(), 2)
    active = [rep.weight_groups[j][0] for j in active_weights(rep, [1.0, 0.0])]
    assert len(active) == 1
    assert active[0].coords == (F(1, 2), F(-1, 2))
    (w, r), = _component_log_norms(rep, [1.0, 0.0])
    assert w == active[0]
    assert r == pytest.approx(0.0, abs=1e-14)


def test_weight_components_two_units():
    rep = build_rep(Standard(), 2)
    assert len(active_weights(rep, [1.0, 1.0])) == 2
    comps = _component_log_norms(rep, [1.0, 1.0])
    assert len(comps) == 2
    assert all(r == pytest.approx(0.0, abs=1e-14) for _, r in comps)


def test_weight_components_gram_weighted():
    # middle symmetric monomial has squared norm 2 under the tensor embedding
    rep = build_rep(Sym(2, Standard()), 2)
    vec = oracles.sym_monomial_embedding((0, 1), 2)
    expected = 0.5 * math.log(float(vec @ vec))
    assert len(active_weights(rep, [0, 1, 0])) == 1
    assert log_rep_norm(rep, [0, 1, 0]) == pytest.approx(expected)
    assert expected == pytest.approx(0.5 * math.log(2.0))


def test_weight_components_zero_vector_raises():
    rep = build_rep(Standard(), 2)
    with pytest.raises(ZeroVectorError):
        weight_components(rep, [0.0, 0.0])


def _split_rows_by_loop(rep, rows, eps, exp2):
    # the reference: one row at a time, one weight group at a time
    out = []
    for row in rows:
        q, e = _weighted_squares(rep, row, exp2)
        total = q.sum()
        out.append([(NEG_INF if not math.sqrt(q[idx].sum()) > eps * math.sqrt(total)
                     else _log_norm(q[idx].sum(), e)).hex()
                    for _, idx in rep.weight_groups])
    return out


def _log_norm_hexes(rep, split):
    active, sums, e = split
    assert active.shape == sums.shape == (len(e), len(rep.weight_groups))
    return [[_log_norm(s, k).hex() if a else NEG_INF.hex() for s, a in zip(row, mask)]
            for row, mask, k in zip(sums.tolist(), active, e.tolist())]


def _split_rows_one_by_one(rep, rows, exp2):
    # a vector is a stack of one
    return [_log_norm_hexes(rep, weight_components(rep, row, exp2))[0] for row in rows]


def _split_rows_as_a_stack(rep, rows, exp2):
    split = weight_components(rep, rows, exp2)
    assert (split[0][:1] == weight_components(rep, rows[0], exp2)[0]).all()
    return _log_norm_hexes(rep, split)


@pytest.mark.parametrize("text,n", [("sym(2,std)", 3), ("std*dual(std)", 3),
                                    ("wedge(2,std)*wedge(2,std)*std", 4)])
def test_weight_components_of_a_stack_match_the_rows(text, n):
    # bit for bit, also for a component just below the threshold, rows of
    # very different scales, and rows beyond the float range through exp2
    rep = build_rep(parse_rep_spec(text), n)
    eps = 1e-10
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((6, rep.dim))
    groups = [idx for _, idx in rep.weight_groups]
    rows[1] = 0.0
    rows[1][groups[0]] = 1.0
    gram = rep.gram_f
    share = (1 - 1e-6) * eps  # component norm / total norm, just below eps
    rows[1][groups[-1][0]] = share / math.sqrt(gram[groups[-1][0]] * (1 - share ** 2)) \
        * math.sqrt(float(gram[groups[0]].sum()))
    rows[2] *= 1e300
    rows[3] *= 1e-300
    rows[4][groups[1]] = 0.0
    for exp2 in (0, 3000, -3000):
        one_by_one = _split_rows_one_by_one(rep, rows, exp2)
        assert one_by_one == _split_rows_by_loop(rep, rows, eps, exp2)
        assert _split_rows_as_a_stack(rep, rows, exp2) == one_by_one
    assert one_by_one[1][-1] == NEG_INF.hex() and one_by_one[1][0] != NEG_INF.hex()
    assert NEG_INF.hex() in one_by_one[4]


def test_weight_components_of_a_stack_with_a_zero_row_raise():
    rep = build_rep(parse_rep_spec("sym(2,std)"), 3)
    rows = np.ones((4, rep.dim))
    rows[2] = 0.0
    with pytest.raises(ZeroVectorError):
        weight_components(rep, rows)


def test_log_norms_beyond_the_float_range():
    # a subnormal entry, and a norm larger than the largest float
    assert len(active_weights(build_rep(Standard(), 3), [1e-310, 0.0, 0.0])) == 1
    (_, r), = _component_log_norms(build_rep(Standard(), 3), [1e-310, 0.0, 0.0])
    assert r == pytest.approx(math.log(1e-310), rel=1e-12)
    rep = build_rep(Sym(2, Standard()), 2)
    assert log_rep_norm(rep, [0.0, 1.5e308, 0.0]) == \
        pytest.approx(math.log(1.5e308) + 0.5 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("exp2", [0, 5, -3000, 3000])
def test_stacked_log_norms_match_the_scalar_path_bit_for_bit(exp2):
    # rows scaled e^-700 to e^700, a zero row, a subnormal row and rows
    # whose norm overflows after the shift by 2^exp2
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), 3)
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((5000, rep.dim)) * np.exp(rng.uniform(-700, 700, (5000, 1)))
    rows = np.vstack([rows, np.zeros(rep.dim), np.full(rep.dim, 1e-320),
                      np.full(rep.dim, 1e308)])
    q, e = _weighted_squares(rep, rows, exp2)
    scalar = [_log_norm(s, k) for s, k in zip(q.sum(axis=1).tolist(), e.tolist())]
    assert np.array_equal(log_rep_norm(rep, rows, exp2), scalar)


def test_norms_beyond_the_float_range_are_inf():
    rep = build_rep(Sym(2, Standard()), 2)
    assert rep_norm(rep, [0.0, 1.5e308, 0.0]) == math.inf
    assert rep_norm(rep, [F(0), F(10) ** 400, F(0)]) == math.inf
    assert log_rep_norm(rep, [0.0, 1.5e308, 0.0]) == pytest.approx(709.948, abs=1e-3)


@pytest.mark.parametrize("entries", [{17: F(-7, 3), 90: F(5, 2**80), 143: F(10**30, 11)}, {}])
def test_scaled_floats_of_a_zero_heavy_rational_vector(entries):
    # the maximum over the nonzero entries is the same Fraction as over all
    # of them, so the floats and the exponent are the same bits
    rep = build_rep(parse_rep_spec("wedge(2,std)*wedge(2,std)*std"), 4)
    v = [entries.get(i, F(0)) for i in range(rep.dim)]
    top = max(map(abs, v))
    shift = top.numerator.bit_length() - top.denominator.bit_length()
    x, e = pow2_scaled(np.asarray([float(c * F(2) ** -shift) for c in v]))
    got_x, got_e = scaled_floats(rep, v)
    np.testing.assert_array_equal(got_x, x)
    assert got_e == e + shift


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=2**70).map(lambda x: x * F(3) ** 200), min_size=3,
                max_size=3), st.integers(-1200, 1200))
def test_scaled_floats_divide_once_as_float_of_a_fraction_does(entries, e2):
    # one integer division p 2^a / (q 2^b) rounds the same value as
    # float(Fraction(p, q) * 2^(a - b)), and so gives the same bits
    rep = build_rep(Standard(), 3)
    v = [x * F(2) ** e2 for x in entries]
    top = max(map(abs, v))
    if not top:
        return
    shift = top.numerator.bit_length() - top.denominator.bit_length()
    x, e = pow2_scaled(np.asarray([float(c * F(2) ** -shift) for c in v]))
    got_x, got_e = scaled_floats(rep, v)
    np.testing.assert_array_equal(got_x, x)
    assert got_e == e + shift


# a small, a 35- and the 144-dimensional representation
ORACLE_REPS = [("std", 3), ("sym(4,std)", 4), ("wedge(2,std)*wedge(2,std)*std", 4)]


@pytest.mark.parametrize("text, n", ORACLE_REPS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_log_norms_of_rational_vectors_match_the_exact_oracle(text, n, data):
    # each entry is rounded once after a power-of-two shift, so the float
    # log norm is the exact one up to about dim roundings; entries scaled by
    # up to 2^+-1200 lie far outside the float range
    rep = build_rep(parse_rep_spec(text), n)
    entry = st.fractions(max_denominator=2**70).map(lambda x: x * F(3) ** 200)
    entries = data.draw(st.lists(st.just(F(0)) | entry, min_size=rep.dim, max_size=rep.dim))
    e2 = data.draw(st.sampled_from([-1200, 1200]) | st.integers(-1200, 1200))
    v = [x * F(2) ** e2 for x in entries]
    expected = oracles.exact_log_norm(rep, v)
    if expected == -math.inf:
        assert log_rep_norm(rep, v) == -math.inf
        return
    assert log_rep_norm(rep, v) == pytest.approx(expected, rel=1e-15, abs=rep.dim * 2.0 ** -52)


def test_exact_weight_components():
    rep = build_rep(Standard(), 2)
    assert len(active_weights(rep, [F(3), F(0)])) == 1
    assert log_rep_norm(rep, [F(3), F(0)]) == pytest.approx(math.log(3.0))


# ---------------------------------------------------------------------------
# Highest weight vectors


def test_highest_weight_vector_weights():
    for n in (2, 3, 4):
        chis = fundamental_weights(n)
        for j in range(1, n):
            rep, v = highest_weight_vector(n, j)
            w, = [rep.weight_groups[i][0] for i in active_weights(rep, v)]
            assert w.coords == chis[j - 1].coords
            assert log_rep_norm(rep, v) == pytest.approx(0.0, abs=1e-14)


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
    w, = [rep.weight_groups[i][0] for i in active_weights(rep, v)]
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
        assert m_value(rep, v, Cocharacter([k * e for e in tau.exps])) == k * base


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
