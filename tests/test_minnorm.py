import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instab import CartanVector, build_rep, min_norm_point, parse_rep_spec
from instab import instability
from instab.errors import DimensionError

import oracles


def test_single_point():
    cert = min_norm_point([CartanVector([1, -1])])
    assert cert.point.coords == (F(1), F(-1))


@st.composite
def one_point(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    coords = draw(st.lists(st.builds(F, st.integers(-10 ** 30, 10 ** 30),
                                     st.integers(1, 10 ** 30)),
                           min_size=n - 1, max_size=n - 1))
    return coords + [-sum(coords)]


@settings(max_examples=60, deadline=None)
@given(one_point())
def test_one_point_is_its_own_min_norm_point(coords):
    # a one-weight flat or prefix needs no Wolfe run, yet a single point
    # still passes the input checks first
    for point in (CartanVector(coords), CartanVector([0] * len(coords))):
        assert min_norm_point([point]).point == point
        _assert_oracle_point([point], point)
    with pytest.raises(ValueError):
        min_norm_point([CartanVector([float(c) for c in coords])])
    with pytest.raises(DimensionError):
        min_norm_point([CartanVector(coords), CartanVector([1, -1] + [0] * len(coords))])
    with pytest.raises(ValueError):
        min_norm_point([])


def test_symmetric_pair_contains_origin():
    cert = min_norm_point([CartanVector([1, -1]), CartanVector([-1, 1])])
    assert cert.point.coords == (F(0), F(0))


def test_two_point_segment():
    pts = [CartanVector([2, -1, -1]), CartanVector([-1, 2, -1])]
    cert = min_norm_point(pts)
    assert cert.point.coords == (F(1, 2), F(1, 2), F(-1))
    assert sum(c * c for c in cert.point.coords) == F(3, 2)
    # grid oracle over convex combinations
    lams = np.linspace(0, 1, 2001)
    p = np.array([[2, -1, -1], [-1, 2, -1]], dtype=float)
    vals = [float(np.sum((l * p[0] + (1 - l) * p[1]) ** 2)) for l in lams]
    assert min(vals) == pytest.approx(float(3) / 2, abs=1e-6)
    # optimality condition
    u = cert.point
    for q in pts:
        assert sum(a * b for a, b in zip(u.coords, q.coords)) >= \
            sum(a * a for a in u.coords)


def test_empty_input_raises():
    with pytest.raises(ValueError):
        min_norm_point([])


def test_mixed_dimensions_raise():
    with pytest.raises(DimensionError):
        min_norm_point([CartanVector([1, -1]), CartanVector([1, 0, -1])])


def test_exact_mode_rejects_floats():
    with pytest.raises(ValueError):
        min_norm_point([CartanVector([1.0, -1.0])])


def _assert_optimal(pts, u):
    # Wolfe's optimality condition, exactly: no point lies below u's face
    uu = oracles.trace_form(u, u)
    assert all(oracles.trace_form(u, p) >= uu for p in pts)


def _assert_oracle_point(pts, u):
    # u is the exact enumerated point, whose convex coefficients rebuild it
    point, coeffs = oracles.exact_min_norm(pts)
    assert u.coords == point
    assert all(c >= 0 for c in coeffs) and sum(coeffs) == 1
    assert tuple(sum(c * p.coords[i] for c, p in zip(coeffs, pts)) for i in range(u.n)) == point


def _random_rational_polytope(rng, dim, count, num=8, den=4):
    pts = []
    for _ in range(count):
        nums = rng.integers(-num, num + 1, size=dim)
        dens = rng.integers(1, den + 1, size=dim)
        coords = [F(int(a), int(b)) for a, b in zip(nums, dens)]
        shift = sum(coords) / dim
        pts.append(CartanVector([c - shift for c in coords]))
    return pts


@pytest.mark.parametrize("seed", range(6))
def test_wolfe_matches_qp_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 13))
        pts = _random_rational_polytope(rng, dim, count)
        cert = min_norm_point(pts)
        u = np.asarray(cert.point.as_floats())
        u_enum = oracles.enumerated_min_norm([p.as_floats() for p in pts])
        assert np.linalg.norm(u - u_enum) < 1e-9
        u_qp = oracles.qp_min_norm([p.as_floats() for p in pts])
        assert float(np.linalg.norm(u)) == pytest.approx(
            float(np.linalg.norm(u_qp)), abs=2e-5)
        _assert_optimal(pts, cert.point)


@pytest.mark.parametrize("seed", range(3))
def test_wolfe_with_large_denominators_matches_the_exact_oracle(seed):
    # numerators up to 10^12 over denominators up to 10^6: the lcm scaling
    # the points to integers is huge, and the Gram matrix holds big integers
    rng = np.random.default_rng(seed)
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        pts = _random_rational_polytope(rng, dim, int(rng.integers(1, 7)), 10**12, 10**6)
        assert math.lcm(*(c.denominator for p in pts for c in p.coords)) > 10**6
        cert = min_norm_point(pts)
        _assert_optimal(pts, cert.point)
        _assert_oracle_point(pts, cert.point)


@pytest.mark.parametrize("seed", range(3))
def test_wolfe_drop_steps_match_the_exact_oracle(monkeypatch, seed):
    # sets whose minor cycle drops points, which it does after each affine
    # minimizer with a weight <= 0: the integer step (w_k y - y_k w) /
    # (w_k d - y_k q) ends at the oracle's point
    minimizers = []
    affine_min = instability._affine_min

    def recorded(*args):
        minimizers.append(affine_min(*args))
        return minimizers[-1]
    monkeypatch.setattr(instability, "_affine_min", recorded)
    rng = np.random.default_rng(seed)
    dropped = 0
    for _ in range(25):
        pts = _random_rational_polytope(rng, int(rng.integers(2, 6)), int(rng.integers(3, 10)))
        minimizers.clear()
        _assert_oracle_point(pts, min_norm_point(pts).point)
        assert all(d > 0 and sum(y) == d for y, d in minimizers)
        dropped += any(min(y) <= 0 for y, _ in minimizers)
    assert dropped >= 3


@pytest.mark.parametrize("seed", range(3))
def test_wolfe_with_repeated_points_matches_the_exact_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        dim = int(rng.integers(2, 5))
        pts = _random_rational_polytope(rng, dim, int(rng.integers(1, 5)))
        pts += [pts[int(i)] for i in rng.integers(0, len(pts), size=int(rng.integers(1, 4)))]
        cert = min_norm_point(pts)
        _assert_optimal(pts, cert.point)
        _assert_oracle_point(pts, cert.point)


@pytest.mark.parametrize("seed", range(3))
def test_wolfe_on_linearly_dependent_affinely_independent_points(seed):
    # dim points in the (dim-1)-dimensional traceless space: their Gram
    # matrix is singular, but the bordered affine system is not.  With the
    # last point -(sum c_i p_i) for c_i > 0, 0 is in the hull and u = 0
    # comes out of that system; with c_i < 0 it usually is not
    rng = np.random.default_rng(seed)
    for _ in range(10):
        dim = int(rng.integers(3, 6))
        pts = _random_rational_polytope(rng, dim, dim - 1)
        for sign in (1, -1):
            c = [sign * F(int(a), int(b)) for a, b in zip(rng.integers(1, 6, dim - 1),
                                                       rng.integers(1, 4, dim - 1))]
            if sum(c) == 1:  # the centroid would be 0 and skip the loop
                continue
            last = CartanVector([-sum(ci * p.coords[k] for ci, p in zip(c, pts))
                                 for k in range(dim)])
            cert = min_norm_point(pts + [last])
            _assert_optimal(pts + [last], cert.point)
            _assert_oracle_point(pts + [last], cert.point)
            if sign == 1:
                assert cert.point.is_zero()


@st.composite
def small_polytope(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=1, max_value=6))
    pts = []
    for _ in range(count):
        coords = [F(draw(st.integers(min_value=-6, max_value=6)))
                  for _ in range(dim)]
        shift = sum(coords) / dim
        pts.append(CartanVector([c - shift for c in coords]))
    return pts


@settings(max_examples=60, deadline=None)
@given(small_polytope())
def test_wolfe_invariants_property(pts):
    cert = min_norm_point(pts)
    _assert_optimal(pts, cert.point)
    _assert_oracle_point(pts, cert.point)


def _rational_traceless(rng, n):
    coords = [F(int(a), int(b)) for a, b in zip(rng.integers(-6, 7, n), rng.integers(1, 4, n))]
    return CartanVector([c - sum(coords) / n for c in coords])


def _perp(x, *others):
    """x minus its components along the pairwise orthogonal ``others``."""
    for o in others:
        x = x.add(o.scale(-oracles.trace_form(x, o) / o.norm_sq()))
    return x


def _as_rows(points):
    """A stand-in for a Representation whose weight rows are ``points``,
    with what ``_xi_prefix`` reads: the points, the points as integers over
    one denominator (``n`` for a Representation), and their Gram matrix."""
    scale = math.lcm(*(p.ints[1] for p in points))
    ints = np.array([[x * (scale // p.ints[1]) for x in p.ints[0]] for p in points], dtype=object)
    return SimpleNamespace(weight_groups=[(p, ()) for p in points], weight_ints=ints,
                           weight_gram=ints.dot(ints.T).tolist(), n=scale)


@pytest.mark.parametrize("seed", range(4))
def test_face_rule_matches_the_oracle(seed):
    # for weights on u's face, u is in their hull exactly when it is their
    # min-norm point: u inside, outside, at a vertex and on an edge, each
    # known by construction
    rng = np.random.default_rng(seed)
    for n in (3, 4, 5):
        u = _rational_traceless(rng, n)
        if u.is_zero():
            continue
        d = _perp(_rational_traceless(rng, n), u)  # a direction within the face
        if d.is_zero():
            continue

        def on_face(*others):
            return _perp(_rational_traceless(rng, n), u, *others)

        ws = [on_face() for _ in range(int(rng.integers(1, 4)))]
        inside = ws + [w.scale(-1) for w in ws[:1]]
        # each w of ``outside`` pairs with d to 1, so d separates u from them
        outside = [w.add(d.scale((1 - oracles.trace_form(w, d)) / d.norm_sq()))
                   for w in ws]
        vertex = [u.scale(0)] + ws
        edge_w = on_face(d)
        edge = [edge_w, edge_w.scale(-F(1, 3))] + outside
        cases = [(inside, True), (outside, False), (vertex, True)]
        if not edge_w.is_zero():
            cases.append((edge, True))
        for shifts, expected in cases:
            pts = [u.add(w) for w in shifts]
            assert all(oracles.trace_form(p, u) == u.norm_sq() for p in pts)
            assert (min_norm_point(pts).point == u) == expected
            point, coeffs = oracles.exact_min_norm(pts)
            assert (point == u.coords) == expected
            xi = instability._xi_prefix(_as_rows(pts), [(i, 0.0) for i in range(len(pts))], u, {})
            assert (xi is not None) == expected


def test_scaling_preserves_direction():
    pts = [CartanVector([2, -1, -1]), CartanVector([-1, 2, -1])]
    base = min_norm_point(pts)
    for c in (F(2), F(1, 3), F(5, 7)):
        scaled = min_norm_point([p.scale(c) for p in pts])
        assert scaled.point.coords == tuple(c * x for x in base.point.coords)


def _assert_zero_with_certificate(pts, cert):
    assert cert.point.is_zero()
    _assert_oracle_point(pts, cert.point)


@pytest.mark.parametrize("text, n", [("std", 3), ("sym(2,std)", 3), ("std*dual(std)", 2),
                                     ("wedge(2,std)", 4), ("std*std", 3)])
def test_distinct_weights_of_a_representation_have_min_norm_point_zero(monkeypatch, text, n):
    # a Weyl-invariant set sums to 0, so no Wolfe step is taken
    steps = []
    monkeypatch.setattr(instability, "_affine_min", lambda *args: steps.append(args))
    pts = sorted({w for w in build_rep(parse_rep_spec(text), n).weights},
                 key=lambda w: w.coords)
    _assert_zero_with_certificate(pts, min_norm_point(pts))
    assert steps == []


@pytest.mark.parametrize("seed", range(3))
def test_centroid_zero_matches_the_wolfe_loop(seed):
    # a set completed to sum 0 gets point 0 at once; a repeated point leaves
    # the hull as it is but not the sum, so Wolfe runs on the same hull
    rng = np.random.default_rng(seed)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        pts = _random_rational_polytope(rng, dim, int(rng.integers(1, 8)))
        pts.append(CartanVector([-sum(p.coords[i] for p in pts) for i in range(dim)]))
        cert = min_norm_point(pts)
        _assert_zero_with_certificate(pts, cert)
        repeat = max(pts, key=lambda p: p.norm_sq())  # 0 only if every point is
        if not repeat.is_zero():
            assert min_norm_point(pts + [repeat]).point == cert.point


# (spec, n, v): the rows of these representations, and the face of the u
# that the search finds for v, the slowest wedge(3,std) n=7 certificate of
# the paper ladder (18 rows on its face); v is None where u is the min-norm
# point of three random rows
ROW_CASES = [("sym(2,std)", 3, None), ("std*dual(std)", 3, None), ("sym(4,std)", 4, None),
             ("wedge(3,std)", 7, 8)]


@pytest.mark.parametrize("text, n, which", ROW_CASES)
def test_rows_give_the_min_norm_point_of_their_weights(text, n, which):
    # Wolfe on rows of the cached integer weights and their Gram matrix finds
    # the point min_norm_point finds from the weights, and the oracle's: on
    # random rows, single and repeated rows, rows on u's face, and sets
    # whose centroid is 0
    from ladder import paper_ladder
    rep = build_rep(parse_rep_spec(text), n)
    weights = [w for w, _ in rep.weight_groups]
    rng = np.random.default_rng(23)
    if which is None:
        u = min_norm_point([weights[j] for j in rng.choice(len(weights), 3, replace=False)]).point
    else:
        v = [x for x in paper_ladder() if x[:2] == (text, n)][which][2]
        u = instability.fastest_shrinking_geodesic(rep, v).flat.u
    face = np.flatnonzero(rep.levels(u) == 0).tolist()
    sets = [[int(j)] for j in rng.choice(len(weights), 3, replace=False)]
    sets += [rng.choice(len(weights), min(k, len(weights)), replace=False).tolist()
             for k in (2, 3, 5, 7)]
    sets += [s + s[:1] for s in sets[3:5]] + [sets[0] * 2]
    sets += [rng.choice(face, min(k, len(face)), replace=False).tolist() for k in (2, 4, 6, 8)]
    sets += [face, list(range(len(weights)))]
    sets += [[i, weights.index(w.scale(-1))] for i, w in enumerate(weights)
             if w.scale(-1) in weights][:3]
    zero_centroid = 0
    for rows in sets:
        point = instability._rows_min_norm(rep, rows)
        assert point == instability._wolfe(rep.weight_ints, rep.weight_gram, rows, rep.n)
        points = [weights[j] for j in rows]
        assert point == min_norm_point(points).point
        if len(rows) <= 8:
            assert point.coords == oracles.exact_min_norm(points)[0]
        zero_centroid += not any(sum(p.coords[k] for p in points) for k in range(n))
    assert zero_centroid >= 1 + (text == "std*dual(std)")
