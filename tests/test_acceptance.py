"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 is split three ways: the frame sweep (8a) holds and is
asserted; the "likely stable" verdict for e1+e2 in the standard plane (8b)
is mathematically impossible — any nonzero plane vector is unstable, since
rotating it onto an axis and applying diag(eps, 1/eps) shrinks it to 0 — so
8b is kept as a strict xfail documenting the defect; and a genuinely stable
control vector (8c) exercises the intended negative-control path.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from instab import (CartanVector, CertifyOptions, act, build_rep,
                    busemann_formula, busemann_limit, cartan_box_sample,
                    distance, dominance_certificate, fastest_shrinking_geodesic,
                    haar_so, is_unstable, midpoint, min_norm_point,
                    parse_rep_spec, project, ray_from_cartan, rep_norm,
                    torus_kempf, verify_dominance)
from instab.instability import LIKELY_STABLE
from instab.symspace import GeodesicRay

import oracles


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. min-norm point matches a brute-force oracle, with exact optimality


def test_acceptance_1_min_norm_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 13))
        pts = []
        for _ in range(count):
            nums = rng.integers(-9, 10, size=dim)
            dens = rng.integers(1, 5, size=dim)
            coords = [F(int(a), int(b)) for a, b in zip(nums, dens)]
            shift = sum(coords) / dim
            pts.append(CartanVector([c - shift for c in coords]))
        cert = min_norm_point(pts)
        u = np.asarray(cert.point.as_floats())
        u_oracle = oracles.enumerated_min_norm([p.as_floats() for p in pts])
        worst = max(worst, float(np.linalg.norm(u - u_oracle)))
        assert worst <= 1e-6
        uu = sum(c * c for c in cert.point.coords)
        for p in pts:
            dot = sum(a * b for a, b in zip(cert.point.coords, p.coords))
            assert dot >= uu  # exact rational optimality, stronger than -1e-9
    report(1, f"1000 polytopes, max |u - oracle| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. optimal cocharacter beats every small primitive cocharacter


def _unstable_samples(count=50):
    pool = [
        ("std", 2), ("std", 3), ("wedge(2,std)", 3), ("sym(2,std)", 2),
        ("sym(3,std)", 2), ("std*dual(std)", 2), ("wedge(2,std)*std", 3),
    ]
    reps = {key: build_rep(parse_rep_spec(key[0]), key[1]) for key in pool}
    rng = np.random.default_rng(7)
    out = []
    while len(out) < count:
        key = pool[int(rng.integers(len(pool)))]
        rep = reps[key]
        support = int(rng.integers(1, min(3, rep.dim) + 1))
        idx = rng.choice(rep.dim, size=support, replace=False)
        v = [F(0)] * rep.dim
        for i in idx:
            v[int(i)] = F(int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1),
                          int(rng.integers(1, 3)))
        try:
            res = torus_kempf(rep, v)
        except Exception:
            continue
        out.append((rep, v, res))
    return out


def test_acceptance_2_cocharacter_brute_force_maximality():
    samples = _unstable_samples(50)
    candidates = {n: oracles.primitive_cocharacters(n, 5) for n in (2, 3)}
    checked = 0
    for rep, v, res in samples:
        assert res.m > 0
        assert oracles.valuation_m(rep, v, res.tau.exps) == res.m
        from instab import m_value
        from instab.cartan import Cocharacter
        best = -math.inf
        for exps in candidates[rep.n]:
            m_lib = m_value(rep, v, Cocharacter(exps))
            assert m_lib == oracles.valuation_m(rep, v, exps)
            best = max(best, m_lib / math.sqrt(sum(e * e for e in exps)))
            checked += 1
        assert res.ratio >= best - 1e-12
    report(2, f"50 unstable vectors, {checked} candidate cocharacters swept")


# ---------------------------------------------------------------------------
# 3. Busemann formula against the defining limit


def test_acceptance_3_busemann_cross_validation():
    rng = np.random.default_rng(11)
    grid = (1.0, 10.0, 100.0, 1000.0)
    worst = 0.0
    for n in (2, 3):
        for _ in range(20):
            coords = np.sort(rng.uniform(-1.5, 1.5, n))[::-1]
            coords -= coords.mean()
            if np.max(np.abs(coords)) < 1e-3:
                continue
            a = CartanVector(tuple(coords))
            ray = ray_from_cartan(a)
            for _ in range(100):
                g = cartan_box_sample(rng, n, 1.0)
                lim = busemann_limit(ray, project(g), grid)
                dev = abs(busemann_formula(a, g) - lim.value)
                worst = max(worst, dev)
                assert dev <= 1e-2
                assert lim.nonincreasing
    report(3, f"2x20x100 direction/point pairs, max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Hadamard-geometry invariants in P(3)


def _random_unit_direction(rng, n=3):
    z = rng.standard_normal((n, n))
    p = z + z.T
    p -= np.trace(p) / n * np.eye(n)
    return p / np.sqrt(np.sum(p * p))


def test_acceptance_4_geometry_invariants():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = project(cartan_box_sample(rng, 3, 1.0))
        y = project(cartan_box_sample(rng, 3, 1.0))
        z = project(cartan_box_sample(rng, 3, 1.0))
        m = midpoint(x, y)
        lhs = distance(z, m) ** 2 + distance(x, y) ** 2 / 4
        rhs = (distance(z, x) ** 2 + distance(z, y) ** 2) / 2
        assert lhs <= rhs + 1e-8
    grid = (0.5, 1.0, 2.0, 4.0, 8.0)
    for _ in range(1000):
        r1 = GeodesicRay(direction=_random_unit_direction(rng))
        r2 = GeodesicRay(direction=_random_unit_direction(rng))
        ratios = [distance(r1.point(s), r2.point(s)) / s for s in grid]
        for a, b in zip(ratios, ratios[1:]):
            assert b >= a - 1e-8
    report(4, "1000 midpoint triples and 1000 ray pairs in P(3)")


# ---------------------------------------------------------------------------
# 5. end-to-end certificates verified by sampling


END_TO_END = [
    ("std", 2, [F(1), F(0)]),
    ("wedge(2,std)", 3, [F(1), F(0), F(0)]),
    ("std*dual(std)", 2, [F(0), F(1), F(0), F(0)]),   # nilpotent E_12
    ("sym(2,std)", 2, [F(1), F(0), F(0)]),
    ("std", 3, [F(1), F(0), F(0)]),
    ("wedge(2,std)", 3, [F(2), F(0), F(0)]),
    # regular direction: two nonzero coefficients
    ("std*wedge(2,std)", 3, [F(1)] + [F(0)] * 8),
    # non-constant margins: x^2 (x + y) in degree-3 forms
    ("sym(3,std)", 2, [F(1), F(1), F(0), F(0)]),
]


def _certificates():
    out = []
    for text, n, v in END_TO_END:
        rep = build_rep(parse_rep_spec(text), n)
        cert = dominance_certificate(rep, v, CertifyOptions(samples=0))
        out.append((text, rep, v, cert))
    return out


def test_acceptance_5_end_to_end_certificates():
    details = []
    for text, rep, v, cert in _certificates():
        rpt = verify_dominance(cert, rep, v, samples=10000, tol=1e-6, box=5.0)
        assert rpt.failures == 0, (text, rpt)
        assert rpt.margin_min >= -1e-6
        assert rpt.ray_slope_diff <= 1e-3
        details.append(f"{text}: min margin {rpt.margin_min:.3f}")
    report(5, f"{len(END_TO_END)} inputs x 10^4 samples; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 6. numeric geodesic rate agrees with the exact cocharacter ratio


def test_acceptance_6_two_path_consistency():
    worst = 0.0
    for text, n, v in END_TO_END:
        rep = build_rep(parse_rep_spec(text), n)
        try:
            tk = torus_kempf(rep, v)
        except Exception:
            continue
        res = fastest_shrinking_geodesic(rep, [float(x) for x in v])
        worst = max(worst, abs(res.rate - tk.ratio))
        assert abs(res.rate - tk.ratio) <= 1e-4
    report(6, f"max |geodesic rate - cocharacter ratio| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. scaling and rotation behavior of certificates


def test_acceptance_7_shift_scale_equivariance():
    rep = build_rep(parse_rep_spec("wedge(2,std)"), 3)
    c1 = dominance_certificate(rep, [F(1), F(0), F(0)], CertifyOptions(samples=0))
    c2 = dominance_certificate(rep, [F(2), F(0), F(0)], CertifyOptions(samples=0))
    assert c1.direction == c2.direction
    assert c1.order == c2.order
    assert c1.alphas == c2.alphas
    assert c2.c - c1.c == pytest.approx(math.log(2), abs=1e-9)

    # rotating the vector conjugates the found direction
    worst = 0.0
    for n, theta_axis in [(2, None), (3, (0, 1))]:
        rep_n = build_rep(parse_rep_spec("std"), n)
        v = [0.0] * n
        v[0] = 1.0
        base = fastest_shrinking_geodesic(rep_n, v)
        theta = 0.6
        q = np.eye(n)
        i, j = (0, 1) if theta_axis is None else theta_axis
        q[i, i] = q[j, j] = math.cos(theta)
        q[i, j] = -math.sin(theta)
        q[j, i] = math.sin(theta)
        rotated = fastest_shrinking_geodesic(rep_n, act(rep_n, q, v))
        expected = q @ base.direction @ q.T
        worst = max(worst, float(np.max(np.abs(rotated.direction - expected))))
        assert worst <= 1e-4
    report(7, f"c shift log 2 exact; rotation equivariance error {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. stability negative control


def test_acceptance_8a_plane_vector_hull_on_every_frame():
    # both weights of k(e1+e2) are active with 0 in their hull on 10^3
    # random frames
    from instab import flat_shrink_data

    rep = build_rep(parse_rep_spec("std"), 2)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        k = haar_so(2, rng)
        fd = flat_shrink_data(rep, [1.0, 1.0], k)
        assert len(fd.active) == 2
        assert fd.bounded_below
    report("8a", "0 in the active hull on 10^3 random frames for e1+e2")


@pytest.mark.xfail(strict=True, reason=(
    "every nonzero plane vector is unstable (rotate it onto an axis and "
    "shrink), so a correct engine certifies e1+e2 rather than calling it "
    "likely stable, and a box-sampled search drives ||g v|| well below 0.9; "
    "kept as stated for the record"))
def test_acceptance_8b_plane_vector_reported_stable():
    rep = build_rep(parse_rep_spec("std"), 2)
    verdict = is_unstable(rep, [1.0, 1.0], seed=0)
    assert verdict.kind == LIKELY_STABLE
    rng = np.random.default_rng(14)
    smallest = min(rep_norm(rep, act(rep, cartan_box_sample(rng, 2, 5.0), [1.0, 1.0]))
                   for _ in range(10000))
    assert smallest >= 0.9 * math.sqrt(2)


def test_acceptance_8c_sound_stable_control():
    # the mixed degree-2 monomial is genuinely stable: rotating it gives
    # tensor coordinates (-sin 2t, cos 2t, sin 2t), whose squared norm under
    # any diagonal dilation is sin^2(2t)(e^{4s}+e^{-4s}) + 2cos^2(2t) >= 2,
    # so the orbit infimum is exactly ||v|| = sqrt(2); a rotation/dilation
    # grid confirms it and random search stays above 0.9 of it
    rep = build_rep(parse_rep_spec("sym(2,std)"), 2)
    v = [0.0, 1.0, 0.0]
    verdict = is_unstable(rep, v, seed=0)
    assert verdict.kind == LIKELY_STABLE

    grid_best = math.inf
    for theta in np.linspace(0, math.pi, 181):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        w = act(rep, rot, v)
        for t in np.linspace(-3, 3, 241):
            g = np.diag([math.exp(t), math.exp(-t)])
            grid_best = min(grid_best, rep_norm(rep, act(rep, g, w)))
    analytic = math.sqrt(2)
    assert grid_best == pytest.approx(analytic, abs=1e-3)

    rng = np.random.default_rng(15)
    smallest = min(rep_norm(rep, act(rep, cartan_box_sample(rng, 2, 5.0), v))
                   for _ in range(10000))
    assert smallest >= 0.9 * analytic
    report("8c", f"stable control: classify=likely_stable, "
                 f"orbit grid inf {grid_best:.4f} vs analytic {analytic:.4f}, "
                 f"random-search min {smallest:.4f}")
