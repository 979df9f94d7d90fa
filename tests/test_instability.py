import hashlib
import itertools
import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import lru_cache
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from instab import (CertifyOptions, NonFiniteError, StableVectorError,
                    TorusStableError, ZeroVectorError, act, active_weights, build_rep,
                    cartan_box_sample, cert_from_dict, cert_to_dict,
                    dominance_certificate, dumps_cert,
                    fastest_shrinking_geodesic, flat_shrink_data, is_unstable,
                    loads_cert, log_rep_norm, min_norm_point, moment_map,
                    parse_rep_spec, torus_kempf, verify_dominance,
                    weight_components)
from instab import instability
from instab.cartan import CartanVector
from instab.errors import CertificateError, DimensionError
from instab.instability import (LIKELY_STABLE, NUMERIC_UNSTABLE,
                                TORUS_CERTIFIED, DominanceCert, KempfData,
                                VerifyReport, XiInfo)
from instab.reps import _log_norm, scaled_floats
from instab.symspace import block_orthogonal, exp_sym, haar_so

import oracles
from ladder import ladder, paper_ladder, rotated_ladder
from test_acceptance import END_TO_END


def std(n):
    return build_rep(parse_rep_spec("std"), n)


def wedge2(n):
    return build_rep(parse_rep_spec("wedge(2,std)"), n)


# ---------------------------------------------------------------------------
# Flat shrink data


def test_flat_data_single_weight():
    fd = flat_shrink_data(std(2), [1.0, 0.0])
    assert len(fd.active) == 1
    assert fd.u.coords == (F(1, 2), F(-1, 2))
    assert fd.rate == pytest.approx(1 / math.sqrt(2))
    assert not fd.bounded_below
    # decay-slope oracle: the best diagonal flow decays at -rate
    slopes = []
    for theta in np.linspace(0, 2 * math.pi, 3000, endpoint=False):
        d = np.array([math.cos(theta), -math.cos(theta)]) / math.sqrt(2)
        d = np.array([math.cos(theta), math.sin(theta)])
        d -= d.mean()
        nrm = np.linalg.norm(d)
        if nrm < 1e-9:
            continue
        slopes.append(oracles.diagonal_flow_slope(std(2), [1.0, 0.0], d / nrm))
    assert min(slopes) == pytest.approx(-fd.rate, abs=1e-5)


def test_flat_data_bounded_below():
    fd = flat_shrink_data(std(2), [1.0, 1.0])
    assert fd.bounded_below
    assert fd.rate == 0.0
    assert fd.u.coords == (F(0), F(0))


def test_flat_data_wedge_rate():
    fd = flat_shrink_data(wedge2(3), [1.0, 0.0, 0.0])
    assert fd.u.coords == (F(1, 3), F(1, 3), F(-2, 3))
    assert fd.rate == pytest.approx(math.sqrt(F(2, 3)))
    # 2-d grid oracle over unit traceless diagonal flows
    best = 0.0
    for theta in np.linspace(0, 2 * math.pi, 4000, endpoint=False):
        d = np.array([math.cos(theta), math.sin(theta), 0.0])
        d = d - d.mean()
        nrm = np.linalg.norm(d)
        if nrm < 1e-9:
            continue
        d /= nrm
        # rotate within the traceless plane by mixing with the third axis
        best = min(best, oracles.diagonal_flow_slope(wedge2(3), [1, 0, 0], d))
    # the plane sweep above misses the optimum; sweep the full 2-sphere of
    # traceless diagonals via spherical coordinates instead
    u1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    u2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    best = 0.0
    for theta in np.linspace(0, 2 * math.pi, 4000, endpoint=False):
        d = math.cos(theta) * u1 + math.sin(theta) * u2
        best = min(best, oracles.diagonal_flow_slope(wedge2(3), [1, 0, 0], d))
    assert best == pytest.approx(-fd.rate, abs=1e-5)


def test_flat_data_lower_bound_constant():
    # on the flat, log norm >= <b, u> + C for C = sum_i c_i r_i, with c the
    # convex coefficients of u over the active weights and r their log norms
    rep = std(3)
    v = [1.0, 2.0, 0.5]
    fd = flat_shrink_data(rep, v)
    point, coeffs = oracles.exact_min_norm([rep.weight_groups[j][0] for j in fd.active])
    assert point == fd.u.coords
    _, sums, e = weight_components(rep, v)
    r = [_log_norm(s, int(e[0])) for s in sums[0].tolist()]
    const = sum(float(c) * r[j] for c, j in zip(coeffs, fd.active))
    rng = np.random.default_rng(0)
    u = np.asarray(fd.u.as_floats())
    for _ in range(1000):
        b = rng.uniform(-4, 4, 3)
        b -= b.mean()
        val = log_rep_norm(rep, act(rep, np.diag(np.exp(b)), v))
        assert val >= float(b @ u) + const - 1e-9


def test_flat_data_zero_vector():
    with pytest.raises(ZeroVectorError):
        flat_shrink_data(std(2), [0.0, 0.0])


@pytest.mark.parametrize("frame, message", [
    (np.diag([2.0, 0.5, 1.0]), "frame is not orthogonal"),
    (np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "frame is not orthogonal"),
    (np.diag([-1.0, 1.0, 1.0]), "determinant 1"),
    (np.eye(2), "frame must be 3x3")], ids=["diagonal", "shear", "det -1", "2x2"])
def test_flat_data_checks_its_frame(frame, message):
    # a frame enters here: a det-1 diagonal or shear is no rotation, and its
    # direction would be neither unit nor traceless
    error = DimensionError if frame.shape != (3, 3) else ValueError
    with pytest.raises(error, match=message):
        flat_shrink_data(std(3), [1.0, 0.0, 0.0], frame)


# ---------------------------------------------------------------------------
# Fastest shrinking geodesic


def test_fsg_single_weight_direction_and_rate():
    res = fastest_shrinking_geodesic(std(2), [1.0, 0.0])
    expected = np.diag([-1.0, 1.0]) / math.sqrt(2)
    assert np.max(np.abs(res.direction - expected)) < 1e-8
    assert res.rate == pytest.approx(1 / math.sqrt(2), abs=1e-8)
    assert res.upper - res.rate <= 1e-6
    # exhaustive sphere oracle at fixed radius
    s = 20.0
    vals = []
    for theta in np.linspace(0, 2 * math.pi, 2000, endpoint=False):
        p = math.cos(theta) * np.diag([1.0, -1.0]) / math.sqrt(2) \
            + math.sin(theta) * np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2)
        g = exp_sym(0.5 * s * p)
        vals.append(log_rep_norm(std(2), act(std(2), g, [1.0, 0.0])))
    g = exp_sym(0.5 * s * res.direction)
    assert log_rep_norm(std(2), act(std(2), g, [1.0, 0.0])) <= min(vals) + 1e-9


def test_fsg_scale_invariance():
    r1 = fastest_shrinking_geodesic(std(2), [1.0, 0.0])
    r2 = fastest_shrinking_geodesic(std(2), [2.0, 0.0])
    assert np.max(np.abs(r1.direction - r2.direction)) < 1e-10
    assert r1.rate == pytest.approx(r2.rate, abs=1e-10)


def test_fsg_rotation_equivariance():
    theta = 0.7
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rep = std(2)
    base = fastest_shrinking_geodesic(rep, [1.0, 0.0])
    rotated = fastest_shrinking_geodesic(rep, act(rep, q, [1.0, 0.0]))
    expected = q @ base.direction @ q.T
    assert np.max(np.abs(rotated.direction - expected)) < 1e-4


def test_fsg_restriction_to_its_flat():
    res = fastest_shrinking_geodesic(wedge2(3), [1.0, 0.0, 0.0])
    fd = flat_shrink_data(wedge2(3), [1.0, 0.0, 0.0], res.flat.frame)
    assert abs(res.rate - fd.rate) < 1e-6
    assert np.max(np.abs(fd.direction - res.direction)) < 1e-6


def test_fsg_reports_exact_in_flat_rate():
    # the rate is the found flat's exact ||u||, never a slope estimate
    cases = [(std(2), [1.0, 1.0], 1 / math.sqrt(2)),
             (wedge2(3), [0.3, 0.5, -0.2], math.sqrt(2 / 3))]
    for rep, v, exact in cases:
        res = fastest_shrinking_geodesic(rep, v)
        assert not res.flat.bounded_below
        assert res.rate == res.flat.rate
        assert res.rate == pytest.approx(exact, abs=1e-12)


def test_fsg_stable_vector_raises():
    rep = build_rep(parse_rep_spec("sym(2,std)"), 2)
    with pytest.raises(StableVectorError):
        fastest_shrinking_geodesic(rep, [0.0, 1.0, 0.0])


def test_stable_ternary_form_is_settled_by_the_moment_map():
    # a definite ternary form: ||mu|| drops below every positive rate in a
    # few steps
    rep = build_rep(parse_rep_spec("sym(2,std)"), 3)
    v = [1.0, 0.3, 0.1, 2.0, -0.2, 1.5]
    assert is_unstable(rep, v).kind == LIKELY_STABLE
    with pytest.raises(StableVectorError, match=r"\|\|mu\|\| = ") as err:
        fastest_shrinking_geodesic(rep, v)
    assert float(re.search(r"= (\S+) ", str(err.value)).group(1)) < \
        math.sqrt(rep.weight_margin_sq) / 2


def test_stop_message_names_the_bound_it_crossed():
    # gamma/2 where the weight margin is enumerated, else the fallback
    ternary = build_rep(parse_rep_spec("sym(2,std)"), 3)
    with pytest.raises(StableVectorError,
                       match=r"is below every positive rate \(below gamma/2 = 0\.204\)$"):
        fastest_shrinking_geodesic(ternary, [1.0, 0.3, 0.1, 2.0, -0.2, 1.5])
    assert instability._stable_bound(build_rep(parse_rep_spec("sym(3,std)"), 6)) == \
        (1e-3, "the fallback 0.001")


# the rotated ladder's std*std inputs (0-based, in ladder order) that are
# semistable but not polystable: ||mu|| tends to 0 on their orbits without
# reaching it, and below a fixed 1e-3 they ran the descent to its step cap
SEMISTABLE_STD_STD = (8, 10, 12)


def test_semistable_inputs_stop_at_the_weight_margin(monkeypatch):
    entries = [v for spec, n, v in rotated_ladder() if (spec, n) == ("std*std", 3)]
    rep = build_rep(parse_rep_spec("std*std"), 3)
    for i in SEMISTABLE_STD_STD:
        calls = _count_calls(monkeypatch, instability, "moment_map")
        assert is_unstable(rep, entries[i]).kind == LIKELY_STABLE
        assert len(calls) < 20
        monkeypatch.undo()


def test_rotated_triple_root_is_unstable():
    # -2x^4 + 2x^3y = 2x^3(y - x) has a triple root: rate ||(1, -1)|| =
    # sqrt 2, reached only after the descent leaves the identity
    rep = build_rep(parse_rep_spec("sym(4,std)"), 2)
    k = haar_so(2, np.random.default_rng(5))
    res = fastest_shrinking_geodesic(rep, act(rep, k, [-2.0, 2.0, 0.0, 0.0, 0.0]))
    assert res.rate == pytest.approx(math.sqrt(2), abs=1e-12)
    assert res.rate - 1e-6 <= res.upper <= res.rate + 1e-6


# ---------------------------------------------------------------------------
# Optimal torus cocharacter


def test_torus_kempf_standard():
    res = torus_kempf(std(2), [1, 0])
    assert res.tau.exps == (1, -1)
    assert res.m == 1
    assert res.ratio == pytest.approx(1 / math.sqrt(2))
    assert math.gcd(*res.tau.exps) == 1


def test_torus_kempf_wedge():
    res = torus_kempf(wedge2(3), [1, 0, 0])
    assert res.tau.exps == (1, 1, -2)
    assert res.m == 2
    assert res.ratio == pytest.approx(flat_shrink_data(wedge2(3), [1, 0, 0]).rate)


def test_torus_kempf_stable_input():
    with pytest.raises(TorusStableError):
        torus_kempf(std(2), [1, 1])


@pytest.mark.parametrize("text,n,v", [
    ("std", 2, [1, 0]),
    ("wedge(2,std)", 3, [1, 0, 0]),
    ("sym(3,std)", 2, [1, 1, 0, 0]),
    ("std*dual(std)", 2, [0, 1, 0, 0]),
])
def test_torus_kempf_brute_force_maximality(text, n, v):
    rep = build_rep(parse_rep_spec(text), n)
    res = torus_kempf(rep, v)
    best = max(oracles.valuation_m(rep, v, exps) / math.sqrt(sum(e * e for e in exps))
               for exps in oracles.primitive_cocharacters(n, 5))
    assert res.ratio >= best - 1e-12
    assert oracles.valuation_m(rep, v, res.tau.exps) == res.m


@st.composite
def exact_traceless(draw):
    """A nonzero exact traceless u, n = 2..7: either rationals with
    numerators and denominators up to 10^30, or a vector of (1/n)Z^n, as
    weights and many min-norm points are.  The first n - 1 coordinates come
    from a pool of at most three values, so ties are frequent."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        value = st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
    else:
        value = st.builds(F, st.integers(-4 * n, 4 * n), st.just(n))
    pool = draw(st.lists(value, min_size=1, max_size=3))
    head = draw(st.lists(st.sampled_from(pool), min_size=n - 1, max_size=n - 1))
    coords = head + [-sum(head)]
    assume(any(coords))
    return CartanVector(coords)


@settings(max_examples=300, deadline=None)
@given(exact_traceless())
def test_integer_form_of_u_matches_the_fraction_reference(u):
    # every value a certificate derives from u, and the levels of u, read
    # the integer form (U, D) of u; the Fraction formulas give the same bits
    # and the same tie order
    rep = build_rep(parse_rep_spec("sym(2,std)"), u.n)
    want = oracles.fraction_certificate_values(u, rep)
    cert = DominanceCert(n=u.n, spec=parse_rep_spec("std"), vector=(F(1),) + (F(0),) * (u.n - 1),
                         frame=None, u=u, c=0.0, xi=XiInfo(frames=1, excluded=0, value=0.1,
                                                          margin=0.1),
                         verification=None, seed=0, eps=1e-10)
    assert cert.rate.hex() == want["rate"].hex()
    assert [x.hex() for x in cert.direction] == [x.hex() for x in want["direction"]]
    assert cert.order.perm == want["order"]
    assert cert.alphas == want["alphas"] and all(type(a) is F for a in cert.alphas)
    assert cert.hw == want["hw"]
    assert rep.levels(u).tolist() == want["levels"]
    if isinstance(want["kempf"], ArithmeticError):
        with pytest.raises(ArithmeticError, match=re.escape(str(want["kempf"]))):
            cert.kempf
    else:
        k = cert.kempf
        assert (k.tau.exps, k.m, k.norm_sq) == want["kempf"][:3]
        assert k.ratio.hex() == want["kempf"][3].hex()


def test_fsg_rate_matches_torus_ratio():
    for rep, v in [(std(2), [1.0, 0.0]), (wedge2(3), [1.0, 0.0, 0.0])]:
        tk = torus_kempf(rep, v)
        res = fastest_shrinking_geodesic(rep, v)
        assert abs(res.rate - tk.ratio) < 1e-4


# ---------------------------------------------------------------------------
# Instability search


def test_is_unstable_certified_cases():
    assert is_unstable(std(2), [1.0, 0.0]).kind == TORUS_CERTIFIED
    rep = build_rep(parse_rep_spec("std*dual(std)"), 2)
    verdict = is_unstable(rep, [0.0, 1.0, 0.0, 0.0])
    assert verdict.kind == TORUS_CERTIFIED
    assert verdict.rate == pytest.approx(math.sqrt(2))


def test_is_unstable_numeric_path():
    # 0 lies in the hull of the identity flat's weights, but the descent
    # still finds the decay
    verdict = is_unstable(std(2), [1.0, 1.0])
    assert verdict.kind == NUMERIC_UNSTABLE
    assert verdict.rate == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_is_unstable_stable_control():
    rep = build_rep(parse_rep_spec("sym(2,std)"), 2)
    verdict = is_unstable(rep, [0.0, 1.0, 0.0], seed=3)
    assert verdict.kind == LIKELY_STABLE


def test_is_unstable_zero_vector():
    with pytest.raises(ZeroVectorError):
        is_unstable(std(2), [0.0, 0.0])


@pytest.mark.parametrize("v", [[math.nan, 1.0, 0.0], [math.inf, 1.0, 0.0]])
def test_is_unstable_rejects_non_finite_entries(v):
    with pytest.raises(NonFiniteError, match="entry 0") as err:
        is_unstable(std(3), v)
    assert not isinstance(err.value, ZeroVectorError)


def _oracle_counts(entries, kinds, pairs):
    """Check each nonzero entry of a pair in ``pairs`` against the exact
    null cone: it is likely stable exactly when the pair's invariant in
    ``oracles.NULL_CONE_INVARIANTS`` is not 0.  Returns the number checked
    and how many of them are stable."""
    checked = stable = 0
    for (spec, n, v), kind in zip(entries, kinds):
        if (spec, n) not in pairs or not any(v):
            continue
        invariant = oracles.NULL_CONE_INVARIANTS[spec, n]
        outside = invariant(build_rep(parse_rep_spec(spec), n), v) != 0
        assert (kind == LIKELY_STABLE) == outside, (spec, n, v)
        checked, stable = checked + 1, stable + outside
    return checked, stable


def test_ladder_verdicts_are_pinned():
    # the inputs and verdict counts ROADMAP reports on
    entries = ladder()
    text = "\n".join(f"{spec} {n} {','.join(map(str, v))}" for spec, n, v in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0a366539678f6ceed83886a0341349d835b7776ea5909a3276bc7fc47a64c806"
    kinds = [is_unstable(build_rep(parse_rep_spec(spec), n), v).kind if any(v) else "zero"
             for spec, n, v in entries]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        TORUS_CERTIFIED: 159, NUMERIC_UNSTABLE: 59, LIKELY_STABLE: 138, "zero": 44}
    assert _oracle_counts(entries, kinds, oracles.DET_NULL_CONE) == (200, 43)
    assert _oracle_counts(entries, kinds, {("sym(3,std)", 2)}) == (44, 18)
    assert _oracle_counts(entries, kinds, {("std*wedge(2,std)", 3)}) == (56, 43)


def test_rotated_ladder_verdicts_are_pinned():
    # the rotated inputs, their verdict counts, and each input's kind and u
    entries = rotated_ladder()
    text = "\n".join(f"{spec} {n} {','.join(map(str, v))}" for spec, n, v in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ba31481c1775ce31adb1398a4064af2db2792d5260169dd828392fdeed5c0a37"
    verdicts = [is_unstable(build_rep(parse_rep_spec(spec), n), v) for spec, n, v in entries]
    kinds = [verdict.kind for verdict in verdicts]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        TORUS_CERTIFIED: 22, NUMERIC_UNSTABLE: 196, LIKELY_STABLE: 138}
    assert _oracle_counts(entries, kinds, oracles.DET_NULL_CONE) == (200, 43)
    assert _oracle_counts(entries, kinds, {("sym(3,std)", 2)}) == (44, 18)
    assert _oracle_counts(entries, kinds, {("std*wedge(2,std)", 3)}) == (56, 43)
    answers = "\n".join(f"{verdict.kind} " + ("" if verdict.flat is None else
                                              ",".join(map(str, verdict.flat.u.coords)))
                        for verdict in verdicts)
    assert hashlib.sha256(answers.encode()).hexdigest() == \
        "d7d692555e9e8f65536d0dbc2e71e42c55c76816fd30e1c2dac4a3521d84804e"


def test_ladder_certificates_are_pinned():
    # one sha256 over the dumps_cert bytes (samples=0) of the certificate of
    # every unstable input of both ladders, in ladder order
    digest, count = hashlib.sha256(), 0
    for spec, n, v in ladder() + rotated_ladder():
        if not any(v):
            continue
        try:
            cert = dominance_certificate(build_rep(parse_rep_spec(spec), n), v,
                                         CertifyOptions(samples=0))
        except StableVectorError:
            continue
        digest.update(dumps_cert(cert).encode())
        count += 1
    assert count == 436
    assert digest.hexdigest() == \
        "f36ac063ba3dda52b3eed9e78959f3ce40bd95c4c675270297f9a48a763c5255"


def test_paper_ladder_prefix_is_pinned():
    # the first three pairs of the paper ladder, 36 inputs of dimension 15
    # and 20: verdict counts, and one sha256 over the dumps_cert bytes
    # (samples=0) of the certificate of every unstable input, in order
    entries = paper_ladder()[:36]
    assert [(spec, n) for spec, n, _ in entries[::12]] == [
        ("sym(3,std)", 4), ("wedge(3,std)", 6), ("sym(2,std)", 5)]
    assert all(any(v) for _, _, v in entries)
    digest, kinds = hashlib.sha256(), []
    for spec, n, v in entries:
        rep = build_rep(parse_rep_spec(spec), n)
        kinds.append(is_unstable(rep, v).kind)
        if kinds[-1] != LIKELY_STABLE:
            digest.update(dumps_cert(dominance_certificate(rep, v, CertifyOptions(samples=0)))
                          .encode())
    assert {k: kinds.count(k) for k in set(kinds)} == {
        TORUS_CERTIFIED: 25, NUMERIC_UNSTABLE: 8, LIKELY_STABLE: 3}
    assert digest.hexdigest() == \
        "d4af12250238ea409aa03159cce7ec99838c75404814a6ee1eaae9d827b5e253"


# representations whose tensor coefficients are not all +-1 (the dual of a
# symmetric power divides by the squared tensor norm: 1/2, 1/3), where the
# float action of the identity rounds c * x and divides by c again
COEFFICIENT_SPECS = [("dual(sym(2,std))", 3), ("sym(2,dual(std))", 3), ("dual(sym(3,std))", 2)]


def test_coefficient_certificates_are_pinned():
    # one sha256 over the dumps_cert bytes (samples=50) of the certificates
    # of ten sparse integer vectors per pair, each exact and divided by 7
    # as floats; stable inputs are skipped
    digest, modes, frames = hashlib.sha256(), [], []
    for spec, n in COEFFICIENT_SPECS:
        rep = build_rep(parse_rep_spec(spec), n)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.integers(-3, 4, size=rep.dim) * (rng.random(rep.dim) < 0.4)
            if not x.any():
                continue
            for v in ([int(a) for a in x], [a / 7 for a in x.tolist()]):
                try:
                    cert = dominance_certificate(rep, v, CertifyOptions(samples=50))
                except StableVectorError:
                    continue
                digest.update(dumps_cert(cert).encode())
                modes.append(cert.mode)
                frames.append(cert.xi.frames)
    assert (modes.count("exact"), modes.count("float")) == (20, 24)
    assert (frames.count(1), frames.count(1001)) == (16, 28)
    assert digest.hexdigest() == \
        "c8d08e56393b2924a4d5aa67d73ce5b740b65ede6d0711cf5071b7c9da24bdd0"


def test_is_unstable_at_extreme_scales():
    base = is_unstable(std(3), [1.0, 0.0, 0.0])
    # rationals beyond the float range are scaled exactly before rounding
    for v, kind in (([1e-200, 0.0, 0.0], TORUS_CERTIFIED),
                    ([1e200, 1e200, 0.0], NUMERIC_UNSTABLE),
                    ([F(1, 10**400), 0, 0], TORUS_CERTIFIED),
                    ([10**400, 0, 0], TORUS_CERTIFIED),
                    ([10**400, 10**400, 0], NUMERIC_UNSTABLE)):
        with np.errstate(over="raise", invalid="raise"):
            verdict = is_unstable(std(3), v)
        assert verdict.kind == kind
        assert verdict.flat.u == base.flat.u
        assert verdict.rate == base.rate


def test_certificate_of_rationals_beyond_the_float_range():
    base = dominance_certificate(std(3), [1, 0, 0], fast_opts(samples=300))
    for s in (F(1, 10**400), F(10**400)):
        with np.errstate(over="raise", invalid="raise"):
            cert = dominance_certificate(std(3), [s, 0, 0], fast_opts(samples=300))
        expected = base.c + math.log(s.numerator) - math.log(s.denominator)
        assert abs(cert.c - expected) <= 1e-9 * max(1.0, abs(cert.c))
        assert cert.verification.ok
        assert verify_dominance(loads_cert(dumps_cert(cert)), samples=100).ok


def test_definite_binary_quadric_is_likely_stable():
    # x^2 + 1e-6 y^2 is definite (det != 0), so no rate is positive.  Every
    # flat of the search keeps y^2 at the threshold 1e-10, and the descent
    # drives ||mu|| below every positive rate.
    rep = build_rep(parse_rep_spec("sym(2,std)"), 2)
    v = [F(1), F(0), F(1, 10**6)]
    assert flat_shrink_data(rep, v).bounded_below
    assert is_unstable(rep, v).kind == LIKELY_STABLE
    with pytest.raises(StableVectorError):
        fastest_shrinking_geodesic(rep, v)
    with pytest.raises(StableVectorError):
        dominance_certificate(rep, v, CertifyOptions(samples=0))


# float inputs of std, wedge(2,std) and sym(2,std), with their verdict kinds:
# the identity flat decides those with one active weight, the descent the
# others
SCALE_INPUTS = [("std", 3, [0.2, 0.7, -0.4], NUMERIC_UNSTABLE),
                ("std", 3, [1.5, 0.0, -0.25], NUMERIC_UNSTABLE),
                ("wedge(2,std)", 3, [0.0, 1.25, -0.5], NUMERIC_UNSTABLE),
                ("wedge(2,std)", 3, [0.75, 0.0, 0.0], TORUS_CERTIFIED),
                ("sym(2,std)", 2, [0.0, 0.0, 0.7], TORUS_CERTIFIED),
                ("sym(2,std)", 2, [0.3, 0.0, 0.0], TORUS_CERTIFIED)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SCALE_INPUTS), st.integers(min_value=-900, max_value=900))
def test_verdict_invariant_under_power_of_two_scaling(case, k):
    text, n, v, kind = case
    rep = build_rep(parse_rep_spec(text), n)
    base = is_unstable(rep, v)
    assert base.kind == kind
    scaled = is_unstable(rep, [math.ldexp(x, k) for x in v])
    assert scaled.kind == base.kind
    assert scaled.flat.u == base.flat.u
    assert scaled.rate == base.rate


def test_nilpotent_matrix_vector_certified():
    rep = build_rep(parse_rep_spec("std*dual(std)"), 2)
    # strictly upper triangular matrix shrinks under the conjugation flow
    verdict = is_unstable(rep, [0.0, 1.0, 0.0, 0.0])
    assert verdict.kind == TORUS_CERTIFIED


# specs for the lemma that Haar-random frames never certify
LEMMA_SPECS = [("std", 2), ("std", 4), ("dual(std)", 3), ("wedge(2,std)", 3),
               ("wedge(2,std)", 4), ("wedge(3,std)", 4), ("sym(2,std)", 2),
               ("sym(2,std)", 3), ("sym(3,std)", 2), ("std*dual(std)", 2),
               ("std*std", 3)]


@pytest.mark.parametrize("text, n", LEMMA_SPECS)
def test_haar_frames_never_certify(text, n):
    # the weights active somewhere on the SO(n)-orbit form a Weyl-invariant
    # set, so 0 is in their hull, and a random frame activates all of them
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(np.random.SeedSequence((n, rep.dim)))
    for _ in range(2):
        v = np.zeros(rep.dim)
        while not v.any():
            v = rng.integers(-3, 4, size=rep.dim).astype(float)
        for _ in range(16):
            fd = flat_shrink_data(rep, v, haar_so(n, rng))
            assert fd.bounded_below
            assert fd.u.is_exact and all(c == 0 for c in fd.u.coords)


def sym3_orbit_vector():
    """rho(h) x1^3 in sym(3,std) n=6 for a unipotent h: in the orbit of
    x1^3, so its rate is ||weight of x1^3|| = sqrt 7.5."""
    rep = build_rep(parse_rep_spec("sym(3,std)"), 6)
    x = [F(0)] * rep.dim
    x[0] = F(1)
    h = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    h[1][0], h[2][0], h[3][1] = F(1), F(-1, 2), F(2)
    return rep, list(act(rep, h, x))


# vectors beyond the seeded ones: the identity flat of each has a face
# slower than the optimum
NAMED_VECTORS = {("std", 3): [[1.5, 0.0, -0.25], [1e200, 1e200, 0.0]],
                 ("wedge(2,std)", 3): [[0.0, 1.25, -0.5]],
                 ("wedge(3,std)", 4): [[3, -6, 2, 5]]}


@pytest.mark.parametrize("text, n", [(text, n) for n in (3, 4) for text in
                                     ("std", "dual(std)", f"wedge({n - 1},std)")])
def test_classify_reports_the_optimal_rate(text, n):
    # SL(n) is transitive on the nonzero vectors of std and its dual, so
    # every one has the rate of e1: sqrt((n-1)/n).  Only a single active
    # weight leaves the identity flat optimal.
    rep = build_rep(parse_rep_spec(text), n)
    rng = np.random.default_rng(n)
    vectors = [[float(i == n - 1) for i in range(n)], [0.2, 0.7, -0.4, 0.1][:n],
               *(rng.integers(-3, 4, size=n) for _ in range(3)),
               rng.normal(size=n), *NAMED_VECTORS.get((text, n), [])]
    for v in vectors:
        if not np.any(v):
            continue
        verdict = is_unstable(rep, v)
        one_weight = np.count_nonzero(v) == 1
        assert verdict.kind == (TORUS_CERTIFIED if one_weight else NUMERIC_UNSTABLE), v
        assert verdict.rate == pytest.approx(math.sqrt((n - 1) / n), abs=1e-12), v


def test_classify_reports_the_optimal_rate_in_the_orbit_of_a_weight_vector():
    rep, v = sym3_orbit_vector()
    verdict = is_unstable(rep, v)
    assert verdict.kind == NUMERIC_UNSTABLE
    assert verdict.rate == pytest.approx(math.sqrt(7.5), abs=1e-9)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


LARGE_REPS = [("sym(4,std)", 4), ("wedge(2,std)*wedge(2,std)*std", 4)]


@pytest.mark.parametrize("text, n, v", [
    *((text, n, list(v)) for text, n, v in END_TO_END),
    *((text, n, [F(3, 7)] + [F(0)] * (build_rep(parse_rep_spec(text), n).dim - 1))
      for text, n in LARGE_REPS)])
def test_balanced_identity_face_takes_no_step(monkeypatch, text, n, v):
    # a weight vector, or one whose face is balanced, is settled at the
    # identity flat: ||mu(v_F)|| = ||u||
    from instab import instability
    steps = _count_calls(monkeypatch, instability, "exp_sym")
    rep = build_rep(parse_rep_spec(text), n)
    res = fastest_shrinking_geodesic(rep, v)
    assert res.frames_tried == 1
    assert res.upper == res.rate
    assert np.array_equal(res.flat.frame, np.eye(n))
    assert res.flat.u == flat_shrink_data(rep, v).u
    verdict = is_unstable(rep, v)
    assert (verdict.kind, verdict.frames_tried) == (TORUS_CERTIFIED, 1)
    assert steps == []


def test_a_rational_support_is_exact_at_any_scale():
    # 2^-1100 rounds to 0.0 beside 1, yet its weight is in the support and
    # in u: the midpoint of the two weights
    rep = std(3)
    v = [F(1), F(1, 2 ** 1100), F(0)]
    assert scaled_floats(rep, v)[0].tolist() == [0.5, 0.0, 0.0]
    assert {rep.weight_groups[j][0] for j in active_weights(rep, v)} == set(rep.weights[:2])
    assert flat_shrink_data(rep, v).u == CartanVector((F(1, 6), F(1, 6), F(-1, 3)))


def test_the_exact_identity_flat_takes_no_float_norm(monkeypatch):
    from instab import reps
    rep = build_rep(parse_rep_spec(LARGE_REPS[1][0]), LARGE_REPS[1][1])
    assert rep.dim == 144
    v = [F(3, 7)] + [F(0)] * (rep.dim - 1)
    calls = _count_calls(monkeypatch, reps, "_weighted_squares")
    assert flat_shrink_data(rep, v).u == rep.weights[0]
    assert calls == []
    flat_shrink_data(rep, [float(x) for x in v])  # floats take their components
    assert calls == ["_weighted_squares"]


@pytest.mark.parametrize("big", [2 ** 900, 2 ** 1060, 2 ** 1100, 10 ** 400],
                         ids=["2^900", "2^1060", "2^1100", "10^400"])
def test_a_face_far_below_the_largest_entry_is_settled_exactly(big):
    # x^3 lies above the face of u = the weight of x^2 y, so v_F is the
    # x^2 y term alone, and beside x^3 * big its float copy is subnormal or
    # 0: the face test rounds v_F by itself instead
    rep = build_rep(parse_rep_spec("sym(3,std)"), 3)
    v = [big, 1] + [0] * 8
    u = rep.weights[1]
    assert oracles.trace_form(rep.weights[0], u) > u.norm_sq()
    verdict = is_unstable(rep, v)
    assert (verdict.kind, verdict.frames_tried) == (TORUS_CERTIFIED, 1)
    assert verdict.flat.u == u


@pytest.mark.parametrize("k", [10 ** 11, 10 ** 20], ids=["1e11", "1e20"])
def test_an_exact_face_far_below_the_largest_entry_keeps_its_constant(k):
    # v = k x^3 + x^2 y: u is the weight of x^2 y, alone on its face, so c
    # is log||x^2 y|| - 0.1 for every k.  The x^2 y component lies more
    # than 1/eps below the largest, yet the identity frame reads the exact
    # support, so the constant is the one of k = 10^3 and stays finite
    rep = build_rep(parse_rep_spec("sym(3,std)"), 3)
    opts = CertifyOptions(samples=20)
    near = dominance_certificate(rep, [10 ** 3, 1] + [0] * 8, opts)
    cert = dominance_certificate(rep, [k, 1] + [0] * 8, opts)
    assert cert.mode == "exact" and cert.u == rep.weights[1]
    assert cert.c == near.c == pytest.approx(0.44930614433405, abs=1e-13)
    assert (cert.xi.frames, cert.xi.excluded) == (1, 0)
    assert cert.verification.failures == 0
    assert loads_cert(dumps_cert(cert)) == cert


def test_a_constant_that_is_not_finite_is_never_written():
    # beyond the float range the x^2 y component of v = 2^1100 x^3 + x^2 y
    # rounds to 0 beside x^3, so the identity frame reads its log norm from
    # the exact component, and c is the one of k = 10^3 (u is alone on its
    # face).  dumps_cert refuses a c that is not finite rather than write
    # -Infinity or NaN
    rep = build_rep(parse_rep_spec("sym(3,std)"), 3)
    cert = dominance_certificate(rep, [2 ** 1100, 1] + [0] * 8, CertifyOptions(samples=0))
    assert math.isfinite(cert.c)
    assert cert.c == pytest.approx(0.4493061443340548, abs=1e-12)
    assert loads_cert(dumps_cert(cert)) == cert
    with pytest.raises(CertificateError, match="c = -inf is not finite"):
        dumps_cert(replace(cert, c=-math.inf))
    with pytest.raises(CertificateError, match="c = nan is not finite"):
        dumps_cert(replace(cert, c=math.nan))


def _face_moment_norm(rep, v):
    """||mu(v_F)|| for the identity flat, v_F found from rep.weights alone."""
    fd = flat_shrink_data(rep, v)
    face = {w for w in (rep.weight_groups[j][0] for j in fd.active)
            if oracles.trace_form(w, fd.u) == fd.u.norm_sq()}
    v_face = [float(x) if w in face else 0.0 for x, w in zip(v, rep.weights)]
    return fd, float(np.linalg.norm(moment_map(rep, v_face)))


@pytest.mark.parametrize("case", ["std n=3", "sym(3,std) n=6"])
def test_unbalanced_identity_face_runs_the_descent(case):
    # the identity flat is slower than the face's ||mu(v_F)||: the descent
    # snaps at least one frame
    rep, v = (std(3), [1.0, 1.0, 0.0]) if case == "std n=3" else sym3_orbit_vector()
    fd, face_norm = _face_moment_norm(rep, v)
    assert not fd.bounded_below
    assert face_norm > fd.rate + 1e-3
    cert = dominance_certificate(rep, v, CertifyOptions(samples=0))
    assert cert.rate > fd.rate + 1e-3
    assert face_norm >= cert.rate - 1e-12
    res = fastest_shrinking_geodesic(rep, v)
    assert res.frames_tried > 1
    assert res.rate == cert.rate
    assert res.upper - res.rate <= 1e-6


def test_descent_takes_one_flat_per_frame(monkeypatch):
    # each snapped frame is read at the one threshold eps: one flat each,
    # and the identity flat counts as the first frame
    flats = _count_calls(monkeypatch, instability, "flat_shrink_data")
    res = fastest_shrinking_geodesic(std(3), [1.0, 1.0, 0.0])
    assert not res.identity and res.frames_tried > 1
    assert len(flats) == res.frames_tried


def test_certify_runs_one_search(monkeypatch):
    from instab import instability
    for rep, v in [(std(2), [1, 0]), (wedge2(3), [0.3, 0.5, -0.2])]:
        searches = _count_calls(monkeypatch, instability, "fastest_shrinking_geodesic")
        classifies = _count_calls(monkeypatch, instability, "is_unstable")
        dominance_certificate(rep, v, CertifyOptions(samples=0))
        assert (len(searches), len(classifies)) == (1, 0)
        monkeypatch.undo()


def test_a_certificate_acts_once_and_its_identity_frame_not_again(monkeypatch):
    # each acceptance input is settled at its identity flat by the face
    # test, so the constant estimator's one act maps v to the flat's frame;
    # the identity frame is read from that vector, and only drawn block
    # frames go through _apply.  The search's float copy of v and its
    # levels of the identity flat are handed on, not computed again
    from instab.reps import Representation
    for text, n, v in END_TO_END:
        acts = _count_calls(monkeypatch, instability, "act")
        applies = _count_calls(monkeypatch, instability, "_apply")
        roundings = _count_calls(monkeypatch, instability, "scaled_floats")
        levels = _count_calls(monkeypatch, Representation, "levels")
        rep = build_rep(parse_rep_spec(text), n)
        cert = dominance_certificate(rep, v, CertifyOptions(samples=0))
        chunks = -(-(cert.xi.frames - 1) // instability._chunk(rep))
        assert (len(acts), len(applies)) == (1, chunks), text
        assert (len(roundings), len(levels)) == (1, 1), text
        monkeypatch.undo()


@pytest.mark.parametrize("v", [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [F(1), F(1), F(0)]],
                         ids=["identity bounded below", "float identity face",
                              "exact identity face"])
def test_a_descent_certificate_rounds_v_once_and_takes_its_flat_levels_once(monkeypatch, v):
    # at a descent flat the certificate reads that flat's own levels once;
    # the identity flat's levels were read by the search's face test, where
    # that flat is not bounded below, and are not read again
    from instab.reps import Representation
    roundings = _count_calls(monkeypatch, instability, "scaled_floats")
    levels = _count_calls(monkeypatch, Representation, "levels")
    cert = dominance_certificate(std(3), v, CertifyOptions(samples=0))
    assert cert.frame is not None
    identity_face = not flat_shrink_data(std(3), v).bounded_below
    assert (len(roundings), len(levels)) == (1, 1 + identity_face)


def _weight_margin_sq(rep):
    """gamma(rho)^2: the least nonzero squared norm of the min-norm point of
    at most n distinct weights.  By Weyl symmetry one weight of the set can
    be taken dominant."""
    weights = sorted({w.coords for w in rep.weights})
    best = None
    for d in (w for w in weights if list(w) == sorted(w, reverse=True)):
        rest = [w for w in weights if w != d]
        for size in range(rep.n):
            for subset in itertools.combinations(rest, size):
                u = min_norm_point([CartanVector(w) for w in (d, *subset)]).point
                norm_sq = sum(c * c for c in u.coords)
                if norm_sq and (best is None or norm_sq < best):
                    best = norm_sq
    return best


# every (spec, n) on which the tests or the numeric benchmark workload reach
# the descent; sym(3,std) n=6 (C(55, 5) sets) is left out, and its one input
# is unstable with its rate asserted directly
SEARCHED_SPECS = LEMMA_SPECS + [
    ("std", 3), ("dual(std)", 4), ("wedge(2,std)*std", 3),
    ("std*wedge(2,std)", 3), ("sym(4,std)", 2), ("dual(sym(2,std))", 2)]


@pytest.mark.parametrize("text, n", SEARCHED_SPECS + [("sym(2,std)", 4)])
def test_stable_threshold_is_below_the_weight_margin(text, n):
    # every positive rate is the norm of such a min-norm point, and ||mu||
    # bounds the rate from above, so ||mu|| < gamma/2 proves that v is not
    # unstable; the affine solves of src give the Wolfe enumeration's gamma
    rep = build_rep(parse_rep_spec(text), n)
    assert rep.weight_margin_sq == _weight_margin_sq(rep)
    assert instability._stable_bound(rep)[0] == math.sqrt(rep.weight_margin_sq) / 2


def test_capped_weight_margin_falls_back_without_enumerating(monkeypatch):
    # sym(3,std) n=6 has about 11.5 million candidate sets: no solve is run,
    # and the descent keeps the fixed 1e-3
    from instab import exactlin
    solves = _count_calls(monkeypatch, exactlin, "solve")
    rep = replace(build_rep(parse_rep_spec("sym(3,std)"), 6))  # nothing cached yet
    assert rep.weight_margin_sq is None
    assert instability._stable_bound(rep)[0] == 1e-3
    assert solves == []


def test_wolfe_and_the_weight_margin_solve_in_integers_end_to_end(monkeypatch):
    # exactlin's rational front end (the type test and row scaling of det and
    # inv) raises; classify and certify of the acceptance inputs and of the
    # first paper-ladder pair, and gamma(rho) of sym(2,std) n=4, solve their
    # integer systems without it
    from instab import exactlin

    def front_end(*args):
        raise AssertionError("the rational front end was reached")
    monkeypatch.setattr(exactlin, "_integer_rows", front_end)
    solves = _count_calls(monkeypatch, exactlin, "solve")
    pairs = paper_ladder()[:12]
    assert {(text, n) for text, n, _ in pairs} == {("sym(3,std)", 4)}
    for text, n, v in [*END_TO_END, *pairs]:
        rep = build_rep(parse_rep_spec(text), n)
        if is_unstable(rep, v).kind != LIKELY_STABLE:
            dominance_certificate(rep, v, CertifyOptions(samples=0))
    margin = replace(build_rep(parse_rep_spec("sym(2,std)"), 4))  # nothing cached yet
    assert margin.weight_margin_sq is not None
    assert len(solves) > 0
    with pytest.raises(AssertionError, match="front end"):
        exactlin.det([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Dominance certificates


def fast_opts(**kw):
    defaults = dict(samples=500)
    defaults.update(kw)
    return CertifyOptions(**defaults)


def test_certificate_identity_family():
    cert = dominance_certificate(std(2), [1, 0], fast_opts())
    assert cert.alphas == (F(1),)
    assert cert.mode == "exact"
    assert cert.frame is None
    assert cert.rate == pytest.approx(1 / math.sqrt(2))
    assert cert.kempf is not None and cert.kempf.tau.exps == (1, -1)
    rep = cert.verification
    assert rep.failures == 0
    # both sides differ by the constant -c only
    assert rep.margin_min == pytest.approx(-cert.c, abs=1e-9)
    assert rep.margin_mean == pytest.approx(-cert.c, abs=1e-9)
    assert rep.ray_slope_diff < 1e-12


def test_certificate_wedge_single_alpha():
    cert = dominance_certificate(wedge2(3), [1, 0, 0], fast_opts())
    assert cert.alphas == (F(0), F(1))
    assert cert.hw == (2,)
    assert cert.verification.failures == 0


def test_certificate_scaling_shifts_constant():
    c1 = dominance_certificate(wedge2(3), [1, 0, 0], fast_opts(samples=0))
    c2 = dominance_certificate(wedge2(3), [2, 0, 0], fast_opts(samples=0))
    assert c2.alphas == c1.alphas
    assert c2.order == c1.order
    assert c2.direction == c1.direction
    assert c2.c - c1.c == pytest.approx(math.log(2), abs=1e-9)


def test_block_frames_lower_the_constant(monkeypatch):
    # u = (1/3, 1/3, -2/3) for the form xy: rotations in the (x, y) plane
    # keep u but activate x^2 and y^2, and lower the constant well below
    # the identity frame's
    rep = build_rep(parse_rep_spec("sym(2,std)"), 3)
    v = [0, 1, 0, 0, 0, 0]
    with monkeypatch.context() as m:
        m.setattr(instability, "_XI_FRAMES", 0)
        identity = dominance_certificate(rep, v, CertifyOptions(samples=0))
    cert = dominance_certificate(rep, v, CertifyOptions(samples=0))
    assert cert.u.coords == (F(1, 3), F(1, 3), F(-2, 3))
    assert (identity.xi.frames, cert.xi.frames, cert.xi.excluded) == (1, 1001, 0)
    assert cert.xi.value < identity.xi.value - 0.5


def test_block_frames_lower_the_paper_ladder_constant():
    # sym(3,std) n=4, the first paper-ladder input: the identity frame's
    # statistic, read from its weight components as the estimator reads
    # it, lies far above the least over the 1,000 block frames
    spec, n, v = paper_ladder()[0]
    rep = build_rep(parse_rep_spec(spec), n)
    cert = dominance_certificate(rep, v, CertifyOptions(samples=0))
    assert (cert.xi.frames, cert.frame) == (1001, None)
    vec, e = scaled_floats(rep, v)
    active, sums, exps = weight_components(rep, vec, instability._EPS, e)
    levels = rep.levels(cert.u)
    assert not (active[0] & (levels < 0)).any()
    face = np.flatnonzero(active[0] & (levels == 0)).tolist()
    identity = instability._xi_prefix(rep, [(j, _log_norm(sums[0, j], int(exps[0])))
                                            for j in face], cert.u, {})
    assert cert.xi.value < identity - 1
    assert cert.c == cert.xi.value - cert.xi.margin


W2W2S = "wedge(2,std)*wedge(2,std)*std"


def _unit(dim, index, scale):
    v = [F(0)] * dim
    v[index] = scale
    return v


# (frames, excluded, value) of xi as the estimator computed them frame by
# frame; the stacked estimator must keep every bit.  Only the form xy has
# another weight on u's face, so only it draws block frames; the others
# take the identity frame alone.  The extremal weight vectors are those of
# the large-reps benchmark workload, seeds 1-3.
XI_CASES = [
    ("sym(2,std)", 3, [0, 1, 0, 0, 0, 0], "-0x1.9efa9f9abc9fcp-3"),
    ("sym(2,std)", 3, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], "-0x1.9efa9f9abc9fcp-3"),
    ("wedge(2,std)", 3, [0.3, 0.5, -0.2], "-0x1.ef672c69da20bp-2"),
    ("std", 4, [0.3, -0.2, 0.5, 0.1], "-0x1.e21a83b8a7153p-2"),
    ("sym(4,std)", 4, _unit(35, 30, F(1)), "0x0.0p+0"),
    ("sym(4,std)", 4, _unit(35, 0, F(4)), "0x1.62e42fefa39efp+0"),
    ("sym(4,std)", 4, _unit(35, 0, F(4, 7)), "-0x1.1e85f5e7040d1p-1"),
    (W2W2S, 4, _unit(144, 143, F(9, 8)), "0x1.e27076e2af2e6p-4"),
    (W2W2S, 4, _unit(144, 85, F(9)), "0x1.193ea7aad030bp+1"),
    (W2W2S, 4, _unit(144, 115, F(5, 6)), "-0x1.7565011e49675p-3"),
]


@pytest.mark.parametrize("text, n, v, value", XI_CASES)
def test_stacked_constant_estimator_keeps_xi(text, n, v, value):
    cert = dominance_certificate(build_rep(parse_rep_spec(text), n), v,
                                 CertifyOptions(samples=0))
    frames = 1001 if text == "sym(2,std)" else 1
    assert (cert.xi.frames, cert.xi.excluded, cert.xi.value.hex()) == (frames, 0, value)


# Every case above where u is the only weight on its face, plus the
# acceptance inputs in wedge(2,std) and std n=3: there the estimator takes
# the identity frame alone, because every rotation commuting with u gives
# the same statistic (the comment above _estimate_constant).
ALONE_ON_FACE = [case[:3] for case in XI_CASES if case[0] != "sym(2,std)"] + [
    ("wedge(2,std)", 3, [F(1), F(0), F(0)]),
    ("wedge(2,std)", 3, [F(2), F(0), F(0)]),
    ("std", 3, [F(1), F(0), F(0)]),
]


@pytest.mark.parametrize("text, n, v", ALONE_ON_FACE)
def test_block_frames_repeat_the_identity_statistic(text, n, v):
    rep = build_rep(parse_rep_spec(text), n)
    flat = fastest_shrinking_geodesic(rep, v).flat
    u = flat.u
    assert [w for w, _ in rep.weight_groups
            if w != u and oracles.trace_form(w, u) == u.norm_sq()] == []
    blocks = instability._coordinate_blocks(u)
    assert len(blocks) < n
    vec, e = scaled_floats(rep, v)
    frames = np.concatenate([np.eye(n)[None],
                             block_orthogonal(blocks, n, np.random.default_rng(3), 200)])
    weights = [w for w, _ in rep.weight_groups]
    active, sums, exps = weight_components(
        rep, act(rep, frames, act(rep, flat.frame, vec)), instability._EPS, e)
    j = weights.index(u)
    points: dict = {}
    logs = []
    for mask, row, k in zip(active, sums.tolist(), exps.tolist()):
        key = mask.tobytes()
        if key not in points:
            points[key] = min_norm_point([weights[i] for i in np.flatnonzero(mask)]).point
        assert points[key].coords == u.coords
        logs.append(_log_norm(row[j], k))
    assert np.max(np.abs(np.array(logs) - logs[0])) <= 1e-12


# the estimator's keep rule on random active masks over the weights of
# representations with and without dual modes, both large-reps pairs among
# them; u runs over the certified u of the XI_CASES of the same n, and over
# min-norm points of random weight sets, which are rarely weights
KEEP_RULE_REPS = [("sym(2,std)", 3), ("dual(wedge(2,std))*sym(2,dual(std))", 3),
                  ("sym(4,std)", 4), (W2W2S, 4)]


@pytest.mark.parametrize("text, n", KEEP_RULE_REPS)
def test_keep_rule_matches_the_min_norm_point(text, n):
    # kept: no active weight below u's face, and u in the prefix hull of the
    # active face weights; the reference keeps a mask whose active weights
    # have min-norm point u, and runs the prefix over all of them
    rep = build_rep(parse_rep_spec(text), n)
    weights = [w for w, _ in rep.weight_groups]
    rng = np.random.default_rng(17)
    us = sorted({fastest_shrinking_geodesic(build_rep(parse_rep_spec(t), m), v).flat.u.coords
                 for t, m, v, _ in XI_CASES if m == n})
    picks = [rng.choice(len(weights), 2 + i % 2, replace=False) for i in range(4)]
    us += [min_norm_point([weights[j] for j in pick]).point.coords for pick in picks]
    outcomes = set()
    for u in map(CartanVector, us):
        if u.is_zero():
            continue
        levels = rep.levels(u)
        for _ in range(20):
            # weights on or above the face, and sometimes one below it
            mask = (levels >= 0) & (rng.random(len(weights)) < rng.uniform(0.1, 0.6))
            if rng.random() < 0.3:
                mask[rng.choice(np.flatnonzero(levels < 0))] = True
            if not mask.any():
                continue
            logs = rng.standard_normal(len(weights)).tolist()
            face = [(j, logs[j]) for j in np.flatnonzero(mask & (levels == 0)).tolist()]
            low = (mask & (levels < 0)).any()
            xi = None if low else instability._xi_prefix(rep, face, u, {})
            active = [(j, logs[j]) for j in np.flatnonzero(mask).tolist()]
            kept = min_norm_point([weights[j] for j, _ in active]).point == u
            assert (xi is not None) == kept
            if kept:
                assert xi == instability._xi_prefix(rep, active, u, {})
            outcomes.add(kept)
    assert outcomes == {True, False}


def test_large_reps_certificates_draw_no_block_frame(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return block_orthogonal(*args)

    monkeypatch.setattr(instability, "block_orthogonal", counted)
    for text, n, v, _ in XI_CASES:
        if text in ("sym(4,std)", W2W2S):
            dominance_certificate(build_rep(parse_rep_spec(text), n), v, CertifyOptions(samples=0))
    assert calls == []
    # the form xy has x^2 and y^2 on its face, so it still samples
    dominance_certificate(build_rep(parse_rep_spec("sym(2,std)"), 3), [0, 1, 0, 0, 0, 0],
                          CertifyOptions(samples=0))
    assert len(calls) == 1


def test_certificate_anchors_at_the_fastest_flat():
    # the identity flat of rate sqrt 1.5 must not anchor the certificate
    rep, v = sym3_orbit_vector()
    cert = dominance_certificate(rep, v, CertifyOptions(samples=200))
    assert cert.rate == pytest.approx(math.sqrt(7.5), abs=1e-9)
    assert cert.verification.ok


def test_certificate_rotated_frame():
    cert = dominance_certificate(std(2), [1.0, 1.0], fast_opts())
    assert cert.frame is not None
    assert cert.mode == "float"
    assert cert.verification.failures == 0
    assert cert.verification.ray_slope_diff < 1e-6


def test_certificate_rejects_stable():
    rep = build_rep(parse_rep_spec("sym(2,std)"), 2)
    with pytest.raises(StableVectorError):
        dominance_certificate(rep, [0, 1, 0], fast_opts())


def test_corrupted_alphas_fail_verification():
    # u fixes the alphas, so inflate them through u: the certificate stays
    # consistent, and only sampling can tell
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    bad = replace(cert, u=cert.u.scale(2))
    assert bad.alphas == tuple(2 * a for a in cert.alphas)
    report = verify_dominance(bad, std(2), [1, 0], samples=400, seed=5)
    assert not report.ok
    assert report.ray_slope_diff > 1e-3


def rotated_cubic():
    """x^2 (x + y) on sym(3,std), n=2, rotated by 0.3: certified from a
    descent flat whose frame is not the identity."""
    rep = build_rep(parse_rep_spec("sym(3,std)"), 2)
    k = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    return rep, [float(x) for x in act(rep, k, [1.0, 1.0, 0.0, 0.0])]


@pytest.mark.parametrize("text, n, v", [
    ("std", 2, [1.0, 1.0]),                 # rotated frame
    ("std*wedge(2,std)", 3, [1] + [0] * 8),  # two nonzero alphas
    ("std", 4, [0.2, 0.7, -0.4, 0.1]),
    ("sym(3,std)", 2, rotated_cubic()[1]),   # a descent frame
])
def test_verify_margin_matches_fundamental_representations(text, n, v):
    # a sampler gives h = g frame^T, and the margin is the one at g; on the
    # std cases both sides of the inequality see no frame, so only the
    # descent frame tells h from g
    rep = build_rep(parse_rep_spec(text), n)
    cert = dominance_certificate(rep, v, fast_opts(samples=0))
    frame = cert.frame if cert.frame is not None else np.eye(n)
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = cartan_box_sample(rng, n, 5.0)
        rhs = oracles.fundamental_log_norms(g @ frame.T, cert.order)
        expected = (log_rep_norm(rep, act(rep, g, [float(x) for x in v])) - cert.c
                    - sum(float(a) * r for a, r in zip(cert.alphas, rhs)))
        report = verify_dominance(cert, rep, v, samples=1, sampler=lambda _r: g @ frame.T)
        assert report.margin_min == pytest.approx(expected, abs=1e-9)


def test_verify_counts_nan_margins_as_failures():
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    report = verify_dominance(replace(cert, c=math.nan), std(2), [1, 0],
                              samples=50, seed=5)
    assert report.failures == 50
    assert not report.ok


def test_verify_rejects_non_finite_sampled_elements():
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    with pytest.raises(NonFiniteError, match="group element"):
        verify_dominance(cert, std(2), [1, 0], samples=5,
                         sampler=lambda _r: np.array([[math.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("setting, message", [
    (dict(samples=-1), "samples -1 is negative"),
    (dict(box=-1.0), "box -1.0 is not"), (dict(box=math.nan), "box nan is not"),
    (dict(box=math.inf), "box inf is not"), (dict(tol=-1e-6), "tol -1e-06 is not"),
    (dict(tol=math.nan), "tol nan is not"), (dict(tol=math.inf), "tol inf is not")])
def test_bad_verification_settings_are_rejected(setting, message):
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    with pytest.raises(ValueError, match=message):
        verify_dominance(cert, std(2), [1, 0], **setting)
    with pytest.raises(ValueError, match=message):
        CertifyOptions(**setting)


def test_a_box_too_large_for_floats_is_named():
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    with pytest.raises(ValueError, match="box 1000000.0 draws group elements that are not finite"):
        verify_dominance(cert, std(2), [1, 0], samples=5, box=1e6)


def _record_unimodular_checks(monkeypatch):
    from instab import reps
    shapes = []
    check = reps.check_unimodular_float

    def recorded(mat):
        shapes.append(mat.shape)
        return check(mat)
    monkeypatch.setattr(reps, "check_unimodular_float", recorded)
    return shapes


def test_verify_checks_a_samplers_elements_but_not_its_own(monkeypatch):
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), 3)
    cert = dominance_certificate(rep, [1] + [0] * 8, fast_opts(samples=0))
    assert cert.frame is None
    shapes = _record_unimodular_checks(monkeypatch)
    assert verify_dominance(cert, rep, samples=300).ok
    assert shapes == []  # the ray is read in the weight basis
    rng = np.random.default_rng(1)
    gs = [cartan_box_sample(rng, 3, 5.0) for _ in range(300)]
    assert verify_dominance(cert, rep, samples=300, sampler=gs.__getitem__).ok
    assert shapes == [(300, 3, 3)]  # every element a sampler gives, one stack


def test_the_descent_rechecks_no_group_element_it_built(monkeypatch):
    # the descent's g and h are unimodular by construction and its frames
    # pass the frame check, so no unimodular check runs
    shapes = _record_unimodular_checks(monkeypatch)
    assert is_unstable(std(3), [1.0, 1.0, 0.0]).kind == NUMERIC_UNSTABLE
    assert shapes == []


def test_verify_checks_the_frame_of_a_certificate(monkeypatch):
    rep = std(2)
    cert = dominance_certificate(rep, [1.0, 1.0], fast_opts(samples=0))
    assert cert.mode == "float" and cert.frame is not None
    shapes = _record_unimodular_checks(monkeypatch)
    frames = _count_calls(monkeypatch, instability, "_frame_in")
    assert verify_dominance(cert, rep, samples=300).ok
    # the frame is checked once where it enters, orthogonal with a positive
    # determinant, and acts without a second, unimodular check
    assert (len(frames), shapes) == (1, [])
    data = cert_to_dict(cert)
    data["frame"][0] = [-x for x in data["frame"][0]]  # det -1
    with pytest.raises(ValueError, match="determinant 1"):
        verify_dominance(cert_from_dict(data), samples=300)


def test_verify_rejects_a_frame_that_is_not_orthogonal():
    cert = dominance_certificate(wedge2(3), [0.3, 0.5, -0.2], fast_opts(samples=0))
    shear = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cert = replace(cert, frame=cert.frame @ shear)
    assert np.linalg.det(cert.frame) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(CertificateError, match="frame is not orthogonal"):
        verify_dominance(cert, samples=1000)
    with pytest.raises(CertificateError, match="frame is not orthogonal"):
        verify_dominance(loads_cert(dumps_cert(cert)), samples=1000)


def test_verify_rejects_sampled_elements_without_det_1():
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    with pytest.raises(ValueError, match="determinant 1"):
        verify_dominance(cert, std(2), [1, 0], samples=5,
                         sampler=lambda _r: np.diag([2.0, 1.0]))


def test_float_certificate_with_nothing_truncated_passes_the_ray_check():
    # x^3 + 0.5 x^2 y: its identity flat keeps both components, so nothing
    # re-emerges along the ray and the window is the full t2 = 40; a
    # window from the spread of all weights (4.06) let x^3, off the
    # optimal face, still bend the left-hand slope
    rep = build_rep(parse_rep_spec("sym(3,std)"), 2)
    cert = dominance_certificate(rep, [1.0, 0.5, 0.0, 0.0], CertifyOptions(samples=300))
    assert cert.mode == "float"
    assert cert.verification.failures == 0
    assert cert.verification.ray_slope_diff < 1e-9
    assert cert.verification.ok


def test_ray_window_covers_what_a_descent_flat_truncates():
    # a rotated x^2 (x + y) is certified from a descent flat whose frame
    # leaves float residues of components below the rate; they drop out of
    # the active set at cert.eps but re-emerge along the ray, so they must
    # cap the window
    rep, v = rotated_cubic()
    res = fastest_shrinking_geodesic(rep, v)
    assert not res.identity
    assert len(res.flat.active) < np.count_nonzero(act(rep, res.flat.frame, v))
    cert = dominance_certificate(rep, v, CertifyOptions(samples=300))
    assert cert.mode == "float" and cert.eps == 1e-10
    assert cert.verification.ok


def test_classify_and_certify_hash_no_weight(monkeypatch):
    # the exact layer names a weight by its row of rep.weight_groups: once
    # the representations and their cached properties are warm, classify
    # and certify of the acceptance inputs and of a descent flat hash no
    # CartanVector
    inputs = [(build_rep(parse_rep_spec(text), n), v) for text, n, v in END_TO_END]
    inputs.append(rotated_cubic())

    def run():
        for rep, v in inputs:
            assert is_unstable(rep, v).kind != LIKELY_STABLE
            dumps_cert(dominance_certificate(rep, v, CertifyOptions(samples=0)))

    run()
    hashes = _count_calls(monkeypatch, CartanVector, "__hash__")
    assert not fastest_shrinking_geodesic(*inputs[-1]).identity
    run()
    assert hashes == []
    assert hash(CartanVector([1, -1])) is not None and hashes == ["__hash__"]


def _replay_sample(n, seed, i, box=5.0):
    """Sample i alone: the first W uniforms of the Philox stream keyed by
    ``seed`` from counter i W / 4 on."""
    width = instability._sample_words(n)
    rng = np.random.Generator(np.random.Philox(key=seed, counter=i * width // 4))
    return instability._box_samples(rng.random((1, width)), n, box)[0]


def _replay_margin(cert, rep, v, seed, i, box=5.0):
    """The margin of sample i alone, drawn from its own counter."""
    g = _replay_sample(cert.n, seed, i, box)
    return verify_dominance(cert, rep, v, samples=1, sampler=lambda _i: g).margin_min


@pytest.fixture
def least_chunks(monkeypatch):
    """Chunks of ``_MIN_CHUNK`` group elements on every representation, so
    that a few hundred samples cross a chunk boundary."""
    monkeypatch.setattr(instability, "_STACK_FLOATS", 1)


# margins that vary with g, so a sample drawn from another key shows
@pytest.mark.parametrize("v", [[1, 1, 0, 0], [1.0, 0.5, 0.0, 0.0]])
def test_verify_samples_replay_alone_across_chunks(v, least_chunks):
    rep = build_rep(parse_rep_spec("sym(3,std)"), 2)
    cert = dominance_certificate(rep, v, fast_opts(samples=0))
    samples, seed = instability._chunk(rep) + 7, 4
    report = verify_dominance(cert, rep, v, samples=samples, seed=seed)
    alone = [_replay_margin(cert, rep, v, seed, i) for i in range(samples)]
    assert np.std(alone[-7:]) > 0.1
    assert abs(min(alone) - report.margin_min) <= 1e-12
    assert abs(float(np.mean(alone)) - report.margin_mean) <= 1e-12
    assert report.failures == 0


def test_chunk_rows_are_the_samples_drawn_alone(monkeypatch, least_chunks):
    n, seed = 3, 9
    chunks = []
    box_samples = instability._box_samples

    def recorded(x, n, box):
        chunks.append(box_samples(x, n, box))
        return chunks[-1]
    monkeypatch.setattr(instability, "_box_samples", recorded)
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), n)
    cert = dominance_certificate(rep, [1] + [0] * 8, fast_opts(samples=0))
    size = instability._chunk(rep)
    verify_dominance(cert, rep, samples=size + 7, seed=seed)
    monkeypatch.undo()
    assert [len(c) for c in chunks] == [size, 7]
    assert np.array_equal(chunks[0][37], _replay_sample(n, seed, 37))
    assert np.array_equal(chunks[1][3], _replay_sample(n, seed, size + 3))


def test_sample_words_hold_the_cartan_part_and_one_haar_k():
    # n + 2 ceil(n^2 / 2), rounded up to a multiple of 4
    assert [instability._sample_words(n) for n in range(2, 7)] == [8, 16, 20, 32, 44]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_box_samples_are_traceless_with_haar_k(n):
    size = 4096
    x = np.random.Generator(np.random.Philox(key=2)).random((size, instability._sample_words(n)))
    gs = instability._box_samples(x, n, 5.0)
    assert np.all(np.isfinite(gs))
    # the singular values of g = exp(diag a) k are exp(a)
    a = np.log(np.linalg.svd(gs, compute_uv=False))
    assert np.allclose(a.sum(axis=1), 0.0, atol=1e-9)  # tr a = 0
    assert np.all(np.abs(a) <= 2 * 5.0 * (1 - 1 / n) + 1e-9)
    # g g^T = exp(diag 2a), with a read from the first n words in row order
    a = 5.0 * (2 * x[:, :n] - 1)
    d = np.exp(-(a - a.mean(axis=1, keepdims=True)))
    gram = d[:, :, None] * (gs @ np.swapaxes(gs, 1, 2)) * d[:, None, :]
    assert np.allclose(gram, np.eye(n), rtol=0, atol=1e-9)
    # box 0 leaves the Haar k alone: entries of mean 0 and E[k_ij^2] = 1/n,
    # each within 5 sigma
    ks = instability._box_samples(x, n, 0.0)
    assert np.allclose(ks @ np.swapaxes(ks, 1, 2), np.eye(n), atol=1e-12)
    assert np.allclose(np.linalg.det(ks), 1.0)
    entries = ks.reshape(size, -1)
    assert np.all(np.abs(entries.mean(axis=0)) < 5 * math.sqrt(1 / n / size))
    sq = entries ** 2
    assert np.all(np.abs(sq.mean(axis=0) - 1 / n) < 5 * sq.std(axis=0) / math.sqrt(size))


# an exact certificate, one with a float frame, two on a representation
# with a dual mode (margins constant on n=2, varying with g on the regular
# nilpotent of n=3), and a tensor product of two modes
REGULAR_NILPOTENT = ("std*dual(std)", 3, [0, 1, 0, 0, 0, 1, 0, 0, 0])
INVARIANCE_CASES = [("sym(3,std)", 2, [1, 1, 0, 0]), ("std", 2, [1.0, 1.0]),
                    ("std*dual(std)", 2, [0, 1, 0, 0]), REGULAR_NILPOTENT,
                    ("std*wedge(2,std)", 3, [1] + [0] * 8)]


@pytest.mark.parametrize("spec, n, v", INVARIANCE_CASES)
def test_margins_are_invariant_under_left_rotations(spec, n, v):
    # both sides of the certificate inequality are invariant under g -> k g,
    # which is why verification samples no left Haar factor
    rep = build_rep(parse_rep_spec(spec), n)
    cert = dominance_certificate(rep, v, fast_opts(samples=0))
    assert (cert.frame is not None) == (spec == "std")
    rng = np.random.default_rng(3)
    for i in range(30):
        g = _replay_sample(n, 6, i)
        k = haar_so(n, rng)
        plain, rotated = (verify_dominance(cert, rep, v, samples=1, sampler=lambda _i, h=h: h)
                          .margin_min for h in (g, k @ g))
        assert abs(plain - rotated) <= 1e-11


def test_dual_mode_samples_replay_alone_with_their_exact_inverse():
    # verification's own samples act on a dual mode through k^T exp(-diag a);
    # a sampler's go through the checked float inverse, and agree
    spec, n, v = REGULAR_NILPOTENT
    rep = build_rep(parse_rep_spec(spec), n)
    cert = dominance_certificate(rep, v, fast_opts(samples=0))
    report = verify_dominance(cert, rep, v, samples=40, seed=4)
    alone = [_replay_margin(cert, rep, v, 4, i) for i in range(40)]
    assert np.std(alone) > 0.1
    assert abs(min(alone) - report.margin_min) <= 1e-12
    assert abs(float(np.mean(alone)) - report.margin_mean) <= 1e-12


def _count_philox(monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)
    monkeypatch.setattr(np.random, "Philox", counted)
    return built


def test_verify_builds_one_generator_per_chunk(monkeypatch, least_chunks):
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), 3)
    cert = dominance_certificate(rep, [1] + [0] * 8, fast_opts(samples=0))
    built = _count_philox(monkeypatch)
    assert verify_dominance(cert, rep, samples=2000).ok
    assert 0 < len(built) <= math.ceil(2000 / instability._chunk(rep))


def test_a_certificate_check_at_n_3_is_one_draw(monkeypatch):
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), 3)
    cert = dominance_certificate(rep, [1] + [0] * 8, fast_opts(samples=0))
    built = _count_philox(monkeypatch)
    assert verify_dominance(cert, rep, samples=300).ok
    assert len(built) == 1


def test_the_144_dimensional_rep_keeps_chunks_of_128():
    rep = build_rep(parse_rep_spec("wedge(2,std)*wedge(2,std)*std"), 4)
    assert rep.dim == 144
    # its stacked tensors (S, 4^5) hold 2^17 floats, 1 MB
    assert instability._chunk(rep) == 128 == instability._STACK_FLOATS // 4 ** 5


def test_verify_counts_nan_margins_across_chunks(least_chunks):
    cert = replace(dominance_certificate(std(2), [1, 0], fast_opts(samples=0)), c=math.nan)
    samples = instability._chunk(std(2)) + 7
    assert verify_dominance(cert, std(2), [1, 0], samples=samples).failures == samples


def test_verify_acts_on_stacks_not_per_sample(monkeypatch, least_chunks):
    from instab import reps
    rep = build_rep(parse_rep_spec("std*wedge(2,std)"), 3)
    cert = dominance_certificate(rep, [1] + [0] * 8, fast_opts(samples=0))
    calls = []
    apply = reps._apply

    def counted(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)
    # verification calls _apply itself on its own samples; the identity
    # frame does not act, and the ray is read in the weight basis
    monkeypatch.setattr(reps, "_apply", counted)
    monkeypatch.setattr(instability, "_apply", counted)
    report = verify_dominance(cert, rep, samples=2000)
    assert report.ok
    assert instability._chunk(rep) >= 64  # a chunk of a few samples is the loop again
    assert len(calls) == math.ceil(2000 / instability._chunk(rep))


def test_verify_zero_samples_is_valid():
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    report = verify_dominance(cert, std(2), [1, 0], samples=0)
    assert report.ok
    assert report.samples == 0


def test_verify_from_file_alone():
    cert = dominance_certificate(wedge2(3), [1, 0, 0], fast_opts(samples=0))
    text = dumps_cert(cert)
    loaded = loads_cert(text)
    report = verify_dominance(loaded, samples=300, seed=11)
    assert report.ok


def test_certificate_serialization_roundtrip():
    cert = dominance_certificate(std(2), [1.0, 1.0], fast_opts(samples=50))
    text = dumps_cert(cert)
    again = dumps_cert(loads_cert(text))
    assert text == again


def test_certificate_determinism():
    a = dominance_certificate(wedge2(3), [1, 0, 0], fast_opts())
    b = dominance_certificate(wedge2(3), [1, 0, 0], fast_opts())
    assert dumps_cert(a) == dumps_cert(b)


def test_malformed_certificates_rejected():
    with pytest.raises(CertificateError):
        loads_cert("{not json")
    with pytest.raises(CertificateError):
        loads_cert("[1,2,3]\n")
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    data = cert_to_dict(cert)
    data["schema"] = "instab-cert/999"
    with pytest.raises(CertificateError):
        cert_from_dict(data)
    data = cert_to_dict(cert)
    del data["alphas"]
    with pytest.raises(CertificateError):
        cert_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("c", math.nan), ("c", -math.inf), ("rate", math.inf),
    ("direction", [math.nan, 0.0]), ("alphas", [math.inf]),
    ("frame", [[1.0, 0.0], [0.0, math.nan]]),
])
def test_non_finite_certificate_entries_rejected(field, value):
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    data = cert_to_dict(cert)
    data[field] = value
    # rate, direction and alphas are fixed by u, which is finite
    message = (f"non-finite entry in '{field}'" if field in ("c", "frame")
               else f"{field} is not the value u determines")
    with pytest.raises(CertificateError, match=message):
        cert_from_dict(data)
    with pytest.raises(CertificateError, match=message):
        loads_cert(json.dumps(data))


# the id names what is wrong with the entry, the message what the loader says
@pytest.mark.parametrize("field, value, message", [
    pytest.param("alphas", [-0.5], "alphas is not", id="alphas-value0-nonnegative"),
    pytest.param("alphas", [0.5, 0.5], "alphas is not", id="alphas-value1-do not fit"),
    pytest.param("direction", [1.0], "direction is not", id="direction-value2-do not fit"),
    ("frame", np.eye(3).tolist(), "do not fit"),
    pytest.param("order", [0, 1, 2], "order is not", id="order-value4-do not fit"),
    ("u", [1.0, -0.5, -0.5], "do not fit"),
    pytest.param("mode", "bogus", "mode is not", id="mode-bogus-mode must be"),
    pytest.param("mode", "Exact", "mode is not", id="mode-Exact-mode must be"),
    pytest.param("vector", [1.0, 0.0], "mode is not the value the vector and frame",
                 id="vector-value8-exact certificate"),
    pytest.param("u", [0.5, -0.5], "nonzero rational", id="u-value9-exact certificate"),
    pytest.param("frame", np.eye(2).tolist(), "mode is not the value the vector and frame",
                 id="frame-value10-exact certificate"),
    pytest.param("hw", [5], "hw is not", id="hw-value11-positive alphas"),
    pytest.param("hw", [], "hw is not", id="hw-value12-positive alphas"),
    ("hw", ["1"], "hw: expected int"),
    ("u", [{"num": 0, "den": 1}] * 2, "nonzero rational"),
    ("u", [{"num": 1, "den": 1}, {"num": -1, "den": 1}], "rate is not"),
    ("rate", 1.0, "rate is not"),
    ("direction", [-math.sqrt(0.5), math.sqrt(0.5)], "direction is not"),
    ("kempf", {"tau": [2, -2], "m": 2, "norm_sq": 8, "ratio": math.sqrt(0.5)},
     "kempf is not"),
    ("kempf", {"tau": [1, -1], "m": 1, "norm_sq": 2, "ratio": 0.75}, "kempf is not"),
])
def test_inconsistent_certificate_entries_rejected(field, value, message):
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    data = cert_to_dict(cert)
    data[field] = value
    with pytest.raises(CertificateError, match=message):
        cert_from_dict(data)


@pytest.mark.parametrize("path, seed", [(("seed",), -1), (("seed",), 2**64),
                                        (("verification", "seed"), -1)])
def test_seed_outside_the_philox_key_range_rejected(path, seed):
    data = json.loads(_float_cert_json())
    sub = data
    for key in path[:-1]:
        sub = sub[key]
    sub[path[-1]] = seed
    with pytest.raises(CertificateError, match=f"{'.'.join(path)} {seed} is outside"):
        cert_from_dict(data)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_philox_key_range_raises_in_the_api(seed):
    # the range the CLI and the loader enforce, named before numpy sees it
    for samples in (0, 5):
        with pytest.raises(ValueError, match=f"^seed {seed} is outside"):
            dominance_certificate(std(2), [1, 0], CertifyOptions(seed=seed, samples=samples))
    cert = dominance_certificate(std(2), [1, 0], fast_opts(samples=0))
    for samples in (0, 5):
        with pytest.raises(ValueError, match=f"^seed {seed} is outside"):
            verify_dominance(cert, samples=samples, seed=seed)


def test_float_u_rejected():
    # u is the exact min-norm point in float mode too
    data = json.loads(_float_cert_json())
    data["u"] = [x["num"] / x["den"] for x in data["u"]]
    with pytest.raises(CertificateError, match="nonzero rational"):
        cert_from_dict(data)


RECORDS = {(): DominanceCert, ("kempf",): KempfData, ("xi",): XiInfo,
           ("verification",): VerifyReport}


@lru_cache(maxsize=None)
def _float_cert_json() -> str:
    # a float-mode certificate: it has a frame, a Kempf record and a
    # verification report, so every field holds a value
    cert = dominance_certificate(std(2), [1.0, 1.0], fast_opts(samples=20))
    assert cert.frame is not None and cert.kempf is not None and cert.verification
    return dumps_cert(cert)


def _json_keys(record) -> dict:
    """The declared type of each key that ``cert_to_dict`` writes for ``record``:
    its fields, and for the certificate also the properties of ``_DERIVED``."""
    hints = get_type_hints(record)
    keys = {f.name: hints[f.name] for f in fields(record)}
    return {**keys, **instability._DERIVED} if record is DominanceCert else keys


def test_cert_to_dict_keys_are_the_record_fields():
    data = cert_to_dict(loads_cert(_float_cert_json()))
    for path, record in RECORDS.items():
        sub = data
        for key in path:
            sub = sub[key]
        assert set(sub) == set(_json_keys(record)), path


# JSON values of the wrong type for each declared type: a bool is no int, a
# string no number, and a {num, den} object is no int or float
WRONG_JSON = {int: [True, 1.5, "1", {"num": 1, "den": 1}],
              float: ["1.0", True, None, {"num": 1, "den": 2}],
              bool: ["false", 0, None],
              str: [1, None]}
SCALAR_FIELDS = [((*path, name), kind) for path, record in RECORDS.items()
                 for name, kind in _json_keys(record).items() if kind in WRONG_JSON]
# one entry of each array, and the spec string
ENTRIES = [(("vector", 0), ["1.5", True, None]),
           (("u", 0), ["0.5", True, {"num": 1.5, "den": 2}]),
           (("alphas", 0), ["1", True, {"num": 1, "den": 0}]),
           (("direction", 0), ["1.0", True, {"num": 1, "den": 2}]),
           (("frame", 0, 0), ["1.0", True, {"num": 1, "den": 1}]),
           (("order", 0), [1.0, True, "0"]),
           (("kempf", "tau", 0), [1.0, True, "1"]),
           (("spec",), [1, None, ["std"]])]
WRONG_TYPE_CASES = ([(path, bad) for path, kind in SCALAR_FIELDS for bad in WRONG_JSON[kind]]
                    + [(path, bad) for path, bads in ENTRIES for bad in bads])


@pytest.mark.parametrize("path, bad", WRONG_TYPE_CASES,
                         ids=[f"{'.'.join(map(str, p))}={b!r}" for p, b in WRONG_TYPE_CASES])
def test_value_of_the_wrong_json_type_rejected(path, bad):
    data = json.loads(_float_cert_json())
    sub = data
    for key in path[:-1]:
        sub = sub[key]
    sub[path[-1]] = bad
    with pytest.raises(CertificateError):
        cert_from_dict(data)
    with pytest.raises(CertificateError):
        loads_cert(json.dumps(data))


# sha256 of dumps_cert(dominance_certificate(..., CertifyOptions(samples=200)))
CERTIFICATE_BYTES = [
    ("std", 2, [F(1), F(0)],
     "59386321efe78593f7c44e9432607fa4cb67a63b08488aafcee79720d30a7e3b"),
    ("wedge(2,std)", 3, [F(1), F(0), F(0)],
     "30a42443bea16072b15017d6c6e756081970b3ffcba945aa4be2adfaad880ebb"),
    ("std*dual(std)", 2, [F(0), F(1), F(0), F(0)],
     "2b93c40087b1d3656533246115b1e572bd5198f03dd2e3af6f3f2dea97723b86"),
    ("sym(2,std)", 2, [F(1), F(0), F(0)],
     "22e45ff9f4f9ce994297901fd783c68e72a6f64c323fbcd8216c018f8545fce7"),
    ("std", 3, [F(1), F(0), F(0)],
     "4a16063230d5d617d96119f4c4130a557b36000bbf32db0d74059ced45a395ee"),
    ("wedge(2,std)", 3, [F(2), F(0), F(0)],
     "b4d6f9e5f6656178219d29d6de14fe5af99e45672b707cebe84edf46dadecca5"),
    ("std*wedge(2,std)", 3, [F(1)] + [F(0)] * 8,
     "abd8055f2bb0cd3d8cb0afa0b07828cf3f89cc44b967fcef1166678b98b0466c"),
    ("sym(3,std)", 2, [F(1), F(1), F(0), F(0)],
     "73ae92f3987f967e504f40dc80731cd95d54d1308be49496c1f4bee04923a4a9"),
    ("std", 2, [1.0, 1.0],
     "72ba8674e0eb5f546789c246b5820691742725011540a26a2b29f00477e03c7f"),
    ("wedge(2,std)", 3, [0.3, 0.5, -0.2],
     "d0e5e5ac84a26fdc71e2fe0a5aeedc36d80bf7de2aab459a1af91d9dc1d6ed9b"),
    ("sym(2,std)", 3, [0, 1, 0, 0, 0, 0],
     "09719d950afba22e89dac945ec42592c46d5e082e20abb03fe91e4ad83d95fa8"),
    ("std", 3, [F(1, 10**400), 0, 0],
     "1a5a21bed25f4020f5541cc9bde9dc351c654cc16746dd8ff3346d3b24ef6924"),
    ("sym(3,std)", 2, [1.0, 0.5, 0, 0],
     "a561149947b974a9efd36e78fee2821f7a7926c217f3db7d1f60581ff221a7f6"),
]


@pytest.mark.parametrize("spec, n, v, digest", CERTIFICATE_BYTES,
                         ids=[f"{s} n={n} {i}" for i, (s, n, _, _) in enumerate(CERTIFICATE_BYTES)])
def test_certificate_bytes_are_pinned(spec, n, v, digest):
    # a change to any certificate byte, from the search to the encoder, shows here
    text = dumps_cert(dominance_certificate(build_rep(parse_rep_spec(spec), n), v,
                                            CertifyOptions(samples=200)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert dumps_cert(loads_cert(text)) == text


# the ladder vectors whose rotated certificates (samples=200) fail the ray
# check, on ray_slope_diff alone (ROADMAP, the rotated ladder)
ROTATED_RAY_FAILURES = [("sym(3,std)", 2, [0, 0, -1, -3]),
                        ("std*wedge(2,std)", 3, [2, 3, 0, 0, 0, 0, 0, 1, 0])]


@lru_cache(maxsize=None)
def _rotated_inputs() -> dict:
    """Each nonzero ladder vector, as a tuple, mapped to its rotated input."""
    nonzero = [tuple(v) for _, _, v in ladder() if any(v)]
    return {v: r for v, (_, _, r) in zip(nonzero, rotated_ladder())}


RAY_CASES = ([(spec, n, v, False) for spec, n, v, _ in CERTIFICATE_BYTES]
             + [(spec, n, v, True) for spec, n, v in ROTATED_RAY_FAILURES]
             + [("sym(13,std)", 2, [1] + [0] * 13, False)])  # x^13


@pytest.mark.parametrize("spec, n, v, rotated", RAY_CASES,
                         ids=[f"{s} n={n} {i}" for i, (s, n, _, _) in enumerate(RAY_CASES)])
def test_ray_check_matches_the_matrix_route(spec, n, v, rotated):
    # the closed form in the weight basis against the ray acting as
    # matrices; on x^13, e^{-t L} of a zero component would overflow
    rep = build_rep(parse_rep_spec(spec), n)
    if rotated:
        v = _rotated_inputs()[tuple(v)]
    cert = dominance_certificate(rep, v, CertifyOptions(samples=50))
    expected = oracles.matrix_ray_slope_diff(cert, rep, v)
    assert abs(cert.verification.ray_slope_diff - expected) <= 1e-12
    assert rotated or cert.verification.ok  # the rotated ones fail, as ROADMAP records


def test_exact_vector_kept_exact_in_file():
    cert = dominance_certificate(std(2), [F(1), F(0)], fast_opts(samples=0))
    data = cert_to_dict(cert)
    assert data["vector"] == [{"num": 1, "den": 1}, {"num": 0, "den": 1}]
    assert data["alphas"] == [{"num": 1, "den": 1}]


def test_kempf_ratio_equals_rate():
    for rep, v in [(std(3), [1, 0, 0]), (wedge2(3), [1, 0, 0]),
                   (build_rep(parse_rep_spec("sym(2,std)"), 2), [1, 0, 0])]:
        cert = dominance_certificate(rep, v, fast_opts(samples=0))
        assert cert.kempf is not None
        assert abs(cert.rate - cert.kempf.ratio) < 1e-9
        assert all(a >= 0 for a in cert.alphas)
