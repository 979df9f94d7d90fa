import math

import numpy as np
import pytest

from instab import (CartanVector, GeodesicRay, SimpleSystem, ZeroVectorError,
                    busemann_formula, busemann_limit, cartan_box_sample,
                    distance, exp_sym, geodesic, haar_so, log_flag_norms,
                    midpoint, project, ray_from_cartan)
from instab.cartan import dominant_order
from instab.symspace import block_orthogonal, haar_from_normal

import oracles


def rand_point(rng, n=3, box=1.0):
    return project(cartan_box_sample(rng, n, box))


# ---------------------------------------------------------------------------
# Projection and distance


def test_project_identity():
    np.testing.assert_allclose(project(np.eye(3)), np.eye(3))


def _block_frames_one_by_one(blocks, n, rng, count):
    # one frame after another: a draw per block, its QR, the signs of
    # diag(R), and the det fix on the largest block
    frames = []
    for _ in range(count):
        k = np.zeros((n, n))
        for grp in blocks:
            if len(grp) == 1:
                k[grp[0], grp[0]] = 1.0
            else:
                q, r = np.linalg.qr(rng.standard_normal((len(grp), len(grp))))
                k[np.ix_(grp, grp)] = q * np.sign(np.diag(r))
        if np.linalg.det(k) < 0:
            col = max(blocks, key=len)[0]
            k[:, col] = -k[:, col]
        frames.append(k)
    return np.stack(frames)


@pytest.mark.parametrize("blocks,n", [([(0, 1)], 2), ([(2,), (0, 1)], 3),
                                      ([(1, 0, 2)], 3), ([(3,), (0, 2, 1)], 4),
                                      ([(0, 4), (2,), (1, 3, 5)], 6)])
def test_block_orthogonal_stack_matches_frames_drawn_one_by_one(blocks, n):
    stack = block_orthogonal(blocks, n, np.random.default_rng(5), 300)
    assert stack.shape == (300, n, n)
    assert stack.tobytes() == _block_frames_one_by_one(
        blocks, n, np.random.default_rng(5), 300).tobytes()
    np.testing.assert_allclose(stack @ stack.swapaxes(1, 2),
                               np.broadcast_to(np.eye(n), stack.shape), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(stack), 1.0)
    outside = np.ones((n, n), dtype=bool)
    for grp in blocks:
        outside[np.ix_(grp, grp)] = False
    assert not stack[:, outside].any()


def test_project_diagonal_square():
    np.testing.assert_allclose(project(np.diag([2.0, 0.5])), np.diag([4.0, 0.25]))


def test_project_left_orthogonal_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = cartan_box_sample(rng, 3, 1.0)
        k = haar_so(3, rng)
        np.testing.assert_allclose(project(k @ g), project(g), atol=1e-10)


def test_project_rejects_non_unimodular():
    with pytest.raises(ValueError):
        project(np.diag([2.0, 1.0]))


def test_distance_zero_and_value():
    o = np.eye(2)
    assert distance(o, o) == pytest.approx(0.0, abs=1e-12)
    p = np.diag([math.e**2, math.e**-2])
    assert distance(o, p) == pytest.approx(2 * math.sqrt(2))


def test_distance_symmetric_and_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p, q = rand_point(rng), rand_point(rng)
        assert distance(p, q) == pytest.approx(distance(q, p), rel=1e-10)
        g = cartan_box_sample(rng, 3, 1.0)
        assert distance(g.T @ p @ g, g.T @ q @ g) == pytest.approx(
            distance(p, q), rel=1e-8)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p, q, r = rand_point(rng), rand_point(rng), rand_point(rng)
        assert distance(p, q) <= distance(p, r) + distance(r, q) + 1e-10


def test_distance_matches_generalized_eigenvalues():
    sla = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, q = rand_point(rng, 4, 3.0), rand_point(rng, 4, 3.0)
        mu = sla.eigh(q, p, eigvals_only=True)
        assert distance(p, q) == pytest.approx(math.sqrt(np.sum(np.log(mu) ** 2)), rel=1e-9)


def test_distance_rejects_indefinite():
    with pytest.raises(ValueError):
        distance(np.diag([1.0, -1.0]), np.eye(2))


# ---------------------------------------------------------------------------
# Fundamental-representation norms by QR


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_log_flag_norms_match_fundamental_representations(n):
    rng = np.random.default_rng(20 + n)
    for trial in range(12):
        order = SimpleSystem(tuple(int(i) for i in rng.permutation(n)))
        frame = np.eye(n) if trial % 2 == 0 else haar_so(n, rng)
        g = cartan_box_sample(rng, n, 5.0)
        m = g @ frame.T
        got = log_flag_norms(m, order.perm)
        assert got.shape == (n,)
        np.testing.assert_allclose(got[:-1], oracles.fundamental_log_norms(m, order),
                                   rtol=0, atol=1e-9)
        assert got[-1] == pytest.approx(0.0, abs=1e-9)   # log |det m|


def test_log_flag_norms_of_diagonal_elements():
    d = np.array([3.0, -0.5, 1.0, 1.5])
    m = np.diag(np.exp(d))
    np.testing.assert_allclose(log_flag_norms(m, (1, 3, 0, 2)),
                               np.cumsum(d[[1, 3, 0, 2]]), atol=1e-12)


def _haar_by_lapack(z):
    # the Q of each LAPACK QR with the signs of diag(R), and the first
    # column negated where det Q < 0
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., 0] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q


def _log_flag_norms_by_lapack(m, perm):
    r = np.linalg.qr(np.asarray(m)[..., list(perm)], mode="r")
    return np.cumsum(np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_from_normal_is_special_orthogonal_and_matches_lapack(n):
    z = np.random.default_rng(40 + n).standard_normal((4096, n, n))
    q = haar_from_normal(z)
    assert q.shape == z.shape
    assert np.max(np.abs(q @ q.swapaxes(1, 2) - np.eye(n))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(q) - 1.0)) <= 1e-12
    assert np.max(np.abs(q - _haar_by_lapack(z))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_log_flag_norms_match_lapack_on_box_samples(n):
    rng = np.random.default_rng(50 + n)
    gs = np.stack([cartan_box_sample(rng, n, 5.0) for _ in range(2000)])
    ms = gs @ haar_so(n, rng).T
    perm = tuple(int(i) for i in rng.permutation(n))
    np.testing.assert_allclose(log_flag_norms(ms, perm),
                               _log_flag_norms_by_lapack(ms, perm), rtol=0, atol=1e-11)
    # one matrix, unstacked, as busemann_formula passes it
    got = log_flag_norms(ms[0], perm)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, _log_flag_norms_by_lapack(ms[0], perm), rtol=0, atol=1e-11)


@pytest.mark.parametrize("scale", [1e-250, 1e250])
def test_log_flag_norms_at_extreme_scales(scale):
    # the wedge of the first j columns scales by scale^j, whether or not
    # the squares of the entries leave the float range
    rng = np.random.default_rng(7)
    ms = np.stack([cartan_box_sample(rng, 4, 5.0) for _ in range(50)])
    expect = log_flag_norms(ms, range(4)) + math.log(scale) * np.arange(1, 5)
    np.testing.assert_allclose(log_flag_norms(scale * ms, range(4)), expect,
                               rtol=1e-14, atol=1e-9)


@pytest.mark.parametrize("m", [np.zeros((3, 3)), np.diag([2.0, 0.0, 1.0]),
                               np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0]])])
def test_log_flag_norms_of_a_singular_matrix_reach_minus_infinity(m):
    with np.errstate(divide="ignore"):
        got = log_flag_norms(m, (0, 1, 2))
    assert not np.isnan(got).any()
    assert got[-1] == -math.inf


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kernel_rows_are_the_matrices_run_alone(n):
    z = np.random.default_rng(60 + n).standard_normal((64, n, n))
    q = haar_from_normal(z)
    norms = log_flag_norms(z, range(n))
    for i in range(len(z)):
        assert q[i].tobytes() == haar_from_normal(z[i]).tobytes()
        assert norms[i].tobytes() == log_flag_norms(z[i], range(n)).tobytes()


# ---------------------------------------------------------------------------
# Busemann functions


def test_busemann_limit_on_ray():
    ray = ray_from_cartan(CartanVector([1.0, 0.0, -1.0]))
    est = busemann_limit(ray, ray.point(3.0))
    assert est.value == pytest.approx(-3.0, abs=1e-9)
    assert est.nonincreasing
    assert est.truncation < 1e-9


def test_busemann_limit_at_base():
    ray = ray_from_cartan(CartanVector([1.0, -1.0]))
    est = busemann_limit(ray, np.eye(2))
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_busemann_limit_grid_validation():
    ray = ray_from_cartan(CartanVector([1.0, -1.0]))
    with pytest.raises(ValueError):
        busemann_limit(ray, np.eye(2), t_grid=[1.0, 50.0])
    with pytest.raises(ValueError):
        busemann_limit(ray, np.eye(2), t_grid=[5.0, 2.0, 100.0])


def test_busemann_limit_euclidean_flat():
    # on the diagonal flat the value is exactly -<unit direction, log point>
    rng = np.random.default_rng(7)
    a = CartanVector([1.5, -0.5, -1.0])
    ray = ray_from_cartan(a)
    ahat = np.asarray(a.unit().as_floats())
    for _ in range(10):
        x = rng.uniform(-1, 1, 3)
        x -= x.mean()
        est = busemann_limit(ray, exp_sym(np.diag(x)))
        assert est.value == pytest.approx(-float(ahat @ x), abs=2e-3)


def test_busemann_formula_identity():
    assert busemann_formula(CartanVector([1.0, 0.0, -1.0]), np.eye(3)) == \
        pytest.approx(0.0, abs=1e-12)


def test_busemann_formula_along_its_ray():
    # at pi(exp(s ahat)) = the ray point at parameter 2s the value is -2s
    a = CartanVector([2.0, -1.0, -1.0])
    ahat = np.asarray(a.unit().as_floats())
    for s in (0.5, 1.0, 3.0):
        g = exp_sym(s * np.diag(ahat))
        val = busemann_formula(a, g)
        assert val == pytest.approx(-2.0 * s, abs=1e-10)
        est = busemann_limit(ray_from_cartan(a), project(g))
        assert val == pytest.approx(est.value, abs=1e-8)


def test_busemann_formula_matches_limit_off_flat():
    rng = np.random.default_rng(8)
    for coords in [(1.0, 0.0, -1.0), (1.0, 1.0, -2.0), (1.0, -1.0)]:
        a = CartanVector(coords)
        ray = ray_from_cartan(a)
        n = a.n
        for _ in range(15):
            g = cartan_box_sample(rng, n, 1.0)
            est = busemann_limit(ray, project(g))
            assert abs(busemann_formula(a, g) - est.value) < 1e-2


def test_busemann_formula_zero_direction():
    with pytest.raises(ZeroVectorError):
        busemann_formula(CartanVector([0.0, 0.0]), np.eye(2))


def test_busemann_formula_horosphere():
    # vanishes on points pi(exp(b) u) with b orthogonal to the direction
    # and u unipotent in the subgroup contracted along the ray
    rng = np.random.default_rng(9)
    a = CartanVector([1.0, 0.0, -1.0])
    rev = dominant_order(a.scale(-1))
    pm = np.eye(3)[list(rev.perm)]
    for _ in range(10):
        b = rng.uniform(-1, 1, 3)
        b -= (b @ np.asarray(a.unit().as_floats())) * np.asarray(a.unit().as_floats())
        b -= b.mean()
        u_rev = np.eye(3)
        u_rev[np.triu_indices(3, 1)] = rng.standard_normal(3)
        u = pm.T @ u_rev @ pm
        g = exp_sym(np.diag(b)) @ u
        assert busemann_formula(a, g) == pytest.approx(0.0, abs=1e-9)


def test_busemann_formula_is_1_lipschitz():
    rng = np.random.default_rng(10)
    a = CartanVector([1.0, 0.5, -1.5])
    for _ in range(20):
        g1 = cartan_box_sample(rng, 3, 1.0)
        g2 = cartan_box_sample(rng, 3, 1.0)
        d = distance(project(g1), project(g2))
        diff = abs(busemann_formula(a, g1) - busemann_formula(a, g2))
        assert diff <= d * (1 + 1e-9) + 1e-9


# ---------------------------------------------------------------------------
# Flats, rays, convexity


def test_flats_are_euclidean():
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.uniform(-2, 2, 3)
        x -= x.mean()
        y = rng.uniform(-2, 2, 3)
        y -= y.mean()
        d = distance(exp_sym(np.diag(x)), exp_sym(np.diag(y)))
        assert d == pytest.approx(float(np.linalg.norm(x - y)), abs=1e-10)


def test_orthogonal_group_sweeps_flats():
    # moving the flat by k in SO(n) preserves distances from the base point
    rng = np.random.default_rng(15)
    a = np.array([1.0, -0.25, -0.75])
    base = distance(np.eye(3), exp_sym(2 * np.diag(a)))
    for _ in range(10):
        k = haar_so(3, rng)
        p = project(exp_sym(np.diag(a)) @ k)
        assert distance(np.eye(3), p) == pytest.approx(base, rel=1e-10)


def test_geodesic_ray_validation():
    with pytest.raises(ValueError):
        GeodesicRay(direction=np.diag([1.0, -1.0]))  # norm sqrt(2), not 1
    with pytest.raises(ValueError):
        GeodesicRay(direction=np.diag([1.0, 0.0]) / 1.0)  # trace 1


def test_ray_is_unit_speed():
    ray = ray_from_cartan(CartanVector([1.0, 1.0, -2.0]))
    for s, t in [(0.0, 1.0), (1.0, 4.0), (2.0, 10.0)]:
        assert distance(ray.point(s), ray.point(t)) == pytest.approx(
            t - s, rel=1e-10)


def test_midpoint_properties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        x, y, z = rand_point(rng), rand_point(rng), rand_point(rng)
        m = midpoint(x, y)
        half = distance(x, y) / 2
        assert distance(x, m) == pytest.approx(half, rel=1e-9, abs=1e-12)
        assert distance(y, m) == pytest.approx(half, rel=1e-9, abs=1e-12)
        lhs = distance(z, m) ** 2 + distance(x, y) ** 2 / 4
        rhs = (distance(z, x) ** 2 + distance(z, y) ** 2) / 2
        assert lhs <= rhs + 1e-8


def test_ray_divergence_ratio_monotone():
    rng = np.random.default_rng(18)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    for _ in range(25):
        r1 = _random_ray(rng)
        r2 = _random_ray(rng)
        ratios = [distance(r1.point(s), r2.point(s)) / s for s in grid]
        for a, b in zip(ratios, ratios[1:]):
            assert b >= a - 1e-8


def _random_ray(rng, n=3):
    z = rng.standard_normal((n, n))
    p = z + z.T
    p -= np.trace(p) / n * np.eye(n)
    p /= np.sqrt(np.sum(p * p))
    return GeodesicRay(direction=p)


def test_geodesic_interpolation_endpoints():
    rng = np.random.default_rng(19)
    x, y = rand_point(rng), rand_point(rng)
    np.testing.assert_allclose(geodesic(x, y, 0.0), x, atol=1e-10)
    np.testing.assert_allclose(geodesic(x, y, 1.0), y, atol=1e-10)
    third = geodesic(x, y, 1.0 / 3.0)
    assert distance(x, third) == pytest.approx(distance(x, y) / 3, rel=1e-9)
