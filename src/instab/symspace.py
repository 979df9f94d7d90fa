"""The symmetric space of SL(n,R) modeled by unimodular SPD matrices.

Points are positive-definite symmetric n x n matrices of determinant 1; a
group element g acts by the congruence p -> g^T p g and the projection from
the group is pi(g) = g^T g, whose stabilizer fiber is SO(n).  The affine
invariant distance is d(p,q) = sqrt(sum_i log(mu_i)^2) over the eigenvalues
mu_i of p^{-1} q.  With this normalization the map X -> exp(X) is an isometry
from the traceless symmetric matrices (trace-form norm) onto the space, so
unit-speed geodesic rays from the base point are t -> exp(t X) with
tr(X^2) = 1, and maximal flats are the exp images of commuting families.

Note the factor two between group and point coordinates: pi(exp(b)) =
exp(2 b), so a ray written through group elements is
t -> pi(exp((t/2) X)).  Shrink rates elsewhere in the package are quoted per
unit of the group parameter; see the README.

Distances to far-away ray points are computed by a graded eigenvalue
scheme (cluster + Schur complement) that stays accurate when the naive
matrix exponential would overflow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .cartan import CartanVector, chi_decompose, dominant_order
from .errors import DimensionError, ZeroVectorError
from .reps import check_unimodular_float

_SYM_TOL = 1e-10
_CLUSTER_GAP = 18.0  # see _log_eigs_graded


# ---------------------------------------------------------------------------
# Basic matrix helpers


def check_group_element(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {g.shape}")
    check_unimodular_float(g)
    return g


def check_sym_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {p.shape}")
    if np.max(np.abs(p - p.T)) > _SYM_TOL * max(1.0, float(np.max(np.abs(p)))):
        raise ValueError("point is not symmetric")
    if np.min(np.linalg.eigvalsh(p)) <= 0:
        raise ValueError("point is not positive definite")
    return p


def exp_sym(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via its eigenbasis."""
    w, q = np.linalg.eigh(np.asarray(x, dtype=float))
    return (q * np.exp(w)) @ q.T


def spd_power(p: np.ndarray, s: float) -> np.ndarray:
    w, q = np.linalg.eigh(np.asarray(p, dtype=float))
    return (q * w**s) @ q.T


def _reflect(rows: np.ndarray, v: np.ndarray, tau: np.ndarray) -> None:
    """rows <- (I - tau v v^T) rows in place, for (k, m, S) rows and a
    (k, S) v: sum_i v_i rows_i is added up in index order, so that each
    matrix of the stack gets the bits it gets alone."""
    dot = sum(v[1:, None] * rows[1:], v[0] * rows[0])
    rows -= v[:, None] * (tau * dot)


def _householder(m: np.ndarray):
    """Householder QR of each matrix of a (..., n, n) stack, one numpy
    operation over the whole stack per step and a Python loop over the
    n - 1 columns.  For small n, LAPACK's cost per call dominates a stack
    of hundreds of matrices; this kernel pays it per column instead.

    Returns the reflectors (v_j, tau_j), j = 0..n-2, with
    m = H_0 ... H_{n-2} R and H_j = I - tau_j v_j v_j^T on coordinates j..,
    and diag(R), with the S = prod(...) matrices on the last axis: v_j is
    (n - j, S), tau_j is (S,) and diag(R) is (n, S).  As in LAPACK, v_j
    starts with 1, tau_j lies in [1, 2] and r_jj has the sign opposite to
    the column it reflects, so nothing overflows before the entries do; a
    column that is already 0 gets tau_j = 0 and r_jj = 0.
    """
    n = m.shape[-1]
    a = np.moveaxis(np.asarray(m, dtype=float).reshape(-1, n, n), 0, -1).copy()
    reflectors = []
    for j in range(n - 1):
        x = a[j:, j]
        norm = functools.reduce(np.hypot, x)  # no square under- or overflows
        beta = np.copysign(norm, x[0])
        zero = norm == 0  # then x = 0, v = e_0 and tau = 0
        v = x / (x[0] + beta + zero)
        v[0] = 1.0
        tau = (norm + np.abs(x[0])) / (norm + zero)
        _reflect(a[j:, j + 1:], v, tau)
        np.negative(beta, out=a[j, j])
        reflectors.append((v, tau))
    return reflectors, np.diagonal(a).T


def haar_so(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of SO(n)."""
    return haar_from_normal(rng.standard_normal((n, n)))


def haar_from_normal(z: np.ndarray) -> np.ndarray:
    """The Haar element of SO(n) made from a standard normal n x n matrix,
    or from every matrix of a stack: the Q of its QR with the signs of
    diag(R), and the first column negated where det Q < 0 (Mezzadri 2007).

    Q is formed from the reflectors of ``_householder``.  Each of the
    n - 1 reflectors has det -1, so det Q = (-1)^(n-1) prod_j sign(r_jj).
    """
    n = z.shape[-1]
    reflectors, d = _householder(z)
    sign = np.sign(d)
    sign[0] *= np.where((-1) ** (n - 1) * np.prod(sign, axis=0) < 0, -1.0, 1.0)
    q = np.zeros((n, n, sign.shape[1]))
    q[range(n), range(n)] = sign
    for j in reversed(range(n - 1)):
        _reflect(q[j:, j:], *reflectors[j])
    return np.moveaxis(q, -1, 0).reshape(z.shape)


def block_orthogonal(blocks: Sequence[Sequence[int]], n: int,
                     rng: np.random.Generator, count: int) -> np.ndarray:
    """The (count, n, n) stack of Haar samples from the SO(n) subgroup
    preserving the index blocks.

    Frame i takes the i-th row of one standard normal draw of shape
    (count, sum of b^2 over the blocks of size b > 1), block by block in
    the order given: the same numbers as ``count`` frames drawn one after
    another.  Each block is the Q of one stacked QR with the signs of
    diag(R); a frame with det -1 has the first column of its largest block
    negated.
    """
    z = rng.standard_normal((count, sum(len(g) ** 2 for g in blocks if len(g) > 1)))
    k = np.zeros((count, n, n))
    start = 0
    for grp in blocks:
        b = len(grp)
        if b == 1:
            k[:, grp[0], grp[0]] = 1.0
            continue
        q, r = np.linalg.qr(z[:, start:start + b * b].reshape(count, b, b))
        start += b * b
        k[:, np.array(grp)[:, None], grp] = \
            q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    col = max(blocks, key=len)[0]
    k[:, :, col] *= np.where(np.linalg.det(k) < 0, -1.0, 1.0)[:, None]
    return k


# ---------------------------------------------------------------------------
# Projection, distance, geodesics


def project(g) -> np.ndarray:
    """Project a group element to the symmetric space: pi(g) = g^T g."""
    g = check_group_element(g)
    p = g.T @ g
    return 0.5 * (p + p.T)


def distance(p, q) -> float:
    """Affine-invariant distance sqrt(sum log(mu_i)^2), mu_i = eig(p^{-1}q)."""
    p = check_sym_point(p)
    q = check_sym_point(q)
    if p.shape != q.shape:
        raise DimensionError("point dimensions differ")
    # the eigenvalues of p^{-1} q are those of L^{-1} q L^{-T}, p = L L^T
    low = np.linalg.cholesky(p)
    m = np.linalg.solve(low, np.linalg.solve(low, q).T)
    mu = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(np.sqrt(np.sum(np.log(mu) ** 2)))


def geodesic(p, q, s: float) -> np.ndarray:
    """Point at parameter fraction ``s`` on the geodesic from p to q."""
    p = check_sym_point(p)
    q = check_sym_point(q)
    ph = spd_power(p, 0.5)
    pih = spd_power(p, -0.5)
    mid = spd_power(pih @ q @ pih, s)
    out = ph @ mid @ ph
    return 0.5 * (out + out.T)


def midpoint(p, q) -> np.ndarray:
    return geodesic(p, q, 0.5)


# ---------------------------------------------------------------------------
# Geodesic rays and Busemann functions


@dataclass(frozen=True)
class GeodesicRay:
    """Unit-speed ray t -> exp(t * direction) from the identity point.

    ``direction`` is symmetric, traceless, of trace-form norm 1.
    """

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if np.max(np.abs(d - d.T)) > _SYM_TOL:
            raise ValueError("ray direction must be symmetric")
        if abs(float(np.trace(d))) > 1e-9:
            raise ValueError("ray direction must be traceless")
        nrm = float(np.sqrt(np.sum(d * d)))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"ray direction must have trace-form norm 1, got {nrm}")
        object.__setattr__(self, "direction", d)

    def point(self, t: float) -> np.ndarray:
        return exp_sym(t * self.direction)


def ray_from_cartan(a: CartanVector) -> GeodesicRay:
    """Unit ray through the diagonal flat in direction ``a``."""
    return GeodesicRay(direction=np.diag(a.unit().as_floats()))


def _log_eigs_graded(m: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """log eigenvalues of diag(e^{expo/2}) m diag(e^{expo/2}) for SPD m.

    Indices are clustered by adjacent gaps of ``expo`` larger than
    ``_CLUSTER_GAP`` = 18; each cluster contributes the eigenvalues of its
    (Schur complemented, rescaled) block.  Cross-cluster coupling enters
    the log eigenvalues at order e^-18, far below the tolerances used here,
    while every block eigensolve only ever sees a dynamic range of e^18.
    """
    order = np.argsort(-expo, kind="stable")
    e = expo[order]
    mw = m[np.ix_(order, order)]
    nloc = len(e)
    clusters = []
    cur = [0]
    for i in range(1, nloc):
        if e[i - 1] - e[i] <= _CLUSTER_GAP:
            cur.append(i)
        else:
            clusters.append(cur)
            cur = [i]
    clusters.append(cur)
    sizes = [len(c) for c in clusters]
    logs = []
    ew = e.copy()
    for ci, b in enumerate(sizes):
        sub = mw[:b, :b]
        eref = ew[0]
        scale = np.exp(0.5 * (ew[:b] - eref))
        t = sub * np.outer(scale, scale)
        ev = np.linalg.eigvalsh(0.5 * (t + t.T))
        if np.min(ev) <= 0:
            raise ValueError("matrix is not positive definite")
        logs.extend(eref + np.log(ev))
        if ci + 1 < len(sizes):
            rest = mw[b:, b:] - mw[b:, :b] @ np.linalg.solve(sub, mw[:b, b:])
            mw = 0.5 * (rest + rest.T)
            ew = ew[b:]
    return np.asarray(logs)


def _distance_to_ray_point(x: np.ndarray, ray: GeodesicRay, t: float) -> float:
    """d(x, ray.point(t)), stable for large t."""
    d, q = np.linalg.eigh(ray.direction)
    xin = np.linalg.inv(x)
    mmat = q.T @ xin @ q
    mmat = 0.5 * (mmat + mmat.T)
    logs = _log_eigs_graded(mmat, t * d)
    return float(np.sqrt(np.sum(logs**2)))


@dataclass(frozen=True)
class BusemannEstimate:
    """Finite-horizon Busemann value with a monotonicity report.

    ``values`` are d(x, gamma(t)) - t over the grid; the sequence is
    non-increasing for an exact distance, and the last decrement bounds the
    remaining truncation error.
    """

    value: float
    grid: Tuple[float, ...]
    values: Tuple[float, ...]
    nonincreasing: bool
    truncation: float


_DEFAULT_T_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
_MONO_TOL = 1e-6


def busemann_limit(ray: GeodesicRay, x,
                   t_grid: Sequence[float] | None = None) -> BusemannEstimate:
    """Estimate the Busemann function of ``ray`` at ``x`` by the defining
    limit of d(x, gamma(t)) - t along ``t_grid`` (increasing, last >= 100)."""
    x = check_sym_point(x)
    grid = tuple(float(t) for t in (t_grid if t_grid is not None else _DEFAULT_T_GRID))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if grid[-1] < 100:
        raise ValueError("last grid point must be >= 100")
    values = tuple(_distance_to_ray_point(x, ray, t) - t for t in grid)
    noninc = all(b <= a + _MONO_TOL for a, b in zip(values, values[1:]))
    trunc = abs(values[-1] - values[-2]) if len(values) > 1 else float("inf")
    return BusemannEstimate(value=values[-1], grid=grid, values=values,
                            nonincreasing=noninc, truncation=trunc)


def log_flag_norms(m, perm: Sequence[int]) -> np.ndarray:
    """log||m e_{perm[0]} ^ ... ^ m e_{perm[j-1]}|| for j = 1..n, or the
    (S, n) array of them for a stack of S matrices.

    Entry j-1 is the log norm of the degree-j fundamental representation
    of m applied to the highest weight vector of the simple system
    ``perm``.  The wedge of the first j columns of m[:, perm] has the norm
    |r_11 ... r_jj| of its QR factor, so one factorization gives every
    degree without building any wedge representation.  The factor is the
    diag(R) of ``_householder``; Q is never formed.
    """
    m = np.asarray(m, dtype=float)[..., list(perm)]
    logs = np.log(np.abs(_householder(m)[1].T))
    return np.cumsum(logs, axis=-1).reshape(m.shape[:-1])


def busemann_formula(a: CartanVector, g) -> float:
    """Busemann function of the unit ray through direction ``a``, evaluated
    at the point pi(g), via fundamental representation norms.

    A nonnegative combination of log||rho_j(.) v_j|| over highest weight
    vectors is constant exactly on the horospheres of the ray whose
    direction is anti-dominant for their simple system (the unipotent
    subgroup fixing the v_j is the one contracted along that ray under the
    right congruence action).  The ray of ``a`` therefore uses the ordering
    that makes ``-a`` dominant:

        beta(pi(g)) = 2 ||a|| sum_j c_j log||rho_j(g) v_j||,

    with c_j the fundamental-weight coefficients of <-a,.>/<a,a> for that
    ordering and v_j its unit highest weight vectors (``log_flag_norms``).
    The factor 2 converts group coordinates into point coordinates
    (pi(exp(b)) = exp(2b)); beta(pi(e)) = 0.
    """
    if a.is_zero():
        raise ZeroVectorError("zero direction defines no Busemann function")
    g = check_group_element(g)
    if g.shape[0] != a.n:
        raise DimensionError("group element size does not match direction")
    if not a.is_exact:  # the ray does not see the scale, and <a, a> stays in range
        a = a.unit()
    neg = a.scale(-1)
    order = dominant_order(neg)
    coeffs = np.asarray([float(c) for c in chi_decompose(neg, order)])
    total = float(coeffs @ log_flag_norms(g, order.perm)[:-1])
    return 2.0 * a.norm() * total
