"""Min-norm points, fastest shrinking geodesics, and dominance certificates.

The engine has two cooperating layers.  The exact layer works over the
rational weight lattice: the active weights of a vector (at some orthogonal
frame) span a polytope, Wolfe's algorithm finds the exact min-norm point u
in it, and u determines the optimal destabilizing one-parameter subgroup of
that flat, its decay rate ||u||, and the nonnegative rational coefficients
of the certificate.  The numeric layer uses the moment map mu, whose norm
bounds every rate from above: it keeps the identity flat when its balanced
face proves it optimal (Ness), and otherwise descends log||rho(g)v|| along
mu, "snapping" the flag of -mu onto the exact layer through an orthogonal
frame until an exact in-flat rate meets that bound.

Rates are quoted per unit of the group parameter: along
s -> pi(exp(s * diag(d))) with tr(d^2) = 1 the log norm of a shrinking
vector decays with slope -||u||, which matches the cocharacter ratio
m(v, tau)/||tau||.  (The point s -> pi(exp(s d)) moves at metric speed 2;
see symspace.)

A dominance certificate packages: the shrink direction and frame, the decay
rate, the fundamental-representation coefficients alpha_j >= 0, a constant
c, and an embedded sampling verification.  The guaranteed inequality is

    log ||rho(g) v|| >= sum_j alpha_j log ||rho_j(g) w_j|| + c     for all g,

where w_j are the frame-translated highest weight vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import exactlin
from .cartan import (CartanVector, Cocharacter, SimpleSystem, Weight,
                     dominant_order)
from .errors import (CertificateError, DimensionError, StableVectorError,
                     TorusStableError, ZeroVectorError)
from .reps import (RepSpec, Representation, act, active_weights, build_rep,
                   log_rep_norm, moment_map, parse_rep_spec, scaled_floats, weight_part)
from .symspace import block_orthogonal, exp_sym, haar_so, log_flag_norms

NEG_INF = float("-inf")

CERT_SCHEMA = "instab-cert/1"


# ---------------------------------------------------------------------------
# Min-norm point in a polytope (Wolfe)


@dataclass(frozen=True)
class MinNormCert:
    """Closest point to 0 in the convex hull of the input points.

    ``coeffs`` are convex coefficients over the inputs reproducing ``point``;
    ``gap = min_i <u, v_i> - <u, u>`` certifies optimality (>= 0 up to
    tolerance: every input lies on the far side of the supporting
    hyperplane through u).
    """

    point: CartanVector
    coeffs: Tuple
    gap: float


def _affine_min(points):
    """Min-norm point of the affine hull of ``points`` (barycentric)."""
    m = len(points)
    gram = [[sum(x * y for x, y in zip(p, q)) for q in points] for p in points]
    a = [[gram[i][j] for j in range(m)] + [1] for i in range(m)]
    a.append([1] * m + [0])
    rhs = [0] * m + [1]
    sol = exactlin.solve(a, rhs)
    return sol[:m]


def min_norm_point(points: Sequence, mode: str = "float", tol: float = 1e-12,
                   max_iter: Optional[int] = None) -> MinNormCert:
    """Wolfe's algorithm for the min-norm point of conv(points).

    ``points`` may be CartanVectors or plain coordinate sequences.  In exact
    mode all inputs must be rational and the result (and the optimality
    gap) are exact; in float mode the optimality certificate holds within
    ``tol``-level accuracy.
    """
    if mode not in ("float", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    raw = [tuple(p.coords) if isinstance(p, CartanVector) else tuple(p) for p in points]
    if not raw:
        raise ValueError("need at least one point")
    dims = {len(p) for p in raw}
    if len(dims) != 1:
        raise DimensionError("points have mixed dimensions")
    exact = mode == "exact"
    if exact:
        if not all(exactlin.is_exact(p) for p in raw):
            raise ValueError("exact mode requires rational coordinates")
        pts = [tuple(Fraction(x) for x in p) for p in raw]
        zero = Fraction(0)
        keep_tol = Fraction(0)
    else:
        pts = [tuple(float(x) for x in p) for p in raw]
        zero = 0.0
        keep_tol = 1e-14

    def dot(p, q):
        return sum(x * y for x, y in zip(p, q))

    def combo(idx, lam):
        return tuple(sum(l * pts[i][c] for i, l in zip(idx, lam))
                     for c in range(len(pts[0])))

    start = min(range(len(pts)), key=lambda i: dot(pts[i], pts[i]))
    corral = [start]
    lam = [Fraction(1) if exact else 1.0]
    x = pts[start]
    limit = max_iter if max_iter is not None else 16 * len(pts) + 64

    for _ in range(limit):
        xx = dot(x, x)
        j = min(range(len(pts)), key=lambda i: dot(x, pts[i]))
        thresh = xx if exact else xx - max(tol, tol * abs(xx))
        if dot(x, pts[j]) >= thresh or j in corral:
            break
        corral.append(j)
        lam.append(zero)
        # minor cycle: move toward the affine minimizer, dropping points
        # whose barycentric weight would go negative
        for _ in range(limit):
            try:
                mu = _affine_min([pts[i] for i in corral])
            except ZeroDivisionError:
                # affinely dependent corral: discard the oldest point
                corral.pop(0)
                lam.pop(0)
                total = sum(lam)
                lam = [l / total for l in lam]
                continue
            if all(m > keep_tol for m in mu):
                lam = list(mu)
                x = combo(corral, lam)
                break
            theta = min(l / (l - m) for l, m in zip(lam, mu) if m <= keep_tol)
            lam = [(1 - theta) * l + theta * m for l, m in zip(lam, mu)]
            keep = [i for i, l in enumerate(lam) if l > keep_tol]
            if not keep:
                keep = [int(np.argmax([float(l) for l in lam]))]
            corral = [corral[i] for i in keep]
            lam = [lam[i] for i in keep]
            total = sum(lam)
            lam = [l / total for l in lam]
            x = combo(corral, lam)
        else:
            break

    coeffs = [zero] * len(pts)
    for i, l in zip(corral, lam):
        coeffs[i] = coeffs[i] + l
    xx = dot(x, x)
    gap = min(dot(x, p) for p in pts) - xx
    point = CartanVector(x)
    if not exact:
        gap = float(gap)
    return MinNormCert(point=point, coeffs=tuple(coeffs), gap=gap)


def hull_contains(points: Sequence[CartanVector], target: CartanVector,
                  tol: float = 0.0) -> bool:
    """Membership of ``target`` in conv(points): exact for rational data,
    within distance ``tol`` when the target carries floats."""
    if tol == 0.0 and target.is_exact and all(p.is_exact for p in points):
        shifted = [tuple(Fraction(a) - Fraction(b)
                         for a, b in zip(p.coords, target.coords))
                   for p in points]
        cert = min_norm_point(shifted, mode="exact")
        return all(c == 0 for c in cert.point.coords)
    shifted = [tuple(float(a) - float(b) for a, b in zip(p.coords, target.coords))
               for p in points]
    cert = min_norm_point(shifted, mode="float")
    return cert.point.norm() <= max(tol, 1e-9)


# ---------------------------------------------------------------------------
# Shrink data on a single maximal flat


@dataclass(frozen=True)
class FlatShrinkData:
    """Exact decay data of the restriction of log||rho(.)v|| to one flat.

    The flat is pi(exp(diag(.)) k) for the orthogonal ``frame`` k.  On it
    the log norm is, up to a bounded error, max over active weights of
    <weight, b> + r_weight; ``u`` is the exact min-norm point of the active
    weights, ``rate = ||u||`` the best decay slope (0 iff 0 lies in the
    hull, in which case the restriction is bounded below), and
    ``bound_const`` realizes the lower bound <b, u> + C on the flat.
    ``eps`` is the relative threshold that classified the active set.
    """

    frame: np.ndarray
    active: Tuple[Tuple[Weight, float], ...]
    u: CartanVector
    coeffs: Tuple[Fraction, ...]
    rate: float
    bound_const: float
    bounded_below: bool
    eps: float


def flat_shrink_data(rep: Representation, v, frame: Optional[np.ndarray] = None,
                     eps: float = 1e-10) -> FlatShrinkData:
    if frame is None:
        frame_arr = np.eye(rep.n)
        w = v
    else:
        frame_arr = np.asarray(frame, dtype=float)
        w = act(rep, frame_arr, v)
    comps = active_weights(rep, w, eps)
    if not comps:
        raise ZeroVectorError("vector vanishes after applying the frame")
    cert = min_norm_point([wt.as_cartan() for wt, _ in comps], mode="exact")
    rate = cert.point.norm()
    bound_const = float(sum(float(c) * r for c, r in zip(cert.coeffs, (r for _, r in comps))))
    bounded = all(c == 0 for c in cert.point.coords)
    return FlatShrinkData(frame=frame_arr, active=tuple(comps), u=cert.point,
                          coeffs=cert.coeffs, rate=rate, bound_const=bound_const,
                          bounded_below=bounded, eps=eps)


def flat_direction_matrix(fd: FlatShrinkData) -> Optional[np.ndarray]:
    """Unit shrinking direction of the flat, as a symmetric matrix."""
    if fd.bounded_below:
        return None
    uhat = np.asarray(fd.u.unit().as_floats())
    k = fd.frame
    return -(k.T @ np.diag(uhat) @ k)


# ---------------------------------------------------------------------------
# Fastest shrinking geodesic (moment-map descent)


@dataclass(frozen=True)
class ShrinkGeodesicResult:
    """The fastest flat the search found.

    ``rate`` is always the exact in-flat rate ||u|| of ``flat``, a flat
    that is not bounded below, and ``direction`` its unit shrinking
    direction.  ``upper`` bounds every rate from above: ``rate`` itself
    when the identity flat's balanced face proves it optimal, else the
    least ||mu(rho(g)v)|| the descent saw at a well-conditioned g.
    ``identity``: ``flat`` is the identity flat of v itself at ``eps``
    (exact for rational v), not one the descent took on a float copy.
    ``frames_tried`` counts the identity and the descent's snapped frames.
    """

    direction: np.ndarray
    rate: float
    upper: float
    flat: FlatShrinkData
    identity: bool
    frames_tried: int


# Every positive rate is at least gamma(rho) > 0, the least nonzero norm of
# the min-norm point of at most n distinct weights (Caratheodory), and the
# rate never exceeds ||mu(rho(g)v)||.  So ||mu|| below gamma proves that v
# is not unstable; the threshold sits below gamma of every representation
# that test_stable_threshold_is_below_the_weight_margin enumerates.
_STABLE_MU = 1e-3
_GAP = 1e-6
# rho(g)v carries a relative error of about 1e-16 times this bound on
# ||rho(g)|| ||v|| / ||rho(g)v||, and so does mu
_MAX_LOG_COND = math.log(1e8)
_MAX_STEPS = 200


def _flag_frame(g: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Orthogonal frame adapted to the Kempf flag of v read off mu(rho(g)v).

    -mu points along the optimal direction at rho(g)v (Ness).  Carried
    back to v, that cocharacter contracts the flag g^-1 q_1, g^-1 q_2, ...
    for the eigenvectors q of -mu in ascending order, and the QR of g^-1 q
    gives the orthogonal frame whose flat is asymptotic to it, with u in
    descending order.
    """
    _, q = np.linalg.eigh(-mu)
    k = np.linalg.qr(np.linalg.solve(g, q))[0].T
    if np.linalg.det(k) < 0:
        k[-1] = -k[-1]
    return k


def fastest_shrinking_geodesic(rep: Representation, v,
                               eps: float = 1e-10) -> ShrinkGeodesicResult:
    """The identity flat when its balanced face proves it optimal, else
    the fastest flat of a moment-map descent of log||rho(g)v|| from g = I.

    Each step moves g to exp(-eta mu) g, with Armijo backtracking on the
    log norm (eta starts at 1 and only ever halves: longer steps zigzag
    across the optimum), and keeps g upper triangular by QR (the norm is
    SO(n)-invariant).  At every step the flag of -mu is snapped to a frame
    and its exact flat data taken at the thresholds {eps, 1e-7, 1e-4}.  The
    search stops once the fastest flat's ||u|| is within 1e-6 of the least
    well-conditioned ||mu||, or once g is too ill-conditioned for ||mu|| to
    bound anything, and returns that flat.  Raises StableVectorError when
    ||mu|| falls below every positive rate, or when the step cap passes
    without a flat that is not bounded below.
    """
    flat = flat_shrink_data(rep, v, None, eps)
    # Along the identity flat's own ray, rho(exp(-s u))v / ||.|| tends to
    # v_F, the part of v whose weights are active and pair with u to
    # ||u||^2.  The rate is at most ||mu(rho(g)v)|| for every g, and mu is
    # scale-invariant and continuous, so ||mu(v_F)|| bounds every rate from
    # above, while the flat's own ||u|| bounds it from below: a balanced
    # face, ||mu(v_F)|| = ||u||, proves the flat optimal (Ness 1984).
    if not flat.bounded_below:
        face = {w for w, _ in flat.active if w.pair(flat.u) == flat.u.norm_sq()}
        if np.linalg.norm(moment_map(rep, weight_part(rep, v, face))) <= flat.rate + _GAP:
            return ShrinkGeodesicResult(direction=flat_direction_matrix(flat),
                                        rate=flat.rate, upper=flat.rate, flat=flat,
                                        identity=True, frames_tried=1)
    vec = scaled_floats(rep, v)
    n = rep.n
    levels = np.asarray([w.as_cartan().as_floats() for w in rep.weights])
    eps_ladder = sorted({eps, 1e-7, 1e-4})
    log_v = log_rep_norm(rep, vec)
    g, f = np.eye(n), log_v
    flats, frames = [flat], 1
    upper, eta = math.inf, 1.0
    for _ in range(_MAX_STEPS):
        mu = moment_map(rep, act(rep, g, vec))
        mu_norm = float(np.linalg.norm(mu))
        log_cond = float(np.max(levels @ np.log(np.linalg.svd(g, compute_uv=False))))
        accurate = log_cond + log_v - f <= _MAX_LOG_COND
        if accurate:
            upper = min(upper, mu_norm)
        if upper < _STABLE_MU:
            raise StableVectorError(f"||mu|| = {upper:.3e} is below every positive rate")
        k = _flag_frame(g, mu)
        flats.extend(flat_shrink_data(rep, vec, k, e) for e in eps_ladder)
        frames += 1
        # a coarse threshold can misclassify; ||u|| above upper is impossible
        found = [fd for fd in flats if not fd.bounded_below and fd.rate <= upper + _GAP]
        # done when the fastest flat meets upper, or upper can improve no more
        if found and (upper - max(fd.rate for fd in found) <= _GAP or not accurate):
            break
        while True:
            h = exp_sym(-eta * mu) @ g
            fh = log_rep_norm(rep, act(rep, h, vec))
            if fh <= f - 0.5 * eta * mu_norm ** 2 or eta < 1e-12:
                break
            eta *= 0.5
        r = np.linalg.qr(h, mode="r")
        r *= np.sign(np.diag(r))[:, None]
        g, f = r / np.prod(np.diag(r)) ** (1.0 / n), fh
    if not found:
        raise StableVectorError(f"no shrinking flat in {_MAX_STEPS} moment-map steps")
    best = max(found, key=lambda fd: fd.rate)
    return ShrinkGeodesicResult(direction=flat_direction_matrix(best), rate=best.rate,
                                upper=upper, flat=best, identity=best is flat,
                                frames_tried=frames)


# ---------------------------------------------------------------------------
# Optimal torus cocharacter


@dataclass(frozen=True)
class TorusKempfResult:
    """Optimal destabilizing cocharacter of the diagonal torus.

    ``tau`` is the primitive integer cocharacter proportional to the
    min-norm point u of the active weights; its minimal pairing m over the
    active weights is positive, and ratio = m/||tau|| = ||u|| is the decay
    rate on the diagonal flat.
    """

    tau: Cocharacter
    m: int
    ratio: float
    u: CartanVector
    flat: FlatShrinkData


def _kempf(fd: FlatShrinkData) -> Tuple[Cocharacter, int, float]:
    """``(tau, m, m/||tau||)`` of a flat not bounded below: tau primitive
    integral along u, m its least pairing with the active weights."""
    tau = Cocharacter(exactlin.primitive_integer_vector(fd.u.coords))
    m = min(w.pair_int(tau) for w, _ in fd.active)
    if m <= 0:
        raise AssertionError("internal: optimal cocharacter has nonpositive pairing")
    return tau, m, m / tau.norm()


def torus_kempf(rep: Representation, v, eps: float = 1e-10) -> TorusKempfResult:
    fd = flat_shrink_data(rep, v, None, eps)
    if fd.bounded_below:
        raise TorusStableError(
            "0 lies in the hull of the active weights at the identity frame")
    tau, m, ratio = _kempf(fd)
    return TorusKempfResult(tau=tau, m=m, ratio=ratio, u=fd.u, flat=fd)


# ---------------------------------------------------------------------------
# Instability search


TORUS_CERTIFIED = "torus_certified_unstable"
NUMERIC_UNSTABLE = "numerically_unstable"
LIKELY_STABLE = "likely_stable"


@dataclass(frozen=True)
class Verdict:
    kind: str
    flat: Optional[FlatShrinkData]
    rate: float
    frames_tried: int


def is_unstable(rep: Representation, v, budget: int = 64, seed: int = 0,
                eps: float = 1e-10, adapted: bool = True) -> Verdict:
    """Classify ``v`` by the flat of ``fastest_shrinking_geodesic``.

    Torus-certified (exactly, over the rationals) when the winning flat is
    the identity flat of v itself, numerically unstable for any other flat,
    and likely stable (``frames_tried`` 0) on StableVectorError.  ``budget``,
    ``seed`` and ``adapted`` have no effect; existing callers pass them.
    """
    try:
        fsg = fastest_shrinking_geodesic(rep, v, eps=eps)
    except StableVectorError:
        return Verdict(kind=LIKELY_STABLE, flat=None, rate=0.0, frames_tried=0)
    kind = TORUS_CERTIFIED if fsg.identity else NUMERIC_UNSTABLE
    return Verdict(kind=kind, flat=fsg.flat, rate=fsg.rate,
                   frames_tried=fsg.frames_tried)


# ---------------------------------------------------------------------------
# Dominance certificates


@dataclass(frozen=True)
class KempfData:
    tau: Tuple[int, ...]
    m: int
    norm_sq: int
    ratio: float


@dataclass(frozen=True)
class XiInfo:
    frames: int
    excluded: int
    value: float
    margin: float


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    failures: int
    margin_min: float
    margin_mean: float
    ray_slope_diff: float
    ray_checked: bool
    box: float
    tol: float
    seed: int

    @property
    def ok(self) -> bool:
        if self.samples == 0:
            return True
        return self.failures == 0 and (not self.ray_checked
                                       or self.ray_slope_diff <= 1e-3)


@dataclass(frozen=True)
class CertifyOptions:
    """Knobs for certificate construction."""

    seed: int = 0
    eps: float = 1e-10
    xi_frames: int = 1000
    safety_margin: float = 0.1
    samples: int = 1000
    box: float = 5.0
    tol: float = 1e-6


@dataclass(frozen=True)
class DominanceCert:
    """A verifiable lower bound log||rho(g)v|| >= sum alpha_j log||rho_j(g)w_j|| + c.

    ``order`` fixes the simple system (0-based coordinate permutation),
    ``u`` is the exact min-norm point whose unit is the dominant direction,
    ``alphas`` are the exact nonnegative rational coefficients (index j is
    the fundamental degree j+1), and ``frame`` is the orthogonal change of
    basis: w_j = rho_j(frame^T) v_j for the highest weight vectors v_j of
    ``order``.  ``kempf`` records the integer cocharacter of the certifying
    flat in frame coordinates.
    """

    n: int
    spec: RepSpec
    vector: Tuple
    mode: str
    frame: Optional[np.ndarray]
    order: SimpleSystem
    u: CartanVector
    direction: Tuple[float, ...]
    rate: float
    alphas: Tuple  # nonnegative Fractions; read back as floats if so written
    c: float
    kempf: Optional[KempfData]
    xi: XiInfo
    verification: Optional[VerifyReport]
    seed: int
    eps: float
    form: str = "trace"
    schema: str = CERT_SCHEMA

    @property
    def hw_degrees(self) -> Tuple[int, ...]:
        return tuple(j + 1 for j, a in enumerate(self.alphas) if a > 0)


def _xi_prefix(active: Sequence[Tuple[Weight, float]], u: CartanVector) -> float:
    """max over active subsets whose hull contains u of the min log norm.

    Enlarging a subset can only help hull membership, so the optimum is a
    prefix of the weights sorted by decreasing log norm; the answer is the
    log norm of the last weight added when u first enters the hull.
    """
    ordered = sorted(active, key=lambda wr: -wr[1])
    for t in range(1, len(ordered) + 1):
        prefix = [w.as_cartan() for w, _ in ordered[:t]]
        if hull_contains(prefix, u):
            return ordered[t - 1][1]
    raise AssertionError("internal: u not in the hull of its active weights")


def _coordinate_blocks(u: CartanVector):
    """Indices grouped by equal coordinates of the exact ``u``."""
    order = sorted(range(u.n), key=lambda i: u.coords[i], reverse=True)
    blocks = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if u.coords[prev] == u.coords[cur]:
            blocks[-1].append(cur)
        else:
            blocks.append([cur])
    return [tuple(b) for b in blocks]


# Why no Haar-random frame is tried.  For v != 0 let A be the weights whose
# component does not vanish on all of rho(SO(n))v: the active set at almost
# every frame, and a superset of it at every frame.  The signed permutations
# in SO(n) realise the Weyl group W, so A is W-invariant; if some u had
# <lambda, u> > 0 on all of A, summing <lambda, w.u> over W would give 0 > 0.
# So 0 lies in the hull of a Haar frame's active weights almost surely: such
# a frame never certifies, and its min-norm point 0 never matches a u != 0.


def _estimate_constant(rep: Representation, v, frame: np.ndarray,
                       u: CartanVector, cls_eps: float,
                       opts: CertifyOptions) -> Tuple[float, XiInfo]:
    """Lower-bound constant via frames of flats through the shrink geodesic.

    Takes the identity and, when u has a repeated coordinate, ``xi_frames``
    random rotations within the blocks of equal coordinates (the frames
    commuting with the shrink direction; Haar frames would never match, see
    the comment above).  Keeps the frames whose active weights have the same
    exact min-norm point, and
    takes the minimum of the prefix-hull statistic; the safety margin is
    subtracted at the end.  ``cls_eps`` must be the threshold that
    classified the certificate's own active set, so the identity frame
    always passes the filter.
    """
    n = rep.n
    w = act(rep, frame, v)
    blocks = _coordinate_blocks(u)
    frames = [np.eye(n)]
    if len(blocks) < n:
        rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x7C)))
        frames.extend(block_orthogonal(blocks, n, rng)
                      for _ in range(opts.xi_frames))
    excluded = 0
    xi_min = math.inf
    cache: dict = {}
    for k0 in frames:
        comps = active_weights(rep, act(rep, k0, w), cls_eps)
        key = frozenset(wt for wt, _ in comps)
        if key not in cache:
            cert = min_norm_point([wt.as_cartan() for wt, _ in comps], mode="exact")
            cache[key] = cert.point
        if cache[key].coords != u.coords:
            excluded += 1
            continue
        xi_min = min(xi_min, _xi_prefix(comps, u))
    info = XiInfo(frames=len(frames), excluded=excluded, value=float(xi_min),
                  margin=opts.safety_margin)
    return float(xi_min) - opts.safety_margin, info


def dominance_certificate(rep: Representation, v,
                          opts: CertifyOptions = CertifyOptions()) -> DominanceCert:
    """Compute a dominance certificate for an unstable vector.

    Anchors at the flat of ``fastest_shrinking_geodesic``, which carries
    exact rational data.  Raises StableVectorError when the search finds
    no shrinking flat.
    """
    vec_exact = exactlin.is_exact(list(v))
    fsg = fastest_shrinking_geodesic(rep, v, eps=opts.eps)
    flat = fsg.flat
    u = flat.u
    rate = u.norm()
    tau, m, ratio = _kempf(flat)
    kempf = KempfData(tau=tau.exps, m=m, norm_sq=tau.norm_sq(), ratio=ratio)
    order = dominant_order(u)
    perm = order.perm
    alphas = tuple(u.coords[perm[j]] - u.coords[perm[j + 1]] for j in range(rep.n - 1))
    if any(a < 0 for a in alphas):
        raise AssertionError("internal: direction not dominant for its own order")

    c, xi_info = _estimate_constant(rep, v, flat.frame, u, flat.eps, opts)

    frame = None if fsg.identity else flat.frame
    mode = "exact" if (vec_exact and fsg.identity) else "float"
    vector = tuple(Fraction(x) for x in v) if vec_exact \
        else tuple(float(x) for x in v)

    uhat = u.unit()
    cert = DominanceCert(
        n=rep.n, spec=rep.spec, vector=vector, mode=mode, frame=frame,
        order=order, u=u, direction=uhat.as_floats(), rate=rate,
        alphas=alphas, c=c, kempf=kempf, xi=xi_info, verification=None,
        seed=opts.seed, eps=opts.eps)
    if opts.samples > 0:
        report = verify_dominance(cert, rep, v, opts.samples,
                                  tol=opts.tol, seed=opts.seed, box=opts.box)
        cert = replace(cert, verification=report)
    return cert


def cartan_box_sample(rng: np.random.Generator, n: int, box: float) -> np.ndarray:
    """g = k1 exp(diag(a)) k2, Haar k's, a uniform in the traceless box."""
    a = rng.uniform(-box, box, size=n)
    a = a - a.mean()
    return haar_so(n, rng) @ np.diag(np.exp(a)) @ haar_so(n, rng)


def verify_dominance(cert: DominanceCert, rep: Optional[Representation] = None,
                     v=None, samples: int = 10000, sampler=None,
                     tol: float = 1e-6, seed: Optional[int] = None,
                     box: float = 5.0) -> VerifyReport:
    """Check the certificate inequality on sampled group elements.

    margin(g) = log||rho(g)v|| - sum_j alpha_j log||rho_j(g)w_j|| - c must
    be >= -tol; additionally, along the certified shrink ray both sides
    must decay at the same linear rate (slope difference <= 1e-3), which is
    what catches inflated coefficients.  samples == 0 yields an empty,
    valid report.
    """
    if rep is None:
        rep = build_rep(cert.spec, cert.n)
    if v is None:
        v = cert.vector
    vec = np.asarray([float(x) for x in v], dtype=float)
    if len(vec) != rep.dim:
        raise CertificateError("vector length does not match representation")
    if seed is None:
        seed = cert.seed
    if samples == 0:
        return VerifyReport(samples=0, failures=0, margin_min=math.inf,
                            margin_mean=math.nan, ray_slope_diff=0.0,
                            ray_checked=False, box=box, tol=tol, seed=seed)
    frame = cert.frame if cert.frame is not None else np.eye(cert.n)
    alphas = np.asarray([float(a) for a in cert.alphas])

    def fundamental_sum(g):
        # sum_j alpha_j log||rho_j(g) w_j|| with w_j = rho_j(frame^T) v_j
        return float(alphas @ log_flag_norms(g @ frame.T, cert.order.perm)[:-1])

    def margin_of(g):
        return log_rep_norm(rep, act(rep, g, vec)) - cert.c - fundamental_sum(g)

    margins = np.empty(samples)
    for i in range(samples):
        rng_i = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                             spawn_key=(i,)))
        if sampler is not None:
            g = sampler(rng_i)
        else:
            g = cartan_box_sample(rng_i, cert.n, box)
        margins[i] = margin_of(g)
    failures = int(np.sum(~(margins >= -tol)))  # NaN margins fail too

    # slope agreement along the shrink ray (group parameterization).  For
    # float-mode certificates components truncated at the classification
    # threshold re-emerge along the ray like e^{(rate - level) t} against
    # an e^{-rate t} signal, so the window is capped by the worst level
    # spread of the representation's weights; exact certificates flow
    # through genuinely diagonal matrices and have no such residue.
    uhat = np.asarray(cert.direction)
    if cert.mode == "exact":
        t2 = 40.0
    else:
        min_level = min(sum(float(c) * d for c, d in zip(w.coords, uhat))
                        for w in rep.weights)
        spread = cert.rate - min_level
        t2 = min(40.0, 11.5 / max(spread, 0.3))
    t1 = 0.5 * t2
    lhs_vals, rhs_vals = [], []
    for t in (t1, t2):
        g = np.diag(np.exp(-t * uhat)) @ frame
        lhs_vals.append(log_rep_norm(rep, act(rep, g, vec)))
        rhs_vals.append(fundamental_sum(g))
    lhs_slope = (lhs_vals[1] - lhs_vals[0]) / (t2 - t1)
    rhs_slope = (rhs_vals[1] - rhs_vals[0]) / (t2 - t1)
    slope_diff = abs(lhs_slope - rhs_slope)

    return VerifyReport(samples=samples, failures=failures,
                        margin_min=float(np.min(margins)),
                        margin_mean=float(np.mean(margins)),
                        ray_slope_diff=float(slope_diff), ray_checked=True,
                        box=box, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# Certificate serialization (canonical JSON)


def _frac_to_json(f: Fraction):
    return {"num": f.numerator, "den": f.denominator}


def _frac_from_json(d) -> Fraction:
    if not isinstance(d, dict) or set(d) != {"num", "den"}:
        raise CertificateError(f"malformed rational {d!r}")
    return Fraction(d["num"], d["den"])


def cert_to_dict(cert: DominanceCert) -> dict:
    vector = [(_frac_to_json(x) if isinstance(x, Fraction) else float(x))
              for x in cert.vector]
    return {
        "schema": cert.schema,
        "form": cert.form,
        "n": cert.n,
        "spec": str(cert.spec),
        "mode": cert.mode,
        "vector": vector,
        "frame": None if cert.frame is None else [[float(x) for x in row]
                                                  for row in cert.frame],
        "order": list(cert.order.perm),
        "u": [(_frac_to_json(x) if isinstance(x, Fraction) else float(x))
              for x in cert.u.coords],
        "direction": [float(x) for x in cert.direction],
        "rate": cert.rate,
        "alphas": [(_frac_to_json(a) if isinstance(a, Fraction) else float(a))
                   for a in cert.alphas],
        "hw": list(cert.hw_degrees),
        "c": cert.c,
        "kempf": None if cert.kempf is None else {
            "tau": list(cert.kempf.tau), "m": cert.kempf.m,
            "norm_sq": cert.kempf.norm_sq, "ratio": cert.kempf.ratio},
        "xi": {"frames": cert.xi.frames, "excluded": cert.xi.excluded,
               "value": cert.xi.value, "margin": cert.xi.margin},
        "verification": None if cert.verification is None else {
            "samples": cert.verification.samples,
            "failures": cert.verification.failures,
            "margin_min": cert.verification.margin_min,
            "margin_mean": cert.verification.margin_mean,
            "ray_slope_diff": cert.verification.ray_slope_diff,
            "ray_checked": cert.verification.ray_checked,
            "box": cert.verification.box,
            "tol": cert.verification.tol,
            "seed": cert.verification.seed},
        "seed": cert.seed,
        "eps": cert.eps,
    }


def cert_from_dict(data: dict) -> DominanceCert:
    try:
        if data["schema"] != CERT_SCHEMA:
            raise CertificateError(f"unsupported schema {data.get('schema')!r}")
        spec = parse_rep_spec(data["spec"])
        vector = tuple(_frac_from_json(x) if isinstance(x, dict) else float(x)
                       for x in data["vector"])
        frame = None if data["frame"] is None else np.asarray(data["frame"], float)
        kempf = None
        if data["kempf"] is not None:
            kd = data["kempf"]
            kempf = KempfData(tau=tuple(int(t) for t in kd["tau"]), m=int(kd["m"]),
                              norm_sq=int(kd["norm_sq"]), ratio=float(kd["ratio"]))
        ver = None
        if data["verification"] is not None:
            vd = data["verification"]
            ver = VerifyReport(samples=int(vd["samples"]), failures=int(vd["failures"]),
                               margin_min=float(vd["margin_min"]),
                               margin_mean=float(vd["margin_mean"]),
                               ray_slope_diff=float(vd["ray_slope_diff"]),
                               ray_checked=bool(vd["ray_checked"]),
                               box=float(vd["box"]), tol=float(vd["tol"]),
                               seed=int(vd["seed"]))
        cert = DominanceCert(
            n=int(data["n"]), spec=spec, vector=vector, mode=str(data["mode"]),
            frame=frame, order=SimpleSystem(tuple(data["order"])),
            u=CartanVector(tuple(_frac_from_json(x) if isinstance(x, dict)
                                 else float(x) for x in data["u"])),
            direction=tuple(float(x) for x in data["direction"]),
            rate=float(data["rate"]),
            alphas=tuple(_frac_from_json(a) if isinstance(a, dict) else float(a)
                         for a in data["alphas"]),
            c=float(data["c"]), kempf=kempf,
            xi=XiInfo(frames=int(data["xi"]["frames"]),
                      excluded=int(data["xi"]["excluded"]),
                      value=float(data["xi"]["value"]),
                      margin=float(data["xi"]["margin"])),
            verification=ver, seed=int(data["seed"]), eps=float(data["eps"]),
            form=str(data["form"]), schema=str(data["schema"]))
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc
    for name, values in (("c", cert.c), ("rate", cert.rate),
                         ("direction", cert.direction),
                         ("alphas", [float(a) for a in cert.alphas]),
                         ("frame", [] if frame is None else frame)):
        if not np.all(np.isfinite(values)):
            raise CertificateError(f"non-finite entry in {name!r}")
    if any(a < 0 for a in cert.alphas):
        raise CertificateError("alphas must be nonnegative")
    n = cert.n
    if (len(cert.alphas) != n - 1 or len(cert.direction) != n
            or (frame is not None and frame.shape != (n, n))):
        raise CertificateError(f"alphas, direction or frame do not fit n = {n}")
    return cert


def dumps_cert(cert: DominanceCert) -> str:
    return json.dumps(cert_to_dict(cert), sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads_cert(text: str) -> DominanceCert:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CertificateError("certificate must be a JSON object")
    return cert_from_dict(data)
