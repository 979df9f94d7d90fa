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
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key
from itertools import groupby
from typing import Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import exactlin
from .cartan import CartanVector, Cocharacter, SimpleSystem, dominant_order
from .errors import (CertificateError, DimensionError, StableVectorError,
                     TorusStableError, ZeroVectorError)
from .reps import (_DET_TOL, _EPS, RepSpec, Representation, _apply, _log_norm, _vector_in,
                   act, active_weights, build_rep, log_rep_norm, moment_map, parse_rep_spec,
                   scaled_floats, weight_components)
from .symspace import block_orthogonal, exp_sym, haar_from_normal, log_flag_norms

CERT_SCHEMA = "instab-cert/1"

# a seed keys verification's Philox4x64 stream and must fit one 64-bit word
SEED_MAX = 2**64 - 1


def _check_seed(seed: int, name: str = "seed", error=ValueError) -> None:
    if not 0 <= seed <= SEED_MAX:
        raise error(f"{name} {seed} is outside [0, 2**64 - 1]")


def _check_sampling(samples: int, box: float, tol: float) -> None:
    """Reject a negative sample count, and a box or tolerance that is
    negative or not finite."""
    if samples < 0:
        raise ValueError(f"samples {samples} is negative")
    for name, value in (("box", box), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} {value} is not a finite number >= 0")


# ---------------------------------------------------------------------------
# Min-norm point in a polytope (Wolfe)


@dataclass(frozen=True)
class MinNormCert:
    """Exact closest point to 0 in the convex hull of rational input points."""

    point: CartanVector


def _affine_min(gram, corral):
    """The min-norm point of the affine hull of ``corral``, as integer weights y / d, d > 0."""
    m = len(corral)
    a = [[gram[i][j] for j in corral] + [1] for i in corral] + [[1] * m + [0]]
    x, d = exactlin.solve(a, [0] * m + [1])
    return x[:m], d


def min_norm_point(points: Sequence[CartanVector]) -> MinNormCert:
    """Wolfe's algorithm for the min-norm point of conv(points), exactly.

    A float coordinate raises ``ValueError``.  ``_wolfe`` runs on the points
    brought to integers over one denominator.
    """
    if not points:
        raise ValueError("need at least one point")
    if len({p.n for p in points}) != 1:
        raise DimensionError("points have mixed dimensions")
    if not all(p.is_exact for p in points):
        raise ValueError("min_norm_point requires rational coordinates")
    # each point's cached integer form, brought to one denominator
    scale = math.lcm(*(p.ints[1] for p in points))
    ints = np.array([[x * (scale // p.ints[1]) for x in p.ints[0]] for p in points], dtype=object)
    num, d = _wolfe(ints, ints.dot(ints.T).tolist(), range(len(points)), scale)
    return MinNormCert(point=CartanVector([Fraction(x, d) for x in num]))


def _wolfe(ints: np.ndarray, gram: list, rows: Sequence[int], scale: int):
    """Wolfe's exact min-norm point U / D of the hull of ints[r] / scale, r in ``rows``,
    from integer points (rows of an object array) and their Gram matrix, as (U, D), D > 0."""
    if not any(ints[list(rows)].sum(axis=0)):
        # the centroid 0 is the min-norm point, as for the distinct weights
        # of a representation, whose set is invariant under the Weyl group
        return (0,) * ints.shape[1], 1
    # x = sum_i w_i p_{c_i} / q for integers w_i, formed once at the end
    corral, w, q = [min(rows, key=lambda i: gram[i][i])], [1], 1
    for _ in range(16 * len(rows) + 64):
        # xp[j] = q <x, p_j> and sum_i w_i xp[c_i] = q^2 |x|^2, times scale^2
        xp = {j: sum(a * gram[c][j] for c, a in zip(corral, w)) for j in rows}
        j = min(rows, key=xp.__getitem__)
        if xp[j] * q >= sum(a * xp[c] for c, a in zip(corral, w)):
            break
        # the corral stays affinely independent: <x, p_j> < |x|^2 = <x, p> for every p in it
        corral.append(j)
        w.append(0)
        # minor cycle: step from w / q toward the affine minimizer y / d while every weight
        # stays >= 0; the least theta = w_k d / (w_k d - y_k q), at the first argmin of y_k / w_k
        # (w_k > 0 >= y_k), gives the weights (w_k y - y_k w) / (w_k d - y_k q); zeros drop
        while True:
            y, d = _affine_min(gram, corral)
            if all(c > 0 for c in y):
                w, q = y, d
                break
            k = min((i for i, c in enumerate(y) if c <= 0),
                    key=cmp_to_key(lambda a, b: y[a] * w[b] - y[b] * w[a]))
            w, q = [w[k] * c - y[k] * a for a, c in zip(w, y)], w[k] * d - y[k] * q
            corral = [c for c, a in zip(corral, w) if a > 0]
            w = [a for a in w if a > 0]

    return tuple(np.array(w, dtype=object) @ ints[corral]), q * scale


def _rows_min_norm(rep: Representation, rows: Sequence[int]):
    """``_wolfe``'s integers for the weights on ``rows`` of ``rep.weight_groups``,
    from the cached integer weights; a single weight gives its own ``ints``."""
    if len(rows) == 1:
        return rep.weight_groups[rows[0]][0].ints
    return _wolfe(rep.weight_ints, rep.weight_gram, rows, rep.n)


# ---------------------------------------------------------------------------
# Shrink data on a single maximal flat


@dataclass(frozen=True)
class FlatShrinkData:
    """Exact decay data of the restriction of log||rho(.)v|| to one flat.

    The flat is pi(exp(diag(.)) k) for the orthogonal ``frame`` k.  On it
    the log norm is, up to a bounded error, the max over the active
    weights of <weight, b>.  ``active`` holds their ``weight_groups`` rows,
    the support of rho(k)v (``active_weights``: exact for a rational vector
    at the identity frame), and ``u`` is their exact min-norm point (a lone weight's own).
    """

    frame: np.ndarray
    active: Tuple[int, ...]
    u: CartanVector

    @cached_property
    def rate(self) -> float:
        """The best decay slope ||u||."""
        return self.u.norm()

    @cached_property
    def bounded_below(self) -> bool:
        """u = 0: 0 lies in the hull, and the log norm is bounded below on the flat."""
        return self.u.is_zero()

    @property
    def direction(self) -> Optional[np.ndarray]:
        """Unit shrinking direction of the flat, as a symmetric matrix."""
        if self.bounded_below:
            return None
        return -(self.frame.T @ np.diag(self.u.unit().as_floats()) @ self.frame)


def _frame_in(frame, n: int) -> np.ndarray:
    """``frame`` as floats, checked where it enters: n x n, else DimensionError, and
    orthogonal within ``_DET_TOL`` with det > 0, so det 1, else ValueError."""
    k = np.asarray(frame, dtype=float)
    if k.shape != (n, n):
        raise DimensionError(f"frame must be {n}x{n}, got {k.shape}")
    if not np.all(np.abs(k @ k.T - np.eye(n)) <= _DET_TOL) or np.linalg.det(k) <= 0:
        raise ValueError("frame is not orthogonal with determinant 1")
    return k


def flat_shrink_data(rep: Representation, v, frame: Optional[np.ndarray] = None) -> FlatShrinkData:
    """The flat of ``v`` through ``frame`` (the identity when None), checked by
    ``_frame_in``; a rational ``v`` is rounded there by ``scaled_floats``."""
    k = np.eye(rep.n) if frame is None else _frame_in(frame, rep.n)
    if frame is not None:
        vec, exact = _vector_in(rep, v)
        v = _apply(rep, k, scaled_floats(rep, vec)[0] if exact else vec)
    active = tuple(active_weights(rep, v))
    num, d = _rows_min_norm(rep, active)
    return FlatShrinkData(frame=k, active=active, u=CartanVector([Fraction(x, d) for x in num])
                          if len(active) > 1 else rep.weight_groups[active[0]][0])


# ---------------------------------------------------------------------------
# Fastest shrinking geodesic (moment-map descent)


@dataclass(frozen=True)
class ShrinkGeodesicResult:
    """The fastest flat the search found.

    ``flat`` is a flat that is not bounded below.  ``upper`` bounds every
    rate from above: ``rate`` itself when the identity flat's balanced face
    proves it optimal, else the least ||mu(rho(g)v)|| the descent saw at a
    well-conditioned g.  ``identity``: ``flat`` is the identity flat of v
    itself (exact for rational v), not one the descent took on a float
    copy.  ``frames_tried`` counts the identity and the descent's
    snapped frames.  The search's own work is handed on: ``floats`` is
    ``scaled_floats(v)``, and ``levels`` is ``rep.levels`` of the identity
    flat's u where that flat is not bounded below (else None).
    """

    upper: float
    flat: FlatShrinkData
    identity: bool
    frames_tried: int
    floats: Tuple[np.ndarray, int]
    levels: Optional[np.ndarray]

    @property
    def rate(self) -> float:
        """The exact in-flat rate ||u|| of ``flat``."""
        return self.flat.rate

    @property
    def direction(self) -> np.ndarray:
        """The unit shrinking direction of ``flat``."""
        return self.flat.direction


# Every positive rate is at least gamma(rho) > 0, the least nonzero norm of
# the min-norm point of at most n distinct weights (Caratheodory; Kempf
# 1978), and the rate never exceeds ||mu(rho(g)v)||.  So ||mu|| below gamma
# proves that v is not unstable.  The descent stops below gamma/2, computed
# exactly by Representation.weight_margin_sq, so that float error in mu
# cannot matter.  Where that enumeration is capped (reps._MARGIN_SETS), it
# stops below the fallback _STABLE_MU instead, which is not proven below
# gamma there.
_STABLE_MU = 1e-3
_GAP = 1e-6
# rho(g)v carries a relative error of about 1e-16 times this bound on
# ||rho(g)|| ||v|| / ||rho(g)v||, and so does mu
_MAX_LOG_COND = math.log(1e8)
_MAX_STEPS = 200


def _stable_bound(rep: Representation) -> Tuple[float, str]:
    """The ||mu|| below which the descent calls v stable, and its name."""
    margin_sq = rep.weight_margin_sq
    if margin_sq is None:
        return _STABLE_MU, f"the fallback {_STABLE_MU:g}"
    half = math.sqrt(margin_sq) / 2
    return half, f"gamma/2 = {half:.3g}"


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


def fastest_shrinking_geodesic(rep: Representation, v) -> ShrinkGeodesicResult:
    """The identity flat when its balanced face proves it optimal, else
    the fastest flat of a moment-map descent of log||rho(g)v|| from g = I.

    Each step moves g to exp(-eta mu) g, with Armijo backtracking on the
    log norm (eta starts at 1 and only ever halves: longer steps zigzag
    across the optimum), and keeps g upper triangular by QR (the norm is
    SO(n)-invariant).  At every step the flag of -mu is snapped to a frame
    and its exact flat data taken at the one threshold ``_EPS``.  The
    search stops once the fastest flat's ||u|| is within 1e-6 of the least
    well-conditioned ||mu||, or once g is too ill-conditioned for ||mu|| to
    bound anything, and returns that flat.  Raises StableVectorError when
    that ||mu|| falls below every positive rate (below gamma(rho)/2, see
    ``_stable_bound``), or when the step cap passes without a flat that is
    not bounded below.
    """
    flat = flat_shrink_data(rep, v)
    vec, e = scaled_floats(rep, v)
    levels = None
    # Along the identity flat's own ray, rho(exp(-s u))v / ||.|| tends to
    # v_F, the part of v whose weights are active and pair with u to
    # ||u||^2.  The rate is at most ||mu(rho(g)v)|| for every g, and mu is
    # scale-invariant and continuous, so ||mu(v_F)|| bounds every rate from
    # above, while the flat's own ||u|| bounds it from below: a balanced
    # face, ||mu(v_F)|| = ||u||, proves the flat optimal (Ness 1984).
    if not flat.bounded_below:
        levels, on_face = rep.levels(flat.u), np.zeros(rep.dim, dtype=bool)
        for j in flat.active:
            on_face[rep.weight_groups[j][1]] = levels[j] == 0
        v_face = np.where(on_face, vec, 0.0)
        # up to a power of two, which moment_map scales away, v_F's entries in
        # the float copy of v are v_F's own float copy, unless weights above
        # the face are so much larger that v_F leaves the normal range
        if np.abs(v_face).max() < 2.0 ** 53 * sys.float_info.min:
            v_face = [x if f else 0 for x, f in zip(v, on_face.tolist())]
        if np.linalg.norm(moment_map(rep, v_face)) <= flat.rate + _GAP:
            return ShrinkGeodesicResult(upper=flat.rate, flat=flat, identity=True,
                                        frames_tried=1, floats=(vec, e), levels=levels)
    stable_mu, rule = _stable_bound(rep)
    n = rep.n
    log_v = log_rep_norm(rep, vec)
    g, f = np.eye(n), log_v
    flats, upper, eta = [flat], math.inf, 1.0
    for _ in range(_MAX_STEPS):
        mu = moment_map(rep, _apply(rep, g, vec))
        mu_norm = float(np.linalg.norm(mu))
        log_cond = float(np.max(rep.weights_f @ np.log(np.linalg.svd(g, compute_uv=False))))
        accurate = log_cond + log_v - f <= _MAX_LOG_COND
        if accurate:
            upper = min(upper, mu_norm)
        if upper < stable_mu:
            raise StableVectorError(
                f"||mu|| = {upper:.3e} is below every positive rate (below {rule})")
        k = _flag_frame(g, mu)
        flats.append(flat_shrink_data(rep, vec, k))
        # _EPS can drop a component of the float rho(k)v that is not 0, and a
        # flat so misread can claim a ||u|| above upper, which no rate reaches
        found = [fd for fd in flats if not fd.bounded_below and fd.rate <= upper + _GAP]
        # done when the fastest flat meets upper, or upper can improve no more
        if found and (upper - max(fd.rate for fd in found) <= _GAP or not accurate):
            break
        while True:
            h = exp_sym(-eta * mu) @ g
            fh = log_rep_norm(rep, _apply(rep, h, vec))
            if fh <= f - 0.5 * eta * mu_norm ** 2 or eta < 1e-12:
                break
            eta *= 0.5
        r = np.linalg.qr(h, mode="r")
        r *= np.sign(np.diag(r))[:, None]
        g, f = r / np.prod(np.diag(r)) ** (1.0 / n), fh
    if not found:
        raise StableVectorError(f"no shrinking flat in {_MAX_STEPS} moment-map steps")
    best = max(found, key=lambda fd: fd.rate)
    return ShrinkGeodesicResult(upper=upper, flat=best, identity=best is flat,
                                frames_tried=len(flats), floats=(vec, e), levels=levels)


# ---------------------------------------------------------------------------
# Optimal torus cocharacter


@dataclass(frozen=True)
class KempfData:
    """Optimal destabilizing cocharacter of a flat.

    ``tau`` is the primitive integer cocharacter proportional to the
    min-norm point u of the active weights; its minimal pairing m over the
    active weights is positive, and ratio = m/||tau|| = ||u|| is the decay
    rate on the flat.
    """

    tau: Cocharacter
    m: int
    norm_sq: int
    ratio: float


def _kempf(u: CartanVector) -> KempfData:
    """tau = U / gcd(U) primitive integral along the min-norm point u = U / D
    != 0 of some weights, and m = <u, tau> = gcd(U) ||tau||^2 / D > 0: their
    least pairing with tau, as each pairs with u to at least ||u||^2, with
    equality on the face of u, so ``pair_int`` raises where m is no integer."""
    num = u.ints[0]
    g = math.gcd(*num)
    tau = Cocharacter([x // g for x in num])
    m = u.pair_int(tau)
    return KempfData(tau=tau, m=m, norm_sq=tau.norm_sq(), ratio=m / tau.norm())


def torus_kempf(rep: Representation, v) -> KempfData:
    """The Kempf cocharacter of the identity flat of ``v``."""
    fd = flat_shrink_data(rep, v)
    if fd.bounded_below:
        raise TorusStableError(
            "0 lies in the hull of the active weights at the identity frame")
    return _kempf(fd.u)


# ---------------------------------------------------------------------------
# Instability search


TORUS_CERTIFIED = "torus_certified_unstable"
NUMERIC_UNSTABLE = "numerically_unstable"
LIKELY_STABLE = "likely_stable"


@dataclass(frozen=True)
class Verdict:
    kind: str
    flat: Optional[FlatShrinkData]
    frames_tried: int

    @property
    def rate(self) -> float:
        return 0.0 if self.flat is None else self.flat.rate


def is_unstable(rep: Representation, v, budget: int = 64, seed: int = 0,
                eps: float = _EPS, adapted: bool = True) -> Verdict:
    """Classify ``v`` by the flat of ``fastest_shrinking_geodesic``.

    Torus-certified (exactly, over the rationals) when the winning flat is
    the identity flat of v itself, numerically unstable for any other flat,
    and likely stable (``frames_tried`` 0) on StableVectorError.  ``budget``,
    ``seed`` and ``adapted`` have no effect; ``eps`` must be the fixed ``_EPS``.
    """
    if eps != _EPS:
        raise ValueError(f"eps = {eps!r}: the weight threshold is fixed at {_EPS!r}")
    try:
        fsg = fastest_shrinking_geodesic(rep, v)
    except StableVectorError:
        return Verdict(kind=LIKELY_STABLE, flat=None, frames_tried=0)
    kind = TORUS_CERTIFIED if fsg.identity else NUMERIC_UNSTABLE
    return Verdict(kind=kind, flat=fsg.flat, frames_tried=fsg.frames_tried)


# ---------------------------------------------------------------------------
# Dominance certificates


# a certificate entry that is a rational where it can be, else a float
Num = Union[Fraction, float]


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
    """Settings of certificate construction.  The weight threshold and the
    constant estimator's frame count and safety margin are fixed; the
    certificate records them in ``eps`` and ``xi``.  A seed outside
    [0, ``SEED_MAX``], a negative sample count, and a box or tolerance
    that is negative or not finite raise ValueError."""

    seed: int = 0
    samples: int = 1000
    box: float = 5.0
    tol: float = 1e-6

    def __post_init__(self):
        _check_seed(self.seed)
        _check_sampling(self.samples, self.box, self.tol)


@dataclass(frozen=True)
class DominanceCert:
    """A verifiable lower bound log||rho(g)v|| >= sum alpha_j log||rho_j(g)w_j|| + c.

    ``u`` is the exact min-norm point of the certifying flat, and ``frame``
    the orthogonal change of basis (None for the identity): w_j =
    rho_j(frame^T) v_j for the highest weight vectors v_j of ``order``.
    With h = g frame^T the bound is frame-free, log||rho(h)w|| >=
    sum alpha_j log||rho_j(h)v_j|| + c for w = rho(frame)v, and that is
    the form ``verify_dominance`` checks.  What u fixes, and the mode that
    the vector and frame fix, are properties, and what the schema fixes is
    a class constant, so a certificate cannot contradict itself.
    """

    n: int
    spec: RepSpec
    vector: Tuple[Num, ...]
    frame: Optional[np.ndarray]
    u: CartanVector
    c: float
    xi: XiInfo
    verification: Optional[VerifyReport]
    seed: int
    eps = _EPS
    form = "trace"
    schema = CERT_SCHEMA

    @cached_property
    def order(self) -> SimpleSystem:
        """The simple system (0-based coordinate permutation) in which u is dominant."""
        return dominant_order(self.u)

    @cached_property
    def alphas(self) -> Tuple[Fraction, ...]:
        """The steps of u = U / D along ``order``, exact and nonnegative;
        index j is the fundamental degree j+1."""
        (num, d), perm = self.u.ints, self.order.perm
        return tuple(Fraction(num[perm[j]] - num[perm[j + 1]], d) for j in range(self.u.n - 1))

    @cached_property
    def rate(self) -> float:
        return self.u.norm()

    @cached_property
    def direction(self) -> Tuple[float, ...]:
        return self.u.unit().as_floats()

    @cached_property
    def kempf(self) -> KempfData:
        """The integer cocharacter of the certifying flat, in frame coordinates."""
        return _kempf(self.u)

    @property
    def hw(self) -> Tuple[int, ...]:
        """The degrees of the positive alphas."""
        return tuple(j + 1 for j, a in enumerate(self.alphas) if a.numerator > 0)

    @cached_property
    def mode(self) -> str:
        """``exact`` for a rational vector certified at the identity frame."""
        return "exact" if self.frame is None and exactlin.is_exact(self.vector) else "float"


def _xi_prefix(rep: Representation, active: Sequence[Tuple[int, float]], u: CartanVector,
               hulls: dict) -> Optional[float]:
    """max over active subsets whose hull contains u of the min log norm, else None.

    ``active`` holds (row of ``rep.weight_groups``, log norm) pairs of
    weights on u's face.  Enlarging a subset can only help hull membership,
    so the optimum is a prefix of the weights sorted by decreasing log norm;
    the answer is the log norm of the last weight added when u first enters
    the hull, that is, becomes its min-norm point U / D (step 2 below).  ``hulls``
    memoises these exact integer tests by the prefix's set of rows.
    """
    ordered = sorted(active, key=lambda jr: -jr[1])
    key, (du, dd) = 0, u.ints
    for t, (j, r) in enumerate(ordered, 1):
        key |= 1 << j
        if key not in hulls:
            num, d = _rows_min_norm(rep, [i for i, _ in ordered[:t]])
            hulls[key] = all(x * dd == y * d for x, y in zip(num, du))
        if hulls[key]:
            return r
    return None


def _coordinate_blocks(u: CartanVector):
    """Indices grouped by equal coordinates of the exact ``u``, in dominant order."""
    return [tuple(b) for _, b in groupby(dominant_order(u).perm, key=u.ints[0].__getitem__)]


# Verification and the constant estimator act on chunks of group elements,
# each as one stack.  Small stacks cost mostly numpy's per-call overhead, so
# a chunk holds as many elements as keep its widest array at _STACK_FLOATS
# floats (1 MB): the stacked tensor (S, n^k) of the action, or the (S, W)
# uniforms of the samples.  The 144-dimensional wedge(2,std)*wedge(2,std)*std
# (n^k = 4^5) gets _MIN_CHUNK = 128, the least chunk of any representation.
_STACK_FLOATS = 2 ** 17
_MIN_CHUNK = 128


def _chunk(rep: Representation) -> int:
    """Group elements per stacked action on ``rep``."""
    width = max(rep.n ** len(rep.dual), _sample_words(rep.n))
    return max(_MIN_CHUNK, _STACK_FLOATS // width)


# random block frames of the constant estimator, and what it subtracts
_XI_FRAMES = 1000
_SAFETY_MARGIN = 0.1


# Why no Haar-random frame is tried.  For v != 0 let A be the weights whose
# component does not vanish on all of rho(SO(n))v: the active set at almost
# every frame, and a superset of it at every frame.  The signed permutations
# in SO(n) realise the Weyl group W, so A is W-invariant; if some u had
# <lambda, u> > 0 on all of A, summing <lambda, w.u> over W would give 0 > 0.
# So 0 lies in the hull of a Haar frame's active weights almost surely: such
# a frame never certifies, and its min-norm point 0 never matches a u != 0.

# u's face F = {lambda : <lambda, u> = |u|^2} decides the constant estimator
# (Kempf 1978, Instability in invariant theory); Representation.levels
# places each weight below, on or above F.  Let A be a frame's active weights.
# 1. u is the min-norm point of A exactly when no weight of A lies below F
#    and u is in the hull of A on F (Wolfe's optimality condition; then
#    each x in the hull of A has |x| |u| >= <x, u> >= |u|^2).  The
#    estimator keeps those frames.
# 2. A convex combination of such an A that equals u pairs with u to
#    |u|^2, so it puts no mass above F: u enters a prefix hull exactly when
#    it enters the hull of the prefix's weights on F, the only weights the
#    prefix statistic runs over.  Each x in the hull of weights on F has
#    <x, u> = |u|^2, so |x| >= |u| with equality only at x = u: u is in
#    that hull exactly when it is the hull's min-norm point.
# u is in the hull of the weights on F, so a lone one is the weight u.
# Steps 3-5 hold only in that case, where no frame is drawn.  With more
# weights on F, a rotation mixes their components, which is why block
# frames are drawn.  For a rotation k commuting with a lone u:
# 3. By 2, a kept frame's statistic is log||(rho(k)w)_u||.
# 4. rho(k) commutes with the projection onto the level-|u|^2 space, which
#    is the weight space of u, and preserves the norm, so the statistic is
#    log||w_u|| for every such k.
# 5. The identity frame is always kept (it is the flat, with the flat's own
#    active weights, exact for a rational vector), so it alone gives the
#    minimum; other frames only repeat it up to rounding.


def _exact_log_norm(rep: Representation, v, j: int) -> float:
    """log||v_j|| of v's exact component on row j, from its square's integers."""
    s = sum(rep.gram[i] * Fraction(v[i]) ** 2 for i in rep.weight_groups[j][1].tolist())
    return (math.log(s.numerator) - math.log(s.denominator)) / 2


def _estimate_constant(rep: Representation, v, fsg: ShrinkGeodesicResult,
                       seed: int) -> Tuple[float, XiInfo]:
    """Lower-bound constant via frames of flats through the shrink geodesic.

    The search's float copy (vec, e) of v acts once: w * 2^e = rho(frame)v
    for the certifying flat, up to rounding, so a rational v beyond the
    float range gets its constant too.  The identity frame is the flat
    itself: its statistic reads w's weight components over ``flat.active``
    on u's face (one whose float sum is 0 reads the exact v).  When u has
    a repeated coordinate and more than one weight lies on u's face, the
    estimator also draws ``_XI_FRAMES`` random rotations within the blocks
    of equal coordinates (the frames commuting with the shrink direction;
    see the comments above), not checked again; each chunk of
    ``_chunk(rep)`` of them acts on w in one call and is split into weight
    components at ``_EPS``, the threshold of every flat of the search.
    Keeps the frames whose active weights have min-norm point u: none lies
    below u's face, and u is in the hull of those on it.  Takes the minimum
    over them of the prefix-hull statistic of their active face weights,
    whose log norms alone are computed, by the scalar ``_log_norm``, so xi
    keeps its bits.  ``_SAFETY_MARGIN`` is subtracted at the end.
    """
    flat, u, (vec, e) = fsg.flat, fsg.flat.u, fsg.floats
    levels = fsg.levels if fsg.identity else rep.levels(u)
    w = act(rep, flat.frame, vec)
    hulls: dict = {}
    # the identity frame, a stack of one read without checking w again
    _, sums, exps = weight_components(rep, w[None], e)
    row, k = sums[0].tolist(), int(exps[0])
    face = [(j, _log_norm(row[j], k) if row[j] else _exact_log_norm(rep, v, j))
            for j in flat.active if levels[j] == 0]
    xis = [_xi_prefix(rep, face, u, hulls)]  # each frame's statistic, None where not kept
    blocks = _coordinate_blocks(u)
    if len(blocks) < rep.n and np.count_nonzero(levels == 0) > 1:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7C)))
        frames = block_orthogonal(blocks, rep.n, rng, _XI_FRAMES)
        size = _chunk(rep)
        for start in range(0, len(frames), size):
            active, sums, exps = weight_components(
                rep, _apply(rep, frames[start:start + size], w), e)
            below, on_face = (active & (levels < 0)).any(axis=1), active & (levels == 0)
            xis += [None if low else _xi_prefix(
                rep, [(j, _log_norm(row[j], k)) for j in np.flatnonzero(on).tolist()], u, hulls)
                for low, on, row, k in zip(below, on_face, sums.tolist(), exps.tolist())]
    kept = [xi for xi in xis if xi is not None]
    xi_min = min(kept, default=math.inf)
    info = XiInfo(frames=len(xis), excluded=len(xis) - len(kept), value=float(xi_min),
                  margin=_SAFETY_MARGIN)
    return float(xi_min) - _SAFETY_MARGIN, info


def dominance_certificate(rep: Representation, v,
                          opts: CertifyOptions = CertifyOptions()) -> DominanceCert:
    """Compute a dominance certificate for an unstable vector.

    Anchors at the flat of ``fastest_shrinking_geodesic``, which carries
    exact rational data.  Raises StableVectorError when the search finds
    no shrinking flat.
    """
    fsg = fastest_shrinking_geodesic(rep, v)
    c, xi_info = _estimate_constant(rep, v, fsg, opts.seed)
    vec, exact = _vector_in(rep, v)
    cert = DominanceCert(
        n=rep.n, spec=rep.spec, vector=tuple(vec if exact else vec.tolist()),
        frame=None if fsg.identity else fsg.flat.frame,
        u=fsg.flat.u, c=c, xi=xi_info, verification=None, seed=opts.seed)
    if opts.samples > 0:
        report = verify_dominance(cert, rep, v, opts.samples,
                                  tol=opts.tol, seed=opts.seed, box=opts.box)
        cert = replace(cert, verification=report)
    return cert


def _sample_words(n: int) -> int:
    """W, the uniforms one verification sample takes: n for the Cartan part
    and 2 ceil(n^2 / 2) for the normals of k, rounded up to whole
    Philox4x64 counter steps of 4 words, so that sample i starts at
    counter i W / 4."""
    pairs = -(-n * n // 2)
    return -(-(n + 2 * pairs) // 4) * 4


def _box_cartan(x: np.ndarray, n: int, box: float) -> np.ndarray:
    """The traceless a = box (2x - 1) of the first n words of each row."""
    a = box * (2.0 * x[:, :n] - 1.0)
    return a - a.mean(axis=1, keepdims=True)


def _box_samples(x: np.ndarray, n: int, box: float) -> np.ndarray:
    """The stack of g = exp(diag(a)) k made from an (S, W) block of
    uniforms in [0, 1), one row per sample: a is ``_box_cartan`` of the
    first n words.  The next 2 ceil(n^2 / 2) words give pairs (x1, x2) and
    the normals r cos(2 pi x2), r sin(2 pi x2) with r = sqrt(-2 log u1),
    u1 = 1 - x1 in (0, 1] (Box-Muller); ``haar_from_normal`` makes k from
    the first n^2 of them.  Both sides of the certificate inequality are
    invariant under g -> k' g for k' in SO(n), so a left Haar factor would
    change no margin, and none is drawn."""
    pairs = -(-n * n // 2)
    r = np.sqrt(-2.0 * np.log(1.0 - x[:, n:n + pairs]))
    theta = 2.0 * np.pi * x[:, n + pairs:n + 2 * pairs]
    sines = n * n - pairs  # the last pair's sine is dropped when n is odd
    z = np.concatenate([r * np.cos(theta), r[:, :sines] * np.sin(theta[:, :sines])], axis=1)
    k = haar_from_normal(z.reshape(-1, n, n))
    return np.exp(_box_cartan(x, n, box))[:, :, None] * k


def cartan_box_sample(rng: np.random.Generator, n: int, box: float) -> np.ndarray:
    """g = exp(diag(a)) k, k Haar, a uniform in the traceless box: the
    verification map ``_box_samples`` of W uniforms drawn from ``rng``.
    Its point pi(g) = g^T g has the law of pi(k' g) for an independent
    Haar k', since k' cancels there."""
    return _box_samples(rng.random((1, _sample_words(n))), n, box)[0]


def verify_dominance(cert: DominanceCert, rep: Optional[Representation] = None,
                     v=None, samples: int = 10000, sampler=None,
                     tol: float = 1e-6, seed: Optional[int] = None,
                     box: float = 5.0) -> VerifyReport:
    """Check the certificate inequality on sampled group elements.

    For the orthogonal frame, h = g frame^T makes the inequality
    frame-free for the one vector w = rho(frame)v: margin(h) =
    log||rho(h)w|| - sum_j alpha_j log||rho_j(h)v_j|| - c, v_j the highest
    weight vectors of ``order``, must be >= -tol.  Along the certified ray
    h_t = exp(-t diag(uhat)) the right side is exactly -t rate, and the
    left side, read in the weight basis, must decay at that rate too
    (slope difference <= 1e-3), which is what catches inflated
    coefficients.  Sample i is h = ``_box_samples`` of the W =
    ``_sample_words(n)`` uniforms of the Philox4x64 stream keyed by
    ``seed`` from counter i W / 4 on, so each can be replayed alone.  A
    chunk of ``_chunk(rep)`` samples (thousands on a small representation)
    is one draw from one generator, evaluated as one stack.  These samples
    are unimodular by construction, so they are only tested to be finite,
    which a ``box`` too large fails; on a representation with dual modes
    each acts with its exact inverse k^T exp(-diag(a)), which must be
    finite too.  ``sampler(i)``, when given, returns sample i instead: an
    h of determinant 1 in the same coordinates, so a replayed sample goes
    back in unchanged and the margin at a g is the margin at h = g frame^T.
    The frame must be orthogonal with determinant 1, else CertificateError,
    and acts once.  samples == 0 yields an empty, valid report.  A seed
    outside [0, ``SEED_MAX``], a negative sample count, and a box or
    tolerance that is negative or not finite raise ValueError, and so does
    a box whose samples overflow.
    """
    _check_sampling(samples, box, tol)
    if rep is None:
        rep = build_rep(cert.spec, cert.n)
    if v is None:
        v = cert.vector
    v = list(v)
    if len(v) != rep.dim:
        raise CertificateError("vector length does not match representation")
    if seed is None:
        seed = cert.seed
    _check_seed(seed)
    if samples == 0:
        return VerifyReport(samples=0, failures=0, margin_min=math.inf,
                            margin_mean=math.nan, ray_slope_diff=0.0,
                            ray_checked=False, box=box, tol=tol, seed=seed)
    w, e = scaled_floats(rep, v)  # v = w * 2^e, also beyond the float range
    if cert.frame is not None:
        try:
            w = _apply(rep, _frame_in(cert.frame, rep.n), w)
        except ValueError as exc:
            raise CertificateError(str(exc)) from exc
    alphas = np.asarray([float(a) for a in cert.alphas])

    # slope agreement along the shrink ray: rho(h_t) scales the component
    # of w of weight lambda by e^{-t <lambda, uhat>} and the right side is
    # -t rate, so the margin there is f(t) - c, with f(t) the log norm of w
    # with each component scaled by e^{-t L}, L = <lambda, uhat> - rate.
    # Every weight of the certified flat has L >= 0, so a nonzero component
    # with L < 0 was truncated at the threshold cert.eps; it re-emerges
    # along the ray like e^{-L t} against the e^{-rate t} signal, so the
    # window is capped by the worst such spread.  On an exact certificate
    # nothing was truncated, and the spread is 0 up to rounding.  A zero
    # component gets L = 0, since its e^{-t L} could overflow to inf * 0.
    levels = np.where(w != 0, rep.weights_f @ np.asarray(cert.direction) - cert.rate, 0.0)
    spread = -levels.min()
    t2 = 11.5 / max(spread, 0.3) if spread > 1e-9 else 40.0
    t1 = 0.5 * t2
    f = log_rep_norm(rep, w * np.exp(-np.outer((t1, t2), levels)), e)
    slope_diff = abs(f[1] - f[0]) / (t2 - t1)

    width = _sample_words(cert.n)
    size = _chunk(rep)
    margins = np.empty(samples)
    for start in range(0, samples, size):
        stop = min(start + size, samples)
        if sampler is None:
            rng = np.random.Generator(np.random.Philox(key=seed, counter=start * width // 4))
            x = rng.random((stop - start, width))
            h_inv = None
            with np.errstate(over="ignore", invalid="ignore"):  # a box too large
                hs = _box_samples(x, cert.n, box)
                if any(rep.dual):  # h^-1 = k^T exp(-diag a), with k = exp(-diag a) h
                    d = np.exp(-_box_cartan(x, cert.n, box))[:, None, :]
                    h_inv = hs.swapaxes(1, 2) * d * d
            if not all(np.isfinite(m).all() for m in (hs, h_inv) if m is not None):
                raise ValueError(f"box {box} draws group elements that are not finite")
            wh = _apply(rep, hs, w, h_inv)
        else:
            hs = np.stack([np.asarray(sampler(i), dtype=float) for i in range(start, stop)])
            wh = act(rep, hs, w)
        margins[start:stop] = (log_rep_norm(rep, wh, e) - cert.c
                               - log_flag_norms(hs, cert.order.perm)[:, :-1] @ alphas)
    failures = int(np.sum(~(margins >= -tol)))  # NaN margins fail too

    return VerifyReport(samples=samples, failures=failures,
                        margin_min=float(np.min(margins)),
                        margin_mean=float(np.mean(margins)),
                        ray_slope_diff=float(slope_diff), ray_checked=True,
                        box=box, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# Certificate serialization (canonical JSON); the dataclasses are the schema


def _frac_from_json(d) -> Fraction:
    """The rational of a ``{"num": int, "den": nonzero int}`` object."""
    if type(d) is dict and len(d) == 2:
        num, den = d.get("num"), d.get("den")
        if type(num) is int and type(den) is int and den:
            return Fraction(num) if den == 1 else Fraction(num, den)
    raise CertificateError(f"malformed rational {d!r}")


# types written as another JSON type: (that type, its reader, its writer)
_JSON_FORMS = {
    SimpleSystem: (Tuple[int, ...], SimpleSystem, lambda order: order.perm),
    Cocharacter: (Tuple[int, ...], Cocharacter, lambda tau: tau.exps),
    CartanVector: (Tuple[Num, ...], CartanVector, lambda u: u.coords),
    np.ndarray: (Tuple[Tuple[float, ...], ...], lambda rows: np.asarray(rows, dtype=float),
                 np.ndarray.tolist),
    RepSpec: (str, parse_rep_spec, str),
}

# the values a certificate writes beside its fields, with their types: the
# schema fixes eps, form and schema, u each property after them (mode: the
# vector and frame), and the loader checks them in this order
_DERIVED = {"eps": float, "form": str, "schema": str, "rate": float,
            "direction": Tuple[float, ...], "kempf": KempfData, "mode": str,
            "order": SimpleSystem, "alphas": Tuple[Num, ...], "hw": Tuple[int, ...]}


@cache
def _writer(kind):
    """The function that writes a value of exact type ``kind`` as JSON, for
    ``_to_json``: found once per type, a subclass such as bool by its base."""
    if issubclass(kind, (int, float, str, type(None))):
        return lambda x: x
    if issubclass(kind, Fraction):
        return lambda x: {"num": x.numerator, "den": x.denominator}
    if issubclass(kind, (tuple, list)):
        return lambda x: [_to_json(y) for y in x]
    for form, (_, _, write) in _JSON_FORMS.items():
        if issubclass(kind, form):
            return lambda x: _to_json(write(x))
    names = [f.name for f in fields(kind)]
    return lambda x: {name: _to_json(getattr(x, name)) for name in names}


def _to_json(x):
    """The JSON value of ``x``; ``_reader`` of its type reads it back."""
    return _writer(type(x))(x)


def cert_to_dict(cert: DominanceCert) -> dict:
    """The certificate's fields and the values ``_DERIVED`` names, as JSON values."""
    return {name: _to_json(getattr(cert, name))
            for name in [*(f.name for f in fields(cert)), *_DERIVED]}


# the Python types that json reads for each JSON type a field takes: a bool
# is no int, and an int is a float
_JSON_TYPES = {int: (int,), float: (float, int), bool: (bool,), str: (str,),
               list: (list,), dict: (dict,)}


def _checked(kind, x, where: str):
    """``x``, as a float for a ``float`` field, if its type fits ``kind``."""
    if type(x) not in _JSON_TYPES[kind]:
        raise CertificateError(f"{where}: expected {kind.__name__}, got {x!r}")
    return float(x) if kind is float else x


@cache
def _reader(kind):
    """The function ``read(x, where)`` that reads a field declared ``kind``
    from its JSON value ``x``, checking each JSON type on the way down, and
    names the field ``where`` when it raises ``CertificateError``.  A
    ``{num, den}`` object is read only where the type allows a Fraction."""
    if kind in _JSON_FORMS:
        form, make, _ = _JSON_FORMS[kind]
        read = _reader(form)
        return lambda x, where: make(read(x, where))
    if kind == Num:
        read = _reader(float)
        return lambda x, where: _frac_from_json(x) if type(x) is dict else read(x, where)
    origin, args = get_origin(kind), get_args(kind)
    if origin is tuple:
        read = _reader(args[0])
        return lambda x, where: tuple(read(y, where) for y in _checked(list, x, where))
    if origin is Union:  # Optional
        read = _reader(args[0])
        return lambda x, where: None if x is None else read(x, where)
    if is_dataclass(kind):
        readers = [(f.name, _reader(get_type_hints(kind)[f.name])) for f in fields(kind)]
        return lambda x, where: kind(**{name: read(_checked(dict, x, where)[name], name)
                                        for name, read in readers})
    return lambda x, where: _checked(kind, x, where)


def cert_from_dict(data: dict) -> DominanceCert:
    """Read a certificate: each field and each value ``_DERIVED`` names
    through the type it declares; then check that c and the frame are
    finite, u and the frame fit n, u is rational and nonzero, and every
    seed lies in [0, ``SEED_MAX``].  Last, each written ``_DERIVED`` value
    must be the certificate's own, as JSON.
    Sampling checks the rest: c, and that u and the frame fit the vector."""
    try:
        if _checked(dict, data, "certificate")["schema"] != CERT_SCHEMA:
            raise CertificateError(f"unsupported schema {data['schema']!r}")
        cert = _reader(DominanceCert)(data, "certificate")
        written = {name: _reader(kind)(data[name], name) for name, kind in _DERIVED.items()}
    except CertificateError:
        raise
    except (KeyError, ValueError) as exc:  # a missing field, or a value its type rejects
        raise CertificateError(f"malformed certificate: {exc}") from exc
    frame, n, u = cert.frame, cert.n, cert.u
    for name, values in (("c", cert.c), ("frame", [] if frame is None else frame)):
        if not np.all(np.isfinite(values)):
            raise CertificateError(f"non-finite entry in {name!r}")
    if u.n != n or (frame is not None and frame.shape != (n, n)):
        raise CertificateError(f"u or frame do not fit n = {n}")
    if not u.is_exact or u.is_zero():
        raise CertificateError("u must be a nonzero rational vector")
    seeds = {"seed": cert.seed}
    if cert.verification is not None:
        seeds["verification.seed"] = cert.verification.seed
    for name, seed in seeds.items():
        _check_seed(seed, name, CertificateError)
    for name, value in written.items():
        try:
            derived = _to_json(getattr(cert, name))
        except (OverflowError, ZeroVectorError) as exc:  # u beyond the float range
            raise CertificateError(f"u has no float norm: {exc}") from exc
        except ArithmeticError as exc:  # the min-norm point of weights pairs to an integer
            raise CertificateError(f"u is no min-norm point of weights: {exc}") from exc
        if _to_json(value) != derived:
            source = ("the schema fixes" if name in ("eps", "form", "schema") else
                      "the vector and frame determine" if name == "mode" else "u determines")
            raise CertificateError(f"{name} is not the value {source}, {derived!r}")
    return cert


def dumps_cert(cert: DominanceCert) -> str:
    """The canonical JSON text of ``cert``; CertificateError on a c that is not finite."""
    if not math.isfinite(cert.c):
        raise CertificateError(f"c = {cert.c} is not finite; no certificate is written")
    return json.dumps(cert_to_dict(cert), sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads_cert(text: str) -> DominanceCert:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    return cert_from_dict(data)
