"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: quadratic
programming via scipy, Gauss-Jordan elimination over ``Fraction``s,
explicit tensor-power embeddings for norms and actions, and exact
power-of-two scaling for valuations.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import scipy.optimize as sopt

from instab import act, active_weights, highest_weight_vector, log_rep_norm
from instab.reps import scaled_floats
from instab.symspace import log_flag_norms


def fraction_eliminate(a, b):
    """Gauss-Jordan elimination of ``[a | b]`` over ``Fraction``s, pivoting
    on the first nonzero entry of each column: ``(det a, a^-1 b)``, or
    ``(0, None)`` when ``a`` is singular."""
    n = len(a)
    m = [[Fraction(x) for x in (*row, *rhs)] for row, rhs in zip(a, b)]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        pivot = m[col][col]
        d *= pivot
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f != 0:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d, [row[n:] for row in m]


def det(a):
    """Exact determinant by ``fraction_eliminate``."""
    return fraction_eliminate(a, [[] for _ in a])[0]


def solve(a, b):
    """Exact solution of ``a x = b`` by ``fraction_eliminate``; raises
    ``ZeroDivisionError`` if ``a`` is singular."""
    _, x = fraction_eliminate(a, [[y] for y in b])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    return [row[0] for row in x]


def trace_form(a, b):
    """The trace-form pairing sum_i a_i b_i of two CartanVectors, exact for
    rational coordinates."""
    return sum(x * y for x, y in zip(a.coords, b.coords))


def qp_min_norm(points):
    """Min-norm point of a polytope by SLSQP over the simplex, with the
    analytic gradient 2 P (lam P) of |lam P|^2."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m == 1:
        return pts[0]

    def objective(lam):
        x = lam @ pts
        return float(x @ x)

    def gradient(lam):
        return 2.0 * (pts @ (lam @ pts))

    cons = ({"type": "eq", "fun": lambda lam: float(np.sum(lam) - 1.0)},)
    best = None
    for s in range(4):
        rng = np.random.default_rng(1234 + s)
        lam0 = rng.dirichlet(np.ones(m))
        res = sopt.minimize(objective, lam0, method="SLSQP", jac=gradient,
                            bounds=[(0.0, 1.0)] * m, constraints=cons,
                            options={"maxiter": 400, "ftol": 1e-16})
        if best is None or res.fun < best.fun:
            best = res
    return best.x @ pts


def enumerated_min_norm(points):
    """Exact-support brute force: the min-norm point of a polytope is the
    affine minimizer of some subset of at most dim+1 points with
    nonnegative barycentric coordinates, so enumerate all of them."""
    pts = np.asarray(points, dtype=float)
    m, dim = pts.shape
    best_val, best_x = None, None
    for size in range(1, min(m, dim + 1) + 1):
        for subset in combinations(range(m), size):
            sub = pts[list(subset)]
            a = np.zeros((size + 1, size + 1))
            a[:size, :size] = sub @ sub.T
            a[:size, size] = 1.0
            a[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                continue
            lam = sol[:size]
            if np.min(lam) < -1e-12:
                continue
            x = lam @ sub
            val = float(x @ x)
            if best_val is None or val < best_val:
                best_val, best_x = val, x
    return best_x


def exact_min_norm(points):
    """The ``Fraction`` twin of ``enumerated_min_norm`` over exact
    elimination: the min-norm point of the hull of rational CartanVectors,
    as a coordinate tuple, and convex coefficients over ``points`` that
    reproduce it.  The points are traceless, so subsets of at most dim
    of them suffice; an affinely dependent subset has a singular system."""
    pts = [p.coords for p in points]
    m, dim = len(pts), len(pts[0])
    best = None
    for size in range(1, min(m, dim) + 1):
        for subset in combinations(range(m), size):
            sub = [pts[i] for i in subset]
            a = [[sum(x * y for x, y in zip(p, q)) for q in sub] + [1] for p in sub]
            a.append([1] * size + [0])
            try:
                lam = solve(a, [0] * size + [1])[:size]
            except ZeroDivisionError:
                continue
            if min(lam) < 0:
                continue
            x = tuple(sum(l * p[c] for l, p in zip(lam, sub)) for c in range(dim))
            val = sum(c * c for c in x)
            if best is None or val < best[0]:
                coeffs = [Fraction(0)] * m
                for i, l in zip(subset, lam):
                    coeffs[i] = l
                best = (val, x, tuple(coeffs))
    return best[1], best[2]


def fraction_certificate_values(u, rep):
    """The values a certificate derives from the exact u, by ``Fraction``
    arithmetic on its coordinates: rate, direction, kempf (tau, m,
    ||tau||^2, ratio, or the ArithmeticError it raises), order, alphas and
    hw, and ``rep``'s levels of u, in ``weight_groups`` order."""
    c = u.coords
    norm_sq = sum(x * x for x in c)
    rate = math.sqrt(float(norm_sq))
    direction = tuple(float(x) / rate for x in c)
    order = tuple(sorted(range(len(c)), key=lambda i: c[i], reverse=True))
    alphas = tuple(c[order[j]] - c[order[j + 1]] for j in range(len(c) - 1))
    hw = tuple(j + 1 for j, a in enumerate(alphas) if a > 0)
    scale = math.lcm(*(Fraction(x).denominator for x in c))
    ints = [int(x * scale) for x in c]
    tau = [x // math.gcd(*ints) for x in ints]
    m = sum(x * t for x, t in zip(c, tau))
    tau_sq = sum(t * t for t in tau)
    kempf = (ArithmeticError(f"non-integral pairing {m}") if Fraction(m).denominator != 1
             else (tuple(tau), int(m), tau_sq, int(m) / math.sqrt(tau_sq)))
    levels = [(pair > norm_sq) - (pair < norm_sq)
              for pair in (sum(a * b for a, b in zip(w.coords, c)) for w, _ in rep.weight_groups)]
    return {"rate": rate, "direction": direction, "kempf": kempf, "order": order,
            "alphas": alphas, "hw": hw, "levels": levels}


# (spec, n) pairs whose null cone is det T = 0, T the n x n tensor of v
# (the determinant, or the Pfaffian squared, generates the invariants),
# or everything for std
DET_NULL_CONE = {("std", 3), ("wedge(2,std)", 4), ("sym(2,std)", 3), ("sym(2,std)", 4)}


def _exact_tensor(rep, v):
    """The flat tensor T in (R^n)^(x)k of a rational ``v``, in ``Fraction``s,
    from the exact coefficients of ``rep.scatter``."""
    rows, cols, _, coefs = rep.scatter
    t = [Fraction(0)] * rep.n ** len(rep.dual)
    for w, i, c in zip(rows.tolist(), cols.tolist(), coefs[True][0]):
        t[w] = c * Fraction(v[i])
    return t


def det_invariant(rep, v):
    """det T for the exact tensor T of a rational ``v`` in R^n (x) R^n; 0
    for std, where every vector is unstable."""
    if len(rep.dual) == 1:
        return Fraction(0)
    n = rep.n
    t = _exact_tensor(rep, v)
    return det([t[r * n:(r + 1) * n] for r in range(n)])


def cubic_discriminant(rep, v):
    """b^2 c^2 - 4 a c^3 - 4 b^3 d - 27 a^2 d^2 + 18 a b c d for a rational
    ``v`` in sym(3,std), n=2: the discriminant of the binary cubic
    T(x, x, x) = a x^3 + b x^2 y + c x y^2 + d y^3 of its exact tensor T,
    with a = T_000, b = 3 T_001, c = 3 T_011 and d = T_111.  It vanishes
    exactly on the cubics with a repeated root, the null cone."""
    t = _exact_tensor(rep, v)
    a, b, c, d = t[0], 3 * t[1], 3 * t[3], t[7]
    return b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def endomorphism_invariants(rep, v):
    """tr(A)^2 + tr(A^2)^2 + det(A)^2 for a rational ``v`` in
    std*wedge(2,std), n=3, with A_ij = sum_kl eps_jkl T_ikl the
    contraction of the two wedge modes of its exact tensor T with the
    Levi-Civita symbol.  For g in SL(3), eps(g, g, .) = eps(., ., g^-1), so
    g acts on A by conjugation, A -> g A g^-1.  The null cone is where A is
    nilpotent: where tr A, tr A^2 and det A all vanish, so exactly where
    this sum of their squares is 0."""
    t = _exact_tensor(rep, v)
    a = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j, k, l in permutations(range(3)):
            a[i][j] += _perm_sign((j, k, l)) * t[9 * i + 3 * k + l]
    a2 = [[sum(a[i][m] * a[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    tr, tr2 = sum(a[i][i] for i in range(3)), sum(a2[i][i] for i in range(3))
    return tr * tr + tr2 * tr2 + det(a) ** 2


# the (spec, n) pairs whose null cone one invariant cuts out, with it; a
# pair with several invariants gets one function, nonzero exactly outside
# the null cone
NULL_CONE_INVARIANTS = {**{pair: det_invariant for pair in DET_NULL_CONE},
                        ("sym(3,std)", 2): cubic_discriminant,
                        ("std*wedge(2,std)", 3): endomorphism_invariants}


def sym_monomial_embedding(mono, n):
    """Embed a sorted symmetric monomial into the tensor power R^{n^k},
    as the sum of its distinct words."""
    k = len(mono)
    vec = np.zeros(n**k)
    for word in set(permutations(mono)):
        idx = 0
        for w in word:
            idx = idx * n + w
        vec[idx] += 1.0
    return vec


def wedge_monomial_embedding(mono, n):
    """Embed a strictly increasing wedge monomial into R^{n^k} as its
    alternating sum of words."""
    k = len(mono)
    vec = np.zeros(n**k)
    base = list(mono)
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        idx = 0
        for t in range(k):
            idx = idx * n + base[perm[t]]
        vec[idx] += sign
    return vec


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def kron_power(m, k):
    out = np.array([[1.0]])
    for _ in range(k):
        out = np.kron(out, m)
    return out


def valuation_m(rep, v, tau_exps):
    """Valuation oracle: act exactly with diag(2^tau) and read off the
    minimal power of two scaling any nonzero coordinate."""
    g = [[Fraction(0)] * rep.n for _ in range(rep.n)]
    for i, e in enumerate(tau_exps):
        g[i][i] = Fraction(2) ** e
    image = act(rep, g, [Fraction(x) for x in v])
    exps = []
    for orig, out in zip(v, image):
        if orig == 0:
            continue
        ratio = Fraction(out) / Fraction(orig)
        exps.append(_exact_log2(abs(ratio)))
    return min(exps)


def _exact_log2(q: Fraction) -> int:
    num, den = q.numerator, q.denominator
    if den == 1:
        e = num.bit_length() - 1
        assert num == 2**e, f"{q} is not a power of two"
        return e
    assert num == 1, f"{q} is not a power of two"
    e = den.bit_length() - 1
    assert den == 2**e, f"{q} is not a power of two"
    return -e


def primitive_cocharacters(n, bound):
    """All primitive integer vectors with entries in [-bound, bound]
    summing to zero (up to nothing: both signs included)."""
    from math import gcd
    from itertools import product as iproduct

    out = []
    for exps in iproduct(range(-bound, bound + 1), repeat=n):
        if sum(exps) != 0 or all(e == 0 for e in exps):
            continue
        g = 0
        for e in exps:
            g = gcd(g, abs(e))
        if g == 1:
            out.append(exps)
    return out


def exact_log_norm(rep, v):
    """log||v|| of a rational vector from its exact squared norm
    p/q = sum_i gram_i c_i^2: 1/2 (log p - log q), finite at any scale;
    -inf for zero.  It is evaluated as 1/2 (log m + k log 2) with
    p/q = m 2^k, m in [1/2, 2]: math.log(p) - math.log(q) of two huge
    integers cancels, losing up to 1e-13 where p/q is moderate."""
    s = sum(g * Fraction(c) ** 2 for g, c in zip(rep.gram, v))
    if not s:
        return -math.inf
    k = s.numerator.bit_length() - s.denominator.bit_length()
    return 0.5 * (math.log(s / Fraction(2) ** k) + k * math.log(2))


def fundamental_log_norms(m, order):
    """log||rho_j(m) v_j|| for j = 1..n-1, acting with the wedge
    representations on the highest weight vectors v_j of ``order``."""
    n = len(m)
    out = []
    for j in range(1, n):
        rep_j, v_j = highest_weight_vector(n, j, order)
        out.append(log_rep_norm(rep_j, act(rep_j, m, v_j)))
    return np.asarray(out)


def diagonal_flow_slope(rep, v, direction, t0=40.0, dt=1.0):
    """Decay slope of log||exp(t diag(direction)) v|| at large t."""
    def val(t):
        g = np.diag(np.exp(t * np.asarray(direction)))
        return log_rep_norm(rep, act(rep, g, v))

    return (val(t0 + dt) - val(t0)) / dt


def matrix_ray_slope_diff(cert, rep, v):
    """The ray check of ``verify_dominance`` on group matrices: the slopes
    of log||rho(g_t)v|| and of sum_j alpha_j log||rho_j(g_t frame^T)v_j||
    along g_t = exp(-t diag(uhat)) frame, over t1 = t2 / 2 and t2, and
    their absolute difference.  t2 is 40, or 11.5 / max(spread, 0.3) when
    a nonzero component of rho(frame)v lies a spread > 1e-9 below the rate
    on the ray."""
    vec, e = scaled_floats(rep, v)
    frame = cert.frame if cert.frame is not None else np.eye(cert.n)
    uhat = np.asarray(cert.direction)
    weights = [rep.weight_groups[j][0] for j in active_weights(rep, act(rep, frame, vec), 0.0)]
    spread = cert.rate - min(sum(float(c) * d for c, d in zip(w.coords, uhat)) for w in weights)
    t2 = 11.5 / max(spread, 0.3) if spread > 1e-9 else 40.0
    t1 = 0.5 * t2
    ray = np.stack([np.diag(np.exp(-t * uhat)) @ frame for t in (t1, t2)])
    lhs = log_rep_norm(rep, act(rep, ray, vec), e)
    alphas = np.asarray([float(a) for a in cert.alphas])
    rhs = log_flag_norms(ray @ frame.T, cert.order.perm)[:, :-1] @ alphas
    return abs((lhs[1] - lhs[0]) / (t2 - t1) - (rhs[1] - rhs[0]) / (t2 - t1))
