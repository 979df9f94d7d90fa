"""Representations of SL(n) assembled from a small AST.

Supported constructors: the standard representation, duals, exterior and
symmetric powers, and tensor products (DSL: ``std``, ``dual(R)``,
``wedge(k,R)``, ``sym(k,R)``, ``R * R``).  Every representation is realized
inside a tensor power of the standard representation, which fixes a monomial
basis of weight vectors in deterministic lexicographic order and endows the
space with an SO(n)-invariant inner product that is diagonal on that basis:
wedge monomials carry the determinant (Gram) convention, symmetric monomials
the multinomial weights of their symmetrized tensors.  Weight spaces are
orthogonal by construction.

Group elements act through that embedding, with one code path for every
representation.  Each basis vector is a fixed tensor in (R^n)^{(x)k}: a
symmetric monomial is the sum of its distinct words, a wedge monomial the
alternating sum of its words, a tensor product the product of its factors'
tensors, and a dual basis vector the child's tensor divided by its squared
tensor norm, with its modes marked dual.  To act, embed the coordinates,
apply g along every standard mode and g^{-T} along every dual mode, and
read each coordinate back from one word of its basis vector (distinct basis
vectors have disjoint word supports).  Entries may be floats or exact
``Fraction``s; the exact path is used whenever both the group element and
the vector are rational.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Tuple, Union

import numpy as np

from . import exactlin
from .cartan import Cocharacter, SimpleSystem, Weight
from .errors import DimensionError, NonFiniteError, ParseError, ZeroVectorError

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Standard:
    def __str__(self) -> str:
        return "std"


@dataclass(frozen=True)
class Dual:
    base: "RepSpec"

    def __str__(self) -> str:
        return f"dual({self.base})"


@dataclass(frozen=True)
class Wedge:
    k: int
    base: "RepSpec"

    def __str__(self) -> str:
        return f"wedge({self.k},{self.base})"


@dataclass(frozen=True)
class Sym:
    k: int
    base: "RepSpec"

    def __str__(self) -> str:
        return f"sym({self.k},{self.base})"


@dataclass(frozen=True)
class Tensor:
    left: "RepSpec"
    right: "RepSpec"

    def __str__(self) -> str:
        left = f"({self.left})" if isinstance(self.left, Tensor) else str(self.left)
        right = f"({self.right})" if isinstance(self.right, Tensor) else str(self.right)
        return f"{left}*{right}"


RepSpec = Union[Standard, Dual, Wedge, Sym, Tensor]


def parse_rep_spec(text: str) -> RepSpec:
    """Parse the DSL ``std | dual(R) | wedge(k,R) | sym(k,R) | R * R``."""
    tokens = _tokenize(text)
    spec, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"unexpected token {tokens[pos][0]!r}", tokens[pos][1])
    return spec


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()*,":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_expr(tokens, pos):
    spec, pos = _parse_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "*":
        right, pos = _parse_atom(tokens, pos + 1)
        spec = Tensor(spec, right)
    return spec, pos


def _expect(tokens, pos, symbol):
    if pos >= len(tokens):
        raise ParseError(f"expected {symbol!r} but input ended", len(tokens))
    if tokens[pos][0] != symbol:
        raise ParseError(f"expected {symbol!r}, got {tokens[pos][0]!r}", tokens[pos][1])
    return pos + 1


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input", len(tokens))
    tok, at = tokens[pos]
    if tok == "std":
        return Standard(), pos + 1
    if tok == "(":
        spec, pos = _parse_expr(tokens, pos + 1)
        pos = _expect(tokens, pos, ")")
        return spec, pos
    if tok == "dual":
        pos = _expect(tokens, pos + 1, "(")
        base, pos = _parse_expr(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return Dual(base), pos
    if tok in ("wedge", "sym"):
        pos = _expect(tokens, pos + 1, "(")
        if pos >= len(tokens) or not tokens[pos][0].isdigit():
            where = tokens[pos][1] if pos < len(tokens) else len(tokens)
            raise ParseError(f"{tok} needs an integer degree", where)
        k = int(tokens[pos][0])
        pos = _expect(tokens, pos + 1, ",")
        base, pos = _parse_expr(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return (Wedge if tok == "wedge" else Sym)(k, base), pos
    raise ParseError(f"unknown token {tok!r}", at)


# ---------------------------------------------------------------------------
# Basis, weights, gram


@dataclass(frozen=True)
class Representation:
    """A concrete representation with its monomial weight basis.

    ``weights[i]`` is the torus character of basis element i; ``gram[i]`` the
    (positive rational) squared norm of that basis element.  Distinct-weight
    basis elements are orthogonal since the inner product is diagonal.
    """

    spec: RepSpec
    n: int
    dim: int
    weights: Tuple[Weight, ...]
    gram: Tuple[Fraction, ...]


def build_rep(spec: RepSpec, n: int) -> Representation:
    if n < 2:
        raise DimensionError("n must be at least 2")
    basis = _basis_data(spec, n)
    return Representation(spec=spec, n=n, dim=len(basis.weights),
                          weights=basis.weights, gram=basis.gram)


@dataclass(frozen=True)
class _Basis:
    """Monomial basis of one spec node and its tensor-power embedding.

    Basis vector i is a monomial in the child basis vectors ``index[i]``.
    It embeds into (R^n)^{(x)k}, k = len(dual), as ``words[i]``, a tuple of
    (flat word, coefficient) pairs; g acts on mode m of a word, or g^{-T}
    where ``dual[m]``.  Distinct basis vectors have disjoint word supports.
    """

    index: Tuple[Tuple[int, ...], ...]
    weights: Tuple[Weight, ...]
    gram: Tuple[Fraction, ...]
    words: Tuple[Tuple[Tuple[int, Union[int, Fraction]], ...], ...]
    dual: Tuple[bool, ...]

    @cached_property
    def scatter(self):
        """Flat arrays of the embedding: every word, its basis vector, and
        the head word of each basis vector (its first), from which that
        coordinate is read back; then {exact: (coefficients of all words,
        coefficients of the heads as a column)}."""
        pairs = [(w, i, c) for i, ws in enumerate(self.words) for w, c in ws]
        rows = np.array([w for w, _, _ in pairs], dtype=np.intp)
        cols = np.array([i for _, i, _ in pairs], dtype=np.intp)
        coef = np.array([Fraction(c) for _, _, c in pairs], dtype=object)
        head = np.searchsorted(cols, np.arange(len(self.words)))
        return rows, cols, rows[head], {
            exact: (c[:, None], c[head, None])
            for exact, c in ((True, coef), (False, coef.astype(float)))}

    @cached_property
    def weight_groups(self):
        """Basis indices grouped by weight: ``(weight, indices)`` pairs in
        the order of the weight coordinates."""
        groups: dict = {}
        for i, w in enumerate(self.weights):
            groups.setdefault(w, []).append(i)
        return tuple((w, np.asarray(idx, dtype=np.intp))
                     for w, idx in sorted(groups.items(), key=lambda kv: kv[0].coords))


@lru_cache(maxsize=None)
def _basis_data(spec: RepSpec, n: int) -> _Basis:
    if isinstance(spec, Standard):
        weights = []
        for i in range(n):
            coords = [Fraction(-1, n)] * n
            coords[i] += 1
            weights.append(Weight(coords))
        return _Basis(index=tuple((i,) for i in range(n)), weights=tuple(weights),
                      gram=(Fraction(1),) * n,
                      words=tuple(((i, 1),) for i in range(n)), dual=(False,))
    if isinstance(spec, Dual):
        # the dual basis vector of a child basis tensor t is t / <t, t>
        b = _basis_data(spec.base, n)
        return _Basis(index=tuple((i,) for i in range(len(b.weights))),
                      weights=tuple(w.negate() for w in b.weights),
                      gram=tuple(1 / g for g in b.gram),
                      words=tuple(tuple((w, Fraction(c) / sum(x * x for _, x in ws))
                                        for w, c in ws) for ws in b.words),
                      dual=tuple(not d for d in b.dual))
    if isinstance(spec, Tensor):
        slots = (_basis_data(spec.left, n), _basis_data(spec.right, n))
        index = product(*(range(len(s.weights)) for s in slots))

        def arrangements(idx):
            return [(1, idx)]
    elif isinstance(spec, (Wedge, Sym)):
        child = _basis_data(spec.base, n)
        d = len(child.weights)
        if spec.k < 1:
            raise DimensionError(f"{'wedge' if isinstance(spec, Wedge) else 'sym'} "
                                 "degree must be >= 1")
        slots = (child,) * spec.k
        if isinstance(spec, Wedge):
            if spec.k > d:
                raise DimensionError(f"wedge degree {spec.k} exceeds dimension {d}")
            index = combinations(range(d), spec.k)

            def arrangements(idx):  # signed words of the alternating sum
                return [((-1) ** sum(a > b for a, b in combinations(p, 2)),
                         tuple(idx[i] for i in p))
                        for p in permutations(range(len(idx)))]
        else:
            index = combinations_with_replacement(range(d), spec.k)

            def arrangements(idx):  # the distinct words
                return [(1, w) for w in sorted(set(permutations(idx)))]
    else:
        raise TypeError(f"unknown spec node {spec!r}")
    index = tuple(index)
    weights, gram, words = [], [], []
    for idx in index:
        w, g = slots[0].weights[idx[0]], slots[0].gram[idx[0]]
        for s, i in zip(slots[1:], idx[1:]):
            w = w.add(s.weights[i])
            g = g * s.gram[i]
        arrs = arrangements(idx)
        weights.append(w)
        gram.append(g * len(arrs) if isinstance(spec, Sym) else g)
        out = []
        for sign, arr in arrs:
            for choice in product(*(s.words[i] for s, i in zip(slots, arr))):
                word, coef = 0, sign
                for s, (sw, sc) in zip(slots, choice):
                    word = word * n ** len(s.dual) + sw
                    coef *= sc
                out.append((word, coef))
        words.append(tuple(out))
    return _Basis(index=index, weights=tuple(weights), gram=tuple(gram),
                  words=tuple(words), dual=sum((s.dual for s in slots), ()))


def basis_labels(rep: Representation) -> Tuple[str, ...]:
    """Human-readable monomial labels, for tables and debugging."""

    def label(spec, i) -> str:
        idx = _basis_data(spec, rep.n).index[i]
        if isinstance(spec, Standard):
            return f"e{idx[0] + 1}"
        if isinstance(spec, Dual):
            return f"{label(spec.base, idx[0])}^*"
        if isinstance(spec, Wedge):
            return "^".join(label(spec.base, j) for j in idx)
        if isinstance(spec, Sym):
            return ".".join(label(spec.base, j) for j in idx)
        if isinstance(spec, Tensor):
            return f"{label(spec.left, idx[0])}(x){label(spec.right, idx[1])}"
        raise TypeError

    return tuple(label(rep.spec, i) for i in range(rep.dim))


# ---------------------------------------------------------------------------
# Group action


def check_unimodular_float(mat: np.ndarray, det_tol: float = 1e-9) -> None:
    """Check det = 1 up to what the conditioning of ``mat`` permits.

    The float determinant of a matrix with condition number kappa carries a
    relative error of order kappa * eps, so the tolerance scales with a
    Frobenius estimate of kappa; blunders (wrong sign, det far from 1) are
    still rejected at every scale.
    """
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise ValueError("group element must have determinant 1 (got sign <= 0)")
    try:
        cond = float(np.linalg.norm(mat) * np.linalg.norm(np.linalg.inv(mat)))
    except np.linalg.LinAlgError:
        raise ValueError("group element is numerically singular")
    if abs(logdet) > det_tol * max(1.0, cond):
        raise ValueError(f"group element must have determinant 1, "
                         f"got log|det| = {logdet}")


def _as_group_matrix(g, n: int, det_tol: float = 1e-9):
    """Validate shape and unimodularity; return (matrix, exact_flag)."""
    exact = (not isinstance(g, np.ndarray) or g.dtype == object) \
        and all(exactlin.is_exact(row) for row in g)
    mat = (np.array([[Fraction(x) for x in row] for row in g], dtype=object)
           if exact else np.asarray(g, dtype=float))
    if mat.shape != (n, n):
        raise DimensionError(f"group element must be {n}x{n}, got {mat.shape}")
    if exact:
        if exactlin.det(mat.tolist()) != 1:
            raise ValueError("group element must have determinant 1")
    else:
        check_unimodular_float(mat, det_tol)
    return mat, exact


def _apply(rep: Representation, g: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Act with ``g`` on the columns of ``vecs`` through the tensor embedding.

    Embed each column in (R^n)^{(x)k}, apply g along every standard mode and
    g^{-T} along every dual mode, and read each coordinate back from the
    head word of its basis vector.  ``g`` and ``vecs`` are both float
    arrays or both object arrays of ``Fraction``s.
    """
    basis = _basis_data(rep.spec, rep.n)
    rows, cols, heads, coefs = basis.scatter
    exact = vecs.dtype == object
    (coef, head_coef), n = coefs[exact], rep.n
    if any(basis.dual):
        g_inv_t = (np.array(exactlin.inv(g.tolist()), dtype=object) if exact
                   else np.linalg.inv(g)).T
    t = np.zeros((n ** len(basis.dual), vecs.shape[1]), dtype=vecs.dtype)
    t[rows] = coef * vecs[cols]
    for mode, dual in enumerate(basis.dual):
        t = np.matmul(g_inv_t if dual else g, t.reshape(n ** mode, n, -1))
    t = t.reshape(-1, vecs.shape[1])
    return t[heads] / head_coef


def rep_matrix(rep: Representation, g) -> np.ndarray:
    """Matrix of ``g`` on the monomial basis of ``rep``: the action on the
    identity columns."""
    mat, exact = _as_group_matrix(g, rep.n)
    return _apply(rep, mat, np.eye(rep.dim, dtype=object if exact else float))


def _vector_in(rep: Representation, v):
    coords = list(v)
    if len(coords) != rep.dim:
        raise DimensionError(f"vector length {len(coords)} != rep dim {rep.dim}")
    if exactlin.is_exact(coords):
        return tuple(Fraction(c) for c in coords), True
    vec = np.asarray([float(c) for c in coords])
    if not np.isfinite(vec).all():
        bad = np.flatnonzero(~np.isfinite(vec))[0]
        raise NonFiniteError(f"vector entry {bad} is {vec[bad]}")
    return vec, False


def act(rep: Representation, g, v):
    """Apply ``g`` to ``v``; exact when both inputs are rational.

    Satisfies ``act(rep, g1 @ g2, v) == act(rep, g1, act(rep, g2, v))``.
    """
    mat, g_exact = _as_group_matrix(g, rep.n)
    vec, v_exact = _vector_in(rep, v)
    dtype = object if g_exact and v_exact else float
    vecs = np.asarray(vec, dtype=dtype)[:, None]
    out = _apply(rep, np.asarray(mat, dtype=dtype), vecs)[:, 0]
    return tuple(out.tolist()) if dtype is object else out


# ---------------------------------------------------------------------------
# Norms, weight components, valuations


def pow2_scaled(vec: np.ndarray):
    """``(vec / 2^e, e)`` with 2^e the power of two just above max|vec_i|.

    Scaling by a power of two is exact, so squares of the scaled entries
    neither overflow nor underflow, and results scaled back by 2^e are
    bit-identical to unscaled arithmetic wherever that stays in range.
    """
    e = math.frexp(float(np.max(np.abs(vec), initial=0.0)))[1]
    return np.ldexp(vec, -e), e


def scaled_floats(rep: Representation, v) -> np.ndarray:
    """The floats of ``pow2_scaled(v)``; a rational v is divided by a power
    of two near max|v_i| before rounding, so no scale of it over- or underflows."""
    vec, exact = _vector_in(rep, v)
    if exact:
        top = max(map(abs, vec))
        scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
        vec = np.asarray([float(x * scale) for x in vec])
    return pow2_scaled(vec)[0]


def _log_ldexp(x: float, e: int) -> float:
    """log(x * 2^e) for x > 0; the log of the product itself while that is
    a normal float."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        y = math.inf
    if sys.float_info.min <= y < math.inf:
        return math.log(y)
    return math.log(x) + e * math.log(2.0)


def _weighted_squares(rep: Representation, v):
    """``(q, e)`` with q_i = gram_i v_i^2 / 4^e: exact ``Fraction``s and
    e = 0 for rational vectors, floats of ``pow2_scaled(v)`` otherwise."""
    vec, exact = _vector_in(rep, v)
    if exact:
        return np.array([g * c * c for g, c in zip(rep.gram, vec)], dtype=object), 0
    scaled, e = pow2_scaled(vec)
    return np.asarray([float(g) for g in rep.gram]) * scaled ** 2, e


def _log_norm(q: np.ndarray, e: int) -> float:
    """log(sqrt(sum q) * 2^e), -inf for zero."""
    s = q.sum()
    if not s:
        return NEG_INF
    if isinstance(s, Fraction):  # safe for huge numerators and denominators
        return 0.5 * (math.log(s.numerator) - math.log(s.denominator))
    return _log_ldexp(math.sqrt(s), e)


def norm_sq(rep: Representation, v):
    """Gram-weighted squared norm; ``Fraction`` for exact vectors, inf for
    a float square beyond the float range."""
    q, e = _weighted_squares(rep, v)
    if q.dtype == object:
        return q.sum()
    try:
        return math.ldexp(float(q.sum()), 2 * e)
    except OverflowError:
        return math.inf


def rep_norm(rep: Representation, v) -> float:
    """SO(n)-invariant norm of ``v`` (weight spaces orthogonal); inf beyond
    the float range, where ``log_rep_norm`` stays finite."""
    q, e = _weighted_squares(rep, v)
    try:
        if q.dtype == object:
            return math.exp(_log_norm(q, e))
        return math.ldexp(math.sqrt(q.sum()), e)
    except OverflowError:
        return math.inf


def log_rep_norm(rep: Representation, v) -> float:
    """log of ``rep_norm``, computed in a scale-safe way (-inf for zero)."""
    return _log_norm(*_weighted_squares(rep, v))


def weight_components(rep: Representation, v, eps: float = 1e-10):
    """Split ``v`` into weight components and report their log norms.

    Returns ``[(weight, r)]`` over the weights of the basis, sorted by
    weight coordinates; ``r`` is the log of the gram-weighted component norm
    for components above ``eps * ||v||`` (exact nonzero test for rational
    vectors), and ``-inf`` otherwise.  Float norms are taken on ``v`` scaled
    by a power of two, so no scale underflows or overflows.
    """
    q, e = _weighted_squares(rep, v)
    total = q.sum()
    if not total:
        raise ZeroVectorError("zero vector has no weight components")
    out = []
    for w, idx in _basis_data(rep.spec, rep.n).weight_groups:
        below = (q.dtype != object
                 and not math.sqrt(q[idx].sum()) > eps * math.sqrt(total))
        out.append((w, NEG_INF if below else _log_norm(q[idx], e)))
    return out


def weight_part(rep: Representation, v, weights) -> list:
    """``v`` with 0 on the basis vectors whose weight is not in ``weights``."""
    keep = np.zeros(rep.dim, dtype=bool)
    for w, idx in _basis_data(rep.spec, rep.n).weight_groups:
        keep[idx] = w in weights
    return [x if k else 0 for x, k in zip(v, keep)]


def moment_map(rep: Representation, w) -> np.ndarray:
    """The traceless symmetric mu(w) with <mu(w), X> = d/dt log||rho(exp(tX))w||
    at t = 0 for every traceless symmetric X.

    For the tensor T of w, g acts on standard modes and g^{-T} on dual
    ones, so mu is the traceless part of sum_m +-T_(m) T_(m)^T / ||T||^2
    over the mode unfoldings T_(m) (minus on dual modes).  The rep norm is
    a constant multiple of ||T||, and mu does not depend on the scale of w.
    """
    basis = _basis_data(rep.spec, rep.n)
    rows, cols, _, coefs = basis.scatter
    n, k = rep.n, len(basis.dual)
    vec = scaled_floats(rep, w)
    t = np.zeros(n ** k)
    t[rows] = coefs[False][0][:, 0] * vec[cols]
    total = float(t @ t)
    if not total:
        raise ZeroVectorError("zero vector has no moment map")
    t = t.reshape((n,) * k)
    mu = np.zeros((n, n))
    for mode, dual in enumerate(basis.dual):
        m = np.moveaxis(t, mode, 0).reshape(n, -1)
        mu += (-1.0 if dual else 1.0) * (m @ m.T)
    mu /= total
    return mu - np.trace(mu) / n * np.eye(n)


def active_weights(rep: Representation, v, eps: float = 1e-10):
    """The weights whose component of ``v`` is nonzero, with log norms."""
    return [(w, r) for w, r in weight_components(rep, v, eps) if r != NEG_INF]


def highest_weight_vector(n: int, j: int, order: SimpleSystem | None = None):
    """The degree-j fundamental representation and its highest weight vector.

    Returns ``(rep, v)`` with rep = wedge(j, std) and v the wedge of the
    first j coordinate axes of ``order`` (identity order: e_1 ^ ... ^ e_j).
    Its weight is the j-th fundamental weight; its line is fixed by the
    upper-triangular subgroup adapted to ``order``.
    """
    if not 1 <= j <= n - 1:
        raise DimensionError(f"fundamental degree must be in 1..{n - 1}, got {j}")
    if order is None:
        order = SimpleSystem.identity(n)
    rep = build_rep(Wedge(j, Standard()), n)
    target = tuple(sorted(order.perm[:j]))
    index = _basis_data(rep.spec, n).index.index(target)
    v = np.zeros(rep.dim)
    v[index] = 1.0
    return rep, v


def m_value(rep: Representation, v, tau: Cocharacter, eps: float = 1e-10) -> int:
    """Minimal tau-exponent over the nonzero components of ``v``.

    This is the valuation at t=0 of t -> rho(tau(t)) v: the group element
    tau(t) scales each weight component by t^<weight, tau>, and the smallest
    exponent present controls the decay.  Scales linearly in tau.
    """
    if tau.n != rep.n:
        raise DimensionError("cocharacter dimension mismatch")
    if all(e == 0 for e in tau.exps):
        raise ZeroVectorError("zero cocharacter")
    act_w = active_weights(rep, v, eps)
    if not act_w:
        raise ZeroVectorError("zero vector")
    return min(w.pair_int(tau) for w, _ in act_w)
