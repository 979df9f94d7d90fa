"""Representations of SL(n) assembled from a small AST.

Supported constructors: the standard representation, duals, exterior and
symmetric powers, and tensor products (DSL: ``std``, ``dual(R)``,
``wedge(k,R)``, ``sym(k,R)``, ``R * R``).  Every representation is realized
inside a tensor power of the standard representation, which fixes a monomial
basis of weight vectors in deterministic lexicographic order and endows the
space with an SO(n)-invariant inner product that is diagonal on that basis:
wedge monomials carry the determinant (Gram) convention, symmetric monomials
the multinomial weights of their symmetrized tensors.  Weight spaces are
orthogonal by construction.  ``build_rep`` builds each (spec, n) once: the
``Representation`` it returns is the basis itself, carrying the child
indices, exact weights (``CartanVector``s), gram entries and tensor words of
every basis vector, and the arrays derived from them.

Group elements act through that embedding, with one code path for every
representation.  Each basis vector is a fixed tensor in (R^n)^{(x)k}: a
symmetric monomial is the sum of its distinct words, a wedge monomial the
alternating sum of its words, a tensor product the product of its factors'
tensors, and a dual basis vector the child's tensor divided by its squared
tensor norm, with its modes marked dual.  To act, embed the coordinates,
then contract the modes cyclically: apply g (g^{-T} on a dual mode) to the
leading mode in one batched GEMM and move it to the end, k times, which
restores the mode order; read each coordinate back from one word of its
basis vector (distinct basis vectors have disjoint word supports).  Entries
may be floats or exact ``Fraction``s; the exact path is used whenever both
the group element and the vector are rational.  Norms are floats, of a
rational vector rounded once; its support by weight is read exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Optional, Tuple, Union

import numpy as np

from . import exactlin
from .cartan import CartanVector, Cocharacter, SimpleSystem
from .errors import DimensionError, NonFiniteError, ParseError, ZeroVectorError

NEG_INF = float("-inf")

# Representation.weight_margin_sq enumerates at most this many candidate
# weight sets: every ladder and test pair has at most 260 (sym(2,std) n=4),
# while sym(2,std) n=5 has 2,942 and sym(3,std) n=6 about 11.5 million
_MARGIN_SETS = 1000


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
    """A concrete representation: its monomial weight basis and that basis'
    embedding in a tensor power of the standard representation.

    Basis vector i is a monomial in the child basis vectors ``index[i]``;
    ``weights[i]`` is its torus character, an exact ``CartanVector``, and
    ``gram[i]`` its (positive rational) squared norm.  Distinct-weight basis
    vectors are orthogonal since the inner product is diagonal.  Vector i
    embeds into (R^n)^{(x)k}, k = len(dual), as ``words[i]``, a tuple of
    (flat word, coefficient) pairs; g acts on mode m of a word, or g^{-T}
    where ``dual[m]``.  Distinct basis vectors have disjoint word supports.
    """

    spec: RepSpec
    n: int
    index: Tuple[Tuple[int, ...], ...]
    weights: Tuple[CartanVector, ...]
    gram: Tuple[Fraction, ...]
    words: Tuple[Tuple[Tuple[int, Union[int, Fraction]], ...], ...]
    dual: Tuple[bool, ...]

    @property
    def dim(self) -> int:
        return len(self.weights)

    @cached_property
    def scatter(self):
        """Flat arrays of the embedding: every word, its basis vector, and
        the head word of each basis vector (its first), from which that
        coordinate is read back; then {exact: (coefficients of all words,
        coefficients of the heads)}."""
        pairs = [(w, i, c) for i, ws in enumerate(self.words) for w, c in ws]
        rows = np.array([w for w, _, _ in pairs], dtype=np.intp)
        cols = np.array([i for _, i, _ in pairs], dtype=np.intp)
        coef = np.array([Fraction(c) for _, _, c in pairs], dtype=object)
        head = np.searchsorted(cols, np.arange(len(self.words)))
        return rows, cols, rows[head], {
            exact: (c, c[head])
            for exact, c in ((True, coef), (False, coef.astype(float)))}

    @cached_property
    def gram_f(self) -> np.ndarray:
        """``gram`` as floats."""
        return np.asarray([float(g) for g in self.gram])

    @cached_property
    def weights_f(self) -> np.ndarray:
        """``weights`` as a float (dim, n) array, one row per basis vector."""
        return np.asarray([w.as_floats() for w in self.weights])

    @cached_property
    def weight_groups(self):
        """Basis indices grouped by weight: ``(weight, indices)`` pairs in the
        order of the weight coordinates; the exact layer names a weight by its row."""
        groups: dict = {}
        for i, w in enumerate(self.weights):
            groups.setdefault(w, []).append(i)
        return tuple((w, np.asarray(idx, dtype=np.intp))
                     for w, idx in sorted(groups.items(), key=lambda kv: kv[0].coords))

    @cached_property
    def weight_blocks(self):
        """``weight_groups`` by size: for each size, the groups' positions
        and their indices as one (groups, size) array, so that one gather
        and one sum serve all the groups of that size."""
        sizes: dict = {}
        for j, (_, idx) in enumerate(self.weight_groups):
            sizes.setdefault(len(idx), []).append(j)
        return tuple((np.asarray(cols), np.stack([self.weight_groups[j][1] for j in cols]))
                     for cols in sizes.values())

    @cached_property
    def weight_ints(self) -> np.ndarray:
        """n times each weight of ``weight_groups``, as rows of Python ints
        (every weight lies in (1/n)Z^n)."""
        return np.array([[int(c * self.n) for c in w.coords] for w, _ in self.weight_groups],
                        dtype=object)

    @cached_property
    def weight_gram(self) -> list:
        """The integer Gram matrix of ``weight_ints``, as lists."""
        return self.weight_ints.dot(self.weight_ints.T).tolist()

    def levels(self, u: CartanVector) -> np.ndarray:
        """For each weight lambda of ``weight_groups``, the sign of
        <lambda, u> - |u|^2: -1 below the face {lambda : <lambda, u> = |u|^2}
        of the exact u, 0 on it and 1 above.  With u = U / D (``u.ints``),
        that is the sign of <n lambda, U> D - n <U, U>: exact integer
        arithmetic."""
        du, d = np.array(u.ints[0], dtype=object), u.ints[1]
        return np.sign(self.weight_ints.dot(du) * d - self.n * du.dot(du)).astype(int)

    @cached_property
    def weight_margin_sq(self) -> Optional[Fraction]:
        """gamma(rho)^2, the least nonzero squared norm of the min-norm point
        of at most n distinct weights, exactly; None when no such point is
        nonzero, or when there are more than ``_MARGIN_SETS`` candidate sets.

        A nonzero min-norm point u of a weight set lies in the hull of an
        affinely independent subset T, with barycentric weights lam > 0 and
        <u, t> = ||u||^2 on T.  So the Gram matrix G of T is nonsingular,
        y = lam / ||u||^2 solves G y = 1, and ||u||^2 = 1 / sum(y).
        Conversely, when G y = 1 has a solution y > 0, the point
        u = y / sum(y) of the hull of T pairs with each t to ||u||^2, so it
        is the min-norm point of T.  The distinct weights are invariant
        under the coordinate permutations (the Weyl group), which keep
        norms, so T can be taken to hold one dominant weight and at most
        n - 1 others.  No Wolfe run is needed.  G is taken as the integer
        Gram matrix n^2 G of ``weight_ints``, whose solution y / q gives q / (n^2 sum(y)).
        """
        ints, gram = self.weight_ints, self.weight_gram
        dominant = [i for i, w in enumerate(ints.tolist()) if w == sorted(w, reverse=True)]
        count = len(dominant) * sum(math.comb(len(ints) - 1, k) for k in range(self.n))
        if count > _MARGIN_SETS:
            return None
        norms_sq = []
        for d in dominant:
            others = [i for i in range(len(ints)) if i != d]
            for t in ((d, *rest) for size in range(self.n) for rest in combinations(others, size)):
                try:
                    y, q = exactlin.solve([[gram[i][j] for j in t] for i in t], [1] * len(t))
                except ZeroDivisionError:  # T is linearly dependent; a subset gives its u
                    continue
                if all(c > 0 for c in y):
                    norms_sq.append(Fraction(q, self.n ** 2 * sum(y)))
        return min(norms_sq, default=None)


def _distinct_orderings(idx: Tuple[int, ...]) -> list:
    """The distinct orderings of the sorted tuple ``idx``, in lexicographic
    order: each distinct first entry, ascending, before the orderings of
    the rest.  Only the multinomial number of them is made, not all k!."""
    if not idx:
        return [()]
    return [(x, *rest) for i, x in enumerate(idx) if i == 0 or idx[i - 1] != x
            for rest in _distinct_orderings(idx[:i] + idx[i + 1:])]


@lru_cache(maxsize=None)
def build_rep(spec: RepSpec, n: int) -> Representation:
    """The representation of ``spec`` for SL(n), built once per (spec, n)."""
    if n < 2:
        raise DimensionError("n must be at least 2")
    if isinstance(spec, Standard):
        weights = []
        for i in range(n):
            coords = [Fraction(-1, n)] * n
            coords[i] += 1
            weights.append(CartanVector(coords))
        return Representation(spec=spec, n=n, index=tuple((i,) for i in range(n)),
                              weights=tuple(weights), gram=(Fraction(1),) * n,
                              words=tuple(((i, 1),) for i in range(n)), dual=(False,))
    if isinstance(spec, Dual):
        # the dual basis vector of a child basis tensor t is t / <t, t>
        b = build_rep(spec.base, n)
        return Representation(spec=spec, n=n, index=tuple((i,) for i in range(b.dim)),
                              weights=tuple(w.scale(-1) for w in b.weights),
                              gram=tuple(1 / g for g in b.gram),
                              words=tuple(tuple((w, Fraction(c) / sum(x * x for _, x in ws))
                                                for w, c in ws) for ws in b.words),
                              dual=tuple(not d for d in b.dual))
    if isinstance(spec, Tensor):
        slots = (build_rep(spec.left, n), build_rep(spec.right, n))
        index = product(*(range(s.dim) for s in slots))

        def arrangements(idx):
            return [(1, idx)]
    elif isinstance(spec, (Wedge, Sym)):
        child = build_rep(spec.base, n)
        d = child.dim
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
                return [(1, w) for w in _distinct_orderings(idx)]
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
    return Representation(spec=spec, n=n, index=index, weights=tuple(weights),
                          gram=tuple(gram), words=tuple(words),
                          dual=sum((s.dual for s in slots), ()))


def basis_labels(rep: Representation) -> Tuple[str, ...]:
    """Human-readable monomial labels, for tables and debugging."""

    def label(spec, i) -> str:
        idx = build_rep(spec, rep.n).index[i]
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


_DET_TOL = 1e-9


def check_unimodular_float(mat: np.ndarray) -> np.ndarray:
    """Check det = 1 up to what the conditioning of ``mat`` permits, for one
    matrix or for every matrix of a stack, and return the inverse.

    The float determinant of a matrix with condition number kappa carries a
    relative error of order kappa * eps, so the tolerance scales with a
    Frobenius estimate of kappa; blunders (wrong sign, det far from 1) are
    still rejected at every scale.  A NaN or infinite entry raises
    ``NonFiniteError``.
    """
    finite = np.isfinite(mat)
    if not finite.all():
        bad = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteError(f"group element entry {bad} is {mat[bad]}")
    sign, logdet = np.linalg.slogdet(mat)
    if (sign <= 0).any():
        raise ValueError("group element must have determinant 1 (got sign <= 0)")
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise ValueError("group element is numerically singular")
    # squared Frobenius estimate of kappa
    cond_sq = (mat * mat).sum(axis=(-2, -1)) * (inv * inv).sum(axis=(-2, -1))
    bad = logdet * logdet > _DET_TOL * _DET_TOL * np.maximum(1.0, cond_sq)
    if bad.any():
        raise ValueError(f"group element must have determinant 1, "
                         f"got log|det| = {np.ravel(logdet)[np.ravel(bad)][0]}")
    return inv


def _as_group_matrix(g, n: int):
    """Validate shape and unimodularity of ``g``, or of every matrix of a
    float stack (S, n, n); return (matrix, float inverse or None, exact flag)."""
    exact = (not isinstance(g, np.ndarray) or g.dtype == object) \
        and all(exactlin.is_exact(row) for row in g)
    mat = (np.array([[Fraction(x) for x in row] for row in g], dtype=object)
           if exact else np.asarray(g, dtype=float))
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (n, n):
        raise DimensionError(f"group element must be {n}x{n}, got {mat.shape}")
    if exact:
        if exactlin.det(mat.tolist()) != 1:
            raise ValueError("group element must have determinant 1")
        return mat, None, True
    return mat, check_unimodular_float(mat), False


def _apply(rep: Representation, g: np.ndarray, vec: np.ndarray,
           g_inv: np.ndarray | None = None) -> np.ndarray:
    """Act with ``g``, or with every matrix of a stack (S, n, n), on ``vec``
    through the tensor embedding: one batched GEMM per mode, modes rotated.

    Embed ``vec`` in (R^n)^{(x)k} as an (n, n^(k-1)) matrix, rows over the
    leading mode.  Each step contracts that mode with g (g^{-T} on a dual
    mode) and moves it to the end, t <- t^T g^T, so after k steps the modes
    are back in order; each coordinate is read back from the head word of
    its basis vector.  ``g`` and ``vec`` are both float arrays or both object
    arrays of ``Fraction``s; ``g_inv`` is the inverse of ``g`` when the
    caller has it.  Returns (dim,), or (S, dim) for a stack.
    """
    rows, cols, heads, coefs = rep.scatter
    exact = vec.dtype == object
    (coef, head_coef), n = coefs[exact], rep.n
    stack = g.shape[:-2]
    g = g.reshape(-1, n, n)
    if any(rep.dual):
        if g_inv is None:
            g_inv = (np.array([exactlin.inv(m.tolist()) for m in g], dtype=object)
                     if exact else np.linalg.inv(g))
        g_inv = g_inv.reshape(-1, n, n)
    t = np.zeros((1, n, n ** (len(rep.dual) - 1)), dtype=vec.dtype)
    t.flat[rows] = coef * vec[cols]
    for dual in rep.dual:
        t = (t.swapaxes(1, 2) @ (g_inv if dual else g.swapaxes(1, 2))).reshape(len(g), n, -1)
    return (t.reshape(len(g), -1)[:, heads] / head_coef).reshape(stack + (rep.dim,))


def _vector_in(rep: Representation, v):
    numeric = isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind in "iuf"
    coords = v if numeric else list(v)
    if len(coords) != rep.dim:
        raise DimensionError(f"vector length {len(coords)} != rep dim {rep.dim}")
    if not numeric and exactlin.is_exact(coords):  # numpy scalars are never exact
        return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coords), True
    # a numeric ndarray converts in one call; float() rejects the other entries
    # that np.asarray would read as NaN, such as None
    vec = np.asarray(coords, dtype=float) if numeric else np.asarray([float(c) for c in coords])
    if not np.isfinite(vec).all():
        bad = np.flatnonzero(~np.isfinite(vec))[0]
        raise NonFiniteError(f"vector entry {bad} is {vec[bad]}")
    return vec, False


def act(rep: Representation, g, v):
    """Apply ``g`` to ``v``; exact when both inputs are rational.

    ``g`` may also be a float stack (S, n, n) of group elements, each
    checked to be unimodular; the result is then the (S, dim) array of
    their images of ``v``, computed in one pass.  Satisfies
    ``act(rep, g1 @ g2, v) == act(rep, g1, act(rep, g2, v))``.
    """
    mat, inv, g_exact = _as_group_matrix(g, rep.n)
    vec, v_exact = _vector_in(rep, v)
    dtype = object if g_exact and v_exact else float
    out = _apply(rep, np.asarray(mat, dtype=dtype), np.asarray(vec, dtype=dtype), inv)
    return tuple(out.tolist()) if dtype is object else out


# ---------------------------------------------------------------------------
# Norms, weight components, valuations


# a weight component below this share of the vector's norm counts as zero
_EPS = 1e-10


def pow2_scaled(vec: np.ndarray):
    """``(vec / 2^e, e)`` with 2^e the power of two just above max|vec_i|;
    each row of a 2-D array by its own e (an array of them).

    Scaling by a power of two is exact, so squares of the scaled entries
    neither overflow nor underflow, and results scaled back by 2^e are
    bit-identical to unscaled arithmetic wherever that stays in range.
    """
    e = np.frexp(np.max(np.abs(vec), axis=-1, initial=0.0))[1]
    return np.ldexp(vec, -e[..., None]), (int(e) if e.ndim == 0 else e)


def scaled_floats(rep: Representation, v):
    """``(x, e)`` with x = ``pow2_scaled(v)`` and v = x * 2^e; a rational
    v is divided by a power of two near max|v_i| before rounding, so no
    scale of it over- or underflows, and v = x * 2^e up to that rounding.
    Each nonzero p/q becomes one correctly rounded integer division, as
    ``float(Fraction)`` does, with the power of two shifted into p or q."""
    vec, exact = _vector_in(rep, v)
    shift = 0
    if exact:
        top = max((abs(x) for x in vec if x), default=Fraction(0))  # abs makes a Fraction
        shift = top.numerator.bit_length() - top.denominator.bit_length()
        up, down = max(-shift, 0), max(shift, 0)
        vec = np.asarray([(x.numerator << up) / (x.denominator << down) if x else 0.0
                          for x in vec])
    scaled, e = pow2_scaled(vec)
    return scaled, e + shift


def _weighted_squares(rep: Representation, v, exp2: int = 0):
    """Floats ``(q, e)``, q_i = gram_i x_i^2 with v * 2^exp2 = x * 2^e:
    x is ``scaled_floats(v)``, which rounds a rational v once, or
    ``pow2_scaled`` of each row of a 2-D float ndarray, each with its e."""
    if isinstance(v, np.ndarray) and v.ndim == 2:
        scaled, e = pow2_scaled(v.astype(float, copy=False))
    else:
        scaled, e = scaled_floats(rep, v)
    return rep.gram_f * scaled ** 2, e + exp2


def _log_norm(s: float, e: int) -> float:
    """log(sqrt(s) * 2^e) of a sum of weighted squares, -inf for zero; the
    log of that product itself while it is a normal float."""
    if not s:
        return NEG_INF
    x = math.sqrt(s)
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        y = math.inf
    if sys.float_info.min <= y < math.inf:
        return math.log(y)
    return math.log(x) + e * math.log(2.0)


def rep_norm(rep: Representation, v) -> float:
    """SO(n)-invariant norm of ``v`` (weight spaces orthogonal); inf beyond
    the float range, where ``log_rep_norm`` stays finite."""
    q, e = _weighted_squares(rep, v)
    try:
        return math.ldexp(math.sqrt(q.sum()), e)
    except OverflowError:
        return math.inf


def log_rep_norm(rep: Representation, v, exp2: int = 0):
    """log of ``rep_norm(v * 2^exp2)``, computed in a scale-safe way (-inf
    for zero).  For a 2-D float ndarray, the array of its rows' log norms."""
    q, e = _weighted_squares(rep, v, exp2)
    if q.ndim == 2:
        # _log_norm row by row, bit for bit: sqrt and ldexp are exact or
        # correctly rounded in numpy too, and math.log takes the rows whose
        # norm is a normal float; zero, subnormal and overflowing rows keep
        # the scalar path
        s = q.sum(axis=1)
        with np.errstate(over="ignore"):
            y = np.ldexp(np.sqrt(s), e)
        normal = (y >= sys.float_info.min) & (y < math.inf)
        out = np.empty(len(s))
        out[normal] = list(map(math.log, y[normal].tolist()))
        rest = ~normal
        out[rest] = [_log_norm(x, k) for x, k in zip(s[rest].tolist(), e[rest].tolist())]
        return out
    return _log_norm(q.sum(), e)


def weight_components(rep: Representation, v, exp2: int = 0):
    """Split ``v * 2^exp2``, or each row of a 2-D float ndarray (S, dim),
    into weight components; a vector is a stack of one.

    Returns ``(active, sums, e)``: the (S, G) mask of the components
    above ``_EPS * ||v||``, column j for row j of ``weight_groups``; their
    float sums of weighted squares; and the S exponents of the rows, so
    that ``_log_norm(sums[i, j], e[i])`` is the log norm of an active
    entry.  A rational ``v`` is rounded once, by
    ``scaled_floats`` (its exact support is ``active_weights``); ``exp2``
    lets a caller pass those floats for a vector beyond the float range.
    """
    q, e = _weighted_squares(rep, v, exp2)
    q = q.reshape(-1, q.shape[-1])
    total = q.sum(axis=1)
    if not total.all():
        raise ZeroVectorError("zero vector has no weight components")
    sums = np.empty((len(q), len(rep.weight_groups)))
    for cols, idx in rep.weight_blocks:
        # take gives C-ordered groups, each summed like a vector of its own
        sums[:, cols] = q.take(idx, axis=1).sum(axis=2)
    active = np.sqrt(sums) > _EPS * np.sqrt(total)[:, None]
    return active, sums, np.reshape(e, -1)


def moment_map(rep: Representation, w) -> np.ndarray:
    """The traceless symmetric mu(w) with <mu(w), X> = d/dt log||rho(exp(tX))w||
    at t = 0 for every traceless symmetric X.

    For the tensor T of w, g acts on standard modes and g^{-T} on dual
    ones, so mu is the traceless part of sum_m +-T_(m) T_(m)^T / ||T||^2
    over the mode unfoldings T_(m) (minus on dual modes).  The rep norm is
    a constant multiple of ||T||, and mu does not depend on the scale of w.
    """
    rows, cols, _, coefs = rep.scatter
    n, k = rep.n, len(rep.dual)
    vec = scaled_floats(rep, w)[0]
    t = np.zeros(n ** k)
    t[rows] = coefs[False][0] * vec[cols]
    total = float(t @ t)
    if not total:
        raise ZeroVectorError("zero vector has no moment map")
    t = t.reshape((n,) * k)
    mu = np.zeros((n, n))
    for mode, dual in enumerate(rep.dual):
        m = np.moveaxis(t, mode, 0).reshape(n, -1)
        mu += (-1.0 if dual else 1.0) * (m @ m.T)
    mu /= total
    return mu - np.trace(mu) / n * np.eye(n)


def active_weights(rep: Representation, v) -> list:
    """The rows of ``weight_groups`` in the support of ``v``, ascending:
    exactly those of its nonzero coordinates for a rational ``v``, and for
    floats those whose component is above ``_EPS * ||v||``."""
    vec, exact = _vector_in(rep, v)
    if not exact:
        return np.flatnonzero(weight_components(rep, vec)[0][0]).tolist()
    nonzero = np.array([x != 0 for x in vec])
    if not nonzero.any():
        raise ZeroVectorError("zero vector has no weight components")
    return [j for j, (_, idx) in enumerate(rep.weight_groups) if nonzero[idx].any()]


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
    index = rep.index.index(target)
    v = np.zeros(rep.dim)
    v[index] = 1.0
    return rep, v


def m_value(rep: Representation, v, tau: Cocharacter) -> int:
    """Minimal tau-exponent over the nonzero components of ``v``.

    This is the valuation at t=0 of t -> rho(tau(t)) v: the group element
    tau(t) scales each weight component by t^<weight, tau>, and the smallest
    exponent present controls the decay.  Scales linearly in tau.
    """
    if tau.n != rep.n:
        raise DimensionError("cocharacter dimension mismatch")
    if all(e == 0 for e in tau.exps):
        raise ZeroVectorError("zero cocharacter")
    return min(rep.weight_groups[j][0].pair_int(tau) for j in active_weights(rep, v))
