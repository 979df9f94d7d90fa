"""Reference computations for the benchmark's correctness checks.

Nothing here calls into ``instab``.  Every representation is rebuilt from
its spec string as a space of tensors in the k-th tensor power of R^n: a
basis element is a dense tensor (sum of its distinct words for symmetric
monomials, alternating sum over sqrt(k!) for wedge monomials, Kronecker
product for tensors, dual basis vector for duals), enumerated in the
package's lexicographic basis order.  Weights, norms and the group action
(g on standard modes, g^{-T} on dual modes) are read off those tensors, so
the checks share only the basis order and the spec grammar with the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np


# ---------------------------------------------------------------------------
# Spec grammar: std | dual(R) | wedge(k,R) | sym(k,R) | R * R


def parse_spec(text: str):
    """Nested tuples: "std", ("dual", R), ("wedge", k, R), ("sym", k, R),
    ("tensor", L, R); tensor products associate to the left."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ") \
        .replace("*", " * ").split()
    spec, pos = _expr(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return spec


def _expr(tokens, pos):
    spec, pos = _atom(tokens, pos)
    while pos < len(tokens) and tokens[pos] == "*":
        right, pos = _atom(tokens, pos + 1)
        spec = ("tensor", spec, right)
    return spec, pos


def _atom(tokens, pos):
    head = tokens[pos]
    if head == "std":
        return "std", pos + 1
    if head == "(":
        spec, pos = _expr(tokens, pos + 1)
        return spec, pos + 1
    if head == "dual":
        spec, pos = _expr(tokens, pos + 2)
        return ("dual", spec), pos + 1
    if head in ("wedge", "sym"):
        k = int(tokens[pos + 2])
        spec, pos = _expr(tokens, pos + 4)
        return (head, k, spec), pos + 1
    raise ValueError(f"unexpected token {head!r}")


# ---------------------------------------------------------------------------
# Tensor model of a representation


@dataclass(frozen=True)
class TensorRep:
    """Basis tensors of a representation inside (R^n)^{tensor k}.

    ``basis[b]`` has shape (n,)*k; ``dual_modes[m]`` says whether mode m
    transforms by g^{-T}; ``weights[b]`` are exact traceless coordinates.
    """

    basis: tuple
    dual_modes: tuple
    weights: tuple

    def embed(self, v) -> np.ndarray:
        out = np.zeros(self.basis[0].shape)
        for c, e in zip(v, self.basis):
            if c != 0:
                out += float(c) * e
        return out

    def act(self, g, t: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        ginv_t = np.linalg.inv(g).T
        for m, dual in enumerate(self.dual_modes):
            t = np.moveaxis(np.tensordot(ginv_t if dual else g, t, axes=([1], [m])), 0, m)
        return t

    def log_norm(self, g, v) -> float:
        return math.log(float(np.linalg.norm(self.act(g, self.embed(v)))))

    def coordinates(self, t: np.ndarray) -> np.ndarray:
        """Coordinates of tensor ``t`` in the (orthogonal) basis."""
        return np.asarray([float(np.sum(t * e)) / float(np.sum(e * e))
                           for e in self.basis])

    def active_weights(self, v, frame=None, rel_eps: float = 1e-6):
        """Distinct weights of the nonzero components of rho(frame) v.

        Exact for rational v at the identity frame; otherwise a component
        counts when its norm exceeds ``rel_eps`` times the norm of v.
        """
        if frame is None and all(isinstance(c, (int, Fraction)) for c in v):
            return sorted({w for c, w in zip(v, self.weights) if c != 0})
        t = self.embed(v)
        if frame is not None:
            t = self.act(frame, t)
        coords = self.coordinates(t)
        norms = np.asarray([float(np.linalg.norm(e)) for e in self.basis])
        total = float(np.linalg.norm(t))
        return sorted({w for c, s, w in zip(coords, norms, self.weights)
                       if abs(c) * s > rel_eps * total})


def tensor_rep(spec_text: str, n: int) -> TensorRep:
    basis, modes = _basis(parse_spec(spec_text), n)
    weights = tuple(_weight(e, modes, n) for e in basis)
    return TensorRep(basis=tuple(basis), dual_modes=tuple(modes), weights=weights)


def _basis(spec, n):
    if spec == "std":
        return [np.eye(n)[i] for i in range(n)], [False]
    kind = spec[0]
    if kind == "dual":
        basis, modes = _basis(spec[1], n)
        return [e / float(np.sum(e * e)) for e in basis], [not m for m in modes]
    if kind == "tensor":
        lb, lm = _basis(spec[1], n)
        rb, rm = _basis(spec[2], n)
        return [np.multiply.outer(a, b) for a, b in product(lb, rb)], lm + rm
    k, (child, modes) = spec[1], _basis(spec[2], n)
    out = []
    if kind == "wedge":
        for idx in combinations(range(len(child)), k):
            t = sum(_sign(p) * _outer([child[idx[i]] for i in p])
                    for p in permutations(range(k)))
            out.append(t / math.sqrt(math.factorial(k)))
    else:
        for idx in combinations_with_replacement(range(len(child)), k):
            out.append(sum(_outer([child[i] for i in word])
                           for word in set(permutations(idx))))
    return out, modes * k


def _outer(parts):
    t = parts[0]
    for p in parts[1:]:
        t = np.multiply.outer(t, p)
    return t


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _weight(e: np.ndarray, modes, n: int):
    """Weight of a basis tensor, read off any one of its words."""
    word = np.unravel_index(int(np.argmax(np.abs(e))), e.shape)
    counts = [Fraction(0)] * n
    for axis, dual in zip(word, modes):
        counts[axis] += -1 if dual else 1
    mean = sum(counts) / n
    return tuple(c - mean for c in counts)


# ---------------------------------------------------------------------------
# Min-norm point and wedge norms


def enumerated_min_norm(points) -> np.ndarray:
    """Min-norm point of conv(points) by enumerating affine supports.

    The optimum is the affine minimizer of some subset of at most dim+1
    points with nonnegative barycentric coordinates.
    """
    pts = np.asarray([[float(x) for x in p] for p in points])
    m, dim = pts.shape
    best_val, best_x = math.inf, None
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
                lam = np.linalg.solve(a, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.min(lam) < -1e-12:
                continue
            x = lam @ sub
            if float(x @ x) < best_val:
                best_val, best_x = float(x @ x), x
    return best_x


def log_wedge_norm(a: np.ndarray, cols) -> float:
    """log of the norm of the wedge of columns ``cols`` of ``a``
    (Cauchy-Binet: the norm squared is the Gram determinant)."""
    m = a[:, list(cols)]
    _, logdet = np.linalg.slogdet(m.T @ m)
    return 0.5 * logdet


def sample_group(rng: np.random.Generator, n: int, box: float) -> np.ndarray:
    """k1 exp(diag(a)) k2 with orthogonal k's and traceless a in the box."""
    def orth():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q
    a = rng.uniform(-box, box, size=n)
    return orth() @ np.diag(np.exp(a - a.mean())) @ orth()
