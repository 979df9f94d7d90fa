"""Root data and character arithmetic for the diagonal torus of SL(n).

Directions in the maximal flat are traceless real (or exact rational)
n-vectors, ``CartanVector``s.  A torus character (weight) is the exact
``CartanVector`` of its canonical sum-zero rational representative, paired
with directions by the trace form and with integer cocharacters by
``pair_int``; its negative is ``scale(-1)``.  On traceless
matrices the trace form tr(XY) is the Killing form divided by 2n, so chamber
structure, normalized directions and argmax problems are unchanged by the
choice; certificates record ``form: "trace"``.

Coordinate orderings (simple systems) are 0-based permutations of the n
diagonal entries; position i of the permutation names the coordinate in the
i-th slot of the induced chamber, with simple roots
``e[perm[i]] - e[perm[i+1]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import frexp, lcm, ldexp, sqrt
from typing import Sequence, Tuple, Union

from .errors import DimensionError, ZeroVectorError
from . import exactlin

Scalar = Union[int, float, Fraction]

_FLOAT_SUM_TOL = 1e-12


def _coerce(values) -> Tuple[Scalar, ...]:
    out = []
    for v in values:
        if isinstance(v, bool):
            raise TypeError("bool is not a coordinate")
        if isinstance(v, int):
            out.append(Fraction(v))
        elif isinstance(v, (Fraction, float)):
            out.append(v)
        else:
            raise TypeError(f"unsupported coordinate type {type(v)!r}")
    return tuple(out)


@dataclass(frozen=True)
class CartanVector:
    """A traceless direction in the flat of diagonal matrices.

    Coordinates sum to 0: exactly for rationals, within 1e-12 (relative to
    the largest entry) for floats.
    """

    coords: Tuple[Scalar, ...]

    def __init__(self, coords: Sequence[Scalar]):
        coords = _coerce(coords)
        if len(coords) < 2:
            raise DimensionError("need at least 2 coordinates")
        total = sum(coords)
        if exactlin.is_exact(coords):
            if total != 0:
                raise ValueError(f"coordinates must sum to 0, got {total}")
        else:
            if abs(float(total)) > _FLOAT_SUM_TOL * max(abs(float(c)) for c in coords):
                raise ValueError(f"coordinates must sum to 0, got {float(total)}")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return exactlin.is_exact(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def norm_sq(self) -> Scalar:
        return sum(c * c for c in self.coords)

    def _scaled_floats(self) -> Tuple[Tuple[float, ...], int]:
        """``(x, e)`` with x = coords / 2^e as floats and 2^e the power of
        two just above max|c|.  ``ldexp`` scales exactly, and the largest
        square of x lies in [1/4, 1): no square overflows, and their sum is
        not 0, even for subnormal coordinates."""
        e = frexp(max(abs(float(c)) for c in self.coords))[1]
        return tuple(ldexp(float(c), -e) for c in self.coords), e

    @cached_property
    def ints(self) -> Tuple[Tuple[int, ...], int]:
        """``(U, D)``: exact coordinates U / D, D > 0 their least common denominator."""
        d = lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (d // c.denominator) for c in self.coords), d

    def norm(self) -> float:
        if self.is_exact:  # int / int rounds once, as float(Fraction) does
            num, d = self.ints
            return sqrt(sum(x * x for x in num) / (d * d))
        # the bits are kept wherever the unscaled squares stay in range
        x, e = self._scaled_floats()
        return ldexp(sqrt(sum(c * c for c in x)), e)

    def unit(self) -> "CartanVector":
        if self.is_exact:
            nrm, (num, d) = self.norm(), self.ints
            coords = [x / d for x in num]
        else:
            coords, _ = self._scaled_floats()
            nrm = sqrt(sum(c * c for c in coords))
        if nrm == 0:
            raise ZeroVectorError("cannot normalize the zero direction")
        return CartanVector(tuple(c / nrm for c in coords))

    def scale(self, s: Scalar) -> "CartanVector":
        return CartanVector(tuple(c * s for c in self.coords))

    def as_floats(self) -> Tuple[float, ...]:
        return tuple(float(c) for c in self.coords)

    def add(self, other: "CartanVector") -> "CartanVector":
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch: {self.n} vs {other.n}")
        return CartanVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def pair_int(self, tau: "Cocharacter") -> int:
        """Pairing of a weight with an integer cocharacter: an exact integer."""
        num, d = self.ints
        val = sum(x * e for x, e in zip(num, tau.exps))
        if val % d:
            raise ArithmeticError(f"non-integral pairing {Fraction(val, d)}")
        return val // d


@dataclass(frozen=True)
class Cocharacter:
    """An integer one-parameter subgroup of the diagonal torus.

    ``exps`` are the diagonal exponents; they sum to 0.
    """

    exps: Tuple[int, ...]

    def __init__(self, exps: Sequence[int]):
        exps = tuple(int(e) for e in exps)
        if sum(exps) != 0:
            raise ValueError("cocharacter exponents must sum to 0")
        object.__setattr__(self, "exps", exps)

    @property
    def n(self) -> int:
        return len(self.exps)

    def norm_sq(self) -> int:
        return sum(e * e for e in self.exps)

    def norm(self) -> float:
        return sqrt(self.norm_sq())


@dataclass(frozen=True)
class SimpleSystem:
    """An ordering of the n coordinates; determines a simple system.

    The induced simple roots are ``e[perm[i]] - e[perm[i+1]]`` for
    i = 0..n-2, and the closed positive chamber is the set of directions
    whose coordinates are non-increasing along ``perm``.
    """

    perm: Tuple[int, ...]

    def __init__(self, perm: Sequence[int]):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
        object.__setattr__(self, "perm", perm)

    @classmethod
    def identity(cls, n: int) -> "SimpleSystem":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.perm)


def fundamental_weights(n: int, order: SimpleSystem | None = None) -> Tuple[CartanVector, ...]:
    """The n-1 fundamental weights for the given coordinate ordering.

    They satisfy 2<alpha_i, chi_j> / <alpha_i, alpha_i> = delta_ij under the
    trace form.  For the identity ordering, chi_j has j leading entries
    (n-j)/n and the rest -j/n.
    """
    if n < 2:
        raise DimensionError("n must be at least 2")
    if order is None:
        order = SimpleSystem.identity(n)
    if order.n != n:
        raise DimensionError("ordering size does not match n")
    weights = []
    for j in range(1, n):
        coords = [Fraction(-j, n)] * n
        for i in range(j):
            coords[order.perm[i]] = Fraction(n - j, n)
        weights.append(CartanVector(coords))
    return tuple(weights)


def chi_decompose(a: CartanVector, order: SimpleSystem) -> Tuple[Scalar, ...]:
    """Coefficients of the character b -> <a,b>/<a,a> over the fundamental
    weights of ``order``.

    The fundamental weights are dual to the simple roots (each root has
    squared length 2), so the j-th coefficient is
    ``(a[perm[j]] - a[perm[j+1]]) / <a,a>``.  If ``a`` lies in the closed
    positive chamber of ``order``, every coefficient is >= 0.
    """
    if a.is_zero():
        raise ZeroVectorError("cannot decompose the character of the zero direction")
    if order.n != a.n:
        raise DimensionError("ordering size does not match direction")
    nsq = a.norm_sq()
    c = a.coords
    return tuple((c[order.perm[j]] - c[order.perm[j + 1]]) / nsq for j in range(a.n - 1))


def dominant_order(a: CartanVector) -> SimpleSystem:
    """Ordering that sorts the coordinates of ``a`` non-increasingly.

    Ties keep ascending original index (stable sort), so the result is
    deterministic and certificates are reproducible.
    """
    key = a.ints[0] if a.is_exact else a.coords
    return SimpleSystem(tuple(sorted(range(a.n), key=key.__getitem__, reverse=True)))
