"""Small dense linear algebra over the integers, and the rationals.

One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
of integer rows.  ``solve`` takes the integer systems of exact Wolfe and the
weight margin; ``det`` and ``inv`` take ``int`` or ``Fraction`` entries (the
exact group action), scale each row to integers once, and reject a float.
Matrices here are tiny, so clarity beats asymptotics."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Sequence, Tuple


def is_exact(values) -> bool:
    """Each entry is an int or a Fraction and no bool; the exact type is tested first."""
    return all(type(v) in (int, Fraction) or isinstance(v, (int, Fraction))
               and not isinstance(v, bool) for v in values)


def _eliminate(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    """Fraction-free Gauss-Jordan elimination of the integer ``[a | b]``,
    ``b`` one row (possibly empty) per row of ``a``, pivoting on the first
    nonzero entry of each column: ``(det a, p, x)`` with a^-1 b = x / p, or
    ``(0, 0, None)`` for a singular ``a``.  After the step on column k every
    entry is a (k+1)-minor, so each ``// prev`` is exact, and the left block
    ends as p * I for the last pivot p."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError("elimination expects a square matrix and one right-hand row per row")
    m = [[*row, *rhs] for row, rhs in zip(a, b)]
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0, 0, None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        # column ``col`` is never read again: update only the entries right of it
        p, row = m[col][col], m[col][col + 1:]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r][col + 1:] = [(p * x - f * y) // prev for x, y in zip(m[r][col + 1:], row)]
        prev = p
    return sign * prev, prev, [row[n:] for row in m]


def solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> Tuple[List[int], int]:
    """``(x, d)``, integers with x / d = a^-1 b in lowest terms and d > 0.  An
    entry that is not an ``int`` (a bool, numpy integer, float or ``Fraction``)
    raises ``ValueError``, and a singular ``a`` ``ZeroDivisionError``."""
    if any(type(x) is not int for row in (*a, b) for x in row):
        raise ValueError("solve needs an integer system: every entry an int")
    _, p, x = _eliminate(a, [[y] for y in b])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    g = gcd(p, *(y for y, in x)) * (1 if p > 0 else -1)
    return [y // g for y, in x], p // g


def _integer_rows(a: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """The rows of ``a``, of int or Fraction entries (else ``ValueError``),
    each scaled to integers by the lcm of its denominators, and the scales."""
    if not all(is_exact(row) for row in a):
        raise ValueError("exact elimination needs int or Fraction entries")
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    return [[x.numerator * (s // x.denominator) for x in row] for s, row in zip(scales, a)], scales


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a rational matrix."""
    m, scales = _integer_rows(a)
    return Fraction(_eliminate(m, [[] for _ in m])[0], prod(scales))


def inv(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a rational matrix, as (S a)^-1 S for the row scales
    S; raises ``ZeroDivisionError`` if ``a`` is singular."""
    m, scales = _integer_rows(a)
    _, p, x = _eliminate(m, [[s * (i == j) for j in range(len(m))] for i, s in enumerate(scales)])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(y, p) for y in row] for row in x]
