"""Small dense linear algebra over the exact rationals.

``solve``, ``det`` and ``inv`` are thin calls to one fraction-free
Gauss-Jordan elimination, ``_eliminate`` (Bareiss, Math. Comp. 22, 1968):
each row is scaled to integers once, and from then on every entry is an
integer minor, so no step normalises a ``Fraction``.  Entries must be
``int`` or ``Fraction``; a float raises ``ValueError``.  Matrices here are
tiny (corral Gram systems, group elements), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence


def is_exact(values) -> bool:
    """Each entry is an int or a Fraction and no bool; the exact type is tested first."""
    return all(type(v) in (int, Fraction) or isinstance(v, (int, Fraction))
               and not isinstance(v, bool) for v in values)


def _eliminate(a: Sequence[Sequence], b: Sequence[Sequence]):
    """Reduce ``[a | b]`` by fraction-free Gauss-Jordan elimination,
    pivoting on the first nonzero entry of each column.  ``b`` holds one
    row of right-hand sides per row of ``a``, possibly empty.  Returns
    ``(det a, a^-1 b)``, or ``(0, None)`` when ``a`` is singular.

    Each row is first scaled to integers by the lcm of its denominators.
    After the step on column k every entry is a (k+1)-minor, so each
    ``// prev`` is exact, and the left block ends as (last pivot) * I.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError("elimination expects a square matrix and one right-hand row per row")
    if not all(is_exact(row) for row in (*a, *b)):
        raise ValueError("exact elimination needs int or Fraction entries")
    m, scale = [], 1
    for row, rhs in zip(a, b):
        s = lcm(*(x.denominator for x in (*row, *rhs)))
        m.append([x.numerator * (s // x.denominator) for x in (*row, *rhs)])
        scale *= s
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
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
    return Fraction(sign * prev, scale), [[Fraction(x, prev) for x in row[n:]] for row in m]


def solve(a: Sequence[Sequence], b: Sequence) -> List[Fraction]:
    """Solve ``a x = b`` exactly; raises ``ZeroDivisionError`` if ``a`` is
    singular."""
    _, x = _eliminate(a, [[y] for y in b])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    return [row[0] for row in x]


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant."""
    return _eliminate(a, [[] for _ in a])[0]


def inv(a: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse; raises ``ZeroDivisionError`` if ``a`` is singular."""
    n = len(a)
    _, x = _eliminate(a, [[int(i == j) for j in range(n)] for i in range(n)])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    return x

