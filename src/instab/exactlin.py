"""Small dense linear algebra over the exact rationals.

``solve``, ``det`` and ``inv`` are thin calls to one Gauss-Jordan
elimination, ``_eliminate``.  Entries must be ``int`` or ``Fraction``; a
float raises ``ValueError``.  Matrices here are tiny (corral Gram systems,
group elements), so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence


def is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def _eliminate(a: Sequence[Sequence], b: Sequence[Sequence]):
    """Reduce ``[a | b]`` by Gauss-Jordan elimination over the rationals,
    pivoting on the first nonzero entry of each column.  ``b`` holds one
    row of right-hand sides per row of ``a``, possibly empty.  Returns
    ``(det a, a^-1 b)``, or ``(0, None)`` when ``a`` is singular.
    """
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError("elimination expects a square matrix and one right-hand row per row")
    if not all(is_exact(row) for row in (*a, *b)):
        raise ValueError("exact elimination needs int or Fraction entries")
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
        # column ``col`` is never read again: reduce only the entries right of it
        row = [x / pivot for x in m[col][col + 1:]]
        m[col][col + 1:] = row
        for r in range(n):
            f = m[r][col]
            if r != col and f != 0:
                m[r][col + 1:] = [x - f * y for x, y in zip(m[r][col + 1:], row)]
    return d, [row[n:] for row in m]


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


def primitive_integer_vector(values: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector by the smallest positive rational making all
    entries integers with overall gcd 1.  Direction is preserved."""
    fracs = [Fraction(v) for v in values]
    if all(f == 0 for f in fracs):
        raise ValueError("cannot normalize the zero vector")
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints]
