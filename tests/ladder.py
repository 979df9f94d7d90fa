"""The fixed input ladder that ROADMAP reports figures on.

400 sparse integer vectors cycling over 7 (spec, n) pairs: entry i lives in
``PAIRS[i % 7]``, and each of its coordinates is uniform in [-3, 3] and
kept with probability 0.35 (0 otherwise), all drawn from one
``default_rng(5)``.

The rotated ladder acts on each nonzero entry, exactly, with a rational
rotation, so that the identity flat of its input is rarely optimal.
"""

from fractions import Fraction

import numpy as np

from instab import act, build_rep, parse_rep_spec
from instab.exactlin import inv

PAIRS = [("std", 3), ("wedge(2,std)", 4), ("sym(2,std)", 3), ("sym(3,std)", 2),
         ("std*wedge(2,std)", 3), ("sym(2,std)", 4), ("std*std", 3)]
SIZE = 400


def ladder():
    """The (spec, n, vector) entries of the ladder, each vector a list of ints."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(SIZE):
        spec, n = PAIRS[i % len(PAIRS)]
        dim = build_rep(parse_rep_spec(spec), n).dim
        x = rng.integers(-3, 4, size=dim)
        keep = rng.random(dim) < 0.35
        out.append((spec, n, [int(a) if k else 0 for a, k in zip(x, keep)]))
    return out


def rotated_ladder():
    """The (spec, n, vector) entries of the nonzero ladder vectors, each
    acted on exactly by the Cayley rotation q = (I - A)(I + A)^-1.

    A is skew-symmetric, and its entries above the diagonal are a/b with a
    uniform in [-2, 2] and b in [1, 3], drawn as a then b, row-major, from
    one ``default_rng(11)`` in ladder order.  q is rational and orthogonal
    with det 1, so each vector stays exact and keeps every invariant.
    """
    rng = np.random.default_rng(11)
    out = []
    for spec, n, v in ladder():
        if not any(v):
            continue
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                num = int(rng.integers(-2, 3))
                a[i][j] = Fraction(num, int(rng.integers(1, 4)))
                a[j][i] = -a[i][j]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        minus = [[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
        plus_inv = inv([[eye[i][j] + a[i][j] for j in range(n)] for i in range(n)])
        q = [[sum(minus[i][k] * plus_inv[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        out.append((spec, n, list(act(build_rep(parse_rep_spec(spec), n), q, v))))
    return out
