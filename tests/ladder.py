"""The fixed input ladder that ROADMAP reports figures on.

400 sparse integer vectors cycling over 7 (spec, n) pairs: entry i lives in
``PAIRS[i % 7]``, and each of its coordinates is uniform in [-3, 3] and
kept with probability 0.35 (0 otherwise), all drawn from one
``default_rng(5)``.
"""

import numpy as np

from instab import build_rep, parse_rep_spec

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
