"""Seeded workload inputs, each with the answer the checks expect.

A workload is a list of inputs run once per pass: classify, then certify,
then verify the certificate.  ``--seed`` changes the inputs but not their
make-up, so every seed runs the same operations on inputs of the same kind:

- ``acceptance``: the 8 end-to-end inputs of the acceptance suite, each
  scaled by a seeded rational p/q (1 <= p, q <= 9).  Rates do not change
  under scaling; only the constant c moves, by log(p/q).
- ``large-reps``: an extremal weight vector x_a^4 of sym(4,std), n=4, and
  (e_a^e_b)(x)(e_a^e_b)(x)e_a of wedge(2,std)*wedge(2,std)*std, n=4 (dims 35
  and 144), with a seeded coordinate permutation picking a, b and a seeded
  rational scale.  Its rate is the norm of its weight.
- ``numeric``: float vectors: two fixed directions in wedge(2,std), n=3,
  with seeded signs (rate sqrt(2/3) for every nonzero vector, since the
  representation is dual to std); 2 perfect squares (ax+by)^2 in
  sym(2,std), n=2, with seeded 0.2 <= |a|, |b| <= 1 (rate sqrt 2); and two
  stable controls: a definite ternary quadratic form +-P Q P^T in
  sym(2,std), n=3, with Q fixed and P a seeded permutation, and a seeded
  2x2 matrix with |trace| >= 0.2 in std*dual(std), n=2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

import oracle

ACCEPTANCE = [
    ("std", 2, [1, 0]),
    ("wedge(2,std)", 3, [1, 0, 0]),
    ("std*dual(std)", 2, [0, 1, 0, 0]),
    ("sym(2,std)", 2, [1, 0, 0]),
    ("std", 3, [1, 0, 0]),
    ("wedge(2,std)", 3, [2, 0, 0]),
    ("std*wedge(2,std)", 3, [1] + [0] * 8),
    ("sym(3,std)", 2, [1, 1, 0, 0]),
]

# (spec, n, highest weight before removing the trace)
LARGE_REPS = [
    ("sym(4,std)", 4, (4, 0, 0, 0)),
    ("wedge(2,std)*wedge(2,std)*std", 4, (3, 2, 0, 0)),
]

# verification samples per certificate
VERIFY_SAMPLES = {"acceptance": 300, "large-reps": 100, "numeric": 600}

NAMES = tuple(VERIFY_SAMPLES)


@dataclass(frozen=True)
class Input:
    """One vector to classify, certify and verify.

    ``rate`` is the exact optimal rate for an unstable vector and None for
    a stable control.
    """

    label: str
    spec: str
    n: int
    vector: tuple
    rate: Optional[float]

    @property
    def stable(self) -> bool:
        return self.rate is None


def make(name: str, seed: int):
    """The inputs of workload ``name`` for ``seed``, and the distinct
    (spec, n) representations they live in."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, NAMES.index(name))))
    inputs = {"acceptance": _acceptance, "large-reps": _large_reps,
              "numeric": _numeric}[name](rng)
    reps = sorted({(i.spec, i.n) for i in inputs})
    return inputs, reps


def _scale(rng) -> Fraction:
    return Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))


def _min_norm_rate(spec: str, n: int, vector) -> float:
    weights = oracle.tensor_rep(spec, n).active_weights(vector)
    return float(np.linalg.norm(oracle.enumerated_min_norm(weights)))


def _acceptance(rng):
    out = []
    for spec, n, v in ACCEPTANCE:
        s = _scale(rng)
        vec = tuple(Fraction(x) * s for x in v)
        out.append(Input(f"{spec} n={n}", spec, n, vec, _min_norm_rate(spec, n, vec)))
    return out


def _large_reps(rng):
    out = []
    for spec, n, top in LARGE_REPS:
        perm = rng.permutation(n)
        target = [Fraction(0)] * n
        for i, c in enumerate(top):
            target[int(perm[i])] = Fraction(c)
        mean = sum(target) / n
        target = tuple(c - mean for c in target)
        weights = oracle.tensor_rep(spec, n).weights
        vec = [Fraction(0)] * len(weights)
        vec[weights.index(target)] = _scale(rng)
        rate = math.sqrt(float(sum(c * c for c in target)))
        out.append(Input(f"{spec} n={n}", spec, n, tuple(vec), rate))
    return out


# Fixed directions for the numeric workload.  The seed picks their signs:
# the geodesic search does the same work on v and -v, while its work
# changes by up to 20% with the direction and by a few percent with the
# scale, which would move classify_s between seeds by more than any bound.
WEDGE_DIRECTIONS = ((0.3, 0.5, -0.2), (-0.7, 0.2, 0.6))
POSITIVE_FORM = ((2.0, 1.0, 0.0), (1.0, 2.0, 1.0), (0.0, 1.0, 2.0))


def _numeric(rng):
    out = []
    for v in WEDGE_DIRECTIONS:
        sign = float(rng.choice([-1.0, 1.0]))
        out.append(Input("wedge(2,std) n=3", "wedge(2,std)", 3,
                         tuple(sign * x for x in v), math.sqrt(2.0 / 3.0)))
    for _ in range(2):
        a, b = rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        out.append(Input("(ax+by)^2 sym(2,std) n=2", "sym(2,std)", 2,
                         (float(a * a), float(a * b), float(b * b)), math.sqrt(2.0)))
    perm = np.eye(3)[rng.permutation(3)]
    q = float(rng.choice([-1.0, 1.0])) * perm @ np.asarray(POSITIVE_FORM) @ perm.T
    out.append(Input("definite quadratic form sym(2,std) n=3", "sym(2,std)", 3,
                     tuple(float(q[i, j]) for i in range(3) for j in range(i, 3)), None))
    m = rng.uniform(-1.0, 1.0, (2, 2))
    while abs(np.trace(m)) < 0.2:
        m = rng.uniform(-1.0, 1.0, (2, 2))
    out.append(Input("matrix with nonzero trace std*dual(std) n=2", "std*dual(std)", 2,
                     tuple(float(x) for x in m.ravel()), None))
    return out
