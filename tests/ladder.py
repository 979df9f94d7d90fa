"""The fixed input ladder that ROADMAP reports figures on.

400 sparse integer vectors cycling over 7 (spec, n) pairs: entry i lives in
``PAIRS[i % 7]``, and each of its coordinates is uniform in [-3, 3] and
kept with probability 0.35 (0 otherwise), all drawn from one
``default_rng(5)``.

The rotated ladder acts on each nonzero entry, exactly, with a rational
rotation, so that the identity flat of its input is rarely optimal.

The paper ladder holds larger representations (dimension 15 to 35).  Run
from a checkout, ``python tests/ladder.py`` prints one JSON line of its
verdict counts, classify and certify times, exact Wolfe runs during certify,
certificate codec times and one sha256 of the certificate bytes per pair:
run at two commits, equal digests show that no certificate byte changed.
"""

import hashlib
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from instab import (CertifyOptions, act, build_rep, dominance_certificate, dumps_cert,
                    instability, is_unstable, loads_cert, parse_rep_spec)
from instab.exactlin import inv
from instab.instability import LIKELY_STABLE

PAIRS = [("std", 3), ("wedge(2,std)", 4), ("sym(2,std)", 3), ("sym(3,std)", 2),
         ("std*wedge(2,std)", 3), ("sym(2,std)", 4), ("std*std", 3)]
SIZE = 400
PAPER_PAIRS = [("sym(3,std)", 4), ("wedge(3,std)", 6), ("sym(2,std)", 5),
               ("sym(4,std)", 4), ("wedge(3,std)", 7), ("sym(3,std)", 5)]
PAPER_SIZE = 12


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


def paper_ladder():
    """The (spec, n, vector) entries of the paper ladder, each vector a list
    of ints: ``PAPER_SIZE`` per pair of ``PAPER_PAIRS``, in that order.

    Each vector is ``integers(-3, 4, dim)`` with every coordinate kept where
    ``random(dim) < 0.2`` (0 otherwise), all drawn from one
    ``default_rng(7)``.
    """
    rng = np.random.default_rng(7)
    out = []
    for spec, n in PAPER_PAIRS:
        dim = build_rep(parse_rep_spec(spec), n).dim
        for _ in range(PAPER_SIZE):
            x = rng.integers(-3, 4, dim)
            keep = rng.random(dim) < 0.2
            out.append((spec, n, [int(a) if k else 0 for a, k in zip(x, keep)]))
    return out


def _seconds(fn, *args):
    """``(fn(*args), the seconds it took)``."""
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


def _counted_wolfe(runs: list):
    """Replace ``instability._rows_min_norm``, through which the search and
    the constant estimator enter exact Wolfe, by a wrapper that appends to
    ``runs`` on each call; return the original."""
    wolfe = instability._rows_min_norm

    def counted(*args):
        runs.append(1)
        return wolfe(*args)

    instability._rows_min_norm = counted
    return wolfe


def paper_report():
    """Per pair of the paper ladder: the verdict counts of its inputs (all
    nonzero); the total, median and max seconds of ``is_unstable`` over its
    inputs and of ``dominance_certificate`` (``samples=0``) over its
    unstable ones, and the exact Wolfe runs those certificates made; and
    the median seconds of ``dumps_cert`` and of ``loads_cert`` on those
    certificates, and the sha256 of their ``dumps_cert`` texts, encoded as
    UTF-8 and joined in ladder order."""
    pairs = {}
    for spec, n, v in paper_ladder():
        entry = pairs.setdefault(f"{spec} n={n}", {"kinds": {}, "classify_s": [],
                                                   "certify_s": [], "wolfe_runs": 0,
                                                   "dumps_cert_s": [], "loads_cert_s": [],
                                                   "sha256": hashlib.sha256()})
        rep = build_rep(parse_rep_spec(spec), n)
        verdict, seconds = _seconds(is_unstable, rep, v)
        kind = verdict.kind
        entry["classify_s"].append(seconds)
        entry["kinds"][kind] = entry["kinds"].get(kind, 0) + 1
        if kind != LIKELY_STABLE:
            runs = []
            wolfe = _counted_wolfe(runs)
            try:
                cert, seconds = _seconds(dominance_certificate, rep, v, CertifyOptions(samples=0))
            finally:
                instability._rows_min_norm = wolfe
            entry["wolfe_runs"] += len(runs)
            entry["certify_s"].append(seconds)
            text, seconds = _seconds(dumps_cert, cert)
            entry["dumps_cert_s"].append(seconds)
            entry["sha256"].update(text.encode())
            entry["loads_cert_s"].append(_seconds(loads_cert, text)[1])
    for entry in pairs.values():
        for name in ("classify_s", "certify_s"):
            times = entry.pop(name)
            entry[name] = {"total": round(sum(times), 3),
                           "median": round(statistics.median(times), 3),
                           "max": round(max(times), 3)}
        for name in ("dumps_cert_s", "loads_cert_s"):
            entry[name] = {"median": round(statistics.median(entry[name]), 6)}
        entry["sha256"] = entry["sha256"].hexdigest()
    return pairs


if __name__ == "__main__":
    print(json.dumps(paper_report()))
