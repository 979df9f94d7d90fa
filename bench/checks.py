"""Correctness checks on the outputs of classify, certify and verify.

Each check returns a list of error messages, empty when the output is
right.  Expected values come from ``workloads`` (closed forms and the
enumerated min-norm point) and from ``oracle``; certificates are read from
their JSON text, not from the package's own objects.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import oracle

UNSTABLE_VERDICTS = ("torus_certified_unstable", "numerically_unstable")
STABLE_VERDICT = "likely_stable"
RATE_TOL = 1e-6
KEMPF_TOL = 1e-3
MARGIN_SAMPLES = 4


def control_invariant(inp) -> float:
    """Determinant of a quadratic form, trace of a matrix: both are
    invariant under SL(n), so a nonzero value proves the control stable."""
    t = oracle.tensor_rep(inp.spec, inp.n).embed(inp.vector)
    if inp.spec == "sym(2,std)":
        return float(np.linalg.det(t))
    if inp.spec == "std*dual(std)":
        return float(np.trace(t))
    raise ValueError(f"no invariant known for {inp.spec}")


def check_classify(inp, kind: str, rate: float) -> list:
    if inp.stable:
        if abs(control_invariant(inp)) < 1e-9:
            return [f"{inp.label}: control has a zero invariant"]
        if kind != STABLE_VERDICT:
            return [f"{inp.label}: stable control classified {kind}"]
        return []
    errors = []
    if kind not in UNSTABLE_VERDICTS:
        errors.append(f"{inp.label}: unstable input classified {kind}")
    if not abs(rate - inp.rate) <= RATE_TOL:
        errors.append(f"{inp.label}: classify rate {rate!r} != {inp.rate!r}")
    return errors


def _num(x):
    return Fraction(x["num"], x["den"]) if isinstance(x, dict) else float(x)


def check_certificate(inp, text: str, roundtrip: str) -> list:
    """Coefficients, rate and Kempf ratio of a certificate, and its
    canonical text surviving a load and dump unchanged."""
    errors = []
    d = json.loads(text)
    u = [_num(x) for x in d["u"]]
    alphas = [_num(a) for a in d["alphas"]]
    order = d["order"]
    exact = all(isinstance(x, Fraction) for x in u + alphas)
    diffs = [u[order[j]] - u[order[j + 1]] for j in range(len(order) - 1)]
    if any(a < 0 for a in alphas):
        errors.append(f"{inp.label}: negative alpha in {alphas}")
    if exact:
        steps = alphas == diffs
    else:
        steps = max(abs(float(a) - float(b)) for a, b in zip(alphas, diffs)) <= 1e-9
    if not steps:
        errors.append(f"{inp.label}: alphas {alphas} are not the steps of u {u}")
    norm_u = math.sqrt(float(sum(x * x for x in u)))
    if not abs(d["rate"] - norm_u) <= 1e-9:
        errors.append(f"{inp.label}: certificate rate {d['rate']!r} != |u| {norm_u!r}")
    if not abs(d["rate"] - inp.rate) <= RATE_TOL:
        errors.append(f"{inp.label}: certificate rate {d['rate']!r} != {inp.rate!r}")
    if d["kempf"] is not None:
        tau = d["kempf"]["tau"]
        frame = None if d["frame"] is None else np.asarray(d["frame"])
        active = oracle.tensor_rep(inp.spec, inp.n).active_weights(
            [_num(x) for x in d["vector"]], frame)
        m = min(sum(w * t for w, t in zip(wt, tau)) for wt in active)
        ratio = float(m) / math.sqrt(sum(t * t for t in tau))
        if not abs(ratio - d["rate"]) <= KEMPF_TOL:
            errors.append(f"{inp.label}: Kempf ratio {ratio!r} != rate {d['rate']!r}")
    if roundtrip != text:
        errors.append(f"{inp.label}: certificate text changes on load and dump")
    return errors


def margins(text: str, rng: np.random.Generator, samples: int = MARGIN_SAMPLES,
            box: float = 5.0) -> list:
    """Margin log||rho(g)v|| - sum_j alpha_j log||rho_j(g) w_j|| - c at
    g = identity and at ``samples`` sampled g, computed on tensors."""
    d = json.loads(text)
    n = d["n"]
    rep = oracle.tensor_rep(d["spec"], n)
    v = [_num(x) for x in d["vector"]]
    frame_t = np.eye(n) if d["frame"] is None else np.asarray(d["frame"]).T
    terms = [(float(_num(a)), sorted(d["order"][:j + 1]))
             for j, a in enumerate(d["alphas"]) if _num(a) > 0]
    out = []
    for g in [np.eye(n)] + [oracle.sample_group(rng, n, box) for _ in range(samples)]:
        rhs = sum(a * oracle.log_wedge_norm(g @ frame_t, cols) for a, cols in terms)
        out.append(rep.log_norm(g, v) - rhs - d["c"])
    return out


def check_verification(inp, text: str, report_ok: bool, rng: np.random.Generator,
                       tol: float = 1e-6) -> list:
    errors = []
    if not report_ok:
        errors.append(f"{inp.label}: verify_dominance reports a failed check")
    worst = min(margins(text, rng))
    if not worst >= -tol:
        errors.append(f"{inp.label}: independent margin {worst!r} < -{tol}")
    return errors
