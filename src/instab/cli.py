"""Command line front end.

Subcommands: rep-info, classify, certify, verify, busemann-check.  Vectors
are given as comma separated entries; ``3``, ``-1/2`` and ``{num,den}``
JSON pairs stay exact rationals, decimals become floats and are barred from
the exact certificate path.  classify is deterministic, and all sampling
derives from a single seed, so runs are reproducible and certificate files
byte-stable.

classify and certify run one deterministic search: the identity flat when
its balanced face proves it optimal, else the moment-map descent.
classify reports torus-certified when the identity flat wins; certify
anchors at the flat the search returns.

Exit codes: classify 0 = certified unstable, 3 = numerically unstable,
4 = zero vector, 6 = likely stable; certify 1 = the embedded verification
is not ok, 6 = stable input; verify 0 = all checks pass, 1 = margin/slope
failures, 5 = malformed certificate; parse and dimension errors,
non-finite vector entries, a certify --out that cannot be written and a
certificate whose constant c is not finite exit 1, and usage errors (an
option out of its range, such as a negative or non-finite --box or --tol,
a verify --box whose samples overflow, or a busemann-check --tmax whose
deviation is not finite; certify exits 1 on a --box that overflows, as on
a parse error) exit 2.  Every printed line is strict JSON: a report value
that is not finite is written as null.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click
import numpy as np

from .cartan import CartanVector, fundamental_weights
from .errors import (CertificateError, DimensionError, InstabError, StableVectorError,
                     ZeroVectorError)
from .instability import (CertifyOptions, LIKELY_STABLE, NUMERIC_UNSTABLE,
                          SEED_MAX, TORUS_CERTIFIED, _frac_from_json, cartan_box_sample,
                          dominance_certificate, dumps_cert, is_unstable,
                          loads_cert, verify_dominance)
from .reps import basis_labels, build_rep, parse_rep_spec
from .symspace import busemann_formula, busemann_limit, project, ray_from_cartan


def _parse_entry(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


def _parse_vector(vector: str | None, vector_file: str | None):
    if (vector is None) == (vector_file is None):
        raise click.UsageError("provide exactly one of --vector / --vector-file")
    if vector is not None:
        return [_parse_entry(x) for x in vector.split(",") if x.strip()]
    with open(vector_file) as fh:
        data = json.load(fh)
    # type(), not isinstance(): a bool is no number here
    if type(data) is not list or any(type(x) not in (dict, int, float) for x in data):
        raise ValueError("a vector file holds a JSON array of numbers and {num, den} objects")
    return [_frac_from_json(x) if type(x) is dict else Fraction(x) if type(x) is int else x
            for x in data]


def _finite_nonnegative(ctx, param, value: float) -> float:
    """A click callback: ``value`` is a finite number >= 0, or a usage error."""
    if not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"{value} is not a finite number >= 0", ctx, param)
    return value


def _emit(payload: dict):
    """Print one line of strict JSON: a float that is not finite, which
    JSON cannot hold, is written as null."""
    click.echo(json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                           for k, v in payload.items()}, sort_keys=True, allow_nan=False))


def _build(n: int, spec_text: str):
    spec = parse_rep_spec(spec_text)
    return build_rep(spec, n)


@click.group()
def main():
    """Instability certificates for SL(n) representations."""


@main.command("rep-info")
@click.option("--n", type=int, required=True)
@click.option("--spec", "spec_text", type=str, required=True)
@click.option("--json", "as_json", is_flag=True, help="JSON output only")
def cmd_rep_info(n: int, spec_text: str, as_json: bool):
    """Print dimension, weights and gram data of a representation."""
    try:
        rep = _build(n, spec_text)
    except InstabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    weights = [[str(c) for c in w.coords] for w in rep.weights]
    fw = [[str(c) for c in w.coords] for w in fundamental_weights(n)]
    payload = {
        "spec": str(rep.spec), "n": n, "dim": rep.dim,
        "weights": weights,
        "gram": [str(g) for g in rep.gram],
        "fundamental_weights": fw,
    }
    if as_json:
        _emit(payload)
        return
    click.echo(f"spec: {rep.spec}   n={n}   dim={rep.dim}")
    click.echo(f"{'basis':>16}  {'gram':>6}  weight")
    for label, g, w in zip(basis_labels(rep), rep.gram, rep.weights):
        wtxt = "(" + ", ".join(str(c) for c in w.coords) + ")"
        click.echo(f"{label:>16}  {str(g):>6}  {wtxt}")
    click.echo("fundamental weights:")
    for j, row in enumerate(fw, start=1):
        click.echo(f"  chi_{j} = (" + ", ".join(row) + ")")
    _emit(payload)


# 2 is click's exit code for a usage error, so "stable" takes 6
_EXIT_STABLE = 6
_EXIT_BY_VERDICT = {TORUS_CERTIFIED: 0, NUMERIC_UNSTABLE: 3, LIKELY_STABLE: _EXIT_STABLE}


@main.command("classify")
@click.option("--n", type=int, required=True)
@click.option("--spec", "spec_text", type=str, required=True)
@click.option("--vector", type=str, default=None)
@click.option("--vector-file", type=click.Path(exists=True), default=None)
def cmd_classify(n, spec_text, vector, vector_file):
    """Classify a vector: certified unstable / numerically unstable / likely stable."""
    try:
        rep = _build(n, spec_text)
        v = _parse_vector(vector, vector_file)
        verdict = is_unstable(rep, v)
    except ZeroVectorError:
        _emit({"verdict": "zero_vector"})
        sys.exit(4)
    except (InstabError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    payload = {
        "verdict": verdict.kind,
        "rate": verdict.rate,
        "frames_tried": verdict.frames_tried,
    }
    if verdict.flat is not None:
        payload["u"] = [str(c) for c in verdict.flat.u.coords]
        payload["frame_is_identity"] = verdict.kind == TORUS_CERTIFIED
    _emit(payload)
    sys.exit(_EXIT_BY_VERDICT[verdict.kind])


@main.command("certify")
@click.option("--n", type=int, required=True)
@click.option("--spec", "spec_text", type=str, required=True)
@click.option("--vector", type=str, default=None)
@click.option("--vector-file", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=0)
@click.option("--samples", type=click.IntRange(min=0), default=1000,
              help="embedded verification sample count")
@click.option("--box", type=float, default=5.0, callback=_finite_nonnegative)
@click.option("--tol", type=float, default=1e-6, callback=_finite_nonnegative)
def cmd_certify(n, spec_text, vector, vector_file, out, seed, samples, box, tol):
    """Compute a dominance certificate and write it as canonical JSON."""
    try:
        rep = _build(n, spec_text)
        v = _parse_vector(vector, vector_file)
        opts = CertifyOptions(seed=seed, samples=samples, box=box, tol=tol)
        cert = dominance_certificate(rep, v, opts)
        text = dumps_cert(cert)
    except ZeroVectorError:
        click.echo("error: zero vector", err=True)
        sys.exit(4)
    except StableVectorError as exc:
        click.echo(f"stable input: {exc}", err=True)
        sys.exit(_EXIT_STABLE)
    except (InstabError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(1)
    summary = {
        "out": out, "rate": cert.rate, "mode": cert.mode,
        "alphas": [str(a) for a in cert.alphas], "c": cert.c,
        "hw": list(cert.hw),
        "kempf_tau": list(cert.kempf.tau.exps),
        "verification_failures": (None if cert.verification is None
                                  else cert.verification.failures),
        "verification_ok": (None if cert.verification is None
                            else cert.verification.ok),
    }
    _emit(summary)
    if cert.verification is not None and not cert.verification.ok:
        sys.exit(1)


@main.command("verify")
@click.argument("cert_path", type=click.Path(exists=True))
@click.option("--samples", type=click.IntRange(min=0), default=10000)
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=None)
@click.option("--tol", type=float, default=1e-6, callback=_finite_nonnegative)
@click.option("--box", type=float, default=5.0, callback=_finite_nonnegative)
def cmd_verify(cert_path, samples, seed, tol, box):
    """Re-verify a certificate file by sampling group elements."""
    try:
        with open(cert_path) as fh:
            cert = loads_cert(fh.read())
    except (CertificateError, OSError) as exc:
        click.echo(f"malformed certificate: {exc}", err=True)
        sys.exit(5)
    try:
        report = verify_dominance(cert, samples=samples, seed=seed,
                                  tol=tol, box=box)
    except InstabError as exc:  # CertificateError among them
        click.echo(f"malformed certificate: {exc}", err=True)
        sys.exit(5)
    except ValueError as exc:  # the options, such as a box whose samples overflow
        raise click.UsageError(str(exc)) from exc
    payload = {
        "samples": report.samples, "failures": report.failures,
        "margin_min": report.margin_min, "margin_mean": report.margin_mean,
        "ray_slope_diff": report.ray_slope_diff,
        "ray_checked": report.ray_checked, "ok": report.ok,
    }
    _emit(payload)
    sys.exit(0 if report.ok else 1)


@main.command("busemann-check")
@click.option("--n", type=int, required=True)
@click.option("--direction", type=str, required=True,
              help="comma separated traceless direction, e.g. '1,0,-1'")
@click.option("--points", type=click.IntRange(min=1), default=100)
@click.option("--tmax", type=click.FloatRange(min=100), default=1000.0)
@click.option("--seed", type=click.IntRange(0, SEED_MAX), default=0)
@click.option("--box", type=float, default=1.0, callback=_finite_nonnegative,
              help="size of the sampled test points")
def cmd_busemann_check(n, direction, points, tmax, seed, box):
    """Cross-validate the fundamental-representation Busemann formula
    against the defining distance limit on random points."""
    try:
        coords = [_parse_entry(x) for x in direction.split(",") if x.strip()]
        a = CartanVector(coords)
        if a.n != n:
            raise DimensionError(f"direction has {a.n} coordinates, expected {n}")
        if a.is_zero():
            raise ZeroVectorError("zero direction")
        ray = ray_from_cartan(a)
    except (InstabError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = (1.0, 5.0, 20.0, 100.0, tmax) if tmax > 100 else (1.0, 5.0, 20.0, tmax)
    worst = 0.0
    for _ in range(points):
        try:  # a box too large fails here, and a tmax too large below
            with np.errstate(over="ignore", invalid="ignore"):
                g = cartan_box_sample(rng, n, box)
                via_limit = busemann_limit(ray, project(g), grid).value
                via_formula = busemann_formula(a, g)
        except ValueError as exc:
            raise click.BadParameter(f"box {box} draws a point beyond the float range: {exc}",
                                     param_hint="'--box'") from exc
        deviation = abs(via_limit - via_formula)
        if not math.isfinite(deviation):
            raise click.BadParameter(f"the deviation at t = {tmax} is not finite",
                                     param_hint="'--tmax'")
        worst = max(worst, deviation)
    _emit({"n": n, "points": points, "t_max": tmax, "max_deviation": worst})


if __name__ == "__main__":
    main()
