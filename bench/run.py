"""Benchmark of classify, certify and verify on one named workload.

Run from the root of a checkout:

    python3 bench/run.py --workload acceptance --seed 1 --seconds 35 --trace 0

Each pass runs, per input of the workload, the three operations of the
command line tool: classify (``is_unstable`` with the CLI defaults),
certify (``dominance_certificate`` with the CLI defaults except samples=0,
then ``dumps_cert``) and verify (``loads_cert``, then ``verify_dominance``
with box 5, tol 1e-6 and the workload's sample count).  Stable controls are
not verified; certifying them ends in ``StableVectorError``.  Passes repeat
while another one fits into ``--seconds``; there is always at least one.

Each operation's wall time is normalised by a reference kernel run just
before, during and just after it (``refclock.py``), which cancels most of
the drift in machine speed that moves raw wall times on a shared machine by
up to 30% between runs.  Timings are medians over the passes of a run.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced, and the
last line holds per-layer metrics from the traced passes.  The line before
it gives the operations attempted and failed per kind, raw wall-time
medians and the normalised times of every pass.
Every output is checked (``checks.py``); failed checks go to stderr and make
``correct`` false.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from refclock import Clock
from spans import TRACED, Tracer

SETUP_RUNS = 5
VERIFY_BOX = 5.0
VERIFY_TOL = 1e-6


SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from refclock import Clock

def setup():
    sys.path.insert(0, sys.argv[2])
    import instab.cli
    from instab.reps import build_rep, parse_rep_spec
    for spec, n in json.loads(sys.argv[3]):
        build_rep(parse_rep_spec(spec), n)

result, wall, norm = Clock().time(setup)
if isinstance(result, Exception):
    raise result
print(json.dumps([wall, norm]))
"""


def measure_setup(src: Path, reps) -> tuple:
    """Median raw and normalised time, over fresh interpreters, to import
    ``instab.cli`` and build the workload's representations."""
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent), str(src),
         json.dumps(reps)], capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_RUNS)]
    return tuple(statistics.median(r[j] for r in runs) for j in (0, 1))


def import_package(src: Path):
    sys.path.insert(0, str(src))
    import instab.cli  # noqa: F401
    from instab import instability, reps
    return instability, reps


class Pass:
    """Per-kind raw and normalised times, counts and checks of one pass."""

    KINDS = ("classify", "certify", "verify")

    def __init__(self):
        self.raw = dict.fromkeys(self.KINDS, 0.0)
        self.norm = dict.fromkeys(self.KINDS, 0.0)
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)
        self.samples = 0
        self.frames_tried = 0
        self.xi_frames = 0
        self.xi_excluded = 0
        self.layers: dict = {}
        self.errors: list = []

    def add(self, kind: str, wall: float, norm: float, failed: bool):
        self.raw[kind] += wall
        self.norm[kind] += norm
        self.attempted[kind] += 1
        self.failed[kind] += int(failed)

    @property
    def total(self) -> float:
        return sum(self.norm.values())


def run_pass(ctx, clock: Clock, tracer=None) -> Pass:
    instability, rep_objs, inputs, samples, seed = ctx
    out = Pass()
    op_ids = {k: tracer.span_name(f"bench.{k}") for k in Pass.KINDS} if tracer else {}

    def timed(kind, fn, *args):
        if tracer is None:
            return clock.time(fn, *args)
        first = len(tracer.start)
        result, wall, norm = clock.time(tracer.span, op_ids[kind], fn, *args)
        # scale spans so that the operation's own span reads its normalised time
        scale = norm / (tracer.end[first] - tracer.start[first])
        for name, (calls, s, self_s) in tracer.totals(first, scale).items():
            acc = out.layers.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += s
            acc[2] += self_s
        return result, wall, norm

    for i, inp in enumerate(inputs):
        rep = rep_objs[(inp.spec, inp.n)]
        # module attributes are looked up at call time so traced passes
        # reach the wrappers
        verdict, wall, norm = timed(
            "classify", lambda: instability.is_unstable(
                rep, inp.vector, budget=64, seed=0, eps=1e-10, adapted=True))
        failed = isinstance(verdict, Exception)
        out.add("classify", wall, norm, failed)
        if failed:
            out.errors.append(f"{inp.label}: classify raised {verdict!r}")
        else:
            out.frames_tried += verdict.frames_tried
            out.errors += checks.check_classify(inp, verdict.kind, verdict.rate)

        text, wall, norm = timed(
            "certify", lambda: instability.dumps_cert(instability.dominance_certificate(
                rep, inp.vector, instability.CertifyOptions(samples=0))))
        if inp.stable:
            expected = isinstance(text, instability.StableVectorError)
            out.add("certify", wall, norm, isinstance(text, Exception) and not expected)
            if not expected:
                out.errors.append(f"{inp.label}: certify of a stable control gave {text!r}")
            continue
        failed = isinstance(text, Exception)
        out.add("certify", wall, norm, failed)
        if failed:
            out.errors.append(f"{inp.label}: certify raised {text!r}")
            out.add("verify", 0.0, 0.0, True)
            continue
        xi = json.loads(text)["xi"]
        out.xi_frames += xi["frames"]
        out.xi_excluded += xi["excluded"]

        def verify():
            cert = instability.loads_cert(text)
            report = instability.verify_dominance(cert, samples=samples, seed=seed,
                                                  tol=VERIFY_TOL, box=VERIFY_BOX)
            return cert, report
        result, wall, norm = timed("verify", verify)
        failed = isinstance(result, Exception)
        out.add("verify", wall, norm, failed)
        if failed:
            out.errors.append(f"{inp.label}: verify raised {result!r}")
            continue
        cert, report = result
        out.samples += report.samples
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        out.errors += checks.check_certificate(inp, text, instability.dumps_cert(cert))
        out.errors += checks.check_verification(inp, text, report.ok, rng, VERIFY_TOL)
    return out


def end_to_end(passes, setup) -> tuple:
    def med(f):
        return statistics.median(f(p) for p in passes)
    norm = {
        "setup_s": (setup[1], "s"),
        "classify_s": (med(lambda p: p.norm["classify"]), "s"),
        "certify_s": (med(lambda p: p.norm["certify"]), "s"),
        "verify_samples_per_s": (med(lambda p: p.samples / p.norm["verify"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "setup_s": setup[0],
        "classify_s": med(lambda p: p.raw["classify"]),
        "certify_s": med(lambda p: p.raw["certify"]),
        "verify_samples_per_s": med(lambda p: p.samples / p.raw["verify"]),
    }
    return norm, raw


def per_layer(traced, untraced, import_s: float) -> dict:
    def med(f):
        return statistics.median(f(p) for p in traced)
    out = {}
    for owner, funcs in TRACED.items():
        for fname in funcs:
            name = f"{owner}.{fname}"
            for j, field in enumerate(("calls", "s", "self_s")):
                unit = "count" if j == 0 else "s"
                out[f"{name}.{field}"] = (med(lambda p: p.layers.get(name, [0, 0.0, 0.0])[j]), unit)
    act_calls, act_s = out["reps.act.calls"][0], out["reps.act.s"][0]
    out["reps.act.us_per_call"] = (1e6 * act_s / act_calls, "us")
    out["instability.verify_dominance.us_per_sample"] = (
        med(lambda p: 1e6 * p.layers["instability.verify_dominance"][1] / p.samples), "us")
    out["instability.xi.frames"] = (med(lambda p: p.xi_frames), "count")
    out["instability.xi.excluded"] = (med(lambda p: p.xi_excluded), "count")
    out["instability.is_unstable.frames_tried"] = (med(lambda p: p.frames_tried), "count")
    out["cli.import_s"] = (import_s, "s")
    spans = med(lambda p: sum(v[0] for v in p.layers.values()))
    out["trace.spans"] = (spans, "count")
    base = statistics.median(p.total for p in untraced)
    out["trace.overhead_s"] = (med(lambda p: p.total) - base, "s")
    out["trace.overhead_share"] = (out["trace.overhead_s"][0] / base, "1")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "instab" / "cli.py").is_file():
        sys.exit(f"error: no package at {src}; run from the root of a checkout")
    clock = Clock()
    modules, _, import_s = clock.time(import_package, src)
    if isinstance(modules, Exception):
        raise modules
    instability, reps_mod = modules

    inputs, rep_keys = workloads.make(args.workload, args.seed)
    setup = (0.0, 0.0) if args.trace else measure_setup(src, rep_keys)
    rep_objs = {key: reps_mod.build_rep(reps_mod.parse_rep_spec(key[0]), key[1])
                for key in rep_keys}
    ctx = (instability, rep_objs, inputs, workloads.VERIFY_SAMPLES[args.workload],
           args.seed)

    tracer = Tracer() if args.trace else None
    passes, traced = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        t = perf_counter()
        trace_this = tracer is not None and (len(passes) + len(traced)) % 2 == 1
        if trace_this:
            tracer.install()
            try:
                p = run_pass(ctx, clock, tracer)
            finally:
                tracer.uninstall()
        else:
            p = run_pass(ctx, clock)
        (traced if trace_this else passes).append(p)
        longest = max(longest, perf_counter() - t)
        done = len(passes) + len(traced)
        if done >= (2 if tracer else 1) and perf_counter() + longest > start + args.seconds:
            break

    everything = passes + traced
    errors = [e for p in everything for e in p.errors]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    attempted = {k: sum(p.attempted[k] for p in everything) for k in Pass.KINDS}
    failed = {k: sum(p.failed[k] for p in everything) for k in Pass.KINDS}
    summary = {"workload": args.workload, "seed": args.seed,
               "passes": len(passes), "traced_passes": len(traced),
               "operations": {k: {"attempted": attempted[k], "failed": failed[k]}
                              for k in Pass.KINDS}}
    if tracer:
        metrics = per_layer(traced, passes, import_s)
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-{args.seed}.npz")
    else:
        metrics, raw = end_to_end(passes, setup)
        summary["raw"] = raw
        summary["passes_s"] = {k: [p.norm[k] for p in passes] for k in Pass.KINDS}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
