"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench``.  A short
run of every workload must pass every check with no failed operation, and
each check must reject a wrong value.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from instab import (CertifyOptions, build_rep, dominance_certificate,  # noqa: E402
                    dumps_cert, is_unstable, parse_rep_spec, verify_dominance,
                    loads_cert)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_short_run_passes_every_check(workload):
    res = result_of(run_bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", "0"))
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_call_counts_repeat():
    runs = [result_of(run_bench("--workload", "acceptance", "--seed", "5",
                                "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] is True
        assert set(res["metrics"]) == names
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package(tmp_path):
    proc = run_bench("--workload", "acceptance", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _first(workload, stable=False):
    inputs, _ = workloads.make(workload, 0)
    inp = next(i for i in inputs if i.stable == stable)
    return inp, build_rep(parse_rep_spec(inp.spec), inp.n)


def test_classify_check_rejects_a_scaled_rate():
    inp, rep = _first("acceptance")
    verdict = is_unstable(rep, inp.vector)
    assert checks.check_classify(inp, verdict.kind, verdict.rate) == []
    assert checks.check_classify(inp, verdict.kind, verdict.rate * 1.01) != []


def test_classify_check_rejects_a_control_reported_unstable():
    inp, rep = _first("numeric", stable=True)
    verdict = is_unstable(rep, inp.vector)
    assert checks.check_classify(inp, verdict.kind, verdict.rate) == []
    assert checks.check_classify(inp, "numerically_unstable", 0.5) != []


def _altered(text, **changes):
    data = json.loads(text)
    data.update(changes)
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_certificate_checks_reject_a_raised_constant_and_a_scaled_rate():
    inp, rep = _first("acceptance")
    text = dumps_cert(dominance_certificate(rep, inp.vector, CertifyOptions(samples=0)))
    data = json.loads(text)
    rng = np.random.default_rng(0)
    assert checks.check_certificate(inp, text, text) == []
    assert checks.check_verification(inp, text, True, rng) == []

    raised = _altered(text, c=data["c"] + 1.0)
    report = verify_dominance(loads_cert(raised), samples=300, tol=1e-6, box=5.0)
    assert checks.check_verification(inp, raised, report.ok, rng) != []
    assert checks.check_verification(inp, raised, True, rng) != []

    scaled = _altered(text, rate=data["rate"] * 1.01)
    assert checks.check_certificate(inp, scaled, scaled) != []
    assert checks.check_certificate(inp, text, scaled) != []
