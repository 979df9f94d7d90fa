"""The benchmark's own certificate checks, run on every unstable input of
its workloads.

``bench/checks.py`` reads certificates from their JSON text, so a change
to the certificate writer that the benchmark would reject fails here
without a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from instab import (CertifyOptions, build_rep, dominance_certificate,  # noqa: E402
                    dumps_cert, loads_cert, parse_rep_spec, verify_dominance)


def test_workload_certificates_pass_the_benchmark_checks():
    inputs = [inp for name in workloads.NAMES for inp in workloads.make(name, 1)[0]
              if not inp.stable]
    assert len(inputs) == 14
    rng = np.random.default_rng(0)
    for inp in inputs:
        rep = build_rep(parse_rep_spec(inp.spec), inp.n)
        text = dumps_cert(dominance_certificate(rep, inp.vector, CertifyOptions(samples=0)))
        assert checks.check_certificate(inp, text, dumps_cert(loads_cert(text))) == []
        report = verify_dominance(loads_cert(text), samples=50)
        assert checks.check_verification(inp, text, report.ok, rng) == []
