import json
import math

import pytest
from click.testing import CliRunner

from instab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def last_json(output: str) -> dict:
    for line in reversed(output.strip().splitlines()):
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue
    raise AssertionError(f"no JSON line in output:\n{output}")


# ---------------------------------------------------------------------------
# rep-info


def test_rep_info_wedge(runner):
    res = runner.invoke(main, ["rep-info", "--n", "3", "--spec", "wedge(2,std)"])
    assert res.exit_code == 0
    info = last_json(res.output)
    assert info["dim"] == 3
    assert len(info["weights"]) == 3


def test_rep_info_std(runner):
    res = runner.invoke(main, ["rep-info", "--n", "2", "--spec", "std", "--json"])
    assert res.exit_code == 0
    assert last_json(res.output)["dim"] == 2


def test_rep_info_invalid_degree(runner):
    res = runner.invoke(main, ["rep-info", "--n", "3", "--spec", "wedge(4,std)"])
    assert res.exit_code == 1


def test_rep_info_parse_error_position(runner):
    res = runner.invoke(main, ["rep-info", "--n", "3", "--spec", "wedge(2 std)"])
    assert res.exit_code == 1
    assert "position" in res.output


# ---------------------------------------------------------------------------
# classify


def test_classify_certified(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "1,0"])
    assert res.exit_code == 0
    assert last_json(res.output)["verdict"] == "torus_certified_unstable"


def test_classify_stable(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "sym(2,std)",
                               "--vector", "0,1,0"])
    assert res.exit_code == 2
    assert last_json(res.output)["verdict"] == "likely_stable"


def test_classify_numeric(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "1,1"])
    assert res.exit_code == 3
    out = last_json(res.output)
    assert out["verdict"] == "numerically_unstable"
    assert out["rate"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)


@pytest.mark.parametrize("entry", ["1/1" + "0" * 400, "1" + "0" * 400],
                         ids=["1/10^400", "10^400"])
def test_classify_rational_beyond_the_float_range(runner, entry):
    res = runner.invoke(main, ["classify", "--n", "3", "--spec", "std",
                               "--vector", f"{entry},0,0"])
    assert res.exit_code == 0
    out = last_json(res.output)
    assert out["verdict"] == "torus_certified_unstable"
    assert out["u"] == ["2/3", "-1/3", "-1/3"]
    assert out["rate"] == pytest.approx(math.sqrt(2 / 3), abs=1e-12)


def test_classify_zero_vector(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "0,0"])
    assert res.exit_code == 4


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_classify_non_finite_vector(runner, entry):
    res = runner.invoke(main, ["classify", "--n", "3", "--spec", "std",
                               "--vector", f"{entry},1,0"])
    assert res.exit_code == 1
    assert "vector entry 0" in res.output


def test_classify_dimension_mismatch(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "1,0,0"])
    assert res.exit_code == 1


# ---------------------------------------------------------------------------
# certify / verify


def certify_args(out, extra=()):
    return ["certify", "--n", "3", "--spec", "wedge(2,std)", "--vector",
            "1,0,0", "--out", out, "--samples", "300", "--xi-frames", "100",
            *extra]


def test_certify_writes_canonical_file(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, certify_args(out))
    assert res.exit_code == 0, res.output
    blob1 = open(out, "rb").read()
    data = json.loads(blob1)
    assert data["schema"] == "instab-cert/1"
    assert data["hw"] == [2]
    assert last_json(res.output)["verification_ok"] is True
    # rerun: byte identical
    res = runner.invoke(main, certify_args(out))
    assert res.exit_code == 0
    assert open(out, "rb").read() == blob1


def test_certify_exits_1_when_verification_not_ok(runner, tmp_path, monkeypatch):
    # no failing sample, but the ray slopes disagree: the report is not ok
    from instab import instability
    slope_failure = instability.VerifyReport(
        samples=10, failures=0, margin_min=0.1, margin_mean=0.2,
        ray_slope_diff=0.9, ray_checked=True, box=5.0, tol=1e-6, seed=0)
    monkeypatch.setattr(instability, "verify_dominance",
                        lambda *args, **kwargs: slope_failure)
    res = runner.invoke(main, certify_args(str(tmp_path / "cert.json")))
    assert res.exit_code == 1
    summary = last_json(res.output)
    assert summary["verification_failures"] == 0
    assert summary["verification_ok"] is False


@pytest.mark.parametrize("args", [
    ["classify", "--budget", "8"],
    ["classify", "--seed", "0"],
    ["classify", "--adapted"],
    ["classify", "--no-adapted"],
    ["certify", "--budget", "8"],
    ["certify", "--cross-check"],
    ["certify", "--no-cross-check"]])
def test_removed_options_are_rejected(runner, tmp_path, args):
    out = ["--out", str(tmp_path / "cert.json")] if args[0] == "certify" else []
    res = runner.invoke(main, [*args, *out, "--n", "2", "--spec", "std",
                               "--vector", "1,0"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_certify_stable_input(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "sym(2,std)",
                               "--vector", "0,1,0", "--out", out])
    assert res.exit_code == 2


def test_certify_zero_vector(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                               "--vector", "0,0", "--out", out])
    assert res.exit_code == 4


def test_verify_valid_certificate(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    res = runner.invoke(main, ["verify", out, "--samples", "500"])
    assert res.exit_code == 0, res.output
    report = last_json(res.output)
    assert report["failures"] == 0 and report["ok"]


def test_verify_tampered_certificate(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    data = json.loads(open(out).read())
    data["alphas"] = [{"num": a["num"] * 2, "den": a["den"]}
                      for a in data["alphas"]]
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "500"])
    assert res.exit_code == 1
    assert not last_json(res.output)["ok"]


def test_verify_zero_samples(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    res = runner.invoke(main, ["verify", out, "--samples", "0"])
    assert res.exit_code == 0


def test_verify_malformed_file(runner, tmp_path):
    out = tmp_path / "cert.json"
    out.write_text("{broken")
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 5
    out.write_text('{"schema": "instab-cert/1"}')
    res = runner.invoke(main, ["verify", str(out)])
    assert res.exit_code == 5


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_verify_rejects_non_finite_constant(runner, tmp_path, value):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                                "--vector", "1,0", "--out", out,
                                "--samples", "50"]).exit_code == 0
    data = json.loads(open(out).read())
    data["c"] = value
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert "non-finite" in res.output


def test_certify_exact_vector_file(runner, tmp_path):
    vf = tmp_path / "vector.json"
    vf.write_text('[{"num": 1, "den": 1}, 0]')
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                               "--vector-file", str(vf), "--out", out,
                               "--samples", "100", "--xi-frames", "50"])
    assert res.exit_code == 0, res.output
    data = json.loads(open(out).read())
    assert data["mode"] == "exact"
    assert data["vector"][0] == {"num": 1, "den": 1}


def test_rational_string_vector_stays_exact(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "sym(2,std)",
                               "--vector", "1/2,0,0", "--out", out,
                               "--samples", "100", "--xi-frames", "50"])
    assert res.exit_code == 0, res.output
    data = json.loads(open(out).read())
    assert data["mode"] == "exact"
    assert data["vector"][0] == {"num": 1, "den": 2}


def test_decimal_vector_barred_from_exact(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                               "--vector", "1.0,0.0", "--out", out,
                               "--samples", "0", "--xi-frames", "50"])
    assert res.exit_code == 0
    assert json.loads(open(out).read())["mode"] == "float"


# ---------------------------------------------------------------------------
# busemann-check


def test_busemann_check(runner):
    res = runner.invoke(main, ["busemann-check", "--n", "3", "--direction",
                               "1,0,-1", "--points", "20", "--seed", "0"])
    assert res.exit_code == 0, res.output
    assert last_json(res.output)["max_deviation"] <= 1e-2


def test_busemann_check_zero_direction(runner):
    res = runner.invoke(main, ["busemann-check", "--n", "3", "--direction",
                               "0,0,0"])
    assert res.exit_code == 1


def test_classify_deterministic_output(runner):
    args = ["classify", "--n", "3", "--spec", "wedge(2,std)",
            "--vector", "1,0,0"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
