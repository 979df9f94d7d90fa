import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner

from instab import dumps_cert, loads_cert
from instab.cli import main
from instab.instability import _to_json


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
    assert res.exit_code == 6
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


def test_classify_zero_denominator(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "1/0,1"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error: zero denominator in '1/0'" in res.output


@pytest.mark.parametrize("entry", ['{"num": 1, "den": 0}', '{"num": 1.5, "den": 2}'],
                         ids=["zero-den", "float-num"])
def test_classify_vector_file_malformed_rational(runner, tmp_path, entry):
    vf = tmp_path / "vector.json"
    vf.write_text(f"[{entry}, 1]")
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector-file", str(vf)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error: malformed rational" in res.output


@pytest.mark.parametrize("command", ["classify", "certify"])
@pytest.mark.parametrize("content", ["[null, 1]", "[[1], 0]", "5", "[true, 0]", '["1.5", 0]'],
                         ids=["null", "nested", "not-an-array", "bool", "string"])
def test_vector_file_takes_only_numbers(runner, tmp_path, command, content):
    vf = tmp_path / "vector.json"
    vf.write_text(content)
    out = ["--out", str(tmp_path / "cert.json")] if command == "certify" else []
    res = runner.invoke(main, [command, "--n", "2", "--spec", "std",
                               "--vector-file", str(vf), *out])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "error: " in res.output


def test_classify_dimension_mismatch(runner):
    res = runner.invoke(main, ["classify", "--n", "2", "--spec", "std",
                               "--vector", "1,0,0"])
    assert res.exit_code == 1


# ---------------------------------------------------------------------------
# certify / verify


def certify_args(out, extra=()):
    return ["certify", "--n", "3", "--spec", "wedge(2,std)", "--vector",
            "1,0,0", "--out", out, "--samples", "300", *extra]


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
    ["certify", "--no-cross-check"],
    ["classify", "--eps", "1e-10"],
    ["certify", "--eps", "1e-10"]])
def test_removed_options_are_rejected(runner, tmp_path, args):
    out = ["--out", str(tmp_path / "cert.json")] if args[0] == "certify" else []
    res = runner.invoke(main, [*args, *out, "--n", "2", "--spec", "std",
                               "--vector", "1,0"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_certify_out_that_cannot_be_written(runner, tmp_path):
    out = str(tmp_path / "missing" / "c.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std", "--vector", "1,0",
                               "--out", out])
    assert res.exit_code == 1
    assert f"error: cannot write {out}" in res.output
    assert isinstance(res.exception, SystemExit)


def test_certify_float_form_with_nothing_truncated(runner, tmp_path):
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "sym(3,std)",
                               "--vector", "1.0,0.5,0.0,0.0",
                               "--out", str(tmp_path / "cert.json")])
    assert res.exit_code == 0, res.output
    assert last_json(res.output)["verification_ok"] is True


def test_certify_stable_input(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "sym(2,std)",
                               "--vector", "0,1,0", "--out", out])
    assert res.exit_code == 6


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
    # u fixes the alphas, so inflate them through u: every value the loader
    # checks stays consistent, and only sampling can tell
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    cert = loads_cert(open(out).read())
    with open(out, "w") as fh:
        fh.write(dumps_cert(replace(cert, u=cert.u.scale(2))))
    res = runner.invoke(main, ["verify", out, "--samples", "500"])
    assert res.exit_code == 1
    assert not last_json(res.output)["ok"]


@pytest.mark.parametrize("edit", [
    lambda d: d.update(rate=d["rate"] * 1.5),
    lambda d: d.update(direction=d["direction"][::-1]),
    lambda d: d.update(kempf={"tau": [5, 5, -10], "m": 1, "norm_sq": 3, "ratio": 9.0}),
    lambda d: d.update(alphas=[{"num": a["num"] * 2, "den": a["den"]} for a in d["alphas"]])],
    ids=["rate", "direction", "kempf", "alphas"])
def test_verify_rejects_values_that_contradict_u(runner, tmp_path, edit):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "3", "--spec", "std*wedge(2,std)",
                                "--vector", "1,0,0,0,0,0,0,0,0", "--out", out,
                                "--samples", "0"]).exit_code == 0
    assert runner.invoke(main, ["verify", out, "--samples", "500"]).exit_code == 0
    data = json.loads(open(out).read())
    edit(data)
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "500"])
    assert res.exit_code == 5, res.output
    assert "is not the value u determines" in res.output


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(3, 4), Fraction(101, 100)],
                         ids=["1/2", "3/4", "101/100"])
def test_verify_rejects_a_u_that_is_no_min_norm_point(runner, tmp_path, scale):
    # u = (1/2, -1/2) scaled, with every derived value that u still fixes
    # rewritten to match; no min-norm point of weights pairs with its
    # primitive cocharacter to a non-integer, as this u does
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std", "--vector", "1,0",
                                "--out", out, "--samples", "0"]).exit_code == 0
    text = open(out).read()
    data, cert = json.loads(text), loads_cert(text)
    scaled = replace(cert, u=cert.u.scale(scale))
    for name in ("u", "rate", "direction", "order", "alphas", "hw", "mode"):
        data[name] = _to_json(getattr(scaled, name))
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert "u is no min-norm point of weights: non-integral pairing" in res.output


def test_verify_zero_samples(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    res = runner.invoke(main, ["verify", out, "--samples", "0"])
    assert res.exit_code == 0


def strict_json(line: str) -> dict:
    """``line`` read as strict JSON: NaN, Infinity and -Infinity are no values."""
    def refuse(token):
        raise AssertionError(f"{token} is not JSON: {line}")
    return json.loads(line, parse_constant=refuse)


def test_verify_zero_samples_prints_strict_json(runner, tmp_path):
    # no margin to report: the minimum of none and the mean of none are null
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, certify_args(out)).exit_code == 0
    res = runner.invoke(main, ["verify", out, "--samples", "0"])
    assert res.exit_code == 0
    report = strict_json(res.output.strip().splitlines()[-1])
    assert report["margin_min"] is None and report["margin_mean"] is None
    assert report["ok"] is True and report["failures"] == 0


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


@pytest.mark.parametrize("path, value, message", [
    (("verification", "ray_checked"), "false", "ray_checked: expected bool, got 'false'"),
    (("seed",), True, "seed: expected int, got True"),
    (("vector", 0), "1.5", "vector: expected float, got '1.5'")],
    ids=["ray_checked", "seed", "vector"])
def test_verify_rejects_a_value_of_the_wrong_json_type(runner, tmp_path, path, value, message):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                                "--vector", "1,0", "--out", out,
                                "--samples", "50"]).exit_code == 0
    data = json.loads(open(out).read())
    sub = data
    for key in path[:-1]:
        sub = sub[key]
    sub[path[-1]] = value
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert message in res.output


@pytest.mark.parametrize("field, value, message", [
    ("hw", [5], "hw is not the value u determines"),
    ("mode", "bogus", "mode is not the value the vector and frame determine"),
    ("vector", [1.0, 0.0], "mode is not the value the vector and frame determine")],
    ids=["hw", "mode", "exact-float-vector"])
def test_verify_rejects_fields_that_disagree(runner, tmp_path, field, value, message):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                                "--vector", "1,0", "--out", out,
                                "--samples", "50"]).exit_code == 0
    data = json.loads(open(out).read())
    assert data["mode"] == "exact"
    data[field] = value
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert message in res.output


def test_verify_rejects_zero_denominator(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                                "--vector", "1,0", "--out", out,
                                "--samples", "50"]).exit_code == 0
    data = json.loads(open(out).read())
    data["vector"][0] = {"num": 1, "den": 0}
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert "malformed rational" in res.output


def test_certify_exact_vector_file(runner, tmp_path):
    vf = tmp_path / "vector.json"
    vf.write_text('[{"num": 1, "den": 1}, 0]')
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                               "--vector-file", str(vf), "--out", out,
                               "--samples", "100"])
    assert res.exit_code == 0, res.output
    data = json.loads(open(out).read())
    assert data["mode"] == "exact"
    assert data["vector"][0] == {"num": 1, "den": 1}


def test_rational_string_vector_stays_exact(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "sym(2,std)",
                               "--vector", "1/2,0,0", "--out", out,
                               "--samples", "100"])
    assert res.exit_code == 0, res.output
    data = json.loads(open(out).read())
    assert data["mode"] == "exact"
    assert data["vector"][0] == {"num": 1, "den": 2}


def test_decimal_vector_barred_from_exact(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["certify", "--n", "2", "--spec", "std",
                               "--vector", "1.0,0.0", "--out", out,
                               "--samples", "0"])
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


@pytest.mark.parametrize("direction", ["1,-1", "1,0,0,-1"])
def test_busemann_check_direction_of_the_wrong_length(runner, direction):
    res = runner.invoke(main, ["busemann-check", "--n", "3", "--direction", direction])
    assert res.exit_code == 1
    assert "error: direction has" in res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("tmax", ["1e308", "inf"])
def test_busemann_check_with_a_deviation_that_is_not_finite(runner, tmax):
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", "1,-1",
                               "--points", "1", "--tmax", tmax])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--tmax'" in res.output
    assert "is not finite" in res.output
    assert "max_deviation" not in res.output


def test_busemann_check_prints_strict_json(runner):
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", "1,-1",
                               "--points", "2", "--tmax", "1e6"])
    assert res.exit_code == 0, res.output
    assert strict_json(res.output.strip().splitlines()[-1])["max_deviation"] <= 1e-2


@pytest.mark.parametrize("box", ["100", "1000"])
def test_busemann_check_with_a_box_beyond_the_float_range(runner, box):
    # pi(g) of such a box has a condition number past 1/eps, or overflows
    res = runner.invoke(main, ["busemann-check", "--n", "3", "--direction", "1,0,-1",
                               "--points", "3", "--box", box])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value for '--box'" in res.output
    assert "max_deviation" not in res.output


def test_busemann_check_with_a_direction_whose_squares_overflow(runner):
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", "1e308,-1e308",
                               "--points", "2"])
    assert res.exit_code == 0, res.output
    assert strict_json(res.output.strip().splitlines()[-1])["max_deviation"] <= 1e-2


@pytest.mark.parametrize("direction", ["1e-16,-1e-16", "1e-300,-1e-300", "5e-324,-5e-324"])
def test_busemann_check_with_a_small_float_direction(runner, direction):
    # a direction is zero only when every coordinate is, at any scale
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", direction,
                               "--points", "2"])
    assert res.exit_code == 0, res.output
    assert strict_json(res.output.strip().splitlines()[-1])["max_deviation"] <= 1e-2


def test_busemann_check_direction_that_sums_to_0_up_to_rounding(runner):
    # 0.1 + 0.2 - 0.3 is 5.6e-17 in floats, far within 1e-12 of 0.3
    res = runner.invoke(main, ["busemann-check", "--n", "3", "--direction", "0.1,0.2,-0.3",
                               "--points", "2"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("direction, total", [("1e-16,-5e-17", "5e-17"),
                                              ("1e-13,-5e-14", "5e-14")])
def test_busemann_check_small_direction_that_is_not_traceless(runner, direction, total):
    # the sum is tested relative to the largest coordinate, so the error
    # names the sum of the direction given, not of its unit vector
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", direction])
    assert res.exit_code == 1
    assert f"error: coordinates must sum to 0, got {total}\n" in res.output


@pytest.mark.parametrize("direction", ["0,0", "0.0,-0.0"])
def test_busemann_check_zero_direction_of_either_kind(runner, direction):
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", direction])
    assert res.exit_code == 1
    assert "error: zero direction" in res.output


def test_busemann_check_at_the_least_tmax(runner):
    res = runner.invoke(main, ["busemann-check", "--n", "2", "--direction", "1,-1",
                               "--points", "1", "--tmax", "100"])
    assert res.exit_code == 0, res.output
    assert last_json(res.output)["t_max"] == 100


@pytest.mark.parametrize("command, option, value", [
    ("certify", "--samples", "-5"), ("verify", "--samples", "-3"),
    ("busemann-check", "--tmax", "50"), ("busemann-check", "--tmax", "10"),
    ("busemann-check", "--points", "0"), ("certify", "--seed", "-1"),
    ("verify", "--seed", "-1"), ("busemann-check", "--seed", "-1"),
    ("certify", "--seed", str(2**64))])
def test_option_out_of_range_is_a_usage_error(runner, tmp_path, command, option, value):
    out = str(tmp_path / "cert.json")
    vector = ["--n", "2", "--spec", "std", "--vector", "1,0"]
    assert runner.invoke(main, ["certify", *vector, "--out", out, "--samples", "0"]).exit_code == 0
    args = {"certify": [*vector, "--out", str(tmp_path / "other.json")], "verify": [out],
            "busemann-check": ["--n", "3", "--direction", "1,0,-1"]}[command]
    res = runner.invoke(main, [command, *args, option, value])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert not (tmp_path / "other.json").exists()


@pytest.mark.parametrize("command, option, value", [
    ("certify", "--box", "nan"), ("certify", "--tol", "-1e-6"), ("verify", "--box", "nan"),
    ("verify", "--box", "-1"), ("verify", "--tol", "nan"), ("verify", "--tol", "inf"),
    ("busemann-check", "--box", "nan")])
def test_a_bad_box_or_tolerance_is_a_usage_error(runner, tmp_path, command, option, value):
    out = str(tmp_path / "cert.json")
    vector = ["--n", "2", "--spec", "std", "--vector", "1,0"]
    assert runner.invoke(main, ["certify", *vector, "--out", out, "--samples", "0"]).exit_code == 0
    args = {"certify": [*vector, "--out", str(tmp_path / "other.json")], "verify": [out],
            "busemann-check": ["--n", "3", "--direction", "1,0,-1"]}[command]
    res = runner.invoke(main, [command, *args, option, value])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert not (tmp_path / "other.json").exists()


def test_verify_rejects_a_frame_without_det_1(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "2", "--spec", "std", "--vector", "1.0,1.0",
                                "--out", out, "--samples", "0"]).exit_code == 0
    data = json.loads(open(out).read())
    assert data["mode"] == "float"
    assert runner.invoke(main, ["verify", out, "--samples", "50"]).exit_code == 0
    data["frame"][0] = [-x for x in data["frame"][0]]
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "50"])
    assert res.exit_code == 5, res.output
    assert "determinant 1" in res.output


def test_verify_rejects_a_frame_that_is_not_orthogonal(runner, tmp_path):
    out = str(tmp_path / "cert.json")
    assert runner.invoke(main, ["certify", "--n", "3", "--spec", "wedge(2,std)", "--vector",
                                "0.3,0.5,-0.2", "--out", out, "--samples", "0"]).exit_code == 0
    data = json.loads(open(out).read())
    shear = [[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # det 1
    data["frame"] = [[sum(r[k] * shear[k][j] for k in range(3)) for j in range(3)]
                     for r in data["frame"]]
    with open(out, "w") as fh:
        json.dump(data, fh)
    res = runner.invoke(main, ["verify", out, "--samples", "1000"])
    assert res.exit_code == 5, res.output
    assert "frame is not orthogonal" in res.output


@pytest.mark.parametrize("command, code", [("verify", 2), ("certify", 1)])
def test_a_box_whose_samples_overflow(runner, tmp_path, command, code):
    # verify: a usage error, not a malformed file; certify: an input error,
    # since a plain ValueError there can also be a parse error
    out = str(tmp_path / "cert.json")
    vector = ["--n", "2", "--spec", "std", "--vector", "1,0"]
    assert runner.invoke(main, ["certify", *vector, "--out", out, "--samples", "0"]).exit_code == 0
    args = {"verify": [out], "certify": [*vector, "--out", str(tmp_path / "other.json")]}[command]
    res = runner.invoke(main, [command, *args, "--box", "1e6", "--samples", "10"])
    assert res.exit_code == code, res.output
    assert "box 1000000.0 draws group elements that are not finite" in res.output
    assert "malformed" not in res.output


def test_stable_input_and_usage_error_exit_with_different_codes(runner, tmp_path):
    # x^2 + 1e-6 y^2 is definite, hence stable
    args = ["certify", "--n", "2", "--spec", "sym(2,std)", "--vector", "1,0,1/1000000",
            "--out", str(tmp_path / "cert.json")]
    stable = runner.invoke(main, args)
    usage = runner.invoke(main, [*args, "--samples", "-1"])
    assert "stable input" in stable.output
    assert "Invalid value for '--samples'" in usage.output
    assert (stable.exit_code, usage.exit_code) == (6, 2)


def test_classify_deterministic_output(runner):
    args = ["classify", "--n", "3", "--spec", "wedge(2,std)",
            "--vector", "1,0,0"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def _certify_cubic(runner, out, big):
    """``certify --samples 0`` of big x^3 + x^2 y in sym(3,std) n=3, to ``out``."""
    return runner.invoke(main, ["certify", "--n", "3", "--spec", "sym(3,std)", "--vector",
                                ",".join(map(str, [big, 1] + [0] * 8)),
                                "--out", str(out), "--samples", "0"])


def test_certify_exits_1_on_a_constant_that_is_not_finite(runner, tmp_path, monkeypatch):
    # an estimator whose constant is -inf: the certificate is not written,
    # and the exit is 1
    from instab import instability
    estimate = instability._estimate_constant
    monkeypatch.setattr(instability, "_estimate_constant",
                        lambda *args: (-math.inf, estimate(*args)[1]))
    out = tmp_path / "cert.json"
    res = _certify_cubic(runner, out, 10 ** 3)
    assert res.exit_code == 1, res.output
    assert "c = -inf is not finite" in res.output
    assert not out.exists()


def test_certify_writes_a_face_that_rounds_to_0(runner, tmp_path):
    # the x^2 y component of 2^1100 x^3 + x^2 y rounds to 0 beside x^3; its
    # log norm is read from the exact component, so c is the one of 10^3 x^3 + x^2 y
    near, out = tmp_path / "near.json", tmp_path / "cert.json"
    assert _certify_cubic(runner, near, 10 ** 3).exit_code == 0
    res = _certify_cubic(runner, out, 2 ** 1100)
    assert res.exit_code == 0, res.output
    c = loads_cert(out.read_text()).c
    assert math.isfinite(c) and c == pytest.approx(loads_cert(near.read_text()).c, abs=1e-12)
