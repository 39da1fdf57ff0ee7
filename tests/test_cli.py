import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conealg import (
    BigradedMonomial,
    FanLinearityError,
    LatticePoint2,
    Monomial,
    MonomialParseError,
    PowerCapError,
    SpecFormatError,
    build_fan,
    fan_order,
)
from conealg.cli import _build_parser, generators_to_json, main
from strategies import column_pairs

GOLDEN_LINES = [
    "x^2*y^3*v",
    "x^6*y^9*u*v^3",
    "x^10*y^15*u^2*v^5",
    "x^5*y^6*u*v^2",
    "x^5*y^3*u*v",
    "x^15*y^6*u^3*v^2",
    "x^10*y^4*u^2*v",
    "x^5*y^2*u",
]


def generators_from_json(text):
    """Read back the generators JSON format (unvalidated: the test feeds it
    only the CLI's own output)."""
    data = json.loads(text)
    variables = tuple(data["variables"])
    index = {v: i for i, v in enumerate(variables)}
    gens = []
    for item in data["generators"]:
        exponents = [0] * len(variables)
        for name, e in item["coeff"].items():
            exponents[index[name]] = e
        gens.append(
            BigradedMonomial(Monomial(tuple(exponents)), LatticePoint2(item["u"], item["v"]))
        )
    return variables, tuple(gens)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generators_golden_text(capsys):
    code, out, err = run(
        capsys, "generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == GOLDEN_LINES


def test_console_script_entry_point(capsys):
    # the function that pyproject.toml's conealg console script runs
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^conealg = "([\w.]+):(\w+)"$', text, re.M).groups()
    entry = getattr(importlib.import_module(module), function)
    code = entry(["generators", "--a", "5,2", "--b", "2,3"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.splitlines() == GOLDEN_LINES


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_generators_byte_stable(capsys):
    args = ("generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_generators_exponent_vector_input(capsys):
    code, out, _ = run(capsys, "generators", "--a", "1", "--b", "1", "--vars", "x")
    assert code == 0
    assert sorted(out.splitlines()) == ["x*u", "x*u*v", "x*v"]


def test_generators_vector_input_matches_ideal_input(capsys):
    _, via_ideal, _ = run(
        capsys, "generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3"
    )
    _, via_vector, _ = run(capsys, "generators", "--a", "5,2", "--b", "2,3")
    assert via_ideal == via_vector


def test_generators_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["format_version"] == 1
    assert data["generators"][0] == {"coeff": {"x": 2, "y": 3}, "u": 0, "v": 1}
    variables, gens = generators_from_json(out)
    assert generators_to_json(variables, gens) + "\n" == out


def test_generators_m2check(capsys):
    code, out, _ = run(
        capsys, "generators", "--ideal-i", "x^5*y^2", "--ideal-j", "x^2*y^3",
        "--format", "m2check",
    )
    assert code == 0
    assert "algGens(I,J)" in out
    assert "ideal(x^5*y^2)" in out and "ideal(x^2*y^3)" in out
    assert "x^10*y^15*u^2*v^5" in out
    assert out.startswith("-- conealg m2check (format_version 1)")


def test_generators_rejects_polynomial(capsys):
    code, out, err = run(
        capsys, "generators", "--ideal-i", "x+y", "--ideal-j", "x", "--vars", "x,y"
    )
    assert code == 2 and out == ""
    assert "error:" in err and "column 2" in err
    assert "Traceback" not in err


def test_generators_input_style_conflicts(capsys):
    code, _, err = run(
        capsys, "generators", "--ideal-i", "x", "--ideal-j", "y", "--a", "1", "--b", "1"
    )
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "generators", "--a", "1,2")
    assert code == 2 and "--b" in err


def test_hilbert_basis_golden_line(capsys):
    code, out, _ = run(capsys, "hilbert-basis", "--ray", "0,1", "--ray", "2,5")
    assert code == 0
    assert out == "(0,1) (1,3) (2,5)\n"


def test_hilbert_basis_json(capsys):
    code, out, _ = run(
        capsys, "hilbert-basis", "--ray", "2,5", "--ray", "0,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "format_version": 1,
        "cone": {"ray_high": [0, 1], "ray_low": [2, 5]},
        "elements": [[0, 1], [1, 3], [2, 5]],
    }


def test_hilbert_basis_requires_two_rays(capsys):
    code, _, err = run(capsys, "hilbert-basis", "--ray", "0,1")
    assert code == 2 and "exactly two" in err


def test_hilbert_basis_ray_past_digit_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["hilbert-basis", "--ray", "7" * 5000 + ",1", "--ray", "0,1"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "argument --ray: " in err and "5000 digits" in err
    assert "sys." not in err and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_vector_entry_past_digit_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--a", "7" * 5000 + ",1", "--b", "1,1", "--rmax", "2", "--smax", "2"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.endswith(
        "argument --a: Exceeds the limit (4300 digits) for integer string conversion:"
        " value has 5000 digits\n"
    )
    assert "777" not in err and "sys." not in err


def test_vector_entry_not_an_integer_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--a", "x,1", "--b", "1,1", "--rmax", "2", "--smax", "2"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --a: expected comma-separated integers, got 'x,1'\n"
    )


def test_fan_text(capsys):
    code, out, _ = run(capsys, "fan", "--a", "5,2", "--b", "2,3")
    assert code == 0
    assert out.splitlines() == [
        "C0: (0,1) (2,5)",
        "C1: (2,5) (3,2)",
        "C2: (3,2) (1,0)",
    ]


def test_fan_orders_input_and_flags_degenerate(capsys):
    code, out, _ = run(capsys, "fan", "--a", "4,2", "--b", "2,1")
    assert code == 0
    assert out.splitlines() == [
        "C0: (0,1) (1,2)",
        "C1: (1,2) (1,2) degenerate",
        "C2: (1,2) (1,0)",
    ]


def test_fan_json(capsys):
    code, out, _ = run(capsys, "fan", "--a", "5,2", "--b", "2,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["format_version"] == 1
    assert data["a"] == [5, 2] and data["b"] == [2, 3]
    assert data["cones"][0] == {"ray_high": [0, 1], "ray_low": [2, 5], "degenerate": False}


def test_fan_svg_deterministic(capsys):
    args = ("fan", "--a", "5,2", "--b", "2,3", "--format", "svg")
    code, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second
    assert first.startswith("<svg ")
    assert 'data-format-version="1"' in first
    assert "<circle" in first and "<polygon" in first


@pytest.mark.parametrize(
    "a,b,size,digest",
    [
        ("5,2", "2,3", 1477, "dea143688d679ccf48c26a4bc470b4b62c5921ef451b02d8c770b34969c77492"),
        ("1,1", "1,1", 1002, "0028ee3a80189769c644fc44d80cc38ea4b2d508ba9621c784bdaeb801adc686"),
    ],
    ids=["two-variables", "degenerate-cone"],
)
def test_fan_svg_golden_bytes(capsys, a, b, size, digest):
    code, out, err = run(capsys, "fan", "--a", a, "--b", b, "--format", "svg")
    assert code == 0 and err == ""
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "5,2", "--b", "2,3", "--rmax", "15", "--smax", "15"
    )
    assert code == 0
    assert out == "PASS 256/256 components\n"


@pytest.mark.parametrize("a,b", [("5,2", "2,3"), ("3,0,0", "1,2,5"), ("1,2,3", "0,0,4")])
@pytest.mark.parametrize("r_max,s_max,total", [("0", "0", 1), ("0", "9", 10), ("9", "0", 10)])
def test_verify_zero_width_grid(capsys, a, b, r_max, s_max, total):
    code, out, _ = run(capsys, "verify", "--a", a, "--b", b, "--rmax", r_max, "--smax", s_max)
    assert code == 0
    assert out == f"PASS {total}/{total} components\n"


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "1", "--b", "2", "--rmax", "5", "--smax", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["total"] == 36


def test_limits_line(capsys):
    code, out, _ = run(capsys, "limits", "--a", "5,2", "--b", "2,3")
    assert code == 0
    assert out == "l_I(J)=2/5 L_I(J)=3/2 l_J(I)=2/3 L_J(I)=5/2\n"


def test_limits_json(capsys):
    code, out, _ = run(capsys, "limits", "--a", "5,2", "--b", "2,3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "format_version": 1,
        "l_I_of_J": "2/5",
        "L_I_of_J": "3/2",
        "l_J_of_I": "2/3",
        "L_J_of_I": "5/2",
    }


def test_limits_drops_a_column_zero_in_both(capsys):
    code, out, _ = run(capsys, "limits", "--a", "1,0", "--b", "2,0")
    assert code == 0
    assert out == "l_I(J)=2 L_I(J)=2 l_J(I)=1/2 L_J(I)=1/2\n"


def test_limits_rejects_unequal_radicals(capsys):
    code, _, err = run(capsys, "limits", "--a", "1,0", "--b", "1,2")
    assert code == 2 and "radicals differ" in err


SPEC_PAYLOAD = {
    "variables": ["x", "y"],
    "a": [1],
    "b": [1],
    "ideals": [["x", "y"]],
    "pieces": [[[1, 2], [2, 1]]],
}


def test_fan_algebra_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    code, out, _ = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "x^2*v"
    assert "y^3*u*v" in lines


def test_fan_algebra_verify_pass(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    code, out, _ = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "8x8")
    assert code == 0
    assert out.splitlines()[-1] == "PASS 81/81 components"


def test_fan_algebra_verify_one_number_is_a_square_grid(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    code, out, _ = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "4")
    assert code == 0
    assert out.splitlines()[-1] == "PASS 25/25 components"


@pytest.mark.parametrize("grid", ["3x", "x3", "3x4x5", "three", "3.0"])
def test_fan_algebra_malformed_verify_exits_2(tmp_path, capsys, grid):
    with pytest.raises(SystemExit) as info:
        main(["fan-algebra", "--spec", str(tmp_path / "spec.json"), "--verify", grid])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"argument --verify: expected N or RxS, got {grid!r}\n"
    )


def test_fan_algebra_schema_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    payload = dict(SPEC_PAYLOAD, a=[1.5])
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2
    assert "a[0]" in err


def test_fan_algebra_both_zero_column_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_PAYLOAD, a=[1, 0], b=[1, 0])))
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a/b: a and b are both zero at index 1\n"


def test_fan_algebra_deeply_nested_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: ") and "Traceback" not in err


def test_fan_algebra_integer_past_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD).replace('"a": [1]', '"a": [' + "7" * 5000 + "]"))
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: ") and "digits" in err
    assert "sys." not in err and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("path_kind", ["ideal", "spec"])
def test_monomial_exponent_past_digit_limit_exits_2(tmp_path, capsys, path_kind):
    monomial = "x^" + "7" * 5000
    if path_kind == "ideal":
        argv = ["generators", "--ideal-i", monomial, "--ideal-j", "y"]
        prefix = "error: "
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC_PAYLOAD, ideals=[[monomial]])))
        argv = ["fan-algebra", "--spec", str(path)]
        prefix = "error: ideals[0][0]: "
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"{prefix}Exceeds the limit (4300 digits) for integer string conversion:"
        " value has 5000 digits (column 3)\n"
    )
    assert "sys." not in err


@pytest.mark.parametrize(
    "error,payload,argv,code",
    [
        (MonomialParseError, None, ["generators", "--ideal-i", "x^", "--ideal-j", "y"], 2),
        (SpecFormatError, dict(SPEC_PAYLOAD, extra=1), ["fan-algebra"], 2),
        (FanLinearityError, dict(SPEC_PAYLOAD, pieces=[[[1, 0], [0, 1]]]), ["fan-algebra"], 2),
        (PowerCapError, dict(SPEC_PAYLOAD, variables=["x"], ideals=[["x"]],
                             pieces=[[[0, 1000001], [1000001, 0]]]), ["fan-algebra"], 3),
    ],
    ids=["MonomialParseError", "SpecFormatError", "FanLinearityError", "PowerCapError"],
)
def test_error_class_exit_code(tmp_path, capsys, error, payload, argv, code):
    """``main`` maps each error class to its exit code: the three input
    errors by their common base ValueError, the cap error, which is no
    ValueError, by its own class."""
    assert issubclass(error, ValueError) == (code == 2)
    if payload is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, "--spec", str(path)]
    args = _build_parser().parse_args(argv)
    with pytest.raises(error) as info:
        args.handler(args)
    assert run(capsys, *argv) == (code, "", f"error: {info.value}\n")


@pytest.mark.parametrize("version", [True, 1.0])
def test_fan_algebra_format_version_must_be_an_exact_integer(tmp_path, capsys, version):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_PAYLOAD, format_version=version)))
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert "format_version: expected an exact integer" in err


# A non-principal spec on three cones: max(r*a_k, s*b_k) pieces for
# a = (2, 1), b = (1, 2), with I_1 = (x, y^2) and I_2 = (y).
TWO_IDEAL_SPEC = dict(
    SPEC_PAYLOAD, a=[2, 1], b=[1, 2], ideals=[["x", "y^2"], ["y"]],
    pieces=[[[0, 1], [2, 0], [2, 0]], [[0, 2], [0, 2], [1, 0]]],
)


def test_fan_algebra_verify_builds_each_chain_once(tmp_path, capsys, calls):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TWO_IDEAL_SPEC))
    seen = calls("lattice.hilbert_basis")
    code, out, _ = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "6x6")
    assert code == 0 and out.endswith("PASS 49/49 components\n")
    assert [c for c, in seen] == list(build_fan((2, 1), (1, 2)).cones)


def test_fan_algebra_verify_computes_each_power_once(tmp_path, capsys, calls):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TWO_IDEAL_SPEC))
    seen = calls("monomials.ideal_power")
    code, out, _ = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "6x6")
    assert code == 0 and out.endswith("PASS 49/49 components\n")
    assert len(seen) > 2 and len(set(seen)) == len(seen)


def test_verify_computes_each_distinct_degree_once(capsys, calls):
    # the repeated ratio 5/2 gives a degenerate cone, so the degree (2,5)
    # ends one chain, is the whole next one and starts a third; yet each
    # distinct degree's exponents are computed once to generate and once to
    # certify
    seen = calls("monomials._max_exponents")
    code, out, _ = run(capsys, "verify", "--a", "5,5,2", "--b", "2,2,3",
                       "--rmax", "6", "--smax", "6")
    assert code == 0 and out == "PASS 49/49 components\n"
    degrees = [LatticePoint2(r, s) for *_, r, s in seen]
    chains = build_fan((5, 5, 2), (2, 2, 3)).chains
    assert Counter(degrees) == {p: 2 for chain in chains for p in chain}


def test_fan_algebra_missing_file(capsys):
    code, _, err = run(capsys, "fan-algebra", "--spec", "/nonexistent/spec.json")
    assert code == 2 and "cannot read" in err


def test_fan_algebra_spec_not_utf8_names_the_stage(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == ("error: cannot read spec file: 'utf-8' codec can't decode byte 0xff"
                   " in position 0: invalid start byte\n")


def test_cap_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", "10")
    path = tmp_path / "spec.json"
    payload = dict(SPEC_PAYLOAD, pieces=[[[10, 20], [20, 10]]])
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 3
    assert "power too large" in err


def test_fan_algebra_degenerate_cone_verifies(tmp_path, capsys, deadline):
    path = tmp_path / "spec.json"
    payload = dict(SPEC_PAYLOAD, a=[1, 1], b=[1, 1], pieces=[[[0, 0], [1, -1], [0, 0]]])
    path.write_text(json.dumps(payload))
    with deadline(10):
        code, out, err = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "4x4")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "PASS 25/25 components"


def test_fan_algebra_thin_cone_rejection_exits_2(tmp_path, capsys, deadline):
    path = tmp_path / "spec.json"
    payload = dict(SPEC_PAYLOAD, variables=["x"], a=[999, 998], b=[1000, 999],
                   ideals=[["x"]], pieces=[[[0, 0], [999, -1000], [1, -1]]])
    path.write_text(json.dumps(payload))
    with deadline(2):
        code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == "error: f(1,0)+f(1000,999) = 1+0 < f(1001,999) = 2\n"


def test_principal_power_past_the_default_cap_exits_3_at_once(tmp_path, capsys, deadline):
    # x^1000001 at the degrees (0,1), (1,1) and (1,0): the closed-form power
    # raises the cap error that 1000001 one-candidate products would reach
    path = tmp_path / "spec.json"
    payload = dict(SPEC_PAYLOAD, variables=["x"], ideals=[["x"]],
                   pieces=[[[0, 1000001], [1000001, 0]]])
    path.write_text(json.dumps(payload))
    with deadline(0.5):
        code, out, err = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "2x2")
    assert code == 3 and out == ""
    assert err == "error: power too large: 1000001 candidate products exceed cap 1000000\n"


def test_verify_grid_over_default_cap_exits_3(capsys, deadline):
    with deadline(5):
        code, out, err = run(
            capsys, "verify", "--a", "5,2", "--b", "2,3", "--rmax", "1000000000", "--smax", "1"
        )
    assert code == 3 and out == ""
    assert err == "error: grid too large: 2000000002 cells exceed cap 1000000\n"


def test_verify_grid_over_env_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", "10")
    code, out, err = run(capsys, "verify", "--a", "5,2", "--b", "2,3", "--rmax", "4", "--smax", "4")
    assert code == 3 and out == ""
    assert err == "error: grid too large: 25 cells exceed cap 10\n"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_PAYLOAD, ideals=[["x*y"]])))
    code, _, err = run(capsys, "fan-algebra", "--spec", str(path), "--verify", "4x4")
    assert code == 3
    assert err == "error: grid too large: 25 cells exceed cap 10\n"


def test_verification_failure_exit_code(capsys, monkeypatch):
    import conealg.cli as cli_module
    from conealg import LatticePoint2, VerificationReport

    failing = VerificationReport(False, 36, 1, LatticePoint2(0, 1), "forced")
    monkeypatch.setattr(cli_module, "verify_generation", lambda *args: failing)
    code, out, _ = run(
        capsys, "verify", "--a", "1", "--b", "1", "--rmax", "5", "--smax", "5"
    )
    assert code == 4
    assert out == "FAIL at (r,s)=(0,1): forced (35/36 components)\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader closes the pipe before the interpreter has started, so the
    # first flush of the answer meets a broken pipe
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.Popen(
        [sys.executable, "-m", "conealg.cli", "generators", "--a", "5,2", "--b", "2,3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=30) == 1
    assert err == b""


def test_pool_timing_closed_stdout_exits_1_without_a_traceback():
    root = Path(__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, str(root / "tools" / "pool_timing.py"), "--passes", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=60) == 1
    assert err == b""


def test_pool_timing_groups_by_an_op_parameter():
    root = Path(__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, str(root / "tools" / "pool_timing.py"), "--workload", "fan-algebra",
         "--passes", "1", "--group", "spec"],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0 and child.stderr == ""
    head, *lines = child.stdout.splitlines()
    total = int(re.match(r"fan-algebra seed 1: (\d+) ops, min of 1 passes: mean ", head)[1])
    groups = [re.fullmatch(r"  spec (\S+): (\d+) ops, mean \d+\.\d{3} ms", line) for line in lines]
    assert all(groups) and sum(int(g[2]) for g in groups) == total
    kinds = [g[1] for g in groups]
    assert kinds == sorted(kinds) and "intersection" in kinds


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_grading_symbols_rejected_as_variables(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["generators", "--a", "1,2", "--b", "2,1", "--vars", "u,v"])
    assert info.value.code == 2
    assert "u and v name the grading" in capsys.readouterr().err
    code, out, err = run(capsys, "generators", "--ideal-i", "u*v^2", "--ideal-j", "u^2*v")
    assert code == 2 and out == "" and "u and v name the grading" in err
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_PAYLOAD, variables=["x", "v"])))
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == "" and "variables[1]" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--ideal-i", "x^5", "--ideal-j", "x^2", "--vars", "x,x"],
         "variables[1]: duplicate name 'x'"),
        (["--a", "1,2", "--b", "2,3", "--vars", "x*y,z"],
         "variables[0]: expected an identifier, got 'x*y'"),
        (["--a", "1,2", "--b", "2,3", "--vars", "1,2"],
         "variables[0]: expected an identifier, got '1'"),
        (["--a", "1,2", "--b", "2,3", "--vars", "x*y,z", "--format", "m2check"],
         "variables[0]: expected an identifier, got 'x*y'"),
        (["--a", "1,2", "--b", "2,3", "--vars", "x,2", "--format", "m2check"],
         "variables[1]: expected an identifier, got '2'"),
    ],
    ids=["duplicate", "product", "digits", "m2check-product", "m2check-digit"],
)
def test_bad_variable_names_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(["generators", *argv])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert f"argument --vars: {message}\n" in captured.err


def test_many_variable_names_are_checked_in_linear_time(capsys, deadline):
    """50,000 names, given with --vars or inferred from --ideal-i/--ideal-j,
    are checked well within a second, and the bad name after them is named
    by its position."""
    names = [f"x{k}" for k in range(50_000)]
    with deadline(1), pytest.raises(SystemExit) as info:
        main(["generators", "--a", "1,2", "--b", "2,3", "--vars", ",".join(names + ["x7"])])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert "argument --vars: variables[50000]: duplicate name 'x7'\n" in captured.err
    with deadline(1):
        code, out, err = run(capsys, "generators", "--ideal-i", "*".join(names),
                             "--ideal-j", "x7*u")
    assert code == 2 and out == ""
    assert "variables[50000]: u and v name the grading and cannot be variables" in err


@pytest.mark.parametrize("value", ["abc", "-1", "0", "1.5"])
def test_bad_cap_env_value_is_an_input_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_PAYLOAD))
    code, out, err = run(capsys, "fan-algebra", "--spec", str(path))
    assert code == 2 and out == ""
    assert f"CONEALG_MAX_CANDIDATES must be a positive integer, got {value!r}" in err


# --- contract fuzz: every argv ends in a documented exit code ---
# Entries stay at most 12, so no --ray pair has a large determinant (the
# parallelogram scan of hilbert-basis/generators is still linear in it).

JUNK = st.sampled_from(["", "x", "1.5", "1,,2", "-1", "u,v", "x^2*y", "3x", "2x3x4"])
ENTRIES = st.integers(0, 12)
NAMES = st.lists(st.sampled_from(["x", "y", "z", "u", "v", "", "x1"]), min_size=1, max_size=4)
FORMATS = st.sampled_from(["text", "json"] * 3 + ["svg", "m2check", "yaml"])


def mostly(strategy, junk=JUNK):
    """strategy's values as argv text, one time in four replaced by junk."""
    return st.integers(0, 3).flatmap(lambda k: junk if k == 3 else strategy.map(str))


MONOMIALS = mostly(
    st.sampled_from(["x", "y", "x*y^2", "x^5*y^2", "z^3*x", "1", "x^0", "y^12"]),
    junk=st.sampled_from(["x^-1", "2*x", "x+y", "u*v", ""]),
)


@st.composite
def vector_pairs(draw):
    """--a and --b of one length (sometimes not), values 0..12 (sometimes
    junk), each sometimes left out."""
    n = draw(st.integers(1, 4))
    argv = []
    for flag in ("--a", "--b"):
        size = n + draw(st.sampled_from([0, 0, 0, 1]))
        csv = st.lists(ENTRIES, min_size=size, max_size=size).map(
            lambda xs: ",".join(map(str, xs)))
        if draw(st.integers(0, 7)) < 7:
            argv += [flag, draw(mostly(csv))]
    return argv


def options(required=None, **choices):
    """The required --options and each other one present or not, with values
    drawn from their strategies."""
    return st.fixed_dictionaries(required or {}, optional=choices).map(
        lambda chosen: [token for flag, value in chosen.items()
                        for token in ("--" + flag.replace("_", "-"), value)])


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [token for part in lists for token in part])


RAY = st.tuples(ENTRIES, ENTRIES).map(lambda p: f"{p[0]},{p[1]}")
ARGV_TAILS = {
    "generators": st.one_of(
        joined(vector_pairs(), options(vars=NAMES.map(",".join), format=FORMATS)),
        options(ideal_i=MONOMIALS, ideal_j=MONOMIALS, vars=NAMES.map(",".join),
                format=FORMATS),
    ),
    "hilbert-basis": joined(
        st.lists(mostly(RAY), min_size=1, max_size=3).map(
            lambda rays: [token for ray in rays for token in ("--ray", ray)]),
        options(format=FORMATS)),
    "fan": joined(vector_pairs(), options(format=FORMATS)),
    "verify": joined(vector_pairs(), options(
        {"rmax": mostly(st.integers(-1, 12)), "smax": mostly(st.integers(-1, 12))},
        format=FORMATS)),
    "limits": joined(vector_pairs(), options(format=FORMATS)),
    "fan-algebra": options(
        verify=mostly(st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(
            lambda g: f"{g[0]}x{g[1]}")),
        format=FORMATS),
}


@st.composite
def small_pairs(draw):
    """1..3 columns of ENTRIES, not always a valid pair, sometimes with the
    last column repeated (a degenerate cone)."""
    n = draw(st.integers(1, 3))
    a = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    b = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    if draw(st.booleans()):
        a, b = a + a[-1:], b + b[-1:]
    return a, b


@st.composite
def spec_payloads(draw, pairs=small_pairs()):
    """Fan-algebra files on the columns of ``pairs``, mostly fan ordered;
    each function is max(r*a_j, s*b_j) (fan-linear), min(r*a_j, s*b_j) (not
    subadditive) or random small pieces; one file in four has a field of the
    wrong type, dropped, or an unknown one."""
    a, b = map(list, draw(pairs))
    if draw(st.integers(0, 4)) < 4 and any(a) and any(b):
        a, b, _ = fan_order(a, b)
    ideals = draw(st.lists(st.lists(MONOMIALS, min_size=1, max_size=2), min_size=1, max_size=2))
    pieces = []
    for _ in ideals:
        j = draw(st.integers(0, len(a) - 1))
        kind = draw(st.sampled_from(["max", "min", "random"]))
        if kind == "random":
            pieces.append(draw(st.lists(st.lists(st.integers(-2, 3), min_size=2, max_size=2),
                                        min_size=len(a) + 1, max_size=len(a) + 1)))
        else:
            pieces.append([[a[j], 0] if (kind == "max") == (j < i) else [0, b[j]]
                           for i in range(len(a) + 1)])
    payload = {
        "variables": ["x", "y", "z"] if draw(st.integers(0, 3)) < 3 else draw(NAMES),
        "a": list(a), "b": list(b), "ideals": ideals, "pieces": pieces,
    }
    if draw(st.integers(0, 3)) == 3:
        field = draw(st.sampled_from([*payload, "format_version", "extra"]))
        if draw(st.booleans()):
            payload.pop(field, None)
        else:
            payload[field] = draw(
                st.sampled_from([[], [[]], {}, "x", 1.5, True, None, [1.5], ["x"], 2]))
    return payload


def contract_run(argv):
    """(exit code, stdout) of main(argv); any exception but argparse's exit
    2 propagates."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            assert e.code == 2
            code = 2
    return code, out.getvalue()


def contract_holds(code, out):
    # a refused call prints nothing on stdout; an answer (0) or a failed verification (4) may
    return code in (0, 2, 3, 4) and (out == "" or code in (0, 4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ARGV_TAILS)).flatmap(
    lambda command: ARGV_TAILS[command].map(lambda tail: [command, *tail])),
    spec_payloads())
def test_cli_contract_fuzz(tmp_path_factory, argv, payload):
    if argv[0] == "fan-algebra":
        path = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, "--spec", str(path)]
    assert contract_holds(*contract_run(argv))


# --- bounded-time contract fuzz over unbounded input ---
# limits and fan --format text|json build no Hilbert basis, so their entries
# and widths go past ENTRIES: up to 30 digits and 300 columns.  Specs go to
# 100 columns of ENTRIES.  hilbert-basis, generators, verify and fan --format
# svg stay on ENTRIES above: they reach the parallelogram scan, which is
# quadratic in a cone's determinant.

UNBOUNDED_PAIRS = st.booleans().flatmap(lambda zeros: column_pairs(10**30 - 1, 300, zeros))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["limits", "fan"]), UNBOUNDED_PAIRS,
       st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
def test_cli_contract_fuzz_unbounded_columns(deadline, command, pair, format_option):
    a, b = (",".join(map(str, v)) for v in pair)
    with deadline(5):
        code, out = contract_run([command, "--a", a, "--b", b, *format_option])
    assert contract_holds(code, out)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec_payloads(column_pairs(12, 100)),
       st.sampled_from([[], ["--format", "json"], ["--verify", "3x3"]]))
def test_cli_contract_fuzz_wide_specs(tmp_path_factory, deadline, payload, options):
    path = tmp_path_factory.getbasetemp() / "fuzz-wide-spec.json"
    path.write_text(json.dumps(payload))
    with deadline(20):
        code, out = contract_run(["fan-algebra", "--spec", str(path), *options])
    assert contract_holds(code, out)
