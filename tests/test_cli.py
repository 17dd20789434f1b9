import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liestab import cli
from liestab.algebra import algebra_to_dict, heisenberg, nilpotent_upper
from liestab.cli import main
from liestab.dynamics import WordSeriesSystem
from liestab.scenarios import (BUILTINS, MAX_HORIZON, MAX_INPUTS, builtin_scenario,
                               load_scenario, scenario_from_dict, ScenarioError)


def run(args):
    return main(args)


def test_check_and_certify_tracking(tmp_path):
    out = tmp_path / "out"
    assert run(["check", "--builtin", "example-4.1", "--out", str(out)]) == 0
    report = json.loads((out / "check-example-4.1.json").read_text())
    assert report["ok"]
    assert run(["certify", "--builtin", "example-4.1", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate-example-4.1.json").read_text())
    assert cert["kind"] == "nilpotent-semiglobal-exponential"
    assert cert["threshold"] == 0.5
    assert cert["consistent"]


def test_certify_solvable_route(tmp_path):
    out = tmp_path / "out"
    assert run(["certify", "--builtin", "example-6.1", "--horizon", "120",
                "--out", str(out)]) == 0
    cert = json.loads((out / "certificate-example-6.1.json").read_text())
    assert cert["kind"] == "solvable-attractivity"
    assert cert["rho_A"] == 0.75


def test_reproduce_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["reproduce", "--builtin", "example-4.1", "--seed", "7",
                "--out", str(out1)]) == 0
    assert run(["reproduce", "--builtin", "example-4.1", "--seed", "7",
                "--out", str(out2)]) == 0
    csv1 = (out1 / "reproduce-example-4.1.csv").read_bytes()
    csv2 = (out2 / "reproduce-example-4.1.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().strip().splitlines()
    header = lines[3].split(",")
    assert header[0] == "k" and "norm" in header
    final = lines[-1].split(",")
    e_final = np.array([float(v) for v in final[1:4]])
    assert np.linalg.norm(e_final) < 1e-6
    mirror = json.loads((out1 / "reproduce-example-4.1.json").read_text())
    assert mirror["seed"] == 7 and not mirror["diverged"]


def test_reproduce_solvable_decays(tmp_path):
    out = tmp_path / "out"
    assert run(["reproduce", "--builtin", "example-6.1", "--out", str(out)]) == 0
    data = json.loads((out / "reproduce-example-6.1.json").read_text())
    cols = data["columns"]
    rows = np.array(data["rows"])
    x1 = rows[-1, 1:7]
    x2 = rows[-1, 7:13]
    assert max(np.linalg.norm(x1), np.linalg.norm(x2)) < 1e-4


def test_deadbeat_command(tmp_path):
    out = tmp_path / "out"
    assert run(["deadbeat", "--builtin", "heisenberg-deadbeat", "--out", str(out)]) == 0
    payload = json.loads((out / "deadbeat-heisenberg-deadbeat.json").read_text())
    assert payload["horizon"] == 5
    assert payload["verified"]["ok"]


def test_exit_codes(tmp_path):
    out = tmp_path / "out"
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebra": "heisenberg", "n": 1')
    assert run(["check", "--scenario", str(bad), "--out", str(out)]) == 2

    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps({
        "name": "blowup", "algebra": "abelian-3", "n": 1, "r": 1,
        "A": (2.0 * np.eye(3)).tolist(), "x0": [1.0, 0.0, 0.0],
        "horizon": 600, "signal": {"kind": "zero"}}))
    assert run(["simulate", "--scenario", str(blowup), "--out", str(out)]) == 3

    hot = tmp_path / "hot.json"
    hot.write_text(json.dumps({
        "name": "hot", "algebra": "heisenberg", "n": 1, "r": 1,
        "A": (0.6 * np.eye(3)).tolist(), "x0": [1.0, 0.0, 0.0], "horizon": 10,
        "signal": {"kind": "geometric", "base": [1.0, 2.0, 3.0], "ratio": 2.0},
        "route": "nilpotent"}))
    assert run(["certify", "--scenario", str(hot), "--out", str(out)]) == 1
    assert json.loads((out / "certificate-hot.json").read_text())["verdict"] == "rejected"


def test_overflow_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    # the reference signal 2^k w0 of example-4.1 leaves the float range at k = 1024
    assert run(["simulate", "--builtin", "example-4.1", "--horizon", "1200",
                "--out", str(out)]) == 3
    assert capsys.readouterr().out.strip() == "[FAIL] simulation diverged at step 1024"
    traj = json.loads((out / "trajectory-example-4.1.json").read_text())
    assert traj["diverged"] and traj["first_bad_index"] == 1024
    # an envelope constant past the float range is a numeric overflow, not a certificate:
    # the word's two state letters put M = 1e308 into the gain
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "name": "huge", "algebra": "heisenberg", "n": 2, "r": 1,
        "A": (0.1 * np.eye(6)).tolist(), "terms": [{"letters": ["X1", "X2"], "coeff": [4.0, 0.0]}],
        "signal": {"kind": "geometric", "base": [1.0, 2.0, 3.0], "ratio": 1.0},
        "x0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "M": 1e308, "route": "nilpotent"}))
    assert run(["certify", "--scenario", str(huge), "--out", str(out)]) == 3
    cert = json.loads((out / "certificate-huge.json").read_text())
    assert cert["verdict"] == "overflow" and not cert["consistent"]
    assert cert["alpha"] == float("inf")


def test_certify_non_invariant_A_is_a_hypothesis_error(tmp_path, capsys):
    # A moves the centre h3 off itself, so the level-2 quotient does not exist
    path = tmp_path / "noninv.json"
    path.write_text(json.dumps({
        "name": "noninv", "algebra": "heisenberg", "n": 1, "r": 1,
        "A": [[0.3, 0.0, 0.2], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]],
        "terms": [{"letters": ["X1", "W1"], "coeff": [0.25]}],
        "signal": {"kind": "geometric", "base": [0.1, 0.0, 0.0], "ratio": 1.0},
        "x0": [1.0, 0.0, 0.0]}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().out == ("[FAIL] hypothesis error: A does not preserve chain level 2 "
                                       "(residual 2.000e-01)\n")
    assert json.loads((out / "certificate-noninv.json").read_text())["verdict"] == "hypothesis-error"


def test_check_passes_an_exact_linearization_of_a_large_A(tmp_path, capsys):
    # A h / h rounds to errors near 2e-12 when ||A|| is 1e4; the Jacobian check scales by ||A||
    path = tmp_path / "largeA.json"
    path.write_text(json.dumps({
        "name": "largeA", "algebra": "heisenberg", "n": 1, "r": 1,
        "A": [[0.5, 1e4, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
        "terms": [{"letters": ["X1", "W1"], "coeff": [1.0]}]}))
    out = tmp_path / "out"
    assert run(["check", "--scenario", str(path), "--out", str(out)]) == 0
    assert "[PASS] linearization matches A" in capsys.readouterr().out
    jac = json.loads((out / "check-largeA.json").read_text())["jacobian"]
    assert jac["ok"] and jac["exact"] and 0 < max(jac["directional_errors"]) < 1e-8


@pytest.mark.parametrize("c", [1e6, 1e8, 1e10, 1e12])  # at 1e12 only the step h = 1e-4 resolves A
def test_check_passes_the_linearization_of_a_large_quadratic_word(tmp_path, capsys, c):
    # the central differences cancel the term c h^2 [v, w] only up to rounding, about u c h,
    # which a tolerance of 1e-12 max(1, ||A||_F) alone read as an order-1 remainder
    path = tmp_path / "large-word.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"terms": [{"letters": ["X1", "W1"], "coeff": [c]}]}))
    assert run(["check", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "[PASS] linearization matches A" in capsys.readouterr().out.splitlines()
    jac = load_scenario(path).system.jacobian_report()
    assert jac["exact"] and jac["worst"] == {} and max(jac["directional_errors"]) > 1e-12


def test_certify_without_a_state_letter_is_a_hypothesis_error(tmp_path, capsys):
    # [W1, W2] moves the state off the origin: from x0 = 0 it reaches norm 1.311, so no envelope
    # alpha decay^k ||X[0]|| holds, whatever a gain over the state-letter words alone would claim
    path = tmp_path / "noletter.json"
    path.write_text(json.dumps({
        "name": "noletter", "algebra": "heisenberg", "n": 1, "r": 2,
        "A": (0.5 * np.eye(3)).tolist(), "terms": [{"letters": ["W1", "W2"], "coeff": [1.0]}],
        "signal": {"kind": "geometric", "base": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0], "ratio": 0.9},
        "x0": [0.0, 0.0, 0.0], "M": 1.0}))
    sc = load_scenario(path)
    assert sc.system.simulate(sc.x0, sc.signal, 10).norms.max() > 1.0
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[FAIL] hypothesis error:")
    assert json.loads((out / "certificate-noletter.json").read_text())["verdict"] == "hypothesis-error"


def test_certify_solvable_hypothesis_warning_fails(tmp_path, capsys):
    # a constant input outside the derived ideal: the solvable verdict is a hypothesis warning
    path = tmp_path / "warn.json"
    path.write_text(json.dumps({
        "name": "warn", "algebra": "upper-triangular-6", "n": 1, "r": 1,
        "A": (0.5 * np.eye(6)).tolist(), "ideal": "derived", "route": "solvable",
        "signal": {"kind": "samples", "samples": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]},
        "x0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "[PASS]" not in stdout
    assert stdout.splitlines() == [stdout.strip()]
    assert stdout.startswith("[FAIL] solvable certificate: hypothesis-warning")
    assert json.loads((out / "certificate-warn.json").read_text())["verdict"] == "hypothesis-warning"


def test_certify_solvable_signal_past_the_float_range_overflows(tmp_path, capsys):
    # the distance from the ideal is inf; once read as converging (inf <= inf), a conditional pass
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "name": "far", "algebra": "upper-triangular-6", "n": 1, "r": 1,
        "A": (0.5 * np.eye(6)).tolist(), "ideal": "derived", "route": "solvable",
        "signal": {"kind": "samples", "samples": [[1e200, 0.0, 0.0, 0.0, 0.0, 0.0]]},
        "x0": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("[FAIL] solvable certificate: overflow: the signal's distance from the ideal "
                            "is not finite (residual inf)\n")
    rep = json.loads((out / "certificate-far.json").read_text())
    assert rep["verdict"] == "overflow" and rep["ideal_residual_max"] == float("inf")


def test_certify_solvable_run_from_the_origin_is_no_evidence(tmp_path, capsys):
    # no "x0": the scenario starts at the origin, where a run shows no decay
    path = tmp_path / "origin.json"
    path.write_text(json.dumps({
        "name": "origin", "algebra": "upper-triangular-6", "n": 1, "r": 1,
        "A": (0.5 * np.eye(6)).tolist(), "ideal": "derived", "route": "solvable",
        "signal": {"kind": "zero"}}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("[PASS] solvable certificate: conditional-pass-no-evidence\n")
    rep = json.loads((out / "certificate-origin.json").read_text())
    assert rep["verdict"] == "conditional-pass-no-evidence"
    assert rep["evidence"]["initial_norm"] == rep["evidence"]["final_norm"] == 0.0
    assert "starts at the origin" in rep["notes"][-1]


@pytest.mark.parametrize("epsilon,code,line", [
    ("3", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("10", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("1e300", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("nan", 2, "input error: --epsilon must be finite, got nan"),
    ("inf", 2, "input error: --epsilon must be finite, got inf"),
    ("0", 2, "input error: --epsilon must be positive, got 0.0"),
    ("-1", 2, "input error: --epsilon must be positive, got -1.0"),
    ("1", 1, "[FAIL] "),
    # rho_1 + epsilon / 3 rounds to rho_1
    ("1e-17", 1, "[FAIL] certificate rejected: level 1: rho_1 + 1/3 epsilon rounds to rho_1 = 0.353553 "
                 "(epsilon 1e-17) (margin +0)"),
    ("1e-300", 1, "[FAIL] certificate rejected: level 1: rho_1 + 1/3 epsilon rounds to rho_1 = 0.353553 "
                  "(epsilon 1e-300) (margin +0)"),
])
def test_certify_epsilon_ends_in_one_line(tmp_path, capsys, epsilon, code, line):
    # before: RuntimeError (3), OverflowError from Python float powers (10, 1e300), LinAlgError (nan),
    # ValueError from power_envelope_constant (1e-17, 1e-300), a hypothesis error (0, -1)
    out = tmp_path / "out"
    assert run(["certify", "--builtin", "example-4.1", f"--epsilon={epsilon}", "--out", str(out)]) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)
    assert (out / "certificate-example-4.1.json").exists() == (code == 1)


def test_outputs_name_their_bracket_constant(tmp_path):
    out = tmp_path / "out"
    mu = builtin_scenario("example-4.1").system.mu()
    assert run(["check", "--builtin", "example-4.1", "--out", str(out)]) == 0
    assert run(["certify", "--builtin", "example-4.1", "--out", str(out)]) == 0
    assert json.loads((out / "check-example-4.1.json").read_text())["majorant"]["mu"] == mu
    assert json.loads((out / "certificate-example-4.1.json").read_text())["mu"] == mu


def test_certify_chain_past_the_adapted_norm_range_is_rejected(tmp_path, capsys):
    # the Stein sum of this 6 x 6 chain holds kappa^2 past the float range
    A = 0.5 * np.eye(6) + 1e30 * np.eye(6, k=1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"name": "chain", "algebra": "abelian-3", "n": 2, "r": 1,
                                "A": A.tolist(), "signal": {"kind": "zero"}, "M": 1.0}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("[FAIL] certificate rejected: level 1: adapted-norm scaling did not converge "
                            "(margin +inf)\n")
    assert json.loads((out / "certificate-chain.json").read_text())["verdict"] == "rejected"
    # a dense 54 x 54 map that Schur damping could not scale gets a sound certificate
    A = np.random.default_rng(0).standard_normal((54, 54))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    path.write_text(json.dumps({"name": "dense", "algebra": "abelian-3", "n": 18, "r": 1,
                                "A": A.tolist(), "signal": {"kind": "zero"}, "M": 1.0}))
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cert = json.loads((out / "certificate-dense.json").read_text())
    assert cert["consistent"]
    assert (cert["decay"], cert["alpha"]) == pytest.approx((0.95, 7.6863), abs=5e-5)


def test_certify_powers_past_the_float_range_overflow(tmp_path, capsys):
    # once a LinAlgError traceback ("SVD did not converge") from the block norms of inf powers
    A = 0.5 * np.eye(54) + 1e30 * np.eye(54, k=1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"name": "chain", "algebra": "abelian-3", "n": 18, "r": 1,
                                "A": A.tolist(), "signal": {"kind": "zero"}, "M": 1.0}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("[FAIL] nilpotent certificate: overflow: envelope constant is not finite "
                            "(alpha levels [inf])\n")
    cert = json.loads((out / "certificate-chain.json").read_text())
    assert cert["verdict"] == "overflow" and cert["sigma_levels"] == [float("inf")]


def test_scenario_file_roundtrip(tmp_path):
    scn = {
        "name": "custom",
        "algebra": {"dim": 3, "labels": ["a", "b", "c"],
                    "brackets": [{"i": "a", "j": "b", "coeffs": {"c": 1.0}}]},
        "n": 1, "r": 1,
        "A": (0.5 * np.eye(3)).tolist(),
        "terms": [{"letters": ["X1", "W1"], "coeff": [0.25]}],
        "ideal": "full",
        "signal": {"kind": "samples", "samples": [[0.1, 0.0, 0.0]], "ideal": True},
        "x0": [1.0, 1.0, 1.0],
        "horizon": 30,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    sc = load_scenario(path)
    assert sc.system.algebra.dim == 3
    assert sc.horizon == 30
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert run(["check", "--scenario", str(path), "--out", str(out)]) == 0


def test_default_M_is_the_state_norm_of_x0():
    # the certified ball is in the slot-sum state norm; M = ||x0||_2 = 1.414 left x0 outside it
    sc = scenario_from_dict(NONFINITE_BASE | {"n": 2, "A": (0.5 * np.eye(6)).tolist(), "terms": [],
                                              "x0": [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]})
    assert sc.M == sc.system.state_norm(sc.x0) == 2.0
    assert scenario_from_dict(NONFINITE_BASE | {"x0": [0.5, 0.0, 0.0]}).M == 1.0


def test_scenario_validation_errors():
    base = {"algebra": "heisenberg", "n": 1, "r": 1,
            "A": np.eye(3).tolist(), "x0": [0.0] * 3}
    for breakage, msg in [
        ({"algebra": "nope"}, "catalog"),
        ({"A": np.eye(2).tolist()}, "A"),
        ({"terms": [{"letters": ["X9", "W1"], "coeff": [1.0]}]}, "terms"),
        ({"signal": {"kind": "mystery"}}, "signal"),
        ({"x0": [1.0]}, "x0"),
        ({"horizon": -2}, "horizon"),
        ({"ideal": {"labels": ["zz"]}}, "ideal"),
    ]:
        data = dict(base) | breakage
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)


NONFINITE_BASE = {"name": "nf", "algebra": "heisenberg", "n": 1, "r": 1,
                  "A": (0.5 * np.eye(3)).tolist(), "x0": [1.0, 0.0, 0.0],
                  "terms": [{"letters": ["X1", "W1"], "coeff": [0.25]}],
                  "signal": {"kind": "geometric", "base": [0.1, 0.0, 0.0], "ratio": 1.0},
                  "route": "nilpotent"}


def heisenberg_scaled(c: float) -> dict:
    """The inline Heisenberg algebra [h1, h2] = c h3."""
    return {"dim": 3, "labels": ["h1", "h2", "h3"], "brackets": [{"i": "h1", "j": "h2", "coeffs": {"h3": c}}]}


@pytest.mark.parametrize("command", ["check", "certify", "simulate", "deadbeat"])
@pytest.mark.parametrize("c", [1e160, 1e308])
def test_constants_without_a_finite_norm_are_an_input_error(tmp_path, capsys, command, c):
    # once a LinAlgError traceback from bracket_constant's Gram (check, certify) or warnings
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"algebra": heisenberg_scaled(c)}))
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: algebra: structure constants must have a finite Frobenius norm\n"


def test_constants_of_1e100_still_run(tmp_path, capsys):
    # deadbeat fails on rho(A) = 0.5; check fails its linearization, which the brackets of 1e100
    # round away at every step (it once passed against its rounding floor of 5.5e83)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"algebra": heisenberg_scaled(1e100)}))
    codes = [run([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
             for command in ("check", "certify", "simulate", "deadbeat")]
    assert codes == [1, 0, 0, 1]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[FAIL] linearization matches A: no step resolves A: rounding floor 5.519e+83 (bound 1.000e-03)" \
        in captured.out.splitlines()


@pytest.mark.parametrize("breakage,codes", [
    ({"x0": [1e200, 0.0, 0.0], "M": 5.0}, {"check": 0, "certify": 0, "simulate": 3}),
    ({"x0": [1e200, 0.0, 0.0]}, {"check": 2, "certify": 2, "simulate": 2}),  # the default M is inf
    ({"signal": {"kind": "samples", "samples": [[1e200, 0.0, 0.0]]}}, {"check": 0, "certify": 3, "simulate": 0}),
    ({"x0": [0.0, 100.0, 0.0], "terms": [{"letters": ["X1", "W1"], "coeff": [1e308]}]}, {"check": 3, "simulate": 3}),
])
def test_overflowing_input_prints_no_warning(tmp_path, capsys, breakage, codes):
    # each once printed numpy RuntimeWarnings (an error under this suite's warning filter)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    for command, code in codes.items():
        assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == code, command
        assert capsys.readouterr().err == ("input error: scenario field 'M' must be finite\n" if code == 2 else "")


@pytest.mark.parametrize("command", ["check", "certify", "simulate"])
@pytest.mark.parametrize("field,breakage", [
    ("x0", {"x0": [float("nan"), 0.0, 0.0]}),
    ("A", {"A": [[float("inf"), 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]}),
    ("terms[0].coeff", {"terms": [{"letters": ["X1", "W1"], "coeff": [float("nan")]}]}),
])
def test_nonfinite_scenario_exits_2(tmp_path, capsys, command, field, breakage):
    # json reads NaN and Infinity; before this check these certified or raised a traceback
    path = tmp_path / "nf.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: scenario field {field!r} must be finite\n"


def test_nonfinite_scenario_fields_are_named():
    nan, inf = float("nan"), float("inf")
    fam = {"out_slot": 1, "scale": 0.5, "base": {"W1": 1.0}, "target": "X1"}
    for field, breakage in [
        ("A", {"A": [[0.5, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 0.5]]}),
        ("x0", {"x0": [0.0, -inf, 0.0]}),
        ("terms[0].coeff", {"terms": [{"letters": ["X1", "W1"], "coeff": [inf]}]}),
        ("families[0].scale", {"families": [fam | {"scale": nan}]}),
        ("families[0].base", {"families": [fam | {"base": {"W1": inf}}]}),
        ("signal.base", {"signal": {"kind": "geometric", "base": [nan, 0.0, 0.0]}}),
        ("signal.ratio", {"signal": {"kind": "geometric", "base": [1.0, 0.0, 0.0], "ratio": nan}}),
        ("signal.samples", {"signal": {"kind": "samples", "samples": [[0.0, inf, 0.0]]}}),
        ("M", {"M": inf}),
        ("radius", {"radius": nan}),
    ]:
        with pytest.raises(ScenarioError, match=re.escape(f"{field!r} must be finite")):
            scenario_from_dict(NONFINITE_BASE | breakage)
    with pytest.raises(ScenarioError, match="'A' must be numeric"):
        scenario_from_dict(NONFINITE_BASE | {"A": [[1.0, 0.0], [0.0]]})
    with pytest.raises(ScenarioError, match="'M' must be a number"):
        scenario_from_dict(NONFINITE_BASE | {"M": [1.0, 2.0]})
    inline = {"dim": 3, "labels": ["a", "b", "c"],
              "brackets": [{"i": "a", "j": "b", "coeffs": {"c": nan}}]}
    with pytest.raises(ScenarioError, match="structure constants must be finite"):
        scenario_from_dict(NONFINITE_BASE | {"algebra": inline})


@pytest.mark.parametrize("command", ["check", "certify", "simulate"])
@pytest.mark.parametrize("breakage,letter", [
    ({"base": {"X3": 1.0}}, "X3"),  # n = 1
    ({"target": "W2"}, "W2"),       # r = 1
])
def test_family_letter_out_of_range_exits_2(tmp_path, capsys, command, breakage, letter):
    # before this check: an IndexError traceback from check and simulate, and an issued certificate
    fam = {"out_slot": 1, "scale": 0.5, "base": {"W1": 1.0}, "target": "X1"}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"families": [fam | breakage]}))
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: families[0]: letter {letter} out of range\n"


HORIZON_ERROR = "input error: 'horizon' must lie in [0, {}], got {}\n".format


@pytest.mark.parametrize("name", sorted(BUILTINS))
@pytest.mark.parametrize("command,horizon", [("simulate", -1), ("check", -1), ("check", 10 ** 30)])
def test_out_of_range_horizon_flag_exits_2(tmp_path, capsys, name, command, horizon):
    # before: an IndexError, SystemSpecError or numpy ValueError traceback, or a run that ignored it
    assert run([command, "--builtin", name, f"--horizon={horizon}", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == HORIZON_ERROR(MAX_HORIZON, horizon)


@pytest.mark.parametrize("breakage,message", [
    ({"M": 10 ** 400}, "input error: scenario field 'M' must be finite\n"),  # once an OverflowError
    ({"x0": [10 ** 400, 0, 0]}, "input error: scenario field 'x0' must be finite\n"),
    ({"horizon": 10 ** 30}, HORIZON_ERROR(MAX_HORIZON, 10 ** 30)),  # once a numpy ValueError
    ({"horizon": MAX_HORIZON + 1}, HORIZON_ERROR(MAX_HORIZON, MAX_HORIZON + 1)),
    # once a numpy ValueError traceback from check and simulate, and an issued certificate
    ({"r": 10 ** 30}, f"input error: 'r' must be at most {MAX_INPUTS}, got {10 ** 30}\n"),
    ({"r": MAX_INPUTS + 1}, f"input error: 'r' must be at most {MAX_INPUTS}, got {MAX_INPUTS + 1}\n"),
    # once two numpy RuntimeWarnings on stderr before the report of check, one before certify's
    ({"A": [[0.5, 1e300, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},
     "input error: scenario field 'A' must have a finite Frobenius norm\n"),
])
def test_huge_numbers_in_a_scenario_exit_2(tmp_path, capsys, breakage, message):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    for command in ("check", "certify", "simulate"):
        assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message), command


@pytest.mark.parametrize("breakage,field,value", [
    ({"n": 0, "A": [], "x0": []}, "n", 0),  # once "'A' must be 0x0 row-major"
    ({"n": -1}, "n", -1),  # once "'A' must be -3x-3 row-major"
    ({"r": 0}, "r", 0),
])
def test_slot_count_below_one_exits_2(tmp_path, capsys, breakage, field, value):
    path = tmp_path / "slots.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    for command in ("check", "certify", "simulate"):
        assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2, command
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: {field!r} must be at least 1, "
                                                    f"got {value}\n"), command


@pytest.mark.parametrize("breakage,field,value", [
    ({"M": -2.0}, "M", -2.0),  # once an issued certificate with alpha = -4.67
    ({"radius": -1.0}, "radius", -1.0),
    ({"M": -2.0, "radius": -1.0}, "M", -2.0),  # once a ValueError traceback from check
])
def test_negative_ball_radius_in_a_scenario_exits_2(tmp_path, capsys, breakage, field, value):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    for command in ("check", "certify", "simulate"):
        assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2, command
        captured = capsys.readouterr()
        message = f"input error: scenario field {field!r} must be nonnegative, got {value}\n"
        assert (captured.out, captured.err) == ("", message), command
    path.write_text(json.dumps(NONFINITE_BASE | {"M": 0.0, "radius": 0.0}))  # zero is a radius
    assert run(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["check", "certify", "simulate", "deadbeat", "reproduce"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # once a ValueError traceback from numpy's default_rng (exit 1)
    assert run([command, "--builtin", "heisenberg-deadbeat", "--seed", "-1",
                "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: --seed must be nonnegative, got -1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub,reason", [("", "File exists"), ("/sub", "Not a directory")])
def test_out_through_a_file_exits_2(tmp_path, capsys, sub, reason):
    # an existing file as --out was a FileExistsError traceback
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = f"{blocker}{sub}"
    assert run(["simulate", "--builtin", "example-4.1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: cannot make output directory {out!r}: {reason}\n"
    assert blocker.read_text() == "not a directory\n"


def test_horizon_cap_holds_for_builtins_files_and_the_flag(tmp_path):
    assert scenario_from_dict(NONFINITE_BASE | {"horizon": MAX_HORIZON}).horizon == MAX_HORIZON
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(NONFINITE_BASE))
    assert load_scenario(path).with_horizon(MAX_HORIZON).horizon == MAX_HORIZON
    for build in (lambda h: builtin_scenario("example-4.1", horizon=h),
                  lambda h: load_scenario(path).with_horizon(h)):
        for horizon in (-1, MAX_HORIZON + 1):
            with pytest.raises(ScenarioError, match="'horizon' must lie in"):
                build(horizon)
    code = run(["simulate", "--scenario", str(path), f"--horizon={10 ** 30}", "--out", str(tmp_path / "o")])
    assert code == 2


def test_input_slot_cap_admits_its_bound(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"r": MAX_INPUTS, "signal": {"kind": "zero"}}))
    assert load_scenario(path).system.r == MAX_INPUTS
    assert run(["simulate", "--scenario", str(path), "--horizon=5", "--out", str(tmp_path / "o")]) == 0


def test_check_searches_600_batches_of_100_rows(tmp_path, monkeypatch):
    # the same count as the benchmark's dynamics.equilibrium_rows.example-6.1 gate
    rows = []

    def scenario(*args, **kwargs):
        sc = builtin_scenario(*args, **kwargs)
        batch = sc.system.evaluate_batch
        monkeypatch.setattr(sc.system, "evaluate_batch",
                            lambda X, W: (rows.append(len(X)), batch(X, W))[1])
        return sc

    monkeypatch.setattr(cli, "builtin_scenario", scenario)
    assert run(["check", "--builtin", "example-6.1", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert rows == [100] * 600


CHECK_PASS_LINES = {"[PASS] series majorant finite", "[PASS] unique equilibrium (structural + search)",
                    "[PASS] chain invariance", "[PASS] linearization matches A"}


def assert_one_failed_check(stdout, line):
    lines = stdout.splitlines()
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [line]
    assert len(lines) == 4 and set(lines) - {line} <= CHECK_PASS_LINES


@pytest.mark.parametrize("breakage,line", [
    ({"terms": [{"letters": ["X1", "W1"], "coeff": [1e300]}], "M": 1.0},  # once a [PASS]
     "[FAIL] linearization matches A: no step resolves A: rounding floor 2.208e+284 (bound 1.000e-03)"),
    ({"r": 2, "terms": [{"letters": ["W1", "W2"], "coeff": [1.0]}], "signal": {"kind": "zero"}},
     "[FAIL] unique equilibrium (structural + search): a word without a state letter"),
    ({"A": np.eye(3).tolist(), "terms": []},  # every state is a fixed point
     "[FAIL] unique equilibrium (structural + search): 200 violations, smallest residual 0.000e+00"),
    ({"A": [[0.3, 0.0, 0.2], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]]},  # A moves the centre h3 off itself
     "[FAIL] chain invariance: level 2 nonlinear residual 3.633e-01 (bound 1e-09)"),
    ({"A": [[0.5, 0.0, 3e-10], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},  # by too little for the map's bound
     "[FAIL] chain invariance: level 2 linear residual 3.000e-10 (bound 1.000e-10)"),
    ({"terms": [{"letters": ["X1", "W1"], "coeff": [1e14]}]},  # the floors are about 2.2e-16 c at best
     "[FAIL] linearization matches A: no step resolves A: rounding floor 2.208e-02 (bound 1.000e-03)"),
])
def test_a_failed_check_states_what_failed_and_by_how_much(tmp_path, capsys, breakage, line):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    assert run(["check", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert_one_failed_check(capsys.readouterr().out, line)


def test_check_calls_an_infinite_series_majorant_an_overflow(tmp_path, capsys):
    # M and the radius are validated finite, so only a power, product or expm1 past the float range
    # makes the majorant infinite; once an OverflowError, then exit 1 as a hypothesis failure
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"M": 1e308}))
    assert run(["check", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert_one_failed_check(captured.out, "[FAIL] series majorant finite: value inf at radius 1e+308")


def test_check_names_a_map_that_overflows(tmp_path, capsys):
    # the ideal is invariant, but the word's values at unit-size samples leave the float range;
    # once "[FAIL] chain invariance: level 1 nonlinear residual nan (bound 1e-09)", exit 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"terms": [{"letters": ["X1", "W1"], "coeff": [1e308]}]}))
    out = tmp_path / "out"
    assert run(["check", "--scenario", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    # at unit-size samples the map overflows; at the small steps of the linearization it only rounds
    # the state-linear part away
    assert [ln for ln in captured.out.splitlines() if ln.startswith("[FAIL]")] == [
        "[FAIL] chain invariance: the map overflows at level 1 (a sampled value is not finite)",
        "[FAIL] linearization matches A: no step resolves A: rounding floor 2.208e+292 (bound 1.000e-03)"]
    inv = json.loads((out / "check-nf.json").read_text())["invariance"]
    assert inv["overflow_level"] == 1 and not inv["ok"]


@pytest.mark.parametrize("change,line", [
    ({"worst": {"axis": [2e-3, 1e-12]}}, "[FAIL] linearization matches A: axis error 2.000e-03 (floor 1.000e-12)"),
    ({"exact": False, "observed_order": 1.0, "worst": {"direction": [1.3e-12, 1e-12]}},
     "[FAIL] linearization matches A: observed order 1 (bound 1.9); directional error 1.300e-12 (floor 1.000e-12)"),
])
def test_a_failed_linearization_states_its_margin(tmp_path, capsys, monkeypatch, change, line):
    # a word series is polynomial, so no scenario misses A: the report is broken instead
    report = WordSeriesSystem.jacobian_report
    monkeypatch.setattr(WordSeriesSystem, "jacobian_report", lambda self: report(self) | change | {"ok": False})
    assert run(["check", "--builtin", "example-4.1", "--out", str(tmp_path)]) == 1
    assert_one_failed_check(capsys.readouterr().out, line)


@pytest.mark.parametrize("name", ["example-6.1", "uptri-deadbeat"])
def test_check_when_every_start_diverges(tmp_path, capsys, name):
    # at seed 3 every start blows up under the random input; once a ValueError
    # traceback from the residual of an empty batch
    assert run(["check", "--builtin", name, "--seed", "3", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"check-{name}.json").read_text())
    assert report["equilibrium"]["violation_count"] == 0
    # the pass rests on the zero input alone, and the report says so
    assert report["equilibrium"]["surviving_starts"] == [100, 0]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("breakage,message", [
    ({"families": [{"out_slot": 1, "scale": 1, "base": ["W1"], "target": "X1"}]},
     "'families[0].base' has wrong type (list)"),
    ({"families": "abc"}, "'families' has wrong type (str)"),
    ({"terms": "abc"}, "'terms' has wrong type (str)"),
    ({"terms": [{"letters": 5, "coeff": [0.25]}]}, "'terms[0].letters' has wrong type (int)"),
    ({"terms": [5]}, "'terms[0]' must be an object"),
    ({"ideal": {"labels": 5}}, "'ideal.labels' has wrong type (int)"),
    ({"ideal": {"labels": [5]}}, "'ideal.labels' must list labels of ['h1', 'h2', 'h3']"),
    ({"signal": [1, 2]}, "'signal' has wrong type (list)"),
    ({"horizon": "x"}, "'horizon' has wrong type (str)"),
    ({"route": 5}, "'route' has wrong type (int)"),
    ({"r": True}, "'r' has wrong type (bool)"),  # once a TypeError in the certificate's signal norm
])
def test_wrong_json_type_exits_2(tmp_path, capsys, breakage, message):
    # before these checks each ended in an AttributeError, TypeError or ValueError traceback
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(NONFINITE_BASE | breakage))
    assert run(["check", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: scenario field {message}\n"


@pytest.mark.parametrize("algebra,message", [
    ({"dim": 3, "labels": 5}, "field 'labels' has wrong type (int)"),  # once a TypeError traceback
    ({"dim": 3, "labels": ["h1", "h2", "h3"],
      "brackets": [{"i": "h1", "j": "h2", "coeffs": [1.0]}]},         # once an AttributeError traceback
     "field 'brackets[0].coeffs' has wrong type (list)"),
    ({"dim": "3"}, "field 'dim' has wrong type (str)"),
    ({"dim": 3, "brackets": [{"i": "e1", "j": "e2", "coeffs": {"e3": "1"}}]},
     "field 'brackets[0].coeffs.e3' has wrong type (str)"),
    ({"dim": 3, "brackets": [{"i": 1, "j": "e2", "coeffs": {}}]},
     "field 'brackets[0].i' has wrong type (int)"),
    ({"dim": 1, "matrix_rep": [[[0.0]], [1.0]]}, "matrix_rep must be d square matrices"),
])
def test_wrong_algebra_json_type_exits_2(tmp_path, capsys, algebra, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"algebra": algebra}))
    assert run(["check", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: algebra: {message}\n"


@pytest.mark.parametrize("name", ["a/b", "../up", "", "a" * 201, "tab\tname", 5])
def test_scenario_name_must_be_a_file_stem(tmp_path, capsys, name):
    # "a/b" once ended simulate in a FileNotFoundError traceback
    path = tmp_path / "named.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"name": name}))
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'name'" in captured.err
    assert not out.exists() or not any(out.iterdir())


def test_unknown_route_exits_2(tmp_path, capsys):
    # an unknown route once ran the solvable certificate and wrote a file with route "bogus"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(NONFINITE_BASE | {"route": "bogus"}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("input error: scenario field 'route' must be one of "
                                       "auto, nilpotent, solvable, deadbeat\n")
    assert not (out / "certificate-nf.json").exists()


def test_no_builtin_command_loads_scipy(tmp_path):
    # scipy's import costs more than the rest of a CLI process
    probe = """
import contextlib, io, sys
from liestab import cli
print("import", "scipy" in sys.modules)
for argv in (["check", "--builtin", "example-4.1"], ["simulate", "--builtin", "example-4.1"],
             ["deadbeat", "--builtin", "heisenberg-deadbeat"], ["certify", "--builtin", "example-4.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", sys.argv[1]])
    print(argv[0], code, "scipy" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["import False", "check 0 False", "simulate 0 False",
                                        "deadbeat 0 False", "certify 0 False"]


def cutoff_scenario(**family_keys) -> dict:
    """nilpotent_upper(4) with one adjoint family; its exact series has words up to length 3."""
    alg = nilpotent_upper(4)
    samples = 0.5 * np.random.default_rng(0).uniform(-1.0, 1.0, (64, alg.dim))
    fam = {"out_slot": 1, "scale": 0.8, "base": {"W1": 1}, "target": "X1"} | family_keys
    return {"name": "cut", "algebra": algebra_to_dict(alg), "n": 1, "r": 1,
            "A": (0.5 * np.eye(alg.dim)).tolist(), "families": [fam],
            "signal": {"kind": "samples", "samples": samples.tolist()},
            "x0": [0.0] * alg.dim, "M": 1.0}


def test_family_cutoff_key_cannot_shorten_the_certified_words(tmp_path):
    # "cutoff": 1 once dropped the length-3 words; under the per-word gain that issues
    # gamma_3 = 13.63, alpha = 219.2
    certs = []
    for keys in ({}, {"cutoff": 1}, {"tol": 10.0}):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(cutoff_scenario(**keys)))
        assert run(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        certs.append(json.loads((tmp_path / "out" / "certificate-cut.json").read_text()))
    exact = certs[0]
    assert exact["gamma_levels"][2] == pytest.approx(24.2399, rel=1e-5)
    assert exact["alpha"] == pytest.approx(388.839, rel=1e-5)
    for cert in certs[1:]:
        assert cert["gamma_levels"] == exact["gamma_levels"] and cert["alpha"] == exact["alpha"]


COEFF = st.floats(-1.0, 1.0)
# the radii M and radius of the balls of states, each absent, zero, negative or positive
BALL_RADII = st.fixed_dictionaries({}, optional={key: st.sampled_from([-2.0, 0.0, 0.5, 3.0])
                                                 for key in ("M", "radius")})


@st.composite
def random_scenarios(draw, algebras=("heisenberg", 3, 4)):
    """A scenario on the catalog Heisenberg algebra or an inline nilpotent_upper(3 or 4),
    with random words, families and linear part, and a zero, sampled or geometric signal."""
    algebra = draw(st.sampled_from(algebras))
    if algebra != "heisenberg":
        algebra = algebra_to_dict(nilpotent_upper(algebra))
    d = 3 if algebra == "heisenberg" else algebra["dim"]
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    # the slots of the system, and one that is out of range
    letters = st.sampled_from([f"X{j}" for j in range(1, n + 1)] + [f"W{j}" for j in range(1, r + 1)] + ["W3"])
    terms = draw(st.lists(st.fixed_dictionaries({
        "letters": st.lists(letters, min_size=2, max_size=3),
        "coeff": st.lists(COEFF, min_size=n, max_size=n)}), max_size=3))
    families = draw(st.lists(st.fixed_dictionaries({
        "out_slot": st.integers(1, 2), "scale": COEFF,
        "base": st.dictionaries(letters, COEFF, min_size=1, max_size=2),
        "target": letters}), max_size=2))
    row = st.lists(COEFF, min_size=d * r, max_size=d * r)
    signal = draw(st.one_of(
        st.just({"kind": "zero"}),
        st.fixed_dictionaries({"kind": st.just("samples"), "samples": st.lists(row, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"kind": st.just("geometric"), "ratio": st.sampled_from([0.5, 1.0]),
                               "base": row})))
    return {"name": "prop", "algebra": algebra, "n": n, "r": r,
            "A": (draw(st.sampled_from([0.0, 0.5, 0.9])) * np.eye(d * n)).tolist(),
            "terms": terms, "families": families, "horizon": 20, "signal": signal,
            "x0": draw(st.lists(COEFF, min_size=d * n, max_size=d * n))} | draw(BALL_RADII)


WRONG_JSON = st.sampled_from([None, True, 7, 0.5, "abc", [1, 2], {"a": 1}])


def field_paths(data):
    """Paths to the fields of a scenario: the top level, one level into a term, a family or
    the signal, and every field of an inline algebra down to a bracket coefficient."""
    paths = [(key,) for key in [*data, "ideal", "route", "M", "radius"]]
    paths += [(key, i, f) for key in ("terms", "families") for i, item in enumerate(data[key])
              for f in item]
    paths += [("signal", f) for f in data["signal"]]
    if isinstance(data["algebra"], dict):
        alg = data["algebra"]
        paths += [("algebra", key) for key in alg]
        paths += [("algebra", "brackets", i, f) for i, b in enumerate(alg["brackets"]) for f in b]
        paths += [("algebra", "brackets", i, "coeffs", k) for i, b in enumerate(alg["brackets"])
                  for k in b["coeffs"]]
    return paths


@st.composite
def malformed_scenarios(draw):
    """A random scenario with one field swapped for a value of another JSON type."""
    data = draw(random_scenarios())
    *parents, last = draw(st.sampled_from(field_paths(data)))
    holder = data
    for key in parents:
        holder = holder[key]
    holder[last] = draw(WRONG_JSON.filter(lambda v: type(v) is not type(holder.get(last))))
    return data


def jacobi_defect(C):
    """Largest Jacobi-identity residual of structure constants, straight from the definition."""
    J = (np.einsum("ijl,lkm->ijkm", C, C) + np.einsum("jkl,lim->ijkm", C, C)
         + np.einsum("kil,ljm->ijkm", C, C))
    return float(np.abs(J).max())


@st.composite
def non_jacobi_scenarios(draw):
    """A random Heisenberg-sized scenario whose inline algebra has random antisymmetric
    constants that break the Jacobi identity, with Heisenberg's realization half the time
    (which then proves nothing, so the Jacobi check still runs first)."""
    data = draw(random_scenarios(algebras=["heisenberg"]))
    pairs = [(0, 1), (0, 2), (1, 2)]
    C = np.zeros((3, 3, 3))
    for i, j in pairs:
        C[i, j] = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
        C[j, i] = -C[i, j]
    assume(jacobi_defect(C) > 1e-9)
    data["name"] = "broken"
    data["algebra"] = {"dim": 3, "brackets": [
        {"i": f"e{i + 1}", "j": f"e{j + 1}", "coeffs": {f"e{k + 1}": C[i, j, k] for k in range(3)}}
        for i, j in pairs]}
    if draw(st.booleans()):
        data["algebra"]["matrix_rep"] = heisenberg().matrix_rep.tolist()
    return data


# no flag half the time; the other values are valid, out of range, or below rounding
FLAGS = st.tuples(st.sampled_from([None] * 5 + [0, 7, -1, MAX_HORIZON + 1, 10 ** 30]),
                  st.sampled_from([None] * 5 + [0.05, 3.0, 1e-17, 1e-300, float("nan"), 0.0, -0.05]),
                  st.sampled_from([None] * 3 + [0, 3, -1]))


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_scenarios(), malformed_scenarios(), non_jacobi_scenarios()), FLAGS)
def test_random_scenarios_end_in_an_exit_code(data, flags):
    horizon, epsilon, seed = flags
    # the flags are checked before the scenario loads: --epsilon, then --seed
    broken = ("--epsilon must be finite" if epsilon is not None and np.isnan(epsilon)
              else "--epsilon must be positive" if epsilon is not None and epsilon <= 0
              else "--seed must be nonnegative" if seed == -1 else "Jacobi identity violated")
    options = [f"--horizon={horizon}"] * (horizon is not None) + [f"--epsilon={epsilon}"] * (epsilon is not None)
    options += [f"--seed={seed}"] * (seed is not None)
    # a negative ball radius or seed, or an --epsilon that is not positive, is an input error
    # whatever else the scenario holds
    refused = seed == -1 or any(type(data.get(key)) is float and data[key] < 0 for key in ("M", "radius"))
    refused |= epsilon is not None and not epsilon > 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.json"
        path.write_text(json.dumps(data))
        for command in ("check", "simulate", "certify"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command, "--scenario", str(path), "--out", str(Path(tmp) / "out"), *options])
            assert code in (0, 1, 2, 3), command
            assert "Traceback" not in out.getvalue() + err.getvalue(), command
            if data["name"] == "broken":  # an algebra that breaks Jacobi is always an input error
                assert code == 2 and broken in err.getvalue(), command
            if refused:
                assert code == 2 and err.getvalue().count("\n") == 1, command


def test_builtin_unknown():
    with pytest.raises(SystemExit):
        main(["check", "--builtin", "mystery"])


def test_docs_list_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    synopsis = section.split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    options = {o for a in parser._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
    for where, text in [("README synopsis", synopsis), ("cli docstring", cli.__doc__)]:
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == options, where
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    for command in commands:
        assert f"`{command}`" in section, command
