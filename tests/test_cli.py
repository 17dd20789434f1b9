import json
import re

import numpy as np
import pytest

from liestab.cli import main
from liestab.scenarios import load_scenario, scenario_from_dict, ScenarioError


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
    # an envelope constant past the float range is a numeric overflow, not a certificate
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "name": "huge", "algebra": "heisenberg", "n": 1, "r": 1,
        "A": (0.1 * np.eye(3)).tolist(), "terms": [{"letters": ["X1", "W1"], "coeff": [4.0]}],
        "signal": {"kind": "geometric", "base": [1.0, 2.0, 3.0], "ratio": 1.0},
        "x0": [1.0, 0.0, 0.0], "M": 1e308, "route": "nilpotent"}))
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


@pytest.mark.parametrize("epsilon,code,line", [
    ("3", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("10", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("1e300", 1, "[FAIL] certificate rejected: level 2: forcing-rate maximum not attained"),
    ("nan", 2, "input error: --epsilon must be finite, got nan"),
    ("inf", 2, "input error: --epsilon must be finite, got inf"),
    ("1", 1, "[FAIL] "),
])
def test_certify_epsilon_ends_in_one_line(tmp_path, capsys, epsilon, code, line):
    # before: RuntimeError (3), OverflowError from Python float powers (10, 1e300), LinAlgError (nan)
    assert run(["certify", "--builtin", "example-4.1", f"--epsilon={epsilon}",
                "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


def test_certify_dense_map_past_the_adapted_norm_range_is_rejected(tmp_path, capsys):
    # no adapted norm of this 54 x 54 map fits the float range; it used to end in a LinAlgError
    A = np.random.default_rng(0).standard_normal((54, 54))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"name": "dense", "algebra": "abelian-3", "n": 18, "r": 1,
                                "A": A.tolist(), "signal": {"kind": "zero"}, "M": 1.0}))
    out = tmp_path / "out"
    assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("[FAIL] certificate rejected: level 1: adapted-norm scaling did not converge "
                            "(margin +inf)\n")
    assert json.loads((out / "certificate-dense.json").read_text())["verdict"] == "rejected"


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


def test_builtin_unknown():
    with pytest.raises(SystemExit):
        main(["check", "--builtin", "mystery"])
