"""Command-line front end.

    liestab <command> [--scenario FILE | --builtin NAME] [--horizon K] [--seed S]
            [--out DIR] [--epsilon E]

Commands: check (structural/convergence checks), certify (stability
certificate for the scenario's route), simulate, reproduce (canonical run of
a builtin), deadbeat (finite-time horizon plus verification).

Exit codes: 0 pass, 1 hypothesis/certificate failure (an inconsistent
certificate included), 2 input error (a negative seed, an --epsilon that is
not positive and finite, or an output directory that cannot be made,
included), 3 numeric divergence or overflow (a check whose sampled map values are not
finite, or whose series majorant is infinite, included).
A certificate that does not exit 0 prints one [FAIL] line; a failed check's [FAIL] line
says what failed and by how much.
Identical configuration and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import stability
from .algebra import is_nilpotent, is_solvable
from .dynamics import MIN_REMAINDER_ORDER, NONLINEAR_INVARIANCE_TOL
from .quotient import invariance_bound
from .scenarios import (BUILTINS, Scenario, ScenarioError, builtin_scenario, ideal_valued_samples,
                        load_scenario, write_json, write_trajectory_csv, write_trajectory_json)

EXIT_PASS = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3

# exit code of every verdict a completed certificate can carry
VERDICT_EXIT = {"issued": EXIT_PASS, "conditional-pass": EXIT_PASS,
                "conditional-pass-no-evidence": EXIT_PASS, "inconsistent": EXIT_HYPOTHESIS,
                "hypothesis-warning": EXIT_HYPOTHESIS, "overflow": EXIT_DIVERGED}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="liestab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=["check", "certify", "simulate", "deadbeat", "reproduce"])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--builtin", choices=sorted(BUILTINS), help="bundled scenario name")
    ap.add_argument("--horizon", type=int, default=None, help="override the scenario horizon")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="liestab_out", help="output directory")
    ap.add_argument("--epsilon", type=float, default=None,
                    help="gap parameter for the nilpotent certificate")
    return ap


def _load(args) -> Scenario:
    if args.builtin:
        return builtin_scenario(args.builtin, seed=args.seed, horizon=args.horizon)
    return load_scenario(args.scenario).with_horizon(args.horizon)


def cmd_check(sc: Scenario, outdir: Path, seed: int) -> int:
    sys_ = sc.system
    radius = max(sc.M, sys_.radius)
    majorant = sys_.series_majorant(radius)
    eq = sys_.equilibrium_report(seed=seed)
    inv = sys_.invariance_report(seed=seed)
    jac = sys_.jacobian_report()
    ok = bool(np.isfinite(majorant)) and eq["ok"] and inv["ok"] and jac["ok"]
    report = {"scenario": sc.name, "seed": seed, "ok": ok,
              "majorant": {"radius": radius, "value": majorant, "mu": sys_.mu(),
                           "finite": bool(np.isfinite(majorant))},
              "equilibrium": {k: v for k, v in eq.items() if k != "violations"}
              | {"violation_count": len(eq["violations"])},
              "invariance": inv, "jacobian": {k: v for k, v in jac.items() if k != "worst"}}
    write_json(outdir / f"check-{sc.name}.json", report)
    for label, good, why in [
            ("series majorant finite", np.isfinite(majorant), lambda: f"value {majorant:.6g} at radius {radius:.6g}"),
            ("unique equilibrium (structural + search)", eq["ok"], lambda: _equilibrium_failure(eq)),
            ("chain invariance", inv["ok"], lambda: _invariance_failure(inv, sys_.A)),
            ("linearization matches A", jac["ok"], lambda: _jacobian_failure(jac))]:
        print(f"[PASS] {label}" if good else f"[FAIL] {label}: {why()}")
    if inv["overflow_level"] or not np.isfinite(majorant):  # M and the radius are finite: an overflow
        return EXIT_DIVERGED
    return EXIT_PASS if ok else EXIT_HYPOTHESIS


def _equilibrium_failure(eq: dict) -> str:
    resids = [v["residual"] for v in eq["violations"]]
    return (f"{len(resids)} violations, smallest residual {min(resids):.3e}" if eq["structural_ok"]
            else "a word without a state letter")


def _invariance_failure(inv: dict, A) -> str:
    """The first level where the map overflows, else the level of largest nonlinear residual if
    that one is off, else of largest linear residual."""
    if inv["overflow_level"]:
        return f"the map overflows at level {inv['overflow_level']} (a sampled value is not finite)"
    nl = max(inv["levels"], key=lambda lv: np.nan_to_num(lv["nonlinear_residual"], nan=np.inf))
    if not nl["nonlinear_residual"] < NONLINEAR_INVARIANCE_TOL:
        return (f"level {nl['level']} nonlinear residual {nl['nonlinear_residual']:.3e} "
                f"(bound {NONLINEAR_INVARIANCE_TOL:g})")
    lin = max(inv["levels"], key=lambda lv: lv["linear_residual"])
    return f"level {lin['level']} linear residual {lin['linear_residual']:.3e} (bound {invariance_bound(A):.3e})"


def _jacobian_failure(jac: dict) -> str:
    """The least rounding floor if no step resolves A, else the axis error of largest ratio to its
    rounding floor if one is off, else the order."""
    if "resolution" in jac["worst"]:
        floor, bound = jac["worst"]["resolution"]
        return f"no step resolves A: rounding floor {floor:.3e} (bound {bound:.3e})"
    if "axis" in jac["worst"]:
        err, floor = jac["worst"]["axis"]
        return f"axis error {err:.3e} (floor {floor:.3e})"
    err, floor = jac["worst"]["direction"]
    return (f"observed order {jac['observed_order']:.3g} (bound {MIN_REMAINDER_ORDER:g}); "
            f"directional error {err:.3e} (floor {floor:.3e})")


def _route(sc: Scenario) -> str:
    if sc.route != "auto":
        return sc.route
    alg = sc.system.algebra
    nil, _ = is_nilpotent(alg)
    if nil and sc.system.ideal.dim == alg.dim:
        return "nilpotent"
    solvable, _ = is_solvable(alg)
    if solvable:
        return "solvable"
    raise stability.HypothesisError("algebra is neither nilpotent-with-full-ideal nor solvable")


def cmd_certify(sc: Scenario, outdir: Path, seed: int, epsilon=None) -> int:
    try:
        route = _route(sc)
        if route == "deadbeat":
            return cmd_deadbeat(sc, outdir, seed)
        if route == "nilpotent":
            cert = stability.certify_nilpotent(sc.system, sc.signal, M=sc.M, epsilon=epsilon)
            payload = cert.to_dict()
            verdict, why = "issued", None
            if not np.isfinite(cert.alpha_levels).all():
                verdict = payload["verdict"] = "overflow"
                why = f"envelope constant is not finite (alpha levels {cert.alpha_levels})"
            elif not cert.consistent:  # finite constants, but a ladder or decay condition fails
                verdict, why = "inconsistent", cert.warnings[0]
        else:
            rep = stability.certify_solvable(sc.system, sc.signal, horizon=sc.horizon, x0=sc.x0)
            payload = rep.to_dict()
            verdict, why = rep.verdict, rep.notes[-1]
    except stability.CertificateRejected as exc:
        payload = {"verdict": "rejected", "reason": exc.reason, "margin": exc.margin}
        write_json(outdir / f"certificate-{sc.name}.json", payload)
        print(f"[FAIL] certificate rejected: {exc.reason} (margin {exc.margin:+.6g})")
        return EXIT_HYPOTHESIS
    except stability.HypothesisError as exc:
        payload = {"verdict": "hypothesis-error", "reason": str(exc)}
        write_json(outdir / f"certificate-{sc.name}.json", payload)
        print(f"[FAIL] hypothesis error: {exc}")
        return EXIT_HYPOTHESIS
    payload["scenario"] = sc.name
    payload["route"] = route
    write_json(outdir / f"certificate-{sc.name}.json", payload)
    if VERDICT_EXIT[verdict] != EXIT_PASS:
        print(f"[FAIL] {route} certificate: {verdict}: {why}")
        return VERDICT_EXIT[verdict]
    print(f"[PASS] {route} certificate: {verdict}")
    for key in ("rho_A", "threshold", "decay", "alpha", "schur_margin"):
        if key in payload:
            print(f"       {key} = {payload[key]:.6g}")
    return EXIT_PASS


def _run_and_write(sc: Scenario, outdir: Path, seed: int, tag: str) -> int:
    traj = sc.system.simulate(sc.x0, sc.signal, sc.horizon)
    write_trajectory_csv(outdir / f"{tag}-{sc.name}.csv", sc, traj, seed)
    write_trajectory_json(outdir / f"{tag}-{sc.name}.json", sc, traj, seed)
    if traj.diverged:
        print(f"[FAIL] simulation diverged at step {traj.first_bad_index}")
        return EXIT_DIVERGED
    print(f"[PASS] simulated {traj.horizon} steps; |X[0]| = {traj.norms[0]:.6g}, "
          f"|X[end]| = {traj.norms[-1]:.6g}")
    return EXIT_PASS


def cmd_simulate(sc: Scenario, outdir: Path, seed: int) -> int:
    return _run_and_write(sc, outdir, seed, "trajectory")


def cmd_reproduce(sc: Scenario, outdir: Path, seed: int) -> int:
    # reproduce = canonical initial conditions of the bundled scenario
    return _run_and_write(sc, outdir, seed, "reproduce")


def cmd_deadbeat(sc: Scenario, outdir: Path, seed: int) -> int:
    try:
        cert = stability.deadbeat_horizon(sc.system)
    except stability.HypothesisError as exc:
        write_json(outdir / f"deadbeat-{sc.name}.json",
                    {"verdict": "hypothesis-error", "reason": str(exc)})
        print(f"[FAIL] {exc}")
        return EXIT_HYPOTHESIS
    verify = stability.deadbeat_verified(
        sc.system, cert,
        lambda rng: ideal_valued_samples(sc.system, cert.horizon + 3, rng),
        runs=100, seed=seed)
    payload = cert.to_dict() | {"verified": verify, "scenario": sc.name}
    write_json(outdir / f"deadbeat-{sc.name}.json", payload)
    status = "PASS" if verify["ok"] else "FAIL"
    print(f"[{status}] deadbeat horizon {cert.horizon} "
          f"(per level: {cert.per_level}); worst residual {verify['worst_final']:.3e}")
    return EXIT_PASS if verify["ok"] else EXIT_HYPOTHESIS


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.epsilon is not None and not 0 < args.epsilon < np.inf:  # NaN fails too
            raise ScenarioError(f"--epsilon must be {'positive' if args.epsilon <= 0 else 'finite'}, "
                                f"got {args.epsilon}")
        if args.seed < 0:
            raise ScenarioError(f"--seed must be nonnegative, got {args.seed}")
        sc = _load(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"input error: cannot make output directory {args.out!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "check":
        return cmd_check(sc, outdir, args.seed)
    if args.command == "certify":
        return cmd_certify(sc, outdir, args.seed, epsilon=args.epsilon)
    if args.command == "simulate":
        return cmd_simulate(sc, outdir, args.seed)
    if args.command == "reproduce":
        if not args.builtin:
            print("input error: reproduce needs --builtin", file=sys.stderr)
            return EXIT_INPUT
        return cmd_reproduce(sc, outdir, args.seed)
    return cmd_deadbeat(sc, outdir, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
