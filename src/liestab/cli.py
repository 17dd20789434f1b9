"""Command-line front end.

    liestab <command> [--scenario FILE | --builtin NAME] --horizon K --seed S
            --out DIR [--tol NAME=VALUE ...]

Commands: check (structural/convergence checks), certify (stability
certificate for the scenario's route), simulate, reproduce (canonical run of
a builtin), deadbeat (finite-time horizon plus verification).

Exit codes: 0 pass, 1 hypothesis/certificate failure (an inconsistent
certificate included), 2 input error, 3 numeric divergence or overflow.
Identical configuration and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import stability
from .algebra import is_nilpotent, is_solvable
from .scenarios import (BUILTINS, Scenario, ScenarioError, builtin_scenario,
                        load_scenario, write_trajectory_csv, write_trajectory_json)

EXIT_PASS = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_DIVERGED = 3


def _parse_tols(pairs) -> dict:
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise ScenarioError(f"--tol expects NAME=VALUE, got {p!r}")
        k, v = p.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            raise ScenarioError(f"--tol value for {k!r} is not a number") from None
    return out


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
    ap.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="tolerance override (invariance, equilibrium-residual, jacobian-order)")
    ap.add_argument("--epsilon", type=float, default=None,
                    help="gap parameter for the nilpotent certificate")
    return ap


def _load(args) -> Scenario:
    if args.builtin:
        sc = builtin_scenario(args.builtin, seed=args.seed, horizon=args.horizon)
    else:
        sc = load_scenario(args.scenario)
        sc = sc.with_horizon(args.horizon)
    return sc


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_check(sc: Scenario, outdir: Path, seed: int, tols: dict) -> int:
    sys_ = sc.system
    majorant = sys_.series_majorant(max(sc.M, sys_.radius))
    eq = sys_.equilibrium_report(seed=seed)
    inv = sys_.invariance_report(seed=seed, tol=tols.get("invariance", 1e-10))
    jac = sys_.jacobian_report()
    ok = bool(np.isfinite(majorant)) and eq["ok"] and inv["ok"] and jac["ok"]
    report = {"scenario": sc.name, "seed": seed, "ok": ok,
              "majorant": {"radius": max(sc.M, sys_.radius), "value": majorant,
                           "finite": bool(np.isfinite(majorant))},
              "equilibrium": {k: v for k, v in eq.items() if k != "violations"}
              | {"violation_count": len(eq["violations"])},
              "invariance": inv, "jacobian": jac}
    _write_json(outdir / f"check-{sc.name}.json", report)
    for label, good in [("series majorant finite", np.isfinite(majorant)),
                        ("unique equilibrium (structural + search)", eq["ok"]),
                        ("chain invariance", inv["ok"]),
                        ("linearization matches A", jac["ok"])]:
        print(f"[{'PASS' if good else 'FAIL'}] {label}")
    return EXIT_PASS if ok else EXIT_HYPOTHESIS


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


def cmd_certify(sc: Scenario, outdir: Path, seed: int, tols: dict, epsilon=None) -> int:
    try:
        route = _route(sc)
        if route == "deadbeat":
            return cmd_deadbeat(sc, outdir, seed, tols)
        if route == "nilpotent":
            cert = stability.certify_nilpotent(sc.system, sc.signal, M=sc.M, epsilon=epsilon)
            payload = cert.to_dict()
            verdict = "issued" if cert.consistent else "inconsistent"
            if not np.isfinite(cert.alpha_levels).all():
                payload |= {"scenario": sc.name, "route": route, "verdict": "overflow"}
                _write_json(outdir / f"certificate-{sc.name}.json", payload)
                print(f"[FAIL] certificate envelope constant is not finite (alpha levels {cert.alpha_levels})")
                return EXIT_DIVERGED
        else:
            rep = stability.certify_solvable(sc.system, sc.signal, horizon=sc.horizon, x0=sc.x0)
            payload = rep.to_dict()
            verdict = rep.verdict
    except stability.CertificateRejected as exc:
        payload = {"verdict": "rejected", "reason": exc.reason, "margin": exc.margin}
        _write_json(outdir / f"certificate-{sc.name}.json", payload)
        print(f"[FAIL] certificate rejected: {exc.reason} (margin {exc.margin:+.6g})")
        return EXIT_HYPOTHESIS
    except stability.HypothesisError as exc:
        payload = {"verdict": "hypothesis-error", "reason": str(exc)}
        _write_json(outdir / f"certificate-{sc.name}.json", payload)
        print(f"[FAIL] hypothesis error: {exc}")
        return EXIT_HYPOTHESIS
    payload["scenario"] = sc.name
    payload["route"] = route
    _write_json(outdir / f"certificate-{sc.name}.json", payload)
    if verdict == "inconsistent":  # finite constants, but a ladder or decay condition fails
        print(f"[FAIL] nilpotent certificate is not consistent: {cert.warnings[0]}")
        return EXIT_HYPOTHESIS
    print(f"[PASS] {route} certificate: {verdict}")
    for key in ("rho_A", "threshold", "decay", "alpha", "schur_margin"):
        if key in payload:
            print(f"       {key} = {payload[key]:.6g}")
    bad = verdict not in ("issued", "conditional-pass", "conditional-pass-no-evidence")
    return EXIT_HYPOTHESIS if bad else EXIT_PASS


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


def cmd_deadbeat(sc: Scenario, outdir: Path, seed: int, tols: dict) -> int:
    try:
        cert = stability.deadbeat_horizon(sc.system)
    except stability.HypothesisError as exc:
        _write_json(outdir / f"deadbeat-{sc.name}.json",
                    {"verdict": "hypothesis-error", "reason": str(exc)})
        print(f"[FAIL] {exc}")
        return EXIT_HYPOTHESIS
    from .scenarios import ideal_valued_samples
    verify = stability.deadbeat_verified(
        sc.system, cert,
        lambda rng: ideal_valued_samples(sc.system, cert.horizon + 3, rng),
        runs=100, seed=seed, tol=tols.get("deadbeat", 1e-9))
    payload = cert.to_dict() | {"verified": verify, "scenario": sc.name}
    _write_json(outdir / f"deadbeat-{sc.name}.json", payload)
    status = "PASS" if verify["ok"] else "FAIL"
    print(f"[{status}] deadbeat horizon {cert.horizon} "
          f"(per level: {cert.per_level}); worst residual {verify['worst_final']:.3e}")
    return EXIT_PASS if verify["ok"] else EXIT_HYPOTHESIS


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        tols = _parse_tols(args.tol)
        if args.epsilon is not None and not np.isfinite(args.epsilon):
            raise ScenarioError(f"--epsilon must be finite, got {args.epsilon}")
        sc = _load(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.command == "check":
        return cmd_check(sc, outdir, args.seed, tols)
    if args.command == "certify":
        return cmd_certify(sc, outdir, args.seed, tols, epsilon=args.epsilon)
    if args.command == "simulate":
        return cmd_simulate(sc, outdir, args.seed)
    if args.command == "reproduce":
        if not args.builtin:
            print("input error: reproduce needs --builtin", file=sys.stderr)
            return EXIT_INPUT
        return cmd_reproduce(sc, outdir, args.seed)
    return cmd_deadbeat(sc, outdir, args.seed, tols)


if __name__ == "__main__":
    raise SystemExit(main())
