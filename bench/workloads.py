"""The benchmark's three workloads: operations, their inputs and their correctness gates.

Every operation is a call into liestab's public API (or ``cli.main`` in
process) on inputs generated from the benchmark seed.  The result of each
call goes through a gate that raises ``GateFailure`` when the output is
wrong; the harness counts such an operation as failed and carries on.
Gates compare numbers with tolerances, never with hashes, except that one
CLI operation must write byte-identical files on every pass of a run.

Why these workloads:

* ``builtins`` runs every CLI command that applies to each of the four
  builtins at its canonical horizon.  It is the user-facing end-to-end path,
  and about 70% of it is the batched equilibrium search of
  ``check example-6.1`` (``evaluate_batch`` over 60,000 state rows).
* ``nilpotent-sweep`` grows the algebra: strictly upper-triangular m x m
  matrices, m = 4, 6, 8, 10 (d = 6, 15, 28, 45).  It is dominated by the
  algebra and quotient layers and barely evaluates the update map.
* ``long-trajectory`` stays on the scalar step path: one
  ``evaluate`` per state update, over long and over many short runs.  A change
  that moves the scalar path onto the batch path shows here and in
  ``builtins`` with opposite signs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from liestab import cli
from liestab.algebra import LieAlgebra, bracket_constant, is_nilpotent, is_solvable
from liestab.dynamics import ExoSignal, Term, Word, WordSeriesSystem
from liestab.sampling import bch_compose, tracking_signal, tracking_state
from liestab.scenarios import builtin_scenario, ideal_valued_samples
from liestab.stability import (certify_nilpotent, deadbeat_envelope, deadbeat_horizon,
                               deadbeat_verified, fit_envelope)

BUILTINS = ("example-4.1", "example-6.1", "heisenberg-deadbeat", "uptri-deadbeat")
DEADBEAT = {"heisenberg-deadbeat": 5, "uptri-deadbeat": 14}
SWEEP_SIZES = (4, 6, 8, 10)
SMOKE_SWEEP_SIZES = (4,)
# certify_nilpotent at d = 45 would run for minutes and then overflow (see NOTES.md)
CERTIFY_MAX_M = 8
LONG_STEPS = 2000
SMOKE_LONG_STEPS = 200


class GateFailure(AssertionError):
    """An operation returned, but its output is wrong."""


def gate(ok, message: str) -> None:
    if not ok:
        raise GateFailure(message)


@dataclass
class Op:
    """One timed call.  ``name`` is the called function as "<module>.<function>"."""
    name: str
    tag: str                       # the input: a builtin name or a sweep size "d<dim>"
    run: Callable                  # run(tracer) -> result
    check: Callable                # check(result) -> None, raises GateFailure
    kinds: frozenset = frozenset()  # end-to-end sums it feeds: build, check, certify, simulate
    steps: int = 0                 # state updates the call performs
    reference: str = "interpreter"  # the speed reference its work is like (gauge.py)

    @property
    def key(self) -> str:
        return f"{self.name}.{self.tag}"


@dataclass
class Workload:
    name: str
    ops: list
    layer_metrics: list  # LayerMetric, read off the traced pass


@dataclass
class LayerMetric:
    """A per-layer number read off the spans of one workload's traced pass.

    ``kind`` is "ms" (summed span time), "calls" (span count), "us_per_call",
    "us_per_row" (span time over the spans' ``rows`` counter) or "rows".
    """
    name: str
    unit: str
    better: str
    span: str
    tag: str
    kind: str


def _ms(span: str, tag: str) -> LayerMetric:
    return LayerMetric(f"{span}_ms.{tag}", "ms", "lower", span, tag, "ms")


def _seeds(seed: int, count: int) -> list:
    """Library-side seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# -- builtins: cli.main in process --------------------------------------------


def _run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


def _read_outputs(outdir: Path) -> tuple:
    """(json payloads by file name, digest of every file); empties the directory."""
    digest = hashlib.sha256()
    payloads = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        if path.suffix == ".json":
            payloads[path.name] = json.loads(data)
        path.unlink()
    return payloads, digest.hexdigest()


def _trajectory_norm(payload: dict, k: int) -> float:
    return payload["rows"][k][payload["columns"].index("norm")]


def _builtin_gate(command: str, name: str) -> Callable:
    """Exit code and verdict of one CLI command, as at the seed commit."""

    def check_verdict(files: dict) -> None:
        if command == "check":
            gate(files[f"check-{name}.json"]["ok"], "check report not ok")
        elif command in ("deadbeat", "certify") and name in DEADBEAT:
            rep = files[f"deadbeat-{name}.json"]
            gate(rep["horizon"] == DEADBEAT[name],
                 f"deadbeat horizon {rep['horizon']} != {DEADBEAT[name]}")
            gate(rep["verified"]["ok"], "deadbeat verification failed")
        elif command == "certify":
            cert = files[f"certificate-{name}.json"]
            if name == "example-4.1":
                gate(cert["route"] == "nilpotent" and cert["consistent"] is True,
                     "nilpotent certificate not issued as consistent")
            else:
                gate(cert["verdict"] == "conditional-pass",
                     f"solvable verdict {cert['verdict']!r} != 'conditional-pass'")
        elif command == "simulate":
            traj = files[f"trajectory-{name}.json"]
            gate(not traj["diverged"], "trajectory diverged")
            if name == "example-6.1":
                norm = _trajectory_norm(traj, 200)
                gate(norm < 1e-4, f"example-6.1 norm at step 200 is {norm:.3e} >= 1e-4")
            elif name == "example-4.1":
                norm = _trajectory_norm(traj, 50)
                gate(norm < 1e-6, f"example-4.1 norm at step 50 is {norm:.3e} >= 1e-6")
            else:
                norm = _trajectory_norm(traj, DEADBEAT[name])
                gate(norm < 1e-9, f"{name} not at rest at its deadbeat horizon ({norm:.3e})")

    return check_verdict


def builtins_workload(seed: int, outroot: Path, smoke: bool = False) -> Workload:
    """The canonical CLI runs.  The CLI seed stays 0 whatever the benchmark seed:
    it decides how many equilibrium-search starts diverge, and so how much work
    ``check`` does (37,555 to 60,000 rows for example-6.1 over seeds 0 to 7)."""
    cli_seed = 0
    commands = [("check", b) for b in BUILTINS] + [("certify", b) for b in BUILTINS] \
        + [("simulate", b) for b in BUILTINS] + [("deadbeat", b) for b in DEADBEAT]
    horizons = {"example-4.1": 50, "example-6.1": 200,
                "heisenberg-deadbeat": 8, "uptri-deadbeat": 16}
    ops = []
    for name in BUILTINS:
        def build(tr, name=name):
            return builtin_scenario(name, seed=cli_seed)

        def check_build(sc, name=name):
            gate(sc.name == name and sc.horizon == horizons[name], "wrong scenario built")

        ops.append(Op("scenarios.builtin_scenario", name, build, check_build,
                      frozenset({"build"})))
    for command, name in commands:
        outdir = outroot / f"{command}-{name}"
        if outdir.exists():
            shutil.rmtree(outdir)
        outdir.mkdir(parents=True)
        argv = [command, "--builtin", name, "--seed", str(cli_seed), "--out", str(outdir)]
        verdict = _builtin_gate(command, name)
        first_digest = []

        def run(tr, argv=argv):
            return _run_cli(argv)

        def check(result, outdir=outdir, verdict=verdict, first_digest=first_digest):
            code, text = result
            files, digest = _read_outputs(outdir)
            gate(code == 0, f"exit code {code} != 0: {text.strip()[-200:]}")
            verdict(files)
            if not first_digest:
                first_digest.append(digest)
            gate(digest == first_digest[0], "output files differ from the first pass")

        if command == "simulate":
            steps = horizons[name]
        elif name in DEADBEAT:  # deadbeat and certify verify with 100 runs of horizon + 2 steps
            steps = 100 * (DEADBEAT[name] + 2)
        else:
            steps = 0
        ops.append(Op(f"cli.{command}", name, run, check,
                      frozenset({command} & {"check", "certify", "simulate"}), steps))
    metrics = [_ms(f"cli.{c}", b) for c, b in commands]
    for b in BUILTINS:
        metrics += [_ms("scenarios.builtin_scenario", b),
                    _ms("scenarios.write_trajectory", b),
                    _ms("dynamics.equilibrium_report", b),
                    _ms("dynamics.invariance_report", b),
                    _ms("dynamics.jacobian_report", b),
                    _ms("algebra.bracket_constant", b)]
    metrics += [
        LayerMetric("dynamics.equilibrium_rows.example-6.1", "count", "lower",
                    "dynamics.evaluate_batch", "example-6.1", "rows"),
        LayerMetric("dynamics.evaluate_batch_us_per_row.example-6.1", "us/row", "lower",
                    "dynamics.evaluate_batch", "example-6.1", "us_per_row"),
        _ms("stability.certify_nilpotent", "example-4.1"),
        _ms("stability.power_envelope_constant", "example-4.1"),
        _ms("stability.certify_solvable", "example-6.1"),
    ]
    return Workload("builtins", ops, metrics)


# -- nilpotent sweep ----------------------------------------------------------


def nilpotent_upper(m: int) -> tuple:
    """Strictly upper-triangular m x m matrices in the matrix-unit basis.

    Returns (C, labels, rep): the structure constants read off the
    commutators [E_ij, E_kl] = delta_jk E_il - delta_li E_kj of the basis
    matrices E_ij (i < j), and the matrices themselves.  The algebra has
    dimension m (m - 1) / 2 and nilindex m - 1.
    """
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    index = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    rep = np.zeros((d, m, m))
    for k, (i, j) in enumerate(pairs):
        rep[k, i, j] = 1.0
    C = np.zeros((d, d, d))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                C[a, b, index[(i, l)]] += 1.0
            if l == i:
                C[a, b, index[(k, j)]] -= 1.0
    return C, [f"E{i + 1}_{j + 1}" for i, j in pairs], rep


def _unipotent_log(G: np.ndarray) -> np.ndarray:
    """Exact finite Mercator series of log G for unipotent G (the BCH oracle)."""
    m = G.shape[0]
    N = G - np.eye(m)
    out = np.zeros_like(N)
    term = np.eye(m)
    for j in range(1, m):
        term = term @ N
        out += (-1) ** (j + 1) * term / j
    return out


def sweep_workload(seed: int, outroot: Path, smoke: bool = False) -> Workload:
    ops, metrics = [], []
    for m in (SMOKE_SWEEP_SIZES if smoke else SWEEP_SIZES):
        C, labels, rep = nilpotent_upper(m)
        d = C.shape[0]
        tag = f"d{d}"
        rng = np.random.default_rng([seed, m])
        x0 = rng.standard_normal(d)
        signal = ExoSignal("samples", 1, d, samples=0.05 * rng.uniform(-1.0, 1.0, (64, d)))
        bch_x, bch_y = 0.5 * rng.standard_normal((2, d))
        terms = [Term(Word((("X", 1), ("W", 1))), np.array([0.1])),
                 Term(Word((("X", 1), ("X", 1), ("W", 1))), np.array([-0.05]))]
        oracle = np.array([_unipotent_log(scipy.linalg.expm(np.einsum("i,iab->ab", bch_x, rep))
                                          @ scipy.linalg.expm(np.einsum("i,iab->ab", bch_y, rep)))[i, j]
                           for i in range(m) for j in range(i + 1, m)])
        state = {}

        def validate(tr, C=C, labels=labels, rep=rep, m=m):
            state[m] = {"alg": LieAlgebra(C, labels=labels, matrix_rep=rep, name=f"n{m}")}
            return state[m]["alg"]

        def check_validate(alg):
            gate(alg.rep_residual() == 0.0, f"representation residual {alg.rep_residual():.3e} != 0")

        def nilpotent(tr, m=m):
            return is_nilpotent(state[m]["alg"])

        def solvable(tr, m=m):
            return is_solvable(state[m]["alg"])

        def build(tr, m=m, d=d, terms=terms):
            sys_ = WordSeriesSystem(state[m]["alg"], 1, 1, 0.5 * np.eye(d), terms=terms,
                                    name=f"n{m}")
            state[m]["sys"] = tr.instrument(sys_)
            return sys_

        def mu(tr, m=m):
            return bracket_constant(state[m]["alg"])

        def jacobian(tr, m=m):
            return state[m]["sys"].jacobian_report()

        def invariance(tr, m=m):
            return state[m]["sys"].invariance_report()

        def simulate(tr, m=m, x0=x0, signal=signal):
            return state[m]["sys"].simulate(x0, signal, 200)

        def check_simulate(traj):
            gate(not traj.diverged, "sweep trajectory diverged")
            gate(traj.norms[-1] < 1e-6 * max(1.0, traj.norms[0]),
                 f"sweep trajectory did not decay (|X[200]| = {traj.norms[-1]:.3e})")

        def bch(tr, m=m, x=bch_x, y=bch_y):
            return bch_compose(state[m]["alg"], x, y, m - 1)

        def check_bch(z, oracle=oracle):
            err = float(np.linalg.norm(z - oracle))
            gate(err <= 1e-9, f"bch_compose differs from log(exp exp) by {err:.3e}")

        def certify(tr, m=m, signal=signal):
            return certify_nilpotent(state[m]["sys"], signal, M=1.0)

        def check_certify(cert):
            gate(cert.consistent and math.isfinite(cert.alpha),
                 f"certificate not consistent (alpha = {cert.alpha:.3e})")

        def check_report(rep):
            gate(rep["ok"], "report not ok")

        build_kind = frozenset({"build"})
        ops += [
            Op("algebra.validate", tag, validate, check_validate, build_kind, reference="array"),
            Op("algebra.is_nilpotent", tag, nilpotent,
               lambda r, m=m: gate(r == (True, m - 1), f"is_nilpotent gave {r}, want nilindex {m - 1}"),
               build_kind, reference="array"),
            Op("algebra.is_solvable", tag, solvable,
               lambda r: gate(r[0] is True, f"is_solvable gave {r}"), build_kind, reference="array"),
            Op("dynamics.system_build", tag, build,
               lambda s, m=m: gate(s.nilindex == m - 1, f"system nilindex {s.nilindex}"), build_kind,
               reference="array"),
            Op("algebra.bracket_constant", tag, mu,
               lambda v: gate(1.0 <= v <= 1.05 * math.sqrt(2.0) + 1e-12,
                              f"bracket constant {v} outside [1, 1.05 sqrt 2]")),
            Op("dynamics.jacobian_report", tag, jacobian, check_report, frozenset({"check"})),
            Op("dynamics.invariance_report", tag, invariance, check_report, frozenset({"check"})),
            Op("dynamics.simulate", tag, simulate, check_simulate, frozenset({"simulate"}), 200),
            Op("sampling.bch_compose", tag, bch, check_bch),
        ]
        for span in ("algebra.validate", "algebra.subspace_bracket", "algebra.is_nilpotent",
                     "algebra.is_solvable", "algebra.bracket_constant",
                     "quotient.chain_projections", "dynamics.system_build",
                     "sampling.bch_compose"):
            metrics.append(_ms(span, tag))
        if m <= CERTIFY_MAX_M:
            ops.append(Op("stability.certify_nilpotent", tag, certify, check_certify,
                          frozenset({"certify"}), reference="array"))
            for span in ("quotient.quotient_algebra", "quotient.adapted_norm",
                         "dynamics.quotient_system", "stability.certify_nilpotent",
                         "stability.power_envelope_constant"):
                metrics.append(_ms(span, tag))
    return Workload("nilpotent-sweep", ops, metrics)


# -- long scalar trajectories -------------------------------------------------


def long_workload(seed: int, outroot: Path, smoke: bool = False) -> Workload:
    steps = SMOKE_LONG_STEPS if smoke else LONG_STEPS
    verify_seed, envelope_seed, bundle_seed = _seeds(seed, 3)
    ex61 = builtin_scenario("example-6.1", horizon=steps)
    ex41 = builtin_scenario("example-4.1")
    rng = np.random.default_rng(bundle_seed)
    bundle_x0 = []
    for _ in range(5):
        e0 = rng.standard_normal(3)
        bundle_x0.append(tracking_state(e0 * rng.uniform(0.2, 1.0) * 5.0 / np.linalg.norm(e0)))
    systems = {name: builtin_scenario(name).system for name in DEADBEAT}

    def build(tr):
        return builtin_scenario("example-6.1", horizon=steps)

    def check_build(sc):
        gate(sc.horizon == steps and sc.signal.samples.shape[0] == steps + 1,
             "long scenario has the wrong horizon")

    def simulate(tr):
        return tr.instrument(ex61.system).simulate(ex61.x0, ex61.signal, steps)

    def check_simulate(traj):
        gate(not traj.diverged, f"example-6.1 diverged at step {traj.first_bad_index}")
        gate(traj.norms[200] < 1e-4, f"example-6.1 norm at step 200 is {traj.norms[200]:.3e}")
        gate(traj.norms[-1] <= traj.norms[200], "example-6.1 norm grew after step 200")

    def fit(tr):
        sys_ = tr.instrument(ex41.system)
        bundle = [sys_.simulate(x0, tracking_signal(1.0), 200) for x0 in bundle_x0]
        return fit_envelope(bundle)

    def check_fit(env):
        gate(env.satisfied and env.decay < 1.0 and math.isfinite(env.alpha),
             f"envelope fit failed (decay {env.decay}, alpha {env.alpha})")

    ops = [Op("scenarios.builtin_scenario", "example-6.1", build, check_build,
              frozenset({"build"})),
           Op("dynamics.simulate", "example-6.1", simulate, check_simulate,
              frozenset({"simulate"}), steps)]
    for name, horizon in DEADBEAT.items():
        sys_ = systems[name]

        def factory(rng, sys_=sys_, horizon=horizon):
            return ideal_valued_samples(sys_, horizon + 3, rng)

        def verified(tr, sys_=sys_, factory=factory):
            sys_ = tr.instrument(sys_)
            with tr.span("stability.deadbeat_horizon"):
                cert = deadbeat_horizon(sys_)
            return cert, deadbeat_verified(sys_, cert, factory, runs=100, seed=verify_seed)

        def check_verified(result, horizon=horizon):
            cert, rep = result
            gate(cert.horizon == horizon, f"deadbeat horizon {cert.horizon} != {horizon}")
            gate(rep["ok"], f"deadbeat verification failed (worst {rep['worst_final']:.3e})")

        def envelope(tr, sys_=sys_, factory=factory):
            sys_ = tr.instrument(sys_)
            with tr.span("stability.deadbeat_horizon"):
                cert = deadbeat_horizon(sys_)
            return deadbeat_envelope(sys_, cert, factory, M=5.0, decay=0.5,
                                     seed=envelope_seed)

        first_alpha = []

        def check_envelope(env, first_alpha=first_alpha):
            # deadbeat_envelope always sets satisfied, and its fresh-sample check
            # fails on about half the seeds by sampling chance (NOTES.md), so the
            # gate is the constant itself: finite, at least 1, the same every pass
            gate(1.0 <= env.alpha < math.inf and env.decay == 0.5,
                 f"deadbeat envelope failed (alpha {env.alpha}, decay {env.decay})")
            if not first_alpha:
                first_alpha.append(env.alpha)
            gate(env.alpha == first_alpha[0],
                 f"deadbeat envelope alpha {env.alpha} != {first_alpha[0]} of the first pass")

        ops += [Op("stability.deadbeat_verified", name, verified, check_verified,
                   frozenset({"check", "simulate"}), 100 * (horizon + 2)),
                Op("stability.deadbeat_envelope", name, envelope, check_envelope,
                   frozenset({"certify", "simulate"}), (50 + 100) * horizon)]
    ops.append(Op("stability.fit_envelope", "example-4.1", fit, check_fit,
                  frozenset({"certify", "simulate"}), 5 * 200))
    metrics = [_ms("dynamics.simulate", "example-6.1"),
               LayerMetric("dynamics.evaluate_us.example-6.1", "us", "lower",
                           "dynamics.evaluate", "example-6.1", "us_per_call"),
               LayerMetric("dynamics.evaluate_calls.example-6.1", "count", "lower",
                           "dynamics.evaluate", "example-6.1", "calls"),
               _ms("stability.fit_envelope", "example-4.1")]
    for name in DEADBEAT:
        metrics += [_ms("stability.deadbeat_verified", name),
                    _ms("stability.deadbeat_envelope", name)]
    return Workload("long-trajectory", ops, metrics)


WORKLOADS = {"builtins": builtins_workload,
             "nilpotent-sweep": sweep_workload,
             "long-trajectory": long_workload}

