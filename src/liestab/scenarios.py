"""Scenario assembly: bundled demonstration systems, JSON scenario files,
and trajectory export.

A scenario is a system plus a concrete run: exogenous signal, initial
condition, horizon, initial-condition bound M, and the certificate route to
attempt.  Builtins: "example-4.1" (Heisenberg tracking error, nilpotent
route), "example-6.1" (coupled adjoint flows on the upper-triangular
algebra, solvable route), "heisenberg-deadbeat" and "uptri-deadbeat"
(zero-spectral-radius linear parts, finite-time route).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .algebra import (CATALOG, AlgebraLoadError, algebra_from_dict,
                      derived_algebra, heisenberg, json_field, upper_triangular6)
from .dynamics import (AdjointFamily, ExoSignal, SystemSpecError, Term, Trajectory,
                       Word, WordSeriesSystem, parse_letter)
from . import sampling

ROUTES = ("auto", "nilpotent", "solvable", "deadbeat")
MAX_HORIZON = 10 ** 6  # steps; a simulation stores (horizon + 1) * n * d floats up front
MAX_INPUTS = 100  # input slots "r": bounds every r * d input stack and the (n + r) * d linearization axes


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    system: WordSeriesSystem
    signal: ExoSignal
    x0: np.ndarray
    horizon: int
    M: float
    route: str = "auto"  # one of ROUTES

    def __post_init__(self):
        _check_horizon(self.horizon)

    def with_horizon(self, horizon: Optional[int]) -> "Scenario":
        return self if horizon is None else replace(self, horizon=horizon)


def _check_horizon(horizon: Optional[int]) -> None:
    if horizon is not None and not 0 <= horizon <= MAX_HORIZON:
        raise ScenarioError(f"'horizon' must lie in [0, {MAX_HORIZON}], got {horizon}")


# -- builtins -----------------------------------------------------------------


def _example_41(seed: int = 0, horizon: Optional[int] = None) -> Scenario:
    # slot 1 is the tracking error; slot 2 carries its linear image used as a bracket letter
    sys = sampling.heisenberg_tracking_system()
    x0 = sampling.tracking_state(np.array([3.0, 2.0, -1.0]))
    return Scenario("example-4.1", sys, sampling.tracking_signal(1.0), x0,
                    horizon if horizon is not None else 50, M=6.0, route="nilpotent")


EX61_W0 = np.array([0.0, 0.0, 0.0, 1.0, 7.0, 6.0])  # t4 + 7 t5 + 6 t6
EX61_X0 = np.array([1.0, -1.0, 0.5, 2.0, 1.0, -1.0,
                    -0.5, 1.0, 1.0, 0.0, -2.0, 1.0])


def ex61_system() -> WordSeriesSystem:
    """Coupled adjoint-flow pair on the upper-triangular algebra.

    X1+ = (1/2 e^{ad W1} - e^{ad X2}) X1 + 1/2 e^{ad W2} X2,
    X2+ = 1/2 e^{ad X2} X1 + 1/4 e^{ad (X1+W1)} X2.
    The identity parts of the flows form the linear block [[-1/2, 1/2],
    [1/2, 1/4]] (x) I6; the invariance ideal is the derived algebra
    span{t4, t5, t6}.
    """
    alg = upper_triangular6()
    M2 = np.array([[-0.5, 0.5], [0.5, 0.25]])
    A = np.kron(M2, np.eye(6))
    fams = [
        AdjointFamily(1, 0.5, {"W1": 1.0}, "X1"),
        AdjointFamily(1, -1.0, {"X2": 1.0}, "X1"),
        AdjointFamily(1, 0.5, {"W2": 1.0}, "X2"),
        AdjointFamily(2, 0.5, {"X2": 1.0}, "X1"),
        AdjointFamily(2, 0.25, {"X1": 1.0, "W1": 1.0}, "X2"),
    ]
    return WordSeriesSystem(alg, n=2, r=2, A=A, families=fams,
                            invariance_ideal=derived_algebra(alg), radius=1.0,
                            name="uptri-adjoint-pair")


def ex61_signal(horizon: int) -> ExoSignal:
    """The bounded ideal-valued driving pair.

    W1[k+1] = 2 (1 - k 1.1^{-0.5 k}) sin(10 k) W0,
    W2[k+1] = (2 - k^2 1.1^{-2 k}) cos(20 k) W0, both started at W0, with
    W0 = t4 + 7 t5 + 6 t6 in the derived algebra.  The powers are Python floats:
    ``np.power`` can differ from ``**`` in the last bit.
    """
    k = np.arange(horizon, dtype=float)
    c1 = 2.0 * (1.0 - k * np.array([1.1 ** (-0.5 * j) for j in range(horizon)])) * np.sin(10.0 * k)
    c2 = (2.0 - k * k * np.array([1.1 ** (-2.0 * j) for j in range(horizon)])) * np.cos(20.0 * k)
    samples = np.zeros((horizon + 1, 12))
    samples[0] = np.tile(EX61_W0, 2)
    samples[1:, 0:6] = np.outer(c1, EX61_W0)
    samples[1:, 6:12] = np.outer(c2, EX61_W0)
    return ExoSignal("samples", r=2, d=6, samples=samples)


def _example_61(seed: int = 0, horizon: Optional[int] = None) -> Scenario:
    # the initial condition is a fixed representative choice; the source run shows decay qualitatively
    h = horizon if horizon is not None else 200
    return Scenario("example-6.1", ex61_system(), ex61_signal(h), EX61_X0.copy(),
                    h, M=10.0, route="solvable")


def heisenberg_deadbeat_system() -> WordSeriesSystem:
    alg = heisenberg()
    A = np.array([[0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.0],
                  [0.25, -0.5, 0.0]])
    terms = [
        Term(Word((("X", 1), ("W", 1))), np.array([0.6])),
        Term(Word((("W", 1), ("X", 1), ("W", 1))), np.array([-0.3])),
    ]
    return WordSeriesSystem(alg, n=1, r=1, A=A, terms=terms,
                            invariance_ideal=alg.full_subspace(), radius=2.0,
                            name="heisenberg-deadbeat")


def uptri_deadbeat_system() -> WordSeriesSystem:
    alg = upper_triangular6()
    A = np.zeros((6, 6))
    A[0, 1] = 1.0   # nilpotent block on the quotient coordinates t1..t3
    A[1, 2] = 1.0
    A[3, 0] = 0.7   # cross feed into the ideal
    A[4, 3] = 0.5   # nilpotent block inside the ideal, respecting span{t6}
    A[5, 4] = 0.3
    terms = [
        Term(Word((("X", 1), ("W", 1))), np.array([1.0])),
        Term(Word((("W", 1), ("W", 1), ("X", 1))), np.array([-0.25])),
        Term(Word((("X", 1), ("W", 1), ("X", 1))), np.array([0.1])),
    ]
    return WordSeriesSystem(alg, n=1, r=1, A=A, terms=terms,
                            invariance_ideal=derived_algebra(alg), radius=2.0,
                            name="uptri-deadbeat")


def ideal_valued_samples(sys: WordSeriesSystem, count: int,
                         rng: np.random.Generator) -> ExoSignal:
    """Bounded random signal with every slot inside the invariance ideal."""
    B = sys.ideal.onb  # one (count, r, dim h) draw: the numbers of one draw per sample and slot
    samples = rng.standard_normal((count, sys.r, B.shape[1])) @ B.T
    return ExoSignal("samples", sys.r, sys.d, samples=samples.reshape(count, sys.r * sys.d))


def _deadbeat(name: str, make_system, default_horizon: int, seed: int = 0,
              horizon: Optional[int] = None) -> Scenario:
    """A zero-spectral-radius builtin: its signal, then its initial state, from one seeded generator."""
    sys = make_system()
    rng = np.random.default_rng(seed)
    h = horizon if horizon is not None else default_horizon
    sig = ideal_valued_samples(sys, h + 1, rng)
    return Scenario(name, sys, sig, rng.standard_normal(sys.state_dim), h, M=5.0, route="deadbeat")


BUILTINS = {
    "example-4.1": _example_41,
    "example-6.1": _example_61,
    "heisenberg-deadbeat": partial(_deadbeat, "heisenberg-deadbeat", heisenberg_deadbeat_system, 8),
    "uptri-deadbeat": partial(_deadbeat, "uptri-deadbeat", uptri_deadbeat_system, 16),
}


def builtin_scenario(name: str, seed: int = 0, horizon: Optional[int] = None) -> Scenario:
    if name not in BUILTINS:
        raise ScenarioError(f"unknown builtin {name!r}; choose from {sorted(BUILTINS)}")
    _check_horizon(horizon)  # before the builder sizes its signal by it
    return BUILTINS[name](seed=seed, horizon=horizon)


# -- scenario files ------------------------------------------------------------


_require = partial(json_field, error=ScenarioError, noun="scenario field")


def _has_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _finite(key: str, value, scalar: bool = False):
    """``value`` as a float array (a float when ``scalar``); a ScenarioError naming
    the field unless it is numeric and finite (``json`` accepts NaN and Infinity).
    A JSON ``true`` or ``false`` anywhere in it is no number."""
    if _has_bool(value):
        raise ScenarioError(f"scenario field {key!r} has wrong type (bool)")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"scenario field {key!r} must be numeric") from None
    except OverflowError:  # a JSON integer past the float range
        raise ScenarioError(f"scenario field {key!r} must be finite") from None
    if scalar and arr.ndim:
        raise ScenarioError(f"scenario field {key!r} must be a number")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"scenario field {key!r} must be finite")
    return float(arr) if scalar else arr


def scenario_from_dict(data: dict) -> Scenario:
    # the name becomes part of every output file name
    name = _require(data, "name", str, "scenario")
    if not re.fullmatch(r"[\w.-]{1,200}", name, re.ASCII):
        raise ScenarioError("scenario field 'name' must be a plain file stem: "
                            "1 to 200 ASCII letters, digits, '_', '-' or '.'")
    alg_spec = _require(data, "algebra")
    if isinstance(alg_spec, str):
        if alg_spec not in CATALOG:
            raise ScenarioError(f"unknown catalog algebra {alg_spec!r}; "
                                f"choose from {sorted(CATALOG)} or inline a definition")
        alg = CATALOG[alg_spec]()
    elif isinstance(alg_spec, dict):
        try:
            alg = algebra_from_dict(alg_spec)
        except AlgebraLoadError as exc:
            raise ScenarioError(f"algebra: {exc}") from exc
    else:
        raise ScenarioError("scenario field 'algebra' must be a name or an object")
    n = _require(data, "n", int)
    r = _require(data, "r", int)
    for key, value in (("n", n), ("r", r)):  # before 'A', whose shape n sets
        if value < 1:
            raise ScenarioError(f"{key!r} must be at least 1, got {value}")
    if r > MAX_INPUTS:
        raise ScenarioError(f"'r' must be at most {MAX_INPUTS}, got {r}")
    d = alg.dim
    A = _finite("A", _require(data, "A", list))
    if A.shape != (n * d, n * d):
        raise ScenarioError(f"'A' must be {n * d}x{n * d} row-major")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(A)):  # every check and bound scales by it
            raise ScenarioError("scenario field 'A' must have a finite Frobenius norm")
    terms = []
    for idx, t in enumerate(_require(data, "terms", list, [])):
        where = f"terms[{idx}]."
        try:
            letters = tuple(parse_letter(l) for l in _require(t, "letters", list, where=where))
            terms.append(Term(Word(letters), _finite(where + "coeff", _require(t, "coeff", where=where))))
        except SystemSpecError as exc:
            raise ScenarioError(f"terms[{idx}]: {exc}") from exc
    fams = []
    for idx, f in enumerate(_require(data, "families", list, [])):
        where = f"families[{idx}]."
        base = _require(f, "base", dict, where=where)
        try:
            fams.append(AdjointFamily(_require(f, "out_slot", int, where=where),
                                      _finite(where + "scale", _require(f, "scale", where=where), scalar=True),
                                      {k: _finite(where + "base", v, scalar=True) for k, v in base.items()},
                                      _require(f, "target", str, where=where)))
        except SystemSpecError as exc:
            raise ScenarioError(f"families[{idx}]: {exc}") from exc
    ideal_spec = _require(data, "ideal", (str, dict), "full")
    if ideal_spec == "full":
        ideal = alg.full_subspace()
    elif ideal_spec == "derived":
        ideal = derived_algebra(alg)
    elif isinstance(ideal_spec, dict):
        labels = _require(ideal_spec, "labels", list, where="ideal.")
        if any(l not in alg.labels for l in labels):
            raise ScenarioError(f"scenario field 'ideal.labels' must list labels of {alg.labels}")
        ideal = alg.span_labels(labels)
    else:
        raise ScenarioError("'ideal' must be 'full', 'derived', or {'labels': [...]}")
    try:
        system = WordSeriesSystem(alg, n, r, A, terms, fams, invariance_ideal=ideal,
                                  radius=_finite("radius", data.get("radius", 1.0), scalar=True),
                                  name=data.get("name", ""))
    except SystemSpecError as exc:
        raise ScenarioError(str(exc)) from exc
    sig_spec = _require(data, "signal", dict, {"kind": "zero"})
    kind = sig_spec.get("kind", "zero")
    try:
        if kind == "zero":
            signal = ExoSignal.zero(r, d)
        elif kind == "geometric":
            signal = ExoSignal("geometric", r, d,
                               base=_finite("signal.base", sig_spec["base"]),
                               ratio=_finite("signal.ratio", sig_spec.get("ratio", 1.0), scalar=True))
        elif kind == "samples":
            signal = ExoSignal("samples", r, d,
                               samples=_finite("signal.samples", sig_spec["samples"]))
        else:
            raise ScenarioError(f"signal: unknown kind {kind!r}")
    except (KeyError, SystemSpecError) as exc:
        raise ScenarioError(f"signal: {exc}") from exc
    x0 = _finite("x0", data.get("x0", np.zeros(n * d)))
    if x0.shape != (n * d,):
        raise ScenarioError(f"'x0' must have length {n * d}")
    horizon = _require(data, "horizon", int, 50)
    with np.errstate(over="ignore"):  # a default past the float range is refused as not finite
        M = _finite("M", data["M"] if "M" in data else max(1.0, system.state_norm(x0)), scalar=True)
    for key, value in (("M", M), ("radius", system.radius)):  # the radii of balls of states
        if value < 0:
            raise ScenarioError(f"scenario field {key!r} must be nonnegative, got {value}")
    route = _require(data, "route", str, "auto")
    if route not in ROUTES:
        raise ScenarioError(f"scenario field 'route' must be one of {', '.join(ROUTES)}")
    return Scenario(name, system, signal, x0, horizon, M=M, route=route)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    return scenario_from_dict(data)


# -- trajectory export ----------------------------------------------------------


def trajectory_columns(sys: WordSeriesSystem) -> list:
    return ["k", *sys.coordinate_names(), "norm"] + [f"qnorm{i}" for i in range(len(sys.projections))]


def trajectory_rows(traj: Trajectory) -> list:
    """One row per step, in the order of ``trajectory_columns``."""
    table = np.column_stack([traj.states, traj.norms, traj.quotient_norms]).tolist()
    return [[k, *row] for k, row in enumerate(table)]


def write_trajectory_csv(path, scenario: Scenario, traj: Trajectory, seed: int) -> None:
    cols = trajectory_columns(scenario.system)
    lines = [f"# liestab trajectory for scenario {scenario.name}",
             f"# seed={seed} horizon={traj.horizon} diverged={traj.diverged}",
             "# " + ",".join(cols),
             ",".join(cols)]
    lines += [",".join(map(repr, row)) for row in trajectory_rows(traj)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_json(path, scenario: Scenario, traj: Trajectory, seed: int) -> None:
    write_json(path, {
        "scenario": scenario.name,
        "seed": seed,
        "horizon": traj.horizon,
        "diverged": traj.diverged,
        "first_bad_index": traj.first_bad_index,
        "columns": trajectory_columns(scenario.system),
        "rows": trajectory_rows(traj),
    })


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
