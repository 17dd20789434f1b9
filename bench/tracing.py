"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only by benchmark code: around each operation the
benchmark issues, and around layer entry points that the traced run wraps
for its duration.  Those are module attributes that liestab looks up at call
time, and methods of the system instances the operations use.  Each span
keeps its name ("<module>.<function>"), the operation's input tag, its
parent, start and end times, whether it raised, and optional counters.
"""

from __future__ import annotations

import time
from collections import defaultdict

# methods of a WordSeriesSystem that get a span when the traced run uses it
SYSTEM_METHODS = {
    "evaluate": "dynamics.evaluate",
    "evaluate_batch": "dynamics.evaluate_batch",
    "simulate": "dynamics.simulate",
    "quotient_system": "dynamics.quotient_system",
    "series_majorant": "dynamics.series_majorant",
    "equilibrium_report": "dynamics.equilibrium_report",
    "invariance_report": "dynamics.invariance_report",
    "jacobian_report": "dynamics.jacobian_report",
    "mu": "algebra.bracket_constant",
}


def _batch_rows(X, *args, **kwargs) -> dict:
    return {"rows": len(X)}


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans and instrumentation cost one method call."""
    _nospan = _NoSpan()
    tag = ""

    def span(self, name: str, **counts):
        return self._nospan

    def instrument(self, system):
        return system


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.record = {"id": None, "name": name, "tag": tracer.tag, "parent": None,
                       "start": 0.0, "end": 0.0, "failed": False, "counts": counts}

    def __enter__(self):
        spans, stack, rec = self.tracer.spans, self.tracer.stack, self.record
        rec["id"] = len(spans)
        rec["parent"] = stack[-1] if stack else None
        spans.append(rec)
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, exc_type, exc, tb):
        self.record["end"] = time.perf_counter()
        self.record["failed"] = exc_type is not None
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records spans; ``wrap`` and ``instrument`` add spans at layer boundaries.

    Every wrapper it installs is removed again by ``restore``.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tag = ""
        self._undo = []
        self._instrumented = set()

    def span(self, name: str, **counts) -> _Span:
        return _Span(self, name, counts)

    def _wrapper(self, fn, name: str, counts=None):
        def traced(*args, **kwargs):
            with self.span(name, **(counts(*args, **kwargs) if counts else {})):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str, counts=None, after=None) -> None:
        """Give every call of ``owner.attr`` a span until ``restore``.

        ``after`` post-processes the returned value (used to instrument the
        systems that a wrapped scenario builder returns).  Missing attributes
        are skipped, so a renamed layer function only loses its span.
        """
        if not hasattr(owner, attr):
            return
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        traced = self._wrapper(original, name, counts)
        if after is not None:
            inner = traced

            def traced(*args, **kwargs):
                return after(inner(*args, **kwargs))
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, had_own, original))

    def instrument(self, system):
        """Span the layer methods of one system instance; returns the system."""
        if id(system) not in self._instrumented:
            self._instrumented.add(id(system))
            for attr, name in SYSTEM_METHODS.items():
                self.wrap(system, attr, name,
                          counts=_batch_rows if attr == "evaluate_batch" else None)
        return system

    def restore(self) -> None:
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self._instrumented.clear()


def wrap_layers(tracer: Tracer) -> None:
    """Span the layer entry points liestab calls internally, for the traced run."""
    from liestab import algebra, cli, dynamics, quotient, stability
    tracer.wrap(algebra, "subspace_bracket", "algebra.subspace_bracket")
    tracer.wrap(quotient, "subspace_bracket", "algebra.subspace_bracket")
    tracer.wrap(dynamics, "ChainProjections", "quotient.chain_projections")
    tracer.wrap(dynamics, "quotient_algebra", "quotient.quotient_algebra")
    tracer.wrap(stability, "adapted_norm", "quotient.adapted_norm")
    for fn in ("power_envelope_constant", "forcing_gain", "certify_nilpotent",
               "certify_solvable", "deadbeat_horizon", "deadbeat_verified"):
        tracer.wrap(stability, fn, f"stability.{fn}")
    tracer.wrap(cli, "is_nilpotent", "algebra.is_nilpotent")
    tracer.wrap(cli, "is_solvable", "algebra.is_solvable")

    def instrument_scenario(sc):
        tracer.instrument(sc.system)
        return sc

    tracer.wrap(cli, "builtin_scenario", "scenarios.builtin_scenario", after=instrument_scenario)
    tracer.wrap(cli, "write_trajectory_csv", "scenarios.write_trajectory")
    tracer.wrap(cli, "write_trajectory_json", "scenarios.write_trajectory")


def outermost(spans: list) -> list:
    """Whether each span has no enclosing span of the same name.

    A wrapped system method called from an operation of the same name opens
    a second span inside the first; metrics count only the outer one.
    """
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        out.append(p is None)
    return out


def span_scales(spans: list) -> list:
    """Machine-speed factor of each span: the one its operation's root span recorded."""
    out = []
    for s in spans:
        out.append(s.get("scale", 1.0) if s["parent"] is None else out[s["parent"]])
    return out


def self_times(spans: list) -> list:
    """Scaled duration of each span minus that of its direct children, in seconds."""
    scales = span_scales(spans)
    out = [(s["end"] - s["start"]) * f for s, f in zip(spans, scales)]
    for s, f in zip(spans, scales):
        if s["parent"] is not None:
            out[s["parent"]] -= (s["end"] - s["start"]) * f
    return out


def layer_summary(spans: list) -> dict:
    """Per layer (module): calls, self time in ms, and spans that raised.

    Nothing runs concurrently and nothing queues in this benchmark, so a
    layer's waiting time does not apply and is reported as None.
    """
    summary = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "failed": 0, "wait_ms": None})
    for s, own in zip(spans, self_times(spans)):
        entry = summary[s["name"].split(".", 1)[0]]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * own
        entry["failed"] += s["failed"]
    return dict(summary)
