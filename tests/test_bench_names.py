"""Every name the benchmark's traced run wraps exists in liestab.

``Tracer.wrap`` skips an attribute that is missing, so a renamed or deleted
layer function would leave its span metric reading 0 in a traced run that
still passes.  This test records each skip instead.
"""

import importlib.util
from pathlib import Path

from liestab import dynamics
from liestab.scenarios import builtin_scenario


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    tracing = load_tracing()
    missing, wrapped = [], []

    class RecordingTracer(tracing.Tracer):
        def wrap(self, owner, attr, name, counts=None, after=None):
            (wrapped if hasattr(owner, attr) else missing).append((owner, attr))
            super().wrap(owner, attr, name, counts=counts, after=after)

    chain_projections = dynamics.ChainProjections
    tracer = RecordingTracer()
    tracing.wrap_layers(tracer)
    systems = [builtin_scenario(name).system for name in ("example-4.1", "heisenberg-deadbeat")]
    for system in systems:
        tracer.instrument(system)
    assert dynamics.ChainProjections is not chain_projections  # the traced run is on
    tracer.restore()
    assert missing == []
    assert len(wrapped) > len(tracing.SYSTEM_METHODS) * len(systems)  # the layers, then the systems
    assert dynamics.ChainProjections is chain_projections
    assert all("evaluate" not in vars(system) for system in systems)
