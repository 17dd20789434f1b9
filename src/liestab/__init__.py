"""liestab: structure-constant Lie algebras, word-series dynamics, stability certificates."""

from .scenarios import builtin_scenario
from .stability import certify_nilpotent, fit_envelope

__version__ = "0.1.0"
