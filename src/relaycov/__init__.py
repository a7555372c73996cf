"""Capacity bounds, optimal relay placement, and coverage regions for
multi-relay MIMO decode-and-forward networks under Rayleigh/Rician fading."""

__version__ = "0.1.0"

from .capacity import McConfig, ScenarioConfig, estimate_c3
from .channel import FadingModel, LosPrototype
from .cooperation import coop_coverage_boundary
from .coverage import SolverConfig, coverage_boundary, optimal_relay_radius

__all__ = [
    "McConfig", "ScenarioConfig", "estimate_c3",
    "FadingModel", "LosPrototype",
    "coop_coverage_boundary",
    "SolverConfig", "coverage_boundary", "optimal_relay_radius",
]
