"""Capacity bounds, optimal relay placement, and coverage regions for
multi-relay MIMO decode-and-forward networks under Rayleigh/Rician fading."""

__version__ = "0.1.0"

from .capacity import (
    BoundEstimate,
    BoundSamples,
    McConfig,
    ScenarioConfig,
    cutset_bound,
    df_rate,
    estimate_c1,
    estimate_c2,
    estimate_c3,
    high_snr_rate,
    sample_bound_realizations,
)
from .channel import (
    FadingModel,
    LosPrototype,
    NetworkGeometry,
    relay_dest_distance,
    resolve_los,
    sector_of,
)
from .cooperation import (
    ExtensionFactors,
    HataParams,
    SumRateFit,
    coop_coverage_boundary,
    coop_high_snr_sum_rate,
    estimate_coop_sum_rate,
    extension_factor,
    fit_k1_k2,
    hata_path_loss,
    jensen_sum_rate_bound,
    low_snr_sum_rate,
    max_distance,
    power_ratio,
)
from .coverage import (
    CoverageRegion,
    SolverConfig,
    coverage_boundary,
    max_coverage_radius,
    optimal_relay_radius,
    rate_vs_relay_radius,
)

__all__ = [
    "BoundEstimate", "BoundSamples", "McConfig", "ScenarioConfig",
    "cutset_bound", "df_rate", "estimate_c1", "estimate_c2", "estimate_c3",
    "high_snr_rate", "sample_bound_realizations",
    "FadingModel", "LosPrototype", "NetworkGeometry", "relay_dest_distance",
    "resolve_los", "sector_of",
    "ExtensionFactors", "HataParams", "SumRateFit", "coop_coverage_boundary",
    "coop_high_snr_sum_rate", "estimate_coop_sum_rate", "extension_factor",
    "fit_k1_k2", "hata_path_loss", "jensen_sum_rate_bound", "low_snr_sum_rate",
    "max_distance", "power_ratio",
    "CoverageRegion", "SolverConfig", "coverage_boundary",
    "max_coverage_radius", "optimal_relay_radius", "rate_vs_relay_radius",
]
