"""Non-finite input fails loudly: configs reject nan/inf, and the
bisection solvers raise on a NaN objective instead of returning r_lo."""

import math

import numpy as np
import pytest

from relaycov import capacity, coverage
from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype
from relaycov.cli import SweepOptions
from relaycov.cooperation import HataParams
from relaycov.coverage import SolverConfig, bisect_largest, solve_ray

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("make", [
    *(lambda v, k=k: ScenarioConfig(**{k: v})
      for k in ("P_s", "P_r", "alpha", "R_c")),
    *(lambda v, k=k: SolverConfig(**{k: v}) for k in ("r_lo", "r_hi", "tol")),
    lambda v: HataParams(A=v),
    lambda v: HataParams(B=v),
    *(lambda v, k=k: SweepOptions(**{k: v})
      for k in ("d_y", "sweep_start", "sweep_stop", "backoff", "relay_radius")),
    lambda v: FadingModel.rician(v, LosPrototype.poorly_conditioned()),
])
def test_config_rejects_non_finite(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def test_bisect_raises_on_nan_objective():
    with pytest.raises(FloatingPointError):
        bisect_largest(lambda r: math.nan, 0.05, 10.0, 1e-3, 60)


def test_solve_ray_raises_on_nan_objective():
    solver = SolverConfig()
    with pytest.raises(FloatingPointError):
        solve_ray(lambda theta, r: math.nan, 0.0, 5.5, solver)
    # NaN only past the bracket ends, inside the bisection.
    rate = lambda theta, r: math.nan if 1.0 < r < 9.0 else 6.0 - r
    with pytest.raises(FloatingPointError):
        solve_ray(rate, 0.0, 5.5, solver)


def test_optimal_relay_radius_raises_on_nan_objective(monkeypatch):
    def nan_rate(scn, r_R, mc):
        return capacity.summarize_samples(np.array([math.nan]))

    monkeypatch.setattr(capacity, "estimate_c3", nan_rate)
    with pytest.raises(FloatingPointError):
        coverage.optimal_relay_radius(ScenarioConfig(), McConfig(samples=10),
                                      SolverConfig())
