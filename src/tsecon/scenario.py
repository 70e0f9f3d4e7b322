"""Counterfactual capital-growth scenarios for unemployment and exports.

The counterfactual is a dynamic deviation simulation: from the first override
year onward the fitted equation propagates the gap between the scenario
capital-growth rate and the actual one, with previously simulated deviations
feeding the autoregressive lags.  The baseline is the actual data path, so a
scenario that prescribes the actual growth rates reproduces the baseline
exactly, while an early shock still moves every later year through the lag
dynamics.  The fit's capital-growth coefficient is the one named as the
capital-growth series is (``d_Ln(K)`` in the bundled study); a pipeline reads
that term, and the simulated series of the fit's dependent, from the fit.
"""
from __future__ import annotations

import math
from typing import Mapping

from ._record import record
from .dataset import AnnualSeries
from .regress import EstimationError, FitResult

__all__ = ["CapitalScenario", "ScenarioResult", "simulate_exports", "simulate_unemployment"]


@record
class CapitalScenario:
    """Named schedule of capital growth overrides.

    ``overrides`` maps a year to a growth rate; each rate applies from its
    year until the next override year (the last one carries to the end of the
    window).  Rates are finite growth fractions above -1, e.g. 0.15 for 15% growth.
    """

    name: str
    overrides: Mapping[int, float]

    def __post_init__(self):
        if not all(-1.0 < rate < math.inf for rate in self.overrides.values()):  # NaN fails too
            raise EstimationError("each YYYY:rate override needs a finite rate > -1", "overrides")

    def rate_for(self, year: int) -> float | None:
        applicable = [y for y in self.overrides if y <= year]
        return self.overrides[max(applicable)] if applicable else None

    def check_window(self, window: tuple[int, int]) -> None:
        """Refuse an empty ``(first, last)`` window or an override year outside it."""
        lo, hi = window
        if lo > hi:
            raise EstimationError("empty simulation window", "window")
        outside = [y for y in self.overrides if not lo <= y <= hi]
        if outside:
            raise EstimationError(f"override years {outside} lie outside the window {lo}-{hi}",
                                  "overrides")


@record
class ScenarioResult:
    baseline_path: AnnualSeries
    counterfactual_path: AnnualSeries
    terminal_delta: float
    derived_quantities: dict[str, float]


def _coeff(fit: FitResult, label: str) -> float:
    try:
        return fit.coefficient(label).estimate
    except KeyError:
        raise EstimationError(f"fit is missing the required coefficient {label!r}") from None


def _simulate(
    fit: FitResult,
    scenario: CapitalScenario,
    window: tuple[int, int],
    actual: AnnualSeries,
    capital_growth: AnnualSeries,
    as_log_growth: bool,
) -> tuple[range, tuple[float, ...], list[float]]:
    """The window's years, the actual (baseline) path and the deviation in each year.

    ``fit`` must carry coefficients for the constant, the capital-growth
    regressor (named as ``capital_growth`` is), and the first two lags of the
    dependent variable; previously simulated deviations feed those lags.
    ``actual`` needs every window year, ``capital_growth`` each from the first override.
    """
    _coeff(fit, "const")
    beta_k = _coeff(fit, capital_growth.name)
    ar1, ar2 = (_coeff(fit, f"{fit.dep_label}(-{lag})") for lag in (1, 2))
    scenario.check_window(window)
    years = range(window[0], window[1] + 1)
    dev: dict[int, float] = {}
    for y in years:
        rate = scenario.rate_for(y)
        if rate is None:
            dev[y] = 0.0
            continue
        g_scen = math.log1p(rate) if as_log_growth else rate
        g_act = capital_growth.value_in(y)
        dev[y] = beta_k * (g_scen - g_act) + ar1 * dev.get(y - 1, 0.0) + ar2 * dev.get(y - 2, 0.0)
    return years, tuple(actual.value_in(y) for y in years), [dev[y] for y in years]


def simulate_unemployment(
    fit: FitResult,
    scenario: CapitalScenario,
    window: tuple[int, int],
    eap: float,
    unemployment: AnnualSeries,
    capital_growth: AnnualSeries,
    as_log_growth: bool = True,
) -> ScenarioResult:
    """Counterfactual unemployment path under a capital-growth schedule.

    Jobs created = (terminal actual - terminal simulated)/100 x eap.
    """
    years, base, dev = _simulate(fit, scenario, window, unemployment, capital_growth, as_log_growth)
    cf = tuple(b + d for b, d in zip(base, dev))
    terminal = cf[-1] - base[-1]
    jobs = (base[-1] - cf[-1]) / 100.0 * eap
    return ScenarioResult(
        AnnualSeries("unemployment baseline", years[0], base, "percent"),
        AnnualSeries(f"unemployment: {scenario.name}", years[0], cf, "percent"),
        terminal,
        {"terminal_unemployment": cf[-1], "jobs_created": jobs},
    )


def simulate_exports(
    fit: FitResult,
    scenario: CapitalScenario,
    window: tuple[int, int],
    terminal_actual_usd: float,
    exports: AnnualSeries,
    capital_growth: AnnualSeries,
    as_log_growth: bool = True,
) -> ScenarioResult:
    """Counterfactual export path; the equation is dynamic in log exports.

    The deviation propagates in log space and is exponentiated for reporting;
    the terminal percentage delta converts to dollars against
    ``terminal_actual_usd``.
    """
    years, base, dev = _simulate(fit, scenario, window, exports, capital_growth, as_log_growth)
    cf = tuple(b * math.exp(d) for b, d in zip(base, dev))
    pct = cf[-1] / base[-1] - 1.0
    return ScenarioResult(
        AnnualSeries("exports baseline", years[0], base, exports.unit),
        AnnualSeries(f"exports: {scenario.name}", years[0], cf, exports.unit),
        cf[-1] - base[-1],
        {
            "terminal_pct_delta": 100.0 * pct,
            "usd_delta": pct * terminal_actual_usd,
        },
    )
