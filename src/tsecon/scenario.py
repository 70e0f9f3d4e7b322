"""Counterfactual capital-growth scenarios for unemployment and exports.

A scenario runs its fit's own equation forward in deviations from the actual
path: from the first override year on, dev_y = b_K gap_y + sum_k a_k dev_{y-k},
where gap_y is the scenario capital-growth rate less the actual one, b_K the
coefficient of the regressor labelled as the capital-growth series is named
(``d_Ln(K)`` in the bundled study) and a_k that of each regressor that is the
dependent k >= 1 years back under any label (none included), as ``equation``
reads them from the fit's model.  The constant and the other regressors drop
out.  The baseline is the actual path, so a scenario of the actual growth
rates reproduces it exactly, while an early shock moves every later year
through the lags.  An unemployment deviation adds to the level; an export
deviation is in logs.
"""
from __future__ import annotations

import math
from typing import Mapping

from ._record import record
from .dataset import AnnualSeries, Term
from .regress import EstimationError, FitResult, ModelSpec, year_window

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
        """Refuse a reversed ``(first, last)`` window or an override year outside it."""
        lo, hi = year_window(window, "window")
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


def equation(model: ModelSpec, capital: str, fit: str = "the fit") -> tuple[Term, dict[int, Term]]:
    """The capital regressor of ``model`` and its dependent's lags, {k: term} in lag order.

    A lag k >= 1 is a regressor that is the dependent's variable k years
    further back, whatever either's label.  ``capital`` must label one of the
    other regressors; otherwise ``EstimationError`` (key ``capital``) lists
    them, naming the fit as ``fit``.
    """
    dep = model.dependent
    lags = {t.lag - dep.lag: t for t in model.regressors
            if t.lag > dep.lag and t.variable == Term(dep.base, dep.transform, t.lag).variable}
    others = {t.rendered_label(): t for t in model.regressors if t not in lags.values()}
    if capital not in others:
        raise EstimationError(f"expected a regressor label of {fit}, one of "
                              + ", ".join(others), "capital")
    return others[capital], dict(sorted(lags.items()))


def _simulate(
    fit: FitResult,
    scenario: CapitalScenario,
    window: tuple[int, int],
    actual: AnnualSeries,
    capital_growth: AnnualSeries,
    as_log_growth: bool,
) -> tuple[range, tuple[float, ...], list[float]]:
    """The window's years, the actual (baseline) path and the deviation in each year.

    The capital-growth coefficient is labelled as ``capital_growth`` is named;
    previously simulated deviations feed the dependent lags that ``equation``
    finds.  ``actual`` needs every window year, ``capital_growth`` each from the
    first override.
    """
    _, lags = equation(fit.model, capital_growth.name)
    lags = [(k, fit.coefficient(term.rendered_label()).estimate) for k, term in lags.items()]
    beta_k = fit.coefficient(capital_growth.name).estimate
    scenario.check_window(window)
    years = range(window[0], window[1] + 1)
    dev: dict[int, float] = {}
    for y in years:
        rate = scenario.rate_for(y)
        if rate is not None:
            g_scen = math.log1p(rate) if as_log_growth else rate
            dev[y] = beta_k * (g_scen - capital_growth.value_in(y))
            for k, a in lags:  # left to right in lag order
                dev[y] += a * dev.get(y - k, 0.0)
    return years, tuple(actual.value_in(y) for y in years), [dev.get(y, 0.0) for y in years]


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
