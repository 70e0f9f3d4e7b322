"""Engle-Granger two-step cointegration.

Step one estimates the static long-run regression by OLS; step two tests its
residuals for a unit root with a no-constant, no-trend Dickey-Fuller
regression.  Integration orders of the inputs are asserted by the caller (the
pipeline runs the unit-root battery first) and are never re-tested silently.
"""
from __future__ import annotations

from ._record import record
from .dataset import Dataset
from .regress import FitResult, ModelSpec, ols_fit
from .unitroot import AdfResult, df_residual_test, surface_row

__all__ = ["CointegrationResult", "engle_granger", "relation_size"]


@record
class CointegrationResult:
    long_run: FitResult
    residual_test: AdfResult
    cointegrated: bool


def relation_size(spec: ModelSpec) -> int:
    """The number of series in the long-run relation, which the response surfaces must cover."""
    n_vars = 1 + len(spec.regressors)
    surface_row("none", n_vars)
    return n_vars


def engle_granger(dataset: Dataset, spec: ModelSpec, residual_lag: int) -> CointegrationResult:
    """Static long-run OLS plus a Dickey-Fuller test on its residuals."""
    n_vars = relation_size(spec)
    long_run = ols_fit(dataset, spec)
    surface = "constant" if spec.include_constant else "none"
    residual_test = df_residual_test(long_run.residuals, residual_lag, n_vars, surface)
    return CointegrationResult(long_run, residual_test, residual_test.reject_5pct)
