"""Engle-Granger two-step cointegration.

Step one estimates the static long-run regression by OLS; step two tests its
residuals for a unit root with a no-constant, no-trend Dickey-Fuller
regression.  Integration orders of the inputs are asserted by the caller (the
pipeline runs the unit-root battery first) and are never re-tested silently.
"""
from __future__ import annotations

from typing import Mapping

from ._record import record
from .dataset import Dataset
from .regress import EstimationError, FitResult, ModelSpec, ols_fit
from .unitroot import MACKINNON_MAX_VARS, AdfResult, df_residual_test

__all__ = ["CointegrationResult", "engle_granger"]


@record
class CointegrationResult:
    long_run: FitResult
    residual_test: AdfResult
    cointegrated: bool


def engle_granger(
    dataset: Dataset,
    spec: ModelSpec,
    residual_lag: int,
    integration_orders: Mapping[str, int] | None = None,
) -> CointegrationResult:
    """Static long-run OLS plus a Dickey-Fuller test on its residuals.

    ``integration_orders`` maps each term label (dependent and regressors) to
    its established order of integration; any order other than 1 is an error.
    Passing ``None`` skips the upstream check (the cointegrated flag then
    reflects the residual test alone).
    """
    n_vars = 1 + len(spec.regressors)
    if n_vars > MACKINNON_MAX_VARS:
        raise EstimationError(
            f"the MacKinnon response surfaces cover at most {MACKINNON_MAX_VARS} variables; "
            f"the long-run relation has {n_vars}"
        )
    if integration_orders is not None:
        labels = [spec.dependent.rendered_label()] + [
            t.rendered_label() for t in spec.regressors
        ]
        for lbl in labels:
            if lbl not in integration_orders:
                raise EstimationError(f"no integration order supplied for {lbl!r}")
            if integration_orders[lbl] != 1:
                raise EstimationError(
                    f"{lbl!r} is I({integration_orders[lbl]}); the long-run "
                    "regression requires I(1) inputs"
                )
    long_run = ols_fit(dataset, spec)
    surface = "constant" if spec.include_constant else "none"
    residual_test = df_residual_test(
        long_run.residuals, residual_lag, n_vars=n_vars, surface=surface
    )
    return CointegrationResult(long_run, residual_test, residual_test.reject_5pct)
