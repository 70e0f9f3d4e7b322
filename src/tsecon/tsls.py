"""Two-stage least squares with an explicit excluded-instrument list.

Stage one projects the endogenous regressors, all in one fit, on the
exogenous regressors plus the instruments; stage two runs OLS on the projected
design.  Standard errors combine the structural residuals (original
regressors) with the projected moment matrix, and coefficient p-values are
standard-normal, matching the conventions of the tool that produced the study
tables.
"""
from __future__ import annotations

import numpy as np

from ._record import record
from .dataset import Dataset, DatasetError, Term, apply_term
from .regress import (
    EstimationError, FitResult, ModelSpec, build_design, diagnostics, least_squares, ols_fit,
)

__all__ = ["TslsSpec", "tsls_fit"]


@record
class TslsSpec:
    """A regression model plus which regressors are instrumented and by what."""

    model: ModelSpec
    endogenous: tuple[str, ...]
    instruments: tuple[Term, ...]

    def __post_init__(self):
        if len(self.instruments) < len(self.endogenous):
            raise EstimationError(
                "order condition violated: need at least as many instruments "
                "as endogenous regressors"
            )


def tsls_fit(dataset: Dataset, spec: TslsSpec) -> FitResult:
    """Two-stage least squares over the model's realized sample."""
    if not spec.endogenous:
        return ols_fit(dataset, spec.model)
    y, X, labels, years = build_design(dataset, spec.model)
    unknown = set(spec.endogenous) - set(labels)
    if unknown:
        raise EstimationError(f"endogenous labels not in model: {sorted(unknown)}")
    endo_idx = [labels.index(lbl) for lbl in spec.endogenous]
    exo_idx = [j for j in range(X.shape[1]) if j not in endo_idx]

    inst_cols = []
    for t in spec.instruments:
        s = apply_term(dataset, t)
        try:
            inst_cols.append(np.array(s.slice(years[0], years[-1])))
        except DatasetError as exc:
            raise EstimationError(
                f"instrument {t.rendered_label()!r} does not cover the sample "
                f"{years[0]}-{years[-1]}"
            ) from exc
    Z = np.column_stack([X[:, exo_idx]] + inst_cols) if exo_idx else np.column_stack(inst_cols)
    # stage 1: fitted values of every endogenous column from one fit
    gamma, _, _ = least_squares(Z, X[:, endo_idx], "first-stage instrument matrix is rank deficient")
    X_hat = X.copy()
    X_hat[:, endo_idx] = Z @ gamma
    # stage 2: OLS on the projected design; residuals from the original design
    beta, _, R = least_squares(X_hat, y)
    return diagnostics(
        y,
        X,
        beta,
        R,
        labels,
        years,
        spec.model.dependent.rendered_label(),
        spec.model.include_constant,
        p_dist="normal",
        method="tsls",
    )
