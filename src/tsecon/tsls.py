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
from .dataset import Dataset, Term
from .regress import (
    EstimationError, FitResult, ModelSpec, Solution, build_design, diagnostics, distinct_terms,
    least_squares, ols_fit,
)

__all__ = ["TslsSpec", "tsls_fit"]


@record
class TslsSpec:
    """A regression model plus which regressors are instrumented and by what.

    Each endogenous label names a regressor, once.  With endogenous regressors,
    ``stages`` is the one design both stages share: the model with the
    instruments appended, so they share its window, and no instrument repeats
    a label or a variable of the model.
    """

    model: ModelSpec
    endogenous: tuple[str, ...]
    instruments: tuple[Term, ...]

    def __post_init__(self):
        m = self.model
        terms = {t.rendered_label(): t for t in m.regressors}
        if not set(self.endogenous) <= set(terms):
            raise EstimationError(f"expected regressor labels, each one of {', '.join(terms)}",
                                  "endogenous")
        distinct_terms(tuple(terms[label] for label in self.endogenous), "endogenous")
        if len(self.instruments) < len(self.endogenous):
            raise EstimationError("order condition violated: need at least as many instruments "
                                  "as endogenous regressors", "instruments")
        if self.endogenous:
            distinct_terms((m.dependent, *m.regressors, *self.instruments), "instruments",
                           ("const",) if m.include_constant else ())
        object.__setattr__(self, "stages", ModelSpec(
            m.dependent, (*m.regressors, *self.instruments), m.include_constant, m.sample,
        ) if self.endogenous else None)


def tsls_fit(dataset: Dataset, spec: TslsSpec) -> FitResult:
    """Two-stage least squares over the realized sample of the model and its instruments."""
    m = spec.model
    if not spec.endogenous:
        return ols_fit(dataset, m)
    labels = m.labels
    endo_idx = [labels.index(lbl) for lbl in spec.endogenous]
    y, D, years = build_design(dataset, spec.stages)
    X, Z = D[:, : len(labels)], np.delete(D, endo_idx, axis=1)
    # stage 1: fitted values of every endogenous column from one fit
    X_hat = X.copy()
    X_hat[:, endo_idx] = Z @ least_squares(Z, X[:, endo_idx], "the 2SLS first stage").beta
    # stage 2: OLS on the projected design; residuals from the original design
    stage2 = least_squares(X_hat, y, "the 2SLS second stage")
    fit = Solution(stage2.beta, y - X @ stage2.beta, stage2.R)
    return diagnostics(m, y, fit, years, method="tsls")
