"""VAR(p) estimation with orthogonalized impulse responses and forecast-error
variance decomposition.

Estimation is equation-by-equation OLS on a shared lag design.  Impulse
responses use the moving-average recursion Psi_0 = I,
Psi_h = sum_i A_i Psi_{h-i}, orthogonalized by the lower Cholesky factor of
the residual covariance; the variable ordering is the Cholesky ordering.
"""
from __future__ import annotations

import warnings

import numpy as np

from ._record import record
from .dataset import Dataset, Term, align
from .regress import EstimationError, lagged, least_squares, unique_labels

__all__ = ["FevdResult", "IrfResult", "VarModel", "VarSpec", "impulse_response", "response_horizon",
           "var_fit", "variance_decomposition"]


@record
class VarModel:
    labels: tuple[str, ...]
    p: int
    intercepts: np.ndarray
    coefficient_matrices: tuple[np.ndarray, ...]
    residual_cov: np.ndarray
    sample: tuple[int, int]
    n_effective: int

    @property
    def k(self) -> int:
        return len(self.labels)


@record
class IrfResult:
    """Orthogonalized responses to one-standard-deviation shocks.

    ``responses[shock, respond, step]``; step 0 is the impact period, so the
    step-0 matrix (transposed back) is the Cholesky factor itself.
    """

    horizon: int
    responses: np.ndarray
    ordering: tuple[str, ...]
    cholesky_failed: bool = False

    def response(self, shock: str, respond: str) -> np.ndarray:
        i = self.ordering.index(shock)
        j = self.ordering.index(respond)
        return self.responses[i, j, :]


@record
class FevdResult:
    """``shares[respond, step, shock]``, summing to one over shocks."""

    horizon: int
    shares: np.ndarray
    ordering: tuple[str, ...]


@record
class VarSpec:
    """A VAR(``lags``) of one or more ``variables``, whose ``labels`` (each once) name responses."""

    variables: tuple[Term, ...]
    lags: int = 4
    sample: tuple[int, int] | None = None

    def __post_init__(self):
        labels = unique_labels(tuple(t.rendered_label() for t in self.variables), "variables")
        if not labels:
            raise EstimationError("a VAR needs at least one variable", "variables")
        if self.lags < 1:
            raise EstimationError("VAR lag order must be >= 1", "lags")
        object.__setattr__(self, "labels", labels)


def response_horizon(horizon: int) -> int:
    """``horizon``, the steps after impact that responses cover, unless it is negative."""
    if horizon < 0:
        raise EstimationError("expected 0 or more steps after impact", "horizon")
    return horizon


def var_fit(dataset: Dataset, spec: VarSpec) -> VarModel:
    """Fit a VAR(p) by per-equation OLS over the common sample."""
    p = spec.lags
    _, window, columns = align(dataset, spec.variables, spec.sample)
    Y0, *Y_lags = lagged(np.column_stack(columns), range(p + 1), p)
    rows, k = Y0.shape
    X = np.column_stack([np.ones(rows), *Y_lags])
    B, E, _ = least_squares(X, Y0, f"the VAR({p}) design")
    sigma = E.T @ E / (rows - X.shape[1])
    A = tuple(B[1 + i * k : 1 + (i + 1) * k].T for i in range(p))
    return VarModel(
        labels=spec.labels,
        p=p,
        intercepts=B[0].copy(),
        coefficient_matrices=A,
        residual_cov=(sigma + sigma.T) / 2.0,
        sample=(window[0], window[-1]),
        n_effective=rows,
    )


def _ma_matrices(model: VarModel, horizon: int) -> np.ndarray:
    """``psi[h]`` for h = 0..horizon: Psi_0 = I, Psi_h = A_1 Psi_{h-1} + ... + A_m Psi_{h-m}."""
    A = np.array(model.coefficient_matrices)
    psi = np.empty((horizon + 1, model.k, model.k))
    psi[0] = np.eye(model.k)
    for h in range(1, horizon + 1):
        m = min(h, model.p)
        psi[h] = (A[:m] @ psi[h - m : h][::-1]).sum(axis=0)
    return psi


def _factor(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        # semidefinite fallback: eigenvalue clipping keeps the factor usable
        warnings.warn("residual covariance not positive definite; using clipped factorization")
        w, V = np.linalg.eigh(cov)
        w = np.clip(w, 0.0, None)
        L = V @ np.diag(np.sqrt(w))
        return L, True


def impulse_response(model: VarModel, horizon: int) -> IrfResult:
    """Orthogonalized impulse responses out to ``horizon`` steps."""
    response_horizon(horizon)
    P, failed = _factor(model.residual_cov)
    with np.errstate(over="ignore", invalid="ignore"):
        # psi @ P is [step, respond, shock]
        responses = (_ma_matrices(model, horizon) @ P).transpose(2, 1, 0)
    if not np.isfinite(responses).all():
        raise EstimationError(f"impulse responses are not finite within {horizon} steps")
    return IrfResult(horizon, responses, model.labels, failed)


def variance_decomposition(model: VarModel, horizon: int) -> FevdResult:
    """Share of each variable's forecast-error variance due to each shock."""
    irf = impulse_response(model, horizon)
    # cumulative squared responses over steps 0..h, [shock, respond, step]
    with np.errstate(over="ignore"):
        cum = np.cumsum(irf.responses**2, axis=2)
        total = cum.sum(axis=0)
    if not np.isfinite(total).all():
        raise EstimationError(f"forecast-error variances are not finite within {horizon} steps")
    if not (total > 0.0).all():
        raise EstimationError("degenerate model: zero forecast-error variance")
    return FevdResult(horizon, (cum / total).transpose(1, 2, 0), model.labels)
