"""Ordinary least squares with the full diagnostic block, plus VIF screening.

Conventions follow the desktop econometrics tooling the study tables came
from: Gaussian concentrated log-likelihood, AIC = -2l + 2p, BIC = -2l + p ln n,
HQC = -2l + 2p ln ln n, Student-t coefficient p-values, uncentered R-squared
when the model has no constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .dataset import AnnualSeries, Dataset, Term, align

__all__ = [
    "Coefficient",
    "Dummy",
    "EstimationError",
    "FitResult",
    "ModelSpec",
    "build_design",
    "diagnostics",
    "f_pvalue",
    "ols_fit",
    "solve_ls",
    "vif",
]

RANK_RTOL = 1e-10  # relative tolerance on the R diagonal for rank decisions


class EstimationError(Exception):
    """Raised for rank deficiency, insufficient observations, or bad specs."""


@dataclass(frozen=True)
class Dummy:
    """An indicator regressor equal to 1 in the listed years."""

    name: str
    years: tuple[int, ...]


@dataclass(frozen=True)
class ModelSpec:
    """Declarative regression description evaluated against a dataset."""

    dependent: Term
    regressors: tuple[Term, ...]
    include_constant: bool = True
    sample: tuple[int, int] | None = None
    dummies: tuple[Dummy, ...] = ()


@dataclass(frozen=True)
class Coefficient:
    label: str
    estimate: float
    std_error: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class FitResult:
    """Estimates plus the printed diagnostic block of the study tables."""

    coefficients: tuple[Coefficient, ...]
    n_obs: int
    r_squared: float
    adj_r_squared: float
    f_stat: float
    f_p_value: float
    f_df: tuple[int, int]
    ssr: float
    resid_std_error: float
    dep_mean: float
    dep_std_error: float
    log_likelihood: float
    aic: float
    bic: float
    hqc: float
    durbin_watson: float
    rho1: float
    residuals: AnnualSeries
    sample: tuple[int, int]
    dep_label: str
    method: str = "ols"
    include_constant: bool = True

    def coefficient(self, label: str) -> Coefficient:
        for c in self.coefficients:
            if c.label == label:
                return c
        raise KeyError(f"no coefficient labelled {label!r}")

    @property
    def estimates(self) -> np.ndarray:
        return np.array([c.estimate for c in self.coefficients])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.coefficients)


def build_design(dataset: Dataset, spec: ModelSpec):
    """Evaluate the spec's terms into (y, X, labels, years).

    All terms are aligned on their common year window, clipped to the spec's
    sample; the constant column (when present) comes first.
    """
    _, window, columns = align(dataset, (spec.dependent, *spec.regressors), spec.sample)
    if not window:
        raise EstimationError("empty estimation sample after term alignment")
    years = np.arange(window.start, window.stop)
    y = np.array(columns[0])
    cols, labels = [], []
    if spec.include_constant:
        cols.append(np.ones(len(years)))
        labels.append("const")
    for col, t in zip(columns[1:], spec.regressors):
        cols.append(np.array(col))
        labels.append(t.rendered_label())
    for d in spec.dummies:
        cols.append(np.array([1.0 if ty in d.years else 0.0 for ty in window]))
        labels.append(d.name)
    if len(set(labels)) != len(labels):
        raise EstimationError("regressor labels must be unique")
    X = np.column_stack(cols)
    if len(y) <= X.shape[1]:
        raise EstimationError(
            f"observations ({len(y)}) must exceed parameters ({X.shape[1]})"
        )
    return y, X, labels, years


def solve_ls(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via QR; raises on rank deficiency."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_RTOL * max(diag.max(), 1e-300):
        raise EstimationError("design matrix is rank deficient")
    return np.linalg.solve(R, Q.T @ y)


def f_pvalue(f: float, dfn: float, dfd: float) -> float:
    """Upper-tail probability of an F(dfn, dfd) statistic.

    A negative F (rounding when the restricted and unrestricted fits agree)
    lies below the support and has p = 1; ``fdtrc`` alone would return NaN
    there.
    """
    return float(special.fdtrc(dfn, dfd, max(f, 0.0)))


def diagnostics(
    y: np.ndarray,
    X: np.ndarray,
    beta: np.ndarray,
    labels: list[str],
    years: np.ndarray,
    dep_label: str,
    include_constant: bool,
    *,
    se_from: np.ndarray | None = None,
    p_dist: str = "t",
    method: str = "ols",
) -> FitResult:
    """Assemble a FitResult from a solved regression.

    ``se_from`` overrides the moment matrix used for coefficient covariance
    (two-stage least squares passes the projected design); ``p_dist`` selects
    Student-t or standard-normal coefficient p-values.
    """
    n, p = X.shape
    e = y - X @ beta
    ssr = float(e @ e)
    df = n - p
    s2 = ssr / df
    M = X if se_from is None else se_from
    XtX_inv = np.linalg.inv(M.T @ M)
    se = np.sqrt(s2 * np.diag(XtX_inv))
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.inf * np.sign(beta))
    if p_dist == "t":
        pvals = 2.0 * special.stdtr(df, -np.abs(tvals))
    else:
        pvals = 2.0 * special.ndtr(-np.abs(tvals))
    coeffs = tuple(
        Coefficient(lbl, float(b), float(s), float(t), float(pv))
        for lbl, b, s, t, pv in zip(labels, beta, se, tvals, pvals)
    )
    tss = float(((y - y.mean()) ** 2).sum()) if include_constant else float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else float("nan")
    adj = 1.0 - (1.0 - r2) * (n - 1) / df
    q = p - 1 if include_constant else p
    if q > 0 and r2 < 1.0:
        f = (r2 / q) / ((1.0 - r2) / df)
        f_p = f_pvalue(f, q, df)
    else:
        f, f_p = float("nan"), float("nan")
    # a bitwise-perfect fit has unbounded concentrated likelihood
    loglik = (
        math.inf if ssr <= 0.0
        else -0.5 * n * (1.0 + math.log(2.0 * math.pi) + math.log(ssr / n))
    )
    dw = float(np.sum(np.diff(e) ** 2) / ssr) if ssr > 0 else float("nan")
    denom = float(np.sum(e[:-1] ** 2))
    rho1 = float(np.sum(e[1:] * e[:-1]) / denom) if denom > 0 else float("nan")
    return FitResult(
        coefficients=coeffs,
        n_obs=n,
        r_squared=r2,
        adj_r_squared=adj,
        f_stat=float(f),
        f_p_value=f_p,
        f_df=(q, df),
        ssr=ssr,
        resid_std_error=math.sqrt(s2),
        dep_mean=float(y.mean()),
        dep_std_error=float(y.std(ddof=1)),
        log_likelihood=loglik,
        aic=-2.0 * loglik + 2.0 * p,
        bic=-2.0 * loglik + p * math.log(n),
        hqc=-2.0 * loglik + 2.0 * p * math.log(math.log(n)),
        durbin_watson=dw,
        rho1=rho1,
        residuals=AnnualSeries("residuals", int(years[0]), tuple(e)),
        sample=(int(years[0]), int(years[-1])),
        dep_label=dep_label,
        method=method,
        include_constant=include_constant,
    )


def ols_fit(dataset: Dataset, spec: ModelSpec) -> FitResult:
    """Ordinary least squares over the spec's realized sample."""
    y, X, labels, years = build_design(dataset, spec)
    beta = solve_ls(X, y)
    return diagnostics(
        y, X, beta, labels, years, spec.dependent.rendered_label(), spec.include_constant
    )


def vif(dataset: Dataset, spec: ModelSpec) -> dict[str, float]:
    """Variance inflation factors, 1/(1-R2) of each auxiliary regression.

    Perfect collinearity is reported as ``inf`` rather than raised.
    """
    _, X, labels, _ = build_design(dataset, spec)
    has_const = spec.include_constant
    start = 1 if has_const else 0
    out: dict[str, float] = {}
    n = X.shape[0]
    for j in range(start, X.shape[1]):
        xj = X[:, j]
        others = np.delete(X, j, axis=1)
        if not has_const:
            others = np.column_stack([np.ones(n), others])
        beta, *_ = np.linalg.lstsq(others, xj, rcond=None)
        resid = xj - others @ beta
        tss = float(((xj - xj.mean()) ** 2).sum())
        if tss <= 0:
            out[labels[j]] = float("inf")
            continue
        r2 = 1.0 - float(resid @ resid) / tss
        out[labels[j]] = float("inf") if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out
