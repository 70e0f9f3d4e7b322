"""Ordinary least squares with the full diagnostic block, and the least-squares
kernel that every estimator in the package solves through.

Conventions follow the desktop econometrics tooling the study tables came
from: Gaussian concentrated log-likelihood, AIC = -2l + 2p, BIC = -2l + p ln n,
HQC = -2l + 2p ln ln n, Student-t coefficient p-values, uncentered R-squared
when the model has no constant.
"""
from __future__ import annotations

import math

import numpy as np

from ._record import record
from ._tails import f_sf, norm_cdf, t_two_sided
from .dataset import AnnualSeries, Dataset, Term, align

__all__ = [
    "Coefficient",
    "EstimationError",
    "FitResult",
    "ModelSpec",
    "build_design",
    "diagnostics",
    "f_pvalue",
    "ols_fit",
]

# a design whose unit-norm columns have sigma_min <= RANK_RTOL * sigma_max is rank deficient
RANK_RTOL = 1e-10


class EstimationError(Exception):
    """Raised for rank deficiency, too few observations or a bad spec value, whose key it names."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def distinct_terms(terms: tuple[Term, ...], key: str, taken: tuple[str, ...] = ()) -> None:
    """Refuse a term whose label is in ``taken`` or an earlier term's, then one whose variable
    an earlier term is, whatever its label: ``EstimationError`` names it, and ``key``."""
    labels, variables = set(taken), {}
    for term in terms:
        label = term.rendered_label()
        if label in labels:
            raise EstimationError(f"the label {label!r} is repeated", key)
        if term.variable in variables:
            raise EstimationError(f"the term {label!r} repeats {variables[term.variable]!r}",
                                  key)
        labels.add(label)
        variables[term.variable] = label


def year_window(window: tuple[int, int] | None, key: str) -> tuple[int, int] | None:
    """``window`` (a ``(first, last)`` year pair, or ``None``) unless its first year is after its last."""
    if window is not None and window[0] > window[1]:
        raise EstimationError("expected the first year <= the last", key)
    return window


@record
class ModelSpec:
    """Declarative regression description evaluated against a dataset.

    A model has at least one column, no two of its terms (its dependent's too)
    share a label or a variable, none is labelled ``const`` when it has a
    constant, and a ``sample`` year pair runs forward.
    """

    dependent: Term
    regressors: tuple[Term, ...]
    include_constant: bool = True
    sample: tuple[int, int] | None = None

    def __post_init__(self):
        taken = ("const",) if self.include_constant else ()
        distinct_terms((self.dependent,), "dependent", taken)
        distinct_terms((self.dependent, *self.regressors), "regressors", taken)
        if not self.regressors and not self.include_constant:
            raise EstimationError("empty model: no regressor and no constant", "regressors")
        year_window(self.sample, "sample")

    @property
    def labels(self) -> tuple[str, ...]:
        """One label per design column: ``const`` first when the model has a constant."""
        const = ("const",) if self.include_constant else ()
        return const + tuple(t.rendered_label() for t in self.regressors)


@record
class Coefficient:
    label: str
    estimate: float
    std_error: float
    t_stat: float
    p_value: float


@record
class FitResult:
    """Estimates of ``model`` plus the printed diagnostic block of the study tables."""

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
    model: ModelSpec
    method: str = "ols"

    def coefficient(self, label: str) -> Coefficient:
        for c in self.coefficients:
            if c.label == label:
                return c
        raise KeyError(f"no coefficient labelled {label!r}")

    @property
    def estimates(self) -> np.ndarray:
        return np.array([c.estimate for c in self.coefficients])


def build_design(dataset: Dataset, spec: ModelSpec):
    """Evaluate the spec's terms into (y, X, years), X's columns in ``spec.labels`` order.

    All terms are aligned on their common year window, clipped to the spec's
    sample; an empty window gives zero rows, which the kernel refuses.
    """
    window, columns = align(dataset, (spec.dependent, *spec.regressors), spec.sample)
    years = np.arange(window.start, window.stop)
    const = [np.ones(len(years))] if spec.include_constant else []
    return np.array(columns[0]), np.column_stack(const + columns[1:]), years


def lagged(x: np.ndarray, lags, first: int) -> list[np.ndarray]:
    """``x[first - k : n - k]`` for each ``k`` in ``lags``: the rows from ``first`` on, lagged.

    ``x`` is one series (1-D) or several (2-D, one per column).  A sample of no
    more than ``first`` rows gives every lag zero rows, so a design built from
    the slices meets the sample rule of ``least_squares``.
    """
    n = max(len(x), first)
    return [x[first - k : n - k] for k in lags]


@record
class Solution:
    """One least-squares fit: ``beta``, the residuals E and the design's R factor.

    ``ssr`` is E'E, a float for one right-hand side and the cross-product
    matrix for several; ``df`` is n - p and ``s2`` the residual variance
    ``ssr / df``.
    """

    beta: np.ndarray
    residuals: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        E = self.residuals
        object.__setattr__(self, "ssr", E.T @ E if E.ndim > 1 else float(E @ E))
        object.__setattr__(self, "df", len(E) - len(self.beta))

    @property
    def s2(self):
        return self.ssr / self.df


def least_squares(X: np.ndarray, Y: np.ndarray, what: str = "the regression") -> Solution:
    """The least-squares fit of ``Y`` on ``X``: its coefficients, residuals and R factor.

    ``Y`` is one right-hand side (1-D) or several (2-D, one per column).  A
    design with no more rows than columns is refused with ``EstimationError``
    "{what} has n observations for p parameters".  One Householder QR of the
    unit-norm design with ``Y`` appended gives R and Q'Y; ``lstsq`` on their
    p x p block gives the unit-norm coefficients and singular values.  When the
    smallest is at most ``RANK_RTOL`` times the largest (an all-zero column
    included), "{what} is rank deficient" is raised.  ``what`` names the fit.
    The R returned is ``X``'s own: R'R = X'X, R @ beta = Q'Y, and
    (X'X)^-1 = R^-1 R^-T comes without forming X'X, whose condition number is
    the design's squared (Golub & Van Loan, *Matrix Computations*, section 5.3).
    """
    X = np.ascontiguousarray(X)  # the column norms round by memory layout
    n, p = X.shape
    if n <= p:
        raise EstimationError(f"{what} has {n} observations for {p} parameters")
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    if not 0.0 < norms.min() <= norms.max() < math.inf:
        raise EstimationError(f"{what} is rank deficient")
    F = np.linalg.qr(np.column_stack([X / norms, Y]), mode="r")
    B, _, _, sv = np.linalg.lstsq(F[:p, :p], F[:p, p:] if Y.ndim > 1 else F[:p, p], rcond=None)
    if len(sv) < p or not sv[-1] > RANK_RTOL * sv[0]:
        raise EstimationError(f"{what} is rank deficient")
    beta = B / (norms if B.ndim == 1 else norms[:, None])
    return Solution(beta, Y - X @ beta, F[:p, :p] * norms)


def f_pvalue(f: float, dfn: float, dfd: float) -> float:
    """Upper-tail probability of an F(dfn, dfd) statistic.

    A negative F (rounding when the restricted and unrestricted fits agree)
    lies below the support and has p = 1; ``f_sf`` alone would return NaN
    there.
    """
    return f_sf(max(float(f), 0.0), dfn, dfd)


def diagnostics(
    spec: ModelSpec, y: np.ndarray, fit: Solution, years: np.ndarray, *, method: str = "ols"
) -> FitResult:
    """Assemble a FitResult of ``spec`` from ``fit``, the solved regression of ``y``.

    Two-stage least squares passes the projected design's R with the residuals
    of the original one.  Coefficient p-values are standard-normal for
    ``method == "tsls"`` and Student-t otherwise.
    """
    beta, e, ssr, df = fit.beta, fit.residuals, fit.ssr, fit.df
    n, p = len(e), len(beta)
    se = np.sqrt(fit.s2 * np.square(np.linalg.inv(fit.R)).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        tvals = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.inf * np.sign(beta))
    if method == "tsls":
        pvals = [2.0 * norm_cdf(-abs(t)) for t in tvals.tolist()]
    else:
        pvals = [t_two_sided(t, df) for t in tvals.tolist()]
    coeffs = tuple(
        Coefficient(lbl, float(b), float(s), float(t), float(pv))
        for lbl, b, s, t, pv in zip(spec.labels, beta, se, tvals, pvals)
    )
    tss = float(((y - y.mean()) ** 2).sum()) if spec.include_constant else float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else float("nan")
    adj = 1.0 - (1.0 - r2) * (n - 1) / df
    q = p - 1 if spec.include_constant else p
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
    e0, e1 = lagged(e, (0, 1), 1)
    denom = float(np.sum(e1**2))
    rho1 = float(np.sum(e0 * e1) / denom) if denom > 0 else float("nan")
    return FitResult(
        coefficients=coeffs,
        n_obs=n,
        r_squared=r2,
        adj_r_squared=adj,
        f_stat=float(f),
        f_p_value=f_p,
        f_df=(q, df),
        ssr=ssr,
        resid_std_error=math.sqrt(fit.s2),
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
        model=spec,
        method=method,
    )


def ols_fit(dataset: Dataset, spec: ModelSpec) -> FitResult:
    """Ordinary least squares over the spec's realized sample."""
    y, X, years = build_design(dataset, spec)
    return diagnostics(spec, y, least_squares(X, y, "the OLS regression"), years)

