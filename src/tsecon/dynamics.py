"""Serial-correlation and stability machinery: iterative AR estimation with an
arbitrary disturbance-lag list, nested model comparison, Granger causality,
and Chow structural-break tests."""
from __future__ import annotations

import numpy as np

from ._record import record
from .dataset import Dataset, Term, align
from .regress import (
    EstimationError,
    FitResult,
    ModelSpec,
    build_design,
    diagnostics,
    distinct_terms,
    f_pvalue,
    lagged,
    least_squares,
    year_window,
)

__all__ = [
    "ArFitResult",
    "ArSpec",
    "ChowResult",
    "GrangerEntry",
    "GrangerResult",
    "GrangerSpec",
    "ModelComparison",
    "chow_test",
    "cochrane_orcutt_fit",
    "compare_models",
    "granger_causality",
    "same_dependent",
]


@record
class ArSpec:
    """A regression plus the lag structure of its disturbance process.

    ``ar_lags`` lists one or more disturbance lags, e.g. ``(1, 3, 4)`` for
    u_t = p1 u_{t-1} + p3 u_{t-3} + p4 u_{t-4} + e_t.  Iterations stop when two
    successive residual sums of squares differ by no more than
    ``convergence_rel_tol`` (0.005 percent) or after ``max_iterations``.
    """

    model: ModelSpec
    ar_lags: tuple[int, ...]
    max_iterations: int = 20
    convergence_rel_tol: float = 5e-5

    def __post_init__(self):
        if not self.ar_lags:
            raise EstimationError("AR lag list must not be empty", "ar_lags")
        if any(k <= 0 for k in self.ar_lags):
            raise EstimationError("AR lags must be positive", "ar_lags")
        if any(b <= a for a, b in zip(self.ar_lags, self.ar_lags[1:])):
            raise EstimationError("AR lag list must be strictly increasing", "ar_lags")
        if self.max_iterations < 1:
            raise EstimationError("the iteration limit must be >= 1", "max_iterations")


@record
class ArFitResult:
    structural: FitResult
    rho: tuple[float, ...]
    ar_lags: tuple[int, ...]
    iterations_used: int
    converged: bool
    divergence_flag: bool


@record
class GrangerSpec:
    """Granger F tests between ``x`` and ``y`` at ``lags`` lags, within ``sample`` if given.

    ``x`` and ``y`` differ in label and in variable: their labels name the tests.
    """

    x: Term
    y: Term
    lags: int = 4
    sample: tuple[int, int] | None = None

    def __post_init__(self):
        if self.lags < 1:
            raise EstimationError("Granger lag order must be >= 1", "lags")
        distinct_terms((self.x, self.y), "y")
        year_window(self.sample, "sample")


@record
class GrangerEntry:
    cause: str
    effect: str
    lags: int
    n_obs: int
    f_stat: float
    p_value: float
    reject_5pct: bool


@record
class GrangerResult:
    pairs: tuple[GrangerEntry, ...]


@record
class ChowResult:
    break_year: int
    f_stat: float
    df: tuple[int, int]
    p_value: float
    reject_5pct: bool


def _ar_poly_stationary(rho: np.ndarray, lags: tuple[int, ...]) -> bool:
    """True when all roots of 1 - sum(rho_k z^k) lie outside the unit circle."""
    order = max(lags)
    coeffs = np.zeros(order + 1)
    coeffs[0] = 1.0
    for r, k in zip(rho, lags):
        coeffs[k] = -r
    roots = np.roots(coeffs[::-1])  # np.roots wants highest degree first
    if roots.size == 0:
        return True
    return bool(np.min(np.abs(roots)) > 1.0 + 1e-12)


def cochrane_orcutt_fit(dataset: Dataset, spec: ArSpec) -> ArFitResult:
    """Iterative generalized least squares for a lagged disturbance process.

    Each iteration quasi-differences the data with the current disturbance
    coefficients, re-estimates the regression, and re-fits the disturbance
    coefficients by OLS of the residuals on their listed lags, until the
    transformed-regression SSR converges.
    """
    y, X, years = build_design(dataset, spec.model)
    lags = spec.ar_lags
    m = max(lags)
    y0, *y_lags = lagged(y, (0, *lags), m)
    X0, *X_lags = lagged(X, (0, *lags), m)

    fit = least_squares(X, y, "the OLS regression")
    last_ssr = None
    converged = False
    for iterations in range(1, spec.max_iterations + 1):
        # re-estimate the disturbance coefficients from current residuals
        e0, *e_lags = lagged(y - X @ fit.beta, (0, *lags), m)
        rho = least_squares(np.column_stack(e_lags), e0, "the AR disturbance regression").beta
        # quasi-difference and re-estimate the regression
        y_star = y0 - sum(r * v for r, v in zip(rho, y_lags))
        X_star = X0 - sum(r * v for r, v in zip(rho, X_lags))
        fit = least_squares(X_star, y_star, "the quasi-differenced AR regression")
        if last_ssr is not None and abs(fit.ssr - last_ssr) <= spec.convergence_rel_tol * last_ssr:
            converged = True
            break
        last_ssr = fit.ssr
    final = diagnostics(spec.model, y_star, fit, years[m:], method="ar")
    diverged = not _ar_poly_stationary(rho, lags)
    return ArFitResult(final, tuple(float(r) for r in rho), lags, iterations, converged, diverged)


@record
class ModelComparison:
    """Side-by-side selection statistics for two fits of the same dependent."""

    ssr: tuple[float, float]
    resid_std_error: tuple[float, float]
    schwarz: tuple[float, float]
    improved: dict[str, bool]


def same_dependent(a: Term, b: Term) -> None:
    """Refuse to compare a fit of the dependent ``a`` with one of ``b``, another variable."""
    if a.variable != b.variable:
        raise EstimationError("model comparison requires the same dependent variable", "b")


def compare_models(a: ArFitResult, b: ArFitResult) -> ModelComparison:
    """Selection table between two AR fits; ``improved`` flags where b beats a."""
    fa, fb = a.structural, b.structural
    same_dependent(fa.model.dependent, fb.model.dependent)
    if fa.sample != fb.sample:
        raise EstimationError("model comparison requires identical samples")
    return ModelComparison(
        ssr=(fa.ssr, fb.ssr),
        resid_std_error=(fa.resid_std_error, fb.resid_std_error),
        schwarz=(fa.bic, fb.bic),
        improved={
            "ssr": fb.ssr < fa.ssr,
            "resid_std_error": fb.resid_std_error < fa.resid_std_error,
            "schwarz": fb.bic < fa.bic,
        },
    )


def _granger_one_direction(x: np.ndarray, y: np.ndarray, lags: int) -> tuple[float, float, int]:
    y0, *y_lags = lagged(y, range(lags + 1), lags)
    # x's lags go last: the restricted fit without them has an SSR larger by the squared
    # tail of Q'y = R beta, and passes the rank rule whenever this fit does
    X = np.column_stack([np.ones(len(y0)), *y_lags, *lagged(x, range(1, lags + 1), lags)])
    fit = least_squares(X, y0, "the Granger regression")
    tail = fit.R[lags + 1 :] @ fit.beta
    f = (float(tail @ tail) / lags) / fit.s2
    return float(f), f_pvalue(f, lags, fit.df), len(y0)


def granger_causality(dataset: Dataset, spec: GrangerSpec) -> GrangerResult:
    """F tests of Granger non-causality in both directions.

    Stationarity of the two series is the caller's responsibility (the
    pipeline feeds first differences of I(1) variables).
    """
    _, columns = align(dataset, (spec.x, spec.y), spec.sample)
    ax, ay = map(np.array, columns)
    x, y = spec.x.rendered_label(), spec.y.rendered_label()
    entries = []
    for cause, effect, cs, es in ((x, y, ax, ay), (y, x, ay, ax)):
        f, p, rows = _granger_one_direction(cs, es, spec.lags)
        entries.append(GrangerEntry(cause, effect, spec.lags, rows, f, p, p < 0.05))
    return GrangerResult(tuple(entries))


def chow_test(dataset: Dataset, spec: ModelSpec, break_year: int) -> ChowResult:
    """Structural-break F test at a candidate year.

    The sample splits into years before ``break_year`` and years from it on;
    F = [(SSR_pooled - SSR1 - SSR2)/p] / [(SSR1 + SSR2)/(n - 2p)].
    """
    y, X, years = build_design(dataset, spec)
    n, p = X.shape
    mask = years < break_year
    ssr_p = least_squares(X, y, "the Chow pooled regression").ssr
    ssr_1 = least_squares(X[mask], y[mask], f"the Chow sub-sample before {break_year}").ssr
    ssr_2 = least_squares(X[~mask], y[~mask], f"the Chow sub-sample from {break_year}").ssr
    f = ((ssr_p - ssr_1 - ssr_2) / p) / ((ssr_1 + ssr_2) / (n - 2 * p))
    pval = f_pvalue(f, p, n - 2 * p)
    return ChowResult(break_year, float(f), (p, n - 2 * p), pval, pval < 0.05)
