"""Dickey-Fuller and augmented Dickey-Fuller unit-root tests.

The test regresses the first difference on deterministic terms, the lagged
level, and ``lag_order`` lagged differences; the statistic is the t-ratio on
the lagged level.  Approximate asymptotic p-values come from the MacKinnon
response-surface polynomials, indexed by the deterministic case and by the
number of variables in a cointegrating relation for residual-based tests.
"""
from __future__ import annotations

import math

import numpy as np

from ._record import record
from ._tails import norm_cdf
from .dataset import AnnualSeries
from .regress import EstimationError, lagged, least_squares

__all__ = ["AdfBattery", "AdfResult", "AdfSpec", "adf_test", "df_residual_test", "mackinnon_pvalue"]

DETERMINISTICS = ("none", "constant", "constant_and_trend")
MACKINNON_MAX_VARS = 6  # the response surfaces below cover 1..6 series

# MacKinnon (1994, 2010 update) response-surface coefficients for the
# asymptotic distribution of the tau statistic.  Rows are N = 1..6 series in
# the (cointegrating) relation; N=1 is the plain unit-root test.  p-values are
# Phi(polynomial(tau)); the small-p polynomial applies below tau_star.
_SMALLP = {
    "none": [
        (0.6344, 1.2378, 0.032496), (1.9129, 1.3857, 0.035322),
        (2.7648, 1.4502, 0.034186), (3.4336, 1.4835, 0.0319),
        (4.0999, 1.5533, 0.0359), (4.5388, 1.5344, 0.029807),
    ],
    "constant": [
        (2.1659, 1.4412, 0.038269), (2.92, 1.5012, 0.039796),
        (3.4699, 1.4856, 0.03164), (3.9673, 1.4777, 0.026315),
        (4.5509, 1.5338, 0.029545), (5.1399, 1.6036, 0.034445),
    ],
    "constant_and_trend": [
        (3.2512, 1.6047, 0.049588), (3.6646, 1.5419, 0.036448),
        (4.0983, 1.5173, 0.029898), (4.5844, 1.5338, 0.028796),
        (5.0722, 1.5634, 0.029472), (5.53, 1.5914, 0.030392),
    ],
}
_LARGEP = {
    "none": [
        (0.4797, 0.93557, -0.06999, 0.033066), (1.5578, 0.8558, -0.2083, -0.033549),
        (2.2268, 0.68093, -0.32362, -0.054448), (2.7654, 0.64502, -0.30811, -0.044946),
        (3.2684, 0.68051, -0.26778, -0.034972), (3.7268, 0.7167, -0.23648, -0.028288),
    ],
    "constant": [
        (1.7339, 0.93202, -0.12745, -0.010368), (2.1945, 0.64695, -0.29198, -0.042377),
        (2.5893, 0.45168, -0.36529, -0.050074), (3.0387, 0.45452, -0.33666, -0.041921),
        (3.5049, 0.52098, -0.29158, -0.033468), (3.9489, 0.58933, -0.25359, -0.02721),
    ],
    "constant_and_trend": [
        (2.5261, 0.61654, -0.37956, -0.060285), (2.85, 0.5272, -0.36622, -0.051695),
        (3.221, 0.5255, -0.32685, -0.041501), (3.652, 0.59758, -0.27483, -0.032081),
        (4.0712, 0.66428, -0.23464, -0.02546), (4.4735, 0.71757, -0.20681, -0.021196),
    ],
}
_TAU_STAR = {
    "none": [-1.04, -1.53, -2.68, -3.09, -3.07, -3.77],
    "constant": [-1.61, -2.62, -3.13, -3.47, -3.78, -3.93],
    "constant_and_trend": [-2.89, -3.19, -3.5, -3.65, -3.8, -4.36],
}
_TAU_MIN = {
    "none": [-19.04, -19.62, -21.21, -23.25, -21.63, -25.74],
    "constant": [-18.83, -18.86, -23.48, -28.07, -25.96, -23.27],
    "constant_and_trend": [-16.18, -21.15, -25.37, -26.63, -26.53, -26.18],
}
_TAU_MAX = {
    "none": [math.inf, 1.51, 0.86, 0.88, 1.05, 1.24],
    "constant": [2.74, 0.92, 0.55, 0.61, 0.79, 1.0],
    "constant_and_trend": [0.7, 0.63, 0.71, 0.93, 1.19, 1.42],
}


def surface_row(deterministic: str, n_vars: int = 1) -> int:
    """The row of ``deterministic``'s response surfaces for ``n_vars`` series, which they cover."""
    if deterministic not in DETERMINISTICS:
        raise EstimationError(f"expected one of {', '.join(DETERMINISTICS)}", "deterministic")
    if not 1 <= n_vars <= MACKINNON_MAX_VARS:
        raise EstimationError(f"the MacKinnon response surfaces cover at most {MACKINNON_MAX_VARS} "
                              f"variables; the long-run relation has {n_vars}", "regressors")
    return n_vars - 1


def mackinnon_pvalue(tau: float, deterministic: str, n_vars: int = 1) -> float:
    """Asymptotic p-value for a (residual) Dickey-Fuller tau statistic."""
    i = surface_row(deterministic, n_vars)
    if tau <= _TAU_MIN[deterministic][i]:
        return 0.0
    if tau >= _TAU_MAX[deterministic][i]:
        return 1.0
    table = _SMALLP if tau <= _TAU_STAR[deterministic][i] else _LARGEP
    poly = sum(c * tau**k for k, c in enumerate(table[deterministic][i]))
    return norm_cdf(float(poly))


@record
class AdfSpec:
    deterministic: str = "constant"
    lag_order: int = 1

    def __post_init__(self):
        surface_row(self.deterministic)
        if self.lag_order < 0:
            raise EstimationError("the lag order must be >= 0", "lag_order")


@record
class AdfResult:
    t_stat: float
    alpha_minus_one: float
    p_value: float
    spec: AdfSpec
    n_used: int
    reject_5pct: bool
    series_name: str = ""
    n_vars: int = 1

    @property
    def conclusion(self) -> str:
        return "reject unit root at 5%" if self.reject_5pct else "fail to reject unit root at 5%"


@record
class AdfBattery:
    """ADF tests of several terms on one window.

    Each row is ``(label, deterministic, lag_order, result)``; the result is
    ``None`` when the term's series is absent from the dataset.
    """

    window: tuple[int, int] | None
    rows: tuple[tuple[str, str, int, AdfResult | None], ...]


def _adf_regression(values: np.ndarray, spec: AdfSpec) -> tuple[float, float, int]:
    k = spec.lag_order
    if np.ptp(values) == 0.0:
        raise EstimationError("cannot run a unit-root test on a constant series")
    Y, *dy_lags = lagged(np.diff(values), range(k + 1), k)
    rows = len(Y)
    # the lagged level goes last: its entry of (X'X)^-1 = R^-1 R^-T is then
    # 1 / R[-1, -1]^2, and no other entry of the covariance is needed
    cols = []
    if spec.deterministic != "none":
        cols.append(np.ones(rows))
    if spec.deterministic == "constant_and_trend":
        cols.append(np.arange(1.0, rows + 1.0))
    X = np.column_stack(cols + dy_lags + lagged(values, (1,), k + 1))
    beta, e, R = least_squares(X, Y, f"the ADF design ({spec.deterministic}, {k} lags)")
    s2 = float(e @ e) / (rows - X.shape[1])
    se = math.sqrt(s2) / abs(float(R[-1, -1]))
    return float(beta[-1] / se), float(beta[-1]), rows


def adf_test(series: AnnualSeries, spec: AdfSpec) -> AdfResult:
    """Augmented Dickey-Fuller test; the null is a unit root."""
    tau, coef, rows = _adf_regression(np.asarray(series.values), spec)
    p = mackinnon_pvalue(tau, spec.deterministic)
    return AdfResult(tau, coef, p, spec, rows, p < 0.05, series.name)


def df_residual_test(
    residuals: AnnualSeries,
    lag_order: int,
    n_vars: int = 1,
    surface: str = "none",
) -> AdfResult:
    """Dickey-Fuller test on cointegrating-regression residuals.

    The regression runs without constant and without trend.  The p-value uses
    the response surface for ``n_vars`` series in the long-run relation;
    ``surface`` names the deterministic case of that static regression (the
    default ``none`` matches a no-constant long-run fit).
    """
    spec = AdfSpec("none", lag_order)
    tau, coef, rows = _adf_regression(np.asarray(residuals.values), spec)
    p = mackinnon_pvalue(tau, surface, n_vars)
    return AdfResult(tau, coef, p, spec, rows, p < 0.05, residuals.name, n_vars)
