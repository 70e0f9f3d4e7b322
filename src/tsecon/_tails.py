"""Standard-normal, Student-t and F tail probabilities from ``math`` alone.

Phi splits between ``erf`` and ``erfc`` as the Cephes ``ndtr`` does
(Abramowitz & Stegun, ch. 26).  The t and F tails are regularized incomplete
beta functions evaluated by Lentz's continued fraction (Press et al.,
*Numerical Recipes*, ``betai``/``betacf``).  The incomplete beta takes both
x and 1 - x, each computed directly from the statistic, so neither tail
loses digits to cancellation.  log B(a, b) uses Stirling's series when one
argument is large; when both are, so does the whole prefactor
x**a (1 - x)**b / B(a, b) (DiDonato & Morris 1992), which keeps the
incomplete beta within 1e-12 of ``scipy.special.betainc`` for shapes up to
1e6; beyond, the continued fraction's own rounding grows to about 6e-12 at
5e7.  Against ``scipy.stats`` the tails agree
to 1e-12 relative for up to 1000 degrees of freedom and to 1e-9 up to 1e6
(``tests/test_pvalues.py``).  Edge values follow scipy: NaN in, NaN out;
infinite statistics give 0; non-positive or NaN degrees of freedom give NaN.
So do infinite ones, which no estimator produces.
"""
from __future__ import annotations

import math

__all__ = ["f_sf", "norm_cdf", "t_two_sided"]

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = 1e-15  # relative change of the continued fraction at convergence
_TINY = 1e-300  # keeps Lentz's denominators away from zero
_MAX_TERMS = 10_000
# Stirling-series coefficients of lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def norm_cdf(x: float) -> float:
    """Phi(x), the standard-normal distribution function."""
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if not 0 < df < math.inf:
        return math.nan
    return _ratio_tail(0.5 * df, 0.5, df, t * t)


def f_sf(f: float, dfn: float, dfd: float) -> float:
    """P(F >= f) for F(dfn, dfd); NaN below the support (f < 0), as ``fdtrc``."""
    if not (0 < dfn < math.inf and 0 < dfd < math.inf and f >= 0):
        return math.nan
    return _ratio_tail(0.5 * dfd, 0.5 * dfn, dfd, dfn * f)


def _ratio_tail(a: float, b: float, d: float, s: float) -> float:
    """I_x(a, b) at x = d / (d + s): the upper tail of a ratio s / d >= 0."""
    if math.isnan(s):
        return math.nan
    if s == math.inf:  # also an overflowing t * t; scipy returns 0 there too
        return 0.0
    return _betai(a, b, d / (d + s), s / (d + s))


def _betai(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x."""
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    front = _front(a, b, x, y)
    # the fraction converges fast below the mean of Beta(a, b); above it use
    # the symmetry I_x(a, b) = 1 - I_y(b, a)
    if x * (a + b + 2.0) < a + 1.0:
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _front(a: float, b: float, x: float, y: float) -> float:
    """x**a * y**b / B(a, b), the factor in front of the continued fraction."""
    if min(a, b) < 20.0:
        log_x = math.log(x) if x < 0.5 else math.log1p(-y)
        log_y = math.log(y) if y < 0.5 else math.log1p(-x)
        return math.exp(a * log_x + b * log_y - _lbeta(a, b))
    # both large: a ln x, b ln y and ln B(a, b) are each huge and nearly
    # cancel.  Stirling's series for all three gammas leaves only the
    # deviation d = b x - a y = (a + b)(x - x0) of x from x0 = a / (a + b):
    # x**a y**b / B = sqrt(a b / (a + b) / 2 pi) (1 + d/a)**a (1 - d/b)**b
    # exp(corrections)  (DiDonato & Morris 1992, ACM TOMS 708, ``brcomp``)
    s = a + b
    d = b * x - a * y
    z = a * math.log1p(d / a) + b * math.log1p(-d / b) - _stirling(a) - _stirling(b) + _stirling(s)
    return math.sqrt(a * b / s) / _SQRT_2PI * math.exp(z)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def _lbeta(a: float, b: float) -> float:
    """ln B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b)."""
    lo, hi = min(a, b), max(a, b)
    if hi < 20.0:
        return math.lgamma(lo) + math.lgamma(hi) - math.lgamma(lo + hi)
    # lgamma(hi) - lgamma(hi + lo) from Stirling's series, which avoids
    # subtracting two large, rounded lgamma values
    return (math.lgamma(lo) + lo - (hi - 0.5) * math.log1p(lo / hi)
            - lo * math.log(hi + lo) + _stirling(hi) - _stirling(hi + lo))


def _stirling(x: float) -> float:
    r = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / x
