"""P-value tails against the scipy.stats oracle.

The engine computes its tails with ``math`` alone (``tsecon._tails``: Phi
from ``erf``/``erfc``, the t and F tails from a continued-fraction incomplete
beta), so it imports no scipy.  Its p-values must match ``scipy.stats`` to
|got - want| <= 1e-12 |want| + 1e-300 for up to 1000 degrees of freedom, and
to 1e-9 relative up to 1e6, where x = df / (df + t^2) near the mean of the
beta distribution can no longer be held to more digits in a float.  The edges
stay exact: infinite t (zero standard error) or F, NaN, non-positive degrees
of freedom and a negative F.  ``TestTails`` also pins that ``scipy.special``
and ``scipy.stats`` agree bit for bit, which keeps the oracle honest.
"""
import math

import numpy as np
import pytest
from scipy import special, stats

import tsecon.unitroot as unitroot
from tsecon._tails import _betai, f_sf, norm_cdf, t_two_sided
from tsecon.dataset import parse_term
from tsecon.dynamics import GrangerSpec, chow_test, granger_causality
from tsecon.regress import ModelSpec, f_pvalue, ols_fit
from tsecon.tsls import TslsSpec, tsls_fit
from tsecon.unitroot import DETERMINISTICS, AdfSpec, adf_test, mackinnon_pvalue

EDGES = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1e-300, 1e300, -1e-15]
DFS = [-3, -1, 0, 1, 2, 3, 5, 10, 36, 100, 1e6]
DFNS = [-1, 0, 1, 2, 4, 7]
DFDS = [-2, 0, 1, 3, 30]


def grid(n=2000, seed=20231011):
    rng = np.random.default_rng(seed)
    return np.concatenate([EDGES, 5.0 * rng.standard_normal(n // 2), rng.standard_cauchy(n // 2)])


def bits(x):
    """Float64 bytes with every NaN made the same NaN."""
    a = np.asarray(x, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def assert_close(got, want, rtol=1e-12):
    """NaN exactly where the oracle has NaN, elsewhere within rtol (+1e-300)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all(), np.flatnonzero(np.isnan(got) != nan)
    err = np.abs(got[~nan] - want[~nan])
    bound = rtol * np.abs(want[~nan]) + 1e-300
    assert (err <= bound).all(), (got[~nan][err > bound], want[~nan][err > bound])


class TestTails:
    @pytest.mark.parametrize("df", DFS)
    def test_t_two_sided(self, df):
        a = np.abs(grid())
        assert bits(special.stdtr(df, -a)) == bits(stats.t.sf(a, df))

    def test_normal_two_sided(self):
        a = np.abs(grid())
        assert bits(special.ndtr(-a)) == bits(stats.norm.sf(a))

    def test_normal_cdf(self):
        x = grid()
        assert bits(special.ndtr(x)) == bits(stats.norm.cdf(x))

    @pytest.mark.parametrize("dfn", DFNS)
    @pytest.mark.parametrize("dfd", DFDS)
    def test_f_upper_tail(self, dfn, dfd):
        fs = grid(400)
        got = [f_pvalue(f, dfn, dfd) for f in fs.tolist()]
        assert_close(got, stats.f.sf(fs, dfn, dfd))

    @pytest.mark.parametrize("f", [-1e-15, -0.0, -3.0, -np.inf])
    def test_negative_f_has_p_one(self, f):
        # equal restricted and unrestricted SSR can round to a negative F
        assert f_pvalue(f, 4, 27) == 1.0 == stats.f.sf(f, 4, 27)
        assert np.isnan(special.fdtrc(4, 27, f)) or f == 0.0


class TestOwnTails:
    """tsecon's own tails against scipy.stats."""

    @pytest.mark.parametrize("df", DFS + [200, 1000, 1e4, 1e5, 0.5, 2.5])
    def test_t_two_sided(self, df):
        a = np.abs(grid())
        rtol = 1e-12 if df <= 1000 else 1e-9
        assert_close([t_two_sided(t, df) for t in a.tolist()], 2.0 * stats.t.sf(a, df), rtol)

    def test_normal_cdf(self):
        x = grid()
        assert_close([norm_cdf(v) for v in x.tolist()], stats.norm.cdf(x))

    @pytest.mark.parametrize("df", [-1.0, 0.0, 1.0, 36.0, 1e6, math.nan])
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 0.0, -0.0])
    def test_t_edges_are_exact(self, t, df):
        assert bits(t_two_sided(t, df)) == bits(2.0 * stats.t.sf(abs(t), df))

    @pytest.mark.parametrize("t", [math.inf, 2.0, 0.0])
    def test_infinite_df_is_nan(self, t):
        # scipy gives the normal limit for t and mixes NaN with limits for F;
        # no estimator has infinite degrees of freedom
        assert math.isnan(t_two_sided(t, math.inf))
        assert math.isnan(f_sf(t, math.inf, 3)) and math.isnan(f_sf(t, 3, math.inf))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.0, -0.0])
    def test_normal_edges_are_exact(self, x):
        assert bits(norm_cdf(x)) == bits(stats.norm.cdf(x))

    @pytest.mark.parametrize("dfn", DFNS + [math.nan])
    @pytest.mark.parametrize("dfd", DFDS + [math.nan])
    @pytest.mark.parametrize("f", [math.inf, math.nan, 0.0, -0.0, -1.0])
    def test_f_edges_are_exact(self, f, dfn, dfd):
        assert bits(f_sf(f, dfn, dfd)) == bits(special.fdtrc(dfn, dfd, f))
        assert bits(f_pvalue(f, dfn, dfd)) == bits(stats.f.sf(f, dfn, dfd))


    @pytest.mark.parametrize("a, b, rtol", [
        (5e3, 5e3, 1e-12), (1e5, 1e5, 1e-12), (1e6, 1e6, 1e-12), (1e6, 6e5, 1e-12),
        (3e4, 1e3, 1e-12), (5e3, 20.0, 1e-12),
        # near the mean, the continued fraction itself rounds to a few 1e-12
        # here: its ~3,500 coefficients rounded to float64 alone move it 6e-13
        (5e6, 5e6, 5e-12), (5e7, 5e7, 5e-12),
    ])
    def test_incomplete_beta_with_two_large_shapes(self, a, b, rtol):
        # x from the mean a / (a + b) >= 0.5 out to 5 standard deviations, so
        # that y = 1 - x is exact; I_y(b, a) = 1 - I_x(a, b) covers the other side
        mean, sd = a / (a + b), math.sqrt(a * b / (a + b) ** 2 / (a + b + 1))
        xs = np.array([0.5, mean] + [mean + k * sd for k in (0.3, 1, 2, 3, 5)])
        xs = xs[(xs >= 0.5) & (xs < 1.0)]
        assert_close([_betai(a, b, x, 1.0 - x) for x in xs.tolist()], special.betainc(a, b, xs), rtol)
        assert_close([_betai(b, a, 1.0 - x, x) for x in xs.tolist()],
                     special.betainc(b, a, 1.0 - xs), rtol)


class TestPublicFits:
    def test_ols_coefficient_and_f_pvalues(self, dataset):
        spec = ModelSpec(
            dependent=parse_term("ln(Industrial Investment)"),
            regressors=tuple(parse_term(t) for t in
                             ("ln(Public investment)", "ln(GDP model base)", "ln(Credit)")),
            include_constant=True,
            sample=(1970, 2010),
        )
        fit = ols_fit(dataset, spec)
        df = fit.n_obs - len(fit.coefficients)
        t = np.array([c.t_stat for c in fit.coefficients])
        assert_close([c.p_value for c in fit.coefficients], 2.0 * stats.t.sf(np.abs(t), df))
        assert_close(fit.f_p_value, stats.f.sf(fit.f_stat, *fit.f_df))

    def test_tsls_normal_pvalues(self, dataset):
        growth = parse_term("dln(Total investment) as d_Ln(K)")
        spec = TslsSpec(
            model=ModelSpec(
                dependent=parse_term("Unemployment rate"),
                regressors=(growth, parse_term("Unemployment rate@1"),
                            parse_term("Unemployment rate@2")),
                include_constant=True, sample=(1970, 2010),
            ),
            endogenous=("d_Ln(K)",),
            instruments=(parse_term("dln(GDP)"), parse_term("dln(Total investment)@1")),
        )
        fit = tsls_fit(dataset, spec)
        t = np.array([c.t_stat for c in fit.coefficients])
        assert_close([c.p_value for c in fit.coefficients], 2.0 * stats.norm.sf(np.abs(t)))

    @pytest.mark.parametrize("break_year", [1974, 1982, 1998, 2007])
    def test_chow_pvalue(self, dataset, break_year):
        spec = ModelSpec(
            dependent=parse_term("ln(Industrial Investment)"),
            regressors=tuple(parse_term(t) for t in
                             ("ln(Public investment)", "ln(GDP model base)", "ln(Credit)")),
            include_constant=False,
            sample=(1970, 2010),
        )
        res = chow_test(dataset, spec, break_year)
        assert_close(res.p_value, stats.f.sf(res.f_stat, *res.df))

    @pytest.mark.parametrize("lags", [1, 2, 4])
    def test_granger_pvalues(self, dataset, lags):
        res = granger_causality(dataset, GrangerSpec(
            parse_term("dln(GDP)"), parse_term("dln(Industrial Investment)"), lags,
            sample=(1976, 2010)))
        for e in res.pairs:
            assert_close(e.p_value, stats.f.sf(e.f_stat, lags, e.n_obs - 2 * lags - 1))

    def test_mackinnon_surface_matches_norm_cdf(self, monkeypatch):
        taus = np.concatenate([np.linspace(-30.0, 5.0, 701), [np.nan]])
        ours = {(d, k): [mackinnon_pvalue(t, d, k) for t in taus]
                for d in DETERMINISTICS for k in range(1, 7)}
        monkeypatch.setattr(unitroot, "norm_cdf", stats.norm.cdf)
        for (d, k), got in ours.items():
            assert_close(got, [mackinnon_pvalue(t, d, k) for t in taus])

    def test_adf_pvalue_matches_norm_cdf(self, dataset, monkeypatch):
        series = dataset.get("Inflation")
        spec = AdfSpec("constant_and_trend", 1)
        ours = adf_test(series, spec)
        monkeypatch.setattr(unitroot, "norm_cdf", stats.norm.cdf)
        assert_close(ours.p_value, adf_test(series, spec).p_value)
