import numpy as np
import pytest
from scipy import stats

from tsecon.dataset import Term
from tsecon.dynamics import (
    ArSpec,
    GrangerSpec,
    chow_test,
    cochrane_orcutt_fit,
    compare_models,
    granger_causality,
)
from tsecon.regress import EstimationError, ModelSpec, ols_fit

from conftest import make_dataset


def ar1_system(seed, n=80, rho=0.5, beta=(1.0, 2.0)):
    """y = b0 + b1 x + u with AR(1) disturbances of coefficient rho."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    u = np.zeros(n)
    e = rng.normal(0, 0.5, n)
    for t in range(1, n):
        u[t] = rho * u[t - 1] + e[t]
    y = beta[0] + beta[1] * x + u
    return make_dataset(y=(1900, y), x=(1900, x))


def grid_search_rho_oracle(y, x, grid=None):
    """SSR-minimizing rho over a grid for the quasi-differenced regression."""
    if grid is None:
        grid = np.arange(-0.95, 0.951, 0.005)
    best = (np.inf, 0.0)
    n = len(y)
    for rho in grid:
        ys = y[1:] - rho * y[:-1]
        Xs = np.column_stack([np.ones(n - 1) * (1 - rho), x[1:] - rho * x[:-1]])
        b = np.linalg.lstsq(Xs, ys, rcond=None)[0]
        ssr = float(((ys - Xs @ b) ** 2).sum())
        if ssr < best[0]:
            best = (ssr, rho)
    return best[1]


SPEC = ModelSpec(dependent=Term("y"), regressors=(Term("x"),), include_constant=True)


class TestCochraneOrcutt:
    def test_no_autocorrelation_limit(self):
        # independent disturbances: rho ~ 0 and coefficients ~ plain OLS
        hits = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=300)
            y = 1.0 + 2.0 * x + rng.normal(0, 0.4, 300)
            ds = make_dataset(y=(1900, y), x=(1900, x))
            res = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,)))
            direct = ols_fit(ds, SPEC)
            if abs(res.rho[0]) < 0.12 and np.all(
                np.abs(res.structural.estimates - direct.estimates) < 1e-3 * 50
            ):
                hits += 1
        assert hits >= 7

    def test_rho_recovery_matches_grid_oracle(self):
        ds = ar1_system(3, n=12)
        res = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,)))
        y = np.array(ds.get("y").values)
        x = np.array(ds.get("x").values)
        oracle = grid_search_rho_oracle(y, x)
        assert res.rho[0] == pytest.approx(oracle, abs=0.02)

    def test_convergence_flag_semantics(self):
        ds = ar1_system(5)
        res = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,)))
        assert res.converged
        assert res.iterations_used <= 20
        tight = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,), max_iterations=1))
        assert not tight.converged
        assert tight.iterations_used == 1

    def test_multi_lag_disturbance(self):
        rng = np.random.default_rng(12)
        n = 200
        x = rng.normal(size=n)
        u = np.zeros(n)
        e = rng.normal(0, 0.5, n)
        for t in range(4, n):
            u[t] = 0.4 * u[t - 1] - 0.3 * u[t - 4] + e[t]
        y = 1.0 + 2.0 * x + u
        ds = make_dataset(y=(1700, y), x=(1700, x))
        res = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1, 4)))
        assert res.rho[0] == pytest.approx(0.4, abs=0.15)
        assert res.rho[1] == pytest.approx(-0.3, abs=0.15)
        assert not res.divergence_flag

    def test_insufficient_sample_error(self):
        ds = ar1_system(0, n=4)
        with pytest.raises(EstimationError,
                           match="^the AR disturbance regression has 2 observations for 2 parameters$"):
            cochrane_orcutt_fit(ds, ArSpec(SPEC, (1, 2)))

    def test_lag_list_validation(self):
        with pytest.raises(EstimationError, match="strictly increasing"):
            ArSpec(SPEC, (2, 1))
        with pytest.raises(EstimationError, match="positive"):
            ArSpec(SPEC, (0,))
        with pytest.raises(EstimationError, match="must not be empty"):
            ArSpec(SPEC, ())


class TestCompareModels:
    def test_model_vs_itself(self):
        ds = ar1_system(1)
        a = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,)))
        cmp_res = compare_models(a, a)
        assert cmp_res.ssr[0] == cmp_res.ssr[1]
        assert not any(cmp_res.improved.values())

    def test_nested_pair_matches_recomputation(self):
        rng = np.random.default_rng(8)
        n = 60
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 1.0 + 2.0 * x1 + 0.02 * x2 + rng.normal(0, 0.5, n)
        ds = make_dataset(y=(1900, y), x1=(1900, x1), x2=(1900, x2))
        full = cochrane_orcutt_fit(
            ds, ArSpec(ModelSpec(Term("y"), (Term("x1"), Term("x2"))), (1,))
        )
        restricted = cochrane_orcutt_fit(ds, ArSpec(ModelSpec(Term("y"), (Term("x1"),)), (1,)))
        cmp_res = compare_models(full, restricted)
        assert cmp_res.ssr == (full.structural.ssr, restricted.structural.ssr)
        assert cmp_res.schwarz == (full.structural.bic, restricted.structural.bic)
        assert cmp_res.improved["schwarz"] == (restricted.structural.bic < full.structural.bic)

    def test_mismatched_samples_error(self):
        ds = ar1_system(2)
        a = cochrane_orcutt_fit(ds, ArSpec(SPEC, (1,)))
        b = cochrane_orcutt_fit(
            ds, ArSpec(ModelSpec(Term("y"), (Term("x"),), sample=(1910, 1970)), (1,))
        )
        with pytest.raises(EstimationError, match="samples"):
            compare_models(a, b)


def two_regression_granger_oracle(x, y, lags):
    n = len(y)
    rows = n - lags
    Y = y[lags:]
    own = [np.ones(rows)] + [y[lags - i : n - i] for i in range(1, lags + 1)]
    Xr = np.column_stack(own)
    Xu = np.column_stack(own + [x[lags - i : n - i] for i in range(1, lags + 1)])
    br = np.linalg.inv(Xr.T @ Xr) @ (Xr.T @ Y)
    bu = np.linalg.inv(Xu.T @ Xu) @ (Xu.T @ Y)
    ssr_r = float(((Y - Xr @ br) ** 2).sum())
    ssr_u = float(((Y - Xu @ bu) ** 2).sum())
    return ((ssr_r - ssr_u) / lags) / (ssr_u / (rows - 2 * lags - 1))


class TestGranger:
    def test_matches_two_regression_oracle(self):
        rng = np.random.default_rng(21)
        n = 20
        x = rng.normal(size=n)
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.4 * y[t - 1] + 0.8 * x[t - 2] + rng.normal(0, 0.3)
        ds = make_dataset(x=(1900, x), y=(1900, y))
        res = granger_causality(ds, GrangerSpec(Term("x"), Term("y"), 2))
        fwd = next(e for e in res.pairs if e.cause == "x")
        assert fwd.f_stat == pytest.approx(two_regression_granger_oracle(x, y, 2), abs=1e-9)
        assert fwd.p_value == pytest.approx(
            stats.f.sf(fwd.f_stat, 2, fwd.n_obs - 5), abs=1e-12
        )

    def test_independence_null_rarely_rejects(self):
        rejections = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=300)
            y = rng.normal(size=300)
            ds = make_dataset(x=(1500, x), y=(1500, y))
            res = granger_causality(ds, GrangerSpec(Term("x"), Term("y"), 4))
            fwd = next(e for e in res.pairs if e.cause == "x")
            rejections += fwd.reject_5pct
        assert rejections <= 4  # p > 0.05 in >= 90% of replications

    def test_swap_symmetry(self):
        # sin(k) and cos(k/2) alone are exact AR(2) processes: the noise leaves a residual
        noise = 0.1 * np.random.default_rng(3).normal(size=(2, 30))
        ds = make_dataset(
            x=(1900, np.sin(np.arange(30.0)) + noise[0]),
            y=(1900, np.cos(np.arange(30.0) / 2.0) + noise[1]),
        )
        a = granger_causality(ds, GrangerSpec(Term("x"), Term("y"), 2))
        b = granger_causality(ds, GrangerSpec(Term("y"), Term("x"), 2))
        assert {(e.cause, e.effect, round(e.f_stat, 12)) for e in a.pairs} == {
            (e.cause, e.effect, round(e.f_stat, 12)) for e in b.pairs
        }

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        ds1 = make_dataset(x=(1900, x), y=(1900, y))
        ds2 = make_dataset(x=(1900, 5.0 * x + 3.0), y=(1900, 0.25 * y - 7.0))
        f1 = [e.f_stat for e in granger_causality(ds1, GrangerSpec(Term("x"), Term("y"), 3)).pairs]
        f2 = [e.f_stat for e in granger_causality(ds2, GrangerSpec(Term("x"), Term("y"), 3)).pairs]
        assert f1 == pytest.approx(f2, rel=1e-9)

    def test_insufficient_observations_error(self):
        ds = make_dataset(x=(1900, np.arange(6.0)), y=(1900, np.arange(6.0) ** 2))
        with pytest.raises(EstimationError,
                           match="^the Granger regression has 3 observations for 7 parameters$"):
            granger_causality(ds, GrangerSpec(Term("x"), Term("y"), 3))

    def test_zero_lags_is_estimation_error(self):
        ds = make_dataset(x=(1900, np.sin(np.arange(30.0))), y=(1900, np.cos(np.arange(30.0))))
        with pytest.raises(EstimationError, match="lag order must be >= 1"):
            granger_causality(ds, GrangerSpec(Term("x"), Term("y"), 0))


def three_fit_chow_oracle(y, X, mask, p):
    def ssr(yy, XX):
        b = np.linalg.lstsq(XX, yy, rcond=None)[0]
        return float(((yy - XX @ b) ** 2).sum())

    n = len(y)
    s_p, s_1, s_2 = ssr(y, X), ssr(y[mask], X[mask]), ssr(y[~mask], X[~mask])
    return ((s_p - s_1 - s_2) / p) / ((s_1 + s_2) / (n - 2 * p))


class TestChow:
    def test_matches_three_fit_oracle(self):
        # deliberate slope jump halfway through a 14-point sample
        rng = np.random.default_rng(17)
        x = np.linspace(1.0, 14.0, 14)
        y = np.where(x <= 7, 1.0 + 0.5 * x, 4.0 + 1.5 * x) + rng.normal(0, 0.2, 14)
        ds = make_dataset(y=(2000, y), x=(2000, x))
        spec = ModelSpec(Term("y"), (Term("x"),), include_constant=True)
        res = chow_test(ds, spec, 2007)
        X = np.column_stack([np.ones(14), x])
        years = np.arange(2000, 2014)
        expect = three_fit_chow_oracle(y, X, years < 2007, 2)
        assert res.f_stat == pytest.approx(expect, abs=1e-9)
        assert res.df == (2, 10)
        assert res.reject_5pct

    def test_single_regime_rarely_rejects(self):
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=50)
            y = 1.0 + 2.0 * x + rng.normal(0, 0.5, 50)
            ds = make_dataset(y=(1900, y), x=(1900, x))
            res = chow_test(ds, ModelSpec(Term("y"), (Term("x"),)), 1925)
            rejections += res.reject_5pct
        assert rejections <= 3

    def test_identical_halves_give_zero_f(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=10)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.3, 10)
        ds = make_dataset(y=(2000, np.concatenate([y, y])), x=(2000, np.concatenate([x, x])))
        res = chow_test(ds, ModelSpec(Term("y"), (Term("x"),)), 2010)
        assert res.f_stat == pytest.approx(0.0, abs=1e-9)

    def test_short_subsample_error(self):
        ds = make_dataset(y=(2000, np.arange(12.0) + 1), x=(2000, (np.arange(12.0) + 1) ** 1.5))
        with pytest.raises(EstimationError,
                           match="^the Chow sub-sample before 2001 has 1 observations for 2 parameters$"):
            chow_test(ds, ModelSpec(Term("y"), (Term("x"),)), 2001)
