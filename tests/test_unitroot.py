import numpy as np
import pytest

from tsecon.dataset import AnnualSeries
from tsecon.regress import EstimationError
from tsecon.unitroot import AdfSpec, adf_test, df_residual_test, mackinnon_pvalue


def df_regression_oracle(values, deterministic, lags):
    """Independent OLS of the Dickey-Fuller regression via normal equations."""
    v = np.asarray(values, float)
    dy = np.diff(v)
    rows = len(v) - 1 - lags
    Y = dy[lags:]
    cols = []
    if deterministic in ("constant", "constant_and_trend"):
        cols.append(np.ones(rows))
    if deterministic == "constant_and_trend":
        cols.append(np.arange(1.0, rows + 1))
    cols.append(v[lags:-1])
    idx = len(cols) - 1
    for i in range(1, lags + 1):
        cols.append(dy[lags - i : len(dy) - i])
    X = np.column_stack(cols)
    b = np.linalg.inv(X.T @ X) @ (X.T @ Y)
    e = Y - X @ b
    s2 = float(e @ e) / (rows - X.shape[1])
    se = np.sqrt(s2 * np.linalg.inv(X.T @ X)[idx, idx])
    return b[idx] / se


FIXED_12 = (3.1, 2.9, 3.4, 3.8, 3.3, 3.9, 4.4, 4.1, 4.8, 5.1, 4.7, 5.3)
FIXED_RESID_15 = (0.4, -0.6, 0.3, 0.1, -0.5, 0.7, -0.2, -0.1, 0.6, -0.8, 0.2, 0.5, -0.3, -0.4, 0.35)


class TestAdf:
    @pytest.mark.parametrize("det", ["none", "constant", "constant_and_trend"])
    @pytest.mark.parametrize("lags", [0, 1, 2])
    def test_tau_matches_df_regression_oracle(self, det, lags):
        s = AnnualSeries("s", 1990, FIXED_12)
        res = adf_test(s, AdfSpec(det, lags))
        assert res.t_stat == pytest.approx(df_regression_oracle(FIXED_12, det, lags), abs=1e-9)

    def test_lag0_reduces_to_simple_df(self):
        s = AnnualSeries("s", 1990, FIXED_12)
        res = adf_test(s, AdfSpec("constant", 0))
        # simple DF regression: dy on const and lagged level only
        assert res.t_stat == pytest.approx(df_regression_oracle(FIXED_12, "constant", 0), abs=1e-12)
        assert res.n_used == len(FIXED_12) - 1

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(20181001)
        walk = np.cumsum(rng.normal(size=500))
        s = AnnualSeries("walk", 1500, tuple(walk))
        res = adf_test(s, AdfSpec("constant", 1))
        assert not res.reject_5pct
        assert res.p_value > 0.05

    def test_stationary_series_rejects(self):
        rng = np.random.default_rng(7)
        s = AnnualSeries("noise", 1500, tuple(rng.normal(size=400)))
        res = adf_test(s, AdfSpec("constant", 1))
        assert res.reject_5pct

    @pytest.mark.parametrize("det", ["none", "constant", "constant_and_trend"])
    def test_scale_invariance(self, det):
        s = AnnualSeries("s", 1990, FIXED_12)
        scaled = AnnualSeries("s", 1990, tuple(37.5 * v for v in FIXED_12))
        a = adf_test(s, AdfSpec(det, 1))
        b = adf_test(scaled, AdfSpec(det, 1))
        assert a.t_stat == pytest.approx(b.t_stat, abs=1e-9)

    @pytest.mark.parametrize("det", ["constant", "constant_and_trend"])
    def test_shift_invariance_with_constant(self, det):
        s = AnnualSeries("s", 1990, FIXED_12)
        shifted = AnnualSeries("s", 1990, tuple(v + 250.0 for v in FIXED_12))
        a = adf_test(s, AdfSpec(det, 1))
        b = adf_test(shifted, AdfSpec(det, 1))
        assert a.t_stat == pytest.approx(b.t_stat, abs=1e-8)

    def test_too_short_error(self):
        s = AnnualSeries("s", 1990, (1.0, 2.0, 1.5, 2.5))
        with pytest.raises(EstimationError, match=r"^the ADF design \(constant_and_trend, 2 lags\) "
                                                  "has 1 observations for 5 parameters$"):
            adf_test(s, AdfSpec("constant_and_trend", 2))

    def test_constant_series_error(self):
        s = AnnualSeries("s", 1990, (5.0,) * 15)
        with pytest.raises(EstimationError, match="constant series"):
            adf_test(s, AdfSpec("constant", 1))

    def test_singular_design_is_estimation_error(self):
        # a deterministic trend makes the lagged level a combination of the
        # constant and trend columns, so the design is singular
        s = AnnualSeries("trend", 1970, tuple(float(v) for v in range(40)))
        with pytest.raises(EstimationError,
                           match=r"^the ADF design \(constant_and_trend, 1 lags\) is rank deficient$"):
            adf_test(s, AdfSpec("constant_and_trend", 1))

    def test_conclusion_consistent_with_pvalue(self):
        s = AnnualSeries("s", 1990, FIXED_12)
        res = adf_test(s, AdfSpec("constant", 1))
        assert res.reject_5pct == (res.p_value < 0.05)


class TestResidualTest:
    def test_white_noise_strong_rejection(self):
        rng = np.random.default_rng(10)
        s = AnnualSeries("residuals", 1500, tuple(rng.normal(size=500)))
        res = df_residual_test(s, 1)
        assert res.reject_5pct
        assert res.p_value < 0.001

    def test_fixed_vector_matches_oracle(self):
        s = AnnualSeries("residuals", 1990, FIXED_RESID_15)
        res = df_residual_test(s, 1)
        assert res.t_stat == pytest.approx(df_regression_oracle(FIXED_RESID_15, "none", 1), abs=1e-9)
        assert res.spec.deterministic == "none"

    def test_n_vars_selects_surface(self):
        s = AnnualSeries("residuals", 1990, FIXED_RESID_15)
        p1 = df_residual_test(s, 1, n_vars=1).p_value
        p5 = df_residual_test(s, 1, n_vars=5).p_value
        assert p5 > p1  # more variables shift the distribution leftward


class TestMacKinnonSurface:
    def test_published_residual_test_value(self):
        # the study's residual test prints tau_nc(5) = -4.40547 with p 0.02035
        assert mackinnon_pvalue(-4.40547, "none", 5) == pytest.approx(0.02035, abs=0.0001)

    def test_five_percent_critical_values(self):
        # classic asymptotic 5% points: -2.86 (constant), -3.41 (constant+trend)
        assert mackinnon_pvalue(-2.86, "constant", 1) == pytest.approx(0.05, abs=0.005)
        assert mackinnon_pvalue(-3.41, "constant_and_trend", 1) == pytest.approx(0.05, abs=0.005)

    def test_monotone_in_tau(self):
        taus = np.linspace(-6.0, 0.5, 40)
        ps = [mackinnon_pvalue(t, "constant", 1) for t in taus]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_extremes_clamp(self):
        assert mackinnon_pvalue(-25.0, "constant", 1) == 0.0
        assert mackinnon_pvalue(5.0, "constant", 1) == 1.0
