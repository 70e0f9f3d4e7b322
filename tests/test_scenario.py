import math

import pytest

from tsecon.dataset import AnnualSeries, DatasetError
from tsecon.regress import Coefficient, EstimationError, FitResult
from tsecon.scenario import CapitalScenario, simulate_exports, simulate_unemployment


def fake_fit(dep_label, const, beta_k, ar1, ar2):
    """Minimal FitResult carrying just the coefficients the simulator reads."""
    coeffs = (
        Coefficient("const", const, 1.0, const, 0.5),
        Coefficient("d_Ln(K)", beta_k, 1.0, beta_k, 0.5),
        Coefficient(f"{dep_label}(-1)", ar1, 1.0, ar1, 0.5),
        Coefficient(f"{dep_label}(-2)", ar2, 1.0, ar2, 0.5),
    )
    resid = AnnualSeries("residuals", 2000, (0.0, 0.0))
    return FitResult(
        coefficients=coeffs, n_obs=2, r_squared=0.9, adj_r_squared=0.9, f_stat=1.0,
        f_p_value=0.5, f_df=(3, 1), ssr=0.0, resid_std_error=0.0, dep_mean=0.0,
        dep_std_error=1.0, log_likelihood=0.0, aic=0.0, bic=0.0, hqc=0.0,
        durbin_watson=2.0, rho1=0.0, residuals=resid, sample=(2000, 2001),
        dep_label=dep_label, method="tsls",
    )


U = AnnualSeries("U", 2000, (10.0, 9.5, 9.0, 8.5, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, 5.0), "percent")
G = AnnualSeries("d_Ln(K)", 2000, (0.05, 0.04, 0.03, 0.05, 0.06, 0.05, 0.04, 0.05, 0.06, 0.05, 0.04))
X = AnnualSeries("X", 2000, tuple(1000.0 * 1.05**i for i in range(11)), "thousands of USD")


class TestUnemploymentScenario:
    def test_identity_scenario_zero_delta(self):
        fit = fake_fit("U", 2.0, -20.0, 1.1, -0.4)
        overrides = {y: G.value_in(y) for y in range(2005, 2011)}
        scenario = CapitalScenario("identity", overrides)
        res = simulate_unemployment(fit, scenario, (2000, 2010), 1_000_000, U, G,
                                    as_log_growth=False)
        assert res.counterfactual_path.values == U.values
        assert res.terminal_delta == 0.0
        assert res.derived_quantities["jobs_created"] == 0.0

    def test_hand_unrolled_recursion(self):
        # round coefficients, three override years, unrolled by hand
        fit = fake_fit("U", 1.0, -2.0, 0.5, 0.25)
        scenario = CapitalScenario("hand", {2008: 0.10})
        res = simulate_unemployment(fit, scenario, (2006, 2010), 100_000, U, G)
        g_scen = math.log(1.10)
        d8 = -2.0 * (g_scen - 0.06)   # actual growth: 0.06 in 2008, 0.05, 0.04 after
        d9 = -2.0 * (g_scen - 0.05) + 0.5 * d8
        d10 = -2.0 * (g_scen - 0.04) + 0.5 * d9 + 0.25 * d8
        assert res.counterfactual_path.value_in(2008) == pytest.approx(U.value_in(2008) + d8, abs=1e-12)
        assert res.counterfactual_path.value_in(2009) == pytest.approx(U.value_in(2009) + d9, abs=1e-12)
        assert res.counterfactual_path.value_in(2010) == pytest.approx(U.value_in(2010) + d10, abs=1e-12)
        assert res.derived_quantities["jobs_created"] == pytest.approx(-d10 / 100 * 100_000, abs=1e-9)

    def test_monotonicity_in_override_rates(self):
        fit = fake_fit("U", 2.0, -20.0, 0.8, -0.1)
        lo = CapitalScenario("lo", {2005: 0.05, 2006: 0.05})
        hi = CapitalScenario("hi", {2005: 0.10, 2006: 0.10})
        r_lo = simulate_unemployment(fit, lo, (2000, 2010), 1e6, U, G)
        r_hi = simulate_unemployment(fit, hi, (2000, 2010), 1e6, U, G)
        assert (
            r_hi.derived_quantities["terminal_unemployment"]
            <= r_lo.derived_quantities["terminal_unemployment"]
        )

    def test_deterministic_rerun(self):
        fit = fake_fit("U", 2.0, -20.0, 1.1, -0.4)
        scenario = CapitalScenario("s", {2005: 0.15, 2006: 0.10})
        a = simulate_unemployment(fit, scenario, (2000, 2010), 1e6, U, G)
        b = simulate_unemployment(fit, scenario, (2000, 2010), 1e6, U, G)
        assert a.counterfactual_path.values == b.counterfactual_path.values

    def test_window_outside_data_error(self):
        fit = fake_fit("U", 1.0, -2.0, 0.5, 0.2)
        with pytest.raises(DatasetError, match=r"series 'd_Ln\(K\)' has no value for 1999"):
            simulate_unemployment(fit, CapitalScenario("s", {1999: 0.1}), (1995, 2010), 1e6, U, G)

    def test_capital_growth_needs_only_the_years_from_the_first_override(self):
        fit = fake_fit("U", 1.0, -2.0, 0.5, 0.25)
        late = AnnualSeries(G.name, 2008, G.values[8:])
        scenario = CapitalScenario("s", {2008: 0.10})
        res = simulate_unemployment(fit, scenario, (2006, 2010), 1e6, U, late)
        assert res == simulate_unemployment(fit, scenario, (2006, 2010), 1e6, U, G)
        with pytest.raises(DatasetError, match="series 'U' has no value for 2011"):
            simulate_unemployment(fit, scenario, (2006, 2011), 1e6, U,
                                  AnnualSeries(G.name, 2000, (*G.values, 0.05)))

    def test_override_outside_window_error(self):
        fit = fake_fit("U", 1.0, -2.0, 0.5, 0.2)
        with pytest.raises(EstimationError, match="outside the window"):
            simulate_unemployment(fit, CapitalScenario("s", {1999: 0.1}), (2000, 2010), 1e6, U, G)

    def test_missing_coefficient_error(self):
        fit = fake_fit("U", 1.0, -2.0, 0.5, 0.2)
        other = AnnualSeries("no such label", G.start_year, G.values)
        with pytest.raises(EstimationError,
                           match="missing the required coefficient 'no such label'"):
            simulate_unemployment(
                fit, CapitalScenario("s", {2005: 0.1}), (2000, 2010), 1e6, U, other,
            )


class TestExportScenario:
    def test_identity_scenario_zero_delta(self):
        fit = fake_fit("Ln(X)", 0.5, 4.0, 0.8, 0.1)
        overrides = {y: G.value_in(y) for y in range(2005, 2011)}
        res = simulate_exports(
            fit, CapitalScenario("identity", overrides), (2000, 2010), 1e9, X, G,
            as_log_growth=False,
        )
        assert res.counterfactual_path.values == pytest.approx(X.values, rel=1e-15)
        assert res.derived_quantities["terminal_pct_delta"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_unrolled_log_recursion(self):
        fit = fake_fit("Ln(X)", 0.5, 4.0, 0.5, 0.25)
        res = simulate_exports(
            fit, CapitalScenario("hand", {2008: 0.10}), (2006, 2010), 2_000_000.0, X, G
        )
        g_scen = math.log(1.10)
        d8 = 4.0 * (g_scen - 0.06)
        d9 = 4.0 * (g_scen - 0.05) + 0.5 * d8
        d10 = 4.0 * (g_scen - 0.04) + 0.5 * d9 + 0.25 * d8
        assert res.counterfactual_path.value_in(2010) == pytest.approx(
            X.value_in(2010) * math.exp(d10), rel=1e-12
        )
        pct = math.exp(d10) - 1.0
        assert res.derived_quantities["terminal_pct_delta"] == pytest.approx(100 * pct, rel=1e-9)
        assert res.derived_quantities["usd_delta"] == pytest.approx(pct * 2_000_000.0, rel=1e-9)

    def test_monotonicity_positive_coefficient(self):
        fit = fake_fit("Ln(X)", 0.5, 4.0, 0.8, 0.1)
        lo = simulate_exports(fit, CapitalScenario("lo", {2005: 0.05}), (2000, 2010), 1e9, X, G)
        hi = simulate_exports(fit, CapitalScenario("hi", {2005: 0.12}), (2000, 2010), 1e9, X, G)
        assert hi.counterfactual_path.value_in(2010) >= lo.counterfactual_path.value_in(2010)


class TestScenarioSchedule:
    def test_last_override_carries_forward(self):
        s = CapitalScenario("s", {2005: 0.15, 2006: 0.10})
        assert s.rate_for(2004) is None
        assert s.rate_for(2005) == 0.15
        assert s.rate_for(2006) == 0.10
        assert s.rate_for(2010) == 0.10
