import math

import pytest

from tsecon.dataset import AnnualSeries, DatasetError, Term, parse_term
from tsecon.regress import Coefficient, EstimationError, FitResult, ModelSpec
from tsecon.scenario import CapitalScenario, simulate_exports, simulate_unemployment


def fake_fit(dependent, const, beta_k, ar):
    """Minimal FitResult of the term ``dependent`` on a constant (none if ``const`` is None),
    d_Ln(K) and the lags ``ar``, which maps each dependent lag k to its coefficient.
    """
    dep = parse_term(dependent)
    model = ModelSpec(dep, (parse_term("dln(K) as d_Ln(K)"),
                            *(Term(dep.base, dep.transform, k) for k in ar)), const is not None)
    betas = ([] if const is None else [const]) + [beta_k, *ar.values()]
    coeffs = tuple(Coefficient(label, b, 1.0, b, 0.5) for label, b in zip(model.labels, betas))
    resid = AnnualSeries("residuals", 2000, (0.0, 0.0))
    return FitResult(
        coefficients=coeffs, n_obs=2, r_squared=0.9, adj_r_squared=0.9, f_stat=1.0,
        f_p_value=0.5, f_df=(3, 1), ssr=0.0, resid_std_error=0.0, dep_mean=0.0,
        dep_std_error=1.0, log_likelihood=0.0, aic=0.0, bic=0.0, hqc=0.0,
        durbin_watson=2.0, rho1=0.0, residuals=resid, sample=(2000, 2001),
        model=model, method="tsls",
    )


U = AnnualSeries("U", 2000, (10.0, 9.5, 9.0, 8.5, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, 5.0), "percent")
G = AnnualSeries("d_Ln(K)", 2000, (0.05, 0.04, 0.03, 0.05, 0.06, 0.05, 0.04, 0.05, 0.06, 0.05, 0.04))
X = AnnualSeries("X", 2000, tuple(1000.0 * 1.05**i for i in range(11)), "thousands of USD")


class TestUnemploymentScenario:
    def test_identity_scenario_zero_delta(self):
        fit = fake_fit("U", 2.0, -20.0, {1: 1.1, 2: -0.4})
        overrides = {y: G.value_in(y) for y in range(2005, 2011)}
        scenario = CapitalScenario("identity", overrides)
        res = simulate_unemployment(fit, scenario, (2000, 2010), 1_000_000, U, G,
                                    as_log_growth=False)
        assert res.counterfactual_path.values == U.values
        assert res.terminal_delta == 0.0
        assert res.derived_quantities["jobs_created"] == 0.0

    # the recursion is the fit's own: any set of dependent lags, none included
    @pytest.mark.parametrize("ar", [{}, {1: 0.5}, {2: 0.25}, {1: 0.5, 2: 0.25},
                                    {1: 0.5, 2: 0.25, 3: -0.125}],
                             ids=["none", "1", "2", "1-2", "1-2-3"])
    def test_hand_unrolled_recursion(self, ar):
        # round coefficients, one override carried over six years, recursed by hand
        fit = fake_fit("U", 1.0, -2.0, ar)
        scenario = CapitalScenario("hand", {2005: 0.10})
        res = simulate_unemployment(fit, scenario, (2004, 2010), 100_000, U, G)
        g_scen = math.log(1.10)
        dev = {2004: 0.0}
        for y in range(2005, 2011):
            dev[y] = -2.0 * (g_scen - G.value_in(y))
            for k, a in ar.items():
                dev[y] += a * dev.get(y - k, 0.0)
        cf = res.counterfactual_path
        for y, d in dev.items():
            assert cf.value_in(y) == pytest.approx(U.value_in(y) + d, abs=1e-12)
        assert res.derived_quantities["jobs_created"] == pytest.approx(
            -dev[2010] / 100 * 100_000, abs=1e-9)

    def test_constant_drops_out(self):
        scenario = CapitalScenario("s", {2005: 0.15, 2006: 0.10})
        with_constant = simulate_unemployment(fake_fit("U", 2.0, -20.0, {1: 0.8}), scenario,
                                              (2000, 2010), 1e6, U, G)
        assert with_constant == simulate_unemployment(fake_fit("U", None, -20.0, {1: 0.8}),
                                                      scenario, (2000, 2010), 1e6, U, G)

    def test_monotonicity_in_override_rates(self):
        fit = fake_fit("U", 2.0, -20.0, {1: 0.8, 2: -0.1})
        lo = CapitalScenario("lo", {2005: 0.05, 2006: 0.05})
        hi = CapitalScenario("hi", {2005: 0.10, 2006: 0.10})
        r_lo = simulate_unemployment(fit, lo, (2000, 2010), 1e6, U, G)
        r_hi = simulate_unemployment(fit, hi, (2000, 2010), 1e6, U, G)
        assert (
            r_hi.derived_quantities["terminal_unemployment"]
            <= r_lo.derived_quantities["terminal_unemployment"]
        )

    def test_deterministic_rerun(self):
        fit = fake_fit("U", 2.0, -20.0, {1: 1.1, 2: -0.4})
        scenario = CapitalScenario("s", {2005: 0.15, 2006: 0.10})
        a = simulate_unemployment(fit, scenario, (2000, 2010), 1e6, U, G)
        b = simulate_unemployment(fit, scenario, (2000, 2010), 1e6, U, G)
        assert a.counterfactual_path.values == b.counterfactual_path.values

    def test_window_outside_data_error(self):
        fit = fake_fit("U", 1.0, -2.0, {1: 0.5, 2: 0.2})
        with pytest.raises(DatasetError, match=r"series 'd_Ln\(K\)' has no value for 1999"):
            simulate_unemployment(fit, CapitalScenario("s", {1999: 0.1}), (1995, 2010), 1e6, U, G)

    def test_capital_growth_needs_only_the_years_from_the_first_override(self):
        fit = fake_fit("U", 1.0, -2.0, {1: 0.5, 2: 0.25})
        late = AnnualSeries(G.name, 2008, G.values[8:])
        scenario = CapitalScenario("s", {2008: 0.10})
        res = simulate_unemployment(fit, scenario, (2006, 2010), 1e6, U, late)
        assert res == simulate_unemployment(fit, scenario, (2006, 2010), 1e6, U, G)
        with pytest.raises(DatasetError, match="series 'U' has no value for 2011"):
            simulate_unemployment(fit, scenario, (2006, 2011), 1e6, U,
                                  AnnualSeries(G.name, 2000, (*G.values, 0.05)))

    def test_override_outside_window_error(self):
        fit = fake_fit("U", 1.0, -2.0, {1: 0.5, 2: 0.2})
        with pytest.raises(EstimationError, match="outside the window"):
            simulate_unemployment(fit, CapitalScenario("s", {1999: 0.1}), (2000, 2010), 1e6, U, G)

    # the capital label names a regressor of the fit: not the constant, nor a dependent lag
    @pytest.mark.parametrize("label", ["no such label", "const", "U(-1)"])
    def test_capital_that_labels_no_regressor_error(self, label):
        fit = fake_fit("U", 1.0, -2.0, {1: 0.5, 2: 0.2})
        other = AnnualSeries(label, G.start_year, G.values)
        with pytest.raises(EstimationError,
                           match=r"^expected a regressor label of the fit, one of d_Ln\(K\)$") as e:
            simulate_unemployment(
                fit, CapitalScenario("s", {2005: 0.1}), (2000, 2010), 1e6, U, other,
            )
        assert e.value.key == "capital"


class TestExportScenario:
    def test_identity_scenario_zero_delta(self):
        fit = fake_fit("ln(X)", 0.5, 4.0, {1: 0.8, 2: 0.1})
        overrides = {y: G.value_in(y) for y in range(2005, 2011)}
        res = simulate_exports(
            fit, CapitalScenario("identity", overrides), (2000, 2010), 1e9, X, G,
            as_log_growth=False,
        )
        assert res.counterfactual_path.values == pytest.approx(X.values, rel=1e-15)
        assert res.derived_quantities["terminal_pct_delta"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_unrolled_log_recursion(self):
        fit = fake_fit("ln(X)", 0.5, 4.0, {1: 0.5, 2: 0.25})
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
        fit = fake_fit("ln(X)", 0.5, 4.0, {1: 0.8, 2: 0.1})
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
