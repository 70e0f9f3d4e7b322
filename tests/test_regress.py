import math

import numpy as np
import pytest

from tsecon.dataset import Term
from tsecon.regress import EstimationError, ModelSpec, build_design, ols_fit

from conftest import make_dataset


def normal_equations_oracle(X, y):
    """Brute-force (X'X)^-1 X'y, independent of the QR path under test."""
    return np.linalg.inv(X.T @ X) @ (X.T @ y)


def spec_for(names, dep="y", constant=True, sample=None):
    return ModelSpec(
        dependent=Term(dep),
        regressors=tuple(Term(n) for n in names),
        include_constant=constant,
        sample=sample,
    )


class TestOlsCore:
    def test_exact_line(self):
        x = np.arange(1.0, 9.0)
        ds = make_dataset(y=(2000, 3.0 * x), x=(2000, x))
        fit = ols_fit(ds, spec_for(["x"]))
        assert fit.coefficient("x").estimate == pytest.approx(3.0, abs=1e-12)
        assert fit.coefficient("const").estimate == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.ssr == pytest.approx(0.0, abs=1e-18)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        x1, x2 = rng.normal(size=5), rng.normal(size=5)
        y = rng.normal(size=5)
        ds = make_dataset(y=(2000, y), x1=(2000, x1), x2=(2000, x2))
        fit = ols_fit(ds, spec_for(["x1", "x2"]))
        X = np.column_stack([np.ones(5), x1, x2])
        expect = normal_equations_oracle(X, y)
        assert np.max(np.abs(fit.estimates - expect)) <= 1e-10

    def test_residual_orthogonality_and_zero_sum(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        y, X, _, _ = build_design(toy_dataset, spec_for(["x1", "x2"]))
        e = np.array(fit.residuals.values)
        scale = np.abs(X).max() * np.abs(e).max() * len(e)
        assert np.max(np.abs(X.T @ e)) <= 1e-8 * max(scale, 1.0)
        assert abs(e.sum()) <= 1e-8 * max(scale, 1.0)

    def test_reordering_invariance(self, toy_dataset):
        a = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        b = ols_fit(toy_dataset, spec_for(["x2", "x1"]))
        assert a.coefficient("x1").estimate == pytest.approx(b.coefficient("x1").estimate, abs=1e-12)
        assert a.coefficient("x2").estimate == pytest.approx(b.coefficient("x2").estimate, abs=1e-12)
        assert a.ssr == pytest.approx(b.ssr, rel=1e-12)

    def test_rank_deficiency_error(self):
        x = np.arange(1.0, 11.0)
        ds = make_dataset(y=(2000, x + 1), x1=(2000, x), x2=(2000, 2.0 * x))
        with pytest.raises(EstimationError, match="rank deficient"):
            ols_fit(ds, spec_for(["x1", "x2"], constant=False))

    def test_empty_model_error(self, toy_dataset):
        with pytest.raises(EstimationError, match="empty model"):
            build_design(toy_dataset, spec_for([], constant=False))

    def test_too_few_observations_error(self):
        ds = make_dataset(y=(2000, [1.0, 2.0]), x=(2000, [1.0, 4.0]))
        with pytest.raises(EstimationError, match="^the OLS regression has 2 observations for 2 parameters$"):
            ols_fit(ds, spec_for(["x"]))

    def test_sample_window_applied(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1"], sample=(1975, 1999)))
        assert fit.sample == (1975, 1999)
        assert fit.n_obs == 25
        assert fit.residuals.start_year == 1975


class TestDiagnostics:
    def test_ssr_equals_sum_of_squared_residuals(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        e = np.array(fit.residuals.values)
        assert fit.ssr == pytest.approx(float(e @ e), rel=1e-9)

    def test_r_squared_bounds_and_adjustment(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.adj_r_squared <= fit.r_squared
        assert 0.0 <= fit.durbin_watson <= 4.0

    def test_f_matches_restricted_unrestricted_form(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        y, X, _, _ = build_design(toy_dataset, spec_for(["x1", "x2"]))
        ssr_r = float(((y - y.mean()) ** 2).sum())  # constant-only restriction
        q, df = fit.f_df
        expect = ((ssr_r - fit.ssr) / q) / (fit.ssr / df)
        assert fit.f_stat == pytest.approx(expect, rel=1e-9)

    def test_f_matches_restricted_form_without_constant(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"], constant=False))
        y, X, _, _ = build_design(toy_dataset, spec_for(["x1", "x2"], constant=False))
        ssr_r = float(y @ y)  # zero-model restriction
        q, df = fit.f_df
        expect = ((ssr_r - fit.ssr) / q) / (fit.ssr / df)
        assert fit.f_stat == pytest.approx(expect, rel=1e-9)

    def test_information_criteria_recompute(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1", "x2"]))
        n, p = fit.n_obs, 3
        assert fit.aic == pytest.approx(-2 * fit.log_likelihood + 2 * p, abs=1e-12)
        assert fit.bic == pytest.approx(-2 * fit.log_likelihood + p * math.log(n), abs=1e-12)
        assert fit.hqc == pytest.approx(
            -2 * fit.log_likelihood + 2 * p * math.log(math.log(n)), abs=1e-12
        )

    def test_loglik_matches_concentrated_form(self, toy_dataset):
        fit = ols_fit(toy_dataset, spec_for(["x1"]))
        n = fit.n_obs
        expect = -0.5 * n * (1 + math.log(2 * math.pi) + math.log(fit.ssr / n))
        assert fit.log_likelihood == pytest.approx(expect, rel=1e-12)

    def test_uncentered_r2_without_constant(self):
        # all-positive dependent: uncentered R2 is near one even for a weak fit
        rng = np.random.default_rng(3)
        x = rng.uniform(50, 60, 20)
        y = x + rng.normal(0, 1, 20)
        ds = make_dataset(y=(2000, y), x=(2000, x))
        fit = ols_fit(ds, spec_for(["x"], constant=False))
        expect = 1.0 - fit.ssr / float(y @ y)
        assert fit.r_squared == pytest.approx(expect, rel=1e-12)
        assert fit.r_squared > 0.99

