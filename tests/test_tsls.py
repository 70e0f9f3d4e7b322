import numpy as np
import pytest

from tsecon.dataset import Dataset, Term
from tsecon.regress import EstimationError, ModelSpec, ols_fit
from tsecon.tsls import TslsSpec, tsls_fit

from conftest import make_dataset


def iv_system(seed=42, n=60):
    """One endogenous regressor, two valid instruments."""
    rng = np.random.default_rng(seed)
    z1 = rng.normal(size=n)
    z2 = rng.normal(size=n)
    w = rng.normal(size=n)                       # exogenous regressor
    u = rng.normal(size=n)                       # structural error
    x = 0.9 * z1 + 0.5 * z2 + 0.6 * u + rng.normal(0, 0.4, n)  # endogenous
    y = 1.0 + 2.0 * x - 1.0 * w + u
    return make_dataset(y=(1900, y), x=(1900, x), w=(1900, w), z1=(1900, z1), z2=(1900, z2))


def model_spec(ds):
    return ModelSpec(
        dependent=Term("y"),
        regressors=(Term("x"), Term("w")),
        include_constant=True,
    )


class TestTsls:
    def test_no_endogenous_equals_ols_bitwise(self):
        ds = iv_system()
        spec = TslsSpec(model=model_spec(ds), endogenous=(), instruments=(Term("z1"), Term("z2")))
        a = tsls_fit(ds, spec)
        b = ols_fit(ds, model_spec(ds))
        assert a.estimates.tolist() == b.estimates.tolist()

    def test_two_pass_oracle(self):
        # six-point system checked against explicit stage-1 then stage-2 OLS
        ds = iv_system(seed=9, n=6)
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("z1"), Term("z2")))
        fit = tsls_fit(ds, spec)

        y = np.array(ds.get("y").values)
        x = np.array(ds.get("x").values)
        w = np.array(ds.get("w").values)
        z1 = np.array(ds.get("z1").values)
        z2 = np.array(ds.get("z2").values)
        const = np.ones(6)
        Z = np.column_stack([const, w, z1, z2])
        g = np.linalg.inv(Z.T @ Z) @ (Z.T @ x)
        x_hat = Z @ g
        X2 = np.column_stack([const, x_hat, w])
        beta = np.linalg.inv(X2.T @ X2) @ (X2.T @ y)
        assert fit.coefficient("const").estimate == pytest.approx(beta[0], abs=1e-10)
        assert fit.coefficient("x").estimate == pytest.approx(beta[1], abs=1e-10)
        assert fit.coefficient("w").estimate == pytest.approx(beta[2], abs=1e-10)

    def test_ssr_is_the_original_designs(self):
        # stage two regresses on x_hat, but the reported SSR is that of y - X beta with x itself
        ds = iv_system(seed=3)
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("z1"), Term("z2")))
        fit = tsls_fit(ds, spec)
        X = np.column_stack([np.ones(60), ds.get("x").values, ds.get("w").values])
        beta = np.array([c.estimate for c in fit.coefficients])
        e = np.array(ds.get("y").values) - X @ beta
        assert fit.ssr == pytest.approx(float(e @ e), rel=1e-12)
        assert fit.residuals.values == pytest.approx(tuple(e), rel=1e-12, abs=1e-12)
        Z = np.column_stack([np.ones(60), ds.get("w").values, ds.get("z1").values,
                             ds.get("z2").values])
        X[:, 1] = Z @ np.linalg.lstsq(Z, X[:, 1], rcond=None)[0]
        e_hat = np.array(ds.get("y").values) - X @ beta
        assert float(e_hat @ e_hat) > 2.0 * fit.ssr  # not the projected design's SSR

    def test_consistency_on_known_system(self):
        ds = iv_system(seed=1, n=4000)
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("z1"), Term("z2")))
        fit = tsls_fit(ds, spec)
        assert fit.coefficient("x").estimate == pytest.approx(2.0, abs=0.1)
        # OLS is biased upward here; 2SLS should sit closer to the truth
        naive = ols_fit(ds, model_spec(ds)).coefficient("x").estimate
        assert abs(fit.coefficient("x").estimate - 2.0) < abs(naive - 2.0)

    def test_residuals_orthogonal_to_instruments(self):
        # exact orthogonality to the whole instrument set holds when the model
        # is just identified (one instrument per endogenous regressor)
        ds = iv_system(seed=3)
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("z1"),))
        fit = tsls_fit(ds, spec)
        e = np.array(fit.residuals.values)
        n = len(e)
        Z = np.column_stack(
            [np.ones(n), np.array(ds.get("w").values), np.array(ds.get("z1").values)]
        )
        scale = np.abs(Z).max() * np.abs(e).max() * n
        assert np.max(np.abs(Z.T @ e)) <= 1e-8 * scale

    def test_instrument_order_invariance(self):
        ds = iv_system(seed=5)
        m = model_spec(ds)
        a = tsls_fit(ds, TslsSpec(m, ("x",), (Term("z1"), Term("z2"))))
        b = tsls_fit(ds, TslsSpec(m, ("x",), (Term("z2"), Term("z1"))))
        assert a.estimates == pytest.approx(b.estimates, abs=1e-10)

    def test_order_condition_error(self):
        ds = iv_system()
        with pytest.raises(EstimationError, match="order condition"):
            TslsSpec(model=model_spec(ds), endogenous=("x", "w"), instruments=(Term("z1"),))

    def test_instrument_repeating_a_regressor_label_is_refused_at_construction(self):
        ds = iv_system()
        with pytest.raises(EstimationError, match="the label 'w' is repeated"):
            TslsSpec(model_spec(ds), ("x",), (Term("w"), Term("z1")))
        # with nothing instrumented there are no stages, and the spec is OLS
        TslsSpec(model_spec(ds), (), (Term("w"),))

    def test_unknown_endogenous_label_error(self):
        ds = iv_system()
        with pytest.raises(EstimationError, match="expected regressor labels, each one of x, w"):
            TslsSpec(model=model_spec(ds), endogenous=("nope",), instruments=(Term("z1"),))

    def test_weak_first_stage_rank_error(self):
        ds = iv_system()
        ds = Dataset({**ds.series, "w2": ds.get("w")})  # the exogenous column, another name
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("w2"),))
        with pytest.raises(EstimationError, match="rank deficient"):
            tsls_fit(ds, spec)

    def test_instrument_window_clips_the_sample(self):
        # the instruments share the model's window, as a regressor does
        ds = iv_system(seed=8)
        spec = TslsSpec(
            model=model_spec(ds), endogenous=("x",),
            instruments=(Term("z1", lag=5),),  # lag shifts coverage past 1900
        )
        fit = tsls_fit(ds, spec)
        assert fit.sample == (1905, 1959) and fit.n_obs == 55
        clipped = ModelSpec(Term("y"), (Term("x"), Term("w")), sample=(1905, 1959))
        want = tsls_fit(ds, TslsSpec(clipped, ("x",), (Term("z1", lag=5),)))
        assert fit.estimates.tolist() == want.estimates.tolist()

    def test_normal_p_values(self):
        from scipy import stats

        ds = iv_system(seed=13)
        spec = TslsSpec(model=model_spec(ds), endogenous=("x",), instruments=(Term("z1"), Term("z2")))
        fit = tsls_fit(ds, spec)
        c = fit.coefficient("x")
        assert c.p_value == pytest.approx(2 * stats.norm.sf(abs(c.t_stat)), rel=1e-12)
