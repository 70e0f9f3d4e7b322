"""The shared least-squares kernel: accuracy on badly scaled designs, its one
scale-free rank rule, and what every estimator does with a degenerate design.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsecon.cointegration import engle_granger
from tsecon.dataset import AnnualSeries, Term, parse_term
from tsecon.dynamics import ArSpec, GrangerSpec, chow_test, cochrane_orcutt_fit, granger_causality
from tsecon.pipeline import windowed_series
from tsecon.regress import EstimationError, ModelSpec, least_squares, ols_fit
from tsecon.tsls import TslsSpec, tsls_fit
from tsecon.unitroot import AdfSpec, adf_test
from tsecon.var import VarSpec, var_fit

from conftest import make_dataset


def exact_adf_tau(values, lags):
    """The constant-and-trend ADF tau of ``values`` in exact rational arithmetic.

    Every float is a rational, so the normal equations solved by Gauss-Jordan
    over ``Fraction`` give the exact coefficients and (X'X)^-1 of the rounded
    data; only the final square root is taken in floating point.
    """
    v = [Fraction(x) for x in values]
    dy = [b - a for a, b in zip(v, v[1:])]
    rows = len(v) - 1 - lags
    Y = dy[lags:]
    X = [[Fraction(1), Fraction(t + 1), v[lags + t]] + [dy[lags + t - i] for i in range(1, lags + 1)]
         for t in range(rows)]
    p = len(X[0])
    A = [[sum(r[i] * r[j] for r in X) for j in range(p)] + [Fraction(int(i == j)) for j in range(p)]
         for i in range(p)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if A[r][col] != 0)
        A[col], A[pivot] = A[pivot], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for r in range(p):
            if r != col and A[r][col] != 0:
                A[r] = [x - A[r][col] * y for x, y in zip(A[r], A[col])]
    inv = [row[p:] for row in A]
    xty = [sum(r[i] * y for r, y in zip(X, Y)) for i in range(p)]
    beta = [sum(inv[i][j] * xty[j] for j in range(p)) for i in range(p)]
    e = [y - sum(b * x for b, x in zip(beta, r)) for r, y in zip(X, Y)]
    s2 = sum(x * x for x in e) / (rows - p)
    return math.copysign(math.sqrt(float(beta[2] ** 2 / (s2 * inv[2][2]))), beta[2])


def test_adf_tau_of_gdp_levels_matches_exact_arithmetic(dataset):
    # ln(GDP) sits near 26: the lagged-level column dwarfs the constant
    series = windowed_series(dataset, parse_term("ln(GDP)"), (1975, 2010))
    want = exact_adf_tau(series.values, 1)
    got = adf_test(series, AdfSpec("constant_and_trend", 1)).t_stat
    assert abs(got - want) <= 1e-13 * abs(want)


def test_badly_scaled_regressor_matches_a_centred_reference():
    rng = np.random.default_rng(1)
    n = 40
    x = 1e9 + rng.normal(size=n)
    y = rng.normal(size=n)
    # two-pass centring: the mean, then the mean of what is left
    xm = x.mean()
    xm += (x - xm).mean()
    xc, yc = x - xm, y - y.mean()
    slope = (xc @ yc) / (xc @ xc)
    r = yc - slope * xc
    want = math.sqrt(float(r @ r) / (n - 2) / float(xc @ xc))
    fit = ols_fit(make_dataset(y=(1970, y), x=(1970, x)), ModelSpec(Term("y"), (Term("x"),)))
    assert fit.coefficient("x").std_error == pytest.approx(want, rel=1e-6)
    assert fit.coefficient("x").estimate == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
def test_t_statistics_do_not_depend_on_column_scale(toy_dataset, scale):
    spec = ModelSpec(Term("y"), (Term("x1"), Term("x2")))
    base = ols_fit(toy_dataset, spec)
    x1 = toy_dataset.get("x1")
    scaled = make_dataset(
        y=(1970, toy_dataset.get("y").values),
        x1=(1970, [scale * v for v in x1.values]),
        x2=(1970, toy_dataset.get("x2").values),
    )
    fit = ols_fit(scaled, spec)
    for label in ("const", "x1", "x2"):
        assert fit.coefficient(label).t_stat == pytest.approx(base.coefficient(label).t_stat, rel=1e-9)


def test_near_trend_adf_is_estimation_error():
    t = np.arange(40.0)
    values = 2.0 + 0.5 * t + 1e-9 * np.random.default_rng(2).normal(size=40)
    with pytest.raises(EstimationError,
                       match=r"^the ADF design \(constant_and_trend, 1 lags\) is rank deficient$"):
        adf_test(AnnualSeries("s", 1970, tuple(values)), AdfSpec("constant_and_trend", 1))


class TestKernel:
    def test_matrix_right_hand_side_solves_each_column(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        Y = rng.normal(size=(30, 3))
        fit = least_squares(X, Y)
        for j in range(3):
            col = least_squares(X, Y[:, j])
            np.testing.assert_allclose(fit.beta[:, j], col.beta, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(fit.residuals[:, j], col.residuals, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(fit.ssr[j, j], col.ssr, rtol=1e-12)

    def test_factor_is_the_designs_own(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(30), 1e6 * rng.normal(size=30), rng.normal(size=30)])
        R = least_squares(X, rng.normal(size=30)).R
        XtX = X.T @ X
        np.testing.assert_allclose(R.T @ R, XtX, rtol=0, atol=1e-12 * np.abs(XtX).max())
        assert np.array_equal(R, np.triu(R))

    def test_ols_standard_errors_match_the_normal_equations(self, toy_dataset):
        # a well-conditioned design, where inverting X'X loses nothing that matters
        spec = ModelSpec(Term("y"), (Term("x1"), Term("x2")))
        fit = ols_fit(toy_dataset, spec)
        X = np.column_stack([np.ones(40), toy_dataset.get("x1").values,
                             toy_dataset.get("x2").values])
        want = np.sqrt(fit.ssr / (40 - 3) * np.diag(np.linalg.inv(X.T @ X)))
        got = [c.std_error for c in fit.coefficients]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("column", [
        np.zeros(20),  # all zero
        np.full(20, 3.0),  # a second constant
        np.arange(20.0) * 1e-9,  # exactly the scaled third column
    ])
    def test_rank_rule_names_the_caller(self, column):
        X = np.column_stack([np.ones(20), column, np.arange(20.0)])
        with pytest.raises(EstimationError, match="^my design is rank deficient$"):
            least_squares(X, np.arange(20.0) ** 2, "my design")

    def test_result_does_not_depend_on_memory_layout(self):
        # a design and its Fortran-ordered copy give the same bits
        for seed in range(200):
            rng = np.random.default_rng(seed)
            X, y = rng.normal(size=(40, 5)), rng.normal(size=40)
            got, want = least_squares(np.asfortranarray(X), y), least_squares(X, y)
            for field in ("beta", "residuals", "R", "ssr", "df"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (seed, field)

    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "matrix"])
    def test_ssr_and_residual_variance_are_the_residuals_own(self, k):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        fit = least_squares(X, rng.normal(size=30 if k is None else (30, k)))
        E = fit.residuals
        assert fit.df == 30 - 3
        assert np.array_equal(fit.ssr, E.T @ E)
        assert np.array_equal(fit.s2, E.T @ E / (30 - 3))
        assert isinstance(fit.ssr, float) == (k is None)

    def test_more_columns_than_rows_is_too_few_observations(self):
        with pytest.raises(EstimationError, match="^the regression has 3 observations for 4 parameters$"):
            least_squares(np.eye(3, 4) + 1.0, np.ones(3))


def short_dataset(n):
    """Independent normal series y, x1-x3 and z1-z6 over ``n`` years from 2000."""
    rng = np.random.default_rng(n)
    names = ("y", "x1", "x2", "x3", "z1", "z2", "z3", "z4", "z5", "z6")
    return make_dataset(**{name: (2000, rng.normal(size=n)) for name in names})


def on_terms(*names):
    return tuple(Term(name) for name in names)


def model(*regressors):
    return ModelSpec(Term("y"), on_terms(*regressors))


def stage_one(n, instruments):
    return tsls_fit(short_dataset(n), TslsSpec(model("x1"), ("x1",), on_terms(*instruments)))


SHORT_FITS = {
    "ols": (lambda: ols_fit(short_dataset(3), model("x1", "x2")),
            "the OLS regression has 3 observations for 3 parameters"),
    # the constant and five instruments fit the endogenous column exactly
    "tsls_stage_one_exact": (lambda: stage_one(6, ("z1", "z2", "z3", "z4", "z5")),
                             "the 2SLS first stage has 6 observations for 6 parameters"),
    "tsls_stage_one_short": (lambda: stage_one(6, ("z1", "z2", "z3", "z4", "z5", "z6")),
                             "the 2SLS first stage has 6 observations for 7 parameters"),
    # five lags leave five rows for the disturbance regression's five coefficients
    "ar_disturbance_exact": (
        lambda: cochrane_orcutt_fit(short_dataset(10), ArSpec(model("x1"), (1, 2, 3, 4, 5))),
        "the AR disturbance regression has 5 observations for 5 parameters"),
    "ar_disturbance_short": (
        lambda: cochrane_orcutt_fit(short_dataset(8), ArSpec(model("x1"), (1, 2, 3, 4, 5))),
        "the AR disturbance regression has 3 observations for 5 parameters"),
    "ar_disturbance_no_rows": (
        lambda: cochrane_orcutt_fit(short_dataset(4), ArSpec(model("x1"), (5,))),
        "the AR disturbance regression has 0 observations for 1 parameters"),
    "ar_quasi_differenced": (
        lambda: cochrane_orcutt_fit(short_dataset(6), ArSpec(model("x1", "x2", "x3", "z1"), (1,))),
        "the quasi-differenced AR regression has 5 observations for 5 parameters"),
    "chow_from": (lambda: chow_test(short_dataset(12), model("x1"), 2010),
                  "the Chow sub-sample from 2010 has 2 observations for 2 parameters"),
    "granger_no_rows": (
        lambda: granger_causality(short_dataset(3), GrangerSpec(Term("x1"), Term("y"), 4)),
        "the Granger regression has 0 observations for 9 parameters"),
    "var_no_rows": (lambda: var_fit(short_dataset(2), VarSpec(on_terms("y", "x1"), 3)),
                    "the VAR(3) design has 0 observations for 7 parameters"),
    "adf_no_rows": (lambda: adf_test(short_dataset(3).get("y"), AdfSpec("constant", 4)),
                    "the ADF design (constant, 4 lags) has 0 observations for 6 parameters"),
    # the long-run fit has 7 rows for 2 coefficients; its residuals' test is too short
    "engle_granger_residual_test": (
        lambda: engle_granger(short_dataset(7), model("x1"), 3),
        "the ADF design (none, 3 lags) has 3 observations for 4 parameters"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fit", SHORT_FITS)
def test_every_fit_refuses_no_more_observations_than_parameters(fit):
    run, message = SHORT_FITS[fit]
    with pytest.raises(EstimationError) as info:
        run()
    assert str(info.value) == message


DEGENERATE = ("collinear", "near_collinear", "zero", "duplicate_constant")


def degenerate_dataset(kind, exponent, seed, n=32):
    """y, a regular x1, a degenerate x2 and an instrument z over ``n`` years."""
    rng = np.random.default_rng(seed)
    x1 = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
    scale = 10.0 ** exponent
    x2 = {
        "collinear": scale * x1,
        "near_collinear": x1 + 1e-13 * rng.normal(size=n),
        "zero": np.zeros(n),
        "duplicate_constant": np.full(n, scale),
    }[kind]
    y = 1.0 + 0.5 * x1 + rng.normal(size=n)
    z = x1 + rng.normal(size=n)
    return make_dataset(y=(1970, y), x1=(1970, x1), x2=(1970, x2), z=(1970, z))


def fit_numbers(fit):
    yield fit.ssr
    for c in fit.coefficients:
        yield c.estimate, c.std_error, c.t_stat, c.p_value


def reported_numbers(estimator, ds, spec):
    """Every number ``estimator`` reports for the model ``spec`` on ``ds``."""
    if estimator == "ols":
        yield from fit_numbers(ols_fit(ds, spec))
    elif estimator == "tsls":
        yield from fit_numbers(tsls_fit(ds, TslsSpec(spec, ("x2",), (Term("z"), Term("z", lag=1)))))
    elif estimator == "ar":
        res = cochrane_orcutt_fit(ds, ArSpec(spec, (1,)))
        yield res.rho
        yield from fit_numbers(res.structural)
    elif estimator == "chow":
        res = chow_test(ds, spec, 1986)
        yield res.f_stat, res.p_value
    elif estimator == "granger":
        for e in granger_causality(ds, GrangerSpec(Term("x2"), Term("x1"), 2)).pairs:
            yield e.f_stat, e.p_value
    elif estimator == "var":
        model = var_fit(ds, VarSpec((Term("x1"), Term("x2")), 1))
        yield from (model.intercepts, *model.coefficient_matrices, model.residual_cov)
    else:
        res = adf_test(ds.get("x2"), AdfSpec("constant", 1))
        yield res.t_stat, res.p_value


ESTIMATORS = ("adf", "ar", "chow", "granger", "ols", "tsls", "var")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("estimator", ESTIMATORS)
@given(kind=st.sampled_from(DEGENERATE), exponent=st.integers(-8, 8),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_degenerate_design_is_finite_or_estimation_error(estimator, kind, exponent, seed):
    ds = degenerate_dataset(kind, exponent, seed)
    spec = ModelSpec(Term("y"), (Term("x1"), Term("x2")), sample=(1971, 2001))
    try:
        numbers = [np.ravel(np.asarray(v, float)) for v in reported_numbers(estimator, ds, spec)]
    except EstimationError:
        return
    assert np.all(np.isfinite(np.concatenate(numbers)))
