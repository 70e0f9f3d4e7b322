import numpy as np
import pytest

from tsecon.cointegration import engle_granger
from tsecon.dataset import AnnualSeries, Dataset, Term
from tsecon.regress import EstimationError, ModelSpec

from conftest import make_dataset


def cointegrated_pair(seed, n=200, slope=1.0, phi=0.5):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=n))
    noise = np.zeros(n)
    e = rng.normal(size=n)
    for t in range(1, n):
        noise[t] = phi * noise[t - 1] + e[t]
    y = slope * x + noise
    return make_dataset(y=(1800, y), x=(1800, x))


def independent_walks(seed, n=200):
    rng = np.random.default_rng(seed)
    return make_dataset(
        y=(1800, np.cumsum(rng.normal(size=n))),
        x=(1800, np.cumsum(rng.normal(size=n))),
    )


SPEC = ModelSpec(dependent=Term("y"), regressors=(Term("x"),), include_constant=True)
I1_FLAGS = {"y": 1, "x": 1}


class TestEngleGranger:
    def test_cointegrated_by_construction(self):
        hits, slopes = 0, []
        for seed in range(20):
            res = engle_granger(cointegrated_pair(seed), SPEC, 1, I1_FLAGS)
            hits += res.cointegrated
            slopes.append(res.long_run.coefficient("x").estimate)
        assert hits >= 19
        assert np.median(slopes) == pytest.approx(1.0, abs=0.05)

    def test_independent_walks_mostly_rejected(self):
        false_hits = sum(
            engle_granger(independent_walks(seed), SPEC, 1, I1_FLAGS).cointegrated
            for seed in range(20)
        )
        assert false_hits <= 2  # >= 90% classified non-cointegrated

    def test_residuals_passed_through_unchanged(self):
        ds = cointegrated_pair(0)
        res = engle_granger(ds, SPEC, 1, I1_FLAGS)
        assert res.residual_test.series_name == res.long_run.residuals.name
        # re-running the residual test on the stored series reproduces it
        from tsecon.unitroot import df_residual_test

        again = df_residual_test(res.long_run.residuals, 1, n_vars=2)
        assert again.t_stat == res.residual_test.t_stat

    def test_regressor_reordering_invariance(self):
        ds = cointegrated_pair(4)
        rng = np.random.default_rng(99)
        z = np.cumsum(rng.normal(size=200))
        ds = Dataset({**ds.series, "z": AnnualSeries("z", 1800, tuple(z))})
        spec_a = ModelSpec(Term("y"), (Term("x"), Term("z")), include_constant=True)
        spec_b = ModelSpec(Term("y"), (Term("z"), Term("x")), include_constant=True)
        flags = {"y": 1, "x": 1, "z": 1}
        a = engle_granger(ds, spec_a, 1, flags)
        b = engle_granger(ds, spec_b, 1, flags)
        assert np.allclose(a.long_run.residuals.values, b.long_run.residuals.values, atol=1e-10)
        assert a.cointegrated == b.cointegrated
        assert a.residual_test.t_stat == pytest.approx(b.residual_test.t_stat, abs=1e-10)

    def test_i0_input_rejected(self):
        ds = cointegrated_pair(1)
        with pytest.raises(EstimationError, match=r"I\(0\)"):
            engle_granger(ds, SPEC, 1, {"y": 1, "x": 0})

    def test_missing_flag_rejected(self):
        ds = cointegrated_pair(1)
        with pytest.raises(EstimationError, match="no integration order"):
            engle_granger(ds, SPEC, 1, {"y": 1})

    def test_residual_surface_uses_relation_size(self):
        ds = cointegrated_pair(2)
        res = engle_granger(ds, SPEC, 1, I1_FLAGS)
        assert res.residual_test.n_vars == 2


def test_more_variables_than_the_response_surfaces_is_estimation_error():
    names = [f"x{i}" for i in range(7)]
    rng = np.random.default_rng(5)
    ds = make_dataset(**{n: (1970, np.cumsum(rng.normal(size=40))) for n in names})
    spec = ModelSpec(Term(names[0]), tuple(Term(n) for n in names[1:]), include_constant=False)
    with pytest.raises(EstimationError, match="cover at most 6 variables; the long-run relation has 7"):
        engle_granger(ds, spec, 1)
