import numpy as np
import pytest

from tsecon.dataset import Term
from tsecon.regress import EstimationError, ModelSpec, ols_fit
from tsecon.var import VarModel, VarSpec, impulse_response, var_fit, variance_decomposition

from conftest import make_dataset


def simulated_var1(seed, n, A, sigma=None):
    rng = np.random.default_rng(seed)
    k = A.shape[0]
    chol = np.linalg.cholesky(sigma) if sigma is not None else np.eye(k)
    Y = np.zeros((n, k))
    for t in range(1, n):
        Y[t] = A @ Y[t - 1] + chol @ rng.normal(size=k)
    return Y


def manual_model(A_list, sigma, labels=("a", "b")):
    return VarModel(
        labels=tuple(labels),
        p=len(A_list),
        intercepts=np.zeros(len(labels)),
        coefficient_matrices=tuple(np.asarray(A) for A in A_list),
        residual_cov=np.asarray(sigma, float),
        sample=(2000, 2010),
        n_effective=10,
    )


class TestVarFit:
    def test_equation_by_equation_oracle(self):
        Y = simulated_var1(4, 10, np.array([[0.5, 0.1], [-0.2, 0.3]]))
        ds = make_dataset(a=(2000, Y[:, 0]), b=(2000, Y[:, 1]))
        model = var_fit(ds, VarSpec((Term("a"), Term("b")), 1))
        for i, dep in enumerate(("a", "b")):
            spec = ModelSpec(Term(dep), (Term("a", lag=1), Term("b", lag=1)))
            fit = ols_fit(ds, spec)
            assert model.intercepts[i] == pytest.approx(fit.coefficient("const").estimate, abs=1e-10)
            assert model.coefficient_matrices[0][i, 0] == pytest.approx(
                fit.coefficient("a(-1)").estimate, abs=1e-10
            )
            assert model.coefficient_matrices[0][i, 1] == pytest.approx(
                fit.coefficient("b(-1)").estimate, abs=1e-10
            )

    def test_consistency_on_known_dgp(self):
        A = np.diag([0.5, 0.3])
        hits = 0
        for seed in range(5):
            Y = simulated_var1(seed, 2000, A)
            ds = make_dataset(a=(1, Y[:, 0]), b=(1, Y[:, 1]))
            model = var_fit(ds, VarSpec((Term("a"), Term("b")), 1))
            if np.max(np.abs(model.coefficient_matrices[0] - A)) < 0.05:
                hits += 1
        assert hits >= 4

    def test_residual_cov_properties(self, dataset):
        model = var_fit(dataset, VarSpec(
            (Term("Total investment", "ln"), Term("GDP", "ln"), Term("Real interest rate", "ln")),
            4,
            (1970, 2010),
        ))
        S = model.residual_cov
        assert np.max(np.abs(S - S.T)) <= 1e-12
        assert np.all(np.diag(S) >= 0)
        assert model.n_effective == 37

    def test_insufficient_sample_error(self):
        ds = make_dataset(a=(2000, np.arange(6.0)), b=(2000, np.arange(6.0) ** 1.1))
        with pytest.raises(EstimationError, match=r"^the VAR\(2\) design has 4 observations for 5 parameters$"):
            var_fit(ds, VarSpec((Term("a"), Term("b")), 2))


    @pytest.mark.parametrize("variables, message", [
        ((Term("a", label="A"), Term("b", label="A")), "the label 'A' is repeated"),
        ((), "a VAR needs at least one variable"),
    ])
    def test_labels_are_one_or_more_each_given_once(self, variables, message):
        # responses are looked up by label, so a repeated one would hide a variable's
        ds = make_dataset(a=(2000, np.arange(1.0, 21.0)), b=(2000, np.arange(1.0, 21.0) ** 1.5))
        with pytest.raises(EstimationError, match=f"^{message}$"):
            var_fit(ds, VarSpec(variables, 1))


class TestImpulseResponse:
    def test_no_dynamics_case(self):
        model = manual_model([np.zeros((2, 2))], np.eye(2))
        irf = impulse_response(model, 5)
        assert np.allclose(irf.responses[:, :, 0], np.eye(2))
        assert np.allclose(irf.responses[:, :, 1:], 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("analysis", [impulse_response, variance_decomposition])
    def test_overflowing_responses_are_an_error(self, analysis):
        # step 1 is 1e200; step 2 overflows, and inf times a zero entry is NaN
        model = manual_model([np.array([[1e200, 0.0], [0.0, 0.5]])], np.eye(2))
        with pytest.raises(EstimationError, match="^impulse responses are not finite within 3 steps$"):
            analysis(model, 3)

    def test_matrix_power_oracle(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.4]])
        sigma = np.array([[1.0, 0.3], [0.3, 0.5]])
        model = manual_model([A], sigma)
        irf = impulse_response(model, 10)
        P = np.linalg.cholesky(sigma)
        for h in range(11):
            theta = np.linalg.matrix_power(A, h) @ P
            # responses are indexed [shock, respond, step]
            assert np.max(np.abs(irf.responses[:, :, h].T - theta)) <= 1e-10

    def test_step0_is_cholesky_factor(self):
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        model = manual_model([np.zeros((2, 2))], sigma)
        irf = impulse_response(model, 1)
        P = np.linalg.cholesky(sigma)
        assert np.allclose(irf.responses[:, :, 0].T, P)
        # lower-triangular: earlier-ordered variable does not react to later shocks
        assert irf.response("b", "a")[0] == 0.0

    def test_stable_model_decays(self):
        A = np.array([[0.6, 0.1], [0.0, 0.5]])
        model = manual_model([A], np.eye(2))
        irf = impulse_response(model, 60)
        assert np.max(np.abs(irf.responses[:, :, 60])) < 1e-8

    def test_unorthogonalized_recursion_order_free(self, dataset):
        terms = (
            Term("Total investment", "ln", label="K"),
            Term("GDP", "ln", label="Y"),
            Term("Real interest rate", "ln", label="r"),
        )
        m1 = var_fit(dataset, VarSpec(terms, 2, (1970, 2010)))
        m2 = var_fit(dataset, VarSpec(terms[::-1], 2, (1970, 2010)))
        from tsecon.var import _ma_matrices

        psi1 = _ma_matrices(m1, 6)
        psi2 = _ma_matrices(m2, 6)
        # permuting variables permutes rows/columns of each Psi identically
        perm = [2, 1, 0]
        for a, b in zip(psi1, psi2):
            assert np.allclose(a, b[np.ix_(perm, perm)], atol=1e-8)

    def test_recursion_matches_the_loop_reference(self, dataset):
        # Psi_h = A_1 Psi_{h-1} + ... + A_m Psi_{h-m}, summed in lag order: equal bit for bit
        from tsecon.var import _ma_matrices

        terms = (Term("Total investment", "ln"), Term("GDP", "ln"), Term("Real interest rate", "ln"))
        model = var_fit(dataset, VarSpec(terms, 4, (1970, 2010)))
        psi = [np.eye(3)]
        for h in range(1, 11):
            M = np.zeros((3, 3))
            for i in range(1, min(h, 4) + 1):
                M = M + model.coefficient_matrices[i - 1] @ psi[h - i]
            psi.append(M)
        assert np.array_equal(_ma_matrices(model, 10), psi)

    def test_diagonal_cov_ordering_invariance(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.4]])
        sigma = np.diag([1.0, 0.5])
        m_ab = manual_model([A], sigma, labels=("a", "b"))
        perm = np.array([[0, 1], [1, 0]])
        m_ba = manual_model([perm @ A @ perm], perm @ sigma @ perm, labels=("b", "a"))
        i_ab = impulse_response(m_ab, 6)
        i_ba = impulse_response(m_ba, 6)
        assert np.allclose(i_ab.response("a", "b"), i_ba.response("a", "b"), atol=1e-12)

    def test_semidefinite_fallback_flag(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular
        model = manual_model([np.zeros((2, 2))], sigma)
        with pytest.warns(UserWarning, match="not positive definite"):
            irf = impulse_response(model, 2)
        assert irf.cholesky_failed


class TestFevd:
    def test_shares_sum_to_one(self, dataset):
        model = var_fit(dataset, VarSpec(
            (Term("Total investment", "ln"), Term("GDP", "ln"), Term("Real interest rate", "ln")),
            4,
            (1970, 2010),
        ))
        fevd = variance_decomposition(model, 10)
        assert np.max(np.abs(fevd.shares.sum(axis=2) - 1.0)) <= 1e-10

    def test_decoupled_system_all_own_shock(self):
        A = np.diag([0.5, 0.3])
        model = manual_model([A], np.diag([1.0, 2.0]))
        fevd = variance_decomposition(model, 8)
        for j in range(2):
            assert np.allclose(fevd.shares[j, :, j], 1.0, atol=1e-12)

    def test_matches_hand_computation_from_theta(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.4]])
        sigma = np.array([[1.0, 0.3], [0.3, 0.5]])
        model = manual_model([A], sigma)
        fevd = variance_decomposition(model, 6)
        P = np.linalg.cholesky(sigma)
        theta = [np.linalg.matrix_power(A, h) @ P for h in range(7)]
        for j in range(2):
            for h in range(7):
                num = np.array(
                    [sum(theta[l][j, s] ** 2 for l in range(h + 1)) for s in range(2)]
                )
                assert np.allclose(fevd.shares[j, h, :], num / num.sum(), atol=1e-12)

    def test_degenerate_variance_is_an_error(self):
        zero = manual_model([np.zeros((2, 2))], np.zeros((2, 2)))  # no shock moves anything
        with pytest.warns(UserWarning, match="not positive definite"):
            with pytest.raises(EstimationError, match="zero forecast-error variance"):
                variance_decomposition(zero, 3)
        nan = manual_model([np.full((2, 2), np.nan)], np.eye(2))  # NaN responses from step 1 on
        with pytest.raises(EstimationError, match="^impulse responses are not finite within 3 steps$"):
            variance_decomposition(nan, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squared_responses_are_an_error(self):
        # the step-1 responses (up to 1e200) are finite, but their squares overflow
        model = manual_model([np.array([[1e200, 0.0], [0.0, 0.5]])], np.eye(2))
        with pytest.raises(EstimationError,
                           match="^forecast-error variances are not finite within 1 steps$"):
            variance_decomposition(model, 1)
