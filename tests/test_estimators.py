import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cceff import (
    CaseControlTable,
    DesignParams,
    Method,
    NotConverged,
    PopulationParams,
    Separation,
    ZeroCell,
    ZeroMargin,
    bias_delta,
    expected_table,
    fit_adjusted,
    fit_constrained,
    fit_marginal,
    limiting_value,
    sample_table,
    sigma_A_sq,
    sigma_AC_sq,
    wald_test,
)
from cceff.errors import CCEffError, InfeasibleStart

import oracles


def table_from(cells):
    """cells[(d, i, j)] -> CaseControlTable."""
    w = np.zeros((2, 2, 2))
    for (d, i, j), v in cells.items():
        w[d, i, j] = v
    return CaseControlTable(w)


def collapsed_table(n11, n10, n01, n00):
    """A table whose (d, e) collapse has the given cells, X split evenly."""
    w = np.zeros((2, 2, 2))
    w[1, :, 1] = n11 / 2.0
    w[1, :, 0] = n10 / 2.0
    w[0, :, 1] = n01 / 2.0
    w[0, :, 0] = n00 / 2.0
    return CaseControlTable(w)


@pytest.fixture
def canonical_table(canonical, balanced_design):
    return expected_table(canonical, balanced_design)


positive_cells = st.lists(st.floats(0.5, 500.0), min_size=8, max_size=8)


class TestCaseControlTable:
    def test_margins_and_nu(self):
        t = collapsed_table(30.0, 20.0, 20.0, 30.0)
        assert t.n == 100.0
        assert t.n_cases == 50.0
        assert t.nu == 1.0
        assert_allclose(t.collapsed(), [[30.0, 20.0], [20.0, 30.0]], rtol=0)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            CaseControlTable(np.ones((2, 2)))
        w = np.ones((2, 2, 2))
        w[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            CaseControlTable(w)
        w = np.ones((2, 2, 2))
        w[1] = 0.0  # no cases at all
        with pytest.raises(ValueError):
            CaseControlTable(w)


class TestMarginal:
    def test_symmetric_table(self):
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        assert fit.gamma_hat == 0.0
        assert fit.se_gamma == pytest.approx(math.sqrt(4.0 / 25.0), rel=1e-15)

    def test_direct_formula(self):
        fit = fit_marginal(collapsed_table(30.0, 20.0, 20.0, 30.0))
        assert_allclose(fit.gamma_hat, math.log(9.0 / 4.0), rtol=1e-14)
        assert_allclose(fit.se_gamma, math.sqrt(1 / 30 + 1 / 20 + 1 / 20 + 1 / 30), rtol=1e-14)
        # intercept of the collapsed prospective fit
        assert_allclose(fit.params[0], math.log(20.0 / 30.0), rtol=1e-14)

    def test_zero_cell_raises_without_correction(self):
        t = collapsed_table(0.0, 20.0, 20.0, 30.0)
        with pytest.raises(ZeroCell):
            fit_marginal(t)

    def test_continuity_correction(self):
        t = collapsed_table(0.0, 20.0, 20.0, 30.0)
        fit = fit_marginal(t, continuity_correction=True)
        want = math.log(0.5 / 20.5) - math.log(20.5 / 30.5)
        assert_allclose(fit.gamma_hat, want, rtol=1e-14)
        assert fit.corrected

    def test_recovers_population_marginal_logor(self, canonical_table):
        fit = fit_marginal(canonical_table)
        want = 0.3 + bias_delta(-2.0, 1.0, 0.3, 0.4)
        assert abs(fit.gamma_hat - want) <= 1e-10

    def test_loglik_is_maximized_binomial(self):
        t = collapsed_table(30.0, 20.0, 20.0, 30.0)
        fit = fit_marginal(t)
        m = t.collapsed()
        want = sum(
            m[d, e] * math.log(m[d, e] / m[:, e].sum())
            for d in (0, 1) for e in (0, 1)
        )
        assert_allclose(fit.loglik, want, rtol=1e-13)


class TestAdjusted:
    def test_null_effects_on_exact_table(self):
        p = PopulationParams(alpha=-1.0, beta=0.0, gamma=0.0, theta=0.3, pi=0.6)
        fit = fit_adjusted(expected_table(p, DesignParams(nu=1.5, n=5000.0)))
        assert abs(fit.params[1]) <= 1e-12
        assert abs(fit.params[2]) <= 1e-12

    def test_recovers_gamma_on_expected_table(self, canonical_table):
        fit = fit_adjusted(canonical_table)
        assert abs(fit.gamma_hat - 0.3) <= 1e-8
        assert abs(fit.params[1] - 1.0) <= 1e-8

    def test_se_matches_stratified_variance(self, canonical, canonical_table):
        fit = fit_adjusted(canonical_table)
        want = math.sqrt(sigma_A_sq(canonical, 1.0) / canonical_table.n)
        assert abs(fit.se_gamma - want) <= 1e-8 * want

    def test_score_vanishes_at_optimum(self, canonical):
        t = sample_table(canonical, DesignParams(nu=1.0, n=5000), seed=1, replicate_index=0)
        fit = fit_adjusted(t)
        a, b, g = fit.params
        mt = t.w / t.n
        resid = mt[1] - mt.sum(axis=0) * np.array(
            [[oracles._sigmoid(a + b * i + g * j) for j in (0, 1)] for i in (0, 1)]
        )
        score = [resid.sum(), resid[1].sum(), resid[:, 1].sum()]
        assert np.max(np.abs(score)) <= 1e-10

    def test_zero_margin(self):
        w = np.ones((2, 2, 2))
        w[:, 1, :] = 0.0  # covariate stratum X=1 empty
        with pytest.raises(ZeroMargin, match="^a covariate stratum contains no observations$"):
            fit_adjusted(CaseControlTable(w))

    def test_zero_exposure_margin(self):
        w = np.ones((2, 2, 2))
        w[:, :, 0] = 0.0  # exposure stratum E=0 empty
        with pytest.raises(ZeroMargin, match="^an exposure stratum contains no observations$"):
            fit_adjusted(CaseControlTable(w))

    def test_separation(self):
        cells = {(1, i, 1): 25.0 for i in (0, 1)}
        cells.update({(0, i, 0): 25.0 for i in (0, 1)})
        # cases all exposed, controls all unexposed: infinite MLE
        with pytest.raises(Separation):
            fit_adjusted(table_from(cells))


class TestConstrained:
    def test_recovers_truth_on_expected_table(self, canonical, canonical_table):
        fit = fit_constrained(canonical_table, canonical.f)
        assert_allclose(fit.params, (1.0, 0.3, 0.4, 0.5), atol=1e-9)
        assert abs(fit.alpha_hat - (-2.0)) <= 1e-9
        assert fit.f == canonical.f
        assert fit.method is Method.ADJCON

    def test_constraint_satisfied_at_estimate(self, canonical):
        from cceff import prevalence_at

        t = sample_table(canonical, DesignParams(nu=1.0, n=3000), seed=5, replicate_index=2)
        fit = fit_constrained(t, canonical.f)
        beta, gamma, theta, pi = fit.params
        f_hat = prevalence_at(fit.alpha_hat, beta, gamma, theta, pi)
        assert abs(f_hat - canonical.f) <= 1e-10

    def test_se_matches_information_variance(self, canonical, canonical_table):
        fit = fit_constrained(canonical_table, canonical.f)
        want = math.sqrt(sigma_AC_sq(canonical, 1.0) / canonical_table.n)
        assert abs(fit.se_gamma - want) <= 1e-6 * want

    def test_misspecified_f_converges_to_limiting_value(self, canonical, balanced_design):
        f1 = canonical.f * 1.2
        t = expected_table(canonical, balanced_design)
        fit = fit_constrained(t, f1)
        limit = limiting_value(canonical, balanced_design, f1)
        assert_allclose(fit.params, limit.s_star, atol=1e-8)

    def test_sandwich_covariance_on_request(self, canonical, canonical_table):
        fit = fit_constrained(canonical_table, canonical.f, f_misspecified=True)
        assert fit.cov_sandwich is not None
        # at the exact expected table with the true f, sandwich equals inverse information
        assert_allclose(fit.cov_sandwich, fit.cov, rtol=1e-6, atol=1e-12)

    def test_beta_zero_matches_marginal(self):
        p = PopulationParams(alpha=-1.5, beta=0.0, gamma=0.4, theta=0.3, pi=0.5)
        t = expected_table(p, DesignParams(nu=1.0, n=50000.0))
        fc = fit_constrained(t, p.f)
        fm = fit_marginal(t)
        assert abs(fc.gamma_hat - fm.gamma_hat) <= 1e-6
        assert fc.se_gamma / fm.se_gamma == pytest.approx(1.0, abs=1e-4)

    def test_infeasible_f(self, canonical_table):
        with pytest.raises(InfeasibleStart):
            fit_constrained(canonical_table, 1.5)

    def test_observed_information_positive_definite(self, canonical):
        from cceff._constrained import loglik_grad_hess_s

        t = sample_table(canonical, DesignParams(nu=1.0, n=4000), seed=3, replicate_index=1)
        fit = fit_constrained(t, canonical.f)
        _, _, _, hess = loglik_grad_hess_s(t.w / t.n, canonical.f, np.asarray(fit.params))
        eigs = np.linalg.eigvalsh(-hess)
        assert eigs.min() > 0.0

    def test_analytic_gradient_matches_finite_differences(self, canonical):
        from cceff._constrained import loglik_grad_hess_s

        t = sample_table(canonical, DesignParams(nu=1.0, n=4000), seed=13, replicate_index=0)
        w = t.w / t.n
        s = np.array([0.9, 0.25, 0.42, 0.51])
        _, _, grad, _ = loglik_grad_hess_s(w, canonical.f, s)
        for k in range(4):
            def slice_k(x, k=k):
                sk = s.copy()
                sk[k] = x
                return loglik_grad_hess_s(w, canonical.f, sk)[1]

            fd = oracles.fd_derivative(slice_k, s[k], h=1e-6 * (1.0 + abs(s[k])))
            assert abs(grad[k] - fd) <= 1e-6 * (1.0 + abs(fd))


class TestInvariances:
    @given(cells=positive_cells, scale=st.floats(0.01, 100.0))
    def test_scale_equivariance(self, cells, scale):
        w = np.array(cells).reshape(2, 2, 2)
        t1 = CaseControlTable(w)
        t2 = CaseControlTable(w * scale)
        for fitter in (fit_marginal, fit_adjusted):
            try:
                r1 = fitter(t1)
            except (ZeroCell, ZeroMargin, Separation):
                continue
            r2 = fitter(t2)
            assert_allclose(r2.gamma_hat, r1.gamma_hat, rtol=1e-9, atol=1e-12)
            assert_allclose(r2.cov, r1.cov / scale, rtol=1e-7, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(cells=positive_cells, scale=st.floats(0.01, 100.0))
    # Its Newton iteration pushes logit theta toward the box edge; past about
    # 37, expit rounds to 1.0 and log1p(-theta) divides by zero.
    @example(cells=[3894.299527023667] + [0.5] * 7, scale=0.01)
    def test_scale_equivariance_constrained(self, cells, scale):
        w = np.array(cells).reshape(2, 2, 2)
        t1 = CaseControlTable(w)
        f = 0.3
        try:
            r1 = fit_constrained(t1, f)
        except CCEffError:
            return
        r2 = fit_constrained(CaseControlTable(w * scale), f)
        assert_allclose(r2.params, r1.params, rtol=1e-6, atol=1e-7)
        assert_allclose(r2.cov, r1.cov / scale, rtol=1e-6, atol=1e-12)

    def test_exposure_label_swap_negates_gamma(self, canonical):
        t = sample_table(canonical, DesignParams(nu=1.0, n=6000), seed=21, replicate_index=4)
        swapped = CaseControlTable(t.w[:, :, ::-1])
        for fitter in (
            fit_marginal,
            fit_adjusted,
            lambda tt: fit_constrained(tt, canonical.f),
        ):
            r, rs = fitter(t), fitter(swapped)
            assert abs(rs.gamma_hat + r.gamma_hat) <= 1e-10
            assert abs(rs.se_gamma - r.se_gamma) <= 1e-10


class TestWald:
    def test_zero_estimate(self):
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        res = wald_test(fit)
        assert res.z == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_p_value_matches_normal_tail(self):
        t = collapsed_table(30.0, 20.0, 20.0, 30.0)
        fit = fit_marginal(t)
        res = wald_test(fit, level=0.05)
        z = fit.gamma_hat / fit.se_gamma
        want = 2.0 * (1.0 - statistics.NormalDist().cdf(abs(z)))
        assert_allclose(res.p_value, want, rtol=1e-12)
        assert res.z == pytest.approx(z, rel=1e-15)

    def test_z_two_point_five(self):
        # p = 2(1 - Phi(2.5)), checked against a high-precision erfc value
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        object.__setattr__(fit, "gamma_hat", 2.5 * fit.se_gamma)
        res = wald_test(fit)
        assert_allclose(res.p_value, 0.012419330651552318, rtol=1e-13)
        assert res.reject

    def test_reject_consistent_with_strict_inequality(self):
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        for mult in (1.959, 1.961, 2.5, 0.3):
            object.__setattr__(fit, "gamma_hat", mult * fit.se_gamma)
            res = wald_test(fit, level=0.05)
            assert res.reject == (res.p_value < 0.05)

    def test_requires_convergence(self):
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        object.__setattr__(fit, "converged", False)
        with pytest.raises(NotConverged):
            wald_test(fit)

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_level_outside_unit_interval_rejected(self, level):
        fit = fit_marginal(collapsed_table(30.0, 20.0, 20.0, 30.0))
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            wald_test(fit, level=level)
