import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cceff import (
    InvalidInput,
    Method,
    PopulationParams,
    VacuousMinimizer,
    alpha_from_prevalence,
    asymptotic_constants,
    asymptotic_power,
    attenuation_slope,
    b_factors,
    bias_delta,
    bias_minimizer,
    lambda0,
    lambda_ratio,
    pitman_are_M_vs_A,
    pitman_are_M_vs_AC,
    pitman_tau,
    prevalence_at,
    sigma0_sq,
    sigma_A_sq,
    sigma_AC_sq,
    sigma_M_sq,
    theory_curve,
)

import oracles
from _grids import domain_edges, domain_message, draw_params


def params_at(alpha, beta, gamma, theta, pi):
    return PopulationParams(alpha=alpha, beta=beta, gamma=gamma, theta=theta, pi=pi)


class TestBiasDelta:
    def test_beta_zero_is_exactly_zero(self):
        assert bias_delta(-1.0, 0.0, 0.7, 0.3) == 0.0

    def test_gamma_zero_is_exactly_zero(self):
        assert bias_delta(-1.0, 1.5, 0.0, 0.3) == 0.0

    def test_population_identity_on_random_grid(self):
        # gamma + delta must equal the marginal log odds ratio of the joint
        rng = np.random.default_rng(10)
        for alpha, beta, gamma, theta, pi, _ in draw_params(rng, 500):
            want = oracles.enum_marginal_logor(alpha, beta, gamma, theta, pi)
            got = gamma + bias_delta(alpha, beta, gamma, theta)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_positive_alpha_branch(self):
        # alpha > 0 exercises the overflow-avoiding branch
        want = oracles.enum_marginal_logor(8.0, 2.0, 1.0, 0.3, 0.5)
        got = 1.0 + bias_delta(8.0, 2.0, 1.0, 0.3)
        assert_allclose(got, want, rtol=1e-12)

    def test_fig_point(self):
        alpha = alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5)
        want = oracles.enum_marginal_logor(alpha, 1.0, 0.3, 0.4, 0.5)
        assert abs(0.3 + bias_delta(alpha, 1.0, 0.3, 0.4) - want) <= 1e-12

    def test_marginal_odds_ratio_rounding_to_zero_is_invalid_input(self):
        # Inside the PopulationParams bounds, the log1p argument rounds to -1 or below.
        with pytest.raises(InvalidInput, match="marginal odds ratio rounds to 0"):
            bias_delta(-50.0, 50.0, 50.0, 0.5)

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(11)
        for alpha, beta, gamma, theta, pi, _ in draw_params(rng, 500):
            gpd = gamma + bias_delta(alpha, beta, gamma, theta)
            assert abs(gpd) <= abs(gamma) + 1e-12
            if abs(beta) > 1e-3 and abs(gamma) > 1e-3:
                assert abs(gpd) < abs(gamma)


class TestBFactors:
    def test_beta_zero_exact(self):
        assert b_factors(0.0, 0.37) == (1.0, 1.0)

    def test_ordering(self):
        rng = np.random.default_rng(12)
        for _, beta, _, theta, _, _ in draw_params(rng, 200):
            b1, b2 = b_factors(beta, theta)
            assert b1 >= b2 > 0.0

    def test_closed_forms(self):
        b1, b2 = b_factors(1.0, 0.4)
        assert_allclose(b1, 1.0 + (math.e - 1.0) * 0.6, rtol=1e-15)
        assert_allclose(b2, math.e / (1.0 + 0.4 * (math.e - 1.0)), rtol=1e-15)


class TestBiasMinimizer:
    def test_closed_form(self):
        b1, b2 = b_factors(1.0, 0.4)
        a_star, f_star = bias_minimizer(1.0, 0.3, 0.4, 0.5)
        assert_allclose(a_star, -0.5 * (math.log(b1 * b2) + 0.3), rtol=1e-14)
        assert_allclose(f_star, prevalence_at(a_star, 1.0, 0.3, 0.4, 0.5), rtol=1e-14)

    def test_delta_magnitude_maximized_at_alpha_star(self):
        # |delta| peaks at alpha*, so |gamma + delta| is smallest there
        a_star, _ = bias_minimizer(1.0, 0.3, 0.4, 0.5)
        d_star = abs(bias_delta(a_star, 1.0, 0.3, 0.4))
        for a in np.linspace(a_star - 5.0, a_star + 5.0, 1001):
            assert abs(bias_delta(a, 1.0, 0.3, 0.4)) <= d_star + 1e-12

    def test_stationary_point(self):
        a_star, _ = bias_minimizer(-0.8, 0.5, 0.3, 0.6)
        fd = oracles.fd_derivative(lambda a: bias_delta(a, -0.8, 0.5, 0.3), a_star, 1e-6)
        assert abs(fd) <= 1e-8

    def test_covariate_relabel_symmetry(self):
        # relabeling X -> 1-X maps (alpha, beta, theta) -> (alpha+beta, -beta,
        # 1-theta) and leaves delta, f*, and both variances unchanged
        rng = np.random.default_rng(13)
        for alpha, beta, gamma, theta, pi, nu in draw_params(rng, 200):
            assert_allclose(
                bias_delta(alpha + beta, -beta, gamma, 1.0 - theta),
                bias_delta(alpha, beta, gamma, theta),
                rtol=1e-10, atol=1e-14,
            )
            a1, f1 = bias_minimizer(beta, gamma, theta, pi)
            a2, f2 = bias_minimizer(-beta, gamma, 1.0 - theta, pi)
            assert_allclose(a2, a1 + beta, rtol=1e-12, atol=1e-13)
            assert_allclose(f2, f1, rtol=1e-12)
            p1 = params_at(alpha, beta, gamma, theta, pi)
            p2 = params_at(alpha + beta, -beta, gamma, 1.0 - theta, pi)
            assert_allclose(sigma_M_sq(p2, nu), sigma_M_sq(p1, nu), rtol=1e-12)
            assert_allclose(sigma_A_sq(p2, nu), sigma_A_sq(p1, nu), rtol=1e-12)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.3), (1.0, 0.0), (0.0, 0.0)])
    def test_vacuous_cases(self, beta, gamma):
        with pytest.raises(VacuousMinimizer):
            bias_minimizer(beta, gamma, 0.4, 0.5)


class TestVariances:
    def test_sigma0_direct(self):
        assert sigma0_sq(1.0, 0.5) == pytest.approx(16.0, rel=1e-15)
        assert sigma0_sq(2.0, 0.5) == pytest.approx((2 + 2 + 0.5) / 0.25, rel=1e-13)

    def test_sigma_M_at_null_is_sigma0(self):
        p = params_at(-2.0, 1.0, 0.0, 0.4, 0.5)
        assert_allclose(sigma_M_sq(p, 1.0), 16.0, rtol=1e-12)

    def test_sigma_M_continuity_near_null(self):
        p0 = params_at(-2.0, 1.0, 0.0, 0.4, 0.5)
        p1 = params_at(-2.0, 1.0, 1e-8, 0.4, 0.5)
        assert_allclose(sigma_M_sq(p1, 1.0), sigma_M_sq(p0, 1.0), rtol=1e-6)

    def test_sigma_M_matches_enumeration(self):
        rng = np.random.default_rng(14)
        for alpha, beta, gamma, theta, pi, nu in draw_params(rng, 300):
            p = params_at(alpha, beta, gamma, theta, pi)
            want = oracles.enum_sigma_M(alpha, beta, gamma, theta, pi, nu)
            assert_allclose(sigma_M_sq(p, nu), want, rtol=1e-12)

    def test_sigma_A_matches_enumeration(self):
        rng = np.random.default_rng(15)
        for alpha, beta, gamma, theta, pi, nu in draw_params(rng, 300):
            p = params_at(alpha, beta, gamma, theta, pi)
            want = oracles.enum_sigma_A(alpha, beta, gamma, theta, pi, nu)
            assert_allclose(sigma_A_sq(p, nu), want, rtol=1e-12)

    def test_sigma_A_exposure_probability_rounding_to_one_is_invalid_input(self):
        # h_mat rounds to 1 in one stratum: 1 - h is 0, and the harmonic
        # combination used to return 1.04e14 after a division by zero.
        p = PopulationParams(-31.58, 50.0, 50.0, 1e-8, 0.5)
        with pytest.raises(InvalidInput, match="exposure probability rounds to 0 or 1"):
            sigma_A_sq(p, 0.5)

    @pytest.mark.parametrize("point", [
        # the control law sums to 1 + 1.6e-9, so p0_prime is 1.0000000016
        # and the Woolf form used to return -6.1e8
        (0.0, 50.0, -31.58, 1.0 - 1e-8, 1.0 - 1e-8),
        # p1_prime rounds to 1.0, which used to raise ZeroDivisionError
        (-50.0, -50.0, 20.0, 1e-8, 1.0 - 1e-8),
    ])
    def test_sigma_M_exposure_margin_outside_unit_interval_is_invalid_input(self, point):
        with pytest.raises(InvalidInput, match="exposure margin is not inside"):
            sigma_M_sq(PopulationParams(*point), 0.5)

    @pytest.mark.parametrize("fn, nu", [
        # These used to return inf, 0.0 and nan, raise BracketFailure after two
        # RuntimeWarnings, and raise ZeroDivisionError.
        (sigma_M_sq, 0.0),
        (sigma_A_sq, -1.0),
        (sigma_M_sq, math.nan),
        (sigma_AC_sq, -1.0),
        (asymptotic_constants, 0.0),
    ])
    def test_nu_outside_the_design_domain_is_invalid_input(self, canonical, fn, nu):
        with pytest.raises(InvalidInput, match=r"nu=.* outside \[1e-06, 1000000\.0\]"):
            fn(canonical, nu)

    def test_adjustment_never_cheaper(self):
        rng = np.random.default_rng(16)
        for alpha, beta, gamma, theta, pi, nu in draw_params(rng, 300):
            p = params_at(alpha, beta, gamma, theta, pi)
            assert sigma_A_sq(p, nu) >= sigma_M_sq(p, nu) - 1e-12

    def test_beta_zero_equality(self):
        p = params_at(-1.0, 0.0, 0.6, 0.3, 0.45)
        assert_allclose(sigma_A_sq(p, 1.7), sigma_M_sq(p, 1.7), rtol=1e-12)

    def test_variance_ratio_at_null_equals_lambda(self):
        for alpha, beta, theta, nu in [(-2.0, 1.0, 0.4, 1.0), (0.5, -1.5, 0.25, 2.3)]:
            p = params_at(alpha, beta, 1e-12, theta, 0.5)
            ratio = sigma_A_sq(p, nu) / sigma_M_sq(p, nu)
            assert_allclose(ratio, lambda_ratio(alpha, beta, theta, nu), rtol=1e-10)


CANONICAL_SIGMA_AC = 17.027843417716227  # mpmath finite-difference Hessian oracle


class TestSigmaAC:
    def test_canonical_point_against_fd_oracle(self, canonical):
        assert_allclose(sigma_AC_sq(canonical, 1.0), CANONICAL_SIGMA_AC, rtol=1e-9)

    @pytest.mark.parametrize("point", [
        (-2.0, 1.0, 0.3, 0.4, 0.5, 1.0),
        (-2.0, 1e-4, 0.3, 0.4, 0.5, 1.0),   # near-null beta: smooth route
        (-2.0, 0.0, 0.4, 0.3, 0.5, 1.0),    # beta exactly zero
        (-1.0, -1.2, 0.0, 0.6, 0.35, 0.5),  # gamma zero, unbalanced design
        (0.8, 0.7, 0.9, 0.25, 0.7, 2.0),    # prevalent outcome
        # small beta on both sides of 1e-3
        (-1.5, 5e-4, 0.4, 0.35, 0.55, 1.0),
        (-1.5, 1e-3, 0.4, 0.35, 0.55, 1.0),
        (-1.5, 2e-3, 0.4, 0.35, 0.55, 1.0),
        (-1.5, 0.1, 0.4, 0.35, 0.55, 1.0),
    ])
    def test_against_fd_oracle(self, point):
        alpha, beta, gamma, theta, pi, nu = point
        p = params_at(alpha, beta, gamma, theta, pi)
        want = oracles.enum_sigma_AC(alpha, beta, gamma, theta, pi, nu)
        assert_allclose(sigma_AC_sq(p, nu), want, rtol=1e-8)

    def test_rare_null_limit_is_sigma0(self):
        p = params_at(-30.0, 1.0, 1e-8, 0.4, 0.5)
        assert_allclose(sigma_AC_sq(p, 1.0), sigma0_sq(1.0, 0.5), rtol=1e-3)

    def test_between_marginal_and_adjusted_on_fig_grid(self):
        for f in np.linspace(0.01, 0.99, 99):
            alpha = alpha_from_prevalence(f, 1.0, 0.05, 0.4, 0.5)
            p = params_at(alpha, 1.0, 0.05, 0.4, 0.5)
            s_m, s_ac, s_a = sigma_M_sq(p, 1.0), sigma_AC_sq(p, 1.0), sigma_A_sq(p, 1.0)
            assert s_m <= s_ac + 1e-10
            assert s_ac <= s_a + 1e-10

    def test_relabel_symmetry(self, canonical):
        relabeled = params_at(-1.0, -1.0, 0.3, 0.6, 0.5)
        assert_allclose(sigma_AC_sq(relabeled, 1.0), sigma_AC_sq(canonical, 1.0),
                        rtol=1e-12)


class TestLambda:
    def test_beta_zero_is_one(self):
        assert lambda_ratio(-2.0, 0.0, 0.4, 1.0) == 1.0
        assert lambda0(0.0, 0.4, 1.0) == 1.0

    def test_lambda_never_below_one(self):
        rng = np.random.default_rng(17)
        for alpha, beta, _, theta, _, nu in draw_params(rng, 300):
            assert lambda_ratio(alpha, beta, theta, nu) >= 1.0 - 1e-14
            assert lambda0(beta, theta, nu) >= 1.0

    def test_matches_variance_ratio_on_random_grid(self):
        rng = np.random.default_rng(18)
        for alpha, beta, _, theta, pi, nu in draw_params(rng, 60):
            p = params_at(alpha, beta, 1e-6, theta, pi)
            ratio = sigma_A_sq(p, nu) / sigma_M_sq(p, nu)
            assert abs(lambda_ratio(alpha, beta, theta, nu) - ratio) <= 1e-4

    def test_lambda0_closed_form(self):
        beta, theta, nu = 1.0, 0.4, 1.0
        want = 1.0 + nu * theta * (1 - theta) * (1 - math.e) ** 2 / (
            (1 + nu) * ((1 - theta + math.e * theta) ** 2 + nu * math.e)
        )
        assert_allclose(lambda0(beta, theta, nu), want, rtol=1e-14)

    def test_rare_outcome_limit(self):
        for beta, theta, nu in [(1.0, 0.4, 1.0), (-2.0, 0.7, 0.5), (0.3, 0.2, 3.0)]:
            assert_allclose(lambda_ratio(-30.0, beta, theta, nu),
                            lambda0(beta, theta, nu), rtol=1e-6)

    def test_theta_extremes_give_one(self):
        # lambda0 - 1 carries the factor theta (1 - theta): 4.0e-9 and 1.5e-9
        # at the edges of the theta domain, which ends 1e-8 from 0 and 1.
        assert_allclose(lambda0(1.0, 1e-8, 1.0), 1.0, rtol=0.0, atol=1e-8)
        assert_allclose(lambda0(1.0, 1.0 - 1e-8, 1.0), 1.0, rtol=0.0, atol=1e-8)


class TestAttenuationSlope:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        for alpha, beta, _, theta, pi, _ in draw_params(rng, 100):
            def gpd(g):
                return g + bias_delta(alpha, beta, g, theta)

            fd = oracles.fd_derivative(gpd, 0.0, 1e-6)
            assert abs(attenuation_slope(alpha, beta, theta) - fd) <= 1e-7

    def test_beta_zero_slope_is_one(self):
        assert attenuation_slope(-2.0, 0.0, 0.4) == 1.0

    def test_slope_in_unit_interval(self):
        rng = np.random.default_rng(20)
        for alpha, beta, _, theta, _, _ in draw_params(rng, 300):
            s = attenuation_slope(alpha, beta, theta)
            assert 0.0 < s <= 1.0


class TestPitman:
    def test_beta_zero_are_one_tau_zero(self):
        assert pitman_are_M_vs_A(-2.0, 0.0, 0.4, 1.0) == 1.0
        assert pitman_are_M_vs_AC(-2.0, 0.0, 0.4, 0.5, 1.0) == 1.0
        assert pitman_tau(0.0, 0.4, 1.0) == 0.0

    def test_are_M_vs_A_is_slope_squared_times_lambda(self):
        rng = np.random.default_rng(21)
        for alpha, beta, _, theta, _, nu in draw_params(rng, 500):
            want = attenuation_slope(alpha, beta, theta) ** 2 * lambda_ratio(
                alpha, beta, theta, nu
            )
            assert_allclose(pitman_are_M_vs_A(alpha, beta, theta, nu), want, rtol=1e-12)

    def test_are_M_vs_A_finite_difference_route(self):
        for alpha, beta, theta, nu in [(-2.0, 1.0, 0.4, 1.0), (0.5, -0.8, 0.3, 2.0)]:
            def gpd(g):
                return g + bias_delta(alpha, beta, g, theta)

            fd = oracles.fd_derivative(gpd, 0.0, 1e-6)
            want = fd**2 * lambda_ratio(alpha, beta, theta, nu)
            assert abs(pitman_are_M_vs_A(alpha, beta, theta, nu) - want) <= 1e-7

    def test_canonical_value(self):
        # slope^2 * lambda at the canonical point, high-precision enumeration
        assert_allclose(pitman_are_M_vs_A(-2.0, 1.0, 0.4, 1.0),
                        0.98723235782621221, rtol=1e-12)

    def test_rare_outcome_limit_of_are(self):
        beta, theta, nu = 1.0, 0.4, 1.0
        lam0 = lambda0(beta, theta, nu)
        prev_bound = None
        for alpha in (math.log(1e-2), math.log(1e-3), math.log(1e-4)):
            rho = math.exp(alpha)
            gap = abs(pitman_are_M_vs_A(alpha, beta, theta, nu) - lam0) / rho
            if prev_bound is not None:
                assert gap <= prev_bound * 2.0  # first-order remainder stays bounded
            prev_bound = gap

    def test_tau_negative(self):
        assert pitman_tau(1.0, 0.4, 1.0) < 0.0

    def test_tau_canonical_value(self):
        # independently confirmed by the rho^2 extraction below and by an
        # mpmath finite-difference information oracle
        assert_allclose(pitman_tau(1.0, 0.4, 1.0), -2.770307130213018, rtol=1e-12)

    def test_tau_by_richardson_extrapolation(self):
        beta, theta, pi, nu = 1.0, 0.4, 0.5, 1.0

        def ep(alpha):
            p = params_at(alpha, beta, 1e-8, theta, pi)
            slope = attenuation_slope(alpha, beta, theta)
            return slope**2 * sigma_AC_sq(p, nu) / sigma_M_sq(p, nu)

        rhos = [1e-1, 1e-2, 1e-3]
        coefs = [(ep(math.log(r)) - 1.0) / r**2 for r in rhos]
        # one Richardson step on the O(rho) remainder
        extrap = (rhos[1] * coefs[2] - rhos[2] * coefs[1]) / (rhos[1] - rhos[2])
        assert_allclose(extrap, pitman_tau(beta, theta, nu), rtol=1e-2)

    def test_are_M_vs_AC_against_fd_information_oracle(self):
        alpha, beta, theta, pi, nu = -2.0, 1.0, 0.4, 0.5, 1.0
        s_ac0 = oracles.enum_sigma_AC(alpha, beta, 1e-10, theta, pi, nu)
        want = attenuation_slope(alpha, beta, theta) ** 2 * s_ac0 / sigma0_sq(nu, pi)
        assert_allclose(pitman_are_M_vs_AC(alpha, beta, theta, pi, nu), want, rtol=1e-6)


class TestPower:
    def test_null_power_equals_level(self, canonical):
        p = params_at(canonical.alpha, canonical.beta, 0.0, canonical.theta, canonical.pi)
        for method in Method:
            got = asymptotic_power(method, p, 1.0, 50000.0, level=0.05)
            assert abs(got - 0.05) <= 1e-12

    def test_power_increases_to_one(self, canonical):
        prev = 0.0
        for n in (1e2, 1e3, 1e4, 1e5, 1e6):
            pw = asymptotic_power(Method.ADJ, canonical, 1.0, n)
            assert pw >= prev
            prev = pw
        assert prev > 1.0 - 1e-9

    def test_formula_direct(self, canonical):
        import statistics

        # n chosen so the power sits mid-range and the comparison has teeth
        z = statistics.NormalDist().inv_cdf(0.975)
        shift = math.sqrt(1000.0) * 0.3 / math.sqrt(sigma_A_sq(canonical, 1.0))
        want = statistics.NormalDist().cdf(-z + shift) + statistics.NormalDist().cdf(-z - shift)
        got = asymptotic_power(Method.ADJ, canonical, 1.0, 1000.0)
        assert 0.2 < got < 0.9
        assert_allclose(got, want, rtol=1e-12)

    def test_marginal_uses_biased_center(self, canonical):
        import statistics

        z = statistics.NormalDist().inv_cdf(0.975)
        gpd = 0.3 + bias_delta(-2.0, 1.0, 0.3, 0.4)
        shift = math.sqrt(1000.0) * gpd / math.sqrt(sigma_M_sq(canonical, 1.0))
        want = statistics.NormalDist().cdf(-z + shift) + statistics.NormalDist().cdf(-z - shift)
        assert_allclose(asymptotic_power(Method.MAR, canonical, 1.0, 1000.0), want, rtol=1e-12)

    def test_unknown_method_is_invalid_input(self, canonical):
        with pytest.raises(InvalidInput, match="method='foo' must be one of mar, adj, adjcon"):
            asymptotic_power("foo", canonical, 1.0, 1000.0)

    def test_method_accepts_strings(self, canonical):
        assert asymptotic_power("mar", canonical, 1.0, 1000.0) == asymptotic_power(
            Method.MAR, canonical, 1.0, 1000.0
        )


class TestTheoryCurve:
    def test_single_point_null_beta(self):
        rows = theory_curve([0.5], 0.0, 0.4, 0.3, 0.5, 1.0, 10000.0)
        (row,) = rows
        assert row.delta == 0.0
        assert_allclose(row.sigma_M_sq, row.sigma_A_sq, rtol=1e-12)
        assert row.ep_M_vs_A == 1.0
        assert row.ep_M_vs_AC == 1.0
        assert math.isnan(row.f_star)

    def test_fig_1a_minimum_at_f_star(self):
        fs = np.linspace(0.01, 0.99, 99)
        rows = theory_curve(fs, 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)
        gpd = np.array([abs(r.gamma_plus_delta) for r in rows])
        f_star = rows[0].f_star
        grid_min = fs[int(np.argmin(gpd))]
        assert abs(grid_min - f_star) <= (fs[1] - fs[0])

    def test_rows_align_with_pointwise_calls(self, canonical):
        rows = theory_curve([canonical.f], 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)
        (row,) = rows
        assert_allclose(row.alpha, -2.0, atol=1e-10)
        assert_allclose(row.delta, bias_delta(-2.0, 1.0, 0.3, 0.4), rtol=1e-9)
        assert_allclose(row.sigma_AC_sq, sigma_AC_sq(canonical, 1.0), rtol=1e-8)

    def test_grid_refinement_bitwise_stable(self):
        coarse = theory_curve([0.2, 0.5], 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)
        fine = theory_curve([0.2, 0.35, 0.5], 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)
        assert coarse[0] == fine[0]
        assert coarse[1] == fine[2]


class TestConstantsBundle:
    def test_fields_wired_to_functions(self, canonical):
        c = asymptotic_constants(canonical, 1.0)
        assert c.delta == bias_delta(-2.0, 1.0, 0.3, 0.4)
        assert (c.b1, c.b2) == b_factors(1.0, 0.4)
        assert c.rho == math.exp(-2.0)
        assert c.sigmaM_sq == sigma_M_sq(canonical, 1.0)
        assert c.sigmaA_sq == sigma_A_sq(canonical, 1.0)
        assert_allclose(c.sigmaAC_sq, CANONICAL_SIGMA_AC, rtol=1e-9)
        assert c.lam == lambda_ratio(-2.0, 1.0, 0.4, 1.0)
        assert c.lambda0 == lambda0(1.0, 0.4, 1.0)
        assert c.tau == pitman_tau(1.0, 0.4, 1.0)
        assert c.sigma0_sq == sigma0_sq(1.0, 0.5)

    def test_invariant_block(self):
        rng = np.random.default_rng(22)
        for alpha, beta, gamma, theta, pi, nu in draw_params(rng, 100):
            c = asymptotic_constants(params_at(alpha, beta, gamma, theta, pi), nu)
            assert c.b1 >= c.b2 > 0.0
            assert abs(gamma + c.delta) <= abs(gamma) + 1e-12
            assert c.delta == 0.0 or np.sign(c.delta) == -np.sign(gamma)
            assert c.sigmaM_sq <= c.sigmaA_sq + 1e-12
            assert c.lam >= 1.0 - 1e-14
            assert c.lambda0 >= 1.0
            # tau < 0 in exact arithmetic; near beta = 0 the two O(beta^2)
            # terms cancel at roundoff level
            assert c.tau <= 1e-12

    def test_beta_zero_has_no_bias_minimizer(self):
        # delta vanishes identically, so f_star and alpha_star are NaN.
        c = asymptotic_constants(PopulationParams(-2.0, 0.0, 0.3, 0.4, 0.5), 1.0)
        assert math.isnan(c.f_star) and math.isnan(c.alpha_star)
        assert c.delta == 0.0


class TestClosedFormDomain:
    @pytest.mark.parametrize("fn, args", [
        # These used to raise ZeroDivisionError.
        (sigma0_sq, (0.0, 0.5)),
        (lambda_ratio, (-2.0, 1.0, 0.4, -1.0)),
        (lambda0, (1.0, 0.4, -1.0)),
        (pitman_tau, (1.0, 0.4, 0.0)),
        (lambda_ratio, (-2.0, 1.0, 0.0, 1.0)),
        # These used to return 0.0, nan and 1.0.
        (sigma0_sq, (-1.0, 0.5)),
        (pitman_are_M_vs_A, (-2.0, 1.0, 0.4, math.nan)),
        (pitman_are_M_vs_AC, (-2.0, 0.0, 0.4, 0.5, -1.0)),
    ])
    def test_outside_the_domain_is_invalid_input(self, fn, args):
        with pytest.raises(InvalidInput, match=r"^(nu|theta)=.* outside \["):
            fn(*args)

    @pytest.mark.parametrize("name, value, outside", domain_edges(("nu", "theta", "pi")))
    def test_each_range_holds_its_bounds_and_nothing_past_them(self, name, value, outside):
        fn, args = {
            "nu": (sigma0_sq, (value, 0.5)),
            "pi": (sigma0_sq, (1.0, value)),
            "theta": (lambda0, (1.0, value, 1.0)),
        }[name]
        if not outside:
            assert math.isfinite(fn(*args))
            return
        with pytest.raises(InvalidInput) as error:
            fn(*args)
        assert str(error.value) == domain_message(name, value)
