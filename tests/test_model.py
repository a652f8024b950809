import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cceff import (
    BracketFailure,
    DegenerateConstraint,
    DesignParams,
    InfeasiblePrevalence,
    InvalidInput,
    PopulationParams,
    alpha_from_prevalence,
    cell_prob,
    cell_probs,
    mixture_weights,
    prevalence,
    prevalence_at,
    retro_distribution,
    sample_tables,
    sigma_A_sq,
    sigma_M_sq,
    theta_from_constraint,
)

import oracles
from _grids import draw_params

coef = st.floats(-5.0, 5.0)
prob_inner = st.floats(0.05, 0.95)


class TestPopulationParams:
    def test_valid_point_has_prevalence_inside_unit_interval(self):
        p = PopulationParams(alpha=-2.0, beta=1.0, gamma=0.3, theta=0.4, pi=0.5)
        assert 0.0 < p.f < 1.0

    @pytest.mark.parametrize("bad", [
        dict(alpha=51.0), dict(beta=-60.0), dict(gamma=float("nan")),
        dict(alpha=float("inf")), dict(theta=0.0), dict(theta=1.0),
        dict(pi=1e-9), dict(pi=1.0 - 1e-10),
    ])
    def test_rejects_out_of_range_fields(self, bad):
        base = dict(alpha=0.0, beta=0.5, gamma=0.5, theta=0.3, pi=0.7)
        base.update(bad)
        with pytest.raises(ValueError):
            PopulationParams(**base)

    def test_frozen(self, canonical):
        with pytest.raises(AttributeError):
            canonical.alpha = 0.0


class TestDesignParams:
    def test_case_control_split_recovers_total(self):
        d = DesignParams(nu=2.0, n=3000.0)
        assert d.n_cases + d.n_controls == pytest.approx(3000.0, abs=1e-9)
        assert d.n_cases / d.n_controls == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, -1.0, 1e-7, 1e7, float("nan")])
    def test_nu_box(self, nu):
        with pytest.raises(ValueError):
            DesignParams(nu=nu, n=100.0)

    @pytest.mark.parametrize("n", [0.0, -5.0, float("inf")])
    def test_n_positive_finite(self, n):
        with pytest.raises(ValueError):
            DesignParams(nu=1.0, n=n)


class TestCellProb:
    def test_logit_zero(self):
        assert cell_prob(0.0, 0.0, 0.0, 1, 1) == 0.5

    def test_direct_evaluation(self):
        assert_allclose(cell_prob(1.0, 1.0, 0.0, 1, 0),
                        math.e**2 / (1.0 + math.e**2), rtol=1e-15)

    def test_deep_tail_does_not_underflow(self):
        p = cell_prob(-30.0, 0.0, 0.0, 0, 0)
        assert_allclose(p, 9.357622968839299e-14, rtol=1e-12)
        assert p > 0.0

    def test_stable_to_700(self):
        assert cell_prob(700.0, 0.0, 0.0, 0, 0) == 1.0
        assert 0.0 < cell_prob(-700.0, 0.0, 0.0, 0, 0) < 1e-300

    def test_monotone_in_alpha(self):
        alphas = np.linspace(-8.0, 8.0, 33)
        vals = [cell_prob(a, 0.7, -0.2, 1, 1) for a in alphas]
        assert np.all(np.diff(vals) > 0.0)

    def test_cell_probs_layout_matches_scalar(self):
        grid = cell_probs(-1.0, 2.0, -0.5)
        for i in (0, 1):
            for j in (0, 1):
                assert grid[i, j] == cell_prob(-1.0, 2.0, -0.5, i, j)


class TestPrevalence:
    def test_collapses_to_sigmoid_without_effects(self):
        p = PopulationParams(alpha=-1.3, beta=0.0, gamma=0.0, theta=0.3, pi=0.6)
        assert_allclose(prevalence(p), 1.0 / (1.0 + math.exp(1.3)), rtol=1e-15)

    def test_boundary_theta_accepted_by_raw_function(self):
        # theta = 0 collapses the covariate mixture onto X = 0
        got = prevalence_at(-2.0, 1.0, 0.3, 0.0, 0.5)
        want = 0.5 * oracles._sigmoid(-1.7) + 0.5 * oracles._sigmoid(-2.0)
        assert_allclose(got, want, rtol=1e-15)

    def test_against_enumeration_on_random_grid(self):
        rng = np.random.default_rng(7)
        for alpha, beta, gamma, theta, pi, _ in draw_params(rng, 300):
            want = oracles.enum_prevalence(alpha, beta, gamma, theta, pi)
            assert_allclose(prevalence_at(alpha, beta, gamma, theta, pi),
                            want, rtol=1e-14)

    def test_strictly_increasing_in_alpha(self):
        f = [prevalence_at(a, 1.0, 0.3, 0.4, 0.5) for a in np.linspace(-6, 4, 41)]
        assert np.all(np.diff(f) > 0.0)

    def test_mixture_weights_sum_to_one(self):
        assert_allclose(mixture_weights(0.37, 0.81).sum(), 1.0, rtol=1e-15)


class TestThetaFromConstraint:
    def test_numerator_zero_returns_zero(self):
        p = cell_probs(-2.0, 1.0, 0.3)
        f_at_theta0 = p[0, 1] * 0.5 + p[0, 0] * 0.5
        assert theta_from_constraint(-2.0, 1.0, 0.3, 0.5, f_at_theta0) == 0.0

    def test_beta_zero_is_degenerate(self):
        with pytest.raises(DegenerateConstraint):
            theta_from_constraint(-2.0, 0.0, 0.3, 0.5, 0.2)

    def test_infeasible_prevalence(self):
        with pytest.raises(InfeasiblePrevalence):
            theta_from_constraint(-2.0, 1.0, 0.3, 0.5, 0.9)

    def test_round_trip_canonical(self, canonical):
        theta = theta_from_constraint(
            canonical.alpha, canonical.beta, canonical.gamma, canonical.pi, canonical.f
        )
        assert abs(theta - 0.4) <= 1e-10

    def test_round_trip_random_grid(self):
        rng = np.random.default_rng(8)
        grid = draw_params(rng, 400)
        grid = grid[np.abs(grid[:, 1]) > 1e-3]  # keep beta away from the singularity
        for alpha, beta, gamma, theta, pi, _ in grid:
            f = prevalence_at(alpha, beta, gamma, theta, pi)
            got = theta_from_constraint(alpha, beta, gamma, pi, f)
            assert abs(got - theta) <= 1e-10 * max(1.0, abs(theta))
            # and the recovered theta reproduces f
            assert_allclose(prevalence_at(alpha, beta, gamma, got, pi), f, rtol=1e-12)


class TestAlphaFromPrevalence:
    def test_symmetric_point(self):
        assert alpha_from_prevalence(0.5, 0.0, 0.0, 0.3, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_round_trip_canonical(self):
        a = alpha_from_prevalence(0.2022511859720615, 1.0, 0.3, 0.4, 0.5)
        assert abs(a - (-2.0)) <= 1e-10

    def test_round_trip_random_grid(self):
        rng = np.random.default_rng(9)
        for alpha, beta, gamma, theta, pi, _ in draw_params(rng, 400):
            f = prevalence_at(alpha, beta, gamma, theta, pi)
            a = alpha_from_prevalence(f, beta, gamma, theta, pi)
            assert_allclose(prevalence_at(a, beta, gamma, theta, pi), f, rtol=1e-12)
            assert abs(a - alpha) <= 1e-9 * max(1.0, abs(alpha))

    def test_extreme_prevalences(self):
        for f in (1e-12, 1e-6, 0.999999, 1.0 - 1e-12):
            a = alpha_from_prevalence(f, 2.0, -1.0, 0.3, 0.7)
            assert_allclose(prevalence_at(a, 2.0, -1.0, 0.3, 0.7), f, rtol=1e-9)

    def test_monotone_in_f(self):
        fs = np.linspace(0.02, 0.98, 25)
        alphas = [alpha_from_prevalence(f, 1.0, 0.3, 0.4, 0.5) for f in fs]
        assert np.all(np.diff(alphas) > 0.0)

    @pytest.mark.parametrize("f", [0.0, 1.0, -0.1, 1.1])
    def test_unattainable_prevalence(self, f):
        with pytest.raises(BracketFailure):
            alpha_from_prevalence(f, 1.0, 0.3, 0.4, 0.5)

    @given(beta=coef, gamma=coef, theta=prob_inner, pi=prob_inner,
           f=st.floats(1e-4, 1.0 - 1e-4))
    def test_round_trip_property(self, beta, gamma, theta, pi, f):
        a = alpha_from_prevalence(f, beta, gamma, theta, pi)
        assert_allclose(prevalence_at(a, beta, gamma, theta, pi), f, rtol=1e-11)


class TestRetroDistribution:
    def test_null_effects_make_strata_identical(self):
        p = PopulationParams(alpha=-1.0, beta=0.0, gamma=0.0, theta=0.3, pi=0.6)
        r = retro_distribution(p)
        w = mixture_weights(0.3, 0.6)
        assert_allclose(r.p_case, w, rtol=1e-14)
        assert_allclose(r.p_ctrl, w, rtol=1e-14)

    def test_gamma_zero_equalizes_exposure_margins(self):
        p = PopulationParams(alpha=-1.5, beta=0.8, gamma=0.0, theta=0.35, pi=0.45)
        r = retro_distribution(p)
        assert abs(r.p1_prime - r.p0_prime) <= 1e-15
        assert_allclose(r.p1_prime, 0.45, rtol=1e-14)

    def test_matches_enumeration(self, canonical):
        r = retro_distribution(canonical)
        p_case, p_ctrl = oracles.enum_retro_probs(-2.0, 1.0, 0.3, 0.4, 0.5)
        for i in (0, 1):
            for j in (0, 1):
                assert_allclose(r.p_case[i, j], p_case[(i, j)], rtol=1e-14)
                assert_allclose(r.p_ctrl[i, j], p_ctrl[(i, j)], rtol=1e-14)

    def test_internal_identities(self, canonical):
        r = retro_distribution(canonical)
        assert_allclose(r.p_case.sum(), 1.0, atol=1e-12)
        assert_allclose(r.p_ctrl.sum(), 1.0, atol=1e-12)
        assert_allclose(r.p1_prime, r.p_case[:, 1].sum(), atol=1e-12)
        assert_allclose(r.p0_prime, r.p_ctrl[:, 1].sum(), atol=1e-12)
        assert_allclose(r.d_mat.sum(axis=0), [1.0, 1.0], atol=1e-12)
        assert np.all((r.h_mat > 0.0) & (r.h_mat < 1.0))
        # pr(X=i, E=1 | D=d) factors as pr(X=i | D=d) * pr(E=1 | X=i, D=d)
        for i in (0, 1):
            assert_allclose(r.p_case[i, 1], r.d_mat[i, 1] * r.h_mat[i, 1], rtol=1e-12)
            assert_allclose(r.p_ctrl[i, 1], r.d_mat[i, 0] * r.h_mat[i, 0], rtol=1e-12)

    # (alpha, beta, gamma, theta, pi): the prevalence rounds to 1.0, so the
    # control law is 0/0; and the control probabilities round to 0, so the
    # control law underflows to all zeros.  Both lie inside PopulationParams.
    @pytest.mark.parametrize(
        "args, reason",
        [((50.0, 50.0, 50.0, 0.5, 0.5), "rounds to 0 or 1"),
         ((37.0, 13.0, 0.0, 1e-8, 0.5), "empty covariate stratum")],
    )
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda p: sample_tables(p, DesignParams(1.0, 100.0), 0, range(3)),
            lambda p: sigma_M_sq(p, 1.0),
            lambda p: sigma_A_sq(p, 1.0),
        ],
        ids=["sample_tables", "sigma_M_sq", "sigma_A_sq"],
    )
    def test_unrepresentable_law_is_invalid_input(self, args, reason, consumer):
        params = PopulationParams(*args)
        with pytest.raises(InvalidInput, match=reason):
            retro_distribution(params)
        with pytest.raises(InvalidInput, match=reason):
            consumer(params)
