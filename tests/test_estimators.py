import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cceff import (
    BracketFailure,
    CaseControlTable,
    DesignParams,
    InvalidInput,
    Method,
    PopulationParams,
    Separation,
    SingularInformation,
    ZeroCell,
    ZeroMargin,
    bias_delta,
    expected_table,
    fit_adjusted,
    fit_adjusted_batch,
    fit_constrained,
    fit_constrained_batch,
    fit_marginal,
    fit_marginal_batch,
    limiting_value,
    sample_table,
    sigma_A_sq,
    sigma_AC_sq,
    wald_test,
)
import cceff._constrained as constrained_mod
from cceff.errors import CCEffError, InfeasibleStart, NonConvergence

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

CI_TABLE = np.array([30, 12, 18, 25, 20, 22, 10, 40], dtype=float)
# Tables with a finite total whose covariance, log-likelihood or estimate
# cannot be represented at their weight, or whose Mar odds leave the floats.
EXTREME_TABLES = [
    CI_TABLE * 1e-309,  # Adj's and AdjCon's covariances overflow
    CI_TABLE * 1e-310,  # so does Mar's Woolf variance
    np.full(8, 2e307),  # AdjCon's log-likelihood overflows
    [3.2695592245902645e-286, 7.519434173154918e-286, 1.63522921761235e-310,
     6.936330515043081e-300, 4.3775160199230856e-307, 1.8646457644068248e-299,
     2.7988467835797735e-308, 9.218176187979284e-305],  # Adj's covariance holds +-inf
    [1, 1, 1, 1, 1e300, 1e-300, 1, 1e-300],  # Mar's case odds underflow to 0, but it fits
    [1, 1, 1, 1, 1e-300, 1e300, 1e-300, 1],  # Mar's case odds overflow, but it fits
]


def assert_mar_matches_oracle(fit, cells):
    """Mar's estimates, variances and log-likelihood agree with the mpmath fit of the same cells.

    The logs are good to a few ulps of logs up to about 1400, and the log of a
    share near 1 to an ulp of the share, so the log-likelihood is judged
    against the total weight as well as its own size.
    """
    alpha0, gamma, var_alpha0, var_gamma, loglik = oracles.mp_marginal(cells)
    assert fit.params[0] == pytest.approx(alpha0, rel=1e-15, abs=1e-12)
    assert fit.gamma_hat == pytest.approx(gamma, rel=1e-15, abs=1e-12)
    assert fit.cov[0, 0] == pytest.approx(var_alpha0, rel=1e-14)
    assert fit.cov[1, 1] == pytest.approx(var_gamma, rel=1e-14)
    assert abs(fit.loglik - loglik) <= 1e-14 * (abs(loglik) + math.fsum(np.ravel(cells)))


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

    BATCH_FITS = [fit_marginal_batch, fit_adjusted_batch, lambda w: fit_constrained_batch(w, 0.1)]

    @pytest.mark.parametrize("fit", BATCH_FITS)
    @pytest.mark.parametrize(
        "cell, value", [((0, 1, 1), math.nan), ((1, 0, 1), -1.0), ((0,), 0.0), ((0,), 1e308)]
    )
    def test_batch_fits_check_each_table_as_the_table_does(self, fit, cell, value):
        w = np.ones((2, 2, 2))
        w[cell] = value  # a NaN cell, a negative cell, no controls, a total that overflows
        with pytest.raises(InvalidInput) as table_error:
            CaseControlTable(w)
        with pytest.raises(InvalidInput) as batch_error:
            fit(np.stack([np.ones((2, 2, 2)), w]))
        assert str(batch_error.value) == str(table_error.value)

    @pytest.mark.parametrize("fit", BATCH_FITS)
    def test_batch_fits_reject_a_badly_shaped_array(self, fit):
        shape = r"^tables must have shape \(R, 2, 2, 2\), got \(2, 2, 2\)$"
        with pytest.raises(InvalidInput, match=shape):
            fit(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("fit", BATCH_FITS)
    @pytest.mark.parametrize("cells", EXTREME_TABLES)
    def test_a_fit_holds_finite_numbers_or_is_a_typed_error(self, fit, cells):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (out,) = fit(np.reshape(cells, (1, 2, 2, 2)))
        if not isinstance(out, CCEffError):
            numbers = [out.gamma_hat, out.se_gamma, out.loglik, *out.params, *out.cov.ravel()]
            if out.cov_sandwich is not None:
                numbers += out.cov_sandwich.ravel().tolist()
            assert out.se_gamma > 0.0
            assert np.isfinite(numbers).all()

    @pytest.mark.parametrize("fit, cells, error, why", [
        (fit_marginal_batch, EXTREME_TABLES[1], ZeroCell, "positive finite gamma variance"),
        (fit_adjusted_batch, EXTREME_TABLES[0], Separation, "positive finite gamma variance"),
        (fit_adjusted_batch, EXTREME_TABLES[3], Separation, "finite covariance"),
        (BATCH_FITS[2], EXTREME_TABLES[2], SingularInformation, "finite log-likelihood"),
    ])
    def test_a_refused_fit_names_what_failed(self, fit, cells, error, why):
        (out,) = fit(np.reshape(cells, (1, 2, 2, 2)))
        assert type(out) is error
        assert str(out).startswith(f"no {why} at the estimate (gamma variance ")

    @pytest.mark.parametrize("cells", EXTREME_TABLES[4:])
    def test_mar_fits_odds_beyond_the_float_range(self, cells):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_marginal(CaseControlTable(np.reshape(cells, (2, 2, 2))))
        assert_mar_matches_oracle(fit, cells)


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

    @given(st.lists(st.floats(-300.0, 300.0), min_size=8, max_size=8))
    # The exposed column's control share is 7.3e-52: the oracle logs its
    # case share, which rounds to 1 at 50 digits, by log1p.
    @example([-264.551082368541, 240.47346914374486, -124.62699155114669, 91.1622810910734,
              72.59956802367844, 201.31844066108675, 52.321923077646034, 291.6109244809643])
    def test_log_uniform_cells_fit_as_the_oracle_does(self, exponents):
        # Cells from 1e-300 to 1e300 keep the Woolf variance finite, while a
        # collapsed ratio or share may leave the normal floats.
        cells = [10.0 ** e for e in exponents]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (fit,) = fit_marginal_batch(np.reshape(cells, (1, 2, 2, 2)))
        assert not isinstance(fit, CCEffError), fit
        assert_mar_matches_oracle(fit, cells)

    @given(st.lists(st.floats(-300.0, 300.0), min_size=8, max_size=8))
    @example([3.9, -1.76, 0.9, -1.67, -0.66, 13.2, 19.93, 2.25])  # a share rounds to 1
    @example([-83.6, -283.3, -42.0, -205.5, 55.2, -280.1, 281.8, -32.5])  # its partner underflows
    # Its partner is 7.3e-52 of it.
    @example([-264.551082368541, 240.47346914374486, -124.62699155114669, 91.1622810910734,
              72.59956802367844, 201.31844066108675, 52.321923077646034, 291.6109244809643])
    def test_log_likelihood_keeps_its_relative_accuracy(self, exponents):
        # A share within 2^-10 of 1 is logged by log1p, in the fit and in
        # the oracle alike, so that the oracle keeps log(1 - x) for any x.
        cells = [10.0 ** e for e in exponents]
        (fit,) = fit_marginal_batch(np.reshape(cells, (1, 2, 2, 2)))
        loglik = oracles.mp_marginal(cells)[4]
        assert abs(fit.loglik - loglik) <= 1e-13 * abs(loglik)

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

    @pytest.mark.parametrize("cells", [
        [0, 0, 6, 0, 0, 2, 4, 0],  # the inverse information has a negative gamma variance
        [0, 1, 4, 0, 0, 3, 2, 0],  # the information is exactly singular
    ])
    def test_unidentified_table_is_separation_in_any_block(self, cells):
        # Two filled covariate-exposure patterns cannot pin three coefficients.
        w = np.array(cells, dtype=float).reshape(2, 2, 2)
        with pytest.raises(Separation, match="^no positive finite gamma variance at the estimate"):
            fit_adjusted(CaseControlTable(w))
        good = np.full((2, 2, 2), 5.0)
        alone = fit_adjusted(CaseControlTable(good))
        for block, bad in ((np.stack([w, good]), 0), (np.stack([good, w]), 1)):
            outcomes = fit_adjusted_batch(block)
            assert isinstance(outcomes[bad], Separation)
            assert outcomes[1 - bad].cov.tobytes() == alone.cov.tobytes()

    @pytest.mark.parametrize(
        "fit", [fit_adjusted_batch, lambda w: fit_constrained_batch(w, 0.3, True)]
    )
    @pytest.mark.parametrize("cells, arm", [
        ([0, 1, 0, 0, 0, 1e16, 1000, 1000], "control"),  # the case share rounds to 1
        ([1, 1, 1, 1, 5e-324, 0, 0, 0], "case"),  # the case share rounds to 0
        ([1e-300, 0, 0, 0, 2, 5, 3, 3], "control"),  # the case share rounds above 1
    ])
    def test_a_share_that_rounds_away_is_separation_without_a_warning(self, fit, cells, arm):
        # The start's intercept, the logit of the case share, would be infinite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (out,) = fit(np.reshape(np.array(cells, dtype=float), (1, 2, 2, 2)))
        assert type(out) is Separation
        assert str(out) == f"the {arm} share of the table rounds to 0: no finite start"

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

    def test_start_whose_intercept_cannot_be_inverted_is_infeasible(self, monkeypatch):
        def fail(f, beta, gamma, theta, pi):
            return np.full(np.shape(beta), np.nan)

        monkeypatch.setattr(constrained_mod, "alpha_from_prevalence", fail)
        t = CaseControlTable([[[30, 12], [18, 25]], [[20, 22], [10, 40]]])
        with pytest.raises(InfeasibleStart) as error:
            fit_constrained(t, 0.1)
        assert str(error.value) == "bracket expansion for alpha exceeded |alpha| = 750"

    def test_inversion_failing_after_the_start_is_bracket_failure(self, monkeypatch):
        invert, calls = constrained_mod.alpha_from_prevalence, []

        def fail_after_start(*args):
            calls.append(1)
            alpha = invert(*args)
            return alpha if len(calls) == 1 else np.full_like(alpha, np.nan)

        monkeypatch.setattr(constrained_mod, "alpha_from_prevalence", fail_after_start)
        t = CaseControlTable([[[30, 12], [18, 25]], [[20, 22], [10, 40]]])
        with pytest.raises(BracketFailure, match=r"^bracket expansion for alpha exceeded"):
            fit_constrained(t, 0.1)
        assert len(calls) > 1

    def test_prevalence_one_ulp_below_one_is_a_typed_error(self):
        # Every p (1 - p) rounds to 0 at some intercepts of this fit, so
        # dF/dalpha is 0 there: the fit raises, names the cause and does not
        # warn (it used to warn, then raise a BracketFailure at a later step).
        t = CaseControlTable(np.reshape([40, 30, 20, 10, 25, 5, 15, 8], (2, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleStart) as error:
                fit_constrained(t, 0.9999999999999999)
            (batch,) = fit_constrained_batch(t.w[None], 0.9999999999999999)
        assert str(error.value) == (
            "every p (1 - p) rounds to 0 at the intercept for prevalence f=0.9999999999999999, "
            "so dF/dalpha is 0 and the constrained likelihood has no derivatives"
        )
        assert type(batch) is InfeasibleStart and str(batch) == str(error.value)

    def test_curvature_overflow_is_a_typed_error_without_a_warning(self):
        # Cells spanning hundreds of decades take the Newton iterates to a
        # theta or pi whose square is subnormal, where the curvature overflows.
        cells = [2.753554535775351e-112, 8.007448355446472e-89, 2.0354334845885512e-162,
                 1.931635865502153e-97, 1.0744284865637203e+64, 1.3859489151138205e-299,
                 2.137558417238647e+73, 1.3185704649160907e-105]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (out,) = fit_constrained_batch(np.reshape(cells, (1, 2, 2, 2)), 0.3)
        assert type(out) is NonConvergence

    def test_observed_information_positive_definite(self, canonical):
        from cceff._constrained import loglik_grad_hess_s

        t = sample_table(canonical, DesignParams(nu=1.0, n=4000), seed=3, replicate_index=1)
        fit = fit_constrained(t, canonical.f)
        w = (t.w / t.n).reshape(1, 8)
        _, _, _, hess = loglik_grad_hess_s(w, canonical.f, np.array([fit.params]))
        eigs = np.linalg.eigvalsh(-hess[0])
        assert eigs.min() > 0.0

    def test_analytic_gradient_matches_finite_differences(self, canonical):
        from cceff._constrained import loglik_grad_hess_s

        t = sample_table(canonical, DesignParams(nu=1.0, n=4000), seed=13, replicate_index=0)
        w = (t.w / t.n).reshape(1, 8)
        s = np.array([0.9, 0.25, 0.42, 0.51])
        grad = loglik_grad_hess_s(w, canonical.f, s[None])[2][0]
        for k in range(4):
            def slice_k(x, k=k):
                sk = s.copy()
                sk[k] = x
                return loglik_grad_hess_s(w, canonical.f, sk[None])[1][0]

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
    # At one of the two scales their full Newton step from max|grad| about
    # 1e-9 lowers the log-likelihood by a few units of rounding; refused, the
    # fit stopped there while the other reached the tolerance.
    @example(cells=[472.0] + [0.5] * 7, scale=0.01)
    @example(cells=[499.0] + [0.5] * 7, scale=0.01)
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
        # Every fit function returns a positive se; only a hand-built fit lacks one.
        fit = fit_marginal(collapsed_table(25.0, 25.0, 25.0, 25.0))
        object.__setattr__(fit, "se_gamma", 0.0)
        with pytest.raises(InvalidInput, match="no usable standard error"):
            wald_test(fit)

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05, float("nan")])
    def test_level_outside_unit_interval_rejected(self, level):
        fit = fit_marginal(collapsed_table(30.0, 20.0, 20.0, 30.0))
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            wald_test(fit, level=level)
