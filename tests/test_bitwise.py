"""Bitwise identity of the constrained-likelihood fast path and the batch sampler.

The prevalence inversion and the prevalence derivatives run on plain
floats, and the constrained Newton loops stop at exact fixed points.
Neither may change a number: some verdicts are decided at the
log-likelihood's rounding floor (a sparse-table AdjCon fit stalls at
max|grad| 1.56e-8 against a 1e-8 bar), where a last-ulp change could flip
a NonConvergence.  The kernels are therefore compared bit for bit with the
frozen array forms in ``oracles``, and the stalled fits and limits with
digests of their outputs.  The batch sampler is compared bit for bit with
the frozen one-table sampler.
"""

from itertools import combinations
import hashlib
import re

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import logit

import cceff.simulate as simulate_mod
from cceff import (
    CCEffError,
    DesignParams,
    InvalidInput,
    NonConvergence,
    PopulationParams,
    alpha_from_prevalence,
    fit_constrained,
    limiting_value,
    retro_distribution,
    sample_table,
    sample_tables,
)
from cceff._constrained import expected_masses, f_derivs, loglik_grad_hess_s

import oracles

# The declared PopulationParams domain; alpha also spans the solver's bracket.
coef = st.floats(-50.0, 50.0)
prob = st.floats(1e-8, 1.0 - 1e-8)
prevalence = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

# Inputs that reach each branch of the safeguarded Newton in alpha_from_prevalence.
BRANCH_CASES = {
    # beta = gamma = 0: an empty bracket that rounding leaves on the wrong side
    "lower expansion": (0.015518004853810835, 0.0, 0.0, 0.20190745349130135, 0.8844496659993),
    "upper expansion": (1.1173102651703868e-06, 0.0, 0.0, 0.45058453654007136, 0.4884985733139979),
    # a point of the mc_sparse seed-5 fit: 56 prevalence evaluations
    "bisection": (
        0.02000000000000005, 2.014377897321523, -0.4432157171396489,
        0.06020736746410309, 0.060237327045930475,
    ),
}


def _args(branch):
    return dict(zip(("f", "beta", "gamma", "theta", "pi"), BRANCH_CASES[branch]))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _digest(*values):
    return hashlib.sha256(b"".join(_bits(v) for v in values)).hexdigest()[:16]


def _max_grad(weights, f, s):
    return np.max(np.abs(loglik_grad_hess_s(weights, f, s)[2]))


def _outcome(fn, *args):
    try:
        return "ok", _bits(fn(*args))
    except CCEffError as exc:
        return type(exc).__name__, str(exc)


class TestFloatKernels:
    @given(f=prevalence, beta=coef, gamma=coef, theta=prob, pi=prob)
    @example(**_args("lower expansion"))
    @example(**_args("upper expansion"))
    @example(**_args("bisection"))
    @example(f=1e-300, beta=50.0, gamma=-50.0, theta=1e-8, pi=1.0 - 1e-8)
    def test_alpha_from_prevalence_matches_frozen_reference(self, f, beta, gamma, theta, pi):
        args = (f, beta, gamma, theta, pi)
        assert _outcome(alpha_from_prevalence, *args) == _outcome(
            oracles.alpha_from_prevalence, *args
        )

    @given(alpha=st.floats(-750.0, 750.0), beta=coef, gamma=coef, theta=prob, pi=prob)
    @example(alpha=0.0, beta=0.0, gamma=0.0, theta=0.5, pi=0.5)
    @example(alpha=745.0, beta=-50.0, gamma=50.0, theta=1e-8, pi=1.0 - 1e-8)
    def test_f_derivs_matches_frozen_reference(self, alpha, beta, gamma, theta, pi):
        grad, hess = f_derivs(alpha, beta, gamma, theta, pi)
        ref_grad, ref_hess = oracles.f_derivs(alpha, beta, gamma, theta, pi)
        assert _bits(grad) == _bits(ref_grad) and _bits(hess) == _bits(ref_hess)

    @given(f=prevalence, beta=coef, gamma=coef, theta=prob, pi=prob)
    def test_f_derivs_at_the_inverted_intercept(self, f, beta, gamma, theta, pi):
        try:
            alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
        except CCEffError:
            return
        ref = oracles.f_derivs(alpha, beta, gamma, theta, pi)
        new = f_derivs(alpha, beta, gamma, theta, pi)
        assert all(_bits(a) == _bits(b) for a, b in zip(new, ref))

    @pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
    def test_branch_cases_reach_their_branch(self, branch, monkeypatch):
        f, beta, gamma, theta, pi = BRANCH_CASES[branch]
        points = []
        evaluate = oracles._prevalence_and_slope

        def record(a, *rest):
            points.append(a)
            return evaluate(a, *rest)

        monkeypatch.setattr(oracles, "_prevalence_and_slope", record)
        oracles.alpha_from_prevalence(f, beta, gamma, theta, pi)
        center, spread = float(logit(f)), abs(beta) + abs(gamma)
        if branch == "lower expansion":
            assert min(points) < center - spread
        elif branch == "upper expansion":
            assert max(points) > center + spread
        else:
            # Bracket ends are always evaluated points, so a bisection step is
            # the midpoint of two earlier evaluations.
            assert any(
                a == 0.5 * (x + y)
                for k, a in enumerate(points)
                for x, y in combinations(points[:k], 2)
            )


SPARSE = PopulationParams(
    alpha=alpha_from_prevalence(0.02, 1.5, 0.0, 0.1, 0.08), beta=1.5, gamma=0.0, theta=0.1, pi=0.08
)
SPARSE_DESIGN = DesignParams(nu=0.5, n=150.0)
FIG1 = PopulationParams(
    alpha=alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5), beta=1.0, gamma=0.3, theta=0.4, pi=0.5
)
FIG1_DESIGN = DesignParams(nu=1.0, n=20000.0)


class TestStalledInputs:
    """Fits and limits that used to repeat one iteration until the cap.

    Each expected value is the outcome before the fixed-point exit, except
    sparse seed 5 rep 2 and f1 = 0.19: there the endgame rule of
    ``newton_ascent`` carries the iteration from max|grad| 1.1e-12 and
    8.1e-12 to the tolerance, moving the result by at most 8e-12 relative.
    Their digests were 4c80b21d0be37e02 and 29637bbb60efe969.
    """

    @pytest.mark.parametrize(
        "seed, replicate, cells, expected",
        [
            (5, 2, [81, 11, 7, 1, 35, 3, 11, 1], ("ok", "78d2727dd5e45746", 1e-13)),
            (5, 3, [91, 5, 3, 1, 34, 2, 14, 0], ("NonConvergence", "1.56e-08")),
            # Stops at max|grad| 1.2e-11, outside the endgame's 1e-11.
            (7, 2, [85, 5, 10, 0, 30, 2, 18, 0], ("ok", "bee7b690ca2a885a", 1e-8)),
        ],
    )
    def test_sparse_adjcon_fits(self, seed, replicate, cells, expected):
        table = sample_table(SPARSE, SPARSE_DESIGN, seed, replicate)
        assert table.w.ravel().tolist() == cells
        kind, value = expected[:2]
        if kind == "ok":
            fit = fit_constrained(table, SPARSE.f)
            assert _digest(fit.params, fit.cov, fit.alpha_hat, fit.loglik, fit.se_gamma) == value
            assert fit.iterations < 100
            assert _max_grad(table.w / table.n, SPARSE.f, fit.params) <= expected[2]
        else:
            with pytest.raises(NonConvergence) as info:
                fit_constrained(table, SPARSE.f)
            match = re.fullmatch(
                r"constrained fit gradient max-norm (\S+) after (\d+) iterations", str(info.value)
            )
            assert match.group(1) == value
            assert int(match.group(2)) < 100

    @pytest.mark.parametrize(
        "f1, expected",
        [
            (0.08, ("NonConvergence", "8.93e-09")),
            (0.19, ("ok", "33435faab2377259")),
            (0.84, ("NonConvergence", "1.77e-09")),
        ],
    )
    def test_misspec_limits(self, f1, expected, monkeypatch):
        evaluate = simulate_mod.loglik_grad_hess_s
        calls = []

        def count(*args):
            calls.append(1)
            return evaluate(*args)

        monkeypatch.setattr(simulate_mod, "loglik_grad_hess_s", count)
        kind, value = expected
        if kind == "ok":
            lp = limiting_value(FIG1, FIG1_DESIGN, f1)
            assert _digest(lp.s_star, lp.expected_loglik, lp.sandwich) == value
            assert _max_grad(expected_masses(FIG1, FIG1_DESIGN.nu), f1, lp.s_star) <= 1e-12
        else:
            with pytest.raises(NonConvergence, match=f"max-norm {value} at f_used={f1}"):
                limiting_value(FIG1, FIG1_DESIGN, f1)
        # Running to the 200-iteration cap took 3,661-5,525 evaluations.
        assert len(calls) < 500

    @pytest.mark.parametrize(
        "seed, replicate, params, se_gamma",
        [
            (
                1, 36,
                (1.029243056397937, 0.3079799757209617, 0.39528760727119455, 0.5002727363022648),
                0.029298847104172673,
            ),
            (
                4, 2,
                (1.0302809600602596, 0.28067446128316076, 0.39276175910743943, 0.501859143503891),
                0.029284357659070396,
            ),
        ],
    )
    def test_fig1_adjcon_fits_reach_the_tolerance(self, seed, replicate, params, se_gamma):
        # At max|grad| about 7e-13 these wandered for 100 and 69 iterations
        # (1,665 and 946 evaluations) before the endgame rule; the expected
        # values are the results they stopped at.
        table = sample_table(FIG1, FIG1_DESIGN, seed, replicate)
        fit = fit_constrained(table, FIG1.f)
        assert fit.iterations <= 10
        assert _max_grad(table.w / table.n, FIG1.f, fit.params) <= 1e-13
        assert_allclose(fit.params, params, rtol=1e-9)
        assert_allclose(fit.se_gamma, se_gamma, rtol=1e-9)


design_nu = st.floats(1e-6, 1e6)
sample_size = st.integers(2, 10**7)


class TestBatchSampler:
    @given(
        alpha=coef, beta=coef, gamma=coef, theta=prob, pi=prob, nu=design_nu, n=sample_size,
        seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**64 - 1), count=st.integers(1, 12),
    )
    # One case and one control: once a split takes the single subject, the
    # remaining count is 0 in that lane and positive in others.
    @example(alpha=-1.0, beta=0.5, gamma=0.2, theta=0.4, pi=0.5, nu=1.0, n=2, seed=3, first=0,
             count=12)
    @example(alpha=0.0, beta=0.0, gamma=0.0, theta=0.5, pi=0.5, nu=1e-6, n=10**7, seed=0,
             first=2**64 - 3, count=6)
    def test_matches_frozen_one_table_sampler(
        self, alpha, beta, gamma, theta, pi, nu, n, seed, first, count
    ):
        params = PopulationParams(alpha, beta, gamma, theta, pi)
        design = DesignParams(nu, float(n))
        indices = [(first + k) % 2**64 for k in range(count)]
        try:
            retro_distribution(params)
        except InvalidInput:
            # Where the control probabilities round to 0 there is no control
            # distribution to draw from, and the sampler says so.
            with pytest.raises(InvalidInput):
                sample_tables(params, design, seed, indices)
            return
        try:
            want = [oracles.sample_table(params, design, seed, i) for i in indices]
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                sample_tables(params, design, seed, indices)
            return
        got = sample_tables(params, design, seed, indices)
        assert _bits(got) == _bits(want)
        assert _bits(sample_table(params, design, seed, indices[-1]).w) == _bits(want[-1])

    def test_example_has_lanes_with_nothing_left(self):
        params = PopulationParams(-1.0, 0.5, 0.2, 0.4, 0.5)
        tables = sample_tables(params, DesignParams(1.0, 2.0), 3, range(12))
        first_split = tables[:, :, 0, 0]  # cell (i, j) = (0, 0) of controls and cases
        assert np.any(first_split == 1) and np.any(first_split == 0)
