"""Bitwise identity of the constrained-likelihood fast path.

The prevalence inversion and the prevalence derivatives run on plain
floats, and the constrained Newton loops stop at exact fixed points.
Neither may change a number: some verdicts are decided at the
log-likelihood's rounding floor (a sparse-table AdjCon fit stalls at
max|grad| 1.56e-8 against a 1e-8 bar), where a last-ulp change could flip
a NonConvergence.  The kernels are therefore compared bit for bit with the
frozen array forms in ``oracles``, and the stalled fits and limits with
digests of their outputs before the fast path existed.
"""

from itertools import combinations
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import logit

import cceff.simulate as simulate_mod
from cceff import (
    CCEffError,
    DesignParams,
    NonConvergence,
    PopulationParams,
    alpha_from_prevalence,
    fit_constrained,
    limiting_value,
    sample_table,
)
from cceff._constrained import f_derivs

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


class TestStalledInputs:
    """Fits and limits that used to repeat one iteration until the cap.

    Each expected value is the outcome before the fixed-point exit: the
    digest covers every float the fit or limit returns.
    """

    @pytest.mark.parametrize(
        "seed, replicate, cells, expected",
        [
            (5, 2, [81, 11, 7, 1, 35, 3, 11, 1], ("ok", "4c80b21d0be37e02")),
            (5, 3, [91, 5, 3, 1, 34, 2, 14, 0], ("NonConvergence", "1.56e-08")),
            (7, 2, [85, 5, 10, 0, 30, 2, 18, 0], ("ok", "bee7b690ca2a885a")),
        ],
    )
    def test_sparse_adjcon_fits(self, seed, replicate, cells, expected):
        table = sample_table(SPARSE, SPARSE_DESIGN, seed, replicate)
        assert table.w.ravel().tolist() == cells
        kind, value = expected
        if kind == "ok":
            fit = fit_constrained(table, SPARSE.f)
            assert _digest(fit.params, fit.cov, fit.alpha_hat, fit.loglik, fit.se_gamma) == value
            assert fit.iterations < 100
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
            (0.19, ("ok", "29637bbb60efe969")),
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
        design = DesignParams(nu=1.0, n=20000.0)
        kind, value = expected
        if kind == "ok":
            lp = limiting_value(FIG1, design, f1)
            assert _digest(lp.s_star, lp.expected_loglik, lp.sandwich) == value
        else:
            with pytest.raises(NonConvergence, match=f"max-norm {value} at f_used={f1}"):
                limiting_value(FIG1, design, f1)
        # Running to the 200-iteration cap took 3,661-5,525 evaluations.
        assert len(calls) < 500
