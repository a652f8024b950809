"""Bitwise identity of the constrained-likelihood fast path and the batch sampler.

The prevalence inversion and the prevalence derivatives run on plain
floats, and the constrained Newton loops stop at exact fixed points.
Neither may change a number: some verdicts are decided at the
log-likelihood's rounding floor (a sparse-table AdjCon fit stalls at
max|grad| 1.56e-8 against a 1e-8 bar), where a last-ulp change could flip
a NonConvergence.  The kernels are therefore compared bit for bit with the
frozen array forms in ``oracles``, and the stalled fits and limits with
digests of their outputs.  The batch sampler is compared bit for bit with
the frozen one-table sampler, ``newton_ascent`` with its frozen form on the
fits' and limits' own evaluations, and the theory curves of the benchmark's
panels with digests of every field.
"""

from contextlib import contextmanager
from itertools import combinations
import hashlib
import re
import warnings

import numpy as np
from numpy.testing import assert_allclose
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logit

import cceff.estimators as estimators_mod
import cceff.model as model_mod
import cceff.simulate as simulate_mod
from cceff import (
    CCEffError,
    DesignParams,
    InvalidInput,
    NonConvergence,
    PopulationParams,
    alpha_from_prevalence,
    fit_constrained,
    fit_constrained_batch,
    limiting_value,
    limiting_values,
    retro_distribution,
    sample_table,
    sample_tables,
    theory_curve,
)
from cceff._constrained import expected_masses, f_derivs, loglik_grad_hess_s, profile_parts

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


# Lanes of the constrained likelihood kernels: (f, s, cell weights).  The
# weights include empty cells, and the listed prevalences lie outside (0, 1)
# or are subnormal, so that some inversions fail and give NaN lanes.
FAILING_F = [0.0, 1.0, 1e-320, 1e-310]
kernel_lane = st.tuples(
    st.one_of(prevalence, st.sampled_from(FAILING_F)),
    st.tuples(coef, coef, prob, prob),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=8, max_size=8),
)
# The bisection point, a subnormal f whose root lies beyond -750, and an
# inversion that fails next to one that does not.
KERNEL_LANES = [
    (BRANCH_CASES["bisection"][0], BRANCH_CASES["bisection"][1:], [81, 11, 7, 1, 35, 3, 11, 1]),
    (1e-320, (50.0, 50.0, 0.5, 0.5), [0, 0, 6, 0, 0, 2, 4, 0]),
    (0.3, (1.0, 0.3, 0.4, 0.5), [40, 30, 20, 10, 25, 0, 15, 0]),
    (1.0, (1.0, 0.3, 0.4, 0.5), [1.0] * 8),
]


def kernel_args(lanes):
    """The (f, s, weights) arrays of a list of kernel lanes."""
    f, s, w = zip(*lanes)
    return np.array(f, dtype=float), np.array(s, dtype=float), np.array(w, dtype=float)


def quietly(fn, *args):
    """fn(*args), and whether it warned.

    The frozen lane form warns where the prevalence slope in alpha rounds to
    0 (f one ulp below 1), and leaves inf and NaN in that lane's parts.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return fn(*args), bool(caught)


def same_bits(x, y):
    """Whether x and y hold the same bits, a NaN matching any NaN."""
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and _bits(x[~nan]) == _bits(y[~nan])


def _args(branch):
    return dict(zip(("f", "beta", "gamma", "theta", "pi"), BRANCH_CASES[branch]))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _digest(*values):
    return hashlib.sha256(b"".join(_bits(v) for v in values)).hexdigest()[:16]


def _max_grad(weights, f, s):
    return np.max(np.abs(loglik_grad_hess_s(weights.reshape(1, 8), f, np.array([s]))[2][0]))


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

    def test_chained_lanes_match_frozen_reference(self, monkeypatch):
        # Perturbations of the bisection point: about a third keep bisecting
        # toward a bracket end past _CHAIN_AFTER steps, so they evaluate
        # chains of midpoints ahead; the rest converge by Newton.
        rng = np.random.default_rng(11)
        lanes = np.array(BRANCH_CASES["bisection"]) * (1.0 + rng.uniform(-2e-5, 2e-5, (160, 5)))
        batch = alpha_from_prevalence(*lanes.T)
        evaluations = []
        evaluate = oracles._prevalence_and_slope

        def count(*args):
            evaluations[-1] += 1
            return evaluate(*args)

        monkeypatch.setattr(oracles, "_prevalence_and_slope", count)
        for value, args in zip(batch, lanes):
            evaluations.append(0)
            assert _bits(value) == _bits(oracles.alpha_from_prevalence(*args))
        chained = sum(n > 3 * model_mod._CHAIN_AFTER for n in evaluations)
        assert chained >= 32 and len(lanes) - chained >= 32

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


class TestProfileKernels:
    @given(lanes=st.lists(kernel_lane, min_size=1, max_size=8), shared_f=st.booleans())
    @example(lanes=KERNEL_LANES, shared_f=False)
    @example(lanes=KERNEL_LANES[2:], shared_f=True)
    def test_match_frozen_lane_form(self, lanes, shared_f):
        f, s, w = kernel_args(lanes)
        if shared_f:
            f = f[0]
        for kernel, frozen_kernel, args in (
            (profile_parts, oracles.profile_parts, (f, s)),
            (loglik_grad_hess_s, oracles.loglik_grad_hess_s, (w, f, s)),
        ):
            new, warned = quietly(kernel, *args)
            ref, frozen_warned = quietly(frozen_kernel, *args)
            assert frozen_warned or not warned
            for part, frozen in zip(new, ref):
                assert part.shape == frozen.shape
                assert all(same_bits(a, b) for a, b in zip(part, frozen))


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
    Their digests were 4c80b21d0be37e02 and 29637bbb60efe969.  Sparse seed 7
    rep 2 stopped at max|grad| 1.2e-11, outside that rule's 1e-11, with
    digest bee7b690ca2a885a; the rule's predicted-gain arm (within the fit's
    1e-8 acceptance bar) now takes its full Newton step to the tolerance,
    moving the result by about 1e-11 relative.
    """

    @pytest.mark.parametrize(
        "seed, replicate, cells, expected",
        [
            (5, 2, [81, 11, 7, 1, 35, 3, 11, 1], ("ok", "78d2727dd5e45746", 1e-13)),
            (5, 3, [91, 5, 3, 1, 34, 2, 14, 0], ("NonConvergence", "1.56e-08")),
            (7, 2, [85, 5, 10, 0, 30, 2, 18, 0], ("ok", "b7b646bd64ada2b0", 1e-13)),
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


def _ascent_bits(result):
    x, state, iterations, failed = result
    return _bits(x), [_bits(part) for part in state], iterations.tobytes(), failed.tobytes()


def _nan_where_failing(ll, stop_grad, *rest):
    """A state, with ll NaN at every point whose stopping gradient is not finite.

    The routine fails such a point; the frozen one fails a point only on a
    NaN ll.  So the frozen routine evaluates through this, and a failed
    lane's state from the routine is compared through it too.
    """
    return np.where(np.isfinite(np.abs(stop_grad).max(axis=1)), ll, np.nan), stop_grad, *rest


@contextmanager
def _beside_frozen_ascent(module):
    """Run each newton_ascent that module calls through the frozen routine too.

    Yields the list of (routine, frozen) result bits, one pair a call.
    """
    pairs = []
    routine = module.newton_ascent

    def both(evaluate, *args):
        got = routine(evaluate, *args)
        frozen = oracles.newton_ascent(lambda x, k: _nan_where_failing(*evaluate(x, k)), *args)
        x, state, iterations, failed = got
        seen = x, _nan_where_failing(*state), iterations, failed
        pairs.append((_ascent_bits(seen), _ascent_bits(frozen)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "newton_ascent", both)
        yield pairs


# A table: its eight cells, or a replicate (design, seed, index) of the
# sparse or the Fig. 1 Monte Carlo.  Small counts give the typed failures.
ascent_table = st.one_of(
    st.lists(st.integers(0, 60), min_size=8, max_size=8),
    st.lists(st.integers(0, 20000), min_size=8, max_size=8),
    st.tuples(st.sampled_from(["sparse", "fig1"]), st.integers(0, 30), st.integers(0, 60)),
)
# 1e-5 sends some line-search candidates of small tables out of the box;
# at 0.9999999999999999 every p (1 - p) rounds to 0 at some intercepts.
ascent_f = st.sampled_from([SPARSE.f, FIG1.f, 0.3, 0.9, 1e-5, 1e-200, 0.9999999999999999])
STALLED = [("sparse", 5, 2), ("sparse", 5, 3), ("sparse", 7, 2), ("fig1", 1, 36), ("fig1", 4, 2)]


def _table_cells(table):
    if isinstance(table, tuple):
        design, seed, index = table
        truth = {"sparse": (SPARSE, SPARSE_DESIGN), "fig1": (FIG1, FIG1_DESIGN)}[design]
        return sample_table(*truth, seed, index).w.ravel()
    return np.array(table, dtype=float)


class TestNewtonAscent:
    """``newton_ascent`` against its frozen form: x, state, iterations, failed mask."""

    @settings(max_examples=40, deadline=None)
    @given(block=st.lists(ascent_table, min_size=1, max_size=8), f=ascent_f)
    @example(block=STALLED[:3], f=SPARSE.f)
    @example(block=STALLED[3:], f=FIG1.f)
    @example(block=[[40, 30, 20, 10, 25, 5, 15, 8], [81, 11, 7, 1, 35, 3, 11, 1]],
             f=0.9999999999999999)
    @example(block=[[5, 2, 0, 0, 6, 1, 4, 7], [6, 0, 7, 0, 6, 0, 3, 2],
                    [40, 30, 20, 10, 25, 5, 15, 8]], f=1e-5)
    def test_fit_lanes_match_frozen_routine(self, block, f):
        w = np.array([_table_cells(t) for t in block]).reshape(-1, 2, 2, 2)
        w = w[(w[:, 0].sum(axis=(1, 2)) > 0) & (w[:, 1].sum(axis=(1, 2)) > 0)]
        if not len(w):
            return
        with _beside_frozen_ascent(estimators_mod) as pairs:
            fit_constrained_batch(w, f)
        for got, want in pairs:
            assert got == want

    @settings(max_examples=8, deadline=None)
    @given(f1s=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5),
           truth=st.sampled_from(["fig1", "sparse"]))
    @example(f1s=[0.08, 0.19, 0.84], truth="fig1")
    def test_limit_lanes_match_frozen_routine(self, f1s, truth):
        params, design = {"sparse": (SPARSE, SPARSE_DESIGN), "fig1": (FIG1, FIG1_DESIGN)}[truth]
        with _beside_frozen_ascent(simulate_mod) as pairs:
            limiting_values(params, design, f1s)
        assert pairs
        for got, want in pairs:
            assert got == want


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


class TestTheoryCurves:
    # The closed_form benchmark panels (beta, gamma, theta, pi, nu) on the
    # grid 0.01:0.99:99 at the CLI's default n = 50000: a digest of every
    # PowerPoint field of every row.
    @pytest.mark.parametrize(
        "panel, expected",
        [
            ((1.0, 0.3, 0.4, 0.5, 1.0), "0a0199790d2836e3"),
            ((1.0, 0.05, 0.4, 0.5, 1.0), "c72f7c277d75e9d7"),
            ((5e-4, 0.3, 0.4, 0.5, 1.0), "77db9a2abd628b67"),
            ((2.0, 0.3, 0.2, 0.3, 3.0), "bc1363216ea232b6"),
            ((-1.5, 0.5, 0.6, 0.2, 0.5), "9e80b393e1eb8cab"),
        ],
    )
    def test_panel_rows_keep_their_bits(self, panel, expected):
        grid = [float(x) for x in np.linspace(0.01, 0.99, 99)]
        rows = theory_curve(grid, *panel, 50000.0)
        fields = [getattr(r, name) for r in rows for name in r.__dataclass_fields__]
        assert _digest(*fields) == expected
