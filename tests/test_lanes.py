"""Lane independence of the batched kernels.

Every batched kernel promises that a lane's result does not depend on the
other lanes of its batch: the same bits, iteration count and typed failure
as the lane fitted, solved or evaluated alone.  These tests draw batches
that mix ordinary lanes with lanes that fail in each typed way and compare
each lane with the reversed batch and with the one-lane call.
"""

from itertools import product
from statistics import NormalDist

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cceff import (
    CaseControlTable,
    CCEffError,
    DesignParams,
    FitResult,
    InvalidInput,
    Method,
    PopulationParams,
    alpha_from_prevalence,
    fit_adjusted,
    fit_adjusted_batch,
    fit_constrained,
    fit_constrained_batch,
    fit_marginal,
    fit_marginal_batch,
    limiting_value,
    limiting_values,
    misspec_sweep,
    retro_distribution,
    sample_tables,
    theory_curve,
    wald_test,
)
from cceff._constrained import loglik_grad_hess_s, profile_parts
from cceff.estimators import _adjusted_lanes, _constrained_lanes, _results, _wald_lanes
from cceff.model import _retro_lanes

from test_bitwise import (
    BRANCH_CASES, KERNEL_LANES, kernel_args, kernel_lane, quietly, same_bits,
)


def _outcome(value):
    """Everything a fit, limit or error reports, as comparable bits."""
    if isinstance(value, CCEffError):
        return type(value).__name__, str(value)
    if isinstance(value, FitResult):
        return (
            np.asarray(value.params).tobytes(), value.cov.tobytes(), value.se_gamma,
            value.gamma_hat, value.loglik, value.iterations, value.alpha_hat,
            None if value.cov_sandwich is None else value.cov_sandwich.tobytes(),
        )
    return np.asarray(value.s_star).tobytes(), value.expected_loglik, value.sandwich.tobytes()


def _alone(fit, *args):
    try:
        return _outcome(fit(*args))
    except CCEffError as exc:
        return _outcome(exc)


# Tables that make each estimator fail in its typed way, cells (d, i, j) in C order.
SPECIAL_TABLES = [
    [40, 30, 20, 10, 25, 0, 15, 0],  # no exposed case: Mar ZeroCell, Adj quasi-separation
    [40, 30, 0, 0, 25, 35, 0, 0],  # no covariate: Adj and AdjCon ZeroMargin
    [81, 11, 7, 1, 35, 3, 11, 1],  # sparse-design tables: AdjCon converges,
    [91, 5, 3, 1, 34, 2, 14, 0],  # stalls (NonConvergence),
    [85, 5, 10, 0, 30, 2, 18, 0],  # and reaches the tolerance from a rounding-level step
    [40, 0, 30, 0, 0, 25, 0, 35],  # complete separation: Adj and AdjCon Separation
    [499, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],  # real-valued weights
    [0, 0, 6, 0, 0, 2, 4, 0],  # two filled patterns: Adj inverse information indefinite,
    [0, 1, 4, 0, 0, 3, 2, 0],  # or singular (Separation)
]

# Exposure fraction 7e-9 / 180: the AdjCon estimate of pi is pinned at the edge (BoundaryEstimate).
BOUNDARY_TABLE = [50, 1e-9, 40, 2e-9, 30, 3e-9, 60, 1e-9]

SPARSE_F = PopulationParams(
    alpha_from_prevalence(0.02, 1.5, 0.0, 0.1, 0.08), beta=1.5, gamma=0.0, theta=0.1, pi=0.08
).f

counts = st.lists(st.integers(0, 60), min_size=8, max_size=8)
tables = st.one_of(st.sampled_from(SPECIAL_TABLES), counts).filter(
    lambda c: sum(c[:4]) > 0 and sum(c[4:]) > 0
)
# SPARSE_F is the prevalence of the sparse-design tables; 1.0 makes every
# AdjCon lane InfeasibleStart.
prevalences = st.sampled_from([SPARSE_F, 0.3, 0.9, 1e-200, 1.0])


class TestFitLanes:
    @settings(max_examples=30, deadline=None)
    @given(block=st.lists(tables, min_size=1, max_size=12), f=prevalences, robust=st.booleans())
    @example(block=SPECIAL_TABLES, f=SPARSE_F, robust=True)
    @example(block=SPECIAL_TABLES[::-2], f=1.0, robust=False)
    # One ulp below 1 some line-search candidates fail to evaluate; a lane
    # stops at its first accepted or failed one, whatever its batch.
    @example(block=[[44, 48, 57, 29, 31, 59, 30, 11], [16, 57, 3, 48, 39, 29, 50, 48]],
             f=0.9999999999999999, robust=False)
    # Adj takes a step no halving was accepted for on the first table and
    # ends at its 100-iteration cap on the second.
    @example(block=[[0.211, 1820.0, 3010.0, 0.706, 2.01, 0.0, 71.3, 0.0],
                    [0.0004532, 75660.0, 901.0, 0.06907, 0.0004024, 6.88e-05, 39.85, 0.01448]],
             f=0.3, robust=True)
    def test_each_lane_is_fitted_as_alone(self, block, f, robust):
        w = np.array(block, dtype=float).reshape(-1, 2, 2, 2)
        singles = [CaseControlTable(cells) for cells in w]
        for batch, fit, args in (
            (fit_marginal_batch, fit_marginal, ()),
            (fit_adjusted_batch, fit_adjusted, ()),
            (lambda t: fit_constrained_batch(t, f, robust), fit_constrained, (f, robust)),
        ):
            forward = [_outcome(o) for o in batch(w)]
            backward = [_outcome(o) for o in batch(w[::-1])][::-1]
            alone = [_alone(fit, table, *args) for table in singles]
            assert forward == backward == alone

    def test_blocks_hold_every_failure_kind(self):
        w = np.array(SPECIAL_TABLES, dtype=float).reshape(-1, 2, 2, 2)
        kinds = {
            type(o).__name__
            for batch in (fit_marginal_batch(w), fit_constrained_batch(w, SPARSE_F))
            for o in batch
        }
        kinds |= {type(o).__name__ for o in fit_constrained_batch(w, 1.0)}
        assert kinds == {
            "FitResult", "ZeroCell", "ZeroMargin", "Separation", "NonConvergence",
            "SingularInformation", "InfeasibleStart",
        }

    def test_adjusted_outcomes_can_be_handed_in(self):
        w = np.array(SPECIAL_TABLES, dtype=float).reshape(-1, 2, 2, 2)
        adjusted = _adjusted_lanes(w)
        failed = list(adjusted.failed)
        given_adj = _results(_constrained_lanes(w, SPARSE_F, adjusted=adjusted))
        own_adj = _results(_constrained_lanes(w, SPARSE_F))
        assert [_outcome(o) for o in given_adj] == [_outcome(o) for o in own_adj]
        assert adjusted.failed == failed  # Adj's own outcomes are left as they were

    def test_constrained_verdicts_of_mixed_lanes_are_the_lone_fits(self):
        # The mc_sparse tables of seeds 5 and 7 hold a NonConvergence and a
        # SingularInformation lane among converged ones.
        sparse = PopulationParams(
            alpha_from_prevalence(0.02, 1.5, 0.0, 0.1, 0.08), 1.5, 0.0, 0.1, 0.08
        )
        design = DesignParams(0.5, 150.0)
        w = np.concatenate(
            [sample_tables(sparse, design, seed, range(6)) for seed in (5, 7)]
            + [np.reshape(BOUNDARY_TABLE, (1, 2, 2, 2))]
        )
        batch = fit_constrained_batch(w, sparse.f)
        kinds = {type(o).__name__ for o in batch}
        assert kinds == {"FitResult", "NonConvergence", "SingularInformation", "BoundaryEstimate"}
        alone = [_alone(fit_constrained, CaseControlTable(t), sparse.f) for t in w]
        assert [_outcome(o) for o in batch] == alone

    def test_fit_fields_are_python_numbers(self):
        w = np.array(SPECIAL_TABLES + [BOUNDARY_TABLE], dtype=float).reshape(-1, 2, 2, 2)
        for method, batch in (
            (Method.MAR, fit_marginal_batch(w)),
            (Method.ADJ, fit_adjusted_batch(w)),
            (Method.ADJCON, fit_constrained_batch(w, SPARSE_F, f_misspecified=True)),
        ):
            fits = [o for o in batch if isinstance(o, FitResult)]
            assert fits and all(fit.method is method for fit in fits)
            for fit in fits:
                numbers = [fit.gamma_hat, fit.se_gamma, fit.loglik, *fit.params]
                if method is Method.ADJCON:
                    numbers += [fit.alpha_hat, fit.f]
                assert all(type(x) is float for x in numbers)
                assert type(fit.iterations) is int


class TestWaldLanes:
    def test_each_lane_is_the_one_fit_test(self):
        rng = np.random.default_rng(2026)
        level = 0.05
        se = rng.uniform(0.01, 2.0, 1000)
        z = rng.normal(0.0, 3.0, 1000)
        # The last 200 |z| lie within 8e-12 of the critical value, so that p
        # is within 1e-12 of level on either side.
        z_crit = NormalDist().inv_cdf(1.0 - level / 2.0)
        z[-200:] = np.sign(z[-200:]) * (z_crit + rng.uniform(-8e-12, 8e-12, 200))
        gamma = z * se
        z_lane, p_lane, reject_lane = _wald_lanes(gamma, se, level)
        assert np.all(np.abs(p_lane[-200:] - level) < 1e-12)
        assert 0 < np.count_nonzero(reject_lane[-200:]) < 200
        for g, s, z1, p1, r1 in zip(gamma.tolist(), se.tolist(), z_lane, p_lane, reject_lane):
            fit = FitResult(
                method=Method.ADJ, gamma_hat=g, se_gamma=s, params=(0.0, 0.0, g),
                loglik=0.0, iterations=1, cov=np.eye(3),
            )
            test = wald_test(fit, level)
            assert (test.z, test.p_value, test.reject) == (z1, p1, r1)
            assert (type(test.z), type(test.p_value), type(test.reject)) == (float, float, bool)


def _every_table(per_arm):
    """Every table with per_arm controls and per_arm cases, shape (R, 2, 2, 2)."""
    arm = [c for c in product(range(per_arm + 1), repeat=4) if sum(c) == per_arm]
    return np.array([a + b for a in arm for b in arm], dtype=float).reshape(-1, 2, 2, 2)


class TestEveryTable:
    def test_blocks_of_five_per_arm_tables_match_lone_fits(self):
        # All 56 x 56 = 3,136 tables, among them the unidentified Adj lanes
        # whose inverse information is singular or indefinite.
        tables = _every_table(5)
        for start in range(0, len(tables), 256):
            block = tables[start : start + 256]
            for batch, fit in (
                (fit_marginal_batch, fit_marginal),
                (fit_adjusted_batch, fit_adjusted),
            ):
                for w, out in zip(block, batch(block)):
                    assert isinstance(out, (FitResult, CCEffError))
                    assert _outcome(out) == _alone(fit, CaseControlTable(w))


FIG1 = PopulationParams(
    alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5), beta=1.0, gamma=0.3, theta=0.4, pi=0.5
)
FIG1_DESIGN = DesignParams(nu=1.0, n=20000.0)
# Includes the stalled limits (0.08, 0.84) and an inadmissible value.
f1_values = st.sampled_from([0.05, 0.08, 0.19, 0.3, 0.42, 0.84, 0.95, 0.9995])


class TestLimitLanes:
    @settings(max_examples=15, deadline=None)
    @given(f1s=st.lists(f1_values, min_size=1, max_size=6))
    @example(f1s=[0.08, 0.19, 0.9995, 0.84])
    def test_each_limit_is_solved_as_alone(self, f1s):
        forward = [_outcome(o) for o in limiting_values(FIG1, FIG1_DESIGN, f1s)]
        backward = [_outcome(o) for o in limiting_values(FIG1, FIG1_DESIGN, f1s[::-1])][::-1]
        alone = [_alone(limiting_value, FIG1, FIG1_DESIGN, f1) for f1 in f1s]
        assert forward == backward == alone

        rows = misspec_sweep(FIG1, FIG1_DESIGN, f1s)
        for row, single in zip(rows, alone):
            if len(single) == 2:  # an error: (kind, message)
                assert row.error == f"{single[0]}: {single[1]}"
            else:
                assert row.error == "" and np.asarray(row.s_star).tobytes() == single[0]


PANELS = [
    (1.0, 0.3, 0.4, 0.5, 1.0),
    (5e-4, 0.3, 0.4, 0.5, 1.0),
    (-1.5, 0.5, 0.6, 0.2, 0.5),
    (0.0, 0.3, 0.4, 0.5, 2.0),
    (50.0, 30.0, 1.0 - 1e-8, 0.5, 1.0),  # singular information near f = 0.9
]


def _point(f, panel):
    try:
        (row,) = theory_curve([f], *panel, 20000.0)
        return tuple(np.float64(getattr(row, name)).tobytes() for name in row.__dataclass_fields__)
    except (CCEffError, ValueError) as exc:
        return type(exc).__name__, str(exc), f


class TestTheoryLanes:
    @settings(max_examples=20, deadline=None)
    @given(
        grid=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=8),
        panel=st.sampled_from(PANELS),
    )
    @example(grid=[0.5, 0.9, 0.99], panel=PANELS[4])
    # The first failing row lies inside the grid: InvalidInput at f = 0.98,
    # SingularInformation at f = 0.9.
    @example(
        grid=[0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98],
        panel=(21.021182562130463, 17.434819286984137, 0.5, 0.8373637166030036, 1000.0),
    )
    @example(
        grid=[0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98],
        panel=(5.0, -26.018234178568356, 0.35725291755417643, 0.2904179516189237, 1000.0),
    )
    def test_grid_rows_are_computed_as_alone(self, grid, panel):
        alone = [_point(f, panel) for f in grid]
        try:
            rows = theory_curve(grid, *panel, 20000.0)
        except (CCEffError, ValueError) as exc:
            # The grid raises the first failing row's error, naming its prevalence.
            first = next(a for a in alone if isinstance(a[0], str))
            assert (type(exc).__name__, str(exc)) == first[:2]
            if isinstance(exc, CCEffError):
                assert exc.f == first[2]
            return
        assert [
            tuple(np.float64(getattr(r, name)).tobytes() for name in r.__dataclass_fields__)
            for r in rows
        ] == alone


lane_args = st.tuples(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(1e-8, 1.0 - 1e-8),
    st.floats(1e-8, 1.0 - 1e-8),
)


class TestAlphaLanes:
    @given(lanes=st.lists(st.one_of(st.sampled_from(list(BRANCH_CASES.values())), lane_args),
                          min_size=1, max_size=10))
    @example(lanes=list(BRANCH_CASES.values()) + [(1e-300, 50.0, -50.0, 1e-8, 1 - 1e-8)])
    # Failing lanes among good ones: f outside (0, 1) and a root beyond -750
    # leave the Newton loop before it starts, a subnormal f at its end.
    @example(lanes=[(0.3, 1.0, 0.3, 0.4, 0.5), (0.0, 1.0, 0.3, 0.4, 0.5),
                    (1e-310, 0.0, 0.0, 0.5, 0.5), (1e-320, 50.0, 50.0, 0.5, 0.5),
                    (6e-309, 0.0, 0.0, 0.5, 0.5), (1.5, 1.0, 0.3, 0.4, 0.5),
                    *BRANCH_CASES.values()])
    def test_each_lane_is_inverted_as_alone(self, lanes):
        batch = alpha_from_prevalence(*np.array(lanes).T)
        for value, args in zip(batch, lanes):
            try:
                alone = alpha_from_prevalence(*args)
            except CCEffError:
                assert np.isnan(value)
            else:
                assert np.float64(alone).tobytes() == value.tobytes()


class TestProfileLanes:
    @given(lanes=st.lists(kernel_lane, min_size=2, max_size=8))
    @example(lanes=KERNEL_LANES)
    def test_each_lane_is_evaluated_as_alone(self, lanes):
        f, s, w = kernel_args(lanes)
        batch = quietly(profile_parts, f, s)[0], quietly(loglik_grad_hess_s, w, f, s)[0]
        for k in range(len(lanes)):
            one = f[k], s[k : k + 1]
            alone = (quietly(profile_parts, *one)[0],
                     quietly(loglik_grad_hess_s, w[k : k + 1], *one)[0])
            for parts, lone in zip(batch, alone):
                assert all(same_bits(part[k], lone_part[0]) for part, lone_part in zip(parts, lone))


params = st.tuples(
    st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
    st.floats(1e-8, 1.0 - 1e-8), st.floats(1e-8, 1.0 - 1e-8),
)
# The prevalence rounds to 1.0; the control law underflows to all zeros.
INVALID_LAWS = [(50.0, 50.0, 50.0, 0.5, 0.5), (37.0, 13.0, 0.0, 1e-8, 0.5)]


class TestRetroLanes:
    @given(lanes=st.lists(st.one_of(st.sampled_from(INVALID_LAWS), params), min_size=1,
                          max_size=10))
    @example(lanes=INVALID_LAWS + [(-2.0, 1.0, 0.3, 0.4, 0.5)])
    def test_each_lane_is_the_law_alone(self, lanes):
        f, invalid, laws = _retro_lanes(*np.array(lanes).T)
        for k, args in enumerate(lanes):
            params = PopulationParams(*args)
            try:
                alone = retro_distribution(params)
            except InvalidInput:
                assert invalid[k]
                continue
            assert not invalid[k]
            assert np.float64(params.f).tobytes() == f[k].tobytes()
            for name in ("p_case", "p_ctrl", "p1_prime", "p0_prime", "d_mat", "h_mat"):
                assert np.asarray(getattr(alone, name)).tobytes() == getattr(laws, name)[k].tobytes()
