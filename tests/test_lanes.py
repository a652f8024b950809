"""Lane independence of the batched kernels.

Every batched kernel promises that a lane's result does not depend on the
other lanes of its batch: the same bits, iteration count and typed failure
as the lane fitted, solved or evaluated alone.  These tests draw batches
that mix ordinary lanes with lanes that fail in each typed way and compare
each lane with the reversed batch and with the one-lane call.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cceff import (
    CaseControlTable,
    CCEffError,
    DesignParams,
    FitResult,
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
    theory_curve,
)

from test_bitwise import BRANCH_CASES


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
    [85, 5, 10, 0, 30, 2, 18, 0],  # and stops short of the endgame
    [40, 0, 30, 0, 0, 25, 0, 35],  # complete separation: Adj and AdjCon Separation
    [499, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],  # real-valued weights
]

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
        adjusted = fit_adjusted_batch(w)
        given_adj = fit_constrained_batch(w, SPARSE_F, adjusted=adjusted)
        own_adj = fit_constrained_batch(w, SPARSE_F)
        assert [_outcome(o) for o in given_adj] == [_outcome(o) for o in own_adj]


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
    def test_each_lane_is_inverted_as_alone(self, lanes):
        batch = alpha_from_prevalence(*np.array(lanes).T)
        for value, args in zip(batch, lanes):
            try:
                alone = alpha_from_prevalence(*args)
            except CCEffError:
                assert np.isnan(value)
            else:
                assert np.float64(alone).tobytes() == value.tobytes()
