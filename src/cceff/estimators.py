"""Three estimators of the exposure log odds ratio from a 2x2x2 table.

Mar collapses over the covariate and uses the marginal 2x2 closed form.
Adj fits the prospective logistic model in (alpha, beta, gamma) by Newton
iteration.  AdjCon additionally ties pr(X=1) to a known disease prevalence
through the constrained likelihood and maximizes over (beta, gamma, theta,
pi) with the intercept profiled out.

All likelihoods are linear in the cell weights, so tables may carry real
(not just integer) weights; exact expected tables fit without
discretization error.  Internally every fit normalizes the table to unit
total mass, which makes the point estimates exactly invariant under
rescaling of the weights and scales the covariance by the reciprocal of
the total weight.

Each estimator is a kernel over a batch of tables, one lane per table
(``fit_marginal_batch``, ``fit_adjusted_batch``, ``fit_constrained_batch``):
lanes iterate together, but each keeps its own convergence, iteration count
and typed failure, and its numbers are bitwise what it gets fitted alone.
``fit_marginal``, ``fit_adjusted`` and ``fit_constrained`` are the batches
of one.  Each batch is its lane form (``_marginal_lanes``,
``_adjusted_lanes``, ``_constrained_lanes``), which returns the fitted lanes
as arrays with each failed table's error, plus ``_results``, which makes
the FitResults.  Only the public fits build FitResults: one fit hands its
outcome to another layer, or to the Monte Carlo and ``cceff fit``, as lanes.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np
from scipy.special import expit, logit

from ._constrained import (
    _LL_ROUNDING,
    _lanewise,
    _rows,
    loglik_grad_hess_s,
    nearly_singular,
    newton_ascent,
    no_derivatives,
    sandwich_s,
)
from .errors import (
    BoundaryEstimate,
    CCEffError,
    InfeasibleStart,
    InvalidInput,
    NonConvergence,
    Separation,
    SingularInformation,
    ZeroCell,
    ZeroMargin,
)
from .model import _COEF_BOUND, _PROB_MARGIN, _TINY, _alpha_error

__all__ = [
    "Method",
    "CaseControlTable",
    "FitResult",
    "TestResult",
    "fit_marginal",
    "fit_adjusted",
    "fit_constrained",
    "fit_marginal_batch",
    "fit_adjusted_batch",
    "fit_constrained_batch",
    "wald_test",
]


class Method(str, Enum):
    MAR = "mar"
    ADJ = "adj"
    ADJCON = "adjcon"


@dataclass(frozen=True, eq=False)
class CaseControlTable:
    """Cell weights w[d][i][j] for disease d, covariate i, exposure j."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (2, 2, 2):
            raise InvalidInput(f"table must have shape (2, 2, 2), got {w.shape}")
        object.__setattr__(self, "w", _cells(w[None])[0])

    @property
    def n(self) -> float:
        return float(self.w.sum())

    @property
    def n_cases(self) -> float:
        return float(self.w[1].sum())

    @property
    def n_controls(self) -> float:
        return float(self.w[0].sum())

    @property
    def nu(self) -> float:
        return self.n_cases / self.n_controls

    def collapsed(self) -> np.ndarray:
        """Exposure-by-disease margins n_{d+j} as a (2, 2) array [d, j]."""
        return self.w.sum(axis=1)


@dataclass(frozen=True, eq=False, kw_only=True)
class FitResult:
    """A converged fit whose numbers are all finite, with a positive gamma variance.

    A fit without them, or that fails, is its typed ``CCEffError`` instead.
    """

    method: Method
    gamma_hat: float
    se_gamma: float
    params: tuple
    loglik: float
    iterations: int
    cov: np.ndarray
    # AdjCon extras: the implied intercept and the prevalence that was supplied;
    # optional robust covariance when that prevalence may be misspecified.
    alpha_hat: float | None = None
    f: float | None = None
    cov_sandwich: np.ndarray | None = None
    corrected: bool = False


@dataclass(frozen=True)
class TestResult:
    z: float
    p_value: float
    reject: bool
    level: float


def _cells(tables):
    """Cell weights (R, 2, 2, 2); each table nonnegative, its total finite, its margins positive."""
    w = np.asarray(tables, dtype=float)
    if w.ndim != 4 or w.shape[1:] != (2, 2, 2):
        raise InvalidInput(f"tables must have shape (R, 2, 2, 2), got {w.shape}")
    # A NaN or infinite cell, or cells that overflow together, give a total that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.reshape(len(w), 8).sum(axis=1)
    if np.any(w < 0) or not np.all(np.isfinite(total)):
        raise InvalidInput("cell weights must be finite and nonnegative, with a finite total")
    if np.any(w[:, 1].sum(axis=(1, 2)) <= 0) or np.any(w[:, 0].sum(axis=(1, 2)) <= 0):
        raise InvalidInput("both case and control margins must be positive")
    return w


@dataclass(frozen=True, eq=False)
class _Lanes:
    """A batch fit's outcomes as arrays: what a caller that needs no FitResult reads.

    failed holds, per table, the error it raises alone, or None where it
    fits.  rows are the fitted tables in increasing order, and every array
    holds one entry per row: the coefficients params, gamma and its
    standard error se (positive and finite), and the rest of a FitResult.
    """

    method: Method
    failed: list
    rows: np.ndarray
    params: np.ndarray
    gamma: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    loglik: np.ndarray
    iteration_counts: np.ndarray
    alpha_hat: np.ndarray | None = None
    f: float | None = None
    cov_sandwich: np.ndarray | None = None
    corrected: bool = False


def _lanes(out, rows, method, params, gamma_index, cov, loglik, iterations, refuse,
           alpha_hat=None, f=None, cov_sandwich=None, corrected=False):
    """The fitted lanes of a batch, refusing each one that no FitResult can hold.

    out holds each table's error so far, or None; a lane whose numbers are
    not all finite, or whose gamma variance is not positive, gets the error
    refuse(message naming what failed) there instead.  Lane k is table
    rows[k]; params (R, p), cov and cov_sandwich (R, p, p), loglik,
    iterations and alpha_hat (R,) hold the lanes' numbers, and gamma_index
    is gamma's column.
    """
    var = cov[:, gamma_index, gamma_index]
    refusals = [
        ("positive finite gamma variance", ~((0.0 < var) & (var < math.inf))),
        ("finite covariance", ~np.isfinite(cov).all(axis=(1, 2))),
        ("finite log-likelihood", ~np.isfinite(loglik)),
        ("finite coefficients", ~np.isfinite(params).all(axis=1)),
    ]
    if cov_sandwich is not None:
        refusals.append(("finite sandwich covariance", ~np.isfinite(cov_sandwich).all(axis=(1, 2))))
    bad = np.logical_or.reduce([mask for _, mask in refusals])
    for k in np.flatnonzero(bad):
        what = next(what for what, mask in refusals if mask[k])
        out[rows[k]] = refuse(f"no {what} at the estimate (gamma variance {var[k]:.2e})")
    keep = ~bad
    params = params[keep]
    return _Lanes(
        method, out, rows[keep], params, params[:, gamma_index], np.sqrt(var[keep]), cov[keep],
        loglik[keep], iterations[keep], None if alpha_hat is None else alpha_hat[keep], f,
        None if cov_sandwich is None else cov_sandwich[keep], corrected,
    )


def _unfitted(out, method, p):
    """The lanes of a batch none of whose tables fit; out holds each table's error."""
    return _lanes(out, np.empty(0, dtype=int), method, np.empty((0, p)), 1, np.empty((0, p, p)),
                  np.empty(0), np.empty(0, dtype=int), None)


def _results(lanes):
    """Each table's public outcome: its FitResult, or the error it raises alone."""
    out = list(lanes.failed)
    none = [None] * len(lanes.rows)
    fits = zip(lanes.rows.tolist(), lanes.params.tolist(), lanes.gamma.tolist(),
               lanes.se.tolist(), lanes.loglik.tolist(), lanes.iteration_counts.tolist(),
               lanes.cov, none if lanes.alpha_hat is None else lanes.alpha_hat.tolist(),
               none if lanes.cov_sandwich is None else lanes.cov_sandwich)
    for r, p, gamma, se, ll, its, c, alpha, c_sw in fits:
        out[r] = FitResult(method=lanes.method, gamma_hat=gamma, se_gamma=se, params=tuple(p),
                           loglik=ll, iterations=its, cov=c, alpha_hat=alpha, f=lanes.f,
                           cov_sandwich=c_sw, corrected=lanes.corrected)
    return out


def _one(outcomes):
    """The single outcome of a batch of one: its result, or its error raised."""
    (out,) = outcomes
    if isinstance(out, CCEffError):
        raise out
    return out


def fit_marginal(table: CaseControlTable, continuity_correction: bool = False) -> FitResult:
    """Closed-form marginal log odds ratio from the collapsed 2x2 table.

    gamma_hat = log(n_{1+1}/n_{1+0}) - log(n_{0+1}/n_{0+0}), Woolf variance
    sum of reciprocal cells.  With continuity_correction the Haldane-Anscombe
    +0.5 is added to the four collapsed cells.  The batch of one of
    ``fit_marginal_batch``.
    """
    return _one(fit_marginal_batch(table.w[None], continuity_correction))


# A column share above this is logged as log1p(-x), x the other cell's share:
# log(share) there is off by up to an ulp of 1, 2^-53, against |log(share)|
# below 2^-10, and a share rounded to 1 would drop the term.  Where x is not
# a normal float the term m log1p(-x) is -other to within x.
_NEAR_ONE = 1.0 - 2.0**-10


def fit_marginal_batch(tables, continuity_correction: bool = False) -> list:
    """``fit_marginal`` on each table of an (R, 2, 2, 2) array of cell weights.

    Returns one outcome per table, in order: its FitResult, or the ZeroCell
    error it raises alone.  Lane-exact: the array steps are elementwise or
    reduce each table's own cells in the one-table order, and the logs of
    the estimates are taken per lane by ``math.log``.  Where a ratio of two
    collapsed cells, or a cell's share of its column, is not a normal float,
    its log is the difference of the two logs; a share above ``_NEAR_ONE``
    is logged as ``log1p`` of minus the other cell's share.  The outcomes of
    ``_marginal_lanes``.
    """
    return _results(_marginal_lanes(tables, continuity_correction))


def _marginal_lanes(tables, continuity_correction=False):
    """``fit_marginal_batch`` as arrays (``_Lanes``)."""
    w = _cells(tables)
    m = w.sum(axis=2)  # (R, 2, 2) exposure-by-disease margins [d, j]
    if continuity_correction:
        m = m + 0.5
    zero = (m == 0).reshape(len(m), 4).any(axis=1)
    out = [None] * len(m)
    for r in np.flatnonzero(zero):
        out[r] = ZeroCell(
            "collapsed exposure-by-disease cell is zero; "
            "enable continuity_correction or supply positive cells"
        )
    live = np.flatnonzero(~zero)
    m = m[live]
    # A collapsed cell too small for its reciprocal overflows here, and
    # ``_results`` refuses the lane.  A share or ratio that underflowed, is
    # subnormal or overflowed has lost digits that the two cells still hold.
    with np.errstate(over="ignore", divide="ignore"):
        var_gamma = (1.0 / m).reshape(len(m), 4).sum(axis=1)
        var_alpha0 = 1.0 / m[:, 1, 0] + 1.0 / m[:, 0, 0]
        col = m.sum(axis=1)
        share = m / col[:, None, :]
        log_share = np.where(share >= _TINY, np.log(share), np.log(m) - np.log(col)[:, None, :])
        terms = m * log_share
        near_one = share > _NEAR_ONE
        if near_one.any():
            x, other = share[:, ::-1][near_one], m[:, ::-1][near_one]
            terms[near_one] = np.where(x >= _TINY, m[near_one] * np.log1p(-x), -other)
        loglik = terms.reshape(len(m), 4).sum(axis=1)
        num, den = m[:, (1, 1, 0), (0, 1, 1)], m[:, (0, 1, 0), (0, 0, 0)]  # base, odds1, odds0
        ratios = num / den
    odd = ~((ratios >= _TINY) & (ratios < math.inf))
    logs = np.array([math.log(r) for r in np.where(odd, 1.0, ratios).ravel().tolist()])
    logs = logs.reshape(-1, 3)
    logs[odd] = [math.log(a) - math.log(b) for a, b in zip(num[odd].tolist(), den[odd].tolist())]
    params = np.stack([logs[:, 0], logs[:, 1] - logs[:, 2]], axis=-1)
    cov = np.stack([var_alpha0, -var_alpha0, -var_alpha0, var_gamma], axis=-1).reshape(-1, 2, 2)
    return _lanes(out, live, Method.MAR, params, 1, cov, loglik, np.zeros(len(live), dtype=int),
                  ZeroCell, corrected=continuity_correction)


_IGRID = np.arange(2.0)[:, None]
_JGRID = np.arange(2.0)[None, :]


def _adj_eta(t):
    """Linear predictors (R, 2, 2) of coefficient rows t = (alpha, beta, gamma)."""
    return t[:, 0, None, None] + t[:, 1, None, None] * _IGRID + t[:, 2, None, None] * _JGRID


def _adj_loglik(c1, mt, t):
    eta = _adj_eta(t)
    n = len(t)
    return (c1 * eta).reshape(n, 4).sum(axis=1) - (mt * np.logaddexp(0.0, eta)).reshape(n, 4).sum(
        axis=1
    )


def _adj_info(mt, p):
    """Per-unit information (R, 3, 3) of the prospective model at cell probabilities p."""
    mv = mt * p * (1.0 - p)
    a = mv.reshape(len(mv), 4).sum(axis=1)
    b = mv[:, 1].sum(axis=1)
    c = mv[:, :, 1].sum(axis=1)
    d = mv[:, 1, 1]
    return np.array([a, b, c, b, b, d, c, d, c]).T.copy().reshape(-1, 3, 3)


def fit_adjusted(table: CaseControlTable) -> FitResult:
    """Prospective logistic MLE of (alpha, beta, gamma), Newton with step halving.

    The batch of one of ``fit_adjusted_batch``.
    """
    return _one(fit_adjusted_batch(table.w[None]))


def fit_adjusted_batch(tables) -> list:
    """``fit_adjusted`` on each table of an (R, 2, 2, 2) array of cell weights.

    Newton iteration from (logit of the case fraction, 0, 0) until the
    score's max-norm is at most 1e-13 (at most 100 iterations); each step
    is halved up to 50 times until the log-likelihood does not fall by more
    than 1e-14 * (1 + |loglik|).  A case share that rounds to 0 or 1 (no
    finite start), a singular information or coefficients beyond 50 raise
    Separation, as does a converged fit that no FitResult can hold.  The
    log-likelihood of an accepted step is the one the halving computed, and
    the information is taken at the last iteration's probabilities.

    Returns one outcome per table: its FitResult, or the error it raises
    alone.  Lanes iterate together but stop on their own; the reductions,
    stacked solves and inverses round each lane as a one-table fit does,
    so every lane is bitwise independent of the others.  The outcomes of
    ``_adjusted_lanes``.
    """
    return _results(_adjusted_lanes(tables))


def _adjusted_lanes(tables):
    """``fit_adjusted_batch`` as arrays (``_Lanes``)."""
    w = _cells(tables)
    n_lanes = len(w)
    total = w.reshape(n_lanes, 8).sum(axis=1)
    w = w / total[:, None, None, None]
    c1 = w[:, 1]
    mt = w[:, 0] + w[:, 1]
    out = [None] * n_lanes
    no_x = (mt.sum(axis=2) == 0).any(axis=1)
    no_e = (mt.sum(axis=1) == 0).any(axis=1)
    for r in np.flatnonzero(no_x | no_e):
        stratum = "a covariate" if no_x[r] else "an exposure"
        out[r] = ZeroMargin(f"{stratum} stratum contains no observations")
    share = c1.reshape(n_lanes, 4).sum(axis=1)  # the start's intercept is logit(share)
    rounded = ~(no_x | no_e | ((0.0 < share) & (share < 1.0)))
    for r in np.flatnonzero(rounded):
        arm = "case" if share[r] <= 0.0 else "control"
        out[r] = Separation(f"the {arm} share of the table rounds to 0: no finite start")

    t = np.zeros((n_lanes, 3))
    t[:, 0] = logit(share)
    ll = np.full(n_lanes, np.nan)
    iterations = np.zeros(n_lanes, dtype=int)
    # The lanes still iterating, and their cells, coefficients and
    # log-likelihoods packed in the order of active; a lane that converges
    # writes its coefficients and log-likelihood back to t and ll.
    active = (~(no_x | no_e | rounded)).nonzero()[0]
    c1_a, mt_a, t_a = (x.take(active, axis=0) for x in (c1, mt, t))
    ll_a = _adj_loglik(c1_a, mt_a, t_a)
    for it in range(1, 101):
        if not active.size:
            break
        iterations[active] = it
        p = expit(_adj_eta(t_a))
        resid = c1_a - mt_a * p
        score = np.array(
            [resid.reshape(-1, 4).sum(axis=1), resid[:, 1].sum(axis=1), resid[:, :, 1].sum(axis=1)]
        ).T.copy()
        done = np.abs(score).max(axis=1) <= 1e-13
        if np.count_nonzero(done):
            t[active[done]], ll[active[done]] = t_a[done], ll_a[done]
            active, p, score, c1_a, mt_a, t_a, ll_a = _rows(
                ~done, active, p, score, c1_a, mt_a, t_a, ll_a
            )
            if not active.size:
                break
        step, singular = _lanewise(np.linalg.solve, _adj_info(mt_a, p), score[:, :, None])
        step = step[:, :, 0]
        if np.count_nonzero(singular):
            for r in active[singular]:
                out[r] = Separation("information matrix singular during Newton iteration")
            active, step, c1_a, mt_a, t_a, ll_a = _rows(
                ~singular, active, step, c1_a, mt_a, t_a, ll_a
            )
        floor = ll_a - _LL_ROUNDING * (1.0 + np.abs(ll_a))
        scale = np.ones(len(active))
        ll_new = np.full(len(active), np.nan)
        searching = np.arange(len(active))
        for _ in range(50):
            c1_s, mt_s, t_s, step_s = (x.take(searching, axis=0) for x in (c1_a, mt_a, t_a, step))
            ll_cand = _adj_loglik(c1_s, mt_s, t_s + scale[searching][:, None] * step_s)
            ok = ll_cand >= floor[searching]
            ll_new[searching[ok]] = ll_cand[ok]
            searching = searching[~ok]
            if not searching.size:
                break
            scale[searching] *= 0.5
        t_a = t_a + scale[:, None] * step
        if searching.size:
            # No halving was accepted: the step taken is one more halving.
            c1_s, mt_s, t_s = (x.take(searching, axis=0) for x in (c1_a, mt_a, t_a))
            ll_new[searching] = _adj_loglik(c1_s, mt_s, t_s)
        ll_a = ll_new
        coef = np.abs(t_a).max(axis=1)
        diverged = coef > _COEF_BOUND
        if np.count_nonzero(diverged):
            for k in diverged.nonzero()[0]:
                out[active[k]] = Separation(
                    f"estimates diverged (max |coef| = {coef[k]:.1f}); "
                    "the MLE appears to be infinite"
                )
            active, c1_a, mt_a, t_a, ll_a = _rows(~diverged, active, c1_a, mt_a, t_a, ll_a)
    for r in active:
        out[r] = NonConvergence("adjusted fit did not reach score tolerance in 100 iterations")

    # A lane still without an outcome converged, and its t has not moved since.
    # Its information is singular (NaN from _lanewise) or rounds indefinite
    # where too few covariate-exposure patterns are filled to pin the three
    # coefficients; ``_results`` refuses it then.
    ok = np.flatnonzero([o is None for o in out])
    info = _adj_info(mt[ok], expit(_adj_eta(t[ok]))) * total[ok, None, None]
    cov = _lanewise(np.linalg.inv, info)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        loglik = ll[ok] * total[ok]
    return _lanes(out, ok, Method.ADJ, t[ok], 2, cov, loglik, iterations[ok], Separation)


def _zeta_to_s(zeta):
    s = zeta.copy()
    expit(zeta[:, 2:], out=s[:, 2:])
    return s


# Bounds on |zeta|: expit(36) = 1 - 2.3e-16 still differs from 1.0; past
# about 37 it rounds to 1.0 and log1p(-theta) in the likelihood is -inf.
_ZETA_BOX = np.array([60.0, 60.0, 36.0, 36.0])


def _in_zeta_box(zeta):
    return np.logical_and.reduce(np.abs(zeta) <= _ZETA_BOX, axis=1)


# A constrained fit whose gradient max-norm ends within this bar is converged.
_ACCEPT = 1e-8


def fit_constrained(
    table: CaseControlTable, f: float, f_misspecified: bool = False
) -> FitResult:
    """Constrained MLE of (beta, gamma, theta, pi) given disease prevalence f.

    The intercept is profiled out through the prevalence identity, so the
    fitted parameters satisfy the constraint exactly.  Optimization runs in
    (beta, gamma, logit theta, logit pi) by ``newton_ascent`` (gradient
    tolerance 1e-13, at most 100 iterations), started from the adjusted
    fit's (beta, gamma) and the sample covariate and exposure fractions (the
    adjusted estimates projected onto the constraint surface); a fraction
    whose logit lies outside the search box raises InfeasibleStart.  When the
    adjusted fit fails, this fit raises the same error.  The covariance of
    (beta, gamma, theta, pi) is the inverse observed information in s; an
    information that is nearly singular, or a fit that no FitResult can
    hold, raises SingularInformation.  With f_misspecified the
    plug-in ``sandwich_s`` on the table's own cells is attached as a robust
    covariance as well.

    A fit whose max|grad| ends within the 1e-8 acceptance bar is converged;
    ``newton_ascent`` states the line-search and exit rules.  The batch of
    one of ``fit_constrained_batch``.
    """
    return _one(fit_constrained_batch(table.w[None], f, f_misspecified))


def fit_constrained_batch(tables, f: float, f_misspecified: bool = False) -> list:
    """``fit_constrained`` at prevalence f on each table of an (R, 2, 2, 2) array.

    Returns one outcome per table: its FitResult, or the error it raises
    alone.  All lanes run through one ``newton_ascent``; each is bitwise
    what a one-table fit gives.  The outcomes of ``_constrained_lanes``.
    """
    return _results(_constrained_lanes(tables, f, f_misspecified))


def _constrained_lanes(tables, f, f_misspecified=False, adjusted=None):
    """``fit_constrained_batch`` as arrays (``_Lanes``).

    adjusted, when given, is the tables' ``_adjusted_lanes``, so that a
    caller that needs the adjusted fits anyway does not run them twice;
    otherwise they are fitted here.
    """
    w = _cells(tables)
    n_lanes = len(w)
    if not (0.0 < f < 1.0):
        error = f"prevalence f={float(f)!r} must lie in (0, 1)"
        out = [InfeasibleStart(error) for _ in range(n_lanes)]
        return _unfitted(out, Method.ADJCON, 4)
    if adjusted is None:
        adjusted = _adjusted_lanes(w)
    out = list(adjusted.failed)
    total = w.reshape(n_lanes, 8).sum(axis=1)
    n_cases = w[:, 1].reshape(n_lanes, 4).sum(axis=1)
    n_controls = w[:, 0].reshape(n_lanes, 4).sum(axis=1)
    w = w / total[:, None, None, None]
    theta0 = w[:, :, 1, :].reshape(n_lanes, 4).sum(axis=1)
    pi0 = w[:, :, :, 1].reshape(n_lanes, 4).sum(axis=1)
    lanes = adjusted.rows
    zeta = np.column_stack([adjusted.params[:, 1:], logit(theta0[lanes]), logit(pi0[lanes])])
    # A start outside the search box could never take a step.
    edge = ~_in_zeta_box(zeta)
    for r in lanes[edge]:
        out[r] = InfeasibleStart("sample covariate or exposure fraction lies on the boundary")
    lanes, zeta = lanes[~edge], zeta[~edge]
    if not lanes.size:
        return _unfitted(out, Method.ADJCON, 4)

    cells = w.reshape(n_lanes, 8)[lanes]

    @np.errstate(invalid="ignore")  # a failing row's inf and NaN parts warn in the chart change
    def evaluate(z, k):
        # newton_ascent's evaluation in zeta; the extras are alpha and the Hessian in s.
        s = _zeta_to_s(z)
        alpha, ll, g_s, h_s = loglik_grad_hess_s(cells.take(k, axis=0), f, s)
        tp = s[:, 2:]
        dtp = tp * (1.0 - tp)  # d s / d zeta of theta and pi
        scale = np.ones_like(s)
        scale[:, 2:] = dtp
        g_z = g_s * scale
        h_z = h_s * (scale[:, :, None] * scale[:, None, :])
        # The curvature of the logit charts, on entries (2, 2) and (3, 3).
        h_z.reshape(-1, 16)[:, 10::5] += g_s[:, 2:] * dtp * (1.0 - 2.0 * tp)
        return ll, g_s, g_z, h_z, alpha, h_s

    zeta, (ll, g_s, _, _, alpha_hat, h_s), iterations, failed = newton_ascent(
        evaluate, zeta, _in_zeta_box, 1e-13, 100, _ACCEPT
    )
    s_hat = _zeta_to_s(zeta)
    gmax = np.abs(g_s).max(axis=1)
    info = -h_s
    # Verdicts in priority order: failed evaluation (a finite intercept, where
    # dF/dalpha is 0, else a failed inversion at the start or later), stalled,
    # boundary.
    stalled = ~failed & (gmax > _ACCEPT)
    edge = (np.abs(s_hat[:, :2]).max(axis=1) > _COEF_BOUND) | ~(
        (_PROB_MARGIN < s_hat[:, 2:]) & (s_hat[:, 2:] < 1.0 - _PROB_MARGIN)
    ).all(axis=1)
    for k in np.flatnonzero(failed | stalled | edge):
        if failed[k] and np.isfinite(alpha_hat[k]):
            out[lanes[k]] = InfeasibleStart(no_derivatives(f))
        elif failed[k] and iterations[k] == 0:
            out[lanes[k]] = InfeasibleStart(str(_alpha_error(f)))
        elif failed[k]:
            out[lanes[k]] = _alpha_error(f)
        elif stalled[k]:
            out[lanes[k]] = NonConvergence(
                f"constrained fit gradient max-norm {gmax[k]:.2e} "
                f"after {iterations[k]} iterations"
            )
        else:
            out[lanes[k]] = BoundaryEstimate(
                f"constrained estimate pinned at the parameter-space edge: s = {s_hat[k].tolist()}"
            )
    # alpha_hat, ll and h_s are those of the last accepted evaluation, at s_hat.
    kept = np.flatnonzero(~(failed | stalled | edge))
    eig, near = nearly_singular(info[kept])
    for k, e in zip(kept[near], eig[near]):
        out[lanes[k]] = SingularInformation(
            f"observed information nearly singular (min eig {e:.2e})"
        )
    kept = kept[~near]
    good = lanes[kept]
    cov_sw = None
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _lanewise(np.linalg.inv, info[kept])[0] / total[good, None, None]
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        loglik = ll[kept] * total[good]
        if f_misspecified:
            wk = w[good].reshape(-1, 8)
            p_ctrl, p_case = (x / x.sum(axis=1)[:, None] for x in (wk[:, :4], wk[:, 4:]))
            nu = n_cases[good] / n_controls[good]
            cov_sw = sandwich_s(wk, p_case, p_ctrl, nu, f, s_hat[kept]) / total[good, None, None]
    return _lanes(out, good, Method.ADJCON, s_hat[kept], 1, cov, loglik, iterations[kept],
                  SingularInformation, alpha_hat=alpha_hat[kept], f=float(f), cov_sandwich=cov_sw)


def _wald_lanes(gamma_hat, se, level):
    """Two-sided Wald test of gamma = 0 per lane: z, p = erfc(|z|/sqrt(2)) and p < level."""
    z = gamma_hat / se
    p = np.array([math.erfc(x) for x in (np.abs(z) / math.sqrt(2.0)).tolist()])
    return z, p, p < level


def _check_level(level):
    """Raise InvalidInput unless a test level lies in (0, 1)."""
    if not (0.0 < level < 1.0):
        raise InvalidInput("level must lie in (0, 1)")


def _check_methods(methods):
    """Raise InvalidInput where a tuple of Methods names one of them more than once."""
    repeated = [m for k, m in enumerate(methods) if m in methods[:k]]
    if repeated:
        raise InvalidInput(f"method {repeated[0].value} is named more than once")


def wald_test(fit: FitResult, level: float = 0.05) -> TestResult:
    """Two-sided Wald test of gamma = 0 from a fit; the batch of one of ``_wald_lanes``."""
    _check_level(level)
    if not (fit.se_gamma > 0):
        raise InvalidInput(f"se_gamma={fit.se_gamma!r} gives no usable standard error")
    lanes = _wald_lanes(np.array([fit.gamma_hat]), np.array([fit.se_gamma]), level)
    z, p, reject = (x.item() for x in lanes)
    return TestResult(z=z, p_value=p, reject=reject, level=level)
