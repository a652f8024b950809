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
of one.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np
from scipy.special import expit, logit

from ._constrained import _solve_lanes, loglik_grad_hess_s, newton_ascent, sandwich_s
from .errors import (
    BoundaryEstimate,
    CCEffError,
    InfeasibleStart,
    NonConvergence,
    NotConverged,
    Separation,
    SingularInformation,
    ZeroCell,
    ZeroMargin,
)
from .model import _alpha_error, alpha_from_prevalence

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
            raise ValueError(f"table must have shape (2, 2, 2), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("cell weights must be finite and nonnegative")
        if w[1].sum() <= 0 or w[0].sum() <= 0:
            raise ValueError("both case and control margins must be positive")
        object.__setattr__(self, "w", w)

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


@dataclass(frozen=True, eq=False)
class FitResult:
    method: Method
    gamma_hat: float
    se_gamma: float
    params: tuple
    loglik: float
    converged: bool
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
    """Cell weights of a batch, shape (R, 2, 2, 2), under CaseControlTable's checks per lane."""
    w = np.asarray(tables, dtype=float)
    if w.ndim != 4 or w.shape[1:] != (2, 2, 2):
        raise ValueError(f"tables must have shape (R, 2, 2, 2), got {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("cell weights must be finite and nonnegative")
    if np.any(w[:, 1].sum(axis=(1, 2)) <= 0) or np.any(w[:, 0].sum(axis=(1, 2)) <= 0):
        raise ValueError("both case and control margins must be positive")
    return w


def _one(outcomes):
    """The single outcome of a batch of one: its FitResult, or its error raised."""
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


def fit_marginal_batch(tables, continuity_correction: bool = False) -> list:
    """``fit_marginal`` on each table of an (R, 2, 2, 2) array of cell weights.

    Returns one outcome per table, in order: its FitResult, or the ZeroCell
    error it raises alone.  Lane-exact: the array steps are elementwise or
    reduce each table's own cells in the one-table order, and the logs of
    the estimates are taken per lane by ``math.log``.
    """
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
    var_gamma = (1.0 / m).reshape(len(m), 4).sum(axis=1)
    var_alpha0 = 1.0 / m[:, 1, 0] + 1.0 / m[:, 0, 0]
    cov = np.stack([var_alpha0, -var_alpha0, -var_alpha0, var_gamma], axis=-1).reshape(-1, 2, 2)
    col = m.sum(axis=1)
    loglik = (m * np.log(m / col[:, None, :])).reshape(len(m), 4).sum(axis=1)
    odds1, odds0, base = m[:, 1, 1] / m[:, 1, 0], m[:, 0, 1] / m[:, 0, 0], m[:, 1, 0] / m[:, 0, 0]
    for k, r in enumerate(live):
        gamma_hat = math.log(odds1[k]) - math.log(odds0[k])
        out[r] = FitResult(
            method=Method.MAR,
            gamma_hat=gamma_hat,
            se_gamma=math.sqrt(var_gamma[k]),
            params=(math.log(base[k]), gamma_hat),
            loglik=float(loglik[k]),
            converged=True,
            iterations=0,
            cov=cov[k],
            corrected=continuity_correction,
        )
    return out


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
    return np.stack([a, b, c, b, b, d, c, d, c], axis=-1).reshape(-1, 3, 3)


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
    than 1e-14 * (1 + |loglik|).  A singular information or coefficients
    beyond 50 raise Separation.  The log-likelihood of an accepted step is
    the one the halving computed, and the information is taken at the last
    iteration's probabilities.

    Returns one outcome per table: its FitResult, or the error it raises
    alone.  Lanes iterate together but stop on their own; the reductions,
    stacked solves and inverses round each lane as a one-table fit does,
    so every lane is bitwise independent of the others.
    """
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

    t = np.zeros((n_lanes, 3))
    t[:, 0] = logit(c1.reshape(n_lanes, 4).sum(axis=1))
    ll = np.full(n_lanes, np.nan)
    active = np.flatnonzero(~(no_x | no_e))
    ll[active] = _adj_loglik(c1[active], mt[active], t[active])
    iterations = np.zeros(n_lanes, dtype=int)
    p_final = np.empty((n_lanes, 2, 2))
    converged = np.zeros(n_lanes, dtype=bool)
    for it in range(1, 101):
        if not active.size:
            break
        iterations[active] = it
        p = expit(_adj_eta(t[active]))
        resid = c1[active] - mt[active] * p
        score = np.stack(
            [resid.reshape(-1, 4).sum(axis=1), resid[:, 1].sum(axis=1), resid[:, :, 1].sum(axis=1)],
            axis=-1,
        )
        done = np.abs(score).max(axis=1) <= 1e-13
        converged[active[done]] = True
        p_final[active[done]] = p[done]
        active, p, score = active[~done], p[~done], score[~done]
        if not active.size:
            break
        step, singular = _solve_lanes(_adj_info(mt[active], p), score)
        for r in active[singular]:
            out[r] = Separation("information matrix singular during Newton iteration")
        active, step = active[~singular], step[~singular]
        c1_a, mt_a, t_a, ll_a = c1[active], mt[active], t[active], ll[active]
        floor = ll_a - 1e-14 * (1.0 + np.abs(ll_a))
        scale = np.ones(len(active))
        ll_new = np.full(len(active), np.nan)
        searching = np.arange(len(active))
        for _ in range(50):
            cand = t_a[searching] + scale[searching, None] * step[searching]
            ll_cand = _adj_loglik(c1_a[searching], mt_a[searching], cand)
            ok = ll_cand >= floor[searching]
            ll_new[searching[ok]] = ll_cand[ok]
            searching = searching[~ok]
            if not searching.size:
                break
            scale[searching] *= 0.5
        t_a = t_a + scale[:, None] * step
        if searching.size:
            # No halving was accepted: the step taken is one more halving.
            ll_new[searching] = _adj_loglik(c1_a[searching], mt_a[searching], t_a[searching])
        t[active], ll[active] = t_a, ll_new
        coef = np.abs(t_a).max(axis=1)
        for k in np.flatnonzero(coef > 50.0):
            out[active[k]] = Separation(
                f"estimates diverged (max |coef| = {coef[k]:.1f}); "
                "the MLE appears to be infinite"
            )
        active = active[coef <= 50.0]
    for r in active:
        out[r] = NonConvergence("adjusted fit did not reach score tolerance in 100 iterations")

    ok = np.flatnonzero(converged)
    info = _adj_info(mt[ok], p_final[ok]) * total[ok, None, None]
    cov = np.linalg.inv(info) if ok.size else info
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    for k, r in enumerate(ok):
        out[r] = FitResult(
            method=Method.ADJ,
            gamma_hat=float(t[r, 2]),
            se_gamma=math.sqrt(cov[k, 2, 2]),
            params=(float(t[r, 0]), float(t[r, 1]), float(t[r, 2])),
            loglik=float(ll[r] * total[r]),
            converged=True,
            iterations=int(iterations[r]),
            cov=cov[k],
        )
    return out


def _zeta_to_s(zeta):
    s = zeta.copy()
    s[:, 2:] = expit(zeta[:, 2:])
    return s


def _constrained_eval(w, f, zeta):
    """newton_ascent's evaluation in zeta, one lane per row.

    The extras are alpha and the Hessian in s.
    """
    s = _zeta_to_s(zeta)
    alpha, ll, g_s, h_s = loglik_grad_hess_s(w, f, s)
    scale = np.ones_like(s)  # d s / d zeta
    scale[:, 2:] = s[:, 2:] * (1.0 - s[:, 2:])
    g_z = g_s * scale
    h_z = h_s * (scale[:, :, None] * scale[:, None, :])
    h_z[:, (2, 3), (2, 3)] += g_s[:, 2:] * scale[:, 2:] * (1.0 - 2.0 * s[:, 2:])
    return ll, g_s, g_z, h_z, alpha, h_s


def _in_zeta_box(zeta):
    # expit(36) = 1 - 2.3e-16 still differs from 1.0; past about 37 it rounds
    # to 1.0 and log1p(-theta) in the likelihood is -inf.
    return (np.abs(zeta[:, :2]).max(axis=1) <= 60.0) & (np.abs(zeta[:, 2:]).max(axis=1) <= 36.0)


_PROB_EDGE = 1e-8


def fit_constrained(
    table: CaseControlTable, f: float, f_misspecified: bool = False
) -> FitResult:
    """Constrained MLE of (beta, gamma, theta, pi) given disease prevalence f.

    The intercept is profiled out through the prevalence identity, so the
    fitted parameters satisfy the constraint exactly.  Optimization runs in
    (beta, gamma, logit theta, logit pi) by ``newton_ascent`` (gradient
    tolerance 1e-13, at most 100 iterations), started from the adjusted
    fit's (beta, gamma) and the sample covariate and exposure fractions (the
    adjusted estimates projected onto the constraint surface).  When the
    adjusted fit fails, this fit raises the same error.  The covariance of
    (beta, gamma, theta, pi) is the inverse observed information in s.  With
    f_misspecified the plug-in ``sandwich_s`` on the table's own cells is
    attached as a robust covariance as well.

    Once max|grad| is within 1e-11, a line-search step that shrinks it may
    lower the log-likelihood by up to 1e-14 * (1 + |loglik|), the per-unit
    log-likelihood's rounding (``newton_ascent``'s endgame rule); farther
    out a step must not lower it.  The iteration stops early when the line
    search accepts a candidate bitwise equal to the current point: every
    later iteration would repeat that one exactly, so this exit gives the
    estimates, covariance and verdict the 100-iteration cap would, and only
    ``iterations`` is smaller.  The batch of one of
    ``fit_constrained_batch``.
    """
    return _one(fit_constrained_batch(table.w[None], f, f_misspecified))


def fit_constrained_batch(tables, f: float, f_misspecified: bool = False, adjusted=None) -> list:
    """``fit_constrained`` at prevalence f on each table of an (R, 2, 2, 2) array.

    adjusted, when given, holds each table's ``fit_adjusted_batch`` outcome
    (a FitResult or the error it raised), so that a caller that needs the
    adjusted fits anyway does not run them twice; otherwise they are fitted
    here.  Returns one outcome per table: its FitResult, or the error it
    raises alone.  All lanes run through one ``newton_ascent``; each is
    bitwise what a one-table fit gives.
    """
    w = _cells(tables)
    n_lanes = len(w)
    if adjusted is None:
        adjusted = fit_adjusted_batch(w)
    if not (0.0 < f < 1.0):
        return [InfeasibleStart(f"prevalence f={f!r} must lie in (0, 1)") for _ in range(n_lanes)]
    out = [adj if isinstance(adj, CCEffError) else None for adj in adjusted]
    total = w.reshape(n_lanes, 8).sum(axis=1)
    n_cases = w[:, 1].reshape(n_lanes, 4).sum(axis=1)
    n_controls = w[:, 0].reshape(n_lanes, 4).sum(axis=1)
    w = w / total[:, None, None, None]
    theta0 = w[:, :, 1, :].reshape(n_lanes, 4).sum(axis=1)
    pi0 = w[:, :, :, 1].reshape(n_lanes, 4).sum(axis=1)
    lanes = np.array([r for r in range(n_lanes) if out[r] is None], dtype=int)
    t0, p0 = theta0[lanes], pi0[lanes]
    edge = ~((0.0 < t0) & (t0 < 1.0) & (0.0 < p0) & (p0 < 1.0))
    for r in lanes[edge]:
        out[r] = InfeasibleStart("sample covariate or exposure fraction lies on the boundary")
    lanes = lanes[~edge]
    coef = np.array([adjusted[r].params[1:] for r in lanes]).reshape(-1, 2)
    alpha0 = alpha_from_prevalence(f, coef[:, 0], coef[:, 1], theta0[lanes], pi0[lanes])
    for r in lanes[np.isnan(alpha0)]:
        out[r] = InfeasibleStart(str(_alpha_error(f)))
    coef, lanes = coef[~np.isnan(alpha0)], lanes[~np.isnan(alpha0)]
    if not lanes.size:
        return out

    cells = w.reshape(n_lanes, 8)[lanes]
    zeta = np.column_stack([coef, logit(theta0[lanes]), logit(pi0[lanes])])
    zeta, (ll, g_s, _, _, alpha_hat, h_s), iterations, failed = newton_ascent(
        lambda z, k: _constrained_eval(cells[k], f, z), zeta, _in_zeta_box, 1e-13, 100
    )
    s_hat = _zeta_to_s(zeta)
    gmax = np.abs(g_s).max(axis=1)
    info = -h_s
    ok = np.zeros(len(lanes), dtype=bool)
    for k, r in enumerate(lanes):
        if failed[k]:
            out[r] = _alpha_error(f)
        elif gmax[k] > 1e-8:
            out[r] = NonConvergence(
                f"constrained fit gradient max-norm {gmax[k]:.2e} "
                f"after {iterations[k]} iterations"
            )
        elif (
            np.max(np.abs(s_hat[k, :2])) > 50.0
            or not (_PROB_EDGE < s_hat[k, 2] < 1.0 - _PROB_EDGE)
            or not (_PROB_EDGE < s_hat[k, 3] < 1.0 - _PROB_EDGE)
        ):
            out[r] = BoundaryEstimate(
                f"constrained estimate pinned at the parameter-space edge: s = {tuple(s_hat[k])}"
            )
        else:
            ok[k] = True
    # alpha_hat, ll and h_s are those of the last accepted evaluation, at s_hat.
    kept = np.flatnonzero(ok)
    if kept.size:
        eig = np.linalg.eigvalsh(info[kept])[:, 0]
        near = eig < 1e-12 * np.trace(info[kept], axis1=1, axis2=2)
        for k, e in zip(kept[near], eig[near]):
            out[lanes[k]] = SingularInformation(
                f"observed information nearly singular (min eig {e:.2e})"
            )
        kept = kept[~near]
    if not kept.size:
        return out
    good = lanes[kept]
    cov = np.linalg.inv(info[kept]) / total[good, None, None]
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    cov_sw = [None] * len(good)
    if f_misspecified:
        wk = w[good]
        p_case = wk[:, 1] / wk[:, 1].reshape(-1, 4).sum(axis=1)[:, None, None]
        p_ctrl = wk[:, 0] / wk[:, 0].reshape(-1, 4).sum(axis=1)[:, None, None]
        nu = n_cases[good] / n_controls[good]
        cov_sw = sandwich_s(wk, p_case, p_ctrl, nu, f, s_hat[kept]) / total[good, None, None]
    for j, k in enumerate(kept):
        out[lanes[k]] = FitResult(
            method=Method.ADJCON,
            gamma_hat=float(s_hat[k, 1]),
            se_gamma=math.sqrt(cov[j, 1, 1]),
            params=tuple(float(x) for x in s_hat[k]),
            loglik=float(ll[k] * total[lanes[k]]),
            converged=True,
            iterations=int(iterations[k]),
            cov=cov[j],
            alpha_hat=float(alpha_hat[k]),
            f=float(f),
            cov_sandwich=cov_sw[j],
        )
    return out


def wald_test(fit: FitResult, level: float = 0.05) -> TestResult:
    """Two-sided Wald test of gamma = 0 from a fitted result."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if not fit.converged or not (fit.se_gamma > 0):
        raise NotConverged("fit did not converge or has no usable standard error")
    z = fit.gamma_hat / fit.se_gamma
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestResult(z=z, p_value=p, reject=p < level, level=level)
