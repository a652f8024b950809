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
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np
from scipy.special import expit, logit

from ._constrained import loglik_grad_hess_s, newton_ascent, sandwich_s
from .errors import (
    BoundaryEstimate,
    BracketFailure,
    InfeasibleStart,
    NonConvergence,
    NotConverged,
    Separation,
    SingularInformation,
    ZeroCell,
    ZeroMargin,
)
from .model import alpha_from_prevalence

__all__ = [
    "Method",
    "CaseControlTable",
    "FitResult",
    "TestResult",
    "fit_marginal",
    "fit_adjusted",
    "fit_constrained",
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


def fit_marginal(table: CaseControlTable, continuity_correction: bool = False) -> FitResult:
    """Closed-form marginal log odds ratio from the collapsed 2x2 table.

    gamma_hat = log(n_{1+1}/n_{1+0}) - log(n_{0+1}/n_{0+0}), Woolf variance
    sum of reciprocal cells.  With continuity_correction the Haldane-Anscombe
    +0.5 is added to the four collapsed cells.
    """
    m = table.collapsed()
    if continuity_correction:
        m = m + 0.5
    if np.any(m == 0):
        raise ZeroCell(
            "collapsed exposure-by-disease cell is zero; "
            "enable continuity_correction or supply positive cells"
        )
    gamma_hat = math.log(m[1, 1] / m[1, 0]) - math.log(m[0, 1] / m[0, 0])
    alpha0_hat = math.log(m[1, 0] / m[0, 0])
    var_gamma = float(np.sum(1.0 / m))
    var_alpha0 = 1.0 / m[1, 0] + 1.0 / m[0, 0]
    cov = np.array([[var_alpha0, -var_alpha0], [-var_alpha0, var_gamma]])
    col = m.sum(axis=0)
    loglik = float(np.sum(m * np.log(m / col[None, :])))
    return FitResult(
        method=Method.MAR,
        gamma_hat=gamma_hat,
        se_gamma=math.sqrt(var_gamma),
        params=(alpha0_hat, gamma_hat),
        loglik=loglik,
        converged=True,
        iterations=0,
        cov=cov,
        corrected=continuity_correction,
    )


_IGRID = np.arange(2.0)[:, None]
_JGRID = np.arange(2.0)[None, :]


def _adj_loglik(c1, mt, t):
    eta = t[0] + t[1] * _IGRID + t[2] * _JGRID
    return float(np.sum(c1 * eta) - np.sum(mt * np.logaddexp(0.0, eta)))


def fit_adjusted(table: CaseControlTable) -> FitResult:
    """Prospective logistic MLE of (alpha, beta, gamma), Newton with step halving."""
    w = table.w / table.n
    c1 = w[1]
    mt = w[0] + w[1]
    if np.any(mt.sum(axis=1) == 0):
        raise ZeroMargin("a covariate stratum contains no observations")
    if np.any(mt.sum(axis=0) == 0):
        raise ZeroMargin("an exposure stratum contains no observations")

    t = np.array([float(logit(c1.sum())), 0.0, 0.0])
    ll = _adj_loglik(c1, mt, t)
    converged = False
    iterations = 0
    for iterations in range(1, 101):
        eta = t[0] + t[1] * _IGRID + t[2] * _JGRID
        p = expit(eta)
        resid = c1 - mt * p
        score = np.array([resid.sum(), resid[1].sum(), resid[:, 1].sum()])
        if np.max(np.abs(score)) <= 1e-13:
            converged = True
            break
        mv = mt * p * (1.0 - p)
        a = mv.sum()
        b = mv[1].sum()
        c = mv[:, 1].sum()
        d = mv[1, 1]
        info = np.array([[a, b, c], [b, b, d], [c, d, c]])
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise Separation("information matrix singular during Newton iteration") from exc
        scale = 1.0
        for _ in range(50):
            cand = t + scale * step
            ll_new = _adj_loglik(c1, mt, cand)
            if ll_new >= ll - 1e-14 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        t = t + scale * step
        ll = _adj_loglik(c1, mt, t)
        if np.max(np.abs(t)) > 50.0:
            raise Separation(
                f"estimates diverged (max |coef| = {np.max(np.abs(t)):.1f}); "
                "the MLE appears to be infinite"
            )
    if not converged:
        raise NonConvergence("adjusted fit did not reach score tolerance in 100 iterations")

    eta = t[0] + t[1] * _IGRID + t[2] * _JGRID
    p = expit(eta)
    mv = mt * p * (1.0 - p)
    a = mv.sum()
    b = mv[1].sum()
    c = mv[:, 1].sum()
    d = mv[1, 1]
    info = np.array([[a, b, c], [b, b, d], [c, d, c]]) * table.n
    cov = np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        method=Method.ADJ,
        gamma_hat=float(t[2]),
        se_gamma=math.sqrt(cov[2, 2]),
        params=(float(t[0]), float(t[1]), float(t[2])),
        loglik=ll * table.n,
        converged=True,
        iterations=iterations,
        cov=cov,
    )


def _zeta_to_s(zeta):
    return np.array([zeta[0], zeta[1], expit(zeta[2]), expit(zeta[3])])


def _constrained_eval(w, f, zeta):
    """newton_ascent's evaluation in zeta; the extra is (alpha, Hessian in s)."""
    s = _zeta_to_s(zeta)
    alpha, ll, g_s, h_s = loglik_grad_hess_s(w, f, s)
    scale = np.array([1.0, 1.0, s[2] * (1.0 - s[2]), s[3] * (1.0 - s[3])])
    g_z = g_s * scale
    h_z = h_s * np.outer(scale, scale)
    h_z[2, 2] += g_s[2] * scale[2] * (1.0 - 2.0 * s[2])
    h_z[3, 3] += g_s[3] * scale[3] * (1.0 - 2.0 * s[3])
    return ll, g_s, g_z, h_z, (alpha, h_s)


def _in_zeta_box(zeta):
    return np.max(np.abs(zeta[:2])) <= 60.0 and np.max(np.abs(zeta[2:])) <= 45.0


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
    adjusted estimates projected onto the constraint surface).  The
    covariance of (beta, gamma, theta, pi) is the inverse observed
    information in s.  With f_misspecified the plug-in ``sandwich_s`` on the
    table's own cells is attached as a robust covariance as well.

    The iteration stops early when the line search accepts a candidate
    bitwise equal to the current point: every later iteration would repeat
    that one exactly, so this exit gives the estimates, covariance and
    verdict the 100-iteration cap would, and only ``iterations`` is smaller.
    """
    if not (0.0 < f < 1.0):
        raise InfeasibleStart(f"prevalence f={f!r} must lie in (0, 1)")
    adj = fit_adjusted(table)
    total = table.n
    w = table.w / total
    theta0 = float(w[:, 1, :].sum())
    pi0 = float(w[:, :, 1].sum())
    if not (0.0 < theta0 < 1.0) or not (0.0 < pi0 < 1.0):
        raise InfeasibleStart("sample covariate or exposure fraction lies on the boundary")
    try:
        alpha_from_prevalence(f, adj.params[1], adj.params[2], theta0, pi0)
    except BracketFailure as exc:
        raise InfeasibleStart(str(exc)) from exc

    zeta = np.array([adj.params[1], adj.params[2], float(logit(theta0)), float(logit(pi0))])
    zeta, (ll, g_s, _, _, (alpha_hat, h_s)), iterations = newton_ascent(
        lambda z: _constrained_eval(w, f, z), zeta, _in_zeta_box, 1e-13, 100
    )

    if np.max(np.abs(g_s)) > 1e-8:
        raise NonConvergence(
            f"constrained fit gradient max-norm {np.max(np.abs(g_s)):.2e} "
            f"after {iterations} iterations"
        )
    s_hat = _zeta_to_s(zeta)
    if (
        np.max(np.abs(s_hat[:2])) > 50.0
        or not (_PROB_EDGE < s_hat[2] < 1.0 - _PROB_EDGE)
        or not (_PROB_EDGE < s_hat[3] < 1.0 - _PROB_EDGE)
    ):
        raise BoundaryEstimate(
            f"constrained estimate pinned at the parameter-space edge: s = {tuple(s_hat)}"
        )

    # alpha_hat, ll and h_s are those of the last accepted evaluation, at s_hat.
    info = -h_s
    eig = np.linalg.eigvalsh(info)
    if eig[0] < 1e-12 * np.trace(info):
        raise SingularInformation(
            f"observed information nearly singular (min eig {eig[0]:.2e})"
        )
    cov = np.linalg.inv(info) / total
    cov = 0.5 * (cov + cov.T)

    cov_sw = None
    if f_misspecified:
        cov_sw = sandwich_s(w, w[1] / w[1].sum(), w[0] / w[0].sum(), table.nu, f, s_hat) / total

    return FitResult(
        method=Method.ADJCON,
        gamma_hat=float(s_hat[1]),
        se_gamma=math.sqrt(cov[1, 1]),
        params=tuple(float(x) for x in s_hat),
        loglik=ll * total,
        converged=True,
        iterations=iterations,
        cov=cov,
        alpha_hat=alpha_hat,
        f=float(f),
        cov_sandwich=cov_sw,
    )


def wald_test(fit: FitResult, level: float = 0.05) -> TestResult:
    """Two-sided Wald test of gamma = 0 from a fitted result."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if not fit.converged or not (fit.se_gamma > 0):
        raise NotConverged("fit did not converge or has no usable standard error")
    z = fit.gamma_hat / fit.se_gamma
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TestResult(z=z, p_value=p, reject=p < level, level=level)
