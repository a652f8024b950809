"""Closed-form asymptotic theory for the three tests.

Quantities per parameter point: the asymptotic bias delta of the marginal
estimator, the large-sample variances of sqrt(n) times each estimator, the
gamma -> 0 variance ratio lambda and its rare-outcome limit lambda0, Pitman
asymptotic relative efficiencies, the tau coefficient of the rare-outcome
ARE expansion e_P(Mar, AdjCon) = 1 + tau*rho^2 + O(rho^3) with rho = e^alpha,
and two-sided Wald power.  Marginal and covariate-stratified variances
follow Woolf and Gart (1962) respectively; the constrained variance comes
from the exact Fisher information of the constrained model.
"""

from dataclasses import dataclass
import math
from statistics import NormalDist

import numpy as np

from ._constrained import expected_info_s
from .errors import CCEffError, InvalidInput, SingularInformation, VacuousMinimizer
from .estimators import Method
from .model import (
    PopulationParams,
    _alpha_error,
    alpha_from_prevalence,
    prevalence_at,
    retro_distribution,
)

__all__ = [
    "AsymptoticConstants",
    "PowerPoint",
    "b_factors",
    "bias_delta",
    "attenuation_slope",
    "bias_minimizer",
    "sigma_M_sq",
    "sigma_A_sq",
    "sigma0_sq",
    "sigma_AC_sq",
    "lambda_ratio",
    "lambda0",
    "pitman_are_M_vs_A",
    "pitman_are_M_vs_AC",
    "pitman_tau",
    "asymptotic_power",
    "asymptotic_constants",
    "theory_curve",
]


@dataclass(frozen=True)
class AsymptoticConstants:
    delta: float
    b1: float
    b2: float
    rho: float
    sigma0_sq: float
    lam: float
    lambda0: float
    tau: float
    f_star: float
    alpha_star: float
    sigmaM_sq: float
    sigmaA_sq: float
    sigmaAC_sq: float


@dataclass(frozen=True)
class PowerPoint:
    f: float
    n: float
    level: float
    alpha: float
    delta: float
    gamma_plus_delta: float
    sigma_M_sq: float
    sigma_A_sq: float
    sigma_AC_sq: float
    power_mar: float
    power_adj: float
    power_adjcon: float
    ep_M_vs_A: float
    ep_M_vs_AC: float
    f_star: float
    alpha_star: float


def b_factors(beta, theta):
    """b1 = 1 + (e^beta - 1)(1 - theta) and b2 = e^beta / {1 + theta(e^beta - 1)}.

    Written with expm1 so beta = 0 gives b1 = b2 = 1 exactly.
    """
    em = math.expm1(beta)
    return 1.0 + em * (1.0 - theta), math.exp(beta) / (1.0 + theta * em)


def bias_delta(alpha, beta, gamma, theta):
    """Asymptotic bias of the marginal estimator: gamma_hat_M -> gamma + delta.

    delta = log[1 + e^alpha (b1 - b2)(1 - e^gamma) /
                {(1 + e^(alpha+gamma) b1)(1 + e^alpha b2)}],
    evaluated in an exp(-alpha) form for alpha > 0 to avoid overflow.
    Zero exactly when beta = 0 or gamma = 0.
    """
    b1, b2 = b_factors(beta, theta)
    spread = (b1 - b2) * (-math.expm1(gamma))
    if alpha <= 0.0:
        ea = math.exp(alpha)
        num = ea * spread
        den = (1.0 + math.exp(alpha + gamma) * b1) * (1.0 + ea * b2)
    else:
        r = math.exp(-alpha)
        num = r * spread
        den = (r + math.exp(gamma) * b1) * (r + b2)
    return math.log1p(num / den)


def attenuation_slope(alpha, beta, theta):
    """d(gamma + delta)/d(gamma) at gamma = 0, in (0, 1].

    Equal to (b1 b2 rho^2 + 2 b2 rho + 1)/(b1 b2 rho^2 + (b1 + b2) rho + 1)
    with rho = e^alpha; exactly 1 at beta = 0.
    """
    b1, b2 = b_factors(beta, theta)
    if alpha <= 0.0:
        rho = math.exp(alpha)
        num = b1 * b2 * rho * rho + 2.0 * b2 * rho + 1.0
        den = b1 * b2 * rho * rho + (b1 + b2) * rho + 1.0
    else:
        r = math.exp(-alpha)
        num = b1 * b2 + 2.0 * b2 * r + r * r
        den = b1 * b2 + (b1 + b2) * r + r * r
    return num / den


def bias_minimizer(beta, gamma, theta, pi):
    """The (alpha*, f*) at which |delta| is smallest over the prevalence axis.

    alpha* = -{log(b1 b2) + gamma}/2 and f* is the prevalence there.
    """
    if beta == 0.0 or gamma == 0.0:
        raise VacuousMinimizer(
            "delta vanishes identically when beta = 0 or gamma = 0; no unique minimizer"
        )
    b1, b2 = b_factors(beta, theta)
    alpha_star = -0.5 * (math.log(b1 * b2) + gamma)
    f_star = prevalence_at(alpha_star, beta, gamma, theta, pi)
    return alpha_star, f_star


def sigma_M_sq(params: PopulationParams, nu: float) -> float:
    """Asymptotic variance of sqrt(n) gamma_hat_M (Woolf form on the exposure margins)."""
    r = retro_distribution(params)
    p1, p0 = r.p1_prime, r.p0_prime
    return (1.0 + nu) / (p0 * (1.0 - p0)) + (1.0 + nu) / (nu * p1 * (1.0 - p1))


def sigma_A_sq(params: PopulationParams, nu: float) -> float:
    """Asymptotic variance of sqrt(n) gamma_hat_A: Gart's harmonic combination over X-strata."""
    r = retro_distribution(params)
    d, h = r.d_mat, r.h_mat
    inv_total = 0.0
    for x in (0, 1):
        v = (1.0 + nu) / (d[x, 0] * h[x, 0] * (1.0 - h[x, 0])) + (1.0 + nu) / (
            nu * d[x, 1] * h[x, 1] * (1.0 - h[x, 1])
        )
        inv_total += 1.0 / v
    return 1.0 / inv_total


def sigma0_sq(nu: float, pi: float) -> float:
    """Common null variance (2 + nu + 1/nu)/{pi(1 - pi)}."""
    return (2.0 + nu + 1.0 / nu) / (pi * (1.0 - pi))


def sigma_AC_sq(params: PopulationParams, nu: float) -> float:
    """Asymptotic variance of sqrt(n) gamma_hat_AC from the constrained information.

    The gamma-gamma entry of the inverse per-unit-n expected information in
    s = (beta, gamma, theta, pi), with the intercept profiled out through
    the prevalence identity; the frame is smooth through beta = 0.  The
    batch of one of ``_sigma_AC_lanes``.
    """
    (out,) = _sigma_AC_lanes([params], nu)
    if isinstance(out, Exception):
        raise out
    return out


def _sigma_AC_lanes(params_list, nu):
    """``sigma_AC_sq`` of every parameter point, from one batched information.

    Returns one outcome per point: the variance, or the error it raises
    alone.  The stacked eigenvalues and inverses round each lane as a
    one-point call does.
    """
    out = [None] * len(params_list)
    info = expected_info_s(params_list, nu) if params_list else np.empty((0, 4, 4))
    bad = np.isnan(info).any(axis=(1, 2))
    for k in np.flatnonzero(bad):
        out[k] = _alpha_error(params_list[k].f)
    good = np.flatnonzero(~bad)
    eig = np.linalg.eigvalsh(info[good])[:, 0] if good.size else np.empty(0)
    near = eig < 1e-12 * np.trace(info[good], axis1=1, axis2=2)
    for k, e in zip(good[near], eig[near]):
        out[k] = SingularInformation(f"constrained information nearly singular (min eig {e:.3e})")
    good = good[~near]
    if good.size:
        for k, var in zip(good, np.linalg.inv(info[good])[:, 1, 1]):
            out[k] = float(var)
    return out


def lambda_ratio(alpha, beta, theta, nu):
    """gamma -> 0 limit of sigma_A_sq / sigma_M_sq; at least 1, equal 1 iff beta = 0."""
    if beta == 0.0:
        return 1.0
    # (1 + e^(alpha+beta))/(1 + e^alpha) computed through logaddexp for large |alpha|
    ratio = math.exp(np.logaddexp(0.0, alpha + beta) - np.logaddexp(0.0, alpha))
    t1 = 1.0 + ((1.0 - theta) / theta) * ratio * ((nu + math.exp(-beta)) / (nu + 1.0))
    t2 = 1.0 + (theta / (1.0 - theta)) / ratio * ((nu + math.exp(beta)) / (nu + 1.0))
    return 1.0 / (1.0 / t1 + 1.0 / t2)


def lambda0(beta, theta, nu):
    """Rare-outcome limit of lambda: 1 + nu theta(1-theta)(1-e^beta)^2 / [(1+nu){(1-theta+e^beta theta)^2 + nu e^beta}]."""
    em = math.expm1(beta)
    c = 1.0 + theta * em
    return 1.0 + nu * theta * (1.0 - theta) * em * em / (
        (1.0 + nu) * (c * c + nu * math.exp(beta))
    )


def pitman_are_M_vs_A(alpha, beta, theta, nu):
    """Pitman ARE of the marginal test relative to the adjusted test."""
    slope = attenuation_slope(alpha, beta, theta)
    return slope * slope * lambda_ratio(alpha, beta, theta, nu)


def pitman_are_M_vs_AC(alpha, beta, theta, pi, nu):
    """Pitman ARE of the marginal test relative to the constrained test.

    Composition of the local slope with the gamma -> 0 variance ratio; the
    constrained variance is evaluated at gamma = 1e-8 (its gamma -> 0 limit
    has no closed form) while the marginal variance at gamma = 0 is exactly
    sigma0_sq.
    """
    if beta == 0.0:
        return 1.0
    var = sigma_AC_sq(PopulationParams(alpha, beta, 1e-8, theta, pi), nu)
    return _are_M_vs_AC(alpha, beta, theta, pi, nu, var)


def _are_M_vs_AC(alpha, beta, theta, pi, nu, var_ac0):
    """``pitman_are_M_vs_AC`` from the constrained variance at gamma = 1e-8."""
    slope = attenuation_slope(alpha, beta, theta)
    return slope * slope * var_ac0 / sigma0_sq(nu, pi)


def pitman_tau(beta, theta, nu):
    """Coefficient tau in e_P(Mar, AdjCon) = 1 + tau rho^2 + O(rho^3) as rho = e^alpha -> 0.

    tau <= 0 with equality iff beta = 0: adjusting with the constraint never
    loses local power for rare outcomes, to second order.
    """
    em = math.expm1(beta)
    eb = math.exp(beta)
    b1, b2 = b_factors(beta, theta)
    c = 1.0 + theta * em
    phi = (1.0 - theta) * theta * em * em
    bracket = (
        eb * nu * nu
        + theta * theta * em * em * (2.0 * nu + 1.0)
        - theta * em * ((eb - 3.0) * nu - 2.0)
        + 5.0 * eb * nu
        + nu
        + 1.0
    )
    k = -phi * bracket / (c * c * nu)
    return k + (b1 - b2) * (5.0 * b2 - b1)


def _std_normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _wald_power(shift, var, n, level):
    """Two-sided Wald power at sample size n for a per-unit-n variance var."""
    z = NormalDist().inv_cdf(1.0 - level / 2.0)
    m = math.sqrt(n) * shift / math.sqrt(var)
    return _std_normal_cdf(-z + m) + _std_normal_cdf(-z - m)


def asymptotic_power(method, params: PopulationParams, nu, n, level=0.05):
    """Limiting rejection probability of the two-sided Wald test at sample size n.

    The marginal test is centered at gamma + delta; the adjusted and
    constrained tests are centered at gamma.
    """
    method = Method(method)
    if method is Method.MAR:
        shift = params.gamma + bias_delta(params.alpha, params.beta, params.gamma, params.theta)
        var = sigma_M_sq(params, nu)
    elif method is Method.ADJ:
        shift = params.gamma
        var = sigma_A_sq(params, nu)
    else:
        shift = params.gamma
        var = sigma_AC_sq(params, nu)
    return _wald_power(shift, var, n, level)


def asymptotic_constants(params: PopulationParams, nu: float) -> AsymptoticConstants:
    """All closed-form constants of the theory at one parameter point."""
    try:
        alpha_star, f_star = bias_minimizer(params.beta, params.gamma, params.theta, params.pi)
    except VacuousMinimizer:
        alpha_star, f_star = math.nan, math.nan
    b1, b2 = b_factors(params.beta, params.theta)
    return AsymptoticConstants(
        delta=bias_delta(params.alpha, params.beta, params.gamma, params.theta),
        b1=b1,
        b2=b2,
        rho=math.exp(params.alpha),
        sigma0_sq=sigma0_sq(nu, params.pi),
        lam=lambda_ratio(params.alpha, params.beta, params.theta, nu),
        lambda0=lambda0(params.beta, params.theta, nu),
        tau=pitman_tau(params.beta, params.theta, nu),
        f_star=f_star,
        alpha_star=alpha_star,
        sigmaM_sq=sigma_M_sq(params, nu),
        sigmaA_sq=sigma_A_sq(params, nu),
        sigmaAC_sq=sigma_AC_sq(params, nu),
    )


def theory_curve(f_values, beta, gamma, theta, pi, nu, n, level=0.05):
    """One PowerPoint row per prevalence value, deterministic in the grid order.

    The intercepts of all rows come from one batched ``alpha_from_prevalence``
    and every row's constrained variance, at gamma and at the ARE's
    gamma = 1e-8, from one batched information (``_sigma_AC_lanes``); each
    row is bitwise what a one-point call gives.  A row that fails raises
    the error it raises alone, the first such row in grid order, with the
    row's prevalence attached as the error's ``f`` attribute.
    """
    try:
        alpha_star, f_star = bias_minimizer(beta, gamma, theta, pi)
    except VacuousMinimizer:
        alpha_star, f_star = math.nan, math.nan
    f_values = [float(f) for f in f_values]
    alphas = alpha_from_prevalence(np.array(f_values, dtype=float), beta, gamma, theta, pi)
    staged = []
    for f, alpha in zip(f_values, alphas):
        try:
            if math.isnan(alpha):
                raise _alpha_error(f)
            alpha = float(alpha)
            params = PopulationParams(alpha, beta, gamma, theta, pi)
            delta = bias_delta(alpha, beta, gamma, theta)
            staged.append((params, delta, sigma_M_sq(params, nu), sigma_A_sq(params, nu)))
        except (CCEffError, InvalidInput) as exc:
            staged.append(exc)
    points = [row[0] for row in staged if not isinstance(row, Exception)]
    # The ARE needs the constrained variance at gamma = 1e-8 too, unless beta = 0.
    near_null = [] if beta == 0.0 else [
        PopulationParams(p.alpha, beta, 1e-8, theta, pi) for p in points
    ]
    variances = _sigma_AC_lanes(points + near_null, nu)
    var_ac = iter(variances[: len(points)])
    var_ac0 = iter(variances[len(points) :])
    rows = []
    for f, row in zip(f_values, staged):
        if not isinstance(row, Exception):
            params, delta, var_m, var_a = row
            alpha, v, v0 = params.alpha, next(var_ac), next(var_ac0, None)
            row = next((x for x in (v, v0) if isinstance(x, Exception)), None)
        if row is not None:
            row.f = f
            raise row
        rows.append(
            PowerPoint(
                f=f,
                n=n,
                level=level,
                alpha=alpha,
                delta=delta,
                gamma_plus_delta=gamma + delta,
                sigma_M_sq=var_m,
                sigma_A_sq=var_a,
                sigma_AC_sq=v,
                power_mar=_wald_power(gamma + delta, var_m, n, level),
                power_adj=_wald_power(gamma, var_a, n, level),
                power_adjcon=_wald_power(gamma, v, n, level),
                ep_M_vs_A=pitman_are_M_vs_A(alpha, beta, theta, nu),
                ep_M_vs_AC=1.0 if v0 is None else _are_M_vs_AC(alpha, beta, theta, pi, nu, v0),
                f_star=f_star,
                alpha_star=alpha_star,
            )
        )
    return rows
