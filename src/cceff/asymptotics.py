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
from .errors import SingularInformation, VacuousMinimizer
from .estimators import Method
from .model import (
    PopulationParams,
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
    the prevalence identity; the frame is smooth through beta = 0.
    """
    info = expected_info_s(params, nu)
    eig = np.linalg.eigvalsh(info)
    if eig[0] < 1e-12 * np.trace(info):
        raise SingularInformation(
            f"constrained information nearly singular (min eig {eig[0]:.3e})"
        )
    return float(np.linalg.inv(info)[1, 1])


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
    slope = attenuation_slope(alpha, beta, theta)
    params = PopulationParams(alpha, beta, 1e-8, theta, pi)
    return slope * slope * sigma_AC_sq(params, nu) / sigma0_sq(nu, pi)


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
    """One PowerPoint row per prevalence value, deterministic in the grid order."""
    try:
        alpha_star, f_star = bias_minimizer(beta, gamma, theta, pi)
    except VacuousMinimizer:
        alpha_star, f_star = math.nan, math.nan
    rows = []
    for f in f_values:
        f = float(f)
        alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
        params = PopulationParams(alpha, beta, gamma, theta, pi)
        delta = bias_delta(alpha, beta, gamma, theta)
        var_m, var_a = sigma_M_sq(params, nu), sigma_A_sq(params, nu)
        var_ac = sigma_AC_sq(params, nu)
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
                sigma_AC_sq=var_ac,
                power_mar=_wald_power(gamma + delta, var_m, n, level),
                power_adj=_wald_power(gamma, var_a, n, level),
                power_adjcon=_wald_power(gamma, var_ac, n, level),
                ep_M_vs_A=pitman_are_M_vs_A(alpha, beta, theta, nu),
                ep_M_vs_AC=pitman_are_M_vs_AC(alpha, beta, theta, pi, nu),
                f_star=f_star,
                alpha_star=alpha_star,
            )
        )
    return rows
