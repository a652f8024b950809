"""Closed-form asymptotic theory for the three tests.

Quantities per parameter point: the asymptotic bias delta of the marginal
estimator, the large-sample variances of sqrt(n) times each estimator, the
gamma -> 0 variance ratio lambda and its rare-outcome limit lambda0, Pitman
asymptotic relative efficiencies, the tau coefficient of the rare-outcome
ARE expansion e_P(Mar, AdjCon) = 1 + tau*rho^2 + O(rho^3) with rho = e^alpha,
and two-sided Wald power.  Marginal and covariate-stratified variances
follow Woolf and Gart (1962) respectively; the constrained variance comes
from the exact Fisher information of the constrained model.  The one-point
variances, ``asymptotic_constants`` and the scalar closed forms that take nu
first reject, with InvalidInput, a case:control ratio nu outside its
``model._DOMAIN`` range, and those that take theta or pi also a value
outside its range.
"""

from dataclasses import dataclass
import math
from statistics import NormalDist

import numpy as np

from ._constrained import expected_info_s, nearly_singular
from .errors import CCEffError, InvalidInput, SingularInformation, VacuousMinimizer
from .estimators import Method, _check_level
from .model import (
    _COEF_BOUND,
    DesignParams,
    PopulationParams,
    _alpha_error,
    _check,
    _retro_lanes,
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
    Zero exactly when beta = 0 or gamma = 0.  Raises InvalidInput where the
    ratio inside the log1p rounds to -1 or below, so that the marginal odds
    ratio rounds to 0 (only at extreme coefficients).
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
    ratio = num / den
    if ratio <= -1.0:
        raise InvalidInput(
            f"marginal odds ratio rounds to 0 at (alpha, beta, gamma, theta) = "
            f"({alpha!r}, {beta!r}, {gamma!r}, {theta!r})"
        )
    return math.log1p(ratio)


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
    """Asymptotic variance of sqrt(n) gamma_hat_M (Woolf form on the exposure margins).

    Raises InvalidInput where an exposure margin rounds outside (0, 1).
    The batch of one of ``_variance_lanes``.
    """
    _check(nu=nu)
    var_m, _, bad_m, _ = _variance_lanes(retro_distribution(params), nu)
    if bad_m:
        raise InvalidInput(f"an exposure margin is not inside (0, 1) at {params}")
    return float(var_m)


def sigma_A_sq(params: PopulationParams, nu: float) -> float:
    """Asymptotic variance of sqrt(n) gamma_hat_A: Gart's harmonic combination over X-strata.

    Raises InvalidInput where an exposure probability h_mat rounds to 0 or
    1, which leaves a stratum's term without a finite value.  The batch of
    one of ``_variance_lanes``.
    """
    _check(nu=nu)
    _, var_a, _, bad_a = _variance_lanes(retro_distribution(params), nu)
    if bad_a:
        raise InvalidInput(f"an exposure probability rounds to 0 or 1 at {params}")
    return float(var_a)


def _variance_lanes(r, nu):
    """sigma_M_sq and sigma_A_sq of the lanes of r (``_retro_lanes``), and where each raises.

    Lane-exact: each lane takes the one-lane operations in their order.
    """
    p1, p0, d, h = r.p1_prime, r.p0_prime, r.d_mat, r.h_mat
    bad_m = ~((0.0 < p1) & (p1 < 1.0) & (0.0 < p0) & (p0 < 1.0))
    bad_a = np.any((h == 0.0) | (h == 1.0), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        var_m = (1.0 + nu) / (p0 * (1.0 - p0)) + (1.0 + nu) / (nu * p1 * (1.0 - p1))
        # One term per X-stratum, on the last axis.
        v = (1.0 + nu) / (d[..., 0] * h[..., 0] * (1.0 - h[..., 0])) + (1.0 + nu) / (
            nu * d[..., 1] * h[..., 1] * (1.0 - h[..., 1])
        )
        var_a = 1.0 / (1.0 / v[..., 0] + 1.0 / v[..., 1])
    return var_m, var_a, bad_m, bad_a


def sigma0_sq(nu: float, pi: float) -> float:
    """Common null variance (2 + nu + 1/nu)/{pi(1 - pi)}."""
    _check(nu=nu, pi=pi)
    return (2.0 + nu + 1.0 / nu) / (pi * (1.0 - pi))


def sigma_AC_sq(params: PopulationParams, nu: float) -> float:
    """Asymptotic variance of sqrt(n) gamma_hat_AC from the constrained information.

    The gamma-gamma entry of the inverse per-unit-n expected information in
    s = (beta, gamma, theta, pi), with the intercept profiled out through
    the prevalence identity; the frame is smooth through beta = 0.  The
    batch of one of ``_sigma_AC_lanes``.
    """
    _check(nu=nu)
    r = retro_distribution(params)
    s = [[params.beta, params.gamma, params.theta, params.pi]]
    (var,), (eig,) = _sigma_AC_lanes(np.array([params.f]), np.array(s), r.p_case, r.p_ctrl, nu)
    if math.isnan(eig):
        raise _alpha_error(params.f)
    if math.isnan(var):
        raise SingularInformation(f"constrained information nearly singular (min eig {eig:.3e})")
    return float(var)


def _sigma_AC_lanes(f, s, p_case, p_ctrl, nu):
    """``sigma_AC_sq`` of every lane (``expected_info_s``'s arguments), and its least eigenvalue.

    Both are NaN where the intercept cannot be inverted, and the variance
    also where the information is nearly singular.  The stacked eigenvalues
    and inverses round each lane as a one-lane call does.
    """
    info = expected_info_s(f, s, p_case.reshape(-1, 2, 2), p_ctrl.reshape(-1, 2, 2), nu)
    var, eig = np.full(len(f), np.nan), np.full(len(f), np.nan)
    good = np.flatnonzero(~np.isnan(info).any(axis=(1, 2)))
    eig[good], near = nearly_singular(info[good])
    good = good[~near]
    var[good] = np.linalg.inv(info[good])[:, 1, 1]
    return var, eig


def lambda_ratio(alpha, beta, theta, nu):
    """gamma -> 0 limit of sigma_A_sq / sigma_M_sq; at least 1, equal 1 iff beta = 0."""
    _check(nu=nu, theta=theta)
    if beta == 0.0:
        return 1.0
    # (1 + e^(alpha+beta))/(1 + e^alpha) computed through logaddexp for large |alpha|
    ratio = math.exp(np.logaddexp(0.0, alpha + beta) - np.logaddexp(0.0, alpha))
    t1 = 1.0 + ((1.0 - theta) / theta) * ratio * ((nu + math.exp(-beta)) / (nu + 1.0))
    t2 = 1.0 + (theta / (1.0 - theta)) / ratio * ((nu + math.exp(beta)) / (nu + 1.0))
    return 1.0 / (1.0 / t1 + 1.0 / t2)


def lambda0(beta, theta, nu):
    """Rare-outcome limit of lambda: 1 + nu theta(1-theta)(1-e^beta)^2 / [(1+nu){(1-theta+e^beta theta)^2 + nu e^beta}]."""
    _check(nu=nu, theta=theta)
    em = math.expm1(beta)
    c = 1.0 + theta * em
    return 1.0 + nu * theta * (1.0 - theta) * em * em / (
        (1.0 + nu) * (c * c + nu * math.exp(beta))
    )


def pitman_are_M_vs_A(alpha, beta, theta, nu):
    """Pitman ARE of the marginal test relative to the adjusted test."""
    _check(nu=nu, theta=theta)
    slope = attenuation_slope(alpha, beta, theta)
    return slope * slope * lambda_ratio(alpha, beta, theta, nu)


def pitman_are_M_vs_AC(alpha, beta, theta, pi, nu):
    """Pitman ARE of the marginal test relative to the constrained test.

    Composition of the local slope with the gamma -> 0 variance ratio; the
    constrained variance is evaluated at gamma = 1e-8 (its gamma -> 0 limit
    has no closed form) while the marginal variance at gamma = 0 is exactly
    sigma0_sq.
    """
    _check(nu=nu, theta=theta, pi=pi)
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
    _check(nu=nu, theta=theta)
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


def _z_half(level):
    """The two-sided Wald test's critical value at the given level."""
    return NormalDist().inv_cdf(1.0 - level / 2.0)


def _wald_power(shift, var, n, z):
    """Two-sided Wald power at sample size n for a per-unit-n variance var and critical value z."""
    m = math.sqrt(n) * shift / math.sqrt(var)
    return _std_normal_cdf(-z + m) + _std_normal_cdf(-z - m)


def _delta_and_variance(method, params, nu):
    """The limit of gamma_hat - gamma and the variance of sqrt(n) gamma_hat for one method."""
    if method is Method.MAR:
        delta = bias_delta(params.alpha, params.beta, params.gamma, params.theta)
        return delta, sigma_M_sq(params, nu)
    if method is Method.ADJ:
        return 0.0, sigma_A_sq(params, nu)
    return 0.0, sigma_AC_sq(params, nu)


def asymptotic_power(method, params: PopulationParams, nu, n, level=0.05):
    """Limiting rejection probability of the two-sided Wald test at sample size n.

    The marginal test is centered at gamma + delta; the adjusted and
    constrained tests are centered at gamma.  A design (nu, n) outside
    ``DesignParams``, a level outside (0, 1) or a method that is none of
    mar, adj and adjcon raises InvalidInput.
    """
    DesignParams(nu=nu, n=n)
    _check_level(level)
    try:
        method = Method(method)
    except ValueError:
        raise InvalidInput(f"method={method!r} must be one of mar, adj, adjcon") from None
    delta, var = _delta_and_variance(method, params, nu)
    return _wald_power(params.gamma + delta, var, n, _z_half(level))


def asymptotic_constants(params: PopulationParams, nu: float) -> AsymptoticConstants:
    """All closed-form constants of the theory at one parameter point."""
    _check(nu=nu)
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

    The grid runs as lanes of ``alpha_from_prevalence``, ``_retro_lanes`` (at
    gamma and at the ARE's gamma = 1e-8), ``_variance_lanes`` and
    ``_sigma_AC_lanes``; only delta, the slopes, lambda, the AREs and the
    powers are scalar closed forms per row.  The kernels are lane-exact, so
    each row is bitwise what a one-point call gives.  The first failing row
    in grid order, run alone through the one-point functions, raises its
    error with the row's prevalence as the error's ``f`` attribute.  A
    design (nu, n) outside ``DesignParams``, a level outside (0, 1) or
    (beta, gamma, theta, pi) outside ``model._DOMAIN`` raises InvalidInput
    before any row.
    """
    DesignParams(nu=nu, n=n)
    _check_level(level)
    _check(beta=beta, gamma=gamma, theta=theta, pi=pi)
    try:
        alpha_star, f_star = bias_minimizer(beta, gamma, theta, pi)
    except VacuousMinimizer:
        alpha_star, f_star = math.nan, math.nan
    z = _z_half(level)
    f_values = [float(f) for f in f_values]
    k = len(f_values)
    alphas = alpha_from_prevalence(np.array(f_values, dtype=float), beta, gamma, theta, pi)
    # Lanes: every row at gamma, then, unless beta = 0, every row at gamma = 1e-8.
    sets = 1 if beta == 0.0 else 2
    lane_gamma = np.repeat([gamma, 1e-8][:sets], k)
    prev, invalid, laws = _retro_lanes(np.tile(alphas, sets), beta, lane_gamma, theta, pi)
    var_m, var_a, bad_m, bad_a = (x[:k] for x in _variance_lanes(laws, nu))
    # A lane's information is evaluated where its laws exist and its row has
    # passed the earlier stages; a lane left out keeps a NaN variance.
    ok = np.tile((np.abs(alphas) <= _COEF_BOUND) & ~bad_m & ~bad_a, sets) & ~invalid
    s = np.stack(np.broadcast_arrays(beta, lane_gamma, theta, pi), axis=-1)
    var_ac = np.full(len(lane_gamma), np.nan)
    var_ac[ok] = _sigma_AC_lanes(prev[ok], s[ok], laws.p_case[ok], laws.p_ctrl[ok], nu)[0]
    var_ac = var_ac.reshape(sets, k)
    failed = np.isnan(var_ac).any(axis=0)
    rows = []
    # Per row: its variances, and the constrained one at gamma = 1e-8 unless beta = 0.
    lanes = zip(f_values, alphas.tolist(), failed, var_m.tolist(), var_a.tolist(), *var_ac.tolist())
    for f, alpha, fails, vm, va, v, *v0 in lanes:
        try:
            if fails:
                _raise_alone(f, beta, gamma, theta, pi, nu)
            delta = bias_delta(alpha, beta, gamma, theta)
        except (CCEffError, InvalidInput) as exc:
            exc.f = f
            raise
        rows.append(
            PowerPoint(
                f=f,
                n=n,
                level=level,
                alpha=alpha,
                delta=delta,
                gamma_plus_delta=gamma + delta,
                sigma_M_sq=vm,
                sigma_A_sq=va,
                sigma_AC_sq=v,
                power_mar=_wald_power(gamma + delta, vm, n, z),
                power_adj=_wald_power(gamma, va, n, z),
                power_adjcon=_wald_power(gamma, v, n, z),
                ep_M_vs_A=pitman_are_M_vs_A(alpha, beta, theta, nu),
                ep_M_vs_AC=_are_M_vs_AC(alpha, beta, theta, pi, nu, *v0) if v0 else 1.0,
                f_star=f_star,
                alpha_star=alpha_star,
            )
        )
    return rows


def _raise_alone(f, beta, gamma, theta, pi, nu):
    """Raise the error of the theory row at f through the one-point functions, stage by stage."""
    alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
    params = PopulationParams(alpha, beta, gamma, theta, pi)
    for method in Method:
        _delta_and_variance(method, params, nu)
    pitman_are_M_vs_AC(alpha, beta, theta, pi, nu)
    raise AssertionError(f"theory row at f={f!r} is flagged by its lanes but computes alone")
