"""Population-level probability machinery for the 2x2x2 case-control model.

Disease D, exposure E, and a binary covariate X follow a prospective
logistic model without interaction,

    pr(D=1 | X=i, E=j) = expit(alpha + beta*i + gamma*j),

with X and E independent in the source population, pr(X=1) = theta and
pr(E=1) = pi.  Everything downstream (estimators, asymptotic constants,
simulation) is built on the handful of exact quantities computed here:
the marginal disease prevalence, its inversions in alpha and in theta,
and the retrospective distribution of (X, E) given case/control status.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
from scipy.special import expit, logit

from .errors import BracketFailure, DegenerateConstraint, InfeasiblePrevalence, InvalidInput

__all__ = [
    "PopulationParams",
    "DesignParams",
    "RetroDistribution",
    "cell_prob",
    "cell_probs",
    "mixture_weights",
    "prevalence",
    "prevalence_at",
    "theta_from_constraint",
    "alpha_from_prevalence",
    "retro_distribution",
]

_COEF_BOUND = 50.0
_PROB_MARGIN = 1e-8


@dataclass(frozen=True)
class PopulationParams:
    """Parameters of the source population.

    alpha, beta, gamma are the logistic intercept, X-D log odds ratio and
    E-D log odds ratio; theta = pr(X=1) and pi = pr(E=1).  Bounds keep the
    downstream linear algebra well conditioned: |alpha|, |beta|, |gamma|
    at most 50 and theta, pi within [1e-8, 1 - 1e-8].
    """

    alpha: float
    beta: float
    gamma: float
    theta: float
    pi: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > _COEF_BOUND:
                raise InvalidInput(f"{name}={v!r} outside [-{_COEF_BOUND:g}, {_COEF_BOUND:g}]")
        for name in ("theta", "pi"):
            v = getattr(self, name)
            if not (_PROB_MARGIN <= v <= 1.0 - _PROB_MARGIN):
                raise InvalidInput(
                    f"{name}={v!r} outside [{_PROB_MARGIN:g}, {1.0 - _PROB_MARGIN:g}]"
                )

    @cached_property
    def f(self) -> float:
        """Marginal disease prevalence pr(D=1)."""
        return prevalence_at(self.alpha, self.beta, self.gamma, self.theta, self.pi)


@dataclass(frozen=True)
class DesignParams:
    """Case-control sampling design: case:control ratio nu and total size n."""

    nu: float
    n: float

    def __post_init__(self):
        if not (1e-6 <= self.nu <= 1e6):
            raise InvalidInput(f"nu={self.nu!r} outside [1e-6, 1e6]")
        if not (self.n > 0 and math.isfinite(self.n)):
            raise InvalidInput(f"n={self.n!r} must be positive and finite")

    @property
    def n_cases(self) -> float:
        return self.n * self.nu / (1.0 + self.nu)

    @property
    def n_controls(self) -> float:
        return self.n / (1.0 + self.nu)


@dataclass(frozen=True)
class RetroDistribution:
    """Distribution of (X, E) given disease status under retrospective sampling.

    p_case[i][j] and p_ctrl[i][j] are pr(X=i, E=j | D=1) and pr(X=i, E=j | D=0).
    p1_prime and p0_prime are the exposure margins pr(E=1 | D=1) and
    pr(E=1 | D=0).  d_mat[i][d] = pr(X=i | D=d) and h_mat[i][d] =
    pr(E=1 | X=i, D=d) are the pieces the covariate-stratified variance
    formulas consume.
    """

    p_case: np.ndarray
    p_ctrl: np.ndarray
    p1_prime: float
    p0_prime: float
    d_mat: np.ndarray
    h_mat: np.ndarray


def cell_prob(alpha, beta, gamma, i, j):
    """pr(D=1 | X=i, E=j) = expit(alpha + beta*i + gamma*j)."""
    return float(expit(alpha + beta * i + gamma * j))


def cell_probs(alpha, beta, gamma):
    """All four disease probabilities as a (2, 2) array indexed [i, j]."""
    i = np.arange(2.0)[:, None]
    j = np.arange(2.0)[None, :]
    return expit(alpha + beta * i + gamma * j)


def mixture_weights(theta, pi):
    """Joint covariate-exposure weights theta^i (1-theta)^(1-i) pi^j (1-pi)^(1-j)."""
    tx = np.array([1.0 - theta, theta])
    te = np.array([1.0 - pi, pi])
    return np.outer(tx, te)


def prevalence_at(alpha, beta, gamma, theta, pi):
    """Prevalence as a pure function of the five raw parameters.

    Unlike :class:`PopulationParams` this accepts boundary mixing weights
    (theta or pi equal to 0 or 1); the four-term sum is evaluated directly.
    """
    return float(np.sum(cell_probs(alpha, beta, gamma) * mixture_weights(theta, pi)))


def prevalence(params: PopulationParams) -> float:
    """Marginal disease prevalence f = sum_ij p_ij pr(X=i) pr(E=j)."""
    return prevalence_at(params.alpha, params.beta, params.gamma, params.theta, params.pi)


def theta_from_constraint(alpha, beta, gamma, pi, f):
    """Solve the prevalence identity for theta = pr(X=1).

    f is linear in theta, so
        theta = (f - p01*pi - p00*(1-pi)) / (p11*pi + p10*(1-pi) - p01*pi - p00*(1-pi)).
    The denominator vanishes exactly when beta = 0, in which case theta is
    not identified by f and DegenerateConstraint is raised.  A solution
    outside [0, 1] raises InfeasiblePrevalence; the endpoints themselves are
    returned as-is (f at the edge of the attainable range is still attained).
    """
    p = cell_probs(alpha, beta, gamma)
    a0 = p[0, 1] * pi + p[0, 0] * (1.0 - pi)
    a1 = p[1, 1] * pi + p[1, 0] * (1.0 - pi)
    denom = a1 - a0
    if beta == 0.0 or denom == 0.0:
        raise DegenerateConstraint(
            "prevalence does not depend on theta when beta = 0; theta is unidentified"
        )
    theta = (f - a0) / denom
    if not (0.0 <= theta <= 1.0):
        raise InfeasiblePrevalence(
            f"f={f!r} requires theta={theta!r}, outside [0, 1] "
            f"(attainable range [{min(a0, a1)!r}, {max(a0, a1)!r}])"
        )
    return float(theta)


def _expit(x):
    """1 / (1 + exp(-x)) on one float: the expression scipy.special.expit evaluates.

    An overflowing exp gives 0.0, as the infinity does in scipy.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _prevalence_and_slope(alpha, beta, gamma, theta, pi):
    """Prevalence and its alpha-derivative on plain floats.

    Same arithmetic as np.sum(cell_probs * mixture_weights): the cells are
    summed left to right in C order (00, 01, 10, 11), which is what np.sum
    does for four elements, so the result is bitwise the array version's.
    """
    a1 = alpha + beta
    p00 = _expit(alpha)
    p01 = _expit(alpha + gamma)
    p10 = _expit(a1)
    p11 = _expit(a1 + gamma)
    t0, t1 = 1.0 - theta, theta
    e0, e1 = 1.0 - pi, pi
    w00, w01, w10, w11 = t0 * e0, t0 * e1, t1 * e0, t1 * e1
    val = p00 * w00 + p01 * w01 + p10 * w10 + p11 * w11
    slope = (
        p00 * (1.0 - p00) * w00
        + p01 * (1.0 - p01) * w01
        + p10 * (1.0 - p10) * w10
        + p11 * (1.0 - p11) * w11
    )
    return val, slope


def alpha_from_prevalence(f, beta, gamma, theta, pi):
    """Invert the prevalence map in alpha for fixed (beta, gamma, theta, pi).

    Prevalence is strictly increasing in alpha, so the root is unique.  The
    search starts from the bracket logit(f) -/+ (|beta| + |gamma|), which
    always contains the root for valid inputs, and runs safeguarded Newton
    (steps clipped to the bracket, bisection otherwise).

    Prevalence and slope are evaluated on plain Python floats, in the same
    order of operations as the (2, 2)-array form (cell_probs times
    mixture_weights, summed by np.sum), so the returned alpha is bitwise the
    one the array form gives; only the small-array overhead is gone.
    """
    if not (0.0 < f < 1.0) or not math.isfinite(f):
        raise BracketFailure(f"target prevalence f={f!r} not in (0, 1)")
    spread = abs(beta) + abs(gamma)
    center = float(logit(f))
    lo, hi = center - spread, center + spread

    def g(a):
        val, slope = _prevalence_and_slope(a, beta, gamma, theta, pi)
        return val - f, slope

    glo, _ = g(lo)
    width = max(hi - lo, 1.0)
    while glo > 0.0:
        lo -= width
        width *= 2.0
        if lo < -750.0:
            raise BracketFailure("bracket expansion for alpha exceeded |alpha| = 750")
        glo, _ = g(lo)
    ghi, _ = g(hi)
    width = max(hi - lo, 1.0)
    while ghi < 0.0:
        hi += width
        width *= 2.0
        if hi > 750.0:
            raise BracketFailure("bracket expansion for alpha exceeded |alpha| = 750")
        ghi, _ = g(hi)

    a = min(max(center, lo), hi)
    for _ in range(100):
        ga, slope = g(a)
        if ga == 0.0:
            return float(a)
        if ga > 0.0:
            hi = a
        else:
            lo = a
        step = -ga / slope if slope > 0.0 else math.inf
        a_new = a + step
        if not (lo < a_new < hi):
            a_new = 0.5 * (lo + hi)
        if abs(a_new - a) <= 1e-15 * (1.0 + abs(a_new)):
            return float(a_new)
        a = a_new
    return float(a)


def retro_distribution(params: PopulationParams) -> RetroDistribution:
    """Joint and conditional laws of (X, E) within cases and within controls."""
    p = cell_probs(params.alpha, params.beta, params.gamma)
    w = mixture_weights(params.theta, params.pi)
    joint_case = p * w
    joint_ctrl = (1.0 - p) * w
    f = joint_case.sum()
    p_case = joint_case / f
    p_ctrl = joint_ctrl / (1.0 - f)
    p1_prime = float(p_case[:, 1].sum())
    p0_prime = float(p_ctrl[:, 1].sum())
    d_mat = np.column_stack([p_ctrl.sum(axis=1), p_case.sum(axis=1)])
    h_mat = np.column_stack(
        [p_ctrl[:, 1] / p_ctrl.sum(axis=1), p_case[:, 1] / p_case.sum(axis=1)]
    )
    return RetroDistribution(
        p_case=p_case,
        p_ctrl=p_ctrl,
        p1_prime=p1_prime,
        p0_prime=p0_prime,
        d_mat=d_mat,
        h_mat=h_mat,
    )
