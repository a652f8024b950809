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


def _alpha_error(f):
    """The BracketFailure ``alpha_from_prevalence`` raises for a lane with target f.

    A lane fails either because f is not a prevalence or because the
    bracket for alpha had to grow past |alpha| = 750.
    """
    f = float(f)
    if not (0.0 < f < 1.0) or not math.isfinite(f):
        return BracketFailure(f"target prevalence f={f!r} not in (0, 1)")
    return BracketFailure("bracket expansion for alpha exceeded |alpha| = 750")


# Bisection midpoints evaluated ahead in one batch by a lane still iterating
# after _CHAIN_AFTER steps, see alpha_from_prevalence.  Safeguarded Newton
# converges in about 7 steps; a lane whose Newton step rounds onto the
# bracket end bisects back from the far end, about 50 steps.  On the
# mc_sparse fits (3 blocks of 6 tables) chains of 16, 32 and 48 points took
# 69, 43 and 27 batched steps, and 48 points cost about 11 % fewer array
# operations than 32 in all; starting chains after 6 or 10 steps instead
# of 8 cost more.
_CHAIN = 48
_CHAIN_AFTER = 8


def _newton_step(a, ga, slope, lo, hi):
    """One safeguarded Newton step of alpha_from_prevalence, elementwise.

    Returns the next point, the new bracket, whether the point lies above
    the root, whether the Newton step stayed inside the bracket (otherwise
    it bisects), and whether the lane ends there.  A slope of 0 gives an
    infinite step, hence a bisection; an exact root keeps its point.
    """
    up = ga > 0.0
    hi = np.where(up, a, hi)
    lo = np.where(up, lo, a)
    a_new = a - ga / slope  # a + (-ga / slope), exactly
    inside = (lo < a_new) & (a_new < hi)
    np.copyto(a_new, 0.5 * (lo + hi), where=~inside)
    end = np.abs(a_new - a) <= 1e-15 * (1.0 + np.abs(a_new))
    root = ga == 0.0
    if np.count_nonzero(root):
        end |= root
        np.copyto(a_new, a, where=root)
    return a_new, lo, hi, up, inside, end


def alpha_from_prevalence(f, beta, gamma, theta, pi):
    """Invert the prevalence map in alpha for fixed (beta, gamma, theta, pi).

    Prevalence is strictly increasing in alpha, so the root is unique.  The
    search starts from the bracket logit(f) -/+ (|beta| + |gamma|), which
    always contains the root for valid inputs, and runs safeguarded Newton
    (steps clipped to the bracket, bisection otherwise).

    The arguments broadcast against each other; each element is a lane
    with its own bracket, iteration and exit.  On plain floats the result
    is a float and a failing lane raises BracketFailure; on arrays it is an
    array with NaN in the failing lanes (``_alpha_error`` gives the error).
    Lane-exact: every lane does the operations a one-lane call does, in the
    same order (the four cells summed left to right in C order, as np.sum
    sums four elements; ``expit``, never ``np.exp``), so its alpha is
    bitwise the same whatever the other lanes hold.  A lane that keeps
    bisecting toward one end of its bracket evaluates the coming midpoints
    ahead, in one batch, and replays its steps in order, which changes no
    result.
    """
    args = [np.asarray(x, dtype=float) for x in (f, beta, gamma, theta, pi)]
    if len({x.shape for x in args}) > 1:
        args = np.broadcast_arrays(*args)
    shape = args[0].shape
    f, beta, gamma, theta, pi = (x.ravel() for x in args)
    if not f.size:
        return np.empty(shape)
    bad = ~((0.0 < f) & (f < 1.0))
    if shape == () and bad[0]:
        raise _alpha_error(f[0])
    f = np.where(bad, 0.5, f)
    t0, e0 = 1.0 - theta, 1.0 - pi
    # Per-lane constants, shaped to broadcast over the points of a lane.
    w = np.empty((len(f), 1, 4))
    for k, (tx, te) in enumerate(((t0, e0), (t0, pi), (theta, e0), (theta, pi))):
        np.multiply(tx, te, out=w[:, 0, k])
    shift = np.zeros((len(f), 1, 3))
    shift[:, 0, 1], shift[:, 0, 2] = gamma, beta
    lane = {"f": f[:, None], "gamma": gamma[:, None], "w": w, "shift": shift}

    def g(a, lane):
        # Prevalence minus f, and its alpha-slope, at points a of shape (n,)
        # or (n, k), k points per lane: cells 00, 01, 10 are
        # a + (0, gamma, beta) and cell 11 is (a + beta) + gamma.
        at = a.reshape(len(a), -1, 1)
        eta = np.empty(at.shape[:2] + (4,))
        np.add(at, lane["shift"], out=eta[..., :3])
        np.add(eta[..., 2], lane["gamma"], out=eta[..., 3])
        p = expit(eta)
        pw = p * lane["w"]
        vw = p * (1.0 - p)
        vw *= lane["w"]
        val = np.add.reduce(pw, axis=-1) - lane["f"]
        return val.reshape(a.shape), np.add.reduce(vw, axis=-1).reshape(a.shape)

    # The bracket logit(f) -/+ spread holds logit(f), where Newton starts:
    # the three points are evaluated together.
    spread = np.abs(beta) + np.abs(gamma)
    center = logit(f)
    lo, hi = center - spread, center + spread
    g_start, slope_start = g(np.stack([lo, hi, center], axis=1), lane)
    failed = bad.copy()
    for end, sign, g_end in ((lo, 1.0, g_start[:, 0]), (hi, -1.0, g_start[:, 1])):
        # Widen this end of the bracket (lo, then hi) in doubling steps while
        # the root lies beyond it; past |alpha| = 750 the lane fails.
        width = np.maximum(hi - lo, 1.0)
        grow = ~failed & (sign * g_end > 0.0)
        while grow.any():
            end -= np.where(grow, sign * width, 0.0)
            width = np.where(grow, width * 2.0, width)
            over = grow & (sign * end < -750.0)
            failed |= over
            grow &= ~over & (sign * g(end, lane)[0] > 0.0)

    out = np.full(f.shape, np.nan)
    idx = np.flatnonzero(~failed)
    a, lo, hi = center[idx], lo[idx], hi[idx]
    ga, slope = g_start[idx, 2], slope_start[idx, 2]
    lane = {key: value[idx] for key, value in lane.items()}
    chain = np.zeros(len(idx), dtype=np.int8)  # +1/-1: last step bisected toward hi/lo
    iterations = np.zeros(len(idx), dtype=int)
    passes = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while idx.size:
            passes += 1
            if passes <= _CHAIN_AFTER or not np.count_nonzero(chain):
                if passes > 1:
                    ga, slope = g(a, lane)
                a, lo, hi, up, inside, end = _newton_step(a, ga, slope, lo, hi)
                steps = 1
            else:
                # A lane still iterating whose last step bisected toward one
                # bracket end (its Newton step overshot that end) also
                # evaluates the next _CHAIN - 1 midpoints toward it, in the
                # same batch; its steps are replayed in order up to the first
                # that leaves the chain.  0.5 * (lo + hi) with the other end
                # fixed is 0.5 * (point + fixed end): + is commutative.
                fixed = np.where(chain > 0, hi, lo)
                c = np.empty((len(a), _CHAIN))
                c[:, 0] = a
                for k in range(1, _CHAIN):
                    np.add(c[:, k - 1], fixed, out=c[:, k])
                    c[:, k] *= 0.5
                ga, slope = g(c, lane)
                prev = np.concatenate([c[:, :1], c[:, :-1]], axis=1)
                lo_k = np.where(chain[:, None] > 0, prev, lo[:, None])
                hi_k = np.where(chain[:, None] < 0, prev, hi[:, None])
                lo_k[:, 0], hi_k[:, 0] = lo, hi
                step = _newton_step(c, ga, slope, lo_k, hi_k)
                _, _, _, up, inside, end = step
                on = ~end & ~inside & np.where(chain[:, None] > 0, ~up, up)
                span = np.where(chain != 0, np.minimum(_CHAIN, 100 - iterations), 1)
                on &= np.arange(_CHAIN) < span[:, None] - 1
                first = (~on).argmax(axis=1)
                a, lo, hi, up, inside, end = (x[np.arange(len(a)), first] for x in step)
                steps = first + 1
            iterations += steps
            if passes >= _CHAIN_AFTER:
                chain = np.where(end | inside, 0, np.where(up, -1, 1)).astype(np.int8)
                end |= iterations >= 100
            if np.count_nonzero(end):
                out[idx[end]] = a[end]
                keep = ~end
                idx, a, lo, hi = idx[keep], a[keep], lo[keep], hi[keep]
                chain, iterations = chain[keep], iterations[keep]
                lane = {key: value[keep] for key, value in lane.items()}
    out[idx] = a
    if shape == ():
        if math.isnan(out[0]):
            raise _alpha_error(f[0])
        return float(out[0])
    return out.reshape(shape)


def retro_distribution(params: PopulationParams) -> RetroDistribution:
    """Joint and conditional laws of (X, E) within cases and within controls.

    Raises InvalidInput where the laws are not representable: the
    prevalence rounds to 0 or 1, or a covariate stratum of the case or
    control law is empty, so that pr(E=1 | X=i, D=d) is 0/0 (a control law
    that underflows to all zeros has both strata empty).  Inside the
    PopulationParams bounds this happens when alpha + beta*i + gamma*j is
    large enough that expit rounds to 1.0.
    """
    p = cell_probs(params.alpha, params.beta, params.gamma)
    w = mixture_weights(params.theta, params.pi)
    joint_case = p * w
    joint_ctrl = (1.0 - p) * w
    f = joint_case.sum()
    if not (0.0 < f < 1.0):
        raise InvalidInput(f"prevalence {f!r} rounds to 0 or 1 at {params}")
    p_case = joint_case / f
    p_ctrl = joint_ctrl / (1.0 - f)
    p1_prime = float(p_case[:, 1].sum())
    p0_prime = float(p_ctrl[:, 1].sum())
    d_mat = np.column_stack([p_ctrl.sum(axis=1), p_case.sum(axis=1)])
    # Both laws are finite once 0 < f < 1; a law that sums to zero has empty strata.
    if not np.all(d_mat > 0.0):
        raise InvalidInput(
            f"the case or control law of (X, E) has an empty covariate stratum at {params}"
        )
    h_mat = np.column_stack([p_ctrl[:, 1], p_case[:, 1]]) / d_mat
    return RetroDistribution(
        p_case=p_case,
        p_ctrl=p_ctrl,
        p1_prime=p1_prime,
        p0_prime=p0_prime,
        d_mat=d_mat,
        h_mat=h_mat,
    )
