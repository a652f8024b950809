"""Population-level probability machinery for the 2x2x2 case-control model.

Disease D, exposure E, and a binary covariate X follow a prospective
logistic model without interaction,

    pr(D=1 | X=i, E=j) = expit(alpha + beta*i + gamma*j),

with X and E independent in the source population, pr(X=1) = theta and
pr(E=1) = pi.  Everything downstream (estimators, asymptotic constants,
simulation) is built on the handful of exact quantities computed here:
the marginal disease prevalence, its inversion in alpha, and the
retrospective distribution of (X, E) given case/control status.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np
from scipy.special import expit, logit

from .errors import BracketFailure, InvalidInput

__all__ = [
    "PopulationParams",
    "DesignParams",
    "RetroDistribution",
    "cell_probs",
    "mixture_weights",
    "prevalence_at",
    "alpha_from_prevalence",
    "retro_distribution",
]

_COEF_BOUND = 50.0
_PROB_MARGIN = 1e-8
# The model's input domain: each parameter's closed range (lo, hi).
_DOMAIN = {
    **dict.fromkeys(("alpha", "beta", "gamma"), (-_COEF_BOUND, _COEF_BOUND)),
    **dict.fromkeys(("theta", "pi"), (_PROB_MARGIN, 1.0 - _PROB_MARGIN)),
    "nu": (1e-6, 1e6),
}


def _check(**values):
    """Raise InvalidInput for the first value outside its ``_DOMAIN`` range, NaN included."""
    for name, v in values.items():
        lo, hi = _DOMAIN[name]
        if not (lo <= v <= hi):
            raise InvalidInput(f"{name}={v!r} outside [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class PopulationParams:
    """Parameters of the source population.

    alpha, beta, gamma are the logistic intercept, X-D log odds ratio and
    E-D log odds ratio; theta = pr(X=1) and pi = pr(E=1).  Each lies in its
    ``_DOMAIN`` range, which keeps the downstream linear algebra well
    conditioned.
    """

    alpha: float
    beta: float
    gamma: float
    theta: float
    pi: float

    def __post_init__(self):
        _check(alpha=self.alpha, beta=self.beta, gamma=self.gamma, theta=self.theta, pi=self.pi)

    @cached_property
    def f(self) -> float:
        """Marginal disease prevalence pr(D=1)."""
        return prevalence_at(self.alpha, self.beta, self.gamma, self.theta, self.pi)

    @cached_property
    def _retro(self) -> "RetroDistribution":
        """``retro_distribution``'s laws, computed once per truth; its arrays are read-only."""
        f, invalid, r = _retro_lanes(self.alpha, self.beta, self.gamma, self.theta, self.pi)
        if not (0.0 < f < 1.0):
            raise InvalidInput(f"prevalence {float(f)!r} rounds to 0 or 1 at {self}")
        if invalid:
            raise InvalidInput(
                f"the case or control law of (X, E) has an empty covariate stratum at {self}"
            )
        for x in (r.p_case, r.p_ctrl, r.d_mat, r.h_mat):
            x.flags.writeable = False
        return r


@dataclass(frozen=True)
class DesignParams:
    """Case-control sampling design: case:control ratio nu (see ``_DOMAIN``) and total size n."""

    nu: float
    n: float

    def __post_init__(self):
        _check(nu=self.nu)
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
    formulas consume.  From ``_retro_lanes`` every field carries the lane
    shape in front.
    """

    p_case: np.ndarray
    p_ctrl: np.ndarray
    p1_prime: float
    p0_prime: float
    d_mat: np.ndarray
    h_mat: np.ndarray


def cell_probs(alpha, beta, gamma):
    """All four disease probabilities as a (2, 2) array indexed [i, j]."""
    i = np.arange(2.0)[:, None]
    j = np.arange(2.0)[None, :]
    return expit(alpha + beta * i + gamma * j)


def mixture_weights(theta, pi):
    """Joint covariate-exposure weights theta^i (1-theta)^(1-i) pi^j (1-pi)^(1-j), at [..., i, j]."""
    theta, pi = (np.asarray(x, dtype=float)[..., None] for x in (theta, pi))
    tx = np.concatenate([1.0 - theta, theta], axis=-1)
    te = np.concatenate([1.0 - pi, pi], axis=-1)
    return tx[..., :, None] * te[..., None, :]


def prevalence_at(alpha, beta, gamma, theta, pi):
    """Prevalence as a pure function of the five raw parameters.

    Unlike :class:`PopulationParams` this accepts boundary mixing weights
    (theta or pi equal to 0 or 1); the four-term sum is evaluated directly.
    """
    return float(np.sum(cell_probs(alpha, beta, gamma) * mixture_weights(theta, pi)))


def _alpha_error(f):
    """The BracketFailure ``alpha_from_prevalence`` raises for a lane with target f.

    A lane fails because f is not a prevalence, because its root lies
    beyond |alpha| = 750, or because f is subnormal and no intercept's
    prevalence reproduces it (expit underflows below alpha = -709.78).
    """
    f = float(f)
    if not (0.0 < f < 1.0) or not math.isfinite(f):
        return BracketFailure(f"target prevalence f={f!r} not in (0, 1)")
    if f < _TINY:
        return BracketFailure(f"no intercept reproduces the subnormal prevalence f={f!r}")
    return BracketFailure("bracket expansion for alpha exceeded |alpha| = 750")


# Bisection midpoints evaluated ahead in one batch by a lane still iterating
# after _CHAIN_AFTER steps, see alpha_from_prevalence.  Safeguarded Newton
# converges in about 7 steps; a lane whose Newton step rounds onto the
# bracket end bisects back from the far end, about 50 steps.  A chained pass
# costs several plain passes, so chains start only once plain Newton has
# had its steps.  Timed per benchmark pass over the inversions of the
# mc_sparse fits and of the closed_form calls, chains of 32 points took 7 %
# and 15 % more time than 48, and 64 points 0 % and 4 % more; starting
# them after 6 or 10 steps instead of 8 took 10 % and 9 %, or 9 % and 4 %,
# more (medians of 10 alternated runs, in process; 2-vCPU Xeon VM, Python
# 3.11, numpy 2.4, scipy 1.17).
_CHAIN = 48
_CHAIN_AFTER = 8
_POW2 = 2.0 ** np.arange(_CHAIN)
# Steps after which a lane ends at its last point; down to f = 1e-250 lanes need up to 145.
_MAX_STEPS = 400
# Share of a subnormal f by which the prevalence at a lane's intercept may miss f.
_REPRODUCE = 1e-9
_TINY = np.finfo(float).tiny


def _newton_step(a, ga, slope, lo, hi):
    """One safeguarded Newton step of alpha_from_prevalence, elementwise.

    Moves the bracket (lo, hi) in place: the end on a's side of the root
    becomes a.  Returns the next point, whether a lies above the root,
    whether the Newton step stayed inside the bracket (otherwise it
    bisects), and whether the lane ends there.  A slope of 0 gives an
    infinite step, hence a bisection; an exact root keeps its point.
    """
    up = ga > 0.0
    np.copyto(hi, a, where=up)
    np.copyto(lo, a, where=~up)
    a_new = a - ga / slope  # a + (-ga / slope), exactly
    inside = (lo < a_new) & (a_new < hi)
    nxt = lo + hi
    nxt *= 0.5
    np.copyto(nxt, a_new, where=inside)
    end = np.abs(nxt - a) <= 1e-15 * (1.0 + np.abs(nxt))
    if np.count_nonzero(ga) < ga.size:
        root = ga == 0.0
        end |= root
        np.copyto(nxt, a, where=root)
    return nxt, up, inside, end


def _prevalence_gap(a, f, gamma, w, shift):
    """Prevalence minus f, and its alpha-slope, at the points a of each lane.

    a has shape (n,) or (n, k), k points per lane, and the lane constants
    broadcast against it, cells first: cells 00, 01, 10 are a + shift =
    a + (0, gamma, beta) and cell 11 is (a + beta) + gamma, weighted by w.
    Summing over the cell axis adds the four cells left to right.
    """
    eta = np.empty((4,) + a.shape)
    np.add(a, shift, out=eta[:3])
    np.add(eta[2], gamma, out=eta[3])
    p = expit(eta, out=eta)
    vw = 1.0 - p
    vw *= p
    vw *= w
    p *= w
    return np.add.reduce(p, axis=0) - f, np.add.reduce(vw, axis=0)


def alpha_from_prevalence(f, beta, gamma, theta, pi):
    """Invert the prevalence map in alpha for fixed (beta, gamma, theta, pi).

    Prevalence is strictly increasing in alpha, so the root is unique.  The
    search starts from the bracket logit(f) -/+ (|beta| + |gamma|), which
    contains the root up to rounding (an end that misses it is widened, up
    to |alpha| = 750), and runs safeguarded Newton (steps clipped to the
    bracket, bisection otherwise) for at most _MAX_STEPS steps.  A lane with
    a subnormal f fails where the prevalence at its intercept misses f by
    more than _REPRODUCE of f.

    The arguments broadcast against each other; each element is a lane
    with its own bracket, iteration and exit.  On plain floats the result
    is a float and a failing lane raises BracketFailure; on arrays it is an
    array with NaN in the failing lanes (``_alpha_error`` gives the error).
    Lane-exact: every lane does the operations a one-lane call does, in the
    same order (the four cells summed left to right in C order, as np.sum
    sums four elements; ``expit``, never ``np.exp``), so its alpha is
    bitwise the same whatever the other lanes hold.  A pass steps every
    lane, and a lane's result is written on the pass it ends; a lane that
    has ended is stepped on unread.  A lane that keeps bisecting toward one
    end of its bracket evaluates the coming midpoints ahead, in one batch,
    and replays its steps in order, which changes no result; the other
    lanes take their plain step, unless every live lane is in a chain.
    """
    args = [np.asarray(x, dtype=float) for x in (f, beta, gamma, theta, pi)]
    shape = np.broadcast(*args).shape
    f, beta, gamma, theta, pi = (
        x.reshape(-1) if x.shape == shape else np.full(shape, x).reshape(-1) for x in args
    )
    if not f.size:
        return np.empty(shape)
    failed = ~((0.0 < f) & (f < 1.0))
    if np.count_nonzero(failed):
        if shape == ():
            raise _alpha_error(f[0])
        f = np.where(failed, 0.5, f)
    t0, e0 = 1.0 - theta, 1.0 - pi
    # Per-lane constants of _prevalence_gap, lanes last, in one block so
    # that a chain gathers its lanes' rows at once: the weights w, then the
    # shifts (0, gamma, beta).
    consts = np.empty((7, len(f)))
    for k, (tx, te) in enumerate(((t0, e0), (t0, pi), (theta, e0), (theta, pi))):
        np.multiply(tx, te, out=consts[k])
    consts[4], consts[5], consts[6] = 0.0, gamma, beta
    w, shift = consts[:4], consts[4:]
    lane = (f, gamma, w, shift)

    # The bracket logit(f) -/+ spread holds logit(f), where Newton starts:
    # the three points are evaluated together.
    spread = np.abs(beta) + np.abs(gamma)
    start = np.empty((3, len(f)))
    a = logit(f, out=start[2])
    lo = np.subtract(a, spread, out=start[0])
    hi = np.add(a, spread, out=start[1])
    g_start, slope_start = _prevalence_gap(start, f, gamma, w[:, None], shift[:, None])
    # Widening is needed only where an end of the start bracket misses the root.
    if np.count_nonzero((g_start[0] > 0.0) | (g_start[1] < 0.0)):
        for end, sign, g_end in ((lo, 1.0, g_start[0]), (hi, -1.0, g_start[1])):
            # Widen this end of the bracket (lo, then hi) in doubling steps
            # up to |alpha| = 750 while the root lies beyond it, or fail.
            width = np.maximum(hi - lo, 1.0)
            grow = ~failed & (sign * g_end > 0.0)
            while grow.any():
                failed |= grow & (sign * end <= -750.0)
                grow &= ~failed
                np.copyto(end, sign * np.maximum(sign * end - width, -750.0), where=grow)
                width = np.where(grow, width * 2.0, width)
                grow &= sign * _prevalence_gap(end, *lane)[0] > 0.0

    out = np.full(f.shape, np.nan)
    live = ~failed
    n_live = np.count_nonzero(live)
    ga, slope = g_start[2], slope_start[2]
    # A lane has taken passes + extra[lane] steps: one a pass, and its
    # chains' further steps.
    extra = np.zeros(len(f), dtype=int)
    passes = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while n_live:
            passes += 1
            if passes > _CHAIN_AFTER and np.count_nonzero(bisecting):
                # A lane still iterating whose last step bisected toward one
                # bracket end (its Newton step overshot that end) evaluates
                # the next _CHAIN - 1 midpoints toward it as well, in one
                # batch; its steps are replayed in order up to the first
                # that leaves the chain.  0.5 * (lo + hi) with the other end
                # e fixed is x_k = (x_{k-1} + e) * 0.5: + is commutative.
                # Scaled by 2^k that is y_k = y_{k-1} + 2^(k-1) e, with the
                # same roundings (a power of two scales exactly: every y is
                # finite for |alpha| <= 750, and a used step moves more than
                # 1e-15, so no used midpoint is subnormal), and one
                # sequential add.accumulate builds every chain.  Any other
                # live lane takes one plain step.
                at = bisecting.nonzero()[0]
                to_hi = ~up[at][:, None]  # where the lane bisects toward hi
                lo_at, hi_at = lo[at][:, None], hi[at][:, None]
                c = np.empty((len(at), _CHAIN))
                c[:, 0] = a[at]
            else:
                at = None
            if at is None or len(at) < n_live:  # some live lane takes a plain step
                if passes > 1:
                    ga, slope = _prevalence_gap(a, *lane)
                a, up, inside, end = _newton_step(a, ga, slope, lo, hi)
            if at is not None:
                np.multiply(np.where(to_hi, hi_at, lo_at), _POW2[:-1], out=c[:, 1:])
                np.add.accumulate(c, axis=1, out=c)
                c /= _POW2
                const_at = consts.take(at, axis=1)[..., None]
                ga_k, slope_k = _prevalence_gap(
                    c, f[at][:, None], const_at[5], const_at[:4], const_at[4:]
                )
                prev = np.concatenate([c[:, :1], c[:, :-1]], axis=1)
                lo_k = np.where(to_hi, prev, lo_at)
                hi_k = np.where(to_hi, hi_at, prev)
                lo_k[:, 0], hi_k[:, 0] = lo_at[:, 0], hi_at[:, 0]
                step = _newton_step(c, ga_k, slope_k, lo_k, hi_k)
                _, up_k, inside_k, end_k = step
                on = ~(end_k | inside_k) & (up_k != to_hi)
                span = np.minimum(_CHAIN, _MAX_STEPS - (passes - 1) - extra[at])
                on &= np.arange(_CHAIN) < span[:, None] - 1
                first = (~on).argmax(axis=1)
                taken = np.arange(0, len(at) * _CHAIN, _CHAIN) + first  # in each x_k.ravel()
                for x, x_k in zip((a, up, inside, end, lo, hi), step + (lo_k, hi_k)):
                    x[at] = x_k.ravel()[taken]
                extra[at] += first
            if passes >= _CHAIN_AFTER:
                end |= passes + extra >= _MAX_STEPS
                bisecting = live & ~(end | inside)  # the last step bisected, toward lo if up
            done = end & live
            n_done = np.count_nonzero(done)
            if n_done:
                np.copyto(out, a, where=done)
                live ^= done
                n_live -= n_done
    if f.min() < _TINY:  # such a lane may end on the step where expit underflows
        sub = np.flatnonzero(f < _TINY)
        gap = _prevalence_gap(out[sub], *(x[..., sub] for x in lane))[0]
        miss = np.abs(gap) > _REPRODUCE * f[sub]
        out[sub[miss]] = np.nan
    if shape == ():
        if math.isnan(out[0]):
            raise _alpha_error(f[0])
        return float(out[0])
    return out.reshape(shape)


def _retro_lanes(alpha, beta, gamma, theta, pi):
    """The retrospective laws on lanes: prevalence f, invalid-lane mask and RetroDistribution.

    The arguments broadcast, one lane per element, and every field of the
    RetroDistribution has the lane shape in front.  A lane is invalid
    exactly where ``retro_distribution``, its batch of one, raises
    InvalidInput.  Lane-exact: each lane takes the one-lane operations
    elementwise (``expit``, ``*``, ``/``, ``1 - p``) and sums its four cells
    left to right, as np.sum sums a (2, 2) array.
    """
    p = cell_probs(*(np.asarray(x, dtype=float)[..., None, None] for x in (alpha, beta, gamma)))
    w = mixture_weights(theta, pi)
    joint_case = p * w
    joint_ctrl = (1.0 - p) * w
    f = joint_case.sum(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        p_case = joint_case / f[..., None, None]
        p_ctrl = joint_ctrl / (1.0 - f)[..., None, None]
        d_mat = np.stack([p_ctrl.sum(axis=-1), p_case.sum(axis=-1)], axis=-1)
        h_mat = np.stack([p_ctrl[..., 1], p_case[..., 1]], axis=-1) / d_mat
    # Both laws are finite once 0 < f < 1; a law that sums to zero has empty strata.
    invalid = ~((0.0 < f) & (f < 1.0)) | ~np.all(d_mat > 0.0, axis=(-2, -1))
    p1, p0 = p_case[..., 1].sum(axis=-1), p_ctrl[..., 1].sum(axis=-1)
    return f, invalid, RetroDistribution(p_case, p_ctrl, p1, p0, d_mat, h_mat)


def retro_distribution(params: PopulationParams) -> RetroDistribution:
    """Joint and conditional laws of (X, E) within cases and within controls.

    Raises InvalidInput where the laws are not representable: the
    prevalence rounds to 0 or 1, or a covariate stratum of the case or
    control law is empty, so that pr(E=1 | X=i, D=d) is 0/0 (a control law
    that underflows to all zeros has both strata empty).  Inside the
    PopulationParams bounds this happens when alpha + beta*i + gamma*j is
    large enough that expit rounds to 1.0.  The batch of one of
    ``_retro_lanes``, computed once per ``params`` and shared by every
    caller, so its arrays are read-only.
    """
    return params._retro
