"""Independent oracles used across the test suite.

Everything here is recomputed directly from the 8-cell joint distribution
pr(D=d, X=i, E=j) with plain loops, or by finite differences of exact
expectations at high precision (mpmath).  Nothing imports the package's
formula implementations, so agreement is evidence rather than tautology.

The exception is the block of frozen references at the end: verbatim
copies of the small-array prevalence inversion and prevalence derivatives
that the plain-float kernels replaced, and of the one-table-at-a-time
sampler that the batch sampler replaced.  They are the judge of the
replacements' bitwise identity, not of their mathematics.
"""

import math

import mpmath
import numpy as np
from scipy.special import expit, logit
from scipy.stats import binom

from cceff.errors import BracketFailure
from cceff.model import retro_distribution


def _sigmoid(eta):
    if eta >= 0:
        return 1.0 / (1.0 + math.exp(-eta))
    e = math.exp(eta)
    return e / (1.0 + e)


def joint_cells(alpha, beta, gamma, theta, pi):
    """pr(D=d, X=i, E=j) for all 8 cells, keyed (d, i, j)."""
    cells = {}
    for i in (0, 1):
        for j in (0, 1):
            w = (theta if i else 1.0 - theta) * (pi if j else 1.0 - pi)
            p = _sigmoid(alpha + beta * i + gamma * j)
            cells[(1, i, j)] = p * w
            cells[(0, i, j)] = (1.0 - p) * w
    return cells


def enum_prevalence(alpha, beta, gamma, theta, pi):
    cells = joint_cells(alpha, beta, gamma, theta, pi)
    return sum(v for (d, _, _), v in cells.items() if d == 1)


def enum_retro_probs(alpha, beta, gamma, theta, pi):
    """(p_case, p_ctrl) dicts keyed (i, j): pr(X=i, E=j | D=d)."""
    cells = joint_cells(alpha, beta, gamma, theta, pi)
    f = enum_prevalence(alpha, beta, gamma, theta, pi)
    p_case = {(i, j): cells[(1, i, j)] / f for i in (0, 1) for j in (0, 1)}
    p_ctrl = {(i, j): cells[(0, i, j)] / (1.0 - f) for i in (0, 1) for j in (0, 1)}
    return p_case, p_ctrl


def enum_marginal_logor(alpha, beta, gamma, theta, pi):
    """Population log odds ratio of the collapsed (D, E) margin."""
    p_case, p_ctrl = enum_retro_probs(alpha, beta, gamma, theta, pi)
    p1 = p_case[(0, 1)] + p_case[(1, 1)]
    p0 = p_ctrl[(0, 1)] + p_ctrl[(1, 1)]
    return math.log(p1 / (1.0 - p1)) - math.log(p0 / (1.0 - p0))


def case_control_masses(alpha, beta, gamma, theta, pi, nu):
    """Expected per-unit cell masses under the case-control design.

    Cases carry total mass nu/(1+nu), controls 1/(1+nu); keyed (d, i, j).
    """
    p_case, p_ctrl = enum_retro_probs(alpha, beta, gamma, theta, pi)
    m = {}
    for i in (0, 1):
        for j in (0, 1):
            m[(1, i, j)] = nu / (1.0 + nu) * p_case[(i, j)]
            m[(0, i, j)] = 1.0 / (1.0 + nu) * p_ctrl[(i, j)]
    return m


def enum_sigma_M(alpha, beta, gamma, theta, pi, nu):
    """Woolf variance of the collapsed log odds ratio, per unit n."""
    p_case, p_ctrl = enum_retro_probs(alpha, beta, gamma, theta, pi)
    p1 = p_case[(0, 1)] + p_case[(1, 1)]
    p0 = p_ctrl[(0, 1)] + p_ctrl[(1, 1)]
    return (1.0 + nu) / nu / (p1 * (1.0 - p1)) + (1.0 + nu) / (p0 * (1.0 - p0))


def enum_sigma_A(alpha, beta, gamma, theta, pi, nu):
    """Gart's stratified variance: harmonic sum over covariate strata."""
    m = case_control_masses(alpha, beta, gamma, theta, pi, nu)
    total = 0.0
    for i in (0, 1):
        inv = sum(1.0 / m[(d, i, j)] for d in (0, 1) for j in (0, 1))
        total += 1.0 / inv
    return 1.0 / total


def enum_sigma_AC(alpha, beta, gamma, theta, pi, nu, dps=30):
    """Constrained-MLE variance of the exposure coefficient, per unit n.

    Fisher information as an mpmath finite-difference Hessian of the
    expected retrospective log-likelihood in (beta, gamma, theta, pi),
    with the intercept profiled out of the prevalence constraint by
    root-finding at every evaluation.  Slow but formula-free.
    """
    with mpmath.workdps(dps):
        al0 = mpmath.mpf(repr(alpha))
        s0 = [mpmath.mpf(repr(v)) for v in (beta, gamma, theta, pi)]
        nu_mp = mpmath.mpf(repr(nu))

        def expit(x):
            return 1 / (1 + mpmath.exp(-x))

        def prev(al, be, ga, th, p):
            tot = mpmath.mpf(0)
            for i in (0, 1):
                for j in (0, 1):
                    w = (th if i else 1 - th) * (p if j else 1 - p)
                    tot += expit(al + be * i + ga * j) * w
            return tot

        f_sup = prev(al0, *s0)
        masses = {}
        for i in (0, 1):
            for j in (0, 1):
                w = (s0[2] if i else 1 - s0[2]) * (s0[3] if j else 1 - s0[3])
                p = expit(al0 + s0[0] * i + s0[1] * j)
                masses[(1, i, j)] = nu_mp / (1 + nu_mp) * p * w / f_sup
                masses[(0, i, j)] = 1 / (1 + nu_mp) * (1 - p) * w / (1 - f_sup)

        def loglik(be, ga, th, p):
            al = mpmath.findroot(lambda a: prev(a, be, ga, th, p) - f_sup, al0)
            tot = mpmath.mpf(0)
            for (d, i, j), mass in masses.items():
                w = (th if i else 1 - th) * (p if j else 1 - p)
                pd = expit(al + be * i + ga * j)
                if d == 1:
                    q = nu_mp / (1 + nu_mp) * pd * w / f_sup
                else:
                    q = 1 / (1 + nu_mp) * (1 - pd) * w / (1 - f_sup)
                tot += mass * mpmath.log(q)
            return tot

        info = mpmath.matrix(4, 4)
        for k in range(4):
            for l in range(k, 4):
                orders = [0, 0, 0, 0]
                orders[k] += 1
                orders[l] += 1
                val = -mpmath.diff(loglik, tuple(s0), tuple(orders))
                info[k, l] = info[l, k] = val
        rhs = mpmath.matrix([0, 1, 0, 0])
        sol = mpmath.lu_solve(info, rhs)
        return float(sol[1])


def fd_derivative(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# ------------------------------------------------- frozen array references
# Verbatim copies of cceff.model.alpha_from_prevalence (with the helpers it
# calls) and cceff._constrained.f_derivs as they stood on (2, 2) numpy
# arrays.  Do not edit: the float kernels must reproduce them bit for bit.


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


def _prevalence_and_slope(alpha, beta, gamma, theta, pi):
    p = cell_probs(alpha, beta, gamma)
    w = mixture_weights(theta, pi)
    return float(np.sum(p * w)), float(np.sum(p * (1.0 - p) * w))


def alpha_from_prevalence(f, beta, gamma, theta, pi):
    """Invert the prevalence map in alpha for fixed (beta, gamma, theta, pi).

    Prevalence is strictly increasing in alpha, so the root is unique.  The
    search starts from the bracket logit(f) -/+ (|beta| + |gamma|), which
    always contains the root for valid inputs, and runs safeguarded Newton
    (steps clipped to the bracket, bisection otherwise).
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


def f_derivs(alpha, beta, gamma, theta, pi):
    """Gradient and Hessian of F = prevalence in (alpha, beta, gamma, theta, pi)."""
    p = cell_probs(alpha, beta, gamma)
    v = p * (1.0 - p)
    vp = v * (1.0 - 2.0 * p)
    tx = (1.0 - theta, theta)
    te = (1.0 - pi, pi)
    sg = (-1.0, 1.0)
    grad = np.zeros(5)
    hess = np.zeros((5, 5))
    for i in (0, 1):
        for j in (0, 1):
            coef = np.array([1.0, float(i), float(j)])
            wgt = tx[i] * te[j]
            dwt = sg[i] * te[j]
            dwp = tx[i] * sg[j]
            grad[:3] += v[i, j] * coef * wgt
            grad[3] += p[i, j] * dwt
            grad[4] += p[i, j] * dwp
            hess[:3, :3] += vp[i, j] * np.outer(coef, coef) * wgt
            hess[:3, 3] += v[i, j] * coef * dwt
            hess[:3, 4] += v[i, j] * coef * dwp
            hess[3, 4] += p[i, j] * sg[i] * sg[j]
    hess[3, :3] = hess[:3, 3]
    hess[4, :3] = hess[:3, 4]
    hess[4, 3] = hess[3, 4]
    return grad, hess


def _multinomial_invcdf(rng, n, probs):
    """Multinomial draw via sequential conditional binomials, one uniform per split."""
    k = len(probs)
    u = rng.random(k - 1)
    counts = np.zeros(k, dtype=np.int64)
    remaining = int(n)
    for idx in range(k - 1):
        tail = probs[idx:].sum()
        p_cond = probs[idx] / tail if tail > 0 else 0.0
        if remaining == 0 or p_cond <= 0.0:
            c = 0
        elif p_cond >= 1.0:
            c = remaining
        else:
            c = int(binom.ppf(u[idx], remaining, p_cond))
        counts[idx] = c
        remaining -= c
    counts[k - 1] = remaining
    return counts


def sample_table(params, design, seed, replicate_index):
    """One retrospective sample's cell weights, one scalar binom.ppf call per split."""
    n = design.n
    if abs(n - round(n)) > 1e-9:
        raise ValueError("sampling requires an integer total sample size")
    n1 = int(round(design.n_cases))
    n0 = int(round(n)) - n1
    if n1 < 1 or n0 < 1:
        raise ValueError("both case and control counts must be at least 1")
    r = retro_distribution(params)
    key = np.array([seed % 2**64, replicate_index % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    cases = _multinomial_invcdf(rng, n1, r.p_case.ravel())
    ctrls = _multinomial_invcdf(rng, n0, r.p_ctrl.ravel())
    return np.stack([ctrls.reshape(2, 2), cases.reshape(2, 2)]).astype(float)
