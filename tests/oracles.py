"""Independent oracles used across the test suite.

Everything here is recomputed directly from the 8-cell joint distribution
pr(D=d, X=i, E=j) with plain loops, or by finite differences of exact
expectations at high precision (mpmath).  Nothing imports the package's
formula implementations, so agreement is evidence rather than tautology.

The exception is the block of frozen references at the end: verbatim
copies of the small-array prevalence inversion and prevalence derivatives
that the plain-float kernels replaced, of the one-table-at-a-time sampler
that the batch sampler replaced, of the lane form of the constrained
profile likelihood that the per-cell kernels replaced, and of the damped
Newton routine whose per-round bookkeeping was packed.  They are the judge
of the replacements' bitwise identity, not of their mathematics.
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


def mp_alpha_root(f, beta, gamma, theta, pi, dps=50):
    """The intercept whose prevalence is f, by an mpmath root of log prevalence - log f.

    The float arguments are taken exactly; the root is searched in [-1000, 100].
    """
    with mpmath.workdps(dps):
        f, beta, gamma, theta, pi = (mpmath.mpf(x) for x in (f, beta, gamma, theta, pi))
        cells = [(0, 1 - theta, 1 - pi), (gamma, 1 - theta, pi),
                 (beta, theta, 1 - pi), (beta + gamma, theta, pi)]

        def excess(a):
            prev = sum(tx * te / (1 + mpmath.exp(-(a + shift))) for shift, tx, te in cells)
            return mpmath.log(prev) - mpmath.log(f)

        return float(mpmath.findroot(excess, (-1000, 100), solver="anderson"))


def mp_marginal(cells, dps=50):
    """The marginal fit of eight cells (d, i, j) in mpmath: (alpha0, gamma, var_alpha0, var_gamma, loglik).

    Collapses over i; the cells are taken exactly and every result is rounded once to a float.
    The larger share x of a column is logged as log1p(-(1 - x)), 1 - x the other share, so
    that its term keeps its digits however small that other share is, at any precision.
    """

    def log_share(d, j):
        if m[d][j] >= m[1 - d][j]:
            return mpmath.log1p(-m[1 - d][j] / col[j])
        return mpmath.log(m[d][j] / col[j])

    with mpmath.workdps(dps):
        w = [mpmath.mpf(float(c)) for c in np.ravel(cells)]
        m = [[w[4 * d + j] + w[4 * d + 2 + j] for j in (0, 1)] for d in (0, 1)]
        col = [m[0][j] + m[1][j] for j in (0, 1)]
        loglik = sum(m[d][j] * log_share(d, j) for d in (0, 1) for j in (0, 1))
        return tuple(float(x) for x in (
            mpmath.log(m[1][0] / m[0][0]),
            mpmath.log(m[1][1] * m[0][0] / (m[1][0] * m[0][1])),
            1 / m[1][0] + 1 / m[0][0],
            sum(1 / m[d][j] for d in (0, 1) for j in (0, 1)),
            loglik,
        ))


def _mp_unit_cells(cells):
    """Eight cells (d, i, j), taken exactly and scaled to unit total, as c[d][i][j]."""
    w = [mpmath.mpf(float(c)) for c in np.ravel(cells)]
    total = mpmath.fsum(w)
    return [[[w[4 * d + 2 * i + j] / total for j in (0, 1)] for i in (0, 1)] for d in (0, 1)]


def _mp_score(c, alpha, beta, gamma):
    """Score of the per-unit prospective log-likelihood in (alpha, beta, gamma).

    l = sum_ij c1_ij eta_ij - m_ij log(1 + e^eta_ij), eta_ij = alpha + beta i + gamma j,
    m_ij = c0_ij + c1_ij; each derivative is sum c1_ij - m_ij p_ij over the cells with
    that regressor.
    """
    eta = [[alpha + beta * i + gamma * j for j in (0, 1)] for i in (0, 1)]
    resid = [[c[1][i][j] - (c[0][i][j] + c[1][i][j]) / (1 + mpmath.exp(-eta[i][j]))
              for j in (0, 1)] for i in (0, 1)]
    return [sum(resid[i][j] for i in (0, 1) for j in (0, 1)), resid[1][0] + resid[1][1],
            resid[0][1] + resid[1][1]]


def mp_adjusted_root(cells, params, dps=40):
    """Adj's MLE (alpha, beta, gamma) as a root of its score equations, by ``mpmath.findroot``.

    Newton at dps digits from params, the float fit; raises ValueError where
    no root is found to the working precision.
    """
    with mpmath.workdps(dps):
        c = _mp_unit_cells(cells)
        root = mpmath.findroot(lambda a, b, g: _mp_score(c, a, b, g),
                               [mpmath.mpf(float(x)) for x in params])
        return tuple(float(x) for x in root)


def mp_constrained_kkt(cells, f, alpha, s, dps=40):
    """AdjCon's MLE at prevalence f as a KKT point, by ``mpmath.findroot``: (alpha, s).

    The unknowns are (alpha, beta, gamma, theta, pi) and a multiplier lambda;
    the equations are grad l = lambda grad F and F = f, with l the per-unit
    retrospective log-likelihood of the module docstring of
    ``cceff._constrained`` (the prospective part plus the covariate and
    exposure laws theta and pi) and F = sum_ij p_ij tx_i te_j the
    prevalence, both differentiated by hand (findroot differences them for
    its Jacobian).  Newton at dps digits from the float fit (alpha, s),
    lambda from the alpha equation; raises ValueError where no root is
    found to the working precision.
    """
    with mpmath.workdps(dps):
        f = mpmath.mpf(float(f))
        c = _mp_unit_cells(cells)
        x1 = sum(c[d][1][j] for d in (0, 1) for j in (0, 1))
        e1 = sum(c[d][i][1] for d in (0, 1) for i in (0, 1))

        def parts(alpha, beta, gamma, theta, pi):
            # grad l, grad F and F at one point.
            p = [[1 / (1 + mpmath.exp(-(alpha + beta * i + gamma * j))) for j in (0, 1)]
                 for i in (0, 1)]
            tx, te = (1 - theta, theta), (1 - pi, pi)
            v = [[p[i][j] * (1 - p[i][j]) * tx[i] * te[j] for j in (0, 1)] for i in (0, 1)]
            grad_l = _mp_score(c, alpha, beta, gamma) + [
                x1 / theta - (1 - x1) / (1 - theta), e1 / pi - (1 - e1) / (1 - pi),
            ]
            grad_f = [
                sum(v[i][j] for i in (0, 1) for j in (0, 1)), v[1][0] + v[1][1],
                v[0][1] + v[1][1],
                sum((p[1][j] - p[0][j]) * te[j] for j in (0, 1)),
                sum((p[i][1] - p[i][0]) * tx[i] for i in (0, 1)),
            ]
            prevalence = sum(p[i][j] * tx[i] * te[j] for i in (0, 1) for j in (0, 1))
            return grad_l, grad_f, prevalence

        def equations(*u):
            grad_l, grad_f, prevalence = parts(*u[:5])
            return [gl - u[5] * gf for gl, gf in zip(grad_l, grad_f)] + [prevalence - f]

        start = [mpmath.mpf(float(x)) for x in (alpha, *s)]
        grad_l, grad_f, _ = parts(*start)
        root = mpmath.findroot(equations, start + [grad_l[0] / grad_f[0]])
        return float(root[0]), tuple(float(x) for x in root[1:5])


def separated(cells):
    """Whether a table's cases and controls are separated, so that Adj has no finite MLE.

    Albert and Anderson (1984): with the four covariate patterns x = (1, i, j),
    some b has x.b >= 0 on every pattern holding a case, x.b <= 0 on every
    pattern holding a control, and x.b != 0 on some filled pattern.  Decided
    by a HiGHS linear program over b in [-1, 1]^3 that maximizes the summed
    |x.b| of the one-arm patterns.
    """
    from scipy.optimize import linprog

    w = np.reshape(cells, (2, 4))
    x = np.array([[1.0, i, j] for i in (0, 1) for j in (0, 1)])
    sign = (w[1] > 0).astype(float) - (w[0] > 0).astype(float)  # +1 cases only, -1 controls only
    mixed = (w[0] > 0) & (w[1] > 0)
    one_arm = sign != 0
    lp = linprog(-(sign[one_arm] @ x[one_arm]), A_ub=-sign[one_arm, None] * x[one_arm],
                 b_ub=np.zeros(one_arm.sum()), A_eq=x[mixed] if mixed.any() else None,
                 b_eq=np.zeros(mixed.sum()) if mixed.any() else None,
                 bounds=[(-1.0, 1.0)] * 3, method="highs")
    return -lp.fun > 1e-9


def fd_derivative(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# ------------------------------------------------- frozen array references
# Verbatim copies of cceff.model.alpha_from_prevalence (with the helpers it
# calls) and cceff._constrained.f_derivs as they stood on (2, 2) numpy
# arrays.  Do not edit: the float kernels must reproduce them bit for bit.
# The one exception is a change of the algorithm itself, mirrored here: the
# inversion's bracket ends are clamped at |alpha| = 750, its step cap is 400
# (formerly a failure past 750 and 100 steps), and a subnormal f whose
# result's prevalence misses f by more than 1e-9 f fails (formerly returned).


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
    (steps clipped to the bracket, bisection otherwise).  A subnormal f
    fails where the prevalence at the result misses f by more than 1e-9 f.
    """
    if not (0.0 < f < 1.0) or not math.isfinite(f):
        raise BracketFailure(f"target prevalence f={f!r} not in (0, 1)")
    if f < np.finfo(float).tiny:
        failure = f"no intercept reproduces the subnormal prevalence f={f!r}"
    else:
        failure = "bracket expansion for alpha exceeded |alpha| = 750"
    spread = abs(beta) + abs(gamma)
    center = float(logit(f))
    lo, hi = center - spread, center + spread

    def g(a):
        val, slope = _prevalence_and_slope(a, beta, gamma, theta, pi)
        return val - f, slope

    glo, _ = g(lo)
    width = max(hi - lo, 1.0)
    while glo > 0.0:
        if lo <= -750.0:
            raise BracketFailure(failure)
        lo = max(lo - width, -750.0)
        width *= 2.0
        glo, _ = g(lo)
    ghi, _ = g(hi)
    width = max(hi - lo, 1.0)
    while ghi < 0.0:
        if hi >= 750.0:
            raise BracketFailure(failure)
        hi = min(hi + width, 750.0)
        width *= 2.0
        ghi, _ = g(hi)

    a = min(max(center, lo), hi)
    for _ in range(400):
        ga, slope = g(a)
        if ga == 0.0:
            break
        if ga > 0.0:
            hi = a
        else:
            lo = a
        step = -ga / slope if slope > 0.0 else math.inf
        a_new = a + step
        if not (lo < a_new < hi):
            a_new = 0.5 * (lo + hi)
        done = abs(a_new - a) <= 1e-15 * (1.0 + abs(a_new))
        a = a_new
        if done:
            break
    if f < np.finfo(float).tiny and abs(g(a)[0]) > 1e-9 * f:
        raise BracketFailure(failure)
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


# ------------------------------ frozen lane form of the profile likelihood
# Verbatim copies of cceff._constrained.profile_parts and loglik_grad_hess_s
# (with the lane forms of f_derivs and alpha_derivs they call) as they stood
# before the per-cell kernels: every cell quantity computed over eight cells.
# The intercept comes from the frozen inversion above, lane by lane, NaN
# where it fails.  Do not edit: the kernels must reproduce them bit for bit.

_D8 = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
_I8 = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
_J8 = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
_IJ8 = np.column_stack([_I8, _J8])
_NIJ8 = 1.0 - _IJ8
_LOG_X8 = np.where(_I8 == 1.0, 0, 2)
_LOG_E8 = np.where(_J8 == 1.0, 1, 3)

_F_ENTRIES = {
    "g0": (0, (1, 1, 1, 1)), "g1": (0, (0, 0, 1, 1)), "g2": (0, (0, 1, 0, 1)),
    "g3": (1, (-1, -1, 1, 1)), "g4": (2, (-1, 1, -1, 1)),
    "h00": (3, (1, 1, 1, 1)), "h01": (3, (0, 0, 1, 1)), "h02": (3, (0, 1, 0, 1)),
    "h12": (3, (0, 0, 0, 1)), "h03": (4, (-1, -1, 1, 1)), "h13": (4, (0, 0, 1, 1)),
    "h23": (4, (0, -1, 0, 1)), "h04": (5, (-1, 1, -1, 1)), "h14": (5, (0, 0, -1, 1)),
    "h24": (5, (0, 1, 0, 1)), "h34": (6, (1, -1, -1, 1)),
}
_F_TERM = np.array([term for term, _ in _F_ENTRIES.values()])
_F_SIGN = np.array([sign for _, sign in _F_ENTRIES.values()], dtype=float)
_F_HESS = np.array(
    [
        list(_F_ENTRIES).index(name) if name != "0" else len(_F_ENTRIES)
        for name in """
            h00 h01 h02 h03 h04
            h01 h01 h12 h13 h14
            h02 h12 h02 h23 h24
            h03 h13 h23 0 h34
            h04 h14 h24 h34 0
        """.split()
    ]
)


def f_derivs_lanes(alpha, beta, gamma, theta, pi):
    """Gradient and Hessian of the prevalence, one lane per element."""
    alpha, beta, gamma, theta, pi = (
        np.asarray(x, dtype=float) for x in (alpha, beta, gamma, theta, pi)
    )
    cells = alpha.shape + (4,)
    p = np.empty(cells)
    p[..., 0] = alpha
    np.add(alpha, gamma, out=p[..., 1])
    np.add(alpha, beta, out=p[..., 2])
    np.add(p[..., 2], gamma, out=p[..., 3])
    p = expit(p)
    v = p * (1.0 - p)
    tx, te = np.empty(cells), np.empty(cells)
    tx[..., :2], tx[..., 2:] = (1.0 - theta)[..., None], theta[..., None]
    te[..., ::2], te[..., 1::2] = (1.0 - pi)[..., None], pi[..., None]
    w = tx * te
    terms = np.empty(alpha.shape + (7, 4))
    np.multiply(v, w, out=terms[..., 0, :])
    np.multiply(p, te, out=terms[..., 1, :])
    np.multiply(p, tx, out=terms[..., 2, :])
    np.multiply(v * (1.0 - 2.0 * p), w, out=terms[..., 3, :])
    np.multiply(v, te, out=terms[..., 4, :])
    np.multiply(v, tx, out=terms[..., 5, :])
    terms[..., 6, :] = p
    entries = (terms[..., _F_TERM, :] * _F_SIGN).sum(axis=-1) + 0.0
    entries = np.concatenate([entries, np.zeros_like(entries[..., :1])], axis=-1)
    return entries[..., :5], entries[..., _F_HESS].reshape(entries.shape[:-1] + (5, 5))


def alpha_derivs_lanes(alpha, beta, gamma, theta, pi):
    """d(alpha)/ds and d2(alpha)/ds2 along the prevalence level set."""
    grad, hess = f_derivs_lanes(alpha, beta, gamma, theta, pi)
    fa = grad[..., :1]
    a_s = -grad[..., 1:] / fa
    fas = hess[..., 0, 1:]
    a_ss = -(
        hess[..., 1:, 1:]
        + fas[..., :, None] * a_s[..., None, :]
        + a_s[..., :, None] * fas[..., None, :]
        + hess[..., :1, :1] * (a_s[..., :, None] * a_s[..., None, :])
    ) / fa[..., None]
    return a_s, a_ss


def _alpha_lanes(f, beta, gamma, theta, pi):
    out = []
    for args in zip(np.broadcast_to(f, beta.shape), beta, gamma, theta, pi):
        try:
            out.append(alpha_from_prevalence(*(float(x) for x in args)))
        except BracketFailure:
            out.append(math.nan)
    return np.array(out, dtype=float)


def profile_parts(f, s):
    """Per-cell log-likelihood, gradient, and Hessian in s at prevalence f."""
    beta, gamma, theta, pi = (s[..., k] for k in range(4))
    alpha = _alpha_lanes(f, beta, gamma, theta, pi)
    a_s, a_ss = alpha_derivs_lanes(alpha, beta, gamma, theta, pi)
    eta = alpha[..., None] + beta[..., None] * _I8 + gamma[..., None] * _J8
    p = expit(eta)
    v = p * (1.0 - p)
    resid = _D8 - p

    es = np.empty(eta.shape + (4,))
    es[:] = a_s[..., None, :]
    es[..., :2] += _IJ8

    logs = np.empty(s.shape)
    np.log(s[..., 2:], out=logs[..., :2])
    np.log1p(-s[..., 2:], out=logs[..., 2:])
    with np.errstate(invalid="ignore"):
        l8 = _D8 * eta - np.logaddexp(0.0, eta) + logs[..., _LOG_X8] + logs[..., _LOG_E8]

    tp = s[..., None, 2:]
    g8 = resid[..., None] * es
    g8[..., 2:] += _IJ8 / tp - _NIJ8 / (1.0 - tp)

    H8 = (
        -v[..., None, None] * (es[..., :, None] * es[..., None, :])
        + resid[..., None, None] * a_ss[..., None, :, :]
    )
    tp2 = np.float_power(tp, 2.0)
    otp2 = np.float_power(1.0 - tp, 2.0)
    H8[..., (2, 3), (2, 3)] -= _IJ8 / tp2 + _NIJ8 / otp2
    return alpha, l8, g8, H8


def loglik_grad_hess_s(weights, f, s):
    """Weighted log-likelihood with gradient and Hessian in s."""
    alpha, l8, g8, H8 = profile_parts(f, s)
    hess = np.einsum("rk,rkij->rij", weights, H8)
    loglik = (weights[:, None, :] @ l8[:, :, None])[:, 0, 0]
    grad = (weights[:, None, :] @ g8)[:, 0, :]
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return alpha, loglik, grad, hess


# ---------------------------------------- frozen damped-Newton line search
# A verbatim copy of cceff._constrained.newton_ascent (with the helpers it
# calls) as it stood before its bookkeeping was packed per lane: the state
# gathered from full-length arrays every iteration and every accepted row
# scattered back.  It was re-frozen once, when a round came to stop at a
# lane's first accepted or failed candidate (it had taken the first highest
# verdict, so a failure outranked an earlier acceptance) and a failed lane
# came to keep the evaluation that failed as its state.  Do not edit: the
# routine must reproduce it bit for bit.

_LL_ROUNDING = 1e-14
_SPECULATE = 32


def _max_abs(x):
    return np.abs(x).max(axis=-1)


def _dot(a, b):
    """Row-wise dot products, each bitwise the one-lane ``a[r] @ b[r]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lanewise(fn, a, *b):
    """fn(a, *b) on every lane by one stacked LAPACK call, lane by lane if a matrix is singular.

    A stacked call fails as a whole when one matrix of a is singular.
    Returns the results, which have the shape of the last operand, NaN in
    singular lanes, and the mask of those lanes.  A lane's fallback call is
    a stacked call of one lane, so it rounds as the whole stack does.
    """
    singular = np.zeros(len(a), dtype=bool)
    try:
        return fn(a, *b), singular
    except np.linalg.LinAlgError:
        x = np.full((b[-1] if b else a).shape, np.nan)
        for r in range(len(a)):
            try:
                x[r : r + 1] = fn(a[r : r + 1], *(v[r : r + 1] for v in b))
            except np.linalg.LinAlgError:
                singular[r] = True
        return x, singular


def _ascent_directions(g, h):
    """Newton directions solve(-h, g) per lane, and their dot products with g.

    Where h is singular or the Newton direction does not ascend, the
    direction is the gradient scaled to max-norm at most 1.
    """
    direction, singular = _lanewise(np.linalg.solve, -h, g[:, :, None])
    direction = direction[:, :, 0]
    gd = _dot(g, direction)
    fallback = singular | (gd <= 0.0)
    if np.count_nonzero(fallback):
        gf = g[fallback]
        direction[fallback] = gf / np.maximum(1.0, _max_abs(gf))[:, None]
        gd[fallback] = _dot(gf, direction[fallback])
    return direction, gd


def newton_ascent(evaluate, x, in_box, gtol, max_iter, accept):
    """Maximize by damped Newton steps with backtracking, one lane per row of x."""
    x = np.array(x, dtype=float)
    state = list(evaluate(x, np.arange(len(x))))
    iterations = np.zeros(len(x), dtype=int)
    halved = np.zeros(len(x), dtype=bool)  # the lane's last accepted step was not full
    failed = np.isnan(state[0])
    active = np.flatnonzero(~failed)
    for it in range(1, max_iter + 1):
        iterations[active] = it
        stop_norm = _max_abs(state[1][active])
        going = ~(stop_norm <= gtol)
        active, stop_norm = active[going], stop_norm[going]
        if not active.size:
            break
        ll = state[0][active]
        direction, gd = _ascent_directions(state[2][active], state[3][active])
        rounding = _LL_ROUNDING * (1.0 + np.abs(ll))
        endgame = (stop_norm <= 100.0 * gtol) | ((stop_norm <= accept) & (gd <= rounding))
        ll_floor = np.where(endgame, ll - rounding, ll)
        moved = np.zeros(len(active), dtype=bool)
        searching = np.arange(len(active))  # positions in active
        halvings = 0
        while searching.size and halvings < 60:
            # Try the next step lengths of every searching lane in one batch:
            # the full step alone, unless a lane needed a shorter step last
            # time, and then up to _SPECULATE candidates a round.  Each lane
            # takes the candidate that the one-lane search, trying them in
            # turn, would stop at.
            lanes, pos = active[searching], searching
            wide = halvings or np.count_nonzero(halved[lanes])
            k = min(max(1, _SPECULATE // len(searching)) if wide else 1, 60 - halvings)
            if k == 1:  # candidate r is the r-th searching lane's
                scale = np.full(len(searching), 0.5**halvings)
            else:
                lanes, pos = np.repeat(lanes, k), np.repeat(pos, k)
                scale = np.tile(np.ldexp(1.0, -np.arange(halvings, halvings + k)), len(searching))
            halvings += k
            cand = x[lanes] + scale[:, None] * direction[pos]
            # The candidates inside the box are evaluated; when that is all
            # of them they are taken by a slice, not an index array.
            inside = in_box(cand)
            evaluated = np.count_nonzero(inside)
            inside = slice(None) if evaluated == len(cand) else np.flatnonzero(inside)
            verdict = np.zeros(len(cand), dtype=np.int8)  # 1 accepted, 2 failed
            if evaluated:
                new = evaluate(cand[inside], lanes[inside])
                ll_new, at = new[0], pos[inside]
                improved = ll_new >= ll[at] + 1e-4 * scale[inside] * gd[at]
                closer = (ll_new >= ll_floor[at]) & (_max_abs(new[1]) < stop_norm[at])
                verdict[inside] = np.where(np.isnan(ll_new), 2, (improved | closer).astype(np.int8))
            verdict = verdict.reshape(len(searching), k)
            stopped = verdict.any(axis=1)
            picked = np.flatnonzero(stopped)
            if k > 1:
                picked = picked * k + (verdict[picked] != 0).argmax(axis=1)
            kind = verdict.ravel()[picked]
            lost = picked[kind == 2]
            if lost.size:  # a failed lane keeps the evaluation that failed
                failed[lanes[lost]] = True
                rows = lost if isinstance(inside, slice) else np.searchsorted(inside, lost)
                for part, value in zip(state, new):
                    part[lanes[lost]] = value[rows]
            picked = picked[kind == 1]
            # A lane whose accepted candidate is bitwise its point is at an
            # exact fixed point: it stops without moving.
            picked = picked[np.any(cand[picked] != x[lanes[picked]], axis=1)]
            if picked.size:
                to = lanes[picked]
                halved[to] = scale[picked] < 1.0
                x[to] = cand[picked]
                rows = picked if isinstance(inside, slice) else np.searchsorted(inside, picked)
                for part, value in zip(state, new):
                    part[to] = value[rows]
                moved[pos[picked]] = True
            searching = searching[~stopped]
        active = active[moved]
        if not active.size:
            break
    return x, tuple(state), iterations, failed
