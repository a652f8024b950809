"""Internal machinery for the prevalence-constrained likelihood.

The constrained model treats pr(X=1) as a function of the remaining
parameters through the prevalence identity.  It has one frame,
s = (beta, gamma, theta, pi), with the intercept alpha(f, s) recovered from
the prevalence inversion; it is smooth through beta = 0.  The information,
the fits, the misspecification limits and the sandwich covariance are all
taken in s.  The fits search in zeta = (beta, gamma, logit theta, logit pi),
which keeps theta and pi inside (0, 1), and map back to s.

Everything here is exact differentiation of the 8-cell weighted
log-likelihood

    l(s) = sum_dij w_dij [ d*eta_ij - log(1 + e^eta_ij)
           + i*log(theta) + (1-i)*log(1-theta)
           + j*log(pi) + (1-j)*log(1-pi) ],    eta_ij = alpha(f, s) + beta*i + gamma*j.

Every kernel takes flat lanes, one row per table or parameter point: cell
weights (n, 8) ordered as CaseControlTable.w.ravel(), s (n, 4), and f a
scalar or (n,).  Lane-exactness holds throughout: a lane goes through
exactly the floating-point operations a one-lane call does, in the same
order (elementwise ufuncs, four-cell sums left to right, stacked matmul,
einsum, solve, inv and eigvalsh, which reduce each lane as the one-lane call
does), so its results are bitwise independent of the other lanes.
"""

import numpy as np
from scipy.special import expit

from .model import alpha_from_prevalence, retro_distribution

# The eight cells (d, i, j) in CaseControlTable.w.ravel() order are rows
# d = 0, 1 over columns ij = 00, 01, 10, 11: _D2 is d per row, _IJ4 holds
# (i, j) per column.
_D2 = np.array([[[0.0]], [[1.0]]])
_IJ4 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
_NIJ4 = 1.0 - _IJ4
# Per column, the index into (log theta, log pi, log(1 - theta), log(1 - pi)).
_LOG_X4 = np.where(_IJ4[:, 0] == 1.0, 0, 2)
_LOG_E4 = np.where(_IJ4[:, 1] == 1.0, 1, 3)
# A per-unit log-likelihood ll is taken to round at _LL_ROUNDING * (1 + |ll|).
_LL_ROUNDING = 1e-14


def f_derivs(alpha, beta, gamma, theta, pi):
    """Gradient and Hessian of F = prevalence in (alpha, beta, gamma, theta, pi).

    F = sum_ij p_ij tx_i te_j with p_ij = expit(alpha + beta*i + gamma*j),
    tx = (1 - theta, theta) and te = (1 - pi, pi).  The arguments share one
    shape, one lane per element; the results have shapes (..., 5) and
    (..., 5, 5).  Every entry is bitwise 0.0 plus its nonzero per-cell terms
    added in C order (00, 01, 10, 11), as accumulating per-cell arrays
    gives, lane by lane, so each lane is bitwise what a one-lane call gives.
    """
    grad, hess = _cell_derivs(alpha, beta, gamma, theta, pi)[:2]
    return np.moveaxis(grad, 0, -1), np.moveaxis(hess, (0, 1), (-2, -1))


def _cell_derivs(alpha, beta, gamma, theta, pi):
    """``f_derivs``, and eta, p = expit(eta) and v = p (1 - p), lanes last.

    For arguments of shape L the results have shapes (5,) + L, (5, 5) + L
    and (4,) + L, the cells 00, 01, 10, 11 first.
    """
    alpha, beta, gamma, theta, pi = (
        np.asarray(x, dtype=float) for x in (alpha, beta, gamma, theta, pi)
    )
    lanes = alpha.shape
    eta = np.empty((4,) + lanes)  # cell 11 is (alpha + beta) + gamma
    eta[0] = alpha
    np.add(alpha, gamma, out=eta[1, ...])
    np.add(alpha, beta, out=eta[2, ...])
    np.add(eta[2], gamma, out=eta[3, ...])
    # Every per-cell term is a row of (p, v, v (1 - 2p)) times a row of
    # (1, tx, te, w): tx_i and te_j of the cell and w = tx * te.
    pv = np.empty((3, 4) + lanes)
    p = expit(eta, out=pv[0])
    v = np.multiply(p, 1.0 - p, out=pv[1])
    np.multiply(v, 1.0 - 2.0 * p, out=pv[2])
    mix = np.empty((4, 4) + lanes)
    mix[0] = 1.0
    mix[1, :2], mix[1, 2:] = 1.0 - theta, theta
    mix[2, ::2], mix[2, 1::2] = 1.0 - pi, pi
    np.multiply(mix[1], mix[2], out=mix[3])
    terms = (pv[:, None] * mix).reshape((12, 4) + lanes)
    # Each entry is a signed sum of one term over the cells.  A four-element
    # sum runs left to right, zero coefficients add exact zeros, and the
    # final + 0.0 turns a -0.0 total into the 0.0 a sum that starts at 0.0
    # gives, so each entry is bitwise 0.0 + its cell terms in C order.
    entries = np.empty((len(_F_ENTRIES) + 1,) + lanes)  # the last one is 0.0
    sign = _F_SIGN.reshape(_F_SIGN.shape + (1,) * len(lanes))
    np.add.reduce(terms.take(_F_TERM, axis=0) * sign, axis=1, out=entries[:-1])
    entries[:-1] += 0.0
    entries[-1] = 0.0
    return entries[:5], entries.take(_F_HESS, axis=0).reshape((5, 5) + lanes), eta, p, v


# Entries of f_derivs: (term, signs over cells 00, 01, 10, 11).  Term 4r + c
# is row r of (p, v, v*(1 - 2p)) times row c of (1, tx, te, w); d/dtheta of
# w_ij is -/+ te_j and d/dpi is -/+ tx_i.
_F_ENTRIES = {
    "g0": (7, (1, 1, 1, 1)), "g1": (7, (0, 0, 1, 1)), "g2": (7, (0, 1, 0, 1)),
    "g3": (2, (-1, -1, 1, 1)), "g4": (1, (-1, 1, -1, 1)),
    "h00": (11, (1, 1, 1, 1)), "h01": (11, (0, 0, 1, 1)), "h02": (11, (0, 1, 0, 1)),
    "h12": (11, (0, 0, 0, 1)), "h03": (6, (-1, -1, 1, 1)), "h13": (6, (0, 0, 1, 1)),
    "h23": (6, (0, -1, 0, 1)), "h04": (5, (-1, 1, -1, 1)), "h14": (5, (0, 0, -1, 1)),
    "h24": (5, (0, 1, 0, 1)), "h34": (0, (1, -1, -1, 1)),
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


# A NaN alpha makes logaddexp warn.  Where dF/dalpha rounds to 0 at the
# intercept (every p (1 - p) is 0 there), a_s is -grad / 0, the parts are
# inf and NaN, and a zero cell weight times an inf part is NaN.  A theta or
# pi whose square is subnormal overflows the curvature to inf.  None warns:
# ``newton_ascent`` types the lane.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def profile_parts(f, s):
    """Per-cell log-likelihood, gradient, and Hessian in s at prevalence f.

    s has shape (n, 4) and f is a scalar or (n,), one lane per row.  Returns
    (alpha, l8, g8, H8) with shapes (n,), (n, 8), (n, 8, 4) and (n, 8, 4, 4),
    cells ordered as CaseControlTable.w.ravel().  A lane whose intercept
    cannot be inverted has alpha NaN.  Every operation is elementwise per
    lane (squares by ``np.float_power``, which rounds as Python's ``**``
    does), so each lane is bitwise what a one-lane call gives.

    The parts are built lanes last and cell (d, i, j) as row d, column
    2i + j.  Whatever does not depend on d (eta, p, v, log(1 + e^eta), the
    alpha-derivative rows and the covariate terms) is computed once per
    column and broadcast over the two rows; eta comes from ``f_derivs``'
    cells, which for finite s differ from alpha + beta*i + gamma*j at most
    in the sign of a zero, and no result depends on that sign.
    """
    n = len(s)
    beta, gamma, theta, pi = s.T
    alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
    grad, hess, eta, p, v = _cell_derivs(alpha, beta, gamma, theta, pi)
    # alpha(s) by implicit differentiation of F(alpha(s), s) = f.
    fa = grad[0]
    a_s = -grad[1:] / fa
    cross = hess[0, 1:, None] * a_s  # its transpose is a_s[:, None] * hess[0, 1:]
    a_ss = -(
        hess[1:, 1:] + cross + cross.transpose(1, 0, 2) + hess[0, 0] * (a_s[:, None] * a_s)
    ) / fa
    resid = _D2 - p

    es = np.empty((4, 4, n))  # d(eta)/ds per column
    es[:] = a_s
    es[:, :2] += _IJ4[:, :, None]

    # The cell's covariate and exposure terms: log theta or log(1 - theta),
    # then log pi or log(1 - pi).  The other indicator's term is an exact
    # zero, and adding it leaves a sum unchanged, so the sum is bitwise the
    # four indicator-weighted terms added in turn.
    tp = s.T[2:]
    logs = np.empty((4, n))
    np.log(tp, out=logs[:2])
    np.log1p(-tp, out=logs[2:])
    # The parts are returned lanes first, in C order (the weighted sums'
    # rounding depends on the layout), and written through views of them
    # with the lanes last: (d, column, ..., lane).
    l8, g8, H8 = np.empty((n, 8)), np.empty((n, 8, 4)), np.empty((n, 8, 4, 4))
    lv = l8.reshape(n, 2, 4).transpose(1, 2, 0)
    gv = g8.reshape(n, 2, 4, 4).transpose(1, 2, 3, 0)
    hv = H8.reshape(n, 2, 4, 4, 4).transpose(1, 2, 3, 4, 0)
    np.subtract(_D2 * eta, np.logaddexp(0.0, eta), out=lv)
    lv += logs.take(_LOG_X4, axis=0)
    lv += logs.take(_LOG_E4, axis=0)

    # Parameters 2 and 3 take the theta and pi terms side by side; every
    # element sees the same operations as a parameter-at-a-time update.
    otp = 1.0 - tp
    np.multiply(resid[:, :, None], es, out=gv)
    gv[:, :, 2:] += _IJ4[:, :, None] / tp - _NIJ4[:, :, None] / otp

    np.add(-v[:, None, None] * (es[:, :, None] * es[:, None]), resid[:, :, None, None] * a_ss,
           out=hv)
    curv = _IJ4[:, :, None] / np.float_power(tp, 2.0) + _NIJ4[:, :, None] / np.float_power(otp, 2.0)
    hv[:, :, 2, 2] -= curv[:, 0]
    hv[:, :, 3, 3] -= curv[:, 1]
    return alpha, l8, g8, H8


@np.errstate(invalid="ignore")  # see profile_parts
def loglik_grad_hess_s(weights, f, s):
    """Weighted log-likelihood with gradient and Hessian in s.

    weights (n, 8) holds the cell masses of each lane, s (n, 4) its point
    and f, a scalar or (n,), its prevalence.  Returns (alpha, loglik, grad,
    hess) with shapes (n,), (n,), (n, 4) and (n, 4, 4); a lane whose
    intercept cannot be inverted has NaN there.  The weighted sums are
    stacked matmul and einsum, which reduce each lane as the one-lane
    ``w @ l8`` and ``einsum("k,kij->ij")`` do, so every lane is bitwise
    independent of the others.
    """
    alpha, l8, g8, H8 = profile_parts(f, s)
    hess = np.einsum("rk,rkij->rij", weights, H8)
    loglik = (weights[:, None, :] @ l8[:, :, None])[:, 0, 0]
    grad = (weights[:, None, :] @ g8)[:, 0, :]
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return alpha, loglik, grad, hess


def expected_masses(params, nu):
    """Exact per-unit-n cell masses E(n_dij)/n under retrospective sampling, shape (2,2,2).

    The batch of one of ``_mass_lanes``.
    """
    r = retro_distribution(params)
    return _mass_lanes(r.p_case, r.p_ctrl, nu)


def _mass_lanes(p_case, p_ctrl, nu):
    """``expected_masses`` from the case and control laws (..., 2, 2) of each lane."""
    return np.stack([p_ctrl / (1.0 + nu), p_case * nu / (1.0 + nu)], axis=-3)


def expected_info_s(f, s, p_case, p_ctrl, nu):
    """Per-unit-n expected information in s at the truth, one (4, 4) lane per prevalence.

    f (k,), s (k, 4) and the laws p_case and p_ctrl (k, 2, 2) of each lane
    (``_retro_lanes``) make one batched, lane-exact likelihood evaluation.
    A lane whose intercept cannot be inverted is NaN.
    """
    return -loglik_grad_hess_s(_mass_lanes(p_case, p_ctrl, nu).reshape(-1, 8), f, s)[3]


def nearly_singular(info):
    """Least eigenvalue of each (4, 4) lane of info, and where it is below 1e-12 * trace.

    A lane so marked is numerically singular: it gives no covariance.
    """
    eig = np.linalg.eigvalsh(info)[:, 0]
    return eig, eig < 1e-12 * np.trace(info, axis1=1, axis2=2)


def sandwich_s(masses, p_case, p_ctrl, nu, f, s):
    """Sandwich covariance A^-1 B A^-1 in s of the log-likelihood at prevalence f.

    A is the Hessian at s under the cell masses; B mixes the per-stratum
    score covariances under the case and control cell distributions p_case
    and p_ctrl with weights nu/(1+nu) and 1/(1+nu).  The misspecification
    limits pass the exact expected masses and the true retrospective
    distributions; a fitted table passes its own normalized cells, so the
    same routine gives the plug-in robust covariance per unit total weight.

    Each row is a lane: masses (n, 8), p_case and p_ctrl (n, 4), nu (n,)
    and s (n, 4), with f a scalar or (n,).  Returns (n, 4, 4); each lane is
    bitwise what a one-lane call gives (stacked einsum, matmul and inverse).
    """
    _, _, g8, H8 = profile_parts(f, s)
    A = np.einsum("rk,rkij->rij", masses, H8)
    A = 0.5 * (A + A.transpose(0, 2, 1))

    cov = []  # of the case scores, then the control scores
    for p, g in ((p_case, g8[:, 4:]), (p_ctrl, g8[:, :4])):
        mean = (p[:, None, :] @ g)[:, 0]
        cov.append(np.einsum("rk,rki,rkj->rij", p, g, g) - mean[:, :, None] * mean[:, None, :])
    B = (nu[:, None, None] * cov[0] + cov[1]) / (1.0 + nu)[:, None, None]
    B = 0.5 * (B + B.transpose(0, 2, 1))

    a_inv = np.linalg.inv(A)
    sigma = a_inv @ B @ a_inv
    return 0.5 * (sigma + sigma.transpose(0, 2, 1))


def _max_abs(x):
    return np.abs(x).max(axis=-1)


def _fails(ll, norm):
    """Where a point fails to evaluate: its ll is NaN or its stopping gradient's max-norm is not finite."""
    return np.isnan(ll) | ~np.isfinite(norm)


def no_derivatives(f):
    """Why a lane failed at prevalence f where its failing evaluation has a finite intercept.

    ``newton_ascent`` fails a point whose stopping gradient is not finite.
    Where the intercept there is finite, every p (1 - p) rounds to 0 (f
    within rounding of 1), so dF/dalpha is 0 and the likelihood has no
    derivatives in s; else the intercept's inversion failed.
    """
    return (
        f"every p (1 - p) rounds to 0 at the intercept for prevalence f={float(f)!r}, "
        "so dF/dalpha is 0 and the constrained likelihood has no derivatives"
    )


def _rows(keep, *arrays):
    """The rows of each array where the mask keep is true, by one take each."""
    rows = keep.nonzero()[0]
    return [x.take(rows, axis=0) for x in arrays]


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


# Line-search candidates evaluated per round once the full Newton step has
# failed.  An evaluation's cost is mostly per call, not per lane, and the
# sparse-design AdjCon fits that halve their step 15 to 60 times (against
# 0 for nearly every other fit) then take 2 or 3 rounds instead of up to
# 60.  With 16 and 64 the mc_sparse fits took 3 % and 2 % more time than
# with 32, inside the noise (medians of 12 alternated runs, in process;
# 2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
_SPECULATE = 32
# The step lengths 2^-h of a line search, h = 0, ..., 59.
_STEPS = np.ldexp(1.0, -np.arange(60))


def newton_ascent(evaluate, x, in_box, gtol, max_iter, accept):
    """Maximize by damped Newton steps with backtracking, one lane per row of x.

    evaluate(x, lanes) returns the state at the rows of x, which belong to
    the lanes with indices lanes: a tuple (ll, stop_grad, g, h, *extra) of
    arrays with one leading row per lane, holding the objective, the
    gradient whose max-norm is tested against gtol, the gradient and
    Hessian in the search coordinates x, and whatever else the caller
    keeps.  A point fails to evaluate where its ll is NaN or its stopping
    gradient is not finite.  in_box(x) tells, per row, whether a point may
    be evaluated; a candidate outside it is neither accepted nor failed.

    Each iteration tries the Newton direction, or the gradient scaled to
    max-norm at most 1 where the Hessian is singular or the Newton
    direction does not ascend, and halves the step up to 60 times.  A
    candidate inside in_box is accepted when it passes the Armijo test with
    constant 1e-4, or when it shrinks the max-norm of the stopping gradient
    and does not lower the objective.

    In the endgame, once that max-norm is within 100 * gtol, "does not
    lower" allows a drop of 1e-14 * (1 + |ll|): the predicted gain of a step
    there is below the objective's rounding, so only the gradient can judge
    progress.  The same holds wherever the max-norm is within accept (the
    bar under which the caller takes a lane as converged) and the
    direction's predicted gain g . d is below that rounding:
    there a full Newton step that would reach the tolerance is otherwise
    refused for a few units of rounding in ll, and the lane stops short at
    a point that its last rounding decides.  Farther out the objective
    still resolves a step's gain, so a lower objective there marks a worse
    step.  A flat step must shrink the max-norm in either case, so flat
    steps cannot cycle.  An iteration ends at its first candidate that is
    accepted or fails.  A lane ends at the gradient tolerance, after
    max_iter iterations, when no candidate is accepted, when the accepted
    candidate is bitwise equal to its point (an exact fixed point, where
    every later iteration would repeat this one), or when an evaluation
    fails.

    Lanes share the iteration counter and are evaluated together, but each
    follows exactly the path it would follow alone: the directions come
    from stacked solves (lane by lane where one is singular) and row-wise
    matmul dot products, which round each lane as a one-lane call does.

    Returns (x, state, iterations, failed): the last accepted point of each
    lane, the evaluation it ended on (the one at that point, or for a failed
    lane the one that failed), the iteration at which it stopped, and a mask
    of the lanes whose evaluation failed.
    """
    x = np.array(x, dtype=float)
    state = list(evaluate(x, np.arange(len(x))))
    iterations = np.zeros(len(x), dtype=int)
    failed = _fails(state[0], _max_abs(state[1]))
    # The lanes still iterating, and each one's point, state, stopping norm
    # and whether its last accepted step was short, packed in the order of
    # active.  A lane's rows go back to x and state when it stops.
    active = (~failed).nonzero()[0]
    xa, sa = x.take(active, axis=0), [part.take(active, axis=0) for part in state]
    norm = _max_abs(sa[1])
    halved = np.zeros(len(active), dtype=bool)
    moved = np.ones(len(active), dtype=bool)
    for it in range(1, max_iter + 1):
        going = moved & ~(norm <= gtol)
        if np.count_nonzero(going) < len(going):
            # A lane within gtol stops at this iteration, one that did not
            # move stopped at the last.
            iterations[active] = np.where(moved, it, it - 1)
            x[active] = xa
            for part, rows in zip(state, sa):
                part[active] = rows
            active, xa, norm, halved, *sa = _rows(going, active, xa, norm, halved, *sa)
        if not active.size:
            break
        ll = sa[0]
        direction, gd = _ascent_directions(sa[2], sa[3])
        rounding = _LL_ROUNDING * (1.0 + np.abs(ll))
        endgame = (norm <= 100.0 * gtol) | ((norm <= accept) & (gd <= rounding))
        ll_floor = np.where(endgame, ll - rounding, ll)
        moved = np.zeros(len(active), dtype=bool)
        # The searching lanes' positions in active, and their rows of what
        # the search reads; gathered anew only when some lanes stop.
        lanes = np.arange(len(active))
        lx, ld, lll, lgd, lfloor, lnorm, lact = xa, direction, ll, gd, ll_floor, norm, active
        wide = np.count_nonzero(halved)
        halvings = 0
        while halvings < 60:
            # Try the next step lengths of every searching lane in one batch:
            # the full step alone, unless a lane needed a shorter step last
            # time, and then up to _SPECULATE candidates a round.  Candidate
            # (r, j) is lane r's point plus its direction scaled by
            # 2^-(halvings + j); each lane stops at its first candidate that
            # is accepted or fails, as the one-lane search, trying them in
            # turn, would.
            n = len(lanes)
            k = min(max(1, _SPECULATE // n) if wide else 1, 60 - halvings)
            steps = _STEPS[halvings : halvings + k]
            halvings += k
            grid = lx[:, None] + steps[:, None] * ld[:, None]
            cand = grid.reshape(n * k, -1)  # row r * k + j is candidate (r, j)
            # The candidates inside the box are evaluated, by a slice when
            # that is all of them; one outside reads as ll -inf and norm 0.
            inside = in_box(cand)
            evaluated = np.count_nonzero(inside)
            sub = slice(None) if evaluated == n * k else inside.nonzero()[0]
            ll_new, new_norm = np.full(n * k, -np.inf), np.zeros(n * k)
            if evaluated:
                new = evaluate(cand[sub], np.repeat(lact, k)[sub])
                ll_new[sub], new_norm[sub] = new[0], _max_abs(new[1])
            ll_k, norm_k = ll_new.reshape(n, k), new_norm.reshape(n, k)
            improved = ll_k >= lll[:, None] + 1e-4 * steps * lgd[:, None]
            closer = (ll_k >= lfloor[:, None]) & (norm_k < lnorm[:, None])
            bad = _fails(ll_k, norm_k)
            decisive = improved | closer | bad
            stopped = decisive.any(axis=1)
            r = stopped.nonzero()[0]
            c = r * k + decisive.take(r, axis=0).argmax(axis=1)  # the candidates stopped at
            lost = bad.ravel()[c]
            failed[lact[r[lost]]] = True
            # A failed lane keeps the evaluation that failed.  An accepted
            # candidate that is bitwise its point is an exact fixed point:
            # the lane stops there without moving.
            fresh = np.logical_or.reduce(grid != lx[:, None], axis=2).ravel()[c]
            r, c, lost = _rows(lost | fresh, r, c, lost)
            if r.size:
                rows = c if isinstance(sub, slice) else np.searchsorted(sub, c)
                to = lanes[r]
                for part, value in zip(sa, new):
                    part[to] = value.take(rows, axis=0)
                r, c, to = _rows(~lost, r, c, to)
                halved[to] = steps[c - r * k] < 1.0
                xa[to] = cand.take(c, axis=0)
                norm[to] = new_norm[c]
                moved[to] = True
            if np.count_nonzero(stopped) == n:
                break
            lanes, lx, ld, lll, lgd, lfloor, lnorm, lact = _rows(
                ~stopped, lanes, lx, ld, lll, lgd, lfloor, lnorm, lact
            )
            wide = True
    iterations[active] = max_iter
    x[active] = xa
    for part, rows in zip(state, sa):
        part[active] = rows
    return x, tuple(state), iterations, failed
