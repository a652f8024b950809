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

Every kernel works on lanes: a leading axis of tables, parameter points or
prevalences, evaluated together.  Lane-exactness holds throughout: a lane
goes through exactly the floating-point operations a one-lane call does,
in the same order (elementwise ufuncs, four-cell sums left to right,
stacked matmul, einsum, solve, inv and eigvalsh, which reduce each lane as
the one-lane call does), so its results are bitwise independent of the
other lanes.  A one-lane call is a batch of one.
"""

import math

import numpy as np
from scipy.special import expit

from .model import PopulationParams, _alpha_error, alpha_from_prevalence, retro_distribution

# flattened cell order matches CaseControlTable.w.ravel(): (d, i, j) C-order
_D8 = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
_I8 = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
_J8 = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
_IJ8 = np.column_stack([_I8, _J8])
_NIJ8 = 1.0 - _IJ8
# Per cell, the index into (log theta, log pi, log(1 - theta), log(1 - pi)).
_LOG_X8 = np.where(_I8 == 1.0, 0, 2)
_LOG_E8 = np.where(_J8 == 1.0, 1, 3)


def f_derivs(alpha, beta, gamma, theta, pi):
    """Gradient and Hessian of F = prevalence in (alpha, beta, gamma, theta, pi).

    F = sum_ij p_ij tx_i te_j with p_ij = expit(alpha + beta*i + gamma*j),
    tx = (1 - theta, theta) and te = (1 - pi, pi).  The arguments broadcast
    against each other, one lane per element; the results have shapes
    (..., 5) and (..., 5, 5).  Every entry is bitwise 0.0 plus its nonzero
    per-cell terms added in C order (00, 01, 10, 11), as accumulating
    per-cell arrays gives, lane by lane, so each lane is bitwise what a
    one-lane call gives.
    """
    args = [np.asarray(x, dtype=float) for x in (alpha, beta, gamma, theta, pi)]
    if len({x.shape for x in args}) > 1:
        args = np.broadcast_arrays(*args)
    alpha, beta, gamma, theta, pi = args
    cells = alpha.shape + (4,)
    p = np.empty(cells)  # eta of cells 00, 01, 10, 11; cell 11 is (alpha + beta) + gamma
    p[..., 0] = alpha
    np.add(alpha, gamma, out=p[..., 1])
    np.add(alpha, beta, out=p[..., 2])
    np.add(p[..., 2], gamma, out=p[..., 3])
    p = expit(p)
    v = p * (1.0 - p)
    tx, te = np.empty(cells), np.empty(cells)  # tx_i and te_j of each cell
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
    # Each entry is a signed sum of one term over the cells.  A four-element
    # sum runs left to right, zero coefficients add exact zeros, and the
    # final + 0.0 turns a -0.0 total into the 0.0 a sum that starts at 0.0
    # gives, so each entry is bitwise 0.0 + its cell terms in C order.
    entries = (terms[..., _F_TERM, :] * _F_SIGN).sum(axis=-1) + 0.0
    entries = np.concatenate([entries, np.zeros_like(entries[..., :1])], axis=-1)
    return entries[..., :5], entries[..., _F_HESS].reshape(entries.shape[:-1] + (5, 5))


# Entries of f_derivs: (term, signs over cells 00, 01, 10, 11).  The terms are
# v*w, p*te, p*tx, v*(1 - 2p)*w, v*te, v*tx and p; d/dtheta of w_ij is -/+ te_j
# and d/dpi is -/+ tx_i.
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


def alpha_derivs(alpha, beta, gamma, theta, pi):
    """d(alpha)/ds and d2(alpha)/ds2 along the prevalence level set, s = (beta, gamma, theta, pi).

    Implicit differentiation of F(alpha(s), s) = f, lane by lane like
    ``f_derivs``: shapes (..., 4) and (..., 4, 4).
    """
    grad, hess = f_derivs(alpha, beta, gamma, theta, pi)
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


def profile_parts(f, s):
    """Per-cell log-likelihood, gradient, and Hessian in s at prevalence f.

    s has shape (..., 4) and f broadcasts against its leading shape; each
    leading index is a lane.  Returns (alpha, l8, g8, H8) with shapes
    (...), (..., 8), (..., 8, 4) and (..., 8, 4, 4), cells ordered as
    CaseControlTable.w.ravel().  A lane whose intercept cannot be inverted
    has alpha NaN (a single s raises the BracketFailure instead).  Every
    operation is elementwise per lane (squares by ``np.float_power``, which
    rounds as Python's ``**`` does), so each lane is bitwise what a
    one-lane call gives.
    """
    s = np.asarray(s, dtype=float)
    beta, gamma, theta, pi = (s[..., k] for k in range(4))
    alpha = np.asarray(alpha_from_prevalence(f, beta, gamma, theta, pi))
    a_s, a_ss = alpha_derivs(alpha, beta, gamma, theta, pi)
    eta = alpha[..., None] + beta[..., None] * _I8 + gamma[..., None] * _J8
    p = expit(eta)
    v = p * (1.0 - p)
    resid = _D8 - p

    es = np.empty(eta.shape + (4,))
    es[:] = a_s[..., None, :]
    es[..., :2] += _IJ8

    # The cell's covariate and exposure terms: log theta or log(1 - theta),
    # then log pi or log(1 - pi).  The other indicator's term is an exact
    # zero, and adding it leaves a sum unchanged, so the sum is bitwise the
    # four indicator-weighted terms added in turn.
    logs = np.empty(s.shape)
    np.log(s[..., 2:], out=logs[..., :2])
    np.log1p(-s[..., 2:], out=logs[..., 2:])
    l8 = _D8 * eta - np.logaddexp(0.0, eta) + logs[..., _LOG_X8] + logs[..., _LOG_E8]

    # Columns 2 and 3 take the theta and pi terms side by side; every element
    # sees the same operations as a column-at-a-time update.
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
    return (alpha if alpha.ndim else float(alpha)), l8, g8, H8


def _lane_cells(x, cells):
    """x with its trailing cells (shape (2, 2, 2) or (2, 2), or flat) flattened."""
    x = np.asarray(x, dtype=float)
    k = len(cells)
    if x.shape[x.ndim - k:] == cells:
        x = x.reshape(x.shape[: x.ndim - k] + (-1,))
    return x


def _lanes(*items):
    """Broadcast (array, trailing ndim) pairs to one flat lane axis.

    Returns the arrays as (n, *trailing) and the broadcast lane shape.
    """
    shape = np.broadcast_shapes(*(a.shape[: a.ndim - nd] for a, nd in items))
    out = []
    for a, nd in items:
        tail = a.shape[a.ndim - nd :]
        if a.shape != shape + tail:
            a = np.broadcast_to(a, shape + tail)
        out.append(np.ascontiguousarray(a).reshape((math.prod(shape),) + tail))
    return out, shape


def loglik_grad_hess_s(weights, f, s):
    """Weighted log-likelihood with gradient and Hessian in s.

    weights has shape (..., 2, 2, 2) or (..., 8) (cell masses), s (..., 4),
    and f broadcasts; the leading shapes broadcast to the lanes.  Returns
    (alpha, loglik, grad, hess) with shapes (...), (...), (..., 4) and
    (..., 4, 4); one lane (no leading shape) gives floats for alpha and
    loglik and raises BracketFailure where the intercept cannot be inverted,
    while a lane of a batch gets NaN there.  The weighted sums are stacked
    matmul and einsum, which reduce each lane as the one-lane ``w @ l8``
    and ``einsum("k,kij->ij")`` do, so every lane is bitwise independent of
    the others.
    """
    (w, f_l, s_l), shape = _lanes(
        (_lane_cells(weights, (2, 2, 2)), 1), (np.asarray(f, dtype=float), 0),
        (np.asarray(s, dtype=float), 1),
    )
    alpha, l8, g8, H8 = profile_parts(f_l, s_l)
    hess = np.einsum("rk,rkij->rij", w, H8)
    loglik = (w[:, None, :] @ l8[:, :, None])[:, 0, 0]
    grad = (w[:, None, :] @ g8)[:, 0, :]
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    if shape == ():
        if math.isnan(alpha[0]):
            raise _alpha_error(f_l[0])
        return float(alpha[0]), float(loglik[0]), grad[0], hess[0]
    return alpha.reshape(shape), loglik.reshape(shape), grad.reshape(shape + (4,)), hess.reshape(
        shape + (4, 4)
    )


def expected_masses(params, nu):
    """Exact per-unit-n cell masses E(n_dij)/n under retrospective sampling, shape (2,2,2)."""
    r = retro_distribution(params)
    m = np.empty((2, 2, 2))
    m[0] = r.p_ctrl / (1.0 + nu)
    m[1] = r.p_case * nu / (1.0 + nu)
    return m


def expected_info_s(params, nu):
    """Per-unit-n expected information in s at the truth.

    params is one PopulationParams, giving a (4, 4) matrix, or a sequence
    of them, giving one (4, 4) lane each from a single batched likelihood
    evaluation.  A lane whose intercept cannot be inverted is NaN.
    """
    one = isinstance(params, PopulationParams)
    group = [params] if one else list(params)
    masses = np.stack([expected_masses(p, nu) for p in group])
    s = np.array([(p.beta, p.gamma, p.theta, p.pi) for p in group])
    _, _, _, hess = loglik_grad_hess_s(masses, np.array([p.f for p in group]), s)
    return -hess[0] if one else -hess


def sandwich_s(masses, p_case, p_ctrl, nu, f, s):
    """Sandwich covariance A^-1 B A^-1 in s of the log-likelihood at prevalence f.

    A is the Hessian at s under the cell masses; B mixes the per-stratum
    score covariances under the case and control cell distributions p_case
    and p_ctrl with weights nu/(1+nu) and 1/(1+nu).  The misspecification
    limits pass the exact expected masses and the true retrospective
    distributions; a fitted table passes its own normalized cells, so the
    same routine gives the plug-in robust covariance per unit total weight.

    Every argument may carry leading lane dimensions (masses (..., 2, 2, 2)
    or (..., 8), p_case and p_ctrl (..., 2, 2) or (..., 4), s (..., 4));
    they broadcast, and each lane's (4, 4) result is bitwise what a
    one-lane call gives (stacked einsum, matmul and inverse).
    """
    (m, pc, p0, nu, f, s), shape = _lanes(
        (_lane_cells(masses, (2, 2, 2)), 1), (_lane_cells(p_case, (2, 2)), 1),
        (_lane_cells(p_ctrl, (2, 2)), 1), (np.asarray(nu, dtype=float), 0),
        (np.asarray(f, dtype=float), 0), (np.asarray(s, dtype=float), 1),
    )
    _, _, g8, H8 = profile_parts(f, s)
    A = np.einsum("rk,rkij->rij", m, H8)
    A = 0.5 * (A + A.transpose(0, 2, 1))

    g_case = g8[:, 4:]
    g_ctrl = g8[:, :4]
    mean_case = (pc[:, None, :] @ g_case)[:, 0]
    mean_ctrl = (p0[:, None, :] @ g_ctrl)[:, 0]
    cov_case = np.einsum("rk,rki,rkj->rij", pc, g_case, g_case) - (
        mean_case[:, :, None] * mean_case[:, None, :]
    )
    cov_ctrl = np.einsum("rk,rki,rkj->rij", p0, g_ctrl, g_ctrl) - (
        mean_ctrl[:, :, None] * mean_ctrl[:, None, :]
    )
    B = (nu[:, None, None] * cov_case + cov_ctrl) / (1.0 + nu)[:, None, None]
    B = 0.5 * (B + B.transpose(0, 2, 1))

    a_inv = np.linalg.inv(A)
    sigma = a_inv @ B @ a_inv
    return (0.5 * (sigma + sigma.transpose(0, 2, 1))).reshape(shape + (4, 4))


def _max_abs(x):
    return np.abs(x).max(axis=-1)


def _dot(a, b):
    """Row-wise dot products, each bitwise the one-lane ``a[r] @ b[r]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _solve_lanes(a, b):
    """solve(a[r], b[r]) for every lane by one stacked solve, lane by lane if one is singular.

    A stacked solve fails as a whole when one matrix is singular.  Returns
    the solutions (zero in singular lanes) and the mask of singular lanes.
    """
    singular = np.zeros(len(b), dtype=bool)
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for r in range(len(b)):
            try:
                x[r] = np.linalg.solve(a[r], b[r])
            except np.linalg.LinAlgError:
                singular[r] = True
        return x, singular


def _ascent_directions(g, h):
    """Newton directions solve(-h, g) per lane, and their dot products with g.

    Where h is singular or the Newton direction does not ascend, the
    direction is the gradient scaled to max-norm at most 1.
    """
    direction, singular = _solve_lanes(-h, g)
    gd = _dot(g, direction)
    fallback = singular | (gd <= 0.0)
    if fallback.any():
        gf = g[fallback]
        direction[fallback] = gf / np.maximum(1.0, _max_abs(gf))[:, None]
        gd[fallback] = _dot(gf, direction[fallback])
    return direction, gd


# Line-search candidates evaluated per round once the full Newton step has
# failed.  An evaluation's cost is mostly per call, not per lane, and the
# sparse-design AdjCon fits that halve their step 15 to 60 times (against
# 0 for nearly every other fit) then take 2 or 3 rounds instead of up to
# 60.  With 16, 32 and 64 the mc_sparse fits took the same time within 4 %
# (medians of 15 runs; 2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
_SPECULATE = 32


def newton_ascent(evaluate, x, in_box, gtol, max_iter):
    """Maximize by damped Newton steps with backtracking, one lane per row of x.

    evaluate(x, lanes) returns the state at the rows of x, which belong to
    the lanes with indices lanes: a tuple (ll, stop_grad, g, h, *extra) of
    arrays with one leading row per lane, holding the objective, the
    gradient whose max-norm is tested against gtol, the gradient and
    Hessian in the search coordinates x, and whatever else the caller
    keeps.  A lane whose ll is NaN failed to evaluate.  in_box(x) tells,
    per row, whether a point may be evaluated.

    Each iteration tries the Newton direction, or the gradient scaled to
    max-norm at most 1 where the Hessian is singular or the Newton
    direction does not ascend, and halves the step up to 60 times.  A
    candidate inside in_box is accepted when it passes the Armijo test with
    constant 1e-4, or when it shrinks the max-norm of the stopping gradient
    and does not lower the objective.

    In the endgame, once that max-norm is within 100 * gtol, "does not
    lower" allows a drop of 1e-14 * (1 + |ll|): the predicted gain of a step
    there is below the objective's rounding, so only the gradient can judge
    progress.  Farther out the objective still resolves a step's gain, so a
    lower objective there marks a worse step.  A flat step must shrink the
    max-norm in either case, so flat steps cannot cycle.  A lane ends at
    the gradient tolerance, after max_iter iterations, when no candidate is
    accepted, when the accepted candidate is bitwise equal to its point
    (an exact fixed point, where every later iteration would repeat this
    one), or when an evaluation fails.

    Lanes share the iteration counter and are evaluated together, but each
    follows exactly the path it would follow alone: the directions come
    from stacked solves (lane by lane where one is singular) and row-wise
    matmul dot products, which round each lane as a one-lane call does.

    Returns (x, state, iterations, failed): the final points, the last
    accepted evaluation of each lane, the iteration at which each lane
    stopped, and a mask of the lanes whose evaluation failed.
    """
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
        ll_floor = np.where(stop_norm <= 100.0 * gtol, ll - 1e-14 * (1.0 + np.abs(ll)), ll)
        direction, gd = _ascent_directions(state[2][active], state[3][active])
        moved = np.zeros(len(active), dtype=bool)
        searching = np.arange(len(active))  # positions in active
        halvings = 0
        while searching.size and halvings < 60:
            # Try the next step lengths of every searching lane in one batch:
            # the full step alone, unless a lane needed a shorter step last
            # time, and then up to _SPECULATE candidates a round.  Each lane
            # takes the candidate that the one-lane search, trying them in
            # turn, would stop at.
            wide = halvings or halved[active[searching]].any()
            k = min(max(1, _SPECULATE // len(searching)) if wide else 1, 60 - halvings)
            scales = np.ldexp(1.0, -np.arange(halvings, halvings + k))
            halvings += k
            lanes = np.repeat(active[searching], k)
            pos = np.repeat(searching, k)
            scale = np.tile(scales, len(searching))
            cand = x[lanes] + scale[:, None] * direction[pos]
            inside = np.flatnonzero(in_box(cand))
            verdict = np.zeros(len(cand), dtype=np.int8)  # 1 accepted, 2 failed
            if inside.size:
                new = evaluate(cand[inside], lanes[inside])
                ll_new, at = new[0], pos[inside]
                improved = ll_new >= ll[at] + 1e-4 * scale[inside] * gd[at]
                closer = (ll_new >= ll_floor[at]) & (_max_abs(new[1]) < stop_norm[at])
                verdict[inside] = np.where(np.isnan(ll_new), 2, (improved | closer).astype(np.int8))
            verdict = verdict.reshape(len(searching), k)
            stops = np.flatnonzero(verdict.any(axis=1))
            picked = stops * k + verdict[stops].argmax(axis=1)
            failed[lanes[picked[verdict.ravel()[picked] == 2]]] = True
            took = verdict.ravel()[picked] == 1
            # A lane whose accepted candidate is bitwise its point is at an
            # exact fixed point: it stops without moving.
            took[took] = np.any(cand[picked[took]] != x[lanes[picked[took]]], axis=1)
            picked = picked[took]
            if picked.size:
                halved[lanes[picked]] = scale[picked] < 1.0
                x[lanes[picked]] = cand[picked]
                rows = np.searchsorted(inside, picked)
                for part, value in zip(state, new):
                    part[lanes[picked]] = value[rows]
                moved[pos[picked]] = True
            searching = np.delete(searching, stops)
        active = active[moved]
        if not active.size:
            break
    return x, tuple(state), iterations, failed
