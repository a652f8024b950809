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
"""

import numpy as np
from scipy.special import expit

from .model import _expit, alpha_from_prevalence, retro_distribution

# flattened cell order matches CaseControlTable.w.ravel(): (d, i, j) C-order
_D8 = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
_I8 = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=float)
_J8 = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
_NI8 = 1.0 - _I8
_NJ8 = 1.0 - _J8
_IJ8 = np.column_stack([_I8, _J8])
_NIJ8 = 1.0 - _IJ8


def f_derivs(alpha, beta, gamma, theta, pi):
    """Gradient and Hessian of F = prevalence in (alpha, beta, gamma, theta, pi).

    F = sum_ij p_ij tx_i te_j with p_ij = expit(alpha + beta*i + gamma*j),
    tx = (1 - theta, theta) and te = (1 - pi, pi).  Evaluated on plain
    floats: every entry starts at 0.0 and adds its per-cell terms in C order
    (00, 01, 10, 11), exactly as accumulating per-cell arrays would, so the
    result is bitwise the array form's.  Terms with a zero covariate or
    exposure coefficient are exact zeros and are left out.
    """
    a1 = alpha + beta
    p00, p01 = _expit(alpha), _expit(alpha + gamma)
    p10, p11 = _expit(a1), _expit(a1 + gamma)
    v00, v01 = p00 * (1.0 - p00), p01 * (1.0 - p01)
    v10, v11 = p10 * (1.0 - p10), p11 * (1.0 - p11)
    t0, t1 = 1.0 - theta, theta
    e0, e1 = 1.0 - pi, pi
    w00, w01, w10, w11 = t0 * e0, t0 * e1, t1 * e0, t1 * e1
    q00 = v00 * (1.0 - 2.0 * p00) * w00
    q01 = v01 * (1.0 - 2.0 * p01) * w01
    q10 = v10 * (1.0 - 2.0 * p10) * w10
    q11 = v11 * (1.0 - 2.0 * p11) * w11

    # d/dtheta of w_ij is -/+ te_j and d/dpi is -/+ tx_i.
    g0 = 0.0 + v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    g1 = 0.0 + v10 * w10 + v11 * w11
    g2 = 0.0 + v01 * w01 + v11 * w11
    g3 = 0.0 - p00 * e0 - p01 * e1 + p10 * e0 + p11 * e1
    g4 = 0.0 - p00 * t0 + p01 * t0 - p10 * t1 + p11 * t1
    h00 = 0.0 + q00 + q01 + q10 + q11
    h01 = 0.0 + q10 + q11
    h02 = 0.0 + q01 + q11
    h12 = 0.0 + q11
    h03 = 0.0 - v00 * e0 - v01 * e1 + v10 * e0 + v11 * e1
    h13 = 0.0 + v10 * e0 + v11 * e1
    h23 = 0.0 - v01 * e1 + v11 * e1
    h04 = 0.0 - v00 * t0 + v01 * t0 - v10 * t1 + v11 * t1
    h14 = 0.0 - v10 * t1 + v11 * t1
    h24 = 0.0 + v01 * t0 + v11 * t1
    h34 = 0.0 + p00 - p01 - p10 + p11
    grad = np.array([g0, g1, g2, g3, g4])
    hess = np.array(
        [
            [h00, h01, h02, h03, h04],
            [h01, h01, h12, h13, h14],
            [h02, h12, h02, h23, h24],
            [h03, h13, h23, 0.0, h34],
            [h04, h14, h24, h34, 0.0],
        ]
    )
    return grad, hess


def alpha_derivs(alpha, beta, gamma, theta, pi):
    """d(alpha)/ds and d2(alpha)/ds2 along the prevalence level set, s = (beta, gamma, theta, pi).

    Implicit differentiation of F(alpha(s), s) = f.
    """
    grad, hess = f_derivs(alpha, beta, gamma, theta, pi)
    fa = grad[0]
    a_s = -grad[1:] / fa
    fas = hess[0, 1:]
    a_ss = -(
        hess[1:, 1:]
        + np.outer(fas, a_s)
        + np.outer(a_s, fas)
        + hess[0, 0] * np.outer(a_s, a_s)
    ) / fa
    return a_s, a_ss


def profile_parts(f, s):
    """Per-cell log-likelihood, gradient, and Hessian in s at prevalence f.

    Returns (alpha, l8, g8, H8) with l8 shape (8,), g8 (8, 4), H8 (8, 4, 4),
    cells ordered as CaseControlTable.w.ravel().
    """
    beta, gamma, theta, pi = (float(x) for x in s)
    alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
    a_s, a_ss = alpha_derivs(alpha, beta, gamma, theta, pi)
    eta = alpha + beta * _I8 + gamma * _J8
    p = expit(eta)
    v = p * (1.0 - p)
    resid = _D8 - p

    es = np.empty((8, 4))
    es[:] = a_s
    es[:, :2] += _IJ8

    l8 = (
        _D8 * eta
        - np.logaddexp(0.0, eta)
        + _I8 * np.log(theta)
        + _NI8 * np.log1p(-theta)
        + _J8 * np.log(pi)
        + _NJ8 * np.log1p(-pi)
    )

    # Columns 2 and 3 take the theta and pi terms side by side; every element
    # sees the same operations as a column-at-a-time update.
    tp = np.array([theta, pi])
    g8 = resid[:, None] * es
    g8[:, 2:] += _IJ8 / tp - _NIJ8 / (1.0 - tp)

    H8 = -v[:, None, None] * (es[:, :, None] * es[:, None, :]) + resid[:, None, None] * a_ss
    tp2 = np.array([theta**2, pi**2])
    otp2 = np.array([(1.0 - theta) ** 2, (1.0 - pi) ** 2])
    H8[:, (2, 3), (2, 3)] -= _IJ8 / tp2 + _NIJ8 / otp2
    return alpha, l8, g8, H8


def loglik_grad_hess_s(weights, f, s):
    """Weighted log-likelihood with gradient and Hessian in s.

    weights is any (2,2,2)-shaped (or 8-flat) array of cell masses.
    Returns (alpha, loglik, grad, hess).
    """
    w = np.asarray(weights, dtype=float).ravel()
    alpha, l8, g8, H8 = profile_parts(f, s)
    hess = np.einsum("k,kij->ij", w, H8)
    return alpha, float(w @ l8), w @ g8, 0.5 * (hess + hess.T)


def expected_masses(params, nu):
    """Exact per-unit-n cell masses E(n_dij)/n under retrospective sampling, shape (2,2,2)."""
    r = retro_distribution(params)
    m = np.empty((2, 2, 2))
    m[0] = r.p_ctrl / (1.0 + nu)
    m[1] = r.p_case * nu / (1.0 + nu)
    return m


def expected_info_s(params, nu):
    """Per-unit-n expected information in s at the truth."""
    s = (params.beta, params.gamma, params.theta, params.pi)
    _, _, _, hess = loglik_grad_hess_s(expected_masses(params, nu), params.f, s)
    return -hess




def sandwich_s(masses, p_case, p_ctrl, nu, f, s):
    """Sandwich covariance A^-1 B A^-1 in s of the log-likelihood at prevalence f.

    A is the Hessian at s under the cell masses; B mixes the per-stratum
    score covariances under the case and control cell distributions p_case
    and p_ctrl with weights nu/(1+nu) and 1/(1+nu).  The misspecification
    limits pass the exact expected masses and the true retrospective
    distributions; a fitted table passes its own normalized cells, so the
    same routine gives the plug-in robust covariance per unit total weight.
    """
    _, _, g8, H8 = profile_parts(f, s)
    A = np.einsum("k,kij->ij", np.ravel(masses), H8)
    A = 0.5 * (A + A.T)

    pc = np.ravel(p_case)
    p0 = np.ravel(p_ctrl)
    g_case = g8[4:]
    g_ctrl = g8[:4]
    mean_case = pc @ g_case
    mean_ctrl = p0 @ g_ctrl
    cov_case = np.einsum("k,ki,kj->ij", pc, g_case, g_case) - np.outer(mean_case, mean_case)
    cov_ctrl = np.einsum("k,ki,kj->ij", p0, g_ctrl, g_ctrl) - np.outer(mean_ctrl, mean_ctrl)
    B = (nu * cov_case + cov_ctrl) / (1.0 + nu)
    B = 0.5 * (B + B.T)

    a_inv = np.linalg.inv(A)
    sigma = a_inv @ B @ a_inv
    return 0.5 * (sigma + sigma.T)


def newton_ascent(evaluate, x, in_box, gtol, max_iter):
    """Maximize by damped Newton steps with backtracking from x.

    evaluate(x) returns (ll, stop_grad, g, h, extra): the objective, the
    gradient whose max-norm is tested against gtol, and the gradient and
    Hessian in the search coordinates x.  Each iteration tries the Newton
    direction, or the gradient scaled to max-norm at most 1 where the
    Hessian is singular or the Newton direction does not ascend, and halves
    the step up to 60 times.  A candidate inside in_box is accepted when it
    passes the Armijo test with constant 1e-4, or when it shrinks the
    max-norm of the stopping gradient and does not lower the objective.

    In the endgame, once that max-norm is within 100 * gtol, "does not
    lower" allows a drop of 1e-14 * (1 + |ll|): the predicted gain of a step
    there is below the objective's rounding, so only the gradient can judge
    progress.  Farther out the objective still resolves a step's gain, so a
    lower objective there marks a worse step.  A flat step must shrink the
    max-norm in either case, so flat steps cannot cycle.  The iteration ends at the
    gradient tolerance, after max_iter iterations, when no candidate is
    accepted, or when the accepted candidate is bitwise equal to x: that is
    an exact fixed point, where every later iteration would repeat this one.

    Returns (x, evaluate(x), iterations), the evaluation being the last
    accepted one.
    """
    state = evaluate(x)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ll, stop_grad, g, h, _ = state
        stop_norm = np.max(np.abs(stop_grad))
        if stop_norm <= gtol:
            break
        ll_floor = ll - 1e-14 * (1.0 + abs(ll)) if stop_norm <= 100.0 * gtol else ll
        try:
            direction = np.linalg.solve(-h, g)
        except np.linalg.LinAlgError:
            direction = g / max(1.0, np.max(np.abs(g)))
        if g @ direction <= 0.0:
            direction = g / max(1.0, np.max(np.abs(g)))
        scale = 1.0
        moved = False
        for _ in range(60):
            cand = x + scale * direction
            if in_box(cand):
                cand_state = evaluate(cand)
                ll_new, stop_new = cand_state[0], cand_state[1]
                improved = ll_new >= ll + 1e-4 * scale * (g @ direction)
                flat_but_closer = ll_new >= ll_floor and np.max(np.abs(stop_new)) < stop_norm
                if improved or flat_but_closer:
                    moved = not np.array_equal(cand, x)
                    if moved:
                        x, state = cand, cand_state
                    break
            scale *= 0.5
        if not moved:
            break
    return x, state, iterations
