"""Internal machinery for the prevalence-constrained likelihood.

The constrained model treats pr(X=1) as a function of the remaining
parameters through the prevalence identity.  Two equivalent coordinate
systems appear:

* u = (alpha, beta, gamma, pi) with theta(u) eliminated.  This is the
  natural frame for the Fisher information of the constrained fit, but
  theta(u) = (f - A0)/(A1 - A0) degenerates as beta -> 0.
* s = (beta, gamma, theta, pi) with alpha(f, s) recovered from the
  prevalence inversion.  Smooth through beta = 0; used for optimization
  and for the misspecified-f sandwich.

Everything here is exact differentiation of the 8-cell weighted
log-likelihood

    l(s) = sum_dij w_dij [ d*eta_ij - log(1 + e^eta_ij)
           + i*log(theta) + (1-i)*log(1-theta)
           + j*log(pi) + (1-j)*log(1-pi) ],    eta_ij = alpha(f, s) + beta*i + gamma*j.
"""

import numpy as np
from scipy.special import expit

from .model import _expit, alpha_from_prevalence, cell_probs, retro_distribution

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


def sandwich_s(params, nu, f_used, s_star):
    """A, B, and the sandwich covariance A^-1 B A^-1 in s-coordinates.

    A is the expected Hessian of the (possibly misspecified-f) log-likelihood
    at s_star; B mixes the per-stratum score covariances with weights
    nu/(1+nu) for cases and 1/(1+nu) for controls, all expectations taken
    under the true sampling distribution given by params and nu.
    """
    r = retro_distribution(params)
    m = expected_masses(params, nu).ravel()
    _, _, g8, H8 = profile_parts(f_used, s_star)
    A = np.einsum("k,kij->ij", m, H8)
    A = 0.5 * (A + A.T)

    pc = r.p_case.ravel()
    p0 = r.p_ctrl.ravel()
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
    return A, B, 0.5 * (sigma + sigma.T)


def theta_u_derivs(alpha, beta, gamma, pi, f):
    """theta(u) with first and second derivatives, u = (alpha, beta, gamma, pi).

    theta = (f - A0)/(A1 - A0) with A_i = p_i1*pi + p_i0*(1-pi); valid away
    from beta = 0 where the denominator vanishes.
    """
    p = cell_probs(alpha, beta, gamma)
    v = p * (1.0 - p)
    vp = v * (1.0 - 2.0 * p)

    a_val = np.empty(2)
    a_u = np.empty((2, 4))
    a_uu = np.empty((2, 4, 4))
    for i in (0, 1):
        fi = float(i)
        a_val[i] = p[i, 1] * pi + p[i, 0] * (1.0 - pi)
        da = v[i, 1] * pi + v[i, 0] * (1.0 - pi)
        a_u[i] = [da, fi * da, v[i, 1] * pi, p[i, 1] - p[i, 0]]
        daa = vp[i, 1] * pi + vp[i, 0] * (1.0 - pi)
        dag = vp[i, 1] * pi
        dap = v[i, 1] - v[i, 0]
        a_uu[i] = [
            [daa, fi * daa, dag, dap],
            [fi * daa, fi * daa, fi * dag, fi * dap],
            [dag, fi * dag, dag, v[i, 1]],
            [dap, fi * dap, v[i, 1], 0.0],
        ]

    num = f - a_val[0]
    den = a_val[1] - a_val[0]
    theta = num / den
    num_u = -a_u[0]
    den_u = a_u[1] - a_u[0]
    num_uu = -a_uu[0]
    den_uu = a_uu[1] - a_uu[0]

    theta_u = num_u / den - num * den_u / den**2
    theta_uu = (
        num_uu / den
        - (np.outer(num_u, den_u) + np.outer(den_u, num_u)) / den**2
        - num * den_uu / den**2
        + 2.0 * num * np.outer(den_u, den_u) / den**3
    )
    return float(theta), theta_u, theta_uu


def info_u(alpha, beta, gamma, pi, f, masses):
    """Information matrix in u = (alpha, beta, gamma, pi) with theta eliminated.

    masses is the (2, 2) array of (i, j) cell masses (expected E(n_+ij)/n for
    the Fisher information, observed n_+ij for the observed information; the
    disease label enters only through those masses because eta is linear in u).
    """
    m = np.asarray(masses, dtype=float)
    p = cell_probs(alpha, beta, gamma)
    v = p * (1.0 - p)
    theta, theta_u, theta_uu = theta_u_derivs(alpha, beta, gamma, pi, f)

    mv = m * v
    a = mv.sum()
    b = mv[1].sum()
    c = mv[:, 1].sum()
    d = mv[1, 1]
    t = m[:, 1].sum() / pi**2 + m[:, 0].sum() / (1.0 - pi) ** 2
    info = np.array(
        [
            [a, b, c, 0.0],
            [b, b, d, 0.0],
            [c, d, c, 0.0],
            [0.0, 0.0, 0.0, t],
        ]
    )
    g = m[1].sum() / theta**2 + m[0].sum() / (1.0 - theta) ** 2
    h = m[0].sum() / (1.0 - theta) - m[1].sum() / theta
    info += g * np.outer(theta_u, theta_u) + h * theta_uu
    return 0.5 * (info + info.T)


def expected_info_u(params, nu):
    """Per-unit-n Fisher information of the constrained model in u at the truth."""
    masses = expected_masses(params, nu).sum(axis=0)
    return info_u(params.alpha, params.beta, params.gamma, params.pi, params.f, masses)
