"""Seeded Monte-Carlo engine and deterministic misspecification limits.

Sampling draws the case and control (X, E) tables from their exact
retrospective distributions with a counter-based Philox stream keyed by
(seed, replicate_index), so results do not depend on execution order or on
the number of workers.  The deterministic side computes the maximizer
s*_f of the expected constrained log-likelihood when the supplied
prevalence differs from the truth, together with its sandwich covariance.
"""

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
import dataclasses
from dataclasses import dataclass
import math
import os
from statistics import NormalDist

import numpy as np
from scipy.stats import binom

from ._constrained import expected_masses, loglik_grad_hess_s, newton_ascent, sandwich_s
from .asymptotics import (
    asymptotic_power,
    bias_delta,
    sigma_A_sq,
    sigma_AC_sq,
    sigma_M_sq,
)
from .errors import (
    AllReplicatesFailed,
    CCEffError,
    InfeasiblePrevalence,
    NonConvergence,
)
from .estimators import (
    CaseControlTable,
    Method,
    fit_adjusted,
    fit_constrained,
    fit_marginal,
    wald_test,
)
from .model import DesignParams, PopulationParams, retro_distribution

__all__ = [
    "SimConfig",
    "MethodStats",
    "MCReport",
    "LimitPoint",
    "MisspecRow",
    "expected_table",
    "sample_table",
    "run_mc",
    "limiting_value",
    "misspec_sweep",
]

DEFAULT_EPS = 1e-3


@dataclass(frozen=True)
class SimConfig:
    params: PopulationParams
    design: DesignParams
    replicates: int
    seed: int
    level: float = 0.05
    methods: tuple = (Method.MAR, Method.ADJ, Method.ADJCON)
    f_supplied: float | None = None  # prevalence handed to AdjCon; None = true f
    failures_reject: bool = False  # count failed replicates as rejections instead of non-rejections

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        if self.f_supplied is not None and not (0.0 < self.f_supplied < 1.0):
            raise ValueError("f_supplied must lie in (0, 1)")
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))


@dataclass(frozen=True)
class MethodStats:
    method: Method
    n_included: int
    n_failed: int
    failures: dict
    mean_gamma: float
    mean_gamma_mc_se: float
    sd_root_n: float
    sd_root_n_mc_se: float
    mean_se_root_n: float
    mean_se_root_n_mc_se: float
    rejection_rate: float
    rejection_rate_mc_se: float
    coverage: float
    coverage_mc_se: float
    theory_delta: float
    theory_sigma: float
    theory_power: float


@dataclass(frozen=True)
class MCReport:
    config: SimConfig
    stats: tuple


@dataclass(frozen=True)
class LimitPoint:
    f_used: float
    s_star: tuple
    expected_loglik: float
    sandwich: np.ndarray


@dataclass(frozen=True)
class MisspecRow:
    f1: float
    s_star: tuple
    dev_s: float
    dev_sigma: float
    ratio_s: float
    ratio_sigma: float
    mc_mean_gamma: float = math.nan
    mc_mean_gamma_se: float = math.nan
    error: str = ""


def expected_table(params: PopulationParams, design: DesignParams) -> CaseControlTable:
    """The exact expected table n * E(n_dij)/n; real-valued cells."""
    return CaseControlTable(expected_masses(params, design.nu) * design.n)


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


def sample_table(params, design, seed, replicate_index) -> CaseControlTable:
    """One retrospective sample: multinomial cases then controls, Philox-keyed.

    The stream key is (seed, replicate_index), so any replicate can be drawn
    independently of the others and of execution order.
    """
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
    w = np.stack([ctrls.reshape(2, 2), cases.reshape(2, 2)]).astype(float)
    return CaseControlTable(w)


def _fit_one(method, table, config):
    if method is Method.MAR:
        return fit_marginal(table)
    if method is Method.ADJ:
        return fit_adjusted(table)
    f = config.f_supplied if config.f_supplied is not None else config.params.f
    return fit_constrained(table, f)


def _replicate(args):
    """Worker: one sampled table, all requested fits. Returns one row per method."""
    config, index = args
    table = sample_table(config.params, config.design, config.seed, index)
    z_half = NormalDist().inv_cdf(1.0 - config.level / 2.0)
    rows = []
    for method in config.methods:
        try:
            fit = _fit_one(method, table, config)
            test = wald_test(fit, config.level)
            covered = abs(fit.gamma_hat - config.params.gamma) <= z_half * fit.se_gamma
            rows.append((True, fit.gamma_hat, fit.se_gamma, test.reject, covered, ""))
        except CCEffError as exc:
            rows.append((False, math.nan, math.nan, False, False, type(exc).__name__))
    return rows


class ThreadCountError(ValueError):
    """CCEFF_THREADS is set to something that is not an integer."""


def _resolve_workers(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CCEFF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ThreadCountError(f"CCEFF_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def run_mc(config: SimConfig, workers: int | None = None) -> MCReport:
    """Run the Monte Carlo and fold per-replicate rows in index order.

    workers defaults to the CCEFF_THREADS environment variable, then to the
    machine's CPU count; at most one process per replicate and per CPU is
    started.  The fold is deterministic, so the report is bitwise identical
    for any worker count.
    """
    n_workers = min(_resolve_workers(workers), config.replicates, os.cpu_count() or 1)
    args = [(config, i) for i in range(config.replicates)]
    if n_workers == 1 or config.replicates < 4:
        rows = [_replicate(a) for a in args]
    else:
        chunk = max(1, config.replicates // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_replicate, args, chunksize=chunk))

    params, design = config.params, config.design
    sqrt_n = math.sqrt(design.n)
    stats = []
    for k, method in enumerate(config.methods):
        per = [r[k] for r in rows]
        ok = [r for r in per if r[0]]
        failures = Counter(r[5] for r in per if not r[0])
        n_inc = len(ok)
        total = config.replicates
        if n_inc == 0:
            raise AllReplicatesFailed(
                f"all {total} replicates failed for method {method.value}: {dict(failures)}"
            )
        gammas = np.array([r[1] for r in ok])
        ses = np.array([r[2] for r in ok])
        rejects = sum(1 for r in ok if r[3])
        if config.failures_reject:
            rejects += total - n_inc
        covered = sum(1 for r in ok if r[4])

        mean_gamma = float(gammas.mean())
        sd_gamma = float(gammas.std(ddof=1)) if n_inc > 1 else math.nan
        sd_se = float(ses.std(ddof=1)) if n_inc > 1 else math.nan
        rej_rate = rejects / total
        cov_rate = covered / n_inc

        if method is Method.MAR:
            t_delta = bias_delta(params.alpha, params.beta, params.gamma, params.theta)
            t_var = sigma_M_sq(params, design.nu)
        elif method is Method.ADJ:
            t_delta = 0.0
            t_var = sigma_A_sq(params, design.nu)
        else:
            t_delta = 0.0
            t_var = sigma_AC_sq(params, design.nu)

        stats.append(
            MethodStats(
                method=method,
                n_included=n_inc,
                n_failed=total - n_inc,
                failures=dict(failures),
                mean_gamma=mean_gamma,
                mean_gamma_mc_se=sd_gamma / math.sqrt(n_inc) if n_inc > 1 else math.nan,
                sd_root_n=sd_gamma * sqrt_n,
                sd_root_n_mc_se=sd_gamma * sqrt_n / math.sqrt(2.0 * (n_inc - 1))
                if n_inc > 1
                else math.nan,
                mean_se_root_n=float(ses.mean()) * sqrt_n,
                mean_se_root_n_mc_se=sd_se * sqrt_n / math.sqrt(n_inc) if n_inc > 1 else math.nan,
                rejection_rate=rej_rate,
                rejection_rate_mc_se=math.sqrt(rej_rate * (1.0 - rej_rate) / total),
                coverage=cov_rate,
                coverage_mc_se=math.sqrt(cov_rate * (1.0 - cov_rate) / n_inc),
                theory_delta=t_delta,
                theory_sigma=math.sqrt(t_var),
                theory_power=asymptotic_power(method, params, design.nu, design.n, config.level),
            )
        )
    return MCReport(config=config, stats=tuple(stats))


def limiting_value(
    truth: PopulationParams, design: DesignParams, f_used: float, eps: float = DEFAULT_EPS
) -> LimitPoint:
    """Deterministic maximizer s*_f of the expected constrained log-likelihood.

    The expectation is the exact 8-term sum with weights nu/(1+nu) p_case and
    1/(1+nu) p_ctrl; no sampling.  ``newton_ascent`` runs in s itself
    (gradient tolerance 1e-12, at most 200 iterations) from the true
    (beta, gamma, theta, pi); at f_used equal to the true prevalence the
    truth itself is the maximizer.  An accepted step that rounds back onto
    the current point is an exact fixed point, where the iteration stops
    with the result the iteration cap would give.  The sandwich covariance
    is ``sandwich_s`` under the expected masses and the true retrospective
    case and control distributions.
    """
    if not (0.0 < f_used <= 1.0 - eps):
        raise InfeasiblePrevalence(
            f"f_used={f_used!r} outside the admissible range (0, {1.0 - eps:g}]"
        )
    masses = expected_masses(truth, design.nu)

    def evaluate(s):
        _, ll, grad, hess = loglik_grad_hess_s(masses, f_used, s)
        return ll, grad, grad, hess, None

    def in_box(s):
        return 0.0 < s[2] < 1.0 and 0.0 < s[3] < 1.0 and np.max(np.abs(s[:2])) < 60.0

    s = np.array([truth.beta, truth.gamma, truth.theta, truth.pi])
    s, (ll, grad, _, _, _), _ = newton_ascent(evaluate, s, in_box, 1e-12, 200)
    if np.max(np.abs(grad)) > 1e-10:
        raise NonConvergence(
            f"expected-log-likelihood gradient max-norm {np.max(np.abs(grad)):.2e} at f_used={f_used}"
        )
    r = retro_distribution(truth)
    return LimitPoint(
        f_used=float(f_used),
        s_star=tuple(float(x) for x in s),
        expected_loglik=float(ll),
        sandwich=sandwich_s(masses, r.p_case, r.p_ctrl, design.nu, f_used, s),
    )


def misspec_sweep(
    truth: PopulationParams,
    design: DesignParams,
    f_grid,
    eps: float = DEFAULT_EPS,
    mc_confirm: tuple | None = None,
    seed: int = 0,
    level: float = 0.05,
    capture_errors: bool = True,
    workers: int | None = None,
):
    """Theorem-style sweep over supplied prevalences f1 around the true f0.

    Each row carries s*_{f1}, the deviations ||s*_{f1} - s*_{f0}|| and
    ||Sigma_{f1} - Sigma_{f0}||_F, and those deviations divided by |f1 - f0|.
    mc_confirm = (n, replicates) adds a Monte-Carlo check that the
    constrained fit with the misspecified prevalence concentrates on
    gamma*_{f1}.  With capture_errors per-row failures land in the row's
    error field instead of propagating.
    """
    base = limiting_value(truth, design, truth.f, eps)
    s0 = np.array(base.s_star)
    rows = []
    for idx, f1 in enumerate(f_grid):
        f1 = float(f1)
        try:
            lp = limiting_value(truth, design, f1, eps)
            dev_s = float(np.linalg.norm(np.array(lp.s_star) - s0))
            dev_sigma = float(np.linalg.norm(lp.sandwich - base.sandwich, "fro"))
            gap = abs(f1 - truth.f)
            row = MisspecRow(
                f1=f1,
                s_star=lp.s_star,
                dev_s=dev_s,
                dev_sigma=dev_sigma,
                ratio_s=dev_s / gap if gap > 0 else math.nan,
                ratio_sigma=dev_sigma / gap if gap > 0 else math.nan,
            )
            if mc_confirm is not None:
                mc_n, mc_reps = mc_confirm
                cfg = SimConfig(
                    params=truth,
                    design=DesignParams(nu=design.nu, n=mc_n),
                    replicates=mc_reps,
                    seed=seed + idx,
                    level=level,
                    methods=(Method.ADJCON,),
                    f_supplied=f1,
                )
                st = run_mc(cfg, workers=workers).stats[0]
                row = dataclasses.replace(
                    row, mc_mean_gamma=st.mean_gamma, mc_mean_gamma_se=st.mean_gamma_mc_se
                )
            rows.append(row)
        except CCEffError as exc:
            if not capture_errors:
                raise
            rows.append(
                MisspecRow(
                    f1=f1,
                    s_star=(math.nan,) * 4,
                    dev_s=math.nan,
                    dev_sigma=math.nan,
                    ratio_s=math.nan,
                    ratio_sigma=math.nan,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
