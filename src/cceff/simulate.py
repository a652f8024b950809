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
import time

import numpy as np
from scipy.stats import binom

from ._constrained import expected_masses, loglik_grad_hess_s, newton_ascent, sandwich_s
from .asymptotics import _wald_power, bias_delta, sigma_A_sq, sigma_AC_sq, sigma_M_sq
from .errors import (
    AllReplicatesFailed,
    CCEffError,
    InfeasiblePrevalence,
    InvalidInput,
    NonConvergence,
)
from .estimators import CaseControlTable, Method, wald_test

# The batch entry points, bound under the one-table names so that the layer
# trace (perfbench/spans.py) counts each batch as one call of that fit.
from .estimators import fit_adjusted_batch as fit_adjusted
from .estimators import fit_constrained_batch as fit_constrained
from .estimators import fit_marginal_batch as fit_marginal
from .model import DesignParams, PopulationParams, _alpha_error, retro_distribution

__all__ = [
    "SimConfig",
    "MethodStats",
    "MCReport",
    "LimitPoint",
    "MisspecRow",
    "expected_table",
    "sample_table",
    "sample_tables",
    "run_mc",
    "limiting_value",
    "limiting_values",
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
            raise InvalidInput("replicates must be at least 1")
        if not (0.0 < self.level < 1.0):
            raise InvalidInput("level must lie in (0, 1)")
        if self.f_supplied is not None and not (0.0 < self.f_supplied < 1.0):
            raise InvalidInput("f_supplied must lie in (0, 1)")
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


def _multinomial_invcdf(u, n, probs):
    """Multinomial draws via sequential conditional binomials, one uniform per split.

    u holds one row of len(probs) - 1 uniforms per draw; returns one row of
    counts per draw.  The conditional probabilities are the same for every
    draw, so each split is one binom.ppf call over the draws that still
    have a positive remaining count.
    """
    k = len(probs)
    counts = np.zeros((len(u), k), dtype=np.int64)
    remaining = np.full(len(u), int(n), dtype=np.int64)
    for idx in range(k - 1):
        tail = probs[idx:].sum()
        p_cond = probs[idx] / tail if tail > 0 else 0.0
        if p_cond >= 1.0:
            counts[:, idx] = remaining
        elif p_cond > 0.0:
            live = remaining > 0
            if live.any():
                counts[live, idx] = binom.ppf(u[live, idx], remaining[live], p_cond)
        remaining -= counts[:, idx]
    counts[:, k - 1] = remaining
    return counts


def sample_tables(params, design, seed, replicate_indices) -> np.ndarray:
    """Retrospective samples for many replicates: cell weights of shape (k, 2, 2, 2).

    Replicate r draws from a Philox stream keyed by (seed, r): three
    uniforms for the case multinomial, then three for the control one, so
    any replicate can be drawn independently of the others and of execution
    order.  Row m is bitwise the table ``sample_table`` gives for
    replicate_indices[m].
    """
    n = design.n
    if abs(n - round(n)) > 1e-9:
        raise InvalidInput("sampling requires an integer total sample size")
    n1 = int(round(design.n_cases))
    n0 = int(round(n)) - n1
    if n1 < 1 or n0 < 1:
        raise InvalidInput("both case and control counts must be at least 1")
    r = retro_distribution(params)
    u = np.empty((len(replicate_indices), 2, 3))
    for row, index in zip(u, replicate_indices):
        key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        row[0] = rng.random(3)
        row[1] = rng.random(3)
    cases = _multinomial_invcdf(u[:, 0], n1, r.p_case.ravel())
    ctrls = _multinomial_invcdf(u[:, 1], n0, r.p_ctrl.ravel())
    return np.concatenate([ctrls, cases], axis=1).reshape(-1, 2, 2, 2).astype(float)


def sample_table(params, design, seed, replicate_index) -> CaseControlTable:
    """One retrospective sample: multinomial cases then controls, Philox-keyed.

    The batch of one of ``sample_tables``, which documents the stream.
    """
    return CaseControlTable(sample_tables(params, design, seed, [replicate_index])[0])


def _fit_block(args):
    """Worker: all requested fits of a block of sampled tables, one batch per method.

    Returns one row per table, holding one entry per method.  The adjusted
    fits run once and serve both Adj and AdjCon's start.
    """
    config, tables = args
    fits = {}
    if Method.MAR in config.methods:
        fits[Method.MAR] = fit_marginal(tables)
    if Method.ADJ in config.methods or Method.ADJCON in config.methods:
        fits[Method.ADJ] = fit_adjusted(tables)
    if Method.ADJCON in config.methods:
        f = config.f_supplied if config.f_supplied is not None else config.params.f
        fits[Method.ADJCON] = fit_constrained(tables, f, adjusted=fits[Method.ADJ])
    z_half = NormalDist().inv_cdf(1.0 - config.level / 2.0)
    rows = []
    for r in range(len(tables)):
        row = []
        for method in config.methods:
            fit = fits[method][r]
            try:
                if isinstance(fit, CCEffError):
                    raise fit
                test = wald_test(fit, config.level)
                covered = abs(fit.gamma_hat - config.params.gamma) <= z_half * fit.se_gamma
                row.append((True, fit.gamma_hat, fit.se_gamma, test.reject, covered, ""))
            except CCEffError as exc:
                row.append((False, math.nan, math.nan, False, False, type(exc).__name__))
        rows.append(row)
    return rows


def _resolve_workers(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CCEFF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidInput(f"CCEFF_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


# Wall time a process pool costs before it saves any.  With two fork workers,
# a two-replicate run took 20-45 ms longer than in-process, and runs of 10 to
# 320 Fig. 1 replicates took 55-110 ms longer than half their in-process time
# (medians of 7 runs each; 2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).
_POOL_STARTUP_S = 0.05

# Tables per batch of fits.  Fig. 1 replicates (n = 20000, all three methods)
# cost 4.2, 0.70, 0.38, 0.22, 0.15, 0.11 and 0.09 ms each in batches of 1, 8,
# 16, 32, 64, 128 and 256 (medians of 5 runs over 512 tables, scaled to the
# host speed of perfbench/calib.py; 2-vCPU Xeon VM, Python 3.11, numpy 2.4,
# scipy 1.17).  Past 128 little is left to gain, while a smaller batch lets
# the pool rule below look at the clock more often; a 40-replicate block is
# one batch.
_CHUNK = 128


def run_mc(config: SimConfig, workers: int | None = None) -> MCReport:
    """Run the Monte Carlo and fold per-replicate rows in index order.

    All tables are sampled first, in one pass (``sample_tables``).  They
    are then fitted in index order in this process, in batches of
    ``_CHUNK`` tables, and the rest go to a process pool, in batches too,
    once it pays: the in-process part has taken longer than the pool's
    start-up cost, and the replicates left would, at their mean cost so
    far, take longer in-process than that cost plus their share per
    worker.  workers defaults to the CCEFF_THREADS environment variable,
    then to the machine's CPU count; at most one process per remaining
    replicate and per CPU is started.  Every fit is bitwise independent of
    the batch it runs in, and the fold is deterministic, so the report is
    bitwise identical for any worker count.
    """
    n_workers = min(_resolve_workers(workers), os.cpu_count() or 1)
    tables = sample_tables(config.params, config.design, config.seed, range(config.replicates))
    rows = []
    start = time.perf_counter()
    while len(rows) < len(tables):
        done = len(rows)
        left = len(tables) - done
        size = min(n_workers, left)
        elapsed = time.perf_counter() - start
        # At the mean cost so far, a pool of size workers would save
        # elapsed / done * left * (1 - 1 / size) on the replicates left.
        pays = elapsed * left * (size - 1) >= _POOL_STARTUP_S * done * size
        if size > 1 and elapsed >= _POOL_STARTUP_S and pays:
            chunk = min(_CHUNK, -(-left // (4 * size)))
            blocks = [(config, tables[k : k + chunk]) for k in range(done, len(tables), chunk)]
            with ProcessPoolExecutor(max_workers=size) as pool:
                for block_rows in pool.map(_fit_block, blocks):
                    rows += block_rows
            break
        rows += _fit_block((config, tables[done : done + _CHUNK]))

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
                theory_power=_wald_power(
                    params.gamma + t_delta, t_var, design.n, config.level
                ),
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
    truth itself is the maximizer.  Once max|grad| is within 1e-10, a step
    that shrinks it may lower the expected log-likelihood by up to
    1e-14 * (1 + |loglik|), its rounding (``newton_ascent``'s endgame
    rule); farther out a step must not lower it.  An accepted step that
    rounds back onto the current point is an exact fixed point, where the
    iteration stops with the result the iteration cap would give.  Limits
    whose iteration stalls above the 1e-10 bar raise NonConvergence.  The
    sandwich covariance is ``sandwich_s`` under the expected masses and the
    true retrospective case and control distributions.  The batch of one
    of ``limiting_values``.
    """
    (out,) = limiting_values(truth, design, [f_used], eps)
    if isinstance(out, CCEffError):
        raise out
    return out


def limiting_values(truth: PopulationParams, design: DesignParams, f_values, eps=DEFAULT_EPS):
    """``limiting_value`` at every supplied prevalence, as lanes of one ``newton_ascent``.

    Returns one outcome per value, in order: its LimitPoint, or the error
    it raises alone.  Each lane is bitwise what a one-value call gives.
    """
    f_values = [float(f) for f in f_values]
    out = [
        None
        if 0.0 < f <= 1.0 - eps
        else InfeasiblePrevalence(f"f_used={f!r} outside the admissible range (0, {1.0 - eps:g}]")
        for f in f_values
    ]
    lanes = np.array([k for k, o in enumerate(out) if o is None], dtype=int)
    if not lanes.size:
        return out
    masses = expected_masses(truth, design.nu)
    f_lane = np.array(f_values)[lanes]

    def evaluate(s, k):
        _, ll, grad, hess = loglik_grad_hess_s(masses, f_lane[k], s)
        return ll, grad, grad, hess

    def in_box(s):
        inside = (0.0 < s[:, 2]) & (s[:, 2] < 1.0) & (0.0 < s[:, 3]) & (s[:, 3] < 1.0)
        return inside & (np.abs(s[:, :2]).max(axis=1) < 60.0)

    s0 = np.tile([truth.beta, truth.gamma, truth.theta, truth.pi], (len(lanes), 1))
    s, (ll, grad, _, _), _, failed = newton_ascent(evaluate, s0, in_box, 1e-12, 200)
    gmax = np.abs(grad).max(axis=1)
    good = []
    for k, r in enumerate(lanes):
        if failed[k]:
            out[r] = _alpha_error(f_lane[k])
        elif gmax[k] > 1e-10:
            out[r] = NonConvergence(
                f"expected-log-likelihood gradient max-norm {gmax[k]:.2e} at f_used={f_values[r]}"
            )
        else:
            good.append(k)
    if good:
        rd = retro_distribution(truth)
        sandwich = sandwich_s(masses, rd.p_case, rd.p_ctrl, design.nu, f_lane[good], s[good])
        for j, k in enumerate(good):
            out[lanes[k]] = LimitPoint(
                f_used=f_values[lanes[k]],
                s_star=tuple(float(x) for x in s[k]),
                expected_loglik=float(ll[k]),
                sandwich=sandwich[j],
            )
    return out


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
    error field instead of propagating.  The limit at the true f0 and every
    f1 are lanes of one ``limiting_values`` call.
    """
    f_grid = [float(f1) for f1 in f_grid]
    base, *limits = limiting_values(truth, design, [truth.f, *f_grid], eps)
    if isinstance(base, CCEffError):
        raise base
    s0 = np.array(base.s_star)
    rows = []
    for idx, (f1, lp) in enumerate(zip(f_grid, limits)):
        try:
            if isinstance(lp, CCEffError):
                raise lp
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
