"""Seeded Monte-Carlo engine and deterministic misspecification limits.

Sampling draws the case and control (X, E) tables from their exact
retrospective distributions with a counter-based Philox stream keyed by
(seed, replicate_index), so results do not depend on execution order or on
how the replicates are batched.  The deterministic side computes the
maximizer s*_f of the expected constrained log-likelihood when the supplied
prevalence differs from the truth, together with its sandwich covariance.
"""

from collections import Counter
import dataclasses
from dataclasses import dataclass
import math
import operator
import warnings

import numpy as np
from scipy.special import ndtri
from scipy.special._ufuncs import _binom_cdf, _binom_ppf

from ._constrained import (
    _mass_lanes, expected_masses, loglik_grad_hess_s, newton_ascent, no_derivatives, sandwich_s,
)
from .asymptotics import _delta_and_variance, _wald_power, _z_half
from .errors import (
    AllReplicatesFailed,
    CCEffError,
    InfeasiblePrevalence,
    InvalidInput,
    NonConvergence,
)
from .estimators import (
    CaseControlTable, Method, _check_level, _check_methods, _one, _wald_lanes,
)

# The batch fits' lane forms, bound under the one-table names so that the
# layer trace (perfbench/spans.py) counts each batch as one call of that fit.
from .estimators import _adjusted_lanes as fit_adjusted
from .estimators import _constrained_lanes as fit_constrained
from .estimators import _marginal_lanes as fit_marginal
from .model import DesignParams, PopulationParams, _alpha_error, retro_distribution

__all__ = [
    "DEFAULT_EPS",
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
# A misspecification limit whose gradient max-norm ends within this bar is converged.
_LIMIT_BAR = 1e-10
# From this many draws up, a split guesses each binomial quantile and checks it
# against two CDF values: below it the guess's fixed cost of about 20 us
# exceeds what it saves on boost's solver (0.4 us a draw at n = 20, 3.5 us
# at n = 10^4; 2-vCPU Xeon VM, scipy 1.17).
_GUESS_LANES = 16
# The open box a limit's iterate stays in: |beta|, |gamma| < 60 and theta, pi in (0, 1).
_S_LOW = np.array([-60.0, -60.0, 0.0, 0.0])
_S_HIGH = np.array([60.0, 60.0, 1.0, 1.0])


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
        for name in ("replicates", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise InvalidInput(f"{name}={getattr(self, name)!r} must be an integer") from None
        try:
            methods = tuple(Method(m) for m in self.methods)
        except ValueError:
            methods = ()
        if not methods:
            raise InvalidInput(f"methods={self.methods!r} must name some of mar, adj, adjcon")
        _check_methods(methods)
        if self.replicates < 1:
            raise InvalidInput("replicates must be at least 1")
        _check_level(self.level)
        if self.f_supplied is not None and not (0.0 < self.f_supplied < 1.0):
            raise InvalidInput("f_supplied must lie in (0, 1)")
        _arm_sizes(self.design)
        object.__setattr__(self, "methods", methods)


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
    dev_s: float = math.nan
    dev_sigma: float = math.nan
    ratio_s: float = math.nan
    ratio_sigma: float = math.nan
    mc_mean_gamma: float = math.nan
    mc_mean_gamma_se: float = math.nan
    error: str = ""


def expected_table(params: PopulationParams, design: DesignParams) -> CaseControlTable:
    """The exact expected table n * E(n_dij)/n; real-valued cells."""
    return CaseControlTable(expected_masses(params, design.nu) * design.n)


def _binom_quantile(u, n, p):
    """Each lane's binomial quantile: the smallest k in [0, n] with CDF(k; n, p) >= u.

    u and n are arrays of uniforms in [0, 1) and counts n >= 1, with one
    0 < p < 1.  From ``_GUESS_LANES`` lanes up, a Cornish-Fisher guess
    (Devroye 1986, III.2) is kept where one stacked ``_binom_cdf`` call shows
    CDF(k - 1) < u <= CDF(k) (about 99.9 % of lanes at n = 10^4, 97 % at
    n = 70); the other lanes, and every lane of a smaller call, take boost's
    solver (``_binom_solve``).  So the result is bitwise
    ``_binom_ppf(u, n, p)``, the ufunc behind ``scipy.stats.binom.ppf``,
    wherever that answers without a warning.  Where the solver warns, its
    count is a best guess, and a checked guess can differ from it.
    """
    if len(u) < _GUESS_LANES:
        return _binom_solve(u, n, p)
    q = 1.0 - p
    skew = (q - p) / 6.0
    z = ndtri(np.maximum(u, 5e-324))  # finite also at u = 0
    guess = np.ceil(z * (np.sqrt(n * (p * q)) + skew * z) + (n * p - (skew + 0.5)))
    k = np.minimum(np.maximum(guess, 0.0), n)
    below, at = _binom_cdf(np.stack([k - 1.0, k]), n, p)
    miss = ~(((k == 0.0) | (below < u)) & (at >= u))
    if miss.any():
        k[miss] = _binom_solve(u[miss], n[miss], p)
    return k


def _binom_solve(u, n, p):
    """boost's binomial quantile ``_binom_ppf(u, n, p)``.

    Where the solver finds no count (some splits at n near 2^53) it returns
    NaN with a RuntimeWarning; that raises InvalidInput naming the count
    that was split, without the warning.  A warning that comes with a count
    passes through.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        k = _binom_ppf(u, n, p)
    lost = np.isnan(k)
    if lost.any():
        raise InvalidInput(
            f"sampling cannot split {int(n[lost][0])} subjects: the binomial quantile "
            "solver finds no count at this sample size"
        )
    for warning in caught:
        warnings.warn(warning.message, stacklevel=2)
    return k


def _multinomial_invcdf(u, n, probs):
    """Multinomial draws via sequential conditional binomials, one uniform per split.

    u holds one row of len(probs) - 1 uniforms in [0, 1) per draw; returns
    one row of counts per draw.  The conditional probabilities are the same
    for every draw, so each split is one ``_binom_quantile`` call over the
    draws that still have a positive remaining count: a normal guess checked
    against two CDF values, with boost's solver as the fallback for the
    draws it misses.  The counts are those of ``scipy.stats.binom.ppf``
    for 0 < u < 1 wherever its solver answers without a warning; at u = 0
    the count is 0, the smallest, where ``binom.ppf`` gives -1.  A split
    the solver cannot invert raises InvalidInput.
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
                counts[live, idx] = _binom_quantile(u[live, idx], remaining[live], p_cond)
        remaining -= counts[:, idx]
    counts[:, k - 1] = remaining
    return counts


def _arm_sizes(design):
    """The case and control counts (n1, n0) a sample of design draws.

    Raises InvalidInput unless n is an integer of at most 2^53, so that
    every count is an exact float, and both arms hold at least one subject.
    """
    n = design.n
    if abs(n - round(n)) > 1e-9:
        raise InvalidInput("sampling requires an integer total sample size")
    if n > 2.0**53:
        raise InvalidInput("sampling requires a total sample size of at most 2**53")
    n1 = int(round(design.n_cases))
    n0 = int(round(n)) - n1
    if n1 < 1 or n0 < 1:
        raise InvalidInput("both case and control counts must be at least 1")
    return n1, n0


def sample_tables(params, design, seed, replicate_indices) -> np.ndarray:
    """Retrospective samples for many replicates: cell weights of shape (k, 2, 2, 2).

    Replicate r draws from a Philox stream keyed by (seed, r): three
    uniforms for the case multinomial, then three for the control one, so
    any replicate can be drawn independently of the others and of execution
    order, and no OS entropy is drawn.  Row m is bitwise ``sample_table``'s
    table for replicate_indices[m]; a seed or index that is not an integer raises InvalidInput.
    """
    try:
        seed = operator.index(seed)
        replicate_indices = [operator.index(index) for index in replicate_indices]
    except TypeError as exc:
        raise InvalidInput(f"seed and replicate indices must be integers: {exc}") from None
    n1, n0 = _arm_sizes(design)
    r = retro_distribution(params)
    # Philox is counter-based, so one bit generator re-keyed per replicate (at
    # counter 0) gives the words of a fresh Philox(key=...) without the OS
    # entropy each of those draws for its SeedSequence.
    bits = np.random.Philox(0)
    state = bits.state
    key = state["state"]["key"] = [seed % 2**64, 0]
    raw = []
    for index in replicate_indices:
        key[1] = index % 2**64
        bits.state = state
        raw.append(bits.random_raw(6))
    # Generator.random's double from a Philox word: its top 53 bits times 2^-53.
    u = (np.array(raw, dtype=np.uint64).reshape(-1, 2, 3) >> 11) * 2.0**-53
    cases = _multinomial_invcdf(u[:, 0], n1, r.p_case.ravel())
    ctrls = _multinomial_invcdf(u[:, 1], n0, r.p_ctrl.ravel())
    return np.concatenate([ctrls, cases], axis=1).reshape(-1, 2, 2, 2).astype(float)


def sample_table(params, design, seed, replicate_index) -> CaseControlTable:
    """One retrospective sample: multinomial cases then controls, Philox-keyed.

    The batch of one of ``sample_tables``, which documents the stream.
    """
    return CaseControlTable(sample_tables(params, design, seed, [replicate_index])[0])


def _fit_block(methods, tables, f, continuity_correction):
    """The fits of methods on a block of tables, one batch per method, as lanes.

    Returns, per method, the batch's ``_Lanes``: each table's error, and
    the arrays of the tables that fit.  Mar takes continuity_correction and
    AdjCon the prevalence f.  The adjusted fits run once and serve both Adj
    and AdjCon's start.
    """
    fits = {}
    if Method.MAR in methods:
        fits[Method.MAR] = fit_marginal(tables, continuity_correction)
    if Method.ADJ in methods or Method.ADJCON in methods:
        fits[Method.ADJ] = fit_adjusted(tables)
    if Method.ADJCON in methods:
        fits[Method.ADJCON] = fit_constrained(tables, f, adjusted=fits[Method.ADJ])
    return [fits[method] for method in methods]


# Replicates per chunk, a memory budget: run_mc samples and fits a chunk at a
# time and keeps of its fits only each method's included gammas and standard
# errors (16 bytes a replicate) and counts.  Every Newton round of a batch
# has a fixed cost, paid once a chunk, and the batch runs until its slowest
# lane, so fewer chunks are faster, while a chunk's fits peak at about 5 KiB
# a table.  A 10,000-replicate Fig. 1 run peaks at 59 MiB RSS in chunks of
# 128 (0.73 s), 72 MiB in chunks of 2048 (0.50 s) and 124 MiB as one chunk
# (0.50 s), against 56 MiB for the import alone (in process; 2-vCPU Xeon VM,
# Python 3.11, numpy 2.4, scipy 1.17).  perfbench's blocks of 40 and 6
# replicates fit one chunk.
_CHUNK = 2048


def run_mc(config: SimConfig) -> MCReport:
    """Run the Monte Carlo and fold per-replicate outcomes in index order.

    The theory columns come first, through ``asymptotic_power``'s
    one-point path: a point whose theory fails raises before any table is
    sampled or fitted.  Then the replicates are sampled (``sample_tables``)
    and fitted in this process, in index order, ``_CHUNK`` at a time; of a
    chunk's fits only each method's included gammas and standard errors,
    its Wald rejections and coverage counts and its failure counts by kind
    are kept, so memory does not grow with the replicates beyond 16 bytes
    a replicate and method.  Replicate r draws from its own Philox stream
    and every fit is bitwise independent of the batch it runs in; the Wald
    tests and coverage checks are elementwise, and the means and standard
    deviations fold the kept arrays whole, so the report does not depend
    on the chunk size.
    """
    params, design = config.params, config.design
    theory = {m: _delta_and_variance(m, params, design.nu) for m in config.methods}
    z_half = _z_half(config.level)
    f = config.f_supplied if config.f_supplied is not None else params.f
    methods, total = config.methods, config.replicates
    # Row m holds method m's included gammas and ses, in index order, in its first included[m].
    gammas, ses = np.empty((2, len(methods), total))
    included, rejects, covered = ([0] * len(methods) for _ in range(3))
    failures = [Counter() for _ in methods]
    for start in range(0, total, _CHUNK):
        indices = range(start, min(start + _CHUNK, total))
        tables = sample_tables(params, design, config.seed, indices)
        for m, lanes in enumerate(_fit_block(methods, tables, f, False)):
            gamma, se = lanes.gamma, lanes.se
            k = included[m]
            included[m] += len(gamma)
            gammas[m, k : included[m]], ses[m, k : included[m]] = gamma, se
            rejects[m] += int(np.count_nonzero(_wald_lanes(gamma, se, config.level)[2]))
            covered[m] += int(np.count_nonzero(np.abs(gamma - params.gamma) <= z_half * se))
            failures[m].update(type(e).__name__ for e in lanes.failed if e is not None)

    sqrt_n = math.sqrt(design.n)
    stats = []
    for m, method in enumerate(methods):
        n_inc = included[m]
        if n_inc == 0:
            raise AllReplicatesFailed(
                f"all {total} replicates failed for method {method.value}: {dict(failures[m])}"
            )
        gamma, se = gammas[m, :n_inc], ses[m, :n_inc]
        if config.failures_reject:
            rejects[m] += total - n_inc

        mean_gamma = float(gamma.mean())
        sd_gamma = float(gamma.std(ddof=1)) if n_inc > 1 else math.nan
        sd_se = float(se.std(ddof=1)) if n_inc > 1 else math.nan
        rej_rate = rejects[m] / total
        cov_rate = covered[m] / n_inc

        t_delta, t_var = theory[method]
        stats.append(
            MethodStats(
                method=method,
                n_included=n_inc,
                n_failed=total - n_inc,
                failures=dict(failures[m]),
                mean_gamma=mean_gamma,
                mean_gamma_mc_se=sd_gamma / math.sqrt(n_inc) if n_inc > 1 else math.nan,
                sd_root_n=sd_gamma * sqrt_n,
                sd_root_n_mc_se=sd_gamma * sqrt_n / math.sqrt(2.0 * (n_inc - 1))
                if n_inc > 1
                else math.nan,
                mean_se_root_n=float(se.mean()) * sqrt_n,
                mean_se_root_n_mc_se=sd_se * sqrt_n / math.sqrt(n_inc) if n_inc > 1 else math.nan,
                rejection_rate=rej_rate,
                rejection_rate_mc_se=math.sqrt(rej_rate * (1.0 - rej_rate) / total),
                coverage=cov_rate,
                coverage_mc_se=math.sqrt(cov_rate * (1.0 - cov_rate) / n_inc),
                theory_delta=t_delta,
                theory_sigma=math.sqrt(t_var),
                theory_power=_wald_power(params.gamma + t_delta, t_var, design.n, z_half),
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
    truth itself is the maximizer.  Limits whose iteration stalls above the
    1e-10 bar raise NonConvergence; ``newton_ascent`` states the line-search
    and exit rules.  The sandwich covariance is ``sandwich_s`` under the
    expected masses and the true retrospective case and control
    distributions.  The batch of one of ``limiting_values``.
    """
    return _one(limiting_values(truth, design, [f_used], eps))


def limiting_values(truth: PopulationParams, design: DesignParams, f_values, eps=DEFAULT_EPS):
    """``limiting_value`` at every supplied prevalence, as lanes of one ``newton_ascent``.

    Returns one outcome per value, in order: its LimitPoint, or the error
    it raises alone.  Each lane is bitwise what a one-value call gives.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidInput(f"eps={eps!r} outside (0, 1)")
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
    # The kernels take one row per lane, so the shared truth is tiled once.
    rd = retro_distribution(truth)
    masses = np.tile(_mass_lanes(rd.p_case, rd.p_ctrl, design.nu).reshape(8), (len(lanes), 1))
    p_case, p_ctrl = (np.tile(p.reshape(4), (len(lanes), 1)) for p in (rd.p_case, rd.p_ctrl))
    nu = np.full(len(lanes), design.nu)
    f_lane = np.array(f_values)[lanes]

    def evaluate(s, k):
        alpha, ll, grad, hess = loglik_grad_hess_s(masses.take(k, axis=0), f_lane[k], s)
        return ll, grad, grad, hess, alpha

    def in_box(s):
        return np.logical_and.reduce((_S_LOW < s) & (s < _S_HIGH), axis=1)

    s0 = np.tile([truth.beta, truth.gamma, truth.theta, truth.pi], (len(lanes), 1))
    s, (ll, grad, _, _, alpha), _, failed = newton_ascent(
        evaluate, s0, in_box, 1e-12, 200, _LIMIT_BAR
    )
    gmax = np.abs(grad).max(axis=1)
    good = []
    for k, r in enumerate(lanes):
        if failed[k] and np.isfinite(alpha[k]):
            out[r] = InfeasiblePrevalence(no_derivatives(f_values[r]))
        elif failed[k]:
            out[r] = _alpha_error(f_lane[k])
        elif gmax[k] > _LIMIT_BAR:
            out[r] = NonConvergence(
                f"expected-log-likelihood gradient max-norm {gmax[k]:.2e} at f_used={f_values[r]}"
            )
        else:
            good.append(k)
    if good:
        sandwich = sandwich_s(*(x[good] for x in (masses, p_case, p_ctrl, nu, f_lane, s)))
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
):
    """Theorem-style sweep over supplied prevalences f1 around the true f0.

    Each row carries s*_{f1}, the deviations ||s*_{f1} - s*_{f0}|| and
    ||Sigma_{f1} - Sigma_{f0}||_F, and those deviations divided by |f1 - f0|.
    mc_confirm = (n, replicates) adds a Monte-Carlo check that the
    constrained fit with the misspecified prevalence concentrates on
    gamma*_{f1}.  A row that fails records its error in the row's error
    field.  The limit at the true f0 and every f1 are lanes of one
    ``limiting_values`` call.  A level outside (0, 1), or an mc_confirm
    outside the DesignParams or SimConfig domain (an n too small for one
    case and one control among them), raises InvalidInput before any row is
    computed.
    """
    _check_level(level)
    if mc_confirm is not None:
        mc_n, mc_reps = mc_confirm
        mc_config = SimConfig(
            params=truth,
            design=DesignParams(nu=design.nu, n=mc_n),
            replicates=mc_reps,
            seed=seed,
            level=level,
            methods=(Method.ADJCON,),
        )
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
                st = run_mc(dataclasses.replace(mc_config, seed=seed + idx, f_supplied=f1)).stats[0]
                row = dataclasses.replace(
                    row, mc_mean_gamma=st.mean_gamma, mc_mean_gamma_se=st.mean_gamma_mc_se
                )
            rows.append(row)
        except CCEffError as exc:
            rows.append(MisspecRow(f1, (math.nan,) * 4, error=f"{type(exc).__name__}: {exc}"))
    return rows
