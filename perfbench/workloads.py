"""The benchmark's workloads: which CLI calls each pass makes, and in what order.

A pass is one fresh interpreter that imports ``cceff.cli`` and then makes
every CLI call of its workload once per thread setting, with
``CCEFF_THREADS`` set explicitly for each call.  A run repeats passes until
its time is up (``run.py``), so every call is timed several times and counts
with its median.  The program sees only the argv built here; ``--out`` is
appended per call by the pass runner.

Monte Carlo workloads run a fixed pool of blocks, one block being a
``cceff simulate`` call with one MC seed and a fixed replicate count.  Every
pass runs every block, once with ``CCEFF_THREADS=1`` and once with nproc,
and the benchmark seed only orders them.  Two facts force a fixed pool:

* the output checks compare against reference outputs stored per block, so
  a block must be one the reference file knows;
* per-replicate cost is heavy-tailed: at the Fig. 1 point about 3 % of the
  tables run AdjCon Newton to its 100-iteration cap and carry three quarters
  of the time, and 30-replicate mc_sparse blocks cost from 6 s to 14 s.  Run
  throughput over freshly drawn seeds would spread by tens of percent.

mc_fig1 uses seeds 1-5.  mc_sparse uses seeds 5-7, so that its 18 tables
hold each typed failure the workload exists for (seeds 1-3 hold none): an
AdjCon ``NonConvergence`` (seed 5), and a Mar ``ZeroCell`` with the Adj
quasi-separation row it implies and an AdjCon ``SingularInformation``
(seed 7), besides capped Newton runs that converge.
"""

from dataclasses import dataclass

import numpy as np

FIG1 = dict(f=0.3, beta=1.0, gamma=0.3, theta=0.4, pi=0.5, nu=1.0, n=20000)
SPARSE = dict(f=0.02, beta=1.5, gamma=0.0, theta=0.1, pi=0.08, nu=0.5, n=150)

# (beta, gamma, theta, pi, nu); the third panel takes sigma_AC_sq's s-frame route.
THEORY_PANELS = [
    (1.0, 0.3, 0.4, 0.5, 1.0),
    (1.0, 0.05, 0.4, 0.5, 1.0),
    (5e-4, 0.3, 0.4, 0.5, 1.0),
    (2.0, 0.3, 0.2, 0.3, 3.0),
    (-1.5, 0.5, 0.6, 0.2, 0.5),
]
THEORY_GRID = "0.01:0.99:99"
# The 91-point misspec grid 0.05:0.95:91 (the same floats the CLI's --f1-grid
# makes), run as MISSPEC_PARTS calls over consecutive runs of it: a single
# 6-10 s call would leave the host-speed probes (calib.py) nothing to sample
# while most of a pass runs.  Each call also recomputes the row at the true f.
MISSPEC_F1 = [float(x) for x in np.linspace(0.05, 0.95, 91)]
MISSPEC_PARTS = 7


def _num(x):
    return repr(float(x)) if not float(x).is_integer() else str(int(x))


TRUTH_KEYS = ("f", "beta", "gamma", "theta", "pi", "nu")


def _flags(params, keys=TRUTH_KEYS + ("n",)):
    out = []
    for key in keys:
        out += [f"--{key}", _num(params[key])]
    return out


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a label (unique in a pass), its kind and argv without --out."""

    label: str
    kind: str  # "simulate", "theory" or "misspec"
    argv: tuple
    items: int  # replicates for simulate, output rows otherwise
    mc_seed: int | None = None
    params: dict | None = None  # MC truth and design, for the sampled-table digest


@dataclass(frozen=True)
class Step:
    """One timed call of a pass, at one thread setting."""

    call: Call
    config: str  # "nproc" or "1p": which end-to-end metrics the call feeds
    threads: int

    @property
    def name(self):
        """Unique in a pass; names the call's CSV."""
        return f"{self.call.label}-{self.config}"


@dataclass(frozen=True)
class MCWorkload:
    name: str
    why: str
    params: dict
    seeds: tuple
    replicates: int

    def block(self, seed):
        argv = ["simulate", *_flags(self.params),
                "--replicates", str(self.replicates), "--seed", str(seed)]
        return Call(f"seed{seed}", "simulate", tuple(argv), self.replicates, seed, self.params)

    def blocks(self):
        return [self.block(s) for s in self.seeds]

    def pass_steps(self, rng, nproc):
        """Every block at both thread settings; block and setting order drawn from rng."""
        steps = []
        for call in rng.sample(self.blocks(), len(self.seeds)):
            configs = [("1p", 1), ("nproc", nproc)]
            rng.shuffle(configs)
            steps += [Step(call, config, threads) for config, threads in configs]
        return tuple(steps)

    def trace_calls(self, rng):
        return rng.sample(self.blocks(), len(self.seeds))


@dataclass(frozen=True)
class ClosedFormWorkload:
    name: str
    why: str

    def calls(self, rng):
        """The five theory panels and the misspec parts, in an order drawn from rng."""
        calls = []
        for k, (beta, gamma, theta, pi, nu) in enumerate(THEORY_PANELS):
            argv = ["theory", "--beta", _num(beta), "--gamma", _num(gamma),
                    "--theta", _num(theta), "--pi", _num(pi), "--nu", _num(nu),
                    "--f-grid", THEORY_GRID]
            calls.append(Call(f"theory{k}", "theory", tuple(argv), 99))
        for k, part in enumerate(np.array_split(MISSPEC_F1, MISSPEC_PARTS)):
            argv = ["misspec", *_flags(FIG1, keys=TRUTH_KEYS),
                    "--f1-list", ",".join(repr(float(x)) for x in part)]
            calls.append(Call(f"misspec{k}", "misspec", tuple(argv), len(part)))
        return tuple(rng.sample(calls, len(calls)))

    def pass_steps(self, rng, nproc):
        """All calls at nproc.

        closed_form never reads CCEFF_THREADS, and items_per_s_1p is scoped to
        the MC workloads, so there are no 1-thread calls here.
        """
        return tuple(Step(call, "nproc", nproc) for call in self.calls(rng))

    def trace_calls(self, rng):
        return list(self.calls(rng))


WORKLOADS = {
    w.name: w
    for w in (
        MCWorkload(
            "mc_fig1",
            "the paper's Fig. 1 point and the hot path: AdjCon Newton does ~90 % of the work, sampling most of the rest",
            FIG1, seeds=(1, 2, 3, 4, 5), replicates=40,
        ),
        MCWorkload(
            "mc_sparse",
            "small unbalanced null design with rare exposure: typed fit failures and capped Newton runs dominate",
            SPARSE, seeds=(5, 6, 7), replicates=6,
        ),
        ClosedFormWorkload(
            "closed_form",
            "theory curves on five panels plus a 91-row misspec sweep: no sampling, no fitting",
        ),
    )
}
