"""In-process tracing of cceff's layers, from the benchmark's side.

``Tracer.install`` rebinds, for the traced run only, the names one cceff
module uses to call public functions of another (or its own public
functions, where the call goes through the module global), so that each
call records a span: site, parent span, start, end and the index of the
CLI call it belongs to.  Spans stay
in memory in flat arrays and are written out by ``Tracer.write``.  A name
that no longer exists is listed as absent instead of failing, so the
benchmark survives code that removes it.

Self time of a span is its duration minus the durations of its child spans;
spans nest strictly because the traced run is single-threaded.
"""

from array import array
import functools
import importlib
import time

import numpy as np

# (module whose global is rebound, attribute, span name).  Span names use the
# defining module, with ``_constrained`` written ``constrained``.
SITES = [
    ("cli", "main", "cli.main"),
    ("cli", "theory_curve", "asymptotics.theory_curve"),
    ("cli", "run_mc", "simulate.run_mc"),
    ("cli", "misspec_sweep", "simulate.misspec_sweep"),
    ("cli", "alpha_from_prevalence", "model.alpha_from_prevalence"),
    ("simulate", "sample_table", "simulate.sample_table"),
    ("simulate", "binom", "simulate.binom_ppf"),
    ("simulate", "retro_distribution", "model.retro_distribution"),
    ("simulate", "fit_marginal", "estimators.fit_marginal"),
    ("simulate", "fit_adjusted", "estimators.fit_adjusted"),
    ("simulate", "fit_constrained", "estimators.fit_constrained"),
    ("simulate", "wald_test", "estimators.wald_test"),
    ("simulate", "sigma_M_sq", "asymptotics.sigma_M_sq"),
    ("simulate", "sigma_A_sq", "asymptotics.sigma_A_sq"),
    ("simulate", "sigma_AC_sq", "asymptotics.sigma_AC_sq"),
    ("simulate", "asymptotic_power", "asymptotics.asymptotic_power"),
    ("simulate", "limiting_value", "simulate.limiting_value"),
    ("simulate", "run_mc", "simulate.run_mc"),
    ("simulate", "expected_masses", "constrained.expected_masses"),
    ("simulate", "loglik_grad_hess_s", "constrained.loglik_grad_hess_s"),
    ("simulate", "sandwich_s", "constrained.sandwich_s"),
    ("estimators", "fit_adjusted", "estimators.fit_adjusted"),
    ("estimators", "loglik_grad_hess_s", "constrained.loglik_grad_hess_s"),
    ("estimators", "alpha_from_prevalence", "model.alpha_from_prevalence"),
    ("_constrained", "profile_parts", "constrained.profile_parts"),
    ("_constrained", "loglik_grad_hess_s", "constrained.loglik_grad_hess_s"),
    ("_constrained", "expected_masses", "constrained.expected_masses"),
    ("_constrained", "alpha_from_prevalence", "model.alpha_from_prevalence"),
    ("_constrained", "retro_distribution", "model.retro_distribution"),
    ("asymptotics", "expected_info_s", "constrained.expected_info_s"),
    ("asymptotics", "expected_info_u", "constrained.expected_info_u"),
    ("asymptotics", "alpha_from_prevalence", "model.alpha_from_prevalence"),
    ("asymptotics", "retro_distribution", "model.retro_distribution"),
    ("asymptotics", "sigma_M_sq", "asymptotics.sigma_M_sq"),
    ("asymptotics", "sigma_A_sq", "asymptotics.sigma_A_sq"),
    ("asymptotics", "sigma_AC_sq", "asymptotics.sigma_AC_sq"),
    ("asymptotics", "asymptotic_power", "asymptotics.asymptotic_power"),
    ("asymptotics", "pitman_are_M_vs_AC", "asymptotics.pitman_are_M_vs_AC"),
]

LAYERS = ("cli", "simulate", "estimators", "constrained", "model", "asymptotics")


class _PpfProxy:
    """Stands in for ``scipy.stats.binom`` with a traced ``ppf``."""

    def __init__(self, dist, ppf):
        self._dist = dist
        self.ppf = ppf

    def __getattr__(self, name):
        return getattr(self._dist, name)


class Tracer:
    def __init__(self):
        self.site = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("q")
        self.end = array("q")
        self.note = {}  # span index -> FitResult.iterations or exception name
        self.current_call = 0  # index of the CLI call being traced
        self._stack = [-1]
        self._saved = []
        self.absent = []

    def _wrap(self, site_index, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.site.append(site_index)
            self.parent.append(stack[-1])
            self.call.append(self.current_call)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[i] = clock()
                self.note[i] = type(exc).__name__
                raise
            finally:
                stack.pop()
            self.end[i] = clock()
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                self.note[i] = iterations
            return result

        return traced

    def install(self):
        for index, (module, attr, _) in enumerate(SITES):
            mod = importlib.import_module(f"cceff.{module}")
            original = getattr(mod, attr, None)
            if original is None or (attr == "binom" and not hasattr(original, "ppf")):
                self.absent.append(f"cceff.{module}.{attr}")
                continue
            if attr == "binom":
                wrapped = _PpfProxy(original, self._wrap(index, original.ppf))
            else:
                wrapped = self._wrap(index, original)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def arrays(self):
        site = np.frombuffer(self.site, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return site, parent, start, end

    def write(self, path):
        """Spans as CSV: id, parent, CLI call, name, calling module, start and end in ns, note."""
        site, parent, start, end = self.arrays()
        t0 = int(start.min()) if len(start) else 0
        with open(path, "w") as fh:
            fh.write("id,parent,call,name,caller,start_ns,end_ns,note\n")
            for i in range(len(site)):
                module, _, name = SITES[site[i]]
                fh.write(f"{i},{parent[i]},{self.call[i]},{name},{module},"
                         f"{start[i] - t0},{end[i] - t0},{self.note.get(i, '')}\n")


def _per_name(tracer):
    """Span name -> (indices, inclusive seconds, self seconds) of its spans."""
    site, parent, start, end = tracer.arrays()
    dur = (end - start).astype(np.float64) * 1e-9
    nested = parent >= 0
    self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    names = [s[2] for s in SITES]
    out = {}
    for name in dict.fromkeys(names):
        sites = [k for k, n in enumerate(names) if n == name]
        idx = np.flatnonzero(np.isin(site, sites))
        out[name] = (idx, dur[idx], self_s[idx])
    return out, parent


def layer_metrics(tracer, wall_s, theory_rows):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    spans, parent = _per_name(tracer)
    note = tracer.note
    m = {}

    def calls(name):
        return len(spans[name][0])

    def self_s(name):
        return float(spans[name][2].sum())

    def put(key, value, unit):
        m[key] = (float(value), unit)

    for name in ("estimators.fit_constrained", "estimators.fit_adjusted",
                 "constrained.loglik_grad_hess_s", "constrained.sandwich_s",
                 "model.alpha_from_prevalence", "model.retro_distribution",
                 "simulate.sample_table", "simulate.binom_ppf",
                 "simulate.limiting_value", "asymptotics.sigma_AC_sq"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
    for name in ("estimators.fit_marginal", "constrained.profile_parts", "simulate.run_mc",
                 "asymptotics.theory_curve", "asymptotics.asymptotic_power"):
        put(f"{name}.self_s", self_s(name), "s")
    for name in ("constrained.expected_info_s", "constrained.expected_info_u"):
        put(f"{name}.calls", calls(name), "count")
    put("constrained.expected_info.self_s",
        self_s("constrained.expected_info_s") + self_s("constrained.expected_info_u"), "s")
    put("cli.self_s", self_s("cli.main"), "s")

    idx, dur, _ = spans["estimators.fit_constrained"]
    med = float(np.median(dur)) if len(dur) else 0.0
    put("estimators.fit_constrained.p50_ms", med * 1e3, "ms")
    put("estimators.fit_constrained.p99_ms",
        float(np.percentile(dur, 99)) * 1e3 if len(dur) else 0.0, "ms")
    put("estimators.fit_constrained.slow_share",
        dur[dur > 10.0 * med].sum() / dur.sum() if len(dur) else 0.0, "share")
    put("estimators.fit_constrained.incl_share", dur.sum() / wall_s, "share")
    iters = {int(i): note[i] for i in idx if isinstance(note.get(i), int)}
    put("estimators.fit_constrained.iters_mean",
        np.mean(list(iters.values())) if iters else 0.0, "count")
    put("estimators.fit_constrained.iters_max", max(iters.values(), default=0), "count")
    # Likelihood evaluations made directly by fits that report their iterations.
    evals_idx = [i for i in spans["constrained.loglik_grad_hess_s"][0]
                 if SITES[tracer.site[i]][0] == "estimators" and int(parent[i]) in iters]
    total_iters = sum(iters.values())
    put("constrained.evals_per_iter", len(evals_idx) / total_iters if total_iters else 0.0, "ratio")

    adj_iters = [note[i] for i in spans["estimators.fit_adjusted"][0]
                 if isinstance(note.get(i), int)]
    put("estimators.fit_adjusted.iters_mean", np.mean(adj_iters) if adj_iters else 0.0, "count")
    put("asymptotics.sigma_AC_sq.calls_per_row",
        calls("asymptotics.sigma_AC_sq") / theory_rows if theory_rows else 0.0, "ratio")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in spans.items():
        layer_self[name.partition(".")[0]] += float(own.sum())
    for layer, value in layer_self.items():
        put(f"layer.{layer}.self_s", value, "s")
        put(f"layer.{layer}.share", value / wall_s, "share")
    put("trace.wall_s", wall_s, "s")
    put("trace.remainder_s", wall_s - sum(layer_self.values()), "s")
    put("trace.spans", len(tracer.site), "count")
    return m
