"""cceff benchmark: end-to-end runs through the CLI and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc_fig1 --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; BENCHMARK.json lists them with the
metrics.  ``--trace 0`` runs the workload's passes, each in a fresh
interpreter with ``CCEFF_THREADS`` set explicitly for every call, until
``--seconds`` is up, and reports the end-to-end metrics.  ``--trace 1`` runs
the workload again in this process with ``CCEFF_THREADS=1``, untraced and
then traced (``spans.py``), and reports the per-layer metrics; the spans go
to ``perfbench/out``.  Every CLI output is checked against
``reference.json`` (``check.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check passed.

End-to-end metrics (``--trace 0``), every time in reference seconds (below):

* ``setup_s``: median over the run's fresh interpreters of the time from
  spawning one to ``cceff.cli`` imported;
* ``items_per_s``: items (replicates, or theory and misspec rows) over the
  CLI calls' wall time at ``CCEFF_THREADS=nproc``, set-up excluded;
* ``items_per_s_1p``: the same at ``CCEFF_THREADS=1`` (closed_form, which
  never reads the variable, reports its nproc figure);
* ``cpu_ms_per_item``: user plus system CPU of the pass process and its pool
  workers per item, at nproc;
* ``peak_rss_mb``: median over passes of the pass process's peak RSS plus
  the largest summed peak RSS of its live children.

Every pass makes every call of the workload once per thread setting, and a
run makes at least ``MIN_PASSES`` passes, then more while the next one is
expected to end within ``--seconds``.  Each call counts with the median of
its times over the run's passes.  The host's speed moves by up to a factor
of two from second to second and from run to run, so every time is first
scaled by its pass's host speed, measured by the probe loop in ``calib.py``:
a reference second is the time in which that loop runs 100 times.  The
result also prints the times as measured (``raw.*``) and the median host
speed; ``result.json`` keeps them.

``attempted`` counts output rows (one MC method row, one theory row or one
misspec row); ``failed`` counts rows that differ from the reference.  Rows
the CLI itself reports as failed but that match the reference (today the two
non-converging misspec rows) are counted in the ``error_rate`` metric only.
"""

import argparse
import contextlib
import hashlib
from importlib import metadata
import json
import os
from pathlib import Path
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calib
import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2  # passes per run, however short --seconds is
MIN_SETUPS = 4  # fresh-interpreter set-ups per run; import-only passes fill up
POLL_S = 0.05  # how often the process tree's peak RSS is sampled
RUN_LIMIT_S = 170  # a pass still running this long after the run began is killed


# ------------------------------------------------------------ environment

def _nproc():
    return len(os.sched_getaffinity(0))


def _cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "cceff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, nproc):
    def version(dist):
        with contextlib.suppress(metadata.PackageNotFoundError):
            return metadata.version(dist)
        return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "threads": {"nproc": nproc, "1p": 1, "traced": 1},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


# ------------------------------------------------------------ fresh-interpreter passes

def _tree(pid):
    """Descendants of pid, from /proc/<pid>/task/*/children."""
    found = []
    with contextlib.suppress(OSError):
        for task in os.listdir(f"/proc/{pid}/task"):
            with contextlib.suppress(OSError):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    for child in fh.read().split():
                        found.append(int(child))
                        found.extend(_tree(int(child)))
    return found


def _hwm_kb(pid):
    with contextlib.suppress(OSError, ValueError):
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    return None


def run_pass(steps, nproc, workdir, deadline, digest_calls):
    """Run one pass in a fresh interpreter; returns its measurements or None on failure."""
    workdir.mkdir(parents=True)
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec = {"calls": [[s.name, s.threads, *s.call.argv] for s in steps], "out_dir": str(workdir),
            "digests": [[c.label, c.params, c.items, c.mc_seed] for c in digest_calls]}
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, CCEFF_THREADS=str(nproc))  # each call sets its own
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    children_peak_kb = 0
    before_spawn = calib.probes()
    with open(workdir / "log.txt", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py"), str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=workdir,
            start_new_session=True,  # its own process group, so a kill reaches pool workers
        )
        try:
            while True:
                # Peak of the live children's summed high-water marks: a worker
                # pool's workers are alive together, successive pools are not.
                alive = sum(_hwm_kb(pid) or 0 for pid in _tree(proc.pid))
                children_peak_kb = max(children_peak_kb, alive)
                try:
                    proc.wait(timeout=POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
        finally:
            # Whatever the pass left running (it, or orphaned pool workers) is killed.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return None
    r = json.loads(result_path.read_text())
    children_kb = children_peak_kb or r["children_maxrss_kb"]
    return {
        "setup_s": r["t_imported"] - t_spawn,
        "scale": calib.scale(before_spawn + r["probes"]),  # host speed relative to the reference
        "calls": r["calls"],
        "digests": r["digests"],
        "wall_s": sum(c["wall_s"] for c in r["calls"]),
        "cpu_s": sum(c["cpu_s"] for c in r["calls"]),
        "peak_rss_mb": (r["self_maxrss_kb"] + children_kb) / 1024.0,
    }


# ------------------------------------------------------------ output checks

class Checker:
    """Accumulates row counts and problems over every checked call of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = check.load_reference()[workload.name]
        self.rows = self.failed = self.errored = 0
        self.problems = []

    def call(self, call, out_dir, rc, name=None):
        """Check the CSV the call wrote as ``out_dir/<name>.csv`` (name defaults to its label)."""
        name = name or call.label
        ref = self.reference["calls"].get(call.label)
        if ref is None or ref["argv"] != list(call.argv):
            self.problems.append(f"{name}: no reference for this argv")
            self.rows += 1
            self.failed += 1
            return
        rows, failed, errored, problems = check.check_call(
            call.kind, ref, str(out_dir / f"{name}.csv"), rc)
        self.rows += rows
        self.failed += failed
        self.errored += errored
        self.problems += [f"{out_dir.name}/{name}: {p}" for p in problems]

    def digest(self, call, value):
        """Compare an MC block's sampled-table digest with the reference."""
        if value != self.reference["calls"].get(call.label, {}).get("digest"):
            self.problems.append(f"{call.label}: sampled-table digest differs")
            self.failed += 1

    def missing(self, calls, why):
        for call in calls:
            n = len(self.reference["calls"].get(call.label, {"rows": [0]})["rows"])
            self.rows += n
            self.failed += n
            self.errored += n
        self.problems.append(why)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems

    @property
    def error_rate(self):
        return self.errored / self.rows if self.rows else 1.0


# ------------------------------------------------------------ untraced run

def timed_run(wl, args, rng, nproc, out_dir, t_start):
    checker = Checker(wl)
    samples = {}  # (config, label) -> [(wall_s, cpu_s, scale), ...] over the passes
    items = {}  # label -> items of that call
    setups, rss, durations = [], [], []  # setups: (setup_s, scale) per pass
    digested = set()
    k = 0
    while k < MIN_PASSES or time.monotonic() - t_start + statistics.median(durations) <= args.seconds:
        t_pass = time.monotonic()
        steps = wl.pass_steps(rng, nproc)
        calls = list({s.call.label: s.call for s in steps}.values())
        pass_dir = out_dir / f"pass{k:02d}"
        k += 1
        digest_calls = [c for c in calls if c.mc_seed is not None and c.label not in digested]
        digested.update(c.label for c in digest_calls)
        try:
            r = run_pass(steps, nproc, pass_dir, t_start + RUN_LIMIT_S, digest_calls)
        except subprocess.TimeoutExpired:
            r = None
        durations.append(time.monotonic() - t_pass)
        if r is None:
            checker.missing([s.call for s in steps], f"{pass_dir.name}: pass failed or timed out")
            if time.monotonic() - t_start > RUN_LIMIT_S:
                break
            continue
        for step, c in zip(steps, r["calls"]):
            checker.call(step.call, pass_dir, c["rc"], step.name)
            samples.setdefault((step.config, step.call.label), []).append(
                (c["wall_s"], c["cpu_s"], r["scale"]))
            items[step.call.label] = step.call.items
        for call in digest_calls:
            checker.digest(call, r["digests"].get(call.label))
        setups.append((r["setup_s"], r["scale"]))
        rss.append(r["peak_rss_mb"])
        print(f"  {pass_dir.name} calls={len(steps)} setup={r['setup_s']:.3f}s "
              f"wall={r['wall_s']:.3f}s cpu={r['cpu_s']:.3f}s rss={r['peak_rss_mb']:.1f}MiB", flush=True)
    for j in range(MIN_SETUPS - len(setups)):
        try:
            r = run_pass((), nproc, out_dir / f"setup{j:02d}", t_start + RUN_LIMIT_S, ())
        except subprocess.TimeoutExpired:
            break
        if r is not None:
            setups.append((r["setup_s"], r["scale"]))

    def timing_metrics(scaled):
        """Throughput, CPU and set-up metrics, in reference seconds (calib.py) if scaled."""
        def med(values):
            return statistics.median(t * (sc if scaled else 1.0) for t, sc in values)

        def totals(config):
            keys = [key for key in samples if key[0] == config]
            return (sum(med((w, sc) for w, _, sc in samples[key]) for key in keys),
                    sum(med((c, sc) for _, c, sc in samples[key]) for key in keys),
                    sum(items[label] for _, label in keys))

        wall, cpu, n_items = totals("nproc")
        wall_1p, _, n_items_1p = totals("1p")
        if not n_items_1p:  # closed_form has no 1-thread calls: it never reads CCEFF_THREADS
            wall_1p, n_items_1p = wall, n_items
        return {
            "setup_s": (med(setups) if setups else 0.0, "s"),
            "items_per_s": (n_items / wall if wall else 0.0, "items/s"),
            "items_per_s_1p": (n_items_1p / wall_1p if wall_1p else 0.0, "items/s"),
            "cpu_ms_per_item": (1e3 * cpu / n_items if n_items else 0.0, "ms"),
        }

    metrics = timing_metrics(True)
    metrics["peak_rss_mb"] = (statistics.median(rss) if rss else 0.0, "MiB")
    info = {f"raw.{name}": value for name, value in timing_metrics(False).items()}
    info["error_rate"] = (checker.error_rate, "share")
    info["passes"] = (k, "count")
    info["host_speed"] = (statistics.median(sc for _, sc in setups) if setups else 0.0, "ratio")
    return metrics, checker, info


# ------------------------------------------------------------ traced run

def run_in_process(calls, out_dir, tracer=None):
    """Run CLI calls in this process; returns (total wall seconds, exit codes)."""
    import cceff.cli

    out_dir.mkdir(parents=True)
    rcs = []
    t0 = time.perf_counter()
    with open(out_dir / "log.txt", "w") as log, contextlib.redirect_stdout(log):
        for k, call in enumerate(calls):
            if tracer is not None:
                tracer.current_call = k
            try:
                rc = cceff.cli.main([*call.argv, "--out", str(out_dir / f"{call.label}.csv")])
            except SystemExit as exc:
                rc = exc.code
            rcs.append(rc)
    return time.perf_counter() - t0, rcs


def _digest_in_process(call):
    try:
        return check.table_digest(call.params, call.items, call.mc_seed)
    except Exception as exc:  # a renamed or broken sampling API fails the check
        return f"{type(exc).__name__}: {exc}"


def fail_shares(calls, out_dir):
    """Typed per-replicate failures over attempts, per method, from simulate CSVs."""
    failed, total = {}, {}
    for call in calls:
        path = out_dir / f"{call.label}.csv"
        if call.kind != "simulate" or not path.exists():
            continue
        header, rows = check.read_csv(str(path))
        col = {name: header.index(name) for name in ("method", "n_included", "n_failed")}
        for row in rows:
            method = row[col["method"]]
            failed[method] = failed.get(method, 0) + int(row[col["n_failed"]])
            total[method] = total.get(method, 0) + int(row[col["n_included"]]) + int(row[col["n_failed"]])
    return {m: (failed.get(m, 0) / total[m] if total.get(m) else 0.0)
            for m in ("mar", "adj", "adjcon")}


def traced_run(wl, args, rng, out_dir):
    os.environ["CCEFF_THREADS"] = "1"
    import spans

    calls = wl.trace_calls(rng)
    items = sum(c.items for c in calls)
    checker = Checker(wl)
    wall_plain, rcs = run_in_process(calls, out_dir / "untraced")
    for call, rc in zip(calls, rcs):
        checker.call(call, out_dir / "untraced", rc)
        if call.mc_seed is not None:
            checker.digest(call, _digest_in_process(call))
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall_traced, rcs = run_in_process(calls, out_dir / "traced", tracer)
    finally:
        tracer.uninstall()
    for call, rc in zip(calls, rcs):
        checker.call(call, out_dir / "traced", rc)
    print(f"  in-process CCEFF_THREADS=1 calls={len(calls)} items={items} "
          f"untraced={wall_plain:.3f}s traced={wall_traced:.3f}s", flush=True)

    theory_rows = sum(c.items for c in calls if c.kind == "theory")
    metrics = spans.layer_metrics(tracer, wall_traced, theory_rows)
    for method, share in fail_shares(calls, out_dir / "traced").items():
        metrics[f"estimators.{method}.fail_share"] = (share, "share")
    metrics["error_rate"] = (checker.error_rate, "share")
    metrics["trace.overhead"] = ((items / wall_traced) / (items / wall_plain), "ratio")
    spans_path = out_dir / "spans.csv"
    tracer.write(spans_path)
    print(f"  spans: {len(tracer.site)} written to {spans_path.relative_to(ROOT)}")
    if tracer.absent:
        print(f"  absent (reported as 0): {', '.join(tracer.absent)}")
    return metrics, checker


# ------------------------------------------------------------ reporting

def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def print_end_to_end(metrics, info):
    spec = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    print(f"\n{'end-to-end metric':<20} {'value':>14} {'unit':<8} better  bound")
    for name, (value, unit) in {**metrics, **info}.items():
        m = spec.get(name)
        extra = f"{m['better']:<7} {m['bound']}" if m else "(not gated)"
        print(f"{name:<20} {value:>14.6g} {unit:<8} {extra}")


def print_per_layer(metrics):
    with open(HERE / "layers.json") as fh:
        groups = json.load(fh)["groups"]
    print(f"\n{'per-layer metric':<44} {'value':>12} unit")
    shown = set()
    for group in groups:
        print(f"-- should move: {group['moves']}")
        for name in group["metrics"]:
            if name in metrics:
                value, unit = metrics[name]
                print(f"   {name:<41} {value:>12.6g} {unit}")
                shown.add(name)
    rest = sorted(set(metrics) - shown)
    if rest:
        print("-- not in layers.json")
    for name in rest:
        value, unit = metrics[name]
        print(f"   {name:<41} {value:>12.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cceff" / "cli.py").is_file():
        print(f"perfbench: no cceff sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.monotonic()
    wl = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    nproc = _nproc()
    env = environment(args, nproc)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={nproc} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"git={env['git_sha']}", flush=True)

    if args.trace:
        metrics, checker = traced_run(wl, args, rng, out_dir)
        print_per_layer(metrics)
        reported = {m["name"]: metrics.get(m["name"], (0.0, m["unit"]))
                    for m in _benchmark_spec()["per_layer"]}
    else:
        metrics, checker, info = timed_run(wl, args, rng, nproc, out_dir, t_start)
        print_end_to_end(metrics, info)
        reported = metrics
        metrics = {**metrics, **info}

    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    env["loadavg_end"] = os.getloadavg()
    env["elapsed_s"] = time.monotonic() - t_start
    result = {
        "correct": checker.correct,
        "attempted": checker.rows,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(
        {**result, "env": env, "all_metrics": {k: v for k, (v, _) in metrics.items()},
         "problems": checker.problems}, indent=1))
    print(f"elapsed {env['elapsed_s']:.1f}s; details in {out_dir.relative_to(ROOT)}/result.json")
    print(json.dumps(result))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
