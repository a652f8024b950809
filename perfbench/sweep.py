"""Run the benchmark over several seeds, interleaving workloads, and report spreads.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1-3 --record perfbench/trajectory.json

Each seed runs every workload once (``--trace 0``), rotating the workload
order from seed to seed so that no workload always runs first; seeds in
``--trace-seeds`` add a traced run per workload.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; a spread at or above a third of the bound is flagged.
``--record`` appends the medians and quartiles, with the environment, as one
point of the trajectory file; ``as_measured`` holds those of the unscaled
times and of the host speed (``calib.py``).
"""

import argparse
from datetime import datetime, timezone
import json
from pathlib import Path
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    details = HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    details = json.loads(details.read_text()) if details.exists() else {}
    return proc.returncode, result, details


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--trace-seeds", type=_seeds, default=[])
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--record", type=Path, default=None, help="trajectory file to append to")
    parser.add_argument("--label", default="", help="what the trajectory point measures")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {0: {}, 1: {}} for w in names}
    measured = {w: {} for w in names}  # unscaled times and host speed (run.py)
    env = None
    bad = []
    for k, seed in enumerate(args.seeds):
        order = names[k % len(names):] + names[: k % len(names)]
        for trace in (0, 1) if seed in args.trace_seeds else (0,):
            for w in order:
                rc, result, details = run_one(w, seed, bench["run_seconds"], trace)
                run_env = details.get("env", {})
                env = env or run_env
                ok = rc == 0 and result is not None and result["correct"]
                if not ok:
                    bad.append((w, seed, trace, rc))
                print(f"{w} seed={seed} trace={trace} rc={rc} correct={ok} "
                      f"elapsed={run_env.get('elapsed_s', 0):.1f}s", flush=True)
                for name, m in (result or {}).get("metrics", {}).items():
                    values[w][trace].setdefault(name, []).append(m["value"])
                for name, v in details.get("all_metrics", {}).items():
                    if trace == 0 and (name.startswith("raw.") or name == "host_speed"):
                        measured[w].setdefault(name, []).append(v)

    point = {}
    for w in names:
        print(f"\n{w}: {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} spread  bound")
        e2e = {name: summary(v) for name, v in values[w][0].items()}
        for name, s in e2e.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            if name == "setup_s":
                flag = ""  # setup_s is gated on its median only
            print(f"{'':<{len(w) + 2}}{name:<18} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:6.3f}  {bounds[name]}{flag}")
        point[w] = {"end_to_end": e2e,
                    "as_measured": {name: summary(v) for name, v in measured[w].items()},
                    "per_layer": {name: summary(v) for name, v in values[w][1].items()}}
    if bad:
        print(f"\nruns with failed checks or exit codes: {bad}")
    if args.record:
        trajectory = json.loads(args.record.read_text()) if args.record.exists() else {"points": []}
        keep = ("nproc", "cpu_model", "python", "numpy", "scipy", "git_sha", "src_sha256",
                "threads", "thread_env")
        trajectory["points"].append({
            "label": args.label,
            "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "trace_seeds": args.trace_seeds,
            "env": {k: env.get(k) for k in keep} if env else {},
            "workloads": point,
        })
        args.record.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
