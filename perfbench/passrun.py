"""One benchmark pass in a fresh interpreter.

Usage: python3 passrun.py SPEC.json RESULT.json

SPEC holds ``{"calls": [[name, threads, argv...], ...], "out_dir": DIR,
"digests": [[label, params, replicates, mc_seed], ...]}``.  The pass imports
``cceff.cli`` (PYTHONPATH must reach the package), then calls
``cceff.cli.main`` once per entry with ``CCEFF_THREADS=threads`` and
``--out DIR/<name>.csv`` appended.
RESULT records when the import finished on the system-wide monotonic clock,
each call's exit code, wall time and CPU time (this process and its reaped
children, so pool workers count), and this process's peak RSS.  It also
records the times of the host-speed probes (``calib.py``) run after the
import and after each call.  After the
timed calls it adds the sampled-table digests the output check needs.  An
empty call list measures set-up alone.
"""

import sys
import time

import cceff.cli

T_IMPORTED = time.monotonic()

import json  # noqa: E402  (after the timed import on purpose)
import os  # noqa: E402
import resource  # noqa: E402

import calib  # noqa: E402


def _cpu_s():
    """User plus system CPU seconds of this process and its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    calls = []
    probes = calib.probes()
    for name, threads, *argv in spec["calls"]:
        out = os.path.join(spec["out_dir"], f"{name}.csv")
        os.environ["CCEFF_THREADS"] = str(threads)
        c0, t0 = _cpu_s(), time.perf_counter()
        rc = cceff.cli.main([*argv, "--out", out])
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        calls.append({"name": name, "rc": rc, "wall_s": wall, "cpu_s": cpu})
        probes += calib.probes()
    self_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    import check

    digests = {}
    for label, params, replicates, mc_seed in spec["digests"]:
        try:
            digests[label] = check.table_digest(params, replicates, mc_seed)
        except Exception as exc:  # a renamed or broken sampling API fails the check
            digests[label] = f"{type(exc).__name__}: {exc}"
    result = {
        "t_imported": T_IMPORTED,
        "probes": probes,
        "digests": digests,
        "calls": calls,
        "self_maxrss_kb": self_maxrss_kb,
        "children_maxrss_kb": children_maxrss_kb,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
