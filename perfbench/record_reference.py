"""Record the reference outputs that ``check.py`` compares every pass with.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Runs every MC block of every pool and each closed-form call once, in this
process, and writes ``perfbench/reference.json``: per call its exit code,
CSV header and rows as text, and for MC blocks the sampled-table digest.
Outputs are recorded as the program gives them, failures included.  Only
re-record when a change of results is intended and reviewed.
"""

from datetime import datetime, timezone
import json
import random
import sys

import check
from run import OUT, SRC, _git_sha, _src_sha256, run_in_process
from workloads import WORKLOADS, MCWorkload


def main():
    sys.path.insert(0, str(SRC))
    out_root = OUT / "reference"
    reference = {"source": {"git_sha": _git_sha(), "src_sha256": _src_sha256(),
                            "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}}
    for name, wl in WORKLOADS.items():
        if isinstance(wl, MCWorkload):
            calls = [wl.block(seed) for seed in wl.seeds]
        else:
            calls = sorted(wl.calls(random.Random(0)), key=lambda c: c.label)
        out_dir = out_root / name
        if out_dir.exists():
            raise SystemExit(f"{out_dir} exists; remove it first")
        _, rcs = run_in_process(calls, out_dir)
        entries = {}
        for call, rc in zip(calls, rcs):
            header, rows = check.read_csv(str(out_dir / f"{call.label}.csv"))
            entry = {"argv": list(call.argv), "rc": rc, "header": header, "rows": rows}
            if call.mc_seed is not None:
                entry["digest"] = check.table_digest(call.params, call.items, call.mc_seed)
            entries[call.label] = entry
            print(f"{name}/{call.label}: rc={rc} rows={len(rows)}", flush=True)
        reference[name] = {"calls": entries}
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
