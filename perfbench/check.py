"""Output checks against the reference outputs in ``reference.json``.

Every CLI call of a pass is compared with the reference recorded for its
workload and label by ``record_reference.py``:

* exit code: exact;
* Monte Carlo rows: method, included and failed counts and the failure kinds
  exact; every aggregate within ``RTOL``/``ATOL``;
* theory and misspec rows: every number within ``RTOL``/``ATOL``; a misspec
  row's error kind (the exception name before the colon) exact, its message
  not compared;
* the first ``DIGEST_TABLES`` tables of each MC block, drawn through
  ``cceff.simulate.sample_table``: SHA-256 of their cells, bitwise.

NaN equals NaN.  The tolerance admits last-digit changes from reordered
arithmetic (about 1e-15) and the u-frame versus s-frame difference of the
constrained variance (up to 8e-8), and flags anything larger as a changed
result.
"""

import csv
import hashlib
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12
DIGEST_TABLES = 4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_EXACT_SIM_COLUMNS = {"method", "n_included", "n_failed", "failures"}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(got, want):
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _error_kind(text):
    return text.partition(":")[0].strip()


def _cell_ok(kind, column, got, want):
    if kind == "simulate" and column in _EXACT_SIM_COLUMNS:
        return got == want
    if kind == "misspec" and column == "error":
        return _error_kind(got) == _error_kind(want)
    try:
        return _close(got, want)
    except ValueError:
        return got == want


def _reported_failed(kind, rc, header, row):
    """Whether the command itself reports a row as failed: misspec per row, others per call."""
    if kind == "misspec":
        return bool(row[header.index("error")].strip())
    return rc != 0


def check_call(kind, ref, csv_path, rc):
    """Compare one call's output with its reference entry.

    Returns (rows, failed, errored, problems): failed rows differ from the
    reference; errored rows differ or are reported failed by the command.
    """
    want_header, want_rows = ref["header"], ref["rows"]
    n = len(want_rows)
    problems = []
    if rc != ref["rc"]:
        problems.append(f"exit code {rc}, reference {ref['rc']}")
    if not os.path.exists(csv_path):
        return n, n, n, problems + ["no output CSV"]
    header, rows = read_csv(csv_path)
    if header != want_header or len(rows) != n:
        problems.append(f"shape {len(header)}x{len(rows)}, reference {len(want_header)}x{n}")
        return n, n, n, problems
    failed = errored = 0
    for i, (got, want) in enumerate(zip(rows, want_rows)):
        bad = [c for c, g, w in zip(header, got, want) if not _cell_ok(kind, c, g, w)]
        if bad and len(problems) < 5:
            problems.append(f"row {i}: {', '.join(bad)} differ")
        failed += bool(bad)
        errored += bool(bad) or _reported_failed(kind, rc, header, got)
    if problems and failed == 0:  # wrong exit code: the call as a whole is wrong
        failed = errored = n
    return n, failed, errored, problems


def table_digest(params, replicates, seed, tables=DIGEST_TABLES):
    """SHA-256 of the first sampled tables of an MC block, via the public API."""
    from cceff.model import DesignParams, PopulationParams, alpha_from_prevalence
    from cceff.simulate import sample_table

    keys = ("beta", "gamma", "theta", "pi")
    alpha = alpha_from_prevalence(params["f"], *(params[k] for k in keys))
    pop = PopulationParams(alpha, *(params[k] for k in keys))
    design = DesignParams(nu=params["nu"], n=params["n"])
    h = hashlib.sha256()
    for index in range(min(tables, replicates)):
        h.update(sample_table(pop, design, seed, index).w.astype("<f8").tobytes())
    return h.hexdigest()
