"""Command-line front end.

Four subcommands: ``theory`` evaluates the closed-form curves on a
prevalence grid, ``fit`` runs the estimators on a supplied table,
``simulate`` runs the seeded Monte Carlo (or exports the exact expected
table), and ``misspec`` sweeps the supplied-prevalence misspecification
limits.  Every output CSV is paired with a flat key=value manifest from
which the exact command line can be rebuilt; seeded commands reproduce
their CSV bitwise from the manifest.

Exit codes: 0 success, 1 numeric/runtime failure, 2 usage error,
3 partial method failure in ``fit``.
"""

import argparse
import csv
from datetime import datetime, timezone
import functools
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import theory_curve
from .errors import CCEffError, InvalidInput
from .estimators import (
    CaseControlTable,
    Method,
    _check_level,
    _check_methods,
    _one,
    _results,
    wald_test,
)
from .model import DesignParams, PopulationParams, alpha_from_prevalence
from .simulate import (
    DEFAULT_EPS,
    SimConfig,
    _fit_block,
    expected_table,
    misspec_sweep,
    run_mc,
)

THEORY_COLUMNS = {  # CSV column -> PowerPoint field
    "f": "f", "alpha": "alpha", "delta": "delta", "gamma_plus_delta": "gamma_plus_delta",
    "sigma2_M": "sigma_M_sq", "sigma2_A": "sigma_A_sq", "sigma2_AC": "sigma_AC_sq",
    "power_M": "power_mar", "power_A": "power_adj", "power_AC": "power_adjcon",
    "eP_M_A": "ep_M_vs_A", "eP_M_AC": "ep_M_vs_AC", "f_star": "f_star", "alpha_star": "alpha_star",
}

FIT_COLUMNS = ["method", "gamma_hat", "se_gamma", "z", "p_value", "reject", "converged", "error"]

SIM_COLUMNS = [
    "method", "n_included", "n_failed",
    "mean_gamma", "mean_gamma_mc_se",
    "sd_root_n", "sd_root_n_mc_se",
    "mean_se_root_n", "mean_se_root_n_mc_se",
    "rejection_rate", "rejection_rate_mc_se",
    "coverage", "coverage_mc_se",
    "theory_delta", "theory_sigma", "theory_power", "failures",
]

MISSPEC_COLUMNS = [
    "f1", "beta_star", "gamma_star", "theta_star", "pi_star",
    "dev_s", "dev_sigma", "ratio_s", "ratio_sigma",
    "mc_mean_gamma", "mc_mean_gamma_se", "error",
]


def _fmt(value):
    if isinstance(value, float):  # most cells, so tested first; no bool is a float
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, Method):
        return value.value
    if isinstance(value, (list, tuple)):  # a sequence of sequences joins with ";"
        sep = ";" if value and isinstance(value[0], (list, tuple)) else ","
        return sep.join(_fmt(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    return str(value)


def manifest_path(out_path):
    return out_path + ".manifest"


def _emit(r, command, header, rows, started, seed=None):
    """Write rows to the CSV r["out"], then its manifest of every resolved option but --out.

    A None value is left out of the manifest.
    """
    out = r["out"]
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"out={out}",
    ]
    if seed is not None:
        lines.append(f"seed={seed}")
    lines += [f"started_utc={started}", f"finished_utc={_now()}"]
    for key in sorted(r):
        if key != "out" and r[key] is not None:
            lines.append(f"param.{key}={_fmt(r[key])}")
    with open(manifest_path(out), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_manifest(path):
    """The key=value lines of a manifest or config file, keys and values stripped.

    A blank line or one that starts with "#" is skipped; a "#" anywhere
    else is part of its value.  A line without "=" raises ValueError.
    """
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def manifest_to_argv(path):
    """Rebuild the command line that produced a manifest's output file.

    A switch is its bare flag when true, each part of a repeated option one
    --flag=part, a k-value option its flag and k parts, any other --flag=value
    (so a value that begins with "-" stays a value).
    """
    entries = parse_manifest(path)
    argv = [entries["command"]]
    for key, value in sorted(entries.items()):
        if not key.startswith("param."):
            continue
        name = key[len("param."):]
        flag, parse_fn, parts = _flag(name), OPTIONS[name][0], _parts(name)
        if parse_fn is _parse_bool:
            argv += [flag] if value == "true" else []
        elif isinstance(parts, str):
            argv += [f"{flag}={part}" for part in value.split(";")]
        elif parts:
            argv += [flag, *value.split(",")]
        else:
            argv.append(f"{flag}={value}")
    if "out" in entries:
        argv.append(f"--out={entries['out']}")
    return argv


def _flag(name):
    return "--" + name.replace("_", "-")


def _parts(name):
    """An option's parts: a metavar str (repeated), k part names (k values) or None (one value)."""
    return OPTIONS[name][3] if len(OPTIONS[name]) > 3 else None


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_grid(r, name):
    """The points of the min:max:points grid r[name]; a malformed grid raises InvalidInput."""
    parts = r[name].split(":")
    try:
        if len(parts) != 3:
            raise ValueError("grid must be min:max:points")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError("grid needs at least one point")
    except ValueError as exc:
        raise InvalidInput(f"{_flag(name)}: {exc}") from None
    return [float(x) for x in np.linspace(lo, hi, n)]


def _parse_float_list(text):
    values = [float(x) for x in text.split(",") if x.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"give one or more comma-separated numbers (got {text!r})")
    return values


def _parse_methods(text):
    try:
        methods = tuple(Method(tok.strip().lower()) for tok in text.split(",") if tok.strip())
    except ValueError:
        methods = ()
    if not methods:
        raise argparse.ArgumentTypeError(f"choose one or more of mar, adj, adjcon (got {text!r})")
    return methods


def _parse_config_value(name, text):
    """Parse a config value as the manifest writes it: ";" joins repeats, "," k values."""
    parse_fn, parts = OPTIONS[name][0], _parts(name)
    if isinstance(parts, str):
        return [parse_fn(part) for part in text.split(";")]
    if parts:
        values = text.split(",")
        if len(values) != len(parts):
            raise ValueError(f"expected {len(parts)} comma-separated values, got {len(values)}")
        return [parse_fn(value) for value in values]
    return parse_fn(text)


def _resolve(ns):
    """Merge CLI flags over config-file values over defaults for ns.command.

    Flags are declared with default=None so an unset flag falls through to
    the config file, then to the command's own default or the OPTIONS one.
    Then the command's requirements are checked: each named option must be
    set, and of each tuple of options exactly one.  A config file that cannot
    be read, a config key the command does not take, a config value that does
    not parse and a broken requirement each raise InvalidInput.
    """
    config = {}
    if getattr(ns, "config", None):
        try:
            config = {k.replace("-", "_"): v for k, v in parse_manifest(ns.config).items()}
        except (OSError, ValueError) as exc:
            raise InvalidInput(str(exc)) from None
    _, _, names, defaults, required = COMMANDS[ns.command]
    for key in config:
        if key not in names:
            raise InvalidInput(f"{ns.config}: {ns.command} takes no config key {key!r}")
    resolved = {}
    for name in names:
        value = getattr(ns, name)
        if value is None and name in config:
            try:
                value = _parse_config_value(name, config[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InvalidInput(f"config value for {name}: {exc}") from None
        if value is None:
            value = defaults.get(name, OPTIONS[name][1])
        resolved[name] = value
    for need in required:
        if isinstance(need, str):
            if resolved[need] is None:
                raise InvalidInput(f"{_flag(need)} is required")
        elif sum(resolved[name] is not None for name in need) != 1:
            raise InvalidInput(f"exactly one of {', '.join(map(_flag, need))} must be given")
    return resolved


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _truth_params(resolved):
    """Build PopulationParams from either --alpha or --f plus (beta, gamma, theta, pi)."""
    alpha, f = resolved["alpha"], resolved["f"]
    beta, gamma = resolved["beta"], resolved["gamma"]
    theta, pi = resolved["theta"], resolved["pi"]
    if alpha is None:
        alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
    return PopulationParams(alpha=alpha, beta=beta, gamma=gamma, theta=theta, pi=pi)


# ---------------------------------------------------------------- theory

def cmd_theory(r):
    grid = _parse_grid(r, "f_grid")
    outside = [f for f in grid if not 0.0 < f < 1.0]
    if outside:
        raise InvalidInput(f"--f-grid: prevalence {outside[0]:.17g} outside (0, 1)")
    started = _now()
    try:
        points = theory_curve(
            grid, r["beta"], r["gamma"], r["theta"], r["pi"], r["nu"], r["n"], r["level"]
        )
    except (CCEffError, InvalidInput) as exc:
        if not hasattr(exc, "f"):  # the design, level or panel, before any row
            raise
        print(f"theory failed at f={exc.f:.17g}: {exc}", file=sys.stderr)
        return 1
    rows = [[getattr(point, field) for field in THEORY_COLUMNS.values()] for point in points]
    _emit(r, "theory", list(THEORY_COLUMNS), rows, started)
    print(f"theory: wrote {len(rows)} rows to {r['out']}")
    return 0


# ---------------------------------------------------------------- fit

def _parse_row(fields):
    """(d, i, j, count) of a d,i,j,count row or a d,x,e subject (count 1), as strings.

    Raises ValueError where a field does not parse, ArgumentTypeError where one is out of range.
    """
    d, i, j = (int(c) for c in fields[:3])
    count = float(fields[3]) if len(fields) == 4 else 1.0
    if d not in (0, 1) or i not in (0, 1) or j not in (0, 1):
        names = "d, i, j" if len(fields) == 4 else "d, x, e"
        raise argparse.ArgumentTypeError(f"{names} must each be 0 or 1 (got {d},{i},{j})")
    if not (count >= 0 and math.isfinite(count)):
        raise argparse.ArgumentTypeError("count must be finite and nonnegative")
    return d, i, j, count


def _parse_cell(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected d,i,j,count")
    return _parse_row(parts)


def _read_table_file(path, columns):
    """Sum a CSV of d,i,j,count rows (columns=4) or of d,x,e subjects (columns=3) into w.

    A row that does not parse raises InvalidInput naming its path and line.
    """
    names = "d,i,j,count" if columns == 4 else "d,x,e"
    w = np.zeros((2, 2, 2))
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1 and [c.strip() for c in row] == names.split(","):
                continue  # header row
            where = f"{path}:{lineno}"
            if len(row) != columns:
                raise InvalidInput(f"{where}: expected {columns} columns {names}")
            try:
                d, i, j, count = _parse_row(row)
            except ValueError:
                raise InvalidInput(f"{where}: could not parse {names}") from None
            except argparse.ArgumentTypeError as exc:
                raise InvalidInput(f"{where}: {exc}") from None
            w[d, i, j] += count
    return w


def cmd_fit(r):
    methods, cells = r["methods"], r["cell"]
    _check_methods(methods)
    if cells is not None:
        if len(cells) != 8 or len({cell[:3] for cell in cells}) != 8:
            raise InvalidInput("--cell must be given exactly once for each of the 8 (d,i,j) cells")
        w = np.zeros((2, 2, 2))
        for d, i, j, count in cells:
            w[d, i, j] = count
    else:
        path = r["counts_file"] or r["subjects_file"]
        try:
            w = _read_table_file(path, 4 if r["counts_file"] else 3)
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(str(exc)) from None
    if Method.ADJCON in methods and r["prevalence"] is None:
        raise InvalidInput("--prevalence is required when method adjcon is requested")
    _check_level(r["level"])  # wald_test would find it only after a fit succeeds
    table = CaseControlTable(w)

    started = _now()
    fits = _fit_block(methods, table.w[None], r["prevalence"], r["continuity_correction"])
    out_rows = []
    any_error = False
    print(f"{'method':<8} {'gamma_hat':>12} {'se':>12} {'z':>10} {'p':>12} converged")
    for method, lanes in zip(methods, fits):
        try:
            fit = _one(_results(lanes))
            test = wald_test(fit, r["level"])
            print(
                f"{method.value:<8} {fit.gamma_hat:>12.6g} {fit.se_gamma:>12.6g} "
                f"{test.z:>10.4g} {test.p_value:>12.6g} yes"
            )
            out_rows.append(
                [method, fit.gamma_hat, fit.se_gamma, test.z, test.p_value,
                 test.reject, True, ""]
            )
        except CCEffError as exc:
            any_error = True
            print(f"{method.value:<8} failed: {type(exc).__name__}: {exc}")
            out_rows.append(
                [method, math.nan, math.nan, math.nan, math.nan, False, False,
                 f"{type(exc).__name__}: {exc}"]
            )
    if r["out"]:
        _emit(r, "fit", FIT_COLUMNS, out_rows, started)
    return 3 if any_error else 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(r):
    params = _truth_params(r)
    design = DesignParams(nu=r["nu"], n=r["n"])
    started = _now()

    if r["emit_expected"]:
        table = expected_table(params, design)
        rows = [
            [d, i, j, table.w[d, i, j]] for d in (0, 1) for i in (0, 1) for j in (0, 1)
        ]
        _emit(r, "simulate", ["d", "i", "j", "count"], rows, started)
        print(f"simulate: wrote expected table to {r['out']}")
        return 0

    config = SimConfig(
        params=params,
        design=design,
        replicates=r["replicates"],
        seed=r["seed"],
        level=r["level"],
        methods=r["methods"],
        f_supplied=r["adjcon_f"],
        failures_reject=r["failures_reject"],
    )
    report = run_mc(config)
    for st in report.stats:
        print(
            f"simulate[{st.method.value}]: mean_gamma={st.mean_gamma:.6g} "
            f"sd_root_n={st.sd_root_n:.6g} (theory sigma {st.theory_sigma:.6g}) "
            f"reject={st.rejection_rate:.4g} (theory power {st.theory_power:.4g}) "
            f"failed={st.n_failed}"
        )
    rows = [[getattr(st, c) for c in SIM_COLUMNS] for st in report.stats]
    _emit(r, "simulate", SIM_COLUMNS, rows, started, seed=r["seed"])
    return 0


# ---------------------------------------------------------------- misspec

def cmd_misspec(r):
    params = _truth_params(r)
    design = DesignParams(nu=r["nu"], n=r["n"])
    grid = _parse_grid(r, "f1_grid") if r["f1_grid"] is not None else r["f1_list"]

    started = _now()
    rows = misspec_sweep(
        params, design, grid,
        eps=r["eps"], mc_confirm=r["mc_confirm"], seed=r["seed"], level=r["level"],
    )
    # beta_star .. pi_star are the four entries of s_star; every other column is a field.
    out_rows = [
        [row.f1, *row.s_star, *(getattr(row, c) for c in MISSPEC_COLUMNS[5:])] for row in rows
    ]
    _emit(r, "misspec", MISSPEC_COLUMNS, out_rows, started, seed=r["seed"])
    n_err = sum(1 for row in rows if row.error)
    print(f"misspec: wrote {len(rows)} rows to {r['out']}" + (f", {n_err} failed" if n_err else ""))
    return 1 if n_err else 0


# ---------------------------------------------------------------- parser

# Every option but --config: name -> (parser, default, help[, parts]).  Parts are
# the metavar str of a repeated option (one flag per value, joined by ";" in
# manifests and config files) or the names of k values after one flag (joined by
# ",").  A _parse_bool option is a switch on the command line; a config file
# spells it out (true/false, yes/no, on/off, 1/0).
OPTIONS = {
    "alpha": (float, None, "true intercept (give exactly one of --alpha and --f)"),
    "f": (float, None, "true disease prevalence (give exactly one of --alpha and --f)"),
    "beta": (float, None, "covariate-disease log odds ratio"),
    "gamma": (float, None, "exposure-disease log odds ratio"),
    "theta": (float, None, "covariate prevalence pr(X=1)"),
    "pi": (float, None, "exposure prevalence pr(E=1)"),
    "nu": (float, 1.0, "cases per control"),
    "n": (float, None, "total sample size"),
    "level": (float, 0.05, "two-sided test level"),
    "f_grid": (str, None, "prevalence grid as min:max:points"),
    "cell": (_parse_cell, None, "one cell weight; give all 8 cells", "D,I,J,COUNT"),
    "counts_file": (str, None, "CSV with columns d,i,j,count"),
    "subjects_file": (str, None, "per-subject CSV with columns d,x,e"),
    "methods": (_parse_methods, tuple(Method), "comma list from mar,adj,adjcon"),
    "prevalence": (float, None, "population disease prevalence (required for adjcon)"),
    "continuity_correction": (
        _parse_bool, False, "Haldane-Anscombe +0.5 on the collapsed margins (Mar only)"
    ),
    "replicates": (int, 1000, "Monte Carlo replicates"),
    "seed": (int, 0, "random seed"),
    "adjcon_f": (float, None, "prevalence supplied to AdjCon (default: the true f)"),
    "emit_expected": (_parse_bool, False, "write the exact expected table instead of sampling"),
    "failures_reject": (
        _parse_bool, False, "count failed replicates as rejections instead of non-rejections"
    ),
    "f1_grid": (str, None, "supplied-prevalence grid min:max:points"),
    "f1_list": (_parse_float_list, None, "comma list of supplied prevalences"),
    "eps": (float, DEFAULT_EPS, "supplied prevalences may reach 1 - eps"),
    "mc_confirm": (int, None, "Monte-Carlo confirmation sample size and replicates", ("N", "REPS")),
    "out": (str, None, "output CSV path (optional for fit)"),
}

_TRUTH = ("alpha", "f", "beta", "gamma", "theta", "pi", "nu", "n")
_SHAPE = ("beta", "gamma", "theta", "pi")

# command -> (handler, help, options, defaults that differ from OPTIONS,
# requirements: an option that must be set, or a tuple of which exactly one must)
COMMANDS = {
    "theory": (
        cmd_theory, "closed-form curves over a prevalence grid",
        ("beta", "gamma", "theta", "pi", "nu", "n", "level", "f_grid", "out"),
        {"n": 50000.0},
        (*_SHAPE, "f_grid", "out"),
    ),
    "fit": (
        cmd_fit, "fit estimators to a 2x2x2 table",
        ("cell", "counts_file", "subjects_file", "methods", "prevalence", "level",
         "continuity_correction", "out"),
        {},
        (("cell", "counts_file", "subjects_file"),),
    ),
    "simulate": (
        cmd_simulate, "seeded Monte Carlo or expected-table export",
        _TRUTH + ("replicates", "seed", "level", "methods", "adjcon_f",
                  "emit_expected", "failures_reject", "out"),
        {},
        (*_SHAPE, "n", "out", ("alpha", "f")),
    ),
    "misspec": (
        cmd_misspec, "supplied-prevalence misspecification sweep",
        _TRUTH + ("f1_grid", "f1_list", "eps", "mc_confirm", "seed", "level", "out"),
        {"n": 100000.0},
        (*_SHAPE, "out", ("alpha", "f"), ("f1_grid", "f1_list")),
    ),
}


@functools.cache
def build_parser():
    """The parser of every command, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="cceff",
        description="Bias, efficiency, and power of marginal and adjusted "
        "association tests in 2x2x2 case-control data.",
    )
    parser.add_argument("--version", action="version", version=f"cceff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, names, _, _) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name in names:
            parse_fn, _, option_help = OPTIONS[name][:3]
            parts = _parts(name)
            if parse_fn is _parse_bool:
                form = {"action": "store_const", "const": True}
            elif isinstance(parts, str):
                form = {"action": "append", "type": parse_fn, "metavar": parts}
            else:
                form = {"nargs": len(parts) if parts else None, "type": parse_fn, "metavar": parts}
            p.add_argument(_flag(name), default=None, help=option_help, **form)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
    return parser


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        return COMMANDS[ns.command][0](_resolve(ns))
    except CCEffError as exc:
        print(f"cceff {ns.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"cceff {ns.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
