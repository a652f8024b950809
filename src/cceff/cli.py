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
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import theory_curve
from .errors import AllReplicatesFailed, CCEffError, InvalidInput
from .estimators import (
    CaseControlTable,
    Method,
    fit_adjusted,
    fit_constrained,
    fit_marginal,
    wald_test,
)
from .model import DesignParams, PopulationParams, alpha_from_prevalence
from .simulate import (
    DEFAULT_EPS,
    SimConfig,
    expected_table,
    misspec_sweep,
    run_mc,
)

THEORY_COLUMNS = [
    "f", "alpha", "delta", "gamma_plus_delta",
    "sigma2_M", "sigma2_A", "sigma2_AC",
    "power_M", "power_A", "power_AC",
    "eP_M_A", "eP_M_AC", "f_star", "alpha_star",
]

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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Method):
        return value.value
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def manifest_path(out_path):
    return out_path + ".manifest"


def write_manifest(out_path, command, params, seed=None, started=None, finished=None):
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"out={out_path}",
    ]
    if seed is not None:
        lines.append(f"seed={seed}")
    if started is not None:
        lines.append(f"started_utc={started}")
    if finished is not None:
        lines.append(f"finished_utc={finished}")
    for key in sorted(params):
        value = params[key]
        if value is None:
            continue
        lines.append(f"param.{key}={_fmt(value)}")
    with open(manifest_path(out_path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_manifest(path):
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


def manifest_to_argv(path):
    """Rebuild the command line that produced a manifest's output file."""
    entries = parse_manifest(path)
    argv = [entries["command"]]
    for key, value in sorted(entries.items()):
        if not key.startswith("param."):
            continue
        name = key[len("param."):]
        flag = "--" + name.replace("_", "-")
        if value == "true":
            argv.append(flag)
        elif value == "false":
            continue
        elif name == "cell":
            for part in value.split(";"):
                argv.extend([flag, part])
        elif name == "mc_confirm":
            argv.append(flag)
            argv.extend(value.split(","))
        else:
            argv.extend([flag, value])
    if "out" in entries:
        argv.extend(["--out", entries["out"]])
    return argv


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be min:max:points")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("grid needs at least one point")
    return [float(x) for x in np.linspace(lo, hi, n)]


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_methods(text):
    try:
        return tuple(Method(tok.strip().lower()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"unknown method in {text!r} (choose from mar, adj, adjcon)") from exc


def load_config(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(ns, parser):
    """Merge CLI flags over config-file values over defaults for ns.command.

    Flags are declared with default=None so an unset flag falls through to
    the config file, then to the command's own default or the OPTIONS one.
    """
    config = {}
    if getattr(ns, "config", None):
        try:
            config = load_config(ns.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    _, _, names, defaults = COMMANDS[ns.command]
    resolved = {}
    for name in names:
        parse_fn, default, _ = OPTIONS[name]
        value = getattr(ns, name)
        if value is None and name in config:
            try:
                value = parse_fn(config[name])
            except ValueError as exc:
                parser.error(f"config value for {name}: {exc}")
        if value is None:
            value = defaults.get(name, default)
        resolved[name] = value
    return resolved


def _require(parser, resolved, names):
    for name in names:
        if resolved.get(name) is None:
            parser.error(f"--{name.replace('_', '-')} is required")


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _truth_params(parser, resolved):
    """Build PopulationParams from either --alpha or --f plus (beta, gamma, theta, pi)."""
    alpha, f = resolved.get("alpha"), resolved.get("f")
    if (alpha is None) == (f is None):
        parser.error("exactly one of --alpha and --f must be given")
    beta, gamma = resolved["beta"], resolved["gamma"]
    theta, pi = resolved["theta"], resolved["pi"]
    if alpha is None:
        alpha = alpha_from_prevalence(f, beta, gamma, theta, pi)
    return PopulationParams(alpha=alpha, beta=beta, gamma=gamma, theta=theta, pi=pi)


# ---------------------------------------------------------------- theory

def cmd_theory(ns, parser):
    r = _resolve(ns, parser)
    _require(parser, r, ["beta", "gamma", "theta", "pi", "f_grid", "out"])
    try:
        grid = _parse_grid(r["f_grid"])
    except ValueError as exc:
        parser.error(f"--f-grid: {exc}")
    outside = [f for f in grid if not 0.0 < f < 1.0]
    if outside:
        raise InvalidInput(f"--f-grid: prevalence {outside[0]:.17g} outside (0, 1)")
    started = _now()
    try:
        points = theory_curve(
            grid, r["beta"], r["gamma"], r["theta"], r["pi"], r["nu"], r["n"], r["level"]
        )
    except CCEffError as exc:
        print(f"theory failed at f={exc.f:.17g}: {exc}", file=sys.stderr)
        return 1
    rows = [
        [
            point.f, point.alpha, point.delta, point.gamma_plus_delta,
            point.sigma_M_sq, point.sigma_A_sq, point.sigma_AC_sq,
            point.power_mar, point.power_adj, point.power_adjcon,
            point.ep_M_vs_A, point.ep_M_vs_AC, point.f_star, point.alpha_star,
        ]
        for point in points
    ]
    _write_csv(r["out"], THEORY_COLUMNS, rows)
    write_manifest(
        r["out"], "theory",
        {k: v for k, v in r.items() if k != "out"},
        started=started, finished=_now(),
    )
    print(f"theory: wrote {len(rows)} rows to {r['out']}")
    return 0


# ---------------------------------------------------------------- fit

def _parse_cell(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected d,i,j,count")
    d, i, j = (int(p) for p in parts[:3])
    count = float(parts[3])
    if d not in (0, 1) or i not in (0, 1) or j not in (0, 1):
        raise argparse.ArgumentTypeError("d, i, j must each be 0 or 1")
    if not (count >= 0 and math.isfinite(count)):
        raise argparse.ArgumentTypeError("count must be finite and nonnegative")
    return d, i, j, count


def _read_table_file(path, columns):
    """Sum a CSV of d,i,j,count rows (columns=4) or of d,x,e subjects (columns=3) into w."""
    names = "d,i,j,count" if columns == 4 else "d,x,e"
    w = np.zeros((2, 2, 2))
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1 and not row[0].strip().lstrip("+-").isdigit():
                continue  # header row
            where = f"{path}:{lineno}"
            if len(row) != columns:
                raise ValueError(f"{where}: expected {columns} columns {names}")
            try:
                d, i, j = (int(c) for c in row[:3])
                count = float(row[3]) if columns == 4 else 1.0
            except ValueError:
                raise ValueError(f"{where}: could not parse {names}") from None
            if d not in (0, 1) or i not in (0, 1) or j not in (0, 1):
                raise ValueError(
                    f"{where}: {names[:5].replace(',', ', ')} must each be 0 or 1 "
                    f"(got {d},{i},{j})"
                )
            if not (count >= 0 and math.isfinite(count)):
                raise ValueError(f"{where}: count must be finite and nonnegative")
            w[d, i, j] += count
    return w


def cmd_fit(ns, parser):
    r = _resolve(ns, parser)
    methods = r["methods"]

    sources = [ns.cell is not None, r["counts_file"] is not None, r["subjects_file"] is not None]
    if sum(sources) != 1:
        parser.error("exactly one of --cell (x8), --counts-file, --subjects-file must be given")
    if ns.cell is not None:
        seen = {(d, i, j) for d, i, j, _ in ns.cell}
        if len(ns.cell) != 8 or len(seen) != 8:
            parser.error("--cell must be given exactly once for each of the 8 (d,i,j) cells")
        w = np.zeros((2, 2, 2))
        for d, i, j, count in ns.cell:
            w[d, i, j] = count
    else:
        path = r["counts_file"] or r["subjects_file"]
        try:
            w = _read_table_file(path, 4 if r["counts_file"] else 3)
        except OSError as exc:
            parser.error(str(exc))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if Method.ADJCON in methods and r["prevalence"] is None:
        parser.error("--prevalence is required when method adjcon is requested")
    try:
        table = CaseControlTable(w)
    except ValueError as exc:
        print(f"invalid table: {exc}", file=sys.stderr)
        return 2

    out_rows = []
    any_error = False
    print(f"{'method':<8} {'gamma_hat':>12} {'se':>12} {'z':>10} {'p':>12} converged")
    for method in methods:
        try:
            if method is Method.MAR:
                fit = fit_marginal(table, continuity_correction=r["continuity_correction"])
            elif method is Method.ADJ:
                fit = fit_adjusted(table)
            else:
                fit = fit_constrained(table, r["prevalence"])
            test = wald_test(fit, r["level"])
            print(
                f"{method.value:<8} {fit.gamma_hat:>12.6g} {fit.se_gamma:>12.6g} "
                f"{test.z:>10.4g} {test.p_value:>12.6g} {'yes' if fit.converged else 'no'}"
            )
            out_rows.append(
                [method, fit.gamma_hat, fit.se_gamma, test.z, test.p_value,
                 test.reject, fit.converged, ""]
            )
        except CCEffError as exc:
            any_error = True
            print(f"{method.value:<8} failed: {type(exc).__name__}: {exc}")
            out_rows.append(
                [method, math.nan, math.nan, math.nan, math.nan, False, False,
                 f"{type(exc).__name__}: {exc}"]
            )
    if r["out"]:
        started = _now()
        _write_csv(r["out"], FIT_COLUMNS, out_rows)
        manifest_params = {k: v for k, v in r.items() if k != "out"}
        manifest_params["methods"] = ",".join(m.value for m in methods)
        if ns.cell is not None:
            manifest_params["cell"] = ";".join(
                f"{d},{i},{j},{_fmt(c)}" for d, i, j, c in ns.cell
            )
        write_manifest(r["out"], "fit", manifest_params, started=started, finished=_now())
    return 3 if any_error else 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(ns, parser):
    r = _resolve(ns, parser)
    _require(parser, r, ["beta", "gamma", "theta", "pi", "n", "out"])
    params = _truth_params(parser, r)
    design = DesignParams(nu=r["nu"], n=r["n"])
    started = _now()
    manifest_params = {k: v for k, v in r.items() if k != "out"}
    manifest_params["methods"] = ",".join(m.value for m in r["methods"])

    if r["emit_expected"]:
        table = expected_table(params, design)
        rows = [
            [d, i, j, table.w[d, i, j]] for d in (0, 1) for i in (0, 1) for j in (0, 1)
        ]
        _write_csv(r["out"], ["d", "i", "j", "count"], rows)
        write_manifest(r["out"], "simulate", manifest_params, started=started, finished=_now())
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
    try:
        report = run_mc(config)
    except AllReplicatesFailed as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    rows = []
    for st in report.stats:
        failures = ";".join(f"{k}={v}" for k, v in sorted(st.failures.items()))
        rows.append(
            [st.method, st.n_included, st.n_failed,
             st.mean_gamma, st.mean_gamma_mc_se,
             st.sd_root_n, st.sd_root_n_mc_se,
             st.mean_se_root_n, st.mean_se_root_n_mc_se,
             st.rejection_rate, st.rejection_rate_mc_se,
             st.coverage, st.coverage_mc_se,
             st.theory_delta, st.theory_sigma, st.theory_power, failures]
        )
        print(
            f"simulate[{st.method.value}]: mean_gamma={st.mean_gamma:.6g} "
            f"sd_root_n={st.sd_root_n:.6g} (theory sigma {st.theory_sigma:.6g}) "
            f"reject={st.rejection_rate:.4g} (theory power {st.theory_power:.4g}) "
            f"failed={st.n_failed}"
        )
    _write_csv(r["out"], SIM_COLUMNS, rows)
    write_manifest(
        r["out"], "simulate", manifest_params,
        seed=r["seed"], started=started, finished=_now(),
    )
    return 0


# ---------------------------------------------------------------- misspec

def cmd_misspec(ns, parser):
    r = _resolve(ns, parser)
    _require(parser, r, ["beta", "gamma", "theta", "pi", "out"])
    params = _truth_params(parser, r)
    design = DesignParams(nu=r["nu"], n=r["n"])
    if (r["f1_grid"] is None) == (r["f1_list"] is None):
        parser.error("exactly one of --f1-grid and --f1-list must be given")
    if r["f1_grid"] is not None:
        try:
            grid = _parse_grid(r["f1_grid"])
        except ValueError as exc:
            parser.error(f"--f1-grid: {exc}")
    else:
        grid = r["f1_list"]
    mc_confirm = None
    if ns.mc_confirm is not None:
        mc_confirm = (int(ns.mc_confirm[0]), int(ns.mc_confirm[1]))

    started = _now()
    try:
        rows = misspec_sweep(
            params, design, grid,
            eps=r["eps"], mc_confirm=mc_confirm, seed=r["seed"], level=r["level"],
        )
    except CCEffError as exc:
        print(f"misspec: {exc}", file=sys.stderr)
        return 1
    out_rows = []
    for row in rows:
        out_rows.append(
            [row.f1, row.s_star[0], row.s_star[1], row.s_star[2], row.s_star[3],
             row.dev_s, row.dev_sigma, row.ratio_s, row.ratio_sigma,
             row.mc_mean_gamma, row.mc_mean_gamma_se, row.error]
        )
    _write_csv(r["out"], MISSPEC_COLUMNS, out_rows)
    manifest_params = {k: v for k, v in r.items() if k != "out"}
    if mc_confirm is not None:
        manifest_params["mc_confirm"] = f"{mc_confirm[0]},{mc_confirm[1]}"
    write_manifest(
        r["out"], "misspec", manifest_params,
        seed=r["seed"], started=started, finished=_now(),
    )
    n_err = sum(1 for row in rows if row.error)
    print(f"misspec: wrote {len(rows)} rows to {r['out']}" + (f", {n_err} failed" if n_err else ""))
    return 1 if n_err else 0


# ---------------------------------------------------------------- parser

# Every option but --cell, --mc-confirm and --config: name -> (parser, default,
# help).  A _parse_bool option is a switch on the command line; a config file
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
    "out": (str, None, "output CSV path (optional for fit)"),
}

_TRUTH = ("alpha", "f", "beta", "gamma", "theta", "pi", "nu", "n")

# command -> (handler, help, options, defaults that differ from OPTIONS)
COMMANDS = {
    "theory": (
        cmd_theory, "closed-form curves over a prevalence grid",
        ("beta", "gamma", "theta", "pi", "nu", "n", "level", "f_grid", "out"),
        {"n": 50000.0},
    ),
    "fit": (
        cmd_fit, "fit estimators to a 2x2x2 table",
        ("counts_file", "subjects_file", "methods", "prevalence", "level",
         "continuity_correction", "out"),
        {},
    ),
    "simulate": (
        cmd_simulate, "seeded Monte Carlo or expected-table export",
        _TRUTH + ("replicates", "seed", "level", "methods", "adjcon_f",
                  "emit_expected", "failures_reject", "out"),
        {},
    ),
    "misspec": (
        cmd_misspec, "supplied-prevalence misspecification sweep",
        _TRUTH + ("f1_grid", "f1_list", "eps", "seed", "level", "out"),
        {"n": 100000.0},
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cceff",
        description="Bias, efficiency, and power of marginal and adjusted "
        "association tests in 2x2x2 case-control data.",
        epilog="Thread count is controlled by the CCEFF_THREADS environment "
        "variable (default: machine parallelism).",
    )
    parser.add_argument("--version", action="version", version=f"cceff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, names, _) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        if command == "fit":
            p.add_argument(
                "--cell", action="append", type=_parse_cell, default=None,
                metavar="D,I,J,COUNT", help="one cell weight; give all 8 cells",
            )
        for name in names:
            parse_fn, _, option_help = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if parse_fn is _parse_bool:
                p.add_argument(flag, action="store_const", const=True, default=None,
                               help=option_help)
            else:
                p.add_argument(flag, type=parse_fn, default=None, help=option_help)
        if command == "misspec":
            p.add_argument("--mc-confirm", dest="mc_confirm", nargs=2, metavar=("N", "REPS"),
                           default=None, help="Monte-Carlo confirmation sample size and replicates")
        p.add_argument("--config", help="key=value config file (flags take precedence)")
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return COMMANDS[ns.command][0](ns, parser)
    except CCEffError as exc:
        print(f"cceff {ns.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"cceff {ns.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
