import csv
import math
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

import cceff
from cceff import DesignParams, Method, PopulationParams, expected_table, theory_curve
from cceff.cli import (
    COMMANDS,
    FIT_COLUMNS,
    MISSPEC_COLUMNS,
    SIM_COLUMNS,
    THEORY_COLUMNS,
    _fmt,
    build_parser,
    main,
    manifest_path,
    manifest_to_argv,
    parse_manifest,
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(*argv):
    return main([str(a) for a in argv])


def _frozen_fmt(value):
    """``cli._fmt`` as it stood when it tested for a bool before a float."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Method):
        return value.value
    if isinstance(value, (list, tuple)):  # a sequence of sequences joins with ";"
        sep = ";" if value and isinstance(value[0], (list, tuple)) else ","
        return sep.join(_frozen_fmt(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_frozen_fmt(v)}" for k, v in sorted(value.items()))
    return str(value)


class TestFmt:
    """Every CSV cell and manifest value keeps its text."""

    @pytest.mark.parametrize(
        "value",
        [
            -0.0, 0.0, 0.1, 1.0 / 3.0, 1e300, -2.5e-7, math.nan, math.inf, -math.inf,
            5e-324, 2.2250738585072014e-308 / 3.0,  # subnormals
            np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(5e-324),
            True, False, np.True_, np.False_, 0, 3, -7, np.int64(12),
            Method.MAR, Method.ADJCON, "adj", None,
            [0.1, 2.0], (np.float64(1.5), True), [], [[0.2, 0.3], [1.0, np.float64(4.0)]],
            [(Method.ADJ, 1), (2, np.False_)],
            {"b": 1.5, "a": [np.float64(3.0), Method.MAR]}, {"ZeroCell": 2, "Separation": 1},
        ],
    )
    def test_matches_the_frozen_form(self, value):
        assert _fmt(value) == _frozen_fmt(value)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_every_float_keeps_its_text(self, value):
        assert _fmt(value) == _frozen_fmt(value) == _fmt(np.float64(value))


CANON = ["--beta", "1", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5"]


class TestParser:
    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half a second of every CLI call's start-up.
        src = str(Path(cceff.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, cceff.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            run("--version")
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith("cceff ")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            run()
        assert ei.value.code == 2

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run("fit", "--counts-file", tmp_path / "x.csv", "--methods", "bogus")
        assert ei.value.code == 2

    def test_import_builds_no_parser(self):
        src = str(Path(cceff.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import cceff.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "0"

    def test_shared_parser_gives_what_a_fresh_one_gives(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("d,i,j,count\n" + "".join(
            f"{d},{i},{j},{10 + 3 * d + 2 * i + j}\n" for d in (0, 1) for i in (0, 1) for j in (0, 1)
        ))
        out = tmp_path / "out.csv"
        calls = [
            ["theory", *CANON, "--f-grid", "0.1:0.5:3"],
            ["simulate", "--f", "0.3", *CANON],  # no --n: a usage error
            ["fit", "--counts-file", str(counts), "--methods", "mar,adj"],
            ["simulate", "--f", "0.3", *CANON, "--n", "400", "--replicates", "4", "--seed", "2"],
        ]

        def outcome(argv):
            out.unlink(missing_ok=True)
            try:
                rc = run(*argv, "--out", out)
            except SystemExit as exc:
                rc = exc.code
            return rc, capsys.readouterr().err, out.read_bytes() if out.exists() else None

        build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert [rc for rc, _, _ in shared] == [0, 2, 0, 0]
        assert "--n is required" in shared[1][1]
        assert shared == fresh

    @pytest.mark.parametrize("command", ["", "theory", "fit", "simulate", "misspec"])
    def test_help_text_of_the_shared_parser(self, command, tmp_path, capsys):
        def help_text():
            with pytest.raises(SystemExit) as ei:
                run(*command.split(), "--help")
            assert ei.value.code == 0
            return capsys.readouterr().out

        build_parser.cache_clear()
        fresh = help_text()
        run("theory", *CANON, "--f-grid", "0.2:0.4:2", "--out", tmp_path / "t.csv")
        capsys.readouterr()
        assert help_text() == fresh
        assert fresh.startswith("usage: cceff " + command)

    @pytest.mark.parametrize("command, usage", [
        ("fit", "--cell D,I,J,COUNT"), ("misspec", "--mc-confirm N REPS"),
    ])
    def test_usage_names_the_parts_of_a_value(self, command, usage, capsys):
        with pytest.raises(SystemExit):
            run(command, "--help")
        assert usage in capsys.readouterr().out


class TestTheory:
    def test_writes_exact_header_and_values(self, tmp_path):
        out = tmp_path / "theory.csv"
        rc = run("theory", *CANON, "--f-grid", "0.1:0.9:9", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == list(THEORY_COLUMNS)
        assert len(rows) == 9
        # the middle row must round-trip bitwise to a direct library call
        point = theory_curve([0.5], 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)[0]
        mid = rows[4]
        assert float(mid[0]) == 0.5
        assert float(mid[1]) == point.alpha
        assert float(mid[3]) == point.gamma_plus_delta
        assert float(mid[6]) == point.sigma_AC_sq
        assert float(mid[12]) == point.f_star

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "theory.csv"
        run("theory", *CANON, "--f-grid", "0.1:0.9:3", "--out", out)
        entries = parse_manifest(manifest_path(str(out)))
        assert entries["command"] == "theory"
        assert entries["out"] == str(out)
        assert entries["param.beta"] == "1"
        assert entries["param.f_grid"] == "0.1:0.9:3"
        assert entries["param.nu"] == "1"
        assert "started_utc" in entries and "finished_utc" in entries

    def test_rebuild_from_manifest_is_bitwise_identical(self, tmp_path):
        out = tmp_path / "theory.csv"
        run("theory", *CANON, "--f-grid", "0.05:0.95:7", "--out", out)
        first = out.read_bytes()
        rc = run(*manifest_to_argv(manifest_path(str(out))))
        assert rc == 0
        assert out.read_bytes() == first

    def test_missing_parameter_is_usage_error(self, tmp_path, capsys):
        assert run("theory", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5",
                   "--f-grid", "0.1:0.9:3", "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "cceff theory: --beta is required\n"

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        assert run("theory", *CANON, "--f-grid", "0.1:0.9", "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "cceff theory: --f-grid: grid must be min:max:points\n"

    @pytest.mark.parametrize("grid", ["0:0.5:2", "0.5:1:2", "0.5:1.5:3"])
    def test_grid_point_outside_unit_interval_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        rc = run("theory", *CANON, "--f-grid", grid, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--f-grid" in err and "outside (0, 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--level", "1.5"),
        ("--level", "2.5"),
        ("--n", "-5"),
        ("--nu", "-1"),
        ("--theta", "0"),
    ])
    def test_out_of_domain_design_or_level_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        rc = run("theory", *CANON, "--f-grid", "0.1:0.9:3", flag, value, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cceff theory: ")
        assert not out.exists()

    def test_failing_row_names_its_prevalence(self, tmp_path, capsys):
        # At beta = 50, gamma = 30, theta = 1 - 1e-8 the constrained
        # information is singular at f = 0.9 and 0.99; the first failing
        # row's error gives exit code 1 and names the row.
        out = tmp_path / "x.csv"
        rc = run("theory", "--beta", "50", "--gamma", "30", "--theta", "0.99999999",
                 "--pi", "0.5", "--f-grid", "0.9:0.99:2", "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("theory failed at f=0.90000000000000002: constrained information")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, f, message", [
        # Every flag lies inside its domain; the row's exposure margin rounds to 0.
        (["--beta", "-20", "--gamma", "39.8", "--theta", "0.39", "--pi", "0.5", "--nu", "1000",
          "--f-grid", "0.05:0.95:10"], "0.050000000000000003", "an exposure margin is not inside"),
        # The row's intercept lies outside [-50, 50].
        (["--beta", "50", "--gamma", "30", "--theta", "0.99999999", "--pi", "0.5",
          "--f-grid", "0.5:0.99:8"], "0.5", "alpha=-64.98"),
    ])
    def test_row_outside_the_domain_is_a_row_failure(self, tmp_path, capsys, flags, f, message):
        out = tmp_path / "x.csv"
        rc = run("theory", *flags, "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"theory failed at f={f}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# canonical point\n"
            "beta = 1\n"
            "gamma = 0.1\n"
            "theta = 0.4\n"
            "pi = 0.5\n"
            "f-grid = 0.3:0.3:1\n"
            "n = 10000\n"
        )
        out = tmp_path / "t.csv"
        rc = run("theory", "--config", cfg, "--gamma", "0.3", "--out", out)
        assert rc == 0
        _, rows = read_csv(out)
        want = theory_curve([0.3], 1.0, 0.3, 0.4, 0.5, 1.0, 10000.0)[0]
        assert float(rows[0][3]) == want.gamma_plus_delta


class TestFit:
    def cells(self, w):
        argv = []
        for d in (0, 1):
            for i in (0, 1):
                for j in (0, 1):
                    argv.extend(["--cell", f"{d},{i},{j},{w[d][i][j]}"])
        return argv

    def test_balanced_table_gives_null_marginal(self, tmp_path, capsys):
        w = [[[12.5] * 2] * 2] * 2  # collapsed table 25/25/25/25
        out = tmp_path / "fit.csv"
        rc = run("fit", *self.cells(w), "--methods", "mar", "--out", out)
        assert rc == 0
        assert "mar" in capsys.readouterr().out
        header, rows = read_csv(out)
        assert header == FIT_COLUMNS
        (row,) = rows
        assert row[0] == "mar"
        assert float(row[1]) == 0.0
        assert float(row[2]) == 0.4
        assert float(row[3]) == 0.0
        assert float(row[4]) == 1.0
        assert row[5] == "false" and row[6] == "true" and row[7] == ""

    def test_input_modes_agree(self, tmp_path):
        w = np.array([[[30, 12], [18, 25]], [[20, 22], [10, 40]]], dtype=float)
        counts = tmp_path / "counts.csv"
        with open(counts, "w") as fh:
            fh.write("d,i,j,count\n")
            for d in (0, 1):
                for i in (0, 1):
                    for j in (0, 1):
                        fh.write(f"{d},{i},{j},{int(w[d, i, j])}\n")
        subjects = tmp_path / "subjects.csv"
        with open(subjects, "w") as fh:
            fh.write("d,x,e\n")
            for d in (0, 1):
                for i in (0, 1):
                    for j in (0, 1):
                        fh.writelines(f"{d},{i},{j}\n" for _ in range(int(w[d, i, j])))

        outs = [tmp_path / f"fit{k}.csv" for k in range(3)]
        assert run("fit", *self.cells(w), "--methods", "mar,adj", "--out", outs[0]) == 0
        assert run("fit", "--counts-file", counts, "--methods", "mar,adj", "--out", outs[1]) == 0
        assert run("fit", "--subjects-file", subjects, "--methods", "mar,adj", "--out", outs[2]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_adjcon_requires_prevalence(self, capsys):
        w = [[[10.0] * 2] * 2] * 2
        assert run("fit", *self.cells(w), "--methods", "adjcon") == 2
        assert capsys.readouterr().err == \
            "cceff fit: --prevalence is required when method adjcon is requested\n"

    @pytest.mark.parametrize("first, error", [
        ("1.0,0,0,5", "could not parse d,i,j,count"),
        ("d,i,j,5", "could not parse d,i,j,count"),
        ("1,0,0", "expected 4 columns d,i,j,count"),
    ])
    def test_first_line_that_is_not_the_header_is_data(self, tmp_path, capsys, first, error):
        counts = tmp_path / "counts.csv"
        counts.write_text(first + "\n" + "".join(
            f"{d},{i},{j},5\n" for d in (0, 1) for i in (0, 1) for j in (0, 1)
        ))
        assert run("fit", "--counts-file", counts, "--methods", "mar") == 2
        assert capsys.readouterr().err == f"cceff fit: {counts}:1: {error}\n"

    @pytest.mark.parametrize("header", [" d , x ,e", "\ufeffd,x,e"])
    def test_header_may_carry_spaces(self, tmp_path, header):
        # A byte-order mark, as spreadsheet "CSV UTF-8" exports write it, is no field.
        subjects = tmp_path / "subjects.csv"
        subjects.write_text(header + "\n" + "".join(
            f"{d},{x},{e}\n" for d in (0, 1) for x in (0, 1) for e in (0, 1) for _ in range(4)
        ), encoding="utf-8")
        assert run("fit", "--subjects-file", subjects, "--methods", "mar") == 0

    def test_bad_counts_line_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,i,j,count\n0,0,0,5\n0,0,2,7\n")
        rc = run("fit", "--counts-file", bad, "--methods", "mar")
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    def test_partial_method_failure_exits_three(self, tmp_path, capsys):
        w = [[[10.0] * 2] * 2] * 2
        out = tmp_path / "fit.csv"
        rc = run("fit", *self.cells(w), "--methods", "mar,adjcon",
                 "--prevalence", "1.5", "--out", out)
        assert rc == 3
        assert "InfeasibleStart" in capsys.readouterr().out
        _, rows = read_csv(out)
        assert rows[0][7] == ""
        assert rows[1][0] == "adjcon" and rows[1][7].startswith("InfeasibleStart")

    def test_level_outside_unit_interval_is_usage_error(self, tmp_path, capsys):
        w = [[[10.0] * 2] * 2] * 2
        out = tmp_path / "fit.csv"
        rc = run("fit", *self.cells(w), "--methods", "mar", "--level", "1.5", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cceff fit: ")
        assert not out.exists()

    def test_manifest_start_time_is_taken_before_the_fits(self, tmp_path, monkeypatch):
        events = []
        adjusted_lanes = cceff.simulate.fit_adjusted

        def now():
            events.append("now")
            return f"t{len(events)}"

        def fit_adjusted(tables):
            events.append("fit")
            return adjusted_lanes(tables)

        monkeypatch.setattr(cceff.cli, "_now", now)
        monkeypatch.setattr(cceff.simulate, "fit_adjusted", fit_adjusted)
        w = [[[10.0] * 2] * 2] * 2
        out = tmp_path / "fit.csv"
        assert run("fit", *self.cells(w), "--methods", "adj", "--out", out) == 0
        assert events == ["now", "fit", "now"]
        entries = parse_manifest(manifest_path(str(out)))
        assert (entries["started_utc"], entries["finished_utc"]) == ("t1", "t3")

    def test_adj_and_adjcon_share_one_adjusted_fit(self, monkeypatch):
        calls = []
        adjusted_lanes = cceff.estimators._adjusted_lanes

        def counted(tables):
            calls.append(len(tables))
            return adjusted_lanes(tables)

        monkeypatch.setattr(cceff.estimators, "_adjusted_lanes", counted)
        monkeypatch.setattr(cceff.simulate, "fit_adjusted", counted)
        w = [[[30, 12], [18, 25]], [[20, 22], [10, 40]]]
        argv = self.cells(w) + ["--methods", "adj,adjcon", "--prevalence", "0.1"]
        assert run("fit", *argv) == 0
        assert calls == [1]

    def test_reject_and_converged_columns_read_true_or_false(self, tmp_path):
        # gamma_hat = log 4 with |z| > 4: Mar and Adj reject; a failed fit is false in both.
        w = [[[20, 20], [20, 20]], [[10, 40], [10, 40]]]
        out = tmp_path / "fit.csv"
        run("fit", *self.cells(w), "--methods", "mar,adj,adjcon", "--prevalence", "1.5",
            "--out", out)
        _, rows = read_csv(out)
        assert [r[5:7] for r in rows] == [["true", "true"], ["true", "true"], ["false", "false"]]
        assert _fmt(np.True_) == "true" and _fmt(np.False_) == "false"

    def test_cell_list_must_cover_all_cells(self, capsys):
        w = [[[10.0] * 2] * 2] * 2
        line = "cceff fit: --cell must be given exactly once for each of the 8 (d,i,j) cells\n"
        argv = self.cells(w)[:-2]  # drop the last cell
        assert run("fit", *argv, "--methods", "mar") == 2
        assert capsys.readouterr().err == line
        dup = self.cells(w)[:-2] + ["--cell", "0,0,0,3"]
        assert run("fit", *dup, "--methods", "mar") == 2
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("cells, prevalence", [
        ([30, 12, 18, 25, 20, 22, 10, 40], 0.3),  # CI's table: three fits
        ([30, 12, 18, 25, 20, 22, 10, 40], 1.5),  # AdjCon InfeasibleStart
        ([0, 1, 0, 0, 0, 1e16, 1000, 1000], 0.3),  # CI's share table: three errors
        ([40, 30, 20, 10, 25, 0, 15, 0], 0.3),  # no exposed case: Mar ZeroCell
    ])
    def test_rows_are_the_public_fits_and_their_wald_tests(self, tmp_path, cells, prevalence):
        w = np.reshape(cells, (2, 2, 2)).astype(float)
        out = tmp_path / "fit.csv"
        run("fit", *self.cells(w), "--methods", "mar,adj,adjcon", "--prevalence", prevalence,
            "--out", out)
        _, rows = read_csv(out)
        table = cceff.CaseControlTable(w)
        fits = [lambda: cceff.fit_marginal(table), lambda: cceff.fit_adjusted(table),
                lambda: cceff.fit_constrained(table, prevalence)]
        for row, fit in zip(rows, fits):
            try:
                result = fit()
            except cceff.CCEffError as exc:
                assert row[1:] == ["nan"] * 4 + ["false", "false", f"{type(exc).__name__}: {exc}"]
                continue
            test = cceff.wald_test(result)
            written = [float(x).hex() for x in row[1:5]]
            assert written == [x.hex() for x in (result.gamma_hat, result.se_gamma, test.z,
                                                 test.p_value)]
            assert row[5:] == [_fmt(test.reject), "true", ""]

    def test_manifest_rebuild(self, tmp_path):
        w = np.array([[[30, 12], [18, 25]], [[20, 22], [10, 40]]], dtype=float)
        out = tmp_path / "fit.csv"
        run("fit", *self.cells(w), "--methods", "mar,adj,adjcon",
            "--prevalence", "0.2", "--out", out)
        first = out.read_bytes()
        rc = run(*manifest_to_argv(manifest_path(str(out))))
        assert rc == 0
        assert out.read_bytes() == first


class TestSimulate:
    TRUTH = ["--f", "0.3", *CANON]

    def test_emit_expected_matches_library(self, tmp_path):
        out = tmp_path / "expected.csv"
        rc = run("simulate", *self.TRUTH, "--n", "1000", "--emit-expected", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["d", "i", "j", "count"]
        from cceff import alpha_from_prevalence

        alpha = alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5)
        params = PopulationParams(alpha, 1.0, 0.3, 0.4, 0.5)
        table = expected_table(params, DesignParams(1.0, 1000.0))
        for row in rows:
            d, i, j = int(row[0]), int(row[1]), int(row[2])
            assert float(row[3]) == table.w[d, i, j]
        assert_allclose(sum(float(r[3]) for r in rows), 1000.0, rtol=1e-12)

    def test_emit_expected_round_trips_through_fit(self, tmp_path, capsys):
        out = tmp_path / "expected.csv"
        run("simulate", *self.TRUTH, "--n", "1000", "--emit-expected", "--out", out)
        fit_out = tmp_path / "fit.csv"
        rc = run("fit", "--counts-file", out, "--methods", "adj", "--out", fit_out)
        assert rc == 0
        _, rows = read_csv(fit_out)
        assert abs(float(rows[0][1]) - 0.3) <= 1e-8

    def test_mc_run_and_manifest_rebuild(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = run("simulate", *self.TRUTH, "--n", "400", "--replicates", "12",
                 "--seed", "5", "--methods", "mar,adj", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == SIM_COLUMNS
        assert [r[0] for r in rows] == ["mar", "adj"]
        for r in rows:
            assert int(r[1]) + int(r[2]) == 12
        entries = parse_manifest(manifest_path(str(out)))
        assert entries["seed"] == "5"
        assert entries["param.replicates"] == "12"
        first = out.read_bytes()
        assert run(*manifest_to_argv(manifest_path(str(out)))) == 0
        assert out.read_bytes() == first

    def test_batch_size_does_not_change_output(self, tmp_path, monkeypatch):
        outs = []
        for chunk in (1, 7):
            monkeypatch.setattr(cceff.simulate, "_CHUNK", chunk)
            out = tmp_path / f"sim{chunk}.csv"
            rc = run("simulate", *self.TRUTH, "--n", "400", "--replicates", "8",
                     "--seed", "9", "--methods", "mar,adj", "--out", out)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, value", [
        ("--replicates", "0"),
        ("--level", "1.5"),
        ("--nu", "-1"),
        ("--n", "100.5"),
        ("--n", "1e17"),
    ])
    def test_out_of_domain_value_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim.csv"
        args = {"--n": "400", "--replicates": "4", flag: value}
        rc = run("simulate", *self.TRUTH, *(x for kv in args.items() for x in kv),
                 "--methods", "mar", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cceff simulate: ")
        assert not out.exists()

    @pytest.mark.parametrize("truth, message", [
        (["--alpha", "0", "--beta", "1", "--gamma", "0.3", "--theta", "1", "--pi", "0.5"],
         "theta=1.0 outside [1e-08, 0.99999999]"),
        # The prevalence used to print as np.float64(1.0).
        (["--alpha", "50", "--beta", "1", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5"],
         "prevalence 1.0 rounds to 0 or 1 at "
         "PopulationParams(alpha=50.0, beta=1.0, gamma=0.3, theta=0.4, pi=0.5)"),
    ], ids=["theta", "prevalence"])
    def test_truth_outside_the_domain_prints_the_bounds_or_a_plain_float(
        self, tmp_path, capsys, truth, message
    ):
        out = tmp_path / "sim.csv"
        assert run("simulate", *truth, "--n", "100", "--out", out) == 2
        assert capsys.readouterr() == ("", f"cceff simulate: {message}\n")
        assert not out.exists()

    def test_exactly_one_of_alpha_and_f(self, tmp_path, capsys):
        base = ["simulate", *CANON, "--n", "400", "--replicates", "4",
                "--out", tmp_path / "x.csv"]
        line = "cceff simulate: exactly one of --alpha, --f must be given\n"
        assert run(*base) == 2
        assert capsys.readouterr().err == line
        assert run(*base, "--alpha", "-2", "--f", "0.3") == 2
        assert capsys.readouterr().err == line

    def test_all_failures_exit_one(self, tmp_path, capsys):
        rc = run("simulate", "--alpha", "-2", "--beta", "1", "--gamma", "0.3",
                 "--theta", "0.4", "--pi", "1e-8", "--n", "40", "--replicates", "3",
                 "--methods", "mar", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert capsys.readouterr().err == "cceff simulate: AllReplicatesFailed: " \
            "all 3 replicates failed for method mar: {'ZeroCell': 3}\n"

    def test_failures_reject_switch_rebuilds_and_reads_from_a_config_file(self, tmp_path):
        # Rare exposure and n = 20: half the Mar replicates fail with ZeroCell.
        args = ["--f", "0.3", *CANON[:-1], "0.05", "--n", "20", "--replicates", "8",
                "--seed", "2", "--methods", "mar"]
        plain, flag, config = (tmp_path / f"{name}.csv" for name in ("plain", "flag", "config"))
        assert run("simulate", *args, "--out", plain) == 0
        assert run("simulate", *args, "--failures-reject", "--out", flag) == 0
        first = flag.read_bytes()
        assert first != plain.read_bytes()
        assert parse_manifest(manifest_path(str(flag)))["param.failures_reject"] == "true"
        assert run(*manifest_to_argv(manifest_path(str(flag)))) == 0
        assert flag.read_bytes() == first
        cfg = tmp_path / "run.cfg"
        cfg.write_text("failures_reject = yes\n")
        assert run("simulate", *args, "--config", cfg, "--out", config) == 0
        assert config.read_bytes() == first

    def test_config_key_the_command_does_not_take_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("replicate = 7\n")
        out = tmp_path / "s.csv"
        rc = run("simulate", *CANON, "--f", "0.1", "--n", "500", "--config", cfg, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'replicate'" in err and "simulate" in err
        assert not out.exists()


class TestMisspec:
    TRUTH = ["--f", "0.3", *CANON]

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "mis.csv"
        rc = run("misspec", *self.TRUTH, "--f1-list", "0.25,0.35", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == MISSPEC_COLUMNS
        assert [float(r[0]) for r in rows] == [0.25, 0.35]
        for r in rows:
            assert float(r[7]) > 0.0  # ratio_s
            assert r[11] == ""

    def test_row_error_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        rc = run("misspec", *self.TRUTH, "--f1-list", "0.3,0.9995", "--out", out)
        assert rc == 1
        _, rows = read_csv(out)
        assert rows[0][11] == ""
        assert rows[1][11].startswith("InfeasiblePrevalence")
        assert math.isnan(float(rows[1][5]))
        assert "1 failed" in capsys.readouterr().out

    def test_exactly_one_grid_spec(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        line = "cceff misspec: exactly one of --f1-grid, --f1-list must be given\n"
        assert run("misspec", *self.TRUTH, "--out", out) == 2
        assert capsys.readouterr().err == line
        assert run("misspec", *self.TRUTH, "--f1-list", "0.2",
                   "--f1-grid", "0.2:0.4:3", "--out", out) == 2
        assert capsys.readouterr().err == line

    def test_f1_grid_matches_its_list_and_rebuilds(self, tmp_path):
        grid, listed = tmp_path / "grid.csv", tmp_path / "list.csv"
        assert run("misspec", *self.TRUTH, "--f1-grid", "0.2:0.4:3", "--out", grid) == 0
        assert run("misspec", *self.TRUTH, "--f1-list", "0.2,0.30000000000000004,0.4",
                   "--out", listed) == 0
        first = grid.read_bytes()
        assert first == listed.read_bytes()
        assert run(*manifest_to_argv(manifest_path(str(grid)))) == 0
        assert grid.read_bytes() == first

    def test_non_integer_mc_confirm_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        with pytest.raises(SystemExit) as ei:
            run("misspec", *self.TRUTH, "--f1-list", "0.35", "--mc-confirm", "abc", "5",
                "--out", out)
        assert ei.value.code == 2
        assert "--mc-confirm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--eps", "2"), ("--level", "1.5")])
    def test_eps_outside_unit_interval_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "mis.csv"
        rc = run("misspec", *self.TRUTH, "--f1-list", "0.35", flag, value, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cceff misspec: ") and flag[2:] in err
        assert not out.exists()

    def test_mc_confirm_and_rebuild(self, tmp_path):
        out = tmp_path / "mis.csv"
        rc = run("misspec", *self.TRUTH, "--f1-list", "0.35",
                 "--mc-confirm", "1000", "20", "--seed", "4", "--out", out)
        assert rc == 0
        _, rows = read_csv(out)
        assert not math.isnan(float(rows[0][9]))  # mc_mean_gamma
        entries = parse_manifest(manifest_path(str(out)))
        assert entries["param.mc_confirm"] == "1000,20"
        first = out.read_bytes()
        assert run(*manifest_to_argv(manifest_path(str(out)))) == 0
        assert out.read_bytes() == first


CELLS = [("--cell", f"{d},{i},{j},{c}") for (d, i, j), c in zip(
    [(d, i, j) for d in (0, 1) for i in (0, 1) for j in (0, 1)],
    ["30", "12", "18.5", "25", "20", "22", "1e-3", "40"],
)]
CELL_ARGV = [x for pair in CELLS for x in pair]
COUNTS = "d,i,j,count\n" + "".join(f"{c}\n" for _, c in CELLS)
SUBJECTS = "d,x,e\n" + "".join(
    f"{d},{x},{e}\n" for d in (0, 1) for x in (0, 1) for e in (0, 1) for _ in range(3 + d + x + e)
)

# Between them the cases of a command set every option it takes; "{dir}" is the test's directory.
# --beta=-1e-5 and --f1-list=-0.1,0.35 (a row error, exit 1) are values that begin with "-".
OPTION_CASES = {
    "theory": [
        ["--beta=-1e-5", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5", "--nu", "2",
         "--n", "20000", "--level", "0.1", "--f-grid", "0.1:0.5:3"],
    ],
    "fit": [
        [*CELL_ARGV, "--methods", "adjcon,mar", "--prevalence", "0.2", "--level", "0.1",
         "--continuity-correction"],
        ["--counts-file", "{dir}/counts.csv", "--methods", "mar,adj"],
        ["--subjects-file", "{dir}/subjects.csv", "--methods", "adj,adjcon", "--prevalence", "0.3"],
    ],
    "simulate": [
        ["--alpha", "-2", *CANON, "--nu", "2", "--n", "300", "--replicates", "6", "--seed", "3",
         "--level", "0.1", "--methods", "mar,adjcon", "--adjcon-f", "0.2", "--failures-reject"],
        ["--f", "0.3", *CANON, "--n", "1000", "--emit-expected"],
    ],
    "misspec": [
        ["--alpha", "-1", *CANON, "--nu", "2", "--n", "5000", "--f1-grid", "0.3:0.4:2",
         "--eps", "0.01", "--mc-confirm", "400", "6", "--seed", "2", "--level", "0.1"],
        ["--f", "0.3", *CANON, "--f1-list=-0.1,0.35"],
    ],
}
CASES = [(command, k) for command, cases in OPTION_CASES.items() for k in range(len(cases))]


class TestOptionTable:
    def argv(self, command, k, tmp_path):
        (tmp_path / "counts.csv").write_text(COUNTS)
        (tmp_path / "subjects.csv").write_text(SUBJECTS)
        return [command, *(a.format(dir=tmp_path) for a in OPTION_CASES[command][k])]

    @pytest.mark.parametrize("command", sorted(OPTION_CASES))
    def test_cases_set_every_option(self, command, tmp_path):
        given = set()
        for k in range(len(OPTION_CASES[command])):
            ns = vars(build_parser().parse_args(self.argv(command, k, tmp_path)))
            given |= {name for name, value in ns.items() if value is not None}
        assert given == {*COMMANDS[command][2], "command"} - {"out"}

    @pytest.mark.parametrize("command, k", CASES)
    def test_manifest_and_its_config_file_rebuild_the_csv(self, command, k, tmp_path):
        argv = self.argv(command, k, tmp_path)
        out, again, config = (tmp_path / f"{name}.csv" for name in ("out", "again", "config"))
        rc = run(*argv, "--out", out)
        assert rc == (1 if k == 1 and command == "misspec" else 0)
        first, manifest = out.read_bytes(), manifest_path(str(out))
        entries = parse_manifest(manifest)
        out.unlink()
        assert run(*manifest_to_argv(manifest)) == rc
        assert out.read_bytes() == first

        def stable(path):
            return {k: v for k, v in parse_manifest(path).items() if not k.endswith("_utc")}

        assert stable(manifest) == stable(manifest_path(str(out)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            f"{key[len('param.'):]} = {value}\n"
            for key, value in entries.items() if key.startswith("param.")
        ))
        assert run(command, "--config", cfg, "--out", config) == rc
        assert config.read_bytes() == first
        assert stable(manifest_path(str(config))) == {**stable(manifest), "out": str(config)}

    def test_a_hash_inside_a_value_is_part_of_it(self, tmp_path):
        counts = tmp_path / "c#1.csv"
        counts.write_text(COUNTS)
        out, config = tmp_path / "out.csv", tmp_path / "config.csv"
        assert run("fit", "--counts-file", counts, "--methods", "mar", "--out", out) == 0
        entries = parse_manifest(manifest_path(str(out)))
        assert entries["param.counts_file"] == str(counts)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# from the manifest\n" + "".join(
            f"{key[len('param.'):]} = {value}\n"
            for key, value in entries.items() if key.startswith("param.")
        ))
        assert run("fit", "--config", cfg, "--out", config) == 0
        assert config.read_bytes() == out.read_bytes()

    def test_manifest_reader_strips_skips_and_rejects(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(" # note\n\n command = fit \nout=a#b.csv # kept\n")
        assert parse_manifest(path) == {"command": "fit", "out": "a#b.csv # kept"}
        path.write_text("command=fit\nbeta 1\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: expected key=value$"):
            parse_manifest(path)

    @pytest.mark.parametrize("text, key", [
        ("command=fit\nparam.methods=mar\nparam.bogus=1\n", "key 'param.bogus' names no option"),
        ("param.methods=mar\n", "missing key 'command'"),
    ], ids=["unknown", "no-command"])
    def test_manifest_to_argv_rejects_an_unknown_or_missing_key(self, tmp_path, text, key):
        # Each used to raise KeyError.
        path = tmp_path / "run.manifest"
        path.write_text(text)
        with pytest.raises(ValueError) as error:
            manifest_to_argv(path)
        assert str(error.value) == f"{path}: {key}"

    def test_cell_manifest_line_and_its_rebuild(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert run("fit", *CELL_ARGV, "--methods", "mar", "--out", out) == 0
        entries = parse_manifest(manifest_path(str(out)))
        assert entries["param.cell"] == "0,0,0,30;0,0,1,12;0,1,0,18.5;0,1,1,25;" \
            "1,0,0,20;1,0,1,22;1,1,0,0.001;1,1,1,40"
        argv = manifest_to_argv(manifest_path(str(out)))
        cells = entries["param.cell"].split(";")
        assert [a for a in argv if a.startswith("--cell")] == [f"--cell={c}" for c in cells]

    @pytest.mark.parametrize("line", ["mc_confirm = 400", "mc_confirm = 400,6,2"])
    def test_mc_confirm_in_a_config_file_needs_two_values(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("misspec", "--f", "0.3", *CANON, "--f1-list", "0.35", "--config", cfg,
                   "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "cceff misspec: config value for mc_confirm: " \
            f"expected 2 comma-separated values, got {line.count(',') + 1}\n"

    @pytest.mark.parametrize("text, error", [
        ("beta 1\n", "{cfg}:1: expected key=value"),
        ("replicates = abc\n",
         "config value for replicates: invalid literal for int() with base 10: 'abc'"),
        ("failures_reject = maybe\n", "config value for failures_reject: not a boolean: 'maybe'"),
        ("cell = 0,0,0,30;0,0,1\n", "config value for cell: expected d,i,j,count"),
        ("cell = 0,0,0,-1\n", "config value for cell: count must be finite and nonnegative"),
        (None, "[Errno 2] No such file or directory: '{cfg}'"),
    ])
    def test_config_error_is_usage_error(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        command = ["fit", "--methods", "mar"] if text and text.startswith("cell") else \
            ["simulate", "--f", "0.3", *CANON, "--n", "40"]
        assert run(*command, "--config", cfg, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"cceff {command[0]}: {error.format(cfg=cfg)}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_switch_set_off_in_a_config_file_is_left_off(self, tmp_path):
        args = ["--f", "0.3", *CANON[:-1], "0.05", "--n", "20", "--replicates", "8",
                "--seed", "2", "--methods", "mar"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("failures_reject = off\n")
        plain, config = tmp_path / "plain.csv", tmp_path / "config.csv"
        assert run("simulate", *args, "--out", plain) == 0
        assert run("simulate", *args, "--config", cfg, "--out", config) == 0
        assert config.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", *CANON, "--n", "40"], "exactly one of --alpha, --f must be given"),
        (["fit", "--methods", "mar"],
         "exactly one of --cell, --counts-file, --subjects-file must be given"),
        (["misspec", "--f", "0.3", *CANON, "--f1-list", "0.3", "--f1-grid", "0.2:0.4:3"],
         "exactly one of --f1-grid, --f1-list must be given"),
    ])
    def test_requirements_are_checked_once(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"cceff {argv[0]}: {message}\n"


# Each usage error found after parsing: argv ("{dir}" is the test's directory) and the
# bytes of the file {dir}/in.txt that it reads, or None.
SIMULATE = ["simulate", "--f", "0.3", *CANON, "--n", "40"]
POST_PARSE_ERRORS = {
    "config file unreadable": ([*SIMULATE, "--config", "{dir}/in.txt"], None),
    "config value": ([*SIMULATE, "--config", "{dir}/in.txt"], b"replicates = abc\n"),
    "config key": ([*SIMULATE, "--config", "{dir}/in.txt"], b"bogus = 1\n"),
    "required": (SIMULATE[:-2], None),
    "exactly one": (["simulate", *CANON, "--n", "40"], None),
    "f-grid": (["theory", *CANON, "--f-grid", "0.1:x:3"], None),
    "f1-grid": (["misspec", "--f", "0.3", *CANON, "--f1-grid", "0.2:0.4:0"], None),
    "cell count": (["fit", *CELL_ARGV[:-2], "--methods", "mar"], None),
    "counts file unreadable": (["fit", "--counts-file", "{dir}", "--methods", "mar"], None),
    "counts file not UTF-8": (["fit", "--counts-file", "{dir}/in.txt", "--methods", "mar"],
                              b"\xff\xfe0,0,0,1\n"),
    "adjcon prevalence": (["fit", *CELL_ARGV, "--methods", "adjcon"], None),
}


class TestFailures:
    @pytest.mark.parametrize("case", POST_PARSE_ERRORS)
    def test_post_parse_usage_error_is_one_line(self, tmp_path, capsys, case):
        argv, data = POST_PARSE_ERRORS[case]
        argv = [str(a).format(dir=tmp_path) for a in argv]
        if data is not None:
            (tmp_path / "in.txt").write_bytes(data)
        out = tmp_path / "x.csv"
        assert run(*argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"cceff {argv[0]}: ")
        assert "usage:" not in captured.err and captured.out == ""
        assert not out.exists() and not os.path.exists(manifest_path(str(out)))

    @pytest.mark.parametrize("f1_list", [",", ""])
    def test_empty_f1_list_is_usage_error(self, tmp_path, capsys, f1_list):
        out = tmp_path / "mis.csv"
        argv = ["misspec", "--f", "0.3", *CANON, "--out", out]
        with pytest.raises(SystemExit) as ei:
            run(*argv, "--f1-list", f1_list)
        assert ei.value.code == 2
        assert "--f1-list: give one or more comma-separated numbers" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"f1_list = {f1_list}\n")
        assert run(*argv, "--config", cfg) == 2
        assert capsys.readouterr().err == "cceff misspec: config value for f1_list: " \
            f"give one or more comma-separated numbers (got {f1_list!r})\n"
        assert not out.exists()

    @pytest.mark.parametrize("mc_confirm, message", [
        (("0", "5"), "n=0 must be positive and finite"),
        (("400", "0"), "replicates must be at least 1"),
        (("1", "5"), "both case and control counts must be at least 1"),
    ], ids=["n", "replicates", "arms"])
    def test_mc_confirm_is_checked_before_any_limit(self, tmp_path, capsys, monkeypatch,
                                                    mc_confirm, message):
        def no_limits(*args):
            raise AssertionError("a limit was computed")
        monkeypatch.setattr(cceff.simulate, "limiting_values", no_limits)
        out = tmp_path / "mis.csv"
        assert run("misspec", "--f", "0.3", *CANON, "--f1-list", "1.5",
                   "--mc-confirm", *mc_confirm, "--out", out) == 2
        assert capsys.readouterr().err == f"cceff misspec: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("methods", [
        ["--methods", "mar,adj"], ["--methods", "adjcon", "--prevalence", "1.5"],
    ], ids=["fits succeed", "every fit fails"])
    def test_fit_level_is_checked_before_any_fit(self, tmp_path, capsys, methods):
        out = tmp_path / "fit.csv"
        assert run("fit", *CELL_ARGV, *methods, "--level", "2", "--out", out) == 2
        assert capsys.readouterr() == ("", "cceff fit: level must lie in (0, 1)\n")
        assert not out.exists()

    def test_limit_at_the_true_prevalence_failing_exits_one(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        rc = run("misspec", "--f", "0.9995", *CANON, "--f1-list", "0.5", "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("cceff misspec: InfeasiblePrevalence: f_used=0.9995 outside")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["0,0,0", "0,0,0,-1", "0,2,0,5"])
    def test_bad_cell_is_usage_error(self, cell, capsys):
        with pytest.raises(SystemExit) as ei:
            run("fit", "--cell", cell, "--methods", "mar")
        assert ei.value.code == 2
        assert "--cell" in capsys.readouterr().err

    def test_zero_margin_cells_are_an_invalid_table(self, tmp_path, capsys):
        argv = CELL_ARGV[:8] + [x for j in range(4) for x in ("--cell", f"1,{j // 2},{j % 2},0")]
        out = tmp_path / "fit.csv"
        assert run("fit", *argv, "--methods", "mar", "--out", out) == 2
        assert capsys.readouterr().err == \
            "cceff fit: both case and control margins must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--f", "0.3", *CANON, "--n", "40", "--replicates", "2"],
        ["fit", *CELL_ARGV],
    ])
    def test_empty_method_list_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as ei:
            run(*argv, "--methods", ",", "--out", out)
        assert ei.value.code == 2
        assert "--methods" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--f", "0.3", *CANON, "--n", "40", "--replicates", "2"],
        ["fit", *CELL_ARGV, "--prevalence", "0.3"],
    ])
    @pytest.mark.parametrize("methods, repeated", [
        ("mar,mar", "mar"), ("adjcon,adj,mar,adj", "adj"),
    ])
    def test_repeated_method_is_usage_error(self, tmp_path, capsys, argv, methods, repeated):
        out = tmp_path / "x.csv"
        assert run(*argv, "--methods", methods, "--out", out) == 2
        err = f"cceff {argv[0]}: method {repeated} is named more than once\n"
        assert capsys.readouterr() == ("", err)
        assert not out.exists() and not os.path.exists(manifest_path(str(out)))

    def test_subnormal_prevalence_is_an_adjcon_error_row(self, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        rc = run("fit", *CELL_ARGV, "--methods", "mar,adjcon", "--prevalence", "1e-320",
                 "--out", out)
        assert rc == 3
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert rows[0][7] == ""
        assert rows[1][0] == "adjcon" and rows[1][7] == (
            "InfeasibleStart: no intercept reproduces the subnormal prevalence f=1e-320"
        )
