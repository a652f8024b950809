import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cceff import DesignParams, PopulationParams, expected_table, theory_curve
from cceff.cli import (
    FIT_COLUMNS,
    MISSPEC_COLUMNS,
    SIM_COLUMNS,
    THEORY_COLUMNS,
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


CANON = ["--beta", "1", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5"]


class TestParser:
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


class TestTheory:
    def test_writes_exact_header_and_values(self, tmp_path):
        out = tmp_path / "theory.csv"
        rc = run("theory", *CANON, "--f-grid", "0.1:0.9:9", "--out", out)
        assert rc == 0
        header, rows = read_csv(out)
        assert header == THEORY_COLUMNS
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

    def test_missing_parameter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run("theory", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5",
                "--f-grid", "0.1:0.9:3", "--out", tmp_path / "x.csv")
        assert ei.value.code == 2

    def test_bad_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run("theory", *CANON, "--f-grid", "0.1:0.9", "--out", tmp_path / "x.csv")
        assert ei.value.code == 2

    @pytest.mark.parametrize("grid", ["0:0.5:2", "0.5:1:2", "0.5:1.5:3"])
    def test_grid_point_outside_unit_interval_is_usage_error(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        rc = run("theory", *CANON, "--f-grid", grid, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--f-grid" in err and "outside (0, 1)" in err
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
        with pytest.raises(SystemExit) as ei:
            run("fit", *self.cells(w), "--methods", "adjcon")
        assert ei.value.code == 2
        assert "--prevalence" in capsys.readouterr().err

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

    def test_cell_list_must_cover_all_cells(self):
        w = [[[10.0] * 2] * 2] * 2
        argv = self.cells(w)[:-2]  # drop the last cell
        with pytest.raises(SystemExit) as ei:
            run("fit", *argv, "--methods", "mar")
        assert ei.value.code == 2
        dup = self.cells(w)[:-2] + ["--cell", "0,0,0,3"]
        with pytest.raises(SystemExit) as ei:
            run("fit", *dup, "--methods", "mar")
        assert ei.value.code == 2

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

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CCEFF_THREADS", threads)
            out = tmp_path / f"sim{threads}.csv"
            rc = run("simulate", *self.TRUTH, "--n", "400", "--replicates", "8",
                     "--seed", "9", "--methods", "mar,adj", "--out", out)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_non_integer_thread_count_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CCEFF_THREADS", "abc")
        out = tmp_path / "sim.csv"
        rc = run("simulate", *self.TRUTH, "--n", "400", "--replicates", "4",
                 "--methods", "mar", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CCEFF_THREADS" in err and "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--replicates", "0"),
        ("--level", "1.5"),
        ("--nu", "-1"),
        ("--n", "100.5"),
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

    def test_exactly_one_of_alpha_and_f(self, tmp_path):
        base = ["simulate", *CANON, "--n", "400", "--replicates", "4",
                "--out", tmp_path / "x.csv"]
        with pytest.raises(SystemExit) as ei:
            run(*base)
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            run(*base, "--alpha", "-2", "--f", "0.3")
        assert ei.value.code == 2

    def test_all_failures_exit_one(self, tmp_path, capsys):
        rc = run("simulate", "--alpha", "-2", "--beta", "1", "--gamma", "0.3",
                 "--theta", "0.4", "--pi", "1e-8", "--n", "40", "--replicates", "3",
                 "--methods", "mar", "--out", tmp_path / "x.csv")
        assert rc == 1
        assert "replicates failed" in capsys.readouterr().err


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

    def test_exactly_one_grid_spec(self, tmp_path):
        out = tmp_path / "mis.csv"
        with pytest.raises(SystemExit) as ei:
            run("misspec", *self.TRUTH, "--out", out)
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            run("misspec", *self.TRUTH, "--f1-list", "0.2",
                "--f1-grid", "0.2:0.4:3", "--out", out)
        assert ei.value.code == 2

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
