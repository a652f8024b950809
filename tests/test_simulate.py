import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

import cceff.simulate as simulate_mod
from cceff import (
    AllReplicatesFailed,
    CaseControlTable,
    DesignParams,
    InfeasiblePrevalence,
    Method,
    PopulationParams,
    SimConfig,
    ZeroMargin,
    asymptotic_power,
    bias_delta,
    expected_table,
    fit_constrained,
    limiting_value,
    misspec_sweep,
    retro_distribution,
    run_mc,
    sample_table,
    sigma_A_sq,
    sigma_AC_sq,
    sigma_M_sq,
)

import oracles


class TestSimConfig:
    def base(self, **kw):
        args = dict(
            params=PopulationParams(-2.0, 1.0, 0.3, 0.4, 0.5),
            design=DesignParams(1.0, 1000.0),
            replicates=10,
            seed=0,
        )
        args.update(kw)
        return SimConfig(**args)

    def test_valid(self):
        cfg = self.base()
        assert cfg.level == 0.05
        assert cfg.methods == (Method.MAR, Method.ADJ, Method.ADJCON)

    def test_method_strings_coerced(self):
        cfg = self.base(methods=("mar", "adjcon"))
        assert cfg.methods == (Method.MAR, Method.ADJCON)

    @pytest.mark.parametrize("kw", [
        {"replicates": 0},
        {"level": 0.0},
        {"level": 1.0},
        {"f_supplied": 0.0},
        {"f_supplied": 1.0},
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw)


class TestExpectedTable:
    def test_masses_match_enumeration(self, canonical, balanced_design):
        t = expected_table(canonical, balanced_design)
        want = oracles.case_control_masses(-2.0, 1.0, 0.3, 0.4, 0.5, 1.0)
        for d in (0, 1):
            for i in (0, 1):
                for j in (0, 1):
                    assert_allclose(t.w[d, i, j], want[(d, i, j)] * 100000.0, rtol=1e-14)

    def test_totals(self, canonical):
        t = expected_table(canonical, DesignParams(2.0, 900.0))
        assert_allclose(t.w.sum(), 900.0, rtol=1e-14)
        assert_allclose(t.w[1].sum(), 600.0, rtol=1e-14)
        assert_allclose(t.w[0].sum(), 300.0, rtol=1e-14)


class TestSampleTable:
    def test_deterministic_in_key(self, canonical):
        d = DesignParams(1.0, 1000.0)
        a = sample_table(canonical, d, 42, 3)
        b = sample_table(canonical, d, 42, 3)
        assert np.array_equal(a.w, b.w)

    def test_replicates_differ(self, canonical):
        d = DesignParams(1.0, 1000.0)
        a = sample_table(canonical, d, 42, 0)
        b = sample_table(canonical, d, 42, 1)
        c = sample_table(canonical, d, 43, 0)
        assert not np.array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_margins_exact(self, canonical):
        t = sample_table(canonical, DesignParams(2.0, 900.0), 5, 0)
        assert t.w[1].sum() == 600.0
        assert t.w[0].sum() == 300.0
        assert np.all(t.w == np.floor(t.w))
        assert np.all(t.w >= 0.0)

    def test_rejects_fractional_or_tiny_n(self, canonical):
        with pytest.raises(ValueError):
            sample_table(canonical, DesignParams(1.0, 100.5), 0, 0)
        with pytest.raises(ValueError):
            sample_table(canonical, DesignParams(1.0, 1.0), 0, 0)

    def test_cell_frequencies_follow_the_law(self, canonical):
        # one large table; every cell within 5 binomial standard errors
        n_arm = 500000.0
        t = sample_table(canonical, DesignParams(1.0, 2.0 * n_arm), 2026, 0)
        r = retro_distribution(canonical)
        for d, probs in ((1, r.p_case), (0, r.p_ctrl)):
            for i in (0, 1):
                for j in (0, 1):
                    p = probs[i, j]
                    se = math.sqrt(p * (1.0 - p) / n_arm)
                    assert abs(t.w[d, i, j] / n_arm - p) <= 5.0 * se

    def test_goodness_of_fit(self, canonical):
        n_arm = 500000.0
        t = sample_table(canonical, DesignParams(1.0, 2.0 * n_arm), 2026, 0)
        r = retro_distribution(canonical)
        x2 = 0.0
        for d, probs in ((1, r.p_case), (0, r.p_ctrl)):
            exp = probs * n_arm
            x2 += float(((t.w[d] - exp) ** 2 / exp).sum())
        assert x2 < chi2.ppf(0.9999, 6)


class TestRunMC:
    def test_estimates_concentrate_on_their_limits(self, canonical):
        cfg = SimConfig(
            params=canonical,
            design=DesignParams(1.0, 2000.0),
            replicates=120,
            seed=20260815,
        )
        report = run_mc(cfg, workers=1)
        by = {s.method: s for s in report.stats}

        gpd = 0.3 + bias_delta(-2.0, 1.0, 0.3, 0.4)
        for method, center in ((Method.MAR, gpd), (Method.ADJ, 0.3), (Method.ADJCON, 0.3)):
            s = by[method]
            assert s.n_included + s.n_failed == 120
            assert abs(s.mean_gamma - center) <= 4.0 * s.mean_gamma_mc_se
            # sd of sqrt(n) gamma_hat against the asymptotic sigma
            assert abs(s.sd_root_n - s.theory_sigma) <= 4.0 * s.sd_root_n_mc_se
            assert abs(s.mean_se_root_n - s.theory_sigma) <= 0.05 * s.theory_sigma
            assert abs(s.coverage - 0.95) <= 4.0 * max(s.coverage_mc_se, 1e-3)

    def test_theory_columns_wired(self, canonical):
        cfg = SimConfig(
            params=canonical, design=DesignParams(1.0, 2000.0), replicates=4, seed=1
        )
        report = run_mc(cfg, workers=1)
        by = {s.method: s for s in report.stats}
        assert by[Method.MAR].theory_delta == bias_delta(-2.0, 1.0, 0.3, 0.4)
        assert by[Method.ADJ].theory_delta == 0.0
        assert_allclose(by[Method.MAR].theory_sigma ** 2, sigma_M_sq(canonical, 1.0), rtol=1e-12)
        assert_allclose(by[Method.ADJ].theory_sigma ** 2, sigma_A_sq(canonical, 1.0), rtol=1e-12)
        assert_allclose(by[Method.ADJCON].theory_sigma ** 2, sigma_AC_sq(canonical, 1.0), rtol=1e-12)
        for m in Method:
            assert by[m].theory_power == asymptotic_power(m, canonical, 1.0, 2000.0)

    def test_failures_are_recorded_not_silently_dropped(self):
        # rare exposure at n = 40 leaves empty exposure cells in many replicates
        cfg = SimConfig(
            params=PopulationParams(-2.0, 1.0, 0.3, 0.4, 0.05),
            design=DesignParams(1.0, 40.0),
            replicates=20,
            seed=0,
            methods=(Method.MAR,),
        )
        s = run_mc(cfg, workers=1).stats[0]
        assert 0 < s.n_failed < 20
        assert s.failures == {"ZeroCell": s.n_failed}
        assert s.n_included + s.n_failed == 20

    def test_failures_reject_toggle(self):
        base = dict(
            params=PopulationParams(-2.0, 1.0, 0.3, 0.4, 0.05),
            design=DesignParams(1.0, 40.0),
            replicates=20,
            seed=0,
            methods=(Method.MAR,),
        )
        s_drop = run_mc(SimConfig(**base), workers=1).stats[0]
        s_rej = run_mc(SimConfig(**base, failures_reject=True), workers=1).stats[0]
        assert_allclose(
            s_rej.rejection_rate, s_drop.rejection_rate + s_drop.n_failed / 20.0, rtol=1e-12
        )

    def test_all_replicates_failed(self):
        cfg = SimConfig(
            params=PopulationParams(-2.0, 1.0, 0.3, 0.4, 1e-8),
            design=DesignParams(1.0, 40.0),
            replicates=5,
            seed=7,
            methods=(Method.MAR,),
        )
        with pytest.raises(AllReplicatesFailed, match="ZeroCell"):
            run_mc(cfg, workers=1)

    def test_worker_count_does_not_change_the_report(self, canonical, monkeypatch):
        # With no start-up cost to recover, the pool takes every replicate.
        monkeypatch.setattr(simulate_mod, "_POOL_STARTUP_S", 0.0)
        cfg = SimConfig(
            params=canonical, design=DesignParams(1.0, 1000.0), replicates=30, seed=11
        )
        assert run_mc(cfg, workers=1) == run_mc(cfg, workers=2)

    def test_small_runs_stay_in_process(self, canonical, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(simulate_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(simulate_mod, "_POOL_STARTUP_S", 60.0)
        cfg = SimConfig(
            params=canonical, design=DesignParams(1.0, 1000.0), replicates=6, seed=11
        )
        run_mc(cfg, workers=2)

    def test_one_adjusted_fit_per_replicate(self, canonical, monkeypatch):
        fit_adjusted = simulate_mod.fit_adjusted
        calls = []

        def count(tables):
            calls.append(len(tables))
            return fit_adjusted(tables)

        monkeypatch.setattr(simulate_mod, "fit_adjusted", count)
        cfg = SimConfig(params=canonical, design=DesignParams(1.0, 1000.0), replicates=5, seed=3)
        report = run_mc(cfg, workers=1)
        # One batch of five tables: each table's adjusted fit runs once.
        assert calls == [5]
        assert [st.n_included for st in report.stats] == [5, 5, 5]

    def test_adjcon_reports_the_adjusted_fit_failure(self, canonical):
        # No subject has the covariate: the adjusted fit raises ZeroMargin,
        # and AdjCon, which starts from it, reports the same kind.
        w = np.array([[[40.0, 30.0], [0.0, 0.0]], [[25.0, 35.0], [0.0, 0.0]]])
        cfg = SimConfig(params=canonical, design=DesignParams(1.0, 130.0), replicates=1, seed=0)
        (rows,) = simulate_mod._fit_block((cfg, w[None]))
        assert [r[5] for r in rows] == ["", "ZeroMargin", "ZeroMargin"]
        with pytest.raises(ZeroMargin):
            fit_constrained(CaseControlTable(w), canonical.f)

    @pytest.mark.parametrize("cpus, replicates, expected", [(4, 6, 4), (64, 6, 6)])
    def test_worker_count_is_capped(self, canonical, monkeypatch, cpus, replicates, expected):
        # A process pool forks all of its workers at the first submit, so the
        # cap must hold before the pool exists; this fake pool starts none.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

        monkeypatch.setattr(simulate_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate_mod, "_POOL_STARTUP_S", 0.0)
        monkeypatch.setattr(simulate_mod.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("CCEFF_THREADS", "5000")
        cfg = SimConfig(
            params=canonical, design=DesignParams(1.0, 1000.0), replicates=replicates, seed=11
        )
        assert run_mc(cfg) == run_mc(cfg, workers=1)
        assert started == [expected]


class TestLimitingValue:
    def test_truth_is_fixed_point(self, canonical):
        lp = limiting_value(canonical, DesignParams(1.0, 1.0), canonical.f)
        assert_allclose(lp.s_star, (1.0, 0.3, 0.4, 0.5), atol=1e-12)
        assert lp.expected_loglik < 0.0

    def test_sandwich_at_truth_equals_information_inverse(self, canonical):
        lp = limiting_value(canonical, DesignParams(1.0, 1.0), canonical.f)
        assert_allclose(lp.sandwich, lp.sandwich.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(lp.sandwich) > 0.0)
        assert_allclose(lp.sandwich[1, 1], sigma_AC_sq(canonical, 1.0), rtol=1e-10)

    def test_infeasible_prevalence(self, canonical):
        d = DesignParams(1.0, 1.0)
        with pytest.raises(InfeasiblePrevalence):
            limiting_value(canonical, d, 0.9995)
        with pytest.raises(InfeasiblePrevalence):
            limiting_value(canonical, d, 0.0)
        with pytest.raises(InfeasiblePrevalence):
            limiting_value(canonical, d, 0.75, eps=0.3)


class TestMisspecSweep:
    def test_exact_prevalence_gives_zero_deviation(self, canonical):
        (row,) = misspec_sweep(canonical, DesignParams(1.0, 1.0), [canonical.f])
        assert row.dev_s <= 1e-10
        assert row.dev_sigma <= 1e-8
        assert math.isnan(row.ratio_s) and math.isnan(row.ratio_sigma)
        assert row.error == ""

    def test_deviation_scales_linearly_in_the_gap(self, canonical):
        f0 = canonical.f
        gaps = (0.08, 0.04, 0.02, 0.01)
        rows = misspec_sweep(canonical, DesignParams(1.0, 1.0), [f0 + h for h in gaps])
        for r, h in zip(rows, gaps):
            assert r.error == ""
            assert_allclose(r.ratio_s, r.dev_s / h, rtol=1e-12)
        for a, b in zip(rows, rows[1:]):
            assert 0.4 <= b.dev_s / a.dev_s <= 0.6
            assert 0.4 <= b.dev_sigma / a.dev_sigma <= 0.6

    def test_capture_errors(self, canonical):
        d = DesignParams(1.0, 1.0)
        rows = misspec_sweep(canonical, d, [0.3, 0.9995])
        assert rows[0].error == "" and not math.isnan(rows[0].dev_s)
        assert rows[1].error.startswith("InfeasiblePrevalence")
        assert math.isnan(rows[1].dev_s)
        with pytest.raises(InfeasiblePrevalence):
            misspec_sweep(canonical, d, [0.9995], capture_errors=False)

    def test_mc_confirms_the_limit(self, canonical):
        rows = misspec_sweep(
            canonical,
            DesignParams(1.0, 2000.0),
            [canonical.f + 0.05],
            mc_confirm=(2000.0, 60),
            seed=3,
            workers=1,
        )
        (row,) = rows
        gamma_star = row.s_star[1]
        assert abs(row.mc_mean_gamma - gamma_star) <= 5.0 * row.mc_mean_gamma_se
