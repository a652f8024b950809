from collections import Counter
import math
import tracemalloc
import warnings

from hypothesis import example, given
from hypothesis import strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import binom, chi2

import cceff.model as model_mod
import cceff.simulate as simulate_mod
from cceff import (
    AllReplicatesFailed,
    BracketFailure,
    CaseControlTable,
    DesignParams,
    FitResult,
    InfeasiblePrevalence,
    InvalidInput,
    Method,
    PopulationParams,
    SimConfig,
    ZeroMargin,
    alpha_from_prevalence,
    asymptotic_power,
    bias_delta,
    expected_table,
    fit_adjusted_batch,
    fit_constrained,
    fit_constrained_batch,
    fit_marginal_batch,
    limiting_value,
    misspec_sweep,
    retro_distribution,
    run_mc,
    sample_table,
    sample_tables,
    sigma_A_sq,
    sigma_AC_sq,
    sigma_M_sq,
)
from cceff.estimators import _results

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

    @pytest.mark.parametrize("kw", [
        {"replicates": 2.5},
        {"replicates": "10"},
        {"methods": ("foo",)},
        {"methods": ("mar", "foo")},
        {"methods": ()},
        {"design": DesignParams(1.0, 100.5)},
        {"design": DesignParams(1.0, 1.0)},
        {"design": DesignParams(1.0, 1e17)},
        {"seed": 1.5},
        {"seed": "1"},
    ])
    def test_rejects_values_outside_the_field_type_before_any_work(self, kw):
        with pytest.raises(InvalidInput):
            self.base(**kw)

    @pytest.mark.parametrize("methods, repeated", [
        (("mar", "mar", "adjcon"), "mar"),
        ((Method.ADJCON, "adj", "mar", "adj", "adjcon"), "adj"),
    ])
    def test_a_repeated_method_is_invalid_input(self, methods, repeated):
        with pytest.raises(InvalidInput, match=f"^method {repeated} is named more than once$"):
            self.base(methods=methods)

    def test_integer_like_replicates_become_int(self):
        cfg = self.base(replicates=np.int64(10))
        assert cfg.replicates == 10 and type(cfg.replicates) is int

    def test_integer_like_seed_becomes_int(self):
        cfg = self.base(seed=np.int64(7))
        assert cfg.seed == 7 and type(cfg.seed) is int


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

    def test_numpy_integer_seeds_and_indices(self, canonical):
        d = DesignParams(1.0, 1000.0)
        ref = sample_tables(canonical, d, 7, range(5))
        for seed, indices in [(np.int64(7), np.arange(5)), (np.uint64(7), range(5)),
                              (7, np.arange(5, dtype=np.int32))]:
            assert sample_tables(canonical, d, seed, indices).tobytes() == ref.tobytes()
        assert np.array_equal(sample_table(canonical, d, np.int64(7), np.int64(3)).w, ref[3])

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 - 1, 12345678901234567890, np.int64(7)])
    def test_equals_the_per_replicate_philox_stream(self, canonical, seed):
        indices = [0, 1, 2, 17, 2**32, 2**63, 2**64 - 1, 10**19, -1]
        for design in (DesignParams(1.0, 1000.0), DesignParams(0.5, 150.0)):
            got = sample_tables(canonical, design, seed, indices)
            want = [oracles.sample_table(canonical, design, int(seed), i) for i in indices]
            assert got.tobytes() == np.array(want).tobytes()

    def test_draws_no_os_entropy(self, canonical, monkeypatch):
        # SeedSequence(None) takes its entropy from this function.
        def no_entropy(*args):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        with pytest.raises(AssertionError):
            np.random.Philox(key=[1, 2])
        sample_tables(canonical, DesignParams(1.0, 1000.0), 3, range(4))

    @pytest.mark.parametrize("seed, index", [(1.5, 0), (1.0, 0), (1, 0.0), ("1", 0)])
    def test_non_integer_seed_or_index_is_invalid(self, canonical, seed, index):
        with pytest.raises(InvalidInput):
            sample_table(canonical, DesignParams(1.0, 1000.0), seed, index)

    def test_rejects_fractional_or_tiny_n(self, canonical):
        with pytest.raises(ValueError):
            sample_table(canonical, DesignParams(1.0, 100.5), 0, 0)
        with pytest.raises(ValueError):
            sample_table(canonical, DesignParams(1.0, 1.0), 0, 0)
        with pytest.raises(InvalidInput, match=r"at most 2\*\*53"):  # counts beyond exact floats
            sample_table(canonical, DesignParams(1.0, 1e17), 0, 0)
        assert sample_table(canonical, DesignParams(1.0, 2.0**53), 0, 0).n == 2.0**53

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


class TestInverseCDF:
    """Each sampled count is the smallest k whose binomial CDF reaches the draw's uniform."""

    def test_cdf_is_bitwise_binom_cdf(self):
        # If a scipy release renames or changes the private ufunc, this fails.
        rng = np.random.Generator(np.random.Philox(key=2026))
        size = 20000
        n = np.floor(10.0 ** rng.uniform(0.0, 7.0, size)).astype(np.int64)
        k = np.floor(rng.random(size) * (n + 1.0))
        tiny = rng.uniform(0.0, 1e-15, size)
        p = np.concatenate([rng.random(size - 200), tiny[:100], 1.0 - tiny[100:200]])
        p = np.clip(p, 5e-324, np.nextafter(1.0, 0.0))
        got = simulate_mod._binom_cdf(k, n, p)
        want = binom.cdf(k, n, p)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # Lanes of (u, n), u on the grid of Philox uniforms k 2^-53 from 0 to
    # 1 - 2^-53, with calls of one lane up to 40.
    uniform = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
    lanes = st.lists(st.tuples(uniform, st.integers(1, 10**12)), min_size=1, max_size=40)
    exponent = st.floats(-12.0, -0.3)
    log_uniform_p = st.one_of(exponent.map(lambda e: 10.0**e), exponent.map(lambda e: 1.0 - 10.0**e))

    @given(lanes=lanes, p=log_uniform_p)
    @example(lanes=[(0.0, 10**4)] * 20, p=0.3)
    # boost's binom.ppf answers 3383 here without a warning; the CDF's count is 3378.
    @example(lanes=[(1.0 - 2.0**-53, 10**4)] * 20, p=0.3)
    @example(lanes=[(2.0**-53, 10**4), (2.0**-53, 10**12)] * 10, p=0.3)
    @example(lanes=[(0.0, 1), (1.0 - 2.0**-53, 1), (2.0**-53, 1)], p=1e-12)
    @example(lanes=[(0.0, 10**12), (1.0 - 2.0**-53, 10**12), (2.0**-53, 7)] * 6, p=1.0 - 1e-12)
    def test_quantile_is_the_smallest_count_the_cdf_reaches(self, lanes, p):
        u = np.array([lane[0] for lane in lanes])
        n = np.array([lane[1] for lane in lanes], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = simulate_mod._binom_quantile(u, n, p)
        assert np.all((0.0 <= k) & (k <= n))
        # binom.cdf(-1) is 0, which u = 0 does not exceed: there the count is 0.
        assert np.all((binom.cdf(k - 1.0, n, p) < u) | ((k == 0.0) & (u == 0.0)))
        assert np.all(u <= binom.cdf(k, n, p))

    def test_a_count_does_not_depend_on_the_size_of_its_split(self):
        # boost's solver, which once drew splits under 16 draws, answered 0 here.
        u, p = 1.0 - 2.0**-53, 1.7402093740624849e-16
        alone = simulate_mod._binom_quantile(np.full(1, u), np.ones(1, dtype=np.int64), p)
        shared = simulate_mod._binom_quantile(np.full(16, u), np.ones(16, dtype=np.int64), p)
        assert alone.tolist() == [1.0]
        assert shared.tolist() == [1.0] * 16

    @staticmethod
    def _truth(f, beta, gamma, theta, pi):
        return PopulationParams(alpha_from_prevalence(f, beta, gamma, theta, pi), beta, gamma, theta, pi)

    @pytest.mark.parametrize("replicates", [1, 200])
    @pytest.mark.parametrize("truth, design", [
        ((0.02, 1.5, 0.0, 0.1, 0.08), DesignParams(0.5, 2.0**53)),  # mc_sparse's truth
        ((0.5, 3.0, 2.0, 1e-6, 0.999), DesignParams(1.0, 8e15)),
        ((0.3, 1.0, 0.3, 0.4, 0.5), DesignParams(1.0, 2.0**53)),  # Fig. 1
    ])
    def test_sample_sizes_up_to_2_53_draw_valid_tables(self, truth, design, replicates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = sample_tables(self._truth(*truth), design, 1, range(replicates))
        assert np.all(tables >= 0.0)
        n1, n0 = simulate_mod._arm_sizes(design)
        assert np.all(tables.sum(axis=(2, 3)) == [n0, n1])

    def test_a_cdf_that_is_not_finite_is_invalid_input(self, monkeypatch):
        monkeypatch.setattr(simulate_mod, "_binom_cdf", lambda k, n, p: np.full(np.shape(k), np.nan))
        with pytest.raises(InvalidInput, match=r"^sampling cannot split 7 subjects"):
            simulate_mod._binom_quantile(np.array([0.5]), np.array([7]), 0.3)

    def test_near_one_with_a_tiny_p_the_count_is_the_cdfs(self):
        # Near u = 1 with a tiny p boost's solver warns and answers 2; the
        # CDF's smallest count is 1, found without a warning.
        u, n = np.array([0.9999999999999966]), np.array([524])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate_mod._binom_quantile(u, n, 2.968095569765316e-11)
        assert got.tolist() == [1.0]

    @pytest.mark.parametrize("n, probs", [
        (10, np.full(4, 0.25)),
        (1, np.array([0.1, 0.2, 0.3, 0.4])),
        (20000, np.array([0.5, 0.0, 0.25, 0.25])),
        (7, np.array([1e-300, 0.5, 0.5 - 1e-300, 1e-16])),
    ])
    def test_zero_uniforms_give_a_multinomial_draw(self, n, probs):
        # Philox random() can return exactly 0.0; binom.ppf(0, n, p) is -1.
        u = np.zeros((3, 3))
        u[1, 1:] = 0.5
        u[2, 0] = 0.999
        counts = simulate_mod._multinomial_invcdf(u, n, probs)
        assert counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert np.all(counts.sum(axis=1) == n)


class TestRunMC:
    def test_estimates_concentrate_on_their_limits(self, canonical):
        cfg = SimConfig(
            params=canonical,
            design=DesignParams(1.0, 2000.0),
            replicates=120,
            seed=20260815,
        )
        report = run_mc(cfg)
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
        report = run_mc(cfg)
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
        s = run_mc(cfg).stats[0]
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
        s_drop = run_mc(SimConfig(**base)).stats[0]
        s_rej = run_mc(SimConfig(**base, failures_reject=True)).stats[0]
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
            run_mc(cfg)

    @pytest.mark.parametrize("chunk", [1, 7, 30])  # 30: one batch, as the default gives
    def test_batch_size_does_not_change_the_report(self, canonical, monkeypatch, chunk):
        cfg = SimConfig(
            params=canonical, design=DesignParams(1.0, 1000.0), replicates=30, seed=11
        )
        f1s = [canonical.f - 0.05, canonical.f + 0.05]

        def reports():
            sweep = misspec_sweep(canonical, DesignParams(1.0, 1e5), f1s, mc_confirm=(1000, 30),
                                  seed=11)
            return run_mc(cfg), sweep

        default = reports()
        assert all(math.isfinite(row.mc_mean_gamma_se) for row in default[1])
        monkeypatch.setattr(simulate_mod, "_CHUNK", chunk)
        assert reports() == default

    def test_lanes_type_every_replicate_as_the_public_fits_do(self, monkeypatch):
        # At the sparse truth, 300 replicates of seed 1 hold Mar ZeroCell and
        # AdjCon SingularInformation and NonConvergence lanes.
        sparse = PopulationParams(
            alpha_from_prevalence(0.02, 1.5, 0.0, 0.1, 0.08), 1.5, 0.0, 0.1, 0.08
        )
        design = DesignParams(0.5, 150.0)
        fit_block, blocks = simulate_mod._fit_block, []

        def recorded(*args):
            blocks.append(fit_block(*args))
            return blocks[-1]

        monkeypatch.setattr(simulate_mod, "_fit_block", recorded)
        report = run_mc(SimConfig(params=sparse, design=design, replicates=300, seed=1))
        tables = sample_tables(sparse, design, 1, range(300))
        public = [fit_marginal_batch(tables), fit_adjusted_batch(tables),
                  fit_constrained_batch(tables, sparse.f)]
        (block,) = blocks
        kinds = set()
        for lanes, outcomes, st in zip(block, public, report.stats):
            fits = [o for o in outcomes if isinstance(o, FitResult)]
            errors = [(type(o), str(o)) for o in outcomes if not isinstance(o, FitResult)]
            assert lanes.gamma.tolist() == [fit.gamma_hat for fit in fits]
            assert lanes.se.tolist() == [fit.se_gamma for fit in fits]
            assert [(type(e), str(e)) for e in lanes.failed if e is not None] == errors
            assert st.n_included == len(fits)
            assert st.failures == Counter(kind.__name__ for kind, _ in errors)
            assert st.mean_gamma == float(np.array([fit.gamma_hat for fit in fits]).mean())
            kinds |= {(st.method.value, kind) for kind in st.failures}
        assert kinds == {
            ("mar", "ZeroCell"), ("adjcon", "SingularInformation"), ("adjcon", "NonConvergence")
        }

    def test_memory_does_not_grow_with_the_replicates(self, monkeypatch):
        monkeypatch.setattr(simulate_mod, "_CHUNK", 256)
        fig1 = PopulationParams(
            alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5), 1.0, 0.3, 0.4, 0.5
        )

        def peak(replicates):
            cfg = SimConfig(fig1, DesignParams(1.0, 20000.0), replicates, seed=1)
            tracemalloc.start()
            try:
                run_mc(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)  # the truth's cached laws and first-call allocations
        # Kept: 16 bytes a replicate for each of the three methods.
        assert peak(5000) - peak(1000) <= 2**20

    def test_one_adjusted_fit_per_replicate(self, canonical, monkeypatch):
        fit_adjusted = simulate_mod.fit_adjusted
        calls = []

        def count(tables):
            calls.append(len(tables))
            return fit_adjusted(tables)

        monkeypatch.setattr(simulate_mod, "fit_adjusted", count)
        cfg = SimConfig(params=canonical, design=DesignParams(1.0, 1000.0), replicates=5, seed=3)
        report = run_mc(cfg)
        # One batch of five tables: each table's adjusted fit runs once.
        assert calls == [5]
        assert [st.n_included for st in report.stats] == [5, 5, 5]

    def test_truth_laws_are_computed_once(self, monkeypatch):
        retro_lanes = model_mod._retro_lanes
        calls = []

        def counted(*args):
            calls.append(args)
            return retro_lanes(*args)

        monkeypatch.setattr(model_mod, "_retro_lanes", counted)
        # A fresh truth: the theory columns and the sampler share its laws.
        params = PopulationParams(-2.0, 1.0, 0.3, 0.4, 0.5)
        run_mc(SimConfig(params=params, design=DesignParams(1.0, 1000.0), replicates=5, seed=3))
        assert len(calls) == 1

    def test_theory_column_failure_raises_the_one_point_error(self, monkeypatch):
        # expit(-45 + 43 + 40) rounds to 1: the Adj fits mostly succeed, but
        # sigma_A has no finite value, and run_mc raises its one-point error
        # before any fit runs.
        p = PopulationParams(alpha=-45.0, beta=43.0, gamma=40.0, theta=0.5, pi=0.5)
        design = DesignParams(1.0, 400.0)
        fits = fit_adjusted_batch(sample_tables(p, design, 1, range(20)))
        assert sum(isinstance(fit, FitResult) for fit in fits) >= 15
        calls = []

        def counted(tables):
            calls.append(len(tables))
            return fit_adjusted_batch(tables)

        monkeypatch.setattr(simulate_mod, "fit_adjusted", counted)
        with pytest.raises(InvalidInput, match="an exposure probability rounds to 0 or 1"):
            run_mc(SimConfig(params=p, design=design, replicates=20, seed=1, methods=("adj",)))
        assert calls == []
        cfg = SimConfig(params=p, design=design, replicates=20, seed=1, methods=("mar",))
        assert run_mc(cfg).stats[0].n_included == 20

    def test_adjcon_reports_the_adjusted_fit_failure(self, canonical):
        # No subject has the covariate: the adjusted fit raises ZeroMargin,
        # and AdjCon, which starts from it, reports the same kind.
        w = np.array([[[40.0, 30.0], [0.0, 0.0]], [[25.0, 35.0], [0.0, 0.0]]])
        fits = simulate_mod._fit_block(tuple(Method), w[None], canonical.f, False)
        outcomes = [o for (o,) in map(_results, fits)]
        kinds = ["" if isinstance(o, FitResult) else type(o).__name__ for o in outcomes]
        assert kinds == ["", "ZeroMargin", "ZeroMargin"]
        with pytest.raises(ZeroMargin):
            fit_constrained(CaseControlTable(w), canonical.f)


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

    def test_prevalence_one_ulp_below_one_is_a_typed_error(self, canonical):
        # eps = 1e-17 admits f_used = 1 - 2^-53, where every p (1 - p)
        # rounds to 0 at the truth's intercept: no derivatives, so no limit.
        # It used to warn and return the truth as a LimitPoint.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasiblePrevalence, match="dF/dalpha is 0"):
                limiting_value(canonical, DesignParams(1.0, 1.0), 0.9999999999999999, eps=1e-17)

    def test_subnormal_prevalence_is_a_bracket_failure(self):
        # No intercept reproduces f = 1e-310, so the limit's inversion fails.
        fig1 = PopulationParams(
            alpha_from_prevalence(0.3, 1.0, 0.3, 0.4, 0.5), beta=1.0, gamma=0.3, theta=0.4, pi=0.5
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketFailure):
                limiting_value(fig1, DesignParams(1.0, 1e5), 1e-310)


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

    @pytest.mark.parametrize("f1", [0.35, 1.5])
    def test_unsampleable_mc_confirm_is_invalid_before_any_limit(self, canonical, monkeypatch, f1):
        def no_limits(*args):
            raise AssertionError("a limit was computed")

        monkeypatch.setattr(simulate_mod, "limiting_values", no_limits)
        with pytest.raises(InvalidInput, match="both case and control counts must be at least 1"):
            misspec_sweep(canonical, DesignParams(1.0, 1.0), [f1], mc_confirm=(1, 5))

    def test_non_integer_seed_is_invalid_before_any_limit(self, canonical, monkeypatch):
        def no_limits(*args):
            raise AssertionError("a limit was computed")

        monkeypatch.setattr(simulate_mod, "limiting_values", no_limits)
        with pytest.raises(InvalidInput, match="seed=1.5 must be an integer"):
            misspec_sweep(canonical, DesignParams(1.0, 1.0), [0.3], mc_confirm=(200, 3), seed=1.5)

    def test_mc_confirms_the_limit(self, canonical):
        rows = misspec_sweep(
            canonical,
            DesignParams(1.0, 2000.0),
            [canonical.f + 0.05],
            mc_confirm=(2000.0, 60),
            seed=3,
        )
        (row,) = rows
        gamma_star = row.s_star[1]
        assert abs(row.mc_mean_gamma - gamma_star) <= 5.0 * row.mc_mean_gamma_se
