"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (echoed in the terminal summary)
with its elapsed time against the stated budget.
"""

import csv
import math
import time

import numpy as np

import cceff.simulate
import conftest
import oracles
from _grids import draw_params
from cceff import (
    DesignParams,
    PopulationParams,
    SimConfig,
    alpha_from_prevalence,
    attenuation_slope,
    bias_delta,
    expected_table,
    fit_adjusted,
    fit_constrained,
    fit_marginal,
    lambda0,
    lambda_ratio,
    misspec_sweep,
    pitman_are_M_vs_A,
    pitman_are_M_vs_AC,
    pitman_tau,
    run_mc,
    sigma0_sq,
    sigma_A_sq,
    sigma_AC_sq,
    sigma_M_sq,
    theory_curve,
)
from cceff.cli import main

GRID = draw_params(np.random.default_rng(99), 10_000)

# Fig. 1 parameter point: beta=1, gamma=0.3, theta=0.4, pi=0.5, f=0.3, nu=1
F0 = 0.3
ALPHA0 = alpha_from_prevalence(F0, 1.0, 0.3, 0.4, 0.5)
TRUTH = PopulationParams(ALPHA0, 1.0, 0.3, 0.4, 0.5)


def verdict(num, elapsed, budget, ok, detail):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = f"criterion {num:02d}: {status} ({elapsed:.1f}s of {budget:.0f}s) {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_population_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, beta, gamma, theta, pi, _ in GRID:
        want = oracles.enum_marginal_logor(alpha, beta, gamma, theta, pi)
        worst = max(worst, abs(gamma + bias_delta(alpha, beta, gamma, theta) - want))
    verdict(
        1, time.perf_counter() - t0, 5.0, worst <= 1e-12,
        f"gamma+delta vs enumerated marginal log-OR on 1e4 grid, max |resid| {worst:.2e}",
    )


def test_criterion_02_shrinkage_and_minimizer():
    t0 = time.perf_counter()
    ok = True
    notes = []

    worst = -np.inf
    for alpha, beta, gamma, theta, _, _ in GRID:
        gpd = gamma + bias_delta(alpha, beta, gamma, theta)
        worst = max(worst, abs(gpd) - abs(gamma))
        if min(abs(beta), abs(gamma)) > 0.05 and abs(gpd) >= abs(gamma):
            ok = False
    ok = ok and worst <= 1e-12
    notes.append(f"max(|g+d|-|g|) {worst:.2e}")

    for alpha, beta, gamma, theta, _, _ in GRID[:50]:
        if abs(bias_delta(alpha, 0.0, gamma, theta)) > 1e-12:
            ok = False
        if abs(bias_delta(alpha, beta, 0.0, theta)) > 1e-12:
            ok = False

    fs = np.linspace(0.01, 0.99, 99)
    rows = theory_curve(fs, 1.0, 0.3, 0.4, 0.5, 1.0, 50000.0)
    idx = int(np.argmin([abs(r.gamma_plus_delta) for r in rows]))
    f_star = rows[0].f_star
    step = fs[1] - fs[0]
    ok = ok and abs(fs[idx] - f_star) <= step
    ok = ok and idx == int(np.argmax([abs(r.delta) for r in rows]))
    notes.append(f"|gamma+delta| grid argmin {fs[idx]:.2f} vs f* {f_star:.4f}")

    verdict(2, time.perf_counter() - t0, 5.0, ok, "; ".join(notes))


def test_criterion_03_variance_ordering():
    t0 = time.perf_counter()
    ok = True
    worst = -np.inf
    for alpha, beta, gamma, theta, pi, nu in GRID:
        p = PopulationParams(alpha, beta, gamma, theta, pi)
        s_m, s_a = sigma_M_sq(p, nu), sigma_A_sq(p, nu)
        worst = max(worst, (s_m - s_a) / max(1.0, s_a))
        if abs(beta) > 0.05 and s_a - s_m <= 1e-12 * s_a:
            ok = False
    ok = ok and worst <= 1e-12

    for alpha, _, gamma, theta, pi, nu in GRID[:50]:
        p = PopulationParams(alpha, 0.0, gamma, theta, pi)
        if abs(sigma_A_sq(p, nu) - sigma_M_sq(p, nu)) > 1e-12 * sigma_M_sq(p, nu):
            ok = False

    fig_ok = True
    for f in np.linspace(0.01, 0.99, 99):
        alpha = alpha_from_prevalence(f, 1.0, 0.05, 0.4, 0.5)
        p = PopulationParams(alpha, 1.0, 0.05, 0.4, 0.5)
        s_m, s_ac, s_a = sigma_M_sq(p, 1.0), sigma_AC_sq(p, 1.0), sigma_A_sq(p, 1.0)
        if not (s_m <= s_ac + 1e-12 * s_ac and s_ac <= s_a + 1e-12 * s_a):
            fig_ok = False
    ok = ok and fig_ok

    verdict(
        3, time.perf_counter() - t0, 30.0, ok,
        f"sigma2_M <= sigma2_A on 1e4 grid (worst scaled gap {worst:.2e}); "
        f"sigma2_M <= sigma2_AC <= sigma2_A on the 99-point variance-figure grid: "
        f"{'yes' if fig_ok else 'no'}",
    )


def test_criterion_04_rare_outcome_limits():
    t0 = time.perf_counter()
    beta, theta, pi, nu = 1.0, 0.4, 0.5, 1.0
    lam0 = lambda0(beta, theta, nu)

    rel_lam = abs(lambda_ratio(-30.0, beta, theta, nu) / lam0 - 1.0)

    p = PopulationParams(-30.0, beta, 1e-8, theta, pi)
    rel_ac = abs(sigma_AC_sq(p, nu) / sigma0_sq(nu, pi) - 1.0)

    gaps = []
    for rho in (1e-2, 1e-3, 1e-4):
        ep = pitman_are_M_vs_A(math.log(rho), beta, theta, nu)
        gaps.append(abs(ep - lam0) / rho)
    bounded = max(gaps) <= 2.0 * gaps[0]

    rhos = (1e-1, 1e-2, 1e-3)
    coefs = [
        (pitman_are_M_vs_AC(math.log(r), beta, theta, pi, nu) - 1.0) / r**2 for r in rhos
    ]
    extrap = (rhos[1] * coefs[2] - rhos[2] * coefs[1]) / (rhos[1] - rhos[2])
    tau = pitman_tau(beta, theta, nu)
    rel_tau = abs(extrap / tau - 1.0)

    ok = rel_lam <= 1e-6 and rel_ac <= 1e-3 and bounded and rel_tau <= 1e-2
    verdict(
        4, time.perf_counter() - t0, 10.0, ok,
        f"lambda rel {rel_lam:.1e}; sigma2_AC->sigma2_0 rel {rel_ac:.1e}; "
        f"(eP-lambda0)/rho in [{min(gaps):.3f},{max(gaps):.3f}]; "
        f"tau Richardson rel {rel_tau:.1e}",
    )


def test_criterion_05_efficiency_is_slope_squared_times_lambda():
    t0 = time.perf_counter()
    worst_closed = 0.0
    worst_fd = 0.0
    for alpha, beta, _, theta, _, nu in GRID[:1000]:
        slope = attenuation_slope(alpha, beta, theta)
        lam = lambda_ratio(alpha, beta, theta, nu)
        ep = pitman_are_M_vs_A(alpha, beta, theta, nu)
        worst_closed = max(worst_closed, abs(ep - slope * slope * lam))
        fd = oracles.fd_derivative(
            lambda g: g + bias_delta(alpha, beta, g, theta), 0.0, 1e-6
        )
        worst_fd = max(worst_fd, abs(ep - fd * fd * lam))
    ok = worst_closed <= 1e-12 and worst_fd <= 1e-7
    verdict(
        5, time.perf_counter() - t0, 5.0, ok,
        f"eP vs slope^2*lambda on 1e3 grid: closed-form resid {worst_closed:.1e}, "
        f"finite-difference resid {worst_fd:.1e}",
    )


def test_criterion_06_recovery_on_expected_tables():
    t0 = time.perf_counter()
    design = DesignParams(1.0, 50000.0)
    table = expected_table(TRUTH, design)
    root_n = math.sqrt(design.n)

    adj = fit_adjusted(table)
    adjcon = fit_constrained(table, F0)
    mar = fit_marginal(table)

    dev_adj = max(abs(adj.params[1] - 1.0), abs(adj.gamma_hat - 0.3))
    dev_con = max(abs(adjcon.params[0] - 1.0), abs(adjcon.gamma_hat - 0.3))
    gpd = 0.3 + bias_delta(ALPHA0, 1.0, 0.3, 0.4)
    dev_mar = abs(mar.gamma_hat - gpd)
    se_adj_rel = abs(adj.se_gamma * root_n / math.sqrt(sigma_A_sq(TRUTH, 1.0)) - 1.0)
    var_con_rel = abs((adjcon.se_gamma * root_n) ** 2 / sigma_AC_sq(TRUTH, 1.0) - 1.0)

    ok = (
        dev_adj <= 1e-6
        and dev_con <= 1e-6
        and dev_mar <= 1e-8
        and se_adj_rel <= 1e-8
        and var_con_rel <= 1e-6
    )
    verdict(
        6, time.perf_counter() - t0, 5.0, ok,
        f"Adj dev {dev_adj:.1e}, AdjCon dev {dev_con:.1e}, Mar dev {dev_mar:.1e}, "
        f"Adj se rel {se_adj_rel:.1e}, AdjCon var rel {var_con_rel:.1e}",
    )


def test_criterion_07_monte_carlo_calibration():
    t0 = time.perf_counter()
    design = DesignParams(1.0, 20000.0)
    seed = 20260815
    notes = []
    ok = True

    report = run_mc(SimConfig(params=TRUTH, design=design, replicates=2000, seed=seed))
    for s in report.stats:
        limit = TRUTH.gamma + s.theory_delta
        z_mean = abs(s.mean_gamma - limit) / s.mean_gamma_mc_se
        sd_rel = abs(s.sd_root_n / s.theory_sigma - 1.0)
        if z_mean > 3.0 or sd_rel > 0.05:
            ok = False
        notes.append(f"{s.method.value}: mean z {z_mean:.2f}, sd rel {sd_rel:.1%}")

    alpha_null = alpha_from_prevalence(F0, 1.0, 0.0, 0.4, 0.5)
    null = PopulationParams(alpha_null, 1.0, 0.0, 0.4, 0.5)
    report0 = run_mc(SimConfig(params=null, design=design, replicates=2000, seed=seed))
    se_bin = math.sqrt(0.05 * 0.95 / 2000.0)
    for s in report0.stats:
        z_rej = abs(s.rejection_rate - 0.05) / se_bin
        if z_rej > 3.0:
            ok = False
        notes.append(f"{s.method.value} null reject z {z_rej:.2f}")

    verdict(7, time.perf_counter() - t0, 180.0, ok, "; ".join(notes))


def test_criterion_08_power_ordering_and_panel_export(tmp_path):
    t0 = time.perf_counter()
    panels = {
        "A": ["--beta", "1", "--gamma", "0.3", "--theta", "0.4", "--pi", "0.5",
              "--f-grid", "0.01:0.99:99"],
        "B": ["--beta", "1", "--gamma", "0.05", "--theta", "0.4", "--pi", "0.5",
              "--nu", "1", "--f-grid", "0.01:0.99:99"],
        "C": ["--beta", "1", "--gamma", "0.05", "--theta", "0.4", "--pi", "0.5",
              "--nu", "1", "--n", "50000", "--f-grid", "0.01:0.99:50"],
    }
    ok = True
    for name, args in panels.items():
        out = tmp_path / f"panel_{name}.csv"
        if main(["theory", *args, "--out", str(out)]) != 0:
            ok = False
    with open(tmp_path / "panel_C.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = ok and len(rows) == 50
    low_high_ok = True
    for row in rows:
        f = float(row["f"])
        p_m, p_a, p_ac = (float(row[k]) for k in ("power_M", "power_A", "power_AC"))
        if p_ac < p_a - 1e-12:
            ok = False
        if (f <= 0.05 or f >= 0.95) and not p_m > p_a:
            low_high_ok = False
    ok = ok and low_high_ok
    verdict(
        8, time.perf_counter() - t0, 10.0, ok,
        "power_AC >= power_A at all 50 grid points; power_M > power_A in both "
        f"prevalence tails: {'yes' if low_high_ok else 'no'}; panels A-C each "
        "written by a single theory call",
    )


def test_criterion_09_misspecification_stability():
    t0 = time.perf_counter()
    design = DesignParams(1.0, 100000.0)
    gaps = (0.1, 0.05, 0.025, 0.0125)
    rows = misspec_sweep(TRUTH, design, [F0 + h for h in gaps])
    rs = [r.ratio_s for r in rows]
    rsig = [r.ratio_sigma for r in rows]
    band_ok = (
        max(rs) <= 2.0 * min(rs)
        and max(rsig) <= 2.0 * min(rsig)
        and rs[-1] <= 1.25 * rs[0]
        and rsig[-1] <= 1.25 * rsig[0]
    )
    (exact,) = misspec_sweep(TRUTH, design, [F0])
    zero_ok = exact.dev_s <= 1e-8 and exact.dev_sigma <= 1e-8
    verdict(
        9, time.perf_counter() - t0, 30.0, band_ok and zero_ok,
        f"ratio_s in [{min(rs):.4f},{max(rs):.4f}], "
        f"ratio_sigma in [{min(rsig):.3f},{max(rsig):.3f}]; "
        f"f1=f0 deviations ({exact.dev_s:.1e}, {exact.dev_sigma:.1e})",
    )


def test_criterion_10_manifest_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    from cceff.cli import manifest_path, manifest_to_argv

    ok = True
    sim_out = tmp_path / "sim.csv"
    args = ["simulate", "--f", "0.3", "--beta", "1", "--gamma", "0.3",
            "--theta", "0.4", "--pi", "0.5", "--n", "2000",
            "--replicates", "60", "--seed", "17", "--out", str(sim_out)]
    monkeypatch.setattr(cceff.simulate, "_CHUNK", 1)
    ok = ok and main(args) == 0
    first = sim_out.read_bytes()
    monkeypatch.setattr(cceff.simulate, "_CHUNK", 7)
    ok = ok and main(manifest_to_argv(manifest_path(str(sim_out)))) == 0
    sim_same = sim_out.read_bytes() == first
    ok = ok and sim_same

    mis_out = tmp_path / "mis.csv"
    args = ["misspec", "--f", "0.3", "--beta", "1", "--gamma", "0.3",
            "--theta", "0.4", "--pi", "0.5", "--f1-list", "0.25,0.35",
            "--mc-confirm", "500", "20", "--seed", "3", "--out", str(mis_out)]
    ok = ok and main(args) == 0
    first = mis_out.read_bytes()
    monkeypatch.setattr(cceff.simulate, "_CHUNK", 1)
    ok = ok and main(manifest_to_argv(manifest_path(str(mis_out)))) == 0
    mis_same = mis_out.read_bytes() == first
    ok = ok and mis_same

    verdict(
        10, time.perf_counter() - t0, 60.0, ok,
        f"simulate CSV bitwise stable across manifest rebuild and batch sizes: "
        f"{'yes' if sim_same else 'no'}; misspec with mc-confirm: "
        f"{'yes' if mis_same else 'no'}",
    )
