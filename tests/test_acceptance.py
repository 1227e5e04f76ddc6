"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing defers to calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from impact_bsde import (
    ConstantDemand,
    LinearClipped,
    MarketConfig,
    NegativeSignOfB,
    SignOfBT,
    TableDemand,
    TableDividend,
    bmo_norm,
    bmo_norm_rv,
    build_lattice,
    conditional_expectation,
    contraction_report,
    driver_growth_bound,
    evaluate_market,
    h_norm,
    hitting_time_tau,
    localize,
    measure_kappa,
    picard_map,
    price_equilibrium,
    solve_explicit,
    solve_picard,
)
from impact_bsde.verify import (
    check_F_identity,
    check_optimality,
    check_supermartingale_V,
    run_counterexample,
)

from helpers import brownian, equilibrium_defects, max_gap, random_table_config
from picard_reference import pair_distance, pair_norm


def _line(num: int, ok: bool, name: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} ({detail})"


def test_c01_one_period_closed_form():
    start = time.time()
    lat = build_lattice(1, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.5), SignOfBT(), 1, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    want_s = -math.tanh(0.5)
    want_r = 0.5 * math.tanh(0.5) - math.log(math.cosh(0.5))
    gap_s = abs(sol.initial_price[0] - want_s)
    gap_r = abs(sol.initial_certainty - want_r)
    elapsed = time.time() - start
    _line(1, gap_s <= 1e-12 and gap_r <= 1e-12 and elapsed < 1.0,
          "one-period closed form",
          f"|dS0|={gap_s:.2e} |dR0|={gap_r:.2e} {elapsed:.2f}s")


def test_c02_equilibrium_invariants_randomized():
    start = time.time()
    rng = np.random.default_rng(20240201)
    worst = {"z": 0.0, "s": 0.0, "g": 0.0, "r": 0.0}
    for _ in range(100):
        num_steps = int(rng.integers(1, 11))
        n = int(rng.integers(1, 3))
        cfg = random_table_config(rng, num_steps, num_stocks=n, a_lo=0.05, a_hi=1.0)
        lat = build_lattice(num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        z_def, s_def, g_def = equilibrium_defects(sol)
        worst["z"] = max(worst["z"], z_def)
        worst["s"] = max(worst["s"], s_def)
        worst["g"] = max(worst["g"], g_def)
        worst["r"] = min(worst.get("r", 0.0),
                         min(float(np.min(v)) for v in sol.certainty_equivalent.values))
    elapsed = time.time() - start
    ok = (worst["z"] <= 1e-10 and worst["s"] <= 1e-10 and worst["g"] <= 1e-10
          and worst["r"] >= -1e-12 and elapsed < 30.0)
    _line(2, ok, "equilibrium martingale and nonnegativity invariants, 100 draws",
          f"defects z={worst['z']:.1e} s={worst['s']:.1e} gain={worst['g']:.1e} "
          f"minR={worst['r']:.1e} {elapsed:.1f}s")


@pytest.fixture(scope="module")
def small_data_runs():
    """50 randomized small-data instances solved by both routes."""
    rng = np.random.default_rng(20240303)
    runs = []
    for _ in range(50):
        num_steps = int(rng.integers(4, 9))
        cfg = random_table_config(rng, num_steps, a_lo=0.01, a_hi=0.1)
        lat = build_lattice(num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        pic, diag = solve_picard(inst, tol=1e-12, max_iter=150)
        exp = solve_explicit(inst)
        runs.append((lat, cfg, pic, diag, exp))
    return runs


def test_c03_solver_oracle_equivalence(small_data_runs):
    start = time.time()
    converged = sum(1 for _, _, _, diag, _ in small_data_runs if diag.converged)
    worst = 0.0
    for _, _, pic, diag, exp in small_data_runs:
        if not diag.converged:
            continue
        for attr in ("scaled_value", "scaled_price", "value_integrand",
                     "price_integrand"):
            worst = max(worst, max_gap(getattr(pic, attr), getattr(exp, attr)))
    elapsed = time.time() - start
    ok = converged == 50 and worst <= 1e-10 and elapsed < 60.0
    _line(3, ok, "fixed-point runs match the explicit solver node for node",
          f"converged={converged}/50 max gap={worst:.2e} {elapsed:.1f}s")


def test_c04_contraction_theory_bounds(small_data_runs):
    kappa_cache: dict = {}
    ball_ok = True
    growth_ok = True
    for lat, cfg, _, diag, _ in small_data_runs:
        if not diag.converged:
            continue
        ball_ok &= diag.final_norm <= 2.0 * diag.terminal_norm + 1e-9
        key = lat.num_steps
        if key not in kappa_cache:
            kappa_cache[key] = measure_kappa(lat)
        diag.kappa = kappa_cache[key]
        report = contraction_report(diag)
        growth_ok &= all(report.growth_bound_ok)

    # quadratic Lipschitz bound of the fixed-point map on 100 random pairs
    rng = np.random.default_rng(20240404)
    lat = build_lattice(6, 1.0)
    cfg = random_table_config(np.random.default_rng(77), 6)
    inst = evaluate_market(cfg, lat)
    const = 2.0 * measure_kappa(lat) * driver_growth_bound(inst.gamma_sup)

    def rand_pair():
        return ([rng.uniform(-0.5, 0.5, size=1 << k) for k in range(6)],
                [rng.uniform(-0.5, 0.5, size=(1 << k, 1)) for k in range(6)])

    lipschitz_ok = True
    for _ in range(100):
        za, zb = rand_pair(), rand_pair()
        fa = picard_map(inst, *za)
        fb = picard_map(inst, *zb)
        lhs = pair_distance(lat, *fa, *fb)
        rhs = const * pair_distance(lat, *za, *zb) * (
            pair_norm(lat, *za) + pair_norm(lat, *zb))
        lipschitz_ok &= lhs <= rhs + 1e-9

    _line(4, ball_ok and growth_ok and lipschitz_ok,
          "contraction-theory bounds (solution ball, per-iteration growth, "
          "map Lipschitz bound)",
          f"ball={ball_ok} growth={growth_ok} lipschitz={lipschitz_ok}")


def test_c05_apriori_bound_and_supermartingale():
    rng = np.random.default_rng(20240505)
    worst_floor = np.inf
    worst_defect = -np.inf
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            # signed dividend at odd depth (exactly centered), scaled below one
            num_steps = int(rng.choice([5, 7, 9]))
            scale = float(rng.uniform(0.2, 0.9))
            demand = NegativeSignOfB() if i % 4 == 0 else TableDemand(
                [rng.uniform(-1, 1, size=(1 << k, 1)) for k in range(num_steps)])
            cfg = MarketConfig(1.0, 1, demand, SignOfBT(scale), num_steps, 1.0)
            lat = build_lattice(num_steps, 1.0)
        else:
            # centered random table rescaled to a target gauge norm below one
            num_steps = int(rng.integers(4, 9))
            lat = build_lattice(num_steps, 1.0)
            raw = rng.uniform(-1, 1, size=(lat.num_leaves, 1))
            raw -= raw.mean(axis=0)
            target = float(rng.uniform(0.2, 0.9))
            raw *= target / h_norm(raw, lat).value
            cfg = MarketConfig(
                1.0, 1,
                TableDemand([rng.uniform(-1, 1, size=(1 << k, 1))
                             for k in range(num_steps)]),
                TableDividend(raw), num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        psi_h = h_norm(sol.dividend - sol.dividend.mean(axis=0), lat).value
        assert psi_h < 1.0
        floor = 1.0 - psi_h
        min_gap = min(float(np.min(np.exp(-v))) - floor
                      for v in sol.certainty_equivalent.values)
        worst_floor = min(worst_floor, min_gap)
        report = check_supermartingale_V(sol, psi_h_norm=psi_h)
        assert report.status == "pass", report
        worst_defect = max(worst_defect, report.details["max_defect"])
        checked += 1
    ok = worst_floor >= -1e-10 and worst_defect <= 1e-10 and checked == 50
    _line(5, ok, "a-priori lower bound and profile supermartingale, 50 draws",
          f"min floor gap={worst_floor:.2e} max defect={worst_defect:.2e}")


def test_c06_homogeneity_triple_runs():
    rng = np.random.default_rng(20240606)
    worst = 0.0
    for _ in range(10):
        num_steps = int(rng.integers(2, 8))
        n = int(rng.integers(1, 3))
        cfg = random_table_config(rng, num_steps, num_stocks=n)
        lat = build_lattice(num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        for b in (0.5, 2.0, 10.0):
            s1 = price_equilibrium(replace(inst, gamma=inst.gamma.scaled(b)))
            s2 = price_equilibrium(replace(inst, risk_aversion=inst.risk_aversion * b))
            s3 = price_equilibrium(replace(inst, psi=inst.psi * b))
            worst = max(worst, max_gap(s1.prices, s2.prices))
            worst = max(worst, max_gap(s1.prices, s3.prices, 1.0 / b))
            worst = max(worst, max_gap(s1.volatility, s2.volatility))
            worst = max(worst, max_gap(s1.volatility, s3.volatility, 1.0 / b))
            worst = max(worst, max_gap(s1.market_price_of_risk,
                                       s2.market_price_of_risk))
    _line(6, worst <= 1e-12, "homogeneity triple-run identities, 10 instances",
          f"max node gap={worst:.2e}")


def test_c07_localization_on_boundary_inputs():
    worst = 0.0
    compared = 0
    for num_steps, from_step in ((8, 2), (10, 3), (12, 4), (12, 6)):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        tau = hitting_time_tau(lat, 0.0, from_step=from_step)
        _, report = localize(sol, tau)
        worst = max(worst, report.max_price_gap)
        compared += report.nodes_compared
    _line(7, worst <= 1e-10 and compared > 0,
          "localization leaves prices unchanged strictly after the stop",
          f"max gap={worst:.2e} nodes={compared}")


def test_c08_optimality_against_competitors():
    rng = np.random.default_rng(20240808)
    worst = np.inf
    instances = [
        MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), 6, 1.0),
        MarketConfig(1.0, 1, ConstantDemand(0.8), SignOfBT(0.5), 6, 1.0),
        random_table_config(rng, 6, a_lo=1.0, a_hi=1.0),
    ]
    for cfg in instances:
        lat = build_lattice(6, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        report = check_optimality(sol, num_random=1000, epsilon=1e-4,
                                  seed=int(rng.integers(0, 2 ** 31)))
        assert report.status == "pass", report
        worst = min(worst, report.details["min_utility_gap"])
    _line(8, worst >= -1e-12,
          "equilibrium demand beats 1000 random competitors and perturbations",
          f"min utility gap={worst:.2e}")


def test_c09_discretization_consistency():
    start = time.time()
    cap = 22  # default lattice depth cap stands in for the infeasible 32
    gaps = {}
    for num_steps in (8, 16, cap):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(0.1, 1, ConstantDemand(0.5), LinearClipped(1.0, 1e6),
                           num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        pri = price_equilibrium(inst)
        exp = solve_explicit(inst)
        gaps[num_steps] = max_gap(pri.prices, exp.prices)
        del pri, exp, lat
    factor_a = gaps[8] / gaps[16]
    # the capped final depth is not a full doubling: normalize the observed
    # ratio to a per-doubling factor through the empirical order in dt
    order = math.log(gaps[16] / gaps[cap]) / math.log(cap / 16)
    factor_b = 2.0 ** order
    elapsed = time.time() - start
    ok = 1.6 <= factor_a <= 2.6 and 1.6 <= factor_b <= 2.6 and elapsed < 300.0
    _line(9, ok, "pricer and backward solver agree at first order in the step",
          f"gaps={ {k: f'{v:.2e}' for k, v in gaps.items()} } "
          f"factors=({factor_a:.2f}, {factor_b:.2f}) {elapsed:.0f}s")


def test_c10_counterexample_probe():
    report = run_counterexample(n_list=(8, 10, 12))
    d = report.details
    product_exact = d["smallness_product"] == 1.0
    gauge_ok = abs(d["one_step_gauge_norm"] - 1.0) <= 1e-9
    per_depth = [nc or not cv for nc, cv in
                 zip(d["trend"]["non_contraction"], d["trend"]["converged"])]
    identity = check_F_identity(seed=10)
    ok = (product_exact and gauge_ok and all(per_depth)
          and identity.status == "pass"
          and identity.details["max_residual"] <= 1e-12)
    _line(10, ok, "counter-example probe: unit product, boundary gauge norm, "
          "expansion signature, profile identity",
          f"product={d['smallness_product']} gauge={d['one_step_gauge_norm']:.10f} "
          f"expansion={per_depth} residual={identity.details['max_residual']:.1e}")


def test_c11_norm_unit_identities():
    ok = True
    details = []

    lat1 = build_lattice(1, 1.0)
    one_step = bmo_norm(conditional_expectation(np.array([1.0, -1.0]), lat1)).value
    ok &= abs(one_step - 1.0) <= 1e-10
    details.append(f"one-step={one_step:.12f}")

    for horizon in (0.5, 1.0, 2.0):
        lat = build_lattice(6, horizon)
        val = bmo_norm(brownian(lat)).value
        ok &= abs(val - math.sqrt(horizon)) <= 1e-10

    for c in (0.25, 1.0, 2.5):
        val = h_norm(np.array([c, -c]), lat1).value
        ok &= abs(val - c) <= 1e-10

    rng = np.random.default_rng(20241111)
    lat = build_lattice(6, 1.0)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=(lat.num_leaves, int(rng.integers(1, 3))))
        x -= x.mean(axis=0)
        gauge = h_norm(x, lat)
        quad = gauge.extras["bmo_norm"]
        ok &= quad / math.sqrt(2.0) <= gauge.value + 1e-10
        rv = bmo_norm_rv(x, lat)
        ok &= rv.value <= rv.extras["midrange_bound"] + 1e-10
    _line(11, ok, "norm unit identities and structural inequalities",
          "; ".join(details))
