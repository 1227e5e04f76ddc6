import math
from dataclasses import replace

import numpy as np
import pytest

from impact_bsde import (
    ConstantDemand,
    MarketConfig,
    NegativeSignOfB,
    SignOfBT,
    Instance,
    TableDividend,
    build_lattice,
    evaluate_market,
    hitting_time_tau,
    price_equilibrium,
    solve_picard,
)
from impact_bsde.lattice import PredictableProcess
from impact_bsde.verify import (
    check_F_identity,
    check_R_nonneg,
    check_apriori,
    check_equilibrium_martingales,
    check_homogeneity,
    check_localization,
    check_norm_bounds,
    check_optimality,
    check_supermartingale_V,
    decay_profile,
    decay_profile_d1,
    decay_profile_d2,
    run_counterexample,
)

from helpers import random_table_config


@pytest.fixture(scope="module")
def eligible():
    """A boundary-hypothesis instance: unit aversion, unit opposed demand,
    half-scale signed dividend on an odd-depth lattice (odd depth keeps the
    terminal sign exactly centered under the zero tie-break)."""
    lat = build_lattice(7, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(0.5), 7, 1.0)
    return lat, cfg, price_equilibrium(evaluate_market(cfg, lat))


def test_R_nonneg_zero_demand_margin():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0), SignOfBT(), 4, 1.0)
    report = check_R_nonneg(price_equilibrium(evaluate_market(cfg, lat)))
    assert report.status == "pass"
    assert report.details["min_value"] == pytest.approx(0.0, abs=1e-15)


def test_R_nonneg_one_period_value():
    lat = build_lattice(1, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.5), SignOfBT(), 1, 1.0)
    report = check_R_nonneg(price_equilibrium(evaluate_market(cfg, lat)))
    assert report.status == "pass"


def test_R_nonneg_random_sweep():
    rng = np.random.default_rng(101)
    for _ in range(20):
        num_steps = int(rng.integers(1, 8))
        cfg = random_table_config(rng, num_steps)
        lat = build_lattice(num_steps, 1.0)
        assert check_R_nonneg(price_equilibrium(evaluate_market(cfg, lat))).status == "pass"


def test_equilibrium_martingales_pass(eligible):
    _, _, sol = eligible
    report = check_equilibrium_martingales(sol)
    assert report.status == "pass"
    assert report.details["density_min"] > 0


def test_apriori_bound(eligible):
    _, _, sol = eligible
    report = check_apriori(sol)
    assert report.status == "pass"
    assert report.hypotheses["gauge_norm"] == pytest.approx(0.5, abs=1e-9)
    # the bound says exp(-R) >= 0.5 at every node
    assert report.details["floor"] == pytest.approx(0.5, abs=1e-9)
    assert report.details["min_gap_to_floor"] >= -1e-10


def test_apriori_skips_on_large_aversion():
    lat = build_lattice(5, 1.0)
    cfg = MarketConfig(2.0, 1, NegativeSignOfB(), SignOfBT(0.5), 5, 1.0)
    report = check_apriori(price_equilibrium(evaluate_market(cfg, lat)))
    assert report.status == "skip"
    assert not report.hypotheses["unit_risk_aversion"]


def test_apriori_skips_on_uncentered_dividend():
    # even depth: the terminal sign is not centered under the tie-break
    lat = build_lattice(6, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(0.5), 6, 1.0)
    report = check_apriori(price_equilibrium(evaluate_market(cfg, lat)))
    assert report.status == "skip"
    assert not report.hypotheses["dividend_centered"]


def test_apriori_sweep_toward_boundary():
    # pushing the dividend scale toward the hypothesis boundary drives the
    # worst exp(-R) down monotonically; the bound itself never breaks
    floors = []
    worst_exp = []
    for scale in (0.3, 0.6, 0.9):
        lat = build_lattice(5, 1.0)
        cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(scale), 5, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        report = check_apriori(sol)
        assert report.status == "pass"
        assert report.details["min_gap_to_floor"] >= -1e-10
        floors.append(report.details["floor"])
        worst_exp.append(min(float(np.min(np.exp(-v)))
                             for v in sol.certainty_equivalent.values))
    assert worst_exp[0] > worst_exp[1] > worst_exp[2]
    assert floors[0] > floors[1] > floors[2]


def test_supermartingale_profile(eligible):
    _, _, sol = eligible
    report = check_supermartingale_V(sol)
    assert report.status == "pass"
    assert report.details["max_defect"] <= 1e-10


def test_supermartingale_profile_far_center(eligible):
    _, _, sol = eligible
    report = check_supermartingale_V(sol, x_grid=[np.array([25.0])])
    assert report.status == "pass"


def test_supermartingale_constant_dividend_flat_profile():
    lat = build_lattice(3, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0),
                       TableDividend(np.zeros(8)), 3, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    report = check_supermartingale_V(sol, x_grid=[np.array([0.0])])
    assert report.status == "pass"
    assert report.details["max_defect"] == pytest.approx(0.0, abs=1e-15)


def test_optimality_pass(eligible):
    _, _, sol = eligible
    report = check_optimality(sol, num_random=300, seed=7)
    assert report.status == "pass"
    assert report.details["min_utility_gap"] >= -1e-12
    for slope in report.details["perturbation_slopes"]:
        assert abs(slope) <= 1e-6


def test_optimality_zero_competitor_utility():
    lat = build_lattice(5, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(0.5), 5, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    from impact_bsde.verify import _expected_utility
    zero = PredictableProcess(lat, [np.zeros((1 << k, 1)) for k in range(5)])
    assert _expected_utility(sol, zero) == pytest.approx(-1.0)
    assert _expected_utility(sol, sol.gamma) >= -1.0 - 1e-15


@pytest.mark.parametrize("a", [400.0, 800.0])
def test_martingale_gate_survives_density_underflow(a):
    # the tilt drives one-step weights to exactly zero; the log density stays
    # finite, so positivity holds and the gate passes on defects below 1e-10
    lat = build_lattice(12, 1.0)
    cfg = MarketConfig(a, 1, ConstantDemand(1.0), SignOfBT(1.0), 12, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    assert min(float(np.min(q)) for q in sol.up_prob.values) == 0.0
    report = check_equilibrium_martingales(sol)
    assert report.status == "pass", report.details
    assert report.details["density_min"] == 0.0
    assert np.isfinite(report.details["log_density_min"])
    assert report.details["log_density_min"] < -700.0


def test_homogeneity_gate(eligible):
    lat, cfg, _ = eligible
    report = check_homogeneity(evaluate_market(cfg, lat), b_values=(0.5, 2.0, 10.0))
    assert report.status == "pass"
    assert report.details["max_gap"] <= 1e-12


def test_homogeneity_identity_at_unit_factor():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(0.7, 1, ConstantDemand(0.3), SignOfBT(), 4, 1.0)
    report = check_homogeneity(evaluate_market(cfg, lat), b_values=(1.0,))
    assert report.status == "pass"
    assert report.details["max_gap"] == 0.0


def test_localization_check(eligible):
    lat, _, sol = eligible
    tau = hitting_time_tau(lat, 0.0, from_step=2)
    report = check_localization(sol, tau)
    assert report.status == "pass"
    assert report.details["nodes_compared"] > 0
    assert report.details["max_price_gap"] <= 1e-10


def test_norm_bounds_skips_outside_gate(eligible):
    lat, cfg, sol = eligible
    _, diag = solve_picard(evaluate_market(cfg, lat), tol=1e-10, max_iter=10)
    report = check_norm_bounds(sol, diag)
    assert report.status == "skip"


def test_norm_bounds_inside_gate():
    rng = np.random.default_rng(11)
    cfg = random_table_config(rng, 6, a_lo=0.005, a_hi=0.01)
    lat = build_lattice(6, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    _, diag = solve_picard(evaluate_market(cfg, lat), tol=1e-12, max_iter=100)
    report = check_norm_bounds(sol, diag)
    assert report.status == "diagnostic"
    assert report.details["volatility_ok"]
    assert report.details["mpr_ok"]


def test_profile_values_and_derivatives():
    assert decay_profile(0.0) == 1.0
    assert decay_profile(1.0) == pytest.approx(0.0, abs=1e-15)
    assert decay_profile_d1(1.0) == pytest.approx(-math.e)
    assert decay_profile_d2(1.0) == pytest.approx(-2.0 * math.e)
    # mirror symmetry of the even profile
    assert decay_profile(-1.0) == decay_profile(1.0)
    assert decay_profile_d1(-1.0) == -decay_profile_d1(1.0)
    assert decay_profile_d2(-1.0) == decay_profile_d2(1.0)


def test_F_identity_report():
    report = check_F_identity(num_points=100, seed=5)
    assert report.status == "pass"
    assert report.details["max_residual"] <= 1e-12


def test_counterexample_probe_smoke():
    report = run_counterexample(n_list=(4, 6), max_iter=20)
    assert report.status == "diagnostic"
    d = report.details
    assert d["smallness_product"] == 1.0
    assert d["one_step_gauge_norm"] == pytest.approx(1.0, abs=1e-9)
    assert d["trend"]["sign_pattern_fraction"] == [1.0, 1.0]
    assert len(d["trend"]["ratios"]) == 2


def test_counterexample_alternative_tie_break():
    report = run_counterexample(n_list=(4,), sign_zero=-1, max_iter=15)
    assert report.details["smallness_product"] == 1.0


def test_mirror_regression_reproduces_margins():
    # running checks on the path-reflected, sign-flipped instance must
    # reproduce the original margins
    rng = np.random.default_rng(13)
    lat = build_lattice(6, 1.0)
    vals = [rng.uniform(-1, 1, size=(1 << k, 1)) for k in range(6)]
    psi = rng.uniform(-1, 1, size=(64, 1))
    sol = price_equilibrium(Instance(lat, 1.0, PredictableProcess(lat, vals), psi))
    mirrored = price_equilibrium(Instance(
        lat, 1.0, PredictableProcess(lat, [-v[::-1] for v in vals]), -psi[::-1]))
    r1 = check_R_nonneg(sol)
    r2 = check_R_nonneg(mirrored)
    assert r1.details["min_value"] == pytest.approx(r2.details["min_value"], abs=1e-13)
    m1 = check_equilibrium_martingales(sol)
    m2 = check_equilibrium_martingales(mirrored)
    assert m1.status == m2.status == "pass"
    o1 = check_optimality(sol, num_random=50, seed=3)
    o2 = check_optimality(mirrored, num_random=50, seed=3)
    assert o1.status == o2.status == "pass"


def test_check_report_serializes():
    report = check_F_identity()
    doc = report.to_dict()
    assert doc["name"] == "decay_profile_identity"
    import json
    json.dumps(doc)


def _with_nan(proc, step, path):
    values = [v.copy() for v in proc.values]
    values[step][path] = np.nan
    return type(proc)(proc.lattice, values)


def test_nan_certainty_equivalent_fails_the_nonnegativity_gate(eligible):
    _, _, sol = eligible
    broken = replace(sol, certainty_equivalent=_with_nan(sol.certainty_equivalent, 3, 5))
    report = check_R_nonneg(broken)
    assert report.status == "fail"
    assert math.isnan(report.margin) and report.worst_node == (3, 5)


@pytest.mark.parametrize("field", ["prices", "gain", "density"])
def test_nan_node_fails_the_martingale_gate(eligible, field):
    _, _, sol = eligible
    broken = replace(sol, **{field: _with_nan(getattr(sol, field), 4, 2)})
    report = check_equilibrium_martingales(broken)
    assert report.status == "fail"
    assert math.isnan(report.margin)
