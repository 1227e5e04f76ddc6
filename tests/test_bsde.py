import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impact_bsde import (
    AdaptedProcess,
    ConstantDemand,
    Digital,
    LinearClipped,
    MarketConfig,
    NegativeSignOfB,
    PiecewiseConstantDemand,
    PredictableProcess,
    SignOfBT,
    TableDividend,
    build_lattice,
    contraction_report,
    driver_growth_bound,
    evaluate_market,
    h_bmo_norm,
    martingale_defect,
    measure_kappa,
    picard_diagnostics,
    price_equilibrium,
    solve_explicit,
    stochastic_integral,
)
import impact_bsde.norms as norms_mod
from impact_bsde.bsde import _driver

from helpers import (martingale_representation, max_gap, picard_map, picard_run,
                     random_table_config, stacked_integrand)
from picard_reference import (backward_rebuild, pair_distance, pair_norm, picard_record,
                              picard_step, reconstruct, recursion_residual)


def test_driver_vanishes_at_origin():
    vd, pd = _driver(0.0, [0.0], [1.7])
    assert vd == 0.0
    np.testing.assert_array_equal(pd, 0.0)


def test_driver_value_component():
    vd, pd = _driver(1.0, [0.0], [1.0])
    assert vd == pytest.approx(-0.5)
    np.testing.assert_allclose(pd, [0.0])


def test_driver_price_component():
    vd, pd = _driver(0.0, [2.0], [1.0])
    assert vd == pytest.approx(2.0)
    np.testing.assert_allclose(pd, [4.0])


def test_driver_growth_bound_formula():
    assert driver_growth_bound(1.0) == pytest.approx(np.sqrt(2.5))
    assert driver_growth_bound(0.0) == pytest.approx(np.sqrt(0.5))


def test_driver_quadratic_growth_property():
    # |f(u) - f(v)| <= Theta |u - v| (|u| + |v|) on random pairs, demand in
    # the unit ball, with the derived growth constant
    rng = np.random.default_rng(61)
    theta_cap = driver_growth_bound(1.0)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        g = rng.uniform(-1, 1, size=n)
        g /= max(1.0, np.linalg.norm(g))
        u = rng.uniform(-3, 3, size=1 + n)
        v = rng.uniform(-3, 3, size=1 + n)
        fu = np.concatenate([[_driver(u[0], u[1:], g)[0]], -_driver(u[0], u[1:], g)[1]])
        fv = np.concatenate([[_driver(v[0], v[1:], g)[0]], -_driver(v[0], v[1:], g)[1]])
        lhs = np.linalg.norm(fu - fv)
        rhs = theta_cap * np.linalg.norm(u - v) * (np.linalg.norm(u) + np.linalg.norm(v))
        assert lhs <= rhs + 1e-12


def test_explicit_zero_demand_one_step():
    lat = build_lattice(1, 1.0)
    a = 0.7
    cfg = MarketConfig(a, 1, ConstantDemand(0.0), SignOfBT(), 1, 1.0)
    sol = solve_explicit(evaluate_market(cfg, lat))
    assert sol.price_integrand.values[0][0, 0] == pytest.approx(a)
    assert sol.value_integrand.values[0][0] == pytest.approx(0.0)
    assert sol.scaled_price.values[0][0, 0] == pytest.approx(0.0)
    assert sol.scaled_value.values[0][0] == pytest.approx(0.0)


def test_explicit_constant_dividend_trivial():
    lat = build_lattice(5, 1.0)
    cfg = MarketConfig(1.3, 1, ConstantDemand(0.9),
                       TableDividend(np.full(32, 2.0)), 5, 1.0)
    sol = solve_explicit(evaluate_market(cfg, lat))
    for v in sol.price_integrand.values:
        np.testing.assert_array_equal(v, 0.0)
    for v in sol.value_integrand.values:
        np.testing.assert_array_equal(v, 0.0)
    for v in sol.scaled_value.values:
        np.testing.assert_array_equal(v, 0.0)
    for v in sol.scaled_price.values:
        np.testing.assert_allclose(v, 1.3 * 2.0, atol=1e-15)


def test_explicit_residual_zero_by_construction():
    # the integrands are the child differences of the solution's slices
    rng = np.random.default_rng(67)
    for _ in range(5):
        num_steps = int(rng.integers(2, 9))
        cfg = random_table_config(rng, num_steps)
        lat = build_lattice(num_steps, 1.0)
        assert solve_explicit(evaluate_market(cfg, lat)).residual == 0.0


def test_picard_map_at_zero_gives_terminal_integrand():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(0.6, 1, ConstantDemand(0.4), SignOfBT(0.8), 4, 1.0)
    zero = (
        [np.zeros(1 << k) for k in range(4)],
        [np.zeros((1 << k, 1)) for k in range(4)],
    )
    inst = evaluate_market(cfg, lat)
    eta1, theta1 = picard_map(inst, *zero)
    # with a vanishing driver the map returns the representation of the
    # terminal-data martingale: zero value part, scaled-dividend price part
    from impact_bsde import conditional_expectation
    want = martingale_representation(conditional_expectation(0.6 * inst.psi, lat))
    for v in eta1:
        np.testing.assert_allclose(v, 0.0, atol=1e-15)
    assert max_gap(theta1, want) <= 1e-13


def test_picard_fixed_point_identity():
    lat = build_lattice(6, 1.0)
    cfg = MarketConfig(0.25, 1, ConstantDemand(0.5), SignOfBT(0.5), 6, 1.0)
    inst = evaluate_market(cfg, lat)
    sol = solve_explicit(inst)
    eta2, theta2 = picard_map(inst, sol.value_integrand.values, sol.price_integrand.values)
    assert max_gap(eta2, sol.value_integrand) <= 1e-12
    assert max_gap(theta2, sol.price_integrand) <= 1e-12


def test_picard_map_is_not_homogeneous():
    # doubling the integrand does not double the image: the driver part
    # scales with the square
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.8), SignOfBT(), 4, 1.0)
    rng = np.random.default_rng(71)
    zeta = (
        [rng.uniform(-1, 1, size=1 << k) for k in range(4)],
        [rng.uniform(-1, 1, size=(1 << k, 1)) for k in range(4)],
    )
    doubled = ([2.0 * v for v in zeta[0]], [2.0 * v for v in zeta[1]])
    inst = evaluate_market(cfg, lat)
    f1 = picard_map(inst, *zeta)
    f2 = picard_map(inst, *doubled)
    gap = max(max_gap(f2[0], f1[0], 2.0), max_gap(f2[1], f1[1], 2.0))
    assert gap > 1e-3


def test_picard_zero_demand_two_iterations():
    lat = build_lattice(8, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0), SignOfBT(0.9), 8, 1.0)
    inst = evaluate_market(cfg, lat)
    pic, diag = picard_run(inst, tol=1e-12, max_iter=10)
    assert diag.converged
    assert diag.iterations == 2
    exp = solve_explicit(inst)
    assert max_gap(pic.scaled_price, exp.scaled_price) <= 1e-12
    assert max_gap(pic.scaled_value, exp.scaled_value) <= 1e-12


def test_picard_matches_explicit_on_small_data():
    rng = np.random.default_rng(73)
    for _ in range(8):
        num_steps = int(rng.integers(3, 8))
        cfg = random_table_config(rng, num_steps, a_lo=0.01, a_hi=0.1)
        lat = build_lattice(num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        pic, diag = picard_run(inst, tol=1e-12, max_iter=100)
        assert diag.converged
        exp = solve_explicit(inst)
        for attr in ("scaled_value", "scaled_price", "value_integrand", "price_integrand"):
            assert max_gap(getattr(pic, attr), getattr(exp, attr)) <= 1e-10


def test_picard_solution_within_guaranteed_ball():
    rng = np.random.default_rng(79)
    for _ in range(5):
        cfg = random_table_config(rng, 6, a_lo=0.01, a_hi=0.08)
        lat = build_lattice(6, 1.0)
        (diag,) = picard_diagnostics([evaluate_market(cfg, lat)], tol=1e-12, max_iter=100)
        assert diag.converged
        assert diag.final_norm <= 2.0 * diag.terminal_norm + 1e-9


def test_counterexample_regime_reports_expansion():
    lat = build_lattice(10, 1.0)
    from impact_bsde import NegativeSignOfB
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), 10, 1.0)
    (diag,) = picard_diagnostics([evaluate_market(cfg, lat)], tol=1e-10, max_iter=40)
    assert any(r >= 1.0 for r in diag.ratios) or not diag.converged


def test_contraction_report_growth_bound(monkeypatch):
    rng = np.random.default_rng(83)
    lat = build_lattice(6, 1.0)
    monkeypatch.setattr(norms_mod, "KAPPA_RANDOM", 16)
    monkeypatch.setattr(norms_mod, "KAPPA_SEED", 3)
    kappa = measure_kappa(lat)
    for _ in range(5):
        cfg = random_table_config(rng, 6, a_lo=0.01, a_hi=0.1)
        _, diag = picard_run(evaluate_market(cfg, lat), tol=1e-12, max_iter=100,
                             kappa=kappa)
        report = contraction_report(diag)
        assert all(report.growth_bound_ok)
        if diag.converged:
            assert report.solution_in_small_ball


@pytest.mark.parametrize("kappa", [1.0, 1e308])
def test_contraction_report_first_bound_is_the_terminal_norm(kappa):
    # the iteration starts at zero, so the first bound is the terminal norm
    # itself: with 2 kappa Theta infinite it read terminal + inf * 0 = nan,
    # a nan margin and a false growth_bound_ok[0]; finite constants give the
    # bits of terminal + 2 kappa Theta * 0 * 0
    lat = build_lattice(6, 1.0)
    inst = evaluate_market(MarketConfig(0.3, 1, ConstantDemand(0.5), SignOfBT(1.0), 6, 1.0), lat)
    _, diag = picard_run(inst, tol=1e-12, max_iter=100, kappa=kappa)
    report = contraction_report(diag)
    norms = diag.iterate_norms
    assert report.growth_bound_margins[0] == diag.terminal_norm - norms[0] == 0.0
    assert report.growth_bound_ok[0] is True
    two_kt = 2.0 * kappa * diag.growth_bound
    assert report.growth_bound_margins[1:] == [diag.terminal_norm + two_kt * p * p - norm
                                               for p, norm in zip(norms, norms[1:])]


def test_contraction_lipschitz_bound_on_random_pairs(monkeypatch):
    rng = np.random.default_rng(89)
    lat = build_lattice(6, 1.0)
    cfg = random_table_config(np.random.default_rng(4), 6)
    inst = evaluate_market(cfg, lat)
    monkeypatch.setattr(norms_mod, "KAPPA_RANDOM", 16)
    monkeypatch.setattr(norms_mod, "KAPPA_SEED", 3)
    kappa = measure_kappa(lat)
    bound_const = 2.0 * kappa * driver_growth_bound(inst.gamma_sup)

    def rand_pair():
        eta = [rng.uniform(-0.5, 0.5, size=1 << k) for k in range(6)]
        theta = [rng.uniform(-0.5, 0.5, size=(1 << k, 1)) for k in range(6)]
        return eta, theta

    for _ in range(20):
        za, zb = rand_pair(), rand_pair()
        fa = picard_map(inst, *za)
        fb = picard_map(inst, *zb)
        lhs = pair_distance(lat, *fa, *fb)
        rhs = bound_const * pair_distance(lat, *za, *zb) * (
            pair_norm(lat, *za) + pair_norm(lat, *zb))
        assert lhs <= rhs + 1e-9


def test_assemble_zero_demand():
    lat = build_lattice(5, 1.0)
    cfg = MarketConfig(0.5, 1, ConstantDemand(0.0), SignOfBT(0.5), 5, 1.0)
    sol = solve_explicit(evaluate_market(cfg, lat))
    # no demand: the market price of risk reduces to the value integrand,
    # which vanishes, so the density is identically one
    for v in sol.market_price_of_risk.values:
        np.testing.assert_allclose(v, 0.0, atol=1e-14)
    for v in sol.density.values:
        np.testing.assert_allclose(v, 1.0, atol=1e-13)


def test_assemble_constant_dividend():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.7),
                       TableDividend(np.full(16, -1.5)), 4, 1.0)
    sol = solve_explicit(evaluate_market(cfg, lat))
    for v in sol.market_price_of_risk.values:
        np.testing.assert_array_equal(v, 0.0)
    for v in sol.density.values:
        np.testing.assert_array_equal(v, 1.0)


def test_assemble_side_conditions_are_exact():
    # the discrete construction makes the density, the weighted prices and
    # the weighted gain exact martingales (the representation choice cancels
    # the drift identically), so the defects sit at roundoff level
    rng = np.random.default_rng(97)
    for _ in range(5):
        cfg = random_table_config(rng, 6, a_lo=0.05, a_hi=0.5)
        lat = build_lattice(6, 1.0)
        sol = solve_explicit(evaluate_market(cfg, lat))
        density, prices = sol.density, sol.prices
        gain = stochastic_integral(sol.gamma, prices)
        weighted_price = AdaptedProcess(lat, [
            density.values[k][:, None] * prices.values[k] for k in range(lat.num_steps + 1)])
        weighted_gain = AdaptedProcess(lat, [
            density.values[k] * gain.values[k] for k in range(lat.num_steps + 1)])
        assert martingale_defect(density)[0] <= 1e-12
        assert martingale_defect(weighted_price)[0] <= 1e-12
        assert martingale_defect(weighted_gain)[0] <= 1e-12


def test_integrand_to_dividend_ratio_stays_bounded():
    # refinement sweep on a fixed instance: the joint integrand norm over
    # the centered-dividend norm must not blow up as the step shrinks
    from impact_bsde import bmo_norm_rv
    ratios = []
    for num_steps in (4, 8, 16):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(0.5, 1, ConstantDemand(0.5),
                           SignOfBT(0.6), num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        sol = solve_explicit(inst)
        pair = stacked_integrand([sol.value_integrand, sol.price_integrand])
        psi = inst.psi
        ratios.append(h_bmo_norm(pair).value
                      / bmo_norm_rv(psi - psi.mean(axis=0), lat).value)
    assert max(ratios) <= 2.0 * min(ratios)


def test_bsde_prices_approach_pricer_prices():
    # the two discretizations agree in the small-step limit on a smooth
    # instance; a kinked dividend would stall the node max near maturity
    from impact_bsde import LinearClipped
    gaps = []
    for num_steps in (4, 8, 16):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(0.2, 1, ConstantDemand(0.5), LinearClipped(1.0, 10.0),
                           num_steps, 1.0)
        inst = evaluate_market(cfg, lat)
        exp = solve_explicit(inst)
        pri = price_equilibrium(inst)
        gaps.append(max_gap(exp.prices, pri.prices))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.5)


def test_picard_argument_validation():
    lat = build_lattice(2, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0), SignOfBT(), 2, 1.0)
    inst = evaluate_market(cfg, lat)
    with pytest.raises(ValueError):
        picard_diagnostics([inst], tol=0.0)
    with pytest.raises(ValueError):
        picard_diagnostics([inst], max_iter=0)


def test_explicit_non_finite_raises_numerical_error():
    # guards against S0 = nan with residual 0.0 (max(0.0, nan) is 0.0); the
    # pricer prices the same instance at -1
    from impact_bsde import NumericalError
    lat = build_lattice(12, 1.0)
    cfg = MarketConfig(50.0, 1, ConstantDemand(1.0), SignOfBT(1.0), 12, 1.0)
    inst = evaluate_market(cfg, lat)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"non-finite at node \(step \d+, path \d+\)"):
            solve_explicit(inst)
        # the fixed-point route reports the same regime as data
        (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=20)
    assert not diag.converged
    np.testing.assert_allclose(price_equilibrium(inst).initial_price, [-1.0])
    # its rebuild from the last finite iterate has finite and nan node
    # defects
    with np.errstate(over="ignore", invalid="ignore"):
        sol, _ = picard_run(inst, tol=1e-12, max_iter=20)
        defects = [np.max(np.abs(lat.child_diff(proc.values[k + 1]) - integrand.values[k]))
                   for proc, integrand in ((sol.scaled_value, sol.value_integrand),
                                           (sol.scaled_price, sol.price_integrand))
                   for k in range(lat.num_steps)]
    assert np.isnan(defects).any() and np.isfinite(defects).any()


def _seed_picard_loop(lat, cfg, tol, max_iter):
    """The unfused iteration: map, then distance and iterate norm as
    separate integrand-norm passes over stacked copies."""
    inst = evaluate_market(cfg, lat)
    n = cfg.num_stocks
    eta = [np.zeros(1 << k) for k in range(lat.num_steps)]
    theta = [np.zeros((1 << k, n)) for k in range(lat.num_steps)]
    out = {"distances": [], "iterate_norms": [], "ratios": [], "iterations": 0,
           "converged": False, "aborted": None}
    for it in range(max_iter):
        eta_new, theta_new = picard_map(inst, eta, theta)
        if not all(np.all(np.isfinite(v)) for v in eta_new + theta_new):
            out["aborted"] = f"non-finite iterate at iteration {it + 1}"
            break
        dist = pair_distance(lat, eta_new, theta_new, eta, theta)
        out["distances"].append(dist)
        out["iterate_norms"].append(pair_norm(lat, eta_new, theta_new))
        if len(out["distances"]) >= 2 and out["distances"][-2] > 0:
            out["ratios"].append(dist / out["distances"][-2])
        eta, theta = eta_new, theta_new
        out["iterations"] = it + 1
        if dist <= tol:
            out["converged"] = True
            break
    out["final_norm"] = pair_norm(lat, eta, theta)
    return out


@pytest.mark.parametrize("case", ["contracting", "two_stocks", "overflow"])
def test_fused_iteration_matches_seed_loop(case):
    from impact_bsde import NegativeSignOfB
    if case == "contracting":
        cfg = MarketConfig(0.3, 1, ConstantDemand(0.6), SignOfBT(0.7), 8, 1.0)
    elif case == "two_stocks":
        cfg = random_table_config(np.random.default_rng(97), 7, num_stocks=2,
                                  a_lo=0.05, a_hi=0.1)
    else:
        cfg = MarketConfig(50.0, 1, NegativeSignOfB(1.0), SignOfBT(1.0), 8, 1.0)
    lat = build_lattice(cfg.num_steps, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _seed_picard_loop(lat, cfg, tol=1e-12, max_iter=60)
        (diag,) = picard_diagnostics([evaluate_market(cfg, lat)], tol=1e-12, max_iter=60)
    got = {key: getattr(diag, key) for key in want}
    assert got == want
    if case == "overflow":
        assert diag.aborted == f"non-finite iterate at iteration {diag.iterations + 1}"
    else:
        assert diag.converged and diag.iterations > 2


def test_picard_iteration_stays_fused(monkeypatch):
    # one iteration is one leaf-to-root pass: neither the integrand norm nor
    # the full-tree conditional expectation may run once per iteration
    import impact_bsde.bsde as bsde_mod
    calls = {"h_bmo_norm": 0, "conditional_expectation": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    # the integrand norm is patched where it is defined and wherever the
    # solver module binds it
    for module, name in ((norms_mod, "h_bmo_norm"), (bsde_mod, "h_bmo_norm"),
                         (bsde_mod, "conditional_expectation")):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    lat = build_lattice(8, 1.0)
    cfg = MarketConfig(0.3, 1, ConstantDemand(0.6), SignOfBT(0.7), 8, 1.0)
    counts = []
    for max_iter in (1, 100):
        before = dict(calls)
        (diag,) = picard_diagnostics([evaluate_market(cfg, lat)], tol=1e-12,
                                     max_iter=max_iter)
        counts.append({k: calls[k] - before[k] for k in calls})
    assert diag.converged and diag.iterations > 5
    assert counts[0] == counts[1]


# record fields that must match bit for bit
_RECORD = ("distances", "iterate_norms", "ratios", "iterations", "converged", "aborted",
           "final_norm", "terminal_norm")

# per parameter: rows that converge, run to max_iter, abort later and (but
# for the demand) abort on the first step, where the terminal data overflow
_SWEEP_VALUES = {
    "risk_aversion": [0.05, 0.3, 3.0, 1e3, 40.0, 1e308],
    "demand_scale": [0.05, 2.0, 1e4, 0.5, 300.0, 1e60],
    "dividend_scale": [0.05, -0.3, 3.0, 1e150, 1e308, 1.0],
}


def _variant(base, param, val):
    from dataclasses import replace
    if param == "risk_aversion":
        return replace(base, risk_aversion=val)
    if param == "demand_scale":
        return replace(base, gamma=base.gamma.scaled(val))
    return replace(base, psi=base.psi * val)


# a block that mixes the base, whose demand the aversion and dividend
# variants share, with demand-scaled variants, whose demands are stacked
_MIXED_POINTS = [(None, None), ("demand_scale", 2.0), ("risk_aversion", 3.0),
                 ("dividend_scale", 1e308), ("demand_scale", 1e4), ("dividend_scale", -0.3)]


@pytest.mark.parametrize("block", [1, 2, None])
@pytest.mark.parametrize("num_stocks", [1, 2])
@pytest.mark.parametrize("param", [*sorted(_SWEEP_VALUES), "mixed"])
def test_picard_diagnostics_rows_match_their_own_runs(monkeypatch, param, num_stocks, block):
    import impact_bsde.bsde as bsde_mod
    from impact_bsde import NegativeSignOfB, picard_diagnostics
    lat = build_lattice(7, 1.0)
    base = evaluate_market(MarketConfig(1.0, num_stocks, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        7, 1.0), lat)
    if param == "mixed":
        points = [base if p is None else _variant(base, p, val) for p, val in _MIXED_POINTS]
    else:
        points = [_variant(base, param, val) for val in _SWEEP_VALUES[param]]
    # a budget of ``block`` rows (None: every point in one block)
    row_bytes = 8 * lat.num_leaves * (1 + num_stocks)
    monkeypatch.setattr(bsde_mod, "_PICARD_BLOCK_BYTES", row_bytes * (block or len(points)))
    got = picard_diagnostics(points, tol=1e-12, max_iter=12)
    assert len(got) == len(points)
    outcomes = set()
    for inst, diag in zip(points, got):
        (own,) = picard_diagnostics([inst], tol=1e-12, max_iter=12)
        assert {k: getattr(diag, k) for k in _RECORD} == {k: getattr(own, k) for k in _RECORD}
        # and the one-row kernel is the unbatched one, bit for bit
        want = picard_record(inst, tol=1e-12, max_iter=12)
        if not diag.iterate_norms:
            # a terminal integrand that is not finite has an infinite norm
            assert diag.terminal_norm == math.inf
            want["terminal_norm"] = math.inf
        assert {k: getattr(diag, k) for k in _RECORD} == want
        outcomes.add("converged" if diag.converged else "first step aborted"
                     if diag.aborted and not diag.iterations else "aborted"
                     if diag.aborted else "max_iter")
    # the demand does not enter the terminal data, so only the other two
    # parameters can overflow them
    assert outcomes == {"converged", "max_iter", "aborted",
                        *(["first step aborted"] if param != "demand_scale" else [])}


def test_picard_diagnostics_holds_one_block_of_points():
    # the points are drawn a whole block at a time, and a block only when
    # every row of the one before has left: whenever the next point is
    # pulled, exactly those drawn before it in its own block are alive
    import gc
    import weakref

    import impact_bsde.bsde as bsde_mod
    from impact_bsde import NegativeSignOfB, picard_diagnostics
    lat = build_lattice(12, 1.0)
    base = evaluate_market(MarketConfig(1.0, 1, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        12, 1.0), lat)
    block = bsde_mod._PICARD_BLOCK_BYTES // (8 * lat.num_leaves * 2)
    scales = np.geomspace(0.05, 1e4, 40)
    refs, alive = [], []

    def points():
        for scale in scales:
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            inst = _variant(base, "demand_scale", float(scale))
            refs.append(weakref.ref(inst))
            yield inst
            del inst

    got = picard_diagnostics(points(), tol=1e-12, max_iter=12)
    assert len(got) == len(refs) == 40 and block == 16
    assert alive == [i % block for i in range(40)]
    assert {d.converged for d in got} == {True, False}


@pytest.mark.parametrize("num_stocks", [1, 2])
@pytest.mark.parametrize("param", ["risk_aversion", "dividend_scale", "demand_scale"])
def test_picard_reconstructs_from_the_iterate_its_loop_ends_on(param, num_stocks):
    # the solution's integrands are, bit for bit, the last finite iterate of
    # the unbatched loop: the converged one, the one at max_iter, the one
    # before a later step aborts, or the zero pair when the first step does;
    # its value and price are, bit for bit, those the backward recursion
    # with the driver frozen at that iterate gives
    from impact_bsde import NegativeSignOfB
    lat = build_lattice(7, 1.0)
    base = evaluate_market(MarketConfig(1.0, num_stocks, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        7, 1.0), lat)
    outcomes = set()
    for val in _SWEEP_VALUES[param]:
        inst = _variant(base, param, val)
        eta = [np.zeros(1 << k) for k in range(7)]
        theta = [np.zeros((1 << k, num_stocks)) for k in range(7)]
        with np.errstate(over="ignore", invalid="ignore"):
            sol, diag = picard_run(inst, tol=1e-12, max_iter=12)
            for _ in range(12):
                eta_new, theta_new, norm, dist = picard_step(inst, eta, theta)
                if norm is None:
                    break
                eta, theta = eta_new, theta_new
                if dist <= 1e-12:
                    break
        for got, want in ((sol.value_integrand, eta), (sol.price_integrand, theta)):
            assert [v.tobytes() for v in got.values] == [v.tobytes() for v in want]
        value, price, _ = backward_rebuild(inst, eta, theta)
        for got, want in ((sol.scaled_value, value), (sol.scaled_price, price)):
            assert [v.shape for v in got.values] == [v.shape for v in want]
            assert [v.tobytes() for v in got.values] == [v.tobytes() for v in want]
        # the root readers scale one node as the whole-tree views do
        assert sol.initial_price.tobytes() == sol.prices.values[0][0].tobytes()
        assert (np.float64(sol.initial_certainty).tobytes()
                == sol.certainty_equivalent.values[0][0].tobytes())
        if diag.aborted and not diag.iterations:
            assert not any(np.any(v) for v in eta + theta)
        outcomes.add("converged" if diag.converged else "first step aborted"
                     if diag.aborted and not diag.iterations else "aborted"
                     if diag.aborted else "max_iter")
    # the demand does not enter the terminal data, so its first step is finite
    assert outcomes == {"converged", "max_iter", "aborted",
                        *(["first step aborted"] if param != "demand_scale" else [])}


@pytest.mark.parametrize("num_stocks", [1, 2])
def test_picard_rebuild_is_the_forward_reconstruction_to_rounding(num_stocks):
    # the reconstruction the solver used to run (the conditional expectation
    # of terminal data plus total drift, less the drift accrued) sums in
    # another order: where either is finite both are, they differ by a few
    # ulps of the largest node, and the new slices meet the recursion that
    # reconstruction was checked against exactly
    eps = np.finfo(float).eps
    lat = build_lattice(7, 1.0)
    base = evaluate_market(MarketConfig(1.0, num_stocks, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        7, 1.0), lat)
    finite = 0
    for param, values in _SWEEP_VALUES.items():
        for val in values:
            inst = _variant(base, param, val)
            with np.errstate(over="ignore", invalid="ignore"):
                sol, _ = picard_run(inst, tol=1e-12, max_iter=12)
                eta, theta = sol.value_integrand.values, sol.price_integrand.values
                value, price, _ = reconstruct(inst, eta, theta)
                defect = recursion_residual(lat, inst.gamma, sol.scaled_value.values,
                                            sol.scaled_price.values, eta, theta)
            got = np.concatenate([np.ravel(v) for v in sol.scaled_value.values
                                  + sol.scaled_price.values])
            want = np.concatenate([np.ravel(v) for v in value + price])
            assert np.isfinite(got).all() == np.isfinite(want).all()
            if np.isfinite(want).all():
                finite += 1
                assert np.max(np.abs(got - want)) <= 4 * eps * np.max(np.abs(want))
                assert defect == 0.0
    assert finite >= 10


_DEMANDS = ["constant", "negative_sign_of_b", "piecewise_constant"]
_DIVIDENDS = ["sign_of_b_t", "linear_clipped", "digital"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(1, 3), st.sampled_from(_DEMANDS),
       st.sampled_from(_DIVIDENDS), st.integers(0, 2 ** 31))
def test_picard_is_exact_after_n_plus_one_steps(num_steps, num_stocks, demand, dividend, seed):
    # the new level-k integrand reads the old one only at levels above k, so
    # from zero iterate N is the fixed point and the distance at iteration
    # N+1 vanishes in exact arithmetic, for every Markov family.  The map
    # rounds its running drift sums, which are quadratic in the iterate: an
    # iterate that grows G-fold over the terminal integrand on the way
    # carries about G**2 times the rounding of the solution.  c = 256; the
    # largest ratio seen over 1800 random draws was 41.
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(-2.0, 2.0))
    if demand == "constant":
        gamma = ConstantDemand(scale)
    elif demand == "negative_sign_of_b":
        gamma = NegativeSignOfB(scale)
    else:
        switch = int(rng.integers(1, num_steps + 1))
        gamma = PiecewiseConstantDemand(((0, scale), (switch, float(rng.uniform(-2.0, 2.0)))))
    size = float(rng.uniform(-2.0, 2.0))
    psi = {"sign_of_b_t": SignOfBT(size),
           "linear_clipped": LinearClipped(size, float(rng.uniform(0.1, 2.0))),
           "digital": Digital(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.0)))}
    cfg = MarketConfig(float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))), num_stocks,
                       gamma, psi[dividend], num_steps, 1.0)
    inst = evaluate_market(cfg, build_lattice(num_steps, 1.0))
    from impact_bsde import NumericalError
    try:
        exp = solve_explicit(inst)
    except NumericalError:
        assume(False)
    top = max(np.max(np.abs(v)) for proc in (exp.scaled_value, exp.scaled_price)
              for v in proc.values)
    assume(top <= 1e3)
    (diag,) = picard_diagnostics([inst], tol=1e-300, max_iter=num_steps + 1)
    assert diag.aborted is None
    growth = max(1.0, max(diag.iterate_norms) / diag.terminal_norm) if top else 1.0
    assert diag.distances[-1] <= 256 * np.finfo(float).eps * top * growth ** 2


def test_picard_can_converge_after_n_plus_one_steps():
    # exact after N+1 steps holds in exact arithmetic only: here the rounding
    # of a solution of size 1e12 leaves distance 2.1e-3 at iteration N+1, and
    # the iteration contracts it away four steps later.  Stopping rows at
    # N+1 would report this converging row as unconverged
    inst = evaluate_market(MarketConfig(12.475390858233883, 1, NegativeSignOfB(0.6882067275938142),
                                        SignOfBT(1.1174046704003961), 4, 1.0),
                           build_lattice(4, 1.0))
    (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=80)
    assert diag.converged and diag.aborted is None
    assert diag.iterations == 9
    assert diag.distances[4] == pytest.approx(2.1e-3, rel=0.01)
    assert diag.distances[-1] <= 1e-12 < min(diag.distances[:-1])


@pytest.mark.parametrize("num_stocks", [1, 2])
def test_picard_reconstruction_holds_few_solutions_at_once(num_stocks):
    # the reconstruction overwrites the drift sums slice by slice: no full
    # martingale tree, concatenated terminal or separate value and price
    # lists, so the peak stays under two solutions (it was three)
    import tracemalloc
    from impact_bsde import NegativeSignOfB
    lat = build_lattice(12, 1.0)
    inst = evaluate_market(MarketConfig(0.7, num_stocks, NegativeSignOfB(0.8), SignOfBT(0.6),
                                        12, 1.0), lat)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_explicit(inst)
        solution = tracemalloc.get_traced_memory()[0] - before
        del sol
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol, diag = picard_run(inst, tol=1e-12, max_iter=100)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert diag.converged
    assert peak < 2.25 * solution


def test_picard_diagnostics_block_budget():
    import impact_bsde.bsde as bsde_mod
    # the budget buys four one-stock rows at depth 14, and at least one row
    # however deep the lattice
    assert bsde_mod._PICARD_BLOCK_BYTES // (8 * (1 << 14) * 2) == 4
    lat = build_lattice(3, 1.0)
    inst = evaluate_market(MarketConfig(1.0, 1, ConstantDemand(0.5), SignOfBT(0.5), 3, 1.0),
                           lat)
    from impact_bsde import picard_diagnostics
    with pytest.raises(ValueError):
        picard_diagnostics([inst], tol=0.0)
    assert picard_diagnostics([]) == []
    # one block runs on one lattice, with one number of stocks
    other = evaluate_market(MarketConfig(1.0, 1, ConstantDemand(0.5), SignOfBT(0.5), 3, 1.0),
                            build_lattice(3, 1.0))
    with pytest.raises(ValueError, match="lattice"):
        picard_diagnostics([inst, other])
    wide = evaluate_market(MarketConfig(1.0, 2, ConstantDemand(0.5), SignOfBT(0.5), 3, 1.0),
                           lat)
    with pytest.raises(ValueError, match="number of stocks"):
        picard_diagnostics([inst, wide])


# --- tiles and band tiles at small depth --------------------------------------

def _reference_run(inst, tol, max_iter):
    """The unbatched loop's last finite iterate (see
    ``test_picard_reconstructs_from_the_iterate_its_loop_ends_on``)."""
    lattice, n = inst.lattice, inst.num_stocks
    eta = [np.zeros(lattice.nodes(k)) for k in range(lattice.num_steps)]
    theta = [np.zeros((lattice.nodes(k), n)) for k in range(lattice.num_steps)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            eta_new, theta_new, norm, dist = picard_step(inst, eta, theta)
            if norm is None:
                break
            eta, theta = eta_new, theta_new
            if dist <= tol:
                break
    return eta, theta


@pytest.mark.parametrize("tile", [4, 64])
@pytest.mark.parametrize("num_stocks", [1, 2, 3])
def test_tiled_two_part_iteration_is_the_reference_bit_for_bit(tiny_tiles, tile, num_stocks):
    # band tiles: records, end pairs and rebuilt solutions are those of the
    # one-instance reference, bit for bit, for a
    # block that mixes a shared demand with a demand per row and rows that
    # converge, run to max_iter, abort mid-block and abort on the first step
    seen = tiny_tiles(tile)
    lat = build_lattice(8, 1.0)
    base = evaluate_market(MarketConfig(1.0, num_stocks, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        8, 1.0), lat)
    points = [base if p is None else _variant(base, p, val) for p, val in _MIXED_POINTS]
    points += [_variant(base, "risk_aversion", 40.0), _variant(base, "demand_scale", 300.0)]
    ends = [None] * len(points)
    got = picard_diagnostics(points, tol=1e-12, max_iter=12, ends=ends)
    assert max(seen) > 1
    outcomes = set()
    for inst, diag, (eta, theta) in zip(points, got, ends):
        want = picard_record(inst, tol=1e-12, max_iter=12)
        if not diag.iterate_norms:
            want["terminal_norm"] = math.inf
        assert {k: getattr(diag, k) for k in _RECORD} == want
        want_eta, want_theta = _reference_run(inst, 1e-12, 12)
        assert [v.tobytes() for v in eta + theta] == [v.tobytes() for v in want_eta + want_theta]
        outcomes.add("converged" if diag.converged else "first step aborted"
                     if diag.aborted and not diag.iterations else "aborted"
                     if diag.aborted else "max_iter")
    assert outcomes == {"converged", "max_iter", "aborted", "first step aborted"}
    # the one-row runs as ``bsde`` runs them, and their rebuilt solutions
    for inst in points[:3]:
        with np.errstate(over="ignore", invalid="ignore"):
            sol, diag = picard_run(inst, tol=1e-12, max_iter=12)
        eta, theta = _reference_run(inst, 1e-12, 12)
        value, price, _ = backward_rebuild(inst, eta, theta)
        for got_slices, want_slices in ((sol.value_integrand.values, eta),
                                        (sol.price_integrand.values, theta),
                                        (sol.scaled_value.values, value),
                                        (sol.scaled_price.values, price)):
            assert [v.tobytes() for v in got_slices] == [v.tobytes() for v in want_slices]


def _root_bits(a, value, price) -> tuple:
    """The bits of the root price and certainty equivalent of the scaled
    root slices ``value`` and ``price``."""
    import impact_bsde.bsde as bsde_mod
    initial_price, initial_certainty = bsde_mod._initial(a, value, price)
    return initial_price.tobytes(), np.float64(initial_certainty).tobytes()


def _slice_bits(slices) -> list:
    return [np.asarray(v).tobytes() for v in slices]


@pytest.mark.parametrize("per_stock", [4, 16])
@pytest.mark.parametrize("num_stocks", [1, 2, 3])
def test_band_walks_are_the_reference_bit_for_bit(tiny_tiles, per_stock, num_stocks):
    # the Picard step and the explicit and rebuild walks in band tiles of
    # four levels (eight leaf parents per tile) or three (thirty-two): the
    # record and end pair, both whole solutions, and each walk's root values
    # and the gap between the two prices, with and without a kept solution,
    # are the references', bit for bit
    import impact_bsde.bsde as bsde_mod
    from bsde_reference import explicit_solution
    from impact_bsde.lattice import process_gap
    seen = tiny_tiles(per_stock * num_stocks)
    lat = build_lattice(8, 1.0)
    inst = evaluate_market(MarketConfig(1.0, num_stocks, NegativeSignOfB(0.8), SignOfBT(1.0),
                                        8, 1.0), lat)
    cut = bsde_mod._Cut(lat, num_stocks)
    assert (cut.top, cut.bands) == (4 if per_stock == 4 else 5, 64 // per_stock)
    ends = [None]
    (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=30, ends=ends)
    assert set(seen) == {cut.bands}
    assert {k: getattr(diag, k) for k in _RECORD} == picard_record(inst, 1e-12, 30)
    ((eta, theta),) = ends
    assert _slice_bits(eta + theta) == _slice_bits(sum(_reference_run(inst, 1e-12, 30), []))
    want = explicit_solution(inst)
    value, price, _ = backward_rebuild(inst, eta, theta)
    sol = solve_explicit(inst)
    for process in ("scaled_value", "scaled_price", "value_integrand", "price_integrand"):
        assert _slice_bits(getattr(sol, process).values) == \
            _slice_bits(getattr(want, process).values)
    pic, _ = picard_run(inst, tol=1e-12, max_iter=30)
    assert _slice_bits(pic.scaled_value.values + pic.scaled_price.values) == \
        _slice_bits(value + price)
    gap = process_gap(want.scaled_price, AdaptedProcess(lat, price))
    roots = {True: _root_bits(1.0, want.scaled_value.values[0], want.scaled_price.values[0]),
             False: _root_bits(1.0, value[0], price[0])}
    for keep in (False, True):
        for explicit, pair in ((True, ends[0]), (True, None), (False, ends[0])):
            first, got_gap, failure = bsde_mod._solve(inst, explicit=explicit, ends=pair,
                                                      keep=keep)
            assert (first.initial_price.tobytes(),
                    np.float64(first.initial_certainty).tobytes()) == roots[explicit]
            assert failure is None
            if pair is not None and explicit:
                assert np.float64(got_gap).tobytes() == np.float64(gap).tobytes()
            else:
                assert got_gap is None


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("num_stocks", [1, 2, 3])
def test_demand_tiles_are_the_levels_bit_for_bit(tiny_tiles, rows, num_stocks):
    # every tile the planner cuts for one or two rows, levels 0 to N - 1 and
    # the band tiles: a demand read tile by tile off its state tables
    # (gathered, or a broadcast row) is its levels' slice, and no level is
    # gathered
    import impact_bsde.bsde as bsde_mod
    from impact_bsde import evaluate_demand
    tiny_tiles(4 * num_stocks)
    lat = build_lattice(9, 1.0)
    cut = bsde_mod._Cut(lat, rows * num_stocks)
    assert cut.bands > 0
    runs = []
    cut.plans(lambda k, q, parts, run, first: runs.append((k, run[0])))
    for k in range(lat.num_steps):
        assert sum(nodes.stop - nodes.start for j, nodes in runs if j == k) == lat.nodes(k)
    for spec in (ConstantDemand(-0.4), NegativeSignOfB(-0.6),
                 PiecewiseConstantDemand(((0, 0.2), (4, -1.0)))):
        levels = evaluate_demand(spec, lat, num_stocks).values
        gamma = evaluate_demand(spec, lat, num_stocks)
        for k, nodes in runs:
            out = np.full((nodes.stop - nodes.start, num_stocks), np.nan)
            assert gamma.tile(k, nodes, out).tobytes() == levels[k][nodes].tobytes()
        assert "values" not in vars(gamma)


@pytest.mark.parametrize("num_steps, layouts", [(18, [(16, 2), (15, 4), (14, 8)]),
                                                (20, [(16, 8), (15, 16), (14, 32)])])
def test_deep_cuts_start_the_band_below_the_last_whole_tile(num_steps, layouts):
    # at the default tile size, for one to three values per node: the band
    # starts at the deepest level held in one tile, in band tiles two tiles
    # wide at level N - 1
    import impact_bsde.bsde as bsde_mod
    from impact_bsde.lattice import Lattice
    lat = Lattice(num_steps, 1.0)
    assert [(cut.top, cut.bands) for cut in (bsde_mod._Cut(lat, values)
                                             for values in (1, 2, 3))] == layouts


def test_picard_loop_and_walks_start_no_thread(tiny_tiles, monkeypatch):
    # the Picard step and the walks run every tile, band tiles included, on
    # the calling thread
    import threading
    import impact_bsde.bsde as bsde_mod
    tiny_tiles(4)

    def refused(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    lat = build_lattice(8, 1.0)
    inst = evaluate_market(MarketConfig(0.3, 2, NegativeSignOfB(0.8), SignOfBT(1.0), 8, 1.0),
                           lat)
    ends = [None, None]
    diag, _ = picard_diagnostics([inst, inst], tol=1e-12, max_iter=30, ends=ends)
    _, gap, failure = bsde_mod._solve(inst, explicit=True, ends=ends[0])
    assert diag.converged and failure is None and gap < 1e-12
    assert not hasattr(bsde_mod, "threading")


def _first_rebuild_failure(inst, eta, theta) -> str | None:
    """The message of the reference's level-by-level check of a rebuilt
    solution: level N first, value before price."""
    from impact_bsde.pricer import NumericalError, _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        value, price, _ = backward_rebuild(inst, eta, theta)
    try:
        for k in range(inst.lattice.num_steps, -1, -1):
            _check_finite(value[k], k, "Picard scaled certainty equivalent")
            _check_finite(price[k], k, "Picard scaled price")
    except NumericalError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("num_stocks", [1, 2, 3])
def test_band_walks_report_the_deepest_failure(tiny_tiles, num_stocks):
    # sixteen band tiles over levels 4 to 7; the walks fail in band tile 0
    # at a shallower level and in two later band tiles at a deeper one: both
    # report the deeper level at its first node in path order, as the
    # level-by-level references do, with and without a kept solution
    import impact_bsde.bsde as bsde_mod
    from dataclasses import replace
    from bsde_reference import explicit_solution
    from impact_bsde.pricer import NumericalError
    tiny_tiles(4 * num_stocks)
    lat = build_lattice(8, 1.0)
    cut = bsde_mod._Cut(lat, num_stocks)
    assert (cut.top, cut.bands) == (4, 16)
    base = evaluate_market(MarketConfig(1.0, num_stocks, ConstantDemand(0.5), SignOfBT(0.0),
                                        8, 1.0), lat)
    # band tile 0: level 7 finite, the child difference of level 6 overflows;
    # band tiles 2 and 10: the child difference of level 7 overflows
    psi = np.zeros((lat.num_leaves, num_stocks))
    psi[0:4] = np.array([8e307, 8e307, -8e307, -8e307])[:, None]
    psi[42:44] = psi[166:168] = np.array([8e307, -8e307])[:, None]
    inst = replace(base, psi=psi)
    with pytest.raises(NumericalError) as want:
        explicit_solution(inst)
    assert "(step 7, path 21)" in str(want.value)
    for keep in (False, True):
        with pytest.raises(NumericalError) as got:
            bsde_mod._solve(inst, explicit=True, keep=keep)
        assert str(got.value) == str(want.value)
    # a rebuild at a frozen pair that overflows at level 5 in band tile 0
    # and at level 7 in band tile 10, or on the leaves of band tile 10
    eta = [np.zeros(lat.nodes(k)) for k in range(8)]
    theta = [np.zeros((lat.nodes(k), num_stocks)) for k in range(8)]
    theta[5][0], theta[7][83] = 1e200, 1e200
    leaves = replace(base, psi=np.where(np.arange(lat.num_leaves)[:, None] == 166, 1e308, 0.0)
                     * np.ones(num_stocks), risk_aversion=4.0)
    for case, pair in ((inst, (eta, theta)), (leaves, (eta, theta))):
        message = _first_rebuild_failure(case, *pair)
        assert message is not None
        for keep in (False, True):
            *_, failure = bsde_mod._solve(case, ends=pair, keep=keep)
            assert str(failure) == message
    assert "(step 8, path 166)" in _first_rebuild_failure(leaves, eta, theta)


def test_band_levels_are_never_held_whole(tiny_tiles, monkeypatch):
    # N=16 in tiles of 2**10 values: the band is levels 11 to 15.  Traced
    # blocks, sampled at the Picard loop's first step and at the first tile
    # of each level of the walks: beside its two iterate pairs the loop
    # holds no whole level of the band below its top, and the walks without
    # a kept solution hold no array of nodes(15) values or more (no leaf
    # slice, no level 15)
    import tracemalloc
    import impact_bsde.bsde as bsde_mod
    tiny_tiles(1 << 10)
    lat = build_lattice(16, 1.0)
    inst = evaluate_market(MarketConfig(0.3, 1, ConstantDemand(0.5), SignOfBT(1.0), 16, 1.0),
                           lat)
    sizes = {}

    def sampled(original, key):
        def run(*args, **kwargs):
            if key(*args) not in sizes:
                sizes[key(*args)] = max(t.size for t in tracemalloc.take_snapshot().traces
                                        if t.size != pair)
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(bsde_mod._PicardKernel, "step",
                        sampled(bsde_mod._PicardKernel.step, lambda *args: "step"))
    monkeypatch.setattr(bsde_mod, "_backward",
                        sampled(bsde_mod._backward, lambda inst, tile, *args: tile.k))
    pair = 8 * 2 * (lat.num_leaves - 1)  # one iterate pair's block
    ends = [None]
    tracemalloc.start()
    try:
        (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=100, ends=ends)
        assert sizes.pop("step") < 8 * lat.nodes(12) and diag.converged
        tracemalloc.stop()
        tracemalloc.start()
        first, gap, failure = bsde_mod._solve(inst, explicit=True, ends=ends[0])
    finally:
        tracemalloc.stop()
    assert sorted(sizes) == list(range(16)) and max(sizes.values()) < 8 * lat.nodes(15)
    assert failure is None and gap < 1e-12


@pytest.mark.parametrize("num_steps, num_stocks, tile", [(12, 1, 1 << 8), (14, 2, 1 << 9),
                                                         (16, 1, 1 << 10)])
def test_picard_loop_holds_one_iterate_pair(tiny_tiles, monkeypatch, num_steps, num_stocks, tile):
    # each step writes the new iterate over the old one: traced blocks,
    # sampled at every step of the loop, hold exactly one block of an
    # iterate pair's size (there were two), and beside it none of a level
    # N - 1's size or more, so no leaf-sized or level-sized spare either
    import tracemalloc
    import impact_bsde.bsde as bsde_mod
    tiny_tiles(tile)
    lat = build_lattice(num_steps, 1.0)
    inst = evaluate_market(MarketConfig(0.3, num_stocks, ConstantDemand(0.5), SignOfBT(1.0),
                                        num_steps, 1.0), lat)
    pair = 8 * (1 + num_stocks) * (lat.num_leaves - 1)
    samples = []
    step = bsde_mod._PicardKernel.step

    def sampled(*args, **kwargs):
        sizes = [t.size for t in tracemalloc.take_snapshot().traces]
        samples.append((sizes.count(pair), max(size for size in sizes if size != pair)))
        return step(*args, **kwargs)

    monkeypatch.setattr(bsde_mod._PicardKernel, "step", sampled)
    tracemalloc.start()
    try:
        (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=100, ends=[None])
    finally:
        tracemalloc.stop()
    assert diag.converged and len(samples) == diag.iterations > 2
    assert [count for count, _ in samples] == [1] * diag.iterations
    assert max(most for _, most in samples) < 8 * num_stocks * lat.nodes(num_steps - 1)


def test_picard_map_in_tiles_is_the_reference_bit_for_bit(tiny_tiles):
    # random frozen pairs, so every level's drift is non-zero, at depths 1 to
    # 6 and for up to nine stocks (numpy's sum over the stock axis is
    # pairwise from eight columns on)
    tiny_tiles(4)
    rng = np.random.default_rng(29)
    for num_steps in range(1, 7):
        for num_stocks in (1, 3, 9):
            cfg = random_table_config(rng, num_steps, num_stocks=num_stocks, a_lo=0.05, a_hi=2.0)
            inst = evaluate_market(cfg, build_lattice(num_steps, 1.0))
            eta = [rng.normal(size=1 << k) * 3 for k in range(num_steps)]
            theta = [rng.normal(size=(1 << k, num_stocks)) * 3 for k in range(num_steps)]
            got = picard_map(inst, eta, theta)
            want = picard_step(inst, eta, theta)[:2]
            assert [v.tobytes() for v in got[0] + got[1]] == \
                [v.tobytes() for v in want[0] + want[1]]


@pytest.mark.parametrize("half", [0, 1])
def test_picard_threads_keep_the_callers_error_state(tiny_tiles, half):
    # the step runs every band tile on the calling thread, under its numpy
    # error state: an overflow below either root subtree raises in the
    # caller under errstate(all="raise"), and no thread is started
    import threading
    tiny_tiles(4)
    from dataclasses import replace
    lat = build_lattice(6, 1.0)
    base = evaluate_market(MarketConfig(1.0, 1, ConstantDemand(0.5), SignOfBT(0.0), 6, 1.0),
                           lat)
    # the children of every leaf parent below one root subtree differ by 2e308
    psi = np.zeros((lat.num_leaves, 1))
    below = slice(half * lat.num_leaves // 2, (half + 1) * lat.num_leaves // 2)
    psi[below, 0] = np.tile([1e308, -1e308], lat.num_leaves // 4)
    inst = replace(base, psi=psi)
    zero = [np.zeros(lat.nodes(k)) for k in range(6)], [np.zeros((lat.nodes(k), 1))
                                                       for k in range(6)]
    threads = threading.active_count()
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            picard_map(inst, *zero)
    assert threading.active_count() == threads
    with np.errstate(over="ignore", invalid="ignore"):
        _, theta = picard_map(inst, *zero)
    overflowed = ~np.isfinite(theta[-1][:, 0])
    assert overflowed[below.start // 2:below.stop // 2].all() and overflowed.sum() == 16
    # the band tiles' flags reach the row's: their means are finite, so the
    # levels above the band alone would not see the overflow
    (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=3)
    assert diag.aborted == "non-finite iterate at iteration 1"
    assert threading.active_count() == threads


def test_diverging_two_part_run_prints_no_warning(tiny_tiles, capfd):
    # picard_diagnostics silences numpy's warnings for the diverging rows it
    # reports as data, in every band tile, and starts no thread
    import threading
    import warnings
    tiny_tiles(4)
    lat = build_lattice(8, 1.0)
    inst = evaluate_market(MarketConfig(50.0, 2, NegativeSignOfB(1.0), SignOfBT(1.0), 8, 1.0),
                           lat)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=60)
    assert diag.aborted == f"non-finite iterate at iteration {diag.iterations + 1}"
    assert not caught
    assert capfd.readouterr().err == ""
    assert threading.active_count() == threads


def test_concurrent_two_part_runs_under_fast_thread_switches(tiny_tiles):
    # three callers on their own threads, switching threads every
    # microsecond: every record, and every walk's root values, gap and
    # failure after it, is still its own run's, so no caller wrote into
    # another's tile, band tile or block
    import sys
    import threading
    import impact_bsde.bsde as bsde_mod
    tiny_tiles(16)
    lat = build_lattice(8, 1.0)
    base = evaluate_market(MarketConfig(1.0, 2, NegativeSignOfB(0.8), SignOfBT(1.0), 8, 1.0),
                           lat)
    blocks = [[_variant(base, param, val) for val in _SWEEP_VALUES[param][:4]]
              for param in ("risk_aversion", "demand_scale", "dividend_scale")]

    def outcome(points):
        ends = [None] * len(points)
        records = [repr(d.to_dict())
                   for d in picard_diagnostics(points, tol=1e-12, max_iter=12, ends=ends)]
        with np.errstate(over="ignore", invalid="ignore"):
            walks = [bsde_mod._solve(p, ends=pair) for p, pair in zip(points, ends)]
        return records + [repr((root.initial_price.tobytes(), root.initial_certainty, gap,
                                str(failure))) for root, gap, failure in walks]

    want = [outcome(points) for points in blocks]
    got: list = [None] * len(blocks)

    def run(i):
        got[i] = outcome(blocks[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(blocks))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want
