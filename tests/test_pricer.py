import math

import numpy as np
import pytest

from impact_bsde import (
    ConstantDemand,
    LinearClipped,
    LocalizedDemand,
    LocalizedDividend,
    MarketConfig,
    NegativeSignOfB,
    PredictableProcess,
    SignOfBT,
    StoppingTime,
    build_lattice,
    Instance,
    conditional_expectation,
    evaluate_market,
    hitting_time_tau,
    localize,
    price_equilibrium,
)

from helpers import equilibrium_defects, max_gap, random_table_config


def one_period_config(gamma=0.5, a=1.0):
    return MarketConfig(a, 1, ConstantDemand(gamma), SignOfBT(), 1, 1.0)


def test_one_period_closed_form():
    lat = build_lattice(1, 1.0)
    sol = price_equilibrium(evaluate_market(one_period_config(), lat))
    assert sol.initial_price[0] == pytest.approx(-math.tanh(0.5), abs=1e-14)
    assert sol.initial_certainty == pytest.approx(
        0.5 * math.tanh(0.5) - math.log(math.cosh(0.5)), abs=1e-14)


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, -0.7])
def test_one_period_any_demand_scale(c):
    lat = build_lattice(1, 1.0)
    sol = price_equilibrium(evaluate_market(one_period_config(gamma=c), lat))
    assert sol.initial_price[0] == pytest.approx(-math.tanh(c), abs=1e-13)


def test_one_period_monotone_price_impact():
    lat = build_lattice(1, 1.0)
    prices = [price_equilibrium(evaluate_market(one_period_config(gamma=c), lat)).initial_price[0]
              for c in (0.1, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(prices, prices[1:]))


def test_zero_demand_prices_are_plain_expectations():
    lat = build_lattice(6, 1.0)
    cfg = MarketConfig(0.8, 1, ConstantDemand(0.0), SignOfBT(), 6, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    ce = conditional_expectation(sol.dividend, lat)
    assert max_gap(sol.prices, ce) <= 1e-15
    for v in sol.certainty_equivalent.values:
        np.testing.assert_allclose(v, 0.0, atol=1e-15)
    for v in sol.density.values:
        np.testing.assert_allclose(v, 1.0, atol=1e-15)
    for v in sol.up_prob.values:
        np.testing.assert_allclose(v, 0.5, atol=1e-15)


def test_counterexample_one_step_price():
    lat = build_lattice(1, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), 1, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    assert sol.initial_price[0] == pytest.approx(math.tanh(1.0), abs=1e-14)


def test_gain_process_zero_demand():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0), SignOfBT(), 4, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    for v in sol.gain.values:
        np.testing.assert_array_equal(v, 0.0)


def test_gain_one_period_arithmetic():
    lat = build_lattice(1, 1.0)
    sol = price_equilibrium(evaluate_market(one_period_config(), lat))
    want = 0.5 * (np.array([1.0, -1.0]) + math.tanh(0.5))
    np.testing.assert_allclose(sol.gain.terminal, want, atol=1e-14)


def test_terminal_density_identity():
    rng = np.random.default_rng(2)
    for _ in range(5):
        num_steps = int(rng.integers(2, 8))
        cfg = random_table_config(rng, num_steps)
        lat = build_lattice(num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        ident = np.exp(-cfg.risk_aversion * (sol.gain.terminal - sol.initial_certainty))
        np.testing.assert_allclose(sol.density.terminal, ident, atol=1e-10)


def test_randomized_equilibrium_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        num_steps = int(rng.integers(1, 9))
        n = int(rng.integers(1, 3))
        cfg = random_table_config(rng, num_steps, num_stocks=n)
        lat = build_lattice(num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        z_def, s_def, g_def = equilibrium_defects(sol)
        assert z_def <= 1e-10
        assert s_def <= 1e-10
        assert g_def <= 1e-10
        assert min(float(np.min(v)) for v in sol.certainty_equivalent.values) >= -1e-12
        assert min(float(np.min(v)) for v in sol.density.values) > 0
        np.testing.assert_allclose(sol.prices.terminal, sol.dividend, atol=1e-15)


def test_homogeneity_one_period_closed_form():
    lat = build_lattice(1, 1.0)
    s_demand = price_equilibrium(evaluate_market(one_period_config(gamma=0.5, a=1.0), lat))
    s_aversion = price_equilibrium(evaluate_market(one_period_config(gamma=0.25, a=2.0), lat))
    assert s_demand.initial_price[0] == pytest.approx(s_aversion.initial_price[0], abs=1e-15)
    assert s_demand.initial_price[0] == pytest.approx(-math.tanh(0.5), abs=1e-14)


def test_mirror_symmetry():
    rng = np.random.default_rng(5)
    lat = build_lattice(6, 2.0)
    vals = [rng.uniform(-1, 1, size=(1 << k, 2)) for k in range(6)]
    psi = rng.uniform(-1, 1, size=(64, 2))
    sol = price_equilibrium(Instance(lat, 0.8, PredictableProcess(lat, vals), psi))
    mirrored = price_equilibrium(Instance(
        lat, 0.8, PredictableProcess(lat, [-v[::-1] for v in vals]), -psi[::-1]))
    for a, b in zip(mirrored.prices.values, sol.prices.values):
        np.testing.assert_allclose(a, -b[::-1], atol=1e-14)
    for a, b in zip(mirrored.certainty_equivalent.values, sol.certainty_equivalent.values):
        np.testing.assert_allclose(a, b[::-1], atol=1e-14)


def test_deep_tilt_stays_finite():
    # strongly scaled instance: the log-space weights keep everything finite
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(200.0, 1, ConstantDemand(1.0), SignOfBT(), 4, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    assert np.isfinite(sol.initial_price[0])
    assert abs(sol.initial_price[0]) <= 1.0
    assert min(float(np.min(v)) for v in sol.certainty_equivalent.values) >= -1e-12


def test_localize_degenerate_start():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(0.5), 4, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    tau0 = hitting_time_tau(lat, 0.0, from_step=0)  # fires immediately
    localized, report = localize(sol, tau0)
    assert report.max_price_gap == 0.0
    # identical instance: prices agree everywhere, not just strictly after
    assert max_gap(localized.prices, sol.prices) == 0.0


def test_localize_never_fires_kills_everything():
    lat = build_lattice(3, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), 3, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    never = StoppingTime.from_node_decisions(
        lat, [np.zeros(1 << k, dtype=bool) for k in range(4)])
    localized, report = localize(sol, never)
    assert report.nodes_compared == 0
    for v in localized.prices.values:
        np.testing.assert_array_equal(v, 0.0)


def test_localize_hitting_time_exact():
    for num_steps, from_step in ((8, 2), (10, 3), (12, 4)):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(), num_steps, 1.0)
        sol = price_equilibrium(evaluate_market(cfg, lat))
        tau = hitting_time_tau(lat, 0.0, from_step=from_step)
        _, report = localize(sol, tau)
        assert report.nodes_compared > 0
        assert report.max_price_gap <= 1e-10


@pytest.mark.parametrize("num_stocks", [1, 2])
@pytest.mark.parametrize("num_steps", [3, 6, 9])
def test_localize_prices_the_localized_specs(num_steps, num_stocks):
    # localize gates the evaluated demand and dividend by the rules the
    # localized specs apply: both routes price one instance, bit for bit
    lat = build_lattice(num_steps, 1.0)
    demand, dividend = NegativeSignOfB(0.7), LinearClipped(1.5, 0.8)
    cfg = MarketConfig(0.8, num_stocks, demand, dividend, num_steps, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    for level, from_step in ((0.0, 0), (0.0, 2), (lat.sqrt_dt, 1)):
        localized, _ = localize(sol, hitting_time_tau(lat, level, from_step))
        specs = MarketConfig(0.8, num_stocks, LocalizedDemand(demand, level, from_step),
                             LocalizedDividend(dividend, level, from_step), num_steps, 1.0)
        direct = price_equilibrium(evaluate_market(specs, lat))
        for got, want in zip(localized.prices.values, direct.prices.values):
            assert got.tobytes() == want.tobytes()


def test_mpr_representations_converge():
    # the two discrete market-price-of-risk readings differ at the step
    # scale on a smooth instance
    from impact_bsde import LinearClipped
    gaps = []
    for num_steps in (4, 8, 16):
        lat = build_lattice(num_steps, 1.0)
        cfg = MarketConfig(0.5, 1, ConstantDemand(0.5), LinearClipped(1.0, 10.0),
                           num_steps, 1.0)
        gaps.append(price_equilibrium(evaluate_market(cfg, lat)).mpr_gap())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=0.2)


def test_node_rows_schema(tmp_path):
    from impact_bsde.cli import _write_nodes
    lat = build_lattice(2, 1.0)
    sol = price_equilibrium(evaluate_market(MarketConfig(1.0, 2, ConstantDemand((0.5, -0.5)),
                                                         SignOfBT(), 2, 1.0), lat))
    path = tmp_path / "nodes.csv"
    _write_nodes(str(path), sol.prices, sol.certainty_equivalent, sol.density,
                 sol.up_prob, sol.market_price_of_risk, sol.volatility)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header[:3] == ["step", "node", "b"]
    assert len(rows) == 1 + 2 + 4
    assert all(len(r) == len(header) for r in rows)
    # terminal slice carries no predictable fields
    assert np.isnan(float(rows[-1][header.index("q_up")]))


def test_lattice_config_mismatch_rejected():
    lat = build_lattice(3, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0), SignOfBT(), 4, 1.0)
    with pytest.raises(ValueError, match="does not"):
        evaluate_market(cfg, lat)
