import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_bsde import (
    ConstantDemand,
    Digital,
    LinearClipped,
    LocalizedDemand,
    LocalizedDividend,
    MarketConfig,
    NegativeSignOfB,
    PiecewiseConstantDemand,
    SignOfBT,
    StoppingTime,
    TableDemand,
    TableDividend,
    build_lattice,
    Instance,
    evaluate_demand,
    evaluate_dividend,
    evaluate_market,
    hitting_time_tau,
    sign_plus,
    sup_norm,
)

from helpers import brownian, oracle_leaf_values, oracle_step_values


def demand_sup(proc):
    """Node maximum of the demand norm, as an instance derives it."""
    lat = proc.lattice
    return Instance(lat, 1.0, proc, np.zeros((lat.num_leaves, proc.dim))).gamma_sup


# zero of both signs, negatives, and magnitudes at the ends of the float range
_SCALES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 2.5, 1e-300, -3e300, 1e308])


def _bytes(levels):
    return [(v.shape, v.tobytes()) for v in levels]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), num_steps=st.integers(1, 12), num_stocks=st.integers(1, 3),
       horizon=st.sampled_from([1.0, 4.0, 0.3]))
def test_state_tables_are_the_per_node_evaluation_bit_for_bit(data, num_steps, num_stocks,
                                                              horizon):
    # every Markov family against the per-node oracle of tests/helpers.py: the
    # levels, the scaled tables, the leaves and their mean, and localized specs
    # over each; the walk sits at zero at every even step, where sign(0) = +1
    lat = build_lattice(num_steps, horizon)
    vector = st.lists(_SCALES, min_size=num_stocks, max_size=num_stocks).map(tuple)
    demand = data.draw(st.one_of(
        st.builds(ConstantDemand, st.one_of(_SCALES, vector)),
        st.builds(NegativeSignOfB, _SCALES),
        st.builds(PiecewiseConstantDemand, st.lists(
            st.tuples(st.integers(1, num_steps), st.one_of(_SCALES, vector)),
            max_size=3, unique_by=lambda item: item[0]).map(
                lambda rest: ((0, 0.25), *rest)))))
    dividend = data.draw(st.one_of(
        st.builds(SignOfBT, _SCALES),
        st.builds(LinearClipped, _SCALES, st.sampled_from([0.5, 1.0, 1e308])),
        st.builds(Digital, st.sampled_from([0.0, 0.1, -0.3]), _SCALES)))
    level = data.draw(st.sampled_from([0.0, 0.2, -1.0, float(lat.sqrt_dt)]))
    from_step = data.draw(st.integers(0, num_steps))
    factor = data.draw(_SCALES)

    want = oracle_step_values(demand, lat, num_stocks)
    proc = evaluate_demand(demand, lat, num_stocks)
    with np.errstate(over="ignore"):
        # the tables are scaled before any level is gathered
        assert _bytes(proc.scaled(factor).values) == _bytes([factor * v for v in want])
    assert _bytes(proc.values) == _bytes(want)
    localized = LocalizedDemand(demand, level, from_step)
    assert (_bytes(evaluate_demand(localized, lat, num_stocks).values)
            == _bytes(oracle_step_values(localized, lat, num_stocks)))

    for spec in (dividend, LocalizedDividend(dividend, level, from_step)):
        leaves = oracle_leaf_values(spec, lat, num_stocks)
        for center in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                psi, mean = evaluate_dividend(spec, lat, num_stocks, center=center)
                want_mean = leaves.mean(axis=0)
                want_psi = leaves - want_mean if center else leaves
            assert (mean.tobytes(), psi.shape, psi.tobytes()) == (
                want_mean.tobytes(), want_psi.shape, want_psi.tobytes())


@pytest.mark.parametrize("num_stocks", [1, 2, 3])
def test_gamma_sup_reads_the_tables_as_the_node_max_of_the_levels(num_stocks):
    lat = build_lattice(7, 1.0)
    vector = (0.3, -1.25, 0.5)[:num_stocks]
    for spec in (ConstantDemand(vector), ConstantDemand(-0.0), NegativeSignOfB(-1.5),
                 NegativeSignOfB(0.0), PiecewiseConstantDemand(((0, 0.3), (3, vector)))):
        gamma = evaluate_demand(spec, lat, num_stocks)
        sup = Instance(lat, 1.0, gamma, np.zeros((lat.num_leaves, num_stocks))).gamma_sup
        # the sup gathered no level
        assert gamma.tables is not None and "values" not in vars(gamma)
        assert np.float64(sup).tobytes() == np.float64(sup_norm(gamma).value).tobytes()


def test_sign_convention_at_zero():
    assert sign_plus(0.0) == 1.0
    np.testing.assert_array_equal(sign_plus(np.array([-2, 0, 3])), [-1.0, 1.0, 1.0])


def test_constant_demand_and_sup():
    lat = build_lattice(3, 1.0)
    proc = evaluate_demand(ConstantDemand(-0.75), lat, 1)
    sup = demand_sup(proc)
    assert sup == 0.75
    for k, v in enumerate(proc.values):
        assert v.shape == (1 << k, 1)
        np.testing.assert_array_equal(v, -0.75)


def test_constant_demand_vector_broadcast():
    lat = build_lattice(2, 1.0)
    proc = evaluate_demand(ConstantDemand((0.3, -0.4)), lat, 2)
    sup = demand_sup(proc)
    assert sup == pytest.approx(0.5)
    np.testing.assert_array_equal(proc.values[1], [[0.3, -0.4], [0.3, -0.4]])


def test_negative_sign_demand_two_steps():
    lat = build_lattice(2, 1.0)
    proc = evaluate_demand(NegativeSignOfB(), lat, 1)
    sup = demand_sup(proc)
    assert sup == 1.0
    # at the start the walk sits at zero, so the tie-break gives -1
    np.testing.assert_array_equal(proc.values[0], [[-1.0]])
    # after an up move the walk is positive (demand -1), after a down move negative
    np.testing.assert_array_equal(proc.values[1], [[-1.0], [1.0]])


def test_piecewise_constant_schedule():
    lat = build_lattice(10, 1.0)
    spec = PiecewiseConstantDemand(((0, 1.0), (5, -1.0)))
    proc = evaluate_demand(spec, lat, 1)
    for k in range(10):
        expected = 1.0 if k < 5 else -1.0
        np.testing.assert_array_equal(proc.values[k], expected)


def test_piecewise_must_start_at_zero():
    lat = build_lattice(4, 1.0)
    with pytest.raises(ValueError, match="step 0"):
        evaluate_demand(PiecewiseConstantDemand(((2, 1.0),)), lat, 1)


def test_localized_demand_pathwise():
    lat = build_lattice(4, 1.0)
    inner = ConstantDemand(1.0)
    spec = LocalizedDemand(inner, level=0.0, from_step=1)
    proc = evaluate_demand(spec, lat, 1)
    tau = hitting_time_tau(lat, 0.0, from_step=1)
    for k in range(4):
        fired = tau.stopped_by(k)
        np.testing.assert_array_equal(proc.values[k][:, 0], fired.astype(float))


def test_table_demand_shape_mismatch():
    lat = build_lattice(3, 1.0)
    with pytest.raises(ValueError, match="shape"):
        evaluate_demand(TableDemand([np.zeros((2, 1))] * 3), lat, 1)


def test_sign_dividend_one_step():
    lat = build_lattice(1, 1.0)
    psi, mean = evaluate_dividend(SignOfBT(), lat, 1)
    np.testing.assert_array_equal(psi[:, 0], [1.0, -1.0])
    assert mean[0] == 0.0


def test_digital_two_steps():
    lat = build_lattice(2, 1.0)
    psi, mean = evaluate_dividend(Digital(strike=0.0, offset=0.5), lat, 1)
    # only the up-up leaf exceeds zero; the two middle leaves sit exactly at it
    np.testing.assert_array_equal(psi[:, 0], [0.5, -0.5, -0.5, -0.5])
    assert mean[0] == pytest.approx(-0.25)


def test_linear_clipped_inactive_is_symmetric():
    lat = build_lattice(4, 1.0)
    psi, mean = evaluate_dividend(LinearClipped(slope=1.0, bound=10.0), lat, 1)
    np.testing.assert_allclose(psi[:, 0], brownian(lat).terminal)
    assert mean[0] == pytest.approx(0.0, abs=1e-15)


def test_linear_clipped_active():
    lat = build_lattice(4, 4.0)  # dt = 1, terminal walk reaches +-4
    psi, _ = evaluate_dividend(LinearClipped(slope=1.0, bound=2.5), lat, 1)
    assert psi.max() == 2.5
    assert psi.min() == -2.5


def test_linear_clipped_at_the_top_of_the_float_range():
    # slope * b overflowed (a RuntimeWarning) and clipped to the bound where
    # slope * (b * sqrt_dt) is 1e308 (N=4, sqrt_dt = 1/2); where slope * b is
    # finite the leaves are slope * b * sqrt_dt, bit for bit
    lat = build_lattice(4, 1.0)
    b = lat.walk(4)
    psi, _ = evaluate_dividend(LinearClipped(slope=1e308, bound=1.5e308), lat, 1)
    want = {4: 1.5e308, 2: 1e308, 0: 0.0, -2: -1e308, -4: -1.5e308}
    assert psi[:, 0].tolist() == [want[x] for x in b.tolist()]
    for slope, bound in ((0.7, 0.9), (-3.1, 1.7), (1e307, 1e308)):
        psi, _ = evaluate_dividend(LinearClipped(slope=slope, bound=bound), lat, 2)
        old = np.clip(slope * b * lat.sqrt_dt, -bound, bound)
        assert psi.tobytes() == np.stack([old, old], axis=1).tobytes()


def test_centering_flag():
    lat = build_lattice(2, 1.0)
    psi, mean = evaluate_dividend(Digital(0.0, 0.0), lat, 1, center=True)
    assert mean[0] == pytest.approx(0.25)
    assert psi.mean() == pytest.approx(0.0, abs=1e-16)


def test_localized_dividend_kills_late_stops():
    lat = build_lattice(2, 1.0)
    spec = LocalizedDividend(SignOfBT(), level=0.0, from_step=1)
    psi, _ = evaluate_dividend(spec, lat, 1)
    # the walk cannot return to zero before the final step, so tau == horizon
    # everywhere and the dividend dies entirely
    np.testing.assert_array_equal(psi, 0.0)


def test_table_dividend_non_finite_rejected():
    lat = build_lattice(2, 1.0)
    bad = TableDividend(np.array([1.0, np.inf, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_dividend(bad, lat, 1)


def test_hitting_time_at_start():
    lat = build_lattice(3, 1.0)
    tau = hitting_time_tau(lat, 0.0, from_step=0)
    np.testing.assert_array_equal(tau.leaf_steps, 0)


def test_hitting_time_after_first_step_two_lattice():
    lat = build_lattice(2, 1.0)
    tau = hitting_time_tau(lat, 0.0, from_step=1)
    # no path can sit at zero at step 1; the two middle paths return at 2,
    # the outer ones never do, so the cap makes tau == 2 everywhere
    np.testing.assert_array_equal(tau.leaf_steps, 2)
    assert not tau.stopped_by(1).any()
    np.testing.assert_array_equal(tau.stopped_by(2), [False, True, True, False])


def test_unreachable_level_never_hits():
    # a level beyond N walk steps is never hit, also where level / sqrt(dt)
    # overflows to inf (it raised OverflowError on rounding)
    for horizon, level in ((1.0, 10.0), (1.0, 1e308), (1.0, -1e308), (1e-300, 1e300)):
        lat = build_lattice(4, horizon)
        tau = hitting_time_tau(lat, level, from_step=0)
        np.testing.assert_array_equal(tau.leaf_steps, 4)
        for k in range(5):
            assert not tau.stopped_by(k).any()


def test_hitting_level_one_step_value():
    lat = build_lattice(3, 3.0)  # dt = 1, walk levels are integers
    tau = hitting_time_tau(lat, 1.0, from_step=0)
    # every path moving up first stops at step 1; down-first paths can only
    # reach level one at step 3 via down-up-up
    leaf = tau.leaf_steps
    assert list(leaf[:4]) == [1, 1, 1, 1]
    assert list(leaf[4:]) == [3, 3, 3, 3]  # down-up-up hits at 3, others capped


def test_stopping_time_measurability():
    rng = np.random.default_rng(17)
    lat = build_lattice(5, 1.0)
    decisions = [rng.uniform(size=1 << k) < 0.2 for k in range(6)]
    tau = StoppingTime.from_node_decisions(lat, decisions)
    for k in range(5):
        parent = tau.stop_step[k]
        child = tau.stop_step[k + 1]
        # once fired, the stop step is carried to both children unchanged
        fired = parent >= 0
        np.testing.assert_array_equal(child[0::2][fired], parent[fired])
        np.testing.assert_array_equal(child[1::2][fired], parent[fired])


def test_market_config_validation():
    demand = ConstantDemand(0.0)
    dividend = SignOfBT()
    with pytest.raises(ValueError, match="risk_aversion"):
        MarketConfig(0.0, 1, demand, dividend, 2, 1.0)
    with pytest.raises(ValueError, match="num_stocks"):
        MarketConfig(1.0, 0, demand, dividend, 2, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        MarketConfig(1.0, 1, demand, dividend, 2, 0.0)


def test_demand_predictability_across_children():
    # the value used on a step is identical across the two children of the
    # step-start node by construction; localized wrappers must preserve that
    lat = build_lattice(4, 1.0)
    spec = LocalizedDemand(NegativeSignOfB(), level=0.0, from_step=1)
    proc = evaluate_demand(spec, lat, 1)
    for k in range(4):
        assert proc.values[k].shape[0] == 1 << k


def test_instance_validation():
    lat = build_lattice(3, 1.0)
    gamma = evaluate_demand(ConstantDemand(0.5), lat, 1)
    psi = np.ones(8)
    for a in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="risk_aversion must be positive"):
            Instance(lat, a, gamma, psi)
    with pytest.raises(ValueError, match="dividend has 4 rows, lattice has 8 leaves"):
        Instance(lat, 1.0, gamma, np.ones(4))
    with pytest.raises(ValueError, match="demand dimension 1 != dividend dimension 2"):
        Instance(lat, 1.0, gamma, np.ones((8, 2)))
    # a flat dividend becomes one column; the risk aversion a float
    inst = Instance(lat, 2, gamma, psi)
    assert inst.psi.shape == (8, 1) and inst.num_stocks == 1
    assert isinstance(inst.risk_aversion, float)


def test_evaluate_market_instance():
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(0.7, 2, ConstantDemand((0.3, -0.4)), LinearClipped(1.0, 0.5), 4, 1.0,
                       center_dividend=True)
    inst = evaluate_market(cfg, lat)
    raw, mean = evaluate_dividend(cfg.dividend, lat, 2)
    assert inst.lattice is lat and inst.risk_aversion == 0.7
    assert inst.gamma_sup == pytest.approx(0.5)
    np.testing.assert_array_equal(inst.psi, raw - mean)
    # the reported mean is the one before centring
    np.testing.assert_array_equal(inst.psi_mean, mean)
