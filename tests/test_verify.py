import inspect
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impact_bsde import (
    ConstantDemand,
    MarketConfig,
    NegativeSignOfB,
    SignOfBT,
    Instance,
    TableDividend,
    bmo_norm_rv,
    build_lattice,
    evaluate_market,
    h_norm,
    hitting_time_tau,
    price_equilibrium,
)
from impact_bsde import verify as verify_mod
from impact_bsde.lattice import PredictableProcess, stochastic_integral
from impact_bsde.scenario import sign_plus
from impact_bsde.verify import (
    _GAIN_BLOCK_BYTES,
    _batch_utilities,
    _score_work,
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
    default_x_grid,
    run_counterexample,
)

import scoring_reference
from helpers import picard_run, random_table_config


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


def _gauge(sol):
    """The a-priori bound's constant: the centred dividend's gauge norm."""
    return h_norm(sol.dividend - sol.dividend.mean(axis=0), sol.lattice).value


def _centred_bmo(sol):
    """The norm bounds' constant: the centred dividend's quadratic norm."""
    return bmo_norm_rv(sol.dividend - sol.dividend.mean(axis=0), sol.lattice).value


def test_equilibrium_martingales_pass(eligible):
    _, _, sol = eligible
    report = check_equilibrium_martingales(sol)
    assert report.status == "pass"
    assert report.details["density_min"] > 0


def test_apriori_bound(eligible):
    _, _, sol = eligible
    report = check_apriori(sol, _gauge(sol))
    assert report.status == "pass"
    assert report.hypotheses["gauge_norm"] == pytest.approx(0.5, abs=1e-9)
    # the bound says exp(-R) >= 0.5 at every node
    assert report.details["floor"] == pytest.approx(0.5, abs=1e-9)
    assert report.details["min_gap_to_floor"] >= -1e-10


def test_apriori_skips_on_large_aversion():
    lat = build_lattice(5, 1.0)
    cfg = MarketConfig(2.0, 1, NegativeSignOfB(), SignOfBT(0.5), 5, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    report = check_apriori(sol, _gauge(sol))
    assert report.status == "skip"
    assert not report.hypotheses["unit_risk_aversion"]


def test_apriori_skips_on_uncentered_dividend():
    # even depth: the terminal sign is not centered under the tie-break
    lat = build_lattice(6, 1.0)
    cfg = MarketConfig(1.0, 1, NegativeSignOfB(), SignOfBT(0.5), 6, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    report = check_apriori(sol, _gauge(sol))
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
        report = check_apriori(sol, _gauge(sol))
        assert report.status == "pass"
        assert report.details["min_gap_to_floor"] >= -1e-10
        floors.append(report.details["floor"])
        worst_exp.append(min(float(np.min(np.exp(-v)))
                             for v in sol.certainty_equivalent.values))
    assert worst_exp[0] > worst_exp[1] > worst_exp[2]
    assert floors[0] > floors[1] > floors[2]


def test_supermartingale_profile(eligible):
    _, _, sol = eligible
    report = check_supermartingale_V(sol, default_x_grid(sol), _gauge(sol))
    assert report.status == "pass"
    assert report.details["max_defect"] <= 1e-10


def test_supermartingale_profile_far_center(eligible):
    _, _, sol = eligible
    report = check_supermartingale_V(sol, [np.array([25.0])], _gauge(sol))
    assert report.status == "pass"


def test_supermartingale_constant_dividend_flat_profile():
    lat = build_lattice(3, 1.0)
    cfg = MarketConfig(1.0, 1, ConstantDemand(0.0),
                       TableDividend(np.zeros(8)), 3, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    report = check_supermartingale_V(sol, [np.array([0.0])], _gauge(sol))
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
    zero, gamma = _scored(sol, np.stack([np.zeros((31, 1)), np.concatenate(sol.gamma.values)]))
    assert zero == pytest.approx(-1.0)
    assert gamma >= -1.0 - 1e-15


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
    report = check_homogeneity(evaluate_market(cfg, lat))
    assert report.status == "pass"
    assert report.details["max_gap"] <= 1e-12


def test_homogeneity_holds_few_solutions_at_once(monkeypatch):
    # each factor's solutions are freed before the next factor is priced,
    # so the peak stays a few solutions whatever the number of factors
    import tracemalloc
    lat = build_lattice(12, 1.0)
    inst = evaluate_market(MarketConfig(0.7, 1, NegativeSignOfB(0.8), SignOfBT(0.6), 12, 1.0),
                           lat)
    monkeypatch.setattr(verify_mod, "HOMOGENEITY_FACTORS", (0.5, 2.0, 10.0, 3.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = price_equilibrium(inst)
        solution = tracemalloc.get_traced_memory()[0] - before
        del sol
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = check_homogeneity(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    assert peak < 4 * solution


def test_homogeneity_identity_at_unit_factor(monkeypatch):
    lat = build_lattice(4, 1.0)
    cfg = MarketConfig(0.7, 1, ConstantDemand(0.3), SignOfBT(), 4, 1.0)
    monkeypatch.setattr(verify_mod, "HOMOGENEITY_FACTORS", (1.0,))
    report = check_homogeneity(evaluate_market(cfg, lat))
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
    _, diag = picard_run(evaluate_market(cfg, lat), tol=1e-10, max_iter=10)
    report = check_norm_bounds(sol, diag, _centred_bmo(sol))
    assert report.status == "skip"


def test_norm_bounds_inside_gate():
    rng = np.random.default_rng(11)
    cfg = random_table_config(rng, 6, a_lo=0.005, a_hi=0.01)
    lat = build_lattice(6, 1.0)
    sol = price_equilibrium(evaluate_market(cfg, lat))
    _, diag = picard_run(evaluate_market(cfg, lat), tol=1e-12, max_iter=100)
    report = check_norm_bounds(sol, diag, _centred_bmo(sol))
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
    report = check_F_identity(seed=5)
    assert report.status == "pass"
    assert report.details["max_residual"] <= 1e-12


def test_counterexample_probe_smoke(monkeypatch):
    monkeypatch.setattr(verify_mod, "PROBE_MAX_ITER", 20)
    monkeypatch.setattr(verify_mod, "PROBE_STEPS", (4, 6))
    report = run_counterexample()
    assert report.status == "diagnostic"
    d = report.details
    assert d["smallness_product"] == 1.0
    assert d["one_step_gauge_norm"] == pytest.approx(1.0, abs=1e-9)
    assert d["trend"]["sign_pattern_fraction"] == [1.0, 1.0]
    assert len(d["trend"]["ratios"]) == 2


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


def _priced(num_steps, num_stocks, seed=0):
    cfg = random_table_config(np.random.default_rng(seed), num_steps, num_stocks)
    return price_equilibrium(evaluate_market(cfg, build_lattice(num_steps, 1.0)))


def _expected_utility(sol, demand):
    """Expected utility of one predictable demand through the full-tree
    integral: the per-competitor reference for the batched scorer."""
    a = sol.risk_aversion
    gain = stochastic_integral(demand, sol.prices)
    return float(np.mean(-np.exp(-a * gain.terminal) / a))


def _scored(sol, demands):
    """``_batch_utilities`` on a stack of demands, levels concatenated."""
    prices, lat = sol.prices.values, sol.lattice
    increments = [np.stack(lat.children(prices[k + 1])) - prices[k]
                  for k in range(lat.num_steps)]
    work = _score_work(len(demands) * lat.num_leaves, sol.gamma.dim)
    return _batch_utilities(sol.risk_aversion, increments, demands, work).tolist()


def _seed_optimality(sol, num_random, epsilon, seed):
    """Minimum gap and slopes of the check with the per-competitor loop: a
    predictable process and a full-tree integral per competitor, in the same
    draw order."""
    lat, n = sol.lattice, sol.gamma.dim
    rng = np.random.default_rng(seed)
    base = _expected_utility(sol, sol.gamma)
    competitors = [PredictableProcess(lat, [np.zeros((1 << k, n)) for k in range(lat.num_steps)])]
    for _ in range(num_random):
        competitors.append(PredictableProcess(
            lat, [rng.uniform(-1.0, 1.0, size=(1 << k, n)) for k in range(lat.num_steps)]))
    gaps = [base - _expected_utility(sol, c) for c in competitors]
    slopes = []
    directions = [
        [np.ones((1 << k, n)) for k in range(lat.num_steps)],
        [np.tile(sign_plus(lat.walk(k))[:, None], (1, n)) for k in range(lat.num_steps)],
        [rng.uniform(-1.0, 1.0, size=(1 << k, n)) for k in range(lat.num_steps)],
    ]
    for d in directions:
        uu, ud = (_expected_utility(sol, PredictableProcess(
            lat, [g + s * epsilon * v for g, v in zip(sol.gamma.values, d)])) for s in (1, -1))
        gaps += [base - uu, base - ud]
        slopes.append((uu - ud) / (2 * epsilon))
    return min(gaps), slopes


@pytest.mark.parametrize("num_stocks", [1, 2, 3, 8])
def test_batch_utilities_equal_the_full_tree_integral(num_stocks):
    # every row, bit for bit, whatever the order numpy sums the stocks in
    sol = _priced(8, num_stocks, seed=num_stocks)
    lat = sol.lattice
    rng = np.random.default_rng(5)
    demands = [PredictableProcess(lat, [rng.uniform(-1.0, 1.0, size=(1 << k, num_stocks))
                                        for k in range(lat.num_steps)]) for _ in range(5)]
    demands.append(sol.gamma)
    assert (_scored(sol, np.stack([np.concatenate(d.values) for d in demands]))
            == [_expected_utility(sol, d) for d in demands])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.sampled_from([1, 2, 3, 7, 8, 9]), st.integers(1, 9),
       st.floats(-3.0, 3.0), st.integers(0, 3), st.integers(0, 2 ** 31))
@example(10, 9, 9, 3.0, 2, 0)
def test_batch_utilities_equal_the_broadcast_kernel(num_steps, num_stocks, rows, log_scale,
                                                    spare, seed):
    # one child at a time is the broadcast kernel's float operations in
    # another loop order: every utility is equal, the -inf of an overflowing
    # demand too.  The stock counts cover the three stock sums and their
    # edges; spare rows leave a caller's block partly filled
    rng = np.random.default_rng(seed)
    lat = build_lattice(num_steps, 1.0)
    prices = [rng.normal(size=(lat.nodes(k), num_stocks)) for k in range(num_steps + 1)]
    increments = [np.stack(lat.children(prices[k + 1]), axis=1) - prices[k][:, None]
                  for k in range(num_steps)]
    demands = 10.0 ** log_scale * rng.uniform(
        -1.0, 1.0, size=(rows, sum(map(len, increments)), num_stocks))
    a = float(rng.uniform(0.1, 5.0))
    work = _score_work((rows + spare) * lat.num_leaves, num_stocks)
    # the kernel reads each child's increments as one contiguous slice
    by_child = [np.stack((dx[:, 0], dx[:, 1])) for dx in increments]
    with np.errstate(over="ignore"):
        want = scoring_reference._batch_utilities(a, increments, demands)
        for got in (_batch_utilities(a, by_child, demands,
                                     _score_work(rows * lat.num_leaves, num_stocks)),
                    _batch_utilities(a, by_child, demands, work)):
            assert got.tobytes() == want.tobytes()
    if log_scale == 3.0:  # the explicit example: utilities overflow
        assert -np.inf in want


@pytest.mark.parametrize("num_stocks", [1, 3])
def test_batch_utilities_keep_the_zero_of_an_underflowing_row(num_stocks):
    # every increment is +1, so a demand of 1000 gains 1000 N at every leaf
    # and every term underflows: the mean of the negated zeros is +0
    lat = build_lattice(4, 1.0)
    prices = [np.full((lat.nodes(k), num_stocks), float(k)) for k in range(5)]
    increments = [np.stack(lat.children(prices[k + 1]), axis=1) - prices[k][:, None]
                  for k in range(4)]
    by_child = [np.stack((dx[:, 0], dx[:, 1])) for dx in increments]
    demands = np.full((2, lat.num_leaves - 1, num_stocks), 1e3)
    demands[1] = 1e-3  # a row of finite terms beside it
    want = scoring_reference._batch_utilities(1.0, increments, demands)
    assert want[0] == 0.0 and want[1] < 0.0
    work = _score_work(2 * lat.num_leaves, num_stocks)
    assert _batch_utilities(1.0, by_child, demands, work).tobytes() == want.tobytes()


@pytest.mark.parametrize("num_stocks", [1, 2, 3, 8])
@pytest.mark.parametrize("num_random", [0, 1, "blocks"])
def test_batched_optimality_equals_the_per_competitor_loop(monkeypatch, num_stocks,
                                                          num_random):
    sol = _priced(10, num_stocks, seed=num_stocks)
    if num_random == "blocks":  # four whole blocks and a part of one
        num_random = 4 * _block(10) + 3
    # two workers whatever the machine, so each scores several blocks
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    report = check_optimality(sol, num_random=num_random, seed=11)
    # the slopes' random direction is drawn after every competitor, so equal
    # slopes also pin the stream position
    worst, slopes = _seed_optimality(sol, num_random, 1e-4, 11)
    assert report.details["competitors"] == num_random + 1 + 6
    assert report.details["min_utility_gap"] == worst
    assert report.details["perturbation_slopes"] == slopes


def test_optimality_stays_batched(monkeypatch):
    # every demand, the base and its perturbations too, is scored by one
    # recurrence per block: no full-tree integral anywhere in the package
    import sys
    sol = _priced(10, 1)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return stochastic_integral(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("impact_bsde") and hasattr(module, "stochastic_integral"):
            monkeypatch.setattr(module, "stochastic_integral", counting)
    check_optimality(sol, num_random=1000)
    assert calls == []


def test_optimality_memory_does_not_grow_with_competitors():
    import tracemalloc
    sol = _priced(12, 1)
    peaks = {}
    for num_random in (50, 400):
        tracemalloc.start()
        try:
            check_optimality(sol, num_random=num_random)
            peaks[num_random] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 1.5 * peaks[50]


def _block(depth):
    """Competitors per scored block at lattice depth ``depth``."""
    return max(1, _GAIN_BLOCK_BYTES // (8 << depth))


@pytest.mark.parametrize("num_stocks", [1, 2, 3, 8])
@pytest.mark.parametrize("count", [
    pytest.param(lambda block: 0, id="0"),
    pytest.param(lambda block: 1, id="1"),
    pytest.param(lambda block: block - 1, id="block-1"),
    pytest.param(lambda block: block, id="block"),
    pytest.param(lambda block: 2 * block + 3, id="2block+3"),
    pytest.param(lambda block: 5 * block, id="5block")])
def test_pooled_optimality_equals_one_worker(monkeypatch, num_stocks, count):
    # the block pool joins each block's scores in competitor order and
    # leaves the stream where one thread drawing it in order would: every
    # figure of the report is the one-worker report's, bit for bit
    for depth in range(1, 11):
        sol = _priced(depth, num_stocks, seed=depth)
        num_random = count(_block(depth))
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: cpus)
            reports.append(check_optimality(sol, num_random=num_random, seed=depth).to_dict())
        assert repr(reports[0]) == repr(reports[1])
        assert reports[0]["details"]["competitors"] == num_random + 7


def _worker_scores_first(monkeypatch, depth, fail=False):
    """Two workers, and the calling thread's first competitor block waits
    (up to 5 s) until the worker thread has begun a block of its own, which
    raises if ``fail``.  Returns the event the worker sets."""
    started = threading.Event()
    scoring = verify_mod._batch_utilities

    def scheduled(a, increments, demands, work):
        if threading.current_thread() is not threading.main_thread():
            started.set()
            if fail:
                raise ArithmeticError("worker block")
        elif len(demands) == _block(depth):
            started.wait(5.0)
        return scoring(a, increments, demands, work)

    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify_mod, "_batch_utilities", scheduled)
    return started


@pytest.mark.parametrize("cpus", [1, 2])
def test_optimality_draws_each_block_at_its_stream_position(monkeypatch, cpus):
    # the random competitors rarely set the minimum gap, so their draws are
    # pinned here: the blocks scored, on either thread, are those of one
    # uniform draw of every competitor from the seeded stream, bit for bit
    depth, n, seed = 6, 2, 5
    sol = _priced(depth, n)
    block, num_random = _block(depth), 4 * _block(depth) + 3
    scored = []
    scoring = verify_mod._batch_utilities

    def recording(a, increments, demands, work):
        scored.append(demands.tobytes())
        return scoring(a, increments, demands, work)

    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(verify_mod, "_batch_utilities", recording)
    check_optimality(sol, num_random=num_random, seed=seed)
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(num_random, (1 << depth) - 1, n))
    want = [draws[lo:lo + block].tobytes() for lo in range(0, num_random, block)]
    # the zero competitor first and the demand with its perturbations last
    assert sorted(scored[1:-1]) == sorted(want)


def test_optimality_worker_error_reaches_the_caller(monkeypatch):
    sol = _priced(10, 1)
    started = _worker_scores_first(monkeypatch, 10, fail=True)
    with pytest.raises(ArithmeticError, match="worker block"):
        check_optimality(sol, num_random=4 * _block(10))
    assert started.is_set()


def test_optimality_runs_no_public_function_off_the_main_thread(monkeypatch):
    # perfbench's span tracer wraps every public function of the package
    # under every name bound to it and keeps one span stack: the worker
    # thread must call none of them
    sol = _priced(10, 2)
    want = repr(check_optimality(sol, num_random=6 * _block(10)).to_dict())
    offenders, guarded = [], set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("impact_bsde"):
            continue
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("impact_bsde")):
                continue

            def guard(*args, _fn=obj, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    offenders.append(_fn.__qualname__)
                return _fn(*args, **kwargs)
            guarded.add(obj.__qualname__)
            monkeypatch.setattr(module, attr, guard)
    assert "stock_sum" in guarded
    started = _worker_scores_first(monkeypatch, 10)
    report = check_optimality(sol, num_random=6 * _block(10))
    assert started.is_set() and offenders == []
    assert repr(report.to_dict()) == want


def test_overflowing_base_utility_fails_optimality(eligible):
    # an aversion this large overflows the equilibrium demand's own utility:
    # the check must fail, quietly, not pass on an infinite gap
    _, _, sol = eligible
    hopeless = replace(sol, risk_aversion=1e6)
    with np.errstate(over="ignore"):
        assert _expected_utility(hopeless, hopeless.gamma) == -math.inf
    report = check_optimality(hopeless, num_random=20)
    assert report.status == "fail"
    gap = report.details["min_utility_gap"]
    assert math.isnan(gap) or gap == -math.inf


def test_overflowing_blocks_stay_quiet_on_the_worker(monkeypatch, eligible):
    # the worker thread scores under the check's error state: the overflows
    # of a multi-block hopeless instance raise no RuntimeWarning there
    _, _, sol = eligible
    hopeless = replace(sol, risk_aversion=1e6)
    num_random = 3 * _block(7) + 1
    started = _worker_scores_first(monkeypatch, 7)
    report = check_optimality(hopeless, num_random=num_random)
    assert started.is_set() and report.status == "fail"
    monkeypatch.undo()
    monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: 1)
    assert repr(check_optimality(hopeless, num_random=num_random).to_dict()) \
        == repr(report.to_dict())
