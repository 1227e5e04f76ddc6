import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_bsde import (
    AdaptedProcess,
    PredictableProcess,
    StoppingTime,
    bmo_norm,
    bmo_norm_rv,
    build_lattice,
    conditional_expectation,
    h_bmo_norm,
    h_norm,
    measure_kappa,
    orlicz_h,
    stochastic_integral,
    sup_norm,
)
import impact_bsde.norms as norms_mod
from impact_bsde.norms import NormReport

from helpers import brownian, oracle_conditional_moment, stacked_integrand
from norms_reference import _node_moment_sweep as full_sweep
from norms_reference import h_norm_reference, measure_kappa_reference


def doob(x, lat):
    return conditional_expectation(np.asarray(x, dtype=float), lat)


def test_bmo_one_step_unit():
    lat = build_lattice(1, 1.0)
    rep = bmo_norm(doob([1.0, -1.0], lat))
    assert rep.value == pytest.approx(1.0)
    assert rep.achieving_node == (0, 0)


@pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
def test_bmo_of_walk_is_sqrt_horizon(horizon):
    lat = build_lattice(6, horizon)
    rep = bmo_norm(brownian(lat))
    assert rep.value == pytest.approx(np.sqrt(horizon), abs=1e-12)
    assert rep.achieving_node == (0, 0)


def test_bmo_constant_is_zero():
    lat = build_lattice(4, 1.0)
    rep = bmo_norm(doob(np.full(16, 2.5), lat))
    assert rep.value == 0.0


def test_bmo_refuses_non_martingale():
    lat = build_lattice(2, 1.0)
    drift = AdaptedProcess(lat, [np.full(1 << k, float(k)) for k in range(3)])
    with pytest.raises(ValueError, match="not a martingale"):
        bmo_norm(drift)


def test_bmo_matches_leaf_oracle_on_random_inputs():
    rng = np.random.default_rng(23)
    lat = build_lattice(6, 1.3)
    x = rng.uniform(-2, 2, size=lat.num_leaves)
    m = doob(x, lat)
    best = 0.0
    for k in range(7):
        for p in range(1 << k):
            best = max(best, oracle_conditional_moment(
                np.asarray(x)[:, None], m.values[k][p], k, p, 6, power=2.0))
    assert bmo_norm(m).value == pytest.approx(np.sqrt(best), abs=1e-12)


def test_bmo_p_one_step():
    # kappa's first-moment norm, E_node|M_N - M_node|, is 1 at the root
    lat = build_lattice(1, 1.0)
    two, one = norms_mod._kappa_block(lat, np.array([[1.0, -1.0]]))
    assert one[0] == pytest.approx(1.0)
    assert two[0] == pytest.approx(1.0)


def test_bmo_one_below_bmo_two():
    # the first conditional moment is at most the quadratic one, so the
    # kappa ratio is at least 1
    rng = np.random.default_rng(37)
    lat = build_lattice(7, 1.0)
    rows = rng.uniform(-1, 1, size=(10, 128))
    _, one = norms_mod._kappa_block(lat, rows)
    for row, first in zip(rows, one):
        assert first <= bmo_norm(doob(row, lat)).value + 1e-12


def test_bmo_rv_sign_one_step():
    lat = build_lattice(1, 1.0)
    rep = bmo_norm_rv(np.array([1.0, -1.0]), lat)
    assert rep.value == pytest.approx(1.0)
    assert rep.extras["midrange_bound"] == pytest.approx(1.0)


def test_bmo_rv_zero():
    lat = build_lattice(3, 1.0)
    assert bmo_norm_rv(np.zeros(8), lat).value == 0.0


def test_bmo_rv_terminal_walk():
    lat = build_lattice(4, 1.0)
    rep = bmo_norm_rv(brownian(lat).terminal, lat)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    # leaves reach +-2 at four half-unit steps, so the midrange bound is 2
    assert rep.extras["midrange_bound"] == pytest.approx(2.0)
    assert rep.value <= rep.extras["midrange_bound"] + 1e-12


def test_bmo_rv_rejects_uncentered():
    lat = build_lattice(2, 1.0)
    with pytest.raises(ValueError, match="not centered"):
        bmo_norm_rv(np.array([1.0, 1.0, 0.0, 0.0]), lat)


def test_bmo_rv_centring_check_is_relative_to_the_scale():
    # centring a large variable leaves a residue in its mean far above an
    # absolute 1e-12, but rounding-sized against its entries
    lat = build_lattice(6, 1.0)
    sign = np.where(lat.walk(6) >= 0, 1.0, -1.0)
    unit = bmo_norm_rv(sign - sign.mean(), lat).value
    for scale in (1e50, 3e100):
        big = scale * sign
        big = big - big.mean()
        assert abs(big.mean()) > 1e30
        rep = bmo_norm_rv(big, lat)
        assert rep.value == pytest.approx(scale * unit, rel=1e-12)
        # a variable that is off-centre by more than rounding is still refused
        with pytest.raises(ValueError, match="not centered"):
            bmo_norm_rv(big + 1e-9 * scale, lat)



def test_bmo_rv_midrange_guard_is_relative_to_the_bound(monkeypatch):
    # two stocks of the terminal sign at 7.77e10: the norm and its midrange
    # bound agree to the last bits, 2e-5 apart, which an absolute 1e-10 refused
    lat = build_lattice(5, 1.0)
    sign = np.where(lat.walk(5) >= 0, 1.0, -1.0)
    rows = np.tile((7.77e10 * sign)[:, None], (1, 2))
    rep = bmo_norm_rv(rows - rows.mean(axis=0), lat)
    bound = rep.extras["midrange_bound"]
    assert bound > 1e11 and rep.value == pytest.approx(bound, rel=1e-15)
    # the norm of 1e154 times the sign, whose squares overflowed, is taken of
    # it scaled by a power of two: 2**512 times the norm of the sign scaled by
    # 1e154 / 2**512; a norm that is not finite, of an infinite entry, is
    # left to the caller, which reports it
    huge = 1e154 * sign
    unit = np.ldexp(huge, -512)
    assert bmo_norm_rv(huge - huge.mean(), lat).value == np.ldexp(
        bmo_norm_rv(unit - unit.mean(), lat).value, 512)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(bmo_norm_rv(np.where(sign > 0, np.inf, -1.0), lat).value)
    # the guard itself: 1e-10 of the bound above one, 1e-10 absolute below
    for scale in (1e11, 1.0, 0.25):
        x = scale * sign
        x = x - x.mean()
        bound = bmo_norm_rv(x, lat).extras["midrange_bound"]
        for excess, raises in ((0.5e-10, False), (2e-10, True)):
            value = bound + excess * max(1.0, bound)
            monkeypatch.setattr(norms_mod, "bmo_norm",
                                lambda m, v=value: NormReport(v, "bmo", (0, 0)))
            if raises:
                with pytest.raises(RuntimeError, match="fell below the computed norm"):
                    bmo_norm_rv(x, lat)
            else:
                assert bmo_norm_rv(x, lat).value == value
            monkeypatch.undo()

def test_h_norm_unit_symmetric():
    lat = build_lattice(1, 1.0)
    rep = h_norm(np.array([1.0, -1.0]), lat)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.iterations > 0


@pytest.mark.parametrize("c", [1e-200, 1e-12, 0.25, 1.0, 2.5, 1e6, 1e200])
def test_h_norm_scaling(c):
    # the gauge of [c, -c] is exactly c, at every scale: no tolerance is
    # absolute, and no square leaves the float range
    lat = build_lattice(1, 1.0)
    rep = h_norm(np.array([c, -c]), lat)
    assert rep.value == pytest.approx(c, rel=1e-11, abs=0.0)


def test_orlicz_h_values():
    assert orlicz_h(0.0) == 0.0
    assert orlicz_h(1.0) == pytest.approx(1.0)
    assert orlicz_h(2.0) == pytest.approx(np.exp(2.0) + 1.0)


def test_h_norm_constant_is_zero():
    lat = build_lattice(3, 1.0)
    assert h_norm(np.zeros(8), lat).value == 0.0


def test_h_norm_dominates_bmo_over_sqrt2():
    rng = np.random.default_rng(41)
    lat = build_lattice(6, 1.0)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=64)
        x -= x.mean()
        rep = h_norm(x, lat)
        assert rep.extras["bmo_norm"] / np.sqrt(2.0) <= rep.value + 1e-9
        assert rep.extras["bmo_lower_bound_holds"]


def test_h_bmo_of_unit_integrand():
    lat = build_lattice(5, 2.0)
    one = PredictableProcess(lat, [np.ones(1 << k) for k in range(5)])
    rep = h_bmo_norm(one)
    assert rep.value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rep.achieving_node == (0, 0)


def test_h_bmo_of_zero():
    lat = build_lattice(4, 1.0)
    zero = PredictableProcess(lat, [np.zeros(1 << k) for k in range(4)])
    assert h_bmo_norm(zero).value == 0.0


def test_h_bmo_matches_bmo_of_integral():
    rng = np.random.default_rng(43)
    lat = build_lattice(6, 1.0)
    for _ in range(5):
        zeta = PredictableProcess(lat, [rng.uniform(-1, 1, size=1 << k) for k in range(6)])
        direct = h_bmo_norm(zeta).value
        via_integral = bmo_norm(stochastic_integral(zeta, brownian(lat))).value
        assert direct == pytest.approx(via_integral, abs=1e-12)


@pytest.mark.parametrize("num_stocks", [1, 3])
@pytest.mark.parametrize("shift", [600, -600])
def test_quadratic_norms_scale_by_powers_of_two_exactly(num_stocks, shift):
    # the quadratic norms square their data: at 2**600 every square used to
    # overflow to inf, at 2**-600 underflow to 0.  Taken of the data scaled
    # by a power of two, each is 2**shift times the norm of the data, bit
    # for bit, at the same node
    rng = np.random.default_rng(53 + num_stocks)
    lat = build_lattice(6, 1.0)
    terminal = rng.uniform(-1, 1, size=(64, num_stocks))
    terminal -= terminal.mean(axis=0)
    zeta = PredictableProcess(lat, [rng.uniform(-1, 1, size=(1 << k, num_stocks))
                                    for k in range(6)])
    martingale = doob(terminal, lat)
    pairs = [(bmo_norm(martingale),
              bmo_norm(AdaptedProcess(lat, [np.ldexp(v, shift) for v in martingale.values]))),
             (bmo_norm_rv(terminal, lat), bmo_norm_rv(np.ldexp(terminal, shift), lat)),
             (h_bmo_norm(zeta), h_bmo_norm(zeta.scaled(2.0 ** shift)))]
    for unit, scaled in pairs:
        assert 0.0 < scaled.value < np.inf
        assert scaled.value == np.ldexp(unit.value, shift)
        assert scaled.achieving_node == unit.achieving_node


def test_sup_norm_variants():
    lat = build_lattice(3, 1.0)
    const = PredictableProcess(lat, [np.full(1 << k, -1.5) for k in range(3)])
    assert sup_norm(const).value == 1.5
    signs = PredictableProcess(
        lat, [np.where(lat.walk(k) >= 0, -1.0, 1.0) for k in range(3)])
    assert sup_norm(signs).value == 1.0
    clipped = np.clip(brownian(build_lattice(4, 4.0)).terminal, -2.5, 2.5)
    assert sup_norm(clipped).value == 2.5


def test_norm_absolute_homogeneity():
    rng = np.random.default_rng(47)
    lat = build_lattice(5, 1.0)
    x = rng.uniform(-1, 1, size=32)
    x -= x.mean()
    for c in (0.1, 3.0, -2.0):
        assert bmo_norm_rv(c * x, lat).value == pytest.approx(
            abs(c) * bmo_norm_rv(x, lat).value, rel=1e-12)
        assert h_norm(c * x, lat).value == pytest.approx(
            abs(c) * h_norm(x, lat).value, abs=1e-8)
    zeta = PredictableProcess(lat, [rng.uniform(-1, 1, size=1 << k) for k in range(5)])
    assert h_bmo_norm(zeta.scaled(-3.0)).value == pytest.approx(
        3.0 * h_bmo_norm(zeta).value, rel=1e-12)


def test_stopping_time_collapse():
    # no stopping rule beats the best node, and the hitting rule of the best
    # node attains it
    rng = np.random.default_rng(53)
    lat = build_lattice(6, 1.0)
    x = rng.uniform(-2, 2, size=64)
    m = doob(x, lat)
    report = bmo_norm(m)
    target = report.value ** 2

    def stopped_second_moment(tau: StoppingTime) -> float:
        worst = 0.0
        for leaf in range(lat.num_leaves):
            s = int(tau.leaf_steps[leaf])
            node = leaf >> (lat.num_steps - s) if s < lat.num_steps else leaf
            worst = max(worst, oracle_conditional_moment(
                np.asarray(x)[:, None], m.values[s][node], s, node, 6, power=2.0))
        return worst

    for _ in range(50):
        decisions = [rng.uniform(size=1 << k) < 0.25 for k in range(7)]
        tau = StoppingTime.from_node_decisions(lat, decisions)
        assert stopped_second_moment(tau) <= target + 1e-12

    k_star, p_star = report.achieving_node
    decisions = [np.zeros(1 << k, dtype=bool) for k in range(7)]
    decisions[k_star][p_star] = True
    hitting = StoppingTime.from_node_decisions(lat, decisions)
    assert stopped_second_moment(hitting) == pytest.approx(target, rel=1e-12)


def test_vector_martingale_norms():
    rng = np.random.default_rng(59)
    lat = build_lattice(5, 1.0)
    x = rng.uniform(-1, 1, size=(32, 3))
    x -= x.mean(axis=0)
    rep = bmo_norm_rv(x, lat)
    assert rep.value > 0
    pair = stacked_integrand([
        PredictableProcess(lat, [rng.uniform(-1, 1, size=1 << k) for k in range(5)]),
        PredictableProcess(lat, [rng.uniform(-1, 1, size=(1 << k, 2)) for k in range(5)]),
    ])
    assert pair.dim == 3
    assert h_bmo_norm(pair).value > 0


def test_measure_kappa_at_least_one(monkeypatch):
    lat = build_lattice(8, 1.0)
    monkeypatch.setattr(norms_mod, "KAPPA_RANDOM", 8)
    monkeypatch.setattr(norms_mod, "KAPPA_SEED", 1)
    kappa = measure_kappa(lat)
    assert kappa >= 1.0
    assert kappa < 10.0


def test_nan_node_is_reported_by_the_norms():
    lat = build_lattice(4, 1.0)
    leaves = brownian(lat).terminal.copy()
    leaves[6] = np.nan
    assert np.isnan(bmo_norm(doob(leaves, lat)).value)
    zeta = [np.ones(1 << k) for k in range(4)]
    zeta[2][1] = np.nan
    zeta = PredictableProcess(lat, zeta)
    assert np.isnan(h_bmo_norm(zeta).value)
    rep = sup_norm(zeta)
    assert np.isnan(rep.value) and rep.achieving_node == (2, 1)


def test_integrand_norm_reports_the_shallowest_tie():
    # an all-zero load ties at every node: the first in (step, path) order,
    # the root, is reported
    lat = build_lattice(4, 1.0)
    zero = PredictableProcess(lat, [np.zeros(1 << k) for k in range(4)])
    assert h_bmo_norm(zero).achieving_node == (0, 0)
    assert bmo_norm(doob(np.zeros(16), lat)).achieving_node == (0, 0)


# --- the gauge norm as its criterion's root and the stacked kappa, against
# verbatim copies of the full-sweep criterion and bisection and of the
# per-terminal loop -----------------------------------------------------------

def _assert_full_sweep_root(x, lat=None):
    """``h_norm`` reports the first scale the full-sweep criterion accepts,
    to 1e-11 relative, with its worst node, and agrees with the reference
    bisection run to 1e-12."""
    rep = h_norm(x, lat)
    m = x if isinstance(x, AdaptedProcess) else doob(x, lat)

    def criterion(lam):
        return full_sweep(m, lambda d: orlicz_h(d / lam))

    at, node = criterion(rep.value)
    assert at <= 1.0
    assert criterion(rep.value * (1.0 - 1e-11))[0] > 1.0
    assert rep.achieving_node == node
    want = h_norm_reference(x, lat, bisection_tol=1e-12).value
    assert abs(rep.value - want) <= 1e-12 + 1e-11 * rep.value


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=3),
       st.floats(min_value=-4.0, max_value=3.0),
       st.sampled_from(["uniform", "cubed", "spike"]), st.integers(0, 2 ** 31))
def test_h_norm_is_the_criterion_root(depth, stocks, log_scale, shape, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    x = rng.uniform(-1.0, 1.0, size=(1 << depth, stocks))
    if shape == "cubed":
        x = x ** 3
    elif shape == "spike":
        x[rng.integers(len(x))] += 8.0
    x -= x.mean(axis=0)
    # entries within the scale keep the norm below 2^13, where doubles are
    # spaced finer than 1e-12 and the reference bisection terminates
    x *= scale / np.max(np.abs(x))
    if stocks == 1 and seed % 2:
        x = x[:, 0]
    _assert_full_sweep_root(x, build_lattice(depth, 1.0))


def _report_dividends(lat):
    """The four dividend families of the benchmark's report workload, centered
    as the CLI centers them before taking the gauge norm."""
    bt = lat.walk(lat.num_steps) * lat.sqrt_dt
    families = [0.2 * np.where(bt >= 0, 1.0, -1.0),
                np.clip(1.2 * bt, -0.3, 0.3),
                (bt > 0.05).astype(float) - 0.5,
                0.7 * np.where(bt >= 0, 1.0, -1.0)]
    return [f - f.mean() for f in families]


@pytest.mark.parametrize("family", range(4))
def test_h_norm_is_the_root_on_the_report_dividends(family):
    lat = build_lattice(14, 1.0)
    _assert_full_sweep_root(_report_dividends(lat)[family], lat)


def test_h_norm_is_the_root_on_a_vector_martingale():
    rng = np.random.default_rng(61)
    lat = build_lattice(9, 2.0)
    _assert_full_sweep_root(doob(rng.uniform(-1.0, 1.0, size=(512, 2)), lat))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_h_norm_of_non_finite_input_is_nan_without_warnings(bad):
    lat = build_lattice(3, 1.0)
    x = np.array([1.0, -1.0, 0.5, -0.5, 0.0, 0.0, 0.25, -0.25])
    x[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (x, np.stack([x, -x], axis=1)):
            rep = h_norm(arg, lat)
            assert np.isnan(rep.value)
            assert rep.iterations == 0 and rep.achieving_node == (0, 0)
        interior = doob(np.zeros(8), lat)
        interior.values[2][1] = bad
        assert np.isnan(h_norm(interior).value)
    if bad > 0:
        x[2] = -np.inf  # the [inf, -inf, ...] terminal: inf - inf in the averaging
        assert np.isnan(h_norm(x, lat).value)


@pytest.mark.parametrize("depth", range(1, 15))
def test_measure_kappa_matches_the_per_terminal_loop(monkeypatch, depth):
    lat = build_lattice(depth, 1.0)
    assert measure_kappa(lat) == measure_kappa_reference(lat)
    if depth in (3, 9, 13):
        for name, value in (("KAPPA_RANDOM", 13), ("KAPPA_SEED", 7), ("KAPPA_MAX_STEPS", 9)):
            monkeypatch.setattr(norms_mod, name, value)
        kwargs = {"num_random": 13, "seed": 7, "max_steps": 9}
        assert measure_kappa(lat) == measure_kappa_reference(lat, **kwargs)
        monkeypatch.undo()
        monkeypatch.setattr(norms_mod, "KAPPA_RANDOM", 0)
        assert measure_kappa(lat) == measure_kappa_reference(lat, num_random=0)


@pytest.mark.parametrize("depth", [1, 3, 8, 12, 14])
def test_measure_kappa_is_finite_at_huge_horizons(depth):
    # the walk's squares overflowed: kappa read inf from depth 3 at a horizon
    # of 1.7e308; a horizon 4**300 times smaller scales every walk row by
    # exactly 2**-300, which the per-row scaling takes out again
    kappa = measure_kappa(build_lattice(depth, 1.7e308))
    assert np.isfinite(kappa)
    assert kappa == measure_kappa(build_lattice(depth, 1.7e308 / 4.0 ** 300))


@pytest.mark.parametrize("horizon", [0.37, 1e-300, 1e300])
def test_measure_kappa_matches_the_per_terminal_loop_at_any_horizon(horizon):
    for depth in (1, 3, 8):
        lat = build_lattice(depth, horizon)
        assert measure_kappa(lat) == measure_kappa_reference(lat)


def _traced_peak(f) -> int:
    f()  # first-call allocations (imports, caches) are not the function's
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h_norm_memory_stays_at_the_full_sweep_level():
    lat = build_lattice(14, 1.0)
    for x in _report_dividends(lat)[:3]:
        assert (_traced_peak(lambda: h_norm(x, lat))
                <= 1.25 * _traced_peak(lambda: h_norm_reference(x, lat)))


def test_measure_kappa_memory_stays_at_the_per_terminal_level():
    lat = build_lattice(12, 1.0)
    assert (_traced_peak(lambda: measure_kappa(lat))
            <= 1.5 * _traced_peak(lambda: measure_kappa_reference(lat)))
