import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_bsde import (
    AdaptedProcess,
    ExponentialGuardError,
    LatticeSizeError,
    MartingaleError,
    PredictableProcess,
    build_lattice,
    conditional_expectation,
    is_martingale,
    martingale_defect,
    martingale_representation,
    node_max,
    process_gap,
    stochastic_exponential,
    stochastic_integral,
)
from impact_bsde.lattice import MAX_STEPS_ENV, reflect_adapted

from helpers import oracle_conditional_mean


def test_single_step_lattice():
    lat = build_lattice(1, 1.0)
    assert lat.num_leaves == 2
    np.testing.assert_allclose(lat.brownian().terminal, [1.0, -1.0])


def test_two_step_lattice_terminal_values():
    lat = build_lattice(2, 1.0)
    assert lat.num_leaves == 4
    s = np.sqrt(0.5)
    np.testing.assert_allclose(lat.brownian().terminal, [2 * s, 0.0, 0.0, -2 * s])


def test_ten_step_geometry():
    lat = build_lattice(10, 2.0)
    assert lat.num_leaves == 1024
    assert lat.dt == pytest.approx(0.2)
    assert lat.sqrt_dt == pytest.approx(np.sqrt(0.2))


def test_cap_exceeded_names_memory():
    with pytest.raises(LatticeSizeError, match="2\\*\\*30"):
        build_lattice(30, 1.0)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv(MAX_STEPS_ENV, "4")
    with pytest.raises(LatticeSizeError):
        build_lattice(5, 1.0)
    assert build_lattice(4, 1.0).num_leaves == 16
    monkeypatch.setenv(MAX_STEPS_ENV, "not-an-int")
    with pytest.raises(LatticeSizeError):
        build_lattice(2, 1.0)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_lattice(0, 1.0)
    with pytest.raises(ValueError):
        build_lattice(3, -1.0)


def test_brownian_is_martingale():
    lat = build_lattice(6, 1.5)
    assert is_martingale(lat.brownian())


def test_conditional_expectation_of_walk_is_zero_at_root():
    lat = build_lattice(1, 1.0)
    ce = conditional_expectation(lat.brownian())
    assert ce.values[0][0] == pytest.approx(0.0, abs=1e-15)


def test_conditional_expectation_of_square_is_variance():
    lat = build_lattice(1, 1.0)
    ce = conditional_expectation(lat.brownian().terminal ** 2, lat)
    assert ce.values[0][0] == pytest.approx(1.0)


def test_conditional_expectation_sign_three_steps_vs_oracle():
    lat = build_lattice(3, 1.0)
    x = np.where(lat.brownian().terminal >= 0, 1.0, -1.0)
    ce = conditional_expectation(x, lat)
    assert ce.values[0][0] == pytest.approx(0.0)
    # node (1, 0) has walk value +sqrt(dt): three of four descendants positive
    assert ce.values[1][0] == pytest.approx(0.5)
    for k in range(4):
        for p in range(1 << k):
            assert ce.values[k][p] == pytest.approx(
                float(oracle_conditional_mean(x, k, p, 3)), abs=1e-14)


def test_tower_property_exact():
    rng = np.random.default_rng(11)
    lat = build_lattice(7, 2.0)
    x = rng.uniform(-3, 3, size=lat.num_leaves)
    ce = conditional_expectation(x, lat)
    again = conditional_expectation(ce.values[4], build_lattice(4, 2.0))
    for k in range(5):
        np.testing.assert_allclose(again.values[k], ce.values[k], rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
def test_representation_completeness(num_steps, seed):
    # the discrete predictable-representation property: starting value plus
    # integral of the representation against the walk rebuilds any terminal
    rng = np.random.default_rng(seed)
    lat = build_lattice(num_steps, 1.7)
    x = rng.uniform(-5, 5, size=lat.num_leaves)
    mart = conditional_expectation(x, lat)
    zeta = martingale_representation(mart)
    rebuilt = stochastic_integral(zeta, lat.brownian())
    np.testing.assert_allclose(mart.values[0][0] + rebuilt.terminal, x,
                               rtol=0, atol=1e-12)


def test_representation_of_walk_is_one():
    lat = build_lattice(5, 1.0)
    zeta = martingale_representation(lat.brownian())
    for v in zeta.values:
        np.testing.assert_allclose(v, 1.0, rtol=0, atol=1e-13)


def test_representation_of_compensated_square_one_step():
    lat = build_lattice(1, 1.0)
    mart = conditional_expectation(lat.brownian().terminal ** 2, lat)
    np.testing.assert_allclose(mart.values[1], [1.0, 1.0])
    zeta = martingale_representation(mart)
    assert zeta.values[0][0] == pytest.approx(0.0, abs=1e-15)


def test_representation_of_constant_is_zero():
    lat = build_lattice(4, 1.0)
    const = AdaptedProcess(lat, [np.full(1 << k, 3.25) for k in range(5)])
    zeta = martingale_representation(const)
    for v in zeta.values:
        np.testing.assert_array_equal(v, 0.0)


def test_representation_refuses_non_martingale():
    lat = build_lattice(3, 1.0)
    drift = AdaptedProcess(lat, [np.full(1 << k, float(k)) for k in range(4)])
    with pytest.raises(MartingaleError, match="defect"):
        martingale_representation(drift)


def test_integral_of_zero_is_zero():
    lat = build_lattice(4, 1.0)
    zero = PredictableProcess(lat, [np.zeros(1 << k) for k in range(4)])
    out = stochastic_integral(zero, lat.brownian())
    for v in out.values:
        np.testing.assert_array_equal(v, 0.0)


def test_integral_of_one_against_walk_is_walk():
    lat = build_lattice(5, 2.0)
    one = PredictableProcess(lat, [np.ones(1 << k) for k in range(5)])
    out = stochastic_integral(one, lat.brownian())
    for got, want in zip(out.values, lat.brownian().values):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_integral_walk_against_walk_two_steps_brute_force():
    # predictable shift: the step value is the walk at the step start, so the
    # four paths give +-dt products of the two increments
    lat = build_lattice(2, 1.0)
    b = lat.brownian()
    zeta = PredictableProcess(lat, b.values[:2])
    out = stochastic_integral(zeta, b)
    np.testing.assert_allclose(out.terminal, [0.5, -0.5, -0.5, 0.5], atol=1e-15)


def test_integral_bilinearity():
    rng = np.random.default_rng(5)
    lat = build_lattice(5, 1.0)
    za = PredictableProcess(lat, [rng.uniform(-1, 1, size=1 << k) for k in range(5)])
    zb = PredictableProcess(lat, [rng.uniform(-1, 1, size=1 << k) for k in range(5)])
    x = conditional_expectation(rng.uniform(-1, 1, size=32), lat)
    combo = PredictableProcess(lat, [2.0 * a + 3.0 * b for a, b in zip(za.values, zb.values)])
    lhs = stochastic_integral(combo, x)
    rhs_a = stochastic_integral(za, x)
    rhs_b = stochastic_integral(zb, x)
    for lv, av, bv in zip(lhs.values, rhs_a.values, rhs_b.values):
        np.testing.assert_allclose(lv, 2.0 * av + 3.0 * bv, rtol=0, atol=1e-13)


def test_integral_inner_product_mode():
    rng = np.random.default_rng(6)
    lat = build_lattice(4, 1.0)
    x = conditional_expectation(rng.uniform(-1, 1, size=(16, 2)), lat)
    zeta = PredictableProcess(lat, [rng.uniform(-1, 1, size=(1 << k, 2)) for k in range(4)])
    out = stochastic_integral(zeta, x)
    assert out.dim is None
    # componentwise integrals against each coordinate sum to the joint one
    parts = []
    for i in range(2):
        xi = AdaptedProcess(lat, [v[:, i] for v in x.values])
        zi = PredictableProcess(lat, [v[:, i] for v in zeta.values])
        parts.append(stochastic_integral(zi, xi))
    for v, p0, p1 in zip(out.values, parts[0].values, parts[1].values):
        np.testing.assert_allclose(v, p0 + p1, rtol=0, atol=1e-14)


def test_integral_dimension_mismatch():
    lat = build_lattice(3, 1.0)
    x = conditional_expectation(np.ones((8, 2)), lat)
    zeta = PredictableProcess(lat, [np.ones((1 << k, 3)) for k in range(3)])
    with pytest.raises(ValueError, match="dimension"):
        stochastic_integral(zeta, x)


def test_exponential_of_zero_is_one():
    lat = build_lattice(4, 1.0)
    zero = PredictableProcess(lat, [np.zeros(1 << k) for k in range(4)])
    z = stochastic_exponential(zero)
    for v in z.values:
        np.testing.assert_array_equal(v, 1.0)


def test_exponential_constant_closed_form():
    lat = build_lattice(3, 1.0)
    c = 0.8
    const = PredictableProcess(lat, [np.full(1 << k, c) for k in range(3)])
    z = stochastic_exponential(const)
    s = lat.sqrt_dt
    ups = [bin(p).count("1") for p in range(8)]  # number of down moves per path
    want = [(1 + c * s) ** (3 - d) * (1 - c * s) ** d for d in ups]
    np.testing.assert_allclose(z.terminal, want, rtol=1e-14)


def test_exponential_is_exact_martingale_with_unit_mean():
    rng = np.random.default_rng(9)
    lat = build_lattice(6, 1.0)
    zeta = PredictableProcess(lat, [rng.uniform(-1.5, 1.5, size=1 << k) for k in range(6)])
    z = stochastic_exponential(zeta)
    assert martingale_defect(z)[0] <= 1e-13
    assert float(z.terminal.mean()) == pytest.approx(1.0, abs=1e-13)


def test_exponential_guard_names_node():
    lat = build_lattice(2, 1.0)
    big = PredictableProcess(lat, [np.full(1 << k, 5.0) for k in range(2)])
    with pytest.raises(ExponentialGuardError, match="step 0"):
        stochastic_exponential(big)


def test_reflection_reverses_slices():
    lat = build_lattice(3, 1.0)
    refl = reflect_adapted(lat.brownian())
    for a, b in zip(refl.values, lat.brownian().values):
        np.testing.assert_array_equal(a, b[::-1])


def test_adapted_process_shape_validation():
    lat = build_lattice(2, 1.0)
    with pytest.raises(ValueError, match="slices"):
        AdaptedProcess(lat, [np.zeros(1), np.zeros(2)])
    with pytest.raises(ValueError, match="leading size"):
        AdaptedProcess(lat, [np.zeros(1), np.zeros(3), np.zeros(4)])


# --- node_max: the one reduction behind every "worst node" ------------------

def test_node_max_tie_rule_ignores_slice_order():
    slices = [(0, np.array([1.0])), (1, np.array([3.0, 2.0])),
              (2, np.array([1.0, 3.0, 3.0, 0.0]))]
    assert node_max(slices) == (3.0, (1, 0))
    assert node_max(reversed(slices)) == (3.0, (1, 0))
    # a scalar is a one-node slice; ties go to the first
    assert node_max(enumerate([2.0, 5.0, 5.0])) == (5.0, (1, 0))


def test_node_max_nan_rule():
    nan = np.nan
    slices = [(0, np.array([1.0])), (1, np.array([4.0, nan])),
              (2, np.array([9.0, nan, 0.0, nan]))]
    for order in (slices, slices[::-1]):
        value, node = node_max(order)
        assert np.isnan(value) and node == (1, 1)
    # inf is a number: a nan still outranks it
    value, node = node_max([(0, np.array([np.inf])), (1, np.array([0.0, nan]))])
    assert np.isnan(value) and node == (1, 1)


def test_node_max_minimum_by_negation_is_exact():
    slices = [np.array([0.3]), np.array([-0.1, 0.7]), np.array([2.0, -0.1, -0.1, 5.0])]
    value, node = node_max((k, -v) for k, v in enumerate(slices))
    assert (-value, node) == (-0.1, (1, 0))


def test_node_max_refuses_no_slices():
    with pytest.raises(ValueError, match="no slices"):
        node_max([])


_node_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
                         st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(_node_values, min_size=(1 << (n + 1)) - 1, max_size=(1 << (n + 1)) - 1),
        st.permutations(range(n + 1)))))
def test_node_max_matches_brute_force_argmax(case):
    flat, order = case
    nodes = [(k, p) for k in range(len(order)) for p in range(1 << k)]
    slices = {k: np.array(flat[(1 << k) - 1:(1 << (k + 1)) - 1]) for k in order}
    value, node = node_max((k, slices[k]) for k in order)
    # brute force over the concatenated slices in (step, path) order
    nans = [i for i, x in enumerate(flat) if x != x]
    if nans:
        assert np.isnan(value) and node == nodes[nans[0]]
    else:
        top = max(flat)
        assert value == top and node == nodes[flat.index(top)]


def test_nan_node_fails_the_martingale_checks():
    lat = build_lattice(3, 1.0)
    walk = lat.brownian()
    values = [v.copy() for v in walk.values]
    values[2][3] = np.nan
    broken = AdaptedProcess(lat, values)
    defect, node = martingale_defect(broken)
    # the first node whose one-step defect involves (2, 3) is its parent
    assert np.isnan(defect) and node == (1, 1)
    assert not is_martingale(broken)
    with pytest.raises(MartingaleError, match="nan"):
        martingale_representation(broken)


def test_process_gap_is_the_node_max_of_the_difference():
    lat = build_lattice(3, 1.0)
    walk = lat.brownian()
    assert process_gap(walk, walk) == 0.0
    assert process_gap(walk, walk, 0.5) == pytest.approx(0.5 * np.sqrt(3.0))
    values = [v.copy() for v in walk.values]
    values[3][5] = np.nan
    assert np.isnan(process_gap(walk, AdaptedProcess(lat, values)))
