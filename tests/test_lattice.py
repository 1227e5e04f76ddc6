import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impact_bsde import (
    AdaptedProcess,
    ExponentialGuardError,
    LatticeSizeError,
    PredictableProcess,
    build_lattice,
    conditional_expectation,
    martingale_defect,
    node_max,
    process_gap,
    stochastic_exponential,
    stochastic_integral,
)
from impact_bsde.lattice import MAX_STEPS_ENV, Lattice, stock_norm, stock_sum

from helpers import brownian, martingale_representation, oracle_conditional_mean


def test_single_step_lattice():
    lat = build_lattice(1, 1.0)
    assert lat.num_leaves == 2
    np.testing.assert_allclose(brownian(lat).terminal, [1.0, -1.0])


def test_two_step_lattice_terminal_values():
    lat = build_lattice(2, 1.0)
    assert lat.num_leaves == 4
    s = np.sqrt(0.5)
    np.testing.assert_allclose(brownian(lat).terminal, [2 * s, 0.0, 0.0, -2 * s])


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


def test_step_below_the_float_range_is_refused():
    # 5e-324 / 3 rounds to 0: dt and sqrt_dt were 0, and every child
    # difference divided by zero
    with pytest.raises(ValueError, match=r"^horizon 5e-324 over 3 steps gives a step of 0$"):
        build_lattice(3, 5e-324)
    assert build_lattice(1, 5e-324).dt == 5e-324


def test_brownian_is_martingale():
    lat = build_lattice(6, 1.5)
    assert martingale_defect(brownian(lat))[0] <= 1e-12


def test_walk_is_the_recurrence_of_its_moves():
    # each node's count is its parent's plus one (up child) or minus one
    # (down child); int32 throughout, where np.bitwise_count's uint8 wraps
    for depth in range(1, 13):
        lat = build_lattice(depth, 1.0)
        assert lat.walk(0).dtype == np.int32 and lat.walk(0).tolist() == [0]
        for k in range(1, depth + 1):
            step = np.tile(np.array([1, -1], dtype=np.int32), lat.nodes(k - 1))
            want = lat.to_children(lat.walk(k - 1)) + step
            assert lat.walk(k).dtype == np.int32
            assert lat.walk(k).tobytes() == want.tobytes()
    # the walk is the brownian process in units of sqrt(dt), bit for bit
    lat = build_lattice(5, 0.3)
    for k, v in enumerate(brownian(lat).values):
        assert v.tobytes() == (lat.walk(k) * lat.sqrt_dt).tobytes()


def test_lattice_stores_no_tree():
    # a lattice holds its scalars only: the walk tree alone was 512 KB here
    tracemalloc.start()
    try:
        lat = Lattice(16, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert lat.walk(16).shape == (1 << 16,)


def test_conditional_expectation_of_walk_is_zero_at_root():
    lat = build_lattice(1, 1.0)
    ce = conditional_expectation(brownian(lat))
    assert ce.values[0][0] == pytest.approx(0.0, abs=1e-15)


def test_conditional_expectation_of_square_is_variance():
    lat = build_lattice(1, 1.0)
    ce = conditional_expectation(brownian(lat).terminal ** 2, lat)
    assert ce.values[0][0] == pytest.approx(1.0)


def test_conditional_expectation_sign_three_steps_vs_oracle():
    lat = build_lattice(3, 1.0)
    x = np.where(brownian(lat).terminal >= 0, 1.0, -1.0)
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
    rebuilt = stochastic_integral(zeta, brownian(lat))
    np.testing.assert_allclose(mart.values[0][0] + rebuilt.terminal, x,
                               rtol=0, atol=1e-12)


def test_representation_of_walk_is_one():
    lat = build_lattice(5, 1.0)
    zeta = martingale_representation(brownian(lat))
    for v in zeta.values:
        np.testing.assert_allclose(v, 1.0, rtol=0, atol=1e-13)


def test_representation_of_compensated_square_one_step():
    lat = build_lattice(1, 1.0)
    mart = conditional_expectation(brownian(lat).terminal ** 2, lat)
    np.testing.assert_allclose(mart.values[1], [1.0, 1.0])
    zeta = martingale_representation(mart)
    assert zeta.values[0][0] == pytest.approx(0.0, abs=1e-15)


def test_representation_of_constant_is_zero():
    lat = build_lattice(4, 1.0)
    const = AdaptedProcess(lat, [np.full(1 << k, 3.25) for k in range(5)])
    zeta = martingale_representation(const)
    for v in zeta.values:
        np.testing.assert_array_equal(v, 0.0)


def test_integral_of_zero_is_zero():
    lat = build_lattice(4, 1.0)
    zero = PredictableProcess(lat, [np.zeros(1 << k) for k in range(4)])
    out = stochastic_integral(zero, brownian(lat))
    for v in out.values:
        np.testing.assert_array_equal(v, 0.0)


def test_integral_of_one_against_walk_is_walk():
    lat = build_lattice(5, 2.0)
    one = PredictableProcess(lat, [np.ones(1 << k) for k in range(5)])
    out = stochastic_integral(one, brownian(lat))
    for got, want in zip(out.values, brownian(lat).values):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_integral_walk_against_walk_two_steps_brute_force():
    # predictable shift: the step value is the walk at the step start, so the
    # four paths give +-dt products of the two increments
    lat = build_lattice(2, 1.0)
    b = brownian(lat)
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
    walk = brownian(lat)
    values = [v.copy() for v in walk.values]
    values[2][3] = np.nan
    broken = AdaptedProcess(lat, values)
    defect, node = martingale_defect(broken)
    # the first node whose one-step defect involves (2, 3) is its parent
    assert np.isnan(defect) and node == (1, 1)
    assert not defect <= 1e-12


def test_process_gap_is_the_node_max_of_the_difference():
    lat = build_lattice(3, 1.0)
    walk = brownian(lat)
    assert process_gap(walk, walk) == 0.0
    assert process_gap(walk, walk, 0.5) == pytest.approx(0.5 * np.sqrt(3.0))
    values = [v.copy() for v in walk.values]
    values[3][5] = np.nan
    assert np.isnan(process_gap(walk, AdaptedProcess(lat, values)))


# --- the layout methods --------------------------------------------------------

def _slice(rng, lead: tuple, dim: int) -> np.ndarray:
    """Random floats over many magnitudes (none near the overflow edge), with
    a trailing stock axis of size ``dim`` unless ``dim`` is 0."""
    shape = lead + ((dim,) if dim else ())
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)


_layout_case = st.tuples(st.integers(1, 12), st.integers(0, 2 ** 31), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(_layout_case)
def test_from_children_inverts_children(case):
    depth, seed, dim = case
    lat = build_lattice(depth, 1.0)
    rng = np.random.default_rng(seed)
    for k in range(1, depth + 1):
        x = _slice(rng, (lat.nodes(k),), dim)
        up, down = lat.children(x)
        assert np.shares_memory(up, x) and np.shares_memory(down, x)
        back = lat.from_children(up, down)
        assert back.dtype == x.dtype and back.tobytes() == x.tobytes()


@settings(max_examples=40, deadline=None)
@given(_layout_case, st.integers(1, 4))
def test_child_mean_inverts_to_children(case, rows):
    depth, seed, dim = case
    lat = build_lattice(depth, 1.0)
    rng = np.random.default_rng(seed)
    for k in range(depth):
        x = _slice(rng, (lat.nodes(k),), dim)
        assert lat.child_mean(lat.to_children(x)).tobytes() == x.tobytes()
        stacked = _slice(rng, (rows, lat.nodes(k)), dim)
        assert lat.child_mean(lat.to_children(stacked, axis=1), axis=1).tobytes() \
            == stacked.tobytes()


@settings(max_examples=40, deadline=None)
@given(_layout_case, st.integers(1, 4))
def test_row_stacked_child_ops_equal_the_per_row_ones(case, rows):
    # the Picard kernel and the kappa blocks run these on rows of points
    depth, seed, dim = case
    lat = build_lattice(depth, 1.0)
    rng = np.random.default_rng(seed)
    for k in range(1, depth + 1):
        stacked = _slice(rng, (rows, lat.nodes(k)), dim)
        whole = lat.child_mean(stacked, axis=1), lat.child_diff(stacked, axis=1)
        for r, x in enumerate(stacked):
            # the float operations of the hand-written slicing they replace
            up, down = x[0::2], x[1::2]
            want = 0.5 * (up + down), (up - down) / (2.0 * lat.sqrt_dt)
            for op, rows_op, one in zip((lat.child_mean, lat.child_diff), whole, want):
                assert op(x).tobytes() == one.tobytes()
                assert np.ascontiguousarray(rows_op[r]).tobytes() == one.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3))
def test_subtrees_hold_the_leaves_below_each_node(depth, rows):
    lat = build_lattice(depth, 1.0)
    leaves = np.arange(lat.num_leaves)
    # each leaf's ancestor at step k: the node labels of step k carried down
    ancestors = []
    for k in range(depth + 1):
        label = np.arange(lat.nodes(k))
        for _ in range(k, depth):
            label = lat.to_children(label)
        ancestors.append(label)
    # through those ancestors every leaf's walk moves one unit a step
    path = np.array([lat.walk(k)[a] for k, a in enumerate(ancestors)])
    assert np.all(np.abs(np.diff(path, axis=0)) == 1)
    for k, ancestor in enumerate(ancestors):
        groups = lat.subtrees(leaves, lat.nodes(k))
        assert groups.shape == (lat.nodes(k), lat.num_leaves // lat.nodes(k))
        # row p holds the leaves whose path passes through (k, p), and only them
        assert np.array_equal(np.sort(groups, axis=None), leaves)
        assert np.all(ancestor[groups] == np.arange(lat.nodes(k))[:, None])
        # vector leaves and row-stacked leaves group the same way
        vector = np.stack([leaves, -leaves], axis=1)
        assert np.array_equal(lat.subtrees(vector, lat.nodes(k))[..., 0], groups)
        stacked = np.tile(leaves, (rows, 1))
        assert np.array_equal(lat.subtrees(stacked, lat.nodes(k), axis=1),
                              np.broadcast_to(groups, (rows, *groups.shape)))


@pytest.mark.parametrize("shape", [(), (3,)])
def test_zero_slices_are_views_of_one_block(shape):
    lat = build_lattice(5, 1.0)
    slices = lat.zero_slices(*shape)
    assert len(slices) == lat.num_steps + 1
    block = slices[0].base
    assert block is not None and all(s.base is block for s in slices)
    assert block.size == sum(s.size for s in slices)
    for k, s in enumerate(slices):
        assert s.shape == (lat.nodes(k), *shape) and not s.any()
        s[...] = k + 1
    # no two slices overlap: every write is still there
    assert all(np.all(s == k + 1) for k, s in enumerate(slices))


# Code outside lattice.py that writes the full tree's layout out by hand:
# stride slicing by two, repeating by two, node counts and level offsets by
# bit shifts or powers of two, pairing children by a reshape
_LAYOUT_IDIOMS = re.compile(
    r"::\s*2\b"
    r"|np\.repeat\([^)]*,\s*2\b"
    r"|(<<|>>)\s*\(?\s*[A-Za-z_]"
    r"|\b2\s*\*\*\s*\(?\s*[A-Za-z_]"
    r"|reshape\([^)]*,\s*2\s*[,)]")
# the functions allowed to keep such lines, with the reason
_LAYOUT_ALLOWED = {
    "_batch_utilities": "full-tree-only path functional: it writes each child's gains "
                        "through the [:, :, c] view of its own (rows, nodes, 2) scratch "
                        "buffer, a buffered form of from_children",
}


def _idiom_lines(path, idioms):
    """``(line number, text, innermost enclosing function)`` of every code
    line of the module at ``path`` that matches the pattern ``idioms``;
    comments and docstrings are skipped."""
    source = path.read_text()
    docstrings, function = set(), {}
    # breadth first: an inner function overwrites its outer one's lines
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return [(number, text.strip(), function.get(number))
            for number, text in enumerate(source.splitlines(), start=1)
            if number not in docstrings and idioms.search(text.split("#")[0])]


def _modules_besides_lattice():
    package = Path(__file__).resolve().parents[1] / "src" / "impact_bsde"
    return [path for path in sorted(package.glob("*.py")) if path.name != "lattice.py"]


def test_tree_layout_lives_in_lattice():
    offenders = []
    seen = set()
    for path in _modules_besides_lattice():
        for number, text, function in _idiom_lines(path, _LAYOUT_IDIOMS):
            if function in _LAYOUT_ALLOWED:
                seen.add(function)
            else:
                offenders.append(f"{path.name}:{number} ({function}): {text}")
    assert not offenders, "tree layout written out by hand; use Lattice's methods:\n" \
        + "\n".join(offenders)
    # the allow-list names only functions that still need it
    assert seen == set(_LAYOUT_ALLOWED)


# --- the stock axis --------------------------------------------------------------

def _same_bits(got, want) -> bool:
    """Equal shapes and equal bits, every nan counting as equal to every nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(
        (np.isnan(got) & np.isnan(want)) | (got.view(np.int64) == want.view(np.int64))))


def _normal_floats(rng, shape: tuple, max_exp: int) -> np.ndarray:
    """Normal floats of random sign, binary exponents uniform in
    [-max_exp, max_exp] (at most 1023: from the smallest normal up)."""
    mantissa = rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.ldexp(mantissa, rng.integers(-min(max_exp, 1022), max_exp + 1, shape))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(1, 5), max_size=3).map(tuple),
       st.integers(0, 2 ** 31), st.sampled_from([4, 60, 510, 1023]))
@example(3, (), 0, 60)  # a 0-d sum, as the driver makes from scalars
def test_stock_sum_and_norm_are_numpys_bit_for_bit(n, lead, seed, max_exp):
    # normal entries, near the overflow edge too: a sum may overflow to inf
    # or meet inf - inf (a nan); the norm's squares stay normal floats
    rng = np.random.default_rng(seed)
    x = _normal_floats(rng, lead + (n,), max_exp)
    assert _same_bits(stock_sum(x), np.sum(x, axis=-1))
    small = _normal_floats(rng, lead + (n,), min(max_exp, 510))
    assert _same_bits(stock_norm(small), np.linalg.norm(small, axis=-1))
    # into a strided view of a caller's buffer, as the optimality check sums
    buffer = np.full(lead + (2,), np.nan)
    got = stock_sum(x, out=buffer[..., 1])
    assert _same_bits(got, np.sum(x, axis=-1))
    if n == 1:  # the column itself; the buffer is not touched
        assert np.shares_memory(got, x) and np.isnan(buffer).all()
    else:
        assert _same_bits(buffer[..., 1], np.sum(x, axis=-1))


@pytest.mark.parametrize("value", [1e300, -1e300, 1e-200, 5e-324, -2.5e-320, 0.0, -0.0,
                                   np.inf, -np.inf, np.nan])
def test_one_stock_norm_is_the_magnitude(value):
    # sqrt(x * x) overflows beyond ~1.3e154 and loses digits below ~1.5e-154
    x = np.full((3, 1), value)
    assert _same_bits(stock_norm(x), np.abs(x[:, 0]))
    assert _same_bits(stock_norm(x[0]), abs(value))


# Code outside lattice.py that reduces over the stock axis by hand: numpy's
# norm and sum, a sum over the last axis (or the second or third, the stock
# axis of a 2-d or 3-d slice), reductions and products of numpy's that sum
# over an axis, and loops over the stock columns
_STOCK_AXIS_IDIOMS = re.compile(
    r"np\.linalg\.norm\("
    r"|np\.sum\("
    r"|\.sum\(axis=(-1|1|2)\b"
    r"|np\.add\.reduce"
    r"|\.dot\(|np\.(inner|vdot|matmul|tensordot|einsum)\(| @ "
    r"|\bfor\s+\w+\s+in\s+range\(\s*\d+\s*,[^)]*(\bn|num_stocks|\bdim|shape\[-1\])\s*\)"
    r"|\[\s*\.\.\.\s*,\s*(?!None\b)[A-Za-z_]\w*\s*\]")


def test_stock_axis_lives_in_lattice():
    offenders = [f"{path.name}:{number} ({function}): {text}"
                 for path in _modules_besides_lattice()
                 for number, text, function in _idiom_lines(path, _STOCK_AXIS_IDIOMS)]
    assert not offenders, "stock axis reduced by hand; use stock_sum or stock_norm:\n" \
        + "\n".join(offenders)
