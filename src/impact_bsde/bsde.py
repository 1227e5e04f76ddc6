"""Coupled quadratic backward system on the lattice: explicit backward
solver, fixed-point (Picard) solver, contraction diagnostics, and the
market price of risk, volatility and density a solution defines.

The unknowns are the predictable integrand pair (value integrand, price
integrand) and the adapted pair (scaled certainty equivalent, scaled
prices), with terminal data (0, risk_aversion * dividend).  Writing
``c = value_integrand``, ``v = price_integrand`` (an n-vector) and
``g = demand``, the backward step from slice ``k + 1`` to ``k`` is

    c_k, v_k    from the exact one-step representation of slice k + 1,
    value_k  = mean_k(value) + 0.5 ((v_k . g_k)^2 - c_k^2) dt
    price_k  = mean_k(price) -  v_k (c_k + v_k . g_k) dt

which determines the solution uniquely by induction: the child difference
pins the integrands, the child mean plus drift pins the values.  One
kernel, ``_backward``, walks that recursion from the leaves, one slice at a
time; the explicit solve takes the driver at the integrands it has just
read off, and the Picard rebuild at a frozen iterate.

The fixed-point route rebuilds, for a frozen integrand guess, the terminal
value plus the pathwise drift integral, takes its conditional-expectation
martingale, and reads off the new integrand from its representation.  Its
fixed points coincide with the explicit solution.  The new level-k
integrand reads the guess only at levels above k, so from zero the
iteration reaches the fixed point after N + 1 steps in exact arithmetic.
In floating point, iterate N + 1 still carries the rounding of the drift
sums, which grows with the square of the iterates, and the iteration goes
on from there: a row can converge many steps after N + 1, and a row whose
solution explodes with depth may never converge.  Rows therefore run to
the tolerance or the iteration cap, not to step N + 1, and the iteration
reports distances and ratios as first-class output and treats
non-convergence as data, not as an error.

Each iteration is one fused pass.  Forward, each level's running sums of the
drift integrands are its parents' plus its own drift.  Backward, each node
of level N - 1 puts its sums on both its children, adding the terminal data
to the price, and from there, leaf to root, level by level, the pass takes
child means and child differences (the new integrands) and advances the
integrand norm of the new iterate and of its distance to the old one.  No
full martingale tree, leaf-sized drift array, stacked copy or difference
list is stored.  ``_Cut`` plans the pass: a level of more than
``_TILE_VALUES`` values runs in tiles of that many, each through the whole
level body while its operands sit in L2; given two usable CPUs and root
subtrees of at least ``_SPLIT_VALUES`` leaf values, the two subtrees run at
the same time, one on a second thread; and the band, the deepest levels a
subtree holds in several tiles, runs in band tiles, subtrees that each run
forward and backward from the band's top to level N - 1 on their own.  A
block of rows allocates its memory once: one integrand pair, which each
iteration overwrites (a tile reads its nodes' old integrands forward before
it writes theirs backward, and no other tile reads them), per kind (the
levels' sums, which the backward pass overwrites with the martingale, and
remaining loads) two alternating level buffers, which hold no level below
the band's top, and per thread the scratch of one tile and two alternating
band tile buffers.  The map keeps
this forward form: through ``_backward`` it would read no level below k in
floating point either, so every finite run would stop at step N + 1 with
distance 0, a change of the iteration records of its own.

That pass, ``_PicardKernel.step``, carries a leading point axis: every slice
holds one row per point, and each row is an ``Instance`` on one shared
lattice, such as a sweep's variants of one market.  One loop,
``picard_diagnostics``, iterates it from zero: it draws the points from an
iterable a block at a time, sized by a fixed byte budget on the integrand
pairs, keeps the iteration records, and runs each block until every row
has converged, reached the iteration cap or aborted.
A sweep runs its points through it; ``solve_picard`` runs it on its one
instance and rebuilds the solution from the iterate that row ends on.
Every reduction is per row, so each row's record is the one its own run
would give, bit for bit.

The explicit solve and the rebuild are walks of ``_backward``, one tile at
a time, which ``_solve`` runs in lockstep after any Picard loop, so no
solution is alive through it, in the Picard step's cut: each band tile leaf
to top, then the levels above, a root subtree per thread, and the root
last.  Both read one leaf pair, the zero value slice and the scaled
dividend, a tile at a time.  A kept walk writes its slices into one block
per process; any other writes them into level and band tile buffers and
keeps its root values, so ``bsde`` without a node table holds no leaf-sized
array.  The first node of each slice that is not finite and the node max of
the gap between the two prices are taken as each tile passes.  The explicit
integrands and the rebuild's residual (the node-max move of one more map
step) are read off a kept solution's slices after the walk.

The walks, and a Picard step whose rows share one demand (every ``bsde``
run), read the demand a tile at a time through ``PredictableProcess.tile``:
a Markov demand's state tables are gathered into scratch the tile owns (the
Picard step's demand row, each walk's price drift), so no tree-sized demand
is held.  A block of rows with different demands (a ``demand_scale`` sweep)
stacks the rows' levels, each gathered once, on first read.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import islice
from types import SimpleNamespace

import numpy as np

from .lattice import (
    AdaptedProcess,
    ExponentialGuardError,
    Lattice,
    PredictableProcess,
    _square_sum,
    _stock_sum,
    stochastic_exponential,
    stock_sum,
)
from .norms import _remaining_load
from .pricer import NumericalError, _non_finite
from .scenario import Instance


def driver(eta_k, theta_k, gamma_k):
    """Pointwise drift integrands of the two equations.

    Arguments broadcast; ``theta_k`` and ``gamma_k`` carry the stock axis
    last, over which ``stock_sum`` takes their inner product.  Returns
    ``(value_drift, price_drift)`` where the backward value recursion adds
    ``+ value_drift * dt`` and the price recursion subtracts
    ``price_drift * dt`` (the price drift enters its equation with a minus
    sign).
    """
    return _driver(np.asarray(eta_k, dtype=float), np.asarray(theta_k, dtype=float),
                   np.asarray(gamma_k, dtype=float))


def _driver(eta, theta, gamma, value=None, price=None, work=None, tg=None):
    """``driver`` on float arrays, writing the two drifts into ``value`` and
    ``price`` and its temporaries into ``work`` (shaped like ``value``) and
    ``tg`` (the inner product of several stocks) when they are given.  The
    Picard kernel's threads run it: it calls no public function."""
    tg = _stock_sum(np.multiply(theta, gamma, out=price), out=tg)
    value = np.multiply(0.5, np.subtract(np.square(tg, out=value), np.square(eta, out=work),
                                         out=value), out=value)
    # tg is read for the last time here: for one stock it is a column of price
    total = np.add(eta, tg, out=work)
    return value, np.multiply(theta, total[..., None], out=price)


def driver_growth_bound(gamma_sup: float) -> float:
    """Quadratic-growth constant of the driver for demands bounded by
    ``gamma_sup``.

    The driver is a quadratic form in the joint integrand u = (c, v):
    f(u) - f(w) = q(u + w, u - w) with q the symmetrized bilinear map, so
    any bound on |q(x, y)| / (|x| |y|) is a valid growth constant.  With
    G = gamma_sup, Cauchy-Schwarz gives |q_value| <= max(G^2, 1)/2 and
    |q_price| <= 1/2 + G, hence the bound below.  Validated by random
    sampling in the test suite.  Products, not powers: a float power raises
    on overflow, a product gives inf.
    """
    g = float(gamma_sup)
    m = max(g * g, 1.0)
    return float(np.sqrt(m * m / 4.0 + (0.5 + g) * (0.5 + g)))


@dataclass
class BsdeSolution:
    """Backward-system solution in scaled form plus its integrands, and the
    processes they define under the pricer's names, each computed on first use."""

    lattice: Lattice
    risk_aversion: float
    gamma: PredictableProcess
    scaled_value: AdaptedProcess      # risk_aversion * certainty equivalent
    scaled_price: AdaptedProcess      # risk_aversion * prices, n-dim
    value_integrand: PredictableProcess
    price_integrand: PredictableProcess
    residual: float                   # max node gap |child_diff(Y_{k+1}) - integrand_k|

    @property
    def prices(self) -> AdaptedProcess:
        return self.scaled_price.scaled(1.0 / self.risk_aversion)

    @property
    def certainty_equivalent(self) -> AdaptedProcess:
        return self.scaled_value.scaled(1.0 / self.risk_aversion)

    # the root values of ``prices`` and ``certainty_equivalent``, bit for
    # bit, without scaling the whole tree
    @property
    def initial_price(self) -> np.ndarray:
        return _initial(self.risk_aversion, self.scaled_value.values[0],
                        self.scaled_price.values[0])[0]

    @property
    def initial_certainty(self) -> float:
        return _initial(self.risk_aversion, self.scaled_value.values[0],
                        self.scaled_price.values[0])[1]

    @cached_property
    def market_price_of_risk(self) -> PredictableProcess:
        """Value integrand plus demand-weighted price integrand."""
        return PredictableProcess(self.lattice, [
            self.value_integrand.values[k]
            + stock_sum(self.price_integrand.values[k] * self.gamma.values[k])
            for k in range(self.lattice.num_steps)
        ])

    @cached_property
    def volatility(self) -> PredictableProcess:
        """Price integrand over the risk aversion."""
        return self.price_integrand.scaled(1.0 / self.risk_aversion)

    @cached_property
    def density(self) -> AdaptedProcess:
        """Stochastic exponential of the negated market price of risk;
        raises ``ExponentialGuardError`` where it would lose positivity."""
        try:
            return stochastic_exponential(self.market_price_of_risk.scaled(-1.0))
        except ExponentialGuardError as exc:
            raise ExponentialGuardError(
                f"{exc}; refine the step size (larger num_steps) so the per-step "
                f"move shrinks"
            ) from exc


@dataclass
class IterationDiagnostics:
    """Per-iteration record of the fixed-point solve, plus the threshold
    quantities the contraction theory is stated in."""

    distances: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    iterate_norms: list[float] = field(default_factory=list)
    final_norm: float = 0.0
    terminal_norm: float = 0.0        # integrand norm of the terminal-data martingale
    kappa: float = 1.0
    growth_bound: float = 1.0
    converged: bool = False
    iterations: int = 0
    aborted: str | None = None

    @property
    def contraction_radius(self) -> float:
        """Smallness threshold on the terminal data for guaranteed contraction."""
        return 1.0 / (8.0 * self.kappa * self.growth_bound)

    @property
    def uniqueness_radius(self) -> float:
        """Integrand-norm ball inside which the fixed point is unique."""
        return 1.0 / (4.0 * self.kappa * self.growth_bound)

    @property
    def small_ball(self) -> float:
        """Twice the terminal-data norm: the guaranteed bound on the solution."""
        return 2.0 * self.terminal_norm

    def to_dict(self) -> dict:
        return {**asdict(self), "contraction_radius": self.contraction_radius,
                "uniqueness_radius": self.uniqueness_radius, "small_ball": self.small_ball}


def _backward(inst: Instance, tile, here, below, frozen, scratch):
    """One walk's step over one tile of level ``tile.k``: into ``here``, its
    value and price slices (one row first), the child means of ``below``
    plus the drift, taken at the child differences of ``below`` (the
    explicit solve, which takes them in ``here`` too) or at the frozen pair
    ``frozen`` (a rebuild).  The drifts and their temporaries go into the
    flat ``scratch``, free between tiles; a demand gathered from its state
    tables goes where the price drift goes, which overwrites it as the
    driver reads it.  It calls no public function."""
    lattice, k, nodes, n = inst.lattice, tile.k, tile.nodes, inst.num_stocks
    m = nodes.stop - nodes.start
    (value, price), (value_below, price_below) = here, below
    if frozen is None:
        e = lattice.child_diff(value_below, axis=1, out=value)
        t = lattice.child_diff(price_below, axis=1, out=price)
    else:
        e, t = frozen[0][k][nodes], frozen[1][k][nodes]
    pd = _rows(scratch[2 * m:], 1, m, n)
    out = pd[0]
    gamma = inst.gamma.tile(k, nodes, out)
    # a gathered demand goes in as the very array the driver writes over it,
    # so numpy sees an exact overlap and copies nothing
    vd, pd = _driver(e, t, pd if gamma is out else gamma, _rows(scratch, 1, m), pd,
                     _rows(scratch[m:], 1, m),
                     _rows(scratch[(2 + n) * m:], 1, m) if n > 1 else None)
    # child mean plus drift times dt
    np.add(lattice.child_mean(value_below, axis=1, out=value),
           np.multiply(vd, lattice.dt, out=vd), out=value)
    np.subtract(lattice.child_mean(price_below, axis=1, out=price),
                np.multiply(pd, lattice.dt, out=pd), out=price)


def _initial(a: float, value: np.ndarray, price: np.ndarray):
    """The root price and certainty equivalent of a solution whose scaled
    root slices are ``value`` and ``price``; beyond the float range they are
    not finite, for the caller to check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (1.0 / a) * price[0], float((1.0 / a) * value[0])


def _note(first, k: int, kind: int, x: np.ndarray, start: int, mask: np.ndarray):
    """Keep in ``first[k, kind]`` the first node of tile ``x`` (one row first,
    nodes from ``start``) not finite, if earlier; flags go into ``mask``."""
    ok = np.isfinite(x, out=mask[:x.size].reshape(x.shape))
    if not ok.all():
        node = start + int(np.argmin(ok.reshape(x.shape[1], -1).all(axis=1)))
        first[k, kind] = min(first[k, kind], node)


def _failure(first, what: str, none: int) -> NumericalError | None:
    """The error of a walk's deepest slice not finite, value before price,
    from each slice's first such node ``first[k, kind]`` (``none``: none)."""
    kinds = ("scaled certainty equivalent", "scaled price")
    return next((_non_finite(what + kind, k, int(node)) for k in range(len(first) - 1, -1, -1)
                 for node, kind in zip(first[k], kinds) if node < none), None)


def _solve(inst: Instance, explicit: bool = False, ends=None, keep: bool = False):
    """Leaf to root in lockstep, one walk each (see the module docstring):
    the explicit solve when ``explicit``, and the rebuild at the frozen
    integrand pair ``ends`` when it is given, in ``_Cut``'s tiles for one
    row of ``n`` stocks.

    With ``keep`` the first walk writes its levels into one zeroed block per
    process and gives a ``BsdeSolution``, whose residual is 0.0 for the
    explicit solve and nan for a rebuild (``solve_picard`` takes it).  Every
    other walk writes them into ``_Store``'s buffers; the first then gives
    its root values only (``initial_price``, ``initial_certainty``,
    ``residual``).  Each walk notes the first node of each slice that is not
    finite, and with both the node max of |explicit price - rebuilt price|
    advances, as ``lattice.process_gap`` takes it.  After the root, the
    explicit solve raises ``NumericalError`` for its deepest such slice,
    value before price; so the rebuild's first failure (``Picard scaled
    certainty equivalent``, then ``Picard scaled price``) is found.

    Returns ``(first, gap, failure)``: the first walk's result, the node max
    (None unless both walk) and the rebuild's first failure (or None).
    """
    lattice, a, n = inst.lattice, inst.risk_aversion, inst.num_stocks
    steps = lattice.num_steps
    cut = _Cut(lattice, n)
    frozen = ([None] if explicit else []) + ([ends] if ends is not None else [])
    kept = (lattice.zero_slices(), lattice.zero_slices(n)) if keep else (None, None)
    stores = [(_Store(cut, 1, kept=kept[0] if not i else None),
               _Store(cut, 1, n, kept=kept[1] if not i else None)) for i in range(len(frozen))]
    # per part: drifts, temporaries and a tile's leaf prices; finiteness flags
    lead = cut.width * (2 + n + (n > 1))
    scratch = [np.empty(lead + 2 * cut.width * n) for _ in range(cut.parts)]
    masks = [np.empty(2 * cut.width * n, dtype=bool) for _ in range(cut.parts)]
    # per part and walk, the first node of each slice that is not finite
    first = np.full((cut.parts, len(frozen), steps + 1, 2), lattice.num_leaves)
    gaps = [0.0] * cut.parts

    def make(k, q, parts, run, _):
        nodes, leaves, local, below, _ = run

        def views(level, part):
            return [tuple(s.view(1, level, q, parts)[:, part] for s in pair) for pair in stores]

        return SimpleNamespace(k=k, nodes=nodes, leaves=leaves, here=views(k, local),
                               below=None if k == steps - 1 else views(k + 1, below))

    def level(tile, w):
        k, nodes, leaves, below = tile.k, tile.nodes, tile.leaves, tile.below
        m = nodes.stop - nodes.start
        if below is None:
            # the leaves below the tile, which every walk reads
            price = (kept[1][-1][None, leaves] if keep
                     else _rows(scratch[w][lead:], 1, 2 * m, n))
            np.multiply(a, inst.psi[leaves], out=price)
            if ends is not None:
                _note(first[w, -1], steps, 1, price, leaves.start, masks[w])
            below = [(np.broadcast_to(0.0, (1, 2 * m)), price)] * len(frozen)
        for i, (pair, here) in enumerate(zip(frozen, tile.here)):
            _backward(inst, tile, here, below[i], pair, scratch[w])
            for kind, x in enumerate(here):
                _note(first[w, i], k, kind, x, nodes.start, masks[w])
        if len(frozen) == 2:
            gap = np.subtract(tile.here[0][1], tile.here[1][1], out=_rows(scratch[w], 1, m, n))
            # np.max keeps a nan, as node_max does
            gaps[w] = np.max([gaps[w], np.abs(gap, out=gap).max()])

    plans = [cut.plans(w, make) for w in range(cut.parts)]

    def part(w):
        for _, tile in _Cut.walk(plans[w], forward=False):
            level(tile, w)

    with np.errstate(over="ignore", invalid="ignore"):
        _beside(part, cut.parts)
        level(make(0, 0, 1, next(lattice.tiles(0, 1)), True), 0)
    failures = [_failure(f, "" if pair is None else "Picard ", lattice.num_leaves)
                for f, pair in zip(first.min(axis=0), frozen)]
    if explicit and failures[0] is not None:
        raise failures[0]
    failure = failures[-1] if ends is not None else None
    gap = float(np.max(gaps)) if len(frozen) == 2 else None
    if not keep:
        value, price = (s.view(1, 0) for s in stores[0])
        initial_price, initial_certainty = _initial(a, value[0], price[0])
        return SimpleNamespace(initial_price=initial_price, initial_certainty=initial_certainty,
                               residual=0.0 if explicit else np.nan), gap, failure
    del stores, plans, scratch, masks
    if explicit:
        # the integrands are the child differences the walk took
        eta = lattice.levels(np.empty(lattice.num_leaves - 1))
        theta = lattice.levels(np.empty((lattice.num_leaves - 1, n)))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                lattice.child_diff(kept[0][k + 1], out=eta[k])
                lattice.child_diff(kept[1][k + 1], out=theta[k])
    else:
        eta, theta = ends
    return BsdeSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=inst.gamma,
        scaled_value=AdaptedProcess(lattice, kept[0]),
        scaled_price=AdaptedProcess(lattice, kept[1]),
        value_integrand=PredictableProcess(lattice, eta),
        price_integrand=PredictableProcess(lattice, theta),
        residual=0.0 if explicit else np.nan,
    ), gap, failure


def solve_explicit(inst: Instance) -> BsdeSolution:
    """One deterministic backward pass; raises ``NumericalError`` naming the
    step and node of the first slice that is not finite."""
    return _solve(inst, explicit=True, keep=True)[0]


# a level slice of more values (rows x nodes x stocks) than this runs in
# tiles of about this many, so that a tile's operands (256 KB each) stay in
# the L2 cache through the whole level body
_TILE_VALUES = 1 << 15
# the two root subtrees run on two threads when two CPUs are usable and each
# subtree holds at least this many leaf values (rows x nodes x stocks)
_SPLIT_VALUES = 1 << 16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _beside(run, parts: int):
    """``run(w)`` for each part ``w`` of ``parts``, one or two: with two,
    part 1 runs on a second thread while part 0 runs on this one, and the
    call returns when both have.  The second thread runs under this thread's
    numpy error state, which does not follow a call into a new thread, and
    an exception it raises is raised here.  Whatever it runs must call no
    public function of the package: perfbench's span tracer wraps those and
    keeps one span stack, which two threads would interleave."""
    if parts == 1:
        return run(0)
    state = np.geterr()
    errors = []

    def other():
        try:
            with np.errstate(**state):
                run(1)
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=other)
    worker.start()
    try:
        run(0)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _rows(buffer: np.ndarray, rows: int, *shape: int) -> np.ndarray:
    """The first values of the flat ``buffer`` as a C-contiguous
    ``(rows, *shape)`` array: ufuncs loop over such an array at their
    lowest cost per call, which the small levels of a step are made of."""
    return buffer[:rows * math.prod(shape)].reshape(rows, *shape)


class _Cut:
    """The one planner of the Picard step and the walks: how a pass over
    slices of ``values`` values per node (rows times stocks) is cut.  Given
    two usable CPUs and root subtrees of at least ``_SPLIT_VALUES`` leaf
    values, its two root subtrees are ``parts``, one per thread.  A part's
    level runs in tiles of ``size`` nodes, a power of two of at most
    ``_TILE_VALUES`` values, ``width`` at the widest.  The band, the levels
    a part holds in several tiles from level 2 on while a band tile keeps a
    node, is levels ``top`` to N - 1, cut into ``bands`` equal subtrees two
    tiles wide at level N - 1 (narrower ones cost the two-thread step more
    in calls than they save), each run on its own, so that of the band only
    level ``top`` is ever held whole."""

    def __init__(self, lattice: Lattice, values: int):
        steps = lattice.num_steps
        self.lattice = lattice
        self.parts = parts = 2 if (steps >= 2 and _usable_cpus() >= 2 and values
                                   * lattice.nodes(steps - 1) >= _SPLIT_VALUES) else 1
        self.size = size = lattice.nodes(max(1, _TILE_VALUES // values).bit_length() - 1)
        self.width = min(size, lattice.nodes(steps - 1) // parts)
        bands, self.top = lattice.nodes(steps - 1) // (2 * size), steps
        while (self.top > 2 and lattice.nodes(self.top - 1) // parts > size
               and lattice.nodes(self.top - 1) >= bands):
            self.top -= 1
        self.bands = bands if self.top < steps else 0

    def plans(self, w: int, make) -> tuple:
        """Part ``w``'s tiles, each made a plan by ``make(k, q, parts, run,
        first)`` from the run ``run`` of ``lattice.tiles`` at level ``k``
        below subtree ``q`` of ``parts``, ``first`` for the part's first
        tile of the level: levels 1 to ``top - 1``, each a list of its tiles,
        and the part's band tiles, each such a list of levels from ``top``."""
        lattice, parts, bands, size = self.lattice, self.parts, self.bands, self.size
        own = range(w * bands // parts, (w + 1) * bands // parts)
        return ([[make(k, w, parts, run, not i)
                  for i, run in enumerate(lattice.tiles(k, size, w, parts))]
                 for k in range(1, self.top)],
                [[[make(k, q, bands, run, q == own.start and not i)
                   for i, run in enumerate(lattice.tiles(k, size, q, bands))]
                  for k in range(self.top, lattice.num_steps)] for q in own])

    @staticmethod
    def walk(plans: tuple, forward: bool):
        """The band walker: a part's tiles in the order a pass runs them, as
        ``(forward, tile)``.  Given ``forward``, levels 1 to ``top - 1`` run
        forward first; then each band tile runs its levels forward, if
        given, and backward, N - 1 to ``top``; last, levels ``top - 1`` to 1
        run backward."""
        upper, band = plans
        yield from ((True, t) for level in upper for t in level if forward)
        for tile in band:
            yield from ((True, t) for level in tile for t in level if forward)
            yield from ((False, t) for level in reversed(tile) for t in level)
        yield from ((False, t) for level in reversed(upper) for t in level)


class _Store:
    """One kind of slice at every level of a pass cut by ``cut``, for up to
    ``rows`` rows of ``shape`` values per node, as ``(rows, nodes, *shape)``
    views: of ``kept``, one array per level, when given; else of the root
    and level 1 apart, where the root reads both parts, two alternating
    buffers for levels 2 to ``top``, each part owning half of each, and per
    part two alternating band tile buffers for the levels below ``top``."""

    def __init__(self, cut: _Cut, rows: int, *shape: int, kept: list | None = None):
        lattice, steps = cut.lattice, cut.lattice.num_steps
        self.cut, self.shape, self.kept = cut, shape, kept
        self.high = high = min(cut.top, steps - 1)
        size = rows * math.prod(shape)
        if kept is None:
            self.root, self.one = np.zeros(size), np.zeros(2 * size)
            self.whole = [np.empty(lattice.nodes(max(high - i, 0)) * size) for i in (0, 1)]
            self.band = [[np.empty(lattice.nodes(k) // cut.bands * size)
                          for k in (steps - 1, steps - 2) if k > cut.top]
                         for _ in range(cut.parts)]

    def view(self, rows: int, k: int, q: int = 0, parts: int = 1) -> np.ndarray:
        """Level ``k`` below subtree ``q`` of ``parts`` (``lattice.span``):
        a part, a band tile or, by default, the whole level."""
        cut, lattice, shape = self.cut, self.cut.lattice, self.shape
        inner = lattice.span(k, q, parts)
        if self.kept is not None:
            return self.kept[k][None, inner]
        w = q * cut.parts // parts
        if k > cut.top:
            return _rows(self.band[w][(lattice.num_steps - 1 - k) % 2], rows,
                         inner.stop - inner.start, *shape)
        if k < 2:
            return _rows((self.root, self.one)[k], rows, lattice.nodes(k), *shape)[:, inner]
        part, buffer = lattice.span(k, w, cut.parts), self.whole[(self.high - k) % 2]
        return _rows(buffer[w * (len(buffer) // cut.parts):], rows, part.stop - part.start,
                     *shape)[:, inner.start - part.start:inner.stop - part.start]


class _IteratePair:
    """The integrand pair of a block of rows: value integrand slices
    ``(rows, nodes(k))`` and price integrand slices ``(rows, nodes(k), n)``,
    each C-contiguous, all views of one zeroed allocation that lasts as long
    as the block."""

    def __init__(self, lattice: Lattice, rows: int, n: int):
        size = rows * (lattice.num_leaves - 1)
        block = np.zeros(size * (1 + n))
        self.lattice, self.n = lattice, n
        # level by level, each level's rows together
        self.levels = (lattice.levels(block[:size].reshape(-1, rows)),
                       lattice.levels(block[size:].reshape(-1, rows * n)))
        self.view(rows)

    def view(self, rows: int):
        """Take the slices of the first ``rows`` rows."""
        self.eta = [_rows(v.reshape(-1), rows, len(v)) for v in self.levels[0]]
        self.theta = [_rows(v.reshape(-1), rows, len(v), self.n) for v in self.levels[1]]

    def keep(self, rows: list):
        """Move the rows ``rows`` (in increasing order) to the front, as the
        block's only ones."""
        for part in (self.eta, self.theta):
            for v in part:
                for i, r in enumerate(rows):
                    if i != r:
                        v[i] = v[r]
        self.view(len(rows))

    def row(self, r: int, copy: bool):
        """Row ``r``'s pair as per-step lists: views, or views of one copy
        each when the buffer will be written again."""
        eta, theta = [v[r] for v in self.eta], [v[r] for v in self.theta]
        if copy:
            return self.lattice.levels(np.concatenate(eta)), self.lattice.levels(np.concatenate(theta))
        return eta, theta


class _PicardKernel:
    """One application of the fixed-point map to a block of rows, fused with
    both norms, in buffers allocated once per block (see the module
    docstring for the pass).

    Row ``r`` of a step is the instance ``points[r]``; all rows share one
    lattice.  Slices carry the rows first: ``eta[k]`` has shape
    ``(rows, nodes(k))`` and ``theta[k]`` ``(rows, nodes(k), n)``, and row
    ``r`` reads the demand of ``points[r]`` (a demand process every row
    shares is read a tile at a time; otherwise each tile stacks the rows'
    levels).
    Per level, the remaining loads of the new pair and of its distance to
    ``(eta, theta)`` advance, summed in the order ``h_bmo_norm`` sums a
    stacked pair, and their row maxima are kept.

    A tile runs the whole level body in per-thread scratch: forward, the
    driver and then the sums; backward, child difference and mean, both
    squares, both loads and the tile maxima.  With two parts, levels 1 to
    N - 1 of each root subtree, a contiguous node range, run on their own
    thread, and the root after both, in ``_Cut``'s order and ``_Store``'s
    buffers.  Every operation is elementwise or reduces one row, and the only
    reductions across tiles and parts are row maxima and finiteness flags,
    which are exact: each row's iterate and norms are bit-identical to its
    own one-row, one-tile pass.
    """

    def __init__(self, points: list):
        lattice, n, rows = points[0].lattice, points[0].num_stocks, len(points)
        steps = lattice.num_steps
        self.lattice, self.n = lattice, n
        self.shapes = {"value": (), "price": (n,), "norm": (), "dist": ()}
        # later steps, of fewer rows, keep the first step's cut and buffers
        self.cut = _Cut(lattice, rows * n)
        self.stores = {kind: _Store(self.cut, rows, *shape) for kind, shape in self.shapes.items()}
        self.zero = np.zeros(rows * n)  # the sums above the root
        self.level_max = np.zeros((2, 2, steps, rows))  # (norm, dist) x part x level x row
        self.finite = np.ones((2, rows), dtype=bool)
        # a tile of rows x width values never exceeds this
        self.capacity = rows * self.cut.width
        self.scratch: list = [None, None]
        self.resize(rows)

    def resize(self, rows: int):
        """Run the first ``rows`` rows from the next step on: cut every view
        a tile reads or writes, from its store's view of the tile's level
        below its subtree, taken once."""
        lattice, steps, n, cut = self.lattice, self.lattice.num_steps, self.n, self.cut
        self.rows = rows
        above = {"value": _rows(self.zero, rows, 1), "price": _rows(self.zero, rows, 1, n)}
        tiles: dict = {}
        levels: dict = {}

        def plan(k, q, parts, run, first):
            nodes, leaves, local, below, parents = run
            w, width = q * cut.parts // parts, local.stop - local.start
            t = tiles.get((w, width))
            if t is None:
                t = tiles[w, width] = self.tile(w, width)

            def view(kind, level):
                key = kind, level, q, parts
                if key not in levels:
                    levels[key] = self.stores[kind].view(rows, level, q, parts)
                return levels[key]

            here = {kind: view(kind, k)[:, local] for kind in self.shapes}
            last = k == steps - 1
            return SimpleNamespace(
                k=k, nodes=nodes, leaves=leaves, last=last, first=first, scratch=t, here=here,
                # the drift of the tile's up children, then of its down ones,
                # against their parents' sums
                sums=[(combine, (above[kind] if k == 0 else view(kind, k - 1))[:, parents],
                       tuple(zip(lattice.children(drift, axis=1),
                                 lattice.children(here[kind], axis=1))))
                      for kind, combine, drift in (("value", np.add, t.a),
                                                   ("price", np.subtract, t.p))],
                below=None if last else {kind: view(kind, k + 1)[:, below]
                                         for kind in self.shapes},
                leaf_value=lattice.children(t.leaf_value, axis=1),
                level_max=(self.level_max[0, w, k, :rows], self.level_max[1, w, k, :rows]),
                finite=self.finite[w, :rows])

        self.root = plan(0, 0, 1, next(lattice.tiles(0, 1)), True)
        self.plans = [cut.plans(w, plan) for w in range(cut.parts)]

    def tile(self, w: int, width: int) -> SimpleNamespace:
        """Part ``w``'s scratch for a tile of ``width`` nodes.  The leaves
        below a tile of the last level, read only before anything else is
        written, overlay ``a`` and ``b``, and ``p`` and the stacked demand."""
        c, n, rows = self.capacity, self.n, self.rows
        if self.scratch[w] is None:
            self.scratch[w] = {"ab": np.empty(2 * c), "pg": np.empty(2 * c * n), "z": np.empty(c),
                               "tg": np.empty(c) if n > 1 else None, "old": np.empty(c * (1 + n)),
                               "mask": np.empty(c, dtype=bool)}
        s = self.scratch[w]
        return SimpleNamespace(
            a=_rows(s["ab"], rows, width), b=_rows(s["ab"][c:], rows, width),
            z=_rows(s["z"], rows, width), mask=_rows(s["mask"], rows, width),
            old_eta=_rows(s["old"], rows, width), old_theta=_rows(s["old"][c:], rows, width, n),
            tg=None if s["tg"] is None else _rows(s["tg"], rows, width),
            p=_rows(s["pg"], rows, width, n), gamma=_rows(s["pg"][c * n:], rows, width, n),
            leaf_value=_rows(s["ab"], rows, 2 * width), leaf_price=_rows(s["pg"], rows, 2 * width, n))

    def step(self, points: list, pair: _IteratePair):
        """The map at the iterate ``pair``, written over it; returns ``(norm,
        distance, finite)``, one entry per row.  A row whose new slices are
        not all finite has ``finite`` False, meaningless norms and a pair
        part old, part new."""
        rows = self.rows
        gamma = points[0].gamma
        job = (points, all(p.gamma is gamma for p in points), pair.eta, pair.theta)
        self.finite[:, :rows] = True
        self.forward(job, self.root)
        _beside(lambda w: self.subtree(job, w), self.cut.parts)
        # part 1's flags stay set with one part
        np.logical_and(self.finite[0, :rows], self.finite[1, :rows], out=self.finite[0, :rows])
        self.backward(job, self.root)
        level_max = self.level_max[:, :, :, :rows]
        level_max = (np.maximum(level_max[:, 0], level_max[:, 1]) if self.cut.parts == 2
                     else level_max[:, 0])
        # fmax keeps the running max over a nan level, as max(best, nan) does;
        # a finite row's load is nan only if its old iterate is
        norm, dist = np.sqrt(np.fmax.reduce(level_max, axis=1, initial=0.0))
        return norm, dist, self.finite[0, :rows].copy()

    def subtree(self, job: tuple, w: int):
        """Levels 1 to N - 1 of root subtree ``w``, forward and then
        backward, each band tile both ways on its own."""
        for forward, tile in _Cut.walk(self.plans[w], forward=True):
            (self.forward if forward else self.backward)(job, tile)

    def forward(self, job: tuple, tile: SimpleNamespace):
        """The drift sums of one tile of a level: its parents' sums plus the
        tile's drift times dt."""
        points, shared, eta, theta = job
        k, nodes, t = tile.k, tile.nodes, tile.scratch
        # rows of different demands gather their levels on first read: the
        # root, on the calling thread before the parts start
        g = (points[0].gamma.tile(k, nodes, t.gamma[0]) if shared
             else np.stack([p.gamma.values[k][nodes] for p in points], out=t.gamma))
        for drift, (combine, above, pairs) in zip(
                _driver(eta[k][:, nodes], theta[k][:, nodes], g, t.a, t.p, t.b, t.tg), tile.sums):
            np.multiply(drift, self.lattice.dt, out=drift)
            for here, sums in pairs:
                combine(above, here, out=sums)

    def backward(self, job: tuple, tile: SimpleNamespace):
        """The new integrands, martingale and loads of one tile of a level,
        and its row maxima; the part's row flags drop the rows whose new
        slices are not all finite."""
        points, _, eta, theta = job
        lattice, dt = self.lattice, self.lattice.dt
        k, nodes, t, here = tile.k, tile.nodes, tile.scratch, tile.here
        if tile.last:
            # the leaves below the tile: each node's value sums on both its
            # children, its price sums plus each row's terminal data
            value_below, price_below = t.leaf_value, t.leaf_price
            for child in tile.leaf_value:
                np.copyto(child, here["value"])
            for r, p in enumerate(points):
                leaf = np.multiply(p.risk_aversion, p.psi[tile.leaves], out=price_below[r])
                for child in lattice.children(leaf):
                    np.add(here["price"][r], child, out=child)
        else:
            value_below, price_below = tile.below["value"], tile.below["price"]
        # the old integrands, for the distance, before the new ones land
        np.copyto(t.old_eta, eta[k][:, nodes])
        np.copyto(t.old_theta, theta[k][:, nodes])
        e = lattice.child_diff(value_below, axis=1, out=eta[k][:, nodes])
        th = lattice.child_diff(price_below, axis=1, out=theta[k][:, nodes])
        lattice.child_mean(value_below, axis=1, out=here["value"])
        lattice.child_mean(price_below, axis=1, out=here["price"])
        finite = tile.finite
        if not finite.any():
            return
        # the stock columns of th come first in th.transpose(2, 0, 1)
        sq = _square_sum([e, *th.transpose(2, 0, 1)], out=t.a, work=t.z)
        # squares of finite entries may overflow; only then look at the entries
        ok = np.isfinite(sq, out=t.mask).all(axis=1)
        if not ok.all():
            finite &= ok | (np.isfinite(e).all(axis=1) & np.isfinite(th).all(axis=(1, 2)))
            if not finite.any():
                return
        sq_dist = _square_sum([np.subtract(e, t.old_eta, out=t.b),
                               *np.subtract(th, t.old_theta, out=t.p).transpose(2, 0, 1)],
                              out=t.b, work=t.z)
        for kind, square, level_max in (("norm", sq, tile.level_max[0]),
                                        ("dist", sq_dist, tile.level_max[1])):
            load = here[kind]
            square = np.multiply(square, dt, out=load if tile.last else square)
            load = _remaining_load(lattice, None if tile.last else tile.below[kind], square,
                                   axis=1, out=load)
            if tile.first:
                load.max(axis=1, out=level_max)
            else:
                np.maximum(level_max, load.max(axis=1), out=level_max)


def picard_map(inst: Instance, eta: list, theta: list):
    """One application of the fixed-point map to a frozen integrand pair,
    given as per-step lists.

    Builds the per-leaf terminal data plus accumulated drift, takes its
    conditional-expectation martingale, and returns the representation
    integrands of that martingale as per-step lists ``(eta, theta)``.
    """
    pair = _IteratePair(inst.lattice, 1, inst.num_stocks)
    for slices, given in ((pair.eta, eta), (pair.theta, theta)):
        for mine, v in zip(slices, given, strict=True):
            mine[0] = v
    _PicardKernel([inst]).step([inst], pair)
    return pair.row(0, copy=False)


# the row state of one block of ``picard_diagnostics``: one integrand pair per
# row; at least one row per block, so peak memory does not grow with the
# number of points
_PICARD_BLOCK_BYTES = 1 << 20


def picard_diagnostics(points, tol: float = 1e-12, max_iter: int = 100,
                       ends: list | None = None) -> list[IterationDiagnostics]:
    """The fixed-point iteration from zero at each of ``points``, an
    iterable of instances on the first one's lattice with its number of
    stocks: one iteration record per point, equal to that point's own
    ``solve_picard`` record, with ``kappa`` and ``growth_bound`` at their
    defaults.  A point that breaks this raises ``ValueError``.

    The points run as rows of one ``_PicardKernel`` on the shared lattice,
    a block of ``_PICARD_BLOCK_BYTES`` of integrand pairs at a time; the
    block's one pair takes each new iterate over the old.  A row leaves the
    block when it converges, reaches ``max_iter`` or aborts on a step that
    is not finite, and the block compacts; the next block is drawn only
    when every row has left, so at most one block of instances is held.
    Given ``ends``, one entry per point, a leaving row stores there the
    integrand pair it ends on: its last finite iterate, which is the zero
    pair when the first step aborts.  An aborting step overwrites it, so it
    is computed again, alone, once the block is freed.

    From zero the driver vanishes, so the first iterate is the terminal
    integrand and its norm is the terminal norm bit for bit; a first step
    that is not finite means the terminal integrand is not, and its norm is
    infinite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pending = iter(points)
    rows = list(islice(pending, 1))  # the instance of each row
    if not rows:
        return []
    lattice, n = rows[0].lattice, rows[0].num_stocks
    block = max(1, _PICARD_BLOCK_BYTES // (8 * lattice.num_leaves * (1 + n)))
    rows += islice(pending, block - 1)
    diags: list[IterationDiagnostics] = []
    # a diverging row overflows by design and reports it as data (an aborted
    # run, inf ratios), so numpy's floating-point warnings are silenced here
    with np.errstate(all="ignore"):
        while rows:
            if any(p.lattice is not lattice or p.num_stocks != n for p in rows):
                raise ValueError("the points of one Picard run must share the first "
                                 "point's lattice and number of stocks")
            live = list(range(len(diags), len(diags) + len(rows)))  # the point of each row
            diags += [IterationDiagnostics() for _ in rows]
            kernel, pair, redo = _PicardKernel(rows), _IteratePair(lattice, len(rows), n), []
            while rows:
                norm, dist, finite = kernel.step(rows, pair)
                keep, leaving = [], []
                for r, i in enumerate(live):
                    diag = diags[i]
                    if finite[r]:
                        diag.distances.append(float(dist[r]))
                        diag.iterate_norms.append(float(norm[r]))
                        if len(diag.distances) >= 2 and diag.distances[-2] > 0:
                            diag.ratios.append(diag.distances[-1] / diag.distances[-2])
                        diag.iterations += 1
                        diag.converged = diag.distances[-1] <= tol
                        if not diag.converged and diag.iterations < max_iter:
                            keep.append(r)
                            continue
                    else:
                        diag.aborted = f"non-finite iterate at iteration {diag.iterations + 1}"
                    leaving.append((r, i))
                if ends is not None:
                    # a row the block goes on without keeps a copy: the next
                    # steps write the pair again
                    for r, i in leaving:
                        if finite[r]:
                            ends[i] = pair.row(r, copy=bool(keep))
                        else:
                            redo.append((i, rows[r]))
                if leaving:
                    live = [live[r] for r in keep]
                    rows = [rows[r] for r in keep]
                    if rows:
                        pair.keep(keep)
                        kernel.resize(len(keep))
            # every row of the block has left: only now is the next one drawn,
            # and its buffers allocated once these are freed
            del kernel, pair
            # an aborting step overwrote its row's last finite iterate: the
            # row's own run to that iterate gives it again, bit for bit
            for i, point in redo:
                again = [None]
                if diags[i].iterations:
                    picard_diagnostics([point], tol, diags[i].iterations, again)
                ends[i] = again[0] or _IteratePair(lattice, 1, n).row(0, copy=False)
            rows = list(islice(pending, block))
    for diag in diags:
        diag.final_norm = diag.iterate_norms[-1] if diag.iterate_norms else 0.0
        diag.terminal_norm = diag.iterate_norms[0] if diag.iterate_norms else np.inf
    return diags


def solve_picard(inst: Instance, tol: float = 1e-12, max_iter: int = 100,
                 growth_bound: float | None = None, kappa: float = 1.0):
    """Iterate the fixed-point map from zero until the integrand-norm
    distance between successive iterates drops below ``tol``.

    Non-convergence is a reported outcome, not an exception: the counter-
    example regime is expected to produce expansion ratios, and those are
    exactly what the diagnostics exist to record.  Returns
    ``(solution, diagnostics)``.  The iteration is ``picard_diagnostics`` on
    ``[inst]``; the solution is reconstructed from the iterate that row
    ends on, the last finite one, either way.  Its slices may still
    overflow; they are returned as computed, for the caller to check.

    The reconstruction is one more ``_backward`` pass with the driver
    frozen at that iterate, writing each value and price slice into one
    block per process.  Its residual is the largest node gap between the
    child differences of those slices and the iterate: the distance, in
    node-max form, that one more map step would move.  It is nan if any
    gap is.
    """
    ends = [None]
    (diag,) = picard_diagnostics([inst], tol, max_iter, ends)
    diag.kappa = float(kappa)
    diag.growth_bound = float(growth_bound if growth_bound is not None
                              else driver_growth_bound(inst.gamma_sup))
    solution = _solve(inst, ends=ends[0], keep=True)[0]
    eta, theta = ends[0]
    value, price = solution.scaled_value.values, solution.scaled_price.values
    residual = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(inst.lattice.num_steps - 1, -1, -1):
            for y, old in ((value[k + 1], eta[k]), (price[k + 1], theta[k])):
                gap = inst.lattice.child_diff(y)
                np.abs(np.subtract(gap, old, out=gap), out=gap)
                # np.max keeps a nan gap, which the builtin max drops against 0.0
                residual = np.max([residual, gap.max()])
    solution.residual = float(residual)
    return solution, diag


@dataclass
class ContractionReport:
    """The fixed-point thresholds evaluated on one iteration record.

    A violated bound indicates a mis-set ratio constant (kappa) or growth
    constant, never a defect of the underlying estimates: both constants
    enter the bounds as configured stand-ins for non-constructive ones.
    """

    within_contraction_radius: bool
    growth_bound_ok: list[bool]
    growth_bound_margins: list[float]
    observed_ratios: list[float]
    solution_in_small_ball: bool | None
    note: str = ("violations indicate a mis-set kappa or growth constant, "
                 "not a failure of the estimates themselves")

    def to_dict(self) -> dict:
        return asdict(self)


def contraction_report(diag: IterationDiagnostics) -> ContractionReport:
    """Evaluate the smallness condition, the per-iteration growth bound
    ``|zeta'| <= |L| + 2 kappa Theta |zeta|^2``, and whether a converged
    solution landed in the guaranteed ball of twice the terminal norm, each
    bound up to an absolute 1e-9."""
    two_kt = 2.0 * diag.kappa * diag.growth_bound
    ok: list[bool] = []
    margins: list[float] = []
    bound = diag.terminal_norm  # iteration starts at the zero integrand
    for norm in diag.iterate_norms:
        margins.append(bound - norm)
        ok.append(norm <= bound + 1e-9)
        bound = diag.terminal_norm + two_kt * norm * norm
    in_ball = None
    if diag.converged:
        in_ball = diag.final_norm <= diag.small_ball + 1e-9
    return ContractionReport(
        within_contraction_radius=diag.terminal_norm < diag.contraction_radius,
        growth_bound_ok=ok,
        growth_bound_margins=margins,
        observed_ratios=list(diag.ratios),
        solution_in_small_ball=in_ball,
    )
