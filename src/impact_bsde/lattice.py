"""Exact binary lattice carrying a discrete Brownian filtration.

The tree is full and non-recombining: step ``k`` has ``2**k`` nodes, and
node ``(k, p)`` has children ``(k + 1, 2p)`` (increment ``+sqrt(dt)``) and
``(k + 1, 2p + 1)`` (increment ``-sqrt(dt)``), each with probability 1/2.
The path index therefore encodes the increment history bit by bit, most
significant bit first.  Every adapted quantity is stored as one numpy array
per time slice, which makes conditional expectation, martingale
representation, stochastic integration and the stochastic exponential a few
strided array operations per step, exact up to floating point.  That layout
is read only through ``Lattice``'s methods (node counts, the children of a
slice, their mean and difference, expanding a slice to its children, the
descendant leaves of a node, the walk), so no other module depends on it.
A ``Lattice`` stores only scalars: the walk is computed from the node index,
whose popcount is the number of down moves on its path.  So a Markov
process, a function of the step and the walk, is stored as one state table
per step, its value at each number of down moves, and a run of nodes reads
it by gathering the table's rows by popcount.

A one-step martingale increment on this tree takes exactly two values, so
it is always a multiple of the driving increment: the predictable
representation property holds with zero error.  The integrand is
``Lattice.child_diff`` of the next slice; no other representation function
is kept.  This is the reason the driving walk is one-dimensional;
a multi-dimensional driver would break exact representation on a finite
tree.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

DEFAULT_MAX_STEPS = 22
MAX_STEPS_ENV = "IMPACT_BSDE_MAX_STEPS"
# the nodes a state table is gathered for at a time
_GATHER_NODES = 1 << 12


def _downs(lo: int, hi: int) -> np.ndarray:
    """The number of down moves on the path to each node ``lo`` to ``hi -
    1`` of a step, ``popcount(p)``, counted in place on int64 indices (no
    allowed depth overflows them)."""
    p = np.arange(lo, hi, dtype=np.int64)
    return np.bitwise_count(p, out=p)


# the down moves of each offset into a run of ``Lattice.gather``
_OFFSET_DOWNS = _downs(0, _GATHER_NODES)


class LatticeSizeError(ValueError):
    """Requested tree depth exceeds the configured node budget."""


class ExponentialGuardError(ValueError):
    """A stochastic-exponential factor would become nonpositive."""


def max_steps_cap() -> int:
    """Depth cap for new lattices; override via ``IMPACT_BSDE_MAX_STEPS``."""
    raw = os.environ.get(MAX_STEPS_ENV)
    if raw is None:
        return DEFAULT_MAX_STEPS
    try:
        return int(raw)
    except ValueError as exc:
        raise LatticeSizeError(
            f"{MAX_STEPS_ENV} must be an integer, got {raw!r}"
        ) from exc


class Lattice:
    """Full binary tree over ``[0, horizon]`` with ``num_steps`` steps.

    ``walk(k)[p]`` is the signed count of up minus down moves on the path
    to node ``(k, p)``, so the driving walk equals ``walk(k) * sqrt(dt)``
    exactly; integer bookkeeping keeps level comparisons (hitting times,
    sign conventions) free of rounding.  The counts are computed from the
    node index on each call; the lattice stores only its scalars.
    """

    def __init__(self, num_steps: int, horizon: float):
        cap = max_steps_cap()
        if not isinstance(num_steps, (int, np.integer)) or num_steps < 1:
            raise ValueError(f"num_steps must be a positive integer, got {num_steps!r}")
        if num_steps > cap:
            raise LatticeSizeError(
                f"num_steps={num_steps} exceeds the cap of {cap}: a full tree has "
                f"2**{num_steps} leaves (2**{int(num_steps) + 3} bytes per stored "
                f"slice); raise {MAX_STEPS_ENV} only if the memory estimate is acceptable"
            )
        if not (isinstance(horizon, (int, float, np.floating)) and horizon > 0):
            raise ValueError(f"horizon must be a positive real, got {horizon!r}")
        self.num_steps = int(num_steps)
        self.horizon = float(horizon)
        self.dt = self.horizon / self.num_steps
        if not self.dt > 0:
            raise ValueError(f"horizon {horizon!r} over {num_steps} steps gives a step of 0")
        self.sqrt_dt = float(np.sqrt(self.dt))

    @property
    def num_leaves(self) -> int:
        return self.nodes(self.num_steps)

    def nodes(self, k: int) -> int:
        """Number of nodes at step ``k``."""
        return 1 << k

    def children(self, x: np.ndarray, axis: int = 0):
        """The up and down children of every node of slice ``x``, as views."""
        lead = (slice(None),) * axis
        return x[lead + (slice(0, None, 2),)], x[lead + (slice(1, None, 2),)]

    def child_mean(self, x: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Mean of the two children of every node, one slice earlier (into
        ``out`` when given)."""
        up, down = self.children(x, axis)
        return np.multiply(0.5, np.add(up, down, out=out), out=out)

    def child_diff(self, x: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Representation quotient ``(x_up - x_down) / (2 sqrt(dt))`` (into
        ``out`` when given)."""
        up, down = self.children(x, axis)
        return np.divide(np.subtract(up, down, out=out), 2.0 * self.sqrt_dt, out=out)

    def to_children(self, x: np.ndarray) -> np.ndarray:
        """Slice ``x`` one step later: each node's value on both its children."""
        return np.repeat(x, 2, axis=0)

    def from_children(self, up: np.ndarray, down: np.ndarray) -> np.ndarray:
        """The slice whose up and down children are ``up`` and ``down``."""
        out = np.empty((2 * len(up), *up.shape[1:]))
        out[0::2], out[1::2] = up, down
        return out

    def subtrees(self, x: np.ndarray, nodes: int, axis: int = 0) -> np.ndarray:
        """Leaf slice ``x`` regrouped as the descendant leaves of each of the
        ``nodes`` nodes of one step, that node axis at ``axis``."""
        return x.reshape(*x.shape[:axis], nodes, -1, *x.shape[axis + 1:])

    def zero_slices(self, *shape: int) -> list[np.ndarray]:
        """One slice per step, ``(nodes(k), *shape)`` each, as views of one
        zeroed block."""
        return self.levels(np.zeros(((2 << self.num_steps) - 1, *shape)))

    def levels(self, block: np.ndarray) -> list[np.ndarray]:
        """``block`` cut along its first axis into one view per step from
        step 0, ``nodes(k)`` entries for step ``k``: an axis of
        ``nodes(s) - 1`` entries holds steps 0 to ``s - 1``."""
        steps = (len(block) + 1).bit_length() - 1
        return [block[(1 << k) - 1:(2 << k) - 1] for k in range(steps)]

    def tiles(self, k: int, size: int, part: int = 0, parts: int = 1):
        """The nodes of step ``k`` below subtree ``part`` of ``parts``
        equal ones (``parts`` a power of two, at most ``nodes(k)``), in runs
        of ``size`` nodes rounded down to a power of two.  Each run comes as
        five slices: its nodes at step ``k`` and their children at step
        ``k + 1``; then, counted from the subtree's first node at each step,
        its nodes, their children and their parents at step ``k - 1``
        (index 0, the one node above the subtree, where step ``k - 1`` has
        fewer nodes than ``parts``)."""
        share = self.nodes(k) // parts
        size = 1 << (min(size, share).bit_length() - 1)
        start = part * share
        for lo in range(0, share, size):
            hi = lo + size
            yield (slice(start + lo, start + hi), slice(2 * (start + lo), 2 * (start + hi)),
                   slice(lo, hi), slice(2 * lo, 2 * hi), slice(lo // 2, (hi + 1) // 2))

    def span(self, k: int, part: int, parts: int) -> slice:
        """The nodes of step ``k`` below subtree ``part`` of ``parts`` equal
        ones (``parts`` a power of two), or the one node above it where the
        step has fewer nodes than ``parts``: the first node is the one
        ``tiles`` counts that subtree's runs from."""
        lo = part * self.nodes(k) // parts
        return slice(lo, max(lo + 1, (part + 1) * self.nodes(k) // parts))

    def walk(self, k: int) -> np.ndarray:
        """The int32 up-minus-down count of every node of step ``k``: each
        down move on the path to node ``p`` is a set bit of ``p``, so it is
        ``k - 2 * _downs``."""
        return k - 2 * _downs(0, self.nodes(k)).astype(np.int32)

    def states(self, k: int) -> np.ndarray:
        """The int32 walk of each state of step ``k``: state ``j``, the nodes
        with ``j`` down moves, is at ``k - 2 * j``.  Every state occurs at
        its step."""
        return k - 2 * np.arange(k + 1, dtype=np.int32)

    def gather(self, table: np.ndarray, nodes: slice, out: np.ndarray) -> np.ndarray:
        """Into ``out``, row ``table[j]`` of a state table for each node of
        ``nodes`` (a run of ``tiles`` or a whole step), ``j`` its down moves;
        a one-row table's row for every node.  No index array is made: the
        nodes of a run of at most ``_GATHER_NODES`` from a multiple of its
        power-of-two width have the run start's down moves plus those of
        their offset."""
        if len(table) == 1:
            out[...] = table
            return out
        for lo in range(nodes.start, nodes.stop, _GATHER_NODES):
            hi = min(lo + _GATHER_NODES, nodes.stop)
            np.take(table[lo.bit_count():], _OFFSET_DOWNS[:hi - lo], axis=0,
                    mode="clip", out=out[lo - nodes.start:hi - nodes.start])
        return out

    def __repr__(self) -> str:
        return f"Lattice(num_steps={self.num_steps}, horizon={self.horizon})"


def build_lattice(num_steps: int, horizon: float) -> Lattice:
    """Build the depth-``num_steps`` binary lattice over ``[0, horizon]``."""
    return Lattice(num_steps, horizon)


def node_max(slices) -> tuple[float, tuple[int, int]]:
    """Largest node value over a tree and the node attaining it.

    ``slices`` yields ``(step, values)`` pairs in any order, one 1-d array
    of per-node values per step (a scalar counts as a one-node slice); each
    is reduced as it arrives, so a backward pass can feed its slices without
    the tree ever being held whole.  The step label only has to be
    orderable: a tuple such as ``(center, step)`` ranks a family of trees.

    Tie rule: the node reported is the first in ``(step, path)`` order that
    attains the maximum, whatever order the slices came in.  NaN rule: any
    nan wins, and the first nan node is reported.  A minimum is the negated
    ``node_max`` of the negated slices, which is exact.
    """
    def ranked():
        for k, v in slices:
            v = np.atleast_1d(v)
            p = int(np.argmax(v))  # the first maximum, or the first nan
            x = float(v[p])
            # a nan ranks first, then a larger value, then an earlier node
            yield x == x, -x if x == x else 0.0, (k, p), x

    top = min(ranked(), default=None)
    if top is None:
        raise ValueError("node_max of no slices")
    return top[3], top[2]


def process_gap(x, y, scale_y: float = 1.0) -> float:
    """Node max of ``|x - scale_y * y|`` over two adapted or two predictable
    processes, taken over every component, in one temporary per level."""
    def gaps():
        for k, (a, b) in enumerate(zip(x.values, y.values)):
            gap = np.multiply(scale_y, b)
            np.abs(np.subtract(a, gap, out=gap), out=gap)
            yield k, gap if gap.ndim == 1 else gap.max(axis=1)

    return node_max(gaps())[0]


def _validate_slices(lattice: Lattice, values: list[np.ndarray], count: int, what: str):
    if len(values) != count:
        raise ValueError(f"{what} needs {count} slices, got {len(values)}")
    dim = None
    for k, v in enumerate(values):
        if v.ndim not in (1, 2) or v.shape[0] != lattice.nodes(k):
            raise ValueError(
                f"{what} slice {k} has shape {v.shape}, expected leading size {lattice.nodes(k)}"
            )
        d = None if v.ndim == 1 else v.shape[1]
        if k == 0:
            dim = d
        elif d != dim:
            raise ValueError(f"{what} slice {k} dimension {d} != slice 0 dimension {dim}")
    return dim


class AdaptedProcess:
    """One value per tree node: ``values[k]`` has shape ``(2**k,)`` for a
    scalar process or ``(2**k, dim)`` for a vector one.  Measurability is
    guaranteed by the storage layout."""

    def __init__(self, lattice: Lattice, values):
        vals = [np.asarray(v, dtype=float) for v in values]
        self.dim = _validate_slices(lattice, vals, lattice.num_steps + 1, "adapted process")
        self.lattice = lattice
        self.values = vals

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def scaled(self, factor: float) -> "AdaptedProcess":
        return AdaptedProcess(self.lattice, [factor * v for v in self.values])


class PredictableProcess:
    """One value per (step, node-at-step-start): ``values[k]`` applies on
    the step from ``k`` to ``k + 1`` and is measurable at ``k``.

    A Markov process is built from ``tables`` instead, one ``(k + 1, n)``
    state table per step (row ``j`` is the value at every node with ``j``
    down moves) or a ``(1, n)`` row every node of the step shares, and
    stores only those: ``values`` are gathered on first read and kept, and
    ``tile`` reads a run of nodes without them."""

    def __init__(self, lattice: Lattice, values=None, tables=None):
        self.lattice, self.tables = lattice, tables
        if tables is not None:
            self.dim = tables[0].shape[-1]
        else:
            vals = [np.asarray(v, dtype=float) for v in values]
            self.dim = _validate_slices(lattice, vals, lattice.num_steps, "predictable process")
            self.values = vals

    @cached_property
    def values(self) -> list[np.ndarray]:
        """The levels of a process built from tables, gathered on first read."""
        lattice = self.lattice
        return [lattice.gather(t, slice(0, lattice.nodes(k)),
                               np.empty((lattice.nodes(k), self.dim)))
                for k, t in enumerate(self.tables)]

    def tile(self, k: int, nodes: slice, out: np.ndarray) -> np.ndarray:
        """``values[k][nodes]``, ``nodes`` a run of ``Lattice.tiles`` or the
        whole step: a slice of the levels where they exist, else a one-row
        table's row broadcast to the run, or the table's rows gathered into
        ``out`` (``(nodes, dim)``)."""
        if self.tables is None or "values" in self.__dict__:
            return self.values[k][nodes]
        table = self.tables[k]
        if len(table) == 1:
            return np.broadcast_to(table, (nodes.stop - nodes.start, self.dim))
        return self.lattice.gather(table, nodes, out)

    def scaled(self, factor: float) -> "PredictableProcess":
        if self.tables is not None:
            return PredictableProcess(self.lattice, tables=[factor * t for t in self.tables])
        return PredictableProcess(self.lattice, [factor * v for v in self.values])


# The stock axis is the last axis of a vector slice (``dim`` of the process
# types above); every reduction over it goes through these primitives.

def stock_sum(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=-1)``, except that one stock returns the column
    itself, a view."""
    return _stock_sum(x)


def _stock_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``stock_sum`` under a private name, into ``out`` when given; one
    stock returns the column and ignores ``out``: use the return value.  The
    optimality check's worker thread sums through it: perfbench's span
    tracer wraps the package's public functions and keeps one span stack,
    which two threads would interleave."""
    if x.shape[-1] == 1:
        return x[..., 0]
    return x.sum(axis=-1, out=out)


def stock_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the stock axis.  One stock gives ``|x|``, exact at
    every magnitude.  Several square each row scaled by a power of two that
    brings its largest entry into [1/2, 1), and scale the root back: the
    scaling is exact, so wherever ``np.linalg.norm(x, axis=-1)``'s squares
    are normal floats the bits are its own, and beyond that range (above
    ~1.3e154, below ~1.5e-154) the squares neither overflow nor underflow."""
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    exponent = np.frexp(np.max(np.abs(x), axis=-1))[1]
    y = np.ldexp(x, -exponent[..., None])
    return np.ldexp(np.sqrt(stock_sum(y * y)), exponent)


def _square_sum(columns, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Per-node ``sum_j c_j**2`` over equal-length columns, added in column
    order at every width, into ``out`` (which may be the first column) with
    each later square in ``work`` when given.  The fused Picard kernel and
    ``h_bmo_norm`` sum a joint (value, price) integrand this way, from its
    separate columns: no stacked copy exists for ``stock_sum``, whose numpy
    sum is pairwise from eight columns on, and one order keeps the two in
    step."""
    columns = iter(columns)
    first = next(columns)
    total = np.multiply(first, first, out=out)
    for c in columns:
        total += np.multiply(c, c, out=work)
    return total


def conditional_expectation(x, lattice: Lattice | None = None) -> AdaptedProcess:
    """Exact backward 1/2-1/2 averaging of a terminal payoff.

    ``x`` is either a terminal array (one row per leaf) or an adapted
    process, in which case its terminal slice is used.  The result is the
    tower of conditional expectations, a martingale by construction.
    """
    if isinstance(x, AdaptedProcess):
        lattice = x.lattice
        terminal = x.terminal
    else:
        if lattice is None:
            raise ValueError("lattice required when x is a raw terminal array")
        terminal = np.asarray(x, dtype=float)
    if terminal.shape[0] != lattice.num_leaves:
        raise ValueError(
            f"terminal has {terminal.shape[0]} rows, lattice has {lattice.num_leaves} leaves"
        )
    vals: list = [None] * (lattice.num_steps + 1)
    vals[lattice.num_steps] = terminal
    for k in range(lattice.num_steps - 1, -1, -1):
        vals[k] = lattice.child_mean(vals[k + 1])
    return AdaptedProcess(lattice, vals)


def _relative_defect(proc: AdaptedProcess, means) -> tuple[float, tuple[int, int]]:
    """Largest relative one-step defect ``|E_k[X_{k+1}] - X_k| / max(1, |X_k|)``
    and its node; ``means`` yields ``E_k[X_{k+1}]`` slice by slice, under
    whichever one-step weights the caller means."""
    size = np.abs if proc.dim is None else stock_norm
    return node_max((k, size(mean - proc.values[k]) / np.maximum(1.0, size(proc.values[k])))
                    for k, mean in enumerate(means))


def martingale_defect(proc: AdaptedProcess) -> tuple[float, tuple[int, int]]:
    """Largest relative one-step defect ``|E_k[X_{k+1}] - X_k|`` and its
    node, under ``node_max``'s rules (a nan defect wins)."""
    return _relative_defect(proc, (proc.lattice.child_mean(v) for v in proc.values[1:]))


def stochastic_integral(zeta: PredictableProcess, x: AdaptedProcess) -> AdaptedProcess:
    """Discrete integral ``sum_{j<k} zeta_j (x_{j+1} - x_j)``, started at 0.

    Componentwise when the integrator is scalar (a vector integrand yields a
    vector integral); when integrand and integrator are both vectors of the
    same dimension, the per-step inner product yields a scalar integral.
    """
    lat = x.lattice
    if x.dim is not None and zeta.dim != x.dim:
        raise ValueError(
            f"integrand dimension {zeta.dim} incompatible with integrator dimension {x.dim}"
        )
    out_dim = zeta.dim if x.dim is None else None
    vals: list = [None] * (lat.num_steps + 1)
    vals[0] = np.zeros(1) if out_dim is None else np.zeros((1, out_dim))
    for k in range(lat.num_steps):
        dx = x.values[k + 1] - lat.to_children(x.values[k])
        zz = lat.to_children(zeta.values[k])
        if x.dim is not None:
            inc = stock_sum(zz * dx)
        else:
            inc = zz * (dx if out_dim is None else dx[:, None])
        vals[k + 1] = lat.to_children(vals[k]) + inc
    return AdaptedProcess(lat, vals)


def stochastic_exponential(zeta: PredictableProcess) -> AdaptedProcess:
    """Multiplicative process ``Z_0 = 1``, ``Z_{k+1} = Z_k (1 + zeta_k dB_k)``.

    An exact martingale.  Requires ``|zeta_k| sqrt(dt) < 1`` everywhere so
    that both one-step factors stay positive.
    """
    if zeta.dim is not None:
        raise ValueError("stochastic exponential takes a scalar integrand")
    lat = zeta.lattice
    vals: list = [None] * (lat.num_steps + 1)
    vals[0] = np.ones(1)
    for k in range(lat.num_steps):
        move = zeta.values[k] * lat.sqrt_dt
        if np.any(np.abs(move) >= 1.0) or not np.all(np.isfinite(move)):
            p = int(np.argmax(np.abs(move)))
            raise ExponentialGuardError(
                f"|integrand| * sqrt(dt) = {abs(move[p]):.6g} >= 1 at node "
                f"(step {k}, path {p}); the exponential would lose positivity"
            )
        vals[k + 1] = lat.from_children(vals[k] * (1.0 + move), vals[k] * (1.0 - move))
    return AdaptedProcess(lat, vals)

