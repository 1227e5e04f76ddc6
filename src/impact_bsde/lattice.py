"""Exact binary lattice carrying a discrete Brownian filtration.

The tree is full and non-recombining: step ``k`` has ``2**k`` nodes, and
node ``(k, p)`` has children ``(k + 1, 2p)`` (increment ``+sqrt(dt)``) and
``(k + 1, 2p + 1)`` (increment ``-sqrt(dt)``), each with probability 1/2.
The path index therefore encodes the increment history bit by bit, most
significant bit first.  Every adapted quantity is stored as one numpy array
per time slice, which makes conditional expectation, martingale
representation, stochastic integration and the stochastic exponential a few
strided array operations per step, exact up to floating point.

A one-step martingale increment on this tree takes exactly two values, so
it is always a multiple of the driving increment: the predictable
representation property holds with zero error.  This is the reason the
driving walk is one-dimensional; a multi-dimensional driver would break
exact representation on a finite tree.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_MAX_STEPS = 22
MAX_STEPS_ENV = "IMPACT_BSDE_MAX_STEPS"


class LatticeSizeError(ValueError):
    """Requested tree depth exceeds the configured node budget."""


class MartingaleError(ValueError):
    """Process offered for representation fails the martingale check."""


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

    ``b_int[k][p]`` holds the signed count of up minus down moves on the
    path to node ``(k, p)``, so the walk equals ``b_int * sqrt(dt)``
    exactly; integer bookkeeping keeps level comparisons (hitting times,
    sign conventions) free of rounding.
    """

    def __init__(self, num_steps: int, horizon: float, max_steps: int | None = None):
        cap = max_steps_cap() if max_steps is None else int(max_steps)
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
        self.sqrt_dt = float(np.sqrt(self.dt))
        levels = [np.zeros(1, dtype=np.int32)]
        step = np.array([1, -1], dtype=np.int32)
        for k in range(self.num_steps):
            levels.append(np.repeat(levels[k], 2) + np.tile(step, 1 << k))
        self.b_int = levels
        self._brownian: AdaptedProcess | None = None

    @property
    def num_leaves(self) -> int:
        return 1 << self.num_steps

    def brownian(self) -> "AdaptedProcess":
        """The driving walk as an adapted process (an exact martingale)."""
        if self._brownian is None:
            self._brownian = AdaptedProcess(
                self, [b * self.sqrt_dt for b in self.b_int]
            )
        return self._brownian

    def __repr__(self) -> str:
        return f"Lattice(num_steps={self.num_steps}, horizon={self.horizon})"


def build_lattice(num_steps: int, horizon: float, max_steps: int | None = None) -> Lattice:
    """Build the depth-``num_steps`` binary lattice over ``[0, horizon]``."""
    return Lattice(num_steps, horizon, max_steps=max_steps)


def child_mean(x: np.ndarray) -> np.ndarray:
    """Mean of the two children of every node: ``x`` is one slice of a
    process (or of a per-node load), the result lives one slice earlier."""
    return 0.5 * (x[0::2] + x[1::2])


def child_diff(x: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Representation quotient ``(x_up - x_down) / (2 sqrt(dt))``: the
    integrand that carries one slice of a martingale from its parents."""
    return (x[0::2] - x[1::2]) / (2.0 * lattice.sqrt_dt)


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
    processes, taken over every component."""
    return node_max(
        (k, np.abs(a - scale_y * b).reshape(len(a), -1).max(axis=1))
        for k, (a, b) in enumerate(zip(x.values, y.values))
    )[0]


def _validate_slices(lattice: Lattice, values: list[np.ndarray], count: int, what: str):
    if len(values) != count:
        raise ValueError(f"{what} needs {count} slices, got {len(values)}")
    dim = None
    for k, v in enumerate(values):
        if v.ndim not in (1, 2) or v.shape[0] != (1 << k):
            raise ValueError(
                f"{what} slice {k} has shape {v.shape}, expected leading size {1 << k}"
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

    @property
    def initial(self):
        v = self.values[0][0]
        return float(v) if self.dim is None else np.asarray(v)

    def scaled(self, factor: float) -> "AdaptedProcess":
        return AdaptedProcess(self.lattice, [factor * v for v in self.values])


class PredictableProcess:
    """One value per (step, node-at-step-start): ``values[k]`` applies on
    the step from ``k`` to ``k + 1`` and is measurable at ``k``."""

    def __init__(self, lattice: Lattice, values):
        vals = [np.asarray(v, dtype=float) for v in values]
        self.dim = _validate_slices(lattice, vals, lattice.num_steps, "predictable process")
        self.lattice = lattice
        self.values = vals

    def scaled(self, factor: float) -> "PredictableProcess":
        return PredictableProcess(self.lattice, [factor * v for v in self.values])


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
        vals[k] = child_mean(vals[k + 1])
    return AdaptedProcess(lattice, vals)


def _relative_defect(proc: AdaptedProcess, means) -> tuple[float, tuple[int, int]]:
    """Largest relative one-step defect ``|E_k[X_{k+1}] - X_k| / max(1, |X_k|)``
    and its node; ``means`` yields ``E_k[X_{k+1}]`` slice by slice, under
    whichever one-step weights the caller means."""
    size = np.abs if proc.dim is None else (lambda x: np.linalg.norm(x, axis=1))
    return node_max((k, size(mean - proc.values[k]) / np.maximum(1.0, size(proc.values[k])))
                    for k, mean in enumerate(means))


def martingale_defect(proc: AdaptedProcess) -> tuple[float, tuple[int, int]]:
    """Largest relative one-step defect ``|E_k[X_{k+1}] - X_k|`` and its
    node, under ``node_max``'s rules (a nan defect wins)."""
    return _relative_defect(proc, (child_mean(v) for v in proc.values[1:]))


def is_martingale(proc: AdaptedProcess, tol: float = 1e-12) -> bool:
    return martingale_defect(proc)[0] <= tol


def martingale_representation(m: AdaptedProcess, tol: float = 1e-12) -> PredictableProcess:
    """Integrand with ``M_{k+1} - M_k = zeta_k * dB_k`` exactly at every node.

    The two child values determine it: ``zeta_k = (M_up - M_down) / (2 sqrt(dt))``.
    Inputs failing the martingale check at relative tolerance ``tol`` are
    refused, since no exact representation exists for them.
    """
    defect, node = martingale_defect(m)
    if not defect <= tol:  # a nan defect is refused too
        raise MartingaleError(
            f"martingale defect {defect:.3e} at node (step {node[0]}, path {node[1]}) "
            f"exceeds tolerance {tol:.1e}; representation refused"
        )
    lat = m.lattice
    return PredictableProcess(lat, [child_diff(v, lat) for v in m.values[1:]])


def stochastic_integral(zeta: PredictableProcess, x: AdaptedProcess) -> AdaptedProcess:
    """Discrete integral ``sum_{j<k} zeta_j (x_{j+1} - x_j)``, started at 0.

    Componentwise when the integrator is scalar (a vector integrand yields a
    vector integral); when integrand and integrator are both vectors of the
    same dimension, the per-step inner product yields a scalar integral.
    """
    lat = x.lattice
    if x.dim is None:
        out_dim = zeta.dim
        inner = False
    else:
        if zeta.dim != x.dim:
            raise ValueError(
                f"integrand dimension {zeta.dim} incompatible with integrator dimension {x.dim}"
            )
        out_dim = None
        inner = True
    vals: list = [None] * (lat.num_steps + 1)
    vals[0] = np.zeros(1) if out_dim is None else np.zeros((1, out_dim))
    for k in range(lat.num_steps):
        dx = x.values[k + 1] - np.repeat(x.values[k], 2, axis=0)
        zz = np.repeat(zeta.values[k], 2, axis=0)
        if inner:
            inc = np.sum(zz * dx, axis=1)
        elif out_dim is not None:
            inc = zz * dx[:, None]
        else:
            inc = zz * dx
        vals[k + 1] = np.repeat(vals[k], 2, axis=0) + inc
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
        nxt = np.empty(1 << (k + 1))
        nxt[0::2] = vals[k] * (1.0 + move)
        nxt[1::2] = vals[k] * (1.0 - move)
        vals[k + 1] = nxt
    return AdaptedProcess(lat, vals)


def reflect_adapted(proc: AdaptedProcess) -> AdaptedProcess:
    """Path reflection (every up/down move swapped): index order reverses."""
    return AdaptedProcess(proc.lattice, [v[::-1].copy() for v in proc.values])
