"""Market inputs: risk aversion, demand and dividend specifications.

Sign convention: ``sign(0) = +1`` everywhere.  The walk hits zero with
positive probability on the lattice, so the tie-break is visible (unlike in
the continuum, where it is immaterial); it is applied consistently to
demands, dividends and hitting times.  The demand applied on the step from
``k`` to ``k + 1`` is evaluated from the path at ``k`` (left-continuous
reading of predictability).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Lattice, PredictableProcess
from .norms import sup_norm


def sign_plus(x) -> np.ndarray:
    """Sign with the ``sign(0) = +1`` tie-break."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def _broadcast_vector(value, num_stocks: int, what: str) -> np.ndarray:
    row = np.atleast_1d(np.asarray(value, dtype=float))
    if row.ndim != 1:
        raise ValueError(f"{what} must be a scalar or flat vector, got shape {row.shape}")
    if row.size == 1 and num_stocks > 1:
        row = np.repeat(row, num_stocks)
    if row.size != num_stocks:
        raise ValueError(f"{what} has {row.size} components, expected {num_stocks}")
    if not np.all(np.isfinite(row)):
        raise ValueError(f"{what} contains non-finite entries")
    return row


class StoppingTime:
    """Stopping rule stored per node: ``stop_step[k][p]`` is the stop step
    if it is ``<= k`` and ``-1`` if the rule has not fired on that path yet.
    Because decisions are taken node by node, measurability is automatic."""

    def __init__(self, lattice: Lattice, stop_step: list[np.ndarray]):
        if len(stop_step) != lattice.num_steps + 1:
            raise ValueError("stop_step needs one slice per time point")
        self.lattice = lattice
        self.stop_step = stop_step

    @classmethod
    def from_node_decisions(cls, lattice: Lattice, decisions: list[np.ndarray]) -> "StoppingTime":
        """Fold per-node stop decisions (True = stop now, if still running)
        into per-node stop steps."""
        if len(decisions) != lattice.num_steps + 1:
            raise ValueError("decisions needs one slice per time point")
        steps = [np.where(decisions[0], 0, -1).astype(np.int32)]
        for k in range(1, lattice.num_steps + 1):
            carried = np.repeat(steps[k - 1], 2)
            steps.append(np.where(carried >= 0, carried,
                                  np.where(decisions[k], k, -1)).astype(np.int32))
        return cls(lattice, steps)

    @property
    def leaf_steps(self) -> np.ndarray:
        """Stop step per leaf path, with never-stopped capped at the horizon."""
        last = self.stop_step[-1]
        return np.where(last >= 0, last, self.lattice.num_steps).astype(np.int32)

    def stopped_by(self, k: int) -> np.ndarray:
        """Boolean per step-``k`` node: has the rule fired at or before ``k``."""
        return self.stop_step[k] >= 0

    def stopped_before(self, k: int) -> np.ndarray:
        """Boolean per step-``k`` node: fired strictly before ``k``."""
        s = self.stop_step[k]
        return (s >= 0) & (s < k)


def hitting_time_tau(lattice: Lattice, level: float, from_step: int = 0) -> StoppingTime:
    """Earliest step ``>= from_step`` at which the walk equals ``level``,
    capped at the horizon.  Levels that are not lattice-attainable (not an
    integer multiple of ``sqrt(dt)``) are simply never hit."""
    if not 0 <= from_step <= lattice.num_steps:
        raise ValueError(f"from_step={from_step} outside 0..{lattice.num_steps}")
    target = level / lattice.sqrt_dt
    rounded = int(np.rint(target))
    attainable = abs(target - rounded) <= 1e-9 * max(1.0, abs(target))
    decisions = []
    for k in range(lattice.num_steps + 1):
        if attainable and k >= from_step:
            decisions.append(lattice.b_int[k] == rounded)
        else:
            decisions.append(np.zeros(1 << k, dtype=bool))
    return StoppingTime.from_node_decisions(lattice, decisions)


# --- demand specifications -------------------------------------------------

@dataclass(frozen=True)
class ConstantDemand:
    """Constant vector demand."""
    value: object = 1.0

    def step_values(self, lattice: Lattice, num_stocks: int) -> list[np.ndarray]:
        row = _broadcast_vector(self.value, num_stocks, "constant demand")
        return [np.tile(row, (1 << k, 1)) for k in range(lattice.num_steps)]


@dataclass(frozen=True)
class NegativeSignOfB:
    """-scale * sign(walk at step start), same in every component."""
    scale: float = 1.0

    def step_values(self, lattice: Lattice, num_stocks: int) -> list[np.ndarray]:
        return [
            np.tile((-self.scale * sign_plus(lattice.b_int[k]))[:, None], (1, num_stocks))
            for k in range(lattice.num_steps)
        ]


@dataclass(frozen=True)
class PiecewiseConstantDemand:
    """Deterministic rebalancing schedule: ``((step, vector), ...)``; each
    vector applies from its step up to the next scheduled step."""
    schedule: tuple

    def step_values(self, lattice: Lattice, num_stocks: int) -> list[np.ndarray]:
        points = sorted(self.schedule, key=lambda item: item[0])
        if not points or points[0][0] != 0:
            raise ValueError("piecewise schedule must start at step 0")
        steps = [int(s) for s, _ in points]
        if len(set(steps)) != len(steps):
            raise ValueError("piecewise schedule has duplicate steps")
        rows = [_broadcast_vector(v, num_stocks, f"schedule entry at step {s}")
                for s, v in points]
        out = []
        idx = -1
        for k in range(lattice.num_steps):
            while idx + 1 < len(steps) and steps[idx + 1] <= k:
                idx += 1
            out.append(np.tile(rows[idx], (1 << k, 1)))
        return out


@dataclass(frozen=True)
class LocalizedDemand:
    """Inner demand gated by the strict-past indicator of a hitting time:
    zero on steps up to and including the hit, the inner value after it."""
    inner: object
    level: float = 0.0
    from_step: int = 0

    def step_values(self, lattice: Lattice, num_stocks: int) -> list[np.ndarray]:
        base = self.inner.step_values(lattice, num_stocks)
        tau = hitting_time_tau(lattice, self.level, self.from_step)
        # demand on (k, k+1] survives iff tau <= k, i.e. every time in the
        # step interval lies strictly after tau
        return [base[k] * tau.stopped_by(k)[:, None] for k in range(lattice.num_steps)]


class TableDemand:
    """Explicit per-node values, one array of shape (2**k, n) per step."""

    def __init__(self, values):
        self.values = [np.asarray(v, dtype=float) for v in values]

    def step_values(self, lattice: Lattice, num_stocks: int) -> list[np.ndarray]:
        if len(self.values) != lattice.num_steps:
            raise ValueError(
                f"table demand has {len(self.values)} steps, lattice needs {lattice.num_steps}"
            )
        out = []
        for k, v in enumerate(self.values):
            if v.ndim == 1:
                v = v[:, None]
            if v.shape != (1 << k, num_stocks):
                raise ValueError(
                    f"table demand step {k} has shape {v.shape}, expected {(1 << k, num_stocks)}"
                )
            out.append(v)
        return out


# --- dividend specifications -------------------------------------------------

@dataclass(frozen=True)
class SignOfBT:
    """scale * sign(terminal walk), same in every component."""
    scale: float = 1.0

    def leaf_values(self, lattice: Lattice, num_stocks: int) -> np.ndarray:
        col = self.scale * sign_plus(lattice.b_int[-1])
        return np.tile(col[:, None], (1, num_stocks))


@dataclass(frozen=True)
class LinearClipped:
    """clip(slope * terminal walk, -bound, +bound) in every component."""
    slope: float = 1.0
    bound: float = 1.0

    def leaf_values(self, lattice: Lattice, num_stocks: int) -> np.ndarray:
        col = np.clip(self.slope * lattice.b_int[-1] * lattice.sqrt_dt,
                      -self.bound, self.bound)
        return np.tile(col[:, None], (1, num_stocks))


@dataclass(frozen=True)
class Digital:
    """Indicator of the terminal walk exceeding ``strike``, shifted by
    ``offset``: values in {1 - offset, -offset}."""
    strike: float = 0.0
    offset: float = 0.5

    def leaf_values(self, lattice: Lattice, num_stocks: int) -> np.ndarray:
        bt = lattice.b_int[-1] * lattice.sqrt_dt
        col = (bt > self.strike).astype(float) - self.offset
        return np.tile(col[:, None], (1, num_stocks))


@dataclass(frozen=True)
class LocalizedDividend:
    """Inner dividend killed unless the hitting time fires strictly before
    the horizon."""
    inner: object
    level: float = 0.0
    from_step: int = 0

    def leaf_values(self, lattice: Lattice, num_stocks: int) -> np.ndarray:
        base = self.inner.leaf_values(lattice, num_stocks)
        tau = hitting_time_tau(lattice, self.level, self.from_step)
        alive = (tau.leaf_steps < lattice.num_steps).astype(float)
        return base * alive[:, None]


class TableDividend:
    """Explicit per-leaf vectors, shape (2**N, n)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def leaf_values(self, lattice: Lattice, num_stocks: int) -> np.ndarray:
        v = self.values
        if v.ndim == 1:
            v = v[:, None]
        if v.shape != (lattice.num_leaves, num_stocks):
            raise ValueError(
                f"table dividend has shape {v.shape}, expected {(lattice.num_leaves, num_stocks)}"
            )
        return v


# --- evaluation -------------------------------------------------------------

def evaluate_demand(spec, lattice: Lattice, num_stocks: int = 1) -> PredictableProcess:
    """Evaluate a demand spec to a predictable n-vector process."""
    return PredictableProcess(lattice, spec.step_values(lattice, num_stocks))


def evaluate_dividend(spec, lattice: Lattice, num_stocks: int = 1, center: bool = False):
    """Evaluate a dividend spec to per-leaf n-vectors.

    Returns ``(leaf_values, mean)``; ``mean`` is the exact expectation under
    the uniform leaf weights.  With ``center=True`` the mean is subtracted
    (the returned ``mean`` is still the original one).
    """
    vals = spec.leaf_values(lattice, num_stocks)
    if not np.all(np.isfinite(vals)):
        raise ValueError("dividend evaluation produced non-finite values")
    mean = vals.mean(axis=0)
    if center:
        vals = vals - mean
    return vals, mean


@dataclass
class MarketConfig:
    """Full market instance: preferences, demand, dividend, lattice geometry."""
    risk_aversion: float
    num_stocks: int
    demand: object
    dividend: object
    num_steps: int
    horizon: float
    center_dividend: bool = False

    def __post_init__(self):
        if not self.risk_aversion > 0:
            raise ValueError(f"risk_aversion must be positive, got {self.risk_aversion}")
        if self.num_stocks < 1:
            raise ValueError(f"num_stocks must be >= 1, got {self.num_stocks}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True, eq=False)
class Instance:
    """One evaluated market: the lattice, the risk aversion, the demand
    process and the dividend rows (one per leaf).  It is the only input of
    the pricer and the two backward solvers; scaled variants are built with
    ``dataclasses.replace``.

    ``psi_mean`` is the dividend mean before any centring, as reported in
    the summaries.  Only ``evaluate_market`` sets it, and ``replace`` copies
    it unchanged, so it describes the evaluated instance, not its variants.
    """
    lattice: Lattice
    risk_aversion: float
    gamma: PredictableProcess
    psi: np.ndarray
    psi_mean: np.ndarray | None = None

    def __post_init__(self):
        a = float(self.risk_aversion)
        if not a > 0:
            raise ValueError(f"risk_aversion must be positive, got {a}")
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim == 1:
            psi = psi[:, None]
        if psi.shape[0] != self.lattice.num_leaves:
            raise ValueError(
                f"dividend has {psi.shape[0]} rows, lattice has {self.lattice.num_leaves} leaves"
            )
        if self.gamma.dim != psi.shape[1]:
            raise ValueError(
                f"demand dimension {self.gamma.dim} != dividend dimension {psi.shape[1]}"
            )
        object.__setattr__(self, "risk_aversion", a)
        object.__setattr__(self, "psi", psi)

    @property
    def num_stocks(self) -> int:
        return self.psi.shape[1]

    @cached_property
    def gamma_sup(self) -> float:
        """Exact node maximum of the demand's per-node Euclidean norm."""
        return sup_norm(self.gamma).value


def evaluate_market(config: MarketConfig, lattice: Lattice) -> Instance:
    """Evaluate a config on a matching lattice."""
    if lattice.num_steps != config.num_steps or lattice.horizon != config.horizon:
        raise ValueError(
            f"lattice ({lattice.num_steps} steps, horizon {lattice.horizon}) does not "
            f"match config ({config.num_steps} steps, horizon {config.horizon})"
        )
    gamma = evaluate_demand(config.demand, lattice, config.num_stocks)
    psi, psi_mean = evaluate_dividend(
        config.dividend, lattice, config.num_stocks, center=config.center_dividend
    )
    return Instance(lattice, config.risk_aversion, gamma, psi, psi_mean)
