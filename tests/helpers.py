"""Shared test utilities: independent brute-force oracles and instance
generators.  The oracles deliberately avoid the library's backward passes:
they enumerate descendant leaves directly, so the two routes stay
independent."""

from __future__ import annotations

import numpy as np

from impact_bsde import (AdaptedProcess, ConstantDemand, Digital, LinearClipped, LocalizedDemand,
                         LocalizedDividend, MarketConfig, NegativeSignOfB,
                         PiecewiseConstantDemand, PredictableProcess, SignOfBT, TableDemand,
                         TableDividend, hitting_time_tau, sign_plus)


def leaf_block(leaves: np.ndarray, step: int, path: int, num_steps: int) -> np.ndarray:
    """All leaf rows below node (step, path)."""
    width = 1 << (num_steps - step)
    return leaves[path * width:(path + 1) * width]


def oracle_conditional_mean(leaves: np.ndarray, step: int, path: int,
                            num_steps: int):
    """Conditional expectation at a node by direct leaf enumeration."""
    return leaf_block(np.asarray(leaves), step, path, num_steps).mean(axis=0)


def oracle_conditional_moment(leaves: np.ndarray, node_value, step: int, path: int,
                              num_steps: int, power: float = 2.0) -> float:
    """E_node[|X - node_value|^p] by direct leaf enumeration."""
    rows = leaf_block(leaves if leaves.ndim == 2 else leaves[:, None],
                      step, path, num_steps)
    node_value = np.atleast_1d(np.asarray(node_value, dtype=float))
    dist = np.linalg.norm(rows - node_value, axis=1)
    return float(np.mean(dist ** power))


def _unit_ball_rows(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Uniform draws renormalized so every row's Euclidean norm is <= scale."""
    rows = rng.uniform(-scale, scale, size=shape)
    mags = np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows / np.maximum(1.0, mags / scale)


def random_table_config(rng: np.random.Generator, num_steps: int, num_stocks: int = 1,
                        a_lo: float = 0.05, a_hi: float = 1.0,
                        gamma_scale: float = 1.0, psi_scale: float = 1.0,
                        horizon: float = 1.0, center: bool = False) -> MarketConfig:
    """Random instance with table demand and dividend, per-node Euclidean
    norms bounded by the given scales."""
    demand = TableDemand([
        _unit_ball_rows(rng, (1 << k, num_stocks), gamma_scale)
        for k in range(num_steps)
    ])
    psi = _unit_ball_rows(rng, (1 << num_steps, num_stocks), psi_scale)
    return MarketConfig(
        risk_aversion=float(rng.uniform(a_lo, a_hi)),
        num_stocks=num_stocks,
        demand=demand,
        dividend=TableDividend(psi),
        num_steps=num_steps,
        horizon=horizon,
        center_dividend=center,
    )


def brownian(lat):
    """The driving walk as an adapted process, an exact martingale: at each
    node the up-minus-down count of its path, its parent's plus one (up
    child, node 2p) or minus one (down child, node 2p + 1), times sqrt(dt)."""
    counts = [np.zeros(1, dtype=np.int64)]
    for _ in range(lat.num_steps):
        counts.append(np.repeat(counts[-1], 2) + np.tile([1, -1], len(counts[-1])))
    return AdaptedProcess(lat, [c * lat.sqrt_dt for c in counts])


def martingale_representation(m):
    """Integrand with ``M_{k+1} - M_k = zeta_k * dB_k`` at every node of the
    martingale ``m``: ``zeta_k = (M_up - M_down) / (2 sqrt(dt))``."""
    lat = m.lattice
    return PredictableProcess(lat, [lat.child_diff(v) for v in m.values[1:]])


def stacked_integrand(parts):
    """Scalar or vector integrands stacked into one joint vector integrand."""
    lat = parts[0].lattice
    vals = []
    for k in range(lat.num_steps):
        cols = [p.values[k] if p.values[k].ndim == 2 else p.values[k][:, None]
                for p in parts]
        vals.append(np.concatenate(cols, axis=1))
    return PredictableProcess(lat, vals)


def max_gap(proc_a, proc_b, scale_b: float = 1.0) -> float:
    """Node max of |a - scale * b| across two slice lists or processes."""
    va = proc_a.values if hasattr(proc_a, "values") else proc_a
    vb = proc_b.values if hasattr(proc_b, "values") else proc_b
    return max(float(np.max(np.abs(x - scale_b * y))) for x, y in zip(va, vb))


def equilibrium_defects(sol):
    """Worst relative martingale defects of an equilibrium solution: the
    density under the reference weights, prices and gain under the pricing
    weights."""
    from impact_bsde import martingale_defect

    lat = sol.lattice
    z_def = martingale_defect(sol.density)[0]
    s_def = 0.0
    g_def = 0.0
    for k in range(lat.num_steps):
        q = sol.up_prob.values[k][:, None]
        s, sn = sol.prices.values[k], sol.prices.values[k + 1]
        gap = np.linalg.norm(q * sn[0::2] + (1 - q) * sn[1::2] - s, axis=1)
        s_def = max(s_def, float(np.max(gap / np.maximum(1.0, np.linalg.norm(s, axis=1)))))
        qf = sol.up_prob.values[k]
        g, gn = sol.gain.values[k], sol.gain.values[k + 1]
        ggap = np.abs(qf * gn[0::2] + (1 - qf) * gn[1::2] - g)
        g_def = max(g_def, float(np.max(ggap / np.maximum(1.0, np.abs(g)))))
    return z_def, s_def, g_def


# --- per-node oracles of the Markov specs ------------------------------------
# The evaluation the library made before its Markov specs gave state tables:
# every spec's formula applied node by node to the int32 walk of each level
# (here built by doubling, not from the node index), then tiled over the
# stocks.  Localized specs gate these levels.

def walk_counts(lat, k: int) -> np.ndarray:
    """The int32 up-minus-down count of every node of step ``k``."""
    counts = np.zeros(1, dtype=np.int32)
    for _ in range(k):
        counts = np.repeat(counts, 2) + np.tile(np.array([1, -1], dtype=np.int32), len(counts))
    return counts


def _row(value, num_stocks: int) -> np.ndarray:
    row = np.atleast_1d(np.asarray(value, dtype=float))
    return np.repeat(row, num_stocks) if row.size == 1 else row


def oracle_step_values(spec, lat, num_stocks: int) -> list[np.ndarray]:
    """The per-node demand levels of a constant, negative-sign, piecewise
    constant or localized spec."""
    steps = range(lat.num_steps)
    if isinstance(spec, ConstantDemand):
        row = _row(spec.value, num_stocks)
        return [np.tile(row, (lat.nodes(k), 1)) for k in steps]
    if isinstance(spec, NegativeSignOfB):
        return [np.tile((-spec.scale * sign_plus(walk_counts(lat, k)))[:, None], (1, num_stocks))
                for k in steps]
    if isinstance(spec, PiecewiseConstantDemand):
        points = sorted(spec.schedule, key=lambda item: item[0])
        out = []
        for k in steps:
            value = [v for s, v in points if s <= k][-1]
            out.append(np.tile(_row(value, num_stocks), (lat.nodes(k), 1)))
        return out
    assert isinstance(spec, LocalizedDemand)
    base = oracle_step_values(spec.inner, lat, num_stocks)
    return hitting_time_tau(lat, spec.level, spec.from_step).gate_demand(base)


def oracle_leaf_values(spec, lat, num_stocks: int) -> np.ndarray:
    """The per-leaf dividend rows of a sign, clipped linear, digital or
    localized spec."""
    b = walk_counts(lat, lat.num_steps)
    if isinstance(spec, SignOfBT):
        col = spec.scale * sign_plus(b)
    elif isinstance(spec, LinearClipped):
        with np.errstate(over="ignore"):
            col = spec.slope * b
            col = np.where(np.isfinite(col), col * lat.sqrt_dt, spec.slope * (b * lat.sqrt_dt))
        col = np.clip(col, -spec.bound, spec.bound)
    elif isinstance(spec, Digital):
        col = (b * lat.sqrt_dt > spec.strike).astype(float) - spec.offset
    else:
        assert isinstance(spec, LocalizedDividend)
        base = oracle_leaf_values(spec.inner, lat, num_stocks)
        return hitting_time_tau(lat, spec.level, spec.from_step).gate_dividend(base)
    return np.tile(col[:, None], (1, num_stocks))
