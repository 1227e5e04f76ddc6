"""Independent numpy reference for the benchmark's output checks.

Nothing here imports the package under test: the leaf walk, the dividend
families, the conditional variance and the gauge criterion are recomputed
from their definitions by reshaping the leaf array into one block of
descendant leaves per node.  Node ``(k, p)`` has children ``(k + 1, 2p)``
(up) and ``(k + 1, 2p + 1)`` (down), so bit ``j`` of a leaf index, counted
from the most significant end, is 1 exactly when step ``j`` went down.
"""

from __future__ import annotations

import numpy as np


def walk_counts(num_steps: int, step: int) -> np.ndarray:
    """Up-minus-down move count at every node of ``step``."""
    downs = np.bitwise_count(np.arange(1 << step, dtype=np.int64))
    return (step - 2 * downs.astype(np.int64)).astype(np.int32)


def sqrt_dt(num_steps: int, horizon: float) -> float:
    return float(np.sqrt(horizon / num_steps))


def sign_plus(x) -> np.ndarray:
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def dividend_leaves(spec: dict, num_steps: int, horizon: float,
                    num_stocks: int, center: bool) -> np.ndarray:
    """Per-leaf dividend rows, shape ``(2**N, num_stocks)``."""
    b_int = walk_counts(num_steps, num_steps)
    kind = spec["type"]
    if kind == "sign_of_b_t":
        col = spec.get("scale", 1.0) * sign_plus(b_int)
    elif kind == "linear_clipped":
        bound = spec.get("bound", 1.0)
        col = np.clip(spec.get("slope", 1.0) * b_int * sqrt_dt(num_steps, horizon),
                      -bound, bound)
    elif kind == "digital":
        bt = b_int * sqrt_dt(num_steps, horizon)
        col = (bt > spec.get("strike", 0.0)).astype(float) - spec.get("offset", 0.5)
    else:
        raise ValueError(f"no reference for dividend type {kind!r}")
    rows = np.tile(col[:, None], (1, num_stocks))
    return rows - rows.mean(axis=0) if center else rows


def demand_sup(spec: dict, num_steps: int) -> float:
    """Node maximum of the demand's Euclidean norm (scalar-valued specs)."""
    kind = spec["type"]
    if kind == "constant":
        return abs(float(spec.get("value", 1.0)))
    if kind == "negative_sign_of_b":
        return abs(float(spec.get("scale", 1.0)))
    if kind == "piecewise_constant":
        return max(abs(float(v)) for step, v in spec["schedule"] if step < num_steps)
    raise ValueError(f"no reference for demand type {kind!r}")


def _node_blocks(leaves: np.ndarray, step: int) -> np.ndarray:
    return leaves.reshape(1 << step, leaves.shape[0] >> step, leaves.shape[1])


def centered_bmo(leaves: np.ndarray) -> float:
    """Square root of the node maximum of the conditional variance of the
    (centered) terminal variable, i.e. its quadratic conditional norm."""
    leaves = leaves - leaves.mean(axis=0)
    num_steps = leaves.shape[0].bit_length() - 1
    best = 0.0
    for k in range(num_steps + 1):
        block = _node_blocks(leaves, k)
        dev = block - block.mean(axis=1, keepdims=True)
        best = max(best, float(np.max(np.sum(dev * dev, axis=2).mean(axis=1))))
    return float(np.sqrt(best))


def gauge_criterion(leaves: np.ndarray, lam: float) -> float:
    """``max_node E_node[H(|X - E_node X| / lam)]`` with ``H(u) = e^u (u - 1) + 1``."""
    leaves = leaves - leaves.mean(axis=0)
    num_steps = leaves.shape[0].bit_length() - 1
    best = -np.inf
    for k in range(num_steps + 1):
        block = _node_blocks(leaves, k)
        u = np.linalg.norm(block - block.mean(axis=1, keepdims=True), axis=2) / lam
        best = max(best, float(np.max((np.exp(u) * (u - 1.0) + 1.0).mean(axis=1))))
    return best
