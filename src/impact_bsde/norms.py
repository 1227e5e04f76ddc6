"""Martingale and integrand norms computed exactly on the finite lattice.

All of these norms are defined through a supremum over stopping times of a
conditional moment of the remaining increment.  On a finite tree that
supremum collapses to a maximum over nodes: the conditional value of any
stopping rule on one of its atoms equals the node value at the node where
it stops, so no rule can beat the best node; conversely the best node value
is attained by the rule "stop on reaching that node, otherwise run to the
horizon".  Each function therefore reports the achieving node along with
the value.

The quadratic conditional moment uses the orthogonality of martingale
increments (one backward pass); general p-th moments need a per-node sweep
over descendant leaves, implemented as a reshape so the total work stays
at one leaf pass per time slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    AdaptedProcess,
    Lattice,
    PredictableProcess,
    child_mean,
    conditional_expectation,
    martingale_defect,
    node_max,
)

BMO_P_DEFAULT_MAX_STEPS = 14


@dataclass
class NormReport:
    """A computed norm: value, where it is attained, which norm it is."""
    value: float
    kind: str
    achieving_node: tuple[int, int]
    iterations: int | None = None
    extras: dict = field(default_factory=dict)


def orlicz_h(u):
    """The gauge function ``H(u) = exp(u) (u - 1) + 1`` (convex, H(0)=H'(0)=0)."""
    u = np.asarray(u, dtype=float)
    out = np.exp(u) * (u - 1.0) + 1.0
    return float(out) if out.ndim == 0 else out


def _as_terminal_rows(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return v[:, None] if v.ndim == 1 else v


def _require_martingale(m: AdaptedProcess, tol: float):
    defect, node = martingale_defect(m)
    # a nan defect passes: the norm then reports nan itself
    if defect > tol:
        raise ValueError(
            f"input is not a martingale: relative defect {defect:.3e} at node {node}"
        )


def _remaining_load(load, here: np.ndarray) -> np.ndarray:
    """One backward step of a conditional remaining load: the node's own
    load ``here`` plus the child mean of ``load``, the remaining load one
    slice later (None below the last slice)."""
    return here if load is None else here + child_mean(load)


def bmo_norm(m: AdaptedProcess, tol: float = 1e-10) -> NormReport:
    """Quadratic conditional-moment norm of a martingale.

    One backward pass accumulates ``C_k = E_k[|M_N - M_k|^2]`` from the
    orthogonal decomposition ``C_k = E_k[|M_{k+1} - M_k|^2] + E_k[C_{k+1}]``;
    the norm is the square root of the node maximum of ``C``.
    """
    _require_martingale(m, tol)
    lat = m.lattice

    def loads():
        c = None
        for k in range(lat.num_steps - 1, -1, -1):
            here = _as_terminal_rows(m.values[k])
            nxt = _as_terminal_rows(m.values[k + 1])
            d_up = nxt[0::2] - here
            d_dn = nxt[1::2] - here
            step_var = 0.5 * (np.sum(d_up * d_up, axis=1) + np.sum(d_dn * d_dn, axis=1))
            c = _remaining_load(c, step_var)
            yield k, c

    best, node = node_max(loads())
    return NormReport(value=float(np.sqrt(best)), kind="bmo", achieving_node=node)


def _node_moment_sweep(m: AdaptedProcess, moment) -> tuple[float, tuple[int, int]]:
    """Max over nodes of ``E_node[moment(|M_N - M_node|)]`` via leaf reshapes.

    ``moment`` maps an array of distances to an array of the same shape.
    Returns ``node_max``'s (value, node).
    """
    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)

    def moments():
        for k in range(lat.num_steps + 1):
            here = _as_terminal_rows(m.values[k])
            per_node = leaves.reshape(1 << k, lat.num_leaves >> k, -1)
            dist = np.linalg.norm(per_node - here[:, None, :], axis=2)
            yield k, moment(dist).mean(axis=1)

    return node_max(moments())


def bmo_p_norm(m: AdaptedProcess, p: float, tol: float = 1e-10,
               max_steps: int = BMO_P_DEFAULT_MAX_STEPS) -> NormReport:
    """p-th conditional-moment norm: node max of ``E_node[|M_N - M_node|^p]^(1/p)``.

    No orthogonality shortcut exists for p != 2, so this sweeps descendant
    leaves per slice; refuse depths above ``max_steps`` (override if you
    accept the cost).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if m.lattice.num_steps > max_steps:
        raise ValueError(
            f"lattice depth {m.lattice.num_steps} exceeds the p-norm sweep cap "
            f"{max_steps}; pass max_steps= explicitly to accept the cost"
        )
    _require_martingale(m, tol)
    best, node = _node_moment_sweep(m, lambda d: d ** p)
    return NormReport(value=float(best ** (1.0 / p)), kind=f"bmo_{p:g}",
                      achieving_node=node)


def bmo_norm_rv(xi: np.ndarray, lattice: Lattice, center_tol: float = 1e-12) -> NormReport:
    """Quadratic norm of a centered terminal variable via its conditional-
    expectation martingale.  Also reports the midrange uniform bound
    ``sup |xi - x_mid|`` (per-component midrange), which dominates the norm.
    """
    rows = _as_terminal_rows(np.asarray(xi, dtype=float))
    mean = rows.mean(axis=0)
    if float(np.max(np.abs(mean))) > center_tol:
        raise ValueError(
            f"terminal variable is not centered: mean has max component {np.max(np.abs(mean)):.3e}"
        )
    doob = conditional_expectation(rows, lattice)
    report = bmo_norm(doob)
    x_mid = 0.5 * (rows.max(axis=0) + rows.min(axis=0))
    bound = float(np.max(np.linalg.norm(rows - x_mid, axis=1)))
    if report.value > bound + 1e-10:
        raise RuntimeError(
            f"midrange bound {bound} fell below the computed norm {report.value}"
        )
    report.kind = "bmo_rv"
    report.extras["midrange_bound"] = bound
    report.extras["midrange_center"] = x_mid.tolist()
    return report


def h_norm(x, lattice: Lattice | None = None, bisection_tol: float = 1e-10,
           tol: float = 1e-10) -> NormReport:
    """Orlicz gauge norm: the smallest ``lam`` with
    ``max_node E_node[H(|M_N - M_node| / lam)] <= 1``.

    ``x`` is a martingale or a centered terminal array (turned into its
    conditional-expectation martingale).  The criterion is monotone in
    ``lam``, so a guarded bisection finds the norm; the lattice is finite,
    hence the norm always is too.
    """
    if isinstance(x, AdaptedProcess):
        m = x
        _require_martingale(m, tol)
    else:
        m = conditional_expectation(np.asarray(x, dtype=float), lattice)

    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)
    spread = float(np.max(np.linalg.norm(leaves - _as_terminal_rows(m.values[0]), axis=1)))
    if spread == 0.0:
        return NormReport(value=0.0, kind="orlicz_h", achieving_node=(0, 0), iterations=0)

    def criterion(lam: float):
        return _node_moment_sweep(m, lambda d: orlicz_h(d / lam))

    # bracket near the largest one-step jump (H(1) = 1 makes that the right
    # scale), expanding either side until it straddles the criterion
    rows = [_as_terminal_rows(v) for v in m.values]
    jumps = (np.linalg.norm(rows[k + 1] - np.repeat(rows[k], 2, axis=0), axis=1)
             for k in range(lat.num_steps))
    max_inc, _ = node_max(enumerate(jumps, start=1))
    lo = max(max_inc, spread * 1e-8)
    hi = 10.0 * spread
    iters = 0
    while criterion(lo)[0] <= 1.0 and lo > spread * 1e-12:
        lo /= 2.0
        iters += 1
    while criterion(hi)[0] > 1.0:
        hi *= 2.0
        iters += 1
    node = (0, 0)
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        val, at = criterion(mid)
        iters += 1
        if val <= 1.0:
            hi = mid
            node = at
        else:
            lo = mid
    quad = bmo_norm(m)
    lower = quad.value / np.sqrt(2.0)
    report = NormReport(value=float(hi), kind="orlicz_h", achieving_node=node,
                        iterations=iters)
    report.extras["bmo_norm"] = quad.value
    report.extras["bmo_lower_bound_holds"] = bool(lower <= hi + bisection_tol + 1e-12)
    return report


def _square_sum(columns) -> np.ndarray:
    """Per-node ``sum_j c_j**2`` over equal-length columns, accumulated in
    column order.  Column-wise adds beat a reduction over a short last axis
    and, below eight columns, round exactly like ``np.sum(x * x, axis=1)``."""
    columns = iter(columns)
    first = next(columns)
    total = first * first
    for c in columns:
        total += c * c
    return total


def h_bmo_norm(zeta: PredictableProcess) -> NormReport:
    """Integrand norm: sqrt of the node max of the conditional remaining
    quadratic load ``E_node[sum_{s >= node} |zeta_s|^2 dt]``."""
    lat = zeta.lattice

    def loads():
        c = None
        for k in range(lat.num_steps - 1, -1, -1):
            c = _remaining_load(c, _square_sum(_as_terminal_rows(zeta.values[k]).T) * lat.dt)
            yield k, c

    best, node = node_max(loads())
    return NormReport(value=float(np.sqrt(best)), kind="h_bmo", achieving_node=node)


def sup_norm(process) -> NormReport:
    """Exact node maximum of the per-node Euclidean norm (the essential sup
    is a max on a finite lattice).  Accepts adapted, predictable or raw
    array input."""
    if isinstance(process, (AdaptedProcess, PredictableProcess)):
        slices = process.values
    elif isinstance(process, np.ndarray):
        slices = [process]
    else:
        slices = [np.asarray(v, dtype=float) for v in process]
    best, node = node_max((k, np.linalg.norm(_as_terminal_rows(v), axis=1))
                          for k, v in enumerate(slices))
    return NormReport(value=best, kind="sup", achieving_node=node)


def stacked_integrand(parts: list[PredictableProcess]) -> PredictableProcess:
    """Stack scalar/vector integrands into one joint vector integrand, so
    joint norms (e.g. of a value/price integrand pair) are one call."""
    lat = parts[0].lattice
    vals = []
    for k in range(lat.num_steps):
        cols = [_as_terminal_rows(p.values[k]) for p in parts]
        vals.append(np.concatenate(cols, axis=1))
    return PredictableProcess(lat, vals)


def measure_kappa(lattice: Lattice, num_random: int = 32, seed: int = 2024,
                  max_steps: int = 12) -> float:
    """Empirical ratio between the quadratic and first-moment conditional
    norms, maximized over a corpus of lattice martingales.

    The corpus mixes the walk itself, signs, digitals at several strikes
    (including extreme ones, which drive the ratio up) and random bounded
    terminals.  Diagnostic only; it never gates a solver.
    """
    lat = lattice
    if lattice.num_steps > max_steps:
        lat = Lattice(max_steps, lattice.horizon)
    bt = lat.b_int[-1] * lat.sqrt_dt
    terminals = [bt, np.sign(bt) + (bt == 0), np.clip(bt, -1.0, 1.0)]
    qs = np.quantile(bt, [0.05, 0.25, 0.75, 0.95])
    for q in qs:
        ind = (bt > q).astype(float)
        terminals.append(ind - ind.mean())
    rng = np.random.default_rng(seed)
    for _ in range(num_random):
        terminals.append(rng.uniform(-1.0, 1.0, size=lat.num_leaves))
    ratio = 1.0
    for t in terminals:
        t = t - t.mean()
        if float(np.max(np.abs(t))) == 0.0:
            continue
        doob = conditional_expectation(t, lat)
        two = bmo_norm(doob).value
        one = bmo_p_norm(doob, 1.0, max_steps=max_steps).value
        if one > 0:
            ratio = max(ratio, two / one)
    return float(ratio)
