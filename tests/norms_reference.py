"""Reference copies of the gauge norm's bracket-and-bisect search and of the
per-terminal kappa loop, kept verbatim so the tests can hold
``norms.h_norm`` and ``norms.measure_kappa`` to them bit for bit.  Each
criterion evaluation here, and kappa's first moment, is a full sweep over
every node of the tree and its descendant leaves."""

from __future__ import annotations

import numpy as np

from impact_bsde import (
    AdaptedProcess,
    Lattice,
    bmo_norm,
    conditional_expectation,
    node_max,
    orlicz_h,
)
from impact_bsde.norms import NormReport, _require_martingale


def _as_terminal_rows(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return v[:, None] if v.ndim == 1 else v


def _node_moment_sweep(m: AdaptedProcess, moment) -> tuple[float, tuple[int, int]]:
    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)

    def moments():
        for k in range(lat.num_steps + 1):
            here = _as_terminal_rows(m.values[k])
            per_node = leaves.reshape(1 << k, lat.num_leaves >> k, -1)
            dist = np.linalg.norm(per_node - here[:, None, :], axis=2)
            yield k, moment(dist).mean(axis=1)

    return node_max(moments())


def h_norm_reference(x, lattice: Lattice | None = None,
                     bisection_tol: float = 1e-10) -> NormReport:
    if isinstance(x, AdaptedProcess):
        m = x
        _require_martingale(m)
    else:
        m = conditional_expectation(np.asarray(x, dtype=float), lattice)

    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)
    spread = float(np.max(np.linalg.norm(leaves - _as_terminal_rows(m.values[0]), axis=1)))
    if spread == 0.0:
        return NormReport(value=0.0, kind="orlicz_h", achieving_node=(0, 0), iterations=0)

    def criterion(lam: float):
        return _node_moment_sweep(m, lambda d: orlicz_h(d / lam))

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


def measure_kappa_reference(lattice: Lattice, num_random: int = 32, seed: int = 2024,
                            max_steps: int = 12) -> float:
    lat = lattice
    if lattice.num_steps > max_steps:
        lat = Lattice(max_steps, lattice.horizon)
    bt = lat.walk(lat.num_steps) * lat.sqrt_dt
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
        one = _node_moment_sweep(doob, lambda d: d)[0]
        if one > 0:
            ratio = max(ratio, two / one)
    return float(ratio)
