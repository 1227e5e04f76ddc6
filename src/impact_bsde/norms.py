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

The Orlicz gauge norm is the root of a criterion that falls monotonically
in its scale: Newton passes find it and the few nodes that can still
attain the criterion near it, and the norm is that root lifted by a
rounding guard band, the first scale the computed criterion accepts.  The
empirical ratio constant kappa stacks its corpus of terminals in
fixed-size blocks of rows, so each block takes one pass of each norm, with
the same bits as evaluating every terminal on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    AdaptedProcess,
    Lattice,
    PredictableProcess,
    _square_sum,
    conditional_expectation,
    martingale_defect,
    node_max,
    stock_norm,
    stock_sum,
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


def _require_martingale(m: AdaptedProcess, tol: float = 1e-10):
    defect, node = martingale_defect(m)
    # a nan defect passes: the norm then reports nan itself
    if defect > tol:
        raise ValueError(
            f"input is not a martingale: relative defect {defect:.3e} at node {node}"
        )


def _remaining_load(lat: Lattice, load, here: np.ndarray, axis: int = 0,
                    out: np.ndarray | None = None) -> np.ndarray:
    """One backward step of a conditional remaining load: the node's own
    load ``here`` plus the child mean of ``load``, the remaining load one
    slice later (None below the last slice: ``here`` itself), with the node
    axis at ``axis``, into ``out`` when given."""
    return here if load is None else np.add(here, lat.child_mean(load, axis, out=out), out=out)


def _binary_shift(values) -> int:
    """The exponent ``shift`` of the power of two that brings the largest
    magnitude of the slices ``values`` into [1/2, 1) (0 if it is zero or not
    finite).  Every norm here is positively homogeneous: taken of the data
    times ``2**-shift`` and multiplied by ``2**shift``, it is exact in the
    normal range, and no square or average of the scaled data over- or
    underflows."""
    return int(np.frexp(max(float(np.max(np.abs(v))) for v in values))[1])


def bmo_norm(m: AdaptedProcess) -> NormReport:
    """Quadratic conditional-moment norm of a martingale.

    One backward pass accumulates ``C_k = E_k[|M_N - M_k|^2]`` from the
    orthogonal decomposition ``C_k = E_k[|M_{k+1} - M_k|^2] + E_k[C_{k+1}]``;
    the norm is the square root of the node maximum of ``C``, taken of the
    data scaled by a power of two (see ``_binary_shift``) a slice at a time.
    """
    _require_martingale(m)
    lat = m.lattice
    shift = _binary_shift(m.values)

    def loads():
        c = None
        below = _as_terminal_rows(np.ldexp(m.values[-1], -shift))
        for k in range(lat.num_steps - 1, -1, -1):
            here = _as_terminal_rows(np.ldexp(m.values[k], -shift))
            d_up, d_dn = (x - here for x in lat.children(below))
            step_var = 0.5 * (stock_sum(d_up * d_up) + stock_sum(d_dn * d_dn))
            c = _remaining_load(lat, c, step_var)
            below = here
            yield k, c

    best, node = node_max(loads())
    return NormReport(value=float(np.ldexp(np.sqrt(best), shift)), kind="bmo",
                      achieving_node=node)


def _node_moment_sweep(m: AdaptedProcess, moment) -> tuple[float, tuple[int, int]]:
    """Max over nodes of ``E_node[moment(|M_N - M_node|)]`` via leaf reshapes.

    ``moment`` maps an array of distances to an array of the same shape.
    Returns ``node_max``'s (value, node).
    """
    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)
    return node_max((k, moment(_distances(lat, leaves, _as_terminal_rows(v))).mean(axis=1))
                    for k, v in enumerate(m.values))


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


def bmo_norm_rv(xi: np.ndarray, lattice: Lattice) -> NormReport:
    """Quadratic norm of a centered terminal variable via its conditional-
    expectation martingale.  Also reports the midrange uniform bound
    ``sup |xi - x_mid|`` (per-component midrange), which dominates the norm.
    """
    rows = _as_terminal_rows(np.asarray(xi, dtype=float))
    mean = rows.mean(axis=0)
    # relative to the variable's scale: centring leaves a rounding residue
    # proportional to the entries
    if float(np.max(np.abs(mean))) > 1e-12 * max(1.0, float(np.max(np.abs(rows)))):
        raise ValueError(
            f"terminal variable is not centered: mean has max component {np.max(np.abs(mean)):.3e}"
        )
    doob = conditional_expectation(rows, lattice)
    report = bmo_norm(doob)
    x_mid = 0.5 * (rows.max(axis=0) + rows.min(axis=0))
    bound = float(np.max(stock_norm(rows - x_mid)))
    # rounding is relative to the bound; a norm that overflowed is left to
    # the caller
    if np.isfinite(report.value) and report.value > bound + 1e-10 * max(1.0, bound):
        raise RuntimeError(
            f"midrange bound {bound} fell below the computed norm {report.value}"
        )
    report.kind = "bmo_rv"
    report.extras["midrange_bound"] = bound
    report.extras["midrange_center"] = x_mid.tolist()
    return report


# Newton passes drop a node once its criterion value is certain to stay at
# most 1 - _PRUNE: it then never decides the test ``criterion <= 1`` again,
# nor attains the criterion near the threshold (see ``h_norm``).
_PRUNE = 2.0 ** -10
_NEWTON_MAX = 64  # a termination guard: the passes converge in a handful


def _distances(lat: Lattice, leaves: np.ndarray, here: np.ndarray, live=None) -> np.ndarray:
    """``|M_N - M_node|`` per node of one step and descendant leaf, for every
    node or the nodes of the mask ``live``."""
    per_node = lat.subtrees(leaves, len(here))
    if live is None:
        return stock_norm(per_node - here[:, None, :])
    diff = per_node[live]
    diff -= here[live][:, None, :]
    return stock_norm(diff)


def _gauge_level(lat: Lattice, leaves: np.ndarray, here: np.ndarray, lam: float, live=None,
                 slope: bool = False):
    """``E_node[H(d / lam)]`` with ``d = |M_N - M_node|`` at every node of one
    step (``here`` holds its node values), or at the nodes of the boolean
    mask ``live`` only.

    The operations are those of a full criterion sweep, element for
    element, so a node's value does not depend on which other nodes are
    evaluated with it.  With ``slope`` it also returns ``E_node[u^2 e^u]``
    at ``u = d / lam``, which is ``-lam`` times the value's derivative
    (``H'(u) = u e^u``).
    """
    u = _distances(lat, leaves, here, live) / lam
    e = np.exp(u)
    value = (e * (u - 1.0) + 1.0).mean(axis=1)
    if not slope:
        return value
    e *= u
    e *= u
    return value, e.mean(axis=1)


def _gauge_threshold(lat: Lattice, leaves, here, lam: float, step_tol: float):
    """The criterion's threshold ``lam*`` (the largest per-node root of
    ``E_node[H(d / lam)] = 1``) by Newton's method from a lower bound ``lam``,
    the nodes still able to attain the criterion near it, and the number of
    passes.

    Each per-node value is log-convex in ``log lam`` (a mean of log-convex
    terms: the elasticity ``u^2 e^u / H(u)`` grows with ``u``), so a Newton
    step on ``log value = 0`` in ``log lam`` never passes the node's root.
    A pass evaluates every live node at ``lam`` and moves to the largest of
    their Newton targets, a lower bound of ``lam*``: it gains about a factor
    e far from ``lam*`` and converges quadratically near it.  The elasticity
    is at least 2 (``u^2 e^u >= 2 H(u)``), so a node whose value times
    ``(lam / bound)^2`` is at most ``1 - _PRUNE`` stays there at every
    ``lam`` above the bound, and is dropped.
    """
    live = [None] * len(here)
    for passes in range(1, _NEWTON_MAX + 1):
        bound = lam
        for k, h in enumerate(here):
            if live[k] is not None and not live[k].any():
                continue
            value, slope = _gauge_level(lat, leaves, h, lam, live[k], slope=True)
            above = value > 1.0
            if above.any():
                v = value[above]
                bound = max(bound, lam * float(np.exp(np.max(np.log(v) * v / slope[above]))))
            keep = value * (lam / bound) ** 2 > 1.0 - _PRUNE
            if live[k] is None:
                live[k] = keep
            else:
                live[k][live[k]] = keep
        step = np.log(bound / lam)
        lam = bound
        if step <= step_tol:
            break
    return lam, live, passes


def h_norm(x, lattice: Lattice | None = None) -> NormReport:
    """Orlicz gauge norm: the smallest ``lam`` with
    ``max_node E_node[H(|M_N - M_node| / lam)] <= 1``.

    ``x`` is a martingale or a centered terminal array (turned into its
    conditional-expectation martingale).  The lattice is finite, so the
    norm is too; non-finite input gives a nan report.

    Every per-node value decreases in ``lam``, so the criterion accepts
    exactly the scales above its threshold ``lam*``.  Newton passes over the
    tree find ``lam*`` and the few nodes that can attain the criterion near
    it (``iterations`` counts the passes).  The norm is ``lam*`` lifted by a
    rounding guard band, the first scale the computed criterion is certain
    to accept, within a few ``1e-12`` relative of the exact norm at every
    scale; ``achieving_node`` is the criterion's worst node there.
    """
    values = x.values if isinstance(x, AdaptedProcess) else [np.asarray(x, dtype=float)]
    if not all(np.isfinite(v).all() for v in values):
        return NormReport(value=float("nan"), kind="orlicz_h", achieving_node=(0, 0),
                          iterations=0)
    # taken of the data scaled by a power of two, and scaled back
    shift = _binary_shift(values)
    scaled = [np.ldexp(v, -shift) for v in values]
    if isinstance(x, AdaptedProcess):
        _require_martingale(x)
        m = AdaptedProcess(x.lattice, scaled)
    else:
        m = conditional_expectation(scaled[0], lattice)

    lat = m.lattice
    leaves = _as_terminal_rows(m.terminal)
    here = [_as_terminal_rows(v) for v in m.values]
    spread = float(np.max(stock_norm(leaves - here[0])))
    if spread == 0.0:
        return NormReport(value=0.0, kind="orlicz_h", achieving_node=(0, 0), iterations=0)
    quad = bmo_norm(m)

    # Guard band.  Near the threshold every node value is about 1, so each
    # leaf term H(u) is at most 2^N and u <= U = N log 2 + 1.  The computed
    # distance carries a relative error of at most (dim + 2) eps and u one
    # eps more; with numpy's exp within 4 ulp, a computed term is off by at
    # most eps (6 + (dim + 3) U) e^u (1 + u) + eps H(u), and
    # e^u (1 + u) <= 22 + 3 H(u).  Averaged (pairwise summation adds N eps),
    # a node value near 1 is off by at most the relative ``err`` below.
    # Since u^2 e^u >= 2 H(u), every node value falls at least like lam^-2,
    # so the criterion is below 1 - 2b wherever lam exceeds lam* by a
    # relative b.  Newton's lam* is the root of the computed criterion,
    # within err / 2 of the exact one, so with b = 4 err the computed
    # criterion accepts lam* (1 + 2 b), and no scale below lam* (1 - b).
    u_max = lat.num_steps * np.log(2.0) + 1.0
    err = np.finfo(float).eps * (25.0 * (6.0 + (leaves.shape[1] + 3) * u_max)
                                 + lat.num_steps + 2)
    band = 4.0 * err
    # Lower bounds of lam*: H(u) >= u^2 / 2 bounds it by the quadratic norm
    # over sqrt 2, and H(U) >= 2^N at the root node by spread / U, which
    # keeps every u below 2 U (exp cannot overflow) from the first pass on.
    # The leaves' own values are H(0) = 0, below the root's: the last step
    # never attains the criterion and is left out.
    inner = here[:-1]
    lower = quad.value / np.sqrt(2.0)
    start = max(lower, spread / u_max)
    lam_star, live, passes = _gauge_threshold(lat, leaves, inner, start, band / 8.0)
    value = lam_star * (1.0 + 2.0 * band)

    # The worst node at ``value`` is a live one.  A dropped node is at most
    # 1 - _PRUNE from a lower bound of lam* on, so within a relative
    # w = _PRUNE / (4 (U + 2)) of lam* (2 b is far inside) it stays below
    # (1 - _PRUNE)(1 + 2 w)^E, with E = U + 2 a bound of its elasticity
    # u^2 e^u / H(u) <= u + 2; the threshold node stays above (1 + w)^-E,
    # which is larger.  So the live nodes count and the others read -inf.
    def levels():
        for k, (h, mask) in enumerate(zip(inner, live)):
            if mask.any():
                full = np.full(len(h), -np.inf)
                full[mask] = _gauge_level(lat, leaves, h, value, mask)
                yield k, full

    report = NormReport(value=float(np.ldexp(value, shift)), kind="orlicz_h",
                        achieving_node=node_max(levels())[1], iterations=passes)
    report.extras["bmo_norm"] = float(np.ldexp(quad.value, shift))
    report.extras["bmo_lower_bound_holds"] = bool(lower <= value)
    return report


def h_bmo_norm(zeta: PredictableProcess) -> NormReport:
    """Integrand norm: sqrt of the node max of the conditional remaining
    quadratic load ``E_node[sum_{s >= node} |zeta_s|^2 dt]``, taken of the
    data scaled by a power of two (see ``_binary_shift``) a slice at a time."""
    lat = zeta.lattice
    shift = _binary_shift(zeta.values)

    def loads():
        c = None
        for k in range(lat.num_steps - 1, -1, -1):
            zeta_k = _as_terminal_rows(np.ldexp(zeta.values[k], -shift))
            c = _remaining_load(lat, c, _square_sum(zeta_k.T) * lat.dt)
            yield k, c

    best, node = node_max(loads())
    return NormReport(value=float(np.ldexp(np.sqrt(best), shift)), kind="h_bmo",
                      achieving_node=node)


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
    best, node = node_max((k, stock_norm(_as_terminal_rows(v)))
                          for k, v in enumerate(slices))
    return NormReport(value=best, kind="sup", achieving_node=node)


# corpus terminals per stacked block: a block's Doob tower and sweep
# temporaries then take no more than the per-terminal loop's list of the
# whole corpus did (both peak near 1.6 MB at depth 12)
_KAPPA_BLOCK = 8
KAPPA_RANDOM = 32
KAPPA_SEED = 2024
KAPPA_MAX_STEPS = 12


def _kappa_corpus(lat: Lattice, num_random: int, seed: int):
    """The kappa corpus, one row per terminal, in blocks of at most
    ``_KAPPA_BLOCK`` rows: the walk, its sign, the walk clipped to [-1, 1],
    centered digitals at four strikes, then ``num_random`` uniform draws."""
    bt = lat.walk(lat.num_steps) * lat.sqrt_dt
    fixed = [bt, np.sign(bt) + (bt == 0), np.clip(bt, -1.0, 1.0)]
    for q in np.quantile(bt, [0.05, 0.25, 0.75, 0.95]):
        ind = (bt > q).astype(float)
        fixed.append(ind - ind.mean())
    yield np.array(fixed)
    # one draw of several rows continues the stream exactly as row-by-row draws
    rng = np.random.default_rng(seed)
    for start in range(0, num_random, _KAPPA_BLOCK):
        rows = min(_KAPPA_BLOCK, num_random - start)
        yield rng.uniform(-1.0, 1.0, size=(rows, lat.num_leaves))


def _kappa_block(lat: Lattice, terminals: np.ndarray):
    """Quadratic and first-moment conditional norms of the Doob martingale
    of every row of ``terminals`` (centered, nonzero, one leaf per column).

    Per row this is ``bmo_norm`` and ``bmo_p_norm(., 1.0)`` with the rows
    stacked on a leading axis: each row sees the same element operations,
    and every per-node mean reduces the last axis, so the norms are
    bit-identical to the per-terminal ones.  The tower is built by child
    means, a martingale by construction, so it takes no martingale check.
    """
    tower = [terminals]
    for _ in range(lat.num_steps):
        tower.append(lat.child_mean(tower[-1], axis=1))
    tower.reverse()
    # quadratic: remaining one-step variance, one backward pass
    load = None
    two = np.full(len(terminals), -np.inf)
    for k in range(lat.num_steps - 1, -1, -1):
        d_up, d_dn = (x - tower[k] for x in lat.children(tower[k + 1], axis=1))
        step_var = 0.5 * (d_up * d_up + d_dn * d_dn)
        load = _remaining_load(lat, load, step_var, axis=1)
        np.maximum(two, load.max(axis=1), out=two)
    # first moment: mean distance to the descendant leaves, per node
    one = np.full(len(terminals), -np.inf)
    for k in range(lat.num_steps + 1):
        per_node = lat.subtrees(terminals, lat.nodes(k), axis=1)
        # |x| is what the one-component norm sqrt(x * x) rounds to (nothing
        # this size underflows when squared)
        dist = np.abs(per_node - tower[k][:, :, None])
        np.maximum(one, dist.mean(axis=2).max(axis=1), out=one)
    return np.sqrt(two), one


def measure_kappa(lattice: Lattice) -> float:
    """Empirical ratio between the quadratic and first-moment conditional
    norms, maximized over a corpus of lattice martingales.

    The corpus mixes the walk itself, signs, digitals at several strikes
    (including extreme ones, which drive the ratio up) and random bounded
    terminals.  Its terminals are stacked in blocks of rows, so each block
    takes one Doob averaging, one quadratic pass and one first-moment sweep
    (see ``_kappa_block``); the ratio is the one the two norms give terminal
    by terminal.  Lattices deeper than ``KAPPA_MAX_STEPS`` are measured at
    that depth.  Diagnostic only; it never gates a solver.
    """
    lat = lattice
    if lattice.num_steps > KAPPA_MAX_STEPS:
        lat = Lattice(KAPPA_MAX_STEPS, lattice.horizon)
    ratio = 1.0
    for block in _kappa_corpus(lat, KAPPA_RANDOM, KAPPA_SEED):
        block = block - block.mean(axis=1, keepdims=True)
        top = np.max(np.abs(block), axis=1)
        block, top = block[top != 0.0], top[top != 0.0]
        if not len(block):
            continue
        # each row times the power of two that brings its largest entry into
        # [1/2, 1): the ratio is exact under it, and no square overflows
        block = np.ldexp(block, -np.frexp(top)[1][:, None])
        two, one = _kappa_block(lat, block)
        for a, b in zip(two.tolist(), one.tolist()):
            if b > 0:
                ratio = max(ratio, a / b)
    return float(ratio)
