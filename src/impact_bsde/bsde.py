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

Each iteration is one fused pass: forward over the tree keeping only the
current slice of the drift sums, then leaf to root, slice by slice, taking
child means and child differences (the new integrands) and advancing the
integrand norm of the new iterate and of its distance to the old one.  No
full martingale tree, stacked copy or difference list is stored per
iteration; the memory held is the two integrand pairs plus one slice.
The map keeps this forward form: through ``_backward`` it would read no
level below k in floating point either, so every finite run would stop at
step N + 1 with distance 0, a change of the iteration records of its own.

That pass, ``_picard_step``, carries a leading point axis: every slice
holds one row per point, and each row is an ``Instance`` on one shared
lattice, such as a sweep's variants of one market.  One loop,
``picard_diagnostics``, iterates it from zero: it draws the points from an
iterable a block at a time, sized by a fixed byte budget on the integrand
pairs, keeps the iteration records, and runs each block until every row
has converged, reached the iteration cap or aborted.
A sweep runs its points through it; ``solve_picard`` runs it on its one
instance and rebuilds the solution from the iterate that row ends on.
Every reduction is per row, so each row's record is the one its own run
would give, bit for bit.  The rebuild writes its ``_backward`` slices
into one block; its residual is the node-max move of one more map step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .lattice import (
    AdaptedProcess,
    ExponentialGuardError,
    Lattice,
    PredictableProcess,
    _square_sum,
    stochastic_exponential,
    stock_sum,
)
from .norms import _remaining_load
from .pricer import _check_finite
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
    eta_k = np.asarray(eta_k, dtype=float)
    theta_k = np.asarray(theta_k, dtype=float)
    gamma_k = np.asarray(gamma_k, dtype=float)
    tg = stock_sum(theta_k * gamma_k)
    value_drift = 0.5 * (tg ** 2 - eta_k ** 2)
    price_drift = theta_k * (eta_k + tg)[..., None]
    return value_drift, price_drift


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
    method: str

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
        return (1.0 / self.risk_aversion) * self.scaled_price.values[0][0]

    @property
    def initial_certainty(self) -> float:
        return float((1.0 / self.risk_aversion) * self.scaled_value.values[0][0])

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


def _backward(inst: Instance, value, price, eta=None, theta=None):
    """The backward recursion from the leaf slices ``(value, price)``:
    yields ``(k, e, t, value_k, price_k)`` for ``k`` from ``N - 1`` down to
    0, where ``(e, t)`` are the child differences of slice ``k + 1`` and
    slice ``k`` is its child mean plus the drift, taken at ``(e, t)`` (the
    explicit solve) or at a frozen pair ``(eta[k], theta[k])`` (a Picard
    rebuild).  Only the current slices are held, and each yielded array is
    a fresh one that the caller may overwrite.
    """
    lattice, gamma = inst.lattice, inst.gamma
    for k in range(lattice.num_steps - 1, -1, -1):
        e, t = lattice.child_diff(value), lattice.child_diff(price)
        vd, pd = (driver(e, t, gamma.values[k]) if eta is None
                  else driver(eta[k], theta[k], gamma.values[k]))
        value = lattice.child_mean(value) + vd * lattice.dt
        price = lattice.child_mean(price) - pd * lattice.dt
        del vd, pd  # not held while the caller works on the level
        yield k, e, t, value, price


def solve_explicit(inst: Instance) -> BsdeSolution:
    """One deterministic backward pass; raises ``NumericalError`` naming the
    step and node of the first slice that is not finite."""
    lattice, a, gamma = inst.lattice, inst.risk_aversion, inst.gamma
    steps = lattice.num_steps
    value: list = [None] * (steps + 1)
    price: list = [None] * (steps + 1)
    eta: list = [None] * steps
    theta: list = [None] * steps
    value[steps] = np.zeros(lattice.num_leaves)
    # an overflow is not warned about: _check_finite names its node
    with np.errstate(over="ignore", invalid="ignore"):
        price[steps] = a * inst.psi
        for k, e, t, v, p in _backward(inst, value[steps], price[steps]):
            eta[k], theta[k], value[k], price[k] = e, t, v, p
            _check_finite(value[k], k, "scaled certainty equivalent")
            _check_finite(price[k], k, "scaled price")
    return BsdeSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=gamma,
        scaled_value=AdaptedProcess(lattice, value),
        scaled_price=AdaptedProcess(lattice, price),
        value_integrand=PredictableProcess(lattice, eta),
        price_integrand=PredictableProcess(lattice, theta),
        # the integrands are the child differences themselves
        residual=0.0,
        method="explicit",
    )


def _drift_leaves(points: list, eta: list, theta: list):
    """The adapted running sums of the two drift integrands (value drift
    added, price drift subtracted) at the leaves, evaluated along every path
    of every row; only the current slice is held on the way.  Slices carry
    the rows first: ``eta[k]`` has shape ``(rows, nodes(k))`` and
    ``theta[k]`` ``(rows, nodes(k), n)``, and row ``r`` reads the demand of
    ``points[r]``.  A demand process every row shares is read as it is;
    otherwise each step stacks the rows' demand slices."""
    lattice, gamma = points[0].lattice, points[0].gamma
    shared = all(p.gamma is gamma for p in points)
    cum_v = np.zeros((len(points), 1))
    cum_p = np.zeros((len(points), 1, gamma.dim))
    for k in range(lattice.num_steps):
        g = gamma.values[k] if shared else np.stack([p.gamma.values[k] for p in points])
        vd, pd = driver(eta[k], theta[k], g)
        cum_v = lattice.to_children(cum_v + vd * lattice.dt, axis=1)
        cum_p = lattice.to_children(cum_p - pd * lattice.dt, axis=1)
    return cum_v, cum_p


def _picard_step(points: list, eta: list, theta: list):
    """One application of the fixed-point map to a block of rows, fused
    with both norms.

    Row ``r`` is the instance ``points[r]``; all rows share one lattice.
    Slices carry the rows first (see ``_drift_leaves``), and each row's
    terminal data are added to its price sums in place, with no stacked
    copy of the dividends.

    The forward pass keeps only the current slice of the running drift
    sums; the map needs only their leaves.  Terminal data plus drift is then
    averaged back one slice at a time, and each child difference is read
    off as the new integrand slice (the representation of the
    conditional-expectation martingale, which is never stored whole).  Per
    slice, two integrand-norm accumulators advance: one for the new pair
    and one for its distance to ``(eta, theta)``, summed in the order
    ``h_bmo_norm`` sums a stacked pair.  Every operation is elementwise or
    reduces one row, so each row's norms are bit-identical to its own
    one-row pass.

    Returns ``(eta_new, theta_new, norm, distance, finite)``, the last three
    one entry per row; a row whose new slices are not all finite has
    ``finite`` False and meaningless norms.
    """
    lattice = points[0].lattice
    mart_v, mart_p = _drift_leaves(points, eta, theta)
    for r, p in enumerate(points):
        mart_p[r] += p.risk_aversion * p.psi
    steps = lattice.num_steps
    eta_new: list = [None] * steps
    theta_new: list = [None] * steps
    finite = np.ones(len(mart_v), dtype=bool)
    load_norm = load_dist = None
    best_norm = best_dist = np.zeros(len(mart_v))
    for k in range(steps - 1, -1, -1):
        e = lattice.child_diff(mart_v, axis=1)
        t = lattice.child_diff(mart_p, axis=1)
        mart_v = lattice.child_mean(mart_v, axis=1)
        mart_p = lattice.child_mean(mart_p, axis=1)
        eta_new[k], theta_new[k] = e, t
        if not finite.any():
            continue
        sq = _square_sum([e, *np.moveaxis(t, -1, 0)])
        # squares of finite entries may overflow; only then look at the entries
        ok = np.isfinite(sq).all(axis=1)
        if not ok.all():
            finite &= ok | (np.isfinite(e).all(axis=1) & np.isfinite(t).all(axis=(1, 2)))
            if not finite.any():
                continue
        sq_dist = _square_sum([e - eta[k], *np.moveaxis(t - theta[k], -1, 0)])
        here_norm, here_dist = sq * lattice.dt, sq_dist * lattice.dt
        load_norm = _remaining_load(lattice, load_norm, here_norm, axis=1)
        load_dist = _remaining_load(lattice, load_dist, here_dist, axis=1)
        # a finite row's load is nan only if its old iterate is (an overflow
        # is inf); fmax then keeps the running max, as max(best, nan) does,
        # and the kernel reports no node, so a running max per row suffices
        best_norm = np.fmax(best_norm, load_norm.max(axis=1))
        best_dist = np.fmax(best_dist, load_dist.max(axis=1))
    return eta_new, theta_new, np.sqrt(best_norm), np.sqrt(best_dist), finite


def picard_map(inst: Instance, eta: list, theta: list):
    """One application of the fixed-point map to a frozen integrand pair,
    given as per-step lists.

    Builds the per-leaf terminal data plus accumulated drift, takes its
    conditional-expectation martingale, and returns the representation
    integrands of that martingale as per-step lists ``(eta, theta)``.
    """
    eta_new, theta_new = _picard_step([inst], [np.asarray(v, dtype=float)[None] for v in eta],
                                      [np.asarray(v, dtype=float)[None] for v in theta])[:2]
    return [v[0] for v in eta_new], [v[0] for v in theta_new]


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

    The points run as rows of one ``_picard_step`` call on the shared
    lattice, a block of ``_PICARD_BLOCK_BYTES`` of integrand pairs at a
    time.  A row leaves the block when it converges, reaches ``max_iter``
    or aborts on a step that is not finite, and the block compacts; the
    next block is drawn only when every row has left, so at most one block
    of instances is held.  Given ``ends``, one entry per point, a leaving row
    stores there the integrand pair it ends on: its last finite iterate,
    which is the zero pair when the first step aborts.

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
            eta = [np.zeros((len(rows), lattice.nodes(k))) for k in range(lattice.num_steps)]
            theta = [np.zeros((len(rows), lattice.nodes(k), n)) for k in range(lattice.num_steps)]
            while rows:
                eta_new, theta_new, norm, dist, finite = _picard_step(rows, eta, theta)
                keep = []
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
                    if ends is not None:
                        pair = (eta_new, theta_new) if finite[r] else (eta, theta)
                        ends[i] = tuple([v[r] for v in part] for part in pair)
                if len(keep) < len(live):
                    live = [live[r] for r in keep]
                    rows = [rows[r] for r in keep]
                    eta_new = [v[keep] for v in eta_new]
                    theta_new = [v[keep] for v in theta_new]
                eta, theta = eta_new, theta_new
            # every row of the block has left: only now is the next one drawn
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
    ((eta, theta),) = ends
    diag.kappa = float(kappa)
    diag.growth_bound = float(growth_bound if growth_bound is not None
                              else driver_growth_bound(inst.gamma_sup))
    lattice, a, gamma = inst.lattice, inst.risk_aversion, inst.gamma
    # one block per process, sliced by level: one allocation instead of one
    # per level, after which a process's next Picard loops fault fewer pages
    value = lattice.zero_slices()
    price = lattice.zero_slices(gamma.dim)
    residual = 0.0
    # the last finite iterate of a diverging run may still overflow here
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, inst.psi, out=price[-1])
        for k, e, t, v, p in _backward(inst, value[-1], price[-1], eta, theta):
            value[k][...], price[k][...] = v, p
            # the gaps overwrite the child differences, which are not kept;
            # np.max keeps a nan gap, which the builtin max drops against 0.0
            for x, old in ((e, eta[k]), (t, theta[k])):
                residual = np.max([residual, np.abs(np.subtract(x, old, out=x), out=x).max()])
    solution = BsdeSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=gamma,
        scaled_value=AdaptedProcess(lattice, value),
        scaled_price=AdaptedProcess(lattice, price),
        value_integrand=PredictableProcess(lattice, eta),
        price_integrand=PredictableProcess(lattice, theta),
        residual=float(residual),
        method="picard",
    )
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


def contraction_report(diag: IterationDiagnostics, tol: float = 1e-9) -> ContractionReport:
    """Evaluate the smallness condition, the per-iteration growth bound
    ``|zeta'| <= |L| + 2 kappa Theta |zeta|^2``, and whether a converged
    solution landed in the guaranteed ball of twice the terminal norm."""
    two_kt = 2.0 * diag.kappa * diag.growth_bound
    ok: list[bool] = []
    margins: list[float] = []
    prev = 0.0  # iteration starts at the zero integrand
    for norm in diag.iterate_norms:
        bound = diag.terminal_norm + two_kt * prev * prev
        margins.append(bound - norm)
        ok.append(norm <= bound + tol)
        prev = norm
    in_ball = None
    if diag.converged:
        in_ball = diag.final_norm <= diag.small_ball + tol
    return ContractionReport(
        within_contraction_radius=diag.terminal_norm < diag.contraction_radius,
        growth_bound_ok=ok,
        growth_bound_margins=margins,
        observed_ratios=list(diag.ratios),
        solution_in_small_ball=in_ball,
    )
