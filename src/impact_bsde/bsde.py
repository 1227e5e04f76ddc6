"""Coupled quadratic backward system on the lattice: explicit backward
solver, fixed-point (Picard) solver, and contraction diagnostics.

The unknowns are the predictable integrand pair (value integrand, price
integrand) and the adapted pair (scaled certainty equivalent, scaled
prices), with terminal data (0, risk_aversion * dividend).  Writing
``c = value_integrand``, ``v = price_integrand`` (an n-vector) and
``g = demand``, the backward step from slice ``k + 1`` to ``k`` is

    c_k, v_k    from the exact one-step representation of slice k + 1,
    value_k  = mean_k(value) + 0.5 ((v_k . g_k)^2 - c_k^2) dt
    price_k  = mean_k(price) -  v_k (c_k + v_k . g_k) dt

which determines the solution uniquely by induction: the child difference
pins the integrands, the child mean plus drift pins the values.

The fixed-point route rebuilds, for a frozen integrand guess, the terminal
value plus the pathwise drift integral, takes its conditional-expectation
martingale, and reads off the new integrand from its representation.  Its
fixed points coincide with the explicit solution.  Contraction of that map
holds only when the terminal data are small in the integrand norm; the
iteration therefore reports distances and ratios as first-class output and
treats non-convergence as data, not as an error.

Each iteration is one fused pass: forward over the tree keeping only the
current slice of the drift sums, then leaf to root, slice by slice, taking
child means and child differences (the new integrands) and advancing the
integrand norm of the new iterate and of its distance to the old one.  No
full martingale tree, stacked copy or difference list is stored per
iteration; the memory held is the two integrand pairs plus one slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    AdaptedProcess,
    ExponentialGuardError,
    Lattice,
    PredictableProcess,
    child_diff,
    child_mean,
    conditional_expectation,
    martingale_defect,
    stochastic_exponential,
    stochastic_integral,
)
from .norms import _remaining_load, _square_sum, h_bmo_norm, stacked_integrand
from .pricer import _check_finite
from .scenario import Instance


def driver(eta_k, theta_k, gamma_k):
    """Pointwise drift integrands of the two equations.

    Arguments broadcast; ``theta_k`` and ``gamma_k`` carry the stock axis
    last.  Returns ``(value_drift, price_drift)`` where the backward value
    recursion adds ``+ value_drift * dt`` and the price recursion subtracts
    ``price_drift * dt`` (the price drift enters its equation with a minus
    sign).
    """
    eta_k = np.asarray(eta_k, dtype=float)
    theta_k = np.asarray(theta_k, dtype=float)
    gamma_k = np.asarray(gamma_k, dtype=float)
    tg = np.sum(theta_k * gamma_k, axis=-1)
    value_drift = 0.5 * (tg ** 2 - eta_k ** 2)
    price_drift = theta_k * np.expand_dims(eta_k + tg, -1)
    return value_drift, price_drift


def driver_growth_bound(gamma_sup: float) -> float:
    """Quadratic-growth constant of the driver for demands bounded by
    ``gamma_sup``.

    The driver is a quadratic form in the joint integrand u = (c, v):
    f(u) - f(w) = q(u + w, u - w) with q the symmetrized bilinear map, so
    any bound on |q(x, y)| / (|x| |y|) is a valid growth constant.  With
    G = gamma_sup, Cauchy-Schwarz gives |q_value| <= max(G^2, 1)/2 and
    |q_price| <= 1/2 + G, hence the bound below.  Validated by random
    sampling in the test suite.
    """
    g = float(gamma_sup)
    return float(np.sqrt(max(g * g, 1.0) ** 2 / 4.0 + (0.5 + g) ** 2))


@dataclass
class BsdeSolution:
    """Backward-system solution in scaled form plus its integrands."""

    lattice: Lattice
    risk_aversion: float
    gamma: PredictableProcess
    scaled_value: AdaptedProcess      # risk_aversion * certainty equivalent
    scaled_price: AdaptedProcess      # risk_aversion * prices, n-dim
    value_integrand: PredictableProcess
    price_integrand: PredictableProcess
    residual: float                   # max node defect of the discrete recursion
    method: str

    @property
    def prices(self) -> AdaptedProcess:
        return self.scaled_price.scaled(1.0 / self.risk_aversion)

    @property
    def certainty_equivalent(self) -> AdaptedProcess:
        return self.scaled_value.scaled(1.0 / self.risk_aversion)


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
        return {
            "distances": list(self.distances),
            "ratios": list(self.ratios),
            "iterate_norms": list(self.iterate_norms),
            "final_norm": self.final_norm,
            "terminal_norm": self.terminal_norm,
            "kappa": self.kappa,
            "growth_bound": self.growth_bound,
            "contraction_radius": self.contraction_radius,
            "uniqueness_radius": self.uniqueness_radius,
            "small_ball": self.small_ball,
            "converged": self.converged,
            "iterations": self.iterations,
            "aborted": self.aborted,
        }


def _recursion_residual(lattice: Lattice, gamma, value, price, eta, theta) -> float:
    """Largest node defect of the discrete recursion; nan if any defect is."""
    defects = []
    for k in range(lattice.num_steps):
        vd, pd = driver(eta[k], theta[k], gamma.values[k])
        value_target = child_mean(value[k + 1]) + vd * lattice.dt
        price_target = child_mean(price[k + 1]) - pd * lattice.dt
        defects.append(np.max(np.abs(value[k] - value_target)))
        defects.append(np.max(np.abs(price[k] - price_target)))
    return float(np.max(defects))


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
    price[steps] = a * inst.psi
    for k in range(steps - 1, -1, -1):
        eta[k] = child_diff(value[k + 1], lattice)
        theta[k] = child_diff(price[k + 1], lattice)
        vd, pd = driver(eta[k], theta[k], gamma.values[k])
        value[k] = child_mean(value[k + 1]) + vd * lattice.dt
        price[k] = child_mean(price[k + 1]) - pd * lattice.dt
        _check_finite(value[k], k, "scaled certainty equivalent")
        _check_finite(price[k], k, "scaled price")
    residual = _recursion_residual(lattice, gamma, value, price, eta, theta)
    return BsdeSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=gamma,
        scaled_value=AdaptedProcess(lattice, value),
        scaled_price=AdaptedProcess(lattice, price),
        value_integrand=PredictableProcess(lattice, eta),
        price_integrand=PredictableProcess(lattice, theta),
        residual=residual,
        method="explicit",
    )


def _drift_levels(lattice: Lattice, gamma: PredictableProcess, eta: list, theta: list):
    """Yield, slice by slice from the root, the adapted running sums of the
    two drift integrands (value drift added, price drift subtracted),
    evaluated along every path."""
    cum_v = np.zeros(1)
    cum_p = np.zeros((1, gamma.dim))
    yield cum_v, cum_p
    for k in range(lattice.num_steps):
        vd, pd = driver(eta[k], theta[k], gamma.values[k])
        cum_v = np.repeat(cum_v + vd * lattice.dt, 2, axis=0)
        cum_p = np.repeat(cum_p - pd * lattice.dt, 2, axis=0)
        yield cum_v, cum_p


def _drift_accumulation(lattice: Lattice, gamma: PredictableProcess,
                        eta: list, theta: list):
    """Every slice of the running drift sums, as ``(cum_v, cum_p)`` lists."""
    levels = list(_drift_levels(lattice, gamma, eta, theta))
    return [v for v, _ in levels], [p for _, p in levels]


def _picard_step(inst: Instance, eta: list, theta: list):
    """One application of the fixed-point map, fused with both norms.

    The forward pass keeps only the current slice of the running drift
    sums; the map needs only their leaves.  Terminal data plus drift is then
    averaged back one slice at a time, and each child difference is read
    off as the new integrand slice (the representation of the
    conditional-expectation martingale, which is never stored whole).  Per
    slice, two integrand-norm accumulators advance: one for the new pair
    and one for its distance to ``(eta, theta)``, summed in the order
    ``h_bmo_norm`` sums a stacked pair, so both equal ``_pair_norm`` and
    ``_pair_distance`` exactly.

    Returns ``(eta_new, theta_new, norm, distance)``; both norms are None
    when a new slice is not finite.
    """
    lattice = inst.lattice
    for cum_v, cum_p in _drift_levels(lattice, inst.gamma, eta, theta):
        pass  # only the leaf slice is needed
    mart_v = cum_v
    mart_p = inst.risk_aversion * inst.psi + cum_p
    steps = lattice.num_steps
    eta_new: list = [None] * steps
    theta_new: list = [None] * steps
    finite = True
    load_norm = load_dist = None
    best_norm = best_dist = 0.0
    for k in range(steps - 1, -1, -1):
        e = child_diff(mart_v, lattice)
        t = child_diff(mart_p, lattice)
        mart_v = child_mean(mart_v)
        mart_p = child_mean(mart_p)
        eta_new[k], theta_new[k] = e, t
        if not finite:
            continue
        sq = _square_sum([e, *t.T])
        # squares of finite entries may overflow; only then look at the entries
        if not (np.isfinite(sq).all() or (np.isfinite(e).all() and np.isfinite(t).all())):
            finite = False
            continue
        sq_dist = _square_sum([e - eta[k], *(t - theta[k]).T])
        load_norm = _remaining_load(load_norm, sq * lattice.dt)
        load_dist = _remaining_load(load_dist, sq_dist * lattice.dt)
        # the new entries are finite here, so a load is nan only if the old
        # iterate is (an overflow is inf); the kernel reports no node, so a
        # plain running max suffices
        best_norm = max(best_norm, float(np.max(load_norm)))
        best_dist = max(best_dist, float(np.max(load_dist)))
    if not finite:
        return eta_new, theta_new, None, None
    return eta_new, theta_new, float(np.sqrt(best_norm)), float(np.sqrt(best_dist))


def picard_map(inst: Instance, eta: list, theta: list):
    """One application of the fixed-point map to a frozen integrand pair,
    given as per-step lists.

    Builds the per-leaf terminal data plus accumulated drift, takes its
    conditional-expectation martingale, and returns the representation
    integrands of that martingale as per-step lists ``(eta, theta)``.
    """
    return _picard_step(inst, eta, theta)[:2]


def _pair_norm(lattice: Lattice, eta: list, theta: list) -> float:
    pair = stacked_integrand([
        PredictableProcess(lattice, eta),
        PredictableProcess(lattice, theta),
    ])
    return h_bmo_norm(pair).value


def _pair_distance(lattice: Lattice, eta_a, theta_a, eta_b, theta_b) -> float:
    eta_d = [x - y for x, y in zip(eta_a, eta_b)]
    theta_d = [x - y for x, y in zip(theta_a, theta_b)]
    return _pair_norm(lattice, eta_d, theta_d)


def _terminal_norm(inst: Instance) -> float:
    """Integrand norm of the terminal-data martingale; its trees are freed
    on return, before the iteration allocates its own."""
    lattice = inst.lattice
    terminal = np.concatenate([np.zeros((lattice.num_leaves, 1)),
                               inst.risk_aversion * inst.psi], axis=1)
    terminal_mart = conditional_expectation(terminal, lattice)
    terminal_integrand = [child_diff(v, lattice) for v in terminal_mart.values[1:]]
    return _pair_norm(lattice, [v[:, 0] for v in terminal_integrand],
                      [v[:, 1:] for v in terminal_integrand])


def solve_picard(inst: Instance, tol: float = 1e-12,
                 max_iter: int = 100, zeta0=None, growth_bound: float | None = None,
                 kappa: float = 1.0):
    """Iterate the fixed-point map from zero (or a warm start) until the
    integrand-norm distance between successive iterates drops below ``tol``.

    Non-convergence is a reported outcome, not an exception: the counter-
    example regime is expected to produce expansion ratios, and those are
    exactly what the diagnostics exist to record.  Returns
    ``(solution, diagnostics)``; the solution is reconstructed from the last
    iterate either way.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    lattice, a, gamma = inst.lattice, inst.risk_aversion, inst.gamma
    steps = lattice.num_steps
    n = inst.num_stocks

    if zeta0 is None:
        eta = [np.zeros(1 << k) for k in range(steps)]
        theta = [np.zeros((1 << k, n)) for k in range(steps)]
    else:
        eta = [np.asarray(v, dtype=float) for v in zeta0[0].values]
        theta = [np.asarray(v, dtype=float) for v in zeta0[1].values]

    diag = IterationDiagnostics(
        terminal_norm=_terminal_norm(inst),
        kappa=float(kappa),
        growth_bound=float(growth_bound if growth_bound is not None
                           else driver_growth_bound(inst.gamma_sup)),
    )

    # a diverging run overflows by design and reports it as data (an aborted
    # run, inf ratios), so its numpy over/invalid warnings are silenced here
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            try:
                eta_new, theta_new, norm, dist = _picard_step(inst, eta, theta)
            except FloatingPointError as exc:  # pragma: no cover - defensive
                diag.aborted = f"arithmetic failure at iteration {it}: {exc}"
                break
            if norm is None:
                diag.aborted = f"non-finite iterate at iteration {it + 1}"
                break
            diag.distances.append(dist)
            diag.iterate_norms.append(norm)
            if len(diag.distances) >= 2 and diag.distances[-2] > 0:
                diag.ratios.append(dist / diag.distances[-2])
            eta, theta = eta_new, theta_new
            diag.iterations = it + 1
            if dist <= tol:
                diag.converged = True
                break

        diag.final_norm = (diag.iterate_norms[-1] if diag.iterate_norms
                           else _pair_norm(lattice, eta, theta))

        # reconstruct the adapted pair from the final integrands: conditional
        # expectation of terminal-plus-total-drift minus the drift already accrued
        cum_v, cum_p = _drift_accumulation(lattice, gamma, eta, theta)
        total = np.concatenate([cum_v[-1][:, None], a * inst.psi + cum_p[-1]], axis=1)
        mart = conditional_expectation(total, lattice)
        value = [mart.values[k][:, 0] - cum_v[k] for k in range(steps + 1)]
        price = [mart.values[k][:, 1:] - cum_p[k] for k in range(steps + 1)]
        residual = _recursion_residual(lattice, gamma, value, price, eta, theta)
    solution = BsdeSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=gamma,
        scaled_value=AdaptedProcess(lattice, value),
        scaled_price=AdaptedProcess(lattice, price),
        value_integrand=PredictableProcess(lattice, eta),
        price_integrand=PredictableProcess(lattice, theta),
        residual=residual,
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
        return {
            "within_contraction_radius": self.within_contraction_radius,
            "growth_bound_ok": list(self.growth_bound_ok),
            "growth_bound_margins": list(self.growth_bound_margins),
            "observed_ratios": list(self.observed_ratios),
            "solution_in_small_ball": self.solution_in_small_ball,
            "note": self.note,
        }


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


@dataclass
class AssembledMeasure:
    """Market price of risk, volatility and the density built from a
    backward-system solution, with the martingale defects of the density,
    the density-weighted prices and the density-weighted gain."""

    market_price_of_risk: PredictableProcess
    volatility: PredictableProcess
    density: AdaptedProcess
    density_defect: float
    weighted_price_defect: float
    weighted_gain_defect: float


def assemble(solution: BsdeSolution) -> AssembledMeasure:
    """Build the market price of risk (value integrand plus demand-weighted
    price integrand), the volatility (price integrand over risk aversion)
    and the candidate density (stochastic exponential of the negated market
    price of risk), and report the martingale defects of the density, of
    density-times-prices and of density-times-gain."""
    lat = solution.lattice
    gamma = solution.gamma
    alpha = [
        solution.value_integrand.values[k]
        + np.sum(solution.price_integrand.values[k] * gamma.values[k], axis=1)
        for k in range(lat.num_steps)
    ]
    alpha_proc = PredictableProcess(lat, alpha)
    sigma = solution.price_integrand.scaled(1.0 / solution.risk_aversion)
    try:
        density = stochastic_exponential(alpha_proc.scaled(-1.0))
    except ExponentialGuardError as exc:
        raise ExponentialGuardError(
            f"{exc}; refine the step size (larger num_steps) so the per-step "
            f"move shrinks"
        ) from exc
    prices = solution.prices
    weighted_price = AdaptedProcess(
        lat,
        [density.values[k][:, None] * prices.values[k] for k in range(lat.num_steps + 1)],
    )
    gain = stochastic_integral(gamma, prices)
    weighted_gain = AdaptedProcess(
        lat,
        [density.values[k] * gain.values[k] for k in range(lat.num_steps + 1)],
    )
    return AssembledMeasure(
        market_price_of_risk=alpha_proc,
        volatility=sigma,
        density=density,
        density_defect=martingale_defect(density)[0],
        weighted_price_defect=martingale_defect(weighted_price)[0],
        weighted_gain_defect=martingale_defect(weighted_gain)[0],
    )
