"""Executable checks: the model's structural identities and inequalities,
plus the counter-example probe.

Every check declares the hypotheses it needs and skips (with a note) on
instances that violate them, so a failure always means a genuine tolerance
breach under satisfied hypotheses.  Hard gates (nonnegativity of the
certainty equivalent, the martingale identities, homogeneity, localization,
optimality, the a-priori bound and its supermartingale mechanism, and the
closed-form identity of the decay profile) run at fixed tolerances; the
norm-bound comparison and the counter-example probe are diagnostics.

Worth recording once: the a-priori bound and the supermartingale property
hold exactly on the lattice, not just up to discretization error.  For a
fixed center x, the profile ``F(|s - x|) exp(g . (s - c))`` is concave in s
whenever the demand is bounded by one, so conditional Jensen under the
pricing measure gives the one-step supermartingale inequality with no
remainder term.

The optimality check is the costliest: it scores its uniform competitors
in blocks of a fixed byte budget, and given two usable CPUs and at least
two blocks, a private block pool runs them on the calling thread and one
worker thread, each claiming the next block from a shared counter (a
fixed split would wait on a stalled CPU).  Each block draws its values at
its own position of the seeded stream (``PCG64.advance``), so the report
is the one-thread report bit for bit; with one usable CPU or one block the
calling thread takes every block through the same loop.  The calling
thread allocates both workers' buffers before the worker starts, so the
worker leaves no pages resident in a malloc arena of its own, and the
worker calls no public function of the package, which perfbench's span
tracer wraps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    _relative_defect,
    _stock_sum,
    build_lattice,
    martingale_defect,
    node_max,
    process_gap,
    stock_norm,
)
from .norms import h_bmo_norm, h_norm, orlicz_h, sup_norm
from .pricer import EquilibriumSolution, NumericalError, localize, price_equilibrium
from .scenario import (Instance, NegativeSignOfB, SignOfBT, StoppingTime, evaluate_demand,
                       evaluate_dividend, sign_plus)
from . import bsde as bsde_mod

HARD_TOL = 1e-10
EXACT_TOL = 1e-12
F_IDENTITY_POINTS = 100
HOMOGENEITY_FACTORS = (0.5, 2.0, 10.0)
PROBE_TOL = 1e-10
PROBE_MAX_ITER = 40
PROBE_STEPS = (8, 10, 12)
OPTIMALITY_EPSILON = 1e-4
X_GRID_SIZE = 5


@dataclass
class CheckReport:
    """Outcome of one check: status, worst margin, where, and context."""

    name: str
    status: str                      # pass | fail | skip | diagnostic
    margin: float | None = None
    worst_node: tuple[int, int] | None = None
    hypotheses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "worst_node": list(self.worst_node) if self.worst_node else None,
            "hypotheses": _plain(self.hypotheses),
            "details": _plain(self.details),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# --- exponential decay profile and its closed-form identity -----------------

def decay_profile(x):
    """F(x) = exp(|x|) (1 - |x|); equals one minus the Orlicz gauge."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.exp(ax) * (1.0 - ax)
    return float(out) if out.ndim == 0 else out


def decay_profile_d1(x):
    """First derivative: -x exp(|x|) (continuous, zero at the origin)."""
    x = np.asarray(x, dtype=float)
    out = -x * np.exp(np.abs(x))
    return float(out) if out.ndim == 0 else out


def decay_profile_d2(x):
    """Second derivative away from the origin: -(1 + |x|) exp(|x|)."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = -(1.0 + ax) * np.exp(ax)
    return float(out) if out.ndim == 0 else out


def check_F_identity(seed: int = 0) -> CheckReport:
    """The profile satisfies F - 2 F' sign(x) + F'' = 0 away from zero, with
    analytic derivatives; F(0) = 1 and F'(0) = 0."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-5.0, 5.0, size=F_IDENTITY_POINTS)
    xs = np.where(xs == 0.0, 0.5, xs)
    xs = np.concatenate([xs, [1.0, -1.0]])
    res = decay_profile(xs) - 2.0 * decay_profile_d1(xs) * np.sign(xs) + decay_profile_d2(xs)
    worst = float(np.max(np.abs(res)))
    ok = (worst <= EXACT_TOL
          and decay_profile(0.0) == 1.0
          and decay_profile_d1(0.0) == 0.0)
    return CheckReport(
        name="decay_profile_identity",
        status="pass" if ok else "fail",
        margin=EXACT_TOL - worst,
        details={"max_residual": worst, "points": len(xs)},
    )


# --- equilibrium invariants ---------------------------------------------------

def _node_min(slices):
    """Smallest node value and its node: ``node_max`` of the negated slices
    (ties to the first node, a nan wins)."""
    value, node = node_max((k, -np.asarray(v)) for k, v in slices)
    return -value, node


def check_R_nonneg(solution: EquilibriumSolution) -> CheckReport:
    """Certainty equivalent never drops below zero (beyond roundoff)."""
    worst, node = _node_min(enumerate(solution.certainty_equivalent.values))
    return CheckReport(
        name="certainty_equivalent_nonnegative",
        status="pass" if worst >= -EXACT_TOL else "fail",
        margin=worst + EXACT_TOL,
        worst_node=node,
        details={"min_value": worst},
    )


def check_equilibrium_martingales(solution: EquilibriumSolution) -> CheckReport:
    """Defining identities of the equilibrium: the density is a martingale
    under the reference measure, prices and the gain are martingales under
    the pricing measure, and the terminal density equals the exponential of
    the negated scaled gain (up to the initial certainty equivalent)."""
    defects = {}
    worst, node = martingale_defect(solution.density)
    defects["density_martingale"] = worst

    s_worst, _ = _relative_defect(solution.prices, _pricing_means(solution, solution.prices))
    g_worst, _ = _relative_defect(solution.gain, _pricing_means(solution, solution.gain))
    defects["price_pricing_martingale"] = s_worst
    defects["gain_pricing_martingale"] = g_worst

    a = solution.risk_aversion
    r0 = solution.initial_certainty
    # an overflowing scaled gain gives the exponential its limit, 0 or inf;
    # numpy's warnings add nothing to it
    with np.errstate(over="ignore", invalid="ignore"):
        ident = np.exp(-a * (solution.gain.terminal - r0))
        defects["terminal_density_identity"] = float(
            np.max(np.abs(solution.density.terminal - ident))
        )

    defects["density_min"], _ = _node_min(enumerate(solution.density.values))
    # positivity is read off the log density: a strongly tilted one-step
    # weight underflows the linear density to zero while its log stays finite
    log_z_min, _ = _node_min(enumerate(solution.log_density.values))
    defects["log_density_min"] = log_z_min

    worst_all, _ = node_max(enumerate([worst, s_worst, g_worst,
                                       defects["terminal_density_identity"]]))
    ok = worst_all <= HARD_TOL and bool(np.isfinite(log_z_min))
    return CheckReport(
        name="equilibrium_martingales",
        status="pass" if ok else "fail",
        margin=HARD_TOL - worst_all,
        worst_node=node,
        details=defects,
    )


def _pricing_means(solution: EquilibriumSolution, proc):
    """Yield ``E^Q_k[X_{k+1}]`` slice by slice under the pricing weights."""
    for q, nxt in zip(solution.up_prob.values, proc.values[1:]):
        q = q if nxt.ndim == 1 else q[:, None]
        up, down = solution.lattice.children(nxt)
        yield q * up + (1 - q) * down


# --- a-priori bound and supermartingale mechanism ----------------------------

def _apriori_hypotheses(solution: EquilibriumSolution, psi_h: float) -> dict:
    gamma_sup = sup_norm(solution.gamma).value
    mean = solution.dividend.mean(axis=0)
    return {
        "unit_risk_aversion": abs(solution.risk_aversion - 1.0) <= 1e-12,
        "demand_within_unit_ball": gamma_sup <= 1.0 + 1e-12,
        "dividend_centered": float(np.max(np.abs(mean))) <= 1e-9,
        "gauge_norm_below_one": psi_h < 1.0,
        "gauge_norm": psi_h,
        "demand_sup": gamma_sup,
    }


def check_apriori(solution: EquilibriumSolution, psi_h_norm: float) -> CheckReport:
    """Exponential of the negated certainty equivalent stays above one minus
    the dividend's gauge norm, and the node-wise conditional inequality that
    produces it (with the conditional dividend mean as center) holds too."""
    lat = solution.lattice
    hyp = _apriori_hypotheses(solution, psi_h_norm)
    if not all(v for k, v in hyp.items() if isinstance(v, (bool, np.bool_))):
        return CheckReport(name="apriori_bound", status="skip", hypotheses=hyp,
                           details={"note": "hypotheses not satisfied; check skipped"})

    floor = 1.0 - psi_h_norm
    worst, node = _node_min((k, np.exp(-r) - floor)
                            for k, r in enumerate(solution.certainty_equivalent.values))

    # node-wise mechanism: exp(-R_k) >= E_k[F(|dividend - E_k[dividend]|)]
    def mechanism_gaps():
        for k in range(lat.num_steps + 1):
            per_node = lat.subtrees(solution.dividend, lat.nodes(k))
            center = per_node.mean(axis=1)
            dist = stock_norm(per_node - center[:, None, :])
            rhs = decay_profile(dist).mean(axis=1)
            yield k, np.exp(-solution.certainty_equivalent.values[k]) - rhs

    mech_worst, mech_node = _node_min(mechanism_gaps())
    # the smaller gap decides; a tie goes to the floor gap, a nan fails
    margin, (which, _) = _node_min(enumerate([worst, mech_worst]))
    return CheckReport(
        name="apriori_bound",
        status="pass" if margin >= -HARD_TOL else "fail",
        margin=margin + HARD_TOL,
        worst_node=(node, mech_node)[which],
        hypotheses=hyp,
        details={"floor": floor, "min_gap_to_floor": worst,
                 "min_conditional_gap": mech_worst},
    )


def default_x_grid(solution: EquilibriumSolution) -> list[np.ndarray]:
    """Per-component price quantiles, ``X_GRID_SIZE`` of them, plus the origin."""
    all_prices = np.concatenate([v for v in solution.prices.values], axis=0)
    qs = np.linspace(0.0, 1.0, X_GRID_SIZE)
    grid = [np.quantile(all_prices, q, axis=0) for q in qs]
    grid.append(np.zeros(all_prices.shape[1]))
    return grid


def check_supermartingale_V(solution: EquilibriumSolution, x_grid,
                            psi_h_norm: float) -> CheckReport:
    """For every center x of ``x_grid``, the profile-weighted certainty
    process ``(1 - H(|S - x|)) exp(-R)`` decreases in conditional mean at
    every node."""
    lat = solution.lattice
    hyp = _apriori_hypotheses(solution, psi_h_norm)
    if not all(v for k, v in hyp.items() if isinstance(v, (bool, np.bool_))):
        return CheckReport(name="supermartingale_profile", status="skip", hypotheses=hyp,
                           details={"note": "hypotheses not satisfied; check skipped"})
    centers = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x_grid]

    def defects():
        for i, x in enumerate(centers):
            vee = [
                (1.0 - orlicz_h(stock_norm(solution.prices.values[k] - x)))
                * np.exp(-solution.certainty_equivalent.values[k])
                for k in range(lat.num_steps + 1)
            ]
            for k in range(lat.num_steps):
                # relative defect: far centers make the profile huge and the
                # inequality must survive at the scale float carries there
                gap = lat.child_mean(vee[k + 1]) - vee[k]
                yield (i, k), gap / np.maximum(1.0, np.abs(vee[k]))

    # ranked by center first, so a tie goes to the earliest center
    worst, ((i, k), p) = node_max(defects())
    return CheckReport(
        name="supermartingale_profile",
        status="pass" if worst <= HARD_TOL else "fail",
        margin=HARD_TOL - worst,
        worst_node=(k, p),
        hypotheses=hyp,
        details={"max_defect": worst, "grid_size": len(x_grid),
                 "worst_center": centers[i].tolist()},
    )


# --- optimality ---------------------------------------------------------------

# the leaf gains of one block of scored demands; at least one demand per
# block, so peak memory does not grow with the competitor count
_GAIN_BLOCK_BYTES = 1 << 20


def _batch_utilities(a: float, increments, demands, work) -> np.ndarray:
    """Expected utility at risk aversion ``a`` of each demand in
    ``demands``, an array of shape ``(batch, nodes, n)`` holding the levels
    of each predictable demand one after another.  Only the terminal gain
    enters the utility, so each level carries the gains forward with the
    recurrence of ``stochastic_integral`` and drops the level before;
    ``increments[k]``, of shape ``(2, nodes(k), n)``, holds the price
    increments from the nodes of step ``k`` to their up children, then to
    their down children, each C-contiguous.  The stocks are summed by
    ``_stock_sum``, as the integral sums them, so the gains equal its
    terminal values bit for bit; the check's worker thread runs this
    function, so it calls no public function of the package.

    A level is computed one child at a time: the products of the level's
    demands with that child's increments, their stock sum, and the gains
    written through the child's ``[:, :, c]`` view of the next level's
    ``(rows, nodes, 2)`` gains, which keep the tree's child order.  Every
    call then runs a long inner loop, where a broadcast child axis made
    numpy loop over two elements at a time, and every element goes through
    the same float operations.  The utility is ``0 - mean(exp(-a * gain) /
    a)``: negation is exact and a sum is symmetric under it, so this is the
    mean of the negated terms bit for bit, the +0 of a row whose every term
    underflows too, one pass over the leaves fewer.

    Every level writes into ``work`` (``_score_work``'s buffers for at least
    ``batch`` rows), so a caller scoring block after block reuses one set of
    pages instead of mapping fresh ones per level."""
    rows = len(demands)
    prod_buf, *gain_bufs = work
    gain = np.zeros((rows, 1))
    start = 0  # the first node of the level in each demand
    for k, dx in enumerate(increments):
        level = demands[:, start:start + dx.shape[1]]
        start += dx.shape[1]
        prod = prod_buf[:level.size].reshape(level.shape)
        nxt = gain_bufs[k % 2][:2 * gain.size].reshape(rows, -1, 2)
        for c in range(2):
            p = np.multiply(level, dx[c], out=prod)
            np.add(gain, _stock_sum(p, out=nxt[:, :, c]), out=nxt[:, :, c])
        gain = nxt.reshape(rows, -1)
    # exp(-a * gain) / a, in place
    np.multiply(gain, -a, out=gain)
    np.exp(gain, out=gain)
    np.divide(gain, a, out=gain)
    return 0.0 - np.mean(gain, axis=1)


def _score_work(leaves: int, n: int):
    """Buffers for ``_batch_utilities`` on ``leaves`` leaf gains in all: the
    products of one child of the last level and two alternating gains."""
    return np.empty(leaves // 2 * n), np.empty(leaves), np.empty(leaves)


def check_optimality(solution: EquilibriumSolution, num_random: int = 1000,
                     seed: int = 0) -> CheckReport:
    """No competitor demand beats the equilibrium demand's expected
    exponential utility, against random bounded competitors plus structured
    two-sided perturbations of the demand itself.

    Every demand is scored by ``_batch_utilities`` in blocks: the zero
    competitor, then the uniform competitors of the seeded stream, then the
    demand itself with its perturbations, whose random direction is drawn
    last.  The uniform competitors' blocks run through a block pool: given
    two usable CPUs and at least two blocks, the calling thread and one
    worker thread each claim the next block from a shared counter until
    none is left; otherwise the calling thread takes every block through
    the same loop.  Block ``i`` of ``block`` competitors draws from its own
    ``PCG64(seed)`` advanced by ``i * block * nodes * n`` draws (one double
    is one 64-bit draw) with ``random`` mapped in place to ``2 r - 1``,
    which is ``uniform(-1, 1)`` bit for bit, and scores into its own slot;
    the slots join in competitor order and the check's own stream is then
    advanced past every competitor.  So each competitor gets the values of
    a per-competitor, per-level draw, and the report and the perturbations'
    direction are those of one thread drawing the stream in order.

    Both workers' buffers and bit generators are allocated here, before
    the worker starts: buffers a worker thread allocated would stay
    resident in its own malloc arena after the check, on top of the calling
    thread's."""
    lat = solution.lattice
    a = solution.risk_aversion
    n = solution.gamma.dim
    prices = solution.prices.values
    increments = [np.stack(lat.children(prices[k + 1])) - prices[k]
                  for k in range(lat.num_steps)]
    nodes = sum(dx.shape[1] for dx in increments)
    block = max(1, _GAIN_BLOCK_BYTES // (8 * lat.num_leaves))
    blocks = -(-num_random // block)
    workers = 2 if blocks >= 2 and bsde_mod._usable_cpus() >= 2 else 1
    slots = [(_score_work(block * lat.num_leaves, n), np.empty((block, nodes, n)),
              np.random.Generator(np.random.PCG64(seed))) for _ in range(workers)]
    rng = np.random.default_rng(seed)
    origin = rng.bit_generator.state
    work = slots[0][0]

    def utilities(demands):
        return [u for lo in range(0, len(demands), block)
                for u in _batch_utilities(a, increments, demands[lo:lo + block],
                                          work).tolist()]

    block_scores = [None] * blocks
    claims = itertools.count()  # next() on it is one atomic step under the GIL

    def score_blocks(slot):
        block_work, draws, generator = slot
        while (i := next(claims)) < blocks:
            rows = min(block, num_random - i * block)
            generator.bit_generator.state = origin
            generator.bit_generator.advance(i * block * nodes * n)
            uniform = generator.random(out=draws[:rows])
            uniform *= 2.0
            uniform -= 1.0
            block_scores[i] = _batch_utilities(a, increments, uniform, block_work).tolist()

    # a hopeless competitor's utility overflows to -inf: its gap is +inf,
    # already the right answer; an overflowing base still fails (gap -inf or
    # nan)
    with np.errstate(over="ignore"):
        scores = utilities(np.zeros((1, nodes, n)))
        bsde_mod._beside(lambda w: score_blocks(slots[w]), workers)
        scores += [u for block_score in block_scores for u in block_score]
        rng.bit_generator.advance(num_random * nodes * n)

        # two-sided perturbations around the demand: the directional slope of
        # the expected utility at the optimum should vanish
        signs = np.concatenate([sign_plus(lat.walk(k)) for k in range(lat.num_steps)])
        directions = [np.ones((1, n)), signs[:, None], rng.uniform(-1.0, 1.0, size=(nodes, n))]
        demands = np.empty((1 + 2 * len(directions), nodes, n))
        demands[0] = np.concatenate(solution.gamma.values)
        for i, d in enumerate(directions):
            demands[2 * i + 1] = demands[0] + OPTIMALITY_EPSILON * d
            demands[2 * i + 2] = demands[0] - OPTIMALITY_EPSILON * d
        base, *perturbed = utilities(demands)
    utility_gaps = [base - u for u in scores + perturbed]
    pairs = iter(perturbed)
    slopes = [(uu - ud) / (2 * OPTIMALITY_EPSILON) for uu, ud in zip(pairs, pairs)]
    worst, _ = _node_min([(0, utility_gaps)])

    return CheckReport(
        name="demand_optimality",
        status="pass" if worst >= -EXACT_TOL else "fail",
        margin=worst + EXACT_TOL,
        details={"competitors": len(utility_gaps),
                 "min_utility_gap": worst,
                 "perturbation_slopes": slopes},
    )


# --- homogeneity ---------------------------------------------------------------

def check_homogeneity(inst: Instance) -> CheckReport:
    """Scaling the demand equals scaling the risk aversion; scaling the
    dividend scales prices and volatility and leaves the market price of
    risk unchanged.  Node-exact across three pricer runs per factor."""
    def price(scale_g, scale_a, scale_psi):
        a = inst.risk_aversion * scale_a
        if not a > 0:
            raise NumericalError(f"homogeneity: the risk aversion {inst.risk_aversion!r} "
                                 f"scaled by {scale_a!r} is {a!r}, below the float range")
        return price_equilibrium(Instance(
            inst.lattice, a, inst.gamma.scaled(scale_g), inst.psi * scale_psi))

    # at most two solutions are alive at a time: s2 goes before s3 is
    # priced, and a factor's solutions before the next factor's
    per_b = {}
    for b in HOMOGENEITY_FACTORS:
        s1 = price(b, 1.0, 1.0)
        s2 = price(1.0, b, 1.0)
        gaps = {
            "price_demand_vs_aversion": process_gap(s1.prices, s2.prices),
            "volatility_demand_vs_aversion": process_gap(s1.volatility, s2.volatility),
            "mpr_demand_vs_aversion": process_gap(
                s1.market_price_of_risk, s2.market_price_of_risk),
        }
        del s2
        s3 = price(1.0, 1.0, b)
        gaps["price_vs_scaled_dividend"] = process_gap(s1.prices, s3.prices, 1.0 / b)
        gaps["volatility_vs_scaled_dividend"] = process_gap(
            s1.volatility, s3.volatility, 1.0 / b)
        gaps["mpr_vs_scaled_dividend"] = process_gap(
            s1.market_price_of_risk, s3.market_price_of_risk)
        del s1, s3
        per_b[b] = gaps
    worst, _ = node_max((i, list(gaps.values())) for i, gaps in enumerate(per_b.values()))
    return CheckReport(
        name="homogeneity",
        status="pass" if worst <= EXACT_TOL else "fail",
        margin=EXACT_TOL - worst,
        details={"max_gap": worst, "per_factor": per_b},
    )


# --- localization ---------------------------------------------------------------

def check_localization(solution: EquilibriumSolution, tau: StoppingTime) -> CheckReport:
    """Killing the dividend off late stops and gating the demand to run
    strictly after the stop leaves prices unchanged on the strict future of
    the stopping time."""
    _, report = localize(solution, tau)
    return CheckReport(
        name="localization",
        status="pass" if report.max_price_gap <= HARD_TOL else "fail",
        margin=HARD_TOL - report.max_price_gap,
        worst_node=report.worst_node,
        details={"max_price_gap": report.max_price_gap,
                 "nodes_compared": report.nodes_compared},
    )


# --- norm bounds (diagnostic) ----------------------------------------------------

def check_norm_bounds(solution: EquilibriumSolution, diagnostics, psi_bmo: float) -> CheckReport:
    """Volatility bounded by twice the centered dividend norm ``psi_bmo``;
    market price of risk by four times demand-sup times aversion times that
    norm.  Diagnostic: the gate (the Picard record ``diagnostics`` converged
    inside the contraction radius) uses configured stand-ins for
    non-constructive constants."""
    sigma_bmo = h_bmo_norm(solution.volatility).value
    alpha_bmo = h_bmo_norm(solution.market_price_of_risk).value
    gamma_sup = sup_norm(solution.gamma).value
    a = solution.risk_aversion

    within = diagnostics.terminal_norm < diagnostics.contraction_radius
    gate = {"picard_converged": diagnostics.converged, "within_contraction_radius": within}
    if not (diagnostics.converged and within):
        return CheckReport(name="norm_bounds", status="skip", hypotheses=gate,
                           details={"note": "outside the small-data gate"})

    sigma_ok = sigma_bmo <= 2.0 * psi_bmo + 1e-9
    alpha_ok = alpha_bmo <= 4.0 * a * gamma_sup * psi_bmo + 1e-9
    return CheckReport(
        name="norm_bounds",
        status="diagnostic",
        margin=min(2.0 * psi_bmo - sigma_bmo, 4.0 * a * gamma_sup * psi_bmo - alpha_bmo),
        hypotheses=gate,
        details={
            "volatility_bmo": sigma_bmo,
            "volatility_bound": 2.0 * psi_bmo,
            "volatility_ok": bool(sigma_ok),
            "mpr_bmo": alpha_bmo,
            "mpr_bound": 4.0 * a * gamma_sup * psi_bmo,
            "mpr_ok": bool(alpha_ok),
            "centered_dividend_bmo": psi_bmo,
            "smallness_product": a * gamma_sup * psi_bmo,
        },
    )


# --- counter-example probe --------------------------------------------------------

def run_counterexample() -> CheckReport:
    """Probe the boundary instance (unit dividend signs against the opposed
    unit demand, unit risk aversion, horizon 1) at the lattice depths
    ``PROBE_STEPS``.

    Each depth records: the exact unit smallness product, the fixed-point
    iteration record with its expansion ratios, the sign pattern of prices
    against the demand, the martingale defect of the profile-weighted
    certainty process, and the growth of the price-integrand norm.  The
    probe never asserts continuum non-existence: every finite-lattice
    instance prices uniquely, and what is reported is the discrete signature
    of the continuum obstruction.  The iteration record is read for its
    ratios and convergence only: it is ``picard_diagnostics`` of the one
    instance ``[inst]``, which rebuilds no solution, and keeps that
    function's default constants.  On the finite tree the iteration reaches
    the solution after N + 1 steps in exact arithmetic, so expansion ratios
    and non-convergence here record rounding amplified by a solution that
    explodes with depth, not a map that fails to contract.
    """
    trend = {"num_steps": [], "theta_bmo": [], "theta_bmo_explicit_solver": [],
             "profile_defect_max": [],
             "sign_pattern_fraction": [], "mean_price_gap_to_unit": [],
             "non_contraction": [], "converged": [], "ratios": []}
    unit_product = None
    for num_steps in PROBE_STEPS:
        lat = build_lattice(num_steps, 1.0)
        gamma = evaluate_demand(NegativeSignOfB(1.0), lat)
        inst = Instance(lat, 1.0, gamma, evaluate_dividend(SignOfBT(1.0), lat)[0])
        sol = price_equilibrium(inst)
        unit_product = sup_norm(sol.gamma).value * sup_norm(sol.dividend).value

        (diag,) = bsde_mod.picard_diagnostics([inst], PROBE_TOL, PROBE_MAX_ITER)
        explicit = bsde_mod.solve_explicit(inst)

        # sign pattern: prices should oppose the demand at every node
        match = 0
        total = 0
        for k in range(num_steps):
            s = sign_plus(sol.prices.values[k][:, 0])
            match += np.count_nonzero(s == -gamma.values[k][:, 0])
            total += lat.nodes(k)
        # profile-weighted certainty process: a martingale in the continuum
        # mechanism, so its one-step defect measures the discrete signature
        vee = [decay_profile(sol.prices.values[k][:, 0])
               * np.exp(-sol.certainty_equivalent.values[k])
               for k in range(num_steps + 1)]
        defect, _ = node_max((k, np.abs(lat.child_mean(vee[k + 1]) - vee[k]))
                             for k in range(num_steps))
        price_gap = float(np.mean([np.mean(np.abs(1.0 - np.abs(v[:, 0])))
                                   for v in sol.prices.values]))
        trend["num_steps"].append(num_steps)
        trend["theta_bmo"].append(h_bmo_norm(sol.price_integrand).value)
        trend["theta_bmo_explicit_solver"].append(
            h_bmo_norm(explicit.price_integrand).value)
        trend["profile_defect_max"].append(defect)
        trend["sign_pattern_fraction"].append(match / total)
        trend["mean_price_gap_to_unit"].append(price_gap)
        trend["non_contraction"].append(bool(any(r >= 1.0 for r in diag.ratios)))
        trend["converged"].append(bool(diag.converged))
        trend["ratios"].append([float(r) for r in diag.ratios])

    one_step = h_norm(np.array([1.0, -1.0]), build_lattice(1, 1.0)).value
    signature = all(nc or not cv
                    for nc, cv in zip(trend["non_contraction"], trend["converged"]))
    return CheckReport(
        name="counterexample_probe",
        status="diagnostic",
        margin=None,
        # the tie-break of the package's sign convention, sign(0) = +1
        hypotheses={"sign_zero": 1, "unit_risk_aversion": True},
        details={
            "smallness_product": unit_product,
            "one_step_gauge_norm": one_step,
            "expansion_signature": bool(signature),
            "trend": trend,
        },
    )
