"""Exact equilibrium pricer: one explicit backward pass per instance.

At maturity the price equals the dividend.  One step earlier, the market
maker quotes the conditional expectation of the two child prices under the
one-step pricing weights obtained by exponentially tilting the fair coin
with the maker's own next-step gain.  The node's own price enters that tilt
only through a factor measurable at the node, which cancels inside the
conditional ratio, so each backward step is a closed-form softmax rather
than a per-node fixed point.  Exactness and unconditional termination come
for free.

The certainty-equivalent weight ``w = exp(-a R)`` is carried in log space
throughout (a max-shifted softmax), which is algebraically the same as the
plain recursion but immune to overflow for large tilts; the certainty
equivalent ``R`` is recovered at the end as ``-log(w)/a``.  The density is
emitted twice: linear, as the product of the one-step weights, and as its
logarithm, which stays finite (and so certifies positivity) where a
strongly tilted weight underflows to zero.

Derived per-step quantities are difference quotients against the driving
increment: volatility from the price children, the value integrand from the
certainty-equivalent children, and the market price of risk from the
density children.  The density representation and the integrand composite
(value integrand plus demand-weighted price integrand) are both emitted;
they agree only up to the step size, and the gap is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    AdaptedProcess,
    Lattice,
    PredictableProcess,
    node_max,
    process_gap,
    stochastic_integral,
    stock_norm,
    stock_sum,
)
from .scenario import Instance, StoppingTime

LOG_HALF = float(np.log(0.5))
LOG_TWO = float(np.log(2.0))


class NumericalError(ArithmeticError):
    """NaN or overflow inside a backward pass; names the offending slice."""


@dataclass
class EquilibriumSolution:
    """Equilibrium prices plus every process the construction defines."""

    lattice: Lattice
    risk_aversion: float
    gamma: PredictableProcess
    dividend: np.ndarray
    prices: AdaptedProcess               # n-dim, terminal slice equals the dividend
    certainty_equivalent: AdaptedProcess  # scalar, zero at maturity
    density: AdaptedProcess              # pricing-measure density process, starts at 1
    log_density: AdaptedProcess          # its logarithm, finite where the density underflows
    up_prob: PredictableProcess          # conditional pricing-measure weight of the up child
    gain: AdaptedProcess                 # running demand-weighted price gain
    volatility: PredictableProcess       # price difference quotient, n-dim
    price_integrand: PredictableProcess  # risk_aversion * volatility, n-dim
    value_integrand: PredictableProcess  # difference quotient of the scaled certainty equivalent
    market_price_of_risk: PredictableProcess   # from the density representation
    mpr_from_integrands: PredictableProcess    # value integrand + demand-weighted price integrand

    @property
    def initial_price(self) -> np.ndarray:
        return np.asarray(self.prices.values[0][0])

    @property
    def initial_certainty(self) -> float:
        return float(self.certainty_equivalent.values[0][0])

    def mpr_gap(self) -> float:
        """Node max between the two market-price-of-risk representations."""
        return process_gap(self.market_price_of_risk, self.mpr_from_integrands)


def _non_finite(what: str, step: int, node: int) -> NumericalError:
    """The error of slice ``what`` of step ``step``, not finite at ``node``."""
    return NumericalError(f"{what} became non-finite at node (step {step}, path {node}); "
                          f"consider a smaller risk aversion or rescaled inputs")


def _check_finite(arr: np.ndarray, step: int, what: str):
    if not np.all(np.isfinite(arr)):
        flat = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
        raise _non_finite(what, step, int(np.argmin(flat)))


def price_equilibrium(inst: Instance) -> EquilibriumSolution:
    """Price an evaluated instance in one backward pass."""
    lattice, a, gamma, psi = inst.lattice, inst.risk_aversion, inst.gamma, inst.psi
    steps = lattice.num_steps

    prices: list = [None] * (steps + 1)
    log_w: list = [None] * (steps + 1)
    q_up: list = [None] * steps
    log_q: list = []   # log one-step weights, children interleaved, last step first
    prices[steps] = psi
    log_w[steps] = np.zeros(lattice.num_leaves)
    # an overflowing tilt is exact in the limit (a one-step weight of zero)
    # or leaves a price or weight that is not finite, which _check_finite
    # reports with its node; a log density below the float range is -inf, as
    # the density is then 0; an integrand or a gain that overflows is left to
    # the callers' finite checks; numpy's warnings add nothing to any of these
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1, -1, -1):
            s_up, s_dn = lattice.children(prices[k + 1])
            lw_up, lw_dn = lattice.children(log_w[k + 1])
            g = gamma.values[k]
            lu_up = -a * stock_sum(g * s_up) + lw_up
            lu_dn = -a * stock_sum(g * s_dn) + lw_dn
            shift = np.maximum(lu_up, lu_dn)
            e_up = np.exp(lu_up - shift)
            e_dn = np.exp(lu_dn - shift)
            total = e_up + e_dn
            log_total = np.log(total)
            q = e_up / total
            s_here = q[:, None] * s_up + (1.0 - q)[:, None] * s_dn
            lw_here = a * stock_sum(g * s_here) + shift + log_total + LOG_HALF
            _check_finite(s_here, k, "price")
            _check_finite(lw_here, k, "certainty-equivalent weight")
            prices[k] = s_here
            log_w[k] = lw_here
            q_up[k] = q
            # a weight that underflows to zero in q keeps a finite logarithm here
            log_q.append(lattice.from_children(lu_up - shift - log_total,
                                               lu_dn - shift - log_total))

        certainty = [-lw / a for lw in log_w]

        density: list = [None] * (steps + 1)
        log_density: list = [None] * (steps + 1)
        density[0] = np.ones(1)
        log_density[0] = np.zeros(1)
        for k in range(steps):
            density[k + 1] = lattice.from_children(density[k] * (2.0 * q_up[k]),
                                                   density[k] * (2.0 * (1.0 - q_up[k])))
            # pop frees each step's weights as soon as they are folded in
            log_density[k + 1] = lattice.to_children(log_density[k]) + (LOG_TWO + log_q.pop())

        volatility = [lattice.child_diff(prices[k + 1]) for k in range(steps)]
        # a * child_diff(...) would round differently from the published values
        half = 2.0 * lattice.sqrt_dt
        value_integrand = [a * (up - down) / half
                           for up, down in map(lattice.children, certainty[1:])]
        price_integrand = [a * v for v in volatility]
        # density representation: Z_{k+1} = Z_k (1 - alpha_k dB_k) collapses to a
        # function of the one-step pricing weight alone
        mpr = [(1.0 - 2.0 * q_up[k]) / lattice.sqrt_dt for k in range(steps)]
        mpr_composite = [value_integrand[k] + stock_sum(price_integrand[k] * gamma.values[k])
                         for k in range(steps)]
        prices_proc = AdaptedProcess(lattice, prices)
        gain = stochastic_integral(gamma, prices_proc)

    return EquilibriumSolution(
        lattice=lattice,
        risk_aversion=a,
        gamma=gamma,
        dividend=psi,
        prices=prices_proc,
        certainty_equivalent=AdaptedProcess(lattice, certainty),
        density=AdaptedProcess(lattice, density),
        log_density=AdaptedProcess(lattice, log_density),
        up_prob=PredictableProcess(lattice, q_up),
        gain=gain,
        volatility=PredictableProcess(lattice, volatility),
        price_integrand=PredictableProcess(lattice, price_integrand),
        value_integrand=PredictableProcess(lattice, value_integrand),
        market_price_of_risk=PredictableProcess(lattice, mpr),
        mpr_from_integrands=PredictableProcess(lattice, mpr_composite),
    )


@dataclass
class LocalizationReport:
    """Node comparison of original and localized prices strictly after the
    stopping time."""
    max_price_gap: float
    nodes_compared: int
    worst_node: tuple[int, int]


def localize(solution: EquilibriumSolution, tau: StoppingTime):
    """Price the pair (dividend killed off late stops, demand gated to run
    only strictly after the stop) and compare with the original prices on
    the strict future of the stopping time.

    Returns ``(localized_solution, report)``.
    """
    lat = solution.lattice
    gamma_loc = PredictableProcess(lat, tau.gate_demand(solution.gamma.values))
    psi_loc = tau.gate_dividend(solution.dividend)
    localized = price_equilibrium(Instance(lat, solution.risk_aversion, gamma_loc, psi_loc))

    # nodes outside the strict future read 0; the root always is one, so a
    # zero gap is reported at (0, 0)
    def gaps():
        for k in range(lat.num_steps + 1):
            diff = stock_norm(localized.prices.values[k] - solution.prices.values[k])
            yield k, np.where(tau.stopped_before(k), diff, 0.0)

    gap, worst = node_max(gaps())
    count = sum(int(tau.stopped_before(k).sum()) for k in range(lat.num_steps + 1))
    return localized, LocalizationReport(max_price_gap=gap, nodes_compared=count,
                                         worst_node=worst)
