"""Reference copies of the one-instance fused Picard iteration (slices
without a row axis) and of the integrand-norm helpers the solver used to
keep, verbatim, so the tests can hold ``bsde.picard_diagnostics`` to them
bit for bit; and two references for the solution rebuilt from a final
integrand pair.  The driver is written out here, apart from the package's.

``backward_rebuild`` is the backward recursion with the driver frozen at
that pair, the bit-for-bit reference of the rebuild ``bsde._solve`` walks.
``reconstruct`` is the rebuild the solver used to run, through the running
drift sums and the full conditional-expectation martingale, kept verbatim
with its recursion residual; it sums in another order, so the tests hold
the solver to it within a tolerance."""

from __future__ import annotations

import numpy as np

from impact_bsde import PredictableProcess, conditional_expectation, node_max
from impact_bsde.norms import _remaining_load, _square_sum

from helpers import stacked_integrand


def driver(eta, theta, gamma):
    """The drifts ``0.5 ((theta . gamma)^2 - eta^2)`` and ``theta (eta +
    theta . gamma)``, the stock axis last."""
    tg = (theta * gamma).sum(axis=-1)
    return 0.5 * (tg * tg - eta * eta), theta * (eta + tg)[..., None]


def pair_norm(lattice, eta: list, theta: list) -> float:
    """``h_bmo_norm`` of the stacked pair as the fused kernel takes it: of the
    data themselves, not scaled by a power of two first.  The two agree bit
    for bit wherever no square over- or underflows; beyond that the kernel's
    norm is inf."""
    pair = stacked_integrand([
        PredictableProcess(lattice, eta),
        PredictableProcess(lattice, theta),
    ])

    def loads():
        c = None
        for k in range(lattice.num_steps - 1, -1, -1):
            c = _remaining_load(lattice, c, _square_sum(pair.values[k].T) * lattice.dt)
            yield k, c

    return float(np.sqrt(node_max(loads())[0]))


def pair_distance(lattice, eta_a, theta_a, eta_b, theta_b) -> float:
    eta_d = [x - y for x, y in zip(eta_a, eta_b)]
    theta_d = [x - y for x, y in zip(theta_a, theta_b)]
    return pair_norm(lattice, eta_d, theta_d)


def terminal_norm(inst) -> float:
    """Integrand norm of the terminal-data martingale."""
    lattice = inst.lattice
    terminal = np.concatenate([np.zeros((lattice.num_leaves, 1)),
                               inst.risk_aversion * inst.psi], axis=1)
    terminal_mart = conditional_expectation(terminal, lattice)
    terminal_integrand = [lattice.child_diff(v) for v in terminal_mart.values[1:]]
    return pair_norm(lattice, [v[:, 0] for v in terminal_integrand],
                     [v[:, 1:] for v in terminal_integrand])


def recursion_residual(lattice, gamma, value, price, eta, theta) -> float:
    """Largest node defect of the discrete recursion; nan if any defect is."""
    defects = []
    for k in range(lattice.num_steps):
        vd, pd = driver(eta[k], theta[k], gamma.values[k])
        value_target = lattice.child_mean(value[k + 1]) + vd * lattice.dt
        price_target = lattice.child_mean(price[k + 1]) - pd * lattice.dt
        defects.append(np.max(np.abs(value[k] - value_target)))
        defects.append(np.max(np.abs(price[k] - price_target)))
    return float(np.max(defects))


def _drift_levels(lattice, gamma, eta: list, theta: list):
    cum_v = np.zeros(1)
    cum_p = np.zeros((1, gamma.dim))
    yield cum_v, cum_p
    for k in range(lattice.num_steps):
        vd, pd = driver(eta[k], theta[k], gamma.values[k])
        cum_v = np.repeat(cum_v + vd * lattice.dt, 2, axis=0)
        cum_p = np.repeat(cum_p - pd * lattice.dt, 2, axis=0)
        yield cum_v, cum_p


def reconstruct(inst, eta: list, theta: list):
    """The scaled value and price slices and the recursion residual rebuilt
    from a final integrand pair: the conditional expectation of terminal
    data plus total drift, less the drift already accrued."""
    lattice, a, gamma = inst.lattice, inst.risk_aversion, inst.gamma
    steps = lattice.num_steps
    with np.errstate(over="ignore", invalid="ignore"):
        levels = list(_drift_levels(lattice, gamma, eta, theta))
        cum_v = [v for v, _ in levels]
        cum_p = [p for _, p in levels]
        del levels
        total = np.concatenate([cum_v[-1][:, None], a * inst.psi + cum_p[-1]], axis=1)
        mart = conditional_expectation(total, lattice)
        value = [mart.values[k][:, 0] - cum_v[k] for k in range(steps + 1)]
        price = [mart.values[k][:, 1:] - cum_p[k] for k in range(steps + 1)]
        residual = recursion_residual(lattice, gamma, value, price, eta, theta)
    return value, price, residual


def backward_rebuild(inst, eta: list, theta: list):
    """The scaled value and price slices of the backward recursion with the
    driver frozen at a final integrand pair, and the largest node gap
    between their child differences and that pair (nan if any gap is)."""
    lattice, gamma = inst.lattice, inst.gamma
    steps = lattice.num_steps
    value: list = [None] * (steps + 1)
    price: list = [None] * (steps + 1)
    value[steps] = np.zeros(lattice.num_leaves)
    price[steps] = inst.risk_aversion * inst.psi
    gaps = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps - 1, -1, -1):
            gaps.append(np.max(np.abs(lattice.child_diff(value[k + 1]) - eta[k])))
            gaps.append(np.max(np.abs(lattice.child_diff(price[k + 1]) - theta[k])))
            vd, pd = driver(eta[k], theta[k], gamma.values[k])
            value[k] = lattice.child_mean(value[k + 1]) + vd * lattice.dt
            price[k] = lattice.child_mean(price[k + 1]) - pd * lattice.dt
    return value, price, float(np.max(gaps))


def picard_step(inst, eta: list, theta: list):
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
        e = lattice.child_diff(mart_v)
        t = lattice.child_diff(mart_p)
        mart_v = lattice.child_mean(mart_v)
        mart_p = lattice.child_mean(mart_p)
        eta_new[k], theta_new[k] = e, t
        if not finite:
            continue
        sq = _square_sum([e, *t.T])
        if not (np.isfinite(sq).all() or (np.isfinite(e).all() and np.isfinite(t).all())):
            finite = False
            continue
        sq_dist = _square_sum([e - eta[k], *(t - theta[k]).T])
        load_norm = _remaining_load(lattice, load_norm, sq * lattice.dt)
        load_dist = _remaining_load(lattice, load_dist, sq_dist * lattice.dt)
        best_norm = max(best_norm, float(np.max(load_norm)))
        best_dist = max(best_dist, float(np.max(load_dist)))
    if not finite:
        return eta_new, theta_new, None, None
    return eta_new, theta_new, float(np.sqrt(best_norm)), float(np.sqrt(best_dist))


def picard_record(inst, tol: float, max_iter: int) -> dict:
    """The diagnostics of the one-instance iteration loop from zero, as a
    dict."""
    lattice = inst.lattice
    n = inst.num_stocks
    eta = [np.zeros(1 << k) for k in range(lattice.num_steps)]
    theta = [np.zeros((1 << k, n)) for k in range(lattice.num_steps)]
    out = {"distances": [], "ratios": [], "iterate_norms": [], "iterations": 0,
           "converged": False, "aborted": None}
    with np.errstate(over="ignore", invalid="ignore"):
        out["terminal_norm"] = terminal_norm(inst)
        for it in range(max_iter):
            eta_new, theta_new, norm, dist = picard_step(inst, eta, theta)
            if norm is None:
                out["aborted"] = f"non-finite iterate at iteration {it + 1}"
                break
            out["distances"].append(dist)
            out["iterate_norms"].append(norm)
            if len(out["distances"]) >= 2 and out["distances"][-2] > 0:
                out["ratios"].append(dist / out["distances"][-2])
            eta, theta = eta_new, theta_new
            out["iterations"] = it + 1
            if dist <= tol:
                out["converged"] = True
                break
        out["final_norm"] = (out["iterate_norms"][-1] if out["iterate_norms"]
                             else pair_norm(lattice, eta, theta))
    return out
