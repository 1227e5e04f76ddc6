"""The ``bsde`` command as it ran with whole solutions: the explicit solve
over fresh per-step arrays, the Picard solve rebuilt over whole slices, a
per-level finiteness loop over the rebuilt slices and ``process_gap`` over
the two scaled prices.  The tests hold the command's leaf-to-root walk to
it, file for file, exit code and message included."""

from __future__ import annotations

import click
import numpy as np

import impact_bsde.bsde as bsde_mod
from impact_bsde.cli import (
    _ErrorExits,
    _evaluate,
    _finite_root,
    _picard_constants,
    _write_csv,
    _write_json,
    _write_nodes,
)
from impact_bsde.config import METHODS, load_config
from impact_bsde.lattice import (AdaptedProcess, ExponentialGuardError, PredictableProcess,
                                 process_gap)
from impact_bsde.pricer import _check_finite
from picard_reference import backward_rebuild


def explicit_solution(inst) -> bsde_mod.BsdeSolution:
    """The explicit backward pass, one fresh array per slice and step."""
    lattice, a, gamma, dt = inst.lattice, inst.risk_aversion, inst.gamma, inst.lattice.dt
    steps = lattice.num_steps
    value: list = [None] * (steps + 1)
    price: list = [None] * (steps + 1)
    eta: list = [None] * steps
    theta: list = [None] * steps
    value[steps] = np.zeros(lattice.num_leaves)
    with np.errstate(over="ignore", invalid="ignore"):
        price[steps] = a * inst.psi
        for k in range(steps - 1, -1, -1):
            eta[k], theta[k] = lattice.child_diff(value[k + 1]), lattice.child_diff(price[k + 1])
            vd, pd = bsde_mod.driver(eta[k], theta[k], gamma.values[k])
            value[k] = lattice.child_mean(value[k + 1]) + vd * dt
            price[k] = lattice.child_mean(price[k + 1]) - pd * dt
            _check_finite(value[k], k, "scaled certainty equivalent")
            _check_finite(price[k], k, "scaled price")
    return bsde_mod.BsdeSolution(lattice, a, gamma, AdaptedProcess(lattice, value),
                                 AdaptedProcess(lattice, price), PredictableProcess(lattice, eta),
                                 PredictableProcess(lattice, theta), 0.0, "explicit")


def picard_solution(inst, tol, max_iter, growth_bound, kappa):
    """The Picard loop, then the whole solution rebuilt from the iterate it
    ends on."""
    ends = [None]
    (diag,) = bsde_mod.picard_diagnostics([inst], tol, max_iter, ends)
    diag.kappa, diag.growth_bound = kappa, growth_bound
    ((eta, theta),) = ends
    with np.errstate(over="ignore", invalid="ignore"):
        value, price, residual = backward_rebuild(inst, eta, theta)
    lattice = inst.lattice
    return bsde_mod.BsdeSolution(lattice, inst.risk_aversion, inst.gamma,
                                 AdaptedProcess(lattice, value), AdaptedProcess(lattice, price),
                                 PredictableProcess(lattice, eta),
                                 PredictableProcess(lattice, theta), residual, "picard"), diag


@click.group(cls=_ErrorExits)
def main():
    """The reference command group."""


@main.command("bsde")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--method", default=None, type=click.Choice(METHODS))
@click.option("--diagnostics", "diag_path", default=None, type=click.Path())
@click.option("--dump-nodes", "dump_path", default=None, type=click.Path())
def cmd_bsde(config_path, out_path, method, diag_path, dump_path):
    run = load_config(config_path)
    inst = _evaluate(run.market)
    method = method or run.solver.method
    summary: dict = {"command": "bsde", "method": method}
    if method in ("explicit", "both"):
        exp = explicit_solution(inst)
        summary["residual_explicit"] = exp.residual
    if method in ("picard", "both"):
        kappa, growth_bound = _picard_constants(run, inst)
        pic, diag = picard_solution(inst, run.solver.tol, run.solver.max_iter, growth_bound,
                                    kappa)
        for k in range(inst.lattice.num_steps, -1, -1):
            _check_finite(pic.scaled_value.values[k], k, "Picard scaled certainty equivalent")
            _check_finite(pic.scaled_price.values[k], k, "Picard scaled price")
    # the root reported is the explicit one where it is solved; one that is
    # not finite once unscaled is a numeric failure
    chosen = exp if method in ("explicit", "both") else pic
    summary.update(_finite_root(chosen, inst.risk_aversion))
    if method in ("picard", "both"):
        summary["picard"] = diag.to_dict()
        summary["contraction_report"] = bsde_mod.contraction_report(diag).to_dict()
        if diag_path:
            rows = []
            for i, dist in enumerate(diag.distances):
                ratio = diag.ratios[i - 1] if 0 < i <= len(diag.ratios) else np.nan
                rows.append([i + 1, dist, ratio, diag.iterate_norms[i]])
            _write_csv(diag_path, ["iteration", "distance", "ratio", "iterate_bmo"], rows)
    if method == "both":
        summary["max_node_discrepancy"] = process_gap(exp.scaled_price, pic.scaled_price)
    _write_json(out_path, summary)
    if dump_path:
        try:
            density = chosen.density
        except ExponentialGuardError:
            density = None
        _write_nodes(dump_path, chosen.prices, chosen.certainty_equivalent, density,
                     mpr=chosen.market_price_of_risk, volatility=chosen.volatility)
    if "picard" in summary:
        click.echo(f"bsde[{method}]: converged={summary['picard']['converged']} "
                   f"iterations={summary['picard']['iterations']}")
    else:
        click.echo(f"bsde[{method}]: residual={summary['residual_explicit']:.3e}")
