"""Batch front end: price, bsde, norms, verify, sweep.

One JSON config drives every command; outputs are JSON summaries and CSV
tables with fixed 17-significant-digit scientific formatting, so identical
config plus seed reproduces byte-identical files.  Exit codes: 0 success,
1 verification hard-gate failure, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace

import click
import numpy as np

from . import bsde as bsde_mod
from . import verify as verify_mod
from .config import ConfigError, RunConfig, load_config, validate_summary
from .lattice import ExponentialGuardError, LatticeSizeError, build_lattice, process_gap
from .norms import (KAPPA_MAX_STEPS, bmo_norm_rv, h_bmo_norm, h_norm, measure_kappa,
                    sup_norm)
from .pricer import NumericalError, price_equilibrium
from .scenario import Instance, MarketConfig, evaluate_market, hitting_time_tau

EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# the float format of every CSV table: 17 significant digits
_FLOAT_SPEC = ".16e"


def _fmt(x: float) -> str:
    return format(x, _FLOAT_SPEC)


def _write_json(path: str, doc: dict):
    with open(path, "w") as handle:
        json.dump(verify_mod._plain(doc), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                _fmt(v) if isinstance(v, (float, np.floating)) else v for v in row
            ])


def _config_error(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _numeric_error(exc: Exception):
    click.echo(f"numeric failure: {exc}", err=True)
    sys.exit(EXIT_NUMERIC)


def _load(config_path: str) -> RunConfig:
    try:
        return load_config(config_path)
    except ConfigError as exc:
        _config_error(exc)


def _evaluate(market: MarketConfig) -> Instance:
    """The market on its own lattice; each command evaluates its market once
    (a depth sweep once per depth)."""
    try:
        return evaluate_market(market, build_lattice(market.num_steps, market.horizon))
    except LatticeSizeError as exc:
        _config_error(exc)
    except ValueError as exc:  # a spec that does not fit the lattice
        _config_error(f"market: {exc}")


def _kappa_meter(run: RunConfig):
    """The ratio constant as a function of the lattice, for one invocation:
    the configured one, or ``measure_kappa``'s, measured once per effective
    depth and horizon (the value depends on nothing else)."""
    if run.solver.kappa is not None:
        return lambda lattice: run.solver.kappa
    measured: dict = {}

    def kappa(lattice) -> float:
        key = (min(lattice.num_steps, KAPPA_MAX_STEPS), lattice.horizon)
        if key not in measured:
            measured[key] = measure_kappa(lattice)
        return measured[key]

    return kappa


def _instance_norms(run: RunConfig, inst: Instance) -> dict:
    centered = inst.psi - inst.psi.mean(axis=0)
    psi_bmo = bmo_norm_rv(centered, inst.lattice).value
    gauge = h_norm(centered, inst.lattice, bisection_tol=run.norms.bisection_tol)
    return {
        "demand_sup": inst.gamma_sup,
        "dividend_mean": inst.psi_mean.tolist(),
        "centered_dividend_bmo": psi_bmo,
        "centered_dividend_gauge": gauge.value,
        "gauge_achieving_node": list(gauge.achieving_node),
        "smallness_product": run.market.risk_aversion * inst.gamma_sup * psi_bmo,
    }


def _node_slice(proc, k: int, width: int, dim: int | None = None):
    """Slice ``k`` of ``proc``, or nan rows where the process is absent or
    ends before ``k`` (predictable fields on the terminal slice)."""
    if proc is None or k >= len(proc.values):
        return np.full(width if dim is None else (width, dim), np.nan)
    return proc.values[k]


# rows of the node table formatted per write, so the writer's temporaries
# stay a few MB whatever the depth
_NODE_ROWS = 1 << 12


def _write_nodes(path: str, prices, certainty, density=None, up_prob=None,
                 mpr=None, volatility=None):
    """Per-node CSV: step, node, walk, prices, certainty equivalent, density,
    up probability, market price of risk, volatility.  Written in chunks of
    a level through one row template; the bytes are those of
    ``_write_csv``."""
    lat = prices.lattice
    n = prices.dim
    header = ["step", "node", "b", *[f"s_{i + 1}" for i in range(n)],
              "r", "z", "q_up", "alpha", *[f"sigma_{i + 1}" for i in range(n)]]
    # csv.writer's default row terminator
    row = ",".join(["%d", "%d"] + ["%" + _FLOAT_SPEC] * (5 + 2 * n)) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for k in range(lat.num_steps + 1):
            width = 1 << k
            columns = [
                lat.b_int[k] * lat.sqrt_dt, prices.values[k], certainty.values[k],
                _node_slice(density, k, width), _node_slice(up_prob, k, width),
                _node_slice(mpr, k, width), _node_slice(volatility, k, width, n),
            ]
            for lo in range(0, width, _NODE_ROWS):
                hi = min(width, lo + _NODE_ROWS)
                table = np.column_stack([np.full(hi - lo, k), np.arange(lo, hi),
                                         *(c[lo:hi] for c in columns)])
                handle.write("".join(row % tuple(values) for values in table.tolist()))


@click.group()
def main():
    """Demand-based equilibrium pricing laboratory."""


@main.command("price")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dump-nodes", "dump_path", default=None, type=click.Path(),
              help="Also write the per-node CSV table here.")
def cmd_price(config_path, out_path, dump_path):
    """Price the configured instance and write a solution summary."""
    run = _load(config_path)
    inst = _evaluate(run.market)
    try:
        sol = price_equilibrium(inst)
    except (NumericalError, ExponentialGuardError) as exc:
        _numeric_error(exc)
    summary = {
        "command": "price",
        "initial_price": sol.initial_price.tolist(),
        "initial_certainty": sol.initial_certainty,
        "mpr_representation_gap": sol.mpr_gap(),
        "volatility_bmo": h_bmo_norm(sol.volatility).value,
        "mpr_bmo": h_bmo_norm(sol.market_price_of_risk).value,
        "norms": _instance_norms(run, inst),
    }
    validate_summary(summary)
    _write_json(out_path, summary)
    if dump_path or run.output.dump_nodes:
        _write_nodes(dump_path or out_path + ".nodes.csv", sol.prices,
                     sol.certainty_equivalent, sol.density, sol.up_prob,
                     sol.market_price_of_risk, sol.volatility)
    click.echo(f"price: S0={sol.initial_price.tolist()} R0={sol.initial_certainty:.12g}")


@main.command("bsde")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--method", default=None,
              type=click.Choice(["explicit", "picard", "both"]),
              help="Override the solver method from the config.")
@click.option("--diagnostics", "diag_path", default=None, type=click.Path(),
              help="Write the per-iteration CSV here (picard/both).")
@click.option("--dump-nodes", "dump_path", default=None, type=click.Path(),
              help="Also write the per-node CSV table here.")
def cmd_bsde(config_path, out_path, method, diag_path, dump_path):
    """Solve the backward system; non-convergence is reported, not fatal."""
    run = _load(config_path)
    inst = _evaluate(run.market)
    method = method or run.solver.method
    summary: dict = {"command": "bsde", "method": method}
    try:
        if method in ("explicit", "both"):
            exp = bsde_mod.solve_explicit(inst)
            summary["initial_price"] = exp.prices.values[0][0].tolist()
            summary["initial_certainty"] = float(exp.certainty_equivalent.values[0][0])
            summary["residual_explicit"] = exp.residual
        if method in ("picard", "both"):
            pic, diag = bsde_mod.solve_picard(
                inst, tol=run.solver.tol, max_iter=run.solver.max_iter,
                growth_bound=run.solver.growth_bound, kappa=_kappa_meter(run)(inst.lattice),
            )
            report = bsde_mod.contraction_report(diag)
            summary.setdefault("initial_price", pic.prices.values[0][0].tolist())
            summary.setdefault("initial_certainty",
                               float(pic.certainty_equivalent.values[0][0]))
            summary["picard"] = diag.to_dict()
            summary["contraction_report"] = report.to_dict()
            if diag_path:
                rows = []
                for i, dist in enumerate(diag.distances):
                    ratio = diag.ratios[i - 1] if 0 < i <= len(diag.ratios) else np.nan
                    rows.append([i + 1, dist, ratio, diag.iterate_norms[i]])
                _write_csv(diag_path, ["iteration", "distance", "ratio", "iterate_bmo"],
                           rows)
        if method == "both":
            summary["max_node_discrepancy"] = process_gap(exp.scaled_price, pic.scaled_price)
    except (NumericalError, ExponentialGuardError) as exc:
        _numeric_error(exc)
    validate_summary(summary)
    _write_json(out_path, summary)
    if dump_path or run.output.dump_nodes:
        chosen = exp if method in ("explicit", "both") else pic
        try:
            asm = bsde_mod.assemble(chosen)
            assembled = {"density": asm.density, "mpr": asm.market_price_of_risk,
                         "volatility": asm.volatility}
        except ExponentialGuardError:
            assembled = {}
        # the one-step pricing weight has no backward-system analogue: q_up is nan
        _write_nodes(dump_path or out_path + ".nodes.csv", chosen.prices,
                     chosen.certainty_equivalent, **assembled)
    if "picard" in summary:
        click.echo(f"bsde[{method}]: converged={summary['picard']['converged']} "
                   f"iterations={summary['picard']['iterations']}")
    else:
        click.echo(f"bsde[{method}]: residual={summary['residual_explicit']:.3e}")


@main.command("norms")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_norms(config_path, out_path):
    """Norms of the configured inputs and of the priced solution."""
    run = _load(config_path)
    inst = _evaluate(run.market)
    try:
        sol = price_equilibrium(inst)
    except (NumericalError, ExponentialGuardError) as exc:
        _numeric_error(exc)
    doc = {
        "command": "norms",
        "initial_price": sol.initial_price.tolist(),
        "initial_certainty": sol.initial_certainty,
        "norms": _instance_norms(run, inst),
        "volatility_bmo": h_bmo_norm(sol.volatility).value,
        "mpr_bmo": h_bmo_norm(sol.market_price_of_risk).value,
        "value_integrand_bmo": h_bmo_norm(sol.value_integrand).value,
        "price_integrand_bmo": h_bmo_norm(sol.price_integrand).value,
        "demand_sup_node": list(sup_norm(sol.gamma).achieving_node),
        "kappa_empirical": measure_kappa(inst.lattice),
    }
    validate_summary(doc)
    _write_json(out_path, doc)
    click.echo(f"norms: smallness_product={doc['norms']['smallness_product']:.6g}")


def _run_suite(run: RunConfig, inst: Instance) -> list:
    suite = run.verify.suite
    lattice = inst.lattice
    reports = []
    kappa = _kappa_meter(run)
    need_solution = suite in ("all", "apriori", "martingale", "optimality",
                              "localization")
    sol = price_equilibrium(inst) if need_solution else None
    if suite in ("all", "martingale"):
        reports.append(verify_mod.check_R_nonneg(sol))
        reports.append(verify_mod.check_equilibrium_martingales(sol))
    if suite in ("all", "apriori"):
        psi_h = verify_mod.dividend_gauge_norm(sol)
        reports.append(verify_mod.check_apriori(sol, psi_h_norm=psi_h))
        reports.append(verify_mod.check_supermartingale_V(
            sol, x_grid=verify_mod.default_x_grid(sol, run.verify.x_grid_size),
            psi_h_norm=psi_h))
    if suite in ("all", "optimality"):
        reports.append(verify_mod.check_optimality(
            sol, num_random=run.verify.competitors, epsilon=run.verify.epsilon,
            seed=run.verify.seed))
    if suite in ("all", "homogeneity"):
        reports.append(verify_mod.check_homogeneity(inst))
    if suite in ("all", "localization"):
        tau = hitting_time_tau(lattice, 0.0,
                               from_step=min(1, lattice.num_steps - 1))
        reports.append(verify_mod.check_localization(sol, tau))
    if suite == "all":
        _, diag = bsde_mod.solve_picard(
            inst, tol=run.solver.tol, max_iter=run.solver.max_iter,
            kappa=kappa(lattice))
        reports.append(verify_mod.check_norm_bounds(sol, diag))
    if suite in ("all", "counterexample"):
        reports.append(verify_mod.check_F_identity(seed=run.verify.seed))
        reports.append(verify_mod.run_counterexample(
            n_list=run.verify.counterexample_steps, kappa=kappa))
    return reports


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--suite", default=None,
              type=click.Choice(["all", "apriori", "martingale", "homogeneity",
                                 "optimality", "localization", "counterexample"]),
              help="Override the suite from the config.")
def cmd_verify(config_path, out_path, suite):
    """Run the verification suite; exit 1 if any hard gate fails."""
    run = _load(config_path)
    if suite:
        run.verify.suite = suite
    inst = _evaluate(run.market)
    try:
        reports = _run_suite(run, inst)
    except LatticeSizeError as exc:  # a counter-example depth over the cap
        _config_error(exc)
    except (NumericalError, ExponentialGuardError) as exc:
        _numeric_error(exc)
    doc = {
        "command": "verify",
        "suite": run.verify.suite,
        "checks": [r.to_dict() for r in reports],
        "hard_gates_pass": all(r.status != "fail" for r in reports),
    }
    _write_json(out_path, doc)
    for r in reports:
        click.echo(f"{r.name}: {r.status}")
    if not doc["hard_gates_pass"]:
        sys.exit(EXIT_VERIFY)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--param", required=True,
              type=click.Choice(["risk_aversion", "demand_scale", "dividend_scale",
                                 "num_steps"]))
@click.option("--from", "start", required=True, type=float)
@click.option("--to", "stop", required=True, type=float)
@click.option("--points", required=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_sweep(config_path, param, start, stop, points, out_path):
    """Sweep one parameter; emit smallness product and convergence columns."""
    run = _load(config_path)
    if points < 1:
        _config_error("--points must be >= 1")
    market = run.market
    if param == "num_steps":
        values = np.unique(np.linspace(start, stop, points).astype(int))
        values = values[values >= 1].astype(float)
    else:
        values = np.linspace(start, stop, points)
    if param == "risk_aversion" and not np.all(values > 0):
        _config_error(f"--from/--to must keep risk_aversion positive, got {start}..{stop}")
    base = None if param == "num_steps" else _evaluate(market)
    # kappa is measured once per sweep, or once per depth in a depth sweep
    kappa = _kappa_meter(run)
    rows = []
    try:
        for val in values:
            if param == "num_steps":
                inst = _evaluate(replace(market, num_steps=int(val)))
            elif param == "risk_aversion":
                inst = replace(base, risk_aversion=float(val))
            elif param == "demand_scale":
                inst = replace(base, gamma=base.gamma.scaled(float(val)))
            else:
                inst = replace(base, psi=base.psi * float(val))
            # the smallness product scales the base sup by |val| instead of
            # re-deriving it from the scaled nodes; the two may differ in the
            # last bit
            gamma_sup = (base.gamma_sup * abs(float(val)) if param == "demand_scale"
                         else inst.gamma_sup)
            sol = price_equilibrium(inst)
            # keep only the diagnostics: the solution's trees would stay alive
            # through the next point
            diag = bsde_mod.solve_picard(
                inst, tol=run.solver.tol, max_iter=run.solver.max_iter,
                kappa=kappa(inst.lattice))[1]
            centered = inst.psi - inst.psi.mean(axis=0)
            psi_bmo = bmo_norm_rv(centered, inst.lattice).value
            rows.append([
                float(val),
                inst.risk_aversion * gamma_sup * psi_bmo,
                diag.converged,
                diag.iterations,
                diag.ratios[-1] if diag.ratios else np.nan,
                h_bmo_norm(sol.volatility).value,
                h_bmo_norm(sol.market_price_of_risk).value,
            ])
    except (NumericalError, ExponentialGuardError) as exc:
        _numeric_error(exc)
    _write_csv(out_path,
               ["param_value", "smallness_product", "converged", "iterations",
                "final_ratio", "volatility_bmo", "mpr_bmo"],
               rows)
    click.echo(f"sweep[{param}]: {len(rows)} points -> {out_path}")


if __name__ == "__main__":
    main()
