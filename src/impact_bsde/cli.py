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
from .config import METHODS, SUITES, SWEEP_PARAMS, ConfigError, RunConfig, load_config
from .lattice import ExponentialGuardError, LatticeSizeError, build_lattice, max_steps_cap
from .norms import bmo_norm_rv, h_bmo_norm, h_norm, measure_kappa, sup_norm
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


def _evaluate(market: MarketConfig) -> Instance:
    """The market on its own lattice; each command evaluates its market once
    (a depth sweep once per depth)."""
    try:
        return evaluate_market(market, build_lattice(market.num_steps, market.horizon))
    except LatticeSizeError:
        raise
    except ValueError as exc:  # a spec that does not fit the lattice
        raise ConfigError(f"market: {exc}") from exc


def _picard_constants(run: RunConfig, inst: Instance) -> tuple[float, float]:
    """The ratio and growth constants of a Picard record: the configured
    ones, else kappa measured on the lattice and the demand's growth bound.
    Configured ones must keep the radii, 1 and 2 over 8 * kappa * growth_bound,
    and that product finite."""
    s = run.solver
    kappa = float(s.kappa if s.kappa is not None else measure_kappa(inst.lattice))
    growth = float(s.growth_bound if s.growth_bound is not None
                   else bsde_mod.driver_growth_bound(inst.gamma_sup))
    product = 8.0 * kappa * growth
    if ((s.kappa, s.growth_bound) != (None, None)
            and not 2.0 / sys.float_info.max <= product < np.inf):
        raise ConfigError(f"solver.kappa {kappa!r} and solver.growth_bound {growth!r} give "
                          f"8 * kappa * growth_bound = {product!r}, outside the float range "
                          f"of the contraction radii")
    return kappa, growth


def _finite_norm(what: str, norm, *args, **kwargs):
    """``norm(*args, **kwargs)``, a norm report (or a bare node max) of
    finite data.  Data beyond the float range give a norm that is not
    finite: that is a numeric failure, raised without numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        report = norm(*args, **kwargs)
    value = getattr(report, "value", report)
    if not np.isfinite(value):
        raise NumericalError(f"{what} is {value}: the inputs overflow the float "
                             f"range; rescale them")
    return report


def _centered_bmo(inst: Instance) -> float:
    """Quadratic norm of the instance's dividend, centred."""
    # a dividend beyond the float range centres to nan, which the norm's
    # finiteness check reports; numpy's warnings add nothing to it
    with np.errstate(over="ignore", invalid="ignore"):
        centred = inst.psi - inst.psi.mean(axis=0)
    try:
        return _finite_norm("the centred dividend's norm", bmo_norm_rv, centred,
                            inst.lattice).value
    except ValueError as exc:  # bmo_norm_rv's one refusal: rounding undid the centring
        raise NumericalError(f"centring the dividend lost its precision: {exc}") from exc


def _smallness_product(a: float, gamma_sup: float, psi_bmo: float) -> float:
    """The paper's smallness product ``a * gamma_sup * psi_bmo``; beyond the
    float range it is a numeric failure, as a norm is."""
    return _finite_norm("the smallness product", lambda: a * gamma_sup * psi_bmo)


def _finite_root(solution, a: float) -> dict:
    """The root price and certainty equivalent ``bsde`` reports, unscaled
    from the solution's scaled root values.  Below a risk aversion of about
    1e-308 its reciprocal overflows: a root that is not finite is a numeric
    failure."""
    price, certainty = solution.initial_price, solution.initial_certainty
    if not (np.isfinite(price).all() and np.isfinite(certainty)):
        raise NumericalError(f"the root price {price.tolist()} or certainty equivalent "
                             f"{certainty} is not finite once unscaled by the risk "
                             f"aversion {a!r}")
    return {"initial_price": price.tolist(), "initial_certainty": certainty}


def _bmo(what: str, process) -> float:
    """Integrand norm of one process of a solution."""
    return _finite_norm(f"the {what} norm", h_bmo_norm, process).value


def _solution_norms(inst: Instance) -> list:
    """The sweep's volatility and market-price-of-risk norms of the priced
    instance; the solution is freed on return."""
    sol = price_equilibrium(inst)
    return [_bmo("volatility", sol.volatility),
            _bmo("market price of risk", sol.market_price_of_risk)]


def _instance_norms(run: RunConfig, inst: Instance) -> dict:
    psi_bmo = _centered_bmo(inst)
    gauge = _finite_norm("the centred dividend's gauge norm", h_norm,
                         inst.psi - inst.psi.mean(axis=0), inst.lattice)
    return {
        "demand_sup": inst.gamma_sup,
        "dividend_mean": inst.psi_mean.tolist(),
        "centered_dividend_bmo": psi_bmo,
        "centered_dividend_gauge": gauge.value,
        "gauge_achieving_node": list(gauge.achieving_node),
        "smallness_product": _smallness_product(run.market.risk_aversion, inst.gamma_sup,
                                                psi_bmo),
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


def _formatted(table: np.ndarray) -> np.ndarray:
    """The CSV text of every float of ``table``, each distinct bit pattern
    formatted once: a level of a Markov instance holds few distinct values,
    and the bits keep apart what prints apart (-0.0 from 0.0)."""
    bits, where = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    values = bits.view(np.float64).tolist()
    # one template for them all costs less than a format call per value
    text = (",".join(["%" + _FLOAT_SPEC] * len(values)) % tuple(values)).split(",")
    return np.array(text, dtype=object)[where].reshape(table.shape)


def _write_nodes(path: str, prices, certainty, density=None, up_prob=None,
                 mpr=None, volatility=None):
    """Per-node CSV: step, node, walk, prices, certainty equivalent, density,
    up probability, market price of risk, volatility.  Written in chunks of
    a level, each distinct float of a chunk formatted once; the bytes are
    those of ``_write_csv``."""
    lat = prices.lattice
    n = prices.dim
    header = ["step", "node", "b", *[f"s_{i + 1}" for i in range(n)],
              "r", "z", "q_up", "alpha", *[f"sigma_{i + 1}" for i in range(n)]]
    with open(path, "w", newline="") as handle:
        # csv.writer's default row terminator
        handle.write(",".join(header) + "\r\n")
        for k in range(lat.num_steps + 1):
            width = lat.nodes(k)
            columns = [
                lat.walk(k) * lat.sqrt_dt, prices.values[k], certainty.values[k],
                _node_slice(density, k, width), _node_slice(up_prob, k, width),
                _node_slice(mpr, k, width), _node_slice(volatility, k, width, n),
            ]
            for lo in range(0, width, _NODE_ROWS):
                hi = min(width, lo + _NODE_ROWS)
                cells = _formatted(np.column_stack([c[lo:hi] for c in columns]))
                handle.write("".join(f"{k},{p},{','.join(row)}\r\n"
                                     for p, row in zip(range(lo, hi), cells.tolist())))


class _ErrorExits(click.Group):
    """The command group; it ends a command that raises a config or numeric
    error with a one-line message and that error's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, LatticeSizeError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (NumericalError, ExponentialGuardError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)


@click.group(cls=_ErrorExits)
def main():
    """Demand-based equilibrium pricing laboratory."""


@main.command("price")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dump-nodes", "dump_path", default=None, type=click.Path(),
              help="Also write the per-node CSV table here.")
def cmd_price(config_path, out_path, dump_path):
    """Price the configured instance and write a solution summary."""
    run = load_config(config_path)
    inst = _evaluate(run.market)
    sol = price_equilibrium(inst)
    _write_json(out_path, {
        "command": "price",
        "initial_price": sol.initial_price.tolist(),
        "initial_certainty": sol.initial_certainty,
        "mpr_representation_gap": _finite_norm("the market-price-of-risk "
                                               "representation gap", sol.mpr_gap),
        "volatility_bmo": _bmo("volatility", sol.volatility),
        "mpr_bmo": _bmo("market price of risk", sol.market_price_of_risk),
        "norms": _instance_norms(run, inst),
    })
    if dump_path:
        _write_nodes(dump_path, sol.prices, sol.certainty_equivalent, sol.density,
                     sol.up_prob, sol.market_price_of_risk, sol.volatility)
    click.echo(f"price: S0={sol.initial_price.tolist()} R0={sol.initial_certainty:.12g}")


@main.command("bsde")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--method", default=None,
              type=click.Choice(METHODS),
              help="Override the solver method from the config.")
@click.option("--diagnostics", "diag_path", default=None, type=click.Path(),
              help="Write the per-iteration CSV here (picard/both).")
@click.option("--dump-nodes", "dump_path", default=None, type=click.Path(),
              help="Also write the per-node CSV table here.")
def cmd_bsde(config_path, out_path, method, diag_path, dump_path):
    """Solve the backward system; non-convergence is reported, not fatal."""
    run = load_config(config_path)
    inst = _evaluate(run.market)
    method = method or run.solver.method
    summary: dict = {"command": "bsde", "method": method}
    ends = None
    if method in ("picard", "both"):
        # the iteration runs before any solution is walked, so none is held
        # through it
        kappa, growth_bound = _picard_constants(run, inst)
        ends = [None]
        (diag,) = bsde_mod.picard_diagnostics([inst], run.solver.tol, run.solver.max_iter, ends)
        diag.kappa, diag.growth_bound = kappa, growth_bound
        (ends,) = ends
    # one walk per method, leaf to root in lockstep; only the node table
    # needs a whole solution, that of the first walk, which it is written from
    first, gap, failure = bsde_mod._solve(inst, explicit=method != "picard", ends=ends,
                                          keep=bool(dump_path))
    # a diverging run is reported, but its reconstruction must be finite
    if failure is not None:
        raise failure
    summary.update(_finite_root(first, inst.risk_aversion))
    if method != "picard":
        summary["residual_explicit"] = first.residual
    if method != "explicit":
        summary["picard"] = diag.to_dict()
        summary["contraction_report"] = bsde_mod.contraction_report(diag).to_dict()
        if diag_path:
            rows = []
            for i, dist in enumerate(diag.distances):
                ratio = diag.ratios[i - 1] if 0 < i <= len(diag.ratios) else np.nan
                rows.append([i + 1, dist, ratio, diag.iterate_norms[i]])
            _write_csv(diag_path, ["iteration", "distance", "ratio", "iterate_bmo"],
                       rows)
    if method == "both":
        summary["max_node_discrepancy"] = gap
    _write_json(out_path, summary)
    if dump_path:
        # where the density would lose positivity, its column is nan; the
        # one-step pricing weight has no backward-system analogue: q_up is nan
        try:
            density = first.density
        except ExponentialGuardError:
            density = None
        _write_nodes(dump_path, first.prices, first.certainty_equivalent, density,
                     mpr=first.market_price_of_risk, volatility=first.volatility)
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
    run = load_config(config_path)
    inst = _evaluate(run.market)
    sol = price_equilibrium(inst)
    doc = {
        "command": "norms",
        "initial_price": sol.initial_price.tolist(),
        "initial_certainty": sol.initial_certainty,
        "norms": _instance_norms(run, inst),
        "volatility_bmo": _bmo("volatility", sol.volatility),
        "mpr_bmo": _bmo("market price of risk", sol.market_price_of_risk),
        "value_integrand_bmo": _bmo("value integrand", sol.value_integrand),
        "price_integrand_bmo": _bmo("price integrand", sol.price_integrand),
        "demand_sup_node": list(sup_norm(sol.gamma).achieving_node),
        "kappa_empirical": measure_kappa(inst.lattice),
    }
    _write_json(out_path, doc)
    click.echo(f"norms: smallness_product={doc['norms']['smallness_product']:.6g}")


def _run_suite(run: RunConfig, inst: Instance) -> list:
    suite = run.verify.suite
    lattice = inst.lattice
    reports = []
    need_solution = suite in ("all", "apriori", "martingale", "optimality",
                              "localization")
    sol = price_equilibrium(inst) if need_solution else None
    # a dividend whose norm overflows the float range, or a gain beyond it,
    # is a numeric failure before any gate is computed from them
    psi_bmo = _centered_bmo(inst) if need_solution else None
    if need_solution:
        _finite_norm("the gain's sup norm", sup_norm, sol.gain)
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
        # the record alone: no solution is rebuilt
        (diag,) = bsde_mod.picard_diagnostics([inst], run.solver.tol, run.solver.max_iter)
        diag.kappa, diag.growth_bound = _picard_constants(run, inst)
        reports.append(verify_mod.check_norm_bounds(sol, diag, psi_bmo=psi_bmo))
    if suite in ("all", "counterexample"):
        reports.append(verify_mod.check_F_identity(seed=run.verify.seed))
        reports.append(verify_mod.run_counterexample(n_list=run.verify.counterexample_steps))
    return reports


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--suite", default=None,
              type=click.Choice(SUITES),
              help="Override the suite from the config.")
def cmd_verify(config_path, out_path, suite):
    """Run the verification suite; exit 1 if any hard gate fails."""
    run = load_config(config_path)
    if suite:
        run.verify.suite = suite
    reports = _run_suite(run, _evaluate(run.market))
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
              type=click.Choice(SWEEP_PARAMS))
@click.option("--from", "start", required=True, type=float)
@click.option("--to", "stop", required=True, type=float)
@click.option("--points", required=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_sweep(config_path, param, start, stop, points, out_path):
    """Sweep one parameter; emit smallness product and convergence columns."""
    run = load_config(config_path)
    if points < 1:
        raise ConfigError("--points must be >= 1")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ConfigError(f"--from/--to must be finite, got {start}..{stop}")
    if not np.isfinite(stop - start):  # the grid's step would be inf
        raise ConfigError(f"--from/--to span {start}..{stop} overflows the float range")
    market = run.market
    values = np.linspace(start, stop, points)
    if param == "num_steps":
        # a depth past the cap is refused before any point is solved, by the
        # lattice's own size error for the shallowest such depth; the cast
        # then sees only values in [0, cap], none past the integers (1e30)
        deeper = values[values >= max_steps_cap() + 1]
        if len(deeper):
            build_lattice(int(deeper.min()), market.horizon)
        values = np.unique(np.maximum(values, 0.0).astype(int))
        values = values[values >= 1].astype(float)
        if not len(values):
            raise ConfigError(f"--from/--to must reach a depth >= 1, got {start}..{stop}")
        if len(values) < points:
            raise ConfigError(f"--points {points} asks for {points} depths, but {start}..{stop} "
                              f"gives {len(values)} distinct depths >= 1: "
                              f"{values.astype(int).tolist()}")
    if param == "risk_aversion" and not np.all(values > 0):
        raise ConfigError(f"--from/--to must keep risk_aversion positive, got {start}..{stop}")
    base = None if param == "num_steps" else _evaluate(market)

    def point(val) -> Instance:  # the one rule for a swept point
        if param == "num_steps":
            return _evaluate(replace(market, num_steps=int(val)))
        if param == "risk_aversion":
            return replace(base, risk_aversion=float(val))
        if param == "demand_scale":
            return replace(base, gamma=base.gamma.scaled(float(val)))
        with np.errstate(over="ignore"):  # the centred norm reports an overflow
            return replace(base, psi=base.psi * float(val))

    solver = run.solver
    rows, diags = [], []
    # no column depends on kappa, so none is measured; the dividend's norm
    # is the base's unless the dividend or the depth is swept
    psi_bmo = _centered_bmo(base) if param in ("risk_aversion", "demand_scale") else None
    for val in values:
        inst = point(val)
        # the smallness product scales the base sup by |val| instead of
        # re-deriving it from the scaled nodes; the two may differ in the
        # last bit
        gamma_sup = (base.gamma_sup * abs(float(val)) if param == "demand_scale"
                     else inst.gamma_sup)
        bmo = _centered_bmo(inst) if psi_bmo is None else psi_bmo
        # a failure of the pricer is reported before the product's
        norms = _solution_norms(inst)
        rows.append([float(val), _smallness_product(inst.risk_aversion, gamma_sup, bmo),
                     *norms])
        if param == "num_steps":
            # each depth is its own lattice: a one-point block
            diags += bsde_mod.picard_diagnostics([inst], solver.tol, solver.max_iter)
    if param != "num_steps":
        diags = bsde_mod.picard_diagnostics(map(point, values), solver.tol,
                                            solver.max_iter)
    _write_csv(out_path,
               ["param_value", "smallness_product", "converged", "iterations",
                "final_ratio", "volatility_bmo", "mpr_bmo"],
               [[val, product, diag.converged, diag.iterations,
                 diag.ratios[-1] if diag.ratios else np.nan, *bmo]
                for (val, product, *bmo), diag in zip(rows, diags)])
    click.echo(f"sweep[{param}]: {len(rows)} points -> {out_path}")


if __name__ == "__main__":
    main()
