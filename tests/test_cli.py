import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from impact_bsde.cli import main
from impact_bsde.config import ConfigError, load_config, parse_config, validate_summary


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def one_period_doc(**market_overrides):
    market = {
        "risk_aversion": 1.0,
        "num_stocks": 1,
        "num_steps": 1,
        "horizon": 1.0,
        "demand": {"type": "constant", "value": 0.5},
        "dividend": {"type": "sign_of_b_t"},
    }
    market.update(market_overrides)
    return {"market": market}


def test_parse_config_round_trip(tmp_path):
    doc = one_period_doc()
    doc["solver"] = {"tol": 1e-12, "max_iter": 50, "method": "both"}
    doc["verify"] = {"suite": "homogeneity", "seed": 3}
    run = load_config(write_config(tmp_path, doc))
    assert run.market.risk_aversion == 1.0
    assert run.solver.method == "both"
    assert run.verify.suite == "homogeneity"


def test_unknown_key_rejected():
    doc = one_period_doc()
    doc["market"]["typo_field"] = 1
    with pytest.raises(ConfigError, match="market.typo_field"):
        parse_config(doc)


def test_bad_demand_variant_rejected():
    doc = one_period_doc(demand={"type": "mystery"})
    with pytest.raises(ConfigError, match="market.demand.type"):
        parse_config(doc)


def test_nested_spec_parsing():
    doc = one_period_doc(
        num_steps=4,
        demand={"type": "localized", "inner": {"type": "negative_sign_of_b"},
                "level": 0.0, "from_step": 1},
        dividend={"type": "localized", "inner": {"type": "sign_of_b_t"},
                  "level": 0.0, "from_step": 1},
    )
    run = parse_config(doc)
    assert run.market.demand.from_step == 1


def test_price_command_one_period(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc())
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["price", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["initial_price"][0] == pytest.approx(-math.tanh(0.5), abs=1e-12)
    validate_summary(doc)


def test_price_command_zero_demand(tmp_path):
    runner = CliRunner()
    # odd depth keeps the signed terminal exactly centered
    doc = one_period_doc(demand={"type": "constant", "value": 0.0}, num_steps=5)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["price", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0
    summary = json.loads(out.read_text())
    assert summary["initial_price"][0] == pytest.approx(0.0, abs=1e-15)
    assert summary["initial_certainty"] == pytest.approx(0.0, abs=1e-15)


def test_price_command_rejects_bad_aversion(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc(risk_aversion=-1.0))
    result = runner.invoke(main, ["price", "--config", cfg, "--out",
                                  str(tmp_path / "o.json")])
    assert result.exit_code == 2
    assert "risk_aversion" in result.output


def test_price_dump_nodes_csv(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc(num_steps=2))
    out = tmp_path / "out.json"
    csv_path = tmp_path / "nodes.csv"
    result = runner.invoke(main, ["price", "--config", cfg, "--out", str(out),
                                  "--dump-nodes", str(csv_path)])
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["step", "node", "b"]
    assert len(lines) == 1 + 1 + 2 + 4


def test_output_determinism(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=5,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    cfg = write_config(tmp_path, doc)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert runner.invoke(main, ["price", "--config", cfg, "--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, ["price", "--config", cfg, "--out", str(out_b)]).exit_code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bsde_command_both_methods_agree(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=6,
                         demand={"type": "constant", "value": 0.0},
                         dividend={"type": "sign_of_b_t"})
    doc["solver"] = {"method": "both"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "b.json"
    diag = tmp_path / "diag.csv"
    nodes = tmp_path / "nodes.csv"
    result = runner.invoke(main, ["bsde", "--config", cfg, "--out", str(out),
                                  "--diagnostics", str(diag),
                                  "--dump-nodes", str(nodes)])
    assert result.exit_code == 0, result.output
    summary = json.loads(out.read_text())
    assert summary["max_node_discrepancy"] <= 1e-12
    assert summary["picard"]["converged"] is True
    assert diag.read_text().splitlines()[0] == "iteration,distance,ratio,iterate_bmo"
    lines = nodes.read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["step", "node", "b", "s_1", "r"]
    assert len(lines) == 1 + (2 ** 7 - 1)


def test_bsde_command_nonconvergence_is_data(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=10,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t"})
    doc["solver"] = {"method": "picard", "max_iter": 25}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "b.json"
    result = runner.invoke(main, ["bsde", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads(out.read_text())
    assert summary["picard"]["converged"] is False or any(
        r >= 1.0 for r in summary["picard"]["ratios"])


def test_bsde_explicit_non_finite_exits_numeric(tmp_path):
    # large risk aversion overflows the explicit backward pass; the solver
    # must report the failing slice instead of a nan price with zero residual
    doc = one_period_doc(risk_aversion=50.0, num_steps=12,
                         demand={"type": "constant", "value": 1.0})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "b.json"
    with np.errstate(over="ignore", invalid="ignore"):
        result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--out", str(out),
                                           "--method", "explicit"])
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "non-finite at node (step" in result.output
    assert not out.exists()


def test_oversized_lattice_is_a_config_error(tmp_path):
    # the size message must not overflow a float at depths beyond ~1020
    cfg = write_config(tmp_path, one_period_doc(num_steps=1100))
    result = CliRunner().invoke(main, ["price", "--config", cfg,
                                       "--out", str(tmp_path / "p.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "num_steps=1100 exceeds the cap" in result.output


def test_norms_command(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    out = tmp_path / "n.json"
    result = runner.invoke(main, ["norms", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["norms"]["demand_sup"] == pytest.approx(0.5)
    assert doc["kappa_empirical"] >= 1.0


def test_verify_command_all_gates(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=5,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["verify"] = {"competitors": 50, "counterexample_steps": [4, 5]}
    doc["solver"] = {"max_iter": 20}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "v.json"
    result = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["hard_gates_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "homogeneity" in names and "counterexample_probe" in names


def test_verify_single_suite(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    out = tmp_path / "v.json"
    result = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out),
                                  "--suite", "homogeneity"])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"]] == ["homogeneity"]


def test_sweep_command(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=5,
                         demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["solver"] = {"max_iter": 40}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--param", "demand_scale",
                                  "--from", "0.0", "--to", "1.0", "--points", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("param_value,smallness_product,converged")
    assert len(lines) == 4
    first = lines[1].split(",")
    # zero demand scale: trivially converged with vanishing market price of risk
    assert first[2] == "True"
    assert float(first[6]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_risk_aversion_product_monotone(tmp_path):
    runner = CliRunner()
    doc = one_period_doc(num_steps=4,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["solver"] = {"max_iter": 30}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--param", "risk_aversion",
                                  "--from", "0.01", "--to", "2.0", "--points", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    products = [float(r[1]) for r in rows]
    assert products == sorted(products)


def test_summary_schema_guard():
    with pytest.raises(ConfigError, match="summary.initial_price"):
        validate_summary({"command": "price", "initial_price": 1.0,
                          "initial_certainty": 0.0})
    validate_summary({"command": "price", "initial_price": [1.0],
                      "initial_certainty": 0.0})


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


def test_spec_not_fitting_the_lattice_is_a_config_error(tmp_path):
    doc = one_period_doc(num_steps=4, demand={"type": "piecewise_constant",
                                              "schedule": [[2, 1.0]]})
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["price", "--config", cfg,
                                       "--out", str(tmp_path / "p.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error: market: piecewise schedule must start at step 0" in result.output


def test_sweep_depth_over_cap_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", "num_steps",
                                       "--from", "4", "--to", "30", "--points", "2",
                                       "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error:" in result.output and "num_steps=30" in result.output


@pytest.mark.parametrize("start", ["0", "-1"])
def test_sweep_nonpositive_aversion_is_a_config_error(tmp_path, start):
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    out = tmp_path / "s.csv"
    result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", "risk_aversion",
                                       "--from", start, "--to", "1", "--points", "3",
                                       "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error:" in result.output and "risk_aversion" in result.output
    assert not out.exists()


def test_counterexample_depth_over_cap_is_a_config_error(tmp_path):
    doc = one_period_doc(num_steps=4)
    doc["verify"] = {"counterexample_steps": [30]}
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "counterexample",
                                       "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error:" in result.output and "num_steps=30" in result.output


def test_counterexample_depth_zero_is_a_config_error(tmp_path):
    doc = one_period_doc(num_steps=4)
    doc["verify"] = {"counterexample_steps": [4, 0]}
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "counterexample",
                                       "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "config error: verify.counterexample_steps[1]" in result.output


def test_verify_x_grid_size_reaches_the_supermartingale_check(tmp_path):
    # unit aversion, demand in the unit ball and a centred dividend (odd
    # depth): the check runs instead of skipping, on 3 quantiles + the origin
    doc = one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["verify"] = {"x_grid_size": 3}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "v.json"
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "apriori",
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["supermartingale_profile"]["status"] == "pass"
    assert checks["supermartingale_profile"]["details"]["grid_size"] == 4


@pytest.mark.parametrize("param", ["risk_aversion", "demand_scale", "dividend_scale",
                                   "num_steps"])
def test_sweep_rows_match_the_library(tmp_path, param):
    from dataclasses import replace

    from impact_bsde import (bmo_norm_rv, build_lattice, evaluate_market, h_bmo_norm,
                             price_equilibrium, solve_picard)
    doc = one_period_doc(num_steps=5, demand={"type": "constant", "value": 0.7},
                         dividend={"type": "linear_clipped", "slope": 1.2, "bound": 0.8},
                         risk_aversion=0.6)
    doc["solver"] = {"max_iter": 30, "kappa": 1.5}
    path = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    bounds = ("2", "6") if param == "num_steps" else ("0.25", "1.75")
    result = CliRunner().invoke(main, ["sweep", "--config", path, "--param", param,
                                       "--from", bounds[0], "--to", bounds[1],
                                       "--points", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    market = load_config(path).market
    base = evaluate_market(market, build_lattice(5, 1.0))
    rows = _csv_rows(out)
    assert len(rows) == 3
    for row in rows:
        val = float(row[0])
        gamma_sup = base.gamma_sup
        if param == "num_steps":
            inst = evaluate_market(replace(market, num_steps=int(val)),
                                   build_lattice(int(val), 1.0))
            gamma_sup = inst.gamma_sup
        elif param == "risk_aversion":
            inst = replace(base, risk_aversion=val)
        elif param == "demand_scale":
            inst = replace(base, gamma=base.gamma.scaled(val))
            gamma_sup = base.gamma_sup * abs(val)
        else:
            inst = replace(base, psi=base.psi * val)
        sol = price_equilibrium(inst)
        _, diag = solve_picard(inst, tol=1e-12, max_iter=30, kappa=1.5)
        psi_bmo = bmo_norm_rv(inst.psi - inst.psi.mean(axis=0), inst.lattice).value
        want = [inst.risk_aversion * gamma_sup * psi_bmo,
                diag.converged, diag.iterations,
                diag.ratios[-1] if diag.ratios else float("nan"),
                h_bmo_norm(sol.volatility).value,
                h_bmo_norm(sol.market_price_of_risk).value]
        assert row[1:] == [f"{w:.16e}" if isinstance(w, float) else str(w) for w in want]


def test_each_command_evaluates_the_market_once(tmp_path, monkeypatch):
    import impact_bsde.scenario as scenario
    calls = []
    original = scenario.evaluate_demand

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "evaluate_demand", counting)
    doc = one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["solver"] = {"max_iter": 20}
    doc["verify"] = {"competitors": 5, "counterexample_steps": [3]}
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "out")
    commands = [["price"], ["norms"], ["bsde", "--method", "both"], ["verify", "--suite", "all"]]
    commands += [["sweep", "--param", param, "--from", "0.5", "--to", "1.0", "--points", "3"]
                 for param in ("risk_aversion", "demand_scale", "dividend_scale")]
    for command in commands:
        calls.clear()
        result = CliRunner().invoke(main, command + ["--config", cfg, "--out", out])
        assert result.exit_code == 0, (command, result.output)
        assert len(calls) == 1, command


def test_sweep_measures_kappa_once_per_depth(tmp_path, monkeypatch):
    import impact_bsde.cli as cli
    calls = []
    original = cli.measure_kappa

    def counting(lattice, *args, **kwargs):
        calls.append(lattice.num_steps)
        return original(lattice, *args, **kwargs)

    monkeypatch.setattr(cli, "measure_kappa", counting)
    doc = one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["solver"] = {"max_iter": 20}
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "sweep.csv")
    sweeps = {("risk_aversion", "0.5", "1.5", "5"): [5],
              ("num_steps", "2", "4", "5"): [2, 3, 4]}
    for (param, start, stop, points), want in sweeps.items():
        calls.clear()
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", param,
                                           "--from", start, "--to", stop,
                                           "--points", points, "--out", out])
        assert result.exit_code == 0, result.output
        assert calls == want, param


def test_verify_measures_kappa_once_per_lattice(tmp_path, monkeypatch):
    # the Picard run measures kappa at depth 14 capped to 12, which the
    # counter-example probe's last depth then reuses
    import impact_bsde.cli as cli
    import impact_bsde.verify as verify
    from impact_bsde.norms import KAPPA_MAX_STEPS
    calls = []
    original = cli.measure_kappa

    def counting(lattice, *args, **kwargs):
        calls.append(min(lattice.num_steps, KAPPA_MAX_STEPS))
        return original(lattice, *args, **kwargs)

    monkeypatch.setattr(cli, "measure_kappa", counting)
    monkeypatch.setattr(verify, "measure_kappa", counting)
    doc = one_period_doc(num_steps=14, demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t", "scale": 0.2},
                         center_dividend=True)
    doc["verify"] = {"competitors": 10}
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "all",
                                       "--out", str(tmp_path / "verify.json")])
    assert result.exit_code == 0, result.output
    assert calls == [12, 8, 10]


def test_verify_apriori_computes_the_gauge_norm_once(tmp_path, monkeypatch):
    import impact_bsde.verify as verify
    calls = []
    original = verify.h_norm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "h_norm", counting)
    doc = one_period_doc(num_steps=5, demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t", "scale": 0.2},
                         center_dividend=True)
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "apriori",
                                       "--out", str(tmp_path / "verify.json")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_diverging_sweep_prints_no_runtime_warning(tmp_path):
    doc = one_period_doc(num_steps=10, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param",
                                           "risk_aversion", "--from", "0.05", "--to", "6",
                                           "--points", "12", "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    assert "RuntimeWarning" not in result.output
    converged = [row[2] for row in _csv_rows(out)]
    # the sweep does cross into divergence, where the warnings used to come from
    assert "True" in converged and "False" in converged


def test_overflowing_competitors_print_no_runtime_warning(tmp_path):
    # at this aversion some random competitors' utilities overflow to -inf;
    # their gap is +inf, which is the right answer, so nothing is printed
    doc = one_period_doc(risk_aversion=800.0, num_steps=8,
                         demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t"})
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["verify", "--config", cfg, "--out",
                                           str(tmp_path / "v.json"), "--suite", "optimality"])
    assert result.exit_code == 0, (result.output, result.exception)
    assert "RuntimeWarning" not in result.output


def _reference_write_nodes(path, prices, certainty, density=None, up_prob=None,
                           mpr=None, volatility=None):
    """The node table through csv.writer, one value at a time."""
    import csv
    lat = prices.lattice
    n = prices.dim

    def column(proc, k, width, dim=None):
        if proc is None or k >= len(proc.values):
            return [np.nan] * width if dim is None else [[np.nan] * dim] * width
        return proc.values[k]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "node", "b", *[f"s_{i + 1}" for i in range(n)],
                         "r", "z", "q_up", "alpha", *[f"sigma_{i + 1}" for i in range(n)]])
        for k in range(lat.num_steps + 1):
            width = 1 << k
            b = lat.b_int[k] * lat.sqrt_dt
            z, q, al = (column(p, k, width) for p in (density, up_prob, mpr))
            sg = column(volatility, k, width, n)
            for p in range(width):
                row = [k, p, b[p], *prices.values[k][p], certainty.values[k][p],
                       z[p], q[p], al[p], *sg[p]]
                writer.writerow([f"{v:.16e}" if isinstance(v, (float, np.floating)) else v
                                 for v in row])


def test_node_table_bytes_match_the_csv_writer(tmp_path):
    from impact_bsde import build_lattice, evaluate_market, price_equilibrium
    from impact_bsde.cli import _write_nodes
    doc = one_period_doc(num_stocks=2, num_steps=3,
                         demand={"type": "constant", "value": [0.5, -0.25]},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    market = parse_config(doc).market
    sol = price_equilibrium(evaluate_market(market, build_lattice(3, 1.0)))

    def with_values(proc, step, entries):
        values = [v.copy() for v in proc.values]
        for index, value in entries:
            values[step][index] = value
        return type(proc)(proc.lattice, values)
    density = with_values(sol.density, 2, [(1, np.inf), (2, -0.0)])
    volatility = with_values(sol.volatility, 1, [((0, 1), -np.inf), ((1, 0), -0.0)])
    args = (sol.prices, sol.certainty_equivalent, density, sol.up_prob,
            sol.market_price_of_risk, volatility)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_nodes(str(got), *args)
    _reference_write_nodes(str(want), *args)
    text = got.read_text()
    assert "inf" in text and "-0.0000000000000000e+00" in text
    assert got.read_bytes() == want.read_bytes()


def test_node_table_chunks_keep_bytes_and_bound_memory(tmp_path, monkeypatch):
    import tracemalloc
    import impact_bsde.cli as cli
    from impact_bsde import build_lattice, evaluate_market, price_equilibrium
    market = parse_config(one_period_doc(num_steps=12)).market
    sol = price_equilibrium(evaluate_market(market, build_lattice(12, 1.0)))
    args = (sol.prices, sol.certainty_equivalent, sol.density, sol.up_prob,
            sol.market_price_of_risk, sol.volatility)
    peaks = {}
    # 3 splits every level of more than three rows, the last chunk partial
    for rows in (3, 64, 1 << 12):
        monkeypatch.setattr(cli, "_NODE_ROWS", rows)
        tracemalloc.start()
        try:
            cli._write_nodes(str(tmp_path / f"{rows}.csv"), *args)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _reference_write_nodes(str(tmp_path / "want.csv"), *args)
    for rows in peaks:
        assert (tmp_path / f"{rows}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # the temporaries follow the chunk, not the width of the last level
    assert peaks[64] < peaks[1 << 12] / 4


def test_bsde_node_table_bytes_match_the_csv_writer(tmp_path, monkeypatch):
    # the backward system has no one-step pricing weight: q_up is all nan
    import impact_bsde.cli as cli
    original = cli._write_nodes

    def both(path, *args, **kwargs):
        original(path, *args, **kwargs)
        _reference_write_nodes(path + ".ref", *args, **kwargs)
    monkeypatch.setattr(cli, "_write_nodes", both)
    cfg = write_config(tmp_path, one_period_doc(
        num_stocks=2, num_steps=4, demand={"type": "constant", "value": [0.3, 0.2]},
        dividend={"type": "sign_of_b_t", "scale": 0.5}))
    nodes = tmp_path / "nodes.csv"
    result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--out", str(tmp_path / "b.json"),
                                       "--method", "explicit", "--dump-nodes", str(nodes)])
    assert result.exit_code == 0, (result.output, result.exception)
    header, *rows = [line.split(",") for line in nodes.read_text().splitlines()]
    assert {row[header.index("q_up")] for row in rows} == {"nan"}
    assert nodes.read_bytes() == (tmp_path / "nodes.csv.ref").read_bytes()
