import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import impact_bsde.bsde as bsde_mod
import impact_bsde.verify as verify_mod
from impact_bsde import ExponentialGuardError, build_lattice, evaluate_market
from impact_bsde.cli import main
from impact_bsde.config import (ConfigError, SolverSettings, VerifySettings, load_config,
                                parse_config, parse_demand, parse_dividend)
from impact_bsde.scenario import (ConstantDemand, Digital, LinearClipped, LocalizedDemand,
                                  LocalizedDividend, MarketConfig, NegativeSignOfB,
                                  PiecewiseConstantDemand, SignOfBT, TableDemand, TableDividend)


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



@pytest.mark.parametrize("parse, doc, default", [
    (parse_demand, {"type": "constant"}, ConstantDemand()),
    (parse_demand, {"type": "negative_sign_of_b"}, NegativeSignOfB()),
    (parse_demand, {"type": "piecewise_constant", "schedule": [[0, 1.0]]},
     PiecewiseConstantDemand(schedule=((0, 1.0),))),
    (parse_demand, {"type": "localized", "inner": {"type": "constant"}},
     LocalizedDemand(inner=ConstantDemand())),
    (parse_demand, {"type": "table", "values": [[0.5]]}, TableDemand([[0.5]])),
    (parse_dividend, {"type": "sign_of_b_t"}, SignOfBT()),
    (parse_dividend, {"type": "linear_clipped"}, LinearClipped()),
    (parse_dividend, {"type": "digital"}, Digital()),
    (parse_dividend, {"type": "localized", "inner": {"type": "digital"}},
     LocalizedDividend(inner=Digital())),
    (parse_dividend, {"type": "table", "values": [0.5, -0.5]}, TableDividend([0.5, -0.5])),
], ids=["constant", "negative_sign_of_b", "piecewise_constant", "localized_demand",
        "table_demand", "sign_of_b_t", "linear_clipped", "digital", "localized_dividend",
        "table_dividend"])
def test_absent_spec_keys_take_the_class_defaults(parse, doc, default):
    spec = parse(doc)
    # the repr of the fields also tells 0 from 0.0
    assert (type(spec), repr(vars(spec))) == (type(default), repr(vars(default)))


def test_absent_sections_take_the_class_defaults():
    run = parse_config(one_period_doc())
    assert (run.solver, run.verify) == (SolverSettings(), VerifySettings())
    assert run.market.center_dividend is False
    doc = one_period_doc()
    doc["solver"] = {"kappa": None, "growth_bound": None}
    doc["verify"] = {}
    run = parse_config(doc)
    assert (run.solver, run.verify) == (SolverSettings(), VerifySettings())


def _with_section(name, body):
    doc = one_period_doc()
    doc[name] = body
    return doc


def _without_dividend():
    doc = one_period_doc()
    del doc["market"]["dividend"]
    return doc


def _schedule(schedule):
    return one_period_doc(demand={"type": "piecewise_constant", "schedule": schedule})


SINGLE_ERRORS = {
    "not_an_object": ([1], "config: expected an object, got list"),
    "section_not_an_object": (_with_section("solver", []), "solver: expected an object, got list"),
    "unknown_section": (_with_section("output", {"dump_nodes": True}),
                        "config.output: unknown key"),
    "unknown_key": (one_period_doc(typo=1), "market.typo: unknown key"),
    "unknown_spec_key": (one_period_doc(demand={"type": "constant", "scale": 1}),
                         "market.demand.scale: unknown key"),
    "missing_key": (_without_dividend(), "market.dividend: missing required key"),
    "missing_spec_key": (one_period_doc(demand={"type": "localized"}),
                         "market.demand.inner: missing required key"),
    "not_a_number": (one_period_doc(risk_aversion="1"),
                     "market.risk_aversion: expected a number, got '1'"),
    "not_an_integer": (one_period_doc(num_stocks=1.5),
                       "market.num_stocks: expected an integer, got 1.5"),
    "not_a_boolean": (one_period_doc(center_dividend=1),
                      "market.center_dividend: expected a boolean, got 1"),
    "not_a_vector": (one_period_doc(demand={"type": "constant", "value": [True]}),
                     "market.demand.value: expected a number or list of numbers, got [True]"),
    "not_a_table": (one_period_doc(dividend={"type": "table", "values": {}}),
                    "market.dividend.values: expected a list of per-leaf rows"),
    "no_type": (one_period_doc(demand={}), "market.demand: expected an object with a 'type' key"),
    "unknown_variant": (one_period_doc(dividend={"type": "mystery"}),
                        "market.dividend.type: unknown dividend variant 'mystery'"),
    "unhashable_variant": (one_period_doc(demand={"type": ["constant"]}),
                           "market.demand.type: unknown demand variant ['constant']"),
    "bad_choice": (_with_section("solver", {"method": "newton"}),
                   "solver.method: expected one of ('explicit', 'picard', 'both'), got 'newton'"),
    "non_positive": (one_period_doc(horizon=-1), "market.horizon: must be positive, got -1"),
    "non_positive_nan": (one_period_doc(horizon=math.nan),
                         "market.horizon: must be positive, got nan"),
    "below_minimum": (one_period_doc(num_steps=0), "market.num_steps: must be >= 1, got 0"),
    "negative_seed": (_with_section("verify", {"seed": -1}),
                      "verify.seed: must be >= 0, got -1"),
    "empty_schedule": (_schedule([]), "market.demand.schedule: expected a non-empty list"),
    "malformed_schedule": (_schedule([[0]]), "market.demand.schedule[0]: expected [step, value]"),
    "schedule_step": (_schedule([[-1, 1.0]]),
                      "market.demand.schedule[0][0]: must be >= 0, got -1"),
    # the check parameters are verify's constants, not keys: a grid of 1e12
    # quantiles once ended in a traceback, and an epsilon of 1e308 in NaN
    # slopes reported as a pass
    "counterexample_steps": (_with_section("verify", {"counterexample_steps": [8, 10, 12]}),
                             "verify.counterexample_steps: unknown key"),
    "x_grid_size": (_with_section("verify", {"x_grid_size": 10 ** 12}),
                    "verify.x_grid_size: unknown key"),
    "epsilon": (_with_section("verify", {"epsilon": 1e308}), "verify.epsilon: unknown key"),
}


@pytest.mark.parametrize("case", SINGLE_ERRORS)
def test_single_error_messages(tmp_path, case):
    doc, message = SINGLE_ERRORS[case]
    result = CliRunner().invoke(main, ["price", "--config", write_config(tmp_path, doc),
                                       "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output == f"config error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def _unit_market(**overrides):
    return one_period_doc(num_steps=4, demand={"type": "negative_sign_of_b", "scale": 0.5},
                          **overrides)


@pytest.mark.parametrize("doc, command, message", [
    (_unit_market(horizon=math.inf), ["verify", "--suite", "all"],
     "market.horizon: must be finite, got inf"),
    (_unit_market(horizon=math.inf), ["price"], "market.horizon: must be finite, got inf"),
    (_unit_market(horizon=math.inf), ["bsde", "--method", "both"],
     "market.horizon: must be finite, got inf"),
    (_unit_market(risk_aversion=math.inf), ["price"],
     "market.risk_aversion: must be finite, got inf"),
    (one_period_doc(num_steps=4, demand={"type": "negative_sign_of_b", "scale": math.nan}),
     ["price"], "market.demand.scale: must be finite, got nan"),
    (one_period_doc(num_stocks=2, demand={"type": "constant", "value": [1.0, -math.inf]}),
     ["norms"], "market.demand.value[1]: must be finite, got -inf"),
    (_with_section("solver", {"kappa": math.inf}), ["bsde", "--method", "picard"],
     "solver.kappa: must be finite, got inf"),
], ids=["horizon-verify", "horizon-price", "horizon-bsde", "aversion", "scale", "vector",
        "kappa"])
def test_non_finite_numbers_are_config_errors(tmp_path, doc, command, message):
    # json reads NaN and Infinity; before they were refused, an infinite
    # horizon passed every hard gate of verify and failed price with exit 3
    result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                 "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output == f"config error: {message}\n"


def test_integer_beyond_the_float_range_is_a_config_error():
    doc = one_period_doc(dividend={"type": "sign_of_b_t", "scale": 10 ** 400})
    with pytest.raises(ConfigError, match=r"^market\.dividend\.scale: must be finite, got 1000"):
        parse_config(json.loads(json.dumps(doc)))


def test_spec_constructor_refusal_is_a_market_config_error(tmp_path):
    doc = one_period_doc(demand={"type": "table", "values": ["x"]})
    result = CliRunner().invoke(main, ["price", "--config", write_config(tmp_path, doc),
                                       "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output == "config error: market: could not convert string to float: 'x'\n"


@pytest.mark.parametrize("command", [["price"], ["bsde", "--method", "both"],
                                     ["verify", "--suite", "all"], ["norms"]],
                         ids=["price", "bsde", "verify", "norms"])
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_table_demand_is_a_config_error(tmp_path, command, entry):
    # the entry once reached the pricer and ended in exit 3 ("price became
    # non-finite at node (step 1, path 0)"); a table dividend was refused
    doc = one_period_doc(num_steps=2, demand={"type": "table", "values": [[0.1], [entry, 0.3]]})
    result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                 "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output == ("config error: market: demand evaluation produced "
                             "non-finite values\n")
    assert not (tmp_path / "out.json").exists()


def test_price_command_one_period(tmp_path):
    runner = CliRunner()
    cfg = write_config(tmp_path, one_period_doc())
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["price", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["initial_price"][0] == pytest.approx(-math.tanh(0.5), abs=1e-12)
    assert len(doc["initial_price"]) == 1
    assert isinstance(doc["initial_certainty"], float)


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
    # a large risk aversion or dividend overflows the explicit backward
    # pass; the solver must report the failing slice instead of a nan price
    # with zero residual, and print no numpy warning on the way
    for market in (
        {"risk_aversion": 50.0, "num_steps": 12, "demand": {"type": "constant", "value": 1.0}},
        {"num_steps": 6, "demand": {"type": "negative_sign_of_b"}, "dividend": _HUGE_DIVIDEND},
    ):
        cfg = write_config(tmp_path, one_period_doc(**market))
        out = tmp_path / "b.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--out", str(out),
                                               "--method", "explicit"])
        assert result.exit_code == 3, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("numeric failure: ")
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


def test_verify_command_all_gates(tmp_path, monkeypatch):
    runner = CliRunner()
    doc = one_period_doc(num_steps=5,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["verify"] = {"competitors": 50}
    monkeypatch.setattr(verify_mod, "PROBE_STEPS", (4, 5))
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


def test_sweep_depth_over_cap_is_a_config_error(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    # the shallowest depth over the cap is named, before any point is solved;
    # depths beyond the integers (1e19, 1e30) made a RuntimeWarning and a
    # wrong count of depths
    calls = []
    monkeypatch.setattr(bsde_mod, "picard_diagnostics",
                        lambda *args, **kwargs: calls.append(args))
    for start, stop, points, depth in (("4", "30", "2", "30"), ("1", "30", "30", "23"),
                                       ("1", "1e30", "2", "1000000000000000019884624838656"),
                                       ("1e19", "1e19", "1", "10000000000000000000")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param",
                                               "num_steps", "--from", start, "--to", stop,
                                               "--points", points,
                                               "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"config error: num_steps={depth} exceeds the cap "
                                        f"of 22"), result.output
    assert not calls and not (tmp_path / "s.csv").exists()


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


def test_verify_report_reads_the_check_constants(tmp_path):
    # unit aversion, demand in the unit ball and a centred dividend (odd
    # depth): the supermartingale check runs instead of skipping, on
    # X_GRID_SIZE quantiles + the origin, and the probe runs at PROBE_STEPS
    doc = one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "v.json"
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "all",
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["supermartingale_profile"]["status"] == "pass"
    assert checks["supermartingale_profile"]["details"]["grid_size"] == 6
    assert checks["counterexample_probe"]["details"]["trend"]["num_steps"] == [8, 10, 12]


@pytest.mark.parametrize("section, key, value, command", [
    # 10**15 stocks: their first slice is beyond any process's address space,
    # so the allocation fails whatever the kernel's overcommit policy
    ("market", "num_stocks", 10 ** 15, ["price"]),
    ("verify", "competitors", 10 ** 21, ["verify", "--suite", "optimality"]),
], ids=["stocks", "competitors"])
def test_a_run_beyond_the_memory_is_a_config_error(tmp_path, section, key, value, command):
    # both ended in a MemoryError traceback with exit 1
    doc = one_period_doc(num_steps=3)
    doc.setdefault(section, {})[key] = value
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                 "--out", str(out)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("config error: the run needs more memory than is "
                                    "available")
    assert result.output.count("\n") == 1 and "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("param", ["risk_aversion", "demand_scale", "dividend_scale",
                                   "num_steps"])
def test_sweep_rows_match_the_library(tmp_path, param):
    from dataclasses import replace

    from impact_bsde import (bmo_norm_rv, build_lattice, evaluate_market, h_bmo_norm,
                             picard_diagnostics, price_equilibrium)
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
        (diag,) = picard_diagnostics([inst], tol=1e-12, max_iter=30)
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
    doc["verify"] = {"competitors": 5}
    monkeypatch.setattr(verify_mod, "PROBE_STEPS", (3,))
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
    # no sweep column depends on kappa, so no sweep measures it
    sweeps = {("risk_aversion", "0.5", "1.5", "5"): [],
              ("num_steps", "2", "4", "3"): []}
    for (param, start, stop, points), want in sweeps.items():
        calls.clear()
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", param,
                                           "--from", start, "--to", stop,
                                           "--points", points, "--out", out])
        assert result.exit_code == 0, result.output
        assert calls == want, param


def test_verify_measures_kappa_once_per_lattice(tmp_path, monkeypatch):
    # the Picard run measures kappa at depth 14 capped to 12; the
    # counter-example probe reads no kappa, so it measures none
    import impact_bsde.cli as cli
    import impact_bsde.norms as norms
    from impact_bsde.norms import KAPPA_MAX_STEPS
    calls = []
    original = cli.measure_kappa

    def counting(lattice, *args, **kwargs):
        calls.append(min(lattice.num_steps, KAPPA_MAX_STEPS))
        return original(lattice, *args, **kwargs)

    monkeypatch.setattr(cli, "measure_kappa", counting)
    monkeypatch.setattr(norms, "measure_kappa", counting)
    doc = one_period_doc(num_steps=14, demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t", "scale": 0.2},
                         center_dividend=True)
    doc["verify"] = {"competitors": 10}
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", "all",
                                       "--out", str(tmp_path / "verify.json")])
    assert result.exit_code == 0, result.output
    assert calls == [12]


def test_verify_apriori_computes_the_gauge_norm_once(tmp_path, monkeypatch):
    # the command computes it and hands it to both a-priori checks
    import impact_bsde.cli as cli
    calls = []
    original = cli.h_norm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "h_norm", counting)
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
            b = lat.walk(k) * lat.sqrt_dt
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


def _node_table(lat, n, fill):
    """The node writer's arguments on ``lat`` with ``n`` stocks, every value
    of every process drawn by ``fill(shape)``: adapted prices, certainty
    equivalent and density, predictable up probability, market price of
    risk and volatility."""
    from impact_bsde import AdaptedProcess, PredictableProcess

    def adapted(*shape):
        return AdaptedProcess(lat, [fill((lat.nodes(k), *shape))
                                    for k in range(lat.num_steps + 1)])

    def predictable(*shape):
        return PredictableProcess(lat, [fill((lat.nodes(k), *shape))
                                        for k in range(lat.num_steps)])
    return (adapted(n), adapted(), adapted(), predictable(), predictable(), predictable(n))


def test_node_table_of_distinct_values_matches_the_csv_writer(tmp_path):
    # no two process values alike (only the walk column repeats), so every
    # float is formatted on its own: the bytes do not rest on the memo
    from impact_bsde.cli import _write_nodes
    rng = np.random.default_rng(17)
    args = _node_table(build_lattice(9, 1.0), 2, lambda shape: rng.normal(size=shape))
    values = np.concatenate([np.ravel(v) for proc in args for v in proc.values])
    assert len(np.unique(values)) == len(values)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_nodes(str(got), *args)
    _reference_write_nodes(str(want), *args)
    assert got.read_bytes() == want.read_bytes()


def test_node_table_keeps_the_text_of_special_floats(tmp_path, monkeypatch):
    # one chunk of a split level holds nan, a negative nan, +-inf and +-0.0 in
    # every float column but the walk: equal and unequal bit patterns of one
    # chunk keep their own text
    import impact_bsde.cli as cli
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
    rng = np.random.default_rng(23)

    def fill(shape):
        values = rng.normal(size=shape)
        if len(values) == 16:  # level 4: nodes 6-11 are its second chunk
            values[6:12] = np.reshape(specials, (6,) + (1,) * (len(shape) - 1))
        return values
    args = _node_table(build_lattice(5, 1.0), 3, fill)
    monkeypatch.setattr(cli, "_NODE_ROWS", 6)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_nodes(str(got), *args)
    _reference_write_nodes(str(want), *args)
    assert got.read_bytes() == want.read_bytes()
    rows = [line.split(",") for line in got.read_text().splitlines()]
    text = {tuple(row[:2]): row[3:] for row in rows[1:]}
    assert [set(text["4", str(p)]) for p in range(6, 12)] == [
        {"nan"}, {"nan"}, {"inf"}, {"-inf"},
        {"0.0000000000000000e+00"}, {"-0.0000000000000000e+00"}]


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


def test_bsde_node_table_without_a_positive_density(tmp_path):
    # |integrand| * sqrt(dt) reaches 210 here, so the density would lose
    # positivity: the dump still succeeds, with the density nan and the
    # market price of risk and the volatility those of the solution, which
    # are finite
    cfg = write_config(tmp_path, one_period_doc(
        risk_aversion=6.0, num_steps=3, demand={"type": "constant", "value": 1.0},
        dividend={"type": "sign_of_b_t", "scale": 2.0}))
    nodes = tmp_path / "nodes.csv"
    result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--out", str(tmp_path / "b.json"),
                                       "--method", "explicit", "--dump-nodes", str(nodes)])
    assert result.exit_code == 0, (result.output, result.exception)
    header, *rows = [line.split(",") for line in nodes.read_text().splitlines()]
    assert len(rows) == 15
    for column in ("z", "q_up"):
        assert {row[header.index(column)] for row in rows} == {"nan"}, column
    assert all(math.isfinite(float(row[header.index(c)])) for row in rows for c in ("s_1", "r"))
    sol = bsde_mod.solve_explicit(evaluate_market(load_config(cfg).market, build_lattice(3, 1.0)))
    with pytest.raises(ExponentialGuardError):
        sol.density
    for row in rows:
        k, p = int(row[0]), int(row[1])
        got = [float(row[header.index(c)]) for c in ("alpha", "sigma_1")]
        if k == 3:
            assert all(math.isnan(v) for v in got), row
        else:
            assert got == [sol.market_price_of_risk.values[k][p],
                           sol.volatility.values[k][p, 0]], row
            assert all(math.isfinite(v) for v in got), row


@pytest.mark.parametrize("dump", [False, True])
def test_bsde_both_holds_no_solution_through_the_picard_loop(tmp_path, dump):
    # the Picard loop runs before any walk starts, so no explicit slice is
    # alive through it; after it, without a node dump, the walks hold their
    # levels in rolling buffers and build no whole-tree process, and with
    # one only the explicit solution the table is written from is whole
    events = []
    loop, backward = bsde_mod.picard_diagnostics, bsde_mod._backward
    processes = {"AdaptedProcess": bsde_mod.AdaptedProcess,
                 "PredictableProcess": bsde_mod.PredictableProcess}

    def picard(*args, **kwargs):
        events.append("loop")
        return loop(*args, **kwargs)

    def walk(*args, **kwargs):
        events.append("level")
        return backward(*args, **kwargs)

    def process(name):
        def build(lattice, values):
            events.append(name)
            return processes[name](lattice, values)
        return build

    cfg = write_config(tmp_path, one_period_doc(
        num_stocks=2, num_steps=6, demand={"type": "constant", "value": [0.3, 0.2]},
        dividend={"type": "sign_of_b_t", "scale": 0.5}))
    argv = ["bsde", "--config", cfg, "--out", str(tmp_path / "b.json"), "--method", "both"]
    if dump:
        argv += ["--dump-nodes", str(tmp_path / "nodes.csv")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bsde_mod, "picard_diagnostics", picard)
        patch.setattr(bsde_mod, "_backward", walk)
        for name in processes:
            patch.setattr(bsde_mod, name, process(name))
        result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, (result.output, result.exception)
    # both walks pass each of the 6 levels after the loop, one tile each
    assert events[:13] == ["loop"] + ["level"] * 12
    # the explicit solution kept for the table, its value and price and its
    # two integrands, is the first process built; the table derives its
    # columns from it
    assert events[13:17] == (["AdaptedProcess"] * 2 + ["PredictableProcess"] * 2 if dump
                             else [])


def _walk_peaks(inst, tol, max_iter) -> tuple[float, float]:
    """The traced peaks (bytes) of the Picard loop and of the leaf-to-root
    walk after it, as ``bsde --method both`` runs them without a dump."""
    import tracemalloc
    tracemalloc.start()
    try:
        ends = [None]
        tracemalloc.reset_peak()
        bsde_mod.picard_diagnostics([inst], tol, max_iter, ends)
        loop = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bsde_mod._solve(inst, explicit=True, ends=ends[0])
        return loop, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("num_stocks", [1, 2])
def test_bsde_walk_peaks_below_the_picard_loop(num_stocks):
    # no solution is alive through the loop, and the walks after it hold two
    # levels each: the walk's traced peak, the loop's last iterate included,
    # stays below the loop's
    inst = evaluate_market(MarketConfig(0.54, num_stocks, NegativeSignOfB(0.75), SignOfBT(0.66),
                                        14, 1.0), build_lattice(14, 1.0))
    loop, walk = _walk_peaks(inst, 1e-12, 100)
    assert walk < loop, (walk, loop)


def test_bsde_holds_and_gathers_no_tree_sized_demand(tmp_path, monkeypatch):
    # a negative-sign demand is read off its state tables through the whole
    # of bsde --method both: the evaluation's traced peak is about the leaf
    # rows alone, no demand level is ever gathered, and no tile read
    # allocates a block of nodes(N - 1) values or more
    import tracemalloc
    import impact_bsde.cli as cli_mod
    from impact_bsde.lattice import PredictableProcess
    n = 16
    doc = {"market": {"risk_aversion": 0.3, "num_stocks": 1, "num_steps": n, "horizon": 1.0,
                      "demand": {"type": "negative_sign_of_b", "scale": 0.5},
                      "dividend": {"type": "linear_clipped", "slope": 1.0, "bound": 1.0}}}
    config = write_config(tmp_path, doc)
    market = load_config(config).market
    tracemalloc.start()
    try:
        inst = cli_mod._evaluate(market)
        peak = tracemalloc.get_traced_memory()[1]
        # the per-node demand levels and walks took 5.6 times the leaf rows
        assert peak < 1.25 * inst.psi.nbytes, (peak, inst.psi.nbytes)
        del inst

        gathered, reads, instances = [], [], []
        levels = PredictableProcess.__dict__["values"].func

        def values(self):
            if "values" not in vars(self):
                gathered.append(self)
                vars(self)["values"] = levels(self)
            return vars(self)["values"]

        def tile(self, k, nodes, out, read=PredictableProcess.tile):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = read(self, k, nodes, out)
            reads.append(tracemalloc.get_traced_memory()[1] - before)
            return got

        def evaluate(market, evaluate=cli_mod._evaluate):
            instances.append(evaluate(market))
            return instances[-1]

        monkeypatch.setattr(PredictableProcess, "values",
                            property(values, lambda self, v: vars(self).update(values=v)))
        monkeypatch.setattr(PredictableProcess, "tile", tile)
        monkeypatch.setattr(cli_mod, "_evaluate", evaluate)
        main(["bsde", "--config", config, "--out", str(tmp_path / "bsde.json"),
              "--method", "both"], standalone_mode=False)
    finally:
        tracemalloc.stop()
    (inst,) = instances
    assert gathered == [] and reads
    assert max(reads) < 8 * (1 << (n - 1)), max(reads)
    assert max(t.nbytes for t in inst.gamma.tables) < 8 * (1 << (n - 1))


def _blown_up(loop):
    """``picard_diagnostics`` whose rows end on their iterate times 2**600:
    a rebuild from it overflows where the explicit solve does not."""
    def run(points, tol, max_iter, ends=None):
        diags = loop(points, tol, max_iter, ends)
        if ends is not None:
            with np.errstate(over="ignore"):
                ends[:] = [tuple([np.ldexp(v, 600) for v in part] for part in pair)
                           for pair in ends]
        return diags
    return run


def _bsde_outputs(command, directory: Path, cfg: str, method: str, dump: bool):
    """Exit code, printed text and output files of one ``bsde`` run."""
    argv = ["bsde", "--config", cfg, "--method", method, "--out", str(directory / "bsde.json"),
            "--diagnostics", str(directory / "diag.csv")]
    if dump:
        argv += ["--dump-nodes", str(directory / "nodes.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(command, argv)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return result.exit_code, result.output, repr(result.exception), files


_WALK_DEMANDS = {"constant": lambda s, _: {"type": "constant", "value": s},
                 "negative_sign_of_b": lambda s, _: {"type": "negative_sign_of_b", "scale": s},
                 "piecewise_constant": lambda s, rng: {
                     "type": "piecewise_constant",
                     "schedule": [[0, s], [int(rng.integers(1, 11)), float(rng.uniform(-2, 2))]]}}
_WALK_DIVIDENDS = {"sign_of_b_t": lambda s, _: {"type": "sign_of_b_t", "scale": s},
                   "linear_clipped": lambda s, rng: {"type": "linear_clipped", "slope": s,
                                                     "bound": float(rng.uniform(0.1, 2.0))},
                   "digital": lambda s, rng: {"type": "digital", "strike": s / 2,
                                              "offset": float(rng.uniform(0.0, 1.0))}}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(1, 3), st.sampled_from(sorted(_WALK_DEMANDS)),
       st.sampled_from(sorted(_WALK_DIVIDENDS)),
       st.one_of(st.floats(0.05, 5.0), st.floats(5.0, 1e3), st.floats(1e150, 1.7e308)),
       st.sampled_from(["both", "picard", "explicit"]), st.booleans(),
       st.sampled_from([False, False, True]), st.integers(0, 2 ** 31))
# explicit first: the explicit solve overflows, and so would the rebuild
@example(9, 2, "negative_sign_of_b", "sign_of_b_t", 3.0, "both", False, False, 0)
# Picard only: the rebuild from the scaled iterate overflows, the explicit
# solve does not
@example(6, 2, "constant", "linear_clipped", 0.5, "both", False, True, 0)
@example(6, 1, "negative_sign_of_b", "digital", 0.5, "picard", True, True, 0)
# the scaled dividend overflows on the leaves, where the Picard check starts
@example(4, 1, "constant", "sign_of_b_t", 1.5e308, "picard", False, False, 1)
def test_bsde_walk_equals_the_whole_solutions(tmp_path_factory, num_steps, num_stocks, demand,
                                              dividend, risk_aversion, method, dump, blow_up,
                                              seed):
    # the leaf-to-root walk gives the files, exit code and message of the
    # command that held both whole solutions, bit for bit
    from bsde_reference import main as reference
    rng = np.random.default_rng(seed)
    doc = one_period_doc(risk_aversion=risk_aversion, num_stocks=num_stocks,
                         num_steps=num_steps,
                         demand=_WALK_DEMANDS[demand](float(rng.uniform(-2, 2)), rng),
                         dividend=_WALK_DIVIDENDS[dividend](float(rng.uniform(-2, 2)), rng))
    doc["solver"] = {"max_iter": 30}
    root = tmp_path_factory.mktemp("walk")
    cfg = write_config(root, doc)
    outputs = []
    for name, command in (("walk", main), ("reference", reference)):
        directory = root / name
        directory.mkdir()
        with pytest.MonkeyPatch.context() as patch:
            if blow_up:
                patch.setattr(bsde_mod, "picard_diagnostics",
                              _blown_up(bsde_mod.picard_diagnostics))
            outputs.append(_bsde_outputs(command, directory, cfg, method, dump))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 3), outputs[0][1:3]


@pytest.mark.parametrize("num_stocks", [1, 2, 3])
@pytest.mark.parametrize("method, dump, blow_up, risk_aversion, scale, code", [
    ("both", False, False, 1.0, 1.0, 0), ("both", True, False, 1.0, 1.0, 0),
    ("picard", True, False, 1.0, 1.0, 0), ("explicit", False, False, 1.0, 1.0, 0),
    # the rebuild from the scaled iterate overflows, the explicit solve does not
    ("both", False, True, 0.3, 1.0, 3),
    # the explicit solve overflows; the scaled dividend overflows on the leaves
    ("both", True, False, 1.0, 1e160, 3), ("picard", False, False, 4.0, 1e308, 3),
])
def test_band_walk_equals_the_whole_solutions(tmp_path, tiny_tiles, num_stocks, method, dump,
                                              blow_up, risk_aversion, scale, code):
    # band tiles of four levels over nine: the walks give the files, exit
    # code and message of the command that held both whole solutions, bit
    # for bit
    from bsde_reference import main as reference
    tiny_tiles(16 * num_stocks)
    doc = one_period_doc(risk_aversion=risk_aversion, num_stocks=num_stocks, num_steps=9,
                         demand={"type": "negative_sign_of_b", "scale": 0.8},
                         dividend={"type": "sign_of_b_t", "scale": scale})
    doc["solver"] = {"max_iter": 30}
    cfg = write_config(tmp_path, doc)
    cut = bsde_mod._Cut(build_lattice(9, 1.0), num_stocks)
    assert (cut.top, cut.bands) == (5, 8)
    outputs = []
    for name, command in (("walk", main), ("reference", reference)):
        directory = tmp_path / name
        directory.mkdir()
        with pytest.MonkeyPatch.context() as patch:
            if blow_up:
                patch.setattr(bsde_mod, "picard_diagnostics",
                              _blown_up(bsde_mod.picard_diagnostics))
            outputs.append(_bsde_outputs(command, directory, cfg, method, dump))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == code, outputs[0][1:3]


# the last pair is finite, but its span overflows: np.linspace made a nan
# point of it, and the sweep failed on that point as a numeric failure
@pytest.mark.parametrize("bounds", [("inf", "1", "must be finite"),
                                    ("0.5", "nan", "must be finite"),
                                    ("-inf", "inf", "must be finite"),
                                    ("-1e308", "1e308", "span -1e+308..1e+308 overflows")])
@pytest.mark.parametrize("param", ["risk_aversion", "demand_scale", "dividend_scale",
                                   "num_steps"])
def test_sweep_rejects_non_finite_bounds(tmp_path, param, bounds):
    cfg = write_config(tmp_path, one_period_doc(num_steps=3))
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", param,
                                           "--from", bounds[0], "--to", bounds[1],
                                           "--points", "3", "--out", str(out)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert f"config error: --from/--to {bounds[2]}" in result.output
    assert not out.exists()


def test_empty_depth_sweep_is_a_config_error(tmp_path):
    # every depth of the range is below one: refused before any work, as a
    # non-positive risk aversion range is, instead of a header-only table
    cfg = write_config(tmp_path, one_period_doc(num_steps=3))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", "num_steps",
                                       "--from", "-3", "--to", "0.5", "--points", "4",
                                       "--out", str(out)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "config error: --from/--to must reach a depth >= 1" in result.output
    assert not out.exists()


def test_depth_sweep_that_drops_points_is_a_config_error(tmp_path):
    # depths below one and repeated depths would leave the table short of
    # --points; the range is refused before any work, naming both counts
    cfg = write_config(tmp_path, one_period_doc(num_steps=4))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", "num_steps",
                                       "--from", "-3", "--to", "5", "--points", "4",
                                       "--out", str(out)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "config error: --points 4 asks for 4 depths" in result.output
    assert "gives 2 distinct depths >= 1: [2, 5]" in result.output
    assert not out.exists()


def test_verify_uses_the_configured_growth_bound(tmp_path, monkeypatch):
    # a tiny configured growth constant widens the contraction radius: bsde
    # and verify read the same constants, so both see the run inside it and
    # verify runs the norm-bound check instead of skipping it
    doc = one_period_doc(num_steps=6, dividend={"type": "sign_of_b_t", "scale": 0.3})
    doc["solver"] = {"growth_bound": 1e-6, "kappa": 1.0}
    doc["verify"] = {"competitors": 5}
    monkeypatch.setattr(verify_mod, "PROBE_STEPS", (3,))
    cfg = write_config(tmp_path, doc)
    runner = CliRunner()
    result = runner.invoke(main, ["bsde", "--config", cfg, "--method", "picard",
                                  "--out", str(tmp_path / "b.json")])
    assert result.exit_code == 0, result.output
    bsde_doc = json.loads((tmp_path / "b.json").read_text())
    result = runner.invoke(main, ["verify", "--config", cfg, "--suite", "all",
                                  "--out", str(tmp_path / "v.json")])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in json.loads((tmp_path / "v.json").read_text())["checks"]}
    assert bsde_doc["picard"]["growth_bound"] == 1e-6
    assert bsde_doc["contraction_report"]["within_contraction_radius"] is True
    assert checks["norm_bounds"]["hypotheses"] == {"picard_converged": True,
                                                   "within_contraction_radius": True}
    assert checks["norm_bounds"]["status"] == "diagnostic"


@pytest.mark.parametrize("command", [["bsde", "--method", "both"], ["verify", "--suite", "all"]],
                         ids=["bsde", "verify"])
@pytest.mark.parametrize("solver, product", [
    ({"kappa": 1e308}, "inf"), ({"growth_bound": 1e308}, "inf"),
    ({"kappa": 1e-300, "growth_bound": 1e-10}, "8.00000000000002e-310"),
], ids=["kappa", "growth_bound", "tiny"])
def test_constants_beyond_the_float_range_are_config_errors(tmp_path, command, solver,
                                                              product):
    # 8 kappa Theta overflowed: bsde exited 0 with growth_bound_margins
    # [NaN, Infinity, ...] and a false growth_bound_ok[0]; below 2 / max
    # the contraction and uniqueness radii were written as Infinity
    doc = one_period_doc(num_steps=4, dividend={"type": "sign_of_b_t", "scale": 0.2})
    doc["solver"] = solver
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert re.fullmatch(rf"config error: solver\.kappa \S+ and solver\.growth_bound \S+ give "
                        rf"8 \* kappa \* growth_bound = {re.escape(product)}, outside the float "
                        rf"range of the contraction radii\n", result.output), result.output
    assert not out.exists()


@pytest.mark.parametrize("method", ["both", "picard"])
def test_derived_constants_beyond_the_float_range_are_numeric_failures(tmp_path, method):
    # a demand of 1.7e308 squares to an infinite growth bound: bsde exited 0
    # and wrote "growth_bound": Infinity with contraction and uniqueness
    # radii of 0
    doc = one_period_doc(num_steps=3, demand={"type": "constant", "value": 1.7e308},
                         dividend={"type": "sign_of_b_t", "scale": 0.0})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["bsde", "--method", method, "--config", cfg,
                                           "--out", str(out)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert re.fullmatch(r"numeric failure: kappa \S+ and the growth bound inf of demands "
                        r"bounded by 1\.7e\+308 give 8 \* kappa \* growth_bound = inf, "
                        r"outside the float range of the contraction radii; rescale the "
                        r"demand\n", result.output), result.output
    assert not out.exists()


@pytest.mark.parametrize("demand, scale", [(0.5, 1e308), (1e308, 1e-300)],
                         ids=["dividend", "demand"])
def test_homogeneity_beyond_the_float_range_prints_one_line(tmp_path, demand, scale):
    # scaling the dividend or the demand past the float range printed
    # numpy's overflow and invalid-subtract warnings before the pricer's
    # own numeric failure
    doc = one_period_doc(num_steps=3, demand={"type": "constant", "value": demand},
                         dividend={"type": "sign_of_b_t", "scale": scale})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["verify", "--suite", "homogeneity", "--config", cfg,
                                           "--out", str(out)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert [str(w.message) for w in caught] == []
    assert re.fullmatch(r"numeric failure: price became non-finite at node \(step \d+, "
                        r"path \d+\)[^\n]*\n", result.output), result.output
    assert not out.exists()


_HUGE_DIVIDEND = {"type": "sign_of_b_t", "scale": 1e200}


@pytest.mark.parametrize("command", [
    ["price"], ["norms"],
    ["sweep", "--param", "dividend_scale", "--from", "1e200", "--to", "1e200",
     "--points", "1"],
    ["verify", "--suite", "all"],
])
def test_huge_dividends_keep_their_norms_finite(tmp_path, command):
    # centring leaves a residue ~1e184 in the mean, which the old absolute
    # centring check took for an uncentred variable (a traceback); the
    # quadratic norms, which squared the dividend and overflowed, are taken
    # of it scaled by a power of two: price, norms and sweep exit 0 with the
    # dividend's norm, 1e200; verify runs to its gates, where the density at
    # this tilt underflows and the martingale identity fails (exit 1)
    huge = command[0] != "sweep"
    doc = one_period_doc(num_steps=6, demand={"type": "negative_sign_of_b"},
                         dividend=_HUGE_DIVIDEND if huge else {"type": "sign_of_b_t"})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    if command[0] == "verify":
        assert result.exit_code == 1, (result.output, result.exception)
        assert "equilibrium_martingales: fail" in result.output
        return
    assert result.exit_code == 0, (result.output, result.exception)
    if huge:
        assert json.loads(out.read_text())["norms"]["centered_dividend_bmo"] == 1e200
    else:
        (row,) = _csv_rows(out)
        assert all(math.isfinite(float(v)) for v in (row[1], row[5], row[6])), row


@pytest.mark.parametrize("command", [
    ["price"], ["norms"],
    ["sweep", "--param", "risk_aversion", "--from", "0.5", "--to", "1.5", "--points", "3"],
])
@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_quadratic_norms_of_extreme_dividends_are_finite(tmp_path, command, scale):
    # the quadratic norms squared the data: at 1e160 they were inf (exit 3),
    # at 1e-200 the centred dividend's norm read 0.0; taken of the data
    # scaled by a power of two, they scale with the dividend
    doc = one_period_doc(num_steps=5, dividend={"type": "sign_of_b_t", "scale": scale})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    if command[0] == "sweep":
        # smallness product and volatility norm of each point
        norms = [float(v) for row in _csv_rows(out) for v in (row[1], row[5])]
    else:
        doc = json.loads(out.read_text())
        norms = [doc["norms"]["centered_dividend_bmo"], doc["volatility_bmo"]]
        assert doc["norms"]["centered_dividend_bmo"] == scale
    assert all(0.0 < v < math.inf for v in norms), norms


def test_huge_demand_gives_an_infinite_growth_bound(tmp_path):
    # the growth constant squares the demand sup: 1e100 overflows to inf
    # instead of raising; the iteration's overflow is data, but the solution
    # rebuilt from its last finite iterate overflows too, a numeric failure
    assert bsde_mod.driver_growth_bound(1e100) == math.inf
    doc = one_period_doc(num_steps=3, demand={"type": "constant", "value": 1e100})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--method", "picard",
                                           "--out", str(out)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert result.output.startswith("numeric failure: Picard scaled ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["picard", "both"])
def test_diverging_picard_reconstruction_is_a_numeric_failure(tmp_path, method):
    # the iteration aborts at iteration 10 and the solution rebuilt from the
    # last finite iterate overflows; it used to be written as an
    # ``Infinity``/``NaN`` initial price and certainty with exit 0 (with
    # --method both the explicit pass overflows first)
    doc = one_period_doc(risk_aversion=3.0, num_stocks=2, num_steps=9,
                         demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t"})
    doc["solver"] = {"max_iter": 30}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["bsde", "--config", cfg, "--method", method,
                                           "--out", str(out),
                                           "--diagnostics", str(tmp_path / "diag.csv")])
    assert result.exit_code == 3, (result.output, result.exception)
    assert re.match(r"numeric failure: (Picard )?scaled (price|certainty equivalent) became "
                    r"non-finite at node \(step \d+, path \d+\)", result.output)
    assert not out.exists()
    # the iteration itself aborts: the failure is the reconstruction's
    inst = evaluate_market(load_config(cfg).market, build_lattice(9, 1.0))
    diag, = bsde_mod.picard_diagnostics([inst], 1e-12, 30)
    assert diag.aborted == "non-finite iterate at iteration 10"


def test_large_dividends_keep_finite_norms(tmp_path):
    # large enough for the old absolute centring check to refuse, small
    # enough for every norm to stay finite
    doc = one_period_doc(num_steps=6, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 3e100})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "norms.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["norms", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    norms = json.loads(out.read_text())["norms"]
    assert math.isfinite(norms["centered_dividend_bmo"]) and norms["centered_dividend_bmo"] > 1e99


@pytest.mark.parametrize("command", ["price", "norms"])
def test_huge_one_stock_demand_keeps_a_finite_sup(tmp_path, command):
    # a 1-stock norm is |x|: squaring 1e300 used to make the demand sup and
    # the smallness product Infinity, with numpy overflow warnings
    doc = one_period_doc(num_steps=6, demand={"type": "constant", "value": 1e300})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    norms = json.loads(out.read_text())["norms"]
    assert norms["demand_sup"] == 1e300
    assert math.isfinite(norms["smallness_product"])


# a=1e300 over a horizon of 1e-300: the prices stay finite, but the price
# integrand a * volatility overflows; the representation gap it enters was
# written as Infinity with exit 0, and numpy warned where it was derived
_OVERFLOWING_INTEGRAND = {"risk_aversion": 1e300, "horizon": 1e-300, "num_steps": 6}


@pytest.mark.parametrize("command", ["price", "norms"])
def test_overflowing_price_integrand_is_a_numeric_failure(tmp_path, command):
    cfg = write_config(tmp_path, one_period_doc(**_OVERFLOWING_INTEGRAND))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert result.output.startswith("numeric failure: ")
    assert "overflow the float range" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--param", "risk_aversion", "--from", "0.1", "--to", "1e300", "--points", "3"],
    ["verify", "--suite", "all"],
])
def test_overflowing_price_integrand_prints_no_runtime_warning(tmp_path, command):
    cfg = write_config(tmp_path, one_period_doc(**_OVERFLOWING_INTEGRAND))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", cfg,
                                                     "--out", str(tmp_path / "out")])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    assert result.exit_code in (0, 1), result.output



# the scaled gain overflows: in the pricer's stochastic integral of a demand
# of 1e200 against prices of 1e154, and in the terminal density identity at
# a=1e300 against a demand of 1e300; numpy warned at both before the exit
_OVERFLOWING_GAIN = {
    "pricer": one_period_doc(
        num_steps=2, demand={"type": "piecewise_constant", "schedule": [[0, 1e200], [1, 0.0]]},
        dividend={"type": "sign_of_b_t", "scale": 1e154}),
    "identity": one_period_doc(
        risk_aversion=1e300, num_steps=2, demand={"type": "negative_sign_of_b", "scale": 1e300},
        dividend={"type": "linear_clipped", "slope": -3.0, "bound": 2.5}, center_dividend=True),
}


@pytest.mark.parametrize("case, command, code", [
    ("pricer", ["price"], 3),
    ("pricer", ["norms"], 3),
    ("pricer", ["verify", "--suite", "all"], 3),
    ("identity", ["verify", "--suite", "all"], 1),
    ("identity", ["verify", "--suite", "martingale"], 1),
])
def test_overflowing_gain_prints_no_runtime_warning(tmp_path, case, command, code):
    cfg = write_config(tmp_path, _OVERFLOWING_GAIN[case])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", cfg,
                                                     "--out", str(tmp_path / "out")])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    assert result.exit_code == code, result.output
    if code == 3:
        assert result.output.startswith("numeric failure: ")
        assert "overflow the float range" in result.output
    else:
        assert "equilibrium_martingales: fail" in result.output


# dividends at the edge of the float range, one per former traceback of
# norms.bmo_norm_rv: a midrange guard absolute where rounding is relative, a
# guard that refused an overflowing norm, a centring that rounding undid
_EDGE_DIVIDENDS = {
    "sign_7.77e10_2_stocks": (2, {"type": "sign_of_b_t", "scale": 7.77e10}),
    "sign_1e154_1_stock": (1, {"type": "sign_of_b_t", "scale": 1e154}),
    "digital_offset_1e15_2_stocks": (2, {"type": "digital", "offset": 1e15}),
}


@pytest.mark.parametrize("command", [
    ["price"], ["norms"], ["verify", "--suite", "all"],
    ["sweep", "--param", "risk_aversion", "--from", "0.5", "--to", "1.5", "--points", "3"],
])
@pytest.mark.parametrize("case", sorted(_EDGE_DIVIDENDS))
def test_edge_dividends_end_in_an_exit_code(tmp_path, case, command):
    num_stocks, dividend = _EDGE_DIVIDENDS[case]
    doc = one_period_doc(num_steps=5, num_stocks=num_stocks, dividend=dividend)
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, command + ["--config", cfg,
                                                 "--out", str(tmp_path / "out")])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    if case.startswith("sign") and command[0] == "verify":
        # runs to its gates: at gains near 1e11 rounding alone moves the
        # terminal density identity by 2e-5, above its absolute 1e-10; at
        # 1e154 the density underflows
        assert result.exit_code == 1
        assert "equilibrium_martingales: fail" in result.output
    else:
        assert result.exit_code in (0, 3), result.output
    if case.startswith("digital"):
        assert result.exit_code == 3
        assert result.output.startswith("numeric failure: centring the dividend lost its "
                                        "precision: ")
    elif case.startswith("sign_1e154") and command[0] != "verify":
        # the quadratic norms, which squared the dividend and overflowed,
        # are taken of it scaled by a power of two
        assert result.exit_code == 0, result.output

@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_sweep_at_extreme_aversion_prints_no_runtime_warning(tmp_path, scale):
    # the Picard norms overflow on the first step: data, not a warning; at
    # the larger dividend the pricer's tilt overflows too, which it reports
    doc = one_period_doc(num_steps=6, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": scale})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param",
                                           "risk_aversion", "--from", "1e308", "--to", "1e308",
                                           "--points", "1", "--out", str(out)])
    if scale > 1.0:
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.output.startswith("numeric failure: price became non-finite at node")
        return
    assert result.exit_code == 0, (result.output, result.exception)
    (row,) = _csv_rows(out)
    assert row[2:5] == ["False", "1", "nan"]


def test_sweep_of_a_dividend_beyond_the_float_range_prints_no_runtime_warning(tmp_path):
    # the swept dividend overflows to inf at 1e200 x 1e200, and centring
    # it meets inf - inf: both are the numeric failure its norm reports
    doc = one_period_doc(num_steps=5, demand={"type": "constant", "value": 0.5},
                         dividend={"type": "sign_of_b_t", "scale": 1e200})
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param",
                                           "dividend_scale", "--from", "1", "--to", "1e200",
                                           "--points", "3", "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 3, (result.output, result.exception)
    assert result.output.startswith("numeric failure: the centred dividend's norm is nan")


@pytest.mark.parametrize("market, suite", [
    ({"risk_aversion": 1e10, "dividend": {"type": "sign_of_b_t", "scale": 1.0}}, "all"),
    ({"risk_aversion": 1.0, "dividend": {"type": "sign_of_b_t", "scale": 1e200}}, "optimality"),
])
def test_optimality_with_overflowing_perturbations_is_a_numeric_failure(tmp_path, market,
                                                                        suite):
    # a zero demand with a finite utility whose perturbations overflow to
    # -inf on both sides: the slopes read nan, their gaps +inf, and the zero
    # competitor ties the base, so the check passed on a minimum gap of 0.0
    doc = one_period_doc(num_steps=3, demand={"type": "constant", "value": 0.0}, **market)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "verify.json"
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", suite,
                                       "--out", str(out)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert result.output == ("numeric failure: demand_optimality: the perturbation slopes "
                             "[nan, nan, nan] are not finite: the perturbed utilities overflow "
                             "the float range\n")
    assert not out.exists()


def _refuse_picard_solutions(monkeypatch):
    """Make any Picard solution fail the command: no ``bsde._solve`` walk
    rebuilds one from the integrand pair a Picard loop ends on.  Returns the
    list of refused calls."""
    calls = []
    original = bsde_mod._solve

    def solve(inst, explicit=False, ends=None, keep=False):
        if ends is not None:
            calls.append("_solve")
            raise AssertionError("a Picard solution was rebuilt")
        return original(inst, explicit=explicit, ends=ends, keep=keep)

    monkeypatch.setattr(bsde_mod, "_solve", solve)
    return calls


def test_sweep_runs_no_reconstruction(tmp_path, monkeypatch):
    # the sweep reads only the iteration record: no solution is rebuilt
    calls = _refuse_picard_solutions(monkeypatch)

    def refuse(*args, **kwargs):
        calls.append("AdaptedProcess")
        raise AssertionError("the sweep built a value or price tree")

    # every solution the solver module builds wraps its slices in one
    monkeypatch.setattr(bsde_mod, "AdaptedProcess", refuse)
    cfg = write_config(tmp_path, one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                                                dividend={"type": "sign_of_b_t", "scale": 0.5}))
    for param, bounds, points in (("risk_aversion", ("0.5", "4"), "4"),
                                  ("num_steps", ("2", "4"), "3")):
        result = CliRunner().invoke(main, ["sweep", "--config", cfg, "--param", param,
                                           "--from", bounds[0], "--to", bounds[1],
                                           "--points", points, "--out", str(tmp_path / "s.csv")])
        assert result.exit_code == 0, (result.output, result.exception)
    assert calls == []


@pytest.mark.parametrize("suite", ["all", "counterexample"])
def test_verify_runs_no_reconstruction(tmp_path, monkeypatch, suite):
    # the norm-bounds gate and the counter-example probe read only the
    # iteration record: no Picard solution is rebuilt
    calls = _refuse_picard_solutions(monkeypatch)
    doc = one_period_doc(num_steps=5, demand={"type": "negative_sign_of_b"},
                         dividend={"type": "sign_of_b_t", "scale": 0.5})
    doc["verify"] = {"competitors": 20}
    monkeypatch.setattr(verify_mod, "PROBE_STEPS", (3, 4))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "verify.json"
    result = CliRunner().invoke(main, ["verify", "--config", cfg, "--suite", suite,
                                       "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    assert calls == []
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert "counterexample_probe" in checks
    if suite == "all":
        assert checks["norm_bounds"]["hypotheses"]["picard_converged"] is True


def _run_norms(tmp_path, command, doc):
    """``command`` on ``doc`` with RuntimeWarnings as errors; its norms."""
    cfg = write_config(tmp_path, doc)
    out = tmp_path / f"{command}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    return json.loads(out.read_text())["norms"]


@pytest.mark.parametrize("command", ["price", "norms"])
@pytest.mark.parametrize("scale", [1e-12, 1e-200])
def test_tiny_dividend_gauge_is_the_scaled_unit_gauge(tmp_path, command, scale):
    # the bisection's absolute tolerance left the gauge at its initial
    # bracket, 10 x the spread, at these scales
    def gauge(s):
        doc = one_period_doc(num_steps=5, dividend={"type": "sign_of_b_t", "scale": s})
        return _run_norms(tmp_path, command, doc)["centered_dividend_gauge"]

    assert gauge(scale) == pytest.approx(scale * gauge(1.0), rel=1e-11, abs=0.0)


def test_norms_section_is_a_config_error(tmp_path):
    doc = one_period_doc()
    doc["norms"] = {"bisection_tol": 1e-10}
    cfg = write_config(tmp_path, doc)
    result = CliRunner().invoke(main, ["price", "--config", cfg,
                                       "--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2
    assert "config.norms: unknown key" in result.output


@pytest.mark.parametrize("num_stocks", [1, 2])
def test_price_and_verify_report_the_same_gauge(tmp_path, num_stocks):
    doc = one_period_doc(num_steps=5, num_stocks=num_stocks,
                         dividend={"type": "sign_of_b_t", "scale": 0.3})
    gauge = _run_norms(tmp_path, "price", doc)["centered_dividend_gauge"]
    out = tmp_path / "verify.json"
    result = CliRunner().invoke(main, ["verify", "--suite", "apriori", "--config",
                                       write_config(tmp_path, doc), "--out", str(out)])
    assert result.exit_code == 0, result.output
    for check in json.loads(out.read_text())["checks"]:
        assert check["hypotheses"]["gauge_norm"] == gauge


@pytest.mark.parametrize("command", ["price", "norms"])
def test_huge_two_stock_demand_keeps_a_finite_sup(tmp_path, command):
    # several stocks square their scaled rows: 1e300 squared made the
    # demand sup and the smallness product Infinity, with overflow warnings
    doc = one_period_doc(num_steps=6, num_stocks=2,
                         demand={"type": "constant", "value": 1e300})
    norms = _run_norms(tmp_path, command, doc)
    assert norms["demand_sup"] == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
    assert math.isfinite(norms["smallness_product"])


def test_readme_config_runs_every_command(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    cfg = write_config(tmp_path, doc)
    for command in (["price"], ["norms"], ["bsde", "--method", "both"],
                    ["verify", "--suite", "all"],
                    ["sweep", "--param", "risk_aversion", "--from", "0.5", "--to", "1.5",
                     "--points", "4"]):
        result = CliRunner().invoke(main, command + ["--config", cfg,
                                                     "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, (command, result.output, result.exception)


def _quiet_run(tmp_path, doc, command):
    """Exit code and printed text of one command, numpy warnings raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, command + ["--config", write_config(tmp_path, doc),
                                                     "--out", str(tmp_path / "out")])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    return result.exit_code, result.output


@pytest.mark.parametrize("a, command, message", [
    # 1 / a overflows: the root was written as [Infinity] and NaN with exit 0
    (1e-320, ["bsde", "--method", "both"],
     "the root price [inf] or certainty equivalent nan is not finite once unscaled by the "
     "risk aversion 1e-320"),
    # homogeneity priced at a * 0.5 = 0, which the instance refused with a traceback
    (5e-324, ["verify", "--suite", "all"],
     "homogeneity: the risk aversion 5e-324 scaled by 0.5 is 0.0, below the float range"),
], ids=["bsde", "verify"])
def test_risk_aversion_at_the_float_floor_is_a_numeric_failure(tmp_path, a, command, message):
    doc = one_period_doc(risk_aversion=a, num_steps=4,
                         dividend={"type": "sign_of_b_t", "scale": 1.0})
    assert _quiet_run(tmp_path, doc, command) == (3, f"numeric failure: {message}\n")
    assert not (tmp_path / "out").exists()


_SWEEP = ["sweep", "--param", "risk_aversion", "--from", "0.5", "--to", "1", "--points", "2"]
_FIVE_COMMANDS = [["price"], ["bsde", "--method", "both"], ["norms"], ["verify", "--suite", "all"],
                  _SWEEP]


@pytest.mark.parametrize("command", _FIVE_COMMANDS, ids=lambda c: c[0])
def test_step_below_the_float_range_is_a_config_error(tmp_path, command):
    # dt and sqrt_dt were 0: divide-by-zero warnings, then exit 3 or a traceback
    doc = one_period_doc(horizon=5e-324, num_steps=3)
    assert _quiet_run(tmp_path, doc, command) == (
        2, "config error: market: horizon 5e-324 over 3 steps gives a step of 0\n")


@pytest.mark.parametrize("command", _FIVE_COMMANDS, ids=lambda c: c[0])
def test_dividends_at_the_top_of_the_float_range_print_no_warning(tmp_path, command):
    # a linear_clipped slope of 1.7e308 warned of an overflow in slope * b
    # (exit 0), and a digital offset of 1.7e308 of one in the dividend's mean
    # (exit 3, or a traceback with warnings raised)
    slope = one_period_doc(num_steps=4, dividend={"type": "linear_clipped", "slope": 1.7e308})
    code, output = _quiet_run(tmp_path, slope, command)
    assert code == 0, output
    offset = one_period_doc(num_steps=4, dividend={"type": "digital", "offset": 1.7e308})
    code, output = _quiet_run(tmp_path, offset, command)
    assert code == 3 and output.startswith("numeric failure: ") and output.count("\n") == 1, \
        output


@pytest.mark.parametrize("command", _FIVE_COMMANDS, ids=lambda c: c[0])
def test_localization_level_beyond_the_walk_is_never_hit(tmp_path, command):
    # level / sqrt(dt) overflowed to inf, and rounding it raised OverflowError
    for spec, inner in (("demand", {"type": "constant"}), ("dividend", {"type": "sign_of_b_t"})):
        doc = one_period_doc(num_steps=4, **{spec: {"type": "localized", "inner": inner,
                                                    "level": 1e308, "from_step": 1}})
        code, output = _quiet_run(tmp_path, doc, command)
        assert code == 0, output


@pytest.mark.parametrize("command", _FIVE_COMMANDS, ids=lambda c: c[0])
def test_huge_horizon_writes_finite_numbers(tmp_path, command):
    # measure_kappa overflowed: norms wrote "kappa_empirical": Infinity and
    # bsde NaN and Infinity growth-bound margins, with exit 0
    doc = one_period_doc(horizon=1.7e308, num_steps=3)
    code, output = _quiet_run(tmp_path, doc, command)
    assert code == 0, output
    text = (tmp_path / "out").read_text()
    assert "Infinity" not in text and "NaN" not in text, text
