"""Run-configuration schema: one JSON document drives every command.

Validation is strict: unknown keys are rejected with the full field path,
and each demand/dividend variant has a 1:1 textual form.  Example:

    {
      "market": {
        "risk_aversion": 1.0,
        "num_stocks": 1,
        "num_steps": 8,
        "horizon": 1.0,
        "demand": {"type": "constant", "value": 0.5},
        "dividend": {"type": "sign_of_b_t", "scale": 1.0}
      },
      "solver": {"tol": 1e-12, "max_iter": 100, "method": "explicit"},
      "verify": {"suite": "all", "competitors": 1000, "seed": 0}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .scenario import (
    ConstantDemand,
    Digital,
    LinearClipped,
    LocalizedDemand,
    LocalizedDividend,
    MarketConfig,
    NegativeSignOfB,
    PiecewiseConstantDemand,
    SignOfBT,
    TableDemand,
    TableDividend,
)

SUITES = ("all", "apriori", "martingale", "homogeneity", "optimality",
          "localization", "counterexample")
METHODS = ("explicit", "picard", "both")
SWEEP_PARAMS = ("risk_aversion", "demand_scale", "dividend_scale", "num_steps")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(obj, path, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    if positive and not obj > 0:
        raise ConfigError(f"{path}: must be positive, got {obj!r}")
    return float(obj)


def _integer(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {obj}")
    return obj


def _boolean(obj, path):
    if not isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a boolean, got {obj!r}")
    return obj


def _choice(obj, path, options):
    if obj not in options:
        raise ConfigError(f"{path}: expected one of {options}, got {obj!r}")
    return obj


def parse_demand(obj: dict, path: str = "market.demand"):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "constant":
        _require_keys(obj, path, ("type",), ("value",))
        return ConstantDemand(value=_vector_or_number(obj.get("value", 1.0), f"{path}.value"))
    if kind == "negative_sign_of_b":
        _require_keys(obj, path, ("type",), ("scale",))
        return NegativeSignOfB(scale=_number(obj.get("scale", 1.0), f"{path}.scale"))
    if kind == "piecewise_constant":
        _require_keys(obj, path, ("type", "schedule"), ())
        sched = obj["schedule"]
        if not isinstance(sched, list) or not sched:
            raise ConfigError(f"{path}.schedule: expected a non-empty list")
        entries = []
        for i, item in enumerate(sched):
            if not isinstance(item, list) or len(item) != 2:
                raise ConfigError(f"{path}.schedule[{i}]: expected [step, value]")
            step = _integer(item[0], f"{path}.schedule[{i}][0]", minimum=0)
            entries.append((step, _vector_or_number(item[1], f"{path}.schedule[{i}][1]")))
        return PiecewiseConstantDemand(schedule=tuple(entries))
    if kind == "localized":
        _require_keys(obj, path, ("type", "inner"), ("level", "from_step"))
        return LocalizedDemand(
            inner=parse_demand(obj["inner"], f"{path}.inner"),
            level=_number(obj.get("level", 0.0), f"{path}.level"),
            from_step=_integer(obj.get("from_step", 0), f"{path}.from_step", minimum=0),
        )
    if kind == "table":
        _require_keys(obj, path, ("type", "values"), ())
        if not isinstance(obj["values"], list):
            raise ConfigError(f"{path}.values: expected a list of per-step arrays")
        return TableDemand(obj["values"])
    raise ConfigError(f"{path}.type: unknown demand variant {kind!r}")


def parse_dividend(obj: dict, path: str = "market.dividend"):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "sign_of_b_t":
        _require_keys(obj, path, ("type",), ("scale",))
        return SignOfBT(scale=_number(obj.get("scale", 1.0), f"{path}.scale"))
    if kind == "linear_clipped":
        _require_keys(obj, path, ("type",), ("slope", "bound"))
        return LinearClipped(slope=_number(obj.get("slope", 1.0), f"{path}.slope"),
                             bound=_number(obj.get("bound", 1.0), f"{path}.bound",
                                           positive=True))
    if kind == "digital":
        _require_keys(obj, path, ("type",), ("strike", "offset"))
        return Digital(strike=_number(obj.get("strike", 0.0), f"{path}.strike"),
                       offset=_number(obj.get("offset", 0.5), f"{path}.offset"))
    if kind == "localized":
        _require_keys(obj, path, ("type", "inner"), ("level", "from_step"))
        return LocalizedDividend(
            inner=parse_dividend(obj["inner"], f"{path}.inner"),
            level=_number(obj.get("level", 0.0), f"{path}.level"),
            from_step=_integer(obj.get("from_step", 0), f"{path}.from_step", minimum=0),
        )
    if kind == "table":
        _require_keys(obj, path, ("type", "values"), ())
        if not isinstance(obj["values"], list):
            raise ConfigError(f"{path}.values: expected a list of per-leaf rows")
        return TableDividend(obj["values"])
    raise ConfigError(f"{path}.type: unknown dividend variant {kind!r}")


def _vector_or_number(obj, path):
    if isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a number or list of numbers")
    if isinstance(obj, (int, float)):
        return float(obj)
    if isinstance(obj, list) and obj and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        return tuple(float(v) for v in obj)
    raise ConfigError(f"{path}: expected a number or list of numbers, got {obj!r}")


@dataclass
class SolverSettings:
    tol: float = 1e-12
    max_iter: int = 100
    method: str = "explicit"
    growth_bound: float | None = None
    kappa: float | None = None


@dataclass
class VerifySettings:
    suite: str = "all"
    competitors: int = 1000
    seed: int = 0
    epsilon: float = 1e-4
    x_grid_size: int = 5
    counterexample_steps: tuple = (8, 10, 12)


@dataclass
class OutputSettings:
    dump_nodes: bool = False


@dataclass
class RunConfig:
    market: MarketConfig
    solver: SolverSettings = field(default_factory=SolverSettings)
    verify: VerifySettings = field(default_factory=VerifySettings)
    output: OutputSettings = field(default_factory=OutputSettings)


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, "config", ("market",), ("solver", "verify", "output"))

    m = doc["market"]
    _require_keys(m, "market",
                  ("risk_aversion", "num_stocks", "num_steps", "horizon",
                   "demand", "dividend"),
                  ("center_dividend",))
    try:
        market = MarketConfig(
            risk_aversion=_number(m["risk_aversion"], "market.risk_aversion", positive=True),
            num_stocks=_integer(m["num_stocks"], "market.num_stocks", minimum=1),
            demand=parse_demand(m["demand"]),
            dividend=parse_dividend(m["dividend"]),
            num_steps=_integer(m["num_steps"], "market.num_steps", minimum=1),
            horizon=_number(m["horizon"], "market.horizon", positive=True),
            center_dividend=_boolean(m.get("center_dividend", False),
                                     "market.center_dividend"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"market: {exc}") from exc

    s = doc.get("solver", {})
    _require_keys(s, "solver", (), ("tol", "max_iter", "method", "growth_bound", "kappa"))
    solver = SolverSettings(
        tol=_number(s.get("tol", 1e-12), "solver.tol", positive=True),
        max_iter=_integer(s.get("max_iter", 100), "solver.max_iter", minimum=1),
        method=_choice(s.get("method", "explicit"), "solver.method", METHODS),
        growth_bound=(None if s.get("growth_bound") is None
                      else _number(s["growth_bound"], "solver.growth_bound", positive=True)),
        kappa=(None if s.get("kappa") is None
               else _number(s["kappa"], "solver.kappa", positive=True)),
    )

    v = doc.get("verify", {})
    _require_keys(v, "verify", (),
                  ("suite", "competitors", "seed", "epsilon", "x_grid_size",
                   "counterexample_steps"))
    steps = v.get("counterexample_steps", [8, 10, 12])
    if not isinstance(steps, list):
        raise ConfigError("verify.counterexample_steps: expected a list of integers")
    for i, x in enumerate(steps):
        _integer(x, f"verify.counterexample_steps[{i}]", minimum=1)
    verify = VerifySettings(
        suite=_choice(v.get("suite", "all"), "verify.suite", SUITES),
        competitors=_integer(v.get("competitors", 1000), "verify.competitors", minimum=0),
        seed=_integer(v.get("seed", 0), "verify.seed"),
        epsilon=_number(v.get("epsilon", 1e-4), "verify.epsilon", positive=True),
        x_grid_size=_integer(v.get("x_grid_size", 5), "verify.x_grid_size", minimum=1),
        counterexample_steps=tuple(steps),
    )

    o = doc.get("output", {})
    _require_keys(o, "output", (), ("dump_nodes",))
    output = OutputSettings(dump_nodes=_boolean(o.get("dump_nodes", False),
                                                "output.dump_nodes"))

    return RunConfig(market=market, solver=solver, verify=verify, output=output)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# published summary schema: every emitted summary JSON re-validates against this
SUMMARY_REQUIRED = ("command", "initial_price", "initial_certainty")


def validate_summary(doc: dict):
    """Round-trip guard for emitted summaries: required keys with list/float
    payloads of the right shape."""
    for key in SUMMARY_REQUIRED:
        if key not in doc:
            raise ConfigError(f"summary.{key}: missing")
    if not isinstance(doc["initial_price"], list):
        raise ConfigError("summary.initial_price: expected a list")
    if not isinstance(doc["initial_certainty"], (int, float)):
        raise ConfigError("summary.initial_certainty: expected a number")
