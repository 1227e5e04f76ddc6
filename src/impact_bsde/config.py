"""Run-configuration schema: one JSON document drives every command.

Each section and each demand/dividend variant is built from the class it
configures (``MarketConfig``, the spec classes, ``SolverSettings``,
``VerifySettings``): a constructor parameter without a default is a required
key, and an absent optional key takes the class's own default.  Unknown keys
and sections are rejected with the full field path; numbers must be finite.
Example:

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

import inspect
import json
import sys
from dataclasses import dataclass, field
from functools import cache, partial

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


@cache
def _parameters(cls):
    """``cls``'s constructor parameters, once per class: a signature takes ~30 us."""
    return inspect.signature(cls).parameters


def _given(cls, obj, path: str) -> list:
    """The keys of ``obj`` that ``cls``'s constructor takes, in its order: a
    parameter without a default is a required key, the others are optional,
    and any other key is unknown."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    params = _parameters(cls)
    for key in obj:
        if key not in params:
            raise ConfigError(f"{path}.{key}: unknown key")
    for name, param in params.items():
        if param.default is param.empty and name not in obj:
            raise ConfigError(f"{path}.{name}: missing required key")
    return [name for name in params if name in obj]


def _build(cls, readers: dict, obj, path: str):
    """``cls`` from the JSON object ``obj``, each given key read by its
    reader; an absent key takes the class's own default."""
    return cls(**{name: readers[name](obj[name], f"{path}.{name}")
                  for name in _given(cls, obj, path)})


def _finite(obj, path) -> float:
    """``obj`` as a float.  json reads NaN, Infinity and -Infinity, and an
    integer beyond the float range has no float: all are refused."""
    if not abs(obj) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be finite, got {obj!r}")
    return float(obj)


def _number(obj, path, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {obj!r}")
    if positive and not obj > 0:
        raise ConfigError(f"{path}: must be positive, got {obj!r}")
    return _finite(obj, path)


def _positive_or_null(obj, path):
    return None if obj is None else _number(obj, path, positive=True)


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


def _vector_or_number(obj, path):
    if isinstance(obj, bool):
        raise ConfigError(f"{path}: expected a number or list of numbers")
    if isinstance(obj, (int, float)):
        return _finite(obj, path)
    if isinstance(obj, list) and obj and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(obj))
    raise ConfigError(f"{path}: expected a number or list of numbers, got {obj!r}")


def _schedule(obj, path):
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{path}: expected a non-empty list")
    entries = []
    for i, item in enumerate(obj):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{path}[{i}]: expected [step, value]")
        step = _integer(item[0], f"{path}[{i}][0]", minimum=0)
        entries.append((step, _vector_or_number(item[1], f"{path}[{i}][1]")))
    return tuple(entries)


def _list(obj, path, of):
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of {of}")
    return obj


def _depths(obj, path):
    return tuple(_integer(x, f"{path}[{i}]", minimum=1)
                 for i, x in enumerate(_list(obj, path, "integers")))


def _variant(obj, path: str, what: str, variants: dict):
    """The spec named by ``obj``'s ``type``, built from its other keys."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{path}: expected an object with a 'type' key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in variants:
        raise ConfigError(f"{path}.type: unknown {what} variant {kind!r}")
    return _build(*variants[kind], {k: v for k, v in obj.items() if k != "type"}, path)


def parse_demand(obj: dict, path: str = "market.demand"):
    return _variant(obj, path, "demand", _DEMANDS)


def parse_dividend(obj: dict, path: str = "market.dividend"):
    return _variant(obj, path, "dividend", _DIVIDENDS)


_POSITIVE = partial(_number, positive=True)
_POSITIVE_INT = partial(_integer, minimum=1)
_NONNEGATIVE_INT = partial(_integer, minimum=0)

# type -> (spec class, a reader per constructor parameter)
_DEMANDS = {
    "constant": (ConstantDemand, {"value": _vector_or_number}),
    "negative_sign_of_b": (NegativeSignOfB, {"scale": _number}),
    "piecewise_constant": (PiecewiseConstantDemand, {"schedule": _schedule}),
    "localized": (LocalizedDemand, {"inner": parse_demand, "level": _number,
                                    "from_step": _NONNEGATIVE_INT}),
    "table": (TableDemand, {"values": partial(_list, of="per-step arrays")}),
}
_DIVIDENDS = {
    "sign_of_b_t": (SignOfBT, {"scale": _number}),
    "linear_clipped": (LinearClipped, {"slope": _number, "bound": _POSITIVE}),
    "digital": (Digital, {"strike": _number, "offset": _number}),
    "localized": (LocalizedDividend, {"inner": parse_dividend, "level": _number,
                                      "from_step": _NONNEGATIVE_INT}),
    "table": (TableDividend, {"values": partial(_list, of="per-leaf rows")}),
}


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
class RunConfig:
    market: MarketConfig
    solver: SolverSettings = field(default_factory=SolverSettings)
    verify: VerifySettings = field(default_factory=VerifySettings)


# section -> (class, a reader per constructor parameter)
_SECTIONS = {
    "market": (MarketConfig, {
        "risk_aversion": _POSITIVE, "num_stocks": _POSITIVE_INT, "demand": parse_demand,
        "dividend": parse_dividend, "num_steps": _POSITIVE_INT, "horizon": _POSITIVE,
        "center_dividend": _boolean}),
    "solver": (SolverSettings, {
        "tol": _POSITIVE, "max_iter": _POSITIVE_INT, "method": partial(_choice, options=METHODS),
        "growth_bound": _positive_or_null, "kappa": _positive_or_null}),
    "verify": (VerifySettings, {
        "suite": partial(_choice, options=SUITES), "competitors": _NONNEGATIVE_INT,
        "seed": _NONNEGATIVE_INT, "epsilon": _POSITIVE, "x_grid_size": _POSITIVE_INT,
        "counterexample_steps": _depths}),
}


def parse_config(doc: dict) -> RunConfig:
    try:
        return RunConfig(**{name: _build(*_SECTIONS[name], doc[name], name)
                            for name in _given(RunConfig, doc, "config")})
    except ConfigError:
        raise
    except ValueError as exc:  # a spec constructor's refusal, e.g. a table entry
        raise ConfigError(f"market: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)

