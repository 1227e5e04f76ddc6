"""The three benchmark workloads: seeded instance pools, the CLI invocations
that make up one job, and the output checks that decide whether a job
failed.

A workload draws a small pool of instances from the seed.  The pool's
structure (which demand and dividend families, which regime) is fixed per
workload and only the parameters inside each slot are drawn, so every seed
produces jobs of comparable cost; the run cycles through whole pools so each
slot is measured equally often.  The program sees nothing but the generated
JSON config files.

Every check compares against a value that holds for any seed: the oracle
gates of the backward system, the verification suite's hard gates, the
gauge norm's defining inequality recomputed by ``reference``, and the
documented shapes of the CSV tables.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

HORIZON = 1.0
BYTES_PER_VALUE = 8

ORACLE_TOL = 1e-10       # criterion 03's gate on the explicit/Picard agreement
GAUGE_REL_STEP = 1e-7    # the gauge is minimal: slightly below it the criterion exceeds 1
NODE_HEADER = ["step", "node", "b", "s_1", "r", "z", "q_up", "alpha", "sigma_1"]
SWEEP_HEADER = ["param_value", "smallness_product", "converged", "iterations",
                "final_ratio", "volatility_bmo", "mpr_bmo"]
DIAG_HEADER = ["iteration", "distance", "ratio", "iterate_bmo"]
VERIFY_CHECKS = ["certainty_equivalent_nonnegative", "equilibrium_martingales",
                 "apriori_bound", "supermartingale_profile", "demand_optimality",
                 "homogeneity", "localization", "norm_bounds",
                 "decay_profile_identity", "counterexample_probe"]


@dataclass
class Instance:
    """One generated config plus what the checks expect of its outputs."""
    config: dict
    expect: dict = field(default_factory=dict)

    @property
    def market(self) -> dict:
        return self.config["market"]

    def dividend(self) -> np.ndarray:
        m = self.market
        return reference.dividend_leaves(m["dividend"], m["num_steps"], m["horizon"],
                                         m["num_stocks"], m.get("center_dividend", False))


def _rng(seed: int, stream: int):
    """Independent generator per workload; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _market(num_steps: int, a: float, demand: dict, dividend: dict,
            center: bool = False) -> dict:
    return {"risk_aversion": float(a), "num_stocks": 1, "num_steps": num_steps,
            "horizon": HORIZON, "demand": demand, "dividend": dividend,
            "center_dividend": center}


def _demand(rng, kind: str, lo: float, hi: float, num_steps: int) -> dict:
    size = float(rng.uniform(lo, hi))
    if kind == "constant":
        return {"type": "constant", "value": float(rng.choice([-1.0, 1.0])) * size}
    if kind == "negative_sign_of_b":
        return {"type": "negative_sign_of_b", "scale": size}
    if kind == "piecewise_constant":
        steps = sorted(int(s) for s in rng.choice(np.arange(1, num_steps), 2, replace=False))
        values = rng.uniform(-size, size, 3)
        values[0] = size
        return {"type": "piecewise_constant",
                "schedule": [[s, float(v)] for s, v in zip([0] + steps, values)]}
    raise ValueError(kind)


def _dividend(rng, kind: str, scale_lo: float, scale_hi: float) -> dict:
    if kind == "sign_of_b_t":
        return {"type": "sign_of_b_t", "scale": float(rng.uniform(scale_lo, scale_hi))}
    if kind == "linear_clipped":
        return {"type": "linear_clipped", "slope": float(rng.uniform(0.8, 1.6)),
                "bound": float(rng.uniform(scale_lo, scale_hi))}
    if kind == "digital":
        return {"type": "digital", "strike": float(rng.uniform(-0.1, 0.1)),
                "offset": 0.5}
    raise ValueError(kind)


def _smallness_unit(market: dict) -> float:
    """``demand_sup * centered-dividend norm``: the smallness product per unit
    risk aversion."""
    n = market["num_steps"]
    leaves = reference.dividend_leaves(market["dividend"], n, market["horizon"],
                                       market["num_stocks"], market["center_dividend"])
    return reference.demand_sup(market["demand"], n) * reference.centered_bmo(leaves)


# --- reading outputs ----------------------------------------------------------

class OutputError(Exception):
    """An output file is missing or unreadable."""


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if not rows:
        raise OutputError(f"{path.name}: empty")
    return rows[0], rows[1:]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_gauge(inst: Instance, doc: dict, what: str) -> list[str]:
    """The reported gauge ``lam`` satisfies ``criterion(lam) <= 1`` and is
    minimal: just below it the criterion exceeds 1."""
    lam = doc.get("norms", {}).get("centered_dividend_gauge")
    if not _finite(lam) or lam <= 0:
        return [f"{what}: gauge norm {lam!r} is not a positive number"]
    tol = inst.config.get("norms", {}).get("bisection_tol", 1e-10)
    leaves = inst.dividend()
    problems = []
    at = reference.gauge_criterion(leaves, lam)
    if not at <= 1.0 + 1e-9:
        problems.append(f"{what}: gauge criterion {at!r} > 1 at the reported norm {lam!r}")
    below = reference.gauge_criterion(leaves, lam * (1.0 - GAUGE_REL_STEP) - 2.0 * tol)
    if not below > 1.0:
        problems.append(f"{what}: gauge norm {lam!r} is not minimal "
                        f"(criterion {below!r} <= 1 just below it)")
    return problems


def _check_node_csv(inst: Instance, path: Path) -> list[str]:
    """Documented header, one row per node in step-major order, terminal
    prices equal to the dividend."""
    header, rows = _csv(path)
    n = inst.market["num_steps"]
    problems = []
    if header != NODE_HEADER:
        problems.append(f"{path.name}: header {header} != {NODE_HEADER}")
    expected_rows = (1 << (n + 1)) - 1
    if len(rows) != expected_rows:
        return problems + [f"{path.name}: {len(rows)} data rows, expected {expected_rows}"]
    steps = np.array([int(r[0]) for r in rows])
    nodes = np.array([int(r[1]) for r in rows])
    want_steps = np.repeat(np.arange(n + 1), 1 << np.arange(n + 1))
    want_nodes = np.concatenate([np.arange(1 << k) for k in range(n + 1)])
    if not (np.array_equal(steps, want_steps) and np.array_equal(nodes, want_nodes)):
        problems.append(f"{path.name}: (step, node) columns are not in tree order")
        return problems
    leaf_rows = rows[-(1 << n):]
    s_leaf = np.array([float(r[3]) for r in leaf_rows])
    b_leaf = np.array([float(r[2]) for r in leaf_rows])
    div = inst.dividend()[:, 0]
    if not np.allclose(s_leaf, div, rtol=0.0, atol=1e-12):
        problems.append(f"{path.name}: terminal prices differ from the dividend by "
                        f"{np.max(np.abs(s_leaf - div)):.3e}")
    walk = reference.walk_counts(n, n) * reference.sqrt_dt(n, inst.market["horizon"])
    if not np.allclose(b_leaf, walk, rtol=0.0, atol=1e-12):
        problems.append(f"{path.name}: walk column differs from the lattice walk")
    return problems


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""
    depth = 0

    def make_pool(self, seed: int, depth: int) -> list[Instance]:
        raise NotImplementedError

    def invocations(self, inst: Instance, job_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, inst: Instance, job_dir: Path, codes: list) -> list[str]:
        """Problems with one job's outputs; empty when the job is correct."""
        if any(c != 0 for c in codes):
            return [f"exit codes {codes}, expected all 0"]
        try:
            return self.check_outputs(inst, job_dir)
        except OutputError as exc:
            return [str(exc)]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def check_outputs(self, inst: Instance, job_dir: Path) -> list[str]:
        raise NotImplementedError

    def computed_bytes(self, depth: int) -> dict:
        raise NotImplementedError


class DeepSolve(Workload):
    """``bsde --method both --diagnostics`` on one deep tree, small-data regime."""
    name = "deep_solve"
    depth = 20
    SLOTS = [("constant", "sign_of_b_t"), ("constant", "linear_clipped"),
             ("negative_sign_of_b", "sign_of_b_t"),
             ("negative_sign_of_b", "linear_clipped")]
    PRODUCT = (0.22, 0.28)

    def make_pool(self, seed, depth):
        rng = _rng(seed, 1)
        pool = []
        for dem, div in [self.SLOTS[i] for i in rng.permutation(len(self.SLOTS))]:
            market = _market(depth, 1.0, _demand(rng, dem, 0.5, 1.0, depth),
                             _dividend(rng, div, 0.5, 1.5))
            product = float(rng.uniform(*self.PRODUCT))
            market["risk_aversion"] = product / _smallness_unit(market)
            pool.append(Instance(
                {"market": market,
                 "solver": {"method": "both", "tol": 1e-12, "max_iter": 100}},
                {"smallness_product": product}))
        return pool

    def invocations(self, inst, job_dir):
        return [["bsde", "--config", str(job_dir / "config.json"),
                 "--out", str(job_dir / "bsde.json"), "--method", "both",
                 "--diagnostics", str(job_dir / "diag.csv")]]

    def check_outputs(self, inst, job_dir):
        doc = _json(job_dir / "bsde.json")
        problems = []
        residual = doc["residual_explicit"]
        if not (_finite(residual) and residual <= ORACLE_TOL):
            problems.append(f"residual_explicit {residual!r} > {ORACLE_TOL}")
        picard = doc["picard"]
        # the instances sit well inside the contraction regime, so the
        # fixed-point iteration must converge and then agree node by node
        if picard["converged"] is not True:
            problems.append(f"picard did not converge at smallness product "
                            f"{inst.expect['smallness_product']:.3f}")
        else:
            gap = doc["max_node_discrepancy"]
            if not (_finite(gap) and gap <= ORACLE_TOL):
                problems.append(f"max_node_discrepancy {gap!r} > {ORACLE_TOL}")
        if not all(_finite(x) for x in doc["initial_price"] + [doc["initial_certainty"]]):
            problems.append("non-finite initial price or certainty equivalent")
        header, rows = _csv(job_dir / "diag.csv")
        if header != DIAG_HEADER or len(rows) != picard["iterations"]:
            problems.append(f"diag.csv: header {header}, {len(rows)} rows for "
                            f"{picard['iterations']} iterations")
        return problems

    def computed_bytes(self, depth):
        # both solutions' value/price/integrand trees (4 + 4), the next
        # Picard iterate (2), drift sums (2), the conditional-expectation
        # martingale (2) and the stacked-integrand copy for the norm (2)
        nodes = (1 << (depth + 1)) - 1
        processes = 16
        return {"tree_nodes": nodes, "stored_processes": processes,
                "bytes": nodes * BYTES_PER_VALUE * processes}


class VerifyReport(Workload):
    """``verify --suite all`` + ``price --dump-nodes`` + ``norms`` per instance."""
    name = "verify_report"
    depth = 14
    COMPETITORS = 1000

    def make_pool(self, seed, depth):
        rng = _rng(seed, 2)
        # two instances meet the a-priori hypotheses (unit risk aversion,
        # demand in the unit ball, centered dividend of small gauge norm) so
        # those checks run in full; two violate them so the checks skip
        slots = [
            _market(depth, 1.0, _demand(rng, "constant", 0.3, 0.9, depth),
                    _dividend(rng, "sign_of_b_t", 0.15, 0.3), center=True),
            _market(depth, 1.0, _demand(rng, "negative_sign_of_b", 0.3, 0.9, depth),
                    _dividend(rng, "linear_clipped", 0.2, 0.35), center=True),
            _market(depth, rng.uniform(1.3, 2.0),
                    _demand(rng, "piecewise_constant", 0.3, 0.9, depth),
                    _dividend(rng, "digital", 0.0, 0.0)),
            _market(depth, rng.uniform(0.4, 0.8), _demand(rng, "constant", 0.3, 0.9, depth),
                    _dividend(rng, "sign_of_b_t", 0.5, 1.0)),
        ]
        pool = []
        for i in rng.permutation(len(slots)):
            config = {"market": slots[i], "solver": {"max_iter": 40},
                      "verify": {"suite": "all", "competitors": self.COMPETITORS,
                                 "seed": int(rng.integers(0, 2**31))}}
            pool.append(Instance(config, {"apriori_active": bool(i < 2)}))
        return pool

    def invocations(self, inst, job_dir):
        cfg = str(job_dir / "config.json")
        return [["verify", "--config", cfg, "--out", str(job_dir / "verify.json")],
                ["price", "--config", cfg, "--out", str(job_dir / "price.json"),
                 "--dump-nodes", str(job_dir / "nodes.csv")],
                ["norms", "--config", cfg, "--out", str(job_dir / "norms.json")]]

    def check_outputs(self, inst, job_dir):
        problems = []
        doc = _json(job_dir / "verify.json")
        if doc["hard_gates_pass"] is not True:
            problems.append("verify: hard_gates_pass is not true")
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        if list(statuses) != VERIFY_CHECKS:
            problems.append(f"verify: checks {list(statuses)} != {VERIFY_CHECKS}")
        failed = sorted(k for k, v in statuses.items() if v == "fail")
        if failed:
            problems.append(f"verify: checks failed: {failed}")
        if inst.expect["apriori_active"] and statuses.get("apriori_bound") != "pass":
            problems.append("verify: apriori_bound did not run on an instance "
                            "meeting its hypotheses")
        price = _json(job_dir / "price.json")
        norms = _json(job_dir / "norms.json")
        problems += _check_gauge(inst, price, "price")
        if norms["norms"] != price["norms"]:
            problems.append("norms and price report different instance norms")
        bmo = reference.centered_bmo(inst.dividend())
        got = price["norms"]["centered_dividend_bmo"]
        if not abs(got - bmo) <= 1e-12 * max(1.0, bmo):
            problems.append(f"price: centered dividend norm {got!r} != reference {bmo!r}")
        problems += _check_node_csv(inst, job_dir / "nodes.csv")
        return problems

    def computed_bytes(self, depth):
        # the optimality check materialises every competitor demand at once
        # (predictable: 2**N - 1 nodes each) next to ~20 solution processes
        pred_nodes = (1 << depth) - 1
        nodes = (1 << (depth + 1)) - 1
        competitors = self.COMPETITORS + 1
        return {"tree_nodes": nodes, "stored_processes": 20,
                "competitor_processes": competitors,
                "bytes": (pred_nodes * competitors + nodes * 20) * BYTES_PER_VALUE}


class SweepBoundary(Workload):
    """One 20-point ``sweep`` straddling the contraction boundary."""
    name = "sweep_boundary"
    depth = 14
    POINTS = 20
    MAX_ITER = 40
    DIVIDENDS = ["sign_of_b_t", "linear_clipped", "digital", "sign_of_b_t"]
    PARAMS = ["risk_aversion", "demand_scale", "dividend_scale"]

    def make_pool(self, seed, depth):
        rng = _rng(seed, 3)
        params = [self.PARAMS[i] for i in rng.permutation(3)]
        params.append(self.PARAMS[int(rng.integers(3))])
        pool = []
        for i in rng.permutation(len(self.DIVIDENDS)):
            market = _market(depth, rng.uniform(0.8, 1.2),
                             _demand(rng, "negative_sign_of_b", 0.6, 1.0, depth),
                             _dividend(rng, self.DIVIDENDS[i], 0.8, 1.2))
            unit = _smallness_unit(market)
            a = market["risk_aversion"]
            p_from, p_to = float(rng.uniform(0.025, 0.035)), float(rng.uniform(1.9, 2.1))
            param = params[i]
            # every swept parameter enters the smallness product linearly
            scale = 1.0 / unit if param == "risk_aversion" else 1.0 / (a * unit)
            pool.append(Instance(
                {"market": market, "solver": {"tol": 1e-12, "max_iter": self.MAX_ITER}},
                {"param": param, "from": p_from * scale, "to": p_to * scale,
                 "unit_product": unit}))
        return pool

    def invocations(self, inst, job_dir):
        e = inst.expect
        return [["sweep", "--config", str(job_dir / "config.json"),
                 "--param", e["param"], "--from", repr(e["from"]), "--to", repr(e["to"]),
                 "--points", str(self.POINTS), "--out", str(job_dir / "sweep.csv")]]

    def check_outputs(self, inst, job_dir):
        header, rows = _csv(job_dir / "sweep.csv")
        e = inst.expect
        problems = []
        if header != SWEEP_HEADER:
            problems.append(f"sweep.csv: header {header} != {SWEEP_HEADER}")
        if len(rows) != self.POINTS:
            return problems + [f"sweep.csv: {len(rows)} rows, expected {self.POINTS}"]
        values = np.linspace(e["from"], e["to"], self.POINTS)
        a = inst.market["risk_aversion"]
        converged = []
        for val, row in zip(values, rows):
            got = float(row[0])
            if got != val:
                problems.append(f"sweep.csv: param_value {got!r} != {val!r}")
            want = (val if e["param"] == "risk_aversion" else a * abs(val)) * e["unit_product"]
            product = float(row[1])
            if not abs(product - want) <= 1e-9 * max(1.0, want):
                problems.append(f"sweep.csv: smallness product {product!r} != {want!r}")
            if row[2] not in ("True", "False"):
                problems.append(f"sweep.csv: converged column reads {row[2]!r}")
                continue
            converged.append(row[2] == "True")
            if converged[-1]:
                # a non-converged run amplifies roundoff, so only converged
                # points have numbers that must hold
                iters = int(row[3])
                norms = [float(row[5]), float(row[6])]
                if not (1 <= iters <= self.MAX_ITER
                        and all(math.isfinite(x) and x >= 0 for x in norms)):
                    problems.append(f"sweep.csv: converged point {val!r} reports "
                                    f"iterations {iters} and norms {norms}")
        if converged and not converged[0]:
            problems.append("sweep.csv: the smallest smallness product did not converge")
        if converged and all(converged):
            problems.append("sweep.csv: no point reports non-convergence although the "
                            "sweep reaches smallness product ~2")
        return problems

    def computed_bytes(self, depth):
        # per point: ~14 pricer processes and ~12 Picard trees, one point at a time
        nodes = (1 << (depth + 1)) - 1
        return {"tree_nodes": nodes, "stored_processes": 26,
                "bytes": nodes * BYTES_PER_VALUE * 26}


WORKLOADS = {w.name: w for w in (DeepSolve(), VerifyReport(), SweepBoundary())}
