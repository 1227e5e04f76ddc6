"""Self-test of the benchmark at a tiny depth (about a minute):

    python3 perfbench/selftest.py

1. Every workload runs end to end at depth 6, traced and untraced, and its
   result line has the schema ``BENCHMARK.json`` promises.
2. Every output check accepts the program's real outputs and rejects a
   corrupted copy of them (flipped flags, truncated tables, moved norms).
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

DEPTH = 6
SEED = 3
SCRATCH = run.WORK / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_schema(name: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(run.CHECKOUT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
         "--depth", str(DEPTH)],
        capture_output=True, text=True, cwd=run.CHECKOUT, timeout=180)
    where = f"{name} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = run._benchmark_spec()["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: correct/attempted/failed = {result['correct']}, "
                        f"{result['attempted']}, {result['failed']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    for key, metric in result["metrics"].items():
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {key} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {key} = {value!r} is not positive")
    return problems


# --- corruptions: each edits a copy of a job directory's outputs -------------

def edit_json(name, fn):
    def apply(job_dir: Path):
        doc = json.loads((job_dir / name).read_text())
        fn(doc)
        (job_dir / name).write_text(json.dumps(doc))
    return apply


def edit_csv(name, fn):
    def apply(job_dir: Path):
        with open(job_dir / name, newline="") as handle:
            rows = list(csv.reader(handle))
        fn(rows)
        with open(job_dir / name, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    return apply


def _set(path, value):
    def fn(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return fn


def _cell(row, col, value):
    def fn(rows):
        rows[row][col] = value(rows[row][col]) if callable(value) else value
    return fn


def _set_all_converged(rows):
    for row in rows[1:]:
        row[2] = "True"


CORRUPTIONS = {
    "deep_solve": {
        "explicit residual above the oracle gate": edit_json(
            "bsde.json", _set(["residual_explicit"], 1e-6)),
        "solver discrepancy above the oracle gate": edit_json(
            "bsde.json", _set(["max_node_discrepancy"], 1e-6)),
        "picard reported as not converged": edit_json(
            "bsde.json", _set(["picard", "converged"], False)),
        "diagnostics table truncated": edit_csv("diag.csv", lambda rows: rows.pop()),
        "non-finite initial price": edit_json(
            "bsde.json", _set(["initial_price"], [float("nan")])),
    },
    "verify_report": {
        "hard_gates_pass flipped": edit_json("verify.json", _set(["hard_gates_pass"], False)),
        "a check reported as failed": edit_json(
            "verify.json", lambda doc: doc["checks"][1].update(status="fail")),
        "node table truncated": edit_csv("nodes.csv", lambda rows: rows.pop()),
        "node table header changed": edit_csv("nodes.csv", _cell(0, 3, "price")),
        "terminal price moved": edit_csv(
            "nodes.csv", _cell(-1, 3, lambda v: repr(float(v) + 1e-9))),
        "gauge norm too small": edit_json(
            "price.json", _set(["norms", "centered_dividend_gauge"], lambda v: 0.9 * v)),
        "gauge norm not minimal": edit_json(
            "price.json", _set(["norms", "centered_dividend_gauge"], lambda v: 1.1 * v)),
        "dividend norm moved": edit_json(
            "norms.json", _set(["norms", "centered_dividend_bmo"], lambda v: v * (1 + 1e-9))),
    },
    "sweep_boundary": {
        "sweep table truncated": edit_csv("sweep.csv", lambda rows: rows.pop()),
        "sweep header changed": edit_csv("sweep.csv", _cell(0, 2, "ok")),
        "smallness product moved": edit_csv(
            "sweep.csv", _cell(5, 1, lambda v: repr(float(v) * (1 + 1e-6)))),
        "parameter value moved": edit_csv(
            "sweep.csv", _cell(3, 0, lambda v: repr(float(v) * (1 + 1e-12)))),
        "smallest product reported as diverged": edit_csv("sweep.csv", _cell(1, 2, "False")),
        "every point reported as converged": edit_csv("sweep.csv", _set_all_converged),
    },
}


def check_rejections(cli, name: str) -> list[str]:
    workload = WORKLOADS[name]
    inst = workload.make_pool(SEED, DEPTH)[0]
    runner = run.Runner(cli, workload, SCRATCH / name)
    job_dir = runner.prepare([inst], "job")[0]
    runner.job(inst, job_dir)
    if runner.failures:
        return [f"{name}: the uncorrupted job failed its checks: {runner.failures}"]
    problems = []
    codes = [0] * len(workload.invocations(inst, job_dir))
    if not workload.check(inst, job_dir, [3] + codes[1:]):
        problems.append(f"{name}: a non-zero exit code was accepted")
    for i, (label, corrupt) in enumerate(CORRUPTIONS[name].items()):
        copy = SCRATCH / name / f"corrupt{i}"
        shutil.copytree(job_dir, copy)
        corrupt(copy)
        if not workload.check(inst, copy, codes):
            problems.append(f"{name}: corruption not detected: {label}")
    return problems


def check_bare_directory() -> list[str]:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", bare)
    shutil.copytree(run.CHECKOUT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    cli = run._import_package()
    problems = []
    try:
        for name in WORKLOADS:
            for trace in (0, 1):
                problems += check_schema(name, trace)
            problems += check_rejections(cli, name)
        problems += check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
