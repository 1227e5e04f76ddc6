"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, nothing needs installing.  The loop is closed with
one client: each job (one or a fixed group of in-process CLI invocations on
one generated config) starts after the previous one ended and its outputs
were checked.  Whole passes over the workload's instance pool run until the
summed job time reaches ``--seconds``.  BLAS/OpenMP threads are capped at 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced job per instance and reports the per-layer metrics of
the traced jobs.  The last line of standard output is the result object;
the line before it records the environment and the run's details.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"
OUT = CHECKOUT / ".perfbench_out"
SETUP_SAMPLES = 7
WARMUP_DEPTH = 8
TIME_CAP_S = 150.0   # never start another pass after this much job time


def _import_package():
    """Import ``impact_bsde.cli`` from this checkout's ``src/`` or exit 2."""
    if not (SRC / "impact_bsde" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'impact_bsde'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import impact_bsde.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported {cli.__file__}, not the checkout's source",
              file=sys.stderr)
        sys.exit(2)
    return cli


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports
    ``impact_bsde.cli`` imported; the first spawn (cold bytecode and file
    caches) is discarded."""
    code = "import impact_bsde.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for i in range(samples + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                cwd=CHECKOUT, env=_child_env())
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed to import impact_bsde.cli")
        if i:
            times.append(elapsed)
    return times


def invoke(cli, argv: list[str], tracer=None):
    """One in-process CLI invocation; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(argv, prog_name="impact-bsde", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            tracer.close(span)
    return code, err.getvalue()


class Runner:
    def __init__(self, cli, workload, run_dir: Path):
        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = 0
        self.failures: list[str] = []

    def prepare(self, pool, tag: str) -> list[Path]:
        dirs = []
        for i, inst in enumerate(pool):
            job_dir = self.run_dir / f"{tag}{i}"
            job_dir.mkdir(parents=True)
            (job_dir / "config.json").write_text(json.dumps(inst.config, indent=1))
            dirs.append(job_dir)
        return dirs

    def job(self, inst, job_dir: Path, tracer=None) -> float:
        """Run and check one job; returns its wall time."""
        for path in job_dir.iterdir():
            if path.name != "config.json":
                path.unlink()
        gc.collect()
        codes, errors = [], []
        start = time.perf_counter()
        for argv in self.workload.invocations(inst, job_dir):
            code, err = invoke(self.cli, argv, tracer)
            codes.append(code)
            errors.append(err)
        wall = time.perf_counter() - start
        problems = self.workload.check(inst, job_dir, codes)
        self.attempted += 1
        if problems:
            detail = "; ".join(problems)
            stderr = " | ".join(e.strip()[-300:] for e in errors if e.strip())
            self.failures.append(f"{job_dir.name}: {detail}" + (f" [{stderr}]" if stderr else ""))
        return wall


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workload, depth: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "caches": _cache_sizes(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "depth": depth,
        "working_set_computed": workload.computed_bytes(depth),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--depth", type=int, default=None,
                        help="lattice depth override, for the self-test only")
    args = parser.parse_args(argv)

    cli = _import_package()
    workload = WORKLOADS[args.workload]
    depth = args.depth or workload.depth
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    try:
        run_dir.mkdir(parents=True)
        result, detail = _run(cli, workload, depth, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


def _run(cli, workload, depth, args, run_dir):
    runner = Runner(cli, workload, run_dir)
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    warm_pool = workload.make_pool(args.seed, min(depth, WARMUP_DEPTH))
    warm_dirs = runner.prepare(warm_pool[:1], "warm")
    runner.job(warm_pool[0], warm_dirs[0])

    pool = workload.make_pool(args.seed, depth)
    dirs = runner.prepare(pool, "job")
    walls, traced_walls = [], []
    tracer = Tracer() if args.trace else None
    bytes_written = 0
    measured = 0.0
    while True:
        for inst, job_dir in zip(pool, dirs):
            wall = runner.job(inst, job_dir)
            walls.append(wall)
            measured += wall
            if tracer is not None:
                tracer.install()
                try:
                    wall = runner.job(inst, job_dir, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                measured += wall
                bytes_written += sum(p.stat().st_size for p in job_dir.iterdir()
                                     if p.name != "config.json")
        if measured >= min(args.seconds, TIME_CAP_S):
            break

    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(workload, depth),
        "pool": [inst.config for inst in pool],
        "job_s": walls, "setup_s": setup, "failures": runner.failures,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(span_file)
        detail["spans_file"] = str(span_file.relative_to(CHECKOUT))
        detail["traced_job_s"] = traced_walls
        metrics = spans_metrics(tracer, traced_walls, walls, bytes_written)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = runner.attempted
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s_p50": {"value": statistics.median(walls), "unit": "s"},
            "jobs_per_s": {"value": len(walls) / measured, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - len(runner.failures) / attempted, "unit": "ratio"},
        }
    for failure in runner.failures:
        print(f"perfbench: job failed: {failure}", file=sys.stderr)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    return result, detail


def spans_metrics(tracer, traced_walls, untraced_walls, bytes_written) -> dict:
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    values = layer_metrics(tracer, len(traced_walls), bytes_written,
                           sum(traced_walls), sum(untraced_walls))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _benchmark_spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
