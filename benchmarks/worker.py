"""Runs one workload in a fresh process and prints its raw samples as JSON.

Started by ``run.py``, which fixes the thread variables in this
process's environment and turns the samples into metrics.  The process
runs nothing but the workload, so its peak RSS belongs to the workload.

    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
MAX_REPORTED_FAILURES = 5


def import_hyplab():
    """Import hyplab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hyplab

    if SRC.resolve() not in Path(hyplab.__file__).resolve().parents:
        raise SystemExit(f"hyplab was imported from {hyplab.__file__}, not {SRC}")
    return hyplab


def run_op(op, tracer=None, run_id=""):
    """Time one operation, then check it.  Returns (wall, cpu, problem)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = tracer.op(run_id, op.label, op.call) if tracer else op.call()
    except Exception:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, f"{op.label}: raised\n{traceback.format_exc()}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        problem = op.check(out)
    except Exception:
        problem = f"check raised\n{traceback.format_exc()}"
    return wall, cpu, problem and f"{op.label}: {problem}"


def reference_loop() -> tuple[float, float]:
    """Time a fixed piece of work that does not touch hyplab.

    Exact rational sums and numpy vector arithmetic, the two kinds of
    work hyplab's layers do.  Run between passes, it measures how fast the
    machine is at that moment; see ``run.py`` for its use.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1200):
        total += Fraction(1, k * k + 1)
    v = np.linspace(0.0, 1.0, 400_000)
    for _ in range(20):
        v = np.sqrt(v * v + 0.5)
    return time.perf_counter() - t0, time.process_time() - c0


def run_pass(ops, problems, tracer=None, pass_id=0, limit=None):
    """One closed-loop pass over ``ops``; returns (wall, cpu, op walls)."""
    walls, cpus = [], []
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops[:limit]):
            wall, cpu, problem = run_op(op, tracer, f"{pass_id}.{i}")
            walls.append(wall)
            cpus.append(cpu)
            if problem:
                problems.append(problem)
    finally:
        if tracer:
            tracer.uninstall()
    return sum(walls), sum(cpus), walls


def machine_facts(hyplab) -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "openblas": blas.get("version", "unknown"),
        "hyplab": getattr(hyplab, "__version__", "unknown"),
    }


def measure(workload, seed, seconds, trace, limit=None) -> dict:
    """Warm up once, then run passes for ``seconds`` and return samples.

    Peak RSS is read after the warm-up pass, which runs in the canonical
    order: the high-water mark depends on call order, because memory a
    large call leaves with the allocator may or may not be reused by the
    next one, and a seed's shuffled orders would otherwise show up as
    memory changes.  With ``trace`` the passes alternate untraced and
    traced, so the tracing overhead is measured on the same process and
    inputs.
    """
    hyplab = import_hyplab()
    import workloads
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="figures-", dir=OUT_DIR))
    problems: list[str] = []
    plain = {"wall_s": [], "cpu_s": [], "op_s": [], "ref_wall_s": [], "ref_cpu_s": []}
    traced_walls, layer_samples = [], []
    tracer = Tracer() if trace else None
    try:
        ops = workloads.build(workload, seed, scratch)
        orders = workloads.pass_orders(ops, workload, seed)
        n_ops = len(ops[:limit])
        run_pass(next(orders), problems, limit=limit)  # warm-up, not timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = 1
        deadline = time.perf_counter() + seconds
        while True:
            ref_wall, ref_cpu = reference_loop()
            plain["ref_wall_s"].append(ref_wall)
            plain["ref_cpu_s"].append(ref_cpu)
            wall, cpu, op_walls = run_pass(next(orders), problems, limit=limit)
            plain["wall_s"].append(wall)
            plain["cpu_s"].append(cpu)
            plain["op_s"].extend(op_walls)
            passes += 1
            if tracer:
                wall, _, _ = run_pass(next(orders), problems, tracer, passes, limit)
                traced_walls.append(wall)
                layer_samples.append(tracer.take_stats())
                passes += 1
            if time.perf_counter() >= deadline:
                break
        if tracer:
            tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems[:MAX_REPORTED_FAILURES]:
        print(f"failed: {problem}", file=sys.stderr)
    result = {
        **plain,
        "attempted": passes * n_ops,
        "failed": len(problems),
        "peak_rss_mb": peak_rss_mb,
        "facts": machine_facts(hyplab),
    }
    if tracer:
        result["traced_wall_s"] = traced_walls
        result["layers"] = layer_samples
        result["spans"] = len(tracer.spans)
        result["unobserved"] = tracer.unobserved
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.limit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
