"""hyplab benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload acceptance|report_sweep|degree_ladder
                              --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``setup_s`` is the median time
a fresh process takes to ``import hyplab``; the workload then runs in
one more fresh process (``worker.py``) that warms up with one pass and
repeats passes for ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The
lines before it list the metrics with units, the sample counts, the
machine facts and any failed operation.  The full result, with machine
facts, is also written to ``benchmarks/out/``.

The thread variables are fixed to 1 for every child process, so runs
stay serial.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("acceptance", "report_sweep", "degree_ladder")
THREAD_ENV = {"HYPLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run must end within 180 s
PERCENTILES = (50, 90, 95, 99)
# Median time of worker.reference_loop on the baseline machine (README).
REFERENCE_S = 0.04
RAW_METRICS = {"wall_s": "s", "cpu_s": "s"}  # printed, not bounded

IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hyplab
t1 = time.perf_counter()
if not hyplab.__file__.startswith(sys.argv[1]):
    sys.exit("hyplab was not imported from " + sys.argv[1])
print(t1 - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def setup_seconds(deadline: float) -> list[float]:
    """Time ``import hyplab`` in SETUP_REPEATS fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest listed percentile (nearest rank) with at least ten
    samples above it; the median when no such percentile exists."""
    ordered = sorted(samples)
    best = (50, statistics.median(ordered))
    for p in PERCENTILES[1:]:
        k = math.ceil(len(ordered) * p / 100) - 1
        if len(ordered) - 1 - k >= 10:
            best = (p, ordered[k])
    return best


def machine_facts(args, worker_facts: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, **worker_facts,
            **THREAD_ENV, "commit": commit, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def end_to_end(result: dict, setup: list[float]) -> dict:
    """Raw medians, and pass times rescaled to the reference machine speed.

    The machine this benchmark was built on changes speed by up to a third
    for minutes at a time, in every kind of work at once.  A run's median
    pass time divided by the median time of ``worker.reference_loop`` in
    the same run cancels that drift; times REFERENCE_S it reads as seconds
    on the machine at its reference speed.
    """
    median = statistics.median
    wall, cpu = median(result["wall_s"]), median(result["cpu_s"])
    return {
        "setup_s": median(setup),
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_ref_s": wall * REFERENCE_S / median(result["ref_wall_s"]),
        "cpu_ref_s": cpu * REFERENCE_S / median(result["ref_cpu_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, names: list[str]) -> dict:
    samples = result["layers"]
    values = {
        name: statistics.median(s.get(name, 0.0) for s in samples) for name in names
    }
    values["trace_overhead_s"] = (
        statistics.median(result["traced_wall_s"]) - statistics.median(result["wall_s"])
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N operations of each pass (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "hyplab" / "__init__.py").is_file():
        print(f"no hyplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        specs = load_metric_specs()
        setup = setup_seconds(deadline)
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        names = [m["name"] for m in specs["per_layer"]]
        units = {m["name"]: m["unit"] for m in specs["per_layer"]}
        values = per_layer(result, names)
    else:
        units = {m["name"]: m["unit"] for m in specs["end_to_end"]}
        values = end_to_end(result, setup)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    facts = machine_facts(args, result.pop("facts"))
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, unit in RAW_METRICS.items():
            print(f"{name:48s} {values[name]:.6g} {unit}")
    print(f"{'ops':48s} {result['attempted']} count")
    print(f"{'failed_ops':48s} {result['failed']} count")
    for what, samples in (("setup_s", setup), ("wall_s", result["wall_s"]),
                          ("op_s", result["op_s"])):
        p, value = tail(samples)
        print(f"{what}: median {statistics.median(samples):.6g} s, "
              f"p{p} {value:.6g} s over {len(samples)} samples")
    if args.trace:
        print(f"spans {result['spans']}; unobserved hooks: "
              f"{', '.join(result['unobserved']) or 'none'}")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**summary, "machine": facts, "samples": {
        "setup_s": setup,
        **{k: result[k] for k in ("wall_s", "cpu_s", "op_s", "ref_wall_s", "ref_cpu_s")},
    }}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
