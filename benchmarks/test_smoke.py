"""Smoke test of the benchmark at its first operation per workload.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed(proc, metric_specs):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for spec in metric_specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert printed[spec["name"]] == spec["unit"]
    assert printed["ops"] == printed["failed_ops"] == "count"
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_first_operation_end_to_end(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", "0", "--limit", "1")
    check_printed(proc, run.load_metric_specs()["end_to_end"])


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "degree_ladder", "--seed", "1", "--seconds", "0",
                 "--trace", "1", "--limit", "1")
    result = check_printed(proc, run.load_metric_specs()["per_layer"])
    assert "trace_overhead_s" in result["metrics"]


@pytest.mark.parametrize("workload, corrupt", [
    ("report_sweep", lambda g: g["report"].update({"cheb1": {"json": "0" * 64}})),
    ("degree_ladder", lambda g: g["divergence_classify"].update({"32": "member_evidence"})),
])
def test_corrupted_golden_counts_as_failure(tmp_path, workload, corrupt):
    worker.import_hyplab()
    golden = workloads.load_golden()
    assert run_first(workload, golden, tmp_path, seed=0) == []
    corrupt(golden)
    ops = [op for op in workloads.build(workload, 0, tmp_path, golden)
           if op.label in ("report cheb1 json", "divergence_classify 32")]
    problems = []
    worker.run_pass(ops, problems)
    assert len(problems) == 1


def run_first(workload, golden, outdir, seed):
    problems = []
    worker.run_pass(workloads.build(workload, seed, outdir, golden), problems, limit=1)
    return problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "acceptance", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
