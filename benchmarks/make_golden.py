"""Regenerate ``golden.json``, the reference digests of the correctness gate.

Run this only on a commit whose outputs are the accepted reference:

    python3 benchmarks/make_golden.py

It records the SHA-256 digest of every byte-stable output the workloads
produce (verify JSON, report JSON and CSV for every instance any seed
can pick, explore CSV, figure CSVs) and the divergence verdicts of the
degree ladder.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import worker
import workloads


def main() -> None:
    worker.import_hyplab()
    from hyplab import dual, families

    golden = {}
    code, text = workloads.run_cli(["verify", "--suite", "all", "--format", "json"])
    assert code == 0, "verify all failed"
    golden["verify_all_json"] = workloads.sha256(text)
    golden["report"] = {}
    for choices in workloads.INSTANCES.values():
        for spec in choices:
            entry = golden["report"][spec] = {}
            for fmt in ("json", "csv"):
                code, text = workloads.run_cli(["report", "--family", spec, "--format", fmt])
                assert code == 0, f"report {spec} {fmt} failed"
                entry[fmt] = workloads.sha256(text)
    code, text = workloads.run_cli(["explore"])
    assert code == 0, "explore failed"
    golden["explore_csv"] = workloads.sha256(text)
    golden["figures"] = {}
    with tempfile.TemporaryDirectory() as outdir:
        for which in workloads.FIGURES:
            code, text = workloads.run_cli(["figure", "--figure", which, "--out", outdir])
            assert code == 0, f"figure {which} failed"
            for line in text.splitlines():
                path = Path(line)
                golden["figures"][path.name] = workloads.sha256(path.read_bytes())
    golden["divergence_classify"] = {
        str(N): dual.divergence_classify(families.make_family("convex", eps=0.5), 0.9, N=N)
        for N in workloads.ladder(32)
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
