"""Regenerate ``tests/golden/``, the deterministic outputs that
``test_golden.py`` compares byte for byte:

    PYTHONPATH=src python tests/make_golden.py

Each file is one output of the command line, run in-process: ``verify
--suite all --format json``, ``report`` in JSON and CSV for every instance
``benchmarks/golden.json`` lists, ``explore`` and the five figure CSVs.
Run on a tree whose outputs have not changed, it rewrites every file with
the same bytes.  ``test_golden.py`` also checks each file's SHA-256
against its digest in ``benchmarks/golden.json``, which this script only
reads.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hyplab import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
DIGESTS = json.loads((ROOT / "benchmarks" / "golden.json").read_text())
FIGURES = ("fig1", "fig2", "fig3", "fig4")
VERIFY, EXPLORE = "verify_all.json", "explore.csv"


def report_file(spec: str, fmt: str) -> str:
    """The golden file of ``report --family spec --format fmt``; a spec's
    ``:`` becomes ``_`` and its ``/`` ``over`` (``convex_eps=1over2.json``)."""
    return f"report/{spec.replace(':', '_').replace('/', 'over')}.{fmt}"


def digests() -> dict[str, str]:
    """Golden file -> its SHA-256 in ``benchmarks/golden.json``."""
    out = {VERIFY: DIGESTS["verify_all_json"], EXPLORE: DIGESTS["explore_csv"]}
    for spec, by_format in DIGESTS["report"].items():
        for fmt, digest in by_format.items():
            out[report_file(spec, fmt)] = digest
    for name, digest in DIGESTS["figures"].items():
        out[f"figures/{name}"] = digest
    return out


def cli_output(argv: list[str]) -> str:
    """What ``hyplab <argv>`` prints; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"hyplab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    files = {VERIFY: cli_output(["verify", "--suite", "all", "--format", "json"]).encode(),
             EXPLORE: cli_output(["explore"]).encode()}
    for spec in DIGESTS["report"]:
        for fmt in ("json", "csv"):
            argv = ["report", "--family", spec, "--format", fmt]
            files[report_file(spec, fmt)] = cli_output(argv).encode()
    with tempfile.TemporaryDirectory() as outdir:
        for which in FIGURES:
            for line in cli_output(["figure", "--figure", which, "--out", outdir]).splitlines():
                files[f"figures/{Path(line).name}"] = Path(line).read_bytes()
    for name, data in files.items():
        path = GOLDEN_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(files)} files under {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
