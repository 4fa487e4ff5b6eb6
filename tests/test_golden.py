"""Byte identity of the deterministic outputs: ``verify --suite all`` in
JSON, ``report`` in JSON and CSV for every golden instance, ``explore`` and
the four figures, each run in-process and compared by SHA-256 with
``benchmarks/golden.json`` (read only)."""

import hashlib
import json
from pathlib import Path

import pytest

from hyplab import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json").read_text()
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv) -> str:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_verify_all_json(capsys):
    out = run(capsys, ["verify", "--suite", "all", "--format", "json"])
    assert sha256(out.encode()) == GOLDEN["verify_all_json"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spec", sorted(GOLDEN["report"]))
def test_report(capsys, spec, fmt):
    out = run(capsys, ["report", "--family", spec, "--format", fmt])
    assert sha256(out.encode()) == GOLDEN["report"][spec][fmt]


def test_explore(capsys):
    assert sha256(run(capsys, ["explore"]).encode()) == GOLDEN["explore_csv"]


def test_figures(capsys, tmp_path):
    written = {}
    for which in ("fig1", "fig2", "fig3", "fig4"):
        out = run(capsys, ["figure", "--figure", which, "--out", str(tmp_path)])
        for line in out.splitlines():
            path = Path(line)
            written[path.name] = sha256(path.read_bytes())
    assert written == GOLDEN["figures"]
