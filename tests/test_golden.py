"""Byte identity of the deterministic outputs: ``verify --suite all`` in
JSON, ``report`` in JSON and CSV for every golden instance, ``explore`` and
the four figures, each run in-process and compared byte for byte with its
file under ``tests/golden/`` (``make_golden.py`` writes them).  Each file's
SHA-256 is the digest ``benchmarks/golden.json`` (read only) records."""

import hashlib
from pathlib import Path

import pytest
from make_golden import DIGESTS, EXPLORE, FIGURES, GOLDEN_DIR, VERIFY, digests, report_file

from hyplab import cli


def golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def run(capsys, argv) -> bytes:
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out.encode()


def test_golden_files_carry_the_benchmark_digests():
    want = digests()
    files = {p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    assert files == set(want)
    for name, digest in want.items():
        assert hashlib.sha256(golden(name)).hexdigest() == digest, name


def test_verify_all_json(capsys):
    assert run(capsys, ["verify", "--suite", "all", "--format", "json"]) == golden(VERIFY)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spec", sorted(DIGESTS["report"]))
def test_report(capsys, spec, fmt):
    out = run(capsys, ["report", "--family", spec, "--format", fmt])
    assert out == golden(report_file(spec, fmt))


def test_explore(capsys):
    assert run(capsys, ["explore"]) == golden(EXPLORE)


def test_figures(capsys, tmp_path):
    written = {}
    for which in FIGURES:
        for line in run(capsys, ["figure", "--figure", which, "--out", str(tmp_path)]).splitlines():
            path = Path(line.decode())
            written[path.name] = path.read_bytes()
    assert written == {name: golden(f"figures/{name}") for name in DIGESTS["figures"]}
