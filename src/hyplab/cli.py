"""Command-line interface: reports, figure data, verification, exploration.

Subcommands::

    hyplab report  --family modkm:alpha=2,beta=5 [--format json|csv] [--out F]
    hyplab figure  --figure fig1|fig2|fig3|fig4 [--out DIR]
    hyplab verify  --suite all|section2|section3|appendix [--format json]
    hyplab explore [--out F]

Output is CSV or JSON only (plotting stays external).  All runs are
deterministic: fixed grids, fixed degree bounds, no randomness, so a
repeated invocation is byte-identical.

Exit codes: 0 all enabled checks passed, 1 configuration error, 2 at
least one check failed (the failing check is named on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import haar_values
from .families import (
    FamilyParameterError,
    UnsupportedFamilyError,
    closed_form_haar,
    in_V,
    make_family,
    parse_family_spec,
)
from . import chebconnect as _cheb
from . import dual as _dual
from . import linearization as _lin
from . import measures as _measures
from . import verify as _verify

__all__ = ["main", "build_report", "write_figure", "explore_rows"]

_FLOAT_FMT = ".12g"


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def build_report(
    family: str,
    max_degree: int = 40,
    grid_step: float = 2e-4,
    tol: float = 1e-9,
) -> dict:
    """Aggregate report for one family; every check carries its tolerance."""
    seq = parse_family_spec(family)
    report: dict = {
        "family": seq.family_tag,
        "params": {k: float(v) for k, v in seq.params.items()},
        "description": seq.description,
    }
    checks: list[dict] = []

    h = haar_values(seq, max_degree)
    haar_block: dict = {
        "n_max": max_degree,
        "values": [float(v) for v in h],
    }
    try:
        worst = 0.0
        for n in range(max_degree + 1):
            ref = closed_form_haar(seq, n)
            worst = max(worst, abs(h[n] - ref) / ref)
        haar_block["closed_form_max_rel_err"] = worst
        haar_block["closed_form_tolerance"] = 1e-10
        checks.append(
            {
                "name": "haar_closed_form",
                "passed": worst <= 1e-10,
                "measured": worst,
                "tolerance": 1e-10,
            }
        )
    except UnsupportedFamilyError:
        haar_block["closed_form_max_rel_err"] = None
    report["haar"] = haar_block

    nlp = _lin.check_nlp(seq, N=20)
    report["nlp"] = {
        "is_nonnegative": nlp.is_nonnegative,
        "min_coeff": nlp.min_coeff,
        "min_witness": list(nlp.min_witness),
        "row_sum_max_error": nlp.row_sum_max_error,
        "N": nlp.N,
        "tolerance": nlp.tol,
    }

    crit = _cheb.criterion_report(seq, nlp_verified=nlp.is_nonnegative)
    report["criteria"] = {
        "connection_nonneg": crit.connection_nonneg,
        "dual_full_interval": crit.dual_full_interval,
        "uniform_bound": crit.uniform_bound,
        "support_symmetric_interval": crit.support_symmetric_interval,
        "c_convergent": crit.c_convergent,
        "nevai_class": crit.nevai_class,
        "nevai_limit_consistent": crit.nevai_limit_consistent,
        "haar_floor_predicted": crit.predicted,
        "haar_min": crit.haar_min,
        "haar_floor_met": crit.haar_floor_met,
        "details": {k: float(v) for k, v in crit.details.items()},
    }
    checks.append(
        {
            "name": "criteria_consistent",
            "passed": crit.consistent,
            "measured": crit.haar_min,
            "tolerance": 2.0 * (1.0 - 1e-9),
        }
    )

    est = _dual.dual_estimate(seq, N=400, grid_step=grid_step, tol=tol)
    report["dual"] = {
        "N": est.N,
        "grid_step": est.grid_step,
        "tolerance": est.tol,
        "intervals": [[float(a), float(b)] for a, b in est.intervals],
        "member_count": int(est.member_mask.sum()),
    }

    try:
        mspec = _measures.measure_of(seq)
    except UnsupportedFamilyError:
        mspec = None
    if mspec is not None and mspec.status == "full":
        mass_err = abs(_measures.measure_mass(mspec) - 1.0)
        mom_err = abs(_measures.second_moment(mspec) - seq.c(1))
        orth_err = _measures.orthogonality_error(seq, N=12, spec=mspec)
        report["measure"] = {
            "status": mspec.status,
            "atoms": [[float(x), float(m)] for x, m in mspec.atoms],
            "mass_error": mass_err,
            "second_moment_error": mom_err,
            "orthogonality_error": orth_err,
            "tolerance": 1e-7,
        }
        checks.append(
            {"name": "measure_mass", "passed": mass_err <= 1e-9,
             "measured": mass_err, "tolerance": 1e-9}
        )
        checks.append(
            {"name": "measure_second_moment", "passed": mom_err <= 1e-9,
             "measured": mom_err, "tolerance": 1e-9}
        )
        checks.append(
            {"name": "orthogonality", "passed": orth_err <= 1e-7,
             "measured": orth_err, "tolerance": 1e-7}
        )
    elif mspec is not None:
        report["measure"] = {"status": mspec.status, "atoms": []}

    report["checks"] = checks
    report["all_checks_passed"] = bool(all(c["passed"] for c in checks))
    return _jsonable(report)


def _report_csv_rows(report: dict):
    """Flatten a report into (group, key, value) rows, stable order."""

    def walk(group: str, obj):
        if isinstance(obj, dict):
            for k in obj:
                yield from walk(f"{group}.{k}" if group else k, obj[k])
        elif isinstance(obj, (list, tuple)):
            yield group, ";".join(
                "/".join(_fmt(x) for x in v) if isinstance(v, (list, tuple))
                else (_fmt(v) if isinstance(v, float) else str(v))
                for v in obj
            )
        elif isinstance(obj, float):
            yield group, _fmt(obj)
        else:
            yield group, str(obj)

    return list(walk("", report))


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def cmd_report(args) -> int:
    report = build_report(
        args.family,
        max_degree=args.max_degree,
        grid_step=args.grid_step,
        tol=args.tol,
    )
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["group", "value"])
        for g, v in _report_csv_rows(report):
            w.writerow([g, v])
        _emit(buf.getvalue(), args.out)
    if not report["all_checks_passed"]:
        for c in report["checks"]:
            if not c["passed"]:
                print(
                    f"check failed: {c['name']} measured {c['measured']:.3e} "
                    f"tolerance {c['tolerance']:.1e}",
                    file=sys.stderr,
                )
        return 2
    return 0


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_figure(which: str, outdir: str | Path = ".") -> list[Path]:
    """Emit the CSV data behind one of the four shipped figures."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if which == "fig1":
        # parameter region with nonnegative linearization and negative
        # coefficient sum, on a grid containing the documented example pair
        step = Fraction(1, 60)
        path = outdir / "fig1_region.csv"
        rows = []
        for i in range(1, 60):
            alpha = -i * step
            for j in range(1, 60):
                beta = -j * step
                flag = int(
                    in_V(float(alpha), float(beta))
                    and float(alpha) + float(beta) + 1.0 < 0.0
                )
                rows.append([_fmt(alpha), _fmt(beta), flag])
        _write_csv(path, ["alpha", "beta", "in_region"], rows)
        written.append(path)

    elif which == "fig2":
        alphas = (-0.5, 0.0, 0.5)
        seqs = [make_family("gencheb", alpha=a, beta=a) for a in alphas]
        hs = [haar_values(s, 12) for s in seqs]
        path = outdir / "fig2_haar_symmetric.csv"
        rows = [
            [n] + [_fmt(h[n]) for h in hs] for n in range(13)
        ]
        _write_csv(path, ["n"] + [f"alpha={a}" for a in alphas], rows)
        written.append(path)

    elif which == "fig3":
        pairs = ((2, 5), (5, 5), (8, 5))
        specs = [
            _measures.measure_of(make_family("km", alpha=a, beta=b))
            for a, b in pairs
        ]
        xs = np.linspace(-1.0, 1.0, 801)
        dens = [s.density(xs) for s in specs]
        path = outdir / "fig3_density.csv"
        rows = [
            [_fmt(x)] + [_fmt(d[i]) for d in dens] for i, x in enumerate(xs)
        ]
        _write_csv(
            path, ["x"] + [f"km_{a}_{b}" for a, b in pairs], rows
        )
        written.append(path)
        path = outdir / "fig3_atoms.csv"
        rows = []
        for (a, b), s in zip(pairs, specs):
            for loc, mass in s.atoms:
                rows.append([f"km_{a}_{b}", _fmt(loc), _fmt(mass)])
        _write_csv(path, ["family", "location", "mass"], rows)
        written.append(path)

    elif which == "fig4":
        pairs = ((2, 5), (5, 5), (8, 5))
        seqs = [make_family("modkm", alpha=a, beta=b) for a, b in pairs]
        hs = [haar_values(s, 12) for s in seqs]
        path = outdir / "fig4_haar_rescaled.csv"
        rows = [[n] + [_fmt(h[n]) for h in hs] for n in range(13)]
        _write_csv(
            path, ["n"] + [f"modkm_{a}_{b}" for a, b in pairs], rows
        )
        written.append(path)

    else:
        raise ValueError(f"unknown figure {which!r}")
    return written


def cmd_figure(args) -> int:
    written = write_figure(args.figure, args.out or ".")
    for p in written:
        print(p)
    return 0


def cmd_verify(args) -> int:
    results = _verify.run_suite(args.suite)
    if args.format == "json":
        payload = _jsonable(
            {
                "suite": args.suite,
                "results": [
                    {
                        "key": r.key,
                        "title": r.title,
                        "passed": bool(r.passed),
                        "detail": r.detail,
                    }
                    for r in results
                ],
                "all_passed": bool(all(r.passed for r in results)),
            }
        )
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [r.line() for r in results]
        _emit("\n".join(lines), args.out)
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing criterion: {failing[0].key}", file=sys.stderr)
        return 2
    return 0


def explore_rows(haar_depth: int = 40) -> list[list]:
    """Deterministic parameter sweep looking for small Haar weights.

    Scans rescaled-walk parameter pairs and convex-construction
    parameters, reporting h(1), h(2), the min over 2 <= n <= depth and
    the tail min (a liminf proxy).  No claims are attached; the sweep
    exists to make counterexample hunting reproducible.
    """
    rows: list[list] = []
    for alpha in (2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0):
        for beta in (2.0, 3.0, 5.0, 8.0, 13.0, 21.0):
            seq = make_family("modkm", alpha=alpha, beta=beta)
            h = haar_values(seq, haar_depth)
            rows.append(
                [
                    "modkm",
                    _fmt(alpha),
                    _fmt(beta),
                    _fmt(h[1]),
                    _fmt(h[2]),
                    _fmt(np.min(h[2:])),
                    _fmt(np.min(h[haar_depth // 2:])),
                ]
            )
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        for q in (0.25, 0.5, 0.75):
            seq = make_family("convex", eps=eps, q=q)
            spec = seq.backbone
            h = [spec.haar(n) for n in range(haar_depth + 1)]
            rows.append(
                [
                    "convex",
                    _fmt(eps),
                    _fmt(q),
                    _fmt(h[1]),
                    _fmt(h[2]),
                    _fmt(min(h[2:])),
                    _fmt(min(h[haar_depth // 2:])),
                ]
            )
    return rows


def cmd_explore(args) -> int:
    rows = explore_rows()
    lines = ["family,p1,p2,h1,h2,min_h,tail_min_h"]
    lines += [",".join(str(c) for c in row) for row in rows]
    _emit("\n".join(lines), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyplab",
        description=__doc__.split("\n\n")[0],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="aggregated checks for one family")
    rep.add_argument("--family", required=True, metavar="TAG:K=V,...")
    rep.add_argument("--max-degree", type=int, default=40)
    rep.add_argument("--grid-step", type=float, default=2e-4)
    rep.add_argument("--tol", type=float, default=1e-9)
    rep.add_argument("--out", default=None)
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.set_defaults(fn=cmd_report)

    fig = sub.add_parser("figure", help="emit figure data as CSV")
    fig.add_argument(
        "--figure", required=True, choices=("fig1", "fig2", "fig3", "fig4")
    )
    fig.add_argument("--out", default=".", metavar="DIR")
    fig.set_defaults(fn=cmd_figure)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "--suite", default="all", choices=tuple(sorted(_verify.SUITES))
    )
    ver.add_argument("--out", default=None)
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(fn=cmd_verify)

    exp = sub.add_parser("explore", help="deterministic counterexample sweep")
    exp.add_argument("--out", default=None)
    exp.set_defaults(fn=cmd_explore)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FamilyParameterError, UnsupportedFamilyError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
