"""Command-line interface: reports, figure data, verification, exploration.

Subcommands::

    hyplab report  --family modkm:alpha=2,beta=5 [--format json|csv] [--out F]
    hyplab figure  --figure fig1|fig2|fig3|fig4 [--out DIR]
    hyplab verify  --suite all|section2|section3|appendix [--format json]
    hyplab explore [--out F]

Output is CSV or JSON only (plotting stays external).  All runs are
deterministic: fixed grids, fixed degree bounds, no randomness, so a
repeated invocation is byte-identical.

Exit codes: 0 all enabled checks passed, 1 configuration error (one
stderr line, an option value out of its range or an ``--out`` path that
cannot be written included), 2 at
least one check failed (the failing check is named on stderr) or a
numerical failure stopped the run (its error class, the command and the
family are named on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import CoefficientDomainError, HaarRangeError, haar_values
from .families import (
    FamilyParameterError,
    UnsupportedFamilyError,
    closed_form_max_rel_err,
    in_V,
    make_family,
    parse_family_spec,
)
from .quadrature import QuadratureConvergenceError
from . import chebconnect as _cheb
from . import dual as _dual
from . import linearization as _lin
from . import measures as _measures
from . import verify as _verify

__all__ = ["main", "build_report", "write_figure", "explore_rows"]

_FLOAT_FMT = ".12g"


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _csv_text(header: list[str], rows) -> str:
    """The one CSV writer: ``header`` and ``rows``, each ending in a newline."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _check(name: str, measured: float, tolerance: float, passed=None) -> dict:
    """One report check; it passes when ``measured <= tolerance`` unless
    ``passed`` is given."""
    return {
        "name": name,
        "passed": measured <= tolerance if passed is None else passed,
        "measured": measured,
        "tolerance": tolerance,
    }


def _criteria_block(crit: _cheb.CriterionReport) -> dict:
    """The criterion report in its field order, less what ``report`` prints
    elsewhere (``family``, ``nlp_verified``) or as a check (``consistent``)."""
    return {k: v for k, v in dataclasses.asdict(crit).items()
            if k not in ("family", "nlp_verified", "consistent")}


def _dual_block(est: _dual.DualEstimate) -> dict:
    return {
        "N": est.N,
        "grid_step": est.grid_step,
        "tolerance": est.tol,
        "intervals": [[float(a), float(b)] for a, b in est.intervals],
        "member_count": int(est.member_mask.sum()),
    }


def build_report(
    family: str,
    max_degree: int = 40,
    grid_step: float = 2e-4,
    tol: float = _dual.MEMBER_TOL,
) -> dict:
    """Aggregate report for one family; every check carries its tolerance.

    The criteria and the dual estimate read one ``max_abs_profile`` array,
    to degree ``PROFILE_DEGREE``, of :func:`criterion_grid` and
    :func:`estimate_grid` concatenated; each reads its own slice, which is
    bitwise what ``criterion_report`` and ``dual_estimate`` would profile.

    That profile freezes at ``DIVERGE_THRESHOLD``, so a frozen point stays
    below a band ``1 + tol`` past it: ``tol`` above ``DIVERGE_THRESHOLD - 1``
    raises ``ValueError``.
    """
    if 1.0 + tol > _dual.DIVERGE_THRESHOLD:
        raise ValueError(
            f"tol must be <= DIVERGE_THRESHOLD - 1 = "
            f"{_dual.DIVERGE_THRESHOLD - 1:g}, got {tol!r}"
        )
    xs_dual = _dual.estimate_grid(grid_step)
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
        worst = closed_form_max_rel_err(seq, h)
        haar_block["closed_form_max_rel_err"] = worst
        haar_block["closed_form_tolerance"] = 1e-10
        checks.append(_check("haar_closed_form", worst, 1e-10))
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

    N = _cheb.PROFILE_DEGREE
    xs_crit = _cheb.criterion_grid()
    prof = _dual.max_abs_profile(seq, np.concatenate((xs_crit, xs_dual)), N)
    k = xs_crit.size

    crit = _cheb.criterion_report(seq, nlp_verified=nlp.is_nonnegative,
                                  profile=prof[:k])
    report["criteria"] = _criteria_block(crit)
    checks.append(_check("criteria_consistent", crit.haar_min,
                         _cheb.HAAR_FLOOR, passed=crit.consistent))

    est = _dual.classify_profile(xs_dual, prof[k:], N, grid_step, tol)
    report["dual"] = _dual_block(est)

    mspec = _measures.measure_of(seq)
    if mspec.status == "full":
        mass_err = abs(_measures.measure_mass(mspec) - 1.0)
        mom_err = abs(_measures.second_moment(mspec) - seq.c(1))
        orth_err = _measures.orthogonality_error(seq, N=12)
        report["measure"] = {
            "status": mspec.status,
            "atoms": [[float(x), float(m)] for x, m in mspec.atoms],
            "mass_error": mass_err,
            "second_moment_error": mom_err,
            "orthogonality_error": orth_err,
            "tolerance": 1e-7,
        }
        checks += [
            _check("measure_mass", mass_err, 1e-9),
            _check("measure_second_moment", mom_err, 1e-9),
            _check("orthogonality", orth_err, 1e-7),
        ]
    else:
        report["measure"] = {"status": mspec.status, "atoms": []}

    report["checks"] = checks
    report["all_checks_passed"] = all(c["passed"] for c in checks)
    return report


def _report_csv_rows(report: dict):
    """Flatten a report into (group, value) rows, stable order."""

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


def _check_out(out: str) -> None:
    """Raise, before any work, the error that writing ``out`` would end in
    when its directory is missing."""
    parent = Path(out).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), out)


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
        _emit(_csv_text(["group", "value"], _report_csv_rows(report)), args.out)
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


def _write_csv(path: Path, header: list[str], rows) -> Path:
    path.write_text(_csv_text(header, rows), newline="")
    return path


def _haar_table(path: Path, labels: list[str], seqs) -> Path:
    """h(0..12) of each sequence, one column per label."""
    hs = [haar_values(s, 12) for s in seqs]
    return _write_csv(path, ["n"] + labels,
                      [[n] + [_fmt(h[n]) for h in hs] for n in range(13)])


def write_figure(which: str, outdir: str | Path = ".") -> list[Path]:
    """Emit the CSV data behind one of the four shipped figures."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if which == "fig1":
        # parameter region with nonnegative linearization and negative
        # coefficient sum, on a grid containing the documented example pair;
        # -i / 60 is the correctly rounded value of the rational -i/60
        grid = [(-i / 60, _fmt(-i / 60)) for i in range(1, 60)]
        rows = [
            [sa, sb, int(in_V(alpha, beta) and alpha + beta + 1.0 < 0.0)]
            for alpha, sa in grid
            for beta, sb in grid
        ]
        return [_write_csv(outdir / "fig1_region.csv",
                           ["alpha", "beta", "in_region"], rows)]

    if which == "fig2":
        alphas = (-0.5, 0.0, 0.5)
        return [_haar_table(
            outdir / "fig2_haar_symmetric.csv",
            [f"alpha={a}" for a in alphas],
            [make_family("gencheb", alpha=a, beta=a) for a in alphas],
        )]

    pairs = ((2, 5), (5, 5), (8, 5))
    if which == "fig3":
        labels = [f"km_{a}_{b}" for a, b in pairs]
        specs = [
            _measures.measure_of(make_family("km", alpha=a, beta=b))
            for a, b in pairs
        ]
        xs = np.linspace(-1.0, 1.0, 801)
        dens = [s.density(xs) for s in specs]
        return [
            _write_csv(
                outdir / "fig3_density.csv", ["x"] + labels,
                [[_fmt(x)] + [_fmt(d[i]) for d in dens] for i, x in enumerate(xs)],
            ),
            _write_csv(
                outdir / "fig3_atoms.csv", ["family", "location", "mass"],
                [[label, _fmt(loc), _fmt(mass)]
                 for label, s in zip(labels, specs) for loc, mass in s.atoms],
            ),
        ]

    if which == "fig4":
        return [_haar_table(
            outdir / "fig4_haar_rescaled.csv",
            [f"modkm_{a}_{b}" for a, b in pairs],
            [make_family("modkm", alpha=a, beta=b) for a, b in pairs],
        )]

    raise ValueError(f"unknown figure {which!r}")


def cmd_figure(args) -> int:
    written = write_figure(args.figure, args.out or ".")
    for p in written:
        print(p)
    return 0


def cmd_verify(args) -> int:
    results = _verify.run_suite(args.suite)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "results": [dataclasses.asdict(r) for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [r.line() for r in results]
        _emit("\n".join(lines), args.out)
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing criterion: {failing[0].key}", file=sys.stderr)
        return 2
    return 0


def explore_rows() -> list[list]:
    """Deterministic parameter sweep looking for small Haar weights.

    Scans rescaled-walk parameter pairs and convex-construction
    parameters, reporting h(1), h(2), the min over 2 <= n <= 40 and the
    min over 20 <= n <= 40 (a liminf proxy).  No claims are attached; the
    sweep exists to make counterexample hunting reproducible.
    """
    sweep = []
    for alpha in (2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0):
        for beta in (2.0, 3.0, 5.0, 8.0, 13.0, 21.0):
            seq = make_family("modkm", alpha=alpha, beta=beta)
            sweep.append(("modkm", alpha, beta, haar_values(seq, 40)))
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        for q in (0.25, 0.5, 0.75):
            seq = make_family("convex", eps=eps, q=q)
            sweep.append(("convex", eps, q, [seq.haar(n) for n in range(41)]))
    return [
        [tag, _fmt(p1), _fmt(p2), _fmt(h[1]), _fmt(h[2]),
         _fmt(min(h[2:])), _fmt(min(h[20:]))]
        for tag, p1, p2, h in sweep
    ]


def cmd_explore(args) -> int:
    header = ["family", "p1", "p2", "h1", "h2", "min_h", "tail_min_h"]
    _emit(_csv_text(header, explore_rows()), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, like every other configuration error
        self.exit(2, f"configuration error: {self.prog}: {message}\n")


#: Smallest ``report --grid-step``: its grid has 2,000,001 points (16 MB).
_MIN_GRID_STEP = 1e-6


def _checked(kind, ok, what):
    """argparse type that parses with ``kind`` and rejects values not ``ok``."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = kind.__name__  # names the type in argparse's messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hyplab",
        description=__doc__.split("\n\n")[0],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="aggregated checks for one family")
    rep.add_argument("--family", required=True, metavar="TAG:K=V,...")
    rep.add_argument("--max-degree", default=40, type=_checked(
        int, lambda v: v >= 0, "an integer >= 0"))
    rep.add_argument("--grid-step", default=2e-4, type=_checked(
        float, lambda v: math.isfinite(v) and v >= _MIN_GRID_STEP,
        f"a finite number >= {_MIN_GRID_STEP:g}"))
    rep.add_argument("--tol", default=_dual.MEMBER_TOL, type=_checked(
        float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"))
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
        # figure --out is a directory that figure creates
        if args.command != "figure" and args.out not in (None, "-"):
            _check_out(args.out)
        return args.fn(args)
    except (HaarRangeError, QuadratureConvergenceError, CoefficientDomainError) as exc:
        where = f"hyplab {args.command}"
        if args.command == "report":
            where += f" --family {args.family}"
        print(f"numerical failure: {type(exc).__name__} in {where}: {exc}",
              file=sys.stderr)
        return 2
    except (FamilyParameterError, UnsupportedFamilyError, ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:  # not a path the command was given
            raise
        print(f"configuration error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
