"""The three benchmark workloads as lists of operations with correctness checks.

Every operation is one call a user would make: a CLI invocation or one
rung of the degree ladder.  Each call builds its own family objects, so
per-sequence caches start cold, as in a fresh CLI process.  An operation
returns its raw output; its check runs outside the timed region and
returns ``None`` when the output is correct, or the reason it is not.

Byte-stable outputs (verify JSON, report JSON and CSV, explore CSV,
figure CSVs) are compared with SHA-256 digests in ``golden.json``.  The
ladder rungs are checked against invariants at the tolerances the
package's own tests use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Report instances per family.  The first of each is the seed-0 choice;
#: the rest are the instances the acceptance suite already pins (its
#: closed-form list, and the convex construction at its three eps values).
INSTANCES = {
    "cheb1": ["cheb1"],
    "gencheb": ["gencheb:alpha=-1/4,beta=-5/6", "gencheb:alpha=1/2,beta=1/2",
                "gencheb:alpha=2,beta=1"],
    "cosh": ["cosh:a=1/2", "cosh:a=1"],
    "grinspun": ["grinspun:c1=3/10", "grinspun:c1=7/10"],
    "km": ["km:alpha=2,beta=5", "km:alpha=5,beta=5", "km:alpha=8,beta=5"],
    "modkm": ["modkm:alpha=2,beta=5", "modkm:alpha=5,beta=5",
              "modkm:alpha=8,beta=5"],
    "rational25": ["rational25"],
    "convex": ["convex:eps=1/2", "convex:eps=1/5", "convex:eps=4/5"],
}

FIGURES = ("fig1", "fig2", "fig3", "fig4")
DEGREES = 4  # ladder rungs per layer; each layer's degrees span 8x


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``hyplab.cli.main(argv)`` with its standard output captured."""
    from hyplab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest_check(expected: "str | None"):
    def check(result) -> "str | None":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if expected is None:
            return "no golden digest"
        if sha256(text) != expected:
            return "output digest differs from golden"
        return None
    return check


def _figure_check(expected: dict):
    def check(result) -> "str | None":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        paths = [Path(line) for line in text.splitlines() if line.strip()]
        if not paths:
            return "wrote no files"
        for path in paths:
            if sha256(path.read_bytes()) != expected.get(path.name):
                return f"{path.name} differs from golden"
        return None
    return check


# -- acceptance ------------------------------------------------------------


def acceptance_ops(seed: int, golden: dict, outdir: Path) -> list[Op]:
    argv = ["verify", "--suite", "all", "--format", "json"]
    return [Op("verify-all", lambda: run_cli(argv),
               _digest_check(golden.get("verify_all_json")))]


# -- report_sweep ------------------------------------------------------------


def report_instances(seed: int) -> list[str]:
    """One instance per family: the first for seed 0, else a seeded pick."""
    if seed == 0:
        return [choices[0] for choices in INSTANCES.values()]
    rng = random.Random(seed)
    return [rng.choice(choices) for choices in INSTANCES.values()]


def report_sweep_ops(seed: int, golden: dict, outdir: Path) -> list[Op]:
    ops = []
    reports = golden.get("report", {})
    for spec in report_instances(seed):
        for fmt in ("json", "csv"):
            argv = ["report", "--family", spec, "--format", fmt]
            ops.append(Op(
                f"report {spec} {fmt}",
                lambda argv=argv: run_cli(argv),
                _digest_check(reports.get(spec, {}).get(fmt)),
            ))
    ops.append(Op("explore", lambda: run_cli(["explore"]),
                  _digest_check(golden.get("explore_csv"))))
    figures = golden.get("figures", {})
    for which in FIGURES:
        argv = ["figure", "--figure", which, "--out", str(outdir)]
        ops.append(Op(f"figure {which}", lambda argv=argv: run_cli(argv),
                      _figure_check(figures)))
    return ops


# -- degree_ladder -----------------------------------------------------------


def ladder(start: int) -> list[int]:
    return [start * 2**i for i in range(DEGREES)]


def _family(tag, **params):
    from hyplab.families import make_family

    return make_family(tag, **params)


def _check_eval_grid(out) -> "str | None":
    n = np.arange(out.shape[0])
    if not np.all(np.isfinite(out)):
        return "non-finite basis values"
    if np.max(np.abs(out[:, -1] - 1.0)) > 1e-12:
        return "P_n(1) != 1"
    if np.max(np.abs(out[:, 0] - (-1.0) ** n)) > 1e-12:
        return "P_n(-1) != (-1)^n"
    return None


def _check_nlp(rep) -> "str | None":
    if not rep.is_nonnegative:
        return f"NLP audit not nonnegative (min {rep.min_coeff:.3e})"
    if rep.row_sum_max_error >= 1e-11:
        return f"row sums off by {rep.row_sum_max_error:.3e} (tol 1e-11)"
    return None


def _check_connection(N):
    def check(C) -> "str | None":
        seq = _family("modkm", alpha=2.0, beta=5.0)
        prod_a = 1.0
        worst = 0.0
        for n in range(1, N + 1):
            worst = max(worst, abs(C[n, n] * 2.0 ** (n - 1) * prod_a - 1.0))
            prod_a *= seq.a(n)
        if not worst < 1e-11:
            return f"leading-coefficient identity off by {worst:.3e} (tol 1e-11)"
        return None
    return check


def _check_gram(N):
    def check(G) -> "str | None":
        from hyplab.core import haar_values

        h = haar_values(_family("gencheb", alpha=0.5, beta=0.5), N)
        err = float(np.max(np.abs(G - np.diag(1.0 / h))))
        return None if err <= 1e-7 else f"Gram off diag(1/h) by {err:.3e}"
    return check


def _check_triple(T) -> "str | None":
    sym = float(np.max(np.abs(T - np.transpose(T, (1, 0, 2)))))
    if sym > 1e-12:
        return f"triple products not symmetric in m, n ({sym:.3e})"
    if abs(T[0, 0, 0] - 1.0) > 1e-9:
        return f"total mass {T[0, 0, 0]!r} != 1"
    return None


def _check_spectrum(result) -> "str | None":
    evs, _ = result
    asym = float(np.max(np.abs(evs + evs[::-1])))
    return None if asym < 1e-12 else f"spectrum not symmetric ({asym:.3e})"


def _check_dual(step):
    def check(est) -> "str | None":
        ivs = est.intervals
        cut = 1.0 / 3.0
        if not (len(ivs) == 2 and ivs[0][0] == -1.0 and ivs[1][1] == 1.0
                and abs(ivs[0][1] + cut) <= 2 * step
                and abs(ivs[1][0] - cut) <= 2 * step):
            return f"two-interval geometry off: {ivs}"
        return None
    return check


def _check_complex(step):
    def check(result) -> "str | None":
        pts, _ = result
        nonreal = pts[np.abs(pts.imag) > step]
        if nonreal.size == 0:
            return "no non-real survivor for the cosh family"
        b = math.tanh(1.0)
        if not np.all(nonreal.real**2 + (nonreal.imag / b) ** 2 <= 1.0 + 1e-6):
            return "cosh survivors leave the ellipse"
        return None
    return check


def _check_equal(expected):
    def check(value) -> "str | None":
        return None if value == expected else f"{value!r} != {expected!r}"
    return check


def degree_ladder_ops(seed: int, golden: dict, outdir: Path) -> list[Op]:
    from hyplab import appendixcheck, chebconnect, core, dual, linearization, measures

    xs = np.linspace(-1.0, 1.0, 10001)
    verdicts = golden.get("divergence_classify", {})
    ops = []

    def rung(layer, degree, call, check):
        ops.append(Op(f"{layer} {degree}", call, check))

    for N in ladder(100):
        rung("eval_basis_grid", N, lambda N=N: core.eval_basis_grid(
            _family("modkm", alpha=2.0, beta=5.0), N, xs), _check_eval_grid)
    for N in ladder(32):
        rung("check_nlp", N, lambda N=N: linearization.check_nlp(
            _family("gencheb", alpha=0.5, beta=0.5), N=N), _check_nlp)
    for N in ladder(100):
        rung("connection_coeffs", N, lambda N=N: chebconnect.connection_coeffs(
            _family("modkm", alpha=2.0, beta=5.0), N), _check_connection(N))
    for N in ladder(12):
        rung("basis_gram", N, lambda N=N: measures.basis_gram(
            _family("gencheb", alpha=0.5, beta=0.5), N), _check_gram(N))
    for M in ladder(3):
        rung("triple_products", M, lambda M=M: measures.triple_products(
            _family("km", alpha=8.0, beta=5.0), M), _check_triple)
    for N in ladder(250):
        rung("spectrum_atoms", N, lambda N=N: measures.spectrum_atoms(
            _family("modkm", alpha=2.0, beta=5.0), N), _check_spectrum)
    for N in ladder(100):
        rung("dual_estimate", N, lambda N=N: dual.dual_estimate(
            _family("modkm", alpha=2.0, beta=5.0), N=N, grid_step=2e-4),
            _check_dual(2e-4))
    for N in ladder(50):
        rung("complex_scan", N, lambda N=N: dual.complex_scan(
            _family("cosh", a=1.0), N=N, step=8e-3), _check_complex(8e-3))
    for N in ladder(32):
        rung("divergence_classify", N, lambda N=N: dual.divergence_classify(
            _family("convex", eps=0.5), 0.9, N=N),
            _check_equal(verdicts.get(str(N))))
    for n in ladder(12):
        rung("kernel_identity_residual", n,
             lambda n=n: appendixcheck.kernel_identity_residual(5, 8, n),
             _check_equal(0.0))
    return ops


WORKLOADS = {
    "acceptance": acceptance_ops,
    "report_sweep": report_sweep_ops,
    "degree_ladder": degree_ladder_ops,
}
SHUFFLED = ("report_sweep", "degree_ladder")


def pass_orders(ops: list[Op], workload: str, seed: int):
    """Yield the operations in the order of each successive pass.

    The first (warm-up) pass and every pass of seed 0 keep the canonical
    order.  Other seeds of the shuffled workloads draw a new order for
    every later pass from one seeded generator, so a run averages over
    many orders instead of timing one seed-specific order.
    """
    yield ops
    rng = random.Random(seed)
    while True:
        if seed != 0 and workload in SHUFFLED:
            ops = list(ops)
            rng.shuffle(ops)
        yield ops


def build(workload: str, seed: int, outdir: Path, golden: "dict | None" = None) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    return WORKLOADS[workload](seed, load_golden() if golden is None else golden, outdir)
