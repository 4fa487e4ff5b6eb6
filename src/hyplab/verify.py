"""The package's quantitative claims as nine executable checks.

Each function runs one check end to end at pinned parameters and
returns a :class:`CriterionResult` with a one-line quantitative detail
string.  The CLI verify suites and the acceptance test suite both
dispatch through :data:`CRITERIA` / :data:`SUITES`, so each check has
exactly one implementation -- no drift between the command line and the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import haar_values
from .families import (
    KMParams,
    beta_for_epsilon,
    closed_form_haar,
    make_family,
)
from . import appendixcheck as _appendix
from . import dual as _dual
from . import linearization as _lin
from . import measures as _measures

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.key} {self.title}: {self.detail}"


_CLOSED_FORM_FAMILIES = [
    ("cheb1", {}),
    ("gencheb", dict(alpha=-0.25, beta=-5.0 / 6.0)),
    ("gencheb", dict(alpha=0.5, beta=0.5)),
    ("gencheb", dict(alpha=2.0, beta=1.0)),
    ("cosh", dict(a=0.5)),
    ("cosh", dict(a=1.0)),
    ("grinspun", dict(c1=0.3)),
    ("grinspun", dict(c1=0.7)),
    ("km", dict(alpha=2, beta=5)),
    ("km", dict(alpha=5, beta=5)),
    ("km", dict(alpha=8, beta=5)),
    ("modkm", dict(alpha=2, beta=5)),
    ("modkm", dict(alpha=5, beta=5)),
    ("modkm", dict(alpha=8, beta=5)),
    ("rational25", {}),
]

_FULL_MEASURE_FAMILIES = [
    (tag, kw)
    for tag, kw in _CLOSED_FORM_FAMILIES
    if tag not in ("grinspun",)
]

_NLP_FAMILIES = [
    (tag, kw)
    for tag, kw in _CLOSED_FORM_FAMILIES
    if not (tag == "grinspun" and kw.get("c1") == 0.7)
] + [("convex", dict(eps=0.5))]

_EPS_SWEEP = (0.2, 0.5, 0.8)


def haar_closed_forms() -> CriterionResult:
    """Recurrence-accumulated h(n) vs closed forms, n <= 40, rel 1e-10."""
    worst = 0.0
    for tag, kw in _CLOSED_FORM_FAMILIES:
        seq = make_family(tag, **kw)
        h = haar_values(seq, 40)
        for n in range(0, 41):
            ref = closed_form_haar(seq, n)
            rel = abs(h[n] - ref) / ref
            worst = max(worst, rel)
    passed = worst <= 1e-10
    return CriterionResult(
        "criterion-1",
        "closed-form Haar weights",
        passed,
        f"{len(_CLOSED_FORM_FAMILIES)} families, n<=40, worst rel err "
        f"{worst:.2e} (tol 1e-10)",
    )


def counterexample_haar_growth() -> CriterionResult:
    """h(1) = 1+eps for both constructions; exponential growth for one."""
    worst = 0.0
    growth_ok = True
    for eps in _EPS_SWEEP:
        inner = make_family("modkm", alpha=2.0, beta=beta_for_epsilon(eps))
        worst = max(worst, abs(haar_values(inner, 1)[1] - (1.0 + eps)))
        conv = make_family("convex", eps=eps)
        spec = conv.backbone
        worst = max(worst, abs(spec.haar(1) - (1.0 + eps)))
        h = [spec.haar(n) for n in range(0, 61)]
        if not all(h[n] < h[n + 1] for n in range(0, 60)):
            growth_ok = False
        if not all(h[n] > 4.0 for n in range(2, 61)):
            growth_ok = False
        if not all(
            spec.haar(2 * n + 2) / spec.haar(2 * n) > 4.0 for n in range(1, 26)
        ):
            growth_ok = False
    passed = worst <= 1e-12 and growth_ok
    return CriterionResult(
        "criterion-2",
        "h(1)=1+eps constructions",
        passed,
        f"eps in {_EPS_SWEEP}: |h(1)-(1+eps)| worst {worst:.2e} (tol 1e-12); "
        f"monotone/floor-4/ratio-4 growth {'ok' if growth_ok else 'VIOLATED'}",
    )


def nlp_audits() -> CriterionResult:
    """Nonnegative linearization where claimed, a negative witness where
    claimed, and the two-term closed-form rows for the cosh family."""
    min_ok = 0.0
    all_nonneg = True
    for tag, kw in _NLP_FAMILIES:
        rep = _lin.check_nlp(make_family(tag, **kw), N=30)
        all_nonneg &= rep.is_nonnegative
        min_ok = min(min_ok, rep.min_coeff)
    witness = _lin.check_nlp(make_family("grinspun", c1=0.7), N=10)
    witness_found = witness.min_coeff < -1e-12

    row_worst = 0.0
    for a in (0.5, 1.0):
        seq = make_family("cosh", a=a)
        tab = _lin.LinearizationTable(seq, N=24)
        for m in range(1, 13):
            for n in range(m, 13):
                row = tab.row(m, n)
                for k in range(0, m + n + 1):
                    expect = 0.0
                    if k in (n - m, n + m):
                        expect = math.cosh(a * k) / (
                            2.0 * math.cosh(a * m) * math.cosh(a * n)
                        )
                    row_worst = max(row_worst, abs(row[k] - expect))
    passed = all_nonneg and witness_found and row_worst <= 1e-12
    return CriterionResult(
        "criterion-3",
        "linearization audits",
        passed,
        f"{len(_NLP_FAMILIES)} families nonneg at m,n<=30 (min {min_ok:.1e}); "
        f"negative witness {witness.min_coeff:.3f} at m,n<=10; "
        f"two-term rows within {row_worst:.2e}",
    )


def linearization_oracles() -> CriterionResult:
    """g(m,n;k) vs h(k) * integral P_m P_n P_k dmu, and Gram matrices."""
    worst_g = 0.0
    worst_orth = 0.0
    for tag, kw in _FULL_MEASURE_FAMILIES:
        seq = make_family(tag, **kw)
        tab = _lin.LinearizationTable(seq, N=24)
        T = _measures.triple_products(seq, 12)
        h = haar_values(seq, 24)
        for m in range(13):
            for n in range(13):
                for k in range(m + n + 1):
                    worst_g = max(
                        worst_g, abs(tab.g(m, n, k) - h[k] * T[m, n, k])
                    )
        worst_orth = max(worst_orth, _measures.orthogonality_error(seq, N=12))
    passed = worst_g <= 1e-8 and worst_orth <= 1e-7
    return CriterionResult(
        "criterion-4",
        "quadrature oracles",
        passed,
        f"{len(_FULL_MEASURE_FAMILIES)} families: max |g - h*integral| "
        f"{worst_g:.2e} (tol 1e-8); orthogonality error {worst_orth:.2e} "
        f"(tol 1e-7, atom cases included)",
    )


def rescaling_identity() -> CriterionResult:
    """Rational closed-form coefficients vs rescaled walk coefficients."""
    rat = make_family("rational25")
    mod = make_family("modkm", alpha=2, beta=5)
    dev = float(
        np.nanmax(np.abs(rat.c_array(200) - mod.c_array(200)))
    )
    passed = dev <= 1e-14
    return CriterionResult(
        "criterion-5",
        "rescaling identity",
        passed,
        f"c(n) entrywise deviation {dev:.2e} for n<=200 (tol 1e-14)",
    )


def dual_geometry() -> CriterionResult:
    """Interval geometry of structure-space estimates per family."""
    problems = []
    step = 2e-4

    est = _dual.dual_estimate(make_family("modkm", alpha=2, beta=5), N=400, grid_step=step)
    ivs = est.intervals
    if not (
        len(ivs) == 2
        and ivs[0][0] == -1.0
        and ivs[1][1] == 1.0
        and abs(ivs[0][1] + 1.0 / 3.0) <= 2 * step
        and abs(ivs[1][0] - 1.0 / 3.0) <= 2 * step
    ):
        problems.append(f"two-interval geometry off: {ivs}")

    for eps in _EPS_SWEEP:
        seq = make_family("modkm", alpha=2.0, beta=beta_for_epsilon(eps))
        est = _dual.dual_estimate(seq, N=400, grid_step=step)
        cut = math.sqrt((1.0 - eps) / (1.0 + eps))
        ivs = est.intervals
        if not (
            len(ivs) == 2
            and abs(ivs[0][1] + cut) <= 2 * step
            and abs(ivs[1][0] - cut) <= 2 * step
        ):
            problems.append(f"eps={eps}: inner endpoints vs +-{cut:.4f}: {ivs}")

    est = _dual.dual_estimate(make_family("grinspun", c1=0.7), N=400, grid_step=step)
    if tuple(est.members.tolist()) != (-1.0, 1.0):
        problems.append(f"bounded-above-band member set {est.members}")

    conv = make_family("convex", eps=0.5)
    est = _dual.dual_estimate(conv, N=400, grid_step=1e-3)
    cut = math.sqrt((1.0 - 0.5) / (1.0 + 0.5))
    evs, tails = _measures.spectrum_atoms(conv, 400)
    pos = np.sort(evs[evs > 1e-12])
    evs8, _ = _measures.spectrum_atoms(conv, 800)
    pos8 = np.sort(evs8[evs8 > 1e-12])
    grid_members_ok = tuple(est.members.tolist()) == (-1.0, 1.0)
    target = np.concatenate(([1.0], pos, [-1.0], -pos))
    containment_ok = all(
        np.min(np.abs(target - x)) <= 2e-3 for x in est.members
    )
    localized = float(np.sort(tails)[: evs.size - 2].max()) if evs.size > 2 else 1.0
    atoms_ok = localized <= 1e-8
    stable_ok = abs(pos[0] - pos8[0]) <= 1e-10
    gap_ok = bool(np.all(np.abs(pos) >= cut - 1e-9)) and bool(
        np.all(np.abs(est.members) >= cut - 1e-9)
    )
    if not (grid_members_ok and containment_ok and atoms_ok and stable_ok and gap_ok):
        problems.append(
            f"discrete-dual family: grid={grid_members_ok} "
            f"containment={containment_ok} atoms={atoms_ok} "
            f"stable={stable_ok} gap={gap_ok}"
        )

    passed = not problems
    return CriterionResult(
        "criterion-6",
        "structure-space geometry",
        passed,
        "two-interval edges, eps sweep, above-band {..}, discrete dual all ok"
        if passed
        else "; ".join(problems),
    )


def haar_floor_composite() -> CriterionResult:
    """Full dual coverage forces h(n) >= 2; converse failure witnessed."""
    floor = 2.0 * (1.0 - 1e-9)
    covering = []
    violations = []
    for tag, kw in _CLOSED_FORM_FAMILIES:
        seq = make_family(tag, **kw)
        est = _dual.dual_estimate(seq, N=400, grid_step=1e-3)
        if est.intervals == ((-1.0, 1.0),):
            covering.append(f"{tag}{kw.get('alpha', '')}" if kw else tag)
            hmin = float(np.min(haar_values(seq, 50)[1:]))
            if hmin < floor:
                violations.append(f"{seq!r}: min h = {hmin}")

    witness = make_family("modkm", alpha=8, beta=5)
    est = _dual.dual_estimate(witness, N=400, grid_step=1e-3)
    hmin_w = float(np.min(haar_values(witness, 50)[1:]))
    gap_present = len(est.intervals) > 1
    zero_member = any(a <= 0.0 <= b for a, b in est.intervals)
    punctured = any(
        0.0 < x < 0.13 for x in est.xs[est.member_mask]
    )
    witness_ok = hmin_w >= floor and gap_present and zero_member and not punctured
    if not witness_ok:
        violations.append(
            f"converse witness: hmin={hmin_w:.3f} gap={gap_present} "
            f"zero_member={zero_member} punctured={punctured}"
        )
    passed = not violations
    return CriterionResult(
        "criterion-7",
        "Haar floor vs dual coverage",
        passed,
        f"{len(covering)} covering families all have h >= 2-1e-9; converse "
        f"witness min h {hmin_w:.3f} with punctured gap and atom member at 0"
        if passed
        else "; ".join(violations),
    )


def partner_identities() -> CriterionResult:
    """Kernel identity lattice, partner-measure orthogonality, densities."""
    exact_worst = 0.0
    float_worst = 0.0
    for a in (2, 3, 5, 8):
        for b in (2, 3, 5, 8):
            for n in range(0, 13):
                exact_worst = max(
                    exact_worst, _appendix.kernel_identity_residual(a, b, n)
                )
            for n in range(13, 16):
                float_worst = max(
                    float_worst,
                    _appendix.kernel_identity_residual(float(a), float(b), n),
                )
    cheb_resid = _appendix.chebyshev_partner_residual(12)

    orth_worst = 0.0
    ratio_worst = 0.0
    for a, b in ((2, 5), (5, 5), (8, 5)):
        orth_worst = max(orth_worst, _appendix.mustar_orthogonality(a, b, N=8))
        p = KMParams(float(a), float(b))
        lo = p.gamma2 + 0.15 * (p.gamma1 - p.gamma2)
        hi = p.gamma2 + 0.85 * (p.gamma1 - p.gamma2)
        xs = np.linspace(lo, hi, 25)
        ratio_worst = max(
            ratio_worst,
            float(np.max(np.abs(_appendix.tilde_density_ratio(a, b, xs) - 1.0))),
        )
    passed = (
        exact_worst == 0.0
        and cheb_resid == 0.0
        and float_worst < 1e-12
        and orth_worst <= 1e-7
        and ratio_worst <= 1e-10
    )
    return CriterionResult(
        "criterion-8",
        "reweighted-partner identities",
        passed,
        f"exact lattice residual {exact_worst}; float n<=15 {float_worst:.2e} "
        f"(tol 1e-12); partner orthogonality {orth_worst:.2e} (tol 1e-7); "
        f"density ratio defect {ratio_worst:.2e} (tol 1e-10)",
    )


def complex_scans() -> CriterionResult:
    """Real-only complex structure for the counterexamples; a genuinely
    complex one for the cosh family."""
    step = 1e-2
    problems = []
    for tag, kw in (("modkm", dict(alpha=2, beta=5)), ("convex", dict(eps=0.5))):
        pts, _ = _dual.complex_scan(make_family(tag, **kw), N=400, step=step)
        off = int(np.sum(np.abs(pts.imag) > step)) if pts.size else 0
        if off:
            problems.append(f"{tag}: {off} off-axis survivors")
    pts, _ = _dual.complex_scan(make_family("cosh", a=1.0), N=400, step=step)
    nonreal = pts[np.abs(pts.imag) > step]
    if nonreal.size == 0:
        problems.append("no non-real survivor for the cosh family")
    else:
        b = math.tanh(1.0)
        if not np.all(nonreal.real**2 + (nonreal.imag / b) ** 2 <= 1.0 + 1e-6):
            problems.append("cosh survivors leave the expected ellipse")
    passed = not problems
    return CriterionResult(
        "criterion-9",
        "complex-plane scans",
        passed,
        f"counterexamples confined to the real axis; cosh keeps "
        f"{nonreal.size} points filling the ellipse (semi-axes 1, tanh 1)"
        if passed
        else "; ".join(problems),
    )


CRITERIA = [
    haar_closed_forms,
    counterexample_haar_growth,
    nlp_audits,
    linearization_oracles,
    rescaling_identity,
    dual_geometry,
    haar_floor_composite,
    partner_identities,
    complex_scans,
]

SUITES = {
    "all": CRITERIA,
    "section2": [nlp_audits, linearization_oracles, haar_floor_composite],
    "section3": [
        haar_closed_forms,
        counterexample_haar_growth,
        rescaling_identity,
        dual_geometry,
        complex_scans,
    ],
    "appendix": [partner_identities],
}


def run_suite(name: str) -> list[CriterionResult]:
    """Run one suite serially, results in suite order."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
