"""The package's quantitative claims as nine executable checks.

Each function runs one check end to end at pinned parameters and
returns a :class:`CriterionResult` with a one-line quantitative detail
string.  The CLI verify suites and the acceptance test suite both
dispatch through :data:`CRITERIA` / :data:`SUITES`, so each check has
exactly one implementation -- no drift between the command line and the
tests.

A check takes its families from ``family(tag, **params)``.  One
:func:`run_suite` call hands every check of the suite the same family
table, so each distinct family is built once per run and its coefficient
and Haar caches serve every check; nothing is kept between runs.  A check
called on its own builds its families afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebconnect import measured_floor
from .core import haar_values
from .families import KMParams, beta_for_epsilon, closed_form_max_rel_err, make_family
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

    def __post_init__(self):
        # checks compare numpy floats; keep a plain bool either way
        object.__setattr__(self, "passed", bool(self.passed))

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
    if _measures.measure_of(make_family(tag, **kw)).status == "full"
]

_NLP_FAMILIES = [
    (tag, kw)
    for tag, kw in _CLOSED_FORM_FAMILIES
    if not (tag == "grinspun" and kw.get("c1") == 0.7)
] + [("convex", dict(eps=0.5))]

_EPS_SWEEP = (0.2, 0.5, 0.8)


class _FamilyTable:
    """The families of one run, one instance per distinct spec.

    A spec is the tag and each parameter's name, type and repr, so
    ``modkm(alpha=2, beta=5)`` and ``modkm(alpha=2.0, beta=5.0)`` are two
    families, and so are ``alpha=0.0`` and ``alpha=-0.0``, whatever a
    builder makes of its arguments.  Each is built through
    the module's :func:`make_family` as it stands at build time.  Sharing
    an instance is safe: its caches only grow, and a raise leaves them as
    they were.
    """

    def __init__(self):
        self._built = {}

    def __call__(self, tag: str, **params):
        key = (tag, tuple((k, type(v), repr(v)) for k, v in sorted(params.items())))
        seq = self._built.get(key)
        if seq is None:
            seq = self._built[key] = make_family(tag, **params)
        return seq


def _fold(pick, start, values):
    """The running ``acc = pick(acc, v)`` over ``values`` from ``start``,
    except that a NaN value is returned at once: ``max(0.0, nan)`` is
    0.0, so a plain running max() or min() would pass a NaN measurement.
    """
    acc = start
    for v in values:
        if v != v:
            return v
        acc = pick(acc, v)
    return acc


def haar_closed_forms(family=None) -> CriterionResult:
    """Recurrence-accumulated h(n) vs closed forms, n <= 40, rel 1e-10."""
    family = family or _FamilyTable()
    errs = []
    for tag, kw in _CLOSED_FORM_FAMILIES:
        seq = family(tag, **kw)
        errs.append(closed_form_max_rel_err(seq, haar_values(seq, 40)))
    worst = _fold(max, 0.0, errs)
    passed = worst <= 1e-10
    return CriterionResult(
        "criterion-1",
        "closed-form Haar weights",
        passed,
        f"{len(_CLOSED_FORM_FAMILIES)} families, n<=40, worst rel err "
        f"{worst:.2e} (tol 1e-10)",
    )


def counterexample_haar_growth(family=None) -> CriterionResult:
    """h(1) = 1+eps for both constructions; exponential growth for one."""
    family = family or _FamilyTable()
    defects = []
    growth_ok = True
    for eps in _EPS_SWEEP:
        inner = family("modkm", alpha=2.0, beta=beta_for_epsilon(eps))
        defects.append(abs(haar_values(inner, 1)[1] - (1.0 + eps)))
        convex = family("convex", eps=eps)
        defects.append(abs(convex.haar(1) - (1.0 + eps)))
        h = [convex.haar(n) for n in range(0, 61)]
        if not all(h[n] < h[n + 1] for n in range(0, 60)):
            growth_ok = False
        if not all(h[n] > 4.0 for n in range(2, 61)):
            growth_ok = False
        if not all(h[2 * n + 2] / h[2 * n] > 4.0 for n in range(1, 26)):
            growth_ok = False
    worst = _fold(max, 0.0, defects)
    passed = worst <= 1e-12 and growth_ok
    return CriterionResult(
        "criterion-2",
        "h(1)=1+eps constructions",
        passed,
        f"eps in {_EPS_SWEEP}: |h(1)-(1+eps)| worst {worst:.2e} (tol 1e-12); "
        f"monotone/floor-4/ratio-4 growth {'ok' if growth_ok else 'VIOLATED'}",
    )


def nlp_audits(family=None) -> CriterionResult:
    """Nonnegative linearization where claimed, a negative witness where
    claimed, and the two-term closed-form rows for the cosh family."""
    family = family or _FamilyTable()
    reps = _lin.check_nlps([family(tag, **kw) for tag, kw in _NLP_FAMILIES], N=30)
    all_nonneg = all(rep.is_nonnegative for rep in reps)
    min_ok = _fold(min, 0.0, (rep.min_coeff for rep in reps))
    witness = _lin.check_nlp(family("grinspun", c1=0.7), N=10)
    witness_found = witness.min_coeff < -1e-12

    m, n, k = np.ogrid[1:13, 1:13, :25]
    band = (m <= n) & (k <= m + n)
    defects = []
    for a in (0.5, 1.0):
        tab = _lin.LinearizationTable(family("cosh", a=a), N=12)
        ch = np.array([math.cosh(a * j) for j in range(25)])
        expect = np.where((k == n - m) | (k == n + m),
                          ch[k] / (2.0 * ch[m] * ch[n]), 0.0)
        defects.append(np.abs(tab.coeffs[1:, 1:] - expect)[band])
    row_worst = float(np.max(defects))  # a NaN defect stays NaN
    passed = all_nonneg and witness_found and row_worst <= 1e-12
    return CriterionResult(
        "criterion-3",
        "linearization audits",
        passed,
        f"{len(_NLP_FAMILIES)} families nonneg at m,n<=30 (min {min_ok:.1e}); "
        f"negative witness {witness.min_coeff:.3f} at m,n<=10; "
        f"two-term rows within {row_worst:.2e}",
    )


def _g_defect(tab: _lin.LinearizationTable, T: np.ndarray, h: np.ndarray) -> float:
    """max |g(m, n; k) - h(k) T[m, n, k]| over m, n <= tab.N and k <= m + n,
    in one array pass; NaN if any difference in that band is NaN."""
    N = tab.N
    m, n, k = np.ogrid[: N + 1, : N + 1, : 2 * N + 1]
    # the table holds m <= n; g(m, n; k) = g(n, m; k) mirrors it
    G = np.where(m <= n, tab.coeffs, tab.coeffs.transpose(1, 0, 2))
    D = G - h[: 2 * N + 1] * T[: N + 1, : N + 1, : 2 * N + 1]
    return float(np.max(np.abs(D[k <= m + n])))


def linearization_oracles(family=None) -> CriterionResult:
    """g(m,n;k) vs h(k) * integral P_m P_n P_k dmu, and Gram matrices."""
    family = family or _FamilyTable()
    defects = []
    orth = []
    for tag, kw in _FULL_MEASURE_FAMILIES:
        seq = family(tag, **kw)
        tab = _lin.LinearizationTable(seq, N=12)
        T = _measures.triple_products(seq, 12)
        h = haar_values(seq, 24)
        defects.append(_g_defect(tab, T, h))
        orth.append(_measures.orthogonality_error(seq, N=12))
    worst_g = float(np.max(defects))  # a NaN defect is kept, and fails the check
    worst_orth = _fold(max, 0.0, orth)
    passed = worst_g <= 1e-8 and worst_orth <= 1e-7
    return CriterionResult(
        "criterion-4",
        "quadrature oracles",
        passed,
        f"{len(_FULL_MEASURE_FAMILIES)} families: max |g - h*integral| "
        f"{worst_g:.2e} (tol 1e-8); orthogonality error {worst_orth:.2e} "
        f"(tol 1e-7, atom cases included)",
    )


def rescaling_identity(family=None) -> CriterionResult:
    """Rational closed-form coefficients vs rescaled walk coefficients."""
    family = family or _FamilyTable()
    rat = family("rational25")
    mod = family("modkm", alpha=2, beta=5)
    # c(0) is NaN in both sequences; a NaN from n >= 1 fails the check
    dev = float(
        np.max(np.abs(rat.c_array(200)[1:] - mod.c_array(200)[1:]))
    )
    passed = dev <= 1e-14
    return CriterionResult(
        "criterion-5",
        "rescaling identity",
        passed,
        f"c(n) entrywise deviation {dev:.2e} for n<=200 (tol 1e-14)",
    )


def dual_geometry(family=None) -> CriterionResult:
    """Interval geometry of structure-space estimates per family."""
    family = family or _FamilyTable()
    problems = []
    step = 2e-4

    est = _dual.dual_estimate(family("modkm", alpha=2, beta=5), N=400, grid_step=step)
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
        seq = family("modkm", alpha=2.0, beta=beta_for_epsilon(eps))
        est = _dual.dual_estimate(seq, N=400, grid_step=step)
        cut = _dual.exclusion_intervals(eps)[1][0]
        ivs = est.intervals
        if not (
            len(ivs) == 2
            and abs(ivs[0][1] + cut) <= 2 * step
            and abs(ivs[1][0] - cut) <= 2 * step
        ):
            problems.append(f"eps={eps}: inner endpoints vs +-{cut:.4f}: {ivs}")

    est = _dual.dual_estimate(family("grinspun", c1=0.7), N=400, grid_step=step)
    if tuple(est.members.tolist()) != (-1.0, 1.0):
        problems.append(f"bounded-above-band member set {est.members}")

    conv = family("convex", eps=0.5)
    est = _dual.dual_estimate(conv, N=400, grid_step=1e-3)
    cut = _dual.exclusion_intervals(0.5)[1][0]
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


def haar_floor_composite(family=None) -> CriterionResult:
    """Full dual coverage forces h(n) >= 2; converse failure witnessed."""
    family = family or _FamilyTable()
    covering = 0
    violations = []
    seqs = [family(tag, **kw) for tag, kw in _CLOSED_FORM_FAMILIES]
    estimates = _dual.dual_estimates(seqs, N=400, grid_step=1e-3)
    for (tag, kw), seq, est in zip(_CLOSED_FORM_FAMILIES, seqs, estimates):
        if est.full_interval:
            covering += 1
            hmin, met = measured_floor(seq)
            if not met:
                violations.append(f"{seq!r}: min h = {hmin}")
        if (tag, kw) == ("modkm", dict(alpha=8, beta=5)):
            # the converse witness: its profile and h(1..50) serve both checks
            witness, (hmin_w, met_w) = est, measured_floor(seq)

    gap_present = len(witness.intervals) > 1
    zero_member = any(a <= 0.0 <= b for a, b in witness.intervals)
    punctured = any(
        0.0 < x < 0.13 for x in witness.xs[witness.member_mask]
    )
    witness_ok = met_w and gap_present and zero_member and not punctured
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
        f"{covering} covering families all have h >= 2-1e-9; converse "
        f"witness min h {hmin_w:.3f} with punctured gap and atom member at 0"
        if passed
        else "; ".join(violations),
    )


def partner_identities(family=None) -> CriterionResult:
    """Kernel identity lattice, partner-measure orthogonality, densities.

    The appendix sequences are built in :mod:`appendixcheck`; ``family``
    goes unused."""
    lattice = [(a, b) for a in (2, 3, 5, 8) for b in (2, 3, 5, 8)]
    exact_worst = _fold(max, 0.0, (
        r for a, b in lattice
        for r in _appendix.kernel_identity_residuals(a, b, range(0, 13))
    ))
    float_worst = _fold(max, 0.0, (
        r for a, b in lattice
        for r in _appendix.kernel_identity_residuals(float(a), float(b), range(13, 16))
    ))
    cheb_resid = _appendix.chebyshev_partner_residual(12)

    orth = []
    ratios = []
    for a, b in ((2, 5), (5, 5), (8, 5)):
        orth.append(_appendix.mustar_orthogonality(a, b, N=8))
        p = KMParams(float(a), float(b))
        lo = p.gamma2 + 0.15 * (p.gamma1 - p.gamma2)
        hi = p.gamma2 + 0.85 * (p.gamma1 - p.gamma2)
        xs = np.linspace(lo, hi, 25)
        ratios.append(
            float(np.max(np.abs(_appendix.tilde_density_ratio(a, b, xs) - 1.0)))
        )
    orth_worst = _fold(max, 0.0, orth)
    ratio_worst = _fold(max, 0.0, ratios)
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


def complex_scans(family=None) -> CriterionResult:
    """Real-only complex structure for the counterexamples; a genuinely
    complex one for the cosh family."""
    family = family or _FamilyTable()
    step = 1e-2
    problems = []
    for tag, kw in (("modkm", dict(alpha=2, beta=5)), ("convex", dict(eps=0.5))):
        pts, _ = _dual.complex_scan(family(tag, **kw), N=400, step=step)
        off = int(np.sum(np.abs(pts.imag) > step)) if pts.size else 0
        if off:
            problems.append(f"{tag}: {off} off-axis survivors")
    pts, _ = _dual.complex_scan(family("cosh", a=1.0), N=400, step=step)
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
    """Run one suite serially, results in suite order; its checks share
    one family table."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    family = _FamilyTable()
    return [fn(family) for fn in SUITES[name]]
