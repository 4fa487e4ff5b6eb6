"""Chebyshev connection coefficients and boundedness criteria.

Every sequence here expands against Chebyshev polynomials of the first
kind as

    P_n = sum_{k=0}^{n} C_n(k) T_k,

with C_n(k) = 0 unless k and n share parity.  Two structural identities
pin the rows down: the coefficients of each row sum to 1 (both sides
equal 1 at x = 1), and the leading coefficient satisfies

    C_n(n) * 2^(n-1) * prod_{k=1}^{n-1} a(k) = 1,

because both sides scale the monomial x^n.  Nonnegative rows are a
sufficient condition for the Haar-weight floor h(n) >= 2 that does not
require nonnegative linearization; the other sufficient conditions
(uniform boundedness, symmetric-interval support, convergent c(n),
Nevai-class recurrence data) do require it, and :func:`criterion_report`
keeps the two groups apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoeffSequence,
    CoefficientDomainError,
    alpha_array,
    eval_basis,
    eval_basis_grid,
    haar_values,
)
from . import dual as _dual
from . import measures as _measures
from .families import UnsupportedFamilyError

__all__ = [
    "connection_coeffs",
    "connection_row_checks",
    "connection_nonneg",
    "CriterionReport",
    "criterion_report",
    "minimax_probe",
]


def connection_coeffs(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """Lower-triangular matrix C with C[n, k] the T_k-coefficient of P_n.

    Rows are generated by running the defining recurrence inside the
    Chebyshev basis: multiplication by x maps a coefficient row r to

        (x r)[0] = r[1] / 2,
        (x r)[1] = r[0] + r[2] / 2,
        (x r)[j] = (r[j-1] + r[j+1]) / 2     (j >= 2),

    after which P_{n+1} = (x P_n - c(n) P_{n-1}) / a(n).
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    C = np.zeros((nmax + 1, nmax + 1))
    C[0, 0] = 1.0
    if nmax == 0:
        return C
    C[1, 1] = 1.0
    for n in range(1, nmax):
        r = np.append(C[n], (0.0, 0.0))  # r[nmax+1] = r[nmax+2] = 0
        xr = np.zeros(nmax + 1)
        # rows of sign-changing families may overflow; callers test isfinite
        with np.errstate(over="ignore", invalid="ignore"):
            xr[0] = 0.5 * r[1]
            xr[1] = r[0] + 0.5 * r[2]
            xr[2:n + 2] = 0.5 * r[1:n + 1] + 0.5 * r[3:n + 3]
            C[n + 1] = (xr - seq.c(n) * C[n - 1]) / seq.a(n)
    return C


def connection_row_checks(seq: CoeffSequence, nmax: int) -> dict:
    """Residuals of the two structural identities over the finite rows.

    Returns ``{"sum_to_one": ..., "leading": ..., "parity": ...,
    "finite_rows": ...}``: the largest row-sum defect relative to the
    row's own scale (rows of sign-changing families grow huge while still
    summing to 1), the largest relative defect of the leading-coefficient
    identity, and the largest wrong-parity entry, each taken over the
    ``finite_rows`` leading rows whose entries are all finite (rows past
    an overflow are left out, so every residual stays a number).
    """
    C = connection_coeffs(seq, nmax)
    finite = np.isfinite(C).all(axis=1)
    rows = nmax + 1 if finite.all() else int(np.argmin(finite))
    C = C[:rows]
    scale = np.maximum(1.0, np.max(np.abs(C), axis=1))
    sum_defect = float(np.max(np.abs(C.sum(axis=1) - 1.0) / scale))

    lead_defect = 0.0
    prod_a = 1.0  # prod_{k=1}^{n-1} a(k)
    for n in range(1, rows):
        lead = C[n, n] * 2.0 ** (n - 1) * prod_a
        lead_defect = max(lead_defect, abs(lead - 1.0))
        prod_a *= seq.a(n)

    ks = np.arange(nmax + 1)
    wrong = (ks[:rows, None] + ks[None, :]) % 2 == 1
    parity_defect = float(np.max(np.abs(C[wrong]))) if nmax >= 1 else 0.0
    return {
        "sum_to_one": sum_defect,
        "leading": float(lead_defect),
        "parity": parity_defect,
        "finite_rows": rows,
    }


def connection_nonneg(seq: CoeffSequence, nmax: int, tol: float = 1e-12):
    """(bool, worst entry): are all connection coefficients >= -tol?

    Rows that overflow to inf or NaN fail the check; the worst entry is
    the smallest finite one, so it stays a number.
    """
    C = connection_coeffs(seq, nmax)
    finite = np.isfinite(C)
    worst = float(C[finite].min())
    return bool(finite.all()) and worst >= -tol, worst


@dataclass
class CriterionReport:
    """Outcome of the sufficient criteria for the Haar floor h(n) >= 2.

    ``connection_nonneg`` and ``dual_full_interval`` imply the floor on
    their own; ``uniform_bound``, ``support_symmetric_interval``,
    ``c_convergent`` and ``nevai_class`` imply it only together with
    nonnegative linearization, so they count toward ``predicted`` only
    when ``nlp_verified`` is True.
    """

    family: str
    nlp_verified: bool | None
    connection_nonneg: bool
    dual_full_interval: bool
    uniform_bound: bool
    support_symmetric_interval: bool | None
    c_convergent: bool
    nevai_class: bool
    nevai_limit_consistent: bool | None
    predicted: bool
    haar_min: float
    haar_floor_met: bool
    consistent: bool
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        def mark(v):
            return "?" if v is None else ("yes" if v else "no")

        return [
            f"family: {self.family}",
            f"  nonnegative linearization assumed/verified: {mark(self.nlp_verified)}",
            f"  connection coefficients nonnegative:        {mark(self.connection_nonneg)}",
            f"  dual covers the full interval:              {mark(self.dual_full_interval)}",
            f"  uniformly bounded on the interval:          {mark(self.uniform_bound)}",
            f"  support is a symmetric interval:            {mark(self.support_symmetric_interval)}",
            f"  c(n) convergent:                            {mark(self.c_convergent)}",
            f"  Nevai-class recurrence data:                {mark(self.nevai_class)}",
            f"  limit identity c-vs-support edge:           {mark(self.nevai_limit_consistent)}",
            f"  floor h(n) >= 2 predicted:                  {mark(self.predicted)}",
            f"  measured min h(n): {self.haar_min:.6g} (floor met: {mark(self.haar_floor_met)})",
            f"  prediction consistent with measurement:     {mark(self.consistent)}",
        ]


def _c_tail_convergent(seq: CoeffSequence, N: int, tol: float) -> tuple[bool, float]:
    try:
        ref = seq.c(2 * N)
        dev = max(abs(seq.c(n) - ref) for n in range(N, 2 * N + 1))
    except CoefficientDomainError:
        return False, math.inf
    return dev <= tol, dev


def _alpha_tail_convergent(seq: CoeffSequence, N: int, tol: float) -> tuple[bool, float, float]:
    try:
        al = alpha_array(seq, 2 * N)
    except CoefficientDomainError:
        return False, math.inf, math.nan
    ref = al[2 * N]
    dev = float(np.max(np.abs(al[N:] - ref)))
    return dev <= tol, dev, float(ref)


def criterion_report(
    seq: CoeffSequence,
    *,
    nlp_verified: bool | None = None,
    nmax_conn: int = 40,
    profile_N: int = 400,
    profile_step: float = 1e-3,
    profile_tol: float = 1e-9,
    haar_nmax: int = 50,
    tail_N: int = 500,
    tail_tol: float = 1e-8,
) -> CriterionReport:
    """Evaluate every implemented sufficient criterion for h(n) >= 2.

    ``nlp_verified`` should be the outcome of a linearization check (or
    None when unknown); it gates the criteria that assume nonnegative
    linearization.  The dual-coverage and uniform-boundedness entries
    come from a grid profile of max_n |P_n(x)|, the support entry from
    the catalogued orthogonalization measure (None when the measure is
    not catalogued), and the tail entries from direct coefficient
    comparisons on [tail_N, 2 tail_N].
    """
    conn_ok, conn_worst = connection_nonneg(seq, nmax_conn)

    xs = np.arange(-1.0, 1.0 + 0.5 * profile_step, profile_step)
    prof, dvg = _dual._profile(seq, xs, profile_N, _dual.DIVERGE_THRESHOLD)
    dual_full = bool(np.all(prof <= 1.0 + profile_tol))
    uniform = bool(np.all(dvg == 0))
    sup_measured = float(np.max(prof))

    supp_symmetric: bool | None
    try:
        mspec = _measures.measure_of(seq)
    except UnsupportedFamilyError:
        mspec = None
    if mspec is None or mspec.status != "full":
        supp_symmetric = None
    else:
        supp_symmetric = (
            len(mspec.pieces) == 1
            and mspec.pieces[0].a == 0.0
            and not mspec.atoms
        )

    c_conv, c_dev = _c_tail_convergent(seq, tail_N, tail_tol)
    nevai, a_dev, a_ref = _alpha_tail_convergent(seq, tail_N, tail_tol)

    nevai_limit: bool | None = None
    if c_conv and nevai:
        b = 2.0 * a_ref
        lim_c = seq.c(2 * tail_N)
        target = (1.0 - math.sqrt(max(0.0, 1.0 - b * b))) / 2.0
        nevai_limit = abs(lim_c - target) <= 1e-6

    nlp_gated = bool(nlp_verified) and (
        uniform or bool(supp_symmetric) or c_conv or nevai
    )
    predicted = conn_ok or dual_full or nlp_gated

    h = haar_values(seq, haar_nmax)
    haar_min = float(np.min(h[1:]))
    floor_met = haar_min >= 2.0 * (1.0 - 1e-9)
    consistent = (not predicted) or floor_met

    return CriterionReport(
        family=seq.family_tag,
        nlp_verified=nlp_verified,
        connection_nonneg=conn_ok,
        dual_full_interval=dual_full,
        uniform_bound=uniform,
        support_symmetric_interval=supp_symmetric,
        c_convergent=c_conv,
        nevai_class=nevai,
        nevai_limit_consistent=nevai_limit,
        predicted=predicted,
        haar_min=haar_min,
        haar_floor_met=floor_met,
        consistent=consistent,
        details={
            "connection_worst_entry": conn_worst,
            "profile_sup": sup_measured,
            "c_tail_deviation": c_dev,
            "alpha_tail_deviation": a_dev,
            "alpha_tail_value": a_ref,
        },
    )


def minimax_probe(seq: CoeffSequence, n: int, grid: int = 20001, refine: int = 60):
    """Estimate sup_{[-1,1]} of the monic normalization of P_n.

    Scans a uniform grid, then golden-section refines around the five
    largest local maxima of the absolute value.  Returns (sup_estimate,
    2^(1-n)); the first is always >= the second for every admissible
    coefficient sequence (no monic polynomial beats the rescaled
    Chebyshev minimax).
    """
    if n < 1:
        raise ValueError("minimax probe needs n >= 1")
    xs = np.linspace(-1.0, 1.0, grid)
    vals = np.abs(eval_basis_grid(seq, n, xs, norm="monic")[n])

    def f(x: float) -> float:
        return abs(eval_basis(seq, n, x, norm="monic").values[n])

    interior = np.zeros(grid, dtype=bool)
    interior[1:-1] = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    interior[0] = vals[0] >= vals[1]
    interior[-1] = vals[-1] >= vals[-2]
    cand = np.flatnonzero(interior)
    cand = cand[np.argsort(vals[cand])[::-1][:5]]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = float(np.max(vals))
    h = xs[1] - xs[0]
    for i in cand:
        a = max(-1.0, xs[i] - h)
        b = min(1.0, xs[i] + h)
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(refine):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = f(d)
        best = max(best, fc, fd)
    return best, 2.0 ** (1 - n)
