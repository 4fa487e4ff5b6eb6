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
    UnsupportedFamilyError,
    _degree,
    haar_values,
)
from . import dual as _dual
from . import measures as _measures

__all__ = [
    "HAAR_FLOOR",
    "PROFILE_DEGREE",
    "connection_coeffs",
    "connection_row_checks",
    "connection_nonneg",
    "CriterionReport",
    "criterion_grid",
    "criterion_report",
    "measured_floor",
]

#: The floor h(n) >= 2 with a relative rounding allowance of 1e-9.
HAAR_FLOOR = 2.0 * (1.0 - 1e-9)

#: Degree to which :func:`criterion_report` profiles its grid.
PROFILE_DEGREE = 400

_GRID_STEP = 1e-3  # of criterion_grid

#: A connection coefficient below -CONNECTION_TOL counts as negative.
CONNECTION_TOL = 1e-12


def connection_coeffs(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """Lower-triangular matrix C with C[n, k] the T_k-coefficient of P_n.

    Rows are generated by running the defining recurrence inside the
    Chebyshev basis: multiplication by x maps a coefficient row r to

        (x r)[0] = r[1] / 2,
        (x r)[1] = r[0] + r[2] / 2,
        (x r)[j] = (r[j-1] + r[j+1]) / 2     (j >= 2),

    after which P_{n+1} = (x P_n - c(n) P_{n-1}) / a(n).  Row n + 1 is
    computed over its n + 2 possibly nonzero entries only; C carries two
    zero columns past nmax, so r[n + 2] reads 0 in the last row.
    """
    nmax = _degree(nmax, "nmax")
    C = np.zeros((nmax + 1, nmax + 3))
    C[0, 0] = 1.0
    if nmax >= 1:
        C[1, 1] = 1.0
    # rows of sign-changing families may overflow; callers test isfinite
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nmax):
            r, xr = C[n], C[n + 1, :n + 2]
            xr[0] = 0.5 * r[1]
            xr[1] = r[0] + 0.5 * r[2]
            xr[2:] = 0.5 * r[1:n + 1] + 0.5 * r[3:n + 3]
            xr -= seq.c(n) * C[n - 1, :n + 2]
            xr /= seq.a(n)
    return C[:, :nmax + 1]


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
    # prod_{k=1}^{n-1} a(k) = mant * 2**exp, so no factor leaves float range
    mant, exp = 1.0, 0
    for n in range(1, rows):
        lead = math.ldexp(C[n, n] * mant, n - 1 + exp)
        lead_defect = max(lead_defect, abs(lead - 1.0))
        mant, shift = math.frexp(mant * seq.a(n))
        exp += shift

    ks = np.arange(nmax + 1)
    wrong = (ks[:rows, None] + ks[None, :]) % 2 == 1
    parity_defect = float(np.max(np.abs(C[wrong]))) if nmax >= 1 else 0.0
    return {
        "sum_to_one": sum_defect,
        "leading": float(lead_defect),
        "parity": parity_defect,
        "finite_rows": rows,
    }


def connection_nonneg(seq: CoeffSequence, nmax: int):
    """(bool, worst entry): are all connection coefficients of the rows
    n <= nmax >= -CONNECTION_TOL?

    Rows that overflow to inf or NaN fail the check; the worst entry is
    the smallest finite one, so it stays a number.
    """
    C = connection_coeffs(seq, nmax)
    finite = np.isfinite(C)
    worst = float(C[finite].min())
    return bool(finite.all()) and worst >= -CONNECTION_TOL, worst


@dataclass
class CriterionReport:
    """Outcome of the sufficient criteria for the Haar floor h(n) >= 2.

    ``connection_nonneg`` and ``dual_full_interval`` imply the floor on
    their own; ``uniform_bound``, ``support_symmetric_interval``,
    ``c_convergent`` and ``nevai_class`` imply it only together with
    nonnegative linearization, so they count toward
    ``haar_floor_predicted`` only when ``nlp_verified`` is True.
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
    haar_floor_predicted: bool
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
            f"  floor h(n) >= 2 predicted:                  {mark(self.haar_floor_predicted)}",
            f"  measured min h(n): {self.haar_min:.6g} (floor met: {mark(self.haar_floor_met)})",
            f"  prediction consistent with measurement:     {mark(self.consistent)}",
        ]


def _tail_convergent(read, N: int) -> tuple[bool, float, float]:
    """(converged, deviation, limit) of the array ``read(2N)`` on [N, 2N].

    The deviation is max |v(n) - v(2N)| over N <= n <= 2N, and the tail
    counts as convergent within 1e-8; the limit is v(2N).  A coefficient
    outside its domain gives (False, inf, nan).
    """
    try:
        v = read(2 * N)
    except CoefficientDomainError:
        return False, math.inf, math.nan
    ref = v[2 * N]
    dev = float(np.max(np.abs(v[N:] - ref)))
    return dev <= 1e-8, dev, float(ref)


def criterion_grid() -> np.ndarray:
    """The fixed grid of :func:`criterion_report`'s dual entries:
    ``arange(-1, 1 + 5e-4, 1e-3)``, 2001 points."""
    return np.arange(-1.0, 1.0 + 0.5 * _GRID_STEP, _GRID_STEP)


def measured_floor(seq: CoeffSequence) -> tuple[float, bool]:
    """(min h(1..50), whether it meets ``HAAR_FLOOR``)."""
    haar_min = float(np.min(haar_values(seq, 50)[1:]))
    return haar_min, haar_min >= HAAR_FLOOR


def criterion_report(
    seq: CoeffSequence,
    *,
    nlp_verified: bool | None = None,
    profile: np.ndarray | None = None,
) -> CriterionReport:
    """Evaluate every implemented sufficient criterion for h(n) >= 2.

    ``nlp_verified`` should be the outcome of a linearization check (or
    None when unknown); it gates the criteria that assume nonnegative
    linearization.  The sizes are fixed: connection rows n <= 40, the
    profile below, the catalogued orthogonalization measure for the
    support entry (None when it is not catalogued), c(n) and alpha(n) on
    [500, 1000] at tolerance 1e-8 for the tail entries, and h(1..50) for
    the measured minimum (:func:`measured_floor`).

    The profile is ``dual.max_abs_profile(seq, criterion_grid(),
    PROFILE_DEGREE)``: ``dual_full_interval`` is the ``full_interval`` of its
    ``dual.classify_profile``, and ``uniform_bound`` (no point past
    ``DIVERGE_THRESHOLD``) and ``profile_sup`` read frozen non-members.  A
    caller that has profiled the grid together with other points passes its
    slice, which is bitwise the profile of the grid alone, as ``profile``.
    """
    conn_ok, conn_worst = connection_nonneg(seq, 40)

    xs = criterion_grid()
    if profile is None:
        profile = _dual.max_abs_profile(seq, xs, PROFILE_DEGREE)
    dual_full = _dual.classify_profile(
        xs, profile, PROFILE_DEGREE, _GRID_STEP, _dual.MEMBER_TOL).full_interval
    uniform = not np.any(profile > _dual.DIVERGE_THRESHOLD)
    sup_measured = float(np.max(profile))

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

    c_conv, c_dev, _ = _tail_convergent(seq.c_array, 500)
    nevai, a_dev, a_ref = _tail_convergent(seq.alpha_array, 500)

    nevai_limit: bool | None = None
    if c_conv and nevai:
        b = 2.0 * a_ref
        lim_c = seq.c(1000)
        target = (1.0 - math.sqrt(max(0.0, 1.0 - b * b))) / 2.0
        nevai_limit = abs(lim_c - target) <= 1e-6

    nlp_gated = bool(nlp_verified) and (
        uniform or bool(supp_symmetric) or c_conv or nevai
    )
    predicted = conn_ok or dual_full or nlp_gated

    haar_min, floor_met = measured_floor(seq)
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
        haar_floor_predicted=predicted,
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
