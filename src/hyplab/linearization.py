"""Product linearization tables and the induced hypergroup operations.

For a coefficient sequence with basis (P_n) the products expand as

    P_m P_n = sum_{k=|m-n|}^{m+n} g(m, n; k) P_k ,

with rows summing to 1 (evaluate at x = 1).  Nonnegativity of every
g(m, n; k) -- "NLP" -- is what turns the index set into a discrete
hypergroup: translation, convolution and the l1(h) norm below are the
standard hypergroup structure built from these coefficients.  They take
finitely supported sequences on the index set as plain arrays (entry k
at degree k, or anything ``np.asarray`` accepts) and return arrays.

Rows are computed by induction on m,

    P_{m+1} P_n = (x (P_m P_n) - c(m) P_{m-1} P_n) / a(m),

where multiplication by x acts termwise through the three-term recurrence
x P_k = a(k) P_{k+1} + c(k) P_{k-1} (and x P_0 = P_1; with P_{-1} = 0 the
step from m = 0 is the same).  Rows of one n depend only on each other, so
a block of consecutive degrees n advances together: each step of m is one
update of a zero-padded 2-D array whose row i holds g(m, n0 + i; .) and
whose columns are the degrees.  A table keeps that layout for all m and n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import CoeffSequence, haar_values

__all__ = [
    "DegreeOverflowError",
    "LinearizationTable",
    "NLPReport",
    "SzwarcReport",
    "check_nlp",
    "convolve",
    "l1h_norm",
    "linearize",
    "szwarc_criterion",
    "translate",
]

#: A linearization coefficient below -NLP_TOL is a genuine negative.
NLP_TOL = 1e-12
#: Degree to which :func:`szwarc_criterion` checks c(n).
SZWARC_N = 200


class DegreeOverflowError(IndexError):
    """A linearization row beyond the table's degree bound was requested."""


_BLOCK = 32  # degrees n per block: the rows of one block share each step


def _block_rows(c: np.ndarray, a: np.ndarray, n0: int, n1: int):
    """Yield (m, first, rows) for m = 0 .. n1 - 1 over the degrees n0 <= n < n1.

    ``rows[i, k]`` is g(m, n0 + i; k) for the live rows i >= first (those
    with n >= m); column k is degree k, zero outside the band.  Each step
    allocates one array and only the two latest are held.  Every step,
    m = 0 included, is the one update below: ``c[0]`` must read 0 and
    ``a[0]`` 1, so the identity block may stand in for P_{-1} P_n = 0.
    Every entry takes the elementwise operations, in the order, of the
    recurrence run for one n alone; the terms added here that it leaves
    out are exact zeros, so each row is bitwise what that run gives.
    """
    B, W = n1 - n0, 2 * n1 - 1
    ns = np.arange(n0, n1)
    r_cur = np.zeros((B, W))
    r_cur[ns - n0, ns] = 1.0
    r_prev = r_cur  # read only times c(0) = 0
    yield 0, 0, r_cur
    for m in range(n1 - 1):
        first = max(0, m + 1 - n0)
        # row m + 1 of the live degrees can be nonzero at degrees lo .. hi-1
        lo, hi = n0 + first - m - 1, n1 + m + 1
        nxt = np.zeros((B, W))
        out, cur = nxt[first:, lo:hi], r_cur[first:]
        out[:, 1:] += a[lo : hi - 1] * cur[:, lo : hi - 1]
        out[:, :-1] += c[lo + 1 : hi] * cur[:, lo + 1 : hi]
        out -= c[m] * r_prev[first:, lo:hi]
        out /= a[m]
        r_prev, r_cur = r_cur, nxt
        yield m + 1, first, r_cur


def _coeffs(seq: CoeffSequence, N: int):
    """c(0..2N) and a(0..2N): every coefficient the rows g(m, n) with
    m, n <= N read, with c(0) = 0 (P_{-1} = 0) and a(0) = 1."""
    if N < 0:
        raise ValueError(f"table bound must be >= 0, got {N}")
    c = seq.c_array(max(2 * N, 1))
    c[0] = 0.0
    return c, seq.a_array(max(2 * N, 1))


def _blocks(seq: CoeffSequence, N: int) -> list:
    """(n0, n1, steps) per block n0 <= n < n1 of the degrees 0 .. N, in
    order, with ``steps`` from :func:`_block_rows`; the coefficients are
    read, and a bad bound refused, on the call."""
    c, a = _coeffs(seq, N)
    bounds = [(n0, min(n0 + _BLOCK, N + 1)) for n0 in range(0, N + 1, _BLOCK)]
    return [(n0, n1, _block_rows(c, a, n0, n1)) for n0, n1 in bounds]


class LinearizationTable:
    """All linearization rows g(m, n; .) for 0 <= m <= n <= N.

    ``coeffs[m, n, k]`` is g(m, n; k) for m <= n, in the zero-padded
    layout of the block engine: shape (N + 1, N + 1, 2N + 1), zero past
    k = m + n and below the diagonal m > n (g is symmetric in m and n;
    read those through :meth:`row` or :meth:`g`).
    """

    def __init__(self, seq: CoeffSequence, N: int):
        self.N = N
        blocks = _blocks(seq, N)
        self.coeffs = np.zeros((N + 1, N + 1, 2 * N + 1))
        for n0, n1, steps in blocks:
            for m, first, rows in steps:
                self.coeffs[m, n0 + first : n1, : 2 * n1 - 1] = rows[first:]

    def row(self, m: int, n: int) -> np.ndarray:
        """The coefficient row of P_m P_n (length m + n + 1), a view of
        :attr:`coeffs`."""
        if m > n:
            m, n = n, m
        if m < 0 or n > self.N:
            raise DegreeOverflowError(
                f"row ({m}, {n}) outside table bound N={self.N}"
            )
        return self.coeffs[m, n, : m + n + 1]

    def g(self, m: int, n: int, k: int) -> float:
        """Linearization coefficient g(m, n; k); zero outside the band."""
        row = self.row(m, n)
        if k < 0 or k >= row.size:
            return 0.0
        return float(row[k])


def linearize(seq: CoeffSequence, m: int, n: int) -> np.ndarray:
    """Single linearization row g(m, n; .) as an array of length m+n+1.

    Only the rows of degree max(m, n) are generated, up to the one asked for.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    lo, hi = min(m, n), max(m, n)
    c, a = _coeffs(seq, hi)
    _, _, rows = next(islice(_block_rows(c, a, hi, hi + 1), lo, None))
    return rows[0, : lo + hi + 1].copy()


@dataclass(frozen=True)
class NLPReport:
    """Outcome of a nonnegative-linearization audit up to degree N."""

    is_nonnegative: bool
    min_coeff: float
    min_witness: tuple[int, int, int]
    row_sum_max_error: float
    endpoints_positive: bool
    N: int
    tol: float


def check_nlp(seq: CoeffSequence, N: int = 30) -> NLPReport:
    """Audit all rows with m, n <= N for nonnegativity and row sums.

    A coefficient below ``-NLP_TOL`` counts as a genuine negative (the
    audit tolerance separates true failures, which are order one in
    practice, from rounding noise).  The extreme band entries
    g(m,n;|m-n|) and g(m,n;m+n) are additionally required to be above
    ``NLP_TOL``.  The report carries the tolerance as ``tol``.

    Each step m of a block n0 <= n < n1 is audited with a fixed number of
    array calls.  numpy's pairwise sum depends on the length, so every row
    sum must run over exactly the m + n + 1 entries of its row; one
    ``np.add.reduceat`` over the flat (B, W) step array gives them all.
    The segment of row i >= 1 starts one element early, at column
    W - 1 = 2 n1 - 2 of row i - 1.  That column is always 0.0: rows of a
    block are zero outside their band (all zero before they are live), and
    the band of a row n < n1 - 1 ends at degree m + n <= 2 n1 - 3.  reduceat's first element plus the
    pairwise sum of the rest is then bitwise ``np.add.reduce`` of the row.
    Row 0 of the block has no zero before it and is summed on its own.
    """
    min_coeff = np.inf
    min_witness = (0, 0, 0)
    row_sum_max_error = 0.0
    endpoints_positive = True
    for n0, n1, steps in _blocks(seq, N):
        B, W = n1 - n0, 2 * n1 - 1
        rix = np.arange(B)
        # reduceat bounds of row i at step m: [i W - 1, i W + n0 + i + 1 + m)
        bounds = np.stack((rix * W - 1, rix * W + n0 + rix + 1), axis=1)
        # per (n, m) of the block: the row sum, the two band ends, the band
        # minimum and the place of its first occurrence in the band; entries
        # of rows not yet live keep values that pass every check
        sums = np.ones((B, n1))
        ends = np.full((2, B, n1), np.inf)
        band_min = np.full((B, n1), np.inf)
        band_k = np.zeros((B, n1), dtype=np.intp)
        for m, first, rows in steps:
            flat = rows.reshape(-1)
            if first == 0:
                sums[0, m] = np.add.reduce(flat[: m + n0 + 1])
            lo = max(first, 1)
            if lo < B:
                cuts = (bounds[lo:] + (0, m)).ravel()
                # the last row's segment ends where the sliced array does
                sums[lo:, m] = np.add.reduceat(flat[: cuts[-1]], cuts[:-1])[::2]
            # degrees n - m, n - m + 2, ..., n + m of each live row n: row i
            # starts at flat index i W + (n0 + i - m)
            band = as_strided(
                flat[(W + 1) * first + n0 - m :],
                shape=(B - first, m + 1),
                strides=((W + 1) * flat.itemsize, 2 * flat.itemsize),
                writeable=False,
            )
            k = band.argmin(axis=1)  # a row's first minimum, or its first NaN
            band_min[first:, m] = band[rix[: B - first], k]
            band_k[first:, m] = k
            ends[0, first:, m] = band[:, 0]
            ends[1, first:, m] = band[:, -1]
        # a NaN sum is never adopted
        err = np.fmax.reduce(np.abs(sums - 1.0), axis=None)
        if err > row_sum_max_error:
            row_sum_max_error = float(err)
        if not (ends > NLP_TOL).all():
            endpoints_positive = False
        # a NaN minimum is never adopted; the first strict minimum in n-outer,
        # m-inner order is the one a running `<` over the rows would keep
        band_min[np.isnan(band_min)] = np.inf
        j = int(band_min.argmin())
        if band_min.flat[j] < min_coeff:
            i, m = divmod(j, n1)
            min_coeff = float(band_min.flat[j])
            min_witness = (m, n0 + i, n0 + i - m + 2 * int(band_k.flat[j]))
    return NLPReport(
        is_nonnegative=bool(min_coeff >= -NLP_TOL),
        min_coeff=min_coeff,
        min_witness=min_witness,
        row_sum_max_error=row_sum_max_error,
        endpoints_positive=endpoints_positive,
        N=N,
        tol=NLP_TOL,
    )


# ---------------------------------------------------------------------------
# hypergroup operations


def _as_values(f) -> np.ndarray:
    """f(0..K) as an array; an empty or multi-dimensional f is rejected."""
    v = np.atleast_1d(np.asarray(f))
    if v.size == 0:
        raise ValueError("a hypergroup sequence needs at least f(0), got none")
    if v.ndim > 1:
        raise ValueError(f"a hypergroup sequence is one-dimensional, got shape {v.shape}")
    return v


def l1h_norm(seq: CoeffSequence, f) -> float:
    """The l1(h) norm sum_k |f(k)| h(k)."""
    v = _as_values(f)
    h = haar_values(seq, v.size - 1)
    return float(np.sum(np.abs(v) * h))


def translate(seq: CoeffSequence, f, n: int) -> np.ndarray:
    """Hypergroup translate T_n f(m) = sum_k g(m, n; k) f(k), as an array of
    dtype ``result_type(f, float)``.

    With K the top degree of ``f``, one block of the degrees n .. n + K
    runs to step n: at step m <= n its row 0 is g(m, n), and at step n its
    row i is g(n, n + i).
    """
    v = _as_values(f)
    if n < 0:
        raise ValueError(f"translate needs a degree n >= 0, got n={n}")
    K = v.size - 1
    c, a = _coeffs(seq, K + n)
    out = np.zeros(K + n + 1, dtype=np.result_type(v, float))
    for m, _, rows in islice(_block_rows(c, a, n, n + K + 1), n + 1):
        width = min(m + n + 1, v.size)
        out[m] = np.dot(rows[0, :width], v[:width])
    for i in range(1, K + 1):
        width = min(2 * n + i + 1, v.size)
        out[n + i] = np.dot(rows[i, :width], v[:width])
    return out


def convolve(seq: CoeffSequence, f, g) -> np.ndarray:
    """Hypergroup convolution (f * g)(n) = sum_k (T_n f)(k) g(k) h(k), as an
    array of dtype ``result_type(f, g, float)``.

    Only the (T_n f)(k) with k <= Kg, the top degree of ``g``, are formed,
    from the rows g(k, n) of one table to degree Kf + Kg.
    """
    fv, gv = _as_values(f), _as_values(g)
    Kf, Kg = fv.size - 1, gv.size - 1
    table = LinearizationTable(seq, Kf + Kg)
    weights = gv * haar_values(seq, Kg)
    out = np.zeros(Kf + Kg + 1, dtype=np.result_type(fv, gv, float))
    tf = np.empty(Kg + 1, dtype=np.result_type(fv, float))
    for n in range(out.size):
        width = min(Kf + n + 1, Kg + 1)
        for k in range(width):
            row = table.row(k, n)
            w = min(row.size, fv.size)
            tf[k] = np.dot(row[:w], fv[:w])
        out[n] = np.dot(tf[:width], weights[:width])
    return out


# ---------------------------------------------------------------------------
# sufficient criterion


@dataclass(frozen=True)
class SzwarcReport:
    """Outcome of the monotonicity/boundedness sufficient criterion."""

    applies: bool
    violated_at: tuple[str, int] | None
    N: int


def szwarc_criterion(seq: CoeffSequence) -> SzwarcReport:
    """Check c(n) <= 1/2 with both parity subsequences nondecreasing.

    Satisfying the criterion on every n (it is checked here for
    n <= ``SZWARC_N``, reported as ``N``) guarantees nonnegative
    linearization of products.  ``violated_at`` names the first offending
    index and the reason: ``("bound", n)`` or ``("monotone", n)``.
    """
    N = SZWARC_N
    slack = 1e-14
    c = seq.c_array(N)
    for n in range(1, N + 1):
        if c[n] > 0.5 + slack:
            return SzwarcReport(False, ("bound", n), N)
        if n >= 3 and c[n] < c[n - 2] - slack:
            return SzwarcReport(False, ("monotone", n), N)
    return SzwarcReport(True, None, N)
