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
all the degrees n of a call advance together.  g(m, n; k) = 0 unless
k = n - m + 2j with 0 <= j <= m, so a step stores only that parity band:
row i of one 2-D array holds g(m, n; n - m + 2j) of the i-th live degree
n >= m at column j.  Readers spread it into zero-padded rows wherever a
sum or a dot product must see the full row.  Sequences step together
too: the coefficients of F sequences stacked on a leading axis give
bands with that axis, and the audit :func:`check_nlps` steps F families
in one pass, each report bitwise the one-family :func:`check_nlp`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import CoeffSequence, _degree, haar_values

__all__ = [
    "DegreeOverflowError",
    "LinearizationTable",
    "NLPReport",
    "SzwarcReport",
    "check_nlp",
    "check_nlps",
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


def _band_rows(c: np.ndarray, a: np.ndarray, n0: int, n1: int):
    """Yield the band of step m, for m = 0 .. n1 - 1, over n0 <= n < n1.

    ``c`` and ``a`` hold one sequence per leading index, along the last
    axis, and each band carries the same leading axes.  Row i of a band is
    the i-th live degree n of the step, n >= max(n0, m), and
    ``band[..., i, j]`` is g(m, n; n - m + 2j) for j = 0 .. m.  Each step
    allocates one array and only the two latest are held.  The coefficients
    a(n - m + 2j) and c(n - m + 2j) of a step are plain slices of one
    strided view of each sequence, built once; c(0) only ever multiplies
    the empty band of P_{-1} P_n = 0.  Every entry takes the
    elementwise operations, in the order, of the recurrence run for one n
    of one sequence alone on the full row; the terms left out here are
    products with its exact zeros outside the band, so each entry is
    bitwise that run's.
    """
    A, C = _diagonals(a, n1), _diagonals(c, n1)
    lead = c.shape[:-1]
    cur = np.ones(lead + (n1 - n0, 1))
    prev = cur[..., :0]  # P_{-1} P_n = 0
    yield cur
    for m in range(n1 - 1):
        rows = n1 - max(n0, m + 1)  # the live degrees of step m + 1
        d = slice(n1 - m - rows, n1 - m)  # their n - m
        cur, prev = cur[..., -rows:, :], prev[..., -rows:, :]
        nxt = np.zeros(lead + (rows, m + 2))
        nxt[..., 1:] += A[..., d, : m + 1] * cur
        nxt[..., :-1] += C[..., d, : m + 1] * cur
        nxt[..., 1:-1] -= c[..., m, None, None] * prev
        nxt /= a[..., m, None, None]
        prev, cur = cur, nxt
        yield cur


def _diagonals(x: np.ndarray, n1: int) -> np.ndarray:
    """The (..., n1, n1) view with x(d + 2j) at [..., d, j] for
    d + 2j <= 2 n1 - 2."""
    xp = np.zeros(x.shape[:-1] + (3 * n1 - 2,))
    xp[..., : 2 * n1 - 1] = x[..., : 2 * n1 - 1]
    s = xp.itemsize
    return np.ndarray(x.shape[:-1] + (n1, n1), buffer=xp,
                      strides=xp.strides[:-1] + (s, 2 * s))


def _coeffs(seq: CoeffSequence, N: int):
    """c(0..2N) and a(0..2N): every coefficient the rows g(m, n) with
    m, n <= N read."""
    return seq.c_array(max(2 * N, 1)), seq.a_array(max(2 * N, 1))


class LinearizationTable:
    """All linearization rows g(m, n; .) for 0 <= m <= n <= N.

    ``coeffs[m, n, k]`` is g(m, n; k) for m <= n, zero-padded: shape
    (N + 1, N + 1, 2N + 1), zero off the band, past k = m + n and below
    the diagonal m > n (g is symmetric in m and n; read those through
    :meth:`row` or :meth:`g`).
    """

    def __init__(self, seq: CoeffSequence, N: int):
        self.N = N = _degree(N, "N")
        c, a = _coeffs(seq, N)
        self.coeffs = np.zeros((N + 1, N + 1, 2 * N + 1))
        # band[m, n, j] is coeffs[m, n, n - m + 2j]
        W, s = 2 * N + 1, self.coeffs.itemsize
        band = np.ndarray((N + 1,) * 3, buffer=self.coeffs,
                          strides=(((N + 1) * W - 1) * s, (W + 1) * s, 2 * s))
        for m, rows in enumerate(_band_rows(c, a, 0, N + 1)):
            band[m, m:, : m + 1] = rows

    def row(self, m: int, n: int) -> np.ndarray:
        """The coefficient row of P_m P_n (length m + n + 1), a view of
        :attr:`coeffs`."""
        m, n = _degree(m, "m"), _degree(n, "n")
        if m > n:
            m, n = n, m
        if n > self.N:
            raise DegreeOverflowError(
                f"row ({m}, {n}) outside table bound N={self.N}"
            )
        return self.coeffs[m, n, : m + n + 1]

    def g(self, m: int, n: int, k: int) -> float:
        """Linearization coefficient g(m, n; k); zero outside the band."""
        row = self.row(m, n)
        try:
            k = _degree(k, "k")
        except ValueError:  # k < 0 is below the band, not a bad degree
            return 0.0
        return float(row[k]) if k < row.size else 0.0


def linearize(seq: CoeffSequence, m: int, n: int) -> np.ndarray:
    """Single linearization row g(m, n; .) as an array of length m+n+1.

    Only the rows of degree max(m, n) are generated, up to the one asked for.
    """
    m, n = _degree(m, "m"), _degree(n, "n")
    lo, hi = min(m, n), max(m, n)
    c, a = _coeffs(seq, hi)
    band = next(islice(_band_rows(c, a, hi, hi + 1), lo, None))
    out = np.zeros(lo + hi + 1)
    out[hi - lo :: 2] = band[0]
    return out


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


def check_nlps(seqs: Sequence[CoeffSequence], N: int = 30) -> list[NLPReport]:
    """Audit all rows with m, n <= N for nonnegativity and row sums, for
    each sequence of ``seqs``; all are stepped together in one pass.

    A coefficient below ``-NLP_TOL`` counts as a genuine negative (the
    audit tolerance separates true failures, which are order one in
    practice, from rounding noise).  The extreme band entries
    g(m,n;|m-n|) and g(m,n;m+n) are additionally required to be above
    ``NLP_TOL``.  The report carries the tolerance as ``tol``.

    Each step m is audited with a fixed number of array calls over every
    sequence at once.  They record, for each row (m, n) of the step, its
    sum, the smaller of its two end entries, and the place and value of
    its first least entry; each is reduced once the last step is done.
    numpy's pairwise sum depends on the length, so every row sum must run
    over exactly the m + n + 1 entries of its full row; the band is written
    into one zero-padded (F, N + 1, W = 2N + 1) step array, one
    ``np.add.reduceat`` along its rows gives every sum, and the band's
    places are cleared again.  The segment of row n starts one element
    early, at the last column of row n - 1, or at a zero in front of row 0.
    That column is always 0.0: the band of row n - 1 ends at degree
    m + n - 1 <= 2N - 2.  reduceat's first element plus the pairwise sum of
    the rest is then bitwise ``np.add.reduce`` of the row, so each report
    is bitwise the one :func:`check_nlp` gives alone.
    """
    N = _degree(N, "N")
    cols = [_coeffs(seq, N) for seq in seqs]
    if not cols:
        return []
    c, a = (np.array(col) for col in zip(*cols))
    F = len(cols)
    # flat[f, P + n W + k] is degree k of row n, and so is
    # skew[f, n, P - m + 2j] for k = n - m + 2j; the P zeros in front of
    # row 0 are never written
    W, P = 2 * N + 1, max(N, 1)

    def off(m):  # the rows of the steps before m
        return m * (N + 1) - m * (m - 1) // 2

    flat = np.zeros((F, (N + 1) * (W + 1)))
    skew = flat.reshape(F, N + 1, W + 1)
    starts = P - 1 + W * np.arange(N + 1)
    # reduceat bounds of row n at step m: [P + n W - 1, P + n W + n + 1 + m)
    bounds = np.stack((starts, starts + np.arange(N + 1) + 1), axis=1)
    # row (m, n) keeps its first least entry at least[f, n, m], so that
    # n-outer, m-inner is the flat order; its place j, sum and smaller end
    # entry are kept in step order, at off(m) + n - m
    least = np.full((F, N + 1, N + 1), np.inf)
    place = np.empty((F, off(N + 1)), dtype=np.intp)
    sums, ends = np.empty((2, F, off(N + 1)))
    live = np.arange(F * (N + 1))
    for m, band in enumerate(_band_rows(c, a, 0, N + 1)):
        at = skew[:, m:, P - m : P + m + 1 : 2]
        at[...] = band
        bounds[:, 1] += 1
        cuts = bounds[m:].ravel()
        r = slice(off(m), off(m + 1))
        # the last row's segment ends where the sliced array does
        sums[:, r] = np.add.reduceat(flat[:, : cuts[-1]], cuts[:-1], axis=1)[:, ::2]
        at[...] = 0.0
        np.minimum(band[..., 0], band[..., m], out=ends[:, r])  # j = 0 and j = m
        # argmin takes the first NaN of a row holding one, so its entry is NaN
        j = place[:, r] = band.argmin(axis=2)
        least[:, m:, m] = band.reshape(-1, m + 1)[live[: j.size], j.ravel()].reshape(j.shape)
    # a NaN sum is never adopted
    row_sum_max_error = np.fmax.reduce(np.abs(sums - 1.0), axis=1, initial=0.0)
    endpoints_positive = (ends > NLP_TOL).all(axis=1)
    # a row holding a NaN is never adopted; of equal minima the first in
    # n-outer, m-inner order is the one a running `<` over the rows keeps
    least = least.reshape(F, -1)
    least[np.isnan(least)] = np.inf
    reports = []
    for f, (i, err, positive) in enumerate(zip(
            least.argmin(axis=1).tolist(), row_sum_max_error.tolist(),
            endpoints_positive.tolist())):
        n, m = divmod(i, N + 1)
        low = float(least[f, i])
        reports.append(NLPReport(
            is_nonnegative=low >= -NLP_TOL,
            min_coeff=low,
            min_witness=(m, n, n - m + 2 * int(place[f, off(m) + n - m])),
            row_sum_max_error=err,
            endpoints_positive=positive,
            N=N,
            tol=NLP_TOL,
        ))
    return reports


def check_nlp(seq: CoeffSequence, N: int = 30) -> NLPReport:
    """:func:`check_nlps` of the one sequence ``seq``."""
    return check_nlps([seq], N)[0]


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


def _dot_row(band_row: np.ndarray, m: int, n: int, v: np.ndarray):
    """sum_k g(m, n; k) v(k) over k < min(m + n + 1, v.size), from the band
    row of (m, n) spread into a zero row of that length."""
    row = np.zeros(min(m + n + 1, v.size))
    band = row[n - m :: 2]
    band[...] = band_row[: band.size]
    return np.dot(row, v[: row.size])


def translate(seq: CoeffSequence, f, n: int) -> np.ndarray:
    """Hypergroup translate T_n f(m) = sum_k g(m, n; k) f(k), as an array of
    dtype ``result_type(f, float)``.

    With K the top degree of ``f``, the degrees n .. n + K run to step n:
    at step m <= n its row 0 is g(m, n), and at step n its row i is
    g(n, n + i).
    """
    v = _as_values(f)
    n = _degree(n, "n")
    K = v.size - 1
    c, a = _coeffs(seq, K + n)
    out = np.zeros(K + n + 1, dtype=np.result_type(v, float))
    for m, band in enumerate(islice(_band_rows(c, a, n, n + K + 1), n + 1)):
        out[m] = _dot_row(band[0], m, n, v)
    for i in range(1, K + 1):
        out[n + i] = _dot_row(band[i], n, n + i, v)
    return out


def convolve(seq: CoeffSequence, f, g) -> np.ndarray:
    """Hypergroup convolution (f * g)(n) = sum_k (T_n f)(k) g(k) h(k), as an
    array of dtype ``result_type(f, g, float)``.

    Only the (T_n f)(k) with k <= Kg, the top degree of ``g``, are formed:
    row g(k, n) is the band of step min(k, n), so the degrees 0 .. Kf + Kg
    run to step Kg, and no table is held.
    """
    fv, gv = _as_values(f), _as_values(g)
    Kf, Kg = fv.size - 1, gv.size - 1
    c, a = _coeffs(seq, Kf + Kg)
    weights = gv * haar_values(seq, Kg)
    out = np.zeros(Kf + Kg + 1, dtype=np.result_type(fv, gv, float))
    # tf[n, k] = (T_n f)(k) for k <= min(Kg, Kf + n)
    tf = np.empty((out.size, Kg + 1), dtype=np.result_type(fv, float))
    for m, band in enumerate(islice(_band_rows(c, a, 0, out.size), Kg + 1)):
        for i in range(band.shape[0]):
            n = m + i
            tf[n, m] = _dot_row(band[i], m, n, fv)
            if n <= min(Kg, Kf + m):
                tf[m, n] = tf[n, m]
    for n in range(out.size):
        width = min(Kf + n + 1, Kg + 1)
        out[n] = np.dot(tf[n, :width], weights[:width])
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
