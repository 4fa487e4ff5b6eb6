"""Product linearization tables and the induced hypergroup operations.

For a coefficient sequence with basis (P_n) the products expand as

    P_m P_n = sum_{k=|m-n|}^{m+n} g(m, n; k) P_k ,

with rows summing to 1 (evaluate at x = 1).  Nonnegativity of every
g(m, n; k) -- "NLP" -- is what turns the index set into a discrete
hypergroup: translation, convolution and the l1(h) norm below are the
standard hypergroup structure built from these coefficients.

Rows are computed by induction on m inside a fixed n:

    P_{m+1} P_n = (x (P_m P_n) - c(m) P_{m-1} P_n) / a(m),

where multiplication by x acts termwise through the three-term recurrence
x P_k = a(k) P_{k+1} + c(k) P_{k-1} (and x P_0 = P_1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import CoeffSequence, haar_values

__all__ = [
    "DegreeOverflowError",
    "LinearizationTable",
    "NLPReport",
    "SzwarcReport",
    "WeightedSeq",
    "check_nlp",
    "convolve",
    "l1h_norm",
    "linearize",
    "szwarc_criterion",
    "translate",
]

DEFAULT_TABLE_N = 64
NLP_TOL = 1e-12


class DegreeOverflowError(IndexError):
    """A linearization row beyond the table's degree bound was requested."""


def _degree_rows(c: np.ndarray, a: np.ndarray, n: int):
    """Yield g(m, n; .) for m = 0..n from c and a up to degree 2n; rows of
    one n depend only on each other, and only the two latest are held."""
    r_prev = np.zeros(n + 1)
    r_prev[n] = 1.0
    yield r_prev
    if n == 0:
        return
    r_cur = np.zeros(n + 2)
    r_cur[n + 1] = a[n]
    r_cur[n - 1] = c[n]
    yield r_cur
    for m in range(1, n):
        L = r_cur.size  # degrees 0 .. m+n
        nxt = np.zeros(L + 1)
        nxt[1:] += a[:L] * r_cur
        nxt[: L - 1] += c[1:L] * r_cur[1:]
        nxt[: r_prev.size] -= c[m] * r_prev
        nxt /= a[m]
        r_prev, r_cur = r_cur, nxt
        yield r_cur


def _rows(seq: CoeffSequence, N: int):
    """Yield ((m, n), g(m, n; .)) for 0 <= m <= n <= N, n outer, m inner.

    A caller that streams the rows needs O(N) memory where the whole
    table needs O(N^3).
    """
    if N < 0:
        raise ValueError(f"table bound must be >= 0, got {N}")
    c, a = seq.c_array(max(2 * N, 1)), seq.a_array(max(2 * N, 1))
    for n in range(N + 1):
        for m, row in enumerate(_degree_rows(c, a, n)):
            yield (m, n), row


class LinearizationTable:
    """All linearization rows g(m, n; .) for 0 <= m <= n <= N."""

    def __init__(self, seq: CoeffSequence, N: int = DEFAULT_TABLE_N):
        self.seq = seq
        self.N = N
        self._rows = dict(_rows(seq, N))

    def row(self, m: int, n: int) -> np.ndarray:
        """The coefficient row of P_m P_n (length m + n + 1)."""
        if m > n:
            m, n = n, m
        if m < 0 or n > self.N:
            raise DegreeOverflowError(
                f"row ({m}, {n}) outside table bound N={self.N}"
            )
        return self._rows[(m, n)]

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
    hi = max(m, n)
    c, a = seq.c_array(max(2 * hi, 1)), seq.a_array(max(2 * hi, 1))
    return next(islice(_degree_rows(c, a, hi), min(m, n), None))


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


def check_nlp(seq: CoeffSequence, N: int = 30, tol: float = NLP_TOL) -> NLPReport:
    """Audit all rows with m, n <= N for nonnegativity and row sums.

    A coefficient below ``-tol`` counts as a genuine negative (the audit
    tolerance separates true failures, which are order one in practice,
    from rounding noise).  The extreme band entries g(m,n;|m-n|) and
    g(m,n;m+n) are additionally required to be strictly positive.
    """
    min_coeff = np.inf
    min_witness = (0, 0, 0)
    row_sum_max_error = 0.0
    endpoints_positive = True
    for (m, n), row in _rows(seq, N):
        row_sum_max_error = max(row_sum_max_error, abs(row.sum() - 1.0))
        lo = n - m
        band = row[lo : m + n + 1 : 2]
        k_local = int(np.argmin(band))
        if band[k_local] < min_coeff:
            min_coeff = float(band[k_local])
            min_witness = (m, n, lo + 2 * k_local)
        if not (row[lo] > tol and row[m + n] > tol):
            endpoints_positive = False
    return NLPReport(
        is_nonnegative=bool(min_coeff >= -tol),
        min_coeff=min_coeff,
        min_witness=min_witness,
        row_sum_max_error=row_sum_max_error,
        endpoints_positive=endpoints_positive,
        N=N,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# hypergroup operations


@dataclass
class WeightedSeq:
    """A finitely supported sequence on the index set, stored densely from 0."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values))

    @classmethod
    def delta(cls, k: int) -> "WeightedSeq":
        v = np.zeros(k + 1)
        v[k] = 1.0
        return cls(v)

    @property
    def top(self) -> int:
        nz = np.nonzero(self.values)[0]
        return int(nz[-1]) if nz.size else 0

    def __len__(self) -> int:
        return self.values.size


def _as_values(f) -> np.ndarray:
    if isinstance(f, WeightedSeq):
        return f.values
    return np.atleast_1d(np.asarray(f))


def l1h_norm(seq: CoeffSequence, f) -> float:
    """The l1(h) norm sum_k |f(k)| h(k)."""
    v = _as_values(f)
    h = haar_values(seq, v.size - 1)
    return float(np.sum(np.abs(v) * h))


def translate(
    seq: CoeffSequence, f, n: int, table: LinearizationTable | None = None
) -> WeightedSeq:
    """Hypergroup translate T_n f(m) = sum_k g(m, n; k) f(k)."""
    v = _as_values(f)
    K = v.size - 1
    out_top = K + n
    if table is None:
        table = LinearizationTable(seq, out_top)
    elif table.N < out_top:
        raise DegreeOverflowError(
            f"translate needs rows up to degree {out_top}, table has N={table.N}"
        )
    out = np.zeros(out_top + 1, dtype=v.dtype)
    for m in range(out_top + 1):
        row = table.row(m, n)
        width = min(row.size, v.size)
        out[m] = np.dot(row[:width], v[:width])
    return WeightedSeq(out)


def convolve(
    seq: CoeffSequence, f, g, table: LinearizationTable | None = None
) -> WeightedSeq:
    """Hypergroup convolution (f * g)(n) = sum_k (T_n f)(k) g(k) h(k)."""
    fv = _as_values(f)
    gv = _as_values(g)
    Kf, Kg = fv.size - 1, gv.size - 1
    out_top = Kf + Kg
    if table is None:
        # translate(f, n) walks rows up to degree Kf + n, n <= out_top
        table = LinearizationTable(seq, Kf + out_top)
    h = haar_values(seq, Kg)
    weights = gv * h
    out = np.zeros(out_top + 1, dtype=np.result_type(fv, gv))
    for n in range(out_top + 1):
        tf = translate(seq, fv, n, table=table).values
        width = min(tf.size, weights.size)
        out[n] = np.dot(tf[:width], weights[:width])
    return WeightedSeq(out)


# ---------------------------------------------------------------------------
# sufficient criterion


@dataclass(frozen=True)
class SzwarcReport:
    """Outcome of the monotonicity/boundedness sufficient criterion."""

    applies: bool
    violated_at: tuple[str, int] | None
    N: int


def szwarc_criterion(seq: CoeffSequence, N: int = 200) -> SzwarcReport:
    """Check c(n) <= 1/2 with both parity subsequences nondecreasing.

    Satisfying the criterion on every n (it is checked here for n <= N)
    guarantees nonnegative linearization of products.  ``violated_at``
    names the first offending index and the reason.
    """
    slack = 1e-14
    c = seq.c_array(N)
    for n in range(1, N + 1):
        if c[n] > 0.5 + slack:
            return SzwarcReport(False, ("bound", n), N)
        if n >= 3 and c[n] < c[n - 2] - slack:
            return SzwarcReport(False, ("monotone", n), N)
    return SzwarcReport(True, None, N)
