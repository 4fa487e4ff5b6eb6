"""Three-term recurrences, Haar weights and basis evaluation.

This module is the substrate for the rest of the package.  A symmetric
orthogonal polynomial sequence on [-1, 1] is described by its recurrence
coefficients c(n) in (0, 1) via

    P_0 = 1,    P_1 = x,    x P_n = a(n) P_{n+1} + c(n) P_{n-1},

with a(n) = 1 - c(n), a(0) = 1, and the normalization P_n(1) = 1.  The
induced Haar weights are h(0) = 1 and h(n) = h(n-1) * a(n-1) / c(n); they
coincide with 1 / integral(P_n^2 dmu) for the orthogonalization measure mu.

The basis is evaluated in this normalization only; the monic sequence
sigma_n of the same recurrence is kept as monomial coefficient rows
(:func:`monic_rows`, :func:`monic_coeffs`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CoeffSequence",
    "CoefficientDomainError",
    "HaarRangeError",
    "UnsupportedFamilyError",
    "eval_basis_grid",
    "haar_values",
    "monic_coeffs",
    "monic_rows",
]

#: Haar weights beyond this magnitude raise :class:`HaarRangeError`.
HAAR_MAX = 1e300


class CoefficientDomainError(ValueError):
    """A recurrence coefficient left the open interval (0, 1)."""


class HaarRangeError(OverflowError):
    """A Haar weight exceeded the floating-point safety range."""


class UnsupportedFamilyError(ValueError):
    """The requested closed-form data does not exist for this family."""


@dataclass(eq=False)
class CoeffSequence:
    """A symmetric orthogonal polynomial sequence, given by n -> c(n).

    Parameters
    ----------
    family_tag : str
        Registry tag (``"gencheb"``, ``"cosh"``, ...) or ``"custom"``.
    params : dict
        Parameter values the coefficient function was built from.
    cfunc : callable
        Maps an integer n >= 1 to c(n); values are validated lazily on
        first access and cached.
    description : str
        Human-readable one-liner.
    closed_form : callable or None
        Maps an integer n >= 1 to the family's closed-form h(n).
    measure : callable or None
        Returns a fresh ``MeasureSpec`` of the family's measure.

    :meth:`inv_a_array` and :meth:`alpha_array` derive their columns from
    the float c(n); a family with exact recurrence data overrides them.

    The coefficient and Haar caches fill on first access and are not
    thread-safe; ``_h_cache`` holds h(0..) and is extended only by
    :func:`haar_values`.
    """

    family_tag: str
    params: dict
    cfunc: Callable[[int], float] = field(repr=False)
    description: str = ""
    closed_form: Callable[[int], float] | None = field(default=None, repr=False)
    measure: Callable[[], object] | None = field(default=None, repr=False)
    _c_cache: list = field(default_factory=list, init=False, repr=False)
    _h_cache: list = field(default_factory=lambda: [1.0], init=False, repr=False)

    def c(self, n: int) -> float:
        """Validated recurrence coefficient c(n), n >= 1.  A degree that is
        not an integer raises :func:`_degree`'s ``TypeError``, and an
        integer below 1 ``IndexError``."""
        cache = self._c_cache
        try:
            if 0 < n <= len(cache):
                return cache[n - 1]
            n = operator.index(n)
        except TypeError:  # a float indexes no list; "2" or None compares with no int
            _degree(n, "n")  # raises its TypeError, naming n
        if n < 1:
            raise IndexError(f"c(n) is defined for n >= 1, got n={n}")
        while len(cache) < n:
            k = len(cache) + 1
            value = float(self.cfunc(k))
            if not 0.0 < value < 1.0:
                raise CoefficientDomainError(
                    f"c({k}) = {value!r} lies outside (0, 1) "
                    f"for family {self.family_tag!r}"
                )
            cache.append(value)
        return cache[n - 1]

    def a(self, n: int) -> float:
        """Complementary coefficient a(n) = 1 - c(n); a(0) = 1.  A degree is
        checked as by :meth:`c`."""
        if n == 0:
            _degree(n, "n")  # refuses 0.0, which equals 0
            return 1.0
        return 1.0 - self.c(n)

    def c_array(self, nmax: int) -> np.ndarray:
        """c(1..nmax) as a float array; index 0 is NaN (c(0) undefined)."""
        self.c(max(nmax, 1))
        out = np.empty(nmax + 1)
        out[0] = np.nan
        out[1:] = self._c_cache[:nmax]
        return out

    def a_array(self, nmax: int) -> np.ndarray:
        """a(0..nmax) with a(0) = 1."""
        out = 1.0 - self.c_array(nmax)
        out[0] = 1.0
        return out

    def inv_a_array(self, nmax: int) -> np.ndarray:
        """1/a(0..nmax); 1/a(0) = 1."""
        return 1.0 / self.a_array(nmax)

    def alpha_array(self, nmax: int) -> np.ndarray:
        """alpha(1..nmax), alpha(n) = sqrt(c(n) a(n-1)); index 0 is NaN."""
        c, a = self.c_array(nmax), self.a_array(nmax)
        out = np.empty(nmax + 1)
        out[0] = np.nan
        out[1:] = np.sqrt(c[1:] * a[:-1])
        return out


def _degree(value, name: str) -> int:
    """``value`` as a plain int: the one check of a degree.  A non-integer
    raises ``TypeError`` and a negative integer ``ValueError``, each naming
    the argument ``name``."""
    try:
        value = int(operator.index(value))
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def haar_values(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """h(0..nmax) as a float array: h(0) = 1, h(n) = h(n-1) a(n-1) / c(n).

    The weights are cached on ``seq``.  Extension past :data:`HAAR_MAX`
    raises :class:`HaarRangeError` rather than silently losing precision.
    """
    nmax = _degree(nmax, "nmax")
    h = seq._h_cache
    while len(h) <= nmax:
        k = len(h)
        value = h[-1] * seq.a(k - 1) / seq.c(k)
        if not np.isfinite(value) or value > HAAR_MAX:
            raise HaarRangeError(
                f"Haar weight h({k}) exceeds {HAAR_MAX:.1e} for "
                f"family {seq.family_tag!r}"
            )
        h.append(value)
    return np.asarray(h[: nmax + 1])


def eval_basis_grid(seq: CoeffSequence, N: int, x: np.ndarray) -> np.ndarray:
    """Evaluate P_0..P_N on a grid of points.

    Returns an array of shape ``(N+1, len(x))`` whose row n holds P_n on
    the grid; at one point x, ``eval_basis_grid(seq, N, [x])[:, 0]`` is the
    column of degrees.  Only the coefficients the recurrence uses are
    requested: c(1..N-1).
    """
    N = _degree(N, "N")
    x = np.asarray(x, dtype=float)
    out = np.empty((N + 1, x.size), dtype=float)
    out[0] = 1.0
    if N == 0:
        return out
    out[1] = x
    if N == 1:
        return out
    c, a = seq.c_array(N - 1), seq.a_array(N - 1)
    # the operations of (x P_n - c(n) P_{n-1}) / a(n), in its order, each
    # written in place: bitwise the expression, without its temporaries
    term = np.empty(x.size)
    for n in range(1, N):
        row = out[n + 1]
        np.multiply(x, out[n], out=row)
        np.multiply(c[n], out[n - 1], out=term)
        row -= term
        row /= a[n]
    return out


def monic_rows(lam: Callable[[int], object], nmax: int) -> list[list]:
    """Rows 0..nmax of ascending monomial coefficients of the monic
    sequence with x sigma_n = sigma_{n+1} + lam(n) sigma_{n-1}.

    Arithmetic follows the type returned by ``lam`` (Fractions stay
    exact; floats stay floats).
    """
    nmax = _degree(nmax, "nmax")
    rows: list[list] = [[1]]
    if nmax == 0:
        return rows
    rows.append([0, 1])
    for n in range(1, nmax):
        cur, prev = rows[n], rows[n - 1]
        ln = lam(n)
        nxt = [0] * (n + 2)
        for k, coef in enumerate(cur):
            nxt[k + 1] += coef
        for k, coef in enumerate(prev):
            nxt[k] -= ln * coef
        rows.append(nxt)
    return rows


def monic_coeffs(seq: CoeffSequence, n: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the monic polynomial sigma_n.

    The result has length n+1, leading coefficient exactly 1, and exact
    zeros in the parity gaps (sigma_n has the parity of n).
    """
    n = _degree(n, "n")
    rows = monic_rows(lambda k: seq.c(k) * seq.a(k - 1), n)
    return np.array(rows[n], dtype=float)
