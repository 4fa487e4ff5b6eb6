"""Three-term recurrences, Haar weights and basis evaluation.

This module is the substrate for the rest of the package.  A symmetric
orthogonal polynomial sequence on [-1, 1] is described by its recurrence
coefficients c(n) in (0, 1) via

    P_0 = 1,    P_1 = x,    x P_n = a(n) P_{n+1} + c(n) P_{n-1},

with a(n) = 1 - c(n), a(0) = 1, and the normalization P_n(1) = 1.  The
induced Haar weights are h(0) = 1 and h(n) = h(n-1) * a(n-1) / c(n); they
coincide with 1 / integral(P_n^2 dmu) for the orthogonalization measure mu.

Three normalizations of the same basis are supported:

* ``"P"``           -- P_n(1) = 1 (the hypergroup normalization),
* ``"orthonormal"`` -- p_n = sqrt(h(n)) P_n, recurrence coefficients
  alpha(n) = sqrt(c(n) * a(n-1)),
* ``"monic"``       -- sigma_n with leading coefficient 1, recurrence
  x sigma_n = sigma_{n+1} + alpha(n)^2 sigma_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .families import ConvexSeqSpec

__all__ = [
    "CoeffSequence",
    "CoefficientDomainError",
    "EvalRow",
    "HaarRangeError",
    "alpha",
    "eval_basis",
    "eval_basis_grid",
    "haar",
    "haar_values",
    "monic_coeffs",
    "monic_rows",
]

#: Haar weights beyond this magnitude raise :class:`HaarRangeError`.
HAAR_MAX = 1e300

_NORMS = ("P", "orthonormal", "monic")


class CoefficientDomainError(ValueError):
    """A recurrence coefficient left the open interval (0, 1)."""


class HaarRangeError(OverflowError):
    """A Haar weight exceeded the floating-point safety range."""


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
    backbone : ConvexSeqSpec, optional
        Exact recurrence data: :func:`alpha` reads ``lam(n-1)`` and
        :func:`inv_a_array` reads ``inv_a(n)`` from it instead of the float
        c(n), whose 1 - c(n) loses all precision once c(n) nears 1.

    The coefficient and Haar caches fill on first access and are not
    thread-safe; ``_h_cache`` holds h(0..) and is extended only by
    :func:`haar_values`.
    """

    family_tag: str
    params: dict
    cfunc: Callable[[int], float]
    description: str = ""
    backbone: "ConvexSeqSpec | None" = field(default=None, repr=False)
    _c_cache: list = field(default_factory=list, repr=False)
    _h_cache: list = field(default_factory=lambda: [1.0], repr=False)

    def c(self, n: int) -> float:
        """Validated recurrence coefficient c(n), n >= 1."""
        if n < 1:
            raise IndexError(f"c(n) is defined for n >= 1, got n={n}")
        while len(self._c_cache) < n:
            k = len(self._c_cache) + 1
            value = float(self.cfunc(k))
            if not 0.0 < value < 1.0:
                raise CoefficientDomainError(
                    f"c({k}) = {value!r} lies outside (0, 1) "
                    f"for family {self.family_tag!r}"
                )
            self._c_cache.append(value)
        return self._c_cache[n - 1]

    def a(self, n: int) -> float:
        """Complementary coefficient a(n) = 1 - c(n); a(0) = 1."""
        if n == 0:
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


def haar_values(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """h(0..nmax) as a float array: h(0) = 1, h(n) = h(n-1) a(n-1) / c(n).

    The weights are cached on ``seq``.  Extension past :data:`HAAR_MAX`
    raises :class:`HaarRangeError` rather than silently losing precision.
    """
    if nmax < 0:
        raise IndexError(f"h(n) is defined for n >= 0, got n={nmax}")
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


def haar(seq: CoeffSequence, n: int) -> float:
    """Haar weight h(n) of the polynomial hypergroup induced by ``seq``."""
    haar_values(seq, n)
    return seq._h_cache[n]


def alpha(seq: CoeffSequence, n: int) -> float:
    """Orthonormal recurrence coefficient alpha(n) = sqrt(c(n) a(n-1)), n >= 1."""
    if n < 1:
        raise IndexError(f"alpha(n) is defined for n >= 1, got n={n}")
    return float(alpha_array(seq, n)[n])


def alpha_array(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """alpha(1..nmax); index 0 is NaN."""
    out = np.empty(nmax + 1)
    out[0] = np.nan
    if seq.backbone is not None:
        out[1:] = [seq.backbone.lam(n) for n in range(nmax)]
        return out
    c = seq.c_array(nmax)
    a = seq.a_array(nmax)
    out[1:] = np.sqrt(c[1:] * a[:-1])
    return out


def inv_a_array(seq: CoeffSequence, nmax: int) -> np.ndarray:
    """1/a(0..nmax); 1/a(0) = 1."""
    if seq.backbone is None:
        return 1.0 / seq.a_array(nmax)
    out = np.empty(nmax + 1)
    out[0] = 1.0
    out[1:] = [seq.backbone.inv_a(n) for n in range(1, nmax + 1)]
    return out


@dataclass(frozen=True)
class EvalRow:
    """Values of one basis family at a point: ``values[n]`` is degree n."""

    x: float
    norm: str
    values: np.ndarray


def eval_basis(seq: CoeffSequence, N: int, x: float, norm: str = "P") -> EvalRow:
    """Evaluate degrees 0..N of the basis at a scalar point x.

    ``norm`` selects the normalization: ``"P"`` (value 1 at x=1),
    ``"orthonormal"`` or ``"monic"``.  This is the one-point column of
    :func:`eval_basis_grid`.
    """
    x = float(x)
    return EvalRow(x, norm, eval_basis_grid(seq, N, np.array([x]), norm)[:, 0])


def eval_basis_grid(
    seq: CoeffSequence, N: int, x: np.ndarray, norm: str = "P"
) -> np.ndarray:
    """Evaluate degrees 0..N of the basis on a grid of points.

    Returns an array of shape ``(N+1, len(x))`` whose row n holds the
    degree-n values on the grid.  Only the coefficients the recurrence
    uses are requested: c(1..N-1) for ``"P"`` and ``"monic"``, alpha(1..N)
    for ``"orthonormal"``.
    """
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    x = np.asarray(x, dtype=float)
    out = np.empty((N + 1, x.size), dtype=float)
    out[0] = 1.0
    if N == 0:
        return out
    if norm == "orthonormal":
        al = alpha_array(seq, N)
        out[1] = x / al[1]
        for n in range(1, N):
            out[n + 1] = (x * out[n] - al[n] * out[n - 1]) / al[n + 1]
        return out
    out[1] = x
    if N == 1:
        return out
    c = seq.c_array(N - 1)
    a = seq.a_array(N - 1)
    if norm == "P":
        for n in range(1, N):
            out[n + 1] = (x * out[n] - c[n] * out[n - 1]) / a[n]
    else:
        for n in range(1, N):
            out[n + 1] = x * out[n] - (c[n] * a[n - 1]) * out[n - 1]
    return out


def monic_rows(lam: Callable[[int], object], nmax: int) -> list[list]:
    """Rows 0..nmax of ascending monomial coefficients of the monic
    sequence with x sigma_n = sigma_{n+1} + lam(n) sigma_{n-1}.

    Arithmetic follows the type returned by ``lam`` (Fractions stay
    exact; floats stay floats).
    """
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
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    rows = monic_rows(lambda k: seq.c(k) * seq.a(k - 1), n)
    return np.array(rows[n], dtype=float)
