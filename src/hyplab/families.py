"""Named coefficient families and their closed-form data.

Registry of the concrete sequences the package ships with:

========== ============================= =====================================
tag        parameters                    description
========== ============================= =====================================
cheb1      --                            Chebyshev polynomials of the 1st kind
gencheb    alpha, beta > -1              generalized Chebyshev polynomials
cosh       a > 0                         cosh-modulated Chebyshev polynomials
grinspun   c1 in (0, 1)                  Grinspun perturbation of Chebyshev
km         alpha, beta >= 2              Karlin--McGregor walk polynomials
modkm      alpha, beta >= 2              Karlin--McGregor rescaled to P_n(1)=1
rational25 --                            modkm(2,5) in rational closed form
convex     eps (or s0) in (0,1), q       convex-sequence construction with
                                         discrete dual and exponential Haar
                                         growth
custom     cfunc                         direct coefficient callable; from
                                         make_family only, not from a spec
========== ============================= =====================================

Each family is one builder, ``_<tag>``, that checks the family's domain
and fills c(n), the description, the closed-form h(n) and the measure;
:func:`make_family` reads the parameter names off its signature.  The
module also carries the generalized Chebyshev region V and the parameter
solvers of the two ``h(1) = 1 + eps`` constructions.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    CoeffSequence,
    CoefficientDomainError,
    HaarRangeError,
    UnsupportedFamilyError,
    _degree,
)
from .measures import DensityPiece, MeasureSpec

__all__ = [
    "ConvexSeqSpec",
    "FamilyParameterError",
    "KMParams",
    "UnsupportedFamilyError",
    "beta_for_epsilon",
    "closed_form_haar",
    "closed_form_max_rel_err",
    "geometric_sequence",
    "h1_lt_2_region",
    "haar_term_estimate",
    "in_V",
    "km_special_closed_forms",
    "make_family",
    "parse_family_spec",
    "s0_for_epsilon",
]


class FamilyParameterError(ValueError):
    """A family was requested with parameters outside its domain."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class KMParams:
    """Parameters of a Karlin--McGregor pair, with the induced band edges.

    gamma1 and gamma2 are the outer/inner edges of the support of the
    orthogonalization measure of the walk polynomials:
    gamma1 = (sqrt(alpha-1) + sqrt(beta-1)) / sqrt(alpha beta),
    gamma2 = |sqrt(alpha-1) - sqrt(beta-1)| / sqrt(alpha beta).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 2 and self.beta >= 2):
            raise FamilyParameterError(
                f"Karlin--McGregor parameters require alpha, beta >= 2, "
                f"got ({self.alpha}, {self.beta})"
            )

    @property
    def sa(self) -> float:
        return math.sqrt(self.alpha - 1.0)

    @property
    def sb(self) -> float:
        return math.sqrt(self.beta - 1.0)

    @property
    def gamma1(self) -> float:
        return (self.sa + self.sb) / math.sqrt(self.alpha * self.beta)

    @property
    def gamma2(self) -> float:
        return abs(self.sa - self.sb) / math.sqrt(self.alpha * self.beta)

    @property
    def support_cut(self) -> float:
        """gamma2 / gamma1, the inner support edge after rescaling to [-1,1]."""
        return abs(self.sa - self.sb) / (self.sa + self.sb)


def geometric_sequence(s0: float, q: float) -> Callable[[int], float]:
    """The default convex null sequence s_k = s0 * q**k."""
    return lambda k: s0 * q**k


# Exact values of the convex backbone are dyadic rationals, carried as
# (mantissa, exponent) pairs meaning mantissa * 2**exponent.  Sums align
# exponents, products add them, and no step needs a gcd.
_ONE = (1, 0)


def _sub(x: tuple, y: tuple) -> tuple:
    (m, e), (k, f) = x, y
    if e <= f:
        return m - (k << (f - e)), e
    return (m << (e - f)) - k, f


def _mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] + y[1]


def _subnormal(x: tuple) -> bool:
    """Whether the positive dyadic x lies below the smallest normal float."""
    return x[0] > 0 and x[0].bit_length() + x[1] <= -1022


def _quot(x: tuple, y: tuple) -> float:
    """x / y correctly rounded, by one integer true division."""
    (m, e), (k, f) = x, y
    d = e - f
    return (m << d) / k if d >= 0 else m / (k << -d)


class _Column:
    """One float column of the convex backbone: value(0) .. value(k) and
    the exact state (k, R_k, R_{k+1}, Pi_k) of the last one.

    Only the h column reads Pi_k, whose mantissa grows by a weight's bits
    per degree; a column built with ``reads_pi=False`` carries just its
    sign, +-1, which is all its guards read, and forms the exact Pi_k only
    to name it in an error."""

    def __init__(self, value: Callable, error: type, message: str, reads_pi: bool):
        self._value, self._error, self._message = value, error, message
        self._reads_pi = reads_pi
        self._state = (0, _ONE, _ONE, _ONE if reads_pi else 1)
        self._floats = [value(_ONE, _ONE, _ONE)]

    def read(self, lam_at: Callable[[int], tuple], n: int) -> float:
        """value(n); a raise names the first failing degree and leaves the
        column as it was.  Past float range it is ``error(message)``."""
        while len(self._floats) <= n:
            k, r, r_next, pi = self._state
            lam = lam_at(k)
            if self._reads_pi:
                p = _mul(pi, lam)
                sign = p[0]
            else:
                p = sign = pi * ((lam[0] > 0) - (lam[0] < 0))
            if sign == 0:
                raise ZeroDivisionError(f"convex construction broke down: lambda_{k} = 0")
            if r_next[0] == 0 or (r_next[0] > 0) != (sign > 0):
                if not self._reads_pi:
                    p = functools.reduce(_mul, map(lam_at, range(k + 1)), _ONE)
                q = _quot(r_next, p)
                raise FamilyParameterError(
                    f"convex construction broke down: Q_{k + 1}(1) = {q!r} is not positive")
            state = (k + 1, r_next, _sub(r_next, _mul(_mul(lam, lam), r)), p)
            try:
                self._floats.append(self._value(*state[1:]))
            except OverflowError:
                raise self._error(self._message.format(n=k + 1)) from None
            self._state = state
        return self._floats[n]


@dataclass(eq=False)
class ConvexSeqSpec:
    """Convex-sequence construction data.

    Given a strictly decreasing convex null sequence (s_k) in (0, 1), the
    recurrence weights are

        lambda_{2k} = 1 - s_k,        lambda_{2k-1} = s_k - s_{k+1},

    and the auxiliary polynomials Q_0 = 1, Q_1 = x / lambda_0,
    x Q_n = lambda_n Q_{n+1} + lambda_{n-1} Q_{n-1}.  The normalized
    sequence P_n = Q_n / Q_n(1) has c(n) = lambda_{n-1} Q_{n-1}(1) / Q_n(1)
    and Haar weights h(n) = Q_n(1)^2.

    The weights satisfy lambda_{2n-1} + lambda_{2n} = lambda_{2n+2}
    identically, so the admissibility of the sequence sits on a boundary: a
    float-rounded lambda chain drifts off it and produces a(n) < 0 once the
    true a(n) falls below machine epsilon (n around 105 for the default
    parameters).  So the backbone is exact and rounds only on output.

    Every float is a dyadic rational, so every lambda is one too, and the
    backbone carries integer mantissas over powers of two: the values
    R_n = sigma_n(1) of the monic polynomials, R_0 = R_1 = 1,
    R_{n+1} = R_n - lambda_{n-1}^2 R_{n-1}, and the products
    Pi_n = lambda_0 ... lambda_{n-1}.  Then

        1/a(n) = R_n / R_{n+1},    c(n) = (R_n - R_{n+1}) / R_n,
        Q_n(1) = R_n / Pi_n,       h(n) = Q_n(1)^2,

    each rounded once by integer true division, which is correctly
    rounded.  No step reduces by a gcd, and only the rounded floats leave the
    object.  The columns c, 1/a and h are read to very different depths, so
    each streams the recurrence on its own and keeps only its last exact state
    and its floats: memory is linear in N.  Only h reads Pi_n; the c and 1/a
    columns carry its sign alone.  s is checked to stay in (0, 1),
    strictly decreasing and convex as it is read, and a value that fails is
    never kept; a non-positive Q_n(1), a zero lambda_n or a float overflow
    raises, naming the first failing degree.  A check that fails once s has
    underflowed to subnormal floats (or to 0.0 right after them) raises
    :class:`CoefficientDomainError` with the degree it limits, not
    :class:`FamilyParameterError`.
    """

    s: Callable[[int], float]
    _s_cache: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self._c = _Column(lambda r, r_next, pi: _quot(_sub(r, r_next), r),
                          CoefficientDomainError, "c(n) exceeds float range at n = {n}",
                          reads_pi=False)
        self._inv_a = _Column(lambda r, r_next, pi: _quot(r, r_next),
                              CoefficientDomainError, "1/a(n) exceeds float range at n = {n}",
                              reads_pi=False)
        self._haar = _Column(lambda r, r_next, pi: _quot(_mul(r, r), _mul(pi, pi)),
                             HaarRangeError,
                             "Haar weight h({n}) exceeds float range on the convex backbone",
                             reads_pi=True)

    def _s_at(self, k: int) -> tuple:
        while len(self._s_cache) <= k:
            j = len(self._s_cache)
            value = self.s(j)
            num, den = (value if isinstance(value, float) else Fraction(value)).as_integer_ratio()
            if den & (den - 1):
                raise FamilyParameterError(
                    f"convex sequence must be dyadic (floats); s({j}) = "
                    f"{num}/{den}"
                )
            val = (num, 1 - den.bit_length())
            if not 0 < num < den:
                if num == 0 and j >= 1 and _subnormal(self._s_cache[j - 1]):
                    raise self._underflow(j, val, "stay positive")
                raise FamilyParameterError(
                    f"convex sequence must stay in (0, 1); s({j}) = "
                    f"{_quot(val, _ONE)!r}"
                )
            if j >= 1 and not _sub(self._s_cache[j - 1], val)[0] > 0:
                if _subnormal(val):
                    raise self._underflow(j, val, "decrease strictly")
                raise FamilyParameterError(
                    f"convex sequence must be strictly decreasing; "
                    f"s({j - 1}) = {_quot(self._s_cache[j - 1], _ONE)!r}, "
                    f"s({j}) = {_quot(val, _ONE)!r}"
                )
            if j >= 2:
                s2, s1 = self._s_cache[j - 2], self._s_cache[j - 1]
                second = _sub(_sub(s2, s1), _sub(s1, val))
                if second[0] < 0:
                    if _subnormal(val):
                        raise self._underflow(j, val, "stay convex")
                    raise FamilyParameterError(
                        f"convex sequence must be convex; second difference "
                        f"at k={j - 2} is {_quot(second, _ONE)!r}"
                    )
            self._s_cache.append(val)
        return self._s_cache[k]

    def _s_floats(self, k: int) -> np.ndarray:
        """s_0 .. s_k as floats, each validated as :meth:`lam` validates it."""
        self._s_at(k)
        return np.array([math.ldexp(m, e) for m, e in self._s_cache[: k + 1]])

    @staticmethod
    def _underflow(j: int, val: tuple, check: str) -> CoefficientDomainError:
        """The error for an s(j) whose check fails because s has underflowed
        below the normal floats: a degree limit, not a parameter error.
        lambda_{2j-3} = s(j-1) - s(j) is the first weight that reads s(j)
        (lambda_1 when j = 1), so degrees up to max(2j-3, 1) are reachable."""
        return CoefficientDomainError(
            f"convex sequence underflows below the normal floats: s({j}) = "
            f"{_quot(val, _ONE)!r} fails to {check}, which limits the "
            f"construction to degree n <= {max(2 * j - 3, 1)}"
        )

    def _lam_at(self, n: int) -> tuple:
        if n % 2 == 0:
            return _sub(_ONE, self._s_at(n // 2))
        k = (n + 1) // 2  # lambda_{2k-1} = s_k - s_{k+1}
        return _sub(self._s_at(k), self._s_at(k + 1))

    def lam(self, n: int) -> float:
        """Recurrence weight lambda_n, n >= 0."""
        return _quot(self._lam_at(n), _ONE)

    def c(self, n: int) -> float:
        """Recurrence coefficient of the normalized sequence."""
        return self._c.read(self._lam_at, n)

    def inv_a(self, n: int) -> float:
        """1/a(n), correctly rounded.

        a(n) itself underflows below float64 resolution of c(n) near 1 (the
        default family hits float c(n) == 1.0 at n = 105) while 1/a(n)
        remains comfortably representable.  Past float range (n = 2047 for
        eps = 0.5) it raises :class:`CoefficientDomainError`.
        """
        return self._inv_a.read(self._lam_at, n)

    def haar(self, n: int) -> float:
        """h(n) = Q_n(1)^2; past float range (n = 348 for eps = 0.5) it
        raises :class:`HaarRangeError`."""
        return self._haar.read(self._lam_at, n)


class _ConvexSequence(CoeffSequence):
    """The ``convex`` family: 1/a(n) and alpha(n) = lambda_{n-1} do not come
    from the float c(n), since 1 - c(n) loses all precision once c(n) nears
    1.  1/a(n) comes from the exact backbone, rounded once and kept.
    :meth:`haar` serves the backbone's h(n)."""

    def __init__(self, params: dict, spec: ConvexSeqSpec, description: str):
        super().__init__(
            "convex", params, spec.c, description,
            measure=lambda: MeasureSpec("atoms_unknown"),
        )
        self._spec = spec
        self._inv_a = [1.0]
        self._alpha = np.array([math.nan])

    def inv_a_array(self, nmax: int) -> np.ndarray:
        while len(self._inv_a) <= nmax:
            self._inv_a.append(self._spec.inv_a(len(self._inv_a)))
        return np.array(self._inv_a[: nmax + 1])

    def alpha_array(self, nmax: int) -> np.ndarray:
        """lambda_{2k} = 1 - s_k and lambda_{2k-1} = s_k - s_{k+1} as float
        differences of the validated s_k, in one array pass.  The s_k are
        floats, and IEEE subtraction rounds the exact difference correctly,
        so each value is bitwise :meth:`ConvexSeqSpec.lam`."""
        if len(self._alpha) <= nmax:
            # lambda_0 .. lambda_{nmax-1} read s_0 .. s_{nmax//2 + 1} (only s_0
            # for nmax = 1), validated in order, so a bad s_j raises as a read
            # of each lambda_n in turn would
            s = self._spec._s_floats(nmax // 2 + 1 if nmax > 1 else 0)
            lam = np.empty(nmax + 1)
            lam[0] = math.nan
            lam[1::2] = 1.0 - s[: (nmax + 1) // 2]
            lam[2::2] = s[1: nmax // 2 + 1] - s[2: nmax // 2 + 2]
            self._alpha = lam
        return self._alpha[: nmax + 1].copy()

    def haar(self, n: int) -> float:
        """h(n) of the exact backbone, :meth:`ConvexSeqSpec.haar`."""
        return self._spec.haar(n)


# ---------------------------------------------------------------------------
# one builder per family: c(n), description, closed-form h(n), measure


def _poch(x: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= x + j
    return out


def _cheb1() -> CoeffSequence:
    def measure():
        def rho(x, lo, hi):
            return 1.0 / (np.pi * np.sqrt(hi * (1.0 + x)))

        return MeasureSpec("full", [DensityPiece(0.0, 1.0, rho)])

    return CoeffSequence(
        "cheb1", {}, lambda n: 0.5, "Chebyshev polynomials of the 1st kind",
        closed_form=lambda n: 2.0, measure=measure,
    )


def _gencheb(alpha, beta) -> CoeffSequence:
    alpha, beta = float(alpha), float(beta)
    if not (alpha > -1.0 and beta > -1.0):
        raise FamilyParameterError(
            f"gencheb requires alpha, beta > -1, got ({alpha}, {beta})"
        )

    def c(n: int) -> float:
        k, odd = divmod(n + 1, 2)
        if odd == 0:
            return (k + beta) / (2 * k + alpha + beta)
        m = n // 2
        return m / (2 * m + alpha + beta + 1)

    def h(n: int) -> float:
        m, r = divmod(n + 1, 2)
        common = _poch(alpha + beta + 2.0, m - 1) / _poch(beta + 1.0, m)
        if r == 0:  # n = 2m - 1
            return common * (2 * m + alpha + beta) * _poch(alpha + 1.0, m - 1) / math.factorial(m - 1)
        m = n // 2  # n = 2m
        return common * (2 * m + alpha + beta + 1) * _poch(alpha + 1.0, m) / math.factorial(m)

    def measure():
        logc = (math.lgamma(alpha + beta + 2.0) - math.lgamma(alpha + 1.0)
                - math.lgamma(beta + 1.0))
        cnorm = math.exp(logc)

        def rho(x, lo, hi):
            # (1 - x^2)^alpha |x|^(2 beta + 1) on (0, 1):
            # 1 - x^2 = hi * (1 + x), |x| = lo
            return cnorm * (hi * (1.0 + x)) ** alpha * lo ** (2.0 * beta + 1.0)

        return MeasureSpec("full", [DensityPiece(0.0, 1.0, rho)])

    return CoeffSequence(
        "gencheb", {"alpha": alpha, "beta": beta}, c,
        f"generalized Chebyshev polynomials, alpha={alpha}, beta={beta}",
        closed_form=h, measure=measure,
    )


def _cosh(a) -> CoeffSequence:
    a = float(a)
    if not a > 0.0:
        raise FamilyParameterError(f"cosh family requires a > 0, got {a}")
    # cosh(a(n-1)) / (2 cosh(an) cosh(a)), written with negative exponents
    # only so it stays finite for arbitrarily large n.  Past a = 710.47,
    # cosh(a) overflows: 2 cosh(a) is then inf, as its product already is
    # from a = 710, so c(n) = 0.0 and the lazy domain check names it.
    try:
        two_cosh_a = 2.0 * math.cosh(a)
    except OverflowError:
        two_cosh_a = math.inf

    def c(n: int) -> float:
        num = 1.0 + math.exp(-2.0 * a * (n - 1))
        den = 1.0 + math.exp(-2.0 * a * n)
        return math.exp(-a) * num / (den * two_cosh_a)

    def h(n: int) -> float:
        ch = math.cosh(a * n)
        return 2.0 * ch * ch

    def measure():
        try:
            gam = 1.0 / math.cosh(a)
        except OverflowError:  # past a = 710.47, where c(1) is already 0.0
            raise CoefficientDomainError(
                f"cosh measure: 1/cosh(a) underflows to 0 for a = {a!r}"
            ) from None

        def rho(x, lo, hi):
            return 1.0 / (np.pi * np.sqrt(hi * (gam + x)))

        return MeasureSpec("full", [DensityPiece(0.0, gam, rho)])

    return CoeffSequence(
        "cosh", {"a": a}, c, f"cosh-modulated Chebyshev, a={a}",
        closed_form=h, measure=measure,
    )


def _grinspun(c1) -> CoeffSequence:
    c1 = float(c1)
    if not 0.0 < c1 < 1.0:
        raise FamilyParameterError(f"grinspun requires c1 in (0, 1), got {c1}")
    return CoeffSequence(
        "grinspun", {"c1": c1}, lambda n: c1 if n == 1 else 0.5,
        f"Grinspun perturbation of Chebyshev, c1={c1}",
        closed_form=lambda n: 1.0 / c1 if n == 1 else 2.0 * (1.0 - c1) / c1,
        measure=lambda: MeasureSpec("density_unknown"),
    )


def _km(alpha, beta) -> CoeffSequence:
    p = KMParams(float(alpha), float(beta))
    alpha, beta = p.alpha, p.beta

    def h(n: int) -> float:
        m, r = divmod(n + 1, 2)
        if r == 0:  # n = 2m - 1
            return alpha * (alpha - 1.0) ** (m - 1) * (beta - 1.0) ** (m - 1)
        m = n // 2
        return beta * (alpha - 1.0) ** m * (beta - 1.0) ** (m - 1)

    def measure():
        g1, g2 = p.gamma1, p.gamma2
        atoms = [(0.0, (alpha - beta) / alpha)] if alpha > beta else []
        if alpha == beta:
            def rho(x, lo, hi):
                one_minus = (1.0 - g1) + hi          # = 1 - x, exact at x -> g1
                return alpha * np.sqrt(hi * (g1 + x)) / (
                    2.0 * np.pi * one_minus * (1.0 + x)
                )

            return MeasureSpec("full", [DensityPiece(0.0, g1, rho)], atoms)

        def rho(x, lo, hi):
            one_minus = (1.0 - g1) + hi
            rad = lo * (x + g2) * hi * (g1 + x)   # (x^2-g2^2)(g1^2-x^2)
            return beta * np.sqrt(rad) / (
                2.0 * np.pi * x * one_minus * (1.0 + x)
            )

        return MeasureSpec("full", [DensityPiece(g2, g1, rho)], atoms)

    return CoeffSequence(
        "km", {"alpha": alpha, "beta": beta},
        lambda n: 1.0 / alpha if n % 2 else 1.0 / beta,
        f"Karlin--McGregor walk polynomials, alpha={alpha}, beta={beta}",
        closed_form=h, measure=measure,
    )


def _modkm(alpha, beta) -> CoeffSequence:
    p = KMParams(float(alpha), float(beta))
    alpha, beta = p.alpha, p.beta
    sa = math.sqrt(alpha - 1.0)
    sb = math.sqrt(beta - 1.0)
    S = sa + sb
    D = (alpha - 2.0) * sb + (beta - 2.0) * sa
    excess = sa * sb - 1.0

    def c(n: int) -> float:
        if n % 2:
            m = (n + 1) // 2
            return sb / S * (1.0 - sa * excess / (D * m + S))
        m = n // 2
        return sa / S * (1.0 - sb * excess / (D * m + beta * sa))

    def h(n: int) -> float:
        slope = (alpha - 2.0) / sa + (beta - 2.0) / sb
        m, r = divmod(n + 1, 2)
        if r == 0:  # n = 2m - 1
            return (slope * (m - 1) + sa + sb) ** 2 / beta
        m = n // 2
        return (slope * m + beta / sb) ** 2 / beta

    def measure():
        g1, g2 = p.gamma1, p.gamma2
        atoms = [(0.0, (alpha - beta) / alpha)] if alpha > beta else []
        if alpha == beta:
            def rho(x, lo, hi):
                dm = (1.0 - g1) + g1 * hi            # = 1 - g1*x, exact at x -> 1
                return alpha * g1 * g1 * np.sqrt(hi * (1.0 + x)) / (
                    2.0 * np.pi * dm * (1.0 + g1 * x)
                )

            return MeasureSpec("full", [DensityPiece(0.0, 1.0, rho)], atoms)

        def rho(x, lo, hi):
            dm = (1.0 - g1) + g1 * hi
            rad = hi * (1.0 + x) * g1 * lo * (g1 * x + g2)
            return beta * g1 * np.sqrt(rad) / (
                2.0 * np.pi * x * dm * (1.0 + g1 * x)
            )

        return MeasureSpec("full", [DensityPiece(p.support_cut, 1.0, rho)], atoms)

    return CoeffSequence(
        "modkm", {"alpha": alpha, "beta": beta}, c,
        f"Karlin--McGregor rescaled walk polynomials, alpha={alpha}, beta={beta}",
        closed_form=h, measure=measure,
    )


def _rational25() -> CoeffSequence:
    def c(n: int) -> float:
        if n % 2:
            m = (n + 1) // 2
            return (6 * m + 4) / (9 * m + 9)
        m = n // 2
        return (m + 1) / (3 * m + 5)

    def h(n: int) -> float:
        m, r = divmod(n + 1, 2)
        if r == 0:
            return 1.8 * (0.5 * m + 0.5) ** 2
        m = n // 2
        return 1.8 * (0.5 * m + 5.0 / 6.0) ** 2

    return CoeffSequence(
        "rational25", {}, c, "rational-coefficient family with h(1)=9/5 "
        "(rescaled Karlin--McGregor (2,5))",
        closed_form=h, measure=lambda: _modkm(2.0, 5.0).measure(),
    )


def _convex(eps=None, s0=None, q=0.5) -> CoeffSequence:
    q = float(q)
    if eps is not None and s0 is not None:
        raise FamilyParameterError("convex family takes eps or s0, not both")
    if eps is not None:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise FamilyParameterError(f"convex requires eps in (0, 1), got {eps}")
        s0 = s0_for_epsilon(eps)
        shown = {"eps": eps, "q": q}
    elif s0 is not None:
        s0 = float(s0)
        shown = {"s0": s0, "q": q}
    else:
        raise FamilyParameterError("convex family needs eps= or s0=")
    if not 0.0 < q < 1.0:
        raise FamilyParameterError(f"convex requires q in (0, 1), got {q}")
    return _ConvexSequence(
        shown,
        ConvexSeqSpec(geometric_sequence(s0, q)),
        f"convex-sequence construction, s_k = {s0:.12g} * {q:.12g}**k",
    )


def _custom(cfunc) -> CoeffSequence:
    return CoeffSequence("custom", {}, cfunc, "user-supplied coefficients")


def _entry(build: Callable) -> tuple:
    """(builder, its parameter names, the names without a default)."""
    params = inspect.signature(build).parameters.values()
    needed = tuple(p.name for p in params if p.default is p.empty)
    return build, frozenset(p.name for p in params), needed


#: tag -> :func:`_entry` of the family's builder, which is named ``_<tag>``
_FAMILIES = {
    build.__name__[1:]: _entry(build)
    for build in (
        _cheb1, _gencheb, _cosh, _grinspun, _km, _modkm, _rational25, _convex, _custom
    )
}


def make_family(tag: str, /, **params) -> CoeffSequence:
    """Build a named coefficient sequence.

    ``params`` are the family's own parameters, the arguments of its
    builder; any other key raises :class:`FamilyParameterError`, and so
    does a real value that is not finite, before the builder checks the
    values against the family's domain.  The coefficient-domain check
    c(n) in (0, 1) applies lazily.
    """
    tag = tag.lower()
    try:
        build, names, needed = _FAMILIES[tag]
    except KeyError:
        raise UnsupportedFamilyError(
            f"unknown family tag {tag!r}; known: {tuple(_FAMILIES)}"
        ) from None
    if not names.issuperset(params):
        extra = sorted(params.keys() - names)
        raise FamilyParameterError(f"unexpected parameter(s) for {tag}: {extra}")
    for name in needed:
        if name not in params:
            raise FamilyParameterError(f"{tag} family needs {name}=")
    for name, value in params.items():
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise FamilyParameterError(
                f"{tag} parameter {name} must be finite, got {float(value)!r}")
    return build(**params)


_SPEC_RE = re.compile(r"^\s*([A-Za-z0-9_]+)\s*(?::(.*))?$")


def parse_family_spec(spec: str) -> CoeffSequence:
    """Parse a ``tag:key=value,key=value`` string into a sequence.

    Values may be decimal (``0.5``, ``-0.8333``, ``1e-3``) or rational
    (``5/9``) literals.  ``custom`` is rejected: its ``cfunc`` is a callable.
    """
    m = _SPEC_RE.match(spec)
    if m is None:
        raise FamilyParameterError(f"malformed family spec {spec!r}")
    tag, rest = m.group(1), m.group(2)
    if tag.lower() == "custom":
        raise FamilyParameterError("custom takes a callable cfunc=, not a spec string")
    params = {}
    if rest is not None and rest.strip():
        for item in rest.split(","):
            if "=" not in item:
                raise FamilyParameterError(
                    f"malformed parameter {item!r} in family spec {spec!r}"
                )
            key, _, raw = item.partition("=")
            key, raw = key.strip(), raw.strip()
            if key in params:
                raise FamilyParameterError(f"repeated parameter {key!r} in family spec {spec!r}")
            try:
                params[key] = float(Fraction(raw))
            except (ValueError, ZeroDivisionError, OverflowError):  # 1e400 overflows
                raise FamilyParameterError(
                    f"cannot parse value {raw!r} for {key!r} in {spec!r} as a float"
                ) from None
    return make_family(tag, **params)


# ---------------------------------------------------------------------------
# closed-form Haar weights


def closed_form_haar(seq: CoeffSequence, n: int) -> float:
    """Closed-form Haar weight h(n), as the family of ``seq`` declares it.

    Raises :class:`UnsupportedFamilyError` for a sequence without one, such
    as ``custom`` and ``convex`` (the latter has no closed form beyond the
    defining Q_n(1)^2), and :class:`HaarRangeError` where the closed form
    is not a finite float.
    """
    n = _degree(n, "n")
    if n == 0:
        return 1.0
    if seq.closed_form is None:
        raise UnsupportedFamilyError(
            f"no closed-form Haar weights for family {seq.family_tag!r}"
        )
    try:
        value = seq.closed_form(n)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise HaarRangeError(
        f"closed-form Haar weight h({n}) is not finite for family "
        f"{seq.family_tag!r}"
    )


def closed_form_max_rel_err(seq: CoeffSequence, h) -> float:
    """max_n |h[n] - closed_form_haar(seq, n)| / closed_form_haar(seq, n)."""
    worst = 0.0
    for n in range(len(h)):
        ref = closed_form_haar(seq, n)
        worst = max(worst, abs(h[n] - ref) / ref)
    return float(worst)


# ---------------------------------------------------------------------------
# generalized Chebyshev region V and the quadratic growth estimate


def in_V(alpha: float, beta: float) -> bool:
    """Membership in the nonnegative-linearization region V.

    V = {(alpha, beta) in (-1, inf)^2 : alpha >= beta and
         a(a+5)(a+3)^2 >= (a^2 - 7a - 24) b^2}  with a = alpha+beta+1,
    b = alpha-beta.
    """
    if not (alpha > -1.0 and beta > -1.0):
        return False
    if alpha < beta:
        return False
    a = alpha + beta + 1.0
    b = alpha - beta
    return a * (a + 5.0) * (a + 3.0) ** 2 >= (a * a - 7.0 * a - 24.0) * b * b


def haar_term_estimate(alpha: float, beta: float) -> float:
    """The quadratic alpha^2 + alpha*beta + 3*alpha + 1.

    Nonnegativity of this expression on V is what makes each factor of the
    generalized Chebyshev Haar products >= 1; it is checked gridwise in the
    test suite.
    """
    return alpha * alpha + alpha * beta + 3.0 * alpha + 1.0


# ---------------------------------------------------------------------------
# parameter solvers for the h(1) = 1 + eps constructions


def beta_for_epsilon(eps: float) -> float:
    """beta with h(1) = 1 + eps for the rescaled Karlin--McGregor family
    at alpha = 2: beta = (2 + 2 sqrt(1 - eps^2)) / eps^2."""
    if not 0.0 < eps < 1.0:
        raise FamilyParameterError(f"eps must be in (0, 1), got {eps}")
    return (2.0 + 2.0 * math.sqrt(1.0 - eps * eps)) / (eps * eps)


def s0_for_epsilon(eps: float) -> float:
    """s0 with h(1) = 1/(1 - s0)^2 = 1 + eps for the convex construction."""
    if not 0.0 < eps < 1.0:
        raise FamilyParameterError(f"eps must be in (0, 1), got {eps}")
    return 1.0 - 1.0 / math.sqrt(1.0 + eps)


def h1_lt_2_region(alpha: float, beta: float) -> bool:
    """Whether the rescaled Karlin--McGregor pair has h(1) < 2.

    Equivalent to alpha < 3*beta - 2*sqrt(2*beta^2 - 2*beta); both
    parameters must be >= 2.
    """
    KMParams(alpha, beta)
    return alpha < 3.0 * beta - 2.0 * math.sqrt(2.0 * beta * beta - 2.0 * beta)


# ---------------------------------------------------------------------------
# alpha = 2 closed forms via Chebyshev-U


def km_special_closed_forms(beta: float, n: int, x, *, modified: bool = True):
    """Degree-n value of the alpha = 2 Karlin--McGregor closed forms.

    With ``modified=False`` this is the walk polynomial K_n^{(2,beta)}(x);
    with ``modified=True`` it is the rescaled P_n(x) = K_n(gamma1 x)/K_n(gamma1)
    written directly through Chebyshev-U polynomials.
    """
    from scipy.special import eval_chebyu  # deferred: slow to import

    def _chebu(k: int, z):
        if k < 0:
            return np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0
        return eval_chebyu(k, z)

    if beta < 2.0:
        raise FamilyParameterError(f"closed forms require beta >= 2, got {beta}")
    n = _degree(n, "n")
    x = np.asarray(x, dtype=float)
    sb = math.sqrt(beta - 1.0)
    if n == 0:
        return np.ones_like(x)[()] if x.ndim else 1.0
    m, r = divmod(n + 1, 2)
    if modified:
        w = ((2.0 * sb + beta) * x * x - beta) / (2.0 * sb)
        if r == 0:  # n = 2m - 1
            val = x * (sb * _chebu(m - 1, w) - _chebu(m - 2, w)) / (sb * m - (m - 1))
        else:
            m = n // 2
            val = ((beta - 1.0) * _chebu(m, w) - _chebu(m - 2, w)) / ((beta - 2.0) * m + beta)
    else:
        z = (2.0 * x * x - 1.0) * beta / (2.0 * sb)
        scale = (beta - 1.0) ** (-0.5 * m)
        if r == 0:  # n = 2m - 1
            val = scale * x * (sb * _chebu(m - 1, z) - _chebu(m - 2, z))
        else:
            m = n // 2
            scale = (beta - 1.0) ** (-0.5 * m)
            val = scale * ((beta - 1.0) / beta * _chebu(m, z) - _chebu(m - 2, z) / beta)
    return val[()] if np.ndim(val) else float(val)
