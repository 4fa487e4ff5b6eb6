"""Reweighted-measure partner identities, verified exactly where possible.

For any symmetric orthogonal polynomial sequence with measure mu, the
partner measure

    dmu*(x) = (1/a(1)) (1 - x^2) dmu(x)

is again a probability measure, and the monic sequences sigma_n (for mu)
and sigma*_n (for mu*) are linked by the kernel identity

    (1 - x^2) sigma*_n(x) = -sigma_{n+2}(x)
                            + (sigma_{n+2}(1) / sigma_n(1)) sigma_n(x).

For the Karlin--McGregor walk coefficients the partner sequence is the
classical walk-polynomial variant with modified initial slope
P~_1(x) = beta x / (beta - 1), whose monic recurrence differs from the
original in the single weight lambda~_1 = (beta-1)/(alpha beta).  The
checks here build both sides in exact rational arithmetic whenever
alpha and beta are rational (every identity residual is then exactly 0)
and in floating point otherwise, and they confirm numerically that the
partner sequence really is orthogonal under mu* — including the
atom-at-zero case alpha > beta, where the partner atom mass is
(alpha-beta)/(alpha-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .core import monic_rows
from .families import KMParams, make_family
from . import measures as _measures

__all__ = [
    "TildeSeq",
    "km_monic_lambda",
    "tilde_monic_lambda",
    "monic_rows",
    "kernel_identity_residual",
    "sigma_ratio",
    "mustar_orthogonality",
    "tilde_density",
    "tilde_density_ratio",
    "chebyshev_partner_residual",
]


def _exact(*values) -> tuple:
    """Fractions when every value is rational, floats otherwise."""
    if all(isinstance(v, Rational) for v in values):
        return tuple(Fraction(v) for v in values)
    return tuple(float(v) for v in values)


def km_monic_lambda(alpha, beta, n: int):
    """Monic recurrence weight of the walk polynomials; exact if possible."""
    if n < 1:
        raise ValueError("monic weights start at n = 1")
    a, b = _exact(alpha, beta)
    if n == 1:
        return 1 / a
    if n % 2 == 0:
        return (a - 1) / (a * b)
    return (b - 1) / (a * b)


def tilde_monic_lambda(alpha, beta, n: int):
    """Monic weight of the modified-initial-slope partner sequence."""
    if n == 1:
        a, b = _exact(alpha, beta)
        return (b - 1) / (a * b)
    return km_monic_lambda(alpha, beta, n)


@dataclass(frozen=True)
class TildeSeq:
    """The modified walk-polynomial sequence attached to (alpha, beta).

    Same recurrence coefficients as the walk polynomials from degree 2
    on, but P~_1(x) = beta x / (beta - 1); equivalently, the monic
    weight at n = 1 changes to (beta-1)/(alpha beta).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 2 and self.beta >= 2):
            raise ValueError("partner sequence needs alpha, beta >= 2")

    @property
    def initial_slope(self):
        (b,) = _exact(self.beta)
        return b / (b - 1)

    def lam(self, n: int):
        return tilde_monic_lambda(self.alpha, self.beta, n)

    def sigma(self, n: int) -> list:
        """Ascending monomial coefficients of the monic partner sigma~_n."""
        return monic_rows(self.lam, n)[n]


def _poly_sub(p: Sequence, q: Sequence) -> list:
    out = list(p) + [0] * (len(q) - len(p))
    for k, coef in enumerate(q):
        out[k] -= coef
    return out


def _poly_scale(p: Sequence, s) -> list:
    return [s * coef for coef in p]


def _one_minus_x2_times(p: Sequence) -> list:
    out = list(p) + [0, 0]
    for k, coef in enumerate(p):
        out[k + 2] -= coef
    return out


def _kernel_residual(lam, lam_star, n: int, r):
    """Max |coefficient| of (1-x^2) sigma*_n + sigma_{n+2} - r sigma_n,
    with sigma from the monic weights ``lam`` and sigma* from ``lam_star``."""
    sig = monic_rows(lam, n + 2)
    sig_star = monic_rows(lam_star, max(n, 1))
    lhs = _one_minus_x2_times(sig_star[n])
    rhs = _poly_sub(_poly_scale(sig[n], r), sig[n + 2])
    return max(abs(c) for c in _poly_sub(lhs, rhs))


def kernel_identity_residual(alpha, beta, n: int) -> float:
    """Max |coefficient| of (1-x^2) sigma~_n + sigma_{n+2} - r_n sigma_n.

    r_n is (alpha-1)/alpha for n = 0 and (alpha-1)(beta-1)/(alpha beta)
    for n >= 1.  Exactly 0 for rational alpha, beta.
    """
    KMParams(float(alpha), float(beta))  # validate the parameter domain
    a, b = _exact(alpha, beta)
    r = (a - 1) / a if n == 0 else (a - 1) * (b - 1) / (a * b)
    return float(_kernel_residual(
        lambda k: km_monic_lambda(a, b, k),
        lambda k: tilde_monic_lambda(a, b, k),
        n, r,
    ))


def sigma_ratio(alpha, beta, n: int):
    """sigma_{n+2}(1) / sigma_n(1), evaluated then checked closed-form.

    Also verifies the one-step form sigma_{n+1}(1)/sigma_n(1) -
    lambda_{n+1} of the same quantity.  Raises AssertionError on any
    mismatch beyond round-off.
    """
    KMParams(float(alpha), float(beta))
    a, b = _exact(alpha, beta)
    one = type(a)(1)  # int/int would divide as float
    vals = [one, one]  # sigma_0(1), sigma_1(1)
    for k in range(1, n + 2):
        vals.append(vals[k] - km_monic_lambda(a, b, k) * vals[k - 1])
    ratio = vals[n + 2] / vals[n]
    one_step = vals[n + 1] / vals[n] - km_monic_lambda(a, b, n + 1)
    closed = (a - 1) / a if n == 0 else (a - 1) * (b - 1) / (a * b)
    tol = 0 if isinstance(a, Fraction) else 1e-12
    assert abs(ratio - closed) <= tol, (ratio, closed)
    assert abs(one_step - closed) <= tol, (one_step, closed)
    return ratio


def _poly_eval_grid(coeffs: Sequence, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    for c in reversed(list(coeffs)):
        out = out * x + float(c)
    return out


def mustar_orthogonality(alpha: float, beta: float, N: int, tol: float = 1e-11) -> float:
    """Max |int sigma~_m sigma~_n dmu*| over 0 <= m < n <= N.

    mu* is (1/a(1)) (1-x^2) dmu with mu the catalogued walk-polynomial
    measure, so the atom-at-zero case alpha > beta exercises the
    discrete part as well.
    """
    km = make_family("km", alpha=alpha, beta=beta)
    spec = _measures.measure_of(km)
    a1 = km.a(1)
    tilde = TildeSeq(alpha, beta)
    rows = [np.array([float(c) for c in row]) for row in
            monic_rows(tilde.lam, N)]
    worst = 0.0
    for m in range(N + 1):
        for n in range(m + 1, N + 1):
            if (m + n) % 2 == 1:
                continue  # odd cross terms vanish by symmetry
            val = _measures.inner_product(
                spec,
                lambda x, rm=rows[m], rn=rows[n]: (
                    _poly_eval_grid(rm, x)
                    * _poly_eval_grid(rn, x)
                    * (1.0 - x * x)
                    / a1
                ),
                tol=tol,
            )
            worst = max(worst, abs(val))
    return worst


def tilde_density(alpha: float, beta: float, x) -> np.ndarray:
    """Closed-form a.c. density of the partner measure (atom excluded).

    On gamma_2 < |x| < gamma_1:
        alpha beta sqrt((gamma_1^2-x^2)(x^2-gamma_2^2))
            / (2 pi (alpha-1) |x|),
    which degenerates to alpha^2 sqrt(gamma_1^2-x^2)/(2 pi (alpha-1))
    when alpha = beta.  For alpha > beta the remaining mass
    (alpha-beta)/(alpha-1) sits in an atom at 0.
    """
    p = KMParams(alpha, beta)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    g1, g2 = p.gamma1, p.gamma2
    out = np.zeros_like(ax)
    if alpha == beta:
        inside = ax < g1
        out[inside] = (
            alpha**2 * np.sqrt(g1**2 - ax[inside] ** 2)
            / (2.0 * math.pi * (alpha - 1.0))
        )
        return out
    inside = (ax > g2) & (ax < g1)
    xi = ax[inside]
    out[inside] = (
        alpha * beta * np.sqrt((g1**2 - xi**2) * (xi**2 - g2**2))
        / (2.0 * math.pi * (alpha - 1.0) * xi)
    )
    return out


def tilde_density_ratio(alpha: float, beta: float, x) -> np.ndarray:
    """tilde-density(x) / [(1/a(1)) (1-x^2) * walk-measure density(x)].

    Equals 1 identically on the interior of the a.c. support; the two
    formulas come from independent sources (the corrected classical
    derivation vs. the catalogue), so this is the printed-formula check.
    """
    km = make_family("km", alpha=alpha, beta=beta)
    spec = _measures.measure_of(km)
    x = np.asarray(x, dtype=float)
    base = spec.density(x) * (1.0 - x * x) / km.a(1)
    return tilde_density(alpha, beta, x) / base


def chebyshev_partner_residual(nmax: int) -> float:
    """Kernel identity for the Chebyshev pair, exact arithmetic.

    For the first-kind sequence the partner measure is the second-kind
    (semicircle-weight) measure, so sigma* must be the monic second-kind
    sequence: weight 1/2 at n=1 then 1/4 for the base, constant 1/4 for
    the partner.  Returns the max coefficient residual of the identity
    with the ratio r_n computed from values at 1 (not from a closed
    form), over all n <= nmax.  Exactly 0.
    """
    lam_t = lambda k: Fraction(1, 2) if k == 1 else Fraction(1, 4)
    lam_u = lambda k: Fraction(1, 4)
    at_one = [sum(row) for row in monic_rows(lam_t, nmax + 2)]  # sigma_n(1)
    return float(max(
        _kernel_residual(lam_t, lam_u, n, at_one[n + 2] / at_one[n])
        for n in range(nmax + 1)
    ))
