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
checks here build both sides exactly whenever alpha and beta are
rational, as integer polynomials over a common denominator (every
identity residual is then exactly 0), and in floating point otherwise,
and they confirm numerically that the partner sequence really is
orthogonal under mu* — including the atom-at-zero case alpha > beta,
where the partner atom mass is (alpha-beta)/(alpha-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .core import _degree, monic_rows
from .families import KMParams, make_family
from . import measures as _measures

__all__ = [
    "km_monic_lambda",
    "tilde_monic_lambda",
    "monic_rows",
    "kernel_identity_residual",
    "kernel_identity_residuals",
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
    n = _degree(n, "n")
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
    if _degree(n, "n") == 1:
        a, b = _exact(alpha, beta)
        return (b - 1) / (a * b)
    return km_monic_lambda(alpha, beta, n)


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


def _kernel_residuals(lam, lam_star, ratios: dict) -> dict:
    """n -> max |coefficient| of (1-x^2) sigma*_n + sigma_{n+2} - r sigma_n
    with r = ``ratios[n]``, sigma from the monic weights ``lam`` and sigma*
    from ``lam_star``; every n from one build of the rows.

    Exact (a Fraction) when every r and the weights are rational, on the
    integer rows tau_k(y) = D^k sigma_k(y / D): with D the common
    denominator of the weights, tau is monic with the integer weights
    D^2 lambda_k, and coefficient j of sigma_k is tau_{k,j} / D^(k-j).  For
    r = p/q the residual scaled by q D^(n+2) then has integer coefficients,
    and its value does not depend on which common denominator D is.
    Floating point otherwise.
    """
    top = max(ratios)
    if not all(isinstance(r, Rational) for r in ratios.values()):
        sig = monic_rows(lam, top + 2)
        sig_star = monic_rows(lam_star, max(top, 1))
        out = {}
        for n, r in ratios.items():
            lhs = _one_minus_x2_times(sig_star[n])
            rhs = _poly_sub(_poly_scale(sig[n], r), sig[n + 2])
            out[n] = max(abs(c) for c in _poly_sub(lhs, rhs))
        return out
    lams = [lam(k) for k in range(1, top + 2)]
    lams_star = [lam_star(k) for k in range(1, top)]
    D = math.lcm(*(v.denominator for v in (*lams, *lams_star)))
    D2 = D * D

    def scaled(weights):  # k -> D^2 lambda_k, an integer
        mu = [v.numerator * (D2 // v.denominator) for v in weights]
        return lambda k: mu[k - 1]

    tau = monic_rows(scaled(lams), top + 2)
    tau_star = monic_rows(scaled(lams_star), top)
    out = {}
    for n, r in ratios.items():
        p, q = r.numerator, r.denominator
        # coefficient j of q D^(n+2) times the residual is D^j times
        # q D^2 tau*_{n,j} - q tau*_{n,j-2} + q tau_{n+2,j} - p D^2 tau_{n,j}
        resid = [q * c for c in tau[n + 2]]
        for j, c in enumerate(tau_star[n]):
            resid[j] += q * D2 * c
            resid[j + 2] -= q * c
        for j, c in enumerate(tau[n]):
            resid[j] -= p * D2 * c
        out[n] = Fraction(
            max(abs(c) * D**j for j, c in enumerate(resid)), q * D ** (n + 2)
        )
    return out


def kernel_identity_residual(alpha, beta, n: int) -> float:
    """Max |coefficient| of (1-x^2) sigma~_n + sigma_{n+2} - r_n sigma_n.

    r_n is (alpha-1)/alpha for n = 0 and (alpha-1)(beta-1)/(alpha beta)
    for n >= 1.  Exactly 0 for rational alpha, beta.
    """
    return kernel_identity_residuals(alpha, beta, (n,))[0]


def kernel_identity_residuals(alpha, beta, ns) -> list[float]:
    """:func:`kernel_identity_residual` at each degree of ``ns``, in order,
    from one build of the monic rows up to max(ns) + 2; each value equals
    that of the single call."""
    ns = [_degree(n, "n") for n in ns]
    KMParams(float(alpha), float(beta))  # validate the parameter domain
    if not ns:
        return []
    a, b = _exact(alpha, beta)
    # the weights repeat from k = 2 on with period 2: read them once
    w = {k: km_monic_lambda(a, b, k) for k in (1, 2, 3)}
    w_star_1 = tilde_monic_lambda(a, b, 1)

    def lam(k):
        return w[1] if k == 1 else w[2 + k % 2]

    residuals = _kernel_residuals(
        lam, lambda k: w_star_1 if k == 1 else lam(k),
        {n: (a - 1) / a if n == 0 else (a - 1) * (b - 1) / (a * b) for n in ns},
    )
    return [float(residuals[n]) for n in ns]


def _poly_eval_grid(coeffs: Sequence, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=float)
    for c in reversed(list(coeffs)):
        out = out * x + float(c)
    return out


def mustar_orthogonality(alpha: float, beta: float, N: int) -> float:
    """Max |int sigma~_m sigma~_n dmu*| over 0 <= m < n <= N.

    sigma~_n is the monic partner sequence, with the weights
    :func:`tilde_monic_lambda`.  mu* is (1/a(1)) (1-x^2) dmu with mu the
    catalogued walk-polynomial measure, so the atom-at-zero case
    alpha > beta exercises the discrete part as well.  The integrals of
    all pairs come from one :func:`measures.inner_products` pass, which
    evaluates sigma~_0..sigma~_N once per node set; each equals the
    :func:`measures.inner_product` of its pair alone.
    """
    N = _degree(N, "N")
    km = make_family("km", alpha=alpha, beta=beta)
    spec = _measures.measure_of(km)
    a1 = km.a(1)
    rows = [np.array([float(c) for c in row]) for row in
            monic_rows(lambda k: tilde_monic_lambda(alpha, beta, k), N)]
    # odd cross terms vanish by symmetry
    pairs = [(m, n) for m in range(N + 1) for n in range(m + 1, N + 1)
             if (m + n) % 2 == 0]

    def integrands(x):
        P = [_poly_eval_grid(row, x) for row in rows]
        w = 1.0 - x * x
        return np.array([P[m] * P[n] * w / a1 for m, n in pairs]).reshape(
            len(pairs), x.size)

    worst = 0.0
    for val in _measures.inner_products(spec, integrands):
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
    nmax = _degree(nmax, "nmax")
    lam_t = lambda k: Fraction(1, 2) if k == 1 else Fraction(1, 4)
    lam_u = lambda k: Fraction(1, 4)
    at_one = [sum(row) for row in monic_rows(lam_t, nmax + 2)]  # sigma_n(1)
    return float(max(_kernel_residuals(
        lam_t, lam_u, {n: at_one[n + 2] / at_one[n] for n in range(nmax + 1)}
    ).values()))
