"""Orthogonalization measures: densities, atoms, quadrature, Jacobi spectra.

Each family's builder in :mod:`hyplab.families` attaches a callable that
returns a fresh :class:`MeasureSpec`; :func:`measure_of` calls it.

Every measure here is symmetric about the origin, so the absolutely
continuous part is described by density pieces on the positive half-axis
only; integrals mirror them with the appropriate parity sign.  Piece
density callables take ``(x, lo, hi)`` where ``lo``/``hi`` are the exact
distances from the node to the piece endpoints, so inverse-square-root
and similar edge singularities stay finite under tanh-sinh refinement.

Status values on :class:`MeasureSpec`:

* ``"full"`` - density (and any atom) known in closed form,
* ``"atoms_unknown"`` - purely discrete measure located numerically
  through truncated Jacobi spectra,
* ``"density_unknown"`` - neither density nor atoms are catalogued.

Only a ``"full"`` measure integrates; the others raise
:class:`UnsupportedFamilyError`.  :func:`spectrum_atoms` is the one
Jacobi-spectrum solver.

The integrals below run tanh-sinh to the fixed stopping tolerance
:data:`QUAD_TOL`, and :func:`triple_products` to
:data:`TRIPLE_QUAD_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    CoeffSequence,
    UnsupportedFamilyError,
    _degree,
    eval_basis_grid,
    haar_values,
)
from .quadrature import (
    MAX_LEVEL,
    START_LEVEL,
    QuadratureConvergenceError,
    default_rule,
)

__all__ = [
    "DensityPiece",
    "MeasureSpec",
    "measure_of",
    "measure_mass",
    "second_moment",
    "inner_product",
    "basis_gram",
    "orthogonality_error",
    "triple_products",
    "spectrum_atoms",
]

#: tanh-sinh stopping tolerance of the mass, moment, inner-product and
#: Gram integrals.
QUAD_TOL = 1e-11
#: tanh-sinh stopping tolerance of :func:`triple_products`.
TRIPLE_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class DensityPiece:
    """One smooth density piece on ``0 <= a < b`` (mirrored implicitly)."""

    a: float
    b: float
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _require_closed_form(spec: MeasureSpec) -> None:
    """Raise unless the density and atoms of ``spec`` are known in closed form."""
    if spec.status != "full":
        raise UnsupportedFamilyError(
            f"needs a closed-form density (measure status {spec.status!r})"
        )


@dataclass
class MeasureSpec:
    status: str
    pieces: list[DensityPiece] = field(default_factory=list)
    atoms: list[tuple[float, float]] = field(default_factory=list)

    @property
    def atom_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def density(self, x) -> np.ndarray:
        """Pointwise a.c. density (0 outside the pieces; symmetric in x)."""
        _require_closed_form(self)
        x = np.asarray(x, dtype=float)
        t = np.abs(x)
        out = np.zeros_like(t)
        for p in self.pieces:
            mask = (t > p.a) & (t < p.b)
            if np.any(mask):
                tm = t[mask]
                out[mask] = p.fn(tm, tm - p.a, p.b - tm)
        return out


def measure_of(seq: CoeffSequence) -> MeasureSpec:
    """Orthogonalization measure of ``seq``, built afresh by its family.

    Raises :class:`UnsupportedFamilyError` when the sequence carries no
    measure, as custom sequences do: the coefficient callable alone does
    not determine it.
    """
    if seq.measure is None:
        raise UnsupportedFamilyError(
            f"no closed-form measure registered for family {seq.family_tag!r}"
        )
    return seq.measure()


# ---------------------------------------------------------------------------
# integration drivers
# ---------------------------------------------------------------------------


def _refine_piece(piece, accumulate, tol):
    """Run accumulate(x, lo, hi, wts) per level until stable; return S."""
    rule = default_rule()
    mid = 0.5 * (piece.a + piece.b)
    half = 0.5 * (piece.b - piece.a)
    prev = None
    for level in range(START_LEVEL, MAX_LEVEL + 1):
        u, omu, opu, w = rule.level_nodes(level)
        x = mid + half * u
        lo = half * opu
        hi = half * omu
        contrib = accumulate(x, lo, hi, half * w) * 2.0**-level
        cur = contrib if prev is None else prev * 0.5 + contrib
        if prev is not None:
            delta = np.max(np.abs(cur - prev))
            scale = max(1.0, float(np.max(np.abs(cur))))
            if delta <= tol * scale:
                return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"tanh-sinh did not stabilize to {tol:g} on "
        f"({piece.a:g}, {piece.b:g}) by level {MAX_LEVEL}"
    )


def integrate_positive(
    spec: MeasureSpec,
    row_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    tol: float,
):
    """Integrate ``row_fn(x, lo, hi) * density`` over the positive-axis a.c.
    part, refining each piece until it is stable to ``tol``.  ``row_fn``
    may return a scalar-per-node vector or a stack of rows ``(k, len(x))``;
    atoms and mirroring are the caller's business.  Raises
    :class:`UnsupportedFamilyError` unless ``spec`` is ``"full"``.
    """
    _require_closed_form(spec)
    total = None
    for piece in spec.pieces:
        def acc(x, lo, hi, wts, _p=piece):
            rho = _p.fn(x, lo, hi)
            vals = np.atleast_2d(row_fn(x, lo, hi))
            return vals @ (rho * wts)

        part = _refine_piece(piece, acc, tol)
        total = part if total is None else total + part
    if total is None:
        total = np.zeros(1)
    if not np.all(np.isfinite(total)):
        raise QuadratureConvergenceError("non-finite quadrature result")
    return total if total.size > 1 else float(total[0])


def measure_mass(spec: MeasureSpec) -> float:
    """Total mass (a.c. part doubled by symmetry, plus atoms)."""
    ac = integrate_positive(spec, lambda x, lo, hi: np.ones_like(x), tol=QUAD_TOL)
    return 2.0 * ac + spec.atom_mass


def second_moment(spec: MeasureSpec) -> float:
    """Integral of x^2 against the full measure."""
    ac = integrate_positive(spec, lambda x, lo, hi: x * x, tol=QUAD_TOL)
    return 2.0 * ac + sum(m * t * t for t, m in spec.atoms)


def inner_product(spec: MeasureSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against the full measure (f(x) + f(-x) on the a.c.
    half-axis pieces, plus f at the atoms)."""

    def vals(x):
        return np.asarray(f(x), dtype=float)

    ac = integrate_positive(
        spec, lambda x, lo, hi: vals(x) + vals(-x), tol=QUAD_TOL
    )
    at = sum(m * float(vals(np.array([t]))[0]) for t, m in spec.atoms)
    return ac + at


def basis_gram(seq: CoeffSequence, N: int) -> np.ndarray:
    """Gram matrix G[m, n] = integral of P_m P_n dmu for m, n <= N, against
    :func:`measure_of` of ``seq``."""
    N = _degree(N, "N")
    spec = measure_of(seq)

    def rows(x, lo, hi):
        B = eval_basis_grid(seq, N, x)
        return np.einsum("in,jn->ijn", B, B).reshape((N + 1) ** 2, x.size)

    pos = np.asarray(integrate_positive(spec, rows, tol=QUAD_TOL))
    pos = pos.reshape(N + 1, N + 1)
    par = (-1.0) ** (np.add.outer(np.arange(N + 1), np.arange(N + 1)))
    G = pos * (1.0 + par)
    for t, m in spec.atoms:
        col = eval_basis_grid(seq, N, np.array([t]))[:, 0]
        G += m * np.outer(col, col)
    return G


def orthogonality_error(seq: CoeffSequence, N: int = 12) -> float:
    """max |G[m,n] - delta_mn / h(n)| over m, n <= N (see :func:`basis_gram`)."""
    G = basis_gram(seq, N)
    target = np.diag(1.0 / haar_values(seq, N))
    return float(np.max(np.abs(G - target)))


def triple_products(seq: CoeffSequence, M: int) -> np.ndarray:
    """T[m, n, k] = integral of P_m P_n P_k dmu for m, n <= M, k <= 2M,
    against :func:`measure_of` of ``seq``.

    Together with the Haar weights this is the quadrature-side oracle for
    product-linearization coefficients: g(m, n; k) = h(k) * T[m, n, k].

    The measure is symmetric, so T[m, n, k] = 0 when m + n + k is odd, and
    T is symmetric in m, n.  Only the triples with m <= n and m + n + k
    even are integrated, over the positive half-axis and doubled; each
    result is written to both (m, n, k) and (n, m, k), and the odd-parity
    entries of the a.c. part stay exactly 0.0.
    """
    M = _degree(M, "M")
    spec = measure_of(seq)
    K = 2 * M
    # the pairs m <= n with m + n of parity p meet the degrees k = p, p + 2,
    # ..., so each parity is one block of rows (P_m P_n) P_k, pair-major
    pm, pn = np.triu_indices(M + 1)
    par = (pm + pn) % 2
    blocks = [(pm[par == p], pn[par == p], p) for p in (0, 1)]
    I = np.concatenate([np.repeat(m, M + 1 - p) for m, _, p in blocks])
    J = np.concatenate([np.repeat(n, M + 1 - p) for _, n, p in blocks])
    L = np.concatenate([np.tile(np.arange(p, K + 1, 2), m.size) for m, _, p in blocks])

    def rows(x, lo, hi):
        B = eval_basis_grid(seq, K, x)
        out = np.empty((I.size, x.size))
        start = 0
        for m, n, p in blocks:
            block = out[start : start + m.size * (M + 1 - p)]
            np.multiply((B[m] * B[n])[:, None], B[p::2],
                        out=block.reshape(m.size, M + 1 - p, x.size))
            start += block.shape[0]
        return out

    pos = 2.0 * np.asarray(integrate_positive(spec, rows, tol=TRIPLE_QUAD_TOL))
    T = np.zeros((M + 1, M + 1, K + 1))
    T[I, J, L] = pos
    T[J, I, L] = pos
    for t, m in spec.atoms:
        col = eval_basis_grid(seq, K, np.array([t]))[:, 0]
        T += m * np.einsum("i,j,k->ijk", col[: M + 1], col[: M + 1], col)
    return T


def spectrum_atoms(seq: CoeffSequence, N: int):
    """Truncated-spectrum points with how localized their eigenvectors are.

    Returns ``(eigenvalues, tail)`` sorted by eigenvalue, where tail is
    the modulus of the last eigenvector component (unit vectors).  A
    tail near zero means the truncation boundary is invisible to that
    eigenvector, so the point persists as a genuine atom of the
    infinite operator; boundary-dominated artifacts show tails of
    order 1/sqrt(N).

    The zero diagonal of J couples only positions of opposite parity, so
    J^2 restricted to the positions N-1, N-3, ... is a tridiagonal S of
    order ceil(N/2): at position p the diagonal is alpha_p^2 +
    alpha_{p+1}^2 and the entry to p+2 is alpha_{p+1} alpha_{p+2}.  Each
    unit eigenvector u of S gives the J-eigenpair (u +- Ju/sigma)/sqrt(2)
    with eigenvalue +-sigma, sigma = ||J u||, and tail |u_{N-1}|/sqrt(2).
    sigma is taken as ||J u|| and not as the square root of S's
    eigenvalue, which would turn a rounding of 1e-17 near 0 into 3e-9;
    the vectors with sigma below 1% of the largest are re-separated by an
    SVD of J on their span, since S tells them apart only to rounding of
    its largest eigenvalue.  For odd N, S has one more row than the other
    parity, so its smallest-sigma vector is the kernel of J: eigenvalue
    exactly 0.0 and tail |u_{N-1}|, not split.  The spectrum is exactly
    symmetric.  Tails carry errors of order eps / min(gap_lambda,
    gap_mu), where gap_mu is the distance from lambda^2 to the other
    squared eigenvalues; the eigenvector storage is ceil(N/2)^2 instead
    of N^2.
    """
    N = _degree(N, "N")
    if N < 2:
        raise ValueError("need N >= 2")
    from scipy.linalg import eigh_tridiagonal  # deferred: slow to import

    al = np.zeros(N + 1)
    al[1:N] = seq.alpha_array(N - 1)[1:]
    p = np.arange((N - 1) % 2, N, 2)
    up, up2 = al[p[:-1] + 1], al[p[:-1] + 2]
    _, U = eigh_tridiagonal(al[p] ** 2 + al[p + 1] ** 2, up * up2)
    # J u on the other parity: position p + 1 from rows p and p + 2, and
    # position 0 from row 1 alone when N is even
    JU = up[:, None] * U[:-1] + up2[:, None] * U[1:]
    if N % 2 == 0:
        JU = np.vstack((al[1] * U[:1], JU))
    sigma = np.sqrt(np.einsum("ij,ij->j", JU, JU))
    last = U[-1].copy()
    # S mixes the vectors whose sigma^2 sit within rounding of each other;
    # an SVD of J on their span separates them again (Rayleigh-Ritz)
    small = np.flatnonzero(sigma < 1e-2 * sigma.max())
    if small.size > 1:
        _, sigma[small], vh = np.linalg.svd(JU[:, small], full_matrices=False)
        last[small] = last[small] @ vh.T
    order = np.argsort(sigma)
    s, t = sigma[order], np.abs(last[order]) / math.sqrt(2.0)
    if N % 2:
        # the kernel of J is one eigenvector, its tail not split
        s[0], t[0] = 0.0, abs(last[order[0]])
        return np.concatenate((-s[:0:-1], s)), np.concatenate((t[:0:-1], t))
    return np.concatenate((-s[::-1], s)), np.concatenate((t[::-1], t))

