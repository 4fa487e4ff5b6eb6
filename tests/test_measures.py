"""Orthogonalization measures: masses, moments, Gram matrices, triple
products, and truncated-matrix spectra."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from hyplab import verify
from hyplab.core import (
    CoeffSequence,
    CoefficientDomainError,
    eval_basis_grid,
    haar_values,
)
from hyplab.families import UnsupportedFamilyError, make_family
from hyplab.linearization import LinearizationTable
from hyplab.measures import (
    TRIPLE_QUAD_TOL,
    basis_gram,
    inner_product,
    integrate_positive,
    measure_mass,
    measure_of,
    orthogonality_error,
    second_moment,
    spectrum_atoms,
    triple_products,
)
from hyplab.quadrature import default_rule

FULL = [
    ("cheb1", {}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}),
    ("cosh", {"a": 1.0}),
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("km", {"alpha": 8.0, "beta": 5.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
]


@pytest.mark.parametrize("tag,params", FULL)
def test_probability_mass(tag, params, measure):
    spec = measure(tag, **params)
    assert measure_mass(spec) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tag,params", FULL)
def test_second_moment_is_c1(tag, params, measure, family):
    # x P_0 = a(0) P_1 + 0 and x P_1 = a(1) P_2 + c(1) P_0 force
    # integral(x^2 dmu) = c(1)
    spec = measure(tag, **params)
    seq = family(tag, **params)
    assert second_moment(spec) == pytest.approx(seq.c(1), abs=1e-9)


def test_cheb_density_value(measure):
    spec = measure("cheb1")
    x = np.array([0.1, 0.5])  # piece interiors; endpoints are open
    want = 1.0 / (math.pi * np.sqrt(1.0 - x**2))
    assert np.allclose(spec.density(x), want, rtol=1e-12)


def test_km_8_5_atom(measure):
    spec = measure("km", alpha=8.0, beta=5.0)
    assert len(spec.atoms) == 1
    loc, mass = spec.atoms[0]
    assert loc == 0.0
    assert mass == pytest.approx((8.0 - 5.0) / 8.0, abs=1e-14)


def test_km_balanced_has_no_atom(measure):
    assert measure("km", alpha=5.0, beta=5.0).atoms == []
    assert measure("km", alpha=2.0, beta=5.0).atoms == []


def test_km_support_is_two_bands(measure):
    # unequal parameters leave a spectral gap |x| < gamma2 around 0
    spec = measure("km", alpha=8.0, beta=5.0)
    gamma2 = (math.sqrt(7.0) - 2.0) / math.sqrt(40.0)
    xs = np.linspace(0.0, 1.0, 400)
    dens = spec.density(xs)
    assert np.all(dens[xs < gamma2] == 0.0)
    assert np.any(dens > 0.0)
    # equal parameters close the gap: the band runs through 0
    balanced = measure("km", alpha=5.0, beta=5.0)
    assert balanced.density(np.array([0.01]))[0] > 0.0


@pytest.mark.parametrize("tag,params", FULL)
def test_gram_is_diagonal_with_haar_reciprocals(tag, params, family):
    seq = family(tag, **params)
    G = basis_gram(seq, 8)
    h = haar_values(seq, 8)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-9
    assert np.allclose(np.diag(G), 1.0 / h, rtol=1e-8)


@pytest.mark.parametrize("tag,params", FULL)
def test_orthogonality_error_small(tag, params, family):
    assert orthogonality_error(family(tag, **params), N=10) < 1e-7


def test_triple_products_match_linearization(family):
    seq = family("modkm", alpha=2.0, beta=5.0)
    M = 6
    T = triple_products(seq, M)
    h = haar_values(seq, 2 * M)
    t = LinearizationTable(seq, N=M)
    for m in range(M + 1):
        for n in range(M + 1):
            row = t.row(m, n)
            for k in range(M + 1):
                g_val = row[k] if k < row.size else 0.0
                assert g_val == pytest.approx(h[k] * T[m, n, k], abs=1e-9)


def test_triple_products_symmetric(family):
    T = triple_products(family("cosh", a=0.5), 5)
    assert T.shape == (6, 6, 11)  # k-axis reaches degree 2M
    assert np.allclose(T, np.transpose(T, (1, 0, 2)), atol=1e-12)
    cube = T[:, :, :6]  # full permutation symmetry on the m,n,k <= M block
    for perm in ((0, 2, 1), (2, 1, 0), (1, 2, 0)):
        assert np.allclose(cube, np.transpose(cube, perm), atol=1e-12)


def einsum_triple_products(seq, M):
    """T as triple_products once computed it: every (m, n, k) integrated,
    then multiplied by 1 + (-1)**(m + n + k)."""
    spec = measure_of(seq)
    K = 2 * M

    def rows(x, lo, hi):
        B = eval_basis_grid(seq, K, x)
        Bm = B[: M + 1]
        prod = np.einsum("in,jn,kn->ijkn", Bm, Bm, B)
        return prod.reshape((M + 1) * (M + 1) * (K + 1), x.size)

    pos = np.asarray(integrate_positive(spec, rows, tol=TRIPLE_QUAD_TOL))
    T = pos.reshape(M + 1, M + 1, K + 1)
    idx = np.add.outer(np.add.outer(np.arange(M + 1), np.arange(M + 1)),
                       np.arange(K + 1))
    T = T * (1.0 + (-1.0) ** idx)
    for t, m in spec.atoms:
        col = eval_basis_grid(seq, K, np.array([t]))[:, 0]
        T += m * np.einsum("i,j,k->ijk", col[: M + 1], col[: M + 1], col)
    return T


def levels_read(call):
    """call()'s result and the refinement levels it read, in order."""
    rule = default_rule()
    level_nodes, seen = rule.level_nodes, []

    def counted(level):
        seen.append(level)
        return level_nodes(level)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rule, "level_nodes", counted)
        return call(), seen


@pytest.mark.parametrize("tag,kw,M", [
    *((tag, kw, 12) for tag, kw in verify._FULL_MEASURE_FAMILIES),
    *(("km", {"alpha": 8, "beta": 5}, M) for M in (3, 6, 24)),
])
def test_triple_products_match_einsum_oracle(tag, kw, M, family):
    # only m <= n and even m + n + k are integrated; the entries, and the
    # level each piece stops at, are those of the full einsum
    seq = family(tag, **kw)
    T, levels = levels_read(lambda: triple_products(seq, M))
    want, want_levels = levels_read(lambda: einsum_triple_products(seq, M))
    assert levels == want_levels
    assert np.max(np.abs(T - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(T, T.transpose(1, 0, 2))
    odd = np.add.outer(np.add.outer(np.arange(M + 1), np.arange(M + 1)),
                       np.arange(2 * M + 1)) % 2 == 1
    assert np.all(T[odd] == 0.0)  # km(8,5)'s atom sits at 0, P_odd(0) = 0


def test_triple_products_degree_bounds(family):
    seq = family("cheb1")
    assert triple_products(seq, 0).tolist() == [[[1.0]]]
    for M in (-1, -3):
        with pytest.raises(ValueError, match=rf"^M must be >= 0, got {M}$"):
            triple_products(seq, M)


def test_measure_unavailable_for_custom():
    seq = make_family("custom", cfunc=lambda n: 0.45)
    with pytest.raises(UnsupportedFamilyError):
        measure_of(seq)


@pytest.mark.parametrize("tag,params", [
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("cosh", {"a": 1.0}),
    ("gencheb", {}),
])
def test_measure_is_not_read_off_the_label(tag, params):
    # Chebyshev coefficients under a family's label: the label and params
    # name no measure, only the family's builder does
    seq = CoeffSequence(tag, params, lambda n: 0.5)
    with pytest.raises(UnsupportedFamilyError, match=f"family '{tag}'"):
        measure_of(seq)


@pytest.mark.parametrize("a", [710.5, 1000.0, 1e300])
def test_cosh_measure_past_overflow_names_a(a):
    # 1/cosh(a) is not a float past a = 710.47; c(1) is 0.0 there already
    with pytest.raises(CoefficientDomainError, match=re.escape(f"a = {a!r}")):
        measure_of(make_family("cosh", a=a))


def test_cosh_measure_below_overflow_unchanged():
    spec = measure_of(make_family("cosh", a=710.0))
    (piece,) = spec.pieces
    assert spec.status == "full" and piece.a == 0.0
    assert piece.b.hex() == (1.0 / math.cosh(710.0)).hex() == "0x0.67005fa516786p-1022"


def test_grinspun_status_not_full(measure):
    spec = measure("grinspun", c1=0.7)
    assert spec.status != "full"


@pytest.mark.parametrize("read", [
    measure_mass,
    second_moment,
    lambda spec: inner_product(spec, np.cos),
    lambda spec: spec.density(np.linspace(-1.0, 1.0, 5)),
], ids=["measure_mass", "second_moment", "inner_product", "density"])
@pytest.mark.parametrize("tag,params", [
    ("grinspun", {"c1": 0.7}),
    ("convex", {"eps": 0.5}),
])
def test_no_closed_form_raises(measure, read, tag, params):
    # no catalogued density: an error, not the 0.0 of an empty piece list
    with pytest.raises(UnsupportedFamilyError, match="closed-form density"):
        read(measure(tag, **params))


class TestSpectrum:
    def test_cheb_spectrum_fills_interval(self, family):
        eig, _ = spectrum_atoms(family("cheb1"), 80)
        assert eig.min() > -1.0 and eig.max() < 1.0
        # the N-by-N truncation's characteristic polynomial is the monic
        # degree-N member, so its eigenvalues are the T_80 zeros
        want = np.sort(np.cos((2.0 * np.arange(1, 81) - 1.0) * np.pi / 160.0))
        assert np.max(np.abs(np.sort(eig) - want)) < 1e-12

    def test_spectrum_symmetric(self, family):
        eig, _ = spectrum_atoms(family("km", alpha=8.0, beta=5.0), 101)
        assert np.max(np.abs(np.sort(eig) + np.sort(eig)[::-1])) < 1e-12

    def test_km_gap_respected(self, family):
        # spectrum avoids the inner gap (|x| < gamma2) except the atom at 0
        seq = family("km", alpha=8.0, beta=5.0)
        eig, _ = spectrum_atoms(seq, 151)
        gamma2 = (math.sqrt(7.0) - 2.0) / math.sqrt(40.0)
        interior = np.abs(eig[np.abs(eig) > 1e-10])
        assert interior.min() > gamma2 - 1e-8

    def test_atom_localization(self, family):
        # the km(8,5) atom at 0 shows up as an eigenvalue whose eigenvector
        # has negligible last component
        eig, tails = spectrum_atoms(family("km", alpha=8.0, beta=5.0), 151)
        at_zero = np.argmin(np.abs(eig))
        assert abs(eig[at_zero]) < 1e-12
        assert tails[at_zero] < 1e-6

    def test_convex_spectrum_in_dual_band(self, family):
        seq = family("convex", eps=0.5, q=0.5)
        eig, _ = spectrum_atoms(seq, 120)
        cut = math.sqrt((1 - 0.5) / (1 + 0.5))
        assert np.min(np.abs(eig)) > cut - 1e-9
        # the measure is discrete with atoms AT +-1, so the truncation pins
        # its extreme eigenvalues there (within float resolution)
        assert np.max(np.abs(eig)) <= 1.0 + 1e-14


def oracle_atoms(seq, N):
    """Order-N eigenvectors of J itself: the path spectrum_atoms avoids."""
    vals, vecs = eigh_tridiagonal(np.zeros(N), seq.alpha_array(N - 1)[1:])
    order = np.argsort(vals)
    return vals[order], np.abs(vecs[-1, order])


def assert_atoms_match_oracle(seq, N):
    evs, tails = spectrum_atoms(seq, N)
    want, want_tails = oracle_atoms(seq, N)
    assert evs.shape == tails.shape == (N,)
    assert np.max(np.abs(evs - want)) <= 1e-13
    assert np.array_equal(evs, -evs[::-1])
    if N % 2:
        assert evs[N // 2] == 0.0
    # tails are conditioned by the gaps of J and of the half-size J^2
    # block: gap_mu is the distance from lambda_j^2 to the other squared
    # eigenvalues, the mirror -lambda_j left out
    gap_lam = np.array([np.min(np.abs(np.delete(want, j) - want[j]))
                        for j in range(N)])
    gap_mu = np.full(N, np.inf)
    sq = want * want
    for j in range(N):
        rest = np.delete(sq, sorted({j, N - 1 - j}))
        if rest.size:
            gap_mu[j] = np.min(np.abs(rest - sq[j]))
    gap = np.maximum(np.minimum(gap_lam, gap_mu), 1e-300)
    assert np.all(np.abs(tails - want_tails) <= 1e-12 + 1e-14 / gap)
    # oracle-free: the squared tails are row N-1 of an orthogonal matrix
    # and reproduce J[N-1, N-1] = 0 and (J^2)[N-1, N-1] = alpha_{N-1}^2
    w = tails * tails
    last = seq.alpha_array(N - 1)[N - 1]
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(np.dot(w, evs)) <= 1e-12
    assert abs(np.dot(w, evs * evs) - last * last) <= 1e-12


ATOM_CASES = [
    *(("modkm", {"alpha": 2.0, "beta": 5.0}, N) for N in (2, 3, 250, 999, 1000)),
    *(("convex", {"eps": 0.5}, N) for N in (400, 800)),
    *(("km", {"alpha": 8.0, "beta": 5.0}, N) for N in (150, 151)),
    *(("cheb1", {}, N) for N in (80, 81)),
    ("cosh", {"a": 1.0}, 500),
    ("grinspun", {"c1": 0.7}, 400),
]


@pytest.mark.parametrize("tag,params,N", ATOM_CASES)
def test_spectrum_atoms_match_full_eigenvectors(tag, params, N, family):
    assert_atoms_match_oracle(family(tag, **params), N)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.02, max_value=0.98),
                min_size=1, max_size=119))
def test_spectrum_atoms_on_custom_sequences(cs):
    seq = make_family("custom", cfunc=lambda n: cs[n - 1])
    assert_atoms_match_oracle(seq, len(cs) + 1)


def test_spectrum_atoms_separates_the_small_eigenvalues():
    # J has eigenvalues 0 and +-2.9e-8 here; the J^2 block tells their
    # squares apart only to rounding, so its eigenvectors for them come
    # out mixed, and sigma = ||J u|| read off the mixed vectors misses
    # 2.9e-8 by 1.3e-9
    level = {"l": 0.02, "m": 0.5, "h": 0.98}
    cs = [level[ch] for ch in "mhlmlhhhlhlhmhhmhlhlhlmlhh"]
    assert_atoms_match_oracle(
        make_family("custom", cfunc=lambda n: cs[n - 1]), len(cs) + 1)


def test_spectrum_atoms_needs_two_rows(family):
    with pytest.raises(ValueError):
        spectrum_atoms(family("cheb1"), 1)


def test_inner_product_with_atoms(measure):
    # integral of 1 against km(8,5) includes the 3/8 point mass
    spec = measure("km", alpha=8.0, beta=5.0)
    total = inner_product(spec, lambda x: np.ones_like(x))
    assert total == pytest.approx(1.0, abs=1e-9)
    even = inner_product(spec, lambda x: x**2)
    ac_only = even - 0.375 * 0.0**2
    assert ac_only == pytest.approx(even)  # atom at 0 adds nothing to x^2


def test_gram_matches_direct_quadrature(family, measure):
    # cross-check one entry of the Gram fast path against a scalar integral
    seq = family("gencheb", alpha=0.5, beta=0.5)
    spec = measure("gencheb", alpha=0.5, beta=0.5)
    G = basis_gram(seq, 4)

    def p22(x):
        return eval_basis_grid(seq, 2, x)[2] ** 2

    direct = inner_product(spec, p22)
    assert G[2, 2] == pytest.approx(direct, rel=1e-10)
