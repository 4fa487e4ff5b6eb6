"""The reweighted-measure partner construction: kernel identities, monic
weight swaps, value ratios, densities.  Integer parameters run in exact
rational arithmetic, so most residuals here are literally zero."""

from fractions import Fraction

import numpy as np
import pytest

from hyplab.appendixcheck import (
    TildeSeq,
    chebyshev_partner_residual,
    kernel_identity_residual,
    km_monic_lambda,
    monic_rows,
    mustar_orthogonality,
    sigma_ratio,
    tilde_density,
    tilde_density_ratio,
    tilde_monic_lambda,
)

LATTICE = [(a, b) for a in (2, 3, 5, 8) for b in (2, 3, 5, 8)]


def test_monic_lambda_spot_values():
    assert km_monic_lambda(2, 5, 1) == Fraction(1, 2)
    assert km_monic_lambda(2, 5, 2) == Fraction(1, 10)
    assert km_monic_lambda(2, 5, 3) == Fraction(2, 5)
    # the partner swaps only the first weight
    assert tilde_monic_lambda(2, 5, 1) == Fraction(2, 5)
    assert tilde_monic_lambda(2, 5, 2) == km_monic_lambda(2, 5, 2)
    assert tilde_monic_lambda(2, 5, 5) == km_monic_lambda(2, 5, 5)


@pytest.mark.parametrize("a,b", LATTICE)
def test_kernel_identity_exact_on_lattice(a, b):
    for n in range(13):
        assert kernel_identity_residual(a, b, n) == 0.0


def test_kernel_identity_float_parameters():
    worst = 0.0
    for n in range(8):
        worst = max(worst, abs(kernel_identity_residual(2.5, 5.5, n)))
    assert worst < 1e-12


# float.hex() of the residual before the exact and float paths were merged
KERNEL_RESIDUAL_HEX = {
    (2.5, 5.5): [
        "0x0.0p+0", "0x0.0p+0", "0x1.0p-52", "0x1.0p-52", "0x1.0p-52",
        "0x1.0p-52", "0x1.0p-52", "0x0.0p+0", "0x1.0p-52", "0x1.0p-51",
        "0x1.0p-51", "0x1.0p-51", "0x1.0p-51", "0x1.0p-51", "0x1.0p-51",
        "0x1.0p-50",
    ],
    (3, 7.5): [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.0p-52", "0x1.0p-54", "0x1.0p-54", "0x1.0p-51", "0x1.0p-51",
        "0x1.0p-51", "0x1.0p-50", "0x1.0p-50", "0x1.0p-49", "0x1.0p-50",
        "0x1.0p-50",
    ],
}


@pytest.mark.parametrize("a,b", sorted(KERNEL_RESIDUAL_HEX))
def test_kernel_identity_float_residuals_pinned(a, b):
    for n, want in enumerate(KERNEL_RESIDUAL_HEX[(a, b)]):
        got = kernel_identity_residual(a, b, n)
        assert type(got) is float
        assert got == float.fromhex(want), n


def test_float_and_mixed_parameters_stay_float():
    for a, b in ((2.5, 5.5), (3, 7.5), (Fraction(5, 2), 3.0)):
        for n in (1, 2, 3):
            assert type(km_monic_lambda(a, b, n)) is float
            assert type(tilde_monic_lambda(a, b, n)) is float
        assert type(sigma_ratio(a, b, 2)) is float
    assert type(TildeSeq(2.5, 5.5).initial_slope) is float
    # the slope depends on beta alone, so a rational beta keeps it exact
    assert TildeSeq(2.5, 5).initial_slope == Fraction(5, 4)


@pytest.mark.parametrize("a,b,n,want", [
    (2, 5, 0, Fraction(1, 2)),
    (2, 5, 1, Fraction(2, 5)),
    (5, 5, 1, Fraction(16, 25)),
])
def test_sigma_ratio_closed_values(a, b, n, want):
    assert sigma_ratio(a, b, n) == want


def test_sigma_ratio_general_formula():
    # (alpha-1)/alpha at n=0, then (alpha-1)(beta-1)/(alpha beta)
    for a, b in ((3, 8), (8, 3)):
        assert sigma_ratio(a, b, 0) == Fraction(a - 1, a)
        for n in (1, 2, 6):
            assert sigma_ratio(a, b, n) == Fraction((a - 1) * (b - 1), a * b)


def test_tilde_seq_validation():
    with pytest.raises(ValueError):
        TildeSeq(1.5, 5.0)
    with pytest.raises(ValueError):
        TildeSeq(2.0, 1.0)


def test_tilde_seq_initial_slope():
    t = TildeSeq(2, 5)
    # the partner's degree-1 member is beta x / (beta - 1)
    assert t.initial_slope == Fraction(5, 4)
    sigma1 = t.sigma(1)
    assert sigma1 == [0, 1]  # monic normalization drops the slope


def test_monic_rows_type_generic():
    from numbers import Rational

    rows_f = monic_rows(lambda n: 0.25, 6)
    rows_q = monic_rows(lambda n: Fraction(1, 4), 6)
    for rf, rq in zip(rows_f, rows_q):
        assert np.allclose(rf, [float(v) for v in rq], atol=1e-15)
    assert all(isinstance(v, Rational) for v in rows_q[6])  # no float leak


@pytest.mark.parametrize("a,b", [(2, 5), (5, 5), (8, 5), (3, 8)])
def test_mustar_orthogonality(a, b):
    assert mustar_orthogonality(a, b, N=8) < 1e-7


def test_chebyshev_partner_is_exact():
    assert chebyshev_partner_residual(12) == 0.0


class TestTildeDensity:
    def test_ratio_is_one_on_support(self):
        for a, b in ((2, 5), (5, 5), (3, 8)):
            p = TildeSeq(a, b)
            g1 = (np.sqrt(a - 1) + np.sqrt(b - 1)) / np.sqrt(a * b)
            g2 = abs(np.sqrt(a - 1) - np.sqrt(b - 1)) / np.sqrt(a * b)
            xs = np.linspace(g2 + 1e-3, g1 - 1e-3, 41)
            ratio = tilde_density_ratio(a, b, xs)
            assert np.max(np.abs(ratio - 1.0)) < 1e-10
            del p

    def test_balanced_parameters_reach_zero(self):
        # alpha = beta: the inner edge closes and the density is finite at 0
        d = tilde_density(5.0, 5.0, np.array([1e-6]))
        assert np.isfinite(d[0]) and d[0] > 0.0

    def test_mass_with_atom(self):
        # alpha > beta: atom of mass (alpha-beta)/(alpha-1) at the origin
        a, b = 8.0, 5.0
        xs = np.linspace(-1, 1, 200001)
        dens = tilde_density(a, b, xs)
        ac_mass = np.trapezoid(dens, xs)
        atom = (a - b) / (a - 1.0)
        assert ac_mass + atom == pytest.approx(1.0, abs=5e-4)
