"""The reweighted-measure partner construction: kernel identities, monic
weight swaps, densities.  Integer parameters run in exact rational
arithmetic, so most residuals here are literally zero."""

from fractions import Fraction

import numpy as np
import pytest

from hyplab import measures
from hyplab.families import make_family

from hyplab.appendixcheck import (
    _kernel_residuals,
    chebyshev_partner_residual,
    kernel_identity_residual,
    kernel_identity_residuals,
    km_monic_lambda,
    monic_rows,
    mustar_orthogonality,
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
    for n in range(41):
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


def test_mustar_orthogonality_validation():
    # the walk parameters must be >= 2
    with pytest.raises(ValueError, match=r"require alpha, beta >= 2"):
        mustar_orthogonality(1.5, 5.0, 2)
    with pytest.raises(ValueError, match=r"require alpha, beta >= 2"):
        mustar_orthogonality(2.0, 1.0, 2)


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


def _poly_eval(coeffs, x):
    out = np.zeros_like(x, dtype=float)
    for c in reversed(list(coeffs)):
        out = out * x + float(c)
    return out


@pytest.mark.parametrize("N", [0, 1, 2, 8])
@pytest.mark.parametrize("a,b", [(2, 5), (5, 5), (8, 5)])
def test_mustar_pairs_equal_one_inner_product_each(a, b, N, monkeypatch):
    # the pairs are integrated in one inner_products pass; each integral is
    # bitwise the inner_product of its own integrand, in the pair loop
    # mustar_orthogonality ran before
    from test_measures import reference_inner_product

    seen = []
    inner_products = measures.inner_products

    def recording(spec, f):
        seen.append(inner_products(spec, f))
        return seen[-1]

    monkeypatch.setattr(measures, "inner_products", recording)
    worst = mustar_orthogonality(a, b, N)
    km = make_family("km", alpha=a, beta=b)
    spec, a1 = measures.measure_of(km), km.a(1)
    rows = [np.array([float(c) for c in row]) for row in
            monic_rows(lambda k: tilde_monic_lambda(a, b, k), N)]
    want, loop_worst = [], 0.0
    for m in range(N + 1):
        for n in range(m + 1, N + 1):
            if (m + n) % 2 == 1:
                continue
            val = reference_inner_product(
                spec,
                lambda x, rm=rows[m], rn=rows[n]: (
                    _poly_eval(rm, x) * _poly_eval(rn, x) * (1.0 - x * x) / a1
                ),
            )
            want.append(val)
            loop_worst = max(loop_worst, abs(val))
    assert len(seen) == 1
    assert [v.hex() for v in seen[0]] == [v.hex() for v in want]
    assert worst.hex() == loop_worst.hex()
    assert len(want) == {0: 0, 1: 0, 2: 1, 8: 16}[N]


def test_chebyshev_partner_is_exact():
    assert chebyshev_partner_residual(12) == 0.0


def fraction_kernel_residual(lam, lam_star, n, r):
    """The kernel-identity residual on Fraction polynomial rows, as it was
    computed before the integer-over-common-denominator path."""
    sig = monic_rows(lam, n + 2)
    sig_star = monic_rows(lam_star, max(n, 1))
    lhs = list(sig_star[n]) + [0, 0]
    for k, coef in enumerate(sig_star[n]):
        lhs[k + 2] -= coef
    resid = [x - r * y for x, y in zip(lhs, sig[n] + [0, 0])]
    resid = [x + y for x, y in zip(resid, sig[n + 2])]
    return max(abs(c) for c in resid)


RATIONAL_PARAMS = [(2, 5), (8, 3), (Fraction(5, 2), Fraction(15, 2))]


@pytest.mark.parametrize("a,b", RATIONAL_PARAMS)
def test_integer_path_matches_fraction_oracle_off_the_identity(a, b):
    # a perturbed ratio and swapped weights leave nonzero residuals, which
    # the integer path must reproduce exactly
    lam = lambda k: km_monic_lambda(a, b, k)
    lam_star = lambda k: tilde_monic_lambda(a, b, k)
    fa, fb = Fraction(a), Fraction(b)
    for n in range(31):
        # r_n in closed form, as kernel_identity_residual takes it
        r = (fa - 1) / fa if n == 0 else (fa - 1) * (fb - 1) / (fa * fb)
        for args in (
            (lam, lam_star, n, r + Fraction(1, 7 + n)),
            (lam, lam_star, n, Fraction(1, 3)),
            (lam_star, lam, n, r),
        ):
            got = _kernel_residuals(*args[:2], {n: args[3]})[n]
            want = fraction_kernel_residual(*args)
            assert type(got) is Fraction and got == want, (n, args[3])
            assert got != 0
            assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("a,b", [*LATTICE, *((float(a), float(b)) for a, b in LATTICE),
                                 (2.5, 5.5), (3, 7.5), (Fraction(5, 2), 3.0)])
def test_residual_list_equals_per_n_calls(a, b):
    # criterion 8 reads all n of one (alpha, beta) from one row build
    ns = [*range(16), 3, 0]
    got = kernel_identity_residuals(a, b, ns)
    assert [r.hex() for r in got] == [
        kernel_identity_residual(a, b, n).hex() for n in ns]
    assert kernel_identity_residuals(a, b, []) == []


@pytest.mark.parametrize("a,b", RATIONAL_PARAMS)
def test_residuals_of_one_row_build_match_fraction_oracle(a, b):
    # off the identity the residuals are nonzero; one common denominator
    # for all n gives each the exact value of its own build
    lam = lambda k: km_monic_lambda(a, b, k)
    lam_star = lambda k: tilde_monic_lambda(a, b, k)
    ratios = {n: Fraction(1, 7 + n) for n in range(21)}
    got = _kernel_residuals(lam, lam_star, ratios)
    assert list(got) == list(ratios)
    for n, r in ratios.items():
        want = fraction_kernel_residual(lam, lam_star, n, r)
        assert type(got[n]) is Fraction and got[n] == want != 0, n


def test_chebyshev_pair_with_a_wrong_ratio():
    lam_t = lambda k: Fraction(1, 2) if k == 1 else Fraction(1, 4)
    lam_u = lambda k: Fraction(1, 4)
    for n in range(31):
        # r_n = 1/4 for n >= 1 and 1/2 at n = 0; perturb it
        r = (Fraction(1, 2) if n == 0 else Fraction(1, 4)) - Fraction(1, 1000)
        got = _kernel_residuals(lam_t, lam_u, {n: r})[n]
        assert got == fraction_kernel_residual(lam_t, lam_u, n, r) != 0
        assert _kernel_residuals(lam_u, lam_t, {n: r})[n] == fraction_kernel_residual(
            lam_u, lam_t, n, r)


class TestTildeDensity:
    def test_ratio_is_one_on_support(self):
        for a, b in ((2, 5), (5, 5), (3, 8)):
            g1 = (np.sqrt(a - 1) + np.sqrt(b - 1)) / np.sqrt(a * b)
            g2 = abs(np.sqrt(a - 1) - np.sqrt(b - 1)) / np.sqrt(a * b)
            xs = np.linspace(g2 + 1e-3, g1 - 1e-3, 41)
            ratio = tilde_density_ratio(a, b, xs)
            assert np.max(np.abs(ratio - 1.0)) < 1e-10

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
