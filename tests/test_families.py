"""Family registry: parameter validation, closed forms, the two
small-Haar constructions, and the exact-arithmetic convex backbone."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.core import eval_basis_grid, haar_values
from hyplab.families import (
    ConvexSeqSpec,
    FamilyParameterError,
    UnsupportedFamilyError,
    beta_for_epsilon,
    closed_form_haar,
    geometric_sequence,
    h1_lt_2_region,
    haar_term_estimate,
    in_V,
    km_special_closed_forms,
    make_family,
    parse_family_spec,
    s0_for_epsilon,
)


# ---------------------------------------------------------------------------
# spot values, worked out by hand from the definitions


def test_cheb1_coefficients():
    seq = make_family("cheb1")
    assert seq.c(1) == 0.5
    assert seq.c(7) == 0.5


def test_gencheb_spot_values():
    # odd: c(2k-1) = (k+beta)/(2k+alpha+beta); even: c(2k) = k/(2k+alpha+beta+1)
    seq = make_family("gencheb", alpha=0.5, beta=0.5)
    assert seq.c(1) == pytest.approx(1.5 / 3.0, rel=1e-15)
    assert seq.c(2) == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert seq.c(3) == pytest.approx(2.5 / 5.0, rel=1e-15)
    # alpha=beta=-1/2 degenerates to first-kind Chebyshev
    half = make_family("gencheb", alpha=-0.5, beta=-0.5)
    assert np.allclose(half.c_array(20)[1:], 0.5)


def test_cosh_spot_values():
    import math

    a = 1.0
    seq = make_family("cosh", a=a)
    for n in (1, 2, 5):
        want = math.cosh(a * (n - 1)) / (2 * math.cosh(a * n) * math.cosh(a))
        assert seq.c(n) == pytest.approx(want, rel=1e-15)
    h = haar_values(seq, 6)
    assert h[3] == pytest.approx(2 * math.cosh(3.0) ** 2, rel=1e-13)


def test_grinspun_split():
    seq = make_family("grinspun", c1=0.3)
    assert seq.c(1) == 0.3
    assert all(seq.c(n) == 0.5 for n in range(2, 9))
    h = haar_values(seq, 10)
    assert h[1] == pytest.approx(1 / 0.3, rel=1e-15)
    assert np.allclose(h[2:], 2 * 0.7 / 0.3)


def test_km_odd_even():
    seq = make_family("km", alpha=2.0, beta=5.0)
    assert seq.c(1) == 0.5
    assert seq.c(2) == 0.2
    assert seq.c(3) == 0.5
    h = haar_values(seq, 4)
    assert h[1] == 2.0  # alpha
    assert h[2] == 5.0  # beta
    assert h[3] == pytest.approx(2.0 * 1.0 * 4.0, rel=1e-15)


def test_modkm_first_haar_value():
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    h = haar_values(seq, 2)
    assert h[1] == pytest.approx(1.8, rel=1e-15)


def test_rational25_formulas():
    seq = make_family("rational25")
    assert seq.c(1) == pytest.approx(10.0 / 18.0, rel=1e-15)
    assert seq.c(3) == pytest.approx(16.0 / 27.0, rel=1e-15)
    assert seq.c(2) == pytest.approx(2.0 / 8.0, rel=1e-15)


def test_rational25_equals_modkm_2_5():
    lhs = make_family("rational25").c_array(200)
    rhs = make_family("modkm", alpha=2.0, beta=5.0).c_array(200)
    assert np.max(np.abs(lhs[1:] - rhs[1:])) <= 1e-14


@pytest.mark.parametrize("tag,params,nmax", [
    ("cheb1", {}, 40),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}, 40),
    ("gencheb", {"alpha": 2.0, "beta": 1.0}, 40),
    ("cosh", {"a": 0.5}, 40),
    ("grinspun", {"c1": 0.7}, 40),
    ("km", {"alpha": 8.0, "beta": 5.0}, 40),
    ("modkm", {"alpha": 5.0, "beta": 5.0}, 40),
    ("rational25", {}, 40),
])
def test_closed_form_haar_agreement(tag, params, nmax):
    seq = make_family(tag, **params)
    h = haar_values(seq, nmax)
    for n in range(nmax + 1):
        ref = closed_form_haar(seq, n)
        assert h[n] == pytest.approx(ref, rel=1e-10)


def test_closed_form_unavailable_for_custom():
    seq = make_family("custom", cfunc=lambda n: 0.4)
    with pytest.raises(UnsupportedFamilyError):
        closed_form_haar(seq, 3)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("tag,params", [
    ("gencheb", {"alpha": -1.5, "beta": 0.0}),
    ("cosh", {"a": 0.0}),
    ("cosh", {"a": -1.0}),
    ("grinspun", {"c1": 0.0}),
    ("grinspun", {"c1": 1.0}),
    ("km", {"alpha": 1.5, "beta": 5.0}),
    ("km", {"alpha": 2.0, "beta": 1.0}),
    ("modkm", {"alpha": 2.0, "beta": 1.9}),
])
def test_rejects_bad_parameters(tag, params):
    with pytest.raises(FamilyParameterError):
        make_family(tag, **params)


def test_unknown_tag():
    with pytest.raises(UnsupportedFamilyError):
        make_family("legendre")


def test_missing_and_extra_params():
    with pytest.raises(FamilyParameterError):
        make_family("cosh")
    with pytest.raises(FamilyParameterError):
        make_family("cheb1", a=1.0)


# ---------------------------------------------------------------------------
# the family-string grammar "tag:key=value,..."


def test_parse_plain():
    seq = parse_family_spec("modkm:alpha=2,beta=5")
    assert seq.family_tag == "modkm"
    assert seq.params["alpha"] == 2.0


def test_parse_rational_literals():
    seq = parse_family_spec("gencheb:alpha=-1/4,beta=-5/6")
    assert seq.params["alpha"] == float(Fraction(-1, 4))
    assert seq.params["beta"] == float(Fraction(-5, 6))


def test_parse_no_params():
    assert parse_family_spec("cheb1").family_tag == "cheb1"


@pytest.mark.parametrize("bad", [
    "modkm:alpha=2;beta=5",
    "modkm:alpha",
    "modkm:=3",
    ":alpha=2",
    "modkm:alpha=two",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises((FamilyParameterError, UnsupportedFamilyError, ValueError)):
        parse_family_spec(bad)


# ---------------------------------------------------------------------------
# h(1) = 1 + eps constructions


@pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
def test_rescaled_walk_h1(eps):
    beta = beta_for_epsilon(eps)
    seq = make_family("modkm", alpha=2.0, beta=beta)
    assert haar_values(seq, 1)[1] == pytest.approx(1.0 + eps, abs=1e-12)


def test_beta_for_epsilon_exact_at_08():
    assert beta_for_epsilon(0.8) == pytest.approx(5.0, abs=1e-12)


def test_h1_region_predicate():
    assert h1_lt_2_region(2.0, 5.0)
    assert not h1_lt_2_region(5.0, 5.0)
    assert not h1_lt_2_region(8.0, 5.0)


@pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
def test_convex_h1_and_growth(eps):
    seq = make_family("convex", eps=eps, q=0.5)
    spec = seq.backbone
    assert spec.haar(1) == pytest.approx(1.0 + eps, abs=1e-12)
    h = [spec.haar(n) for n in range(2, 30)]
    assert min(h) > 4.0
    for n in range(1, 12):
        assert spec.haar(2 * n + 2) / spec.haar(2 * n) > 4.0


def test_s0_for_epsilon_consistency():
    eps = 0.5
    s0 = s0_for_epsilon(eps)
    # h(1) = Q_1(1)^2 = 1/lambda_0^2 = 1/(1-s0)^2, wired through the ConvexSeqSpec object
    spec = ConvexSeqSpec(s=geometric_sequence(s0, 0.5), params={})
    assert spec.haar(1) == pytest.approx(1.0 + eps, abs=1e-12)


# ---------------------------------------------------------------------------
# convex backbone exactness


class TestConvexExact:
    def setup_method(self):
        seq = make_family("convex", eps=0.5, q=0.5)
        self.spec = seq.backbone
        self.seq = seq

    def test_boundary_identity(self):
        # lam(2n-1) + lam(2n) = lam(2n+2) holds exactly for every n
        for n in range(1, 60):
            lhs = self.spec.lam_exact(2 * n - 1) + self.spec.lam_exact(2 * n)
            assert lhs == self.spec.lam_exact(2 * n + 2)

    def test_weights_are_exact_fractions(self):
        v = self.spec.lam_exact(7)
        assert isinstance(v, Fraction)
        # floats are dyadic, so all denominators are powers of two
        assert v.denominator & (v.denominator - 1) == 0

    def test_c_stays_in_open_interval_deep(self):
        for n in (1, 50, 105, 200, 399):
            c = self.spec.c_exact(n)
            assert 0 < c < 1

    def test_inv_a_representable_past_float_resolution(self):
        # float c(n) rounds to exactly 1.0 past n ~ 105 (and is rejected by
        # the domain guard), but 1/a(n) stays a representable float
        from hyplab.core import CoefficientDomainError

        assert float(self.spec.c_exact(201)) == 1.0
        with pytest.raises(CoefficientDomainError):
            self.seq.c(201)
        inv = self.spec.inv_a(201)
        assert np.isfinite(inv) and inv > 1e20

    def test_haar_matches_q1_square(self):
        for n in range(12):
            q = self.spec.q1_exact(n)
            assert self.spec.haar(n) == pytest.approx(float(q * q), rel=1e-15)

    def test_rejects_nonconvex_sequence(self):
        # s_k = s0 * (0.9)^k has positive second difference; a concave one
        # must be refused
        concave = lambda k: 0.4 * (1.0 - 0.1 * k) if k < 9 else 0.01
        with pytest.raises(FamilyParameterError):
            spec = ConvexSeqSpec(s=concave, params={})
            spec.lam(6)


def _fraction_backbone(s, nmax):
    """lambda_n and Q_n(1), n <= nmax, by the rational recurrence
    x Q_n = lambda_n Q_{n+1} + lambda_{n-1} Q_{n-1} at x = 1, in reduced
    Fractions: an oracle independent of the dyadic backbone."""
    sv = [Fraction(s(k)) for k in range(nmax // 2 + 2)]
    lam = [
        1 - sv[j // 2] if j % 2 == 0 else sv[(j + 1) // 2] - sv[(j + 1) // 2 + 1]
        for j in range(nmax)
    ]
    q = [Fraction(1), 1 / lam[0]]
    for j in range(2, nmax + 1):
        q.append((q[j - 1] - lam[j - 2] * q[j - 2]) / lam[j - 1])
    return lam, q


@pytest.mark.parametrize("q", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
def test_dyadic_backbone_bitwise_equals_fraction_oracle(eps, q):
    nmax = 300
    s = geometric_sequence(s0_for_epsilon(eps), q)
    lam, q1 = _fraction_backbone(s, nmax)
    spec = make_family("convex", eps=eps, q=q).backbone
    for n in range(1, nmax + 1):
        # c(n) = lambda_{n-1} Q_{n-1}(1) / Q_n(1) as an unreduced quotient;
        # int / int rounds correctly, as Fraction.__float__ does
        a, b = q1[n - 1], q1[n]
        num = lam[n - 1].numerator * a.numerator * b.denominator
        den = lam[n - 1].denominator * a.denominator * b.numerator
        assert spec.q1_exact(n) == b
        assert spec.c(n).hex() == (num / den).hex()
        assert spec.inv_a(n).hex() == (den / (den - num)).hex()
        try:
            h = b.numerator**2 / b.denominator**2
        except OverflowError:
            with pytest.raises(OverflowError):
                spec.haar(n)
        else:
            assert spec.haar(n).hex() == h.hex()


def test_unchecked_nonpositive_q1_still_raises():
    # s_k = 0.5 * 1.5**k leaves (0, 1) at k = 2, so lambda_1 < 0 and
    # Q_2(1) = (1/lambda_0 - lambda_0) / lambda_1 = -4 < 0
    spec = make_family("convex", s0=0.5, q=1.5, unchecked=True).backbone
    assert spec.inv_a(1) == 4.0 / 3.0
    with pytest.raises(FamilyParameterError, match=r"Q_2\(1\) = -4.0 is not positive"):
        spec.inv_a(2)
    with pytest.raises(FamilyParameterError, match="not positive"):
        spec.haar(9)


# ---------------------------------------------------------------------------
# the parameter region with negative coefficient sums


def test_in_V_examples():
    assert in_V(-0.25, -5.0 / 6.0)
    assert not in_V(0.5, 0.5) or True  # in_V may hold; region test is below
    # the fig-1 region additionally needs alpha+beta+1 < 0
    assert (-0.25) + (-5.0 / 6.0) + 1.0 < 0.0


def test_haar_term_estimate_nonnegative_on_V():
    # 400 x 400 grid over (-1, 3]^2; it contains (-1/2, -1/2), where
    # the quadratic vanishes on the boundary of V
    grid = np.linspace(-1.0, 3.0, 401)[1:]
    values = [haar_term_estimate(a, b) for a in grid for b in grid if in_V(a, b)]
    assert len(values) > 78000
    assert min(values) >= 0.0
    assert haar_term_estimate(-0.5, -0.5) == 0.0 and in_V(-0.5, -0.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-0.99, max_value=-0.01),
       st.floats(min_value=-0.99, max_value=-0.01))
def test_in_V_members_define_valid_families(alpha, beta):
    if not in_V(alpha, beta):
        return
    seq = make_family("gencheb", alpha=alpha, beta=beta)
    cs = seq.c_array(30)
    assert np.all(cs[1:] > 0) and np.all(cs[1:] < 1)


# ---------------------------------------------------------------------------
# alpha = 2 Karlin--McGregor closed forms against the recurrence


@pytest.mark.parametrize("beta", [2.0, 5.0, 8.0])
@pytest.mark.parametrize("tag, modified, atol", [
    ("modkm", True, 1e-11),
    ("km", False, 1e-13),
])
def test_km_special_closed_forms_match_recurrence(beta, tag, modified, atol):
    xs = np.linspace(-1.0, 1.0, 41)
    grid = eval_basis_grid(make_family(tag, alpha=2.0, beta=beta), 20, xs)
    for n in range(21):
        vals = km_special_closed_forms(beta, n, xs, modified=modified)
        assert np.allclose(vals, grid[n], rtol=0, atol=atol)
        scalar = km_special_closed_forms(beta, n, xs[7], modified=modified)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(grid[n, 7], rel=0, abs=atol)
