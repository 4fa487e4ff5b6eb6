"""Family registry: parameter validation, closed forms, the two
small-Haar constructions, and the exact-arithmetic convex backbone."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.core import (
    CoeffSequence,
    CoefficientDomainError,
    HaarRangeError,
    eval_basis_grid,
    haar_values,
)
from hyplab.dual import divergence_classify
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


@pytest.mark.parametrize("tag,params", [
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("cosh", {"a": 1.0}),
    ("gencheb", {}),
])
def test_closed_form_is_not_read_off_the_label(tag, params):
    # Chebyshev coefficients (h(3) = 2) under a family's label: only the
    # family's builder carries its closed form
    seq = CoeffSequence(tag, params, lambda n: 0.5)
    assert closed_form_haar(seq, 0) == 1.0
    with pytest.raises(UnsupportedFamilyError, match=f"family '{tag}'"):
        closed_form_haar(seq, 3)


@pytest.mark.parametrize("tag,params,n", [
    # 2 cosh(a n)^2 is inf at n = 36; cosh(a n) itself overflows at n = 72
    ("cosh", {"a": 10.0}, 36),
    ("cosh", {"a": 10.0}, 72),
    ("gencheb", {"alpha": 2.0, "beta": 1.0}, 400),
    ("km", {"alpha": 8.0, "beta": 5.0}, 800),
    ("modkm", {"alpha": 5.0, "beta": 5.0}, 10**160),
])
def test_closed_form_out_of_range_names_n_and_family(tag, params, n):
    seq = make_family(tag, **params)
    with pytest.raises(HaarRangeError, match=rf"h\({n}\) is not finite "
                       rf"for family '{tag}'"):
        closed_form_haar(seq, n)


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


FLOAT_PARAMETERS = [
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("convex", {"eps": 0.5, "q": 0.5}),
    ("convex", {"s0": 0.2, "q": 0.5}),
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "np-inf"])
@pytest.mark.parametrize("tag,params", FLOAT_PARAMETERS)
def test_rejects_non_finite_parameters(tag, params, bad):
    # each real parameter, refused before the builder reads it: the builders'
    # own domain checks let some through, to fail later at c(1) or c(2)
    for name in params:
        with pytest.raises(FamilyParameterError) as err:
            make_family(tag, **{**params, name: bad})
        assert str(err.value) == f"{tag} parameter {name} must be finite, got {float(bad)!r}"


def test_unknown_tag():
    known = ("('cheb1', 'gencheb', 'cosh', 'grinspun', 'km', 'modkm', "
             "'rational25', 'convex', 'custom')")
    for tag in ("legendre", "chebyshev"):
        with pytest.raises(UnsupportedFamilyError) as err:
            make_family(tag)
        assert str(err.value) == f"unknown family tag {tag!r}; known: {known}"


def test_missing_and_extra_params():
    with pytest.raises(FamilyParameterError):
        make_family("cosh")
    with pytest.raises(FamilyParameterError):
        make_family("cheb1", a=1.0)
    # no key, not even one named like an argument, skips the checks
    for params in ({"a": 1.0, "tag": 2.0}, {"a": -1.0, "unchecked": 1.0},
                   {"eps": 0.5, "unchecked": True}):
        with pytest.raises(FamilyParameterError, match="unexpected"):
            make_family("convex" if "eps" in params else "cosh", **params)


@pytest.mark.parametrize("tag,params,message", [
    ("gencheb", {"alpha": 1.0}, "gencheb family needs beta="),
    ("gencheb", {"alpha": 1.0, "foo": 1.0}, "unexpected parameter(s) for gencheb: ['foo']"),
    ("convex", {}, "convex family needs eps= or s0="),
    ("convex", {"foo": 1.0}, "unexpected parameter(s) for convex: ['foo']"),
    ("convex", {"eps": 0.5, "s0": 0.1}, "convex family takes eps or s0, not both"),
    ("custom", {}, "custom family needs cfunc="),
])
def test_parameter_errors_name_the_key(tag, params, message):
    # extra keys are named first, then missing ones, then the builder
    # checks the values against the family's domain
    with pytest.raises(FamilyParameterError) as err:
        make_family(tag, **params)
    assert str(err.value) == message


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
    "km:alpha=2,beta=5,alpha=8",
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


def convex_spec(eps, q=0.5):
    """The backbone ``make_family("convex", eps=eps, q=q)`` is built on."""
    return ConvexSeqSpec(geometric_sequence(s0_for_epsilon(eps), q))


@pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
def test_convex_h1_and_growth(eps):
    spec = convex_spec(eps)
    assert spec.haar(1) == pytest.approx(1.0 + eps, abs=1e-12)
    h = [spec.haar(n) for n in range(2, 30)]
    assert min(h) > 4.0
    for n in range(1, 12):
        assert spec.haar(2 * n + 2) / spec.haar(2 * n) > 4.0


def test_s0_for_epsilon_consistency():
    eps = 0.5
    s0 = s0_for_epsilon(eps)
    # h(1) = Q_1(1)^2 = 1/lambda_0^2 = 1/(1-s0)^2, wired through the ConvexSeqSpec object
    spec = ConvexSeqSpec(s=geometric_sequence(s0, 0.5))
    assert spec.haar(1) == pytest.approx(1.0 + eps, abs=1e-12)


# ---------------------------------------------------------------------------
# convex backbone exactness


class TestConvexExact:
    def setup_method(self):
        self.spec = convex_spec(0.5)
        self.seq = make_family("convex", eps=0.5, q=0.5)
        self.s = geometric_sequence(s0_for_epsilon(0.5), 0.5)

    def test_boundary_identity(self):
        # lam(2n-1) + lam(2n) = lam(2n+2) holds exactly for every n, and
        # the backbone's weights are those of the rational recurrence
        lam, _ = _fraction_backbone(self.s, 122)
        for n in range(1, 60):
            assert lam[2 * n - 1] + lam[2 * n] == lam[2 * n + 2]
        for j in range(122):
            assert self.spec.lam(j) == float(lam[j])

    def test_c_stays_in_open_interval_deep(self):
        lam, q = _fraction_backbone(self.s, 399)
        for n in (1, 50, 105, 200, 399):
            c = lam[n - 1] * q[n - 1] / q[n]
            assert 0 < c < 1
            assert self.spec.c(n) == float(c)

    def test_inv_a_representable_past_float_resolution(self):
        # float c(n) rounds to exactly 1.0 past n ~ 105 (and is rejected by
        # the domain guard), but 1/a(n) stays a representable float
        assert self.spec.c(201) == 1.0
        with pytest.raises(CoefficientDomainError):
            self.seq.c(201)
        inv = self.spec.inv_a(201)
        assert np.isfinite(inv) and inv > 1e20

    def test_haar_matches_q1_square(self):
        _, q = _fraction_backbone(self.s, 11)
        for n in range(12):
            assert self.spec.haar(n) == pytest.approx(float(q[n] ** 2), rel=1e-15)

    def test_rejects_nonconvex_sequence(self):
        # s_k = s0 * (0.9)^k has positive second difference; a concave one
        # must be refused
        concave = lambda k: 0.4 * (1.0 - 0.1 * k) if k < 9 else 0.01
        with pytest.raises(FamilyParameterError):
            spec = ConvexSeqSpec(s=concave)
            spec.lam(6)


class TestConvexColumns:
    """1/a(n) and alpha(n) = lambda_{n-1} of the convex family: 1/a(n) is
    read from the backbone once per index and then kept; alpha(n) reads
    no backbone column, only the s_k, each validated once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the class attributes, which the benchmark tracer wraps as well
        calls = {"inv_a": [], "lam": []}
        for name in calls:
            def counted(spec, n, name=name, original=getattr(ConvexSeqSpec, name)):
                calls[name].append(n)
                return original(spec, n)

            monkeypatch.setattr(ConvexSeqSpec, name, counted)
        return calls

    @pytest.mark.parametrize("column,method,first", [
        ("inv_a_array", "inv_a", 1), ("alpha_array", "lam", 0),
    ])
    def test_backbone_read_once_per_index(self, calls, column, method, first):
        seq = make_family("convex", eps=0.5)
        read = getattr(seq, column)
        got = read(400)
        # alpha(n) takes float differences of the s_k: no lam(n) call
        backbone = list(range(first, first + 400)) if method == "inv_a" else []
        assert calls == {"inv_a": [], "lam": [], method: backbone}
        calls[method].clear()
        validated = len(seq._spec._s_cache)
        again = read(400)
        assert calls == {"inv_a": [], "lam": []}
        assert len(seq._spec._s_cache) == validated
        assert again.tobytes() == got.tobytes()
        spec = convex_spec(0.5)
        want = np.array([getattr(spec, method)(n) for n in range(first, first + 400)])
        assert got[1:].tobytes() == want.tobytes()

    def test_past_float_range_names_n_and_keeps_prefix(self, calls):
        # 1/a(n) of s_k = 0.25 * 0.0625**k first leaves float range at
        # n = 513; the 512 values before it stay kept
        seq = make_family("convex", s0=0.25, q=0.0625)
        with pytest.raises(CoefficientDomainError,
                           match=r"^1/a\(n\) exceeds float range at n = 513$"):
            seq.inv_a_array(513)
        calls["inv_a"].clear()
        prefix = seq.inv_a_array(512)
        assert calls["inv_a"] == []
        spec = ConvexSeqSpec(geometric_sequence(0.25, 0.0625))
        want = np.array([1.0] + [spec.inv_a(n) for n in range(1, 513)])
        assert prefix.tobytes() == want.tobytes()


ALPHA_PAIRS = [(eps, q) for eps in (0.1, 0.3, 0.5, 0.7, 0.9) for q in (0.25, 0.5, 0.75)]
ALPHA_PAIRS += [(0.2, 0.5), (0.8, 0.5), (0.5, 0.9)]


@pytest.mark.parametrize("eps,q", ALPHA_PAIRS)
def test_convex_alpha_is_the_exact_lambda(eps, q):
    # explore's 15 (eps, q) pairs and three more: alpha(n) from float
    # differences of the s_k is bitwise the exact lambda_{n-1}, or raises
    # the error its first failing lambda_n raises (s_k underflows for
    # q = 1/4 before degree 1999)
    raised = []
    for nmax in (1, 2, 3, 1999):
        spec = convex_spec(eps, q)
        try:
            want = [math.nan] + [spec.lam(n) for n in range(nmax)]
        except CoefficientDomainError as err:
            raised.append(nmax)
            with pytest.raises(CoefficientDomainError, match=f"^{re.escape(str(err))}$"):
                make_family("convex", eps=eps, q=q).alpha_array(nmax)
        else:
            got = make_family("convex", eps=eps, q=q).alpha_array(nmax)
            assert got.tobytes() == np.array(want).tobytes(), nmax
    assert raised == ([1999] if q == 0.25 else [])


def _fraction_lam(s, nmax):
    """lambda_n, n < nmax, in Fractions."""
    sv = [Fraction(s(k)) for k in range(nmax // 2 + 2)]
    return [
        1 - sv[j // 2] if j % 2 == 0 else sv[(j + 1) // 2] - sv[(j + 1) // 2 + 1]
        for j in range(nmax)
    ]


def _fraction_backbone(s, nmax):
    """lambda_n and Q_n(1), n <= nmax, by the rational recurrence
    x Q_n = lambda_n Q_{n+1} + lambda_{n-1} Q_{n-1} at x = 1, in reduced
    Fractions: an oracle independent of the dyadic backbone."""
    lam = _fraction_lam(s, nmax)
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
    spec = convex_spec(eps, q)
    for n in range(1, nmax + 1):
        assert spec.c(n).hex() == _oracle("c", n, lam, q1).hex()
        assert spec.inv_a(n).hex() == _oracle("inv_a", n, lam, q1).hex()
        try:
            h = _oracle("haar", n, lam, q1)
        except OverflowError:
            with pytest.raises(OverflowError):
                spec.haar(n)
        else:
            assert spec.haar(n).hex() == h.hex()


@pytest.mark.parametrize("n", [348, 2000])
def test_convex_haar_past_float_range_names_n(n):
    # h(347) = 5.4e307 is the last Haar weight of the default convex
    # family inside float range; a read past it names h(348), the first
    # degree that fails, and names it again when read again
    spec = convex_spec(0.5)
    assert np.isfinite(spec.haar(347))
    for _ in range(2):
        with pytest.raises(HaarRangeError,
                           match=r"^Haar weight h\(348\) exceeds float range"):
            spec.haar(n)
    assert spec.haar(347) == convex_spec(0.5).haar(347)


def test_convex_backbone_memory_is_linear_in_n():
    # R_n and Pi_n take about n^2 bits each: kept for every n they take
    # about 18 MB at N = 1000, one state per column about 0.3 MB
    seq = make_family("convex", eps=0.5)
    tracemalloc.start()
    try:
        assert divergence_classify(seq, 0.9, N=1000) == "nonmember_diverged"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_unchecked_nonpositive_q1_still_raises():
    # s_k = 0.5 * 1.5**k leaves (0, 1) at k = 2, so lambda_1 < 0 and
    # Q_2(1) = (1/lambda_0 - lambda_0) / lambda_1 = -4 < 0.  The checks on
    # s would refuse s_2, so the exact s_k = 3**k / 2**(k+1) are seeded as
    # read, which leaves the Q_n(1) > 0 guard as the only check
    spec = ConvexSeqSpec(geometric_sequence(0.5, 1.5))
    spec._s_cache.extend((3**k, -(k + 1)) for k in range(12))
    assert spec.inv_a(1) == 4.0 / 3.0
    for _ in range(2):  # a raise leaves the column as it was
        with pytest.raises(FamilyParameterError, match=r"Q_2\(1\) = -4.0 is not positive"):
            spec.inv_a(2)
    assert spec.inv_a(1) == 4.0 / 3.0
    with pytest.raises(FamilyParameterError, match=r"Q_2\(1\) = -4.0 is not positive"):
        spec.haar(9)


def test_sign_only_columns_keep_the_guards_and_their_messages():
    # c and 1/a carry only the sign of Pi_k; their guards still raise as the
    # h column's, with the exact Q_{k+1}(1) or lambda_k named
    spec = ConvexSeqSpec(geometric_sequence(0.5, 1.5))
    spec._s_cache.extend((3**k, -(k + 1)) for k in range(12))
    for read in (spec.c, spec.inv_a, spec.haar):
        with pytest.raises(FamilyParameterError, match=r"Q_2\(1\) = -4.0 is not positive"):
            read(2)
    # s_1 = s_2 makes lambda_1 = 0
    spec = ConvexSeqSpec(geometric_sequence(0.5, 0.5))
    spec._s_cache.extend([(1, -1), (1, -2), (1, -2), (1, -3)])
    for read in (spec.c, spec.inv_a, spec.haar):
        with pytest.raises(ZeroDivisionError, match=r"lambda_1 = 0$"):
            read(3)


def test_only_the_haar_column_carries_pi():
    # Pi_n's mantissa grows by tens of bits per degree; the c and 1/a columns
    # hold its sign only, and their floats are those of the Fraction oracle
    spec = convex_spec(0.5)
    spec.c(400), spec.inv_a(400), spec.haar(300)
    assert spec._c._state[3] == spec._inv_a._state[3] == 1
    pi = spec._haar._state[3]
    assert pi[0] > 0 and pi[0].bit_length() > 10_000


def test_convex_inv_a_past_float_range_names_first_degree():
    # 1/a(n) of the default convex family first leaves float range at
    # n = 2047; a read far past it names that degree, twice
    spec = convex_spec(0.5)
    for _ in range(2):
        with pytest.raises(CoefficientDomainError,
                           match=r"^1/a\(n\) exceeds float range at n = 2047$"):
            spec.inv_a(3000)
    assert np.isfinite(spec.inv_a(2046))


@pytest.mark.parametrize("q,j,check", [
    (0.5, 1072, "decrease strictly"),  # s(1071) = s(1072) = 5e-324
    (0.1, 323, "stay positive"),  # s(322) subnormal, s(323) = 0.0
])
def test_convex_underflow_is_a_degree_limit(q, j, check):
    # s0 * q**k underflows to subnormal floats; the check it then fails
    # names the index and the degree it limits, twice, and degrees below
    # that limit stay readable
    seq = make_family("convex", eps=0.5, q=q)
    limit = 2 * j - 3
    for _ in range(2):
        with pytest.raises(CoefficientDomainError,
                           match=rf"s\({j}\) = \S+ fails to {check}, .* "
                                 rf"degree n <= {limit}$"):
            seq.alpha_array(limit + 1)
    assert np.all(np.isfinite(seq.alpha_array(limit)[1:]))


def test_convex_alpha_reads_only_the_s_k_its_degrees_need():
    # s_1 = 5e-324 * 0.5 underflows to 0.0, which limits the construction
    # to degree 1: alpha(1) = lambda_0 reads s_0 alone, alpha(2) reads s_1
    seq = make_family("convex", s0=5e-324, q=0.5)
    assert seq.alpha_array(1).tobytes() == np.array([math.nan, 1.0]).tobytes()
    with pytest.raises(CoefficientDomainError,
                       match=r"s\(1\) = 0\.0 fails to stay positive, .* degree n <= 1$"):
        seq.alpha_array(2)


@pytest.mark.parametrize("values,match", [
    ([0.5, 0.25, 0.25], "must be strictly decreasing"),
    ([0.5, 0.25, 0.2, 0.01], "must be convex"),
    ([2.0**-1000, 2.0**-1010, 2.0**-1010], "must be strictly decreasing"),
])
def test_convex_normal_float_failures_stay_parameter_errors(values, match):
    # a check that fails on normal floats is the sequence's fault, however
    # small the values; the failed value is not kept, so a second read
    # raises again
    spec = ConvexSeqSpec(lambda k: values[k] if k < len(values) else 0.0)
    for _ in range(2):
        with pytest.raises(FamilyParameterError, match=match):
            spec.lam(2 * len(values))


def test_convex_columns_independent_of_read_order():
    # the columns stream on their own: reading one deep first changes no
    # value of another, and every value is the rational recurrence's
    spec, s = convex_spec(0.5), geometric_sequence(s0_for_epsilon(0.5), 0.5)
    _, q1 = _fraction_backbone(s, 401)
    lam = _fraction_lam(s, 800)
    reads = [("inv_a", range(400, -1, -1)), ("haar", range(61)),
             ("c", range(1, 151)), ("lam", range(800))]
    for name, ns in reads:
        got = [getattr(spec, name)(n) for n in ns]
        fresh = convex_spec(0.5)
        assert [getattr(fresh, name)(n).hex() for n in ns] == [g.hex() for g in got]
        for n, g in zip(ns, got):
            assert g.hex() == _oracle(name, n, lam, q1).hex()


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_convex_family_serves_the_backbone_haar(eps):
    # the (eps, q) pairs of explore: the family's h(n) is its backbone's,
    # bit for bit
    for q in (0.25, 0.5, 0.75):
        seq, spec = make_family("convex", eps=eps, q=q), convex_spec(eps, q)
        assert ([seq.haar(n).hex() for n in range(41)]
                == [spec.haar(n).hex() for n in range(41)]), q


def _oracle(name, n, lam, q1):
    """lam(n), c(n), 1/a(n) or h(n) from the Fraction recurrence, each
    rounded once from an unreduced integer quotient: int / int rounds
    correctly, as Fraction.__float__ does."""
    if name == "lam":
        return float(lam[n])
    if n == 0:
        return {"c": 0.0, "inv_a": 1.0, "haar": 1.0}[name]
    b = q1[n]
    if name == "haar":
        return b.numerator**2 / b.denominator**2
    a = q1[n - 1]  # c(n) = lambda_{n-1} Q_{n-1}(1) / Q_n(1)
    num = lam[n - 1].numerator * a.numerator * b.denominator
    den = lam[n - 1].denominator * a.denominator * b.numerator
    return num / den if name == "c" else den / (den - num)


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
