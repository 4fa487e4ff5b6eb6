"""Recurrence engine: coefficient domains, Haar weights, basis evaluation."""

import math

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
    monic_coeffs,
    monic_rows,
)
from hyplab.families import (
    ConvexSeqSpec,
    geometric_sequence,
    make_family,
    s0_for_epsilon,
)


def const_seq(cval):
    return CoeffSequence("custom", {"c": cval}, lambda n: cval)


def reference_basis(seq, N, x):
    """Degrees 0..N at one point by the three-term recurrence in Python
    floats, reading one coefficient at a time."""
    vals = [1.0]
    if N >= 1:
        vals.append(x)
    for n in range(1, N):
        vals.append((x * vals[n] - seq.c(n) * vals[n - 1]) / seq.a(n))
    return np.array(vals)


class TestDomains:
    def test_a0_is_one(self):
        seq = const_seq(0.3)
        assert seq.a(0) == 1.0

    def test_a_complements_c(self):
        seq = const_seq(0.3)
        assert seq.a(5) == pytest.approx(0.7, abs=0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_rejects_out_of_range_c(self, bad):
        seq = const_seq(bad)
        with pytest.raises(CoefficientDomainError):
            seq.c(1)

    def test_c_of_zero_is_undefined(self):
        # index 0 has no back-coefficient; only a(0)=1 is defined
        seq = const_seq(0.4)
        with pytest.raises(IndexError):
            seq.c(0)

    def test_bad_degree_is_named(self):
        # a float degree once ended in a list-index TypeError, and a(0.0)
        # returned 1.0; an integer of any type is a degree
        seq = make_family("cheb1")
        for read, bad in ((seq.c, 1.5), (seq.a, 1.5), (seq.c, 2.0), (seq.a, 0.0),
                          (seq.c, "2"), (seq.c, None), (seq.c, 0.5)):
            with pytest.raises(TypeError, match=rf"^n must be an integer, got {bad!r}$"):
                read(bad)
        seq.c(3)  # cached reads of bad degrees are refused as well
        for bad in (1.0, 2.0, np.float64(1.0)):
            with pytest.raises(TypeError, match=r"^n must be an integer, got "):
                seq.c(bad)
        assert seq.c(np.int64(2)) == seq.c(2) and seq.a(np.uint8(0)) == 1.0
        with pytest.raises(IndexError):
            seq.c(-1)

    def test_arrays_match_scalars(self):
        seq = make_family("gencheb", alpha=0.5, beta=1.5)
        cs = seq.c_array(20)
        as_ = seq.a_array(20)
        for n in range(1, 21):
            assert cs[n] == seq.c(n)
            assert as_[n] == seq.a(n)


def test_caches_are_not_constructor_parameters():
    # a cache passed in was read as computed values, past every check
    with pytest.raises(TypeError):
        CoeffSequence("custom", {}, lambda n: 0.5, _h_cache=[1.0, 5.0])
    with pytest.raises(TypeError):
        CoeffSequence("custom", {}, lambda n: 0.5, _c_cache=[0.9])
    with pytest.raises(TypeError):
        ConvexSeqSpec(geometric_sequence(0.5, 0.5), [(1, 0)])
    with pytest.raises(TypeError):
        ConvexSeqSpec(geometric_sequence(0.5, 0.5), _s_cache=[(1, 0)])
    assert haar_values(CoeffSequence("custom", {}, lambda n: 0.5), 2).tolist() == [1.0, 2.0, 2.0]


class TestChebyshevOracle:
    """First-kind Chebyshev (c = 1/2) has everything in closed form."""

    def test_cos_identity(self):
        seq = make_family("cheb1")
        for theta in (0.1, 0.7, 1.3, 2.9):
            row = eval_basis_grid(seq, 200, [math.cos(theta)])[:, 0]
            ref = np.cos(np.arange(201) * theta)
            assert np.max(np.abs(row - ref)) < 5e-13

    def test_haar_is_two(self):
        seq = make_family("cheb1")
        h = haar_values(seq, 50)
        assert h[0] == 1.0
        assert np.max(np.abs(h[1:] - 2.0)) == 0.0

    def test_monic_is_scaled_cheb(self):
        seq = make_family("cheb1")
        # monic T_n = 2^{1-n} T_n for n >= 1
        x = 0.37
        for n in range(1, 13):
            tn = math.cos(n * math.acos(x))
            value = np.polynomial.polynomial.polyval(x, monic_coeffs(seq, n))
            assert value == pytest.approx(2.0 ** (1 - n) * tn, abs=1e-14)


class TestNormalizations:
    @pytest.mark.parametrize("tag,params", [
        ("cheb1", {}),
        ("gencheb", {"alpha": 0.5, "beta": 0.5}),
        ("cosh", {"a": 1.0}),
        ("km", {"alpha": 2.0, "beta": 5.0}),
    ])
    def test_value_one_at_one(self, tag, params):
        seq = make_family(tag, **params)
        row = eval_basis_grid(seq, 40, [1.0])[:, 0]
        assert np.max(np.abs(row - 1.0)) < 1e-12

    def test_orthonormal_scaling(self):
        # p_n = sqrt(h(n)) P_n runs the orthonormal recurrence
        # x p_n = alpha(n+1) p_{n+1} + alpha(n) p_{n-1}
        seq = make_family("gencheb", alpha=0.5, beta=1.5)
        x = -0.41
        q = np.sqrt(haar_values(seq, 15)) * eval_basis_grid(seq, 15, [x])[:, 0]
        al = seq.alpha_array(15)
        assert q[1] == pytest.approx(x / al[1], rel=1e-12)
        for n in range(1, 15):
            want = (x * q[n] - al[n] * q[n - 1]) / al[n + 1]
            assert q[n + 1] == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_monic_leading_coefficient(self):
        seq = make_family("cosh", a=0.5)
        for n in (0, 1, 4, 9):
            coeffs = monic_coeffs(seq, n)
            assert coeffs[-1] == 1.0
            # parity gaps are exact zeros
            assert all(coeffs[k] == 0.0 for k in range((n + 1) % 2, n, 2))

    def test_grid_matches_scalar(self):
        seq = make_family("modkm", alpha=8.0, beta=5.0)
        xs = np.linspace(-1, 1, 17)
        grid = eval_basis_grid(seq, 25, xs)
        for j, x in enumerate(xs):
            assert np.array_equal(grid[:, j],
                                  eval_basis_grid(seq, 25, [x])[:, 0])

    def test_degree_n_reads_c_below_n_only(self):
        # c(55) of this family rounds to 1.0 in floats; degree 55 of the
        # basis needs c(1..54) only
        seq = make_family("convex", eps=0.5, q=0.25)
        grid = eval_basis_grid(seq, 55, np.array([0.3]))
        assert np.all(np.isfinite(grid))
        with pytest.raises(CoefficientDomainError):
            seq.c(55)


class TestHaar:
    def test_recurrence_identity(self):
        # h(n+1) = h(n) a(n) / c(n+1) is the defining relation
        seq = make_family("gencheb", alpha=-0.25, beta=-5.0 / 6.0)
        h = haar_values(seq, 30)
        for n in range(30):
            assert h[n + 1] == pytest.approx(h[n] * seq.a(n) / seq.c(n + 1),
                                             rel=1e-15)

    def test_reciprocal_norm(self):
        # h(n) * prod(lambda_k, k<=n) = (prod(a_k, k<n))^2: both sides are
        # 1 / integral(P_n^2 dmu) rescalings of the monic norm
        seq = make_family("cosh", a=1.0)
        al = seq.alpha_array(10)
        lam_prod = float(np.prod(al[1:] ** 2))
        a_prod = float(np.prod(seq.a_array(9)[:10]))
        h10 = haar_values(seq, 10)[10]
        assert h10 * lam_prod == pytest.approx(a_prod**2, rel=1e-12)

    def test_overflow_guard(self):
        seq = const_seq(1e-12)  # a/c ratio ~1e12 per step
        with pytest.raises(HaarRangeError):
            haar_values(seq, 40)


def oracle_monic(seq, n):
    """sigma_n by the numpy loop monic_coeffs once ran."""
    prev = np.array([1.0])
    if n == 0:
        return prev
    cur = np.array([0.0, 1.0])
    for k in range(1, n):
        lam = seq.c(k) * seq.a(k - 1)
        nxt = np.zeros(k + 2)
        nxt[1:] = cur
        nxt[:k] -= lam * prev
        prev, cur = cur, nxt
    return cur


def oracle_haar(seq, nmax):
    """h(0..nmax) by the loop of the former lazily extended weight table."""
    values = [1.0]
    while len(values) <= nmax:
        k = len(values)
        h = values[-1] * seq.a(k - 1) / seq.c(k)
        if not np.isfinite(h) or h > 1e300:
            raise HaarRangeError(
                f"Haar weight h({k}) exceeds {1e300:.1e} for "
                f"family {seq.family_tag!r}"
            )
        values.append(h)
    return values


ORACLE_FAMILIES = [
    ("cheb1", {}),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("km", {"alpha": 8.0, "beta": 5.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("rational25", {}),
    ("convex", {"eps": 0.5}),
]


class TestSingleImplementations:
    """Monic rows, Haar weights and alpha each have one implementation; the
    loops they replaced are kept here as bitwise oracles."""

    @pytest.mark.parametrize("tag,params", ORACLE_FAMILIES)
    def test_monic_coeffs_match_numpy_loop(self, tag, params):
        seq = make_family(tag, **params)
        for n in range(60):
            got = monic_coeffs(seq, n)
            assert got.dtype == float
            assert got.tobytes() == oracle_monic(seq, n).tobytes(), n

    def test_monic_rows_is_the_appendix_recurrence(self):
        from hyplab import appendixcheck

        assert appendixcheck.monic_rows is monic_rows

    @pytest.mark.parametrize("tag,params", ORACLE_FAMILIES)
    def test_haar_matches_table_loop(self, tag, params):
        seq = make_family(tag, **params)
        want = oracle_haar(seq, 100)
        got = haar_values(seq, 100)
        assert got.tobytes() == np.asarray(want).tobytes()
        fresh = make_family(tag, **params)
        for n in (40, 0, 7, 100):
            assert haar_values(fresh, n)[n] == want[n]

    @pytest.mark.parametrize("a", [40.0, 80.0])
    def test_haar_range_error_text(self, a):
        seq = make_family("cosh", a=a)
        with pytest.raises(HaarRangeError) as want:
            oracle_haar(make_family("cosh", a=a), 200)
        with pytest.raises(HaarRangeError) as got:
            haar_values(seq, 200)
        assert str(got.value) == str(want.value)
        with pytest.raises(HaarRangeError) as again:
            haar_values(seq, 200)  # the cache keeps the weights below the overflow
        assert str(again.value) == str(want.value)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match=r"^nmax must be >= 0, got -1$"):
            haar_values(make_family("cheb1"), -1)

    @pytest.mark.parametrize("tag,params", ORACLE_FAMILIES)
    def test_alpha_matches_scalar_formula(self, tag, params):
        seq = make_family(tag, **params)
        spec = None
        if tag == "convex":
            spec = ConvexSeqSpec(geometric_sequence(s0_for_epsilon(params["eps"]), 0.5))
        for n in range(1, 100):
            if spec is not None:
                want = spec.lam(n - 1)
            else:
                want = float(np.sqrt(seq.c(n) * seq.a(n - 1)))
            assert seq.alpha_array(n)[n] == want


@pytest.mark.parametrize("tag,params", [
    ("modkm", {"alpha": 2.0, "beta": 5.0}), ("convex", {"eps": 0.5}),
])
def test_reads_return_copies(tag, params):
    # the columns are kept on the sequence, so a returned view would let
    # one caller's write corrupt every later read
    seq = make_family(tag, **params)
    reads = {
        "c_array": seq.c_array,
        "a_array": seq.a_array,
        "inv_a_array": seq.inv_a_array,
        "alpha_array": seq.alpha_array,
        "haar_values": lambda n: haar_values(seq, n),
    }
    for name, read in reads.items():
        first = read(40)
        want = first.copy()
        first[:] = np.nan
        assert read(40).tobytes() == want.tobytes(), name


class TestAlpha:
    def test_alpha_squared_is_lambda(self):
        seq = make_family("km", alpha=2.0, beta=5.0)
        for n in range(1, 15):
            lam = seq.c(n) * seq.a(n - 1)
            assert seq.alpha_array(n)[n] ** 2 == pytest.approx(lam, rel=1e-15)

    def test_cheb_alpha_limits(self):
        seq = make_family("cheb1")
        al = seq.alpha_array(5)
        assert al[1] == pytest.approx(math.sqrt(0.5))
        assert np.allclose(al[2:], 0.5)


@pytest.mark.parametrize("tag, params", [
    ("cheb1", {}),
    ("gencheb", dict(alpha=-0.25, beta=-5.0 / 6.0)),
    ("cosh", dict(a=1.0)),
    ("grinspun", dict(c1=0.7)),
    ("km", dict(alpha=5.0, beta=5.0)),
    ("modkm", dict(alpha=8.0, beta=5.0)),
    ("rational25", {}),
    ("convex", dict(eps=0.5)),
])
def test_evaluator_bitwise_equals_scalar_recurrence(tag, params):
    # N = 100 stays below the degree where float c(n) of convex rounds to 1;
    # x = 1e3 overflows to inf and NaN, x = -0.0 carries signed zeros
    seq = make_family(tag, **params)
    for N in (0, 1, 2, 100):
        for x in (-1.0, -0.3, -0.0, 0.0, 0.45, 1.0, 1e3):
            with np.errstate(over="ignore", invalid="ignore"):
                got = eval_basis_grid(seq, N, [x])[:, 0]
                want = reference_basis(seq, N, x)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=3,
                max_size=12))
def test_random_sequences_keep_invariants(cs):
    """Any admissible coefficient sequence gives positive Haar weights,
    unit value at x=1, and row sums bounded by 1 on [-1, 1]."""
    seq = CoeffSequence("custom", {}, lambda n: cs[min(n - 1, len(cs) - 1)])
    N = 2 * len(cs)
    h = haar_values(seq, N)
    assert np.all(h > 0)
    assert np.max(np.abs(eval_basis_grid(seq, N, [1.0])[:, 0] - 1.0)) < 1e-10
    row = eval_basis_grid(seq, N, [-1.0])[:, 0]
    assert np.max(np.abs(np.abs(row) - 1.0)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-0.999, max_value=0.999),
       st.floats(min_value=0.1, max_value=0.9))
def test_three_term_residual(x, cval):
    seq = const_seq(cval)
    v = eval_basis_grid(seq, 30, [x])[:, 0]
    scale = np.maximum.accumulate(np.abs(v))  # values can grow geometrically
    for n in range(1, 30):
        res = x * v[n] - (1 - cval) * v[n + 1] - cval * v[n - 1]
        assert abs(res) < 1e-12 * max(1.0, scale[n + 1])
