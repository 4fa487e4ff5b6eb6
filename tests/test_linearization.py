"""Product linearization tables, nonnegativity audits, and the induced
convolution algebra."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.core import CoefficientDomainError, eval_basis, haar_values
from hyplab.families import make_family
from hyplab.linearization import (
    DegreeOverflowError,
    LinearizationTable,
    NLPReport,
    WeightedSeq,
    check_nlp,
    convolve,
    l1h_norm,
    linearize,
    szwarc_criterion,
    translate,
)


def oracle_rows(seq, N):
    """The dict of rows the table builder filled before rows were streamed."""
    nmax = max(2 * N, 1)
    c = seq.c_array(nmax)
    a = seq.a_array(nmax)
    rows = {}
    for n in range(N + 1):
        r_prev = np.zeros(n + 1)
        r_prev[n] = 1.0
        rows[(0, n)] = r_prev
        if n == 0:
            continue
        r_cur = np.zeros(n + 2)
        r_cur[n + 1] = a[n]
        r_cur[n - 1] = c[n]
        rows[(1, n)] = r_cur
        for m in range(1, n):
            L = r_cur.size
            nxt = np.zeros(L + 1)
            nxt[1:] += a[:L] * r_cur
            nxt[: L - 1] += c[1:L] * r_cur[1:]
            nxt[: r_prev.size] -= c[m] * r_prev
            nxt /= a[m]
            r_prev, r_cur = r_cur, nxt
            rows[(m + 1, n)] = r_cur
    return rows


def oracle_nlp(rows, N, tol=1e-12):
    """The audit loop over the oracle's rows, as check_nlp once ran it."""
    min_coeff, min_witness = np.inf, (0, 0, 0)
    row_sum_max_error, endpoints_positive = 0.0, True
    for (m, n), row in rows.items():
        row_sum_max_error = max(row_sum_max_error, abs(row.sum() - 1.0))
        lo = n - m
        band = row[lo : m + n + 1 : 2]
        k_local = int(np.argmin(band))
        if band[k_local] < min_coeff:
            min_coeff = float(band[k_local])
            min_witness = (m, n, lo + 2 * k_local)
        if not (row[lo] > tol and row[m + n] > tol):
            endpoints_positive = False
    return NLPReport(bool(min_coeff >= -tol), min_coeff, min_witness,
                     row_sum_max_error, endpoints_positive, N, tol)


STREAM_FAMILIES = [
    ("cheb1", {}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("km", {"alpha": 8.0, "beta": 5.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("rational25", {}),
    ("convex", {"eps": 0.5}),
]


class TestStreamedRows:
    """Table, audit and single rows all come from one row generator; each
    must be bitwise what the dict-building loop gave."""

    @pytest.mark.parametrize("tag,params", STREAM_FAMILIES)
    @pytest.mark.parametrize("N", [0, 1, 2, 5, 20])
    def test_table_and_audit_match_oracle(self, tag, params, N):
        want = oracle_rows(make_family(tag, **params), N)
        got = LinearizationTable(make_family(tag, **params), N)._rows
        assert list(got) == list(want)
        for key, row in want.items():
            assert got[key].tobytes() == row.tobytes()
        assert check_nlp(make_family(tag, **params), N) == oracle_nlp(want, N)

    @pytest.mark.parametrize("tag,params", STREAM_FAMILIES)
    def test_linearize_matches_oracle(self, tag, params):
        N = 8
        want = oracle_rows(make_family(tag, **params), N)
        for m in range(N + 1):
            for n in range(N + 1):
                row = linearize(make_family(tag, **params), m, n)
                key = (min(m, n), max(m, n))
                assert row.tobytes() == want[key].tobytes(), (m, n)

    def test_linearize_reads_only_its_own_degrees(self):
        # c(55) of this family rounds to 1.0; row (2, 3) needs c(1..6)
        seq = make_family("convex", eps=0.5, q=0.25)
        row = linearize(seq, 2, 3, N=40)
        assert row.tobytes() == oracle_rows(seq, 3)[(2, 3)].tobytes()
        with pytest.raises(CoefficientDomainError):
            LinearizationTable(seq, 40)

    def test_audit_builds_no_table(self, monkeypatch):
        def refuse(self, seq, N=0):
            raise AssertionError("check_nlp built a table")

        monkeypatch.setattr(LinearizationTable, "__init__", refuse)
        rep = check_nlp(make_family("gencheb", alpha=0.5, beta=0.5), N=12)
        assert rep.is_nonnegative and rep.N == 12

    def test_audit_memory_is_linear_in_degree(self):
        # the whole table at N = 128 holds ~10 MiB of rows; the audit holds two
        seq = make_family("gencheb", alpha=0.5, beta=0.5)
        seq.c_array(256)  # fill the coefficient cache outside the measurement
        tracemalloc.start()
        try:
            check_nlp(seq, N=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            LinearizationTable(make_family("cheb1"), -1)
        with pytest.raises(ValueError):
            check_nlp(make_family("cheb1"), N=-1)


class TestChebyshevRows:
    """T_m T_n = (T_{m+n} + T_{|m-n|}) / 2 is the table oracle."""

    def test_interior_rows(self, table):
        t = table("cheb1", n=24)
        for m, n in ((1, 1), (2, 5), (7, 7), (3, 10)):
            row = t.row(m, n)
            want = np.zeros(m + n + 1)
            want[m + n] += 0.5
            want[abs(m - n)] += 0.5
            assert np.allclose(row, want[: row.size], atol=1e-14)

    def test_m_zero_is_identity(self, table):
        t = table("cheb1", n=24)
        row = t.row(0, 9)
        assert row[9] == 1.0
        assert np.count_nonzero(row) == 1

    def test_g_accessor(self, table):
        t = table("cheb1", n=24)
        assert t.g(3, 8, 5) == pytest.approx(0.5)
        assert t.g(3, 8, 11) == pytest.approx(0.5)
        assert t.g(3, 8, 7) == 0.0


def test_row_sums_to_one(table):
    for tag, params in (("gencheb", {"alpha": 0.5, "beta": 1.5}),
                        ("km", {"alpha": 8.0, "beta": 5.0}),
                        ("grinspun", {"c1": 0.7})):
        t = table(tag, n=20, **params)
        for m in range(11):
            for n in range(11):
                assert abs(t.row(m, n).sum() - 1.0) < 1e-11


def test_band_structure(table):
    # g(m,n;k) = 0 outside |m-n| <= k <= m+n, and parity of m+n
    t = table("cosh", n=20, a=0.5)
    for m, n in ((2, 6), (5, 5), (3, 4)):
        row = t.row(m, n)
        assert row.size == m + n + 1
        assert np.all(row[: abs(m - n)] == 0.0)
        for k in range(abs(m - n), m + n + 1):
            if (m + n - k) % 2 == 1:
                assert row[k] == 0.0


def test_symmetry_in_m_n(table):
    t = table("modkm", n=20, alpha=2.0, beta=5.0)
    for m, n in ((2, 7), (3, 9), (1, 4)):
        assert np.allclose(t.row(m, n), t.row(n, m), atol=1e-14)


def test_pointwise_product_identity(table):
    # sum_k g(m,n;k) P_k(x) must reproduce P_m(x) P_n(x)
    seq = make_family("gencheb", alpha=-0.25, beta=-5.0 / 6.0)
    t = LinearizationTable(seq, N=16)
    for x in (-0.8, 0.05, 0.6):
        vals = eval_basis(seq, 16, x).values
        for m, n in ((2, 3), (4, 4), (1, 7), (8, 8)):
            lhs = vals[m] * vals[n]
            row = t.row(m, n)
            assert lhs == pytest.approx(float(row @ vals[: row.size]),
                                        abs=1e-12)


def test_linearize_matches_table():
    seq = make_family("cosh", a=1.0)
    row = linearize(seq, 4, 6)
    t = LinearizationTable(seq, N=10)
    assert np.allclose(row, t.row(4, 6), atol=0)


def test_table_degree_guard(table):
    t = table("cheb1", n=10)
    assert t.row(8, 8).size == 17  # both degrees inside the bound: fine
    with pytest.raises(DegreeOverflowError):
        t.row(11, 3)


class TestCoshTwoTerm:
    """The hyperbolic family linearizes with exactly two nonzero terms."""

    def test_two_nonzero_entries(self, table):
        t = table("cosh", n=24, a=1.0)
        for m, n in ((1, 5), (3, 7), (4, 4)):
            row = t.row(m, n)
            nz = np.nonzero(np.abs(row) > 1e-14)[0]
            assert list(nz) == [n - m, n + m] if m < n else [0, 2 * n]

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_closed_form_weights(self, a, table):
        t = table("cosh", n=24, a=a)
        for m in range(1, 9):
            for n in range(m, 12):
                lo = math.cosh(a * (n - m)) / (2 * math.cosh(a * m) * math.cosh(a * n))
                hi = math.cosh(a * (n + m)) / (2 * math.cosh(a * m) * math.cosh(a * n))
                assert t.g(m, n, n - m) == pytest.approx(lo, abs=1e-12)
                assert t.g(m, n, n + m) == pytest.approx(hi, abs=1e-12)


class TestNLP:
    @pytest.mark.parametrize("tag,params", [
        ("cheb1", {}),
        ("gencheb", {"alpha": 0.5, "beta": 0.5}),
        ("cosh", {"a": 1.0}),
        ("grinspun", {"c1": 0.3}),
        ("km", {"alpha": 2.0, "beta": 5.0}),
        ("modkm", {"alpha": 8.0, "beta": 5.0}),
        ("convex", {"eps": 0.5, "q": 0.5}),
    ])
    def test_nonnegative_families(self, tag, params):
        rep = check_nlp(make_family(tag, **params), N=16)
        assert rep.is_nonnegative
        assert rep.min_coeff > -1e-12
        assert rep.row_sum_max_error < 1e-11

    def test_grinspun_above_half_fails(self):
        rep = check_nlp(make_family("grinspun", c1=0.7), N=10)
        assert not rep.is_nonnegative
        assert rep.min_coeff < -1e-12
        m, n, k = rep.min_witness
        # the first failure involves the degree-2 row
        assert 2 in (m, n)

    def test_grinspun_threshold_boundary(self):
        # c1 = 1/2 is first-kind Chebyshev, the boundary case: still NLP
        rep = check_nlp(make_family("grinspun", c1=0.5), N=10)
        assert rep.is_nonnegative


class TestSzwarc:
    def test_applies_to_monotone_families(self):
        assert szwarc_criterion(make_family("cheb1")).applies
        assert szwarc_criterion(make_family("gencheb", alpha=0.5, beta=0.5)).applies

    def test_reports_violation_site(self):
        rep = szwarc_criterion(make_family("grinspun", c1=0.7))
        assert not rep.applies
        assert rep.violated_at is not None

    def test_sufficiency_spotcheck(self):
        # every family the criterion accepts must pass the direct audit
        for tag, params in (("cheb1", {}), ("km", {"alpha": 5.0, "beta": 5.0})):
            seq = make_family(tag, **params)
            if szwarc_criterion(seq).applies:
                assert check_nlp(seq, N=12).is_nonnegative


class TestHypergroupOps:
    def test_translate_delta(self):
        # (T_n delta_0)(m) = g(m, n; 0) = delta_{mn} / h(n)
        seq = make_family("cheb1")
        out = translate(seq, WeightedSeq.delta(0), 3)
        h3 = haar_values(seq, 3)[3]
        assert out.values[3] == pytest.approx(1.0 / h3)
        assert np.count_nonzero(np.abs(out.values) > 1e-14) == 1
        assert out.top == 3

    def test_convolve_deltas_match_rows(self):
        # (delta_m * delta_n)(k) h(k) = g(m,n;k) h(m) h(n): both sides are
        # h(m) h(n) h(k) * integral(P_m P_n P_k dmu)
        seq = make_family("km", alpha=2.0, beta=5.0)
        t = LinearizationTable(seq, N=12)
        f = convolve(seq, WeightedSeq.delta(3), WeightedSeq.delta(4), table=t)
        row = t.row(3, 4)
        h = haar_values(seq, f.top)
        for k in range(f.top + 1):
            want = (row[k] if k < row.size else 0.0) * h[3] * h[4] / h[k]
            assert f.values[k] == pytest.approx(want, rel=1e-11, abs=1e-12)
        # h-weighted mass is multiplicative: ||delta_m||_h = h(m)
        assert float(np.sum(f.values * h)) == pytest.approx(h[3] * h[4],
                                                            rel=1e-11)

    def test_l1h_norm_weighting(self):
        seq = make_family("grinspun", c1=0.3)
        f = WeightedSeq(np.array([1.0, -2.0, 0.5]))
        h = haar_values(seq, 2)
        assert l1h_norm(seq, f) == pytest.approx(
            1.0 * h[0] + 2.0 * h[1] + 0.5 * h[2])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=5),
       st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=5))
def test_convolution_norm_submultiplicative(fv, gv):
    """||f*g||_{1,h} <= ||f|| ||g|| on an NLP hypergroup (convexity of the
    linearization rows makes convolution a contraction)."""
    seq = make_family("cheb1")
    f, g = np.array(fv), np.array(gv)
    fg = convolve(seq, f, g)
    assert l1h_norm(seq, fg) <= l1h_norm(seq, f) * l1h_norm(seq, g) + 1e-9
