"""Product linearization tables, nonnegativity audits, and the induced
convolution algebra."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.core import (
    CoeffSequence, CoefficientDomainError, eval_basis_grid, haar_values,
    monic_coeffs, monic_rows,
)
from hyplab.families import closed_form_haar, km_special_closed_forms, make_family
from hyplab import appendixcheck, chebconnect, dual, linearization, measures
from hyplab.linearization import (
    DegreeOverflowError,
    LinearizationTable,
    NLPReport,
    check_nlp,
    check_nlps,
    convolve,
    l1h_norm,
    linearize,
    szwarc_criterion,
    translate,
)


def iter_oracle_rows(seq, N):
    """The rows ((m, n), g(m, n; .)) the table builder filled before rows
    were streamed, in its order: n outer, m inner."""
    nmax = max(2 * N, 1)
    c = seq.c_array(nmax)
    a = seq.a_array(nmax)
    for n in range(N + 1):
        r_prev = np.zeros(n + 1)
        r_prev[n] = 1.0
        yield (0, n), r_prev
        if n == 0:
            continue
        r_cur = np.zeros(n + 2)
        r_cur[n + 1] = a[n]
        r_cur[n - 1] = c[n]
        yield (1, n), r_cur
        for m in range(1, n):
            L = r_cur.size
            nxt = np.zeros(L + 1)
            nxt[1:] += a[:L] * r_cur
            nxt[: L - 1] += c[1:L] * r_cur[1:]
            nxt[: r_prev.size] -= c[m] * r_prev
            nxt /= a[m]
            r_prev, r_cur = r_cur, nxt
            yield (m + 1, n), r_cur


def block_rows(c, a, n0, n1):
    """The full-layout engine the parity-band engine replaced, as it ran:
    (m, first, rows) for m = 0 .. n1 - 1, with ``rows[i, k]`` = g(m, n0 + i; k)
    for the live rows i >= first, zero-padded to 2 n1 - 1 degrees.  It reads
    c(0) times the identity block as P_{-1} P_n, so ``c[0]`` must be 0.
    """
    B, W = n1 - n0, 2 * n1 - 1
    ns = np.arange(n0, n1)
    r_cur = np.zeros((B, W))
    r_cur[ns - n0, ns] = 1.0
    r_prev = r_cur  # read only times c(0) = 0
    yield 0, 0, r_cur
    for m in range(n1 - 1):
        first = max(0, m + 1 - n0)
        # row m + 1 of the live degrees can be nonzero at degrees lo .. hi-1
        lo, hi = n0 + first - m - 1, n1 + m + 1
        nxt = np.zeros((B, W))
        out, cur = nxt[first:, lo:hi], r_cur[first:]
        out[:, 1:] += a[lo : hi - 1] * cur[:, lo : hi - 1]
        out[:, :-1] += c[lo + 1 : hi] * cur[:, lo + 1 : hi]
        out -= c[m] * r_prev[first:, lo:hi]
        out /= a[m]
        r_prev, r_cur = r_cur, nxt
        yield m + 1, first, r_cur


def assert_bands_match_block_rows(seq, n0, n1):
    """Every band entry of the engine over n0 <= n < n1 is bitwise the
    full-layout engine's, and every other entry of its live rows is 0.0."""
    c, a = linearization._coeffs(seq, n1 - 1)
    c_full = c.copy()
    c_full[0] = 0.0
    for (m, first, rows), band in zip(block_rows(c_full, a, n0, n1),
                                      linearization._band_rows(c, a, n0, n1),
                                      strict=True):
        live = rows[first:]
        assert band.shape == (live.shape[0], m + 1), (n0, n1, m)
        want = np.zeros_like(live)
        ns = np.arange(n0 + first, n1)
        want[ns[:, None] - n0 - first, ns[:, None] - m + 2 * np.arange(m + 1)] = band
        assert want.tobytes() == live.tobytes(), (n0, n1, m)


def oracle_rows(seq, N):
    """The dict of rows the table builder filled before rows were streamed."""
    return dict(iter_oracle_rows(seq, N))


def oracle_nlp(rows, N, tol=1e-12):
    """The audit loop, as check_nlp once ran it, over the ((m, n), row)
    pairs of the oracle in its order."""
    min_coeff, min_witness = np.inf, (0, 0, 0)
    row_sum_max_error, endpoints_positive = 0.0, True
    for (m, n), row in rows:
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


def assert_table_matches(tab, want):
    """Every row of the oracle is bitwise the table's, read through row(),
    and the table's array holds those rows zero-padded and nothing else."""
    padded = np.zeros_like(tab.coeffs)
    for (m, n), row in want.items():
        assert tab.row(m, n).tobytes() == row.tobytes(), (m, n)
        padded[m, n, : row.size] = row
    assert tab.coeffs.tobytes() == padded.tobytes()


def assert_same_report(got, want):
    """``==`` takes -0.0 for 0.0; the floats must also agree bit for bit."""
    assert got == want
    assert float.hex(got.min_coeff) == float.hex(want.min_coeff)
    assert float.hex(got.row_sum_max_error) == float.hex(want.row_sum_max_error)


def non_finite_seq():
    # a(n) = 2**-52 divides every step: rows overflow to inf, then NaN
    return CoeffSequence("custom", {}, lambda n: 1 - 2**-52)


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
    must be bitwise what the one-degree-at-a-time loop gave."""

    @pytest.mark.parametrize("tag,params", STREAM_FAMILIES)
    @pytest.mark.parametrize("N", [0, 1, 2, 5, 20])
    def test_table_and_audit_match_oracle(self, tag, params, N):
        want = oracle_rows(make_family(tag, **params), N)
        assert_table_matches(LinearizationTable(make_family(tag, **params), N), want)
        assert_same_report(check_nlp(make_family(tag, **params), N),
                           oracle_nlp(want.items(), N))

    @pytest.mark.parametrize("tag,params", STREAM_FAMILIES)
    @pytest.mark.parametrize("N", [31, 32, 33, 63, 64, 65, 100])
    def test_block_seams_match_oracle(self, tag, params, N):
        # rows once advanced in blocks of 32 degrees; bounds just below, at
        # and past a block end must give the rows and audit of one n at a time
        try:
            want = oracle_rows(make_family(tag, **params), N)
        except CoefficientDomainError:
            # convex(eps=0.5): c(107) rounds to 1.0, so every reader of
            # c(1..2N) refuses from N = 54 on
            assert tag == "convex" and 2 * N >= 107
            with pytest.raises(CoefficientDomainError):
                LinearizationTable(make_family(tag, **params), N)
            with pytest.raises(CoefficientDomainError):
                check_nlp(make_family(tag, **params), N)
            return
        assert_table_matches(LinearizationTable(make_family(tag, **params), N), want)
        assert_same_report(check_nlp(make_family(tag, **params), N),
                           oracle_nlp(want.items(), N))

    def test_audit_tie_keeps_the_first_row(self):
        # every cheb1 row (m, n) with 2 <= m <= n has an interior zero; the
        # witness is the first of them in n-outer, m-inner order
        N = 65
        rep = check_nlp(make_family("cheb1"), N)
        assert rep.min_coeff == 0.0 and rep.min_witness == (2, 2, 2)
        want = oracle_nlp(iter_oracle_rows(make_family("cheb1"), N), N)
        assert_same_report(rep, want)

    @pytest.mark.parametrize("N", [33, 65])
    def test_non_finite_rows_match_oracle(self, N):
        with np.errstate(all="ignore"):
            want = oracle_rows(non_finite_seq(), N)
            tab = LinearizationTable(non_finite_seq(), N)
            rep = check_nlp(non_finite_seq(), N)
            assert_same_report(rep, oracle_nlp(want.items(), N))
        assert any(np.isinf(row).any() for row in want.values())
        assert any(np.isnan(row).any() for row in want.values())
        assert_table_matches(tab, want)
        assert rep.min_coeff == -np.inf and not rep.endpoints_positive

    def test_audit_matches_oracle_at_the_ladder_top(self):
        # gencheb(0.5, 0.5) at N = 256: 257 steps, rows of up to 513 entries
        seq = make_family("gencheb", alpha=0.5, beta=0.5)
        assert_same_report(check_nlp(seq, 256),
                           oracle_nlp(iter_oracle_rows(seq, 256), 256))

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
        row = linearize(seq, 2, 3)
        assert row.tobytes() == oracle_rows(seq, 3)[(2, 3)].tobytes()
        with pytest.raises(CoefficientDomainError):
            LinearizationTable(seq, 40)

    def test_linearize_generates_only_rows_of_its_top_degree(self, monkeypatch):
        # every generated row is one band row a step of the engine yields;
        # row (lo, hi) needs the rows (0..lo, hi) and nothing of lower degree
        made = []
        engine = linearization._band_rows

        def counting_rows(c, a, n0, n1):
            for band in engine(c, a, n0, n1):
                made.extend([n0 + i for i in range(n1 - n0 - band.shape[0], n1 - n0)])
                yield band

        seq = make_family("gencheb", alpha=0.5, beta=0.5)
        want = oracle_rows(seq, 64)
        monkeypatch.setattr(linearization, "_band_rows", counting_rows)
        for m, n in ((0, 64), (64, 5), (17, 40), (40, 40), (0, 0)):
            made.clear()
            row = linearize(seq, m, n)
            lo, hi = min(m, n), max(m, n)
            assert made == [hi] * (lo + 1), (m, n)
            assert row.tobytes() == want[(lo, hi)].tobytes(), (m, n)

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


class TestBatchedAudit:
    """check_nlps steps several families in one pass; each report must be
    bitwise the oracle's, alone or in any batch."""

    @pytest.mark.parametrize("N", [0, 1, 2, 5, 20, 30])
    def test_every_family_alone_and_together_matches_oracle(self, N):
        want = [oracle_nlp(iter_oracle_rows(make_family(tag, **params), N), N)
                for tag, params in STREAM_FAMILIES]
        together = check_nlps([make_family(tag, **params)
                               for tag, params in STREAM_FAMILIES], N)
        assert len(together) == len(want)
        for (tag, params), got, expect in zip(STREAM_FAMILIES, together, want):
            assert_same_report(got, expect)
            (alone,) = check_nlps([make_family(tag, **params)], N)
            assert_same_report(alone, expect)

    def test_batch_keeps_the_tie_rule(self):
        # cheb1's first interior zero is (2, 2, 2) in a batch as alone, next
        # to families whose minima lie elsewhere
        N = 65
        tags = [("gencheb", {"alpha": 0.5, "beta": 0.5}), ("cheb1", {}),
                ("grinspun", {"c1": 0.7})]
        reps = check_nlps([make_family(tag, **params) for tag, params in tags], N)
        assert reps[1].min_coeff == 0.0 and reps[1].min_witness == (2, 2, 2)
        for (tag, params), rep in zip(tags, reps):
            assert_same_report(
                rep, oracle_nlp(iter_oracle_rows(make_family(tag, **params), N), N))

    @pytest.mark.parametrize("N", [5, 33])
    def test_non_finite_family_leaves_its_batch_alone(self, N):
        finite = [("cheb1", {}), ("grinspun", {"c1": 0.7}), ("cosh", {"a": 1.0})]
        with np.errstate(all="ignore"):
            seqs = [make_family(tag, **params) for tag, params in finite]
            reps = check_nlps(seqs[:1] + [non_finite_seq()] + seqs[1:], N)
            bad = oracle_nlp(iter_oracle_rows(non_finite_seq(), N), N)
        assert_same_report(reps[1], bad)
        for (tag, params), rep in zip(finite, reps[:1] + reps[2:]):
            assert_same_report(
                rep, oracle_nlp(iter_oracle_rows(make_family(tag, **params), N), N))
        if N == 33:
            assert reps[1].min_coeff == -np.inf and not reps[1].endpoints_positive

    @pytest.mark.parametrize("N", [54, 65])
    def test_convex_past_its_float_range_raises_in_a_batch(self, N):
        # c(107) of convex(eps=0.5) rounds to 1.0: the audit from N = 54 on
        with pytest.raises(CoefficientDomainError):
            check_nlp(make_family("convex", eps=0.5), N)
        with pytest.raises(CoefficientDomainError):
            check_nlps([make_family("cheb1"), make_family("convex", eps=0.5),
                        make_family("cosh", a=1.0)], N)

    def test_no_family_no_report(self):
        assert check_nlps([], 12) == []

    def test_batched_engine_is_bitwise_each_family_alone(self):
        # coefficients stacked on a leading axis give bands with that axis
        seqs = [make_family(tag, **params) for tag, params in STREAM_FAMILIES]
        for n0, n1 in ENGINE_RANGES:
            if 2 * (n1 - 1) >= 107:
                continue  # c(107) of convex(eps=0.5) rounds to 1.0
            cols = [linearization._coeffs(seq, n1 - 1) for seq in seqs]
            c, a = (np.array(col) for col in zip(*cols))
            alone = [linearization._band_rows(ci, ai, n0, n1) for ci, ai in cols]
            for bands in zip(linearization._band_rows(c, a, n0, n1), *alone, strict=True):
                batch, singles = bands[0], bands[1:]
                assert batch.shape == (len(seqs),) + singles[0].shape, (n0, n1)
                for f, band in enumerate(singles):
                    assert batch[f].tobytes() == band.tobytes(), (n0, n1, f)


# every (n0, n1) range a reader runs the engine over: the table and the audit
# all degrees 0 .. N, linearize one degree, translate the degrees n .. n + K
ENGINE_RANGES = [(0, 1), (0, 2), (0, 6), (0, 21), (0, 34), (0, 66),
                 (0, 101), (5, 6), (40, 41), (3, 10), (29, 50)]


@pytest.mark.parametrize("tag,params", STREAM_FAMILIES)
def test_band_engine_matches_block_oracle(tag, params):
    seq = make_family(tag, **params)
    for n0, n1 in ENGINE_RANGES:
        if tag == "convex" and 2 * (n1 - 1) >= 107:
            continue  # c(107) of convex(eps=0.5) rounds to 1.0
        assert_bands_match_block_rows(seq, n0, n1)


def test_band_engine_matches_block_oracle_on_non_finite_rows():
    seq = non_finite_seq()
    with np.errstate(all="ignore"):
        for n0, n1 in ENGINE_RANGES:
            assert_bands_match_block_rows(seq, n0, n1)


@pytest.mark.parametrize("call,name", [
    (lambda seq, d: check_nlp(seq, d), "N"),
    (lambda seq, d: check_nlps([seq, seq], d)[1], "N"),
    (lambda seq, d: LinearizationTable(seq, d).coeffs, "N"),
    (lambda seq, d: linearize(seq, d, 3), "m"),
    (lambda seq, d: linearize(seq, 2, d), "n"),
    (lambda seq, d: translate(seq, [1.0, 0.5], d), "n"),
    (lambda seq, d: LinearizationTable(seq, 4).row(d, 4), "m"),
    (lambda seq, d: np.float64(LinearizationTable(seq, 4).g(2, 4, d)), "k"),
    (lambda seq, d: haar_values(seq, d), "nmax"),
    (lambda seq, d: eval_basis_grid(seq, d, [0.5]), "N"),
    (lambda seq, d: chebconnect.connection_coeffs(seq, d), "nmax"),
    (lambda seq, d: np.array(chebconnect.connection_nonneg(seq, d)), "nmax"),
    (lambda seq, d: measures.basis_gram(seq, d), "N"),
    (lambda seq, d: measures.triple_products(seq, d), "M"),
    (lambda seq, d: np.concatenate(measures.spectrum_atoms(seq, d)), "N"),
    (lambda seq, d: np.float64(appendixcheck.kernel_identity_residual(2, 5, d)), "n"),
    (lambda seq, d: np.array(appendixcheck.kernel_identity_residuals(2, 5, [1, d])),
     "n"),
    (lambda seq, d: np.float64(appendixcheck.chebyshev_partner_residual(d)), "nmax"),
    (lambda seq, d: np.float64(closed_form_haar(seq, d)), "n"),
    (lambda seq, d: monic_coeffs(seq, d), "n"),
    (lambda seq, d: np.concatenate([np.array(row, dtype=float)
                                    for row in monic_rows(lambda k: 0.25, d)]), "nmax"),
    (lambda seq, d: np.float64(appendixcheck.mustar_orthogonality(2, 5, d)), "N"),
    (lambda seq, d: np.float64(appendixcheck.km_monic_lambda(2, 5, d)), "n"),
    (lambda seq, d: np.float64(appendixcheck.tilde_monic_lambda(2, 5, d)), "n"),
    (lambda seq, d: dual.max_abs_profile(seq, [0.5, 0.99], d), "N"),
    (lambda seq, d: dual.dual_estimate(seq, d, 0.1).member_mask, "N"),
    (lambda seq, d: dual.dual_estimates([seq, seq], d, 0.1)[1].member_mask, "N"),
    (lambda seq, d: np.array(dual.divergence_classify(seq, 0.5, d)), "N"),
    (lambda seq, d: np.concatenate(dual.complex_scan(seq, d, 0.5)), "N"),
    (lambda seq, d: np.float64(km_special_closed_forms(5.0, d, 0.5)), "n"),
], ids=["check_nlp", "check_nlps", "LinearizationTable", "linearize-m", "linearize-n", "translate",
        "row", "g", "haar_values", "eval_basis_grid", "connection_coeffs",
        "connection_nonneg", "basis_gram", "triple_products", "spectrum_atoms",
        "kernel_identity_residual", "kernel_identity_residuals",
        "chebyshev_partner_residual", "closed_form_haar", "monic_coeffs", "monic_rows",
        "mustar_orthogonality", "km_monic_lambda", "tilde_monic_lambda",
        "max_abs_profile", "dual_estimate", "dual_estimates", "divergence_classify", "complex_scan", "km_special_closed_forms"])
def test_degrees_are_plain_integers(call, name):
    # any integer type is a degree, and the results hold plain Python values;
    # anything else is refused by the argument's name, and so is a negative
    # degree, except g's k: below the band g is 0.0
    seq = make_family("gencheb", alpha=0.5, beta=0.5)
    want = call(seq, 3)
    for d in (np.int64(3), np.int32(3), np.uint8(3)):
        got = call(seq, d)
        if isinstance(want, NLPReport):
            assert json.dumps(dataclasses.asdict(got)) == json.dumps(dataclasses.asdict(want))
            assert type(got.N) is int and got.N == 3
            assert [type(k) for k in got.min_witness] == [int] * 3
            assert [type(v) for v in dataclasses.astuple(got)[:2]] == [bool, float]
        else:
            assert got.tobytes() == want.tobytes()
    for bad in (3.0, np.float64(3.0), "3", None):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            call(seq, bad)
    if name == "k":
        assert call(seq, -1) == 0.0
    else:
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$"):
            call(seq, -1)


def test_bad_degrees_that_had_a_silent_answer_are_refused():
    # these once returned [[1], [0, 1]], [] and 2.0 (and
    # mustar_orthogonality(2, 5, -1) returned 0.0; see the rows above)
    with pytest.raises(ValueError, match=r"^nmax must be >= 0, got -2$"):
        monic_rows(lambda k: 0.25, -2)
    with pytest.raises(ValueError, match=r"^N must be >= 0, got -1$"):
        check_nlps([], -1)
    with pytest.raises(TypeError, match=r"^n must be an integer, got 1.5$"):
        closed_form_haar(make_family("cheb1"), 1.5)
    # these returned Fraction(2, 5), the weights of n = 2 and n = 1
    with pytest.raises(TypeError, match=r"^n must be an integer, got 2.5$"):
        appendixcheck.km_monic_lambda(2, 5, 2.5)
    with pytest.raises(TypeError, match=r"^n must be an integer, got 1.0$"):
        appendixcheck.tilde_monic_lambda(2, 5, 1.0)
    for lam in (appendixcheck.km_monic_lambda, appendixcheck.tilde_monic_lambda):
        with pytest.raises(ValueError, match=r"^monic weights start at n = 1$"):
            lam(2, 5, 0)


def test_numpy_reduceat_after_a_zero_is_the_exact_length_reduce():
    # check_nlp sums a row by one reduceat segment that starts at a 0.0 just
    # before it; that must be bitwise np.add.reduce of the row alone at every
    # length, through numpy's 8-way pairwise block below 128 entries and its
    # recursive split above (rows at N = 256 have up to 513 entries)
    rng = np.random.default_rng(0)
    differ = []
    for L in range(1, 1101):
        flat = rng.standard_normal(L + 3) * 10.0 ** rng.uniform(-8, 8, L + 3)
        s, e = 2, L + 2
        flat[s - 1] = 0.0
        got = np.add.reduceat(flat, [s - 1, e])[0]
        if got.tobytes() != np.add.reduce(flat[s:e]).tobytes():
            differ.append(L)
    assert not differ, f"numpy {np.__version__} differs at row lengths {differ[:10]}"


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
        # outside the band 0 .. m + n of the row
        assert t.g(3, 8, -1) == 0.0
        assert t.g(3, 8, 12) == 0.0
        assert t.g(8, 3, 12) == 0.0


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
        vals = eval_basis_grid(seq, 16, [x])[:, 0]
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

    @pytest.mark.parametrize("tag,params", [
        ("gencheb", {"alpha": 0.5, "beta": 0.5}),  # some row sum misses 1
        ("cheb1", {}),  # every row sum is exactly 1
    ])
    def test_row_sum_error_is_a_python_float(self, tag, params):
        rep = check_nlp(make_family(tag, **params), N=20)
        assert type(rep.row_sum_max_error) is float

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

    def test_reports_monotonicity_violation(self):
        # c(n) <= 1/2 throughout, but the odd subsequence drops at n = 3
        seq = make_family("custom", cfunc=lambda n: 0.3 if n == 3 else 0.4)
        rep = szwarc_criterion(seq)
        assert not rep.applies
        assert rep.violated_at == ("monotone", 3)
        assert rep.N == 200

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
        out = translate(seq, [1.0], 3)
        h3 = haar_values(seq, 3)[3]
        assert out[3] == pytest.approx(1.0 / h3)
        assert np.flatnonzero(np.abs(out) > 1e-14).tolist() == [3]
        assert out.size == 4

    def test_translate_of_empty_sequence_at_zero_rejected(self):
        # the output would end at degree -1: an error, not an empty result
        with pytest.raises(ValueError, match=r"needs at least f\(0\)"):
            translate(make_family("cheb1"), [], 0)

    @pytest.mark.parametrize("op", [
        lambda seq: l1h_norm(seq, []),
        lambda seq: translate(seq, [], 3),
        lambda seq: convolve(seq, [], [1.0]),
    ], ids=["l1h_norm", "translate", "convolve"])
    def test_empty_sequence_rejected(self, op):
        # one rule for every operation: an empty f has no degree at all
        with pytest.raises(ValueError, match=r"needs at least f\(0\), got none"):
            op(make_family("cheb1"))

    @pytest.mark.parametrize("op", [
        lambda seq, f: l1h_norm(seq, f),
        lambda seq, f: translate(seq, f, 3),
        lambda seq, f: convolve(seq, f, [1.0]),
        lambda seq, f: convolve(seq, [1.0], f),
    ], ids=["l1h_norm", "translate", "convolve-f", "convolve-g"])
    def test_multidimensional_sequence_rejected(self, op):
        # named up front, not a broadcast error from deep inside numpy
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)$"):
            op(make_family("cheb1"), np.ones((2, 2)))

    @pytest.mark.parametrize("f", [[1.0], [1.0, 2.0, 3.0]])
    def test_translate_by_negative_degree_names_it(self, f):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            translate(make_family("cheb1"), f, -1)

    def test_convolve_deltas_match_rows(self):
        # (delta_m * delta_n)(k) h(k) = g(m,n;k) h(m) h(n): both sides are
        # h(m) h(n) h(k) * integral(P_m P_n P_k dmu)
        seq = make_family("km", alpha=2.0, beta=5.0)
        t = LinearizationTable(seq, N=12)
        f = convolve(seq, np.eye(4)[3], np.eye(5)[4])
        row = t.row(3, 4)
        assert f.size == 8
        h = haar_values(seq, f.size - 1)
        for k in range(f.size):
            want = (row[k] if k < row.size else 0.0) * h[3] * h[4] / h[k]
            assert f[k] == pytest.approx(want, rel=1e-11, abs=1e-12)
        # h-weighted mass is multiplicative: ||delta_m||_h = h(m)
        assert float(np.sum(f * h)) == pytest.approx(h[3] * h[4], rel=1e-11)

    def test_l1h_norm_weighting(self):
        seq = make_family("grinspun", c1=0.3)
        f = np.array([1.0, -2.0, 0.5])
        h = haar_values(seq, 2)
        assert l1h_norm(seq, f) == pytest.approx(
            1.0 * h[0] + 2.0 * h[1] + 0.5 * h[2])


    def test_integer_input_is_not_truncated(self):
        seq = make_family("gencheb", alpha=0.5, beta=0.5)
        t = translate(seq, [0, 0, 1], 2)
        assert t.dtype == np.float64
        assert np.array_equal(t, translate(seq, [0.0, 0.0, 1.0], 2))
        assert t[4] == pytest.approx(1.0 / 3.0, rel=1e-15)
        f = convolve(seq, [0, 1], [0, 1])
        assert f.dtype == np.float64
        assert np.array_equal(f, convolve(seq, [0.0, 1.0], [0.0, 1.0]))
        assert f == pytest.approx([2.0, 0.0, 0.5], rel=1e-15)


# --- translate and convolve against the table path they replaced ----------

def table_translate(v, n, table):
    """T_n v read from a LinearizationTable: the bitwise oracle."""
    out = np.zeros(v.size + n, dtype=v.dtype)
    for m in range(out.size):
        row = table.row(m, n)
        width = min(row.size, v.size)
        out[m] = np.dot(row[:width], v[:width])
    return out


def table_convolve(seq, fv, gv, table):
    """f * g from full translates over a table to degree 2 Kf + Kg."""
    weights = gv * haar_values(seq, gv.size - 1)
    out = np.zeros(fv.size + gv.size - 1, dtype=np.result_type(fv, gv))
    for n in range(out.size):
        tf = table_translate(fv, n, table)
        width = min(tf.size, weights.size)
        out[n] = np.dot(tf[:width], weights[:width])
    return out


OPS_FAMILIES = [
    ("cheb1", {}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
    ("convex", {"eps": 0.5}),
]


@pytest.mark.parametrize("tag,params", OPS_FAMILIES)
def test_translate_bitwise_equals_table_path(tag, params):
    seq = make_family(tag, **params)
    table = LinearizationTable(seq, 50)  # rows do not depend on the bound
    rng = np.random.default_rng(3)
    for K in (0, 1, 6, 20):
        v = rng.standard_normal(K + 1)
        for n in (0, 1, 5, 29):
            got = translate(seq, v, n)
            assert np.array_equal(got, table_translate(v, n, table)), (K, n)


@pytest.mark.parametrize("tag,params", OPS_FAMILIES)
def test_convolve_bitwise_equals_table_path(tag, params):
    seq = make_family(tag, **params)
    table = LinearizationTable(seq, 45)
    rng = np.random.default_rng(4)
    for Kf in (0, 1, 6, 15):
        for Kg in (0, 1, 6, 15):
            fv, gv = rng.standard_normal(Kf + 1), rng.standard_normal(Kg + 1)
            got = convolve(seq, fv, gv)
            assert np.array_equal(got, table_convolve(seq, fv, gv, table)), (Kf, Kg)


def test_convolve_builds_no_table():
    # the table path held every row to degree Kf + Kg = 80 (8.45 MB)
    seq = make_family("km", alpha=8.0, beta=5.0)
    rng = np.random.default_rng(5)
    fv, gv = rng.standard_normal(41), rng.standard_normal(41)
    seq.c_array(160)  # fill the coefficient cache outside the measurement
    haar_values(seq, 40)
    tracemalloc.start()
    try:
        convolve(seq, fv, gv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_translate_holds_one_block_of_rows():
    # the table path held every row to degree 100 (4.7 MiB traced)
    seq = make_family("cheb1")
    tracemalloc.start()
    try:
        translate(seq, np.ones(40), 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
