"""Connection coefficients onto the first-kind Chebyshev basis and the
criterion report."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hyplab import dual, verify
from hyplab.chebconnect import (
    PROFILE_DEGREE,
    connection_coeffs,
    connection_nonneg,
    connection_row_checks,
    criterion_grid,
    criterion_report,
)
from hyplab.families import make_family, parse_family_spec

GOLDEN_REPORTS = sorted(json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "golden.json").read_text()
)["report"])


def cheb_eval(k, x):
    return math.cos(k * math.acos(x))


def test_cheb_connection_is_identity():
    C = connection_coeffs(make_family("cheb1"), 10)
    assert np.allclose(C, np.eye(11), atol=1e-14)


def test_rows_reproduce_values():
    seq = make_family("km", alpha=2.0, beta=5.0)
    C = connection_coeffs(seq, 12)
    from hyplab.core import eval_basis_grid

    for x in (-0.7, 0.2, 0.95):
        vals = eval_basis_grid(seq, 12, [x])[:, 0]
        tvals = np.array([cheb_eval(k, x) for k in range(13)])
        assert np.allclose(C @ tvals, vals, rtol=1e-12, atol=1e-12)


def reference_connection(seq, nmax):
    """connection_coeffs with the multiplication by x written entry by entry."""
    C = np.zeros((nmax + 1, nmax + 1))
    C[0, 0] = 1.0
    if nmax == 0:
        return C
    C[1, 1] = 1.0
    for n in range(1, nmax):
        r = C[n]
        xr = np.zeros(nmax + 1)
        xr[0] = 0.5 * r[1]
        xr[1] = r[0] + 0.5 * r[2]
        for j in range(2, n + 2):
            hi = 0.5 * r[j + 1] if j + 1 <= nmax else 0.0
            xr[j] = 0.5 * r[j - 1] + hi
        C[n + 1] = (xr - seq.c(n) * C[n - 1]) / seq.a(n)
    return C


CONNECTION_FAMILIES = [
    ("cheb1", {}),
    ("gencheb", dict(alpha=-0.25, beta=-5.0 / 6.0)),
    ("cosh", dict(a=1.0)),
    ("grinspun", dict(c1=0.7)),
    ("km", dict(alpha=5.0, beta=5.0)),
    ("modkm", dict(alpha=2.0, beta=5.0)),
    ("convex", dict(eps=0.5)),
    ("gencheb", dict(alpha=0.5, beta=0.5)),
    ("km", dict(alpha=8.0, beta=5.0)),
    ("rational25", {}),
]


@pytest.mark.parametrize("tag, params", CONNECTION_FAMILIES)
def test_connection_bitwise_equals_entrywise_recurrence(tag, params):
    # convex rows overflow to inf and NaN well before nmax = 100
    seq = make_family(tag, **params)
    for nmax in (0, 1, 2, 3, 100):
        with np.errstate(over="ignore", invalid="ignore"):
            got = connection_coeffs(seq, nmax)
            want = reference_connection(seq, nmax)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def row_loop_connection(seq, nmax):
    """connection_coeffs as one full-width row per degree, each padded by
    np.append: the earlier implementation, kept as the bitwise oracle."""
    C = np.zeros((nmax + 1, nmax + 1))
    C[0, 0] = 1.0
    if nmax == 0:
        return C
    C[1, 1] = 1.0
    for n in range(1, nmax):
        r = np.append(C[n], (0.0, 0.0))  # r[nmax+1] = r[nmax+2] = 0
        xr = np.zeros(nmax + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            xr[0] = 0.5 * r[1]
            xr[1] = r[0] + 0.5 * r[2]
            xr[2:n + 2] = 0.5 * r[1:n + 1] + 0.5 * r[3:n + 3]
            C[n + 1] = (xr - seq.c(n) * C[n - 1]) / seq.a(n)
    return C


@pytest.mark.parametrize("tag, params", CONNECTION_FAMILIES)
def test_connection_bitwise_equals_row_loop(tag, params):
    # convex rows overflow from row 90 on, so 95 ... 104 cover inf and NaN
    seq = make_family(tag, **params)
    for nmax in (0, 1, 2, 3, 40, 95, 100, 104):
        with np.errstate(over="ignore", invalid="ignore"):
            got = connection_coeffs(seq, nmax)
            want = row_loop_connection(seq, nmax)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # the row reductions of connection_row_checks see the same bits
            assert got.sum(axis=1).tobytes() == want.sum(axis=1).tobytes()


def test_grinspun_two_term_rows():
    # P_n = (1/(2-2c)) T_n + ((1-2c)/(2-2c)) T_{n-2} for n >= 2
    for c1 in (0.3, 0.7):
        C = connection_coeffs(make_family("grinspun", c1=c1), 9)
        lead = 1.0 / (2.0 - 2.0 * c1)
        trail = (1.0 - 2.0 * c1) / (2.0 - 2.0 * c1)
        for n in range(2, 10):
            assert C[n, n] == pytest.approx(lead, rel=1e-12)
            assert C[n, n - 2] == pytest.approx(trail, rel=1e-12, abs=1e-13)
            others = [C[n, k] for k in range(n + 1) if k not in (n, n - 2)]
            assert np.max(np.abs(others)) < 1e-13


def test_row_checks_structure():
    seq = make_family("gencheb", alpha=0.5, beta=1.5)
    checks = connection_row_checks(seq, 25)
    assert checks["sum_to_one"] < 1e-12
    assert checks["leading"] < 1e-11
    assert checks["parity"] == 0.0


@pytest.mark.parametrize("nmax", [89, 90, 100])
def test_row_checks_skip_overflowed_rows(nmax):
    # the convex rows overflow from row 90 on; the residuals cover rows
    # 0..89 and stay numbers, and no overflow warning escapes
    import warnings

    seq = make_family("convex", eps=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = connection_row_checks(seq, nmax)
        ok, worst = connection_nonneg(seq, nmax)
    assert checks["finite_rows"] == 90
    assert all(math.isfinite(v) for v in checks.values())
    json.dumps(checks, allow_nan=False)
    assert checks["sum_to_one"] == pytest.approx(5.918e-15, rel=1e-3)
    assert checks["leading"] == pytest.approx(4.441e-16, rel=1e-3)
    assert not ok and math.isfinite(worst)


ROW_CHECK_FAMILIES = [
    ("cheb1", {}, 400),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}, 400),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}, 400),
    ("cosh", {"a": 1.0}, 400),
    ("grinspun", {"c1": 0.7}, 400),
    ("km", {"alpha": 8.0, "beta": 5.0}, 400),
    ("modkm", {"alpha": 2.0, "beta": 5.0}, 400),
    ("rational25", {}, 400),
    ("convex", {"eps": 0.5}, 100),
]


def reference_leading(seq, nmax):
    """The leading-coefficient defect with 2 ** (n - 1) and prod a(k)
    formed as plain floats: the oracle wherever neither leaves the float
    range (2.0 ** (n - 1) raises OverflowError from n = 1026 on)."""
    C = connection_coeffs(seq, nmax)
    rows = connection_row_checks(seq, nmax)["finite_rows"]
    lead_defect = 0.0
    prod_a = 1.0
    for n in range(1, rows):
        lead = C[n, n] * 2.0 ** (n - 1) * prod_a
        lead_defect = max(lead_defect, abs(lead - 1.0))
        prod_a *= seq.a(n)
    return float(lead_defect)


@pytest.mark.parametrize("tag,params,nmax", ROW_CHECK_FAMILIES)
def test_leading_defect_bitwise_equals_plain_float_oracle(tag, params, nmax):
    seq = make_family(tag, **params)
    got = connection_row_checks(seq, nmax)["leading"]
    assert got.hex() == reference_leading(seq, nmax).hex()


def test_row_checks_past_float_range_of_two_to_the_n():
    # 2.0 ** 1025 overflows; the split mantissa/exponent product does not
    checks = connection_row_checks(make_family("cheb1"), 1100)
    assert checks["finite_rows"] == 1101
    assert all(math.isfinite(v) for v in checks.values())
    assert checks["leading"] == 0.0
    json.dumps(checks, allow_nan=False)


def test_nonneg_split():
    ok, worst_ok = connection_nonneg(make_family("grinspun", c1=0.3), 20)
    bad, worst_bad = connection_nonneg(make_family("grinspun", c1=0.7), 20)
    assert ok and worst_ok > -1e-12
    assert not bad and worst_bad < -0.1


@pytest.mark.parametrize("nmax", [90, 100])
def test_nonneg_overflowing_rows_fail_with_a_finite_worst(nmax):
    # the convex rows overflow to inf and NaN from row 90 on
    seq = make_family("convex", eps=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(connection_coeffs(seq, nmax)))
        ok, worst = connection_nonneg(seq, nmax)
    assert ok is False
    assert math.isfinite(worst) and worst <= -3e303  # row 89 already holds it
    json.dumps(worst, allow_nan=False)


def test_nonneg_for_nlp_families():
    for tag, params in (("cheb1", {}), ("cosh", {"a": 1.0}),
                        ("gencheb", {"alpha": 0.5, "beta": 0.5})):
        ok, _ = connection_nonneg(make_family(tag, **params), 25)
        assert ok


class TestCriterionReport:
    def test_full_interval_family(self):
        rep = criterion_report(make_family("cosh", a=1.0), nlp_verified=True)
        assert rep.dual_full_interval
        assert rep.haar_floor_predicted
        assert rep.haar_min >= 2.0 - 1e-9
        assert rep.haar_floor_met
        assert rep.consistent

    def test_counterexample_family(self):
        rep = criterion_report(make_family("modkm", alpha=2.0, beta=5.0),
                               nlp_verified=True)
        assert not rep.haar_floor_predicted       # no sufficient criterion fires
        assert not rep.haar_floor_met  # h(1) = 1.8 < 2
        assert rep.consistent          # ...which is exactly consistent

    def test_unverified_nlp_blocks_conditional_criteria(self):
        # bounded polynomials alone must not predict the floor when the
        # product formula has negative weights
        seq = make_family("grinspun", c1=0.7)
        rep = criterion_report(seq, nlp_verified=False)
        assert rep.uniform_bound
        assert not rep.haar_floor_predicted
        assert rep.haar_min < 2.0
        assert rep.consistent

    def test_custom_sequence_has_no_support_verdict(self):
        seq = make_family("custom", cfunc=lambda n: 0.45)
        rep = criterion_report(seq, nlp_verified=None)
        assert rep.support_symmetric_interval is None

    def test_lines_render(self):
        rep = criterion_report(make_family("cheb1"), nlp_verified=True)
        text = "\n".join(rep.lines())
        assert "min h(n)" in text and "consistent" in text


# criterion 7's families and convex(0.5): coverage of [-1, 1] was once
# decided by the bridged intervals of their estimate in criterion 7 and by a
# band test of their own profile in criterion_report
COVERAGE_FAMILIES = [*verify._CLOSED_FORM_FAMILIES, ("convex", dict(eps=0.5))]


def test_coverage_is_one_predicate_with_the_bridged_interval_verdict():
    verdicts = []
    for tag, params in COVERAGE_FAMILIES:
        seq = make_family(tag, **params)
        est = dual.dual_estimate(seq, N=400, grid_step=1e-3)
        bridged = est.intervals == ((-1.0, 1.0),)
        assert est.full_interval is bridged, (tag, params)
        assert criterion_report(seq).dual_full_interval is bridged, (tag, params)
        verdicts.append(bridged)
    assert sum(verdicts) == 11


@pytest.mark.parametrize("spec", GOLDEN_REPORTS)
def test_uniform_bound_is_the_divergence_degree_rule(spec):
    # the crossing value enters the running max, so a point crossed the
    # threshold exactly when its max_abs is above it
    seq = parse_family_spec(spec)
    max_abs, dvg = dual._profile(seq, criterion_grid(), PROFILE_DEGREE,
                                 dual.DIVERGE_THRESHOLD)
    assert np.array_equal(max_abs > dual.DIVERGE_THRESHOLD, dvg > 0)
    rep = criterion_report(seq, profile=max_abs)
    assert rep.uniform_bound is bool(np.all(dvg == 0))


def test_nan_profile_point_counts_as_bounded_but_not_member():
    profile = np.ones(criterion_grid().size)
    profile[7] = np.nan
    rep = criterion_report(make_family("cheb1"), profile=profile)
    assert rep.uniform_bound is True
    assert rep.dual_full_interval is False


def test_profile_of_another_shape_is_refused():
    # a five-point profile once classified modkm(2,5) as covering [-1, 1]
    with pytest.raises(ValueError, match=r"profile shape \(5,\) differs "
                       r"from grid shape \(2001,\)"):
        criterion_report(make_family("modkm", alpha=2, beta=5),
                         profile=np.ones(5))
