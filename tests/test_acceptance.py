"""The nine headline checks, one test each.

Each test runs the same implementation the ``verify`` command uses and
prints a single ``[PASS]``/``[FAIL]`` line with the measured figures, so
``pytest -v -s tests/test_acceptance.py`` doubles as the sign-off sheet.
"""

import numpy as np
import pytest

from hyplab import chebconnect, cli, verify
from hyplab.core import CoefficientDomainError, HaarRangeError


@pytest.mark.parametrize(
    "criterion", verify.CRITERIA, ids=[c.__name__ for c in verify.CRITERIA]
)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def scalar_g_defect(tab, T, h):
    """Criterion 4's g-defect as the entry-by-entry loop once computed it."""
    worst = 0.0
    for m in range(tab.N + 1):
        for n in range(tab.N + 1):
            for k in range(m + n + 1):
                worst = max(worst, abs(tab.g(m, n, k) - h[k] * T[m, n, k]))
    return worst


@pytest.mark.parametrize(
    "tag,kw", verify._FULL_MEASURE_FAMILIES,
    ids=[f"{tag}{kw}" for tag, kw in verify._FULL_MEASURE_FAMILIES],
)
def test_g_defect_row_fold_equals_scalar_loop(tag, kw):
    seq = verify.make_family(tag, **kw)
    tab = verify._lin.LinearizationTable(seq, N=12)
    T = verify._measures.triple_products(seq, 12)
    h = verify.haar_values(seq, 24)
    got = verify._g_defect(tab, T, h)
    assert type(got) is float
    assert got.hex() == float(scalar_g_defect(tab, T, h)).hex()


def test_nan_triple_product_fails_criterion_4(monkeypatch):
    # a NaN entry must not be folded away by max(): the check has to fail
    triple_products = verify._measures.triple_products

    def with_nan(seq, M):
        T = triple_products(seq, M)
        T[2, 3, 1] = np.nan
        return T

    monkeypatch.setattr(verify._measures, "triple_products", with_nan)
    result = verify.linearization_oracles()
    assert not result.passed
    assert "max |g - h*integral| nan" in result.detail


def test_nan_table_row_fails_criterion_4(monkeypatch):
    # a NaN coefficient inside the band k <= m + n reaches the defect
    class WithNan(verify._lin.LinearizationTable):
        def __init__(self, seq, N):
            super().__init__(seq, N)
            self.row(2, 3)[4] = np.nan

    monkeypatch.setattr(verify._lin, "LinearizationTable", WithNan)
    result = verify.linearization_oracles()
    assert not result.passed
    assert "max |g - h*integral| nan" in result.detail


def test_nan_triple_product_past_the_band_is_ignored(monkeypatch):
    # g(m, n; k) = 0 for k > m + n is not compared, so a NaN in T there
    # changes nothing, as in the row-by-row defect
    clean = verify.linearization_oracles()
    triple_products = verify._measures.triple_products

    def with_nan(seq, M):
        T = triple_products(seq, M)
        T[2, 3, 7] = T[3, 2, 7] = T[0, 0, 1] = np.nan
        return T

    monkeypatch.setattr(verify._measures, "triple_products", with_nan)
    result = verify.linearization_oracles()
    assert result.passed
    assert result.detail == clean.detail


# --- a NaN measurement fails its criterion ---------------------------------
# max(0.0, nan) is 0.0, so each fold below once passed a NaN; every test
# turns one measurement into NaN and expects the check to fail

def test_nan_closed_form_error_fails_criterion_1(monkeypatch):
    err = verify.closed_form_max_rel_err

    def with_nan(seq, h):
        return np.nan if seq.family_tag == "cosh" else err(seq, h)

    monkeypatch.setattr(verify, "closed_form_max_rel_err", with_nan)
    result = verify.haar_closed_forms()
    assert result.passed is False
    assert "worst rel err nan" in result.detail


def test_nan_haar_weight_fails_criterion_2(monkeypatch):
    monkeypatch.setattr(verify, "haar_values", lambda seq, n: np.full(n + 1, np.nan))
    result = verify.counterexample_haar_growth()
    assert result.passed is False
    assert "worst nan" in result.detail


def test_nan_two_term_row_fails_criterion_3(monkeypatch):
    class WithNan(verify._lin.LinearizationTable):
        def __init__(self, seq, N):
            super().__init__(seq, N)
            self.row(2, 3)[1] = np.nan

    monkeypatch.setattr(verify._lin, "LinearizationTable", WithNan)
    result = verify.nlp_audits()
    assert result.passed is False
    assert "two-term rows within nan" in result.detail


def test_nan_orthogonality_error_fails_criterion_4(monkeypatch):
    orthogonality_error = verify._measures.orthogonality_error

    def with_nan(seq, N):
        return np.nan if seq.family_tag == "km" else orthogonality_error(seq, N)

    monkeypatch.setattr(verify._measures, "orthogonality_error", with_nan)
    result = verify.linearization_oracles()
    assert result.passed is False
    assert "orthogonality error nan" in result.detail


def nan_in_rational25(monkeypatch):
    """Make every rational25 that verify builds read c(7) as NaN."""
    make_family = verify.make_family

    def with_nan(tag, **kw):
        seq = make_family(tag, **kw)
        if tag == "rational25":
            c_array = seq.c_array

            def c_nan(nmax):
                c = c_array(nmax)
                c[7] = np.nan
                return c

            seq.c_array = c_nan
        return seq

    monkeypatch.setattr(verify, "make_family", with_nan)


def test_nan_coefficient_fails_criterion_5(monkeypatch):
    nan_in_rational25(monkeypatch)
    result = verify.rescaling_identity()
    assert result.passed is False
    assert "deviation nan" in result.detail


def test_criterion_7_failure_detail_is_deterministic(monkeypatch):
    # a violating family is shown by its repr, which once included the
    # address of its coefficient lambda and so differed between processes;
    # the floor lives in chebconnect, whose measured_floor criterion 7 reads
    monkeypatch.setattr(chebconnect, "HAAR_FLOOR", 1e9)
    result = verify.haar_floor_composite()
    assert result.passed is False
    assert "family_tag='cheb1'" in result.detail
    assert "0x" not in result.detail


def _nan_when(fn, pred):
    return lambda *args, **kw: np.nan if pred(*args) else fn(*args, **kw)


def _nan_entry_when(fn, pred):
    # the residuals of every n of one (alpha, beta) come from one call; the
    # entry of the n where pred(alpha, beta, n) holds turns NaN
    def residuals(a, b, ns):
        ns = list(ns)
        return [np.nan if pred(a, b, n) else r for n, r in zip(ns, fn(a, b, ns))]
    return residuals


@pytest.mark.parametrize("target,wrap,pred,shown", [
    ("kernel_identity_residuals", _nan_entry_when,
     lambda a, b, n: type(a) is int and n == 5, "exact lattice residual nan"),
    ("kernel_identity_residuals", _nan_entry_when,
     lambda a, b, n: type(a) is float and n == 14, "float n<=15 nan"),
    ("mustar_orthogonality", _nan_when, lambda a, b: a == 5,
     "partner orthogonality nan"),
    ("tilde_density_ratio", _nan_when, lambda a, b, xs: a == 8,
     "density ratio defect nan"),
], ids=["exact", "float", "orthogonality", "density"])
def test_nan_measurement_fails_criterion_8(monkeypatch, target, wrap, pred, shown):
    fn = getattr(verify._appendix, target)
    monkeypatch.setattr(verify._appendix, target, wrap(fn, pred))
    result = verify.partner_identities()
    assert result.passed is False
    assert shown in result.detail


# --- one family table per run_suite call -----------------------------------

def count_builds(monkeypatch):
    """Patch verify.make_family to record each build; return the record."""
    make_family = verify.make_family
    built = []

    def recording(tag, **kw):
        seq = make_family(tag, **kw)
        built.append(((tag, tuple((k, type(v), v) for k, v in sorted(kw.items()))), seq))
        return seq

    monkeypatch.setattr(verify, "make_family", recording)
    return built


def test_suite_builds_each_distinct_family_once(monkeypatch):
    # criterion 2 reads convex(eps=0.2) and convex(eps=0.8) from the table
    # too; convex(eps=0.5) is the one criteria 3, 6 and 9 read
    built = count_builds(monkeypatch)
    results = verify.run_suite("all")
    specs = [spec for spec, _ in built]
    assert len(specs) == len(set(specs)) == 21
    assert all(r.passed for r in results)


def test_suite_runs_share_no_family(monkeypatch):
    built = count_builds(monkeypatch)
    verify.run_suite("section2")
    first = [seq for _, seq in built]
    built.clear()
    verify.run_suite("section2")
    second = [seq for _, seq in built]
    assert len(first) == len(second) > 0
    assert not {id(s) for s in first} & {id(s) for s in second}


def test_direct_criterion_builds_its_own_families(monkeypatch):
    built = count_builds(monkeypatch)
    verify.rescaling_identity()
    verify.rescaling_identity()
    assert [spec[0] for spec, _ in built] == ["rational25", "modkm"] * 2
    assert len({id(seq) for _, seq in built}) == 4


def test_family_table_keeps_int_and_float_parameters_apart():
    table = verify._FamilyTable()
    ints = table("modkm", alpha=2, beta=5)
    floats = table("modkm", alpha=2.0, beta=5.0)
    assert ints is not floats
    assert table("modkm", beta=5, alpha=2) is ints
    assert table("modkm", alpha=2.0, beta=5.0) is floats
    assert table("gencheb", alpha=0.0, beta=0.5) is not table("gencheb", alpha=-0.0, beta=0.5)


def test_nan_coefficient_fails_criterion_5_in_a_suite_run(monkeypatch):
    # the NaN of test_nan_coefficient_fails_criterion_5 reaches criterion 5
    # through the run's shared rational25, which criterion 1 read first
    # (criterion 4's quadrature, not in this suite, refuses the NaN with a
    # QuadratureConvergenceError)
    nan_in_rational25(monkeypatch)
    results = {r.key: r for r in verify.run_suite("section3")}
    assert results["criterion-1"].passed
    assert results["criterion-5"].passed is False
    assert "deviation nan" in results["criterion-5"].detail


def test_numerical_failure_fails_its_criterion_and_the_run_goes_on(monkeypatch, capsys):
    # criterion 4's quadrature refuses the NaN with a
    # QuadratureConvergenceError; that is its FAIL, and 5 to 9 still run
    nan_in_rational25(monkeypatch)
    results = verify.run_suite("all")
    assert [r.key for r in results] == [f"criterion-{i}" for i in range(1, 10)]
    failed = {r.key: r for r in results if not r.passed}
    assert set(failed) == {"criterion-4", "criterion-5"}
    assert failed["criterion-4"].title == "quadrature oracles"
    assert failed["criterion-4"].detail.startswith(
        "numerical failure: QuadratureConvergenceError: tanh-sinh did not stabilize")
    assert "deviation nan" in failed["criterion-5"].detail
    assert cli.main(["verify", "--suite", "all"]) == 2
    out, err = capsys.readouterr()
    assert "first failing criterion: criterion-4" in err
    assert out.count("[FAIL]") == 2 and out.count("[PASS]") == 7


@pytest.mark.parametrize("error", [HaarRangeError, CoefficientDomainError])
def test_each_numerical_error_class_fails_its_criterion(monkeypatch, error):
    def broken(family=None):
        raise error("boom")

    monkeypatch.setitem(verify.SUITES, "appendix", [broken])
    monkeypatch.setattr(verify, "CRITERIA", [*verify.CRITERIA[:7], broken, verify.CRITERIA[8]])
    [result] = verify.run_suite("appendix")
    assert result.key == "criterion-8" and result.title == "reweighted-partner identities"
    assert result.passed is False
    assert result.detail == f"numerical failure: {error.__name__}: boom"
