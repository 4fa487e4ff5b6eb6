"""The nine headline checks, one test each.

Each test runs the same implementation the ``verify`` command uses and
prints a single ``[PASS]``/``[FAIL]`` line with the measured figures, so
``pytest -v -s tests/test_acceptance.py`` doubles as the sign-off sheet.
"""

import numpy as np
import pytest

from hyplab import verify


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
