"""Structure-space estimation: bounded-profile grids, interval recovery,
the degree-2 lower bound, and complex-plane scans."""

import json
import math
import time

import numpy as np
import pytest

from hyplab import appendixcheck, cli, dual, verify
from hyplab.core import CoefficientDomainError
from hyplab.dual import (
    DIVERGE_THRESHOLD,
    complex_scan,
    divergence_classify,
    dual_estimate,
    max_abs_profile,
    exclusion_bound,
    exclusion_intervals,
)
from hyplab.core import eval_basis_grid, haar_values
from hyplab.families import beta_for_epsilon, make_family

# moderate settings keep each estimate well under a second; the acceptance
# suite re-runs the same geometry at the pinned N=400
FAST = dict(N=200, grid_step=1e-3)


def edges(est):
    return [(round(a, 6), round(b, 6)) for a, b in est.intervals]


def test_cheb_covers_interval():
    est = dual_estimate(make_family("cheb1"), **FAST)
    assert len(est.intervals) == 1
    a, b = est.intervals[0]
    assert a == -1.0 and b == 1.0


def test_cosh_covers_interval():
    est = dual_estimate(make_family("cosh", a=1.0), **FAST)
    assert est.intervals[0] == (-1.0, 1.0)


def test_grinspun_above_half_collapses_to_endpoints():
    est = dual_estimate(make_family("grinspun", c1=0.7), **FAST)
    members = est.members
    assert set(np.round(members, 12)) == {-1.0, 1.0}


def test_grinspun_below_half_keeps_interval():
    est = dual_estimate(make_family("grinspun", c1=0.3), **FAST)
    assert est.intervals[0] == (-1.0, 1.0)


def test_modkm_two_interval_geometry():
    est = dual_estimate(make_family("modkm", alpha=2.0, beta=5.0), **FAST)
    assert len(est.intervals) == 2
    (a1, b1), (a2, b2) = est.intervals
    third = 1.0 / 3.0
    step = FAST["grid_step"]
    assert a1 == -1.0 and b2 == 1.0
    assert abs(b1 + third) <= 2 * step
    assert abs(a2 - third) <= 2 * step


def test_km_8_5_gap_with_zero_member():
    est = dual_estimate(make_family("modkm", alpha=8.0, beta=5.0), **FAST)
    members = est.members
    assert 0.0 in set(members)  # the measure has a point mass at 0
    gap_lo, gap_hi = 0.01, 0.1
    inside = members[(members > gap_lo) & (members < gap_hi)]
    assert inside.size == 0


def test_convex_grid_sees_only_endpoints():
    est = dual_estimate(make_family("convex", eps=0.5, q=0.5), **FAST)
    assert set(np.round(est.members, 12)) == {-1.0, 1.0}


@pytest.mark.parametrize("tag,params,want", [
    ("cheb1", {}, 0.0),
    ("modkm", {"alpha": 2.0, "beta": 5.0}, 1.0 / 3.0),
    ("convex", {"eps": 0.5, "q": 0.5}, math.sqrt(1.0 / 3.0)),
])
def test_exclusion_bound_values(tag, params, want):
    assert exclusion_bound(make_family(tag, **params)) == pytest.approx(
        want, abs=1e-12)


def test_exclusion_bound_excludes_members():
    # no member of the estimate may fall strictly inside (-bound, bound),
    # except the atom location 0 when the measure carries one
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    cut = exclusion_bound(seq)
    est = dual_estimate(seq, **FAST)
    members = np.abs(est.members)
    inner = members[(members > 0) & (members < cut - 1e-9)]
    assert inner.size == 0


@pytest.mark.parametrize("eps,cut", [
    (0.8, 1.0 / 3.0),
    (0.5, math.sqrt(1.0 / 3.0)),
])
def test_exclusion_intervals_cut_values(eps, cut):
    lo, hi = exclusion_intervals(eps)
    assert lo == pytest.approx((-1.0, -cut), abs=1e-12)
    assert hi == pytest.approx((cut, 1.0), abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_exclusion_intervals_rejects_out_of_range(eps):
    with pytest.raises(ValueError):
        exclusion_intervals(eps)


@pytest.mark.parametrize("call,name", [
    (lambda s: dual_estimate(s, grid_step=0), "grid_step"),
    (lambda s: dual_estimate(s, grid_step=-1e-3), "grid_step"),
    (lambda s: dual_estimate(s, grid_step=math.nan), "grid_step"),
    (lambda s: dual_estimate(s, grid_step=math.inf), "grid_step"),
    (lambda s: dual_estimate(s, N=-1, grid_step=0.1), "N"),
    (lambda s: complex_scan(s, step=0), "step"),
    (lambda s: complex_scan(s, step=-0.5), "step"),
    (lambda s: complex_scan(s, N=-3, step=0.5), "N"),
    (lambda s: divergence_classify(s, 0.5, N=-1), "N"),
    (lambda s: max_abs_profile(s, [0.5], -1), "N"),
    (lambda s: appendixcheck.kernel_identity_residual(5, 8, -1), "n"),
    (lambda s: appendixcheck.chebyshev_partner_residual(-1), "nmax"),
], ids=["grid_step=0", "grid_step<0", "grid_step=nan", "grid_step=inf",
        "estimate-N<0", "step=0", "step<0", "scan-N<0", "classify-N<0",
        "profile-N<0", "kernel-n<0", "partner-nmax<0"])
def test_out_of_domain_degree_or_step_is_named(call, name):
    # each once ended in a ZeroDivisionError, an IndexError, a numpy message
    # that names no argument, or a silent answer for a negative degree
    with pytest.raises(ValueError, match=rf"(^|\s){name} must be "):
        call(make_family("modkm", alpha=2, beta=5))


def test_exclusion_intervals_narrow_to_endpoints():
    # as eps shrinks to 0 the surviving intervals pinch onto the endpoints
    widths = [exclusion_intervals(e)[1][1] - exclusion_intervals(e)[1][0]
              for e in (0.001, 0.1, 0.5, 0.9)]
    assert widths == sorted(widths)
    assert widths[0] < 0.002


@pytest.mark.parametrize("build", [
    lambda eps: make_family("modkm", alpha=2.0, beta=beta_for_epsilon(eps)),
    lambda eps: make_family("convex", eps=eps, q=0.5),
])
def test_exclusion_intervals_match_degree_two_root(build):
    # the interval edge is exactly where the degree-2 polynomial hits -1,
    # for any sequence whose first Haar weight equals 1 + eps
    eps = 0.62
    (_, ncut), (cut, _) = exclusion_intervals(eps)
    seq = build(eps)
    assert haar_values(seq, 1)[1] == pytest.approx(1.0 + eps, rel=1e-12)
    assert exclusion_bound(seq) == pytest.approx(cut, rel=1e-12)
    for x in (cut, ncut):
        vals = eval_basis_grid(seq, 2, [x])[:, 0]
        assert vals[2] == pytest.approx(-1.0, abs=1e-12)


def test_profile_monotone_in_degree():
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    xs = np.array([0.15, 0.5, 0.9])
    p100 = max_abs_profile(seq, xs, N=100)
    p200 = max_abs_profile(seq, xs, N=200)
    assert np.all(p200 >= p100 - 1e-15)


def test_divergence_classify_three_verdicts():
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    assert divergence_classify(seq, 0.5) == "member_evidence"
    assert divergence_classify(seq, 0.2) == "nonmember_diverged"
    # just outside the support: bounded growth up to small N, undecided
    assert divergence_classify(seq, 1.0 + 1e-9, N=50) in (
        "undecided", "nonmember_diverged")


def test_divergence_classify_convex_at_default_degree():
    # _profile builds 1/a(n) for every n < N = 2000 from the exact backbone
    # before it iterates; that takes about 1.5 s on a 2-core Xeon, where a
    # backbone that reduced Fractions by gcd at every step took minutes
    seq = make_family("convex", eps=0.5)
    t0 = time.perf_counter()
    assert divergence_classify(seq, 0.9) == "nonmember_diverged"
    assert time.perf_counter() - t0 < 60.0


def test_divergence_classify_convex_past_float_range_names_n():
    # 1/a(n) of the default convex family first leaves float range at
    # n = 2047; the profile to N = 3000 stops there with a named error
    seq = make_family("convex", eps=0.5)
    with pytest.raises(CoefficientDomainError,
                       match=r"^1/a\(n\) exceeds float range at n = 2047$"):
        divergence_classify(seq, 0.9, N=3000)


class TestComplexScan:
    def test_cosh_keeps_the_ellipse(self):
        pts, prof = complex_scan(make_family("cosh", a=1.0), N=150,
                                 step=0.05)
        off_axis = pts[(np.abs(pts.imag) > 0.05) & (prof <= 1.0 + 1e-9)]
        assert off_axis.size > 0
        # all survivors inside the ellipse with semi-axes (1, tanh a)
        t = math.tanh(1.0)
        surv = pts[prof <= 1.0 + 1e-9]
        assert np.all(surv.real**2 + (surv.imag / t) ** 2 <= 1.0 + 1e-6)

    def test_counterexample_confined_to_axis(self):
        pts, prof = complex_scan(make_family("modkm", alpha=2.0, beta=5.0),
                                 N=400, step=0.02)
        surv = pts[prof <= 1.0 + 1e-9]
        assert np.all(np.abs(surv.imag) <= 0.02)


def test_threshold_freeze_does_not_flip_members():
    # raising the divergence threshold must not change who is a member
    seq = make_family("modkm", alpha=8.0, beta=5.0)
    xs = np.linspace(-1, 1, 101)
    lo, _ = dual._profile(seq, xs, 200, 1e4)
    hi, _ = dual._profile(seq, xs, 200, 1e8)
    assert np.array_equal(lo <= 1.0 + 1e-9, hi <= 1.0 + 1e-9)


# the families and grids of verify's criteria 6 and 7
CRITERIA_6_7 = [
    ("modkm", dict(alpha=2, beta=5), 2e-4),
    *(("modkm", dict(alpha=2.0, beta=beta_for_epsilon(eps)), 2e-4)
      for eps in verify._EPS_SWEEP),
    ("grinspun", dict(c1=0.7), 2e-4),
    ("convex", dict(eps=0.5), 1e-3),
    *((tag, kw, 1e-3) for tag, kw in verify._CLOSED_FORM_FAMILIES),
    ("modkm", dict(alpha=8, beta=5), 1e-3),
]


@pytest.mark.parametrize("tag,params,grid_step", CRITERIA_6_7,
                         ids=[f"{t}-{p}-{g}" for t, p, g in CRITERIA_6_7])
def test_estimate_frozen_at_band_keeps_members(tag, params, grid_step):
    # dual_estimate freezes at 1 + MEMBER_TOL; its members and intervals are
    # those of the profile frozen at DIVERGE_THRESHOLD
    seq = make_family(tag, **params)
    est = dual_estimate(seq, N=400, grid_step=grid_step)
    xs = dual.estimate_grid(grid_step)
    want = dual.classify_profile(xs, max_abs_profile(seq, xs, N=400), 400,
                                 grid_step, dual.MEMBER_TOL)
    assert np.array_equal(est.xs, want.xs)
    assert np.array_equal(est.member_mask, want.member_mask)
    assert est.intervals == want.intervals
    assert est.tol == want.tol == 1e-9


# --- the blocked profile kernel against the unblocked one ------------------

def reference_profile(seq, zs, N, threshold):
    """The unblocked kernel _profile replaced, kept as a bitwise oracle."""
    zs = np.asarray(zs)
    shape = zs.shape
    z = zs.ravel()
    inv_a = seq.inv_a_array(N - 1 if N > 0 else 0)
    out = np.ones(z.size, dtype=float)
    dvg = np.zeros(z.size, dtype=np.int32)
    idx = np.arange(z.size)

    p_prev = np.ones_like(z)
    p_cur = z.copy()
    out = np.maximum(out, np.abs(p_cur))

    pending = False
    for n in range(1, N):
        p_next = p_prev + inv_a[n] * (z * p_cur - p_prev)
        ratio = np.abs(p_next)
        out[idx] = np.maximum(out[idx], ratio)
        over = ratio > threshold
        if np.any(over):
            dvg[idx[over]] = n + 1
            p_next[over] = 0.0
            pending = True
        p_prev, p_cur = p_cur, p_next
        if pending and n % 16 == 0:
            keep = dvg[idx] == 0
            idx = idx[keep]
            if idx.size == 0:
                break
            z = z[keep]
            p_prev = p_prev[keep]
            p_cur = p_cur[keep]
            pending = False
    return out.reshape(shape), dvg.reshape(shape)


ORACLE_FAMILIES = [
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
    ("convex", {"eps": 0.5}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("cheb1", {}),
]


def oracle_inputs():
    re = np.arange(-1.5, 1.5 + 0.015, 0.03)
    return {
        "real [-1, 1]": np.linspace(-1.0, 1.0, 2001),
        "real [-1.5, 1.5]": np.linspace(-1.5, 1.5, 3001),
        "complex": (re[None, :] + 1j * re[:, None]).ravel(),
        "complex 2-D": re[None, :] + 1j * re[:, None],
        "real 2-D": np.linspace(-1.5, 1.5, 600).reshape(20, 30),
        "empty": np.array([]),
        "ragged blocks": np.linspace(-1.5, 1.5, 2 * dual._BLOCK + 3),
    }


@pytest.mark.parametrize("N", [0, 1, 2, 16, 17, 400])
@pytest.mark.parametrize("tag,params", ORACLE_FAMILIES)
def test_profile_bitwise_equals_unblocked_reference(tag, params, N):
    seq = make_family(tag, **params)
    for name, zs in oracle_inputs().items():
        want_max, want_dvg = reference_profile(seq, zs, N, DIVERGE_THRESHOLD)
        got_max, got_dvg = dual._profile(seq, zs, N, DIVERGE_THRESHOLD)
        assert got_max.shape == zs.shape and got_dvg.shape == zs.shape, name
        assert got_max.dtype == want_max.dtype, name
        assert got_dvg.dtype == want_dvg.dtype, name
        assert np.array_equal(got_max, want_max, equal_nan=True), name
        assert np.array_equal(got_dvg, want_dvg), name


def test_profile_oracle_reaches_freeze_and_compression():
    # the oracle inputs must drive points over the threshold, so that the
    # freeze, the compression and the ragged last block are all exercised
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    zs = oracle_inputs()["ragged blocks"]
    _, dvg = dual._profile(seq, zs, 400, DIVERGE_THRESHOLD)
    assert np.count_nonzero(dvg) > dual._BLOCK
    assert np.all(dvg[-3:] > 0) and np.any(dvg[:-3] == 0)
    assert np.any((dvg > 0) & (dvg % 16 != 1))  # crossed between compressions


@pytest.mark.parametrize("N", [0, 2, 17, 400])
def test_profile_folds_real_points_by_magnitude(N, monkeypatch):
    # every distinct |x| reaches the kernel once, and the scattered results
    # equal the unfolded kernel's at +-0.0, NaN, +-inf and duplicates
    seq = make_family("modkm", alpha=2.0, beta=5.0)
    xs = np.concatenate((
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 1.0],
        np.linspace(-1.5, 1.5, 591),
    )).reshape(20, 30)
    block = dual._profile_block
    seen = []

    def recording_block(z, *args):
        seen.append(z.copy())
        return block(z, *args)

    monkeypatch.setattr(dual, "_profile_block", recording_block)
    with np.errstate(invalid="ignore", over="ignore"):
        want_max, want_dvg = reference_profile(seq, xs, N, DIVERGE_THRESHOLD)
        got_max, got_dvg = dual._profile(seq, xs, N, DIVERGE_THRESHOLD)
    assert got_max.shape == xs.shape and got_dvg.shape == xs.shape
    assert np.array_equal(got_max, want_max, equal_nan=True)
    assert np.array_equal(got_dvg, want_dvg)

    iterated = np.concatenate(seen)
    assert np.array_equal(iterated, np.unique(np.abs(xs)), equal_nan=True)
    assert iterated.size == np.unique(iterated).size  # each |x| once
    assert iterated.size < xs.size


# --- several sequences in one pass against one at a time -------------------

def batch_inputs():
    re = np.arange(-1.5, 1.5 + 0.045, 0.09)
    return {
        "real": np.concatenate((
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 1.0],
            np.linspace(-1.5, 1.5, 1201),
        )),
        "complex": np.concatenate((
            (re[None, :] + 1j * re[:, None]).ravel(),
            [complex(np.inf, 0.0), complex(0.0, np.inf), complex(np.inf, 1.0),
             complex(np.nan, 0.5), complex(0.3, np.nan), complex(0.2, 0.1)],
        )),
        "real 2-D": np.linspace(-1.5, 1.5, 600).reshape(20, 30),
        "empty": np.array([]),
    }


@pytest.mark.parametrize("threshold", [DIVERGE_THRESHOLD, 1.0 + dual.MEMBER_TOL],
                         ids=["diverge", "band"])
@pytest.mark.parametrize("N", [0, 1, 2, 16, 17, 400])
def test_batched_profile_rows_equal_single_profiles(N, threshold):
    # each family's row of one batched pass is bitwise its own profile, and
    # that of the unblocked oracle, at frozen points, NaN and +-inf included
    seqs = [make_family(tag, **params) for tag, params in ORACLE_FAMILIES]
    with np.errstate(invalid="ignore", over="ignore"):
        for name, zs in batch_inputs().items():
            got_max, got_dvg = dual._profile(seqs, zs, N, threshold)
            assert got_max.shape == got_dvg.shape == (len(seqs), *zs.shape), name
            assert got_max.dtype == np.float64 and got_dvg.dtype == np.int32
            for f, seq in enumerate(seqs):
                one_max, one_dvg = dual._profile([seq], zs, N, threshold)
                want_max, want_dvg = dual._profile(seq, zs, N, threshold)
                ref_max, ref_dvg = reference_profile(seq, zs, N, threshold)
                for m, d in ((one_max[0], one_dvg[0]), (want_max, want_dvg),
                             (ref_max, ref_dvg)):
                    assert np.array_equal(got_max[f], m, equal_nan=True), (name, f)
                    assert np.array_equal(got_dvg[f], d), (name, f)


def test_batched_profile_holds_entries_of_live_points():
    # the batch must hold crossed entries at points another family keeps
    # iterating, and drop points every family crossed
    seqs = [make_family(tag, **params) for tag, params in ORACLE_FAMILIES]
    with np.errstate(invalid="ignore", over="ignore"):
        _, dvg = dual._profile(seqs, batch_inputs()["real"], 400, DIVERGE_THRESHOLD)
    crossed = dvg > 0
    assert np.any(crossed.any(axis=0) & ~crossed.all(axis=0))
    assert np.any(crossed.all(axis=0))


@pytest.mark.parametrize("grid_step", [2e-4, 1e-3])
def test_dual_estimates_equal_one_at_a_time(grid_step):
    seqs = [make_family(tag, **params) for tag, params in ORACLE_FAMILIES]
    for seq, est in zip(seqs, dual.dual_estimates(seqs, N=400, grid_step=grid_step)):
        want = dual_estimate(seq, N=400, grid_step=grid_step)
        assert np.array_equal(est.xs, want.xs)
        assert np.array_equal(est.member_mask, want.member_mask)
        assert est.intervals == want.intervals
        assert (est.N, est.grid_step, est.tol) == (want.N, want.grid_step, want.tol)
    assert dual.dual_estimates([], N=400, grid_step=grid_step) == []


def load_tracing():
    from test_trace_hooks import load_tracing
    return load_tracing()


PROFILE_READERS = {
    "complex_scan": lambda s: complex_scan(s, N=40, step=0.1),
    "dual_estimate": lambda s: dual_estimate(s, N=40, grid_step=1e-2),
    "dual_estimates": lambda s: dual.dual_estimates([s, s], N=40, grid_step=1e-2),
    "max_abs_profile": lambda s: max_abs_profile(s, [0.2, 0.5], 40),
    "divergence_classify": lambda s: divergence_classify(s, 0.2, N=40),
    "criterion 7": lambda s: verify.haar_floor_composite(),
}


@pytest.mark.parametrize("name", list(PROFILE_READERS))
def test_every_profile_reaches_the_traced_kernel(name):
    # the benchmark tracer wraps dual._profile by name; each reader must run
    # its profile through it, in one call, so dual.profile.* sees it all
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        tracer.op("run", name, lambda: PROFILE_READERS[name](
            make_family("modkm", alpha=2, beta=5)))
    finally:
        tracer.uninstall()
    assert [s[3] for s in tracer.spans].count("dual.profile") == 1
    assert tracer.stats["dual.profile.point_degrees"] > 0


def test_criterion_7_profiles_its_families_in_one_call(monkeypatch):
    profile = dual._profile
    calls = []

    def recording_profile(seqs, zs, N, threshold):
        calls.append((len(seqs), zs.size, N, threshold))
        return profile(seqs, zs, N, threshold)

    monkeypatch.setattr(dual, "_profile", recording_profile)
    assert verify.haar_floor_composite().passed
    assert calls == [(len(verify._CLOSED_FORM_FAMILIES), 2001, 400, 1.0 + 1e-9)]


# --- the grid-size cap -----------------------------------------------------

class Built(Exception):
    """Raised in place of building a grid the cap let through."""


@pytest.fixture
def no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise Built(args)

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "arange", refuse)


def test_estimate_grid_cap_both_sides(no_grid):
    # 1e-6 gives 2,000,001 points, the most that is built; 2/2000001 gives
    # one more, and is refused before anything is allocated
    with pytest.raises(Built) as built:
        dual.estimate_grid(1e-6)
    assert built.value.args[0] == (-1.0, 1.0, 2_000_001)
    seq = make_family("modkm", alpha=2, beta=5)
    for step in (2 / 2_000_001, 1e-9, 1e-300, 5e-324):
        for call in (dual.estimate_grid, lambda g: dual_estimate(seq, grid_step=g),
                     lambda g: dual.dual_estimates([seq], grid_step=g)):
            with pytest.raises(ValueError, match=r"^grid_step must give at most "
                               r"2,000,001 grid points, got "):
                call(step)


def scan_axis_size(step):
    return np.arange(-1.5, 1.5 + 0.5 * step, step).size


def test_complex_scan_cap_both_sides(monkeypatch):
    # the square grid has n^2 points for n = scan_axis_size(step): 1414^2 =
    # 1,999,396 is built, 1415^2 = 2,002,225 is refused before allocating
    ok, over = 3 / 1413.5, np.nextafter(3 / 1413.5, 0.0)
    assert (scan_axis_size(ok), scan_axis_size(over)) == (1414, 1415)
    seq = make_family("cosh", a=1.0)
    with monkeypatch.context() as m:
        m.setattr(np, "arange", lambda *a, **k: (_ for _ in ()).throw(Built(a)))
        with pytest.raises(Built):
            complex_scan(seq, step=ok)
        for step in (over, 1e-6, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=r"^step must give at most "
                               r"2,000,001 grid points, got "):
                complex_scan(seq, step=step)


@pytest.mark.parametrize("step", [4e-3, 1e-2, 8e-3, 0.05, 0.1, 0.3, 0.5, 1.0,
                                  2.0, 3.0, 7.0, 3 / 1413.5, 2.2e-3, 2.5e-3])
def test_complex_scan_grid_is_arange(step, monkeypatch):
    # the cap counts the axis before building it; the count is its length
    sizes = []
    arange = np.arange

    def recording(*args, **kwargs):
        out = arange(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(dual, "_profile", lambda *a: (_ for _ in ()).throw(Built()))
    monkeypatch.setattr(np, "arange", recording)
    with pytest.raises(Built):
        complex_scan(make_family("cosh", a=1.0), N=2, step=step)
    assert sizes[0] == scan_axis_size(step) == sizes[1]


# --- the folded complex scan against the full grid -------------------------

FOLD_FAMILIES = [
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("convex", {"eps": 0.5}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.7}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
]

# 301 columns at 1e-2, 376 at 8e-3
FOLD_STEPS = [1e-2, 8e-3]


def symmetric_grid(step):
    n = np.arange(-1.5, 1.5 + 0.5 * step, step).size
    res = (np.arange(n) - 0.5 * (n - 1)) * step
    ims = np.arange(-1.5, 1.5 + 0.5 * step, step)
    return res, ims


@pytest.mark.parametrize("N", [0, 1, 2, 17, 400])
@pytest.mark.parametrize("tag,params", FOLD_FAMILIES)
def test_complex_scan_fold_bitwise_equals_full_grid(tag, params, N, monkeypatch):
    seq = make_family(tag, **params)
    profile = dual._profile
    calls = []

    def recording_profile(seq, zs, N, threshold):
        calls.append((zs.copy(), threshold))
        return profile(seq, zs, N, threshold)

    monkeypatch.setattr(dual, "_profile", recording_profile)
    parities = set()
    for step in FOLD_STEPS:
        res, ims = symmetric_grid(step)
        n = res.size
        parities.add(n % 2)
        assert np.array_equal(res[::-1], -res)
        Z = (res[None, :] + 1j * ims[:, None]).ravel()
        full, _ = profile(seq, Z, N, DIVERGE_THRESHOLD)
        alive = full <= 1.0 + dual.MEMBER_TOL

        calls.clear()
        pts, prof = complex_scan(seq, N=N, step=step)
        assert np.array_equal(pts, Z[alive]), step
        assert np.array_equal(prof, full[alive]), step
        # only the half-plane points Re z >= 0 with |z| <= band are
        # profiled, in row-major order, frozen at the band
        assert len(calls) == 1
        assert calls[0][1] == 1.0 + 1e-9
        half = (res[None, n // 2:] + 1j * ims[:, None]).ravel()
        want = half[np.abs(half) <= 1.0 + 1e-9]
        assert 0 < want.size < half.size
        assert np.array_equal(calls[0][0], want)
    assert parities == {0, 1}  # odd and even column counts


# --- interval merging against the two-loop version -------------------------

def reference_merge(xs, mask):
    m = mask.copy()
    for i in range(1, len(m) - 1):
        if not m[i] and m[i - 1] and m[i + 1]:
            m[i] = True
    ivs = []
    i = 0
    while i < len(m):
        if m[i]:
            j = i
            while j + 1 < len(m) and m[j + 1]:
                j += 1
            ivs.append((float(xs[i]), float(xs[j])))
            i = j + 1
        else:
            i += 1
    return tuple(ivs)


def edge_masks():
    yield from (np.zeros(n, dtype=bool) for n in range(4))
    yield from (np.ones(n, dtype=bool) for n in range(1, 6))
    for n in (3, 5, 8):
        for gap in (1, n - 2):
            m = np.ones(n, dtype=bool)
            m[gap] = False
            yield m
    yield np.array([True, False])
    yield np.array([False, True, False, True, False, True])
    yield np.array([True, False, True, False, True])


def test_merge_intervals_matches_loop_on_edge_masks():
    for m in edge_masks():
        xs = np.linspace(-1.0, 1.0, m.size)
        assert dual._merge_intervals(xs, m) == reference_merge(xs, m), m


def test_merge_intervals_matches_loop_on_random_masks():
    rng = np.random.default_rng(7)
    for n in (2, 3, 10, 101, 2001):
        xs = np.linspace(-1.0, 1.0, n)
        for p in (0.2, 0.5, 0.8, 0.95):
            for _ in range(20):
                m = rng.random(n) < p
                assert dual._merge_intervals(xs, m) == reference_merge(xs, m)


def dual_json(est):
    return json.dumps(cli._dual_block(est))


@pytest.mark.parametrize("call", [
    lambda s, N: dual_json(dual_estimate(s, N=N, grid_step=0.1)),
    lambda s, N: complex_scan(s, N=N, step=0.5),
    lambda s, N: divergence_classify(s, 0.5, N=N),
    lambda s, N: max_abs_profile(s, [0.5], N),
    lambda s, N: dual_json(dual.classify_profile(np.zeros(1), np.ones(1), N,
                                                 1.0, 1e-9)),
], ids=["estimate", "scan", "classify", "profile", "classify_profile"])
def test_degree_is_a_plain_integer(call):
    # a float N once ended in "list indices must be integers or slices", and
    # an np.int64 N in a DualEstimate that json could not dump
    seq = make_family("modkm", alpha=2, beta=5)
    with pytest.raises(TypeError, match=r"^N must be an integer, got 3\.0$"):
        call(seq, 3.0)
    assert repr(call(seq, np.int64(3))) == repr(call(seq, 3))


@pytest.mark.parametrize("step,size", [
    (float(np.nextafter(4.0, 0.0)), 2),
    (4.0, None),
    (5.0, None),
])
def test_estimate_grid_holds_both_endpoints(step, size):
    # round(2/grid_step) is 0 from grid_step = 4 on: a one-point grid [-1]
    if size is None:
        with pytest.raises(ValueError, match=r"^grid_step must be < 4 "):
            dual.estimate_grid(step)
    else:
        assert dual.estimate_grid(step).tolist() == [-1.0, 1.0]


def test_classify_profile_refuses_a_profile_of_another_shape():
    xs = dual.estimate_grid(0.5)
    with pytest.raises(ValueError, match=r"profile shape \(4,\) differs "
                       r"from grid shape \(5,\)"):
        dual.classify_profile(xs, np.ones(4), 10, 0.5, 1e-9)
