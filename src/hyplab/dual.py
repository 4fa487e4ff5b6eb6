"""Dual-object estimation: where does sup_n |P_n(x)| stay at 1?

The structure space of the sequence is the set of (real) points where
the whole family is bounded by 1; its complex boundedness analogue
replaces the bound by mere boundedness.  Both are estimated here by
iterating the recurrence and freezing points once they cross a
divergence threshold.

The iteration uses the increment form of the recurrence,

    P_{n+1} = P_{n-1} + (1/a(n)) (x P_n - P_{n-1}),

which is exact at x = +-1 and needs only the reciprocals 1/a(n); those
stay representable as floats long after a(n) itself has dropped below
the resolution of c(n) near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CoeffSequence, CoefficientDomainError, _degree

__all__ = [
    "DIVERGE_THRESHOLD",
    "MEMBER_TOL",
    "DualEstimate",
    "max_abs_profile",
    "estimate_grid",
    "classify_profile",
    "dual_estimate",
    "dual_estimates",
    "exclusion_bound",
    "exclusion_intervals",
    "divergence_classify",
    "complex_scan",
]

DIVERGE_THRESHOLD = 1e6
#: A point with max |P_n| <= 1 + MEMBER_TOL is taken as a member.
MEMBER_TOL = 1e-9
_COMPRESS_EVERY = 16
_BLOCK = 16384
#: 1/a(n) for n below this is read before the profile kernel's first step
_FIRST_READ = 64
#: The largest grid a dual estimate or a complex scan builds (16 MB of
#: float64); ``report --grid-step 1e-6`` reaches it.
_MAX_GRID_POINTS = 2_000_001


def _profile(seqs, zs: np.ndarray, N: int, threshold: float):
    """max_n<=N |P_n(z)| per point, frozen once it exceeds threshold.

    ``seqs`` is one sequence, or a list of F sequences profiled on the same
    points in one pass.  Returns (max_abs, diverged_at), shaped like ``zs``
    for one sequence and ``(F, *zs.shape)`` for a list, where diverged_at
    is the degree at which the threshold was crossed, or 0 if it never
    was.  Each family's row is bitwise its own one-sequence profile.  The
    update P_{n+1} = P_{n-1} + (1/a(n)) (z P_n - P_{n-1}) keeps the two
    points z = +-1 exact (the increment vanishes identically there).
    Points are taken as float64, or complex128 when complex.  max_abs
    starts at max(1, |z|), also for N = 0 and N = 1.

    Freezing: the value that crosses the threshold enters the max and is
    then replaced by 0.  The entry keeps iterating until the next degree
    n that is a multiple of ``_COMPRESS_EVERY``, where its max becomes
    final; in between, its later values still enter the max and a second
    crossing overwrites diverged_at.  From there on the entry is held: its
    z and its last two values are set to 0, so it adds nothing more to its
    max.  A point is dropped once every family has crossed at it, at a
    compression where such points are at least an eighth of the live ones
    (dropping copies every working array, holding costs one share of each
    step).

    Real points are folded: only the distinct magnitudes ``|x|`` are
    iterated, and their results are scattered back to every point.  The
    fold is exact: P_n(-x) = (-1)^n P_n(x), and every step of the
    recurrence rounds the mirrored operands to the negated result because
    IEEE rounding is sign-symmetric, so |P_n| agrees bitwise at x and -x
    and so do max_abs and diverged_at, freezing included.  Complex points
    are not folded here (``complex_scan`` folds its own grid).

    The magnitude 1.0 is not iterated either.  When every 1/a(n) is
    finite, as validated coefficients make it, the increment vanishes
    there and P_n(1) = 1 exactly for every n, so under a threshold >= 1
    its result is max_abs 1.0 with diverged_at 0, the values it starts
    with.  For ``convex``, whose members are only +-1, the kernel then
    stops once every other point has crossed.  The skip is decided on the
    first chunk of 1/a(n) (see below); a non-finite 1/a(n) in a later
    chunk then raises :class:`CoefficientDomainError` naming n.

    1/a(n) is read as the kernel reaches it (:class:`_Steps`): n < 64
    before the first step, then in chunks that double the prefix, up to
    N.  A call therefore raises a column's error, such as the convex
    backbone's float-range error, only when it iterates a degree that
    raises it, not when it is merely asked for a larger N.

    The iterated points run in blocks of ``_BLOCK // F`` so that the
    working arrays stay in cache.  Blocking and batching are exact: each
    entry's values depend only on its own path, and its max is final at
    the first multiple of ``_COMPRESS_EVERY`` at or after its crossing
    whatever the other entries do.

    ``N`` goes through ``core._degree``, as every profile reader does.
    """
    N = _degree(N, "N")
    one = isinstance(seqs, CoeffSequence)
    if one:
        seqs = [seqs]
    zs = np.asarray(zs)
    z = zs.ravel().astype(np.result_type(zs.dtype, np.float64), copy=False)
    fold = None
    if not np.iscomplexobj(z):
        z, fold = np.unique(np.abs(z), return_inverse=True)
    reader = _Steps(seqs, N)
    unit = None  # where |x| = 1 sits, when it is not iterated
    if fold is not None and threshold >= 1.0 and np.isfinite(reader.steps).all():
        k = int(np.searchsorted(z, 1.0))  # z is sorted and may pass 1
        if k < z.size and z[k] == 1.0:
            unit, z = k, np.concatenate((z[:k], z[k + 1:]))
            reader.finite = True
    out = np.empty((len(seqs), z.size + (unit is not None)))
    out[:, :z.size] = np.maximum(1.0, np.abs(z))
    dvg = np.zeros(out.shape, dtype=np.int32)
    if seqs:
        width = max(_BLOCK // len(seqs), 1)
        for start in range(0, z.size, width):
            stop = min(start + width, z.size)
            _profile_block(z[start:stop], reader, N, threshold,
                           out[:, start:stop], dvg[:, start:stop])
    if unit is not None:  # the points past 1 move up; 1 keeps the values it starts with
        out[:, unit + 1:], dvg[:, unit + 1:] = out[:, unit:-1], dvg[:, unit:-1]
        out[:, unit], dvg[:, unit] = 1.0, 0
    if fold is not None:
        out, dvg = out[:, fold], dvg[:, fold]
    shape = zs.shape if one else out.shape[:1] + zs.shape
    return out.reshape(shape), dvg.reshape(shape)


def _empty(shape, dtype=float) -> np.ndarray:
    """``np.empty`` starting on a 64-byte boundary, so that no vector load
    of the iteration straddles a cache line."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.__array_interface__["data"][0] % 64
    return buf[start:start + nbytes].view(dtype).reshape(shape)


class _Steps:
    """1/a(n) of the F families of one ``_profile`` call, read as its
    kernel reaches them and shared by all its blocks.

    ``steps`` holds the prefix 1/a(0..K-1) of every family in the
    kernel's layout: 1-D for one family, so that ``steps[n]`` is a scalar,
    and (K, F, 1) for several, so that it is an (F, 1) column, built once
    per chunk.  The first chunk covers
    n < min(N, _FIRST_READ); :meth:`reach` doubles the prefix, up to N.  A
    read-ahead that raises falls back to reading only through the degree
    the kernel needs, which raises only if that degree does.  With
    ``finite`` set, a chunk holding a non-finite 1/a(n) raises
    :class:`CoefficientDomainError` naming n.
    """

    def __init__(self, seqs: list, N: int):
        self._seqs, self._N = seqs, N
        self._ahead = True
        self.finite = False
        self._read(min(max(N, 1), _FIRST_READ))

    def _read(self, size: int) -> None:
        inv_a = np.empty((len(self._seqs), size))
        for row, seq in zip(inv_a, self._seqs):
            row[:] = seq.inv_a_array(size - 1)
        if self.finite and not np.isfinite(inv_a).all():
            f, n = np.argwhere(~np.isfinite(inv_a.T))[0][::-1]
            raise CoefficientDomainError(
                f"1/a({n}) = {float(inv_a[f, n])!r} is not finite for family "
                f"{self._seqs[f].family_tag!r}")
        self.steps = inv_a[0] if len(inv_a) == 1 else np.ascontiguousarray(inv_a.T)[:, :, None]

    def reach(self, n: int):
        """``steps`` extended to cover degree n, the first one not read."""
        if self._ahead:
            try:
                self._read(min(2 * n, self._N))
                return self.steps
            except (ArithmeticError, ValueError):
                self._ahead = False
        self._read(n + 1)
        return self.steps


def _profile_block(z, reader, N, threshold, out, dvg):
    """Run the frozen recurrence on one block of points for every family,
    writing into the (F, points) arrays out and dvg; 1/a(n) comes from the
    call's :class:`_Steps` ``reader``.

    The live state is (F, live points), or 1-D for one family; ``a.T``
    puts the point axis first in either shape, so ``a.T[i]`` indexes points.
    """
    if len(out) == 1:  # one family: 1-D arrays and a scalar 1/a(n)
        out, dvg = out[0], dvg[0]
    steps = reader.steps
    idx = np.arange(z.size)
    d = dvg.copy()  # diverged_at of the live points idx
    m, zs, p_prev, p_cur, p_next, r = (
        _empty(out.shape, t) for t in (float, z.dtype, z.dtype, z.dtype, z.dtype, float))
    m[...] = out  # running max
    zs[...] = p_cur[...] = z  # z per entry, so that one entry can be held
    p_prev[...] = 1.0
    z = zs
    pending = False
    for n in range(1, N):
        if n == len(steps):
            steps = reader.reach(n)
        np.multiply(z, p_cur, out=p_next)
        p_next -= p_prev
        p_next *= steps[n]
        p_next += p_prev
        np.abs(p_next, out=r)
        np.maximum(m, r, out=m)
        if not r.max() <= threshold:  # also true on a NaN
            over = r > threshold
            if over.any():
                np.copyto(d, n + 1, where=over)
                np.copyto(p_next, 0.0, where=over)  # final at next compression
                pending = True
        p_prev, p_cur, p_next = p_cur, p_next, p_prev
        if pending and n % _COMPRESS_EVERY == 0:
            crossed = d != 0
            gone = crossed.all(axis=0) if crossed.ndim > 1 else crossed
            if np.count_nonzero(gone) * 8 >= idx.size:  # write out and drop them
                done = np.flatnonzero(gone)
                out.T[idx[done]] = m.T[done]
                dvg.T[idx[done]] = d.T[done]
                if done.size == idx.size:
                    return
                keep = np.flatnonzero(~gone)
                shape = m.shape[:-1] + keep.shape
                idx, d = idx[keep], d.take(keep, axis=-1)
                m, z, p_prev, p_cur = (a.take(keep, -1, _empty(shape, a.dtype), "clip")
                                       for a in (m, z, p_prev, p_cur))
                p_next, r = _empty(shape, z.dtype), _empty(shape)
                crossed = d != 0
            z[crossed] = p_prev[crossed] = p_cur[crossed] = 0.0  # hold them
            pending = False
    out.T[idx] = m.T
    dvg.T[idx] = d.T


def _check_step(name: str, step: float) -> None:
    """Refuse a grid step that is not a finite positive number."""
    if not 0.0 < step < np.inf:  # also false on a NaN
        raise ValueError(f"{name} must be finite and > 0, got {step!r}")


def _check_grid(name: str, step: float, points: float) -> None:
    """Refuse a step whose grid has more than ``_MAX_GRID_POINTS`` points."""
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"{name} must give at most {_MAX_GRID_POINTS:,} grid "
                         f"points, got {step!r}")


def max_abs_profile(seq: CoeffSequence, xs: Sequence[float], N: int) -> np.ndarray:
    """Frozen-at-divergence sup_{n<=N} |P_n(x)| over a set of points; a point
    crossed ``DIVERGE_THRESHOLD`` exactly when its value exceeds it, as the
    crossing value enters the max (unless the path turns NaN after it)."""
    out, _ = _profile(seq, np.asarray(xs, dtype=float), N, DIVERGE_THRESHOLD)
    return out


@dataclass(frozen=True)
class DualEstimate:
    """Grid classification of the structure space on [-1, 1]."""

    N: int
    grid_step: float
    tol: float
    xs: np.ndarray
    member_mask: np.ndarray
    intervals: tuple

    @property
    def members(self) -> np.ndarray:
        return self.xs[self.member_mask]

    @property
    def full_interval(self) -> bool:
        """Every grid point is a member: the estimate covers [-1, 1]."""
        return bool(self.member_mask.all())


def _merge_intervals(xs: np.ndarray, mask: np.ndarray) -> tuple:
    """Runs of member points as intervals; single-point gaps are bridged.

    A bridge needs members on both sides, so bridging never creates the
    neighbour another bridge would need, and one pass over the original
    mask is exact.
    """
    m = np.array(mask, dtype=bool)
    if m.size > 2:
        m[1:-1] |= m[:-2] & m[2:]
    edges = np.diff(np.concatenate(([False], m, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) - 1
    return tuple((float(xs[i]), float(xs[j])) for i, j in zip(starts, stops))


def estimate_grid(grid_step: float) -> np.ndarray:
    """The grid of :func:`dual_estimate`: ``round(2/grid_step) + 1`` even
    points on [-1, 1], both endpoints included, so ``grid_step < 4``; a
    grid of more than ``_MAX_GRID_POINTS`` is refused before it is built."""
    _check_step("grid_step", grid_step)
    n = round(min(2.0 / grid_step, _MAX_GRID_POINTS)) + 1
    if n < 2:
        raise ValueError(f"grid_step must be < 4 to hold both endpoints, got {grid_step!r}")
    _check_grid("grid_step", grid_step, n)
    return np.linspace(-1.0, 1.0, n)


def classify_profile(
    xs: np.ndarray, max_abs: np.ndarray, N: int, grid_step: float, tol: float
) -> DualEstimate:
    """The :class:`DualEstimate` of a profile already taken on ``xs``, with
    members where ``max_abs <= 1 + tol``.

    ``max_abs`` must be the running max |P_n| over ``xs`` to degree ``N``,
    frozen at a threshold of at least ``1 + tol`` (a point that never
    crosses the band has the same path under every such threshold); a
    caller that profiles ``xs`` together with other points reads its slice
    here, which must be shaped like ``xs``.
    """
    if np.shape(max_abs) != np.shape(xs):
        raise ValueError(f"profile shape {np.shape(max_abs)} differs from "
                         f"grid shape {np.shape(xs)}")
    mask = max_abs <= 1.0 + tol
    return DualEstimate(
        N=_degree(N, "N"),
        grid_step=grid_step,
        tol=tol,
        xs=xs,
        member_mask=mask,
        intervals=_merge_intervals(xs, mask),
    )


def dual_estimates(
    seqs: Sequence[CoeffSequence], N: int = 400, grid_step: float = 2e-4
) -> list[DualEstimate]:
    """Classify an even grid on [-1, 1] by boundedness of |P_n|, for each
    sequence of ``seqs``; all are profiled in one pass over one grid.

    Membership evidence is ``max_abs <= 1 + MEMBER_TOL`` on
    :func:`estimate_grid`.  Points freeze at that band, as in
    :func:`complex_scan`, and the members are those of a profile frozen at
    ``DIVERGE_THRESHOLD``.  Only the distinct |x| are iterated (see
    ``_profile``): ``linspace(-1, 1, 10001)`` needs 8198 magnitudes.  Each
    estimate is bitwise the one :func:`dual_estimate` gives alone.
    """
    xs = estimate_grid(grid_step)
    prof, _ = _profile(list(seqs), xs, N, 1.0 + MEMBER_TOL)
    return [classify_profile(xs, p, N, grid_step, MEMBER_TOL) for p in prof]


def dual_estimate(seq: CoeffSequence, N: int = 400, grid_step: float = 2e-4) -> DualEstimate:
    """:func:`dual_estimates` of the one sequence ``seq``."""
    return dual_estimates([seq], N, grid_step)[0]


def exclusion_bound(seq: CoeffSequence) -> float:
    """Inner radius below which no structure-space point can lie.

    From degree two alone: |P_2(x)| <= 1 forces x^2 >= 2 c(1) - 1, so
    when h(1) = 1 + eps < 2 the open band (-cut, cut) with
    cut = sqrt((1 - eps)/(1 + eps)) contains no member.  Returns 0 when
    h(1) >= 2 (no constraint).
    """
    return float(np.sqrt(max(0.0, 2.0 * seq.c(1) - 1.0)))


def exclusion_intervals(eps: float) -> tuple:
    """The largest possible structure space when h(1) = 1 + eps.

    Returns the pair of closed intervals [-1, -cut] and [cut, 1] with
    cut = sqrt((1 - eps)/(1 + eps)); the degree-2 member already attains
    P_2(+-cut) = -1, so nothing between them can survive.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    cut = float(np.sqrt((1.0 - eps) / (1.0 + eps)))
    return ((-1.0, -cut), (cut, 1.0))


def divergence_classify(seq: CoeffSequence, x: float, N: int = 2000) -> str:
    """One-point verdict: 'member_evidence' (max |P_n(x)| <= 1 + MEMBER_TOL
    for n <= N), 'nonmember_diverged', or 'undecided' (bounded at degree N
    but above the membership band).  A non-finite x raises ``ValueError``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    prof, dvg = _profile(seq, np.array([x]), N, DIVERGE_THRESHOLD)
    if dvg[0] > 0:
        return "nonmember_diverged"
    if prof[0] <= 1.0 + MEMBER_TOL:
        return "member_evidence"
    return "undecided"


def complex_scan(seq: CoeffSequence, N: int = 400, step: float = 4e-3):
    """Scan the square |Re z|, |Im z| <= 1.5 for grid points with
    max_{n<=N} |P_n(z)| <= 1 + MEMBER_TOL.

    Returns ``(points, max_abs)``: surviving grid points and the running
    sup there, in row-major order (rows by ascending Im z).  The real
    axis carries the real structure space; anything surviving off the
    axis witnesses a strictly larger complex object.  The result
    over-approximates the true object: a point diverging only beyond
    degree N is still reported.

    The imaginary parts are ``ims = arange(-1.5, 1.5 + step/2, step)``;
    the real parts are ``res = (k - (n - 1)/2) * step`` for ``k < n =
    ims.size``, mirror-symmetric bit for bit (``res[::-1] == -res``).

    Only the columns with Re z >= 0 are profiled; the others are their
    mirror images.  The fold is exact: P_n has real coefficients and the
    parity of n, so P_n(-conj(z)) = (-1)^n conj(P_n(z)), and every step
    of the recurrence rounds the mirrored operands to the negated or
    conjugated result because IEEE rounding is sign-symmetric.  The
    profile at -conj(z) therefore equals the profile at z bitwise,
    freezing included.

    Points freeze at the band ``1 + MEMBER_TOL``, since only survivors are
    returned.  This is exact: a survivor never exceeds the band, so its
    path is the one under ``DIVERGE_THRESHOLD``, and a point that crosses
    the band has a running max above it under both thresholds.  For the
    same reason only the points with |z| <= band are profiled: max_abs
    starts at max(1, |z|), so the others are out from the start, and they
    get |z| as their profile.

    A step whose grid has more than ``_MAX_GRID_POINTS`` points is refused
    before anything is built (the default 4e-3 has 564,001 points).
    """
    _check_step("step", step)
    band = 1.0 + MEMBER_TOL
    # the length of np.arange(-1.5, stop, step), reckoned as numpy does
    stop = 1.5 + 0.5 * step
    n = math.ceil(min((stop + 1.5) / step, _MAX_GRID_POINTS))
    _check_grid("step", step, n * n)
    ims = np.arange(-1.5, stop, step)
    res = (np.arange(n) - 0.5 * (n - 1)) * step
    half = res[None, n // 2:] + 1j * ims[:, None]
    prof = np.abs(half)
    inband = prof <= band
    prof[inband] = _profile(seq, half[inband], N, band)[0]
    prof = np.concatenate((prof[:, ::-1][:, : n // 2], prof), axis=1)
    alive = prof <= band
    rows, cols = np.nonzero(alive)
    return res[cols] + 1j * ims[rows], prof[alive]
