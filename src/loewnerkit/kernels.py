"""Kernel catalog, Gram matrices, PSD checks, and RKHS membership heuristics.

A catalog kernel ``k(z, w)`` takes z and w as scalars or numpy arrays that
broadcast together, so the maps it is built from (``b_map``, ``phi``) must
be written with numpy operations; ``gram`` evaluates the whole matrix in
one call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .moebius import require_disk, require_halfplane

DUPLICATE_TOL = 1e-10
HERMITIAN_TOL = 1e-12

BOUNDED = "Bounded"
UNBOUNDED = "Unbounded"
INCONCLUSIVE = "Inconclusive"
# Verdict thresholds of membership_test.
PLATEAU_RTOL = 0.01
GROWTH_RATIO = 10.0


@dataclass(frozen=True)
class DbrDiskKernel:
    """de Branges-Rovnyak kernel (1 - conj(B(w)) B(z)) / (1 - conj(w) z) on D."""

    b_map: object

    def __call__(self, z, w):
        z = require_disk(z)
        w = require_disk(w)
        return (1.0 - self.b_map(w).conjugate() * self.b_map(z)) / (1.0 - w.conjugate() * z)


@dataclass(frozen=True)
class HerglotzSpaceKernel:
    """Herglotz-space kernel (conj(phi(w)) + phi(z)) / (1 - conj(w) z) on D."""

    phi: object

    def __call__(self, z, w):
        z = require_disk(z)
        w = require_disk(w)
        return (self.phi(w).conjugate() + self.phi(z)) / (1.0 - w.conjugate() * z)


@dataclass(frozen=True)
class PickSpaceKernel:
    """Pick-space kernel (phi(z) - conj(phi(w))) / (z - conj(w)) on H."""

    phi: object

    def __call__(self, z, w):
        z = require_halfplane(z)
        w = require_halfplane(w)
        return (self.phi(z) - self.phi(w).conjugate()) / (z - w.conjugate())


@dataclass(frozen=True)
class PaleyWienerKernel:
    """Paley-Wiener kernel sin(2 pi A (z - conj w)) / (pi (z - conj w)) on C."""

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0.0):
            raise ValueError("bandwidth must be positive")

    def __call__(self, z, w):
        two_a = 2.0 * self.bandwidth
        return two_a * np.sinc(two_a * (z - np.conjugate(w)))


def _first_duplicate(pts):
    """The first pair (i, j), i < j in row-major order, of points closer than
    ``DUPLICATE_TOL``, or None; O(n log n) unless many real parts are that close."""
    order = np.argsort(pts.real, kind="stable")
    ps = pts[order]
    # Close points have real parts within DUPLICATE_TOL, so sorted position a
    # is compared only with a + 1 .. stop[a] - 1; the factor 2 absorbs the
    # rounding of re + DUPLICATE_TOL.  NaN sorts last and, like inf, never
    # compares close.
    stop = np.searchsorted(ps.real, ps.real + 2.0 * DUPLICATE_TOL, side="right")
    count = stop - np.arange(1, len(ps) + 1)
    ends = np.cumsum(count)
    # Candidate c compares position a, the block of c in ends, with b = a + 1 + its place there.
    b = np.arange(count.sum()) - np.repeat(ends - stop, count)
    c = np.flatnonzero(np.abs(np.repeat(ps, count) - ps[b]) < DUPLICATE_TOL)
    if not c.size:
        return None
    i, j = order[np.searchsorted(ends, c, side="right")], order[b[c]]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    first = np.argmin(lo * len(pts) + hi)
    return lo[first], hi[first]


def gram(spec, points) -> np.ndarray:
    """Hermitian matrix K[i][j] = k(z_i, z_j) over pairwise-distinct points,
    from one kernel call on the broadcast column and row of the points;
    ValueError when K has a non-finite entry, is not Hermitian or has a
    negative diagonal entry, within ``HERMITIAN_TOL`` relative to
    max(1, max |K|)."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    pair = _first_duplicate(pts)
    if pair is not None:
        raise ValueError(f"points {pair[0]} and {pair[1]} coincide within {DUPLICATE_TOL}")
    k = np.asarray(spec(pts[:, None], pts[None, :]), dtype=complex)
    if k.shape != (len(pts), len(pts)):
        raise ValueError("matrix must be square and match the point count")
    peak = float(np.max(np.abs(k), initial=0.0))
    # max |K| is non-finite exactly when some entry is; NaN would otherwise
    # pass the tolerance tests below, since nan > tol is False.
    if not math.isfinite(peak):
        i, j = np.argwhere(~np.isfinite(k))[0]
        raise ValueError(f"matrix entry ({i}, {j}) is not finite")
    scale = max(1.0, peak)
    if float(np.max(np.abs(k - k.conj().T), initial=0.0)) > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    # A Hermitian K has a real diagonal: |Im K[i][i]| is half |K - K^H| there.
    if float(np.min(np.diagonal(k).real, initial=0.0)) < -HERMITIAN_TOL * scale:
        raise ValueError("diagonal must be nonnegative")
    return k


def psd_check(k, tol: float = 1e-8):
    """Minimum eigenvalue of a Hermitian matrix and whether it passes
    min_eig >= -tol * max(1, max_eig)."""
    try:
        eigs = np.linalg.eigvalsh(np.asarray(k, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigensolver failed: {exc}") from exc
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    return min_eig, min_eig >= -tol * max(1.0, max_eig)


@dataclass(frozen=True)
class MembershipReport:
    """Sequence of finite-section norm estimates with a verdict.

    The verdict is a numerical heuristic: exact membership cannot be
    certified from finite data.  ``estimates`` are regularized quadratic
    forms (squared-norm scale); ``norm_bound`` is the square root of the
    final estimate when the verdict is Bounded, else None; ``min_pivot`` is
    the smallest squared diagonal entry of the Cholesky factor of K + eps I.
    """

    point_counts: tuple
    estimates: tuple
    verdict: str
    norm_bound: float
    eps: float
    min_pivot: float


def _verdict(counts, estimates):
    """(verdict, norm_bound) from the point counts and estimates of the levels."""
    tiny = 1e-12
    if len(estimates) >= 3:
        last3 = estimates[-3:]
        top = max(last3)
        if top <= tiny or (top - min(last3)) <= PLATEAU_RTOL * top:
            return BOUNDED, math.sqrt(max(estimates[-1], 0.0))
    half_idx = [i for i, c in enumerate(counts[:-1]) if c <= counts[-1] / 2]
    j = half_idx[-1] if half_idx else len(counts) - 2
    if estimates[-1] >= GROWTH_RATIO * max(estimates[j], tiny):
        return UNBOUNDED, None
    return INCONCLUSIVE, None


def membership_test(spec, func, nested_sets, eps: float) -> MembershipReport:
    """Heuristic RKHS membership decision from nested finite sections.

    Level l's estimate is v* (K_l + eps I)^{-1} v over its n_l points.  The
    union of the sets is ordered so that every level is a prefix, so one
    Gram, one ``func`` call per point and one Cholesky factor L of K + eps I
    serve every level: the estimate is the sum of |y_i|^2, y = L^{-1} v, i < n_l.

    Verdict Bounded if the last three estimates agree to ``PLATEAU_RTOL``
    relatively; Unbounded if the estimate grew by ``GROWTH_RATIO`` or more
    across the last doubling of the point count; Inconclusive otherwise.
    ``eps`` is held fixed across levels so the estimates are nondecreasing.
    """
    sets = [[complex(p) for p in s] for s in nested_sets]
    counts = [len(s) for s in sets]
    if len(sets) < 2:
        raise ValueError("need at least two nested point sets")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("point counts must be strictly increasing")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    union = {}
    for s in sets:
        level = dict.fromkeys(s)
        if len(level) != len(s) or not union.keys() <= level.keys():
            raise ValueError("point sets must be nested, without repeated points")
        union.update(level)  # appends the points this level adds, in its order
    pts = list(union)
    v = np.array([complex(func(p)) for p in pts])
    k = gram(spec, pts)
    k.flat[:: len(pts) + 1] += eps
    try:
        factor = np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"K + eps I is not positive definite at eps = {eps:g}: {exc}") from exc
    y = np.empty_like(v)
    for lo, hi in zip([0] + counts, counts):  # forward substitution, one block per level
        y[lo:hi] = np.linalg.solve(factor[lo:hi, lo:hi], v[lo:hi] - factor[lo:hi, :lo] @ y[:lo])
    partial = np.concatenate(([0.0], np.cumsum(np.abs(y) ** 2)))
    estimates = tuple(float(partial[n]) for n in counts)
    min_pivot = float(np.min(np.diagonal(factor).real)) ** 2
    return MembershipReport(tuple(counts), estimates, *_verdict(counts, estimates), eps, min_pivot)
