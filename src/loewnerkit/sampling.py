"""Deterministic seeded sample-point generators.

Reproducibility across runs and languages matters more than statistical
quality here, so the generator is fully documented:

* Seed offsets come from a 64-bit linear congruential generator with
  multiplier 6364136223846793005, increment 1442695040888963407, modulus
  2^64 (Knuth's MMIX constants); uniforms are the top 53 bits over 2^53.
* Points follow the additive low-discrepancy sequence with the plastic
  constant rho = 1.3247179572447460 (u_i = frac(o1 + i/rho),
  v_i = frac(o2 + i/rho^2)), rotated per seed by the LCG offsets o1, o2.
* One generator yields these (u, v) pairs, and every point set maps them:
  disk points by the radial-angular map r = rmax*sqrt(u), theta = 2*pi*v,
  rectangle points affinely.

Prefix property: the first m of n points never depend on n, so nested
point sets are prefixes of one stream.  One size rule holds for every
nested family (``nested_prefix_sets``): sizes are nonnegative and strictly
increasing, else ValueError.  ``point_pairs`` takes an even-length list only.
"""

import math

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MODULUS = 1 << 64

_PLASTIC = 1.32471795724474602596
_ALPHA1 = 1.0 / _PLASTIC
_ALPHA2 = 1.0 / (_PLASTIC * _PLASTIC)

DISK_RMAX = 0.9
HALFPLANE_RECT = (-2.0, 2.0, 0.1, 2.1)
# Quadrature and finite-difference checks sample further from the boundary
# so that the integrands stay analytic in a comfortable neighborhood of the
# time interval (the suites in `cli` choose these regions for them).
DISK_RMAX_SAFE = 0.7
HALFPLANE_RECT_SAFE = (-2.0, 2.0, 0.5, 2.1)


def lcg_stream(seed: int):
    """Infinite stream of uniforms in [0, 1) from the documented 64-bit LCG."""
    state = (int(seed) ^ 0x9E3779B97F4A7C15) % LCG_MODULUS
    while True:
        state = (LCG_MULTIPLIER * state + LCG_INCREMENT) % LCG_MODULUS
        yield (state >> 11) / float(1 << 53)


def _frac(x: float) -> float:
    return x - math.floor(x)


def _uv(n: int, seed: int):
    """The first n (u, v) pairs of the seeded sequence; every point set maps these."""
    stream = lcg_stream(seed)
    o1, o2 = next(stream), next(stream)
    for i in range(n):
        yield _frac(o1 + (i + 1) * _ALPHA1), _frac(o2 + (i + 1) * _ALPHA2)


def disk_points(n: int, seed: int, rmax: float = DISK_RMAX):
    """First n points of the seeded radial-angular sequence in |z| <= rmax."""
    polar = ((rmax * math.sqrt(u), 2.0 * math.pi * v) for u, v in _uv(n, seed))
    return [complex(r * math.cos(theta), r * math.sin(theta)) for r, theta in polar]


def rect_points(n: int, seed: int, rect):
    """First n points of the seeded sequence in the rectangle (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = rect
    return [complex(x0 + (x1 - x0) * u, y0 + (y1 - y0) * v) for u, v in _uv(n, seed)]


def halfplane_points(n: int, seed: int, rect=HALFPLANE_RECT):
    return rect_points(n, seed, rect)


def point_pairs(points):
    """Split an even-length point list into consecutive pairs."""
    if len(points) % 2:
        raise ValueError(f"point_pairs needs an even number of points, got {len(points)}")
    return [(points[i], points[i + 1]) for i in range(0, len(points), 2)]


def disk_pairs(n: int, seed: int, rmax: float = DISK_RMAX):
    return point_pairs(disk_points(2 * n, seed, rmax))


def halfplane_pairs(n: int, seed: int, rect=HALFPLANE_RECT):
    return point_pairs(halfplane_points(2 * n, seed, rect))


def nested_prefix_sets(points, sizes):
    """Nested point sets as prefixes of one stream: the one size rule of
    this module, sizes nonnegative and strictly increasing."""
    sizes = [int(s) for s in sizes]
    if any(b <= a for a, b in zip([-1] + sizes, sizes)):
        raise ValueError("sizes must be nonnegative and strictly increasing")
    if sizes and sizes[-1] > len(points):
        raise ValueError("not enough points for the requested sizes")
    return [list(points[:s]) for s in sizes]


def membership_disk_sets(sizes, seed: int):
    """Nested disk sets for membership probes: a low-discrepancy cloud in
    |z| <= DISK_RMAX plus a geometric ladder of points approaching the
    boundary point 1.

    Membership in a de Branges-Rovnyak space is decided by boundary
    behavior, so each level extends the ladder toward 1 by two rungs
    (distance halves per rung) while the cloud grows with the level size.
    """
    sizes = [int(s) for s in sizes]
    clouds = nested_prefix_sets(disk_points(sizes[-1] if sizes else 0, seed), sizes)
    ladder = [complex(1.0 - 0.5 * 2.0**-j) for j in range(1 + 2 * len(sizes))]
    return [cloud + ladder[: 3 + 2 * level] for level, cloud in enumerate(clouds)]


def membership_halfplane_sets(sizes, seed: int):
    """Nested sets in HALFPLANE_RECT (plain prefixes; Pick-space probes need no ladder)."""
    sizes = [int(s) for s in sizes]
    return nested_prefix_sets(halfplane_points(sizes[-1] if sizes else 0, seed), sizes)
