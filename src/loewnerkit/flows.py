"""Radial and chordal Loewner transition maps.

Drivers are piecewise constant in time.  A driver that is a single atom on
every segment has a closed form, one exact map per segment (Kager, Nienhuis
and Kadanoff, J. Stat. Phys. 115, 2004); any driver can be integrated by
fixed-step classical RK4.  The RK4 grid belongs to the spec: each driver segment
of the flow interval is split into ceil(length / step) equal steps, so
segment breakpoints always coincide with step boundaries.  Each distinct
starting point is integrated in one forward sweep, and every time
requested for it is read off that sweep; a time between grid nodes gets
one partial step from the last node.  A FlowEscapeError names the first
point, in flat order of first appearance, whose sweep escapes.

Transition maps, ``driver_herglotz`` and ``driver_pick`` (the Herglotz or
Pick function of the driver's measure at each time) take times and points
as scalars or numpy arrays that broadcast together; a scalar is the 0-d case.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, FlowEscapeError
from .moebius import require_disk, require_halfplane
from .representations import DIRAC_MINUS_ONE, AtomicMeasure, herglotz_eval

CLOSED_FORM = "closed-form"
RUNGE_KUTTA = "rk4"

# Abort (never clamp) when a trajectory gets this close to the boundary:
# silent clamping would corrupt every downstream kernel check.
ESCAPE_MARGIN = 1e-9

_TIME_SLACK = 1e-12
# Cap on (end - start) / step of an RK4 spec, so no grid runs for hours.
MAX_RK4_STEPS = 10**7


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical 4th-order Runge-Kutta configuration."""

    step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step = {self.step} must be positive and finite")


def _validate_driver(driver, start: float, on_circle: bool):
    driver = tuple((float(bp), mu) for bp, mu in driver)
    if not driver:
        raise ValueError("driver needs at least one (breakpoint, measure) segment")
    breakpoints = [bp for bp, _ in driver]
    if not all(math.isfinite(bp) for bp in breakpoints):  # nan passes every comparison below
        raise ValueError(f"driver breakpoints {breakpoints} must be finite")
    if any(t1 <= t0 for t0, t1 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("driver breakpoints must be strictly increasing")
    if breakpoints[0] > start + _TIME_SLACK:
        raise ValueError(f"first driver breakpoint {breakpoints[0]} must cover the interval start {start}")
    if breakpoints[0] > start:  # within the slack: the grid and the rules start at the interval start
        driver = ((start, driver[0][1]),) + driver[1:]
    for _, mu in driver:
        if not isinstance(mu, AtomicMeasure):
            raise ValueError("driver segments must carry AtomicMeasure values")
        if on_circle:
            if not mu.is_radial_driver():
                raise ValueError("radial driver measures must be probability measures on the unit circle")
        elif not mu.on_real_line():
            raise ValueError("chordal driver measures must live on the real line")
    return driver


def sqrt_halfplane(w):
    """Square root branch i * principal_sqrt(-w) onto the upper half-plane;
    continuous along chordal flows, where w = (z - x)^2 - 2 c t never lies on
    [0, inf) for z in H, real x and c t >= 0."""
    return 1j * np.sqrt(-np.asarray(w, dtype=complex))


def _koebe_inverse(u):
    # Rationalized inverse of B/(1-B)^2 = u; picks the branch with B(0) = 0
    # and avoids catastrophic cancellation near u = 0.  The Koebe image
    # omits (-inf, -1/4], so 1 + 4u stays off the principal cut.
    return 2.0 * u / (1.0 + 2.0 * u + np.sqrt(1.0 + 4.0 * u))


def _radial_segment(mu: AtomicMeasure, dt, w):
    # Under v = -xi w the field of a Dirac of mass m at xi becomes m times
    # the Koebe field, whose invariant v / (1 - v)^2 decays as exp(-m dt).
    ((xi, m),) = mu.atoms
    v = -xi * w
    return -xi.conjugate() * _koebe_inverse(np.exp(-(m * dt)) * v / (1.0 - v) ** 2)


def _chordal_segment(mu: AtomicMeasure, dt, w):
    # dB/dt = c / (x - B) keeps (B - x)^2 + 2 c t constant.
    ((x, c),) = mu.atoms
    d = w - x.real
    return x.real + sqrt_halfplane(d * d - 2.0 * c * dt)


def _closed_form(spec, t, z):
    """B_t(z), the exact maps of the driver segments of [start, t] composed; t lies in [start, end]."""
    start, end, segment_map = spec.start, spec.end, spec.family.segment
    w = z if start < end else np.broadcast_to(z, np.broadcast(t, z).shape).copy()
    for lo, hi, mu in spec.segments:
        # On a scalar, np.where and clamping t to [lo, hi] cost more than the
        # segment map; the clamp is a no-op at the interval's own ends.
        dt = (t if hi == end else np.minimum(t, hi)) - lo
        dt = dt if lo == start else np.maximum(dt, 0.0)
        if dt.ndim or w.ndim:
            w = np.where(dt > 0.0, segment_map(mu, dt, w), w)
        elif dt > 0.0:
            w = segment_map(mu, dt, w)
    return w[()]


def _rk4_step(y: complex, h: float, f) -> complex:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _herglotz_field(mu: AtomicMeasure):
    atoms = mu.atoms

    def f(w: complex) -> complex:
        phi = sum(wt * (1.0 + xi * w) / (1.0 - xi * w) for xi, wt in atoms)
        return -w * phi

    return f


def _pick_driver(mu: AtomicMeasure, w):
    # Starts from a zero of w's shape: an atomless measure gives 0 and still checks w.
    return sum((c / (x.real - w) for x, c in mu.atoms), 0.0 * require_halfplane(w))


def _chordal_field(mu: AtomicMeasure):
    atoms = mu.atoms

    def f(w: complex) -> complex:
        return sum(wt / (xi.real - w) for xi, wt in atoms)

    return f


class _Family(NamedTuple):
    """What tells one flow family from the other, in one record."""

    label: str  # "radial" or "chordal", in messages
    time: str  # the name of the time variable, in messages
    require: Callable  # domain guard of the starting points
    segment: Callable  # closed-form map of one single-atom driver segment
    rk4_field: Callable  # RK4 vector field of one driver measure
    driver: Callable  # evaluation of one driver measure on an array of points
    escaped: Callable  # escape test of an RK4 state
    on_circle: bool  # driver measures live on the unit circle, else on the real line


@dataclass(frozen=True)
class _FlowSpec:
    """Loewner transition family on [start, end]; a subclass names its
    ``family``.  ``driver`` is a sorted tuple of (breakpoint, measure); the
    measure at the k-th breakpoint applies until the next one; ``segments``,
    built with the spec, holds its non-empty (lo, hi, measure) pieces."""

    start: float
    end: float
    driver: tuple
    backend: str = CLOSED_FORM
    ode: OdeConfig = field(default_factory=OdeConfig)
    segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start, end = float(self.start), float(self.end)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if not (0.0 <= start <= end) or not math.isfinite(end):
            raise ValueError(f"interval [{start}, {end}] must satisfy 0 <= start <= end < inf")
        driver = _validate_driver(self.driver, start, self.family.on_circle)
        object.__setattr__(self, "driver", driver)
        ends = [bp for bp, _ in driver[1:]] + [end]
        pieces = ((max(bp, start), min(hi, end), mu) for (bp, mu), hi in zip(driver, ends))
        object.__setattr__(self, "segments", tuple(p for p in pieces if p[1] > p[0]))
        if self.backend == CLOSED_FORM:
            if any(len(mu.atoms) != 1 for _, mu in driver):
                raise ValueError("closed-form backend requires a single-atom measure on every driver segment; use backend='rk4'")
        elif self.backend == RUNGE_KUTTA:
            if end > start and self.ode.step > (end - start) + _TIME_SLACK:
                raise ValueError("ODE step exceeds the flow interval")
            steps = (end - start) / self.ode.step
            if steps > MAX_RK4_STEPS:
                raise ValueError(f"RK4 grid of {steps:.3g} steps exceeds MAX_RK4_STEPS = {MAX_RK4_STEPS}")
        else:
            raise ValueError(f"unknown backend {self.backend!r}")


# Domain guards and herglotz_eval are looked up at each call, so perfbench's tracer sees every call.
@dataclass(frozen=True)
class RadialFlowSpec(_FlowSpec):
    """Radial Loewner transition family B_{a t} on the unit disk, driven by
    probability measures on the circle; ``a`` and ``b`` name the interval."""

    family = _Family("radial", "t", lambda z: require_disk(z), _radial_segment, _herglotz_field, lambda mu, w: herglotz_eval(mu, w), lambda y: abs(y) >= 1.0 - ESCAPE_MARGIN, True)
    a = property(lambda self: self.start)
    b = property(lambda self: self.end)

    @classmethod
    def koebe(cls, a: float, b: float, backend: str = CLOSED_FORM, ode: OdeConfig = None) -> "RadialFlowSpec":
        return cls(a, b, ((float(a), DIRAC_MINUS_ONE),), backend, ode or OdeConfig())


@dataclass(frozen=True)
class ChordalFlowSpec(_FlowSpec):
    """Chordal Loewner transition family B_{r s} on the upper half-plane,
    driven by measures on the real line; ``r`` and ``s`` name the interval."""

    family = _Family("chordal", "s", lambda z: require_halfplane(z), _chordal_segment, _chordal_field, _pick_driver, lambda y: y.imag <= ESCAPE_MARGIN, False)
    r = property(lambda self: self.start)
    s = property(lambda self: self.end)

    @classmethod
    def basic_slit(cls, r: float, s: float, backend: str = CLOSED_FORM, ode: OdeConfig = None) -> "ChordalFlowSpec":
        return cls(r, s, ((float(r), AtomicMeasure.dirac(0.0)),), backend, ode or OdeConfig())


def _interval(spec):
    """Start and end of a flow spec; TypeError for an object that is not one."""
    if not isinstance(spec, _FlowSpec):
        raise TypeError(f"unsupported flow spec {type(spec).__name__}")
    return spec.start, spec.end


def _flow_times(cls, spec, t):
    """Times of a ``cls`` spec as a float array clamped to its interval;
    TypeError for another spec, DomainError for the first time outside it."""
    if not isinstance(spec, cls):
        raise TypeError(f"expected a {cls.family.label} flow spec, got {type(spec).__name__}")
    t = np.asarray(t, dtype=float)
    lo, hi = spec.start, spec.end
    inside = (lo - _TIME_SLACK <= t) & (t <= hi + _TIME_SLACK)
    if np.count_nonzero(inside) < inside.size:  # cheaper than inside.all() on a 0-d array
        raise DomainError(f"{cls.family.time} = {float(t[~inside].flat[0])} outside flow interval [{lo}, {hi}]")
    # NaN is rejected above, so this clamp gives np.clip's values.
    return np.minimum(np.maximum(t, lo), hi)


def _driver_at(cls, spec, t, w):
    """The driver measure of a ``cls`` spec at time t, that of the last breakpoint at or
    before t + _TIME_SLACK, evaluated at w by its family's ``driver`` once per segment;
    t and w broadcast together, and t is checked like a transition's."""
    t, w = np.broadcast_arrays(_flow_times(cls, spec, t), w)
    breakpoints = np.array([bp for bp, _ in spec.driver])
    segment = np.searchsorted(breakpoints, t + _TIME_SLACK, side="right") - 1
    # A 0-d w stays a numpy scalar, whose arithmetic can differ in the last
    # bit from numpy's array loops: the scalar case matches the evaluation.
    if w.ndim == 0:
        return cls.family.driver(spec.driver[segment][1], w[()])
    out = np.empty(w.shape, dtype=complex)
    for k in np.unique(segment):
        at = segment == k
        out[at] = cls.family.driver(spec.driver[k][1], w[at])
    return out


def driver_herglotz(spec: RadialFlowSpec, t, w):
    """phi(t, w): the Herglotz function of the radial flow's driver measure
    at time t, evaluated at w in D, so dB_t/dt = -B_t phi(t, B_t)."""
    return _driver_at(RadialFlowSpec, spec, t, w)


def driver_pick(spec: ChordalFlowSpec, s, w):
    """P(s, w) = sum of c / (x - w) over the atoms (x, c) of the chordal flow's
    driver measure at time s, evaluated at w in H, so dB_s/ds = P(s, B_s)."""
    return _driver_at(ChordalFlowSpec, spec, s, w)


def _sweep(spec, z: complex, times):
    """Yield B_t(z) for each of the ascending ``times`` in one forward RK4
    pass over the spec's grid, stopping at the last of them.

    The state advances by full steps only; a time between grid nodes gets
    one partial step from the last node, so a value depends on (spec, t, z)
    alone.  The state is a Python complex: it is faster per step than a
    numpy scalar, and a driver pole raises ZeroDivisionError instead of
    yielding inf or nan."""
    field_of, escaped, what = spec.family.rk4_field, spec.family.escaped, spec.family.label

    def advance(y, h, f):
        try:
            y = _rk4_step(y, h, f)
        except ZeroDivisionError:
            raise FlowEscapeError(f"{what} trajectory from {z} hit a driver pole") from None
        if escaped(y):
            raise FlowEscapeError(f"{what} trajectory from {z} left the domain near {y}")
        return y

    times = iter(times)
    t = next(times, None)
    y = z
    for lo, hi, mu in spec.segments:
        f = field_of(mu)
        n = max(1, math.ceil((hi - lo) / spec.ode.step - _TIME_SLACK))
        h = (hi - lo) / n
        for k in range(n):
            node = lo + k * h
            following = hi if k + 1 == n else lo + (k + 1) * h
            while t is not None and t < following:
                yield y if t == node else advance(y, t - node, f)
                t = next(times, None)
            if t is None:
                return
            y = advance(y, h, f)
    while t is not None:  # the end time, or every time of an empty interval
        yield y
        t = next(times, None)


def _integrate(spec, times, points):
    """RK4 table over broadcast times and points: one sweep per distinct
    point, in flat order of first appearance, over its sorted times."""
    times, points = np.broadcast_arrays(times, points)
    pairs = [(float(t), complex(z)) for t, z in zip(times.flat, points.flat)]
    wanted = {}
    for t, z in pairs:
        wanted.setdefault(z, set()).add(t)
    values = {}
    for z, ts in wanted.items():
        ts = sorted(ts)
        values[z] = dict(zip(ts, _sweep(spec, z, ts)))
    out = np.array([values[z][t] for t, z in pairs], dtype=complex)
    return out.reshape(points.shape)[()]


def _transition(cls, spec, t, z):
    """B_t(z) of a ``cls`` spec: the body of both transition maps."""
    t = _flow_times(cls, spec, t)
    z = cls.family.require(z)
    return (_closed_form if spec.backend == CLOSED_FORM else _integrate)(spec, t, z)


def radial_transition(spec: RadialFlowSpec, t, z):
    """Transition map B_{a t}(z) of a radial flow, for t in [a, b] and z in D.

    ``t`` and ``z`` are scalars or numpy arrays that broadcast together."""
    return _transition(RadialFlowSpec, spec, t, z)


def chordal_transition(spec: ChordalFlowSpec, s, z):
    """Transition map B_{r s}(z) of a chordal flow, for s in [r, s_max] and z in H.

    ``s`` and ``z`` are scalars or numpy arrays that broadcast together."""
    return _transition(ChordalFlowSpec, spec, s, z)


def iter_flow_trace(spec, z: complex, n_samples: int):
    """An iterator over the samples of ``flow_trace``, so that a caller keeps
    the samples yielded before a FlowEscapeError.  Every argument is checked,
    and every sample time built, before it returns; a sample that is not
    finite raises FlowEscapeError naming its time."""
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    lo, hi = _interval(spec)
    if not math.isfinite((hi - lo) * (n_samples - 1)):
        raise ValueError(f"sample times of [{lo}, {hi}] at {n_samples} samples overflow a float")
    z = spec.family.require(z)
    times = [lo + (hi - lo) * i / (n_samples - 1) for i in range(n_samples)]
    # Rounding can carry the last times past hi by more than the absolute
    # slack of the transition maps once hi is large; evaluate those at hi.
    at = [min(t, hi) for t in times]
    if spec.backend == RUNGE_KUTTA:
        values = map(np.complex128, _sweep(spec, complex(z), at))
    else:
        values = (_transition(type(spec), spec, t, z) for t in at)

    def samples():
        for t, value in zip(times, values):
            if not np.isfinite(value):
                raise FlowEscapeError(f"trajectory from {complex(z)} is not finite at t = {t}: {complex(value)}")
            yield t, value

    return samples()


def flow_trace(spec, z: complex, n_samples: int):
    """Equally spaced samples (t, B_t(z)) along the flow interval."""
    return list(iter_flow_trace(spec, z, n_samples))
