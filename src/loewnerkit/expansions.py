"""Quadrature verification of the integral-resolution theorems and
construction of explicit reproducing-kernel space elements."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError
from .flows import ChordalFlowSpec, RadialFlowSpec, _flow_times, _interval, chordal_transition, driver_herglotz, driver_pick, radial_transition
from .kernels import DbrDiskKernel, HerglotzSpaceKernel, PaleyWienerKernel, PickSpaceKernel, gram
from .moebius import cayley_to_disk, cayley_to_halfplane, require_disk, require_halfplane
from .representations import UNIT_MODULUS_TOL, AtomicMeasure, PickRepresentation, herglotz_eval, pick_eval

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights discretizing dt on [a, b]."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if np.any(nodes < self.a - WEIGHT_SUM_TOL) or np.any(nodes > self.b + WEIGHT_SUM_TOL):
            raise ValueError("nodes must lie in [a, b]")
        if abs(float(weights.sum()) - (self.b - self.a)) > WEIGHT_SUM_TOL * max(1.0, self.b - self.a):
            raise ValueError("weights must sum to b - a")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@functools.lru_cache(maxsize=None)
def _reference_rule(n: int):
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], read-only:
    a pure function of n, built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n interior nodes on [a, b].  ValueError when
    the float grid near [a, b] cannot place the nodes: when a node's offset
    from the midpoint misses its exact value by more than 1e-6 relative to
    the half-length, the bound ``_fd_tables`` puts on its spacing."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    x, w = _reference_rule(n)
    # 0.5 * (a + b) would overflow for a and b near the largest float.
    mid, half = 0.5 * a + 0.5 * b, 0.5 * (b - a)
    nodes = mid + half * x
    if np.any(np.abs((nodes - mid) - half * x) > 1e-6 * half):
        raise ValueError(f"Gauss-Legendre nodes on [{a}, {b}] are unresolved: the float grid there is too coarse for them")
    return QuadratureRule(nodes, half * w, float(a), float(b))


def flow_rule(flow, nodes_per_segment: int = 64) -> QuadratureRule:
    """Gauss-Legendre rule over the flow interval, one sub-rule per driver
    segment, so piecewise-constant drivers stay analytic on each sub-rule."""
    lo, hi = _interval(flow)
    pieces = [gauss_legendre(nodes_per_segment, s0, s1) for s0, s1, _ in flow.segments or ((lo, hi, None),)]
    nodes = np.concatenate([p.nodes for p in pieces])
    weights = np.concatenate([p.weights for p in pieces])
    return QuadratureRule(nodes, weights, lo, hi)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one kernel-identity verification."""

    identity_name: str
    sample_pairs: int
    max_abs_err: float
    tol: float
    passed: bool


def _report(name: str, pairs: int, errors, tol: float) -> IdentityReport:
    err = float(np.max(errors, initial=0.0))
    return IdentityReport(name, pairs, err, float(tol), bool(err <= tol))


def _columns(point_pairs):
    """The first and the second points of the pairs, as two complex arrays."""
    pairs = np.asarray(point_pairs, dtype=complex).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _integral(rule: QuadratureRule, table):
    """Quadrature over the rule of a (node, point) table, one value per point."""
    return np.sum(rule.weights[:, None] * table, axis=0)


def _nodes(rule: QuadratureRule, a: float, b: float):
    """The rule's nodes as a column; ValueError unless the rule spans [a, b]."""
    if abs(rule.a - a) > 1e-12 or abs(rule.b - b) > 1e-12:
        raise ValueError(f"rule on [{rule.a}, {rule.b}] must span [{a}, {b}]")
    return rule.nodes[:, None]


def _node_and_end_table(transition, flow, rule: QuadratureRule, first, second):
    """B_t at the rule's nodes and at the end time, for both point columns,
    from one (nodes + 1) x 2p transition table: returns the two (node,
    point) tables and the two end rows."""
    times = np.append(rule.nodes, flow.end)[:, None]
    table = transition(flow, times, np.concatenate([first, second])[None, :])
    p = len(first)
    return (table[:-1, :p], table[:-1, p:]), (table[-1, :p], table[-1, p:])


def loewner_time_kernel(flow: RadialFlowSpec, t: float) -> HerglotzSpaceKernel:
    """Time-t kernel of a radial flow with Herglotz driver phi: the
    Herglotz-space kernel of z -> phi(t, B_t(z)).  The spec and t are checked
    when the kernel is built, not at its first call."""
    _flow_times(RadialFlowSpec, flow, t)
    return HerglotzSpaceKernel(lambda z: driver_herglotz(flow, t, radial_transition(flow, t, z)))


def resolution_check(flow: RadialFlowSpec, rule: QuadratureRule, point_pairs, tol: float = 1e-8) -> IdentityReport:
    """Continuous resolution of the de Branges-Rovnyak kernel along a radial
    flow: 1 + integral of conj(B_t(lam)) B_t(mu) k(t, mu, lam) dt equals
    (1 - conj(B_b(lam)) B_b(mu)) / (1 - conj(lam) mu), where k(t, ., .) is
    the time-t kernel of ``loewner_time_kernel``."""
    lam, mu = (require_disk(c) for c in _columns(point_pairs))
    nodes = _nodes(rule, *_interval(flow))
    (b_lam, b_mu), (end_lam, end_mu) = _node_and_end_table(radial_transition, flow, rule, lam, mu)
    phi_lam, phi_mu = (driver_herglotz(flow, nodes, b) for b in (b_lam, b_mu))
    denom = 1.0 - lam.conjugate() * mu
    lhs = 1.0 + _integral(rule, b_lam.conjugate() * b_mu * (phi_lam.conjugate() + phi_mu) / denom)
    rhs = (1.0 - end_lam.conjugate() * end_mu) / denom
    return _report("resolution", len(point_pairs), np.abs(lhs - rhs), tol)


def _fd_tables(transition, flow, t, first, second, h: float):
    """Flat t, first and second, broadcast together, and the two (3, p)
    tables of B at t - h, t and t + h for the two point columns, from one
    (3, 2p) transition table.  ValueError when a [t - h, t + h] leaves
    the flow or holds a driver breakpoint strictly inside, where B_t has a
    kink, or when t - h and t + h, as floats, are not 2h apart to 1e-6
    relative: then the difference quotient would not divide by its spacing."""
    start, end = _interval(flow)
    if not (h > 0.0):
        raise ValueError("h must be positive")
    t, first, second = (np.reshape(v, -1) for v in np.broadcast_arrays(np.asarray(t, dtype=float), first, second))
    if np.any(t - h < start) or np.any(t + h > end):
        raise ValueError(f"step h = {h} too large: [t-h, t+h] must stay in [{start}, {end}]")
    for bp, _, _ in flow.segments[1:]:
        kinked = (t - h < bp) & (bp < t + h)
        if kinked.any():
            raise ValueError(f"step h = {h} too large: [t-h, t+h] at t = {t[kinked][0]} holds the driver breakpoint {bp}")
    times = t + np.array([-h, 0.0, h])[:, None]
    spacing = times[2] - times[0]
    coarse = np.abs(spacing - 2.0 * h) > 1e-6 * 2.0 * h
    if coarse.any():
        raise ValueError(f"step h = {h} is below the time resolution at t = {t[coarse][0]}: (t + h) - (t - h) = {spacing[coarse][0]}")
    table = transition(flow, np.tile(times, 2), np.concatenate([first, second]))
    p = len(t)
    return t, first, second, table[:, :p], table[:, p:]


def radial_derivative_identity_check(flow: RadialFlowSpec, t, lam, z, h: float = 1e-4, tol: float = 1e-5) -> IdentityReport:
    """d/dt of the normalized kernel quotient (1 - conj(B_t(lam)) B_t(z)) /
    (1 - conj(lam) z) against k(t, z, lam) conj(B_t(lam)) B_t(z), by central
    finite difference; the error is relative with denominator max(1, |RHS|).

    ``t``, ``lam`` and ``z`` are scalars or arrays that broadcast together;
    each of their p broadcast triples is one sample pair."""
    t, lam, z, b_lam, b_z = _fd_tables(radial_transition, flow, t, require_disk(lam), require_disk(z), h)
    denom = 1.0 - lam.conjugate() * z
    quotient = (1.0 - b_lam.conjugate() * b_z) / denom
    fd = (quotient[2] - quotient[0]) / (2.0 * h)
    kernel = (driver_herglotz(flow, t, b_lam[1]).conjugate() + driver_herglotz(flow, t, b_z[1])) / denom
    rhs = kernel * b_lam[1].conjugate() * b_z[1]
    return _report("radial-derivative", len(t), np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs)), tol)


def chordal_derivative_identity_check(flow: ChordalFlowSpec, t, alpha, z, h: float = 1e-4, tol: float = 1e-5) -> IdentityReport:
    """d/dt of the Pick kernel quotient (B_t(z) - conj(B_t(alpha))) /
    (z - conj(alpha)) against the same quotient times the Pick-space kernel
    of the driver's P_t at (B_t(z), B_t(alpha)), by central finite
    difference (relative error).  ``t``, ``alpha`` and ``z`` broadcast
    together as in ``radial_derivative_identity_check``.

    Neither denominator can vanish for alpha, z in H: Im(z - conj(alpha)) > 0,
    and B_t maps into H.
    """
    t, alpha, z, b_alpha, b_z = _fd_tables(chordal_transition, flow, t, require_halfplane(alpha), require_halfplane(z), h)
    quotient = (b_z - b_alpha.conjugate()) / (z - alpha.conjugate())
    fd = (quotient[2] - quotient[0]) / (2.0 * h)
    rhs = quotient[1] * PickSpaceKernel(lambda w: driver_pick(flow, t, w))(b_z[1], b_alpha[1])
    return _report("chordal-derivative", len(t), np.abs(fd - rhs) / np.maximum(1.0, np.abs(rhs)), tol)


def dbr_element(flow: RadialFlowSpec, h, lam: complex, rule: QuadratureRule):
    """Evaluable element F(z) = integral of (h(t) / 2) B_t(z) k(t, z, lam) dt
    of the de Branges-Rovnyak space of B_b, for a bounded function h on the
    flow interval and k(t, ., .) the time-t kernel of ``loewner_time_kernel``;
    it takes z as a scalar or a numpy array."""
    lam = require_disk(lam)
    nodes = _nodes(rule, *_interval(flow))
    phi_lam = driver_herglotz(flow, nodes, radial_transition(flow, nodes, lam)).conjugate()
    half_h = 0.5 * np.array([float(h(t) if callable(h) else h) for t in rule.nodes])[:, None]

    def element(z):
        z = require_disk(z)
        flat = np.reshape(z, -1)
        bz = radial_transition(flow, nodes, flat)
        table = half_h * bz * (phi_lam + driver_herglotz(flow, nodes, bz)) / (1.0 - lam.conjugate() * flat)
        return np.reshape(_integral(rule, table), np.shape(z))[()]

    return element


def koebe_log_element(flow: RadialFlowSpec):
    """The element z -> log((1 - B_b(z)) / (1 - z)) of the de Branges-Rovnyak
    space of B_b, for the end map B_b of a Koebe flow; it takes z as a scalar
    or a numpy array.  Both factors of the log argument have positive real
    part on the disk; a BranchCutError names the first point where one does
    not, so the principal branch is never silently left.  It raises when built
    for another family (TypeError) or a driver other than Koebe's (ValueError)."""
    _flow_times(RadialFlowSpec, flow, _interval(flow)[0])  # the TypeError of a spec of another family
    for _, _, mu in flow.segments:
        if len(mu.atoms) != 1 or abs(mu.atoms[0][0] + 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"the log element needs the Koebe driver, a unit atom at -1, on every segment; got {mu}")

    def element(z):
        z = require_disk(z)
        num, den = 1.0 - radial_transition(flow, flow.end, z), 1.0 - z
        off_branch = (np.real(num) <= 0.0) | (np.real(den) <= 0.0)
        if np.any(off_branch):
            z_i, num_i, den_i = (complex(np.asarray(v)[off_branch].flat[0]) for v in (z, num, den))
            raise BranchCutError(f"log argument off the principal branch at z = {z_i}: 1 - B_b(z) = {num_i}, 1 - z = {den_i}")
        return np.log(num / den)

    return element


def koebe_log_element_check(flow: RadialFlowSpec, rule: QuadratureRule, points, tol: float = 1e-8) -> IdentityReport:
    """The h = 1, lam = 0 element of the Koebe flow equals
    log((1 - B_b(z)) / (1 - z)), with the right side from ``koebe_log_element``."""
    pts = require_disk(np.reshape(points, -1))
    closed = koebe_log_element(flow)(pts)
    return _report("koebe-log", len(points), np.abs(dbr_element(flow, 1.0, 0.0, rule)(pts) - closed), tol)


def cayley_isometry_check(psi, point_pairs, gram_points, tol: float = 1e-10) -> IdentityReport:
    """Transport of the Pick kernel through the Cayley transform.

    With phi = T o psi o T^{-1} and alpha = T(lam), beta = T(mu), checks

        (phi(beta) - conj(phi(alpha))) / (beta - conj(alpha))
          = (1 - conj(lam))/(1 - conj(psi(lam)))
            * (1 - mu)/(1 - psi(mu))
            * (1 - conj(psi(lam)) psi(mu)) / (1 - conj(lam) mu)

    pointwise on the pairs, and the matching Gram identity on the
    pairwise-distinct ``gram_points``: scaling the Pick Gram of the mapped
    kernel columns reproduces the de Branges-Rovnyak Gram of psi.
    ``psi`` is evaluated on numpy arrays of points.
    """

    def phi(w):
        return cayley_to_halfplane(psi(cayley_to_disk(w)))

    lam, mu = (require_disk(c) for c in _columns(point_pairs))
    alpha, beta = cayley_to_halfplane(lam), cayley_to_halfplane(mu)
    psi_lam, psi_mu = psi(lam), psi(mu)
    if np.any(np.abs(1.0 - psi_lam) <= 1e-12) or np.any(np.abs(1.0 - psi_mu) <= 1e-12):
        raise ValueError("psi value 1 degeneracy in point pair")
    lhs = (phi(beta) - phi(alpha).conjugate()) / (beta - alpha.conjugate())
    rhs = (
        (1.0 - lam.conjugate())
        / (1.0 - psi_lam.conjugate())
        * (1.0 - mu)
        / (1.0 - psi_mu)
        * (1.0 - psi_lam.conjugate() * psi_mu)
        / (1.0 - lam.conjugate() * mu)
    )
    pair_err = np.max(np.abs(lhs - rhs), initial=0.0)

    pts = require_disk(np.reshape(gram_points, -1))
    psi_pts = psi(pts)
    if np.any(np.abs(1.0 - psi_pts) <= 1e-12):
        raise ValueError("psi value 1 degeneracy at a Gram point")
    dbr = gram(DbrDiskKernel(psi), pts)
    pick = gram(PickSpaceKernel(phi), cayley_to_halfplane(pts))
    c = (1.0 - psi_pts.conjugate()) / (1.0 - pts.conjugate())
    mapped = np.conj(c)[:, None] * pick * c[None, :]
    gram_err = np.max(np.abs(mapped - dbr), initial=0.0)
    return _report("cayley-isometry", len(point_pairs), [pair_err, gram_err], tol)


def pick_constant_element(psi, rep: PickRepresentation):
    """Preimage (1 - psi(z)) / (1 - z) of the constant 1 under the Cayley
    isometry; an element of the de Branges-Rovnyak space of psi when the
    linear coefficient c of the representation is nonzero."""
    if rep.c == 0.0:
        raise ValueError("requires a representation with c != 0")

    def element(z):
        z = require_disk(z)
        return (1.0 - psi(z)) / (1.0 - z)

    return element


def nevanlinna_split_check(rep: PickRepresentation, point_pairs, tol: float = 1e-12) -> IdentityReport:
    """The Pick kernel of a Nevanlinna representation splits as
    c + (1/pi) sum of w_t / ((t - conj(w)) (t - z)); exact for atoms."""
    z, w = (require_halfplane(c) for c in _columns(point_pairs))
    lhs = (pick_eval(rep, z) - pick_eval(rep, w).conjugate()) / (z - w.conjugate())
    acc = sum(wt / ((t.real - w.conjugate()) * (t.real - z)) for t, wt in rep.mu.atoms)
    rhs = rep.c + acc / math.pi
    return _report("nevanlinna-split", len(point_pairs), np.abs(lhs - rhs), tol)


def chordal_exp_kernel_check(flow: ChordalFlowSpec, rule: QuadratureRule, point_pairs, tol: float = 1e-8) -> IdentityReport:
    """Exponential kernel: exp(integral of k_t(B_t(z), B_t(alpha)) dt), with
    k_t the Pick-space kernel of the driver's P_t (1 / (conj(B_t(alpha)) B_t(z))
    for the basic slit), equals (B_b(z) - conj(B_b(alpha))) / (z - conj(alpha))."""
    alpha, z = (require_halfplane(c) for c in _columns(point_pairs))
    nodes = _nodes(rule, *_interval(flow))
    (b_alpha, b_z), (end_alpha, end_z) = _node_and_end_table(chordal_transition, flow, rule, alpha, z)
    lhs = np.exp(_integral(rule, PickSpaceKernel(lambda w: driver_pick(flow, nodes, w))(b_z, b_alpha)))
    rhs = (end_z - end_alpha.conjugate()) / (z - alpha.conjugate())
    return _report("chordal-exp-kernel", len(point_pairs), np.abs(lhs - rhs), tol)


def chordal_exp_element(flow: ChordalFlowSpec):
    """The element z -> exp(z - B_b(z)) of the Pick space of B_b, for the
    end map B_b of a chordal flow; it takes z as a scalar or a numpy array."""

    def element(z):
        return np.exp(z - chordal_transition(flow, flow.end, z))

    return element


def chordal_exp_element_check(flow: ChordalFlowSpec, rule: QuadratureRule, points, tol: float = 1e-8) -> IdentityReport:
    """Pointwise identity exp(-integral of P_t(B_t(z)) dt) = exp(z - B_b(z)), with
    P_t the driver's Pick function and the right side from ``chordal_exp_element``."""
    pts = require_halfplane(np.reshape(points, -1))
    nodes = _nodes(rule, *_interval(flow))
    lhs = np.exp(-_integral(rule, driver_pick(flow, nodes, chordal_transition(flow, nodes, pts))))
    return _report("chordal-exp-element", len(points), np.abs(lhs - chordal_exp_element(flow)(pts)), tol)


def herglotz_mixture_check(mu: AtomicMeasure, point_pairs, tol: float = 1e-12) -> IdentityReport:
    """Mixing elementary Herglotz kernels with the atom weights reproduces
    the Herglotz kernel of the mixture; exact for atomic measures."""
    if not mu.is_radial_driver():
        raise ValueError("mu must be a probability measure on the unit circle")
    z, lam = (require_disk(c) for c in _columns(point_pairs))
    denom = 1.0 - lam.conjugate() * z
    acc = 0.0
    for xi, w in mu.atoms:
        phi_z = (1.0 + xi * z) / (1.0 - xi * z)
        phi_lam = (1.0 + xi * lam) / (1.0 - xi * lam)
        acc += w * (phi_lam.conjugate() + phi_z) / denom
    rhs = (herglotz_eval(mu, lam).conjugate() + herglotz_eval(mu, z)) / denom
    return _report("herglotz-mixture", len(point_pairs), np.abs(acc - rhs), tol)


def paley_wiener_reconstruction_check(bandwidth: float, rule: QuadratureRule, point_pairs, tol: float = 1e-10) -> IdentityReport:
    """Time-limited Fourier quadrature over [-A, A] of
    conj(exp(-2 pi i lam t)) exp(-2 pi i z t) reproduces the sinc kernel
    sin(2 pi A (z - conj(lam))) / (pi (z - conj(lam)))."""
    nodes = _nodes(rule, -bandwidth, bandwidth)
    lam, z = _columns(point_pairs)
    lhs = _integral(rule, np.exp(-2j * math.pi * lam * nodes).conjugate() * np.exp(-2j * math.pi * z * nodes))
    return _report("pw-reconstruction", len(point_pairs), np.abs(lhs - PaleyWienerKernel(bandwidth)(z, lam)), tol)
