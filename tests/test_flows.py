import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewnerkit import (
    CLOSED_FORM,
    RUNGE_KUTTA,
    AtomicMeasure,
    ChordalFlowSpec,
    OdeConfig,
    RadialFlowSpec,
    chordal_transition,
    driver_herglotz,
    driver_pick,
    flow_rule,
    flow_trace,
    herglotz_eval,
    koebe_eval,
    radial_transition,
    sqrt_halfplane,
)
from loewnerkit import flows
from loewnerkit.errors import DomainError, FlowEscapeError


def _disk_sample(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return [complex(a, b) for a, b in zip(r * np.cos(theta), r * np.sin(theta))]


def test_koebe_eval_hand_values():
    assert koebe_eval(0.0, 0.0) == 0.0
    assert abs(koebe_eval(0.0, 0.5) - 2.0) < 1e-15
    assert abs(koebe_eval(1.0, 0.5) - 2.0 * math.e) < 1e-14


class TestRadial:
    def test_zero_length_flow_is_identity(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        z = 0.3 - 0.2j
        assert radial_transition(spec, 0.0, z) == z

    def test_origin_is_fixed(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        assert radial_transition(spec, 0.7, 0.0) == 0.0
        spec_rk = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA)
        assert radial_transition(spec_rk, 0.7, 0.0) == 0.0

    def test_closed_form_inverts_koebe_map(self):
        # B solves e^t B/(1-B)^2 = e^a z/(1-z)^2.
        spec = RadialFlowSpec.koebe(0.2, 1.3)
        z = 0.4 + 0.3j
        t = 0.9
        b = radial_transition(spec, t, z)
        assert abs(b) < 1.0
        assert abs(koebe_eval(t, b) - koebe_eval(0.2, z)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backend_agreement(self, seed):
        rng = np.random.RandomState(seed)
        spec_cf = RadialFlowSpec.koebe(0.0, 1.0)
        spec_rk = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA)
        for z in _disk_sample(rng, 50, rmax=0.95):
            t = rng.uniform(0.0, 1.0)
            b_cf = radial_transition(spec_cf, t, z)
            b_rk = radial_transition(spec_rk, t, z)
            assert abs(b_cf - b_rk) <= 1e-6
            assert abs(b_cf) < 1.0

    def test_semigroup_law(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            r, s, t = np.sort(rng.uniform(0.0, 1.0, size=3))
            if t - r < 1e-3:
                continue
            z = _disk_sample(rng, 1)[0]
            b_rs = radial_transition(RadialFlowSpec.koebe(r, s), s, z)
            b_st = radial_transition(RadialFlowSpec.koebe(s, t), t, b_rs)
            b_rt = radial_transition(RadialFlowSpec.koebe(r, t), t, z)
            assert abs(b_st - b_rt) <= 1e-9

    def test_piecewise_driver_runs_and_stays_in_disk(self):
        mix = AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
        driver = ((0.0, AtomicMeasure.dirac(-1.0)), (0.5, mix))
        spec = RadialFlowSpec(0.0, 1.0, driver, backend=RUNGE_KUTTA)
        b = radial_transition(spec, 1.0, 0.5 + 0.2j)
        assert abs(b) < 1.0
        # first half agrees with the pure Koebe flow
        koebe_half = radial_transition(RadialFlowSpec.koebe(0.0, 0.5), 0.5, 0.5 + 0.2j)
        assert abs(radial_transition(spec, 0.5, 0.5 + 0.2j) - koebe_half) <= 1e-9

    def test_time_outside_interval_rejected(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        with pytest.raises(DomainError):
            radial_transition(spec, 1.5, 0.3)

    def test_nan_time_rejected(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        with pytest.raises(DomainError, match=r"^t = nan outside flow interval"):
            radial_transition(spec, math.nan, 0.3)
        with pytest.raises(DomainError, match=r"^t = nan outside flow interval"):
            radial_transition(spec, np.array([0.5, math.nan]), 0.3)
        with pytest.raises(DomainError, match=r"^s = nan outside flow interval"):
            chordal_transition(ChordalFlowSpec.basic_slit(0.0, 1.0), math.nan, 1j)

    def test_time_within_slack_of_the_interval_is_clamped(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        z = 0.3 + 0.2j
        assert radial_transition(spec, 1.0 + 5e-13, z) == radial_transition(spec, 1.0, z)
        assert radial_transition(spec, -5e-13, z) == radial_transition(spec, 0.0, z)
        times = np.array([-5e-13, 0.5, 1.0 + 5e-13])
        assert np.array_equal(radial_transition(spec, times, z), radial_transition(spec, np.array([0.0, 0.5, 1.0]), z))

    def test_escape_reported(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA)
        with pytest.raises(FlowEscapeError):
            radial_transition(spec, 1.0, 0.9999999999)
        # The error names the first escaping point in flat order.
        with pytest.raises(FlowEscapeError, match=r"from \(0\.99999999995"):
            radial_transition(spec, 1.0, np.array([0.3, 0.99999999995, 0.9999999999]))

    def test_closed_form_rejects_multi_atom_measure(self):
        mix = AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))
        for driver in (((0.0, mix),), ((0.0, AtomicMeasure.dirac(1j)), (0.5, mix))):
            with pytest.raises(ValueError, match="single-atom"):
                RadialFlowSpec(0.0, 1.0, driver, backend=CLOSED_FORM)

    def test_step_larger_than_interval_rejected(self):
        with pytest.raises(ValueError):
            RadialFlowSpec.koebe(0.0, 0.5, backend=RUNGE_KUTTA, ode=OdeConfig(step=0.6))

    @pytest.mark.parametrize("make", [RadialFlowSpec.koebe, ChordalFlowSpec.basic_slit])
    @pytest.mark.parametrize("end, step", [(1e308, 1e-3), (1.0, 1e-300)], ids=["huge-interval", "tiny-step"])
    def test_oversized_rk4_grid_rejected(self, make, end, step):
        with pytest.raises(ValueError, match="MAX_RK4_STEPS"):
            make(0.0, end, backend=RUNGE_KUTTA, ode=OdeConfig(step))
        make(0.0, 1.0, backend=RUNGE_KUTTA, ode=OdeConfig(1.0 / flows.MAX_RK4_STEPS))  # the cap itself is allowed

    def test_unsorted_breakpoints_rejected(self):
        d = ((0.5, AtomicMeasure.dirac(-1.0)), (0.0, AtomicMeasure.dirac(-1.0)))
        with pytest.raises(ValueError):
            RadialFlowSpec(0.0, 1.0, d, backend=RUNGE_KUTTA)


class TestChordal:
    def test_start_is_identity(self):
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0)
        assert chordal_transition(spec, 0.0, 1j) == 1j

    def test_hand_values(self):
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0)
        assert abs(chordal_transition(spec, 1.0, 1j) - 1j * math.sqrt(3)) < 1e-15
        spec_half = ChordalFlowSpec.basic_slit(0.0, 0.5)
        assert abs(chordal_transition(spec_half, 0.5, 2j) - 1j * math.sqrt(5)) < 1e-15

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backend_agreement_and_branch_sanity(self, seed):
        rng = np.random.RandomState(seed)
        cf = ChordalFlowSpec.basic_slit(0.0, 1.0)
        rk = ChordalFlowSpec.basic_slit(0.0, 1.0, backend=RUNGE_KUTTA)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.1))
            s = rng.uniform(0.0, 1.0)
            b_cf = chordal_transition(cf, s, z)
            assert b_cf.imag > 0.0
            assert abs(b_cf - chordal_transition(rk, s, z)) <= 1e-6

    def test_ode_residual_of_closed_form(self):
        # Central difference of B in s matches -1/B to 1e-5 relative.
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0)
        rng = np.random.RandomState(5)
        h = 1e-4
        for _ in range(100):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.1))
            s = rng.uniform(h, 1.0 - h)
            fd = (chordal_transition(spec, s + h, z) - chordal_transition(spec, s - h, z)) / (2 * h)
            rhs = -1.0 / chordal_transition(spec, s, z)
            assert abs(fd - rhs) / max(1.0, abs(rhs)) <= 1e-5

    def test_measure_driven_flow(self):
        nu = AtomicMeasure(((0.0, 0.6), (1.0, 0.4)))
        spec = ChordalFlowSpec(0.0, 1.0, ((0.0, nu),), backend=RUNGE_KUTTA)
        b = chordal_transition(spec, 1.0, 1j)
        assert b.imag > 0.0

    def test_escape_reported(self):
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0, backend=RUNGE_KUTTA)
        with pytest.raises(FlowEscapeError):
            chordal_transition(spec, 1.0, 1.0 + 1e-10j)

    def test_closed_form_rejects_multi_atom_measure(self):
        nu = AtomicMeasure(((0.0, 0.6), (1.0, 0.4)))
        for driver in (((0.0, nu),), ((0.0, AtomicMeasure.dirac(0.7)), (0.5, nu))):
            with pytest.raises(ValueError, match="single-atom"):
                ChordalFlowSpec(0.0, 1.0, driver, backend=CLOSED_FORM)


@pytest.mark.parametrize("backend", [CLOSED_FORM, RUNGE_KUTTA])
def test_broadcast_tables_match_scalar_calls(backend):
    cases = (
        (radial_transition, RadialFlowSpec.koebe(0.0, 1.0, backend=backend), [0.3 - 0.2j, -0.5j, 0.0, 0.6]),
        (chordal_transition, ChordalFlowSpec.basic_slit(0.0, 1.0, backend=backend), [1j, -1.5 + 0.7j, 0.4 + 2j]),
    )
    # Shuffled and repeated times, and a repeated point.
    times = np.array([0.25, 1.0, 0.0, 0.6180339887, 0.25])[:, None]
    for transition, spec, points in cases:
        points = points + [points[0]]
        table = transition(spec, times, np.array(points)[None, :])
        assert table.shape == (len(times), len(points))
        reference = np.array([[transition(spec, float(t), z) for z in points] for t in times[:, 0]])
        if backend == RUNGE_KUTTA:
            assert np.array_equal(table, reference)
        else:
            assert np.max(np.abs(table - reference)) <= 1e-15


@pytest.mark.parametrize(
    "spec, transition, z",
    [
        (RadialFlowSpec(0.3, 1.0, ((0.3 + 5e-13, AtomicMeasure.dirac(-1.0)),), backend=RUNGE_KUTTA), radial_transition, 0.5),
        (ChordalFlowSpec(0.3, 1.0, ((0.3 + 5e-13, AtomicMeasure.dirac(0.0)),), backend=RUNGE_KUTTA), chordal_transition, 1j),
    ],
    ids=["radial", "chordal"],
)
def test_first_breakpoint_within_the_slack_snaps_to_the_start(spec, transition, z):
    start, end = spec.start, spec.end
    assert spec.driver[0][0] == start
    assert transition(spec, start, z) == z
    assert abs(flow_rule(spec, 16).weights.sum() - (end - start)) <= 1e-15


@pytest.mark.parametrize(
    "spec, names",
    [(RadialFlowSpec.koebe(0.25, 1.5), ("a", "b")), (ChordalFlowSpec.basic_slit(0.25, 1.5), ("r", "s"))],
    ids=["radial", "chordal"],
)
def test_the_papers_interval_names_read_start_and_end(spec, names):
    assert tuple(getattr(spec, name) for name in names) == (spec.start, spec.end) == (0.25, 1.5)
    for name in names + ("start", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, 0.5)


def _segments_reference(driver, start, end):
    """The non-empty pieces of a driver over [start, end], by brute force: cut
    [start, end] at every breakpoint strictly inside it and give each piece
    the measure of the last breakpoint at or before its left end.  A first
    breakpoint within 1e-12 after start counts as start, as the spec snaps it."""
    breakpoints = [bp for bp, _ in driver]
    if start < breakpoints[0] <= start + 1e-12:
        breakpoints[0] = start
    cuts = sorted({start, end, *(bp for bp in breakpoints if start < bp < end)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        k = max(i for i, bp in enumerate(breakpoints) if bp <= lo)
        pieces.append((lo, hi, driver[k][1]))
    return tuple(pieces)


@st.composite
def _intervals_and_drivers(draw):
    start = draw(st.sampled_from([0.0, 0.25, 1.0]))
    end = start + draw(st.sampled_from([0.0, 0.5, 2.0]))
    # Before the start, at it, or within the snap slack after it.
    first = draw(st.sampled_from([start - 1.0, start - 0.25, start, start + 5e-13]))
    later = st.one_of(st.floats(first, end + 1.0, exclude_min=True), st.sampled_from([start, 0.7 * start + 0.3 * end, 0.5 * start + 0.5 * end, end, end + 0.5]))
    breakpoints = sorted({first, *(bp for bp in draw(st.lists(later, max_size=5)) if bp > first)})
    return start, end, tuple((bp, AtomicMeasure.dirac(float(k))) for k, bp in enumerate(breakpoints))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_intervals_and_drivers())
def test_segments_match_the_brute_force_pieces(case):
    start, end, driver = case
    spec = ChordalFlowSpec(start, end, driver)
    assert spec.segments == _segments_reference(driver, start, end)
    assert all(lo < hi for lo, hi, _ in spec.segments)
    assert (start == end) == (spec.segments == ())


@pytest.mark.parametrize(
    "spec",
    [RadialFlowSpec(0.0, 1.0, ((0.0, AtomicMeasure.dirac(-1.0)), (0.5, AtomicMeasure.dirac(1j))), backend=RUNGE_KUTTA), ChordalFlowSpec.basic_slit(0.25, 1.5)],
    ids=["radial", "chordal"],
)
def test_the_segment_table_leaves_equality_hash_repr_and_replace_alone(spec):
    cls = type(spec)
    twin = cls(spec.start, spec.end, spec.driver, spec.backend, spec.ode)
    assert twin == spec and hash(twin) == hash(spec) == hash((spec.start, spec.end, spec.driver, spec.backend, spec.ode))
    fields = f"start={spec.start!r}, end={spec.end!r}, driver={spec.driver!r}, backend={spec.backend!r}, ode={spec.ode!r}"
    assert repr(spec) == f"{cls.__name__}({fields})"
    with pytest.raises(TypeError):
        cls(spec.start, spec.end, spec.driver, segments=())
    with pytest.raises(ValueError):
        dataclasses.replace(spec, segments=())
    # replace builds the table of the new interval.
    later = dataclasses.replace(spec, start=0.75)
    assert later.segments == _segments_reference(spec.driver, 0.75, spec.end) and later != spec


def _restart_reference(spec, t, z):
    """Restart RK4: integrate (t, z) from the interval start on the grid of
    the segments up to t.  The one-sweep integrator reproduces it bit for
    bit at the interval end and at driver breakpoints."""
    field_of = spec.family.rk4_field
    y = complex(z)
    for lo, hi, mu in spec.segments:
        hi = min(hi, t)
        if hi <= lo:
            break
        f = field_of(mu)
        n = max(1, math.ceil((hi - lo) / spec.ode.step - 1e-12))
        for _ in range(n):
            y = flows._rk4_step(y, (hi - lo) / n, f)
    return y


# The benchmark's two-segment multi-atom radial driver: no closed form.
_MULTI_ATOM = (
    (0.0, AtomicMeasure(((-1.0, 0.6), (complex(math.cos(2.1), math.sin(2.1)), 0.4)))),
    (0.5, AtomicMeasure(((complex(math.cos(2.1), -math.sin(2.1)), 0.5), (1j, 0.5)))),
)


class TestSweep:
    @pytest.mark.parametrize(
        "spec, points, breaks",
        [
            (RadialFlowSpec(0.0, 1.0, _MULTI_ATOM, backend=RUNGE_KUTTA), [0.3 + 0.4j, -0.95, 0.6 - 0.7j], [0.5]),
            (RadialFlowSpec.koebe(0.2, 1.3, backend=RUNGE_KUTTA), [0.9j, -0.5 + 0.1j], []),
            (
                ChordalFlowSpec(0.0, 1.0, ((0.0, AtomicMeasure(((0.0, 0.6), (1.0, 0.4)))), (0.4, AtomicMeasure.dirac(-0.5))), backend=RUNGE_KUTTA),
                [1j, -1.5 + 0.7j],
                [0.4],
            ),
        ],
    )
    def test_matches_restart_reference(self, spec, points, breaks):
        lo, hi = spec.start, spec.end
        exact = [hi] + breaks
        interior = list(np.random.RandomState(2).uniform(lo, hi, size=6))
        transition = getattr(flows, f"{spec.family.label}_transition")
        halved = dataclasses.replace(spec, ode=OdeConfig(spec.ode.step / 2))
        table = transition(spec, np.array(exact + interior)[:, None], np.array(points)[None, :])
        for i, t in enumerate(exact + interior):
            for j, z in enumerate(points):
                reference = _restart_reference(spec, t, z)
                if t in exact:
                    assert table[i, j] == reference
                else:
                    # Two RK4 grids differ by their discretization errors, which
                    # near a driver pole (z = -0.95) reach 1e-8 at step 1e-3:
                    # allow the reference's own step-halving error estimate.
                    estimate = abs(reference - _restart_reference(halved, t, z))
                    assert abs(table[i, j] - reference) <= 1e-12 + estimate

    def test_multi_atom_driver_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        spec = RadialFlowSpec(0.0, 1.0, _MULTI_ATOM, backend=RUNGE_KUTTA)
        points = [0.3 + 0.4j, -0.5 + 0.1j]
        times = [0.77, 1.0]
        table = radial_transition(spec, np.array(times)[:, None], np.array(points)[None, :])
        with mp.workdps(18):

            def field(mu):
                atoms = [(mp.mpc(xi), mp.mpf(wt)) for xi, wt in mu.atoms]
                return lambda _t, w: -w * sum(wt * (1 + xi * w) / (1 - xi * w) for xi, wt in atoms)

            for j, z in enumerate(points):
                first = mp.odefun(field(_MULTI_ATOM[0][1]), 0.0, mp.mpc(z))
                second = mp.odefun(field(_MULTI_ATOM[1][1]), 0.5, first(0.5))
                for i, t in enumerate(times):
                    assert abs(table[i, j] - complex(second(t))) <= 1e-10

    def test_one_sweep_per_point(self, monkeypatch):
        steps = []
        rk4_step = flows._rk4_step

        def counted(y, h, f):
            steps.append(h)
            return rk4_step(y, h, f)

        monkeypatch.setattr(flows, "_rk4_step", counted)
        spec = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA, ode=OdeConfig(1e-3))
        times = np.append(np.linspace(0.0, 1.0, 64, endpoint=False) + 1e-3 / 3, 1.0)
        radial_transition(spec, times[:, None], np.array([0.3 - 0.2j, -0.5j])[None, :])
        assert len(steps) <= 2 * (1000 + 65)


@pytest.mark.parametrize("backend", [CLOSED_FORM, RUNGE_KUTTA])
@pytest.mark.parametrize("family, location", [(RadialFlowSpec, -1.0), (ChordalFlowSpec, 0.0)], ids=["radial", "chordal"])
@pytest.mark.parametrize("breakpoints", [(math.nan,), (0.0, math.nan), (0.0, math.inf), (-math.inf,)], ids=["nan", "nan-later", "inf-later", "minus-inf"])
def test_non_finite_breakpoints_rejected(family, location, backend, breakpoints):
    # A nan breakpoint passes every ordering comparison, so only an explicit
    # finiteness check rejects it.
    driver = tuple((bp, AtomicMeasure.dirac(location)) for bp in breakpoints)
    with pytest.raises(ValueError, match="must be finite"):
        family(0.0, 1.0, driver, backend=backend)


# Single-atom drivers with three segments each: the closed form composes one
# exact map per segment, so it is the oracle for RK4 on such drivers.
_THREE_SEGMENTS = {
    "radial": (
        RadialFlowSpec,
        radial_transition,
        ((0.0, AtomicMeasure.dirac(-1.0)), (0.3, AtomicMeasure.dirac(complex(math.cos(2.1), math.sin(2.1)))), (0.7, AtomicMeasure.dirac(1j))),
        [0.3 + 0.4j, -0.6 + 0.1j, 0.05j, 0.55 - 0.45j],
    ),
    "chordal": (
        ChordalFlowSpec,
        chordal_transition,
        ((0.0, AtomicMeasure.dirac(0.0)), (0.4, AtomicMeasure.dirac(0.7, 0.5)), (0.8, AtomicMeasure.dirac(-1.2, 2.0))),
        [1j, -1.5 + 0.7j, 0.4 + 2j, 0.9 + 0.3j],
    ),
}


def _single_atom_field(family, mu, mp):
    ((x, m),) = mu.atoms
    if family is RadialFlowSpec:
        xi = mp.mpc(x)
        return lambda _t, w: -m * w * (1 + xi * w) / (1 - xi * w)
    x = mp.mpf(x.real)
    return lambda _t, w: m / (x - w)


class TestSegmentedClosedForm:
    @pytest.mark.parametrize("name", sorted(_THREE_SEGMENTS))
    def test_matches_rk4(self, name):
        family, transition, driver, points = _THREE_SEGMENTS[name]
        times, points = np.array([0.0, 0.2, 0.3, 0.4, 0.55, 0.7, 0.8, 0.93, 1.0])[:, None], np.array(points)[None, :]
        exact = transition(family(0.0, 1.0, driver), times, points)
        rk4 = transition(family(0.0, 1.0, driver, backend=RUNGE_KUTTA, ode=OdeConfig(1e-4)), times, points)
        assert np.max(np.abs(exact - rk4)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(_THREE_SEGMENTS))
    def test_matches_mpmath(self, name):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        family, transition, driver, points = _THREE_SEGMENTS[name]
        spec, z = family(0.0, 1.0, driver), points[1]
        with mp.workdps(20):
            w = mp.mpc(z)
            for (lo, mu), (hi, _) in zip(driver, driver[1:] + ((1.0, None),)):
                w = mp.odefun(_single_atom_field(family, mu, mp), lo, w)(hi)
        assert abs(transition(spec, 1.0, z) - complex(w)) <= 1e-12

    def test_times_long_before_a_later_segment(self):
        # exp(lo - t) overflows once t is some 709 before a segment starts,
        # so the segment map must never see t < lo.
        driver = ((0.0, AtomicMeasure.dirac(-1.0)), (800.0, AtomicMeasure.dirac(1j)))
        times = np.array([0.5, 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = radial_transition(RadialFlowSpec(0.0, 1000.0, driver), times, 0.3 + 0.2j)
        assert np.array_equal(table, radial_transition(RadialFlowSpec.koebe(0.0, 800.0), times, 0.3 + 0.2j))

    @pytest.mark.parametrize("family", [RadialFlowSpec, ChordalFlowSpec], ids=["radial", "chordal"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_semigroup_across_breakpoints(self, family, data):
        n = data.draw(st.integers(2, 4))
        breakpoints = list(np.cumsum([0.0] + data.draw(st.lists(st.floats(0.05, 0.6), min_size=n - 1, max_size=n - 1))))
        if family is RadialFlowSpec:
            angles = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n))
            measures = [AtomicMeasure.dirac(complex(math.cos(a), math.sin(a))) for a in angles]
            transition, points = radial_transition, np.array([0.3 + 0.4j, -0.6 + 0.1j, 0.7j])
        else:
            atoms = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 2.0)), min_size=n, max_size=n))
            measures = [AtomicMeasure.dirac(x, c) for x, c in atoms]
            transition, points = chordal_transition, np.array([1j, -1.5 + 0.7j, 0.4 + 2j])
        driver = tuple(zip(breakpoints, measures))
        end = breakpoints[-1] + data.draw(st.floats(0.0, 0.6))
        mid = data.draw(st.one_of(st.sampled_from(breakpoints), st.floats(0.0, end)))
        direct = transition(family(0.0, end, driver), end, points)
        composed = transition(family(mid, end, driver), end, transition(family(0.0, mid, driver), mid, points))
        assert np.max(np.abs(direct - composed)) <= 1e-12


def test_out_of_domain_point_in_array_raises():
    spec = RadialFlowSpec.koebe(0.0, 1.0)
    with pytest.raises(DomainError, match="1.2"):
        radial_transition(spec, 0.5, np.array([0.1, 1.2, 0.3j]))
    with pytest.raises(DomainError):
        radial_transition(spec, np.array([0.5, 1.5]), 0.1)


def test_sqrt_halfplane_self_test():
    rng = np.random.RandomState(11)
    for _ in range(1000):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
        assert abs(sqrt_halfplane(z * z) - z) <= 1e-12


class TestTrace:
    def test_degenerate_interval(self):
        spec = RadialFlowSpec.koebe(0.4, 0.4)
        z = 0.2 + 0.1j
        assert flow_trace(spec, z, 2) == [(0.4, z), (0.4, z)]

    def test_koebe_magnitude_strictly_decreasing(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        mags = [abs(b) for _, b in flow_trace(spec, 0.3, 11)]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_slit_midpoints(self):
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0)
        trace = flow_trace(spec, 1j, 3)
        expected = [(0.0, 1j), (0.5, 1j * math.sqrt(2)), (1.0, 1j * math.sqrt(3))]
        for (t, b), (te, be) in zip(trace, expected):
            assert t == te and abs(b - be) < 1e-15

    @pytest.mark.parametrize(
        "spec, z, transition",
        [
            (RadialFlowSpec(0.0, 1.0, _MULTI_ATOM, backend=RUNGE_KUTTA), 0.3 + 0.4j, radial_transition),
            (ChordalFlowSpec.basic_slit(0.2, 1.1, backend=RUNGE_KUTTA), -0.4 + 0.8j, chordal_transition),
        ],
    )
    def test_rk4_samples_match_transition_calls(self, spec, z, transition):
        for t, b in flow_trace(spec, z, 13):
            assert b == transition(spec, t, z)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            flow_trace(RadialFlowSpec.koebe(0.0, 1.0), 0.1, 1)

    def test_overflowing_times_rejected_before_the_first_sample(self):
        with pytest.raises(ValueError, match="overflow"):
            flows.iter_flow_trace(ChordalFlowSpec.basic_slit(0.0, 1e308), 0.3 + 1j, 3)

    def test_non_finite_sample_raises_flow_escape(self):
        samples = flows.iter_flow_trace(ChordalFlowSpec.basic_slit(0.0, 1.0), 1e200j, 3)
        with np.errstate(all="ignore"):  # z * z overflows
            assert next(samples) == (0.0, 1e200j)
            with pytest.raises(FlowEscapeError, match="not finite at t = 0.5"):
                next(samples)

    def test_last_time_rounded_past_the_end_is_evaluated_at_the_end(self):
        spec = RadialFlowSpec.koebe(9.83187717309674, 647165.9971964757)
        t, b = flow_trace(spec, 0.3, 14)[-1]
        assert t > spec.b and b == radial_transition(spec, spec.b, 0.3)


def _driver_reference(spec, t: float, w):
    """herglotz_eval of the measure at the last breakpoint <= t + 1e-12, or
    of the first measure before the first breakpoint."""
    mu = spec.driver[0][1]
    for bp, segment_mu in spec.driver:
        if bp <= t + 1e-12:
            mu = segment_mu
    return herglotz_eval(mu, w)


_probability_on_circle = st.lists(
    st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 1.0)), min_size=1, max_size=3
).map(lambda atoms: AtomicMeasure(tuple((complex(math.cos(a), math.sin(a)), w / sum(w for _, w in atoms)) for a, w in atoms)))


class TestDriverHerglotz:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.0, 5.0),
        st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=5),
        st.lists(_probability_on_circle, min_size=6, max_size=6),
    )
    def test_matches_the_scalar_lookup(self, start, gaps, measures):
        breakpoints = list(np.cumsum([start] + gaps))
        driver = tuple(zip(breakpoints, measures))
        spec = RadialFlowSpec(start, breakpoints[-1] + 1.0, driver, backend=RUNGE_KUTTA)
        offsets = [0.0, -1e-13, 1e-13, -1e-11, 1e-11]
        # A time before the interval start by more than the slack lies outside the flow.
        times = [bp + d for bp in breakpoints for d in offsets if bp + d >= start - 1e-12]
        points = np.array([0.0, 0.3 + 0.4j, -0.7j, 0.9])
        for t in (start - 1e-11, start - 0.5):
            with pytest.raises(DomainError, match="outside flow interval"):
                driver_herglotz(spec, t, points)
        table = driver_herglotz(spec, np.array(times)[:, None], points[None, :])
        assert table.shape == (len(times), len(points))
        for row, t in zip(table, times):
            assert np.array_equal(row, _driver_reference(spec, t, points))
        assert driver_herglotz(spec, times[0], points[1]) == _driver_reference(spec, times[0], points[1])

    def test_time_outside_interval_rejected(self):
        spec = RadialFlowSpec.koebe(0.0, 1.0)
        with pytest.raises(DomainError, match=r"t = 5\.0 outside flow interval"):
            driver_herglotz(spec, 5.0, 0.3)
        with pytest.raises(DomainError, match=r"t = -0\.5 outside"):
            driver_herglotz(spec, np.array([0.5, -0.5, 2.0]), 0.3)
        # Within the slack a time is clamped to the interval, like a transition's.
        assert driver_herglotz(spec, 1.0 + 1e-13, 0.3) == driver_herglotz(spec, 1.0, 0.3)


class TestDriverPick:
    def test_is_the_field_of_the_flow(self):
        # dB_s/ds = P(s, B_s), by central difference away from the breakpoints.
        _, transition, driver, points = _THREE_SEGMENTS["chordal"]
        spec, h = ChordalFlowSpec(0.0, 1.0, driver), 1e-5
        times, points = np.array([0.1, 0.3, 0.45, 0.7, 0.9])[:, None], np.array(points)[None, :]
        fd = (transition(spec, times + h, points) - transition(spec, times - h, points)) / (2.0 * h)
        field = driver_pick(spec, times, transition(spec, times, points))
        assert np.max(np.abs(fd - field) / np.maximum(1.0, np.abs(field))) <= 1e-8

    def test_array_call_matches_scalar_calls(self):
        # Two-atom measures; times on both sides of each breakpoint, within and beyond the slack.
        driver = ((0.0, AtomicMeasure(((0.0, 0.6), (1.3, 0.4)))), (0.5, AtomicMeasure(((-0.8, 0.5), (0.4, 1.0)))))
        spec = ChordalFlowSpec(0.0, 1.0, driver, backend=RUNGE_KUTTA)
        times = np.array([0.0, 0.25, 0.5 - 1e-11, 0.5 - 1e-13, 0.5, 0.75, 1.0])
        points = np.array([1j, -1.5 + 0.7j, 0.4 + 2j])
        table = driver_pick(spec, times[:, None], points[None, :])
        assert table.shape == (len(times), len(points))
        for row, t in zip(table, times):
            mu = driver[1][1] if t >= 0.5 - 1e-12 else driver[0][1]
            expected = [sum(c / (x.real - w) for x, c in mu.atoms) for w in points]
            assert np.array_equal(row, expected)
            assert np.array_equal(row, [driver_pick(spec, t, w) for w in points])

    def test_time_outside_interval_rejected(self):
        spec = ChordalFlowSpec.basic_slit(0.0, 1.0)
        with pytest.raises(DomainError, match=r"s = 5\.0 outside flow interval"):
            driver_pick(spec, 5.0, 1j)
        with pytest.raises(DomainError, match=r"s = -0\.5 outside"):
            driver_pick(spec, np.array([0.5, -0.5, 2.0]), 1j)
        # Within the slack a time is clamped to the interval, like a transition's.
        assert driver_pick(spec, 1.0 + 1e-13, 1j) == driver_pick(spec, 1.0, 1j)

    @pytest.mark.parametrize("measure", [AtomicMeasure.dirac(0.0), AtomicMeasure(())], ids=["dirac", "atomless"])
    def test_point_outside_halfplane_rejected(self, measure):
        spec = ChordalFlowSpec(0.0, 1.0, ((0.0, measure),), backend=RUNGE_KUTTA)
        for w in (-1j, 0.3, np.array([1j, 2.0 + 0.5j, 0.5 - 1e-3j])):
            with pytest.raises(DomainError, match="not inside the open upper half-plane"):
                driver_pick(spec, 0.5, w)

    def test_atomless_measure_gives_zero(self):
        spec = ChordalFlowSpec(0.0, 1.0, ((0.0, AtomicMeasure(())),), backend=RUNGE_KUTTA)
        assert driver_pick(spec, 0.5, 1j) == 0.0
        assert np.array_equal(driver_pick(spec, 0.5, np.array([1j, 2j])), np.zeros(2))
