import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewnerkit import (
    BOUNDED,
    AtomicMeasure,
    RUNGE_KUTTA,
    ChordalFlowSpec,
    OdeConfig,
    PickRepresentation,
    PickSpaceKernel,
    QuadratureRule,
    RadialFlowSpec,
    cayley_isometry_check,
    chordal_derivative_identity_check,
    chordal_exp_element,
    chordal_exp_element_check,
    chordal_exp_kernel_check,
    chordal_transition,
    dbr_element,
    driver_herglotz,
    driver_pick,
    flow_rule,
    flow_trace,
    gauss_legendre,
    herglotz_mixture_check,
    koebe_log_element,
    koebe_log_element_check,
    loewner_time_kernel,
    membership_test,
    nevanlinna_split_check,
    paley_wiener_reconstruction_check,
    pick_constant_element,
    radial_derivative_identity_check,
    radial_transition,
    resolution_check,
)
from loewnerkit import cli, expansions
from loewnerkit.cli import pick_psi
from loewnerkit.errors import BranchCutError
from loewnerkit.sampling import (
    DISK_RMAX_SAFE,
    HALFPLANE_RECT_SAFE,
    disk_pairs,
    disk_points,
    halfplane_pairs,
    halfplane_points,
    membership_halfplane_sets,
    point_pairs,
    rect_points,
)

KOEBE = RadialFlowSpec.koebe(0.0, 1.0)
SLIT = ChordalFlowSpec.basic_slit(0.0, 1.0)
RULE = gauss_legendre(64, 0.0, 1.0)
DIRAC = AtomicMeasure.dirac(-1.0)
MIX = AtomicMeasure(((-1.0, 0.5), (1.0, 0.5)))


class TestQuadrature:
    def test_gauss_legendre_weights_and_interior_nodes(self):
        rule = gauss_legendre(32, 0.25, 1.75)
        assert abs(rule.weights.sum() - 1.5) <= 1e-12
        assert np.all(rule.nodes > 0.25) and np.all(rule.nodes < 1.75)

    def test_gauss_legendre_polynomial_exactness(self):
        rule = gauss_legendre(4, -1.0, 2.0)
        value = sum(w * x**7 for x, w in zip(rule.nodes, rule.weights))
        assert abs(value - (2.0**8 - 1.0) / 8.0) <= 1e-12

    def test_gauss_legendre_near_the_largest_float(self):
        # 0.5 * (a + b) overflows for both intervals.
        rule = gauss_legendre(8, 1e308, 1.7e308)
        assert np.all(rule.nodes > 1e308) and np.all(rule.nodes < 1.7e308)
        assert gauss_legendre(4, 1e308, 1e308).nodes.tolist() == [1e308] * 4

    def test_gauss_legendre_nodes_below_time_resolution_rejected(self):
        # One ulp at 1e13 is about 2e-3, so the nodes would land on a few grid points.
        with pytest.raises(ValueError, match=r"nodes on \[10000000000000.0, 10000000000001.0\] are unresolved"):
            gauss_legendre(64, 1e13, 1e13 + 1.0)

    @pytest.mark.parametrize(
        "spec, pieces",
        [
            (RadialFlowSpec(0.0, 1.0, ((0.0, DIRAC), (0.4, MIX)), backend="rk4"), 2),
            (RadialFlowSpec(0.0, 1.0, ((0.0, DIRAC), (0.4, MIX), (1.5, AtomicMeasure.dirac(1j))), backend="rk4"), 2),
            (RadialFlowSpec(0.0, 1.0, ((0.0, DIRAC), (1.0, MIX)), backend="rk4"), 1),
            (RadialFlowSpec(0.3, 0.3, ((0.0, DIRAC), (0.3, MIX), (0.5, AtomicMeasure.dirac(1j))), backend="rk4"), 1),
            (ChordalFlowSpec.basic_slit(0.2, 1.7), 1),
            (ChordalFlowSpec(0.2, 1.7, ((0.0, AtomicMeasure.dirac(0.0)), (0.9, AtomicMeasure.dirac(1.5))), backend="rk4"), 2),
        ],
        ids=["two-segments", "breakpoint-past-end", "breakpoint-at-end", "a-equals-b", "slit-basic", "slit-explicit"],
    )
    def test_flow_rule_splits_on_driver_breakpoints(self, spec, pieces):
        lo, hi = spec.start, spec.end
        # One sub-rule between consecutive points of {lo, hi} and the breakpoints inside (lo, hi).
        breaks = sorted({lo, hi} | {bp for bp, _ in spec.driver if lo < bp < hi})
        reference = [gauss_legendre(16, s0, s1) for s0, s1 in list(zip(breaks, breaks[1:])) or [(lo, hi)]]
        rule = flow_rule(spec, 16)
        assert len(reference) == pieces and (rule.a, rule.b) == (lo, hi)
        assert np.array_equal(rule.nodes, np.concatenate([p.nodes for p in reference]))
        assert np.array_equal(rule.weights, np.concatenate([p.weights for p in reference]))
        assert abs(rule.weights.sum() - (hi - lo)) <= 1e-12

    def test_flow_rule_and_flow_trace_reject_a_non_spec_alike(self):
        with pytest.raises(TypeError) as from_rule:
            flow_rule(object(), 16)
        with pytest.raises(TypeError) as from_trace:
            flow_trace(object(), 0.1, 3)
        assert str(from_rule.value) == str(from_trace.value) == "unsupported flow spec object"


class TestReferenceRuleCache:
    """gauss_legendre builds the [-1, 1] rule of each node count once and
    maps it onto [a, b], with every check, on every call."""

    @pytest.fixture
    def leggauss_calls(self, monkeypatch):
        calls, leggauss = [], np.polynomial.legendre.leggauss

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        expansions._reference_rule.cache_clear()
        yield calls
        expansions._reference_rule.cache_clear()

    @pytest.mark.parametrize("n", [1, 4, 64, 1024])
    def test_same_bits_as_leggauss_cold_and_warm(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        expansions._reference_rule.cache_clear()
        for _ in range(2):
            rule = gauss_legendre(n, -1.0, 1.0)
            assert rule.nodes.tobytes() == x.tobytes() and rule.weights.tobytes() == w.tobytes()

    def test_one_build_per_node_count(self, leggauss_calls):
        cli.run(cli.validate_config({"suite": "all"}))
        assert leggauss_calls == [64]
        expansions._reference_rule.cache_clear()
        leggauss_calls.clear()
        flow_rule(GENERAL_CHORDAL["three-segment-closed-form"], 16)
        assert leggauss_calls == [16]

    def test_equal_node_counts_share_one_entry(self, leggauss_calls):
        rules = [gauss_legendre(n, 0.0, 1.0) for n in (64, np.int64(64), True + 63)]
        assert leggauss_calls == [64] and expansions._reference_rule.cache_info().currsize == 1
        assert all(np.array_equal(rule.nodes, rules[0].nodes) for rule in rules)

    def test_cached_arrays_are_read_only(self):
        x, w = expansions._reference_rule(8)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0

    def test_writing_into_a_rule_leaves_the_next_rule_alone(self):
        rule = gauss_legendre(8, -1.0, 1.0)
        rule.nodes[:] = 0.0
        rule.weights[:] = 0.0
        x, w = np.polynomial.legendre.leggauss(8)
        again = gauss_legendre(8, -1.0, 1.0)
        assert np.array_equal(again.nodes, x) and np.array_equal(again.weights, w)

    def test_checks_still_raise_after_a_cache_hit(self, leggauss_calls):
        gauss_legendre(64, 0.0, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="unresolved"):
                gauss_legendre(64, 1e13, 1e13 + 1.0)
            for n in (0, -3):
                with pytest.raises(ValueError, match="at least 1"):
                    gauss_legendre(n, 0.0, 1.0)
        assert leggauss_calls == [64] and expansions._reference_rule.cache_info().currsize == 1


# 0.3 + 0.4i lies in both the disk and the upper half-plane, so only the spec's
# family can be wrong in these calls.
_Z = 0.3 + 0.4j


@pytest.mark.parametrize(
    "family, spec, call",
    [
        ("radial", SLIT, lambda f: radial_transition(f, 0.5, _Z)),
        ("radial", SLIT, lambda f: driver_herglotz(f, 0.5, _Z)),
        ("radial", SLIT, lambda f: loewner_time_kernel(f, 0.5)),
        ("radial", SLIT, lambda f: resolution_check(f, RULE, [(_Z, _Z)])),
        ("radial", SLIT, lambda f: radial_derivative_identity_check(f, 0.5, _Z, _Z)),
        ("radial", SLIT, lambda f: dbr_element(f, 1.0, 0.0, RULE)),
        ("radial", SLIT, lambda f: koebe_log_element(f)(_Z)),
        ("radial", SLIT, lambda f: koebe_log_element_check(f, RULE, [_Z])),
        ("chordal", KOEBE, lambda f: chordal_transition(f, 0.5, _Z)),
        ("chordal", KOEBE, lambda f: driver_pick(f, 0.5, _Z)),
        ("chordal", KOEBE, lambda f: chordal_derivative_identity_check(f, 0.5, _Z, _Z)),
        ("chordal", KOEBE, lambda f: chordal_exp_kernel_check(f, RULE, [(_Z, _Z)])),
        ("chordal", KOEBE, lambda f: chordal_exp_element(f)(_Z)),
        ("chordal", KOEBE, lambda f: chordal_exp_element_check(f, RULE, [_Z])),
    ],
    ids=[
        "radial_transition",
        "driver_herglotz",
        "loewner_time_kernel",
        "resolution_check",
        "radial_derivative_identity_check",
        "dbr_element",
        "koebe_log_element",
        "koebe_log_element_check",
        "chordal_transition",
        "driver_pick",
        "chordal_derivative_identity_check",
        "chordal_exp_kernel_check",
        "chordal_exp_element",
        "chordal_exp_element_check",
    ],
)
def test_a_spec_of_the_other_family_raises_type_error(family, spec, call):
    with pytest.raises(TypeError, match=f"^expected a {family} flow spec, got {type(spec).__name__}$"):
        call(spec)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: QuadratureRule(np.zeros(2), np.ones(3), 0.0, 1.0), ValueError, "1-d arrays of equal length"),
        (lambda: QuadratureRule([0.5], [-1.0], 0.0, 1.0), ValueError, "nonnegative"),
        (lambda: QuadratureRule([2.0], [1.0], 0.0, 1.0), ValueError, r"lie in \[a, b\]"),
        (lambda: QuadratureRule([0.5], [0.5], 0.0, 1.0), ValueError, "sum to b - a"),
        (lambda: radial_derivative_identity_check(object(), 0.5, 0.1, 0.2), TypeError, "^unsupported flow spec object$"),
        (lambda: chordal_derivative_identity_check(object(), 0.5, 1j, 2j), TypeError, "^unsupported flow spec object$"),
        (lambda: herglotz_mixture_check(AtomicMeasure.dirac(0.5), [(0.1, 0.2)]), ValueError, "probability measure on the unit circle"),
    ],
    ids=["rule-shape", "rule-weight", "rule-node", "rule-sum", "radial-derivative-non-spec", "chordal-derivative-non-spec", "mixture-off-circle"],
)
def test_guards(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestIntegratedKernel:
    def test_paley_wiener_case(self):
        rule = gauss_legendre(64, -1.0, 1.0)
        report = paley_wiener_reconstruction_check(1.0, rule, point_pairs(rect_points(20, 3, (-1, 1, -0.3, 0.3))))
        assert report.passed

    def test_paley_wiener_removable_diagonal(self):
        rule = gauss_legendre(64, -1.0, 1.0)
        report = paley_wiener_reconstruction_check(1.0, rule, [(0.37, 0.37)])
        assert report.max_abs_err <= 1e-12

    def test_rule_must_cover_band(self):
        with pytest.raises(ValueError):
            paley_wiener_reconstruction_check(1.0, gauss_legendre(16, 0.0, 1.0), [(0.1, 0.2)])


class TestResolution:
    def test_origin_pair_exact(self):
        report = resolution_check(KOEBE, RULE, [(0.0, 0.0)])
        assert report.max_abs_err == 0.0

    def test_degenerate_interval(self):
        flow = RadialFlowSpec.koebe(0.3, 0.3)
        rule = gauss_legendre(8, 0.3, 0.3)
        report = resolution_check(flow, rule, [(0.2, 0.4j)])
        assert report.max_abs_err <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_pairs_within_tolerance(self, seed):
        report = resolution_check(KOEBE, RULE, disk_pairs(10, seed, rmax=DISK_RMAX_SAFE))
        assert report.passed and report.max_abs_err <= 1e-8

    def test_node_doubling_reduces_error_to_floor(self):
        pairs = disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)
        err32 = resolution_check(KOEBE, gauss_legendre(32, 0, 1), pairs).max_abs_err
        err64 = resolution_check(KOEBE, gauss_legendre(64, 0, 1), pairs).max_abs_err
        assert err64 <= max(err32 / 10.0, 1e-10)

    def test_simpson_backend_cross_check(self):
        pairs = disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)
        weights = np.full(65, 2.0)  # composite Simpson, 64 subintervals of [0, 1]
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        simpson = QuadratureRule(np.linspace(0.0, 1.0, 65), weights / (3.0 * 64), 0.0, 1.0)
        report = resolution_check(KOEBE, simpson, pairs, tol=1e-5)
        assert report.passed


UNIT_THREE_SEGMENT_SLIT = ChordalFlowSpec(
    0.0, 1.0, ((0.0, AtomicMeasure.dirac(0.0)), (0.4, AtomicMeasure.dirac(0.7)), (0.8, AtomicMeasure.dirac(-1.2)))
)
KOEBE_THEN_DIRAC_AT_I = RadialFlowSpec(0.0, 1.0, ((0.0, DIRAC), (0.3, AtomicMeasure.dirac(1j))))


def _derivative_family(family, n, seed):
    """(check, flow, n seeded point pairs) of one derivative identity."""
    if family == "radial":
        return radial_derivative_identity_check, KOEBE, disk_pairs(n, seed, rmax=DISK_RMAX_SAFE)
    return chordal_derivative_identity_check, SLIT, halfplane_pairs(n, seed, rect=HALFPLANE_RECT_SAFE)


class TestDerivativeIdentities:
    def test_radial_trivial_at_origin(self):
        for lam, z in ((0.0, 0.4), (0.4, 0.0)):
            report = radial_derivative_identity_check(KOEBE, 0.5, lam, z)
            assert report.max_abs_err <= 1e-11

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_radial_seeded(self, seed):
        times = np.random.RandomState(seed).uniform(1e-3, 1.0 - 1e-3, size=20)
        lam, z = np.transpose(disk_pairs(20, seed, rmax=DISK_RMAX_SAFE))
        report = radial_derivative_identity_check(KOEBE, times, lam, z)
        assert report.passed and report.sample_pairs == 20

    def test_radial_example_configuration(self):
        report = radial_derivative_identity_check(KOEBE, 0.5, 0.3, 0.4j, h=1e-4)
        assert report.max_abs_err <= 1e-5

    def test_step_too_large_rejected(self):
        with pytest.raises(ValueError):
            radial_derivative_identity_check(KOEBE, 0.5, 0.3, 0.4j, h=0.6)
        with pytest.raises(ValueError):
            chordal_derivative_identity_check(SLIT, 0.5, 1j, 1 + 1j, h=0.6)

    @pytest.mark.parametrize("family", ["radial", "chordal"])
    def test_step_too_large_for_one_pair_rejected(self, family):
        check, flow, pairs = _derivative_family(family, 3, 1)
        first, second = np.transpose(pairs)
        with pytest.raises(ValueError, match="too large"):
            check(flow, [0.5, 0.99995, 0.5], first, second, h=1e-4)

    @pytest.mark.parametrize(
        "check, flow, first, second",
        [
            (radial_derivative_identity_check, RadialFlowSpec.koebe(1e13, 1e13 + 1.0), 0.3, 0.4j),
            (chordal_derivative_identity_check, ChordalFlowSpec.basic_slit(1e13, 1e13 + 1.0), 1j, 1 + 1j),
        ],
        ids=["radial", "chordal"],
    )
    def test_step_below_time_resolution_rejected(self, check, flow, first, second):
        # One ulp at t = 1e13 is about 2e-3: t - h and t + h round to t.
        with pytest.raises(ValueError, match=r"h = 0\.0001 is below the time resolution at t = 10000000000000\.5"):
            check(flow, [1e13 + 0.5, 1e13 + 0.25], first, second)

    @pytest.mark.parametrize(
        "check, flow, t, first, second, breakpoint, clear_t",
        [
            (chordal_derivative_identity_check, UNIT_THREE_SEGMENT_SLIT, [0.2, 0.4], 1j, 1j, 0.4, 0.4001),
            (radial_derivative_identity_check, KOEBE_THEN_DIRAC_AT_I, 0.3, 0.2, 0.3j, 0.3, 0.3001),
        ],
        ids=["chordal", "radial"],
    )
    def test_window_holding_a_driver_breakpoint_rejected(self, check, flow, t, first, second, breakpoint, clear_t):
        # B_t has a kink at a breakpoint: a central difference across one
        # misses the derivative by 0.080 (chordal) and 2.7e-3 (radial).
        with pytest.raises(ValueError, match=rf"h = 0\.0001 too large: .* at t = {breakpoint} holds the driver breakpoint {breakpoint}$"):
            check(flow, t, first, second)
        # A window that ends at the breakpoint sees one segment only.
        assert check(flow, clear_t, first, second).passed

    @pytest.mark.parametrize("family", ["radial", "chordal"])
    def test_scalar_time_broadcasts_against_point_arrays(self, family):
        check, flow, pairs = _derivative_family(family, 6, 2)
        first, second = np.transpose(pairs)
        report = check(flow, 0.5, first, second)
        assert report.sample_pairs == 6
        assert report.max_abs_err == pytest.approx(max(check(flow, 0.5, a, b).max_abs_err for a, b in pairs), rel=0, abs=1e-12)
        assert check(flow, 0.5, first[0], second).sample_pairs == 6

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["radial", "chordal"]), st.integers(1, 12), st.integers(0, 10**6))
    def test_array_call_matches_scalar_calls(self, family, n, seed):
        # numpy may round an element of a long array differently from the
        # same element alone, and the FD quotient scales that by 1/h.
        check, flow, pairs = _derivative_family(family, n, seed)
        times = np.random.RandomState(seed).uniform(1e-3, 1.0 - 1e-3, size=n)
        first, second = np.transpose(pairs)
        report = check(flow, times, first, second)
        scalar = max(check(flow, t, a, b).max_abs_err for t, (a, b) in zip(times, pairs))
        assert report.sample_pairs == n
        assert abs(report.max_abs_err - scalar) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_chordal_seeded(self, seed):
        times = np.random.RandomState(seed).uniform(1e-3, 1.0 - 1e-3, size=20)
        alpha, z = np.transpose(halfplane_pairs(20, seed, rect=HALFPLANE_RECT_SAFE))
        report = chordal_derivative_identity_check(SLIT, times, alpha, z)
        assert report.passed and report.sample_pairs == 20

    def test_chordal_example_configuration(self):
        report = chordal_derivative_identity_check(SLIT, 0.5, 1j, 1 + 1j, h=1e-4)
        assert report.max_abs_err <= 1e-5

    def test_chordal_start_quotient_is_one(self):
        # at t = r the quotient is (z - conj(alpha))/(z - conj(alpha)) = 1
        alpha, z = 0.5 + 1j, -0.3 + 0.8j
        q = (chordal_transition(SLIT, 0.0, z) - chordal_transition(SLIT, 0.0, alpha).conjugate()) / (z - alpha.conjugate())
        assert abs(q - 1.0) <= 1e-15


class TestDbrElement:
    def test_zero_weight_gives_zero_function(self):
        f = dbr_element(KOEBE, 0.0, 0.2 + 0.1j, RULE)
        assert f(0.3 - 0.4j) == 0.0

    def test_vanishes_at_origin(self):
        for h, lam in ((1.0, 0.0), (2.5, 0.3 + 0.2j), (lambda t: t, -0.4j)):
            f = dbr_element(KOEBE, h, lam, RULE)
            assert abs(f(0.0)) <= 1e-15

    def test_linearity_in_h(self):
        lam = 0.2 + 0.1j
        f1 = dbr_element(KOEBE, 1.0, lam, RULE)
        f2 = dbr_element(KOEBE, lambda t: t * t, lam, RULE)
        f12 = dbr_element(KOEBE, lambda t: 1.0 + t * t, lam, RULE)
        for z in disk_points(10, 6):
            assert abs(f12(z) - f1(z) - f2(z)) <= 1e-12

    def test_koebe_flow_matches_the_koebe_integrand(self):
        # With phi(w) = (1 - w) / (1 + w), half of conj(phi(u)) + phi(w) is
        # (1 - conj(u) w) / ((1 + conj(u)) (1 + w)).
        lam, z = 0.3 + 0.2j, np.array([0.4 - 0.1j, -0.5j, 0.0, 0.6])
        nodes = RULE.nodes[:, None]
        b_lam = radial_transition(KOEBE, nodes, lam).conjugate()
        bz = radial_transition(KOEBE, nodes, z)
        table = bz * (1.0 - b_lam * bz) / (1.0 - lam.conjugate() * z) * np.cos(7.0 * nodes) / ((1.0 + b_lam) * (1.0 + bz))
        element = dbr_element(KOEBE, lambda t: math.cos(7.0 * t), lam, RULE)
        assert np.max(np.abs(element(z) - RULE.weights @ table)) <= 1e-14

    def test_three_segment_driver_closed_form_matches_rk4(self):
        driver = ((0.0, DIRAC), (0.3, AtomicMeasure.dirac(complex(math.cos(2.1), math.sin(2.1)))), (0.7, AtomicMeasure.dirac(1j)))
        exact = RadialFlowSpec(0.0, 1.0, driver)
        rk4 = RadialFlowSpec(0.0, 1.0, driver, backend="rk4")
        rule = flow_rule(exact, 16)
        z = np.array([0.4 - 0.1j, -0.5j, 0.6])
        for h, lam in ((1.0, 0.0), (lambda t: math.cos(7.0 * t), 0.3 + 0.2j)):
            assert np.max(np.abs(dbr_element(exact, h, lam, rule)(z) - dbr_element(rk4, h, lam, rule)(z))) <= 1e-10


class TestKoebeLogElement:
    def test_zero_at_origin_and_degenerate_interval(self):
        report = koebe_log_element_check(KOEBE, RULE, [0.0])
        assert report.max_abs_err <= 1e-15
        flow0 = RadialFlowSpec.koebe(0.5, 0.5)
        report0 = koebe_log_element_check(flow0, gauss_legendre(8, 0.5, 0.5), [0.3 + 0.1j])
        assert report0.max_abs_err <= 1e-15

    def test_element_matches_cmath_on_scalars_and_arrays(self):
        element = koebe_log_element(KOEBE)
        pts = np.reshape(disk_points(20, 1), (4, 5))
        closed = np.array([[cmath.log((1 - radial_transition(KOEBE, 1.0, z)) / (1 - z)) for z in row] for row in pts])
        values = element(pts)
        assert values.shape == (4, 5) and np.max(np.abs(values - closed)) <= 1e-15
        assert np.shape(element(pts[0, 0])) == () and element(pts[0, 0]) == values[0, 0]

    def test_off_branch_point_raises(self, monkeypatch):
        # B(z) = 3z gives Re(1 - B(z)) <= 0 from Re z = 1/3 on.
        monkeypatch.setattr(expansions, "radial_transition", lambda flow, t, z: 3.0 * z)
        with pytest.raises(BranchCutError, match=r"at z = \(0\.5\+0j\)"):
            koebe_log_element(KOEBE)([0.1, 0.5, 0.6])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_points(self, seed):
        report = koebe_log_element_check(KOEBE, RULE, disk_points(20, seed, rmax=DISK_RMAX_SAFE))
        assert report.passed and report.max_abs_err <= 1e-8


    @pytest.mark.parametrize(
        "flow, rule",
        [
            (RadialFlowSpec(0.0, 1.0, ((0.0, AtomicMeasure.dirac(1j)),)), RULE),
            (KOEBE_THEN_DIRAC_AT_I, flow_rule(KOEBE_THEN_DIRAC_AT_I, 32)),
            (RadialFlowSpec(0.0, 1.0, ((0.0, MIX),), backend=RUNGE_KUTTA), RULE),
        ],
        ids=["dirac-at-i", "koebe-then-dirac-at-i", "two-atoms"],
    )
    def test_a_driver_other_than_koebe_raises_when_built(self, flow, rule):
        other = next(mu for _, _, mu in flow.segments if mu != DIRAC)
        with pytest.raises(ValueError, match=re.escape(f"got {other}")):
            koebe_log_element(flow)
        with pytest.raises(ValueError, match="needs the Koebe driver"):
            koebe_log_element_check(flow, rule, disk_points(20, 1, rmax=0.7))

    def test_a_non_koebe_measure_outside_the_interval_is_no_piece(self):
        # The Dirac at i applies before 0.5 only; a degenerate interval has no piece.
        driver = ((0.0, AtomicMeasure.dirac(1j)), (0.5, AtomicMeasure.dirac(complex(-1.0, 1e-13))))
        flow = RadialFlowSpec(0.5, 1.0, driver)
        assert koebe_log_element_check(flow, flow_rule(flow, 64), disk_points(20, 1, rmax=DISK_RMAX_SAFE)).passed
        assert koebe_log_element(RadialFlowSpec(0.5, 0.5, driver[:1]))(0.3 + 0.1j) == 0.0


_HALF_RULE = gauss_legendre(64, 0.0, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: resolution_check(KOEBE, _HALF_RULE, disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)),
        lambda: dbr_element(KOEBE, 1.0, 0.0, _HALF_RULE),
        lambda: koebe_log_element_check(KOEBE, _HALF_RULE, disk_points(20, 1, rmax=DISK_RMAX_SAFE)),
        lambda: chordal_exp_kernel_check(SLIT, _HALF_RULE, halfplane_pairs(10, 1, rect=HALFPLANE_RECT_SAFE)),
        lambda: chordal_exp_element_check(SLIT, _HALF_RULE, halfplane_points(20, 1, rect=HALFPLANE_RECT_SAFE)),
    ],
    ids=["resolution_check", "dbr_element", "koebe_log_element_check", "chordal_exp_kernel_check", "chordal_exp_element_check"],
)
def test_a_rule_that_does_not_span_the_flow_raises(call):
    with pytest.raises(ValueError, match=re.escape("rule on [0.0, 0.5] must span [0.0, 1.0]")):
        call()


def test_a_rule_within_1e_12_of_the_flow_interval_spans_it():
    rule = QuadratureRule(RULE.nodes, RULE.weights, 1e-13, 1.0 - 1e-13)
    assert resolution_check(KOEBE, rule, disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)).passed


class TestCayleyIsometry:
    def test_identity_map_trivial(self):
        report = cayley_isometry_check(lambda z: z, disk_pairs(5, 1, rmax=DISK_RMAX_SAFE), disk_points(6, 1, rmax=DISK_RMAX_SAFE))
        assert report.max_abs_err <= 1e-12

    def test_diagonal_pair_is_real_positive(self):
        lam = 0.3 + 0.2j
        report = cayley_isometry_check(pick_psi, [(lam, lam)], [lam])
        assert report.passed

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_pairs_and_gram(self, seed):
        pairs = disk_pairs(10, seed, rmax=DISK_RMAX_SAFE)
        gram_pts = disk_points(6, seed + 100, rmax=DISK_RMAX_SAFE)
        report = cayley_isometry_check(pick_psi, pairs, gram_pts)
        assert report.passed and report.max_abs_err <= 1e-10

    def test_degenerate_psi_rejected(self):
        with pytest.raises(ValueError):
            cayley_isometry_check(lambda z: 1.0 + 0j, [(0.1, 0.2)], [0.1, 0.2])


class TestPickConstantElement:
    def test_identity_psi_gives_constant_one(self):
        rep = PickRepresentation(0.0, 1.0, AtomicMeasure(()))
        f = pick_constant_element(lambda z: z, rep)
        for z in disk_points(5, 2):
            assert abs(f(z) - 1.0) <= 1e-15

    def test_value_at_origin(self):
        rep = PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(0.0, math.pi))
        f = pick_constant_element(pick_psi, rep)
        assert abs(f(0.0) - (1.0 - pick_psi(0.0))) <= 1e-15

    def test_zero_c_rejected(self):
        rep = PickRepresentation(0.0, 0.0, AtomicMeasure.dirac(0.0, math.pi))
        with pytest.raises(ValueError):
            pick_constant_element(pick_psi, rep)


class TestNevanlinnaSplit:
    def test_pure_linear_part_constant_kernel(self):
        rep = PickRepresentation(0.5, 2.0, AtomicMeasure(()))
        report = nevanlinna_split_check(rep, halfplane_pairs(5, 1))
        assert report.max_abs_err <= 1e-15

    def test_hand_checked_single_atom_diagonal(self):
        rep = PickRepresentation(0.0, 0.0, AtomicMeasure.dirac(0.0, math.pi))
        report = nevanlinna_split_check(rep, [(1j, 1j)])
        assert report.max_abs_err == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_pairs_exact(self, seed):
        rep = PickRepresentation(1.0, 2.0, AtomicMeasure.dirac(1.0, math.pi))
        report = nevanlinna_split_check(rep, halfplane_pairs(10, seed))
        assert report.passed and report.max_abs_err <= 1e-12


class TestChordalExpKernel:
    def test_degenerate_interval(self):
        flow = ChordalFlowSpec.basic_slit(0.5, 0.5)
        rule = gauss_legendre(8, 0.5, 0.5)
        report = chordal_exp_kernel_check(flow, rule, [(1j, 2j)])
        assert report.max_abs_err <= 1e-15

    def test_hand_checked_anchor_sqrt3(self):
        report = chordal_exp_kernel_check(SLIT, RULE, [(1j, 1j)], tol=1e-10)
        assert report.max_abs_err <= 1e-10
        b_end = chordal_transition(SLIT, 1.0, 1j)
        rhs = (b_end - b_end.conjugate()) / (1j - (1j).conjugate())
        assert abs(rhs - math.sqrt(3)) <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_pairs(self, seed):
        pairs = halfplane_pairs(10, seed, rect=HALFPLANE_RECT_SAFE)
        report = chordal_exp_kernel_check(SLIT, RULE, pairs)
        assert report.passed and report.max_abs_err <= 1e-8


class TestChordalExpElement:
    def test_degenerate_interval(self):
        flow = ChordalFlowSpec.basic_slit(0.5, 0.5)
        rule = gauss_legendre(8, 0.5, 0.5)
        report = chordal_exp_element_check(flow, rule, [1j])
        assert report.max_abs_err <= 1e-15

    def test_closed_form_at_i(self):
        report = chordal_exp_element_check(SLIT, RULE, [1j])
        value = cmath.exp(sum(w / chordal_transition(SLIT, t, 1j) for t, w in zip(RULE.nodes, RULE.weights)))
        assert abs(value - cmath.exp(1j - 1j * math.sqrt(3))) <= 1e-12
        assert report.max_abs_err <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seeded_points_and_membership(self, seed):
        pts = halfplane_points(20, seed, rect=HALFPLANE_RECT_SAFE)
        report = chordal_exp_element_check(SLIT, RULE, pts)
        assert report.passed and report.max_abs_err <= 1e-8
        kernel = PickSpaceKernel(lambda z: chordal_transition(SLIT, 1.0, z))
        sets = membership_halfplane_sets((16, 32, 64, 128), seed)
        membership = membership_test(kernel, chordal_exp_element(SLIT), sets, eps=1e-8)
        assert membership.verdict == BOUNDED


# Chordal flows other than the basic slit: two segments of two-atom measures,
# which only RK4 evaluates, and the three-segment single-atom driver of
# test_flows.TestSegmentedClosedForm, which the closed form evaluates.
GENERAL_CHORDAL = {
    "two-atom-rk4": ChordalFlowSpec(
        0.0,
        1.0,
        ((0.0, AtomicMeasure(((0.0, 0.6), (1.3, 0.4)))), (0.5, AtomicMeasure(((-0.8, 0.5), (0.4, 1.0))))),
        backend=RUNGE_KUTTA,
        ode=OdeConfig(1e-3),
    ),
    "three-segment-closed-form": ChordalFlowSpec(
        0.0, 1.0, ((0.0, AtomicMeasure.dirac(0.0)), (0.4, AtomicMeasure.dirac(0.7, 0.5)), (0.8, AtomicMeasure.dirac(-1.2, 2.0)))
    ),
}


@pytest.mark.parametrize("name", sorted(GENERAL_CHORDAL))
class TestGeneralChordalDrivers:
    """The chordal identities hold for any driver, read through driver_pick;
    each check runs at its default tolerance."""

    def test_exp_kernel(self, name):
        flow = GENERAL_CHORDAL[name]
        report = chordal_exp_kernel_check(flow, flow_rule(flow, 32), halfplane_pairs(10, 1, rect=HALFPLANE_RECT_SAFE))
        assert report.passed and report.sample_pairs == 10

    def test_exp_element(self, name):
        flow = GENERAL_CHORDAL[name]
        report = chordal_exp_element_check(flow, flow_rule(flow, 32), halfplane_points(20, 1, rect=HALFPLANE_RECT_SAFE))
        assert report.passed and report.sample_pairs == 20

    def test_derivative(self, name):
        flow, h = GENERAL_CHORDAL[name], 1e-4
        times = 0.05 + 0.1 * np.arange(10)
        # Every window [t - h, t + h] stays at least h from a breakpoint, where
        # the driver jumps and the central difference would not converge.
        breakpoints = np.array([bp for bp, _ in flow.driver])
        assert np.min(np.abs(times[:, None] - breakpoints[None, :])) >= 2.0 * h
        alpha, z = np.transpose(halfplane_pairs(10, 1, rect=HALFPLANE_RECT_SAFE))
        report = chordal_derivative_identity_check(flow, times, alpha, z, h)
        assert report.passed and report.sample_pairs == 10


class TestHerglotzMixture:
    def test_single_atom_exact(self):
        report = herglotz_mixture_check(AtomicMeasure.dirac(-1.0), disk_pairs(5, 1))
        assert report.max_abs_err <= 1e-15

    def test_symmetric_mixture_diagonal_value(self):
        from loewnerkit import HerglotzSpaceKernel, herglotz_eval

        mu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
        report = herglotz_mixture_check(mu, [(0.0, 0.0)])
        assert report.max_abs_err == 0.0
        diagonal = HerglotzSpaceKernel(lambda z: herglotz_eval(mu, z))(0.0, 0.0)
        assert diagonal == 2.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_three_atom_mixture_exact(self, seed):
        mu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.3), (cmath.exp(0.7j), 0.2)))
        report = herglotz_mixture_check(mu, disk_pairs(10, seed))
        assert report.passed and report.max_abs_err <= 1e-12

    def test_non_probability_rejected(self):
        with pytest.raises(ValueError):
            herglotz_mixture_check(AtomicMeasure.dirac(-1.0, 0.5), [(0.1, 0.2)])
