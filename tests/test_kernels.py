import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewnerkit import (
    BOUNDED,
    AtomicMeasure,
    INCONCLUSIVE,
    UNBOUNDED,
    DbrDiskKernel,
    HerglotzSpaceKernel,
    PaleyWienerKernel,
    PickSpaceKernel,
    RadialFlowSpec,
    gram,
    herglotz_eval,
    loewner_time_kernel,
    membership_test,
    psd_check,
    radial_transition,
)
from loewnerkit import kernels
from loewnerkit.errors import DomainError, NumericsError
from loewnerkit.representations import DIRAC_MINUS_ONE
from loewnerkit.sampling import (
    disk_pairs,
    disk_points,
    halfplane_points,
    membership_disk_sets,
    nested_prefix_sets,
    rect_points,
)

KOEBE = RadialFlowSpec.koebe(0.0, 1.0)


def _koebe_end(z):
    return radial_transition(KOEBE, 1.0, z)


def _pick_phi(w):
    return w - 1.0 / w


def _catalog():
    return [
        (DbrDiskKernel(_koebe_end), "disk"),
        (HerglotzSpaceKernel(lambda z: herglotz_eval(DIRAC_MINUS_ONE, z)), "disk"),
        (PickSpaceKernel(_pick_phi), "halfplane"),
        (PaleyWienerKernel(1.0), "plane"),
        (loewner_time_kernel(KOEBE, 0.5), "disk"),
    ]


def _points_for(domain, n, seed):
    if domain == "disk":
        return disk_points(n, seed)
    if domain == "halfplane":
        return halfplane_points(n, seed)
    return rect_points(n, seed, (-1.0, 1.0, -0.35, 0.35))


class TestKernelEval:
    def test_identity_map_gives_constant_one(self):
        k = DbrDiskKernel(lambda z: z)
        for z, w in disk_pairs(10, 1):
            assert abs(k(z, w) - 1.0) < 1e-14

    def test_paley_wiener_diagonal_is_twice_bandwidth(self):
        k = PaleyWienerKernel(1.0)
        assert abs(k(0.3, 0.3) - 2.0) < 1e-15
        assert abs(k(0.3 + 1e-6, 0.3) - 2.0) < 1e-10

    def test_paley_wiener_series_matches_direct_formula(self):
        k = PaleyWienerKernel(0.75)
        # near the removable singularity at z = conj(w)
        for d in (1e-6, 1e-5, 3e-5, 1e-4, 1e-3):
            xi = complex(d, d / 3)
            direct = cmath.sin(2 * math.pi * 0.75 * xi) / (math.pi * xi)
            assert abs(k(0.2 + xi, 0.2) - direct) < 1e-12

    def test_loewner_time_diagonal_formula_and_bound(self):
        k = loewner_time_kernel(KOEBE, 0.5)
        lam = 0.3 + 0.25j
        bt = radial_transition(KOEBE, 0.5, lam)
        expected = 2.0 * herglotz_eval(DIRAC_MINUS_ONE, bt).real / (1.0 - abs(lam) ** 2)
        diag = k(lam, lam)
        assert diag.real >= 0.0
        assert abs(diag - expected) < 1e-14
        bound = 2.0 * (1.0 + abs(bt)) / ((1.0 - abs(lam) ** 2) * (1.0 - abs(bt)))
        assert diag.real <= bound

    @pytest.mark.parametrize("t, segment", [(0.5 - 1e-3, 0), (0.5 - 1e-11, 0), (0.5, 1), (0.5 + 1e-3, 1)])
    def test_loewner_time_kernel_uses_the_measure_of_its_segment(self, t, segment):
        mix = AtomicMeasure(((1j, 0.5), (-1j, 0.5)))
        flow = RadialFlowSpec(0.0, 1.0, ((0.0, DIRAC_MINUS_ONE), (0.5, mix)), backend="rk4")
        mu = (DIRAC_MINUS_ONE, mix)[segment]
        z, w = np.array([0.3 + 0.25j, -0.1j]), np.array([0.2, -0.5 + 0.4j])
        bz, bw = radial_transition(flow, t, z), radial_transition(flow, t, w)
        expected = (herglotz_eval(mu, bw).conjugate() + herglotz_eval(mu, bz)) / (1.0 - w.conjugate() * z)
        assert np.array_equal(loewner_time_kernel(flow, t)(z, w), expected)

    @pytest.mark.parametrize("t", [-1e-11, 1.0 + 1e-11, 7.0])
    def test_loewner_time_kernel_rejects_a_time_outside_the_flow_when_built(self, t):
        with pytest.raises(DomainError, match="outside flow interval"):
            loewner_time_kernel(KOEBE, t)

    @pytest.mark.parametrize("spec,domain", _catalog())
    def test_hermitian_symmetry(self, spec, domain):
        rng = np.random.RandomState(13)
        for _ in range(1000):
            if domain == "disk":
                r = 0.95 * np.sqrt(rng.uniform(size=2))
                th = rng.uniform(0, 2 * np.pi, size=2)
                z, w = (complex(a * np.cos(b), a * np.sin(b)) for a, b in zip(r, th))
            elif domain == "halfplane":
                z, w = (complex(rng.uniform(-2, 2), rng.uniform(0.05, 2)) for _ in range(2))
            else:
                z, w = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
            assert abs(spec(z, w) - spec(w, z).conjugate()) <= 1e-12


def _ones(z, w):
    return np.ones(np.broadcast(z, w).shape)


def _first_close_pair(points):
    """The first (i, j), i < j, in row-major order with |z_i - z_j| < DUPLICATE_TOL, by brute force."""
    pts = np.asarray(points, dtype=complex)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.abs(pts[i] - pts[j]) < kernels.DUPLICATE_TOL:
                return i, j
    return None


# Points whose coordinates share two values, shifted by multiples of
# DUPLICATE_TOL either side of it, and non-finite points.
def _coordinate(shifts):
    return st.builds(lambda base, shift: base + shift * kernels.DUPLICATE_TOL, st.sampled_from([0.0, 0.3]), st.sampled_from(shifts))


_near_duplicate_points = st.one_of(
    st.builds(
        complex,
        _coordinate([-2.0, -1.01, -1.0, -0.99, -0.5, 0.0, 0.5, 0.99, 1.0, 1.01]),
        _coordinate([-1.0, -0.5, 0.0, 0.5, 1.0]),
    ),
    st.sampled_from([complex("nan"), complex("inf"), complex(math.inf, math.nan), complex(math.nan, 0.5), complex(0.3, math.inf)]),
)


class TestGram:
    def test_single_point_diagonal_nonnegative(self):
        g = gram(DbrDiskKernel(_koebe_end), [0.4 + 0.1j])
        assert isinstance(g, np.ndarray) and g.shape == (1, 1) and g[0, 0].real >= 0.0

    def test_identity_map_gram_all_ones(self):
        g = gram(DbrDiskKernel(lambda z: z), [0.1, 0.3 + 0.2j, -0.4j])
        assert np.max(np.abs(g - 1.0)) < 1e-14

    def test_pick_identity_gram_all_ones(self):
        g = gram(PickSpaceKernel(lambda z: z), [1j, 2j])
        assert np.max(np.abs(g - 1.0)) < 1e-15

    @pytest.mark.parametrize("spec,domain", _catalog())
    def test_matches_per_entry_kernel_calls(self, spec, domain):
        pts = _points_for(domain, 12, 7)
        matrix = gram(spec, pts)
        reference = np.array([[spec(z, w) for w in pts] for z in pts])
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(matrix - reference)) <= 1e-13 * scale

    def test_out_of_domain_point_raises_domain_error(self):
        with pytest.raises(DomainError, match="1.5"):
            gram(DbrDiskKernel(_koebe_end), [0.1, 1.5, 0.2j])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            gram(DbrDiskKernel(_koebe_end), [0.1, 0.1 + 5e-11])

    def test_duplicate_message_names_the_lexicographically_first_pair(self):
        # The sort by real part meets the pair (1, 3) first; the message still names (0, 2).
        with pytest.raises(ValueError, match=r"^points 0 and 2 coincide within 1e-10$"):
            gram(_ones, [0.3, 0.1, 0.3 + 5e-11, 0.1 + 5e-11j])

    @pytest.mark.parametrize("line", [1j * np.linspace(-0.9, 0.9, 521), np.linspace(-0.9, 0.9, 521)], ids=["vertical", "horizontal"])
    def test_lines_of_distinct_points_pass(self, line):
        assert gram(_ones, line).shape == (521, 521)

    def test_planted_duplicate_on_a_vertical_line_named(self):
        line = 1j * np.linspace(-0.9, 0.9, 521)
        line[400] = line[17] + 3e-11j
        with pytest.raises(ValueError, match=r"^points 17 and 400 coincide"):
            gram(_ones, line)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(_near_duplicate_points, max_size=24))
    def test_duplicate_test_matches_all_pairs(self, points):
        with np.errstate(invalid="ignore"):  # inf - inf
            pair = _first_close_pair(points)
            if pair is None:
                assert gram(_ones, points).shape == (len(points), len(points))
            else:
                with pytest.raises(ValueError, match=rf"^points {pair[0]} and {pair[1]} coincide"):
                    gram(_ones, points)

    @pytest.mark.parametrize("entries,named", [({(0, 1): complex("nan"), (1, 0): 5.0}, (0, 1)), ({(2, 1): complex("inf"), (1, 2): complex("inf")}, (1, 2))])
    def test_non_finite_entry_rejected(self, entries, named):
        # A NaN would pass every tolerance test (nan > tol is False) and leave
        # psd_check to read only one triangle.
        def spec(z, w):
            k = np.ones(np.broadcast(z, w).shape, dtype=complex)
            for at, value in entries.items():
                k[at] = value
            return k

        with pytest.raises(ValueError, match=rf"^matrix entry \({named[0]}, {named[1]}\) is not finite$"):
            gram(spec, [0.1, 0.2, 0.3])

    def test_non_hermitian_matrix_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            gram(lambda z, w: 1.0 + z - w, [0.1, 0.2])

    def test_negative_diagonal_rejected(self):
        # -conj(w) z is Hermitian with diagonal -|z|^2.
        with pytest.raises(ValueError, match="diagonal must be nonnegative"):
            gram(lambda z, w: -np.conjugate(w) * z, [0.5, 0.6j])

    def test_complex_diagonal_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            gram(lambda z, w: (1.0 + 1e-6j) * np.ones(np.broadcast(z, w).shape), [0.1, 0.2])

    def test_non_square_kernel_value_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gram(lambda z, w: 1.0, [0.1, 0.2])


class TestPsdCheck:
    def test_identity_passes(self):
        assert psd_check(np.eye(2), 1e-8) == (1.0, True)

    def test_indefinite_hand_matrix_fails(self):
        min_eig, ok = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)
        assert abs(min_eig + 1.0) < 1e-12 and not ok

    def test_herglotz_gram_passes(self):
        g = gram(HerglotzSpaceKernel(lambda z: herglotz_eval(DIRAC_MINUS_ONE, z)), disk_points(8, 3))
        _, ok = psd_check(g, 1e-8)
        assert ok

    @pytest.mark.parametrize("spec,domain", _catalog())
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_catalog_psd_on_seeded_grams(self, spec, domain, seed):
        g = gram(spec, _points_for(domain, 8, seed))
        min_eig, ok = psd_check(g, 1e-8)
        assert ok, f"min eigenvalue {min_eig}"


def test_rank_one_factorization_of_elementary_herglotz_kernel():
    rng = np.random.RandomState(17)
    for _ in range(100):
        xi = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        k = HerglotzSpaceKernel(lambda z, mu=AtomicMeasure.dirac(xi): herglotz_eval(mu, z))
        r = 0.95 * np.sqrt(rng.uniform(size=2))
        th = rng.uniform(0, 2 * np.pi, size=2)
        z, w = (complex(a * np.cos(b), a * np.sin(b)) for a, b in zip(r, th))
        rank_one = 2.0 / ((1.0 - (xi * w).conjugate()) * (1.0 - xi * z))
        assert abs(k(z, w) - rank_one) <= 1e-12


def _log_element(z):
    return cmath.log((1.0 - _koebe_end(z)) / (1.0 - z))


def _reciprocal_pole(z):
    return 1.0 / (1.0 - z)


def _per_level_oracle(spec, func, sets, eps):
    """v* (K_l + eps I)^{-1} v by an independent dense solve on every level."""
    out = []
    for s in sets:
        p = np.array(s, dtype=complex)
        k = np.asarray(spec(p[:, None], p[None, :]), dtype=complex)
        v = np.array([func(z) for z in s], dtype=complex)
        out.append(float(np.real(np.vdot(v, np.linalg.solve(k + eps * np.eye(len(s)), v)))))
    return out


class TestNormEstimate:
    """The regularized finite-section estimates v* (K_l + eps I)^{-1} v of membership_test."""

    def test_zero_values_give_zero(self):
        pts = disk_points(10, 4)
        report = membership_test(DbrDiskKernel(_koebe_end), lambda z: 0.0, [[], pts[:5], pts], eps=1e-8)
        assert report.point_counts == (0, 5, 10) and report.estimates == (0.0, 0.0, 0.0)

    def test_reproducing_column_recovers_diagonal(self):
        spec = DbrDiskKernel(_koebe_end)
        pts = disk_points(12, 9)
        lam = pts[4]
        report = membership_test(spec, lambda p: spec(p, lam), nested_prefix_sets(pts, [6, 12]), eps=1e-12)
        for est in report.estimates:
            assert abs(est - spec(lam, lam).real) <= 1e-6

    def test_monotone_in_nested_sets_for_fixed_eps(self):
        sets = nested_prefix_sets(disk_points(64, 5), [8, 16, 32, 64])
        ests = membership_test(DbrDiskKernel(_koebe_end), _log_element, sets, eps=1e-8).estimates
        assert all(b >= a - 1e-8 for a, b in zip(ests, ests[1:]))

    @pytest.mark.parametrize("func, rtol", [(_log_element, 1e-10), (_reciprocal_pole, 1e-6)], ids=["log", "pole"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimates_match_per_level_solve(self, func, rtol, seed):
        spec = DbrDiskKernel(_koebe_end)
        sets = membership_disk_sets((16, 32, 64, 128), seed)
        report = membership_test(spec, func, sets, eps=1e-8)
        for est, ref in zip(report.estimates, _per_level_oracle(spec, func, sets, 1e-8), strict=True):
            assert abs(est - ref) <= rtol * abs(ref)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_permuting_each_set_leaves_estimates_unchanged(self, data):
        spec = DbrDiskKernel(_koebe_end)
        sets = membership_disk_sets((8, 16, 32), 2)
        shuffled = [data.draw(st.permutations(s)) for s in sets]
        ref = membership_test(spec, _log_element, sets, eps=1e-8).estimates
        got = membership_test(spec, _log_element, shuffled, eps=1e-8).estimates
        for a, b in zip(got, ref, strict=True):
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_one_gram_one_cholesky_one_func_call_per_point(self, monkeypatch):
        calls = {"gram": 0, "cholesky": 0}
        mapped = []
        real_gram, real_cholesky = kernels.gram, np.linalg.cholesky

        def counting_gram(spec, points):
            calls["gram"] += 1
            return real_gram(spec, points)

        def counting_cholesky(a):
            calls["cholesky"] += 1
            return real_cholesky(a)

        def func(z):
            mapped.append(z)
            return _log_element(z)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        sets = membership_disk_sets((16, 32, 64, 128), 1)
        membership_test(DbrDiskKernel(_koebe_end), func, sets, eps=1e-8)
        assert calls == {"gram": 1, "cholesky": 1}
        assert len(mapped) == len(set(mapped)) and set(mapped) == {complex(p) for s in sets for p in s}

    def test_report_carries_eps_and_min_pivot(self):
        spec = DbrDiskKernel(_koebe_end)
        sets = membership_disk_sets((16, 32, 64), 1)
        report = membership_test(spec, _reciprocal_pole, sets, eps=1e-8)
        # Every pivot of K + eps I is at least its smallest eigenvalue, about eps.
        assert report.eps == 1e-8
        pts = np.asarray(sets[-1])
        assert 0.5e-8 <= report.min_pivot <= float(np.max(spec(pts, pts).real)) + 1e-8

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            membership_test(DbrDiskKernel(_koebe_end), lambda z: 0.0, membership_disk_sets((8, 16), 1), eps=eps)

    def test_indefinite_kernel_raises_numerics_error_naming_eps(self):
        def indefinite(z, w):
            # Hermitian with diagonal 0.5, but cos(3x - 3y) - 1/2 has negative eigenvalues.
            return np.cos(3.0 * np.real(z - np.conjugate(w))) - 0.5

        sets = nested_prefix_sets(rect_points(16, 1, (-1.0, 1.0, -0.35, 0.35)), [8, 16])
        with pytest.raises(NumericsError, match="eps = 1e-08"):
            membership_test(indefinite, lambda z: 1.0, sets, eps=1e-8)


class TestMembership:
    def test_zero_function_bounded_with_zero_norm(self):
        sets = membership_disk_sets((16, 32, 64), 1)
        report = membership_test(DbrDiskKernel(_koebe_end), lambda z: 0.0, sets, eps=1e-8)
        assert report.verdict == BOUNDED and report.norm_bound == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_log_element_bounded(self, seed):
        sets = membership_disk_sets((16, 32, 64, 128), seed)
        report = membership_test(DbrDiskKernel(_koebe_end), _log_element, sets, eps=1e-8)
        assert report.verdict == BOUNDED
        assert all(b >= a - 1e-8 for a, b in zip(report.estimates, report.estimates[1:]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reciprocal_pole_unbounded(self, seed):
        sets = membership_disk_sets((16, 32, 64, 128), seed)
        report = membership_test(DbrDiskKernel(_koebe_end), _reciprocal_pole, sets, eps=1e-8)
        assert report.verdict == UNBOUNDED

    def test_halving_eps_moves_bounded_estimate_less_than_one_percent(self):
        sets = membership_disk_sets((16, 32, 64, 128), 1)
        spec = DbrDiskKernel(_koebe_end)
        full = membership_test(spec, _log_element, sets, eps=1e-8)
        half = membership_test(spec, _log_element, sets, eps=5e-9)
        rel = abs(full.estimates[-1] - half.estimates[-1]) / full.estimates[-1]
        assert full.verdict == BOUNDED and rel < 0.01

    @pytest.mark.parametrize(
        "estimates, verdict",
        [
            ((1.0, 99.0, 99.5, 100.0), BOUNDED),  # spread exactly PLATEAU_RTOL
            ((1.0, np.nextafter(99.0, 0.0), 99.5, 100.0), INCONCLUSIVE),  # just above, growth about 1x
            ((1.0, 2.0, 5.0, 20.0), UNBOUNDED),  # exactly GROWTH_RATIO x the 37-point estimate
            ((1.0, 2.0, 5.0, np.nextafter(20.0, 0.0)), INCONCLUSIVE),
        ],
    )
    def test_verdict_thresholds(self, estimates, verdict):
        assert 100.0 - 99.0 == kernels.PLATEAU_RTOL * 100.0 and 20.0 == kernels.GROWTH_RATIO * 2.0
        assert kernels._verdict((19, 37, 71, 137), estimates)[0] == verdict

    def test_verdict_comes_from_the_threshold_helper(self, monkeypatch):
        seen = []

        def scripted(counts, estimates):
            seen.append((tuple(counts), tuple(estimates)))
            return INCONCLUSIVE, None

        monkeypatch.setattr(kernels, "_verdict", scripted)
        sets = membership_disk_sets((16, 32, 64, 128), 1)
        report = membership_test(DbrDiskKernel(_koebe_end), _log_element, sets, eps=1e-8)
        assert seen == [(report.point_counts, report.estimates)]
        assert report.point_counts == (19, 37, 71, 137) and report.verdict == INCONCLUSIVE

    def test_non_nested_sets_rejected(self):
        with pytest.raises(ValueError):
            membership_test(
                DbrDiskKernel(_koebe_end),
                lambda z: 0.0,
                [disk_points(8, 1), disk_points(16, 2)],
                eps=1e-8,
            )

    def test_repeated_point_rejected(self):
        pts = disk_points(8, 1)
        for sets in ([pts[:4], pts + [pts[0]]], [pts[:4], pts[:7] + [pts[6] + 1e-12]]):
            with pytest.raises(ValueError):
                membership_test(DbrDiskKernel(_koebe_end), lambda z: 0.0, sets, eps=1e-8)

class TestDiagBoundScan:
    """The diagonal scan max k(z, z) over a sample, a finite surrogate for
    sup k(z, z) on a compact set, as demo 03 writes it."""

    def test_identity_map_gives_one(self):
        pts = np.asarray(disk_points(10, 1))
        assert np.max(np.abs(DbrDiskKernel(lambda z: z)(pts, pts) - 1.0)) < 1e-14

    def test_loewner_kernel_respects_closed_form_bound(self):
        spec = loewner_time_kernel(KOEBE, 0.5)
        sample = np.asarray(disk_points(25, 3, rmax=0.5))
        diagonal = spec(sample, sample).real
        bt = radial_transition(KOEBE, 0.5, sample)
        bounds = 2.0 * (1.0 + np.abs(bt)) / ((1.0 - np.abs(sample) ** 2) * (1.0 - np.abs(bt)))
        assert np.all(np.isfinite(diagonal)) and np.all(diagonal <= bounds)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: membership_test(PaleyWienerKernel(1.0), lambda z: 1.0, [[0.1, 0.2]], eps=1e-8), "need at least two nested point sets"),
        (lambda: membership_test(PaleyWienerKernel(1.0), lambda z: 1.0, [[0.1, 0.2], [0.1, 0.2]], eps=1e-8), "point counts must be strictly increasing"),
        (lambda: PaleyWienerKernel(0.0), "bandwidth must be positive"),
    ],
    ids=["one-set", "equal-counts", "zero-bandwidth"],
)
def test_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()
