"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import cmath
import json
import math
import re

import numpy as np

from loewnerkit import (
    BOUNDED,
    UNBOUNDED,
    AtomicMeasure,
    ChordalFlowSpec,
    DbrDiskKernel,
    PaleyWienerKernel,
    PickRepresentation,
    RadialFlowSpec,
    cayley_isometry_check,
    cayley_to_disk,
    cayley_to_halfplane,
    chordal_derivative_identity_check,
    chordal_exp_element_check,
    chordal_exp_kernel_check,
    chordal_transition,
    gauss_legendre,
    gram,
    koebe_log_element,
    koebe_log_element_check,
    herglotz_mixture_check,
    membership_test,
    nevanlinna_split_check,
    paley_wiener_reconstruction_check,
    pick_constant_element,
    pick_eval,
    psd_check,
    radial_derivative_identity_check,
    radial_transition,
    resolution_check,
)
from loewnerkit.cli import MEMBERSHIP_EPS, MEMBERSHIP_SIZES, kernel_catalog, main, pick_psi
from loewnerkit.flows import RUNGE_KUTTA
from loewnerkit.sampling import (
    DISK_RMAX_SAFE,
    HALFPLANE_RECT_SAFE,
    disk_pairs,
    disk_points,
    halfplane_pairs,
    halfplane_points,
    membership_disk_sets,
    point_pairs,
    rect_points,
)

KOEBE = RadialFlowSpec.koebe(0.0, 1.0)
SLIT = ChordalFlowSpec.basic_slit(0.0, 1.0)
RULE64 = gauss_legendre(64, 0.0, 1.0)


def _koebe_end(z):
    return radial_transition(KOEBE, 1.0, z)


def _record(number, label, ok):
    print(f"[acceptance {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_psd_suite():
    ok = True
    for _, spec, sample in kernel_catalog(0.0, 1.0):
        for seed in (1, 2, 3, 4, 5):
            _, passed = psd_check(gram(spec, sample(seed)), tol=1e-8)
            ok = ok and passed
    _record(1, "8x8 Grams of all five catalog kernels PSD on 5 seeds (tol 1e-8)", ok)


def test_criterion_2_resolution_identity():
    pairs = disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)
    err64 = resolution_check(KOEBE, RULE64, pairs).max_abs_err
    err32 = resolution_check(KOEBE, gauss_legendre(32, 0.0, 1.0), pairs).max_abs_err
    ok = err64 <= 1e-8 and err32 <= 1e-6
    _record(2, f"resolution identity GL-64 err {err64:.2e} <= 1e-8, GL-32 err {err32:.2e} <= 1e-6", ok)


def test_criterion_3_derivative_identities():
    rng = np.random.RandomState(1)
    lam, z = np.transpose(disk_pairs(20, 1, rmax=DISK_RMAX_SAFE))
    radial = radial_derivative_identity_check(KOEBE, rng.uniform(1e-3, 1.0 - 1e-3, size=20), lam, z, h=1e-4)
    alpha, w = np.transpose(halfplane_pairs(20, 1, rect=HALFPLANE_RECT_SAFE))
    chordal = chordal_derivative_identity_check(SLIT, rng.uniform(1e-3, 1.0 - 1e-3, size=20), alpha, w, h=1e-4)
    worst_radial, worst_chordal = radial.max_abs_err, chordal.max_abs_err
    ok = radial.sample_pairs == chordal.sample_pairs == 20 and worst_radial <= 1e-5 and worst_chordal <= 1e-5
    _record(3, f"derivative identities FD rel err radial {worst_radial:.2e}, chordal {worst_chordal:.2e} <= 1e-5", ok)


def test_criterion_4_log_element_and_membership():
    report = koebe_log_element_check(KOEBE, RULE64, disk_points(20, 1, rmax=DISK_RMAX_SAFE))
    sets = membership_disk_sets(MEMBERSHIP_SIZES, 1)
    spec = DbrDiskKernel(_koebe_end)
    member = membership_test(spec, koebe_log_element(KOEBE), sets, MEMBERSHIP_EPS)
    control = membership_test(spec, lambda z: 1.0 / (1.0 - z), sets, MEMBERSHIP_EPS)
    ok = report.max_abs_err <= 1e-8 and member.verdict == BOUNDED and control.verdict == UNBOUNDED
    _record(
        4,
        f"log element err {report.max_abs_err:.2e} <= 1e-8, membership {member.verdict}, control {control.verdict}",
        ok,
    )


def test_criterion_5_cayley_isometry():
    pairs = disk_pairs(10, 1, rmax=DISK_RMAX_SAFE)
    gram_pts = disk_points(6, 101, rmax=DISK_RMAX_SAFE)
    report = cayley_isometry_check(pick_psi, pairs, gram_pts, tol=1e-10)
    _record(5, f"Cayley isometry pointwise + 6-point Gram err {report.max_abs_err:.2e} <= 1e-10", report.passed)


def test_criterion_6_pick_constant_element_membership():
    rep = PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(0.0, math.pi))

    def psi(z):
        return cayley_to_disk(pick_eval(rep, cayley_to_halfplane(z)))

    element = pick_constant_element(psi, rep)
    sets = membership_disk_sets(MEMBERSHIP_SIZES, 1)
    report = membership_test(DbrDiskKernel(psi), element, sets, MEMBERSHIP_EPS)
    _record(6, f"(1 - psi)/(1 - z) membership verdict {report.verdict}", report.verdict == BOUNDED)


def test_criterion_7_chordal_exponential():
    kernel_report = chordal_exp_kernel_check(SLIT, RULE64, halfplane_pairs(10, 1, rect=HALFPLANE_RECT_SAFE))
    element_report = chordal_exp_element_check(SLIT, RULE64, halfplane_points(20, 1, rect=HALFPLANE_RECT_SAFE))
    anchor = chordal_exp_kernel_check(SLIT, RULE64, [(1j, 1j)], tol=1e-10)
    b_end = chordal_transition(SLIT, 1.0, 1j)
    anchor_value = (b_end - b_end.conjugate()) / (2j)
    ok = (
        kernel_report.max_abs_err <= 1e-8
        and element_report.max_abs_err <= 1e-8
        and anchor.max_abs_err <= 1e-10
        and abs(anchor_value - math.sqrt(3)) <= 1e-10
    )
    _record(
        7,
        f"exp kernel err {kernel_report.max_abs_err:.2e}, element err {element_report.max_abs_err:.2e}, "
        f"anchor sqrt(3) err {abs(anchor_value - math.sqrt(3)):.2e}",
        ok,
    )


def test_criterion_8_paley_wiener_reconstruction():
    rule = gauss_legendre(64, -1.0, 1.0)
    pairs = point_pairs(rect_points(38, 1, (-1.0, 1.0, -0.3, 0.3)))
    pairs.append((0.37, 0.37))  # removable singularity: both sides 2A
    report = paley_wiener_reconstruction_check(1.0, rule, pairs, tol=1e-10)
    diagonal = PaleyWienerKernel(1.0)(0.37, 0.37)
    ok = report.passed and abs(diagonal - 2.0) <= 1e-12
    _record(8, f"PW reconstruction err {report.max_abs_err:.2e} <= 1e-10 incl. diagonal 2A", ok)


def test_criterion_9_backend_cross_validation():
    rng = np.random.RandomState(1)
    spec_rk = RadialFlowSpec.koebe(0.0, 1.0, backend=RUNGE_KUTTA)
    worst = 0.0
    for z in disk_points(100, 1, rmax=0.95):
        t = rng.uniform(0.0, 1.0)
        worst = max(worst, abs(radial_transition(KOEBE, t, z) - radial_transition(spec_rk, t, z)))
    h = 1e-4
    worst_residual = 0.0
    for z in halfplane_points(50, 2, rect=HALFPLANE_RECT_SAFE):
        s = rng.uniform(h, 1.0 - h)
        fd = (chordal_transition(SLIT, s + h, z) - chordal_transition(SLIT, s - h, z)) / (2.0 * h)
        rhs = -1.0 / chordal_transition(SLIT, s, z)
        worst_residual = max(worst_residual, abs(fd - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-6 and worst_residual <= 1e-5
    _record(9, f"closed-form vs RK4 err {worst:.2e} <= 1e-6, chordal ODE residual {worst_residual:.2e} <= 1e-5", ok)


def test_criterion_10_exact_atomic_identities():
    rep = PickRepresentation(1.0, 2.0, AtomicMeasure.dirac(1.0, math.pi))
    split = nevanlinna_split_check(rep, halfplane_pairs(10, 1), tol=1e-12)
    mu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.3), (cmath.exp(0.7j), 0.2)))
    mixture = herglotz_mixture_check(mu, disk_pairs(10, 1), tol=1e-12)
    ok = split.passed and mixture.passed
    _record(
        10,
        f"atomic identities exact: split err {split.max_abs_err:.2e}, mixture err {mixture.max_abs_err:.2e} <= 1e-12",
        ok,
    )


def test_criterion_11_cli_contract(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["run", "--suite", "all", "--seed", "1", "--out", str(out1)])
    code2 = main(["run", "--suite", "all", "--seed", "1", "--out", str(out2)])
    corrupt_code = main(["run", "--suite", "kernel-psd", "--corrupt-psd", "--out", str(tmp_path / "c.json")])
    capsys.readouterr()
    strip = lambda text: re.sub(r',"wall_clock_ms":\d+', "", text)
    identical = strip(out1.read_text()) == strip(out2.read_text())
    report = json.loads(out1.read_text())
    ok = code1 == 0 and code2 == 0 and identical and report["overall_pass"] and corrupt_code == 3
    _record(11, f"CLI determinism (identical={identical}) and exit codes (0/{corrupt_code})", ok)
