"""Pick spaces, the Cayley isometry, and the chordal exponential kernel.

The Cayley transform carries the Pick kernel of phi = T o psi o T^{-1} to
the de Branges-Rovnyak kernel of psi up to explicit scalar factors; the
isometry sends the constant 1 to (1 - psi(z))/(1 - z).  On the chordal
side, the basic slit flow exponentiates an integral kernel, producing
exp(z - B_b(z)) as a concrete Pick-space element.
"""

import math

from loewnerkit import (
    AtomicMeasure,
    ChordalFlowSpec,
    DbrDiskKernel,
    PickRepresentation,
    PickSpaceKernel,
    cayley_isometry_check,
    cayley_to_disk,
    cayley_to_halfplane,
    chordal_exp_element,
    chordal_exp_element_check,
    chordal_exp_kernel_check,
    chordal_transition,
    gauss_legendre,
    membership_test,
    nevanlinna_split_check,
    pick_constant_element,
    pick_eval,
)
from loewnerkit.sampling import (
    HALFPLANE_RECT_SAFE,
    disk_pairs,
    disk_points,
    halfplane_pairs,
    halfplane_points,
    membership_disk_sets,
    membership_halfplane_sets,
)

print("== Nevanlinna split of the Pick kernel (exact for atoms) ==")
rep = PickRepresentation(1.0, 2.0, AtomicMeasure.dirac(1.0, math.pi))
split = nevanlinna_split_check(rep, halfplane_pairs(10, 1))
print(f"max err over 10 pairs: {split.max_abs_err:.2e} (tol {split.tol:.0e})")

print()
print("== Cayley isometry for phi(z) = z - 1/z ==")


def phi(w):
    return w - 1.0 / w


def psi(z):
    return cayley_to_disk(phi(cayley_to_halfplane(z)))


iso = cayley_isometry_check(psi, disk_pairs(10, 1, rmax=0.7), disk_points(6, 101, rmax=0.7))
print(f"pointwise identity + Gram equality: max err {iso.max_abs_err:.2e}")

print()
print("== The preimage of the constant 1 ==")
rep_c1 = PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(0.0, math.pi))


def psi_of_rep(z):
    return cayley_to_disk(pick_eval(rep_c1, cayley_to_halfplane(z)))


element = pick_constant_element(psi_of_rep, rep_c1)
sets = membership_disk_sets((16, 32, 64, 128), 1)
verdict = membership_test(DbrDiskKernel(psi_of_rep), element, sets, eps=1e-8)
print(f"(1 - psi)/(1 - z) membership: {verdict.verdict}, final estimate {verdict.estimates[-1]:.6f}")

print()
print("== Chordal exponential kernel ==")
slit = ChordalFlowSpec.basic_slit(0.0, 1.0)
rule = gauss_legendre(64, 0.0, 1.0)
kernel_check = chordal_exp_kernel_check(slit, rule, halfplane_pairs(10, 1, rect=HALFPLANE_RECT_SAFE))
print(f"exp(integral) vs difference quotient: max err {kernel_check.max_abs_err:.2e}")
anchor = chordal_exp_kernel_check(slit, rule, [(1j, 1j)])
print(f"anchor alpha = z = i (both sides sqrt(3)): err {anchor.max_abs_err:.2e}")

identity = chordal_exp_element_check(slit, rule, halfplane_points(20, 1, rect=HALFPLANE_RECT_SAFE))
membership = membership_test(
    PickSpaceKernel(lambda z: chordal_transition(slit, 1.0, z)),
    chordal_exp_element(slit),
    membership_halfplane_sets((16, 32, 64, 128), 1),
    eps=1e-8,
)
print(f"exp(z - B_1(z)) identity: max err {identity.max_abs_err:.2e}; membership {membership.verdict}")
