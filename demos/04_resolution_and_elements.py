"""Integral resolution of the de Branges-Rovnyak kernel and a concrete element.

Along the Koebe flow, integrating conj(B_t(lam)) B_t(mu) k(t, mu, lam) in
time resolves the de Branges-Rovnyak kernel of B_b minus the constant 1.
The same machinery produces explicit space elements: with unit weight and
base point 0, the integral element collapses to log((1 - B_b(z))/(1 - z)),
whose membership the finite-section norm estimates confirm; the function
1/(1 - z) is a negative control whose estimates blow up.
"""

from loewnerkit import (
    DbrDiskKernel,
    RadialFlowSpec,
    dbr_element,
    gauss_legendre,
    koebe_log_element,
    koebe_log_element_check,
    membership_test,
    radial_derivative_identity_check,
    radial_transition,
    resolution_check,
)
from loewnerkit.sampling import disk_pairs, disk_points, membership_disk_sets

koebe = RadialFlowSpec.koebe(0.0, 1.0)
rule = gauss_legendre(64, 0.0, 1.0)

print("== Resolution identity (Gauss-Legendre 64) ==")
report = resolution_check(koebe, rule, disk_pairs(10, 1, rmax=0.7))
print(f"max |quadrature - closed form| over 10 pairs: {report.max_abs_err:.2e} (tol {report.tol:.0e})")

print()
print("== Time derivative of the kernel quotient (central difference) ==")
fd = radial_derivative_identity_check(koebe, 0.5, 0.3, 0.4j, h=1e-4)
print(f"relative error at (t, lam, z) = (0.5, 0.3, 0.4i): {fd.max_abs_err:.2e}")

print()
print("== The log element ==")
check = koebe_log_element_check(koebe, rule, disk_points(20, 1, rmax=0.7))
print(f"integral element vs log((1-B_1(z))/(1-z)): max err {check.max_abs_err:.2e}")

element = dbr_element(koebe, 1.0, 0.0, rule)
log_element = koebe_log_element(koebe)
z = 0.4 + 0.2j
print(f"element({z}) = {element(z):.12f}")
print(f"closed form  = {log_element(z):.12f}")

print()
print("== Membership probes ==")


def b_end(z):
    return radial_transition(koebe, 1.0, z)


spec = DbrDiskKernel(b_end)
sets = membership_disk_sets((16, 32, 64, 128), 1)

member = membership_test(spec, log_element, sets, eps=1e-8)
print(f"log element:   verdict {member.verdict}, estimates {[f'{e:.5f}' for e in member.estimates]}")

control = membership_test(spec, lambda z: 1.0 / (1.0 - z), sets, eps=1e-8)
print(f"1/(1-z):       verdict {control.verdict}, estimates {[f'{e:.3g}' for e in control.estimates]}")
