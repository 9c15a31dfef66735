"""The kernel catalog and its positive-semidefiniteness.

Every kernel in the catalog of the `kernel-psd` suite is Hermitian
symmetric and positive semidefinite; finite Gram matrices over seeded
sample points confirm this numerically through their smallest eigenvalues.
"""

import numpy as np

from loewnerkit import DbrDiskKernel, RadialFlowSpec, gram, loewner_time_kernel, psd_check, radial_transition
from loewnerkit.cli import kernel_catalog
from loewnerkit.sampling import disk_points

koebe = RadialFlowSpec.koebe(0.0, 1.0)


def b_end(z):
    return radial_transition(koebe, 1.0, z)


print("== 8x8 Gram matrices: smallest eigenvalue ==")
for name, spec, sample in kernel_catalog(0.0, 1.0):
    min_eig, ok = psd_check(gram(spec, sample(1)), tol=1e-8)
    print(f"{name:34s} min_eig = {min_eig:+.3e}  psd={'yes' if ok else 'NO'}")

print()
print("== Diagonal bound scan (finite surrogate for sup k(z, z)) ==")
pts = np.asarray(disk_points(40, 2, rmax=0.5))
scan = float(np.max(loewner_time_kernel(koebe, 0.5)(pts, pts).real))
print(f"max diagonal of the time kernel on |z| <= 0.5: {scan:.6f}")

print()
print("== Gram export (row-major re/im pairs) ==")
pts = disk_points(2, 3)
small = gram(DbrDiskKernel(b_end), pts)
print(
    {
        "points": [[p.real, p.imag] for p in pts],
        "entries": [[[v.real, v.imag] for v in row] for row in small.tolist()],
    }
)
