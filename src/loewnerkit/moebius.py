"""Cayley transforms between the unit disk and the upper half-plane.

All downstream kernels are defined on open domains only, so membership
predicates keep a strict margin of ``BOUNDARY_MARGIN`` from the boundary
and boundary inputs are rejected rather than mapped.

Every function takes a scalar or a numpy array of points and works
elementwise; a scalar is the 0-d case and comes back as a numpy scalar.
"""

import numpy as np

from .errors import DomainError

BOUNDARY_MARGIN = 1e-12


def in_disk(z):
    """True where z is a finite point with |z| < 1 - BOUNDARY_MARGIN."""
    # |z| is inf or nan at a non-finite z, so the one comparison rejects it.
    return np.abs(np.asarray(z, dtype=complex)) < 1.0 - BOUNDARY_MARGIN


def in_halfplane(w):
    """True where w is a finite point with Im w > BOUNDARY_MARGIN."""
    w = np.asarray(w, dtype=complex)
    return np.isfinite(w) & (w.imag > BOUNDARY_MARGIN)


def _require(points, inside, name: str, domain: str):
    points = np.asarray(points, dtype=complex)
    ok = inside(points)
    if np.count_nonzero(ok) < ok.size:  # cheaper than ok.all() on a 0-d array
        raise DomainError(f"{name} = {complex(points[~ok].flat[0])} is not inside the open {domain}")
    return points[()]


def require_disk(z):
    """z as a complex array (numpy scalar when 0-d); DomainError names the
    first point outside the open unit disk."""
    return _require(z, in_disk, "z", "unit disk")


def require_halfplane(w):
    """w as a complex array (numpy scalar when 0-d); DomainError names the
    first point outside the open upper half-plane."""
    return _require(w, in_halfplane, "w", "upper half-plane")


def cayley_to_halfplane(z):
    """Map the unit disk onto the upper half-plane via T(z) = i(1+z)/(1-z)."""
    z = require_disk(z)
    return 1j * (1.0 + z) / (1.0 - z)


def cayley_to_disk(w):
    """Map the upper half-plane onto the unit disk via T^{-1}(w) = (w-i)/(w+i)."""
    w = require_halfplane(w)
    return (w - 1j) / (w + 1j)
