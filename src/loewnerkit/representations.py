"""Herglotz and Pick functions evaluated from atomic integral representations.

Measures are finite atomic lists only; a continuous measure must be
pre-discretized by the caller (e.g. quadrature atoms).  Every identity
verified downstream is exact for atoms.

The evaluation functions take z as a scalar or a numpy array and work
elementwise; a scalar is the 0-d case.
"""

import math
from dataclasses import dataclass

from .moebius import require_disk, require_halfplane

UNIT_MODULUS_TOL = 1e-12
PROBABILITY_TOL = 1e-12


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite nonnegative atomic measure: a tuple of (location, weight) pairs.

    Locations live on the unit circle (Herglotz side) or on the real line
    (Pick side); weights are nonnegative reals.
    """

    atoms: tuple

    def __post_init__(self):
        normalized = []
        for location, weight in self.atoms:
            location = complex(location)
            weight = float(weight)
            if not (math.isfinite(location.real) and math.isfinite(location.imag)):
                raise ValueError(f"non-finite atom location {location}")
            if not math.isfinite(weight) or weight < 0.0:
                raise ValueError(f"atom weight {weight} must be finite and >= 0")
            normalized.append((location, weight))
        object.__setattr__(self, "atoms", tuple(normalized))

    @classmethod
    def dirac(cls, location, weight: float = 1.0) -> "AtomicMeasure":
        return cls(((location, weight),))

    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def is_probability(self) -> bool:
        return abs(self.total_mass() - 1.0) <= PROBABILITY_TOL

    def on_unit_circle(self) -> bool:
        return all(abs(abs(xi) - 1.0) <= UNIT_MODULUS_TOL for xi, _ in self.atoms)

    def on_real_line(self) -> bool:
        return all(abs(xi.imag) <= UNIT_MODULUS_TOL for xi, _ in self.atoms)

    def is_radial_driver(self) -> bool:
        """A probability measure on the unit circle: the one rule for a radial
        driver measure and for the measure of ``herglotz_eval``."""
        return self.on_unit_circle() and self.is_probability()


# Driver of the Koebe semigroup: the Dirac measure at xi = -1.
DIRAC_MINUS_ONE = AtomicMeasure.dirac(-1.0)


@dataclass(frozen=True)
class PickRepresentation:
    """Nevanlinna data (b, c, mu) of a Pick function.

    Realizes phi(z) = b + c z + (1/pi) * sum_t w_t * (1/(t - z) - t/(1 + t^2)).
    The Dirac factor pi is stored inside the weights; there is no hidden
    normalization.
    """

    b: float
    c: float
    mu: AtomicMeasure

    def __post_init__(self):
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.b):
            raise ValueError("b must be finite")
        if not math.isfinite(self.c) or self.c < 0.0:
            raise ValueError(f"c = {self.c} must be finite and >= 0")
        if not self.mu.on_real_line():
            raise ValueError("mu must be supported on the real line")
        # Finite for any finite atomic list; asserted for the record.
        poisson_mass = sum(w / (1.0 + t.real**2) for t, w in self.mu.atoms)
        if not math.isfinite(poisson_mass):
            raise ValueError("sum of w/(1+t^2) must be finite")


def herglotz_eval(mu: AtomicMeasure, z):
    """Herglotz function of a probability measure on the circle, at z in D."""
    if not mu.is_radial_driver():
        raise ValueError(f"mu must be a probability measure on the unit circle, got total mass {mu.total_mass()}")
    z = require_disk(z)
    return sum(w * (1.0 + xi * z) / (1.0 - xi * z) for xi, w in mu.atoms)


def pick_atom(xi: float, z):
    """Elementary Pick function 1/(xi - z) for real xi, z in H."""
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError("xi must be a finite real")
    z = require_halfplane(z)
    return 1.0 / (xi - z)


def pick_eval(rep: PickRepresentation, z):
    """Pick function from its Nevanlinna representation, at z in H."""
    z = require_halfplane(z)
    acc = 0.0 + 0.0j
    for t, w in rep.mu.atoms:
        t = t.real
        acc += w * (1.0 / (t - z) - t / (1.0 + t * t))
    return rep.b + rep.c * z + acc / math.pi
