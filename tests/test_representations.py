import math

import numpy as np
import pytest

from loewnerkit import (
    AtomicMeasure,
    PickRepresentation,
    herglotz_eval,
    pick_atom,
    pick_eval,
)
from loewnerkit.errors import DomainError


def _disk_sample(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return [complex(a, b) for a, b in zip(r * np.cos(theta), r * np.sin(theta))]


class TestAtomicMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((1.0, -0.1),))

    def test_probability_and_support_predicates(self):
        mu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
        assert mu.is_probability() and mu.on_unit_circle() and mu.on_real_line()
        assert not AtomicMeasure.dirac(0.5).on_unit_circle()
        assert not AtomicMeasure.dirac(1j).on_real_line()


class TestHerglotz:
    def test_atom_at_origin(self):
        assert herglotz_eval(AtomicMeasure.dirac(-1.0), 0.0) == 1.0

    def test_atom_hand_values(self):
        assert abs(herglotz_eval(AtomicMeasure.dirac(-1.0), 0.5) - 1.0 / 3.0) < 1e-15
        assert abs(herglotz_eval(AtomicMeasure.dirac(1.0), 0.5) - 3.0) < 1e-15

    def test_dirac_minus_one_closed_form(self):
        mu = AtomicMeasure.dirac(-1.0)
        for z in (0.3, -0.2 + 0.4j, 0.1j):
            assert abs(herglotz_eval(mu, z) - (1.0 - z) / (1.0 + z)) < 1e-15

    def test_symmetric_mixture_hand_value(self):
        mu = AtomicMeasure(((1.0, 0.5), (-1.0, 0.5)))
        assert abs(herglotz_eval(mu, 0.5) - 5.0 / 3.0) < 1e-15

    def test_non_probability_rejected(self):
        with pytest.raises(ValueError):
            herglotz_eval(AtomicMeasure.dirac(-1.0, 0.5), 0.1)

    def test_off_circle_support_rejected(self):
        with pytest.raises(ValueError):
            herglotz_eval(AtomicMeasure.dirac(0.5), 0.1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_positivity_and_normalization(self, seed):
        rng = np.random.RandomState(seed)
        locs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))
        weights = rng.uniform(0.1, 1.0, size=4)
        weights /= weights.sum()
        mu = AtomicMeasure(tuple(zip(locs, weights)))
        assert abs(herglotz_eval(mu, 0.0) - 1.0) <= 1e-12
        for z in _disk_sample(rng, 1000):
            assert herglotz_eval(mu, z).real >= -1e-12


class TestPick:
    def test_atom_hand_values(self):
        assert abs(pick_atom(0.0, 1j) - 1j) < 1e-15
        assert abs(pick_atom(1.0, 1 + 1j) - 1j) < 1e-15
        assert abs(pick_atom(0.0, 2j) - 0.5j) < 1e-15

    def test_identity_function(self):
        rep = PickRepresentation(0.0, 1.0, AtomicMeasure(()))
        assert pick_eval(rep, 2 + 3j) == 2 + 3j

    def test_single_atom_hand_value(self):
        rep = PickRepresentation(0.0, 0.0, AtomicMeasure.dirac(0.0, math.pi))
        assert abs(pick_eval(rep, 1j) - 1j) < 1e-15

    def test_atom_plus_identity(self):
        rep = PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(0.0, math.pi))
        assert abs(pick_eval(rep, 1j) - 2j) < 1e-15

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            PickRepresentation(0.0, -1.0, AtomicMeasure(()))

    def test_complex_support_rejected(self):
        with pytest.raises(ValueError):
            PickRepresentation(0.0, 1.0, AtomicMeasure.dirac(1j, 1.0))

    def test_lower_halfplane_rejected(self):
        rep = PickRepresentation(0.0, 1.0, AtomicMeasure(()))
        with pytest.raises(DomainError):
            pick_eval(rep, -1j)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_halfplane_invariance(self, seed):
        rng = np.random.RandomState(seed)
        rep = PickRepresentation(-0.7, 0.3, AtomicMeasure(((0.0, 2.0), (1.5, 0.4))))
        for _ in range(1000):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 10))
            assert pick_eval(rep, z).imag >= -1e-12

    def test_atom_consistency_with_representation(self):
        # (b, c, mu) = (xi/(1+xi^2), 0, pi * dirac(xi)) realizes 1/(xi - z).
        rng = np.random.RandomState(7)
        for _ in range(100):
            xi = float(rng.uniform(-3.0, 3.0))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 10))
            rep = PickRepresentation(xi / (1 + xi * xi), 0.0, AtomicMeasure.dirac(xi, math.pi))
            assert abs(pick_eval(rep, z) - pick_atom(xi, z)) <= 1e-12


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: AtomicMeasure(((complex(math.inf, 0.0), 1.0),)), "non-finite atom location"),
        (lambda: PickRepresentation(math.nan, 0.0, AtomicMeasure(())), "b must be finite"),
        (lambda: herglotz_eval(AtomicMeasure.dirac(0.5), 0.1), "probability measure on the unit circle, got total mass 1.0"),
        (lambda: herglotz_eval(AtomicMeasure.dirac(-1.0, 0.5), 0.1), "probability measure on the unit circle, got total mass 0.5"),
    ],
    ids=["atom-location", "pick-b", "herglotz-off-circle", "herglotz-mass"],
)
def test_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_radial_driver_rule():
    assert AtomicMeasure(((1.0, 0.5), (-1.0, 0.5))).is_radial_driver()
    assert not AtomicMeasure.dirac(0.5).is_radial_driver()
    assert not AtomicMeasure.dirac(-1.0, 0.5).is_radial_driver()
