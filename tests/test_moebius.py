import numpy as np
import pytest

from loewnerkit import cayley_to_disk, cayley_to_halfplane, in_disk, in_halfplane
from loewnerkit.errors import DomainError
from loewnerkit.moebius import require_disk, require_halfplane


def test_disk_center_maps_to_i():
    assert cayley_to_halfplane(0.0) == 1j


def test_half_point_maps_to_3i():
    assert abs(cayley_to_halfplane(0.5) - 3j) < 1e-15


def test_boundary_point_rejected():
    with pytest.raises(DomainError):
        cayley_to_halfplane(-1.0)
    with pytest.raises(DomainError):
        cayley_to_halfplane(1.0 - 1e-13)


def test_i_maps_to_origin():
    assert cayley_to_disk(1j) == 0


def test_2i_maps_to_third():
    assert abs(cayley_to_disk(2j) - 1.0 / 3.0) < 1e-15


def test_one_plus_i_hand_value():
    assert abs(cayley_to_disk(1 + 1j) - (1 - 2j) / 5.0) < 1e-15


def test_real_axis_rejected():
    with pytest.raises(DomainError):
        cayley_to_disk(1.0)
    with pytest.raises(DomainError):
        cayley_to_disk(0.5 - 1j)


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        cayley_to_halfplane(complex(float("nan"), 0.0))
    with pytest.raises(DomainError):
        cayley_to_disk(complex(0.0, float("inf")))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_and_containment(seed):
    rng = np.random.RandomState(seed)
    for _ in range(1000):
        r = 0.95 * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        z = complex(r * np.cos(theta), r * np.sin(theta))
        w = cayley_to_halfplane(z)
        assert w.imag > 0.0
        back = cayley_to_disk(w)
        assert abs(back) < 1.0
        assert abs(back - z) <= 1e-12


def test_predicates():
    assert in_disk(0.5) and not in_disk(1.0)
    assert in_halfplane(1j) and not in_halfplane(-1j) and not in_halfplane(0.0)


_EDGE_POINTS = [
    complex("nan"),
    complex("inf"),
    complex(np.inf, np.nan),
    complex(np.nan, 0.5),
    complex(0.3, np.inf),
    1.0 - 1e-13,
    0.5,
    0.5j,
    1e-13j,
]


@pytest.mark.parametrize(
    "predicate,expected",
    [
        (in_disk, [False, False, False, False, False, False, True, True, True]),
        (in_halfplane, [False, False, False, False, False, False, False, True, False]),
    ],
    ids=["disk", "halfplane"],
)
def test_predicates_at_non_finite_and_boundary_points(predicate, expected):
    for z, inside in zip(_EDGE_POINTS, expected):
        assert predicate(z) == inside, z
    assert np.array_equal(predicate(np.array(_EDGE_POINTS)), expected)
    assert np.array_equal(predicate(np.array(_EDGE_POINTS[:8]).reshape(2, 4)), np.reshape(expected[:8], (2, 4)))


def test_one_bad_point_in_an_array_is_named():
    with pytest.raises(DomainError, match=r"z = \(1\+0j\)"):
        require_disk(np.array([0.1, 0.5j, 1.0, 2.0]))
    with pytest.raises(DomainError, match="nan"):
        require_halfplane(np.array([[1j, 2j], [complex("nan"), 3j]]))
    points = np.array([[0.1, -0.5j], [0.3 + 0.3j, 0.0]])
    assert np.max(np.abs(cayley_to_disk(cayley_to_halfplane(points)) - points)) <= 1e-15
