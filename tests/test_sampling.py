from itertools import islice

import pytest

from loewnerkit.sampling import (
    disk_points,
    halfplane_points,
    lcg_stream,
    membership_disk_sets,
    membership_halfplane_sets,
    nested_prefix_sets,
    point_pairs,
    rect_points,
)


def test_lcg_is_deterministic_and_uniform_range():
    a = list(islice(lcg_stream(42), 5))
    b = list(islice(lcg_stream(42), 5))
    assert a == b
    assert all(0.0 <= u < 1.0 for u in b)
    assert list(islice(lcg_stream(43), 5)) != b


def test_disk_points_deterministic_and_contained():
    pts = disk_points(200, 7)
    assert pts == disk_points(200, 7)
    assert pts != disk_points(200, 8)
    assert all(abs(z) <= 0.9 for z in pts)


def test_prefix_property():
    assert disk_points(10, 3) == disk_points(50, 3)[:10]
    assert halfplane_points(10, 3) == halfplane_points(50, 3)[:10]


def test_halfplane_points_in_rectangle():
    for z in halfplane_points(200, 9):
        assert -2.0 <= z.real <= 2.0 and 0.1 <= z.imag <= 2.1


def test_rect_points_custom_rectangle():
    for z in rect_points(50, 2, (-1.0, 1.0, -0.3, 0.3)):
        assert -1.0 <= z.real <= 1.0 and -0.3 <= z.imag <= 0.3


def test_points_pairwise_distinct():
    pts = disk_points(300, 1)
    assert len({(z.real, z.imag) for z in pts}) == 300


def test_point_pairs_shape():
    pairs = point_pairs(disk_points(10, 1))
    assert len(pairs) == 5 and all(len(p) == 2 for p in pairs)


def test_nested_prefix_sets():
    sets = nested_prefix_sets(disk_points(64, 4), [8, 16, 64])
    assert [len(s) for s in sets] == [8, 16, 64]
    assert sets[0] == sets[1][:8]
    with pytest.raises(ValueError):
        nested_prefix_sets(disk_points(8, 4), [4, 4])
    with pytest.raises(ValueError):
        nested_prefix_sets(disk_points(8, 4), [4, 16])


def test_membership_disk_sets_are_nested_and_probe_boundary():
    sets = membership_disk_sets((16, 32, 64), 5)
    lengths = [len(s) for s in sets]
    assert lengths[0] < lengths[1] < lengths[2]
    for smaller, larger in zip(sets, sets[1:]):
        assert all(p in larger for p in smaller)
    # ladder points approach the focus 1+0j but stay inside the disk
    closest = max(max(p.real for p in s) for s in sets)
    assert 0.99 < closest < 1.0


def test_membership_halfplane_sets_nested():
    sets = membership_halfplane_sets((8, 16), 3)
    assert sets[0] == sets[1][:8]


def test_golden_values_of_the_documented_generator():
    # Exact floats of the documented LCG and sequence: a port to another
    # language must reproduce these bits.
    assert list(islice(lcg_stream(1), 2)) == [0.8304592344090381, 0.2583139341082118]
    assert disk_points(3, 1) == [
        complex(0.3246991848667368, -0.607201226018211),
        complex(-0.42077276359923904, 0.31388545777723154),
        complex(0.27188468890026307, -0.055708390682116055),
    ]
    assert rect_points(3, 2, (-1.0, 1.0, -0.3, 0.3)) == [
        complex(0.2406768972779778, -0.26923183627977126),
        complex(-0.2495677702286363, 0.07267233831906073),
        complex(-0.7398124377352513, -0.18542348708210754),
    ]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: nested_prefix_sets(disk_points(8, 1), (-5, 3)), "nonnegative and strictly increasing"),
        (lambda: membership_disk_sets((17, 16), 1), "nonnegative and strictly increasing"),
        (lambda: membership_disk_sets((16, 16, 16), 1), "nonnegative and strictly increasing"),
        (lambda: membership_halfplane_sets((16, 16), 3), "nonnegative and strictly increasing"),
        (lambda: membership_halfplane_sets((-5, 3), 1), "nonnegative and strictly increasing"),
        (lambda: membership_disk_sets((-5, 3), 1), "nonnegative and strictly increasing"),
        (lambda: point_pairs(disk_points(3, 1)), "even number of points, got 3"),
    ],
    ids=["negative-prefix", "disk-decreasing", "disk-repeated", "halfplane-repeated", "halfplane-negative", "disk-negative", "odd-pairs"],
)
def test_size_and_pair_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_membership_sets_at_size_zero():
    assert membership_halfplane_sets((0, 2), 1) == [[], halfplane_points(2, 1)]
    assert [len(s) for s in membership_disk_sets((0, 2), 1)] == [3, 7]
