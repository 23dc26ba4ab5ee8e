"""Tests for grid isometries: group laws, actions, and classification.

The classification tests are anchored on independent oracles: fixed points
are checked by applying the map, glides by squaring the isometry and
reading off the resulting translation.
"""

import random
from fractions import Fraction

import pytest

from helpers import Cell, act_on_cell, act_on_strand
from isoweave.design import Direction, Strand
from isoweave.isometry import (
    Isometry,
    PointPart,
    Side,
    act_on_doubled,
    classify,
    compose,
    identity,
    invert,
    strand_map,
    translation,
)

ALL_POINTS = list(PointPart)


def random_isometry(rng: random.Random, even: bool = False) -> Isometry:
    step = 2 if even else 1
    return Isometry(
        rng.choice(ALL_POINTS),
        (step * rng.randrange(-6, 7), step * rng.randrange(-6, 7)),
        rng.choice([Side.PRESERVING, Side.REVERSING]),
    )


# -- group structure -----------------------------------------------------


def test_compose_invert_identity():
    rng = random.Random(1)
    for _ in range(200):
        g = random_isometry(rng)
        assert compose(g, invert(g)) == Isometry(PointPart.IDENTITY, (0, 0), Side.PRESERVING)
        assert compose(invert(g), g) == Isometry(PointPart.IDENTITY, (0, 0), Side.PRESERVING)
        assert compose(g, identity()) == g
        assert compose(identity(), g) == g


def test_compose_is_associative():
    rng = random.Random(2)
    for _ in range(200):
        g, h, k = (random_isometry(rng) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_side_flag_multiplies():
    e, tau = Side.PRESERVING, Side.REVERSING
    assert e * e == e and tau * tau == e and e * tau == tau and tau * e == tau


def test_compose_matches_pointwise_action():
    rng = random.Random(3)
    for _ in range(100):
        g = random_isometry(rng)
        h = random_isometry(rng)
        p = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        assert act_on_doubled(compose(g, h), p) == act_on_doubled(g, act_on_doubled(h, p))


# -- actions on cells and strands ---------------------------------------


def test_cell_action_matches_doubled_action():
    rng = random.Random(4)
    for _ in range(100):
        g = random_isometry(rng, even=True)
        c = Cell(rng.randrange(-5, 6), rng.randrange(-5, 6))
        image = act_on_cell(g, c)
        assert (2 * image.x + 1, 2 * image.y + 1) == act_on_doubled(g, (2 * c.x + 1, 2 * c.y + 1))


def test_cell_action_requires_even_shift():
    g = Isometry(PointPart.IDENTITY, (1, 0))
    with pytest.raises(ValueError):
        act_on_cell(g, Cell(0, 0))
    with pytest.raises(ValueError):
        act_on_strand(g, Strand(Direction.WARP, 0))


def test_strand_action_contains_cell_images():
    rng = random.Random(5)
    for _ in range(200):
        g = random_isometry(rng, even=True)
        direction = rng.choice([Direction.WARP, Direction.WEFT])
        index = rng.randrange(-4, 5)
        strand = Strand(direction, index)
        image = act_on_strand(g, strand)
        assert image.direction == (
            (Direction.WEFT if direction == Direction.WARP else Direction.WARP)
            if g.point.swaps_directions
            else direction
        )
        for t in range(-2, 3):
            cell = Cell(index, t) if direction == Direction.WARP else Cell(t, index)
            ic = act_on_cell(g, cell)
            on_image = ic.x if image.direction == Direction.WARP else ic.y
            assert on_image == image.index


def test_strand_action_is_compatible_with_composition():
    rng = random.Random(6)
    for _ in range(100):
        g = random_isometry(rng, even=True)
        h = random_isometry(rng, even=True)
        s = Strand(rng.choice([Direction.WARP, Direction.WEFT]), rng.randrange(-4, 5))
        assert act_on_strand(compose(g, h), s) == act_on_strand(g, act_on_strand(h, s))


def test_strand_map_matches_the_cell_image_oracle():
    rng = random.Random(7)
    for _ in range(300):
        g = random_isometry(rng, even=True)
        swaps, warp, weft = strand_map(g)
        for direction, (coeff, t) in ((Direction.WARP, warp), (Direction.WEFT, weft)):
            k = rng.randrange(-9, 10)
            image = act_on_strand(g, Strand(direction, k))
            assert (image.direction != direction) == swaps
            assert image.index == coeff * k + t


def test_strand_map_requires_even_shift():
    for point in ALL_POINTS:
        for shift in ((1, 0), (0, 1), (1, 1), (-3, 2)):
            with pytest.raises(ValueError, match="does not preserve cells"):
                strand_map(Isometry(point, shift))


# -- classification ------------------------------------------------------


def test_classify_translation():
    c = classify(translation(3, -2, Side.REVERSING))
    assert c.kind == "translation" and c.side == Side.REVERSING
    assert c.vector == (Fraction(3), Fraction(-2))


def test_half_turn_centre_is_fixed_and_kinds_are_right():
    cases = [
        ((2, 2), (Fraction(1, 2), Fraction(1, 2)), "cell_centre"),
        ((0, 0), (Fraction(0), Fraction(0)), "cell_corner"),
        ((2, 0), (Fraction(1, 2), Fraction(0)), "edge_midpoint"),
        ((-4, 6), (Fraction(-1), Fraction(3, 2)), "edge_midpoint"),
    ]
    for shift, centre, kind in cases:
        g = Isometry(PointPart.ROT180, shift)
        c = classify(g)
        assert c.kind == "half_turn" and c.centre == centre and c.centre_kind == kind
        doubled = (2 * centre[0], 2 * centre[1])
        assert act_on_doubled(g, doubled) == doubled
        assert compose(g, g) == Isometry(PointPart.IDENTITY, (0, 0))


def test_quarter_turn_centre_is_fixed():
    rng = random.Random(8)
    for _ in range(100):
        point = rng.choice([PointPart.ROT90, PointPart.ROT270])
        g = Isometry(point, (2 * rng.randrange(-5, 6), 2 * rng.randrange(-5, 6)))
        c = classify(g)
        assert c.kind == "quarter_turn"
        assert c.angle == (90 if point == PointPart.ROT90 else 270)
        doubled = (2 * c.centre[0], 2 * c.centre[1])
        assert all(v.denominator == 1 for v in doubled)
        doubled = (int(doubled[0]), int(doubled[1]))
        assert act_on_doubled(g, doubled) == doubled
        # the square is the half turn about the same centre
        sq = classify(compose(g, g))
        assert sq.kind == "half_turn" and sq.centre == c.centre
        assert c.centre_kind in ("cell_centre", "cell_corner")


def test_quarter_turn_fourth_power_is_identity():
    g = Isometry(PointPart.ROT90, (4, -2))
    g4 = compose(compose(g, g), compose(g, g))
    assert g4 == Isometry(PointPart.IDENTITY, (0, 0))


def test_pure_mirror_fixes_points_on_its_axis():
    cases = [
        (Isometry(PointPart.MIRROR_H, (0, 6)), (5, 3)),  # axis y-doubled = 3
        (Isometry(PointPart.MIRROR_V, (-4, 0)), (-2, 9)),
        (Isometry(PointPart.MIRROR_D, (2, -2)), (7, 5)),  # axis u - v = 2
        (Isometry(PointPart.MIRROR_A, (4, 4)), (1, 3)),  # axis u + v = 4
    ]
    for g, p in cases:
        c = classify(g)
        assert c.kind == "mirror" and c.glide == 0
        assert act_on_doubled(g, p) == p
        assert compose(g, g) == Isometry(PointPart.IDENTITY, (0, 0))


def test_glide_squared_is_translation_by_twice_the_glide():
    rng = random.Random(9)
    for _ in range(200):
        point = rng.choice(
            [PointPart.MIRROR_H, PointPart.MIRROR_V, PointPart.MIRROR_D, PointPart.MIRROR_A]
        )
        g = Isometry(point, (2 * rng.randrange(-5, 6), 2 * rng.randrange(-5, 6)))
        c = classify(g)
        assert c.kind in ("mirror", "glide")
        sq = classify(compose(g, g))
        assert sq.kind == "translation"
        if point == PointPart.MIRROR_H:
            assert sq.vector == (2 * c.glide, 0)
        elif point == PointPart.MIRROR_V:
            assert sq.vector == (0, 2 * c.glide)
        elif point == PointPart.MIRROR_D:
            # oblique glides are measured in diagonal cell steps
            assert sq.vector == (2 * c.glide, 2 * c.glide)
        else:
            assert sq.vector == (2 * c.glide, -2 * c.glide)
        assert (c.kind == "mirror") == (c.glide == 0)


def test_oblique_glide_through_origin_has_half_step_glide():
    c = classify(Isometry(PointPart.MIRROR_D, (1, 1)))
    assert c.kind == "glide" and c.axis == "diagonal"
    assert c.offset == 0 and c.glide == Fraction(1, 2)


def test_mirror_position_flag():
    assert classify(Isometry(PointPart.MIRROR_D, (2, -2))).mirror_position is True
    assert classify(Isometry(PointPart.MIRROR_D, (2, 0))).mirror_position is False
    assert classify(Isometry(PointPart.MIRROR_A, (4, 4))).mirror_position is True
    assert classify(Isometry(PointPart.MIRROR_A, (1, 0))).mirror_position is False
    assert classify(Isometry(PointPart.MIRROR_H, (0, 2))).mirror_position is None
    assert classify(Isometry(PointPart.MIRROR_V, (2, 0))).mirror_position is None


def test_axis_offsets_locate_fixed_lines():
    # horizontal axis y = 3/2 cells: doubled points (u, 3) are fixed
    g = Isometry(PointPart.MIRROR_H, (0, 6))
    assert classify(g).offset == Fraction(3, 2)
    # antidiagonal axis x + y = 2 cells: doubled points with u + v = 4
    g = Isometry(PointPart.MIRROR_A, (4, 4))
    assert classify(g).offset == Fraction(2)


def test_swaps_directions_marks_the_oblique_point_parts():
    swapping = {PointPart.ROT90, PointPart.ROT270, PointPart.MIRROR_D, PointPart.MIRROR_A}
    for p in PointPart:
        assert p.swaps_directions == (p in swapping)
        assert p.is_rotation == (p in {PointPart.IDENTITY, PointPart.ROT90, PointPart.ROT180, PointPart.ROT270})


def test_debug_string_format():
    g = Isometry(PointPart.ROT90, (2, -4), Side.REVERSING)
    assert str(g) == "point=rot90 shift=(2,-4)/2 side=tau"
    assert str(identity()) == "point=identity shift=(0,0)/2 side=e"
