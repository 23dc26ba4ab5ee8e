"""Tests for symmetry groups, lattices, and the geometric inventory.

Group-level facts are validated against the pointwise transport oracle in
``helpers`` (no reliance on the group search itself), and the frozen
inventories for the reference twills were derived by hand from the strand
run structure before being pinned here.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lcm_square_symmetries, pointwise_symmetry_check, random_design
from isoweave.design import Design, permutation_design, plain_weave, twill
from isoweave.isometry import Isometry, PointPart, Side, compose, invert, translation
from isoweave.symmetry import (
    Lattice,
    axis_inventory,
    find_symmetries,
    glides_all_mirror_position,
    hangs_together,
    has_quarter_turn,
    is_isonemal,
    lattice_units,
    subgroup_check,
)

E, TAU = Side.PRESERVING, Side.REVERSING


# -- lattices ------------------------------------------------------------


def test_lattice_hermite_form_and_membership():
    rng = random.Random(12)
    for _ in range(50):
        vectors = [(rng.randrange(-6, 7), rng.randrange(-6, 7)) for _ in range(3)]
        try:
            lat = Lattice.from_vectors(vectors)
        except ValueError:
            # degenerate input: all vectors on one line through the origin
            assert all(v[0] * w[1] - v[1] * w[0] == 0 for v in vectors for w in vectors)
            continue
        assert lat.a > 0 and lat.d > 0 and 0 <= lat.b < lat.a
        # generators and their combinations are members
        for v in vectors:
            assert lat.contains(v)
        for _ in range(10):
            i, j = rng.randrange(-3, 4), rng.randrange(-3, 4)
            v = tuple(i * a + j * b for a, b in zip(vectors[0], vectors[1]))
            assert lat.contains(v)
        # the reduced residue is a canonical coset label
        v = (rng.randrange(-20, 20), rng.randrange(-20, 20))
        r = lat.reduce(v)
        assert lat.reduce(r) == r
        assert lat.contains((v[0] - r[0], v[1] - r[1]))


def test_lattice_det_counts_residues():
    lat = Lattice.from_vectors([(1, 1), (3, 0)])
    residues = {lat.reduce((x, y)) for x in range(6) for y in range(6)}
    assert len(residues) == lat.det == 3


def test_degenerate_lattice_raises():
    with pytest.raises(ValueError):
        Lattice.from_vectors([(2, 1), (4, 2)])
    with pytest.raises(ValueError):
        Lattice.from_vectors([(0, 0)])


def test_solve_functional():
    lat = Lattice.from_vectors([(1, 1), (3, 0)])
    g, v0, vk = lat.solve_functional(1, 1)  # anti-axis offsets: x + y
    assert g == 1 and v0[0] + v0[1] == 1 and lat.contains(v0)
    assert vk[0] + vk[1] == 0 and vk != (0, 0) and lat.contains(vk)


# -- the group search against the transport oracle ----------------------


def test_group_elements_satisfy_the_transport_rule():
    rng = random.Random(13)
    designs = [twill("2/1"), twill("2/2"), plain_weave(), permutation_design((0, 2, 4, 1, 3))]
    designs += [random_design(rng, 4) for _ in range(6)]
    for d in designs:
        group = find_symmetries(d)
        lat = group.translations
        for rep in group.reps:
            for k in range(3):
                lam = (
                    k % 2 * lat.v1[0] + k // 2 * lat.v2[0],
                    k % 2 * lat.v1[1] + k // 2 * lat.v2[1],
                )
                g = compose(translation(*lam), rep)
                assert pointwise_symmetry_check(d, g), f"{d} {g}"


def tiled(d: Design, kx: int, ky: int) -> Design:
    """The same fabric stored on a kx-by-ky block of copies of its period."""
    return Design(d.width * kx, d.height * ky, tuple(row * kx for row in d.rows) * ky)


def test_find_symmetries_matches_the_lcm_square_reference(enumerated_designs, isonemal_pool):
    rng = random.Random(1408)
    randoms = [random_design(rng, 7) for _ in range(300)]
    reference = {}
    for d in enumerated_designs + isonemal_pool + randoms:
        reference[d] = lcm_square_symmetries(d)
        assert find_symmetries(d) == reference[d], d
    # A tiled copy is the same fabric, so its group differs only in the
    # period, the lcm of the sides as given.  Where the reference can
    # afford the tiled square, it confirms that directly.
    for d in randoms:
        for kx, ky in ((2, 1), (1, 3), (2, 2)):
            t = tiled(d, kx, ky)
            expected = replace(reference[d], period=math.lcm(t.width, t.height))
            assert find_symmetries(t) == expected, t
            if expected.period <= 12:
                assert lcm_square_symmetries(t) == expected, t


_grids = st.integers(1, 8).flatmap(
    lambda w: st.lists(st.text("#.", min_size=w, max_size=w), min_size=1, max_size=8)
).map(lambda rows: Design(len(rows[0]), len(rows), tuple(rows)))
_permutation_designs = st.integers(1, 8).flatmap(lambda n: st.permutations(range(n))).map(
    lambda perm: permutation_design(tuple(perm))
)
_twills = st.integers(1, 2).flatmap(
    lambda k: st.lists(st.integers(1, 2), min_size=2 * k, max_size=2 * k)
).map(lambda runs: twill(tuple(runs)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.one_of(_grids, _permutation_designs, _twills),
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
)
def test_group_properties_hold_on_generated_designs(base, tiling):
    d = tiled(base, *tiling)
    group = find_symmetries(d)
    for rep in group.reps:
        assert pointwise_symmetry_check(d, rep), rep
    for v in (group.translations.v1, group.translations.v2):
        assert d.translated(*v) == d, v
    for g in group.reps:
        for h in group.reps:
            assert group.contains(compose(g, h)), (g, h)


def test_group_is_closed_under_composition_and_inverse():
    rng = random.Random(14)
    for d in [twill("2/1"), plain_weave(), twill("2/2")]:
        group = find_symmetries(d)
        elements = list(group.generators())
        for _ in range(50):
            g, h = rng.choice(elements), rng.choice(elements)
            assert group.contains(compose(g, h))
            assert group.contains(invert(g))


def test_non_symmetries_are_rejected():
    d = twill("2/1")
    group = find_symmetries(d)
    assert not group.contains(translation(1, 0))  # off the diagonal lattice
    assert not group.contains(Isometry(PointPart.ROT90, (0, 0), E))
    assert not group.contains(Isometry(PointPart.MIRROR_A, (0, 0), E))  # wrong side
    assert group.contains(Isometry(PointPart.MIRROR_A, (0, 0), TAU))
    assert group.contains(translation(4, 1))  # (4,1) = (1,1) + (3,0)


def test_side_reversing_translation_maps_to_complement():
    d = twill("2/2")
    shift = find_symmetries(d).side_reversing_translation()
    assert shift is not None
    assert d.translated(*shift) == d.complemented()
    assert find_symmetries(twill("2/1")).side_reversing_translation() is None
    assert find_symmetries(plain_weave()).side_reversing_translation() == (1, 0)


# -- frozen inventories for the reference twills ------------------------


def entry_tuple(e):
    return (e.axis, e.offset, e.kind, e.glide, e.mirror_position, e.side, e.spacing)


def test_inventory_twill_2_1():
    inv = axis_inventory(twill("2/1"))
    assert {entry_tuple(e) for e in inv.axes} == {
        ("diagonal", Fraction(1), "mirror", Fraction(0), True, TAU, 3),
        ("diagonal", Fraction(5, 2), "glide", Fraction(1, 2), False, TAU, 3),
        ("antidiagonal", Fraction(0), "mirror", Fraction(0), True, TAU, 1),
        ("antidiagonal", Fraction(1, 2), "glide", Fraction(3, 2), False, TAU, 1),
    }
    assert sorted((c.fold, c.centre_kind, c.side) for c in inv.centres) == [
        (2, "cell_centre", E),
        (2, "cell_corner", E),
        (2, "edge_midpoint", E),
        (2, "edge_midpoint", E),
    ]
    assert not has_quarter_turn(twill("2/1"))
    assert not glides_all_mirror_position(twill("2/1"))


def test_inventory_twill_5_1():
    inv = axis_inventory(twill("5/1"))
    assert {entry_tuple(e) for e in inv.axes} == {
        ("diagonal", Fraction(1), "mirror", Fraction(0), True, TAU, 6),
        ("diagonal", Fraction(4), "mirror", Fraction(0), True, TAU, 6),
        ("antidiagonal", Fraction(0), "mirror", Fraction(0), True, TAU, 2),
        ("antidiagonal", Fraction(1), "mirror", Fraction(0), True, TAU, 2),
    }
    assert sorted((c.fold, c.centre_kind, c.side) for c in inv.centres) == [
        (2, "cell_centre", E),
        (2, "cell_centre", E),
        (2, "cell_corner", E),
        (2, "cell_corner", E),
    ]
    assert not has_quarter_turn(twill("5/1"))
    assert glides_all_mirror_position(twill("5/1"))  # no oblique glide axes at all


def test_inventory_listed_axes_really_exist():
    # each listed mirror/glide axis corresponds to an actual group element
    for d in [twill("2/1"), twill("5/1"), permutation_design((0, 1, 3, 2))]:
        group = find_symmetries(d)
        for e in axis_inventory(d).axes:
            found = False
            for rep in group.reps:
                lat = group.translations
                for i in range(-4, 5):
                    for j in range(-4, 5):
                        lam = (i * lat.v1[0] + j * lat.v2[0], i * lat.v1[1] + j * lat.v2[1])
                        g = compose(translation(*lam), rep)
                        from isoweave.isometry import classify

                        c = classify(g)
                        if (
                            c.axis == e.axis
                            and c.kind == e.kind
                            and c.offset is not None
                            and (c.offset % e.spacing) == e.offset
                            and (c.glide == e.glide or -c.glide == e.glide)
                            and g.side == e.side
                        ):
                            found = True
            assert found, e


def test_plain_weave_quarter_turns():
    p = plain_weave()
    assert has_quarter_turn(p)
    fold4 = [(c.centre_kind, c.side) for c in axis_inventory(p).centres if c.fold == 4]
    assert sorted(fold4) == [
        ("cell_centre", TAU),
        ("cell_centre", TAU),
        ("cell_corner", E),
        ("cell_corner", E),
    ]


def test_satin_has_quarter_turn():
    assert has_quarter_turn(permutation_design((0, 2, 4, 1, 3)))


# -- lattice unit reports ------------------------------------------------


def test_lattice_units_twill_3_1():
    lu = lattice_units(twill("3/1"))
    assert lu.preserving.det == 4
    assert lu.preserving.diag_step == 1
    assert lu.preserving.anti_step == 2
    assert lu.preserving.index == 1  # a 1-by-2 diagonal rectangle of cells
    assert lu.extended == lu.preserving  # no side-reversing translations


def test_lattice_units_plain_weave():
    lu = lattice_units(plain_weave())
    assert (lu.preserving.det, lu.preserving.diag_step, lu.preserving.anti_step) == (2, 1, 1)
    assert lu.preserving.index == 1
    assert (lu.extended.det, lu.extended.index) == (1, 2)  # centred square lattice


def test_lattice_units_twill_2_2():
    lu = lattice_units(twill("2/2"))
    assert (lu.preserving.det, lu.preserving.diag_step, lu.preserving.anti_step) == (4, 1, 2)
    assert (lu.extended.det, lu.extended.diag_step, lu.extended.anti_step) == (2, 1, 1)


def test_lattice_units_twill_2_1_is_rhombic():
    lu = lattice_units(twill("2/1"))
    assert (lu.preserving.det, lu.preserving.diag_step, lu.preserving.anti_step) == (3, 1, 3)
    assert lu.preserving.index == 2


# -- the permutation-pattern family with two glide directions -----------


def axial_glide_pattern() -> Design:
    return permutation_design((0, 1, 3, 2))


def test_two_glide_direction_patterns_form_one_class():
    found = []
    for perm in permutations(range(4)):
        inv = axis_inventory(permutation_design(perm))
        has_h = any(e.axis == "horizontal" and e.kind == "glide" for e in inv.axes)
        has_v = any(e.axis == "vertical" and e.kind == "glide" for e in inv.axes)
        if has_h and has_v:
            found.append(perm)
    assert len(found) == 16
    base = axial_glide_pattern()
    assert all(permutation_design(p).equal_up_to_translation(base) for p in found)


def test_axial_glide_pattern_inventory():
    inv = axis_inventory(axial_glide_pattern())
    axes = {entry_tuple(e) for e in inv.axes}
    assert ("horizontal", Fraction(0), "glide", Fraction(2), None, E, 4) in axes
    assert ("vertical", Fraction(0), "glide", Fraction(2), None, E, 4) in axes
    # oblique mirrors spaced four offset units apart, all in mirror position
    assert ("diagonal", Fraction(0), "mirror", Fraction(0), True, TAU, 4) in axes
    assert ("antidiagonal", Fraction(2), "mirror", Fraction(0), True, TAU, 4) in axes
    assert glides_all_mirror_position(axial_glide_pattern())
    # the two diagonal dominoes map to a translate of themselves under a
    # quarter turn, so the pattern also has side-reversing 4-fold centres
    assert has_quarter_turn(axial_glide_pattern())
    folds = {(c.centre_kind, c.side) for c in inv.centres if c.fold == 4}
    assert folds == {("cell_corner", TAU)}


def test_subgroup_check():
    two_one = find_symmetries(twill("2/1"))
    three_one = find_symmetries(twill("3/1"))
    pattern = find_symmetries(axial_glide_pattern())
    plain = find_symmetries(plain_weave())
    assert not subgroup_check(two_one, pattern)  # cell-diagonal translation missing
    assert not subgroup_check(three_one, pattern)
    assert subgroup_check(pattern, plain)
    assert subgroup_check(two_one, plain)
    for g in [two_one, three_one, pattern, plain]:
        assert subgroup_check(g, g)


# -- structural predicates ----------------------------------------------


def test_is_isonemal():
    for spec in ("1/1", "2/1", "3/1", "2/2", "5/1", "2/1/1/2"):
        assert is_isonemal(twill(spec))
    assert is_isonemal(permutation_design((0, 2, 4, 1, 3)))
    assert not is_isonemal(Design(1, 2, ("#", ".")))  # horizontal stripes
    # warp 0 floats over everything, warp 1 interlaces: not strand-transitive
    assert not is_isonemal(Design(2, 2, ("##", "#.")))


def test_hangs_together():
    for spec in ("1/1", "2/1", "3/1", "2/2", "3/3"):
        assert hangs_together(twill(spec))
    assert not hangs_together(Design(2, 2, ("##", "##")))  # warps lie loose
    assert not hangs_together(Design(2, 2, ("..", "..")))
    # a floating-strand mix: warp 0 always up, the rest plain weave
    d = Design(4, 2, ("#.#.", "##.#"))
    assert not hangs_together(d)


def test_find_symmetries_is_cached():
    a = find_symmetries(twill("2/1"))
    b = find_symmetries(twill("2/1"))
    assert a is b
