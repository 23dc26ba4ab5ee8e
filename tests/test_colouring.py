"""Tests for stripings: structure predicates, perfection, search, placement.

Expected stripings were derived by hand before freezing: for a twill,
the cell-diagonal translation forces any perfect thin equal-palette
striping to advance the weft palette by one per row, and the oblique
mirror/glide cosets then fix the unique compatible offset.
"""

import random

import numpy as np
import pytest

from helpers import per_strand_stripes_preserved, random_design
from isoweave.design import Design, permutation_design, plain_weave, twill
from isoweave.colouring import (
    ColourSetsRelation,
    Striping,
    colour_sets_relation,
    constructive_placement,
    induced_permutation,
    is_perfect,
    is_thin,
    is_twilly,
    redundancy,
    search_stripings,
    standard_colouring,
    stripes_preserved,
    twilly_stripings,
    visible,
)
from isoweave.symmetry import find_symmetries

EQ, DIS = ColourSetsRelation.EQUAL, ColourSetsRelation.DISJOINT


# -- striping values -----------------------------------------------------


def test_striping_validation():
    with pytest.raises(ValueError):
        Striping(0, (0,), (0,))
    with pytest.raises(ValueError):
        Striping(2, (), (0,))
    with pytest.raises(ValueError):
        Striping(2, (0, 2), (1,))


def test_striping_text_round_trip():
    s = Striping(3, (0, 1, 2), (1, 2, 0))
    assert str(s) == "c=3 warp=0,1,2 weft=1,2,0"
    assert Striping.parse(str(s)) == s
    assert Striping.parse("c=2 warp=0 weft=1") == standard_colouring()
    with pytest.raises(ValueError):
        Striping.parse("warp=0 weft=1")


def test_colour_lookup_is_periodic():
    s = Striping(3, (0, 1, 2), (2, 0, 1))
    assert [s.warp_colour(x) for x in range(-3, 4)] == [0, 1, 2, 0, 1, 2, 0]
    assert s.weft_colour(-1) == s.weft_colour(2) == 1


def test_is_thin_and_relation():
    assert is_thin(Striping(3, (0, 1, 2), (1, 0, 2)))
    assert not is_thin(Striping(3, (0, 1, 0, 2), (0, 1, 2)))
    assert colour_sets_relation(Striping(3, (0, 1, 2), (1, 2, 0))) == EQ
    assert colour_sets_relation(standard_colouring()) == DIS
    assert colour_sets_relation(Striping(3, (0, 1), (1, 2))) == ColourSetsRelation.MIXED


def test_visible_colours():
    grid = visible(plain_weave(), standard_colouring())
    assert grid.shape == (2, 2)
    # warp up shows colour 0, weft up shows colour 1
    assert grid[0, 0] == 0 and grid[1, 1] == 0 and grid[0, 1] == 1 and grid[1, 0] == 1
    grid = visible(twill("2/1"), Striping(3, (0, 1, 2), (1, 2, 0)))
    assert grid.shape == (3, 3)
    assert grid[0, 0] == 0  # warp up at origin


def test_redundancy_pattern():
    # equal thin palettes leave one invisible crossing per row
    r = redundancy(Striping(3, (0, 1, 2), (1, 2, 0)))
    assert r.cells == {(1, 0), (2, 1), (0, 2)}
    assert r.as_design() == permutation_design((1, 2, 0))
    # disjoint palettes: every crossing visible
    assert redundancy(standard_colouring()).is_empty
    assert redundancy(Striping(4, (0, 1), (2, 3))).as_design() == Design(2, 2, ("..", ".."))


def test_is_twilly():
    assert is_twilly(Striping(3, (0, 1, 2), (1, 2, 0)))
    assert is_twilly(Striping(3, (0, 1, 2), (0, 2, 1)))  # slope -1
    assert not is_twilly(Striping(4, (0, 1, 2, 3), (0, 2, 1, 3)))
    assert not is_twilly(standard_colouring())  # disjoint palettes
    assert is_twilly(Striping(1, (0,), (0,)))


def test_twilly_stripings_enumeration():
    assert len(twilly_stripings(1)) == 1
    assert len(twilly_stripings(2)) == 2  # the two slopes coincide
    assert len(twilly_stripings(3)) == 6
    assert len(twilly_stripings(5)) == 10
    for s in twilly_stripings(4):
        assert is_twilly(s) and s.warp_seq == (0, 1, 2, 3)


# -- perfection ----------------------------------------------------------


def test_standard_colouring_perfect_on_twills():
    for spec in ("1/1", "2/1", "3/1", "5/1", "2/2"):
        report = is_perfect(twill(spec), standard_colouring())
        assert report.perfect and report.conflict is None
        for g, perm in report.permutations:
            assert perm == ((1, 0) if g.point.swaps_directions else (0, 1))


def test_unique_perfect_three_colouring_of_twill_2_1():
    good = Striping(3, (0, 1, 2), (1, 2, 0))
    assert is_perfect(twill("2/1"), good).perfect
    for k in (0, 2):
        bad = Striping(3, (0, 1, 2), tuple((y + k) % 3 for y in range(3)))
        report = is_perfect(twill("2/1"), bad)
        assert not report.perfect and report.conflict is not None


def test_perfect_permutations_are_permutations():
    report = is_perfect(twill("4/1"), Striping(5, (0, 1, 2, 3, 4), (1, 2, 3, 4, 0)))
    assert report.perfect
    gens = find_symmetries(twill("4/1")).generators()
    assert tuple(g for g, _ in report.permutations) == gens
    for _, perm in report.permutations:
        assert sorted(perm) == list(range(5))


def test_induced_permutation_matches_report_and_composes():
    d = twill("2/1")
    s = Striping(3, (0, 1, 2), (1, 2, 0))
    report = is_perfect(d, s)
    assert report.perfect
    for g, perm in report.permutations:
        assert induced_permutation(d, s, g) == perm
    # the assignment g -> permutation is a homomorphism
    from isoweave.isometry import compose

    gens = [g for g, _ in report.permutations]
    for g in gens:
        for h in gens:
            pg = induced_permutation(d, s, g)
            ph = induced_permutation(d, s, h)
            pgh = induced_permutation(d, s, compose(g, h))
            assert pgh == tuple(pg[ph[c]] for c in range(3))


def test_induced_permutation_none_on_conflict():
    d = twill("2/1")
    bad = Striping(3, (0, 1), (2,))
    report = is_perfect(d, bad)
    assert not report.perfect
    assert induced_permutation(d, bad, report.conflict.isometry) is None


def test_conflict_witness_strands_disagree():
    # all wefts share colour 2, but the oblique mirror sends them to warps
    # of different colours - no single palette image can work
    report = is_perfect(twill("2/1"), Striping(3, (0, 1), (2,)))
    assert not report.perfect
    g = report.conflict.isometry
    a, b = report.conflict.strand_a, report.conflict.strand_b
    s = Striping(3, (0, 1), (2,))
    assert s.strand_colour(a) == s.strand_colour(b)
    from isoweave.isometry import act_on_strand

    assert s.strand_colour(act_on_strand(g, a)) != s.strand_colour(act_on_strand(g, b))


def test_stripes_preserved():
    assert stripes_preserved(plain_weave(), standard_colouring())
    assert stripes_preserved(twill("2/1"), Striping(3, (0, 1, 2), (1, 2, 0)))
    # perfection implies preservation, but not conversely: this thick
    # striping keeps its boundaries only under half the translations
    s = Striping(2, (0, 0, 1, 1), (0, 0, 1, 1))
    assert not stripes_preserved(plain_weave(), s)


def test_stripes_preserved_matches_the_per_strand_oracle(enumerated_designs):
    rng = random.Random(1079)
    verdicts = []
    for d in enumerated_designs[::10]:
        c = rng.randrange(2, 6)
        thin = Striping(c, tuple(range(c)), tuple(rng.sample(range(c), c)))
        thick = Striping(
            c,
            tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7))),
            tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7))),
        )
        for s in (thin, thick):
            verdict = stripes_preserved(d, s)
            assert verdict == per_strand_stripes_preserved(d, s), (d, s)
            verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100


# -- search --------------------------------------------------------------


def test_search_twill_2_1_three_colours():
    assert search_stripings(twill("2/1"), 3) == (Striping(3, (0, 1, 2), (1, 2, 0)),)


def test_search_twill_4_1_five_colours():
    assert search_stripings(twill("4/1"), 5) == (
        Striping(5, (0, 1, 2, 3, 4), (1, 2, 3, 4, 0)),
    )


def test_search_rejects_quarter_turn_designs():
    assert search_stripings(plain_weave(), 3) == ()
    assert search_stripings(plain_weave(), 4) == ()
    assert search_stripings(permutation_design((0, 2, 4, 1, 3)), 3) == ()


def test_search_disjoint():
    assert search_stripings(twill("3/1"), 4, DIS) == (Striping(4, (0, 1), (2, 3)),)
    assert search_stripings(twill("2/1"), 4, DIS) == (Striping(4, (0, 1), (2, 3)),)
    assert search_stripings(twill("2/1"), 2, DIS) == (standard_colouring(),)
    assert search_stripings(twill("2/1"), 3, DIS) == ()  # odd palettes cannot split


def test_search_rejects_mixed_relation():
    with pytest.raises(ValueError):
        search_stripings(twill("2/1"), 3, ColourSetsRelation.MIXED)


def test_thick_search_contains_thin_results():
    thin = search_stripings(twill("2/1"), 3)
    thick = search_stripings(twill("2/1"), 3, EQ, thin=False, max_len=3)
    for s in thin:
        assert s in thick
    assert [s for s in thick if is_thin(s)] == list(thin)


def test_disjoint_standard_is_found_for_any_design():
    rng = random.Random(15)
    for _ in range(10):
        d = random_design(rng, 4)
        assert standard_colouring() in search_stripings(d, 2, DIS)


# -- constructive placement ---------------------------------------------


def test_placement_matches_search_on_reference_twills():
    for spec, c in (("2/1", 3), ("4/1", 5), ("5/1", 6), ("2/2", 4), ("3/1", 4)):
        assert constructive_placement(twill(spec), c) == search_stripings(twill(spec), c)


def test_placement_twill_2_1():
    placed = constructive_placement(twill("2/1"), 3)
    assert placed == (Striping(3, (0, 1, 2), (1, 2, 0)),)
    assert all(is_twilly(s) for s in placed)


def test_placement_twill_4_1():
    placed = constructive_placement(twill("4/1"), 5)
    assert placed == (Striping(5, (0, 1, 2, 3, 4), (1, 2, 3, 4, 0)),)


def test_placement_even_palette_needs_mirror_position_glides():
    # cell-diagonal glide axes off mirror position bar even palettes
    assert constructive_placement(twill("2/1"), 6) == ()
    assert constructive_placement(twill("2/2"), 4) == ()
    # no oblique glide axes at all: the order-6 twill takes 6 colours
    assert constructive_placement(twill("5/1"), 6) == (
        Striping(6, (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)),
        Striping(6, (0, 1, 2, 3, 4, 5), (4, 5, 0, 1, 2, 3)),
    )


def test_placement_quarter_turn_ban():
    for c in (3, 4, 6):
        assert constructive_placement(plain_weave(), c) == ()
        assert constructive_placement(permutation_design((0, 2, 4, 1, 3)), c) == ()


def test_placement_single_colour_is_trivially_perfect():
    placed = constructive_placement(twill("2/1"), 1)
    assert placed == (Striping(1, (0,), (0,)),)
