"""Tests for the design grid type, constructors, and the file format."""

import random

import pytest

from isoweave.design import (
    Design,
    ParseError,
    TwillSpec,
    parse_design,
    permutation_design,
    plain_weave,
    reverse,
    serialise,
    twill,
)


def random_design(rng: random.Random, max_side: int = 6) -> Design:
    w = rng.randrange(1, max_side + 1)
    h = rng.randrange(1, max_side + 1)
    rows = tuple("".join(rng.choice("#.") for _ in range(w)) for _ in range(h))
    return Design(w, h, rows)


# -- file format ---------------------------------------------------------


def test_parse_serialise_round_trip():
    rng = random.Random(2026)
    for _ in range(50):
        d = random_design(rng)
        assert parse_design(serialise(d)) == d


def test_parse_top_line_is_highest_row():
    d = parse_design("design 2 2\n#.\n.#\n")
    # first grid line is y = 1, so the warp-up cells are (0,1) and (1,0)
    assert d.warp_up(0, 1) and d.warp_up(1, 0)
    assert not d.warp_up(0, 0) and not d.warp_up(1, 1)
    assert d.equal_up_to_translation(plain_weave())


def test_parse_known_twill_fragment():
    d = parse_design("design 3 3\n##.\n#.#\n.##\n")
    assert d.equal_up_to_translation(twill("2/1"))


def test_serialise_ends_with_newline_and_reparses():
    d = twill("2/1")
    text = serialise(d)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert parse_design(text) == d


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("weave 2 2\n#.\n.#\n", "line 1"),
        ("design two 2\n#.\n.#\n", "line 1"),
        ("design 0 2\n", "positive"),
        ("design 2 2\n#.\n", "2 grid lines"),
        ("design 2 2\n#.\n.#\n..\n", "2 grid lines"),
        ("design 2 2\n#.#\n.#\n", "line 2"),
        ("design 2 2\n#.\n.x\n", "line 3, column 2"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_design(text)
    assert fragment in str(info.value)


# -- design invariants ---------------------------------------------------


def test_design_validation():
    with pytest.raises(ValueError):
        Design(2, 2, ("#.",))
    with pytest.raises(ValueError):
        Design(2, 2, ("#.", "#"))
    with pytest.raises(ValueError):
        Design(2, 2, ("#.", "#x"))
    with pytest.raises(ValueError):
        Design(0, 1, ())


def test_lookup_is_doubly_periodic():
    rng = random.Random(7)
    for _ in range(20):
        d = random_design(rng)
        x, y = rng.randrange(-20, 20), rng.randrange(-20, 20)
        assert d.warp_up(x, y) == d.warp_up(x + d.width, y) == d.warp_up(x, y - d.height)


def test_to_array_matches_lookup():
    d = twill("2/1/1/2")
    a = d.to_array()
    assert a.shape == (d.height, d.width)
    for y in range(d.height):
        for x in range(d.width):
            assert a[y, x] == d.warp_up(x, y)


# -- twills --------------------------------------------------------------


def test_plain_weave_is_checkerboard():
    d = plain_weave()
    for x in range(4):
        for y in range(4):
            assert d.warp_up(x, y) == ((x + y) % 2 == 0)


def test_twill_rows_shift_right_going_up():
    for spec in ("2/1", "3/1", "2/2", "2/1/1/2"):
        d = twill(spec)
        for x in range(d.width):
            for y in range(d.height):
                assert d.warp_up(x + 1, y + 1) == d.warp_up(x, y)


def test_twill_column_reads_runs_from_origin():
    d = twill("2/1")
    # column x = 0, upwards from y = 0: over-run of 2, then under-run of 1
    assert [d.warp_up(0, y) for y in range(3)] == [True, True, False]
    d = twill("3/2/1/2")
    assert [d.warp_up(0, y) for y in range(8)] == [True] * 3 + [False] * 2 + [True] + [False] * 2


def test_twill_spec_validation_and_order():
    assert TwillSpec.parse("2/1").order == 3
    assert str(TwillSpec.parse(" 2/1/1/2 ")) == "2/1/1/2"
    with pytest.raises(ValueError):
        TwillSpec((2, 1, 1))  # odd number of runs
    with pytest.raises(ValueError):
        TwillSpec((2, 0))
    with pytest.raises(ValueError):
        TwillSpec.parse("2/x")


def test_order_is_least_strand_period():
    assert plain_weave().order == 2
    assert twill("2/1").order == 3
    assert twill("2/2").order == 4
    assert permutation_design((0, 2, 4, 1, 3)).order == 5
    # a non-reduced period still reports the least order
    big = Design(4, 4, ("#.#.", ".#.#") * 2)
    assert big.order == 2


def test_minimal_is_the_least_period_rectangle():
    plain = plain_weave()
    assert plain.minimal() is plain
    assert Design(4, 4, ("#.#.", ".#.#") * 2).minimal() == plain_weave()
    assert Design(6, 1, ("#.##.#",)).minimal() == Design(3, 1, ("#.#",))
    assert Design(4, 2, ("#.#.", "##..")).minimal() == Design(4, 2, ("#.#.", "##.."))
    rng = random.Random(12)
    for _ in range(100):
        d = random_design(rng)
        m = d.minimal()
        kx, ky = d.width // m.width, d.height // m.height
        assert (m.width * kx, m.height * ky) == (d.width, d.height)
        assert Design(d.width, d.height, tuple(row * kx for row in m.rows) * ky) == d
        for p in range(1, m.width):
            assert m.width % p or m.translated(p, 0) != m
        for p in range(1, m.height):
            assert m.height % p or m.translated(0, p) != m
        assert m.minimal() is m


# -- reverse and permutation designs ------------------------------------


def test_reverse_is_complement_in_place():
    rng = random.Random(11)
    for _ in range(20):
        d = random_design(rng)
        r = reverse(d)
        for y in range(d.height):
            for x in range(d.width):
                assert r.warp_up(x, y) != d.warp_up(x, y)
        assert reverse(r) == d


def test_reverse_of_twill_swaps_runs():
    assert reverse(twill("2/1")).equal_up_to_translation(twill("1/2"))
    assert reverse(twill("3/1")).equal_up_to_translation(twill("1/3"))
    assert reverse(plain_weave()).equal_up_to_translation(plain_weave())


def test_permutation_design_rows_and_columns():
    d = permutation_design((1, 3, 0, 2))
    for y, off in enumerate((1, 3, 0, 2)):
        assert [d.warp_up(x, y) for x in range(4)] == [x == off for x in range(4)]
    with pytest.raises(ValueError):
        permutation_design((0, 0, 1))


def test_equal_up_to_translation_handles_different_periods():
    d = twill("2/1")
    big = Design(6, 6, tuple("".join("#" if d.warp_up(x, y) else "." for x in range(6)) for y in range(6)))
    assert d.equal_up_to_translation(big)
    assert big.equal_up_to_translation(d.translated(2, 5))
    assert not d.equal_up_to_translation(twill("1/2"))
