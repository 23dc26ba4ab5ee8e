"""Tests for torus closure: validation, inflation, and strand counting.

The closed-form counts are checked against the brute-force line-tracing
oracle throughout; frozen values below were derived by hand from the
gcd picture (strands per direction = gcd of the diagonal sides, each
crossing (P+Q)/gcd times) before being compared with the trace.
"""

import random

import pytest

from helpers import per_cell_inflate, per_cell_validate_torus, random_design, tiled
from isoweave.design import Design, plain_weave, twill
from isoweave.colouring import Striping
from isoweave.torus import (
    BandReport,
    TorusBasis,
    axis_square,
    band_count,
    crossing_permutation,
    cycle_notation,
    diagonal_rect,
    inflate,
    trace_strands,
    validate_torus,
)

# an order-10 twill whose lattice holds (1, 1) and (5, -5); with three
# colours the antidiagonal side must be tripled to come back into phase
DESIGN = twill("3/7")
THREE = Striping(3, (0, 1, 2), (1, 2, 0))


def _order(perm: tuple[int, ...]) -> int:
    n, current = 1, perm
    identity = tuple(range(len(perm)))
    while current != identity:
        current = tuple(perm[i] for i in current)
        n += 1
    return n


def _orbits(perm: tuple[int, ...]) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return count


# -- bases ---------------------------------------------------------------


def test_basis_construction():
    b = diagonal_rect(3, 15)
    assert b.v1 == (3, 3) and b.v2 == (15, -15)
    assert b.diagonal_sides == (3, 15)
    assert str(b) == "diag:3,15"
    s = axis_square(30)
    assert s.v1 == (30, 0) and s.v2 == (0, 30)
    assert str(s) == "square:30"
    assert s.det == 900 and b.det == -90


def test_basis_validation():
    with pytest.raises(ValueError):
        diagonal_rect(0, 5)
    with pytest.raises(ValueError):
        axis_square(0)
    with pytest.raises(ValueError):
        TorusBasis((2, 2), (1, 1))
    with pytest.raises(ValueError):
        diagonal_rect(3, 15).scaled(0, 1)
    assert diagonal_rect(3, 5).scaled(1, 3) == diagonal_rect(3, 15)
    with pytest.raises(ValueError):
        axis_square(4).diagonal_sides


def test_basis_is_one_of_two_shapes():
    for v1, v2 in (((2, 0), (0, 3)), ((2, 2), (1, 1)), ((2, 2), (-1, 1)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError, match="not a torus basis"):
            TorusBasis(v1, v2)
    with pytest.raises(ValueError, match="not a torus basis"):
        axis_square(2).scaled(1, 2)
    assert TorusBasis((2, 0), (0, 2)) == axis_square(2)
    assert TorusBasis((2, 2), (1, -1)) == diagonal_rect(2, 1)


# -- validation ----------------------------------------------------------


def test_validate_diagonal_phases():
    assert validate_torus(DESIGN, THREE, diagonal_rect(3, 15))
    assert not validate_torus(DESIGN, THREE, diagonal_rect(3, 5))
    assert not validate_torus(DESIGN, THREE, diagonal_rect(3, 10))
    assert not validate_torus(DESIGN, THREE, diagonal_rect(1, 15))


def test_validate_squares():
    assert validate_torus(DESIGN, THREE, axis_square(30))
    # side in phase with the colours but not a design period
    assert not validate_torus(DESIGN, THREE, axis_square(12))
    # design period but colours out of phase
    assert not validate_torus(DESIGN, THREE, axis_square(10))


def test_validate_uses_minimal_stripe_periods():
    thick = Striping(2, (0, 0, 1), (0, 1))
    assert validate_torus(plain_weave(), thick, diagonal_rect(6, 6))
    assert not validate_torus(plain_weave(), thick, diagonal_rect(6, 2))
    assert not validate_torus(plain_weave(), thick, diagonal_rect(3, 6))


# -- inflation -----------------------------------------------------------


def test_inflate_antidiagonal_side():
    assert inflate(DESIGN, THREE, diagonal_rect(3, 5)) == diagonal_rect(3, 15)


def test_inflate_is_identity_on_valid_bases():
    b = diagonal_rect(3, 15)
    assert inflate(DESIGN, THREE, b) == b
    assert inflate(DESIGN, THREE, axis_square(30)) == axis_square(30)


def test_inflate_square_to_palette_lcm():
    assert inflate(DESIGN, THREE, axis_square(10)) == axis_square(30)
    six = Striping(6, (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    assert inflate(twill("2/2"), six, axis_square(4)) == axis_square(12)


def test_inflate_keeps_a_square_square():
    # the horizontal side closes at 3, the vertical one needs 6
    assert inflate(twill("2/1"), Striping(2, (0,), (0, 1)), axis_square(3)) == axis_square(6)


def test_validate_and_inflate_match_the_per_cell_oracle(enumerated_designs, isonemal_pool):
    rng = random.Random(1079)
    randoms = [random_design(rng, 7) for _ in range(100)]
    tilings = [tiled(d, kx, ky) for d in randoms for kx, ky in ((2, 1), (1, 3), (2, 2))]
    verdicts = []
    for d in enumerated_designs[::10] + isonemal_pool + randoms + tilings:
        c = rng.randrange(1, 6)
        thin = Striping(c, tuple(range(c)), tuple(rng.sample(range(c), c)))
        thick = Striping(
            c,
            tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7))),
            tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7))),
        )
        for s in (thin, thick):
            for b in (
                diagonal_rect(rng.randrange(1, 13), rng.randrange(1, 13)),
                axis_square(rng.randrange(1, 25)),
            ):
                inflated = inflate(d, s, b)
                assert inflated == per_cell_inflate(d, s, b), (d, s, b)
                if b.v1[1] == 0:
                    assert inflated == axis_square(inflated.v1[0]), (d, s, b)
                    assert validate_torus(d, s, inflated), (d, s, b)
                for basis in (b, inflated):
                    verdicts.append(validate_torus(d, s, basis))
                    assert verdicts[-1] == per_cell_validate_torus(d, s, basis), (d, s, basis)
    assert 1000 < sum(verdicts) < len(verdicts) - 1000


# -- counting ------------------------------------------------------------


def test_band_count_reference_values():
    assert band_count(diagonal_rect(3, 15), 3) == BandReport(1, 1, 6)
    assert band_count(diagonal_rect(15, 15), 3) == BandReport(5, 5, 2)
    assert band_count(diagonal_rect(21, 15), 3) == BandReport(1, 1, 12)
    assert band_count(axis_square(30), 3) == BandReport(10, 10, 1)


def test_band_count_phase_errors():
    with pytest.raises(ValueError):
        band_count(diagonal_rect(3, 10), 3)
    with pytest.raises(ValueError):
        band_count(axis_square(10), 3)
    with pytest.raises(ValueError):
        band_count(diagonal_rect(3, 15), 0)


def test_band_count_checks_the_palette_like_colouring():
    with pytest.raises(ValueError, match="palette must have at least one colour, got 0"):
        band_count(axis_square(3), 0)


def test_trace_reference_values():
    assert trace_strands(diagonal_rect(3, 15), 3) == BandReport(1, 1, 6)
    assert trace_strands(diagonal_rect(15, 15), 3) == BandReport(5, 5, 2)
    assert trace_strands(diagonal_rect(21, 15), 3) == BandReport(1, 1, 12)
    assert trace_strands(axis_square(30), 3) == BandReport(10, 10, 1)


def test_trace_agrees_with_closed_form():
    for c in (2, 3):
        for i in range(1, 9):
            for j in range(1, 9):
                b = diagonal_rect(c * i, c * j)
                assert trace_strands(b, c) == band_count(b, c), b
        for i in range(1, 9):
            b = axis_square(c * i)
            assert trace_strands(b, c) == band_count(b, c), b


def test_multiplier_table():
    bands = [
        trace_strands(diagonal_rect(3 * k, 15), 3).bands_per_direction
        for k in range(1, 11)
    ]
    assert bands == [1, 1, 1, 1, 5, 1, 1, 1, 1, 5]


def test_prime_slot_count_gives_one_or_all():
    # five band slots along the fixed side: a prime, so multiplying the
    # other side yields either one band or all five
    for p in range(3, 61, 3):
        bands = band_count(diagonal_rect(p, 15), 3).bands_per_direction
        assert bands in (1, 5)


# -- crossing permutation ------------------------------------------------


def test_crossing_permutation_reference_values():
    assert crossing_permutation(diagonal_rect(3, 15), 3) == (1, 2, 3, 4, 0)
    assert crossing_permutation(diagonal_rect(15, 15), 3) == (0, 1, 2, 3, 4)
    assert crossing_permutation(diagonal_rect(21, 15), 3) == (2, 3, 4, 0, 1)
    assert crossing_permutation(axis_square(30), 3) == tuple(range(10))


def test_bands_from_permutation_order():
    for c in (2, 3):
        for i in range(1, 9):
            for j in range(1, 9):
                b = diagonal_rect(c * i, c * j)
                perm = crossing_permutation(b, c)
                bands = band_count(b, c).bands_per_direction
                assert bands == _orbits(perm)
                assert bands == len(perm) // _order(perm)


def test_cycle_notation():
    assert cycle_notation((1, 2, 3, 4, 0)) == "(0 1 2 3 4)"
    assert cycle_notation((2, 3, 4, 0, 1)) == "(0 2 4 1 3)"
    assert cycle_notation((0, 1, 2, 3, 4)) == "()"
    assert cycle_notation((0, 2, 1)) == "(1 2)"
