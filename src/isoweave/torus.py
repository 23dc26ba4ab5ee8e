"""Closing a woven plane into a flat torus.

A period parallelogram of a coloured weave can have its opposite sides
identified, turning the infinite plane into a torus.  The parallelogram
must repeat both the interlacement and the colouring: each side must lie
in the translation lattice of the design's symmetry group and be a
multiple of the stripe periods.  A basis that is a period of the design
alone may need each vector multiplied to bring the colours back into
phase.

A basis is its two vectors, in one of two shapes.  An axis-aligned
square of side N uses vectors (N, 0) and (0, N); it is the shape whose
first vector is horizontal.  A diagonal rectangle with sides P and Q --
measured in cell diagonals -- uses vectors (P, P) and (Q, -Q); this is
the natural shape when the weave's translation lattice is spanned by
diagonal steps.  Inflation keeps the shape: a square grows into a square.

Once closed up, each vertical (or horizontal) line of the plane becomes
a closed strand winding around the torus.  `band_count` gives the strand
and band statistics in closed form from the vectors, and `trace_strands`
recomputes them by brute force, walking the strand classes that the two
basis translations identify (`isometry.strand_orbit`); the two must
always agree.  A band is a group of palette-size adjacent strands
showing every colour once.  Whether apparently distinct bands join up is
governed by the cyclic group generated by the permutation of band slots
picked up on each circuit of the torus: the actual number of bands is
the slot count divided by the order of that permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from isoweave.colouring import Striping, _check_palette
from isoweave.design import Design, _least_period
from isoweave.isometry import strand_map, strand_orbit, translation
from isoweave.symmetry import Lattice, find_symmetries

__all__ = [
    "BandReport",
    "TorusBasis",
    "axis_square",
    "band_count",
    "crossing_permutation",
    "cycle_notation",
    "diagonal_rect",
    "inflate",
    "trace_strands",
    "validate_torus",
]


@dataclass(frozen=True)
class TorusBasis:
    """The two vectors spanning a period parallelogram, in cell units:
    (P, P) and (Q, -Q) for a diagonal rectangle, or (N, 0) and (0, N)
    for an axis-aligned square, with P, Q, N >= 1.  Use `axis_square`
    and `diagonal_rect` to construct them.
    """

    v1: tuple[int, int]
    v2: tuple[int, int]

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.v1, self.v2
        square = (b, c, d) == (0, 0, a)
        diagonal = (b, d) == (a, -c) and c >= 1
        if a < 1 or not (square or diagonal):
            raise ValueError(
                f"not a torus basis: {self.v1}, {self.v2}; expected (P, P), (Q, -Q)"
                " or (N, 0), (0, N) with P, Q, N >= 1"
            )

    @property
    def det(self) -> int:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]

    def scaled(self, k1: int, k2: int) -> "TorusBasis":
        """The basis with each vector multiplied by its own factor."""
        if k1 < 1 or k2 < 1:
            raise ValueError("scale factors must be positive")
        v1 = (k1 * self.v1[0], k1 * self.v1[1])
        v2 = (k2 * self.v2[0], k2 * self.v2[1])
        return TorusBasis(v1, v2)

    @property
    def diagonal_sides(self) -> tuple[int, int]:
        """The (P, Q) side lengths in diagonal units of a diagonal rectangle."""
        if self.v1[1] == 0:
            raise ValueError("not a diagonal rectangle")
        return self.v1[0], self.v2[0]

    def __str__(self) -> str:
        if self.v1[1] == 0:
            return f"square:{self.v1[0]}"
        p, q = self.diagonal_sides
        return f"diag:{p},{q}"


def diagonal_rect(p: int, q: int) -> TorusBasis:
    """The parallelogram spanned by (p, p) and (q, -q), sides in diagonals."""
    return TorusBasis((p, p), (q, -q))


def axis_square(n: int) -> TorusBasis:
    """The axis-aligned square spanned by (n, 0) and (0, n)."""
    return TorusBasis((n, 0), (0, n))


@dataclass(frozen=True)
class BandReport:
    """Strand statistics of a woven torus, identical in both directions.

    For a thin equal-palette striping each band carries one strand of
    every colour, so bands and strands-per-colour coincide.
    """

    bands_per_direction: int
    strands_per_colour_per_direction: int
    crossings_per_strand: int


# -- validation ----------------------------------------------------------


def _order(design: Design, striping: Striping, v: tuple[int, int]) -> int:
    """Least k > 0 with k * v a period of the coloured pattern: the lcm of
    the orders of v in the design's translation lattice and in the
    stripes' lattice, spanned by the least periods of the two sequences."""
    stripes = Lattice(_least_period(striping.warp_seq), 0, _least_period(striping.weft_seq))
    return math.lcm(find_symmetries(design).translations.order(v), stripes.order(v))


def validate_torus(design: Design, striping: Striping, basis: TorusBasis) -> bool:
    """True iff both basis vectors are periods of the coloured pattern.

    Each vector must lie in the translation lattice of the design's
    symmetry group, so that it maps the design onto itself, and return
    every stripe to its own colour; for a diagonal rectangle with a thin
    equal-palette striping on c colours this comes down to c dividing
    both side lengths.  Raises ValueError, from ``find_symmetries``,
    when the design's minimal period rectangle is too large.
    """
    return all(_order(design, striping, v) == 1 for v in (basis.v1, basis.v2))


def inflate(design: Design, striping: Striping, basis: TorusBasis) -> TorusBasis:
    """The smallest multiple of `basis` of its own shape that closes up
    the colours.

    A diagonal rectangle scales each vector independently by its order
    modulo the periods of the coloured pattern (the design's translation
    lattice and the stripe periods), the least positive factor making it
    a period; a square scales both by the lcm of the two orders, giving
    the smallest closing square.  A basis that already validates is
    returned unchanged.
    """
    k1, k2 = _order(design, striping, basis.v1), _order(design, striping, basis.v2)
    if basis.v1[1] == 0:
        k1 = k2 = math.lcm(k1, k2)
    return basis.scaled(k1, k2)


# -- counting ------------------------------------------------------------


def _phase_sides(basis: TorusBasis, colours: int) -> tuple[int, int]:
    """Side lengths P = v1x and Q = |v2y| (both N for a square) after
    checking that the palette size divides them."""
    _check_palette(colours)
    p, q = basis.v1[0], abs(basis.v2[1])
    if p % colours or q % colours:
        raise ValueError(
            f"colours out of phase: {colours} must divide both sides of {basis}"
        )
    return p, q


def band_count(basis: TorusBasis, colours: int) -> BandReport:
    """Closed-form strand statistics of the torus closed over `basis`.

    With g = gcd(v1x, v2x) there are g distinct strands in each
    direction, hence g/c of each colour, and each strand crosses the
    torus (v1x + v2x)/g times: for a diagonal rectangle with sides
    (P, Q) that is gcd(P, Q) strands crossing (P + Q)/gcd(P, Q) times,
    and an axis-aligned square of side N carries N strands per
    direction, each crossing once.  `trace_strands` verifies these
    formulas.
    """
    _phase_sides(basis, colours)
    x1, x2 = basis.v1[0], basis.v2[0]
    g = math.gcd(x1, x2)
    return BandReport(g // colours, g // colours, (x1 + x2) // g)


def trace_strands(basis: TorusBasis, colours: int) -> BandReport:
    """Brute-force oracle for `band_count`.

    Vertical lines of the plane are indexed by x.  Within the window of
    v1x + v2x lines, two indices name the same strand on the torus
    exactly when the basis translations carry one to the other, so the
    strands are the orbits (`strand_orbit`) of the warp classes of the
    window under the strand maps of those translations.  Orbit count
    gives strands per direction, orbit size gives crossings per strand,
    and the canonical thin striping colours index x with x mod c,
    constant on each orbit.
    """
    _phase_sides(basis, colours)
    window = basis.v1[0] + basis.v2[0]
    maps = [strand_map(translation(*v)) for v in (basis.v1, basis.v2)]
    classes: list[set[int]] = []
    seen: set[int] = set()
    for j in range(window):
        if j not in seen:
            classes.append(strand_orbit(maps, window, j))
            seen |= classes[-1]

    sizes = {len(members) for members in classes}
    if len(sizes) != 1:
        raise AssertionError("strand classes of unequal size")
    per_colour: dict[int, int] = {}
    for members in classes:
        strand_colours = {j % colours for j in members}
        if len(strand_colours) != 1:
            raise AssertionError("strand crosses stripes of several colours")
        colour = strand_colours.pop()
        per_colour[colour] = per_colour.get(colour, 0) + 1
    counts = set(per_colour.values())
    if per_colour.keys() != set(range(colours)) or len(counts) != 1:
        raise AssertionError("colours unevenly represented among strands")

    strands = len(classes)
    return BandReport(strands // colours, counts.pop(), sizes.pop())


def crossing_permutation(basis: TorusBasis, colours: int) -> tuple[int, ...]:
    """How band slots are permuted by one circuit around the torus.

    The side spanned by the second basis vector is divided into Q/c
    slots, each the width of one band.  Following a band until it
    re-enters that side advances its slot by (P/c) mod (Q/c): P/c for a
    diagonal rectangle, and nothing for a square, where P = Q.  The
    actual number of bands is the number of orbits of this permutation,
    equivalently slots divided by the permutation's order.
    """
    p, q = _phase_sides(basis, colours)
    slots = q // colours
    step = (p // colours) % slots
    return tuple((i + step) % slots for i in range(slots))


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Cycle notation for a permutation, fixed points omitted; "()" if identity."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(str(i) for i in cycle) + ")")
    return "".join(cycles) if cycles else "()"
