"""Closing a woven plane into a flat torus.

A period parallelogram of a coloured weave can have its opposite sides
identified, turning the infinite plane into a torus.  The parallelogram
must repeat both the interlacement and the colouring: each side must lie
in the translation lattice of the design's symmetry group and be a
multiple of the stripe periods.  A basis that is a period of the design
alone may need each vector multiplied to bring the colours back into
phase.

Two basis shapes cover the cases of interest.  An axis-aligned square of
side N uses vectors (N, 0) and (0, N).  A diagonal rectangle with sides
P and Q -- measured in cell diagonals -- uses vectors (P, P) and
(Q, -Q); this is the natural shape when the weave's translation lattice
is spanned by diagonal steps.

Once closed up, each vertical (or horizontal) line of the plane becomes
a closed strand winding around the torus.  `band_count` gives the strand
and band statistics in closed form, and `trace_strands` recomputes them
by brute force, following line identifications with a union-find; the
two must always agree.  A band is a group of palette-size adjacent
strands showing every colour once.  Whether apparently distinct bands
join up is governed by the cyclic group generated by the permutation of
band slots picked up on each circuit of the torus: the actual number of
bands is the slot count divided by the order of that permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from isoweave.colouring import Striping
from isoweave.design import Design, _least_period
from isoweave.symmetry import Lattice, find_symmetries

__all__ = [
    "BandReport",
    "BasisKind",
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


class BasisKind(Enum):
    """Shape of a torus period parallelogram."""

    AXIS_ALIGNED = "axis_aligned"
    DIAGONAL_RECT = "diagonal_rect"


@dataclass(frozen=True)
class TorusBasis:
    """A pair of independent integer vectors spanning a period parallelogram.

    Vectors are in cell units.  Use `axis_square` and `diagonal_rect`
    to construct the two supported shapes.
    """

    v1: tuple[int, int]
    v2: tuple[int, int]
    kind: BasisKind

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError("degenerate basis: vectors must be independent")

    @property
    def det(self) -> int:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]

    def scaled(self, k1: int, k2: int) -> "TorusBasis":
        """The basis with each vector multiplied by its own factor."""
        if k1 < 1 or k2 < 1:
            raise ValueError("scale factors must be positive")
        v1 = (k1 * self.v1[0], k1 * self.v1[1])
        v2 = (k2 * self.v2[0], k2 * self.v2[1])
        return TorusBasis(v1, v2, self.kind)

    @property
    def diagonal_sides(self) -> tuple[int, int]:
        """The (P, Q) side lengths in diagonal units of a diagonal rectangle."""
        if self.kind is not BasisKind.DIAGONAL_RECT:
            raise ValueError("not a diagonal rectangle")
        return self.v1[0], self.v2[0]

    def __str__(self) -> str:
        if self.kind is BasisKind.DIAGONAL_RECT:
            p, q = self.diagonal_sides
            return f"diag:{p},{q}"
        return f"square:{self.v1[0]}"


def diagonal_rect(p: int, q: int) -> TorusBasis:
    """The parallelogram spanned by (p, p) and (q, -q), sides in diagonals."""
    if p < 1 or q < 1:
        raise ValueError("diagonal sides must be positive")
    return TorusBasis((p, p), (q, -q), BasisKind.DIAGONAL_RECT)


def axis_square(n: int) -> TorusBasis:
    """The axis-aligned square spanned by (n, 0) and (0, n)."""
    if n < 1:
        raise ValueError("square side must be positive")
    return TorusBasis((n, 0), (0, n), BasisKind.AXIS_ALIGNED)


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
    """The smallest per-vector multiple of `basis` that closes up the colours.

    Each vector is scaled independently by its order modulo the periods
    of the coloured pattern (the design's translation lattice and the
    stripe periods), the least positive factor making it a period; a
    basis that already validates is returned unchanged.
    """
    return basis.scaled(_order(design, striping, basis.v1), _order(design, striping, basis.v2))


# -- counting ------------------------------------------------------------


def _phase_sides(basis: TorusBasis, colours: int) -> tuple[int, int]:
    """Side lengths (P, Q) after checking the colour-phase preconditions."""
    if colours < 1:
        raise ValueError("palette size must be positive")
    if basis.kind is BasisKind.DIAGONAL_RECT:
        p, q = basis.diagonal_sides
    else:
        p = q = basis.v1[0]
    if p % colours or q % colours:
        raise ValueError(
            f"colours out of phase: {colours} must divide both sides of {basis}"
        )
    return p, q


def band_count(basis: TorusBasis, colours: int) -> BandReport:
    """Closed-form strand statistics of the torus closed over `basis`.

    For a diagonal rectangle with sides (P, Q) there are gcd(P, Q)
    distinct strands in each direction, hence gcd(P, Q)/c of each
    colour, and each strand crosses the torus (P + Q)/gcd(P, Q) times.
    An axis-aligned square of side N carries N strands per direction,
    each crossing once.  `trace_strands` verifies these formulas.
    """
    p, q = _phase_sides(basis, colours)
    if basis.kind is BasisKind.AXIS_ALIGNED:
        return BandReport(p // colours, p // colours, 1)
    g = math.gcd(p, q)
    return BandReport(g // colours, g // colours, (p + q) // g)


def trace_strands(basis: TorusBasis, colours: int) -> BandReport:
    """Brute-force oracle for `band_count`.

    Vertical lines of the plane are indexed by x.  Within one horizontal
    period of the parallelogram, two indices name the same strand on the
    torus exactly when a lattice vector carries one to the other, so the
    strands are the orbits of the x-displacements of the basis acting on
    the index window.  Orbit count gives strands per direction, orbit
    size gives crossings per strand, and the canonical thin striping
    colours index x with x mod c, constant on each orbit.
    """
    p, q = _phase_sides(basis, colours)
    if basis.kind is BasisKind.AXIS_ALIGNED:
        window, shifts = p, (p,)
    else:
        window = p + q
        shifts = (p % window, q % window)

    parent = list(range(window))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j in range(window):
        for shift in shifts:
            a, b = find(j), find((j + shift) % window)
            if a != b:
                parent[a] = b

    classes: dict[int, list[int]] = {}
    for j in range(window):
        classes.setdefault(find(j), []).append(j)

    sizes = {len(members) for members in classes.values()}
    if len(sizes) != 1:
        raise AssertionError("strand classes of unequal size")
    per_colour: dict[int, int] = {}
    for members in classes.values():
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
    re-enters that side advances its slot by P/c for a diagonal
    rectangle and leaves it fixed for an axis-aligned square.  The
    actual number of bands is the number of orbits of this permutation,
    equivalently slots divided by the permutation's order.
    """
    p, q = _phase_sides(basis, colours)
    slots = q // colours
    step = (p // colours) % slots if basis.kind is BasisKind.DIAGONAL_RECT else 0
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
