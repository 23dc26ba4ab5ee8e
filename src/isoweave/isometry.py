"""Plane isometries compatible with a square grid, with a side flag.

Every isometry considered here is ``p -> M p + s`` where M is one of the
eight symmetries of the square (the point part) and s is a translation.
Coordinates are *doubled*: the centre of cell (x, y) is the doubled point
(2x + 1, 2y + 1), cell corners are even-even doubled points, and edge
midpoints have mixed parity.  Doubling keeps every geometric datum -
centres, axes, glides - in integer or simple fractional arithmetic.

Each isometry also carries a *side* flag saying whether it maps the near
face of the fabric to itself (side-preserving, printed ``e``) or to the far
face (side-reversing, printed ``tau``).  A side-reversing symmetry of a
design relates it to its complement.

``classify`` reduces an isometry to its geometric type: translation vector,
rotation centre, or mirror/glide axis with offset and glide length.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from isoweave.design import Cell, Direction, Strand

Matrix = tuple[tuple[int, int], tuple[int, int]]


class PointPart(Enum):
    """The eight point symmetries of the square lattice."""

    IDENTITY = "identity"
    ROT90 = "rot90"  # quarter turn anticlockwise
    ROT180 = "rot180"
    ROT270 = "rot270"  # quarter turn clockwise
    MIRROR_H = "mirror_h"  # reflect across a horizontal axis
    MIRROR_V = "mirror_v"  # reflect across a vertical axis
    MIRROR_D = "mirror_diag"  # reflect across an axis of slope +1
    MIRROR_A = "mirror_anti"  # reflect across an axis of slope -1

    @property
    def matrix(self) -> Matrix:
        return _MATRICES[self]

    @property
    def swaps_directions(self) -> bool:
        """True iff the point part exchanges verticals and horizontals."""
        m = _MATRICES[self]
        return m[0][0] == 0

    @property
    def is_rotation(self) -> bool:
        m = _MATRICES[self]
        return m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


_MATRICES: dict[PointPart, Matrix] = {
    PointPart.IDENTITY: ((1, 0), (0, 1)),
    PointPart.ROT90: ((0, -1), (1, 0)),
    PointPart.ROT180: ((-1, 0), (0, -1)),
    PointPart.ROT270: ((0, 1), (-1, 0)),
    PointPart.MIRROR_H: ((1, 0), (0, -1)),
    PointPart.MIRROR_V: ((-1, 0), (0, 1)),
    PointPart.MIRROR_D: ((0, 1), (1, 0)),
    PointPart.MIRROR_A: ((0, -1), (-1, 0)),
}

_BY_MATRIX: dict[Matrix, PointPart] = {m: p for p, m in _MATRICES.items()}


class Side(Enum):
    """Whether an isometry keeps the fabric's near face or turns it over."""

    PRESERVING = "e"
    REVERSING = "tau"

    def __mul__(self, other: "Side") -> "Side":
        return Side.PRESERVING if self == other else Side.REVERSING


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_vec(m: Matrix, v: tuple[int, int]) -> tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


@dataclass(frozen=True)
class Isometry:
    """``p -> M p + shift`` on doubled coordinates, with a side flag.

    ``shift`` is in doubled units: an even shift moves cells to cells, so
    every symmetry *of a design* has an even shift.  Odd components are
    legal (they describe, e.g., axes through strand boundaries) but such a
    map cannot act on cells.
    """

    point: PointPart
    shift: tuple[int, int]
    side: Side = Side.PRESERVING

    @property
    def preserves_cells(self) -> bool:
        return self.shift[0] % 2 == 0 and self.shift[1] % 2 == 0

    def __str__(self) -> str:
        return (
            f"point={self.point.value} "
            f"shift=({self.shift[0]},{self.shift[1]})/2 "
            f"side={self.side.value}"
        )


def identity() -> Isometry:
    return Isometry(PointPart.IDENTITY, (0, 0), Side.PRESERVING)


def translation(dx_cells: int, dy_cells: int, side: Side = Side.PRESERVING) -> Isometry:
    """Translation by whole cells."""
    return Isometry(PointPart.IDENTITY, (2 * dx_cells, 2 * dy_cells), side)


def compose(g: Isometry, h: Isometry) -> Isometry:
    """The isometry applying ``h`` first, then ``g``."""
    m = _mat_mul(g.point.matrix, h.point.matrix)
    mv = _mat_vec(g.point.matrix, h.shift)
    return Isometry(
        _BY_MATRIX[m],
        (mv[0] + g.shift[0], mv[1] + g.shift[1]),
        g.side * h.side,
    )


def invert(g: Isometry) -> Isometry:
    m = g.point.matrix
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv: Matrix = (
        (m[1][1] * det, -m[0][1] * det),
        (-m[1][0] * det, m[0][0] * det),
    )
    mv = _mat_vec(inv, g.shift)
    return Isometry(_BY_MATRIX[inv], (-mv[0], -mv[1]), g.side)


def act_on_doubled(g: Isometry, p: tuple[int, int]) -> tuple[int, int]:
    mv = _mat_vec(g.point.matrix, p)
    return (mv[0] + g.shift[0], mv[1] + g.shift[1])


def act_on_cell(g: Isometry, c: Cell) -> Cell:
    """Image cell of ``c``; requires an even (cell-preserving) shift."""
    if not g.preserves_cells:
        raise ValueError(f"isometry does not preserve cells: {g}")
    u, v = act_on_doubled(g, (2 * c.x + 1, 2 * c.y + 1))
    return Cell((u - 1) // 2, (v - 1) // 2)


def act_on_strand(g: Isometry, s: Strand) -> Strand:
    """Image strand of ``s``: a warp maps to a warp, or to a weft when the
    point part swaps directions (and vice versa)."""
    if not g.preserves_cells:
        raise ValueError(f"isometry does not preserve cells: {g}")
    m = g.point.matrix
    doubled = 2 * s.index + 1
    if s.direction == Direction.WARP:
        if g.point.swaps_directions:
            return Strand(Direction.WEFT, (m[1][0] * doubled + g.shift[1] - 1) // 2)
        return Strand(Direction.WARP, (m[0][0] * doubled + g.shift[0] - 1) // 2)
    if g.point.swaps_directions:
        return Strand(Direction.WARP, (m[0][1] * doubled + g.shift[0] - 1) // 2)
    return Strand(Direction.WEFT, (m[1][1] * doubled + g.shift[1] - 1) // 2)


# -- geometric classification -------------------------------------------

#: Axis labels, keyed by the mirror point parts.
_AXIS_OF = {
    PointPart.MIRROR_H: "horizontal",
    PointPart.MIRROR_V: "vertical",
    PointPart.MIRROR_D: "diagonal",
    PointPart.MIRROR_A: "antidiagonal",
}


@dataclass(frozen=True)
class IsoClass:
    """Geometric reading of an isometry.

    ``kind`` is one of ``translation``, ``half_turn``, ``quarter_turn``,
    ``mirror``, ``glide``.  The remaining fields apply per kind and are
    ``None`` otherwise.

    * translation: ``vector`` in cell units.
    * half_turn / quarter_turn: ``centre`` in cell units; ``centre_kind``
      says where it sits (``cell_centre``, ``cell_corner``,
      ``edge_midpoint``); quarter turns also carry ``angle`` (90 or 270).
    * mirror / glide: ``axis`` direction; ``offset`` locates the axis
      (the constant y, x, x - y or x + y along it, in cell units);
      ``glide`` is the glide translation - in cell units for horizontal or
      vertical axes, in units of the diagonal cell step for the oblique
      ones - and is 0 exactly for pure mirrors.  ``mirror_position`` (only
      for oblique axes) is True when the axis runs through cell centres
      and corners rather than through edge midpoints.
    """

    kind: str
    side: Side
    vector: tuple[Fraction, Fraction] | None = None
    centre: tuple[Fraction, Fraction] | None = None
    centre_kind: str | None = None
    angle: int | None = None
    axis: str | None = None
    offset: Fraction | None = None
    glide: Fraction | None = None
    mirror_position: bool | None = None


def _centre_kind(doubled_x: Fraction | int, doubled_y: Fraction | int) -> str | None:
    if doubled_x.denominator != 1 or doubled_y.denominator != 1:
        return None
    ox, oy = doubled_x.numerator % 2, doubled_y.numerator % 2
    if ox == 1 and oy == 1:
        return "cell_centre"
    if ox == 0 and oy == 0:
        return "cell_corner"
    return "edge_midpoint"


def classify(g: Isometry) -> IsoClass:
    """Reduce ``g`` to its geometric type (see :class:`IsoClass`)."""
    sx, sy = Fraction(g.shift[0]), Fraction(g.shift[1])
    p = g.point
    if p == PointPart.IDENTITY:
        return IsoClass("translation", g.side, vector=(sx / 2, sy / 2))
    if p == PointPart.ROT180:
        cx, cy = sx / 2, sy / 2  # doubled-coordinate centre
        return IsoClass(
            "half_turn",
            g.side,
            centre=(cx / 2, cy / 2),
            centre_kind=_centre_kind(cx, cy),
            angle=180,
        )
    if p in (PointPart.ROT90, PointPart.ROT270):
        if p == PointPart.ROT90:
            cx, cy = (sx - sy) / 2, (sx + sy) / 2
            angle = 90
        else:
            cx, cy = (sx + sy) / 2, (sy - sx) / 2
            angle = 270
        return IsoClass(
            "quarter_turn",
            g.side,
            centre=(cx / 2, cy / 2),
            centre_kind=_centre_kind(cx, cy),
            angle=angle,
        )
    axis = _AXIS_OF[p]
    if p == PointPart.MIRROR_H:
        offset, glide = sy / 4, sx / 2
        mp = None
    elif p == PointPart.MIRROR_V:
        offset, glide = sx / 4, sy / 2
        mp = None
    elif p == PointPart.MIRROR_D:
        offset, glide = (sx - sy) / 4, (sx + sy) / 4
        mp = offset.denominator == 1
    else:  # MIRROR_A
        offset, glide = (sx + sy) / 4, (sx - sy) / 4
        mp = offset.denominator == 1
    return IsoClass(
        "mirror" if glide == 0 else "glide",
        g.side,
        axis=axis,
        offset=offset,
        glide=glide,
        mirror_position=mp,
    )
