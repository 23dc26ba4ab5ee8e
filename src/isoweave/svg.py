"""Deterministic SVG figures for weaves, stripings, and symmetry overlays.

Cells are drawn as filled squares, warps dark and wefts pale, over a
window of two fundamental periods in each direction by default.  With a
striping, each cell takes the dark variant of the visible warp colour or
the pale variant of the visible weft colour; a crossing whose two
strands share a colour looks the same whichever is uppermost, and is
drawn as the flat dark variant.

Overlays mark the reflection axes (solid for mirrors, dashed for glide
axes), rotation centres (a diamond for half turns, a square for quarter
turns), and optionally one translation-lattice unit cell.  Overlay ink
is black for symmetries of the weave itself and red for those carrying
the front onto the back.  Both axes and centres are drawn from the
design's axis inventory: each entry is one class of parallel axes or of
centres modulo the translation lattice, and the figure draws the class
members that fall in the window, so the work follows the number of
lines and markers drawn rather than the area of the window.

The back face is rendered by flipping the figure of the reversed design
left to right, which is what turning a fabric over does.  All output is
a pure function of the design, striping, and options, so repeated calls
yield byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator

from isoweave.colouring import Striping
from isoweave.design import Design, reverse
from isoweave.isometry import Side
from isoweave.symmetry import (
    AxisInventory,
    CentreEntry,
    Lattice,
    axis_inventory,
    find_symmetries,
    lattice_units,
)

__all__ = [
    "DEFAULT_PALETTE",
    "Face",
    "RenderOptions",
    "render_colouring",
    "render_design",
]


class Face(Enum):
    """Which side of the fabric the figure shows."""

    OBVERSE = "obverse"
    REVERSE = "reverse"


#: (dark, pale) pairs: green, red, blue, gold, purple, teal, brown, grey.
DEFAULT_PALETTE: tuple[tuple[str, str], ...] = (
    ("#1b7a2f", "#a9d8b0"),
    ("#b3202c", "#f0b4b9"),
    ("#1f4e9c", "#abc5ee"),
    ("#9a7b10", "#e7d98a"),
    ("#6b2d8b", "#d4b3e6"),
    ("#0f6b6b", "#9fd6d6"),
    ("#7a4a1f", "#dcb893"),
    ("#3d3d3d", "#c9c9c9"),
)

WARP_FILL = "#222222"
WEFT_FILL = "#f2f2f2"

_PRESERVING_INK = "#111111"
_REVERSING_INK = "#b3202c"


@dataclass(frozen=True)
class RenderOptions:
    """Figure options shared by the rendering entry points.

    ``window`` is a cell count (columns, rows); when omitted the window
    spans two periods of the weave (and of the striping, if any) in each
    direction.  ``palette`` must offer at least as many (dark, pale)
    pairs as the striping has colours.
    """

    cell_px: int = 20
    show_axes: bool = False
    show_lattice_unit: bool = False
    side: Face = Face.OBVERSE
    palette: tuple[tuple[str, str], ...] = DEFAULT_PALETTE
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.cell_px < 1:
            raise ValueError("cell_px must be positive")
        if self.window is not None and (self.window[0] < 1 or self.window[1] < 1):
            raise ValueError("window must be at least one cell each way")


def render_design(design: Design, options: RenderOptions = RenderOptions()) -> str:
    """An SVG figure of the bare weave, warps dark and wefts pale."""
    shown = design if options.side is Face.OBVERSE else reverse(design)
    window = options.window or (2 * design.width, 2 * design.height)

    def fill(x: int, y: int) -> str:
        return WARP_FILL if shown.warp_up(x, y) else WEFT_FILL

    return _figure(shown, fill, window, options)


def render_colouring(
    design: Design, striping: Striping, options: RenderOptions = RenderOptions()
) -> str:
    """An SVG figure of the weave under a striping.

    Warp-up crossings take the dark variant of the warp's colour,
    weft-up crossings the pale variant of the weft's; a crossing of two
    like-coloured strands is flat dark either way up.
    """
    if len(options.palette) < striping.colours:
        raise ValueError(
            f"palette has {len(options.palette)} pairs; "
            f"striping needs {striping.colours}"
        )
    shown = design if options.side is Face.OBVERSE else reverse(design)
    window = options.window or (
        2 * math.lcm(design.width, len(striping.warp_seq)),
        2 * math.lcm(design.height, len(striping.weft_seq)),
    )

    def fill(x: int, y: int) -> str:
        warp_colour = striping.warp_colour(x)
        weft_colour = striping.weft_colour(y)
        if warp_colour == weft_colour:
            return options.palette[warp_colour][0]
        if shown.warp_up(x, y):
            return options.palette[warp_colour][0]
        return options.palette[weft_colour][1]

    return _figure(shown, fill, window, options)


# -- assembly ------------------------------------------------------------


def _figure(
    shown: Design,
    fill: Callable[[int, int], str],
    window: tuple[int, int],
    options: RenderOptions,
) -> str:
    win_w, win_h = window
    px = options.cell_px
    width, height = win_w * px, win_h * px

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if options.side is Face.REVERSE:
        parts.append(f'<g transform="translate({width} 0) scale(-1 1)">')

    for y in range(win_h):
        top = (win_h - 1 - y) * px
        for x in range(win_w):
            parts.append(
                f'<rect class="cell" x="{x * px}" y="{top}" '
                f'width="{px}" height="{px}" fill="{fill(x, y)}"/>'
            )

    if options.show_lattice_unit:
        parts.extend(_lattice_outline(shown, win_h, px))
    if options.show_axes:
        inventory = axis_inventory(shown)
        lattice = find_symmetries(shown).translations
        parts.extend(_axis_overlay(inventory, win_w, win_h, px))
        parts.extend(_centre_overlay(inventory, lattice, win_w, win_h, px))

    if options.side is Face.REVERSE:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _px(value: Fraction | int, px: int) -> str:
    """A pixel coordinate as a minimal decimal literal."""
    scaled = Fraction(value) * px
    if scaled.denominator == 1:
        return str(scaled.numerator)
    return f"{float(scaled):g}"


def _line(
    p1: tuple[Fraction, Fraction],
    p2: tuple[Fraction, Fraction],
    win_h: int,
    px: int,
    ink: str,
    dashed: bool,
) -> str:
    x1, y1 = _px(p1[0], px), _px(win_h - p1[1], px)
    x2, y2 = _px(p2[0], px), _px(win_h - p2[1], px)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    width = "1.4" if dashed else "1.8"
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{ink}" stroke-width="{width}"{dash}/>'
    )


def _axis_overlay(
    inventory: AxisInventory, win_w: int, win_h: int, px: int
) -> Iterator[str]:
    """Lines for every axis of every class crossing the window."""
    for entry in inventory.axes:
        ink = _PRESERVING_INK if entry.side is Side.PRESERVING else _REVERSING_INK
        dashed = entry.kind == "glide"
        # range of the axis coordinate (y, x, x - y, or x + y) in the window
        if entry.axis == "horizontal":
            lo, hi = Fraction(0), Fraction(win_h)
        elif entry.axis == "vertical":
            lo, hi = Fraction(0), Fraction(win_w)
        elif entry.axis == "diagonal":
            lo, hi = Fraction(-win_h), Fraction(win_w)
        else:
            lo, hi = Fraction(0), Fraction(win_w + win_h)
        first = math.ceil((lo - entry.offset) / entry.spacing)
        last = math.floor((hi - entry.offset) / entry.spacing)
        for k in range(first, last + 1):
            value = entry.offset + k * entry.spacing
            if entry.axis == "horizontal":
                p1, p2 = (Fraction(0), value), (Fraction(win_w), value)
            elif entry.axis == "vertical":
                p1, p2 = (value, Fraction(0)), (value, Fraction(win_h))
            elif entry.axis == "diagonal":
                p1, p2 = (value, Fraction(0)), (value + win_h, Fraction(win_h))
            else:
                p1, p2 = (value, Fraction(0)), (value - win_h, Fraction(win_h))
            yield _line(p1, p2, win_h, px, ink, dashed)


def _centre_overlay(
    inventory: AxisInventory, lattice: Lattice, win_w: int, win_h: int, px: int
) -> Iterator[str]:
    """Markers at every rotation centre in the window.

    Each inventory entry is one class of centres modulo the translation
    lattice, so the centres it puts in the window are its translates by
    the lattice, whose basis (a, 0), (b, d) doubles to (2a, 0), (2b, 2d)
    in doubled coordinates.  A quarter-turn centre is also a half-turn
    centre; it gets the quarter-turn marker.  Markers are emitted by
    doubled point (x, y) sorted on (-y, x): the top row first and left to
    right within a row, a raster scan of the figure, which is the order
    the tracked gallery figures hold them in.
    """
    step_x, shear, step_y = 2 * lattice.a, 2 * lattice.b, 2 * lattice.d
    markers: dict[tuple[int, int], CentreEntry] = {}
    # fold-4 entries come last and replace the half-turn at their points
    for entry in sorted(inventory.centres, key=lambda e: e.fold):
        x0, y0 = int(2 * entry.centre[0]), int(2 * entry.centre[1])
        for y in range(y0 % step_y, 2 * win_h + 1, step_y):
            row_x = x0 + (y - y0) // step_y * shear
            for x in range(row_x % step_x, 2 * win_w + 1, step_x):
                markers[(x, y)] = entry
    for (x, y), entry in sorted(markers.items(), key=lambda item: (-item[0][1], item[0][0])):
        ink = _PRESERVING_INK if entry.side is Side.PRESERVING else _REVERSING_INK
        cx = x * px / 2
        cy = (2 * win_h - y) * px / 2
        if entry.fold == 4:
            r = 0.15 * px
            yield (
                f'<rect class="quarter-turn" x="{cx - r:g}" y="{cy - r:g}" '
                f'width="{2 * r:g}" height="{2 * r:g}" fill="{ink}"/>'
            )
        else:
            r = 0.18 * px
            points = (
                f"{cx:g},{cy - r:g} {cx + r:g},{cy:g} "
                f"{cx:g},{cy + r:g} {cx - r:g},{cy:g}"
            )
            yield f'<polygon class="half-turn" points="{points}" fill="{ink}"/>'


def _lattice_outline(shown: Design, win_h: int, px: int) -> Iterator[str]:
    unit = lattice_units(shown).preserving
    corners = [
        (0, 0),
        unit.v1,
        (unit.v1[0] + unit.v2[0], unit.v1[1] + unit.v2[1]),
        unit.v2,
    ]
    points = " ".join(f"{x * px},{(win_h - y) * px}" for x, y in corners)
    yield (
        f'<polygon class="lattice-unit" points="{points}" '
        f'fill="none" stroke="#1f4e9c" stroke-width="2.4"/>'
    )
