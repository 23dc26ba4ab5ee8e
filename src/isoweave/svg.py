"""Deterministic SVG figures for weaves, stripings, and symmetry overlays.

Cells are drawn as filled squares, warps dark and wefts pale, over a
window of two fundamental periods in each direction by default.  With a
striping, each cell takes the dark variant of the visible warp colour or
the pale variant of the visible weft colour; a crossing whose two
strands share a colour looks the same whichever is uppermost, and is
drawn as the flat dark variant.  The cells come from one fill-index
array built with numpy over the whole window - the design tiled, the
warp and weft colours broadcast against each other - that indexes one
table of inks, so no per-cell lookup is made.

Overlays mark the reflection axes (solid for mirrors, dashed for glide
axes), rotation centres (a diamond for half turns, a square for quarter
turns), and optionally one translation-lattice unit cell.  Overlay ink
is black for symmetries of the weave itself and red for those carrying
the front onto the back.  Both axes and centres are drawn from the
design's axis inventory: each entry is one class of parallel axes or of
centres modulo the translation lattice, and the figure draws the class
members that fall in the window, so the work follows the number of
lines and markers drawn rather than the area of the window.  Overlay
coordinates are worked in half cells (doubled coordinates), where every
axis offset and centre is an integer; only the final pixel value can be
a half.

The back face is rendered by flipping the figure of the reversed design
left to right, which is what turning a fabric over does.  The reversed
design is the complement, which has the same symmetry group, so the
overlays of both faces are drawn from the front's group.  All output is
a pure function of the design, striping, and options, so repeated calls
yield byte-identical SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from isoweave.colouring import Striping
from isoweave.design import Design
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
    window = options.window or (2 * design.width, 2 * design.height)
    up = _warp_up(design, window, options.side)
    return _figure(design, np.where(up, 0, 1), (WARP_FILL, WEFT_FILL), window, options)


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
    window = options.window or (
        2 * math.lcm(design.width, len(striping.warp_seq)),
        2 * math.lcm(design.height, len(striping.weft_seq)),
    )
    win_w, win_h = window
    warp = np.resize(striping.warp_seq, win_w)[None, :]
    weft = np.resize(striping.weft_seq, win_h)[:, None]
    dark = _warp_up(design, window, options.side) | (warp == weft)
    # palette pair c sits at ink indices 2c (dark) and 2c + 1 (pale)
    fill_index = np.where(dark, 2 * warp, 2 * weft + 1)
    inks = tuple(ink for pair in options.palette for ink in pair)
    return _figure(design, fill_index, inks, window, options)


# -- assembly ------------------------------------------------------------


def _warp_up(design: Design, window: tuple[int, int], side: Face) -> np.ndarray:
    """The face shown, tiled over the window: True where the warp is up.

    The back face is the complement of the front (see ``reverse``).
    """
    win_w, win_h = window
    rows = np.arange(win_h) % design.height
    cols = np.arange(win_w) % design.width
    up = design.to_array()[rows[:, None], cols]
    return up if side is Face.OBVERSE else ~up


def _figure(
    design: Design,
    fill_index: np.ndarray,
    inks: tuple[str, ...],
    window: tuple[int, int],
    options: RenderOptions,
) -> str:
    """Assemble the figure: cell ``(x, y)`` is filled with
    ``inks[fill_index[y, x]]``.  The overlays are drawn from the obverse
    design's group, which the back face shares."""
    win_w, win_h = window
    px = options.cell_px
    width, height = win_w * px, win_h * px

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if options.side is Face.REVERSE:
        parts.append(f'<g transform="translate({width} 0) scale(-1 1)">')

    heads = [f'<rect class="cell" x="{x * px}" y="' for x in range(win_w)]
    tails = [f'{ink}"/>' for ink in inks]
    for y, row in enumerate(fill_index.tolist()):
        middle = f'{(win_h - 1 - y) * px}" width="{px}" height="{px}" fill="'
        parts.extend(head + middle + tails[i] for head, i in zip(heads, row))

    if options.show_lattice_unit:
        parts.extend(_lattice_outline(design, win_h, px))
    if options.show_axes:
        inventory = axis_inventory(design)
        lattice = find_symmetries(design).translations
        parts.extend(_axis_overlay(inventory, win_w, win_h, px))
        parts.extend(_centre_overlay(inventory, lattice, win_w, win_h, px))

    if options.side is Face.REVERSE:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _px(doubled: int, px: int) -> str:
    """The pixel coordinate of a doubled coordinate, as a minimal decimal
    literal."""
    scaled = doubled * px
    return str(scaled // 2) if scaled % 2 == 0 else f"{scaled / 2:g}"


def _line(
    p1: tuple[int, int],
    p2: tuple[int, int],
    win_h: int,
    px: int,
    ink: str,
    dashed: bool,
) -> str:
    """A line between two doubled points, y flipped to run down the page."""
    x1, y1 = _px(p1[0], px), _px(2 * win_h - p1[1], px)
    x2, y2 = _px(p2[0], px), _px(2 * win_h - p2[1], px)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    width = "1.4" if dashed else "1.8"
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{ink}" stroke-width="{width}"{dash}/>'
    )


def _axis_overlay(
    inventory: AxisInventory, win_w: int, win_h: int, px: int
) -> Iterator[str]:
    """Lines for every axis of every class crossing the window.

    Works in doubled coordinates: an axis offset is a whole or half cell,
    so twice it is an integer, as are the doubled spacing and window.
    """
    w2, h2 = 2 * win_w, 2 * win_h
    for entry in inventory.axes:
        ink = _PRESERVING_INK if entry.side is Side.PRESERVING else _REVERSING_INK
        dashed = entry.kind == "glide"
        offset = 2 * entry.offset.numerator // entry.offset.denominator
        spacing = 2 * entry.spacing
        # range of the axis coordinate (y, x, x - y, or x + y) in the window
        if entry.axis == "horizontal":
            lo, hi = 0, h2
        elif entry.axis == "vertical":
            lo, hi = 0, w2
        elif entry.axis == "diagonal":
            lo, hi = -h2, w2
        else:
            lo, hi = 0, w2 + h2
        first = -((offset - lo) // spacing)
        last = (hi - offset) // spacing
        for k in range(first, last + 1):
            value = offset + k * spacing
            if entry.axis == "horizontal":
                p1, p2 = (0, value), (w2, value)
            elif entry.axis == "vertical":
                p1, p2 = (value, 0), (value, h2)
            elif entry.axis == "diagonal":
                p1, p2 = (value, 0), (value + h2, h2)
            else:
                p1, p2 = (value, 0), (value - h2, h2)
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


def _lattice_outline(design: Design, win_h: int, px: int) -> Iterator[str]:
    unit = lattice_units(design).preserving
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
