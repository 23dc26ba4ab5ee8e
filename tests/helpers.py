"""Shared test oracles, independent of the library's own group machinery."""

import math
import random
from fractions import Fraction

import numpy as np

from isoweave.colouring import Striping
from isoweave.design import Cell, Design, Direction, Strand, reverse
from isoweave.isometry import Isometry, PointPart, Side, act_on_cell, act_on_strand
from isoweave.svg import (
    WARP_FILL,
    WEFT_FILL,
    _PRESERVING_INK,
    _REVERSING_INK,
    Face,
    RenderOptions,
    _centre_overlay,
    _lattice_outline,
)
from isoweave.symmetry import (
    _POINT_ORDER,
    AxisInventory,
    Lattice,
    SymmetryGroup,
    axis_inventory,
    find_symmetries,
)


def pointwise_symmetry_check(design: Design, iso: Isometry) -> bool:
    """Direct check that ``iso`` is a symmetry of ``design`` with the right
    side flag: raised values transported cell by cell must match exactly
    when the point part's direction swap and the side flag cancel, and be
    complemented otherwise."""
    swap = -1 if iso.point.swaps_directions else 1
    flip = -1 if iso.side == Side.REVERSING else 1
    expect_equal = swap * flip == 1
    w = design.width * 2
    h = design.height * 2
    for y in range(h):
        for x in range(w):
            image = act_on_cell(iso, Cell(x, y))
            same = design.warp_up(image.x, image.y) == design.warp_up(x, y)
            if same != expect_equal:
                return False
    return True


def random_design(rng: random.Random, max_side: int = 6) -> Design:
    w = rng.randrange(1, max_side + 1)
    h = rng.randrange(1, max_side + 1)
    rows = tuple("".join(rng.choice("#.") for _ in range(w)) for _ in range(h))
    return Design(w, h, rows)


_SUBSET_MASKS: dict[int, np.ndarray] = {}


def lifts_off_by_subsets(design: Design) -> bool:
    """True iff some nonempty proper set of strand classes lifts off the
    rest, found by testing the closure of every candidate subset outright
    (no reachability shortcut): a set can be lifted exactly when every
    strand passing over one of its members is itself a member."""
    w, h = design.width, design.height
    n = w + h
    over = np.zeros((n, n), dtype=np.uint8)  # over[s, t]: t crosses over s
    for y in range(h):
        for x in range(w):
            if design.warp_up(x, y):
                over[w + y, x] = 1
            else:
                over[x, w + y] = 1
    if n not in _SUBSET_MASKS:
        m = np.arange(1, 2**n - 1, dtype=np.uint32)
        _SUBSET_MASKS[n] = ((m[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(
            np.uint8
        )
    subsets = _SUBSET_MASKS[n]
    required = subsets @ over
    closed = ~((required > 0) & (subsets == 0)).any(axis=1)
    return bool(closed.any())


#: Image cell of (x, y) under each point part (before any shift), as
#: functions of index grids, written out by hand rather than read from
#: ``PointPart.matrix`` so the reference shares no geometry with the library.
_CELL_MAPS = {
    PointPart.IDENTITY: lambda xs, ys: (xs, ys),
    PointPart.ROT90: lambda xs, ys: (-ys - 1, xs),
    PointPart.ROT180: lambda xs, ys: (-xs - 1, -ys - 1),
    PointPart.ROT270: lambda xs, ys: (ys, -xs - 1),
    PointPart.MIRROR_H: lambda xs, ys: (xs, -ys - 1),
    PointPart.MIRROR_V: lambda xs, ys: (-xs - 1, ys),
    PointPart.MIRROR_D: lambda xs, ys: (ys, xs),
    PointPart.MIRROR_A: lambda xs, ys: (-ys - 1, -xs - 1),
}


def lcm_square_symmetries(design: Design) -> SymmetryGroup:
    """Reference symmetry search, sharing no search code with the library:
    tile the design to an L x L square, L = lcm(w, h), and compare the
    whole square with its image under every point part (hand-written cell
    maps) and every shift.  Tests compare ``find_symmetries`` with it."""
    L = math.lcm(design.width, design.height)
    tile = np.tile(design.to_array(), (L // design.height, L // design.width))
    ys, xs = np.indices((L, L))
    gx, gy = np.array([cell_map(xs, ys) for cell_map in _CELL_MAPS.values()]).swapaxes(0, 1)
    steps = np.arange(L)
    # cell (x, y) of the image under point part k and shift (tx, ty) is
    # tile[iy[k, ty, 0, y, x], ix[k, 0, tx, y, x]]
    iy = (gy[:, None, None] + steps[:, None, None, None]) % L
    ix = (gx[:, None, None] + steps[:, None, None]) % L
    # screen every map on the bottom row, then compare survivors in full
    row = tile[iy[..., :1, :], ix[..., :1, :]]
    ks, tys, txs = np.nonzero((row == tile[0]).all(axis=(3, 4)) | (row != tile[0]).all(axis=(3, 4)))
    images = tile[iy[ks, tys, 0], ix[ks, 0, txs]]
    equal = (images == tile).all(axis=(1, 2))
    complemented = (images != tile).all(axis=(1, 2))
    points = list(_CELL_MAPS)
    preserving: list[tuple[int, int]] = [(L, 0), (0, L)]
    found: dict[tuple[PointPart, Side], list[tuple[int, int]]] = {}
    for k, ty, tx, eq, comp in zip(ks, tys, txs, equal, complemented):
        if not (eq or comp):
            continue
        point = points[k]
        swaps = point.swaps_directions
        if eq:
            side = Side.REVERSING if swaps else Side.PRESERVING
        else:
            side = Side.PRESERVING if swaps else Side.REVERSING
        if point == PointPart.IDENTITY and side == Side.PRESERVING:
            preserving.append((int(tx), int(ty)))
        else:
            found.setdefault((point, side), []).append((int(tx), int(ty)))
    lattice = Lattice.from_vectors(preserving)
    reps = [Isometry(PointPart.IDENTITY, (0, 0), Side.PRESERVING)]
    extended = preserving
    for (point, side), shifts in found.items():
        for t in sorted({lattice.reduce(t) for t in shifts}):
            reps.append(Isometry(point, (2 * t[0], 2 * t[1]), side))
            if point == PointPart.IDENTITY:
                extended = extended + [t]
    reps.sort(key=lambda g: (_POINT_ORDER[g.point], g.side.value, g.shift[1], g.shift[0]))
    return SymmetryGroup(
        period=L,
        translations=lattice,
        extended_translations=Lattice.from_vectors(extended),
        reps=tuple(reps),
    )


def membership_scan_centre_overlay(shown: Design, win_w: int, win_h: int, px: int):
    """Reference for the SVG centre overlay: the quarter-turn and half-turn
    maps about each half-integer point of the window are tested for
    membership in the symmetry group directly.  Tests compare the
    inventory-driven overlay with it."""
    group = find_symmetries(shown)
    for b in range(2 * win_h, -1, -1):
        for a in range(2 * win_w + 1):
            quarter = half = None
            for side in (Side.PRESERVING, Side.REVERSING):
                if group.contains(Isometry(PointPart.ROT90, (a + b, b - a), side)):
                    quarter = side
                if group.contains(Isometry(PointPart.ROT180, (2 * a, 2 * b), side)):
                    half = side
            if quarter is None and half is None:
                continue
            cx = a * px / 2
            cy = (2 * win_h - b) * px / 2
            if quarter is not None:
                ink = _PRESERVING_INK if quarter is Side.PRESERVING else _REVERSING_INK
                r = 0.15 * px
                yield (
                    f'<rect class="quarter-turn" x="{cx - r:g}" y="{cy - r:g}" '
                    f'width="{2 * r:g}" height="{2 * r:g}" fill="{ink}"/>'
                )
            else:
                ink = _PRESERVING_INK if half is Side.PRESERVING else _REVERSING_INK
                r = 0.18 * px
                points = (
                    f"{cx:g},{cy - r:g} {cx + r:g},{cy:g} "
                    f"{cx:g},{cy + r:g} {cx - r:g},{cy:g}"
                )
                yield f'<polygon class="half-turn" points="{points}" fill="{ink}"/>'


def per_strand_stripes_preserved(design: Design, striping: Striping) -> bool:
    """Reference for ``stripes_preserved``: every stripe boundary is mapped
    strand by strand with ``act_on_strand``, and the colours of the two
    image strands are looked up directly."""
    group = find_symmetries(design)
    n = math.lcm(design.width, design.height, len(striping.warp_seq), len(striping.weft_seq))
    for g in group.generators():
        for direction in (Direction.WARP, Direction.WEFT):
            colour = (
                striping.warp_colour if direction == Direction.WARP else striping.weft_colour
            )
            for k in range(n):
                if colour(k) == colour(k + 1):
                    continue  # not a boundary
                a = act_on_strand(g, Strand(direction, k))
                b = act_on_strand(g, Strand(direction, k + 1))
                if striping.strand_colour(a) == striping.strand_colour(b):
                    return False
    return True


# -- per-cell SVG reference ----------------------------------------------
#
# The figure as drawn one cell at a time through ``warp_up`` and the
# striping's colour lookups, with its axes placed in Fraction arithmetic
# and its overlays drawn from the group of the face shown.  Tests compare
# the array raster and the doubled-integer overlays with it.


def per_cell_render_design(design: Design, options: RenderOptions = RenderOptions()) -> str:
    shown = design if options.side is Face.OBVERSE else reverse(design)
    window = options.window or (2 * design.width, 2 * design.height)

    def fill(x: int, y: int) -> str:
        return WARP_FILL if shown.warp_up(x, y) else WEFT_FILL

    return _per_cell_figure(shown, fill, window, options)


def per_cell_render_colouring(
    design: Design, striping: Striping, options: RenderOptions = RenderOptions()
) -> str:
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

    return _per_cell_figure(shown, fill, window, options)


def _per_cell_figure(shown, fill, window, options) -> str:
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
        parts.extend(fraction_axis_overlay(inventory, win_w, win_h, px))
        parts.extend(_centre_overlay(inventory, lattice, win_w, win_h, px))
    if options.side is Face.REVERSE:
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fraction_px(value, px: int) -> str:
    scaled = Fraction(value) * px
    if scaled.denominator == 1:
        return str(scaled.numerator)
    return f"{float(scaled):g}"


def _fraction_line(p1, p2, win_h: int, px: int, ink: str, dashed: bool) -> str:
    x1, y1 = _fraction_px(p1[0], px), _fraction_px(win_h - p1[1], px)
    x2, y2 = _fraction_px(p2[0], px), _fraction_px(win_h - p2[1], px)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    width = "1.4" if dashed else "1.8"
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{ink}" stroke-width="{width}"{dash}/>'
    )


def fraction_axis_overlay(inventory: AxisInventory, win_w: int, win_h: int, px: int):
    """Reference for the SVG axis overlay, in cell units with Fractions."""
    for entry in inventory.axes:
        ink = _PRESERVING_INK if entry.side is Side.PRESERVING else _REVERSING_INK
        dashed = entry.kind == "glide"
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
            yield _fraction_line(p1, p2, win_h, px, ink, dashed)
