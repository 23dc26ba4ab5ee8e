"""Shared test oracles, independent of the library's own group machinery."""

import argparse
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from isoweave.cli import (
    _cmd_analyze,
    _cmd_check,
    _cmd_hang,
    _cmd_place,
    _cmd_render,
    _cmd_search,
    _cmd_torus,
    _cmd_twill,
)
from isoweave.colouring import ColourSetsRelation, ColouringReport, Conflict, Striping
from isoweave.design import Design, Direction, Strand, reverse
from isoweave.isometry import Isometry, PointPart, Side, act_on_doubled
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
from isoweave.torus import TorusBasis


@dataclass(frozen=True)
class Cell:
    """A grid cell, addressed by column x and row y."""

    x: int
    y: int


def act_on_cell(g: Isometry, c: Cell) -> Cell:
    """Image cell of ``c``; requires an even (cell-preserving) shift."""
    if not g.preserves_cells:
        raise ValueError(f"isometry does not preserve cells: {g}")
    u, v = act_on_doubled(g, (2 * c.x + 1, 2 * c.y + 1))
    return Cell((u - 1) // 2, (v - 1) // 2)


def act_on_strand(g: Isometry, s: Strand) -> Strand:
    """Image strand of ``s``, read off the images of two cells on it: the
    column (a warp) or row (a weft) that both image cells share.  Tests
    compare the library's ``strand_map`` with it."""
    if s.direction == Direction.WARP:
        a, b = act_on_cell(g, Cell(s.index, 0)), act_on_cell(g, Cell(s.index, 1))
    else:
        a, b = act_on_cell(g, Cell(0, s.index)), act_on_cell(g, Cell(1, s.index))
    if a.x == b.x:
        return Strand(Direction.WARP, a.x)
    assert a.y == b.y
    return Strand(Direction.WEFT, a.y)


def equal_up_to_translation(d: Design, e: Design) -> bool:
    """True iff some translate of ``e`` matches ``d`` cell-for-cell."""
    w = math.lcm(d.width, e.width)
    h = math.lcm(d.height, e.height)
    for dx in range(w):
        for dy in range(h):
            if all(
                d.warp_up(x, y) == e.warp_up(x - dx, y - dy)
                for y in range(h)
                for x in range(w)
            ):
                return True
    return False


def strand_orbit_isonemal(design: Design) -> bool:
    """Reference for ``is_isonemal``: the orbit of warp 0 is walked with
    ``Strand`` objects and ``act_on_strand``, in classes modulo the lcm of
    the sides the design is given on."""
    group = find_symmetries(design)
    L = math.lcm(design.width, design.height)
    gens = group.generators()
    seen = {0}  # strand classes modulo L: warps are 0..L-1, wefts L..2L-1
    stack = [0]
    while stack:
        cls = stack.pop()
        strand = Strand(Direction.WARP, cls) if cls < L else Strand(Direction.WEFT, cls - L)
        for g in gens:
            image = act_on_strand(g, strand)
            key = image.index % L + (0 if image.direction == Direction.WARP else L)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return len(seen) == 2 * L


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


def tiled(d: Design, kx: int, ky: int) -> Design:
    """The same fabric stored on a kx-by-ky block of copies of its period."""
    return Design(d.width * kx, d.height * ky, tuple(row * kx for row in d.rows) * ky)


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


def combined_period_is_perfect(design: Design, striping: Striping) -> ColouringReport:
    """Reference for ``is_perfect``: each generator's palette map is read
    strand by strand with ``act_on_strand`` over the combined period
    lcm(w, h, len(warp_seq), len(weft_seq)), warps first.  The first strand
    seen with each colour stands as its witness, and colours no strand
    uses are mapped onto the unused images in sorted order."""
    n = math.lcm(design.width, design.height, len(striping.warp_seq), len(striping.weft_seq))
    perms = []
    for g in find_symmetries(design).generators():
        first: dict[int, tuple[int, Strand]] = {}  # colour -> (image colour, witness)
        for direction in (Direction.WARP, Direction.WEFT):
            for k in range(n):
                strand = Strand(direction, k)
                a = striping.strand_colour(strand)
                b = striping.strand_colour(act_on_strand(g, strand))
                if a not in first:
                    first[a] = (b, strand)
                elif first[a][0] != b:
                    return ColouringReport(False, Conflict(g, first[a][1], strand), ())
        source: dict[int, int] = {}
        for a in sorted(first):
            b, strand = first[a]
            if b in source:
                return ColouringReport(False, Conflict(g, first[source[b]][1], strand), ())
            source[b] = a
        spare = iter(sorted(set(range(striping.colours)) - set(source)))
        perm = tuple(first[a][0] if a in first else next(spare) for a in range(striping.colours))
        perms.append((g, perm))
    return ColouringReport(True, None, tuple(perms))


def per_cell_visible(design: Design, striping: Striping) -> np.ndarray:
    """Reference for ``visible``: the colour shown, cell by cell."""
    width = math.lcm(design.width, len(striping.warp_seq))
    height = math.lcm(design.height, len(striping.weft_seq))
    out = np.empty((height, width), dtype=int)
    for y in range(height):
        for x in range(width):
            out[y, x] = (
                striping.warp_colour(x) if design.warp_up(x, y) else striping.weft_colour(y)
            )
    return out


# -- period references ---------------------------------------------------
#
# Periods found by trying every candidate in turn: string repetition for
# sequences, cell-by-cell comparison for translations of the design.


def _repeat_period(seq) -> int:
    """Least p dividing ``len(seq)`` with ``seq`` a p-long block repeated."""
    n = len(seq)
    return next(p for p in range(1, n + 1) if n % p == 0 and seq == seq[:p] * (n // p))


def per_strand_order(design: Design) -> int:
    """Reference for ``Design.order``: the lcm of the least periods of
    every column and every row, read off their strings."""
    columns = ["".join(row[x] for row in design.rows) for x in range(design.width)]
    return math.lcm(*(_repeat_period(s) for s in columns + list(design.rows)))


def _fixes_coloured_pattern(design: Design, striping: Striping, v: tuple[int, int]) -> bool:
    dx, dy = v
    return (
        dx % _repeat_period(striping.warp_seq) == 0
        and dy % _repeat_period(striping.weft_seq) == 0
        and all(
            design.warp_up(x + dx, y + dy) == design.warp_up(x, y)
            for y in range(design.height)
            for x in range(design.width)
        )
    )


def per_cell_validate_torus(design: Design, striping: Striping, basis: TorusBasis) -> bool:
    """Reference for ``validate_torus``: each basis vector is compared with
    the design cell by cell and with the stripes' least periods."""
    return all(_fixes_coloured_pattern(design, striping, v) for v in (basis.v1, basis.v2))


def per_cell_inflate(design: Design, striping: Striping, basis: TorusBasis) -> TorusBasis:
    """Reference for ``inflate``: each vector's multiples are tried in turn,
    up to lcm(w * h, stripe periods), until one passes the per-cell test;
    a square is scaled by the lcm of the two factors found."""
    bound = math.lcm(
        design.width * design.height,
        _repeat_period(striping.warp_seq),
        _repeat_period(striping.weft_seq),
    )
    k1, k2 = (
        next(
            k
            for k in range(1, bound + 1)
            if _fixes_coloured_pattern(design, striping, (k * v[0], k * v[1]))
        )
        for v in (basis.v1, basis.v2)
    )
    if basis.v1[1] == 0:
        k1 = k2 = math.lcm(k1, k2)
    return TorusBasis((k1 * basis.v1[0], k1 * basis.v1[1]), (k2 * basis.v2[0], k2 * basis.v2[1]))


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


# -- cli parser ----------------------------------------------------------


def _add_design_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--design",
        default="-",
        metavar="FILE",
        help="design file to read ('-' for standard input, the default)",
    )


def _add_out_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def full_parser() -> argparse.ArgumentParser:
    """Reference for the CLI's parser: every subparser built on every
    call, as ``cli`` did before it built only the named subcommand's.
    The handlers are the CLI's own, so only parsing is compared."""
    parser = argparse.ArgumentParser(
        prog="isoweave",
        description="analyse doubly periodic weaves, their symmetries, and stripings",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    twill_cmd = commands.add_parser("twill", help="write a twill design file")
    twill_cmd.add_argument("spec", help="run lengths over/under, e.g. 2/1 or 2/1/1/2")
    _add_out_arg(twill_cmd)
    twill_cmd.set_defaults(handler=_cmd_twill)

    analyze_cmd = commands.add_parser("analyze", help="full symmetry report")
    _add_design_arg(analyze_cmd)
    _add_out_arg(analyze_cmd)
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    hang_cmd = commands.add_parser("hang", help="does the fabric hang together?")
    _add_design_arg(hang_cmd)
    hang_cmd.set_defaults(handler=_cmd_hang)

    check_cmd = commands.add_parser("check", help="check a striping for perfection")
    _add_design_arg(check_cmd)
    check_cmd.add_argument(
        "--striping", required=True, help="e.g. 'c=3 warp=0,1,2 weft=1,2,0'"
    )
    _add_out_arg(check_cmd)
    check_cmd.set_defaults(handler=_cmd_check)

    search_cmd = commands.add_parser("search", help="list perfect stripings")
    _add_design_arg(search_cmd)
    search_cmd.add_argument("--colours", type=int, required=True)
    search_cmd.add_argument(
        "--mode",
        choices=[ColourSetsRelation.EQUAL.value, ColourSetsRelation.DISJOINT.value],
        default=ColourSetsRelation.EQUAL.value,
        help="warp/weft palettes equal or disjoint (default equal)",
    )
    thinness = search_cmd.add_mutually_exclusive_group()
    thinness.add_argument(
        "--thin", action="store_true", default=True, help="thin stripes (default)"
    )
    thinness.add_argument(
        "--thick", action="store_true", help="allow repeated colours in a direction"
    )
    search_cmd.add_argument(
        "--max-len", type=int, default=None, help="stripe sequence length cap (thick)"
    )
    _add_out_arg(search_cmd)
    search_cmd.set_defaults(handler=_cmd_search)

    place_cmd = commands.add_parser(
        "place", help="place stripings constructively, then verify"
    )
    _add_design_arg(place_cmd)
    place_cmd.add_argument("--colours", type=int, required=True)
    _add_out_arg(place_cmd)
    place_cmd.set_defaults(handler=_cmd_place)

    torus_cmd = commands.add_parser("torus", help="strand counts on a torus closure")
    torus_cmd.add_argument(
        "--basis", required=True, help="diag:P,Q (diagonal units) or square:N"
    )
    torus_cmd.add_argument("--mult", type=int, default=1, help="scale both vectors")
    torus_cmd.add_argument("--colours", type=int, required=True)
    torus_cmd.add_argument(
        "--design", default=None, metavar="FILE", help="also validate against a design"
    )
    torus_cmd.add_argument(
        "--striping", default=None, help="striping for validation (default: thin identity)"
    )
    _add_out_arg(torus_cmd)
    torus_cmd.set_defaults(handler=_cmd_torus)

    render_cmd = commands.add_parser("render", help="draw an SVG figure")
    _add_design_arg(render_cmd)
    render_cmd.add_argument("--striping", default=None, help="colour the figure")
    render_cmd.add_argument("--axes", action="store_true", help="overlay symmetry axes")
    render_cmd.add_argument(
        "--lattice-unit", action="store_true", help="outline one lattice unit"
    )
    render_cmd.add_argument(
        "--side",
        choices=[face.value for face in Face],
        default=Face.OBVERSE.value,
    )
    render_cmd.add_argument("--cell-px", type=int, default=20)
    render_cmd.add_argument("--window", default=None, help="window in cells, e.g. 9x6")
    _add_out_arg(render_cmd)
    render_cmd.set_defaults(handler=_cmd_render)

    return parser
