"""Doubly periodic two-fold weave designs.

A design is a periodic assignment of "warp up" or "weft up" to every cell of
the integer grid.  Warps are the vertical strands (drawn dark), wefts the
horizontal ones (drawn pale).  Cell (x, y) has x increasing to the right and
y increasing upwards; the stored period is a width-by-height rectangle and
lookups reduce coordinates modulo that rectangle.

The text file format is::

    design <width> <height>
    <height lines of '#' (warp up) and '.' (weft up)>

where the first grid line is the *top* row (y = height - 1), so the file
reads the way the fabric hangs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

WARP_CHAR = "#"
WEFT_CHAR = "."


class Direction(Enum):
    """Which way a strand runs."""

    WARP = "warp"  # vertical
    WEFT = "weft"  # horizontal


@dataclass(frozen=True)
class Strand:
    """One strand: a whole column (warp) or row (weft) of the grid."""

    direction: Direction
    index: int


class ParseError(ValueError):
    """Raised for malformed design files; carries line/column context."""


@dataclass(frozen=True)
class Design:
    """One period of a doubly periodic weave.

    ``rows[y]`` is the row at height y (bottom row first), a string of
    '#' / '.' characters of length ``width``.
    """

    width: int
    height: int
    rows: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"design dimensions must be positive, got {self.width}x{self.height}")
        if len(self.rows) != self.height:
            raise ValueError(f"expected {self.height} rows, got {len(self.rows)}")
        for y, row in enumerate(self.rows):
            if len(row) != self.width:
                raise ValueError(f"row {y} has length {len(row)}, expected {self.width}")
            bad = set(row) - {WARP_CHAR, WEFT_CHAR}
            if bad:
                raise ValueError(f"row {y} contains illegal characters {sorted(bad)!r}")

    # -- lookups ---------------------------------------------------------

    def warp_up(self, x: int, y: int) -> bool:
        """True iff the warp is uppermost at cell (x, y), any integers."""
        return self.rows[y % self.height][x % self.width] == WARP_CHAR

    def to_array(self) -> np.ndarray:
        """Boolean array indexed [y][x] over one period (True = warp up)."""
        codes = np.frombuffer("".join(self.rows).encode("ascii"), dtype=np.uint8)
        return codes.reshape(self.height, self.width) == ord(WARP_CHAR)

    def minimal(self) -> "Design":
        """The same fabric on its minimal period rectangle.

        Its width is the least p dividing the width for which shifting by
        p columns maps every row to itself (the lcm of the rows' own
        periods), and likewise for its height.  Returns ``self`` when the
        design is already minimal.
        """
        a = self.to_array()
        w = _least_period(a.T)
        h = _least_period(a)
        if w == self.width and h == self.height:
            return self
        return Design(w, h, tuple(row[:w] for row in self.rows[:h]))

    # -- derived properties ---------------------------------------------

    @property
    def order(self) -> int:
        """Least common period of the over/under sequence along all strands.

        The lcm of the rows' periods is the minimal width and that of the
        columns' periods the minimal height, so this is the lcm of the
        sides of ``minimal()``.
        """
        d = self.minimal()
        return math.lcm(d.width, d.height)

    # -- simple transforms ----------------------------------------------

    def translated(self, dx: int, dy: int) -> "Design":
        """The same weave with cell (x, y) moved to (x + dx, y + dy)."""
        rows = tuple(
            "".join(WARP_CHAR if self.warp_up(x - dx, y - dy) else WEFT_CHAR for x in range(self.width))
            for y in range(self.height)
        )
        return Design(self.width, self.height, rows)

    def complemented(self) -> "Design":
        """Swap warp-up and weft-up everywhere."""
        table = str.maketrans({WARP_CHAR: WEFT_CHAR, WEFT_CHAR: WARP_CHAR})
        return Design(self.width, self.height, tuple(row.translate(table) for row in self.rows))


def _least_period(a: np.ndarray | tuple[int, ...]) -> int:
    """Least p dividing ``len(a)`` with ``a`` periodic under a shift by p;
    ``a`` is an array (shifted along its first axis) or a sequence."""
    n = len(a)
    return next(p for p in range(1, n + 1) if n % p == 0 and np.array_equal(a[p:], a[:-p]))


# -- construction --------------------------------------------------------


@dataclass(frozen=True)
class TwillSpec:
    """Run lengths of a twill, alternating over/under along a strand.

    ``runs = (a, b, c, d, ...)`` means: warp over a cells, under b, over c,
    under d, ... reading up a column.  The number of runs must be even and
    every run positive; the order is the sum of the runs.
    """

    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.runs) == 0 or len(self.runs) % 2 != 0:
            raise ValueError(f"twill needs an even, positive number of runs, got {self.runs!r}")
        if any(r <= 0 for r in self.runs):
            raise ValueError(f"twill runs must be positive, got {self.runs!r}")

    @property
    def order(self) -> int:
        return sum(self.runs)

    @classmethod
    def parse(cls, text: str) -> "TwillSpec":
        """Parse the conventional slash notation, e.g. '2/1' or '2/1/1/2'."""
        try:
            runs = tuple(int(part) for part in text.strip().split("/"))
        except ValueError as exc:
            raise ValueError(f"bad twill spec {text!r}") from exc
        return cls(runs)

    def __str__(self) -> str:
        return "/".join(str(r) for r in self.runs)


def twill(spec: TwillSpec | tuple[int, ...] | str) -> Design:
    """The order-n twill of the given runs, n = sum of runs.

    Cell (x, y) is warp-up iff (y - x) mod n falls in one of the "over"
    runs (the 1st, 3rd, ... runs) laid out from 0.  Successive rows shift
    one column to the right, so the dark diagonals have slope +1.
    """
    if isinstance(spec, str):
        spec = TwillSpec.parse(spec)
    elif isinstance(spec, tuple):
        spec = TwillSpec(spec)
    n = spec.order
    over = bytearray(n)
    pos = 0
    for i, run in enumerate(spec.runs):
        if i % 2 == 0:
            for j in range(pos, pos + run):
                over[j] = 1
        pos += run
    rows = tuple(
        "".join(WARP_CHAR if over[(y - x) % n] else WEFT_CHAR for x in range(n))
        for y in range(n)
    )
    return Design(n, n, rows)


def plain_weave() -> Design:
    """The 1/1 twill: the 2x2 checkerboard."""
    return twill((1, 1))


def permutation_design(offsets: tuple[int, ...]) -> Design:
    """An n x n design whose row y is warp-up exactly at column offsets[y].

    ``offsets`` must be a permutation of 0..n-1, so there is exactly one
    warp-up cell in every row and every column of the period.
    """
    n = len(offsets)
    if sorted(offsets) != list(range(n)):
        raise ValueError(f"offsets must be a permutation of 0..{n - 1}, got {offsets!r}")
    rows = tuple(
        "".join(WARP_CHAR if x == offsets[y] else WEFT_CHAR for x in range(n))
        for y in range(n)
    )
    return Design(n, n, rows)


def reverse(d: Design) -> Design:
    """The design as seen from the other side of the fabric.

    The far side is pictured in a mirror parallel to the fabric plane, which
    keeps every cell at the same (x, y) and shows whichever strand is
    lowermost there - i.e. the complement of the near side.  Pictured this
    way the two sides share all their plane symmetries.
    """
    return d.complemented()


# -- file format ---------------------------------------------------------


def parse_design(text: str) -> Design:
    """Parse the design file format (see module docstring)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # allow one trailing newline
    if not lines:
        raise ParseError("line 1: empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "design":
        raise ParseError(f"line 1: expected 'design <width> <height>', got {lines[0]!r}")
    try:
        width, height = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError(f"line 1: bad dimensions in {lines[0]!r}") from None
    if width <= 0 or height <= 0:
        raise ParseError(f"line 1: dimensions must be positive, got {width}x{height}")
    if len(lines) != 1 + height:
        raise ParseError(f"expected {height} grid lines, got {len(lines) - 1}")
    rows_top_down = []
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != width:
            raise ParseError(f"line {i}: expected {width} characters, got {len(line)}")
        for col, ch in enumerate(line, start=1):
            if ch not in (WARP_CHAR, WEFT_CHAR):
                raise ParseError(f"line {i}, column {col}: illegal character {ch!r}")
        rows_top_down.append(line)
    return Design(width, height, tuple(reversed(rows_top_down)))


def serialise(d: Design) -> str:
    """Canonical file form: header, then rows from the top down, LF-ended."""
    body = "\n".join(reversed(d.rows))
    return f"design {d.width} {d.height}\n{body}\n"
