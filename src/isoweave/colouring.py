"""Striped colourings of weave designs.

A striping colours every warp by a periodic sequence of palette indices
and every weft by another.  A colouring is *perfect* when each symmetry of
the underlying design permutes the palette globally: strands of one colour
all land on strands of a single (possibly different) colour.

``search_stripings`` finds perfect stripings by exhausting a canonical
candidate space; ``constructive_placement`` instead builds the candidates
for thin same-palette stripings directly and prunes them with necessary
conditions - no quarter turns for more than two colours, oblique glide
axes in mirror position for even palettes, and the requirement that every
design symmetry be a symmetry of the striping's redundancy pattern -
before validating the survivors with the full perfection check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, permutations, product
from operator import mul

import numpy as np

from isoweave.design import Design, Direction, Strand, _least_period
from isoweave.isometry import Isometry, PointPart, StrandMap, strand_map
from isoweave.symmetry import (
    find_symmetries,
    glides_all_mirror_position,
    has_quarter_turn,
    subgroup_check,
)


class ColourSetsRelation(Enum):
    """How the warp palette relates to the weft palette."""

    EQUAL = "equal"
    DISJOINT = "disjoint"
    MIXED = "mixed"


def _check_palette(colours: int) -> None:
    if colours < 1:
        raise ValueError(f"palette must have at least one colour, got {colours}")


_STRIPING_RE = re.compile(r"c=(\d+)\s+warp=([\d,]+)\s+weft=([\d,]+)\s*$")


@dataclass(frozen=True)
class Striping:
    """Periodic colour sequences for the two strand directions.

    Warp x gets colour ``warp_seq[x mod len(warp_seq)]``; weft y likewise
    from ``weft_seq``.  Colours are palette indices in [0, colours).
    """

    colours: int
    warp_seq: tuple[int, ...]
    weft_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_palette(self.colours)
        for name, seq in (("warp", self.warp_seq), ("weft", self.weft_seq)):
            if not seq:
                raise ValueError(f"{name} sequence must be nonempty")
            bad = [e for e in seq if not 0 <= e < self.colours]
            if bad:
                raise ValueError(f"{name} sequence has colours {bad} outside 0..{self.colours - 1}")

    def warp_colour(self, index: int) -> int:
        return self.warp_seq[index % len(self.warp_seq)]

    def weft_colour(self, index: int) -> int:
        return self.weft_seq[index % len(self.weft_seq)]

    def strand_colour(self, strand: Strand) -> int:
        if strand.direction == Direction.WARP:
            return self.warp_colour(strand.index)
        return self.weft_colour(strand.index)

    def __str__(self) -> str:
        warp = ",".join(str(e) for e in self.warp_seq)
        weft = ",".join(str(e) for e in self.weft_seq)
        return f"c={self.colours} warp={warp} weft={weft}"

    @classmethod
    def parse(cls, text: str) -> "Striping":
        m = _STRIPING_RE.match(text.strip())
        if not m:
            raise ValueError(f"expected 'c=<n> warp=<list> weft=<list>', got {text!r}")
        return cls(
            int(m.group(1)),
            tuple(int(e) for e in m.group(2).split(",")),
            tuple(int(e) for e in m.group(3).split(",")),
        )


def is_thin(striping: Striping) -> bool:
    """True iff every stripe is one strand wide and no colour repeats
    within a period in either direction."""
    return len(set(striping.warp_seq)) == len(striping.warp_seq) and len(
        set(striping.weft_seq)
    ) == len(striping.weft_seq)


def colour_sets_relation(striping: Striping) -> ColourSetsRelation:
    warps, wefts = set(striping.warp_seq), set(striping.weft_seq)
    if warps == wefts:
        return ColourSetsRelation.EQUAL
    if not warps & wefts:
        return ColourSetsRelation.DISJOINT
    return ColourSetsRelation.MIXED


def visible(design: Design, striping: Striping) -> np.ndarray:
    """Colour shown at each cell over one combined period, that is the warp
    colour where the warp is up and the weft colour where the weft is up.

    Indexed ``[y][x]``; shape is the least common period of design and
    striping in each direction.
    """
    width = math.lcm(design.width, len(striping.warp_seq))
    height = math.lcm(design.height, len(striping.weft_seq))
    up = np.tile(design.to_array(), (height // design.height, width // design.width))
    warp = np.resize(striping.warp_seq, width)[None, :]
    weft = np.resize(striping.weft_seq, height)[:, None]
    return np.where(up, warp, weft)


@dataclass(frozen=True)
class RedundancyPattern:
    """Cells whose crossing is invisible: warp and weft share a colour.

    The pattern depends only on the striping; it repeats with the two
    sequence lengths as periods.
    """

    width: int
    height: int
    cells: frozenset[tuple[int, int]]

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def as_design(self) -> Design:
        """The pattern drawn as a design grid ('#' on redundant cells)."""
        rows = tuple(
            "".join("#" if (x, y) in self.cells else "." for x in range(self.width))
            for y in range(self.height)
        )
        return Design(self.width, self.height, rows)


def redundancy(striping: Striping) -> RedundancyPattern:
    lw, lf = len(striping.warp_seq), len(striping.weft_seq)
    cells = frozenset(
        (x, y)
        for y in range(lf)
        for x in range(lw)
        if striping.warp_seq[x] == striping.weft_seq[y]
    )
    return RedundancyPattern(width=lw, height=lf, cells=cells)


def is_twilly(striping: Striping) -> bool:
    """True iff the striping is thin with equal palettes and its redundant
    cells run along diagonals of constant slope +1 or -1."""
    if not is_thin(striping) or colour_sets_relation(striping) != ColourSetsRelation.EQUAL:
        return False
    c = len(striping.warp_seq)
    if c == 1:
        return True
    where = {colour: x for x, colour in enumerate(striping.warp_seq)}
    trace = [where[colour] for colour in striping.weft_seq]
    for slope in (1, -1):
        if all((trace[(y + 1) % c] - trace[y]) % c == slope % c for y in range(c)):
            return True
    return False


def twilly_stripings(colours: int) -> tuple[Striping, ...]:
    """All thin equal-palette stripings with diagonal redundancy, with the
    warp sequence normalised to 0, 1, ..., c-1: both slopes, all offsets."""
    c = colours
    warp = tuple(range(c))
    out = []
    for k in range(c):
        out.append(Striping(c, warp, tuple((y + k) % c for y in range(c))))
        out.append(Striping(c, warp, tuple((k - y) % c for y in range(c))))
    return tuple(sorted(set(out), key=lambda s: s.weft_seq))


# -- perfection ----------------------------------------------------------


@dataclass(frozen=True)
class Conflict:
    """Witness that a symmetry fails to permute the palette: two strands
    whose colours make a consistent permutation impossible."""

    isometry: Isometry
    strand_a: Strand
    strand_b: Strand


@dataclass(frozen=True)
class ColouringReport:
    """Outcome of the perfection check.

    When perfect, ``permutations`` lists the induced palette permutation
    for each group generator, in the order of
    ``find_symmetries(design).generators()``.
    """

    perfect: bool
    conflict: Conflict | None
    permutations: tuple[tuple[Isometry, tuple[int, ...]], ...]


def _strand_actions(striping: Striping, smap: StrandMap):
    """One isometry's strand map (``strand_map``) bundled with the
    striping's colours, hoisted out of the scans over strands (they are
    the hot path of the striping search).

    For each direction this gives ``(direction, source colours, coeff,
    t, image colours)``, where strand k of that direction, coloured
    ``source[k]``, maps to the strand ``coeff * k + t`` coloured from
    ``image`` (the other direction's colours when the
    isometry swaps directions).  Sequences are read cyclically.
    """
    swaps, warp, weft = smap
    wa, we = striping.warp_seq, striping.weft_seq
    return (
        (Direction.WARP, wa, *warp, we if swaps else wa),
        (Direction.WEFT, we, *weft, wa if swaps else we),
    )


def _transport(
    striping: Striping, iso: Isometry, smap: StrandMap
) -> tuple[tuple[int, ...] | None, Conflict | None]:
    """The palette permutation induced by one isometry, whose strand map
    is ``smap``.

    A strand map is affine with slope +-1, so in each direction the pairs
    (colour, image colour) repeat with period lcm(len(source),
    len(image)); every pair first occurs within the first period, which
    is all that is scanned.  Returns (permutation, None), with unused
    colours mapped among themselves in sorted order, or (None, conflict)
    when two strands of one colour land on different colours.  Every
    strand class of both directions is scanned, so a map without such a
    conflict is onto the used colours, hence one-to-one.
    """
    c = striping.colours
    mapping: list[int | None] = [None] * c
    setter: list[tuple[Direction, int] | None] = [None] * c
    for direction, src, coeff, t, img in _strand_actions(striping, smap):
        ls, li = len(src), len(img)
        for k in range(math.lcm(ls, li)):
            a = src[k % ls]
            b = img[(coeff * k + t) % li]
            prev = mapping[a]
            if prev is None:
                mapping[a] = b
                setter[a] = (direction, k)
            elif prev != b:
                return None, Conflict(iso, Strand(*setter[a]), Strand(direction, k))
    spare = sorted(set(range(c)) - set(mapping))
    for a in range(c):
        if mapping[a] is None:
            mapping[a] = spare.pop(0)
    return tuple(mapping), None


def induced_permutation(
    design: Design, striping: Striping, iso: Isometry
) -> tuple[int, ...] | None:
    """The palette permutation a symmetry carries, or None if there is none.

    Works for any element of the design's symmetry group, not just the
    generators reported by `is_perfect`; on a perfect striping the map
    from group elements to permutations is a homomorphism.
    """
    perm, _ = _transport(striping, iso, strand_map(iso))
    return perm


def _generator_actions(design: Design) -> tuple[tuple[Isometry, StrandMap], ...]:
    """Each generator of the design's group with its strand map, in the
    order of ``generators()``; a search reads them once for all its
    candidates."""
    return tuple((g, strand_map(g)) for g in find_symmetries(design).generators())


def _perfect(
    actions: tuple[tuple[Isometry, StrandMap], ...], striping: Striping
) -> ColouringReport:
    """``is_perfect`` on the generators' strand actions (``_generator_actions``)."""
    perms = []
    for g, smap in actions:
        if g.point is PointPart.IDENTITY and g.shift == (0, 0):
            perms.append((g, tuple(range(striping.colours))))
            continue
        perm, conflict = _transport(striping, g, smap)
        if perm is None:
            return ColouringReport(False, conflict, ())
        perms.append((g, perm))
    return ColouringReport(True, None, tuple(perms))


def is_perfect(design: Design, striping: Striping) -> ColouringReport:
    """Check that every symmetry of the design permutes the palette.

    It suffices to check a generating set: symmetries inducing a palette
    permutation form a subgroup.
    """
    return _perfect(_generator_actions(design), striping)


def stripes_preserved(design: Design, striping: Striping) -> bool:
    """True iff every symmetry of the design maps stripe boundaries to
    stripe boundaries (weaker than perfection: colours may scramble as
    long as the stripe layout survives).  Like the perfection check, it
    scans lcm(len(source), len(image)) strands per direction."""
    for _, smap in _generator_actions(design):
        for _, src, coeff, t, img in _strand_actions(striping, smap):
            ls, li = len(src), len(img)
            for k in range(math.lcm(ls, li)):
                if src[k % ls] == src[(k + 1) % ls]:
                    continue  # not a boundary
                # strand k + 1 maps to the image of strand k plus coeff
                image = coeff * k + t
                if img[image % li] == img[(image + coeff) % li]:
                    return False
    return True


# -- search and construction --------------------------------------------

#: Most candidates ``search_stripings`` will try: thin equal palettes up
#: to nine colours, thick ones up to three at the default ``max_len``.
MAX_CANDIDATES = 2_000_000


def _canonical_labels(warp: tuple[int, ...], weft: tuple[int, ...]) -> bool:
    """True iff palette indices appear in first-use order across the
    concatenated sequences (the canonical labelling of a colour class)."""
    nxt = 0
    for e in warp + weft:
        if e == nxt:
            nxt += 1
        elif e > nxt:
            return False
    return True


def search_stripings(
    design: Design,
    colours: int,
    relation: ColourSetsRelation = ColourSetsRelation.EQUAL,
    thin: bool = True,
    max_len: int | None = None,
) -> tuple[Striping, ...]:
    """All perfect stripings of the design in a canonical candidate space.

    Thin, equal palettes: the warp sequence is normalised to 0..c-1
    (absorbing palette renamings and warp translations) and every weft
    permutation is tried.  Thin, disjoint palettes: the single canonical
    candidate splits the palette evenly, warps first.  Non-thin: all
    sequence pairs up to ``max_len`` (default 2c) per direction, in
    first-use canonical labelling, filtered to the requested relation.

    Raises ValueError at once for an empty palette or, for thick
    stripings, a ``max_len`` below 1.  Raises it too, before building any
    candidate, when the candidate count is estimated above
    ``MAX_CANDIDATES``: c! for thin equal palettes, and
    (c + c^2 + ... + c^max_len)^2 for thick ones.
    """
    _check_palette(colours)
    c = colours
    limit = 2 * c if max_len is None else max_len
    if not thin and limit < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    # the estimate is built up term by term and cut short far past the
    # cap, so an absurd palette is refused at once
    if not thin:
        steps = (s * s for s in accumulate(c**length for length in range(1, limit + 1)))
    elif relation == ColourSetsRelation.EQUAL:
        steps = accumulate(range(1, c + 1), mul)
    else:
        steps = ()
    estimate = 1
    for estimate in steps:
        if estimate > MAX_CANDIDATES**2:
            break
    if estimate > MAX_CANDIDATES:
        bound = "at least " if estimate > MAX_CANDIDATES**2 else ""
        raise ValueError(
            f"search would try {bound}{estimate} candidates, more than the cap of {MAX_CANDIDATES}"
        )
    candidates: list[Striping] = []
    if thin:
        if relation == ColourSetsRelation.EQUAL:
            warp = tuple(range(c))
            candidates = [Striping(c, warp, p) for p in permutations(range(c))]
        elif relation == ColourSetsRelation.DISJOINT:
            if c % 2 == 0:
                candidates = [
                    Striping(c, tuple(range(c // 2)), tuple(range(c // 2, c)))
                ]
        else:
            raise ValueError(f"cannot search for relation {relation}")
    else:
        seqs = [
            seq
            for length in range(1, limit + 1)
            for seq in product(range(c), repeat=length)
            if _least_period(seq) == length
        ]
        for warp, weft in product(seqs, repeat=2):
            if not _canonical_labels(warp, weft):
                continue
            if set(warp) | set(weft) != set(range(c)):
                continue
            s = Striping(c, warp, weft)
            if colour_sets_relation(s) != relation:
                continue
            candidates.append(s)
    if not candidates:
        return ()
    actions = _generator_actions(design)
    found = [s for s in candidates if _perfect(actions, s).perfect]
    return tuple(sorted(found, key=lambda s: (s.warp_seq, s.weft_seq)))


def constructive_placement(design: Design, colours: int) -> tuple[Striping, ...]:
    """Perfect thin equal-palette stripings with diagonal redundancy,
    built directly rather than searched.

    Candidates are the ``2c`` diagonal stripings; necessary conditions
    prune them (quarter turns bar every palette beyond two colours; an
    even palette needs all oblique glide axes in mirror position; and the
    design's symmetries must all be symmetries of the candidate's
    redundancy pattern).  Survivors are certified with the full
    perfection check, so the result is always a subset of
    ``search_stripings(design, colours)``.  Raises ValueError for an
    empty palette.
    """
    _check_palette(colours)
    c = colours
    if c > 2 and has_quarter_turn(design):
        return ()
    if c % 2 == 0 and not glides_all_mirror_position(design):
        return ()
    group = find_symmetries(design)
    actions = _generator_actions(design)
    out = []
    for s in twilly_stripings(c):
        pattern = redundancy(s).as_design()
        if not subgroup_check(group, find_symmetries(pattern)):
            continue
        if _perfect(actions, s).perfect:
            out.append(s)
    return tuple(sorted(out, key=lambda s: (s.warp_seq, s.weft_seq)))


def standard_colouring() -> Striping:
    """The two-colour striping with dark warps and pale wefts."""
    return Striping(2, (0,), (1,))
