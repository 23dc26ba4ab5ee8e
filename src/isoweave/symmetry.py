"""Symmetry analysis of weave designs.

``find_symmetries`` computes the full symmetry group of a design: every
grid isometry that maps the weave to itself, each carrying a side flag.
A direction-swapping map (quarter turn or oblique mirror) that leaves the
raised values *equal* necessarily turns the fabric over - it exchanges
warps and wefts, so the strand on top can only match if we also look at
the far face.  Concretely, for a point part that swaps directions, equal
values mean a side-reversing symmetry and complemented values a
side-preserving one; for a direction-preserving point part it is the other
way round.

The search works on the design's minimal period rectangle w x h, not on
a square: a direction-swapping symmetry would turn the period (w, 0) into
(0, +-w), so it can exist only when w = h, and the four swapping point
parts are skipped otherwise.  Cells become +1 (warp up) and -1 (weft up),
and one batched FFT correlates the design with its pre-images under the
point parts: a correlation of +wh at a shift means every raised value is
kept, -wh means every one is complemented.

The group is stored as a translation lattice plus finitely many coset
representatives.  ``axis_inventory`` expands that into the geometric
inventory: one entry per translation-class of mirror axes, glide axes and
rotation centres.  A single representative's axis class does not tell the
whole story - composing a representative with lattice translations moves
its axis by *half* lattice steps, so one coset always splits into two axis
families, and a family of pure mirrors can sit next to a family of glides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from isoweave.design import Design
from isoweave.isometry import (
    Isometry,
    PointPart,
    Side,
    _centre_kind,
    classify,
    strand_map,
    strand_orbit,
    translation,
)

# -- integer lattices ----------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Full-rank sublattice of the integer plane, in Hermite form.

    Basis: ``v1 = (a, 0)``, ``v2 = (b, d)`` with a, d > 0 and 0 <= b < a.
    """

    a: int
    b: int
    d: int

    @classmethod
    def from_vectors(cls, vectors) -> "Lattice":
        """Lattice generated by ``vectors``; raises if the rank is < 2."""
        v2 = (0, 0)  # running generator with least positive y
        xs: list[int] = []
        for v in vectors:
            x, y = int(v[0]), int(v[1])
            while y != 0:
                if v2[1] == 0:
                    v2, x, y = ((x, y) if y > 0 else (-x, -y)), v2[0], 0
                else:
                    q = y // v2[1]
                    x, y = x - q * v2[0], y - q * v2[1]
                    if y != 0:
                        v2, x, y = (x, y), v2[0], v2[1]
            xs.append(x)
        a = 0
        for x in xs:
            a = math.gcd(a, abs(x))
        if a == 0 or v2[1] == 0:
            raise ValueError("vectors do not span a full-rank lattice")
        return cls(a, v2[0] % a, v2[1])

    @property
    def v1(self) -> tuple[int, int]:
        return (self.a, 0)

    @property
    def v2(self) -> tuple[int, int]:
        return (self.b, self.d)

    @property
    def det(self) -> int:
        return self.a * self.d

    def reduce(self, v: tuple[int, int]) -> tuple[int, int]:
        """Canonical residue of ``v`` modulo the lattice."""
        x, y = v
        r = y % self.d
        k = (y - r) // self.d
        return ((x - k * self.b) % self.a, r)

    def contains(self, v: tuple[int, int]) -> bool:
        return self.reduce(v) == (0, 0)

    def scaled(self, factor: int) -> "Lattice":
        return Lattice(self.a * factor, self.b * factor, self.d * factor)

    def order(self, v: tuple[int, int]) -> int:
        """Least k > 0 with k * v in the lattice.

        k * v_y must be a multiple of d, so k is a multiple of
        k0 = d / gcd(d, v_y); k0 * v reduces to (x, 0), and its least
        multiple in the lattice is a / gcd(a, x) times it.
        """
        k = self.d // math.gcd(self.d, v[1])
        x = self.reduce((k * v[0], k * v[1]))[0]
        return k * self.a // math.gcd(self.a, x)

    def solve_functional(self, cx: int, cy: int):
        """For the map f(v) = cx*vx + cy*vy on the lattice, return
        ``(g, v0, vk)``: the positive generator g of the image, a lattice
        vector v0 with f(v0) = g, and a generator vk of the kernel."""
        a1 = cx * self.v1[0] + cy * self.v1[1]
        a2 = cx * self.v2[0] + cy * self.v2[1]
        g, x, y = _egcd(a1, a2)
        if g == 0:
            raise ValueError("functional vanishes on the lattice")
        v0 = (x * self.v1[0] + y * self.v2[0], x * self.v1[1] + y * self.v2[1])
        m, n = a2 // g, -(a1 // g)
        vk = (m * self.v1[0] + n * self.v2[0], m * self.v1[1] + n * self.v2[1])
        return g, v0, vk


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# -- the symmetry group --------------------------------------------------


@dataclass(frozen=True)
class SymmetryGroup:
    """Symmetry group of a design: a translation lattice and coset reps.

    ``translations`` is the lattice of side-preserving translations, in
    cell units.  ``extended_translations`` additionally includes the
    side-reversing translations (those mapping the design to its
    complement), when any exist.  ``reps`` holds one representative per
    coset of ``translations``, with canonically reduced (doubled) shifts,
    always including the identity.
    """

    translations: Lattice
    extended_translations: Lattice
    reps: tuple[Isometry, ...]

    def generators(self) -> tuple[Isometry, ...]:
        """Coset representatives plus the two lattice basis translations."""
        return self.reps + (
            translation(*self.translations.v1),
            translation(*self.translations.v2),
        )

    def contains(self, iso: Isometry) -> bool:
        """Full membership test, side included."""
        if not iso.preserves_cells:
            return False
        t = (iso.shift[0] // 2, iso.shift[1] // 2)
        for rep in self.reps:
            if rep.point != iso.point:
                continue
            r = (rep.shift[0] // 2, rep.shift[1] // 2)
            if self.translations.contains((t[0] - r[0], t[1] - r[1])):
                return rep.side == iso.side
        return False

    def side_reversing_translation(self) -> tuple[int, int] | None:
        """A cell shift mapping the design to its complement, if one exists."""
        for rep in self.reps:
            if rep.point == PointPart.IDENTITY and rep.side == Side.REVERSING:
                return (rep.shift[0] // 2, rep.shift[1] // 2)
        return None


_POINT_ORDER = {p: i for i, p in enumerate(PointPart)}

#: Largest minimal period rectangle ``find_symmetries`` accepts, in cells.
#: Its FFT arrays take about 570 bytes per cell (150 MB at 512 x 512).
MAX_CELLS = 512 * 512


@lru_cache(maxsize=None)
def find_symmetries(design: Design) -> SymmetryGroup:
    """All isometries mapping the design to itself, with side flags.

    The search runs on the minimal period rectangle w x h, a torus on
    which (w, 0) and (0, h) are periods.  Direction-swapping point parts
    are tried only when w = h: such a map sends the period (w, 0) to
    (0, +-w) and (0, h) to (+-h, 0), so h divides w and w divides h.

    With cells encoded as +1 (warp up) and -1 (weft up), the circular
    cross-correlation of the design with its pre-image under a point part
    g is, at shift t, the sum over cells c of s(g(c) + t) * s(c).  It
    equals +wh exactly when the map c -> g(c) + t leaves every raised
    value equal, and -wh exactly when it complements every one.  One
    batched FFT gives these sums for every point part and every shift.

    The equal-valued pure translations generate the translation lattice.
    For any other point part and side, the matching shifts form one coset
    of that lattice, so one shift, reduced, is its representative.

    Raises ValueError when the minimal rectangle has more than
    ``MAX_CELLS`` cells.
    """
    d = design.minimal()
    w, h = d.width, d.height
    if w * h > MAX_CELLS:
        raise ValueError(
            f"minimal period {w}x{h} has {w * h} cells, more than the {MAX_CELLS} "
            "the symmetry search accepts"
        )
    points = [p for p in PointPart if w == h or not p.swaps_directions]
    signs = np.where(d.to_array(), 1.0, -1.0)
    # point part M sends cell (x, y) to (M (2x + 1, 2y + 1) - 1) // 2; the
    # pre-image k holds s(c) at the image of c, that is s(g^-1(u)) at u
    ys, xs = np.indices((h, w)).reshape(2, -1)
    matrices = np.array([p.matrix for p in points])
    gx, gy = ((matrices @ [2 * xs + 1, 2 * ys + 1] - 1) // 2).swapaxes(0, 1)
    preimages = np.empty((len(points), h * w))
    preimages[np.arange(len(points))[:, None], gy % h * w + gx % w] = signs.ravel()
    corr = np.fft.ifft2(np.fft.fft2(signs) * np.fft.fft2(preimages.reshape(-1, h, w)).conj()).real
    # matches[0]: shifts keeping every raised value; matches[1]: complementing every one
    matches = np.stack([corr > w * h - 0.5, corr < 0.5 - w * h]).reshape(2, len(points), h * w)
    ty, tx = np.divmod(np.flatnonzero(matches[0, 0]), w)
    lattice = Lattice.from_vectors([(w, 0), (0, h), *zip(tx.tolist(), ty.tolist())])
    reps = [Isometry(PointPart.IDENTITY, (0, 0), Side.PRESERVING)]
    extended = [lattice.v1, lattice.v2]
    # any other point part and side matches on one coset of the lattice:
    # its first matching shift, reduced, stands for all of them
    first = matches.argmax(axis=2).tolist()
    for complemented, k in np.argwhere(matches.any(axis=2)).tolist():
        point = points[k]
        side = Side.PRESERVING if complemented == point.swaps_directions else Side.REVERSING
        if point == PointPart.IDENTITY and side == Side.PRESERVING:
            continue
        ty, tx = divmod(first[complemented][k], w)
        t = lattice.reduce((tx, ty))
        reps.append(Isometry(point, (2 * t[0], 2 * t[1]), side))
        if point == PointPart.IDENTITY:
            extended.append(t)
    reps.sort(key=lambda g: (_POINT_ORDER[g.point], g.side.value, g.shift[1], g.shift[0]))
    return SymmetryGroup(
        translations=lattice,
        extended_translations=Lattice.from_vectors(extended),
        reps=tuple(reps),
    )


def has_quarter_turn(design: Design) -> bool:
    """True iff some symmetry of the design is a quarter turn."""
    return any(
        rep.point in (PointPart.ROT90, PointPart.ROT270)
        for rep in find_symmetries(design).reps
    )


# -- structural predicates ----------------------------------------------


def hangs_together(design: Design) -> bool:
    """True iff no proper set of strands can be lifted off the rest.

    At each crossing, draw an arc from the strand underneath to the strand
    on top.  A nonempty proper strand set can be lifted off exactly when no
    arc leaves it, and such a set exists exactly when the digraph is not
    strongly connected.
    """
    w, h = design.width, design.height
    n = w + h
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    in_arcs: list[list[int]] = [[] for _ in range(n)]
    for y in range(h):
        for x in range(w):
            if design.warp_up(x, y):
                under, over = w + y, x
            else:
                under, over = x, w + y
            out_arcs[under].append(over)
            in_arcs[over].append(under)
    return _reaches_all(out_arcs) and _reaches_all(in_arcs)


def _reaches_all(adjacency: list[list[int]]) -> bool:
    n = len(adjacency)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for nxt in adjacency[stack.pop()]:
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                stack.append(nxt)
    return count == n


def is_isonemal(design: Design) -> bool:
    """True iff the symmetry group is transitive on the strands.

    Strands are walked in classes modulo L = ``design.order``, the lcm of
    the minimal period rectangle's sides: (L, 0) and (0, L) are
    translations of the design, so every symmetry carries whole classes
    to whole classes.
    """
    L = design.order
    maps = [strand_map(g) for g in find_symmetries(design).generators()]
    return len(strand_orbit(maps, L)) == 2 * L


def subgroup_check(sub: SymmetryGroup, sup: SymmetryGroup) -> bool:
    """True iff every symmetry in ``sub`` is one in ``sup``, sides ignored."""
    return all(
        sup.contains(g) or sup.contains(replace(g, side=g.side * Side.REVERSING))
        for g in sub.generators()
    )


# -- translation lattice report -----------------------------------------


@dataclass(frozen=True)
class LatticeUnits:
    """Shape summary of a translation lattice, in diagonal units.

    ``diag_step`` (p) and ``anti_step`` (q) are the least strictly positive
    t with (t, t), respectively (t, -t), in the lattice - the lattice's
    periods along the two diagonal directions, each measured in diagonal
    cell steps.  ``index`` is how many lattice points the rectangle spanned
    by those two periods contains (1: the lattice is exactly that diagonal
    rectangle; 2: centred/rhombic).
    """

    v1: tuple[int, int]
    v2: tuple[int, int]
    det: int
    diag_step: int
    anti_step: int
    index: int


@dataclass(frozen=True)
class LatticeUnitsReport:
    preserving: LatticeUnits
    extended: LatticeUnits


def _units(lattice: Lattice) -> LatticeUnits:
    p = lattice.order((1, 1))
    q = lattice.order((1, -1))
    return LatticeUnits(
        v1=lattice.v1,
        v2=lattice.v2,
        det=lattice.det,
        diag_step=p,
        anti_step=q,
        index=2 * p * q // lattice.det,
    )


def lattice_units(design: Design) -> LatticeUnitsReport:
    """Diagonal-unit summaries of the side-preserving translation lattice
    and of the extended one including side-reversing translations."""
    group = find_symmetries(design)
    return LatticeUnitsReport(
        preserving=_units(group.translations),
        extended=_units(group.extended_translations),
    )


# -- geometric inventory -------------------------------------------------


@dataclass(frozen=True)
class AxisEntry:
    """One translation-class of parallel mirror or glide axes.

    ``offset`` locates a representative axis (the constant y, x, x - y or
    x + y along it, cell units), reduced into [0, spacing); ``spacing`` is
    the offset difference between consecutive axes of this class.
    ``glide`` is the least glide magnitude on the axis (0 for a mirror
    axis), in cell units for horizontal/vertical axes and in diagonal cell
    steps for oblique ones.  ``mirror_position`` (oblique axes only) says
    the axis runs through cell centres and corners.
    """

    axis: str
    offset: Fraction
    kind: str  # mirror | glide
    glide: Fraction
    mirror_position: bool | None
    side: Side
    spacing: int


@dataclass(frozen=True)
class CentreEntry:
    """One translation-class of rotation centres (fold 2 or 4).

    A 4-fold centre also appears among the 2-fold entries, via the square
    of the quarter turn.
    """

    fold: int
    centre: tuple[Fraction, Fraction]
    centre_kind: str
    side: Side


@dataclass(frozen=True)
class AxisInventory:
    axes: tuple[AxisEntry, ...]
    centres: tuple[CentreEntry, ...]


#: Geometric shift of the axis offset under translation by (vx, vy).
_OFFSET_COEFF = {
    PointPart.MIRROR_H: (0, 1),
    PointPart.MIRROR_V: (1, 0),
    PointPart.MIRROR_D: (1, -1),
    PointPart.MIRROR_A: (1, 1),
}

#: Shift of the glide length when composing with translation by (vx, vy).
_GLIDE_COEFF = {
    PointPart.MIRROR_H: (Fraction(1), Fraction(0)),
    PointPart.MIRROR_V: (Fraction(0), Fraction(1)),
    PointPart.MIRROR_D: (Fraction(1, 2), Fraction(1, 2)),
    PointPart.MIRROR_A: (Fraction(1, 2), Fraction(-1, 2)),
}

_AXIS_SORT = {"horizontal": 0, "vertical": 1, "diagonal": 2, "antidiagonal": 3}


def _mirror_axis_entries(rep: Isometry, lattice: Lattice) -> list[AxisEntry]:
    point = rep.point
    cls = classify(rep)
    ox, oy = _OFFSET_COEFF[point]
    gx, gy = _GLIDE_COEFF[point]
    period, v0, vk = lattice.solve_functional(ox, oy)
    step = abs(gx * vk[0] + gy * vk[1])  # on-axis glide period
    entries = []
    for half in (0, 1):
        offset = (cls.offset + Fraction(half * period, 2)) % period
        shift_vec = v0 if half else (0, 0)
        glide = (cls.glide + gx * shift_vec[0] + gy * shift_vec[1]) % step
        glide = min(glide, step - glide)
        oblique = point in (PointPart.MIRROR_D, PointPart.MIRROR_A)
        entries.append(
            AxisEntry(
                axis=cls.axis,
                offset=offset,
                kind="mirror" if glide == 0 else "glide",
                glide=glide,
                mirror_position=(offset.denominator == 1) if oblique else None,
                side=rep.side,
                spacing=period,
            )
        )
    return entries


def _centre_entries(rep: Isometry, lattice: Lattice) -> list[CentreEntry]:
    cls = classify(rep)
    base = (2 * cls.centre[0], 2 * cls.centre[1])
    base = (int(base[0]), int(base[1]))
    v1, v2 = lattice.v1, lattice.v2
    if rep.point == PointPart.ROT180:
        fold = 2
        shifts = [(0, 0), v1, v2, (v1[0] + v2[0], v1[1] + v2[1])]
    else:
        fold = 4
        shifts = [
            (v[0] - v[1], v[0] + v[1])
            for v in [(0, 0), v1, v2, (v1[0] + v2[0], v1[1] + v2[1])]
        ]
    doubled = lattice.scaled(2)
    entries = {}
    for s in shifts:
        cx, cy = doubled.reduce((base[0] + s[0], base[1] + s[1]))
        entries[(cx, cy)] = CentreEntry(
            fold=fold,
            centre=(Fraction(cx, 2), Fraction(cy, 2)),
            centre_kind=_centre_kind(cx, cy),
            side=rep.side,
        )
    return list(entries.values())


def axis_inventory(design: Design) -> AxisInventory:
    """The design's mirror axes, glide axes and rotation centres, one entry
    per translation-class."""
    group = find_symmetries(design)
    axes: list[AxisEntry] = []
    centres: list[CentreEntry] = []
    for rep in group.reps:
        if rep.point in _OFFSET_COEFF:
            axes.extend(_mirror_axis_entries(rep, group.translations))
        elif rep.point in (PointPart.ROT180, PointPart.ROT90):
            centres.extend(_centre_entries(rep, group.translations))
        # quarter turns come in inverse pairs about the same centres, so
        # the ROT270 cosets duplicate the ROT90 ones and are skipped
    axes.sort(key=lambda e: (_AXIS_SORT[e.axis], e.offset, e.kind, e.glide, e.side.value))
    centres.sort(key=lambda e: (e.fold, e.centre, e.side.value))
    return AxisInventory(axes=tuple(axes), centres=tuple(centres))


def glides_all_mirror_position(design: Design) -> bool:
    """True iff every oblique glide axis of the design is in mirror position."""
    return all(
        entry.mirror_position
        for entry in axis_inventory(design).axes
        if entry.kind == "glide" and entry.axis in ("diagonal", "antidiagonal")
    )
