"""The benchmark's three workloads: seeded inputs, one operation, checks.

Each workload builds its inputs in rounds.  A round is a fixed list of
operation slots (shapes, orders, palette sizes, subcommands); the seed
chooses the content of every slot.  Runs always end on a whole round, so
every run measures the same mix of slots and only the content differs
from seed to seed.

An operation starts from text, as a fresh command-line invocation would:
the runner clears the ``find_symmetries`` cache before it, and it parses
its design and makes its calls.  Its output is kept and checked after
the timed span, in two ways: a digest of the user-visible output, compared with the golden
digests for the default seed, and oracles written here that hold for
any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import product
from typing import Any

import numpy as np

DEFAULT_SEED = 0


@dataclass
class Op:
    """One operation: ``slot`` names its class within the round, ``args``
    holds its inputs, ``key`` is its position in the seeded pool."""

    slot: str
    args: dict[str, Any]
    key: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- seeded design generators -------------------------------------------


def _random_rows(rng: random.Random, w: int, h: int) -> tuple[str, ...]:
    return tuple("".join(rng.choice("#.") for _ in range(w)) for _ in range(h))


def _twill_runs(rng: random.Random, order: int) -> tuple[int, ...]:
    """A random even-length composition of ``order`` into positive runs."""
    k = rng.choice([k for k in (2, 4, 6) if k <= order])
    cuts = sorted(rng.sample(range(1, order), k - 1))
    bounds = [0, *cuts, order]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _isonemal_multiplier(rng: random.Random, n: int) -> int:
    """A multiplier a with a*a = +-1 mod n; y -> a*y + b is then isonemal."""
    return rng.choice([a for a in range(1, n) if (a * a) % n in (1, n - 1)])


def _linear_offsets(rng: random.Random, n: int, isonemal: bool) -> tuple[int, ...]:
    if isonemal:
        a = _isonemal_multiplier(rng, n)
    else:
        a = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])
    b = rng.randrange(n)
    return tuple((a * y + b) % n for y in range(n))


class _Distinct:
    """Draws designs until one not seen before in this pool appears."""

    def __init__(self, lib: Any):
        self.lib = lib
        self.seen: set[str] = set()

    def __call__(self, make) -> str:
        for _ in range(1000):
            text = self.lib.design.serialise(make())
            if text not in self.seen:
                break
        self.seen.add(text)
        return text


# -- an independent symmetry oracle -------------------------------------

#: Point-part matrices by their printed name, written out here rather than
#: read from the library so that the oracle shares no code with it.
_MATRICES = {
    "identity": ((1, 0), (0, 1)),
    "rot90": ((0, -1), (1, 0)),
    "rot180": ((-1, 0), (0, -1)),
    "rot270": ((0, 1), (-1, 0)),
    "mirror_h": ((1, 0), (0, -1)),
    "mirror_v": ((-1, 0), (0, 1)),
    "mirror_diag": ((0, 1), (1, 0)),
    "mirror_anti": ((0, -1), (-1, 0)),
}


def _grid(text: str) -> np.ndarray:
    """Design file text -> bool array [y][x] with y upwards, warp up True."""
    rows = text.splitlines()[1:]
    return np.array([[ch == "#" for ch in row] for row in reversed(rows)], dtype=bool)


def pointwise_symmetric(grid: np.ndarray, point: str, shift: tuple[int, int], reversing: bool) -> bool:
    """True iff the isometry maps every cell of the square lcm(w, h)
    window onto a cell with the value its side flag demands: equal when
    direction swap and side reversal cancel, complemented otherwise."""
    h, w = grid.shape
    if shift[0] % 2 or shift[1] % 2:
        return False
    (a, b), (c, d) = _MATRICES[point]
    size = math.lcm(w, h)
    ys, xs = np.indices((size, size))
    u = a * (2 * xs + 1) + b * (2 * ys + 1) + shift[0]
    v = c * (2 * xs + 1) + d * (2 * ys + 1) + shift[1]
    image = grid[((v - 1) // 2) % h, ((u - 1) // 2) % w]
    source = grid[ys % h, xs % w]
    swaps = a == 0
    expect_equal = swaps == reversing
    return bool(((image == source) == expect_equal).all())


def is_period(grid: np.ndarray, v: tuple[int, int]) -> bool:
    """True iff translating the design by v leaves it unchanged."""
    return bool((np.roll(grid, (v[1], v[0]), axis=(0, 1)) == grid).all())


# -- corpus --------------------------------------------------------------


class Corpus:
    """A stream of distinct designs through the analysis pipeline.

    One operation: parse -> find_symmetries -> lattice_units ->
    axis_inventory -> hangs_together -> is_isonemal.
    """

    name = "corpus"
    pool_rounds = 16
    #: The cost of an operation grows with L = lcm(w, h) about as L**2.8.
    #: The slots give every L from 12 to 30 and from 32 to 36, so the costs
    #: near the median and near p90 lie about 10% apart.  The median and
    #: the tail then move smoothly with the host's speed instead of jumping
    #: between two slots of very different cost.
    #: Random rectangles, coprime pairs among them.
    RECTANGLES = (
        (2, 3), (5, 5), (9, 9), (3, 4), (2, 7), (3, 5), (2, 9), (4, 5), (3, 7),
        (3, 8), (6, 8), (4, 7), (5, 6), (5, 7), (7, 5), (4, 9), (6, 7),
    )
    TWILL_ORDERS = (8, 12, 16, 18, 20, 22, 24, 26, 33, 34)
    PERMUTATION_SIZES = (12, 17, 19, 23, 27, 32)
    LINEAR_SIZES = (13, 16, 21, 25, 29)
    SMOKE = (("rect", (2, 3)), ("rect", (3, 4)), ("twill", 6), ("perm", 8), ("linear", 9))

    def __init__(self, lib: Any):
        self.lib = lib

    def _make(self, rng: random.Random, kind: str, size) -> Any:
        design = self.lib.design
        if kind == "rect":
            w, h = size
            return lambda: design.Design(w, h, _random_rows(rng, w, h))
        if kind == "twill":
            return lambda: design.twill(_twill_runs(rng, size))
        if kind == "perm":
            return lambda: design.permutation_design(tuple(rng.sample(range(size), size)))
        return lambda: design.permutation_design(_linear_offsets(rng, size, isonemal=False))

    def _slots(self) -> list[tuple[str, Any]]:
        return (
            [("rect", s) for s in self.RECTANGLES]
            + [("twill", n) for n in self.TWILL_ORDERS]
            + [("perm", n) for n in self.PERMUTATION_SIZES]
            + [("linear", n) for n in self.LINEAR_SIZES]
        )

    def build(self, rng: random.Random, rounds: int, smoke: bool = False) -> list[list[Op]]:
        distinct = _Distinct(self.lib)
        slots = list(self.SMOKE) if smoke else self._slots()
        pool = []
        for r in range(rounds):
            ops = [
                Op(f"{kind}:{size}", {"text": distinct(self._make(rng, kind, size))})
                for kind, size in slots
            ]
            rng.shuffle(ops)
            pool.append(ops)
        return pool

    def run(self, op: Op) -> Any:
        lib = self.lib
        design = lib.design.parse_design(op.args["text"])
        group = lib.symmetry.find_symmetries(design)
        units = lib.symmetry.lattice_units(design)
        inventory = lib.symmetry.axis_inventory(design)
        hangs = lib.symmetry.hangs_together(design)
        isonemal = lib.symmetry.is_isonemal(design)
        return group.reps, units, inventory, hangs, isonemal

    def render(self, op: Op, out: Any) -> str:
        reps, units, inventory, hangs, isonemal = out
        lines = [str(rep) for rep in reps]
        for unit in (units.preserving, units.extended):
            lines.append(f"unit {unit.v1} {unit.v2} {unit.det} {unit.diag_step} {unit.anti_step} {unit.index}")
        lines += [_axis_line(axis) for axis in inventory.axes]
        lines += [_centre_line(centre) for centre in inventory.centres]
        lines.append(f"hangs={hangs} isonemal={isonemal}")
        return "\n".join(lines)

    def check(self, op: Op, out: Any, earlier: dict[str, str]) -> list[str]:
        reps = out[0]
        grid = _grid(op.args["text"])
        return [
            f"rep fails the pointwise check: {rep}"
            for rep in reps
            if not pointwise_symmetric(grid, rep.point.value, rep.shift, rep.side.value == "tau")
        ]


def _axis_line(axis) -> str:
    return (
        f"axis {axis.axis} {axis.kind} offset={axis.offset} spacing={axis.spacing} "
        f"glide={axis.glide} mirror-position={axis.mirror_position} side={axis.side.value}"
    )


def _centre_line(centre) -> str:
    return (
        f"centre fold={centre.fold} at=({centre.centre[0]}, {centre.centre[1]}) "
        f"kind={centre.centre_kind} side={centre.side.value}"
    )


# -- stripe --------------------------------------------------------------

#: Search modes: (relation, thin, colours, max_len).
STRIPE_MODES = (
    [("equal", True, c, None) for c in range(2, 9)]
    + [("disjoint", True, c, None) for c in (2, 4, 6, 8)]
    + [("equal", False, 2, 4), ("equal", False, 3, 3)]
)
STRIPE_SMOKE_MODES = (("equal", True, 3, None), ("disjoint", True, 2, None), ("equal", False, 2, 3))


def _minimal_period(seq: tuple[int, ...]) -> bool:
    n = len(seq)
    return all(n % p != 0 or seq != seq[:p] * (n // p) for p in range(1, n))


def _first_use_order(warp: tuple[int, ...], weft: tuple[int, ...]) -> bool:
    nxt = 0
    for e in warp + weft:
        if e == nxt:
            nxt += 1
        elif e > nxt:
            return False
    return True


_CANDIDATES: dict[tuple, int] = {}


def candidate_count(colours: int, relation: str, thin: bool, max_len: int | None) -> int:
    """Size of the candidate space ``search_stripings`` documents: c! weft
    permutations for thin equal palettes; one split for thin disjoint
    palettes of even size; for thick stripings, every pair of minimal-period
    sequences up to ``max_len`` (default 2c) in first-use labelling that
    uses the whole palette and has the requested relation."""
    key = (colours, relation, thin, max_len)
    if key not in _CANDIDATES:
        c = colours
        if thin:
            count = math.factorial(c) if relation == "equal" else int(c % 2 == 0)
        else:
            limit = 2 * c if max_len is None else max_len
            seqs = [
                s for n in range(1, limit + 1) for s in product(range(c), repeat=n) if _minimal_period(s)
            ]
            count = 0
            for warp, weft in product(seqs, repeat=2):
                if not _first_use_order(warp, weft) or set(warp) | set(weft) != set(range(c)):
                    continue
                a, b = set(warp), set(weft)
                kind = "equal" if a == b else ("disjoint" if not a & b else "mixed")
                count += kind == relation
        _CANDIDATES[key] = count
    return _CANDIDATES[key]


class Stripe:
    """Perfect-striping searches on isonemal designs.

    One operation: search_stripings, then constructive_placement for thin
    equal palettes, then is_perfect on every striping found.
    """

    name = "stripe"
    pool_rounds = 8
    #: Designs of one round: (kind, order).
    DESIGNS = (("twill", 12), ("twill", 12), ("linear", 12))
    SMOKE_DESIGNS = (("twill", 4), ("linear", 5))

    def __init__(self, lib: Any):
        self.lib = lib

    def build(self, rng: random.Random, rounds: int, smoke: bool = False) -> list[list[Op]]:
        lib = self.lib
        distinct = _Distinct(lib)
        designs = self.SMOKE_DESIGNS if smoke else self.DESIGNS
        modes = STRIPE_SMOKE_MODES if smoke else STRIPE_MODES
        pool = []
        for r in range(rounds):
            ops = []
            for d, (kind, n) in enumerate(designs):
                if kind == "twill":
                    text = distinct(lambda: lib.design.twill(_twill_runs(rng, n)))
                else:
                    text = distinct(lambda: lib.design.permutation_design(_linear_offsets(rng, n, True)))
                for relation, thin, c, max_len in modes:
                    args = {"text": text, "relation": relation, "thin": thin, "colours": c, "max_len": max_len}
                    ops.append(Op(f"{d}-{kind}:{n}:{relation}:{'thin' if thin else 'thick'}:c{c}", args))
            rng.shuffle(ops)
            pool.append(ops)
        return pool

    def run(self, op: Op) -> Any:
        lib = self.lib
        a = op.args
        design = lib.design.parse_design(a["text"])
        relation = lib.colouring.ColourSetsRelation(a["relation"])
        found = lib.colouring.search_stripings(design, a["colours"], relation, thin=a["thin"], max_len=a["max_len"])
        placed = None
        if a["thin"] and a["relation"] == "equal":
            placed = lib.colouring.constructive_placement(design, a["colours"])
        perfect = [lib.colouring.is_perfect(design, s).perfect for s in found]
        return found, placed, perfect

    def render(self, op: Op, out: Any) -> str:
        found, placed, perfect = out
        lines = [f"found {s} perfect={p}" for s, p in zip(found, perfect)]
        if placed is not None:
            lines += [f"placed {s}" for s in placed]
        return "\n".join(lines)

    def check(self, op: Op, out: Any, earlier: dict[str, str]) -> list[str]:
        found, placed, perfect = out
        problems = []
        if not all(perfect):
            problems.append("a striping returned by the search is not perfect")
        if placed is not None and not set(placed) <= set(found):
            problems.append("constructive placement is not a subset of the search")
        if len(set(found)) != len(found):
            problems.append("the search returned a striping twice")
        return problems


# -- cli -----------------------------------------------------------------


class Cli:
    """A session of ``isoweave`` subcommands run in-process on files.

    One operation: one ``cli.main(argv)`` call with standard output and
    error captured.  A round holds one session per entry of SESSIONS.  A
    session writes three twills with the ``twill`` subcommand and works on
    them, on an isonemal permutation design and on a random rectangle
    written at set-up.
    """

    name = "cli"
    pool_rounds = 16
    #: The sessions of one round: (twill order, colours).  No order divides
    #: twice the palette, so the basis diag:c,c never closes the twill and
    #: always needs inflating.  With order 14 rather than 16, the costliest
    #: commands (render --axes, place, and render --axes on the permutation
    #: design) of the two largest sessions cost within about a quarter of
    #: each other, so p99 falls among several commands rather than at the
    #: edge of the single costliest one.
    SESSIONS = ((8, 3), (12, 4), (14, 5), (10, 6))
    SMOKE_SESSIONS = ((6, 4),)
    PERMUTATION_SIZES = (8, 9, 10, 12)
    RECTANGLES = ((3, 4), (4, 6), (5, 5), (2, 6))

    def __init__(self, lib: Any, work_dir: str):
        self.lib = lib
        self.work = work_dir

    def build(self, rng: random.Random, rounds: int, smoke: bool = False) -> list[list[Op]]:
        distinct = _Distinct(self.lib)
        sessions = self.SMOKE_SESSIONS if smoke else self.SESSIONS
        pool = []
        for r in range(rounds):
            ops = []
            for s, (n, c) in enumerate(sessions):
                ops += self._session(rng, distinct, f"{r}-{s}", s, n, c)
            pool.append(ops)
        return pool

    def _session(self, rng: random.Random, distinct: _Distinct, tag: str, s: int, n: int, c: int) -> list[Op]:
        lib = self.lib
        specs = ["/".join(str(run) for run in _twill_runs(rng, n)) for _ in range(3)]
        m = self.PERMUTATION_SIZES[s % len(self.PERMUTATION_SIZES)]
        w, h = self.RECTANGLES[s % len(self.RECTANGLES)]
        perm_text = distinct(lambda: lib.design.permutation_design(_linear_offsets(rng, m, True)))
        rect_text = distinct(lambda: lib.design.Design(w, h, _random_rows(rng, w, h)))
        tw, t2, t3, pm, rc = (
            os.path.join(self.work, f"{tag}-{name}.txt") for name in ("twill", "twill2", "twill3", "perm", "rect")
        )
        for path, text in ((pm, perm_text), (rc, rect_text)):
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
        striping = f"c={c} warp={','.join(map(str, range(c)))} weft={','.join(map(str, rng.sample(range(c), c)))}"
        k = rng.randrange(1, 4)
        half = n // 2 if n % 2 == 0 else n
        valid = f"diag:{c * k},{math.lcm(c, half) * rng.randrange(1, 3)}"
        svg = os.path.join(self.work, f"{tag}.svg")
        argvs = [
            ("twill", ["twill", specs[0], "--out", tw], 0),
            ("twill-2", ["twill", specs[1], "--out", t2], 0),
            ("twill-3", ["twill", specs[2], "--out", t3], 0),
            ("hang", ["hang", "--design", tw], 0),
            ("hang-2", ["hang", "--design", t2], 0),
            ("hang-3", ["hang", "--design", t3], 0),
            ("hang-perm", ["hang", "--design", pm], 0),
            ("hang-rect", ["hang", "--design", rc], 0),
            ("analyze", ["analyze", "--design", tw], 0),
            ("check", ["check", "--design", tw, "--striping", striping], 0),
            ("search", ["search", "--design", tw, "--colours", str(c)], 0),
            ("place", ["place", "--design", tw, "--colours", str(c)], 0),
            ("torus-valid", ["torus", "--basis", valid, "--colours", str(c), "--design", tw], 0),
            ("torus-valid-mult", ["torus", "--basis", valid, "--mult", "2", "--colours", str(c), "--design", tw], 0),
            ("torus-inflate", ["torus", "--basis", f"diag:{c},{c}", "--colours", str(c), "--design", tw], 0),
            ("torus-square", ["torus", "--basis", f"square:{c}", "--mult", str(k), "--colours", str(c)], 0),
            ("torus-phase", ["torus", "--basis", f"diag:{c * k + 1},{c}", "--colours", str(c)], 1),
            ("render", ["render", "--design", tw, "--out", svg], 0),
            ("render-2", ["render", "--design", t2, "--out", svg], 0),
            ("render-3", ["render", "--design", t3, "--out", svg], 0),
            ("render-rect", ["render", "--design", rc, "--out", svg], 0),
            ("render-reverse", ["render", "--design", tw, "--side", "reverse", "--out", svg], 0),
            ("render-axes", ["render", "--design", tw, "--axes", "--out", svg], 0),
            ("render-lattice", ["render", "--design", tw, "--lattice-unit", "--out", svg], 0),
            ("render-striping", ["render", "--design", tw, "--striping", striping, "--out", svg], 0),
            ("analyze-perm", ["analyze", "--design", pm], 0),
            ("render-perm-axes", ["render", "--design", pm, "--axes", "--out", svg], 0),
        ]
        return [
            Op(f"n{n}c{c}:{label}", {"argv": argv, "expect": code, "label": label, "colours": c, "design": tw})
            for label, argv, code in argvs
        ]

    def run(self, op: Op) -> Any:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.lib.cli.main(op.args["argv"])
            except SystemExit as exc:  # usage errors from argparse
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def written(self, op: Op) -> str | None:
        """Contents of the file the operation wrote with --out, if any."""
        argv = op.args["argv"]
        if "--out" not in argv:
            return None
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
            return handle.read()

    def render(self, op: Op, out: Any) -> str:
        code, stdout, stderr = out
        text = f"exit={code}\n{stdout}\n--\n{stderr}\n--\n{self.written(op) or ''}"
        return text.replace(self.work, "<work>")

    def check(self, op: Op, out: Any, earlier: dict[str, str]) -> list[str]:
        code, stdout, _ = out
        label = op.args["label"]
        earlier[label] = stdout
        problems = []
        if code != op.args["expect"]:
            problems.append(f"{label} exited {code}, expected {op.args['expect']}")
            return problems
        argv = op.args["argv"]
        if argv[0] == "render":
            svg = self.written(op)
            try:
                root = ET.fromstring(svg)
            except ET.ParseError as exc:
                return [f"{label} wrote SVG that does not parse: {exc}"]
            if not root.tag.endswith("svg"):
                problems.append(f"{label} wrote a {root.tag} element, not svg")
        if label == "place" and "search" in earlier:
            if not set(stdout.splitlines()) <= set(earlier["search"].splitlines()):
                problems.append("place listed a striping that search did not")
        if argv[0] == "torus" and code == 0:
            problems += self._check_torus(op, stdout)
        return problems

    def _check_torus(self, op: Op, stdout: str) -> list[str]:
        """The printed counts equal the brute-force tracer's, and the
        validity verdict equals a direct translation test."""
        torus = self.lib.torus
        argv = op.args["argv"]
        c = op.args["colours"]
        kind, _, dims = argv[argv.index("--basis") + 1].partition(":")
        mult = int(argv[argv.index("--mult") + 1]) if "--mult" in argv else 1
        if kind == "diag":
            p, q = (int(part) for part in dims.split(","))
            basis = torus.diagonal_rect(p, q)
        else:
            basis = torus.axis_square(int(dims))
        basis = basis.scaled(mult, mult)
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        traced = torus.trace_strands(basis, c)
        problems = []
        printed = (
            int(fields.get("bands per direction", -1)),
            int(fields.get("strands per colour per direction", -1)),
            int(fields.get("crossings per strand", -1)),
        )
        expected = (traced.bands_per_direction, traced.strands_per_colour_per_direction, traced.crossings_per_strand)
        if printed != expected:
            problems.append(f"torus counts {printed} differ from the tracer's {expected}")
        if "--design" in argv:
            with open(op.args["design"], encoding="ascii") as handle:
                grid = _grid(handle.read())
            closes = all(is_period(grid, v) and v[0] % c == 0 and v[1] % c == 0 for v in (basis.v1, basis.v2))
            verdict = fields.get("period parallelogram of the coloured pattern")
            if verdict != ("yes" if closes else "no"):
                problems.append(f"torus validity {verdict} disagrees with a direct translation test")
        return problems


WORKLOADS = {"corpus": Corpus, "stripe": Stripe, "cli": Cli}
