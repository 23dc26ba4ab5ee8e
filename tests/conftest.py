"""Session-wide corpora shared by the test suite.

* ``enumerated_designs`` - a census of small doubly periodic designs of
  order at most six: every 3x3, 4x4, 2x6 and 6x2 grid, every permutation
  design on up to six offsets, and constructed quarter-turn families on
  3x3, 5x5 and 6x6 grids (cell values constant, or alternating, around
  each rotation orbit, so the quarter turn is a symmetry by
  construction).  Every design is reduced to its minimal period
  rectangle and the census is deduplicated up to translation.
* ``isonemal_pool`` - isonemal designs of order at most eight: all
  twills up to that order plus isonemal permutation designs.
* ``perfect_colourings`` - an accumulator; tests that find perfect
  colourings append ``(design, striping)`` pairs so a later property
  check can audit everything that was found.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from isoweave.design import Design, permutation_design, twill
from isoweave.symmetry import is_isonemal


def canonical_key(design: Design) -> tuple:
    """A key equal for two designs iff they agree up to translation."""
    d = design.minimal()
    best = None
    for dy in range(d.height):
        cyc = d.rows[dy:] + d.rows[:dy]
        for dx in range(d.width):
            cand = tuple(row[dx:] + row[:dx] for row in cyc)
            if best is None or cand < best:
                best = cand
    return (d.width, d.height, best)


def _exhaustive_classes(w: int, h: int) -> list[int]:
    """Translation-canonical representatives of all w x h grids, as bit codes."""
    n = w * h
    codes = np.arange(2**n, dtype=np.uint64)
    bits = ((codes[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(
        np.uint64
    )
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    best = codes.copy()
    for dy in range(h):
        for dx in range(w):
            if dx == dy == 0:
                continue
            perm = [
                ((y + dy) % h) * w + ((x + dx) % w) for y in range(h) for x in range(w)
            ]
            np.minimum(best, bits[:, perm] @ weights, out=best)
    return [int(c) for c in np.unique(best)]


def _decode(code: int, w: int, h: int) -> Design:
    rows = tuple(
        "".join("#" if (code >> (y * w + x)) & 1 else "." for x in range(w))
        for y in range(h)
    )
    return Design(w, h, rows)


def _quarter_turn_family(
    n: int, centre_doubled: tuple[int, int], reversing: bool, rng: random.Random, cap: int
) -> list[Design]:
    """All n x n designs fixed by the quarter turn about the given centre.

    A preserving quarter turn forces equal values around each rotation
    orbit; a reversing one forces alternation, which is consistent only
    when every orbit has even length.  Families larger than ``cap`` are
    sampled deterministically.
    """
    a, b = centre_doubled
    sx, sy = a + b, b - a
    if sx % 2 or sy % 2:
        return []
    tx, ty = sx // 2, sy // 2

    def step(cell: tuple[int, int]) -> tuple[int, int]:
        x, y = cell
        return ((-y - 1 + tx) % n, (x + ty) % n)

    seen: set[tuple[int, int]] = set()
    cycles: list[list[tuple[int, int]]] = []
    for start in ((x, y) for y in range(n) for x in range(n)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = step(start)
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = step(cur)
        cycles.append(cyc)
    if reversing and any(len(c) % 2 for c in cycles):
        return []
    total = 2 ** len(cycles)
    picks = range(total) if total <= cap else sorted(rng.sample(range(total), cap))
    out = []
    for code in picks:
        grid = {}
        for i, cyc in enumerate(cycles):
            base = (code >> i) & 1
            for j, cell in enumerate(cyc):
                grid[cell] = base ^ (j & 1) if reversing else base
        rows = tuple(
            "".join("#" if grid[(x, y)] else "." for x in range(n)) for y in range(n)
        )
        out.append(Design(n, n, rows))
    return out


@pytest.fixture(scope="session")
def enumerated_designs() -> list[Design]:
    by_key: dict[tuple, Design] = {}

    def add(design: Design) -> None:
        d = design.minimal()
        if d.order > 6:
            return
        by_key.setdefault(canonical_key(d), d)

    for w, h in ((3, 3), (4, 4), (2, 6), (6, 2)):
        for code in _exhaustive_classes(w, h):
            add(_decode(code, w, h))
    for n in (4, 5, 6):
        for perm in itertools.permutations(range(n)):
            add(permutation_design(perm))
    rng = random.Random(20260823)
    for n in (3, 5, 6):
        for centre in ((0, 0), (1, 1)):
            for reversing in (False, True):
                for d in _quarter_turn_family(n, centre, reversing, rng, cap=512):
                    add(d)
    return sorted(by_key.values(), key=lambda d: (d.height, d.width, d.rows))


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@pytest.fixture(scope="session")
def isonemal_pool() -> list[Design]:
    pool: list[Design] = []
    seen: set[tuple] = set()

    def add(design: Design) -> None:
        key = canonical_key(design)
        if key in seen:
            return
        seen.add(key)
        if is_isonemal(design):
            pool.append(design)

    for total in range(2, 9):
        for comp in _compositions(total):
            if len(comp) % 2 == 0:
                add(twill(comp))
    for n in (4, 5, 6):
        for perm in itertools.permutations(range(n)):
            add(permutation_design(perm))
    rng = random.Random(97)
    for n in (7, 8):
        for _ in range(400):
            add(permutation_design(tuple(rng.sample(range(n), n))))
    return pool


@pytest.fixture(scope="session")
def perfect_colourings() -> list:
    return []
