"""Tests for the SVG renderer: determinism, fills, faces, overlays."""

import math
import random
import re
import runpy
import shutil
from pathlib import Path

import pytest

from helpers import (
    fraction_axis_overlay,
    membership_scan_centre_overlay,
    per_cell_render_colouring,
    per_cell_render_design,
    random_design,
)
from isoweave.design import Design, plain_weave, reverse, twill
from isoweave.colouring import Striping, standard_colouring
from isoweave.isometry import PointPart
from isoweave.svg import (
    DEFAULT_PALETTE,
    Face,
    RenderOptions,
    WARP_FILL,
    WEFT_FILL,
    _REVERSING_INK,
    _axis_overlay,
    _centre_overlay,
    render_colouring,
    render_design,
)
from isoweave.symmetry import axis_inventory, find_symmetries

THREE = Striping(3, (0, 1, 2), (1, 2, 0))


def _fills(svg: str) -> list[str]:
    return re.findall(r'<rect class="cell"[^>]*fill="([^"]+)"', svg)


def test_plain_weave_default_window_is_sixteen_cells():
    svg = render_design(plain_weave())
    assert svg == render_design(plain_weave())  # byte-identical across runs
    assert len(_fills(svg)) == 16
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert 'width="80" height="80"' in svg


def test_cell_fill_positions():
    svg = render_design(plain_weave())
    # origin cell is warp-up and sits at the bottom-left of the figure
    assert '<rect class="cell" x="0" y="60" width="20" height="20" fill="#222222"/>' in svg
    assert _fills(svg).count(WARP_FILL) == 8
    assert _fills(svg).count(WEFT_FILL) == 8


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(cell_px=0)
    with pytest.raises(ValueError):
        RenderOptions(window=(0, 3))


def test_custom_window():
    svg = render_design(twill("2/1"), RenderOptions(window=(4, 5), cell_px=10))
    assert len(_fills(svg)) == 20
    assert 'width="40" height="50"' in svg


def test_reverse_face_is_mirrored_complement():
    d = twill("2/1")
    back = render_design(d, RenderOptions(side=Face.REVERSE))
    front_of_reverse = render_design(reverse(d))
    # same cell colours in file order, wrapped in a horizontal flip
    assert _fills(back) == _fills(front_of_reverse)
    assert 'scale(-1 1)' in back and 'scale(-1 1)' not in front_of_reverse


def test_axes_overlay_present():
    plainfig = render_design(plain_weave(), RenderOptions(show_axes=True))
    assert '<rect class="quarter-turn"' in plainfig
    assert '<polygon class="half-turn"' in plainfig
    twillfig = render_design(twill("2/1"), RenderOptions(show_axes=True))
    solid = [m for m in re.findall(r"<line[^>]*>", twillfig) if "dasharray" not in m]
    dashed = [m for m in re.findall(r"<line[^>]*>", twillfig) if "dasharray" in m]
    assert solid and dashed  # the three-end twill has mirrors and glide axes
    bare = render_design(twill("2/1"))
    assert "<line" not in bare and "half-turn" not in bare


def _off_period_window(rng: random.Random, d: Design) -> tuple[int, int]:
    """A seeded window whose sides are not multiples of the design's sides
    (where those exceed 1)."""

    def side(n: int) -> int:
        k = rng.randrange(1, 2 * n)
        return k + 1 if n > 1 and k % n == 0 else k

    return (side(d.width), side(d.height))


def test_centre_overlay_matches_the_membership_scan(enumerated_designs, isonemal_pool):
    rng = random.Random(1408)
    # a design without a rotation among its reps draws no centre either way
    rotating = [
        d
        for d in enumerated_designs
        if any(rep.point in (PointPart.ROT90, PointPart.ROT180) for rep in find_symmetries(d).reps)
    ]
    cases = [(d, [(1, 1), _off_period_window(rng, d)]) for d in rotating[::8]]
    # the back face has the same group, so the two faces take turns
    for i, d in enumerate(isonemal_pool + [random_design(rng, 7) for _ in range(300)]):
        window = (2 * d.width, 2 * d.height) if i % 3 == 0 else (1, 1)
        cases.append((reverse(d) if i % 2 else d, [window, _off_period_window(rng, d)]))
    drawn = set()
    for shown, windows in cases:
        inventory, lattice = axis_inventory(shown), find_symmetries(shown).translations
        for window in windows:
            markers = list(_centre_overlay(inventory, lattice, *window, 20))
            assert markers == list(membership_scan_centre_overlay(shown, *window, 20)), (shown, window)
            drawn.update(
                re.findall(r'<(?:rect|polygon) class="([a-z-]+)"[^>]*fill="([^"]+)"', "".join(markers))
            )
    assert ("quarter-turn", _REVERSING_INK) in drawn
    assert ("half-turn", _REVERSING_INK) in drawn


def _seeded_striping(rng: random.Random) -> Striping:
    """Thin (each colour once per direction) or thick (repeats allowed)."""
    c = rng.randrange(1, 6)
    if rng.random() < 0.5:
        return Striping(c, tuple(rng.sample(range(c), c)), tuple(rng.sample(range(c), c)))
    warp = tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7)))
    weft = tuple(rng.randrange(c) for _ in range(rng.randrange(1, 7)))
    return Striping(c, warp, weft)


def test_renders_match_the_per_cell_oracle(enumerated_designs, isonemal_pool):
    rng = random.Random(4041)
    designs = (
        enumerated_designs[::10]
        + isonemal_pool[::12]
        + [random_design(rng, 7) for _ in range(60)]
        + [twill("5/3/4/2"), twill("1/1/2/3")]
    )
    flat_dark = thick = 0
    for i, d in enumerate(designs):
        striping = _seeded_striping(rng)
        options = RenderOptions(
            cell_px=(1, 7, 13, 20)[i % 4],
            show_axes=i % 3 != 2,
            show_lattice_unit=i % 3 != 1,
            side=Face.REVERSE if i % 2 else Face.OBVERSE,
            window=None if i % 5 < 2 else _off_period_window(rng, d),
        )
        assert render_design(d, options) == per_cell_render_design(d, options), (d, options)
        got = render_colouring(d, striping, options)
        assert got == per_cell_render_colouring(d, striping, options), (d, striping, options)
        thick += len(set(striping.warp_seq)) < len(striping.warp_seq)
        # a like-coloured crossing with the weft up on the face shown
        shown = reverse(d) if options.side is Face.REVERSE else d
        win_w, win_h = options.window or (
            2 * math.lcm(d.width, len(striping.warp_seq)),
            2 * math.lcm(d.height, len(striping.weft_seq)),
        )
        flat_dark += any(
            striping.warp_colour(x) == striping.weft_colour(y) and not shown.warp_up(x, y)
            for y in range(win_h)
            for x in range(win_w)
        )
    assert thick > 100 and flat_dark > 100


def test_axis_overlay_matches_the_fraction_oracle(isonemal_pool):
    rng = random.Random(2014)
    designs = isonemal_pool[::3] + [random_design(rng, 7) for _ in range(200)]
    drawn = 0
    for i, d in enumerate(designs):
        inventory = axis_inventory(d)
        window = _off_period_window(rng, d) if i % 2 else (2 * d.width, 2 * d.height)
        for px in (1, 7, 20):
            lines = list(_axis_overlay(inventory, *window, px))
            assert lines == list(fraction_axis_overlay(inventory, *window, px)), (d, window, px)
            drawn += len(lines)
    assert drawn > 1000


def test_back_face_builds_the_group_once():
    # the back face shares the front's group: once the front's is built,
    # drawing the back's overlays builds no other
    d = twill("5/3/4/2")
    options = RenderOptions(show_axes=True, show_lattice_unit=True, side=Face.REVERSE)
    for render, reference in (
        (lambda: render_design(d, options), lambda: per_cell_render_design(d, options)),
        (lambda: render_colouring(d, THREE, options), lambda: per_cell_render_colouring(d, THREE, options)),
    ):
        expected = reference()
        find_symmetries.cache_clear()
        find_symmetries(d)
        assert render() == expected
        assert find_symmetries.cache_info().misses == 1


def test_lattice_unit_overlay():
    svg = render_design(twill("2/1"), RenderOptions(show_lattice_unit=True))
    assert '<polygon class="lattice-unit"' in svg
    assert '<polygon class="lattice-unit"' not in render_design(twill("2/1"))


def test_colouring_fills():
    svg = render_colouring(twill("2/1"), THREE)
    assert len(_fills(svg)) == 36
    # origin cell: warp up, warp colour 0, dark green
    assert '<rect class="cell" x="0" y="100" width="20" height="20" fill="#1b7a2f"/>' in svg


def test_colouring_palette_too_small():
    with pytest.raises(ValueError):
        render_colouring(twill("2/1"), THREE, RenderOptions(palette=DEFAULT_PALETTE[:2]))


def test_standard_colouring_matches_design_render():
    for d in (plain_weave(), twill("2/1"), twill("2/2")):
        coloured = render_colouring(d, standard_colouring())
        dark, pale = DEFAULT_PALETTE[0][0], DEFAULT_PALETTE[1][1]
        assert coloured.replace(dark, WARP_FILL).replace(pale, WEFT_FILL) == render_design(d)


def test_redundant_cells_ignore_uppermost_strand():
    d = twill("2/1")
    rows = list(d.rows)
    # crossing (1, 0) is redundant under the striping: same colour both ways
    assert THREE.warp_colour(1) == THREE.weft_colour(0)
    flipped = rows[0][1]
    rows[0] = rows[0][0] + ("." if flipped == "#" else "#") + rows[0][2:]
    other = Design(d.width, d.height, tuple(rows))
    assert other != d
    assert render_colouring(d, THREE) == render_colouring(other, THREE)


def test_reverse_colouring_keeps_thread_colours():
    d = twill("2/1")
    back = render_colouring(d, THREE, RenderOptions(side=Face.REVERSE))
    assert _fills(back) == _fills(render_colouring(reverse(d), THREE))


def test_gallery_demo_reproduces_the_tracked_svgs(tmp_path):
    demos = Path(__file__).resolve().parent.parent / "demos"
    script = tmp_path / "04_svg_gallery.py"
    shutil.copy(demos / "04_svg_gallery.py", script)
    runpy.run_path(str(script), run_name="__main__")
    written = sorted((tmp_path / "output").glob("*.svg"))
    assert [p.name for p in written] == sorted(p.name for p in (demos / "output").glob("*.svg"))
    for path in written:
        assert path.read_bytes() == (demos / "output" / path.name).read_bytes(), path.name
