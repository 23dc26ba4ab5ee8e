"""Command-line front end.

Subcommands cover the library surface: construct twills, report a
weave's symmetry structure, test hanging together, check a striping for
perfection, search for and place perfect stripings, count strands on a
torus closure, and draw SVG figures.

Designs are read from ``--design FILE``, with ``-`` (the default)
meaning standard input, so commands compose in pipes::

    isoweave twill 2/1 | isoweave analyze

Exit status is 0 on success, 1 on domain errors (unreadable files,
malformed designs or stripings, impossible requests), and 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys

from isoweave.colouring import (
    ColourSetsRelation,
    Striping,
    colour_sets_relation,
    constructive_placement,
    is_perfect,
    is_thin,
    redundancy,
    search_stripings,
    stripes_preserved,
)
from isoweave.design import Design, ParseError, Strand, parse_design, serialise, twill
from isoweave.svg import Face, RenderOptions, render_colouring, render_design
from isoweave.symmetry import (
    axis_inventory,
    find_symmetries,
    hangs_together,
    has_quarter_turn,
    is_isonemal,
    lattice_units,
)
from isoweave.torus import (
    axis_square,
    band_count,
    crossing_permutation,
    cycle_notation,
    diagonal_rect,
    inflate,
    validate_torus,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; ``argv`` defaults to ``sys.argv[1:]``.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built.  Otherwise (no arguments, ``-h``, an unknown command, or a
    leading option) the full parser is built, so help and usage errors
    list every subcommand.
    """
    if argv is None:
        argv = sys.argv[1:]
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(only).parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# -- shared plumbing -----------------------------------------------------


def _read_design(path: str) -> Design:
    if path == "-":
        return parse_design(sys.stdin.read())
    with open(path, encoding="ascii") as handle:
        return parse_design(handle.read())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _strand(strand: Strand) -> str:
    return f"{strand.direction.name.lower()} {strand.index}"


def _parse_basis(text: str, mult: int):
    kind, _, dims = text.partition(":")
    try:
        if kind == "diag":
            p, q = (int(part) for part in dims.split(","))
            basis = diagonal_rect(p, q)
        elif kind == "square":
            basis = axis_square(int(dims))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad basis {text!r}: expected diag:P,Q or square:N"
        ) from None
    return basis.scaled(mult, mult)


# -- subcommand handlers -------------------------------------------------


def _cmd_twill(args: argparse.Namespace) -> int:
    _emit(serialise(twill(args.spec)), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    group = find_symmetries(design)
    units = lattice_units(design)
    inventory = axis_inventory(design)
    lines = [
        f"design {design.width} {design.height}",
        f"order: {design.order}",
        f"isonemal: {_yes(is_isonemal(design))}",
        f"hangs together: {_yes(hangs_together(design))}",
        f"quarter turns: {_yes(has_quarter_turn(design))}",
    ]
    flip = group.side_reversing_translation()
    lines.append(
        "side-reversing translation: "
        + ("none" if flip is None else f"({flip[0]}, {flip[1]})")
    )
    for label, unit in (("pattern", units.preserving), ("extended", units.extended)):
        lines.append(
            f"lattice unit ({label}): v1={unit.v1} v2={unit.v2} "
            f"det={unit.det} p={unit.diag_step} q={unit.anti_step} "
            f"index={unit.index}"
        )
    lines.append("axes:")
    if not inventory.axes:
        lines.append("  none")
    for axis in inventory.axes:
        parts = [
            f"  {axis.axis} {axis.kind}",
            f"offset={axis.offset}",
            f"spacing={axis.spacing}",
        ]
        if axis.kind == "glide":
            parts.append(f"glide={axis.glide}")
        if axis.mirror_position is not None:
            parts.append(f"mirror-position={_yes(axis.mirror_position)}")
        parts.append(f"side={axis.side.value}")
        lines.append(" ".join(parts))
    lines.append("centres:")
    if not inventory.centres:
        lines.append("  none")
    for centre in inventory.centres:
        lines.append(
            f"  fold={centre.fold} centre=({centre.centre[0]}, {centre.centre[1]}) "
            f"kind={centre.centre_kind} side={centre.side.value}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_hang(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    print(f"hangs together: {_yes(hangs_together(design))}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    striping = Striping.parse(args.striping)
    report = is_perfect(design, striping)
    lines = [
        f"striping: {striping}",
        f"thin: {_yes(is_thin(striping))}",
        f"colour sets: {colour_sets_relation(striping).value}",
    ]
    cells = redundancy(striping).cells
    lines.append(
        "redundancy: " + ("empty" if not cells else f"{len(cells)} cells per period")
    )
    lines.append(f"stripes preserved: {_yes(stripes_preserved(design, striping))}")
    lines.append(f"perfect: {_yes(report.perfect)}")
    if report.conflict is not None:
        conflict = report.conflict
        lines.append(
            f"conflict: {conflict.isometry} sends like-coloured "
            f"{_strand(conflict.strand_a)} and {_strand(conflict.strand_b)} "
            "to different colours"
        )
    else:
        lines.append("colour permutations:")
        for isometry, perm in report.permutations:
            lines.append(f"  {isometry}: {perm}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    relation = ColourSetsRelation(args.mode)
    found = search_stripings(
        design,
        args.colours,
        relation,
        thin=not args.thick,
        max_len=args.max_len,
    )
    _emit("".join(f"{striping}\n" for striping in found), args.out)
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    found = constructive_placement(design, args.colours)
    _emit("".join(f"{striping}\n" for striping in found), args.out)
    return 0


def _cmd_torus(args: argparse.Namespace) -> int:
    basis = _parse_basis(args.basis, args.mult)
    colours = args.colours
    lines = [f"basis: {basis}", f"colours: {colours}"]
    if args.design is not None:
        design = _read_design(args.design)
        striping = (
            Striping.parse(args.striping)
            if args.striping is not None
            else Striping(colours, tuple(range(colours)), tuple(range(colours)))
        )
        valid = validate_torus(design, striping, basis)
        lines.append(f"period parallelogram of the coloured pattern: {_yes(valid)}")
        if not valid:
            lines.append(f"inflated: {inflate(design, striping, basis)}")
    try:
        report = band_count(basis, colours)
    except ValueError as exc:
        lines.append(f"colour phase: no ({exc})")
        _emit("\n".join(lines) + "\n", args.out)
        return 1
    lines += [
        f"bands per direction: {report.bands_per_direction}",
        f"strands per colour per direction: {report.strands_per_colour_per_direction}",
        f"crossings per strand: {report.crossings_per_strand}",
        f"crossing permutation: {cycle_notation(crossing_permutation(basis, colours))}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    window = None
    if args.window is not None:
        try:
            w, h = (int(part) for part in args.window.split("x"))
        except ValueError:
            raise ValueError(f"bad window {args.window!r}: expected WxH") from None
        window = (w, h)
    options = RenderOptions(
        cell_px=args.cell_px,
        show_axes=args.axes,
        show_lattice_unit=args.lattice_unit,
        side=Face(args.side),
        window=window,
    )
    if args.striping is not None:
        svg = render_colouring(design, Striping.parse(args.striping), options)
    else:
        svg = render_design(design, options)
    _emit(svg, args.out)
    return 0


# -- parser --------------------------------------------------------------


def _add_design_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--design",
        default="-",
        metavar="FILE",
        help="design file to read ('-' for standard input, the default)",
    )


def _add_out_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _twill_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("spec", help="run lengths over/under, e.g. 2/1 or 2/1/1/2")
    _add_out_arg(sub)


def _analyze_args(sub: argparse.ArgumentParser) -> None:
    _add_design_arg(sub)
    _add_out_arg(sub)


def _check_args(sub: argparse.ArgumentParser) -> None:
    _add_design_arg(sub)
    sub.add_argument("--striping", required=True, help="e.g. 'c=3 warp=0,1,2 weft=1,2,0'")
    _add_out_arg(sub)


def _search_args(sub: argparse.ArgumentParser) -> None:
    _add_design_arg(sub)
    sub.add_argument("--colours", type=int, required=True)
    sub.add_argument(
        "--mode",
        choices=[ColourSetsRelation.EQUAL.value, ColourSetsRelation.DISJOINT.value],
        default=ColourSetsRelation.EQUAL.value,
        help="warp/weft palettes equal or disjoint (default equal)",
    )
    thinness = sub.add_mutually_exclusive_group()
    thinness.add_argument(
        "--thin", action="store_true", default=True, help="thin stripes (default)"
    )
    thinness.add_argument(
        "--thick", action="store_true", help="allow repeated colours in a direction"
    )
    sub.add_argument(
        "--max-len", type=int, default=None, help="stripe sequence length cap (thick)"
    )
    _add_out_arg(sub)


def _place_args(sub: argparse.ArgumentParser) -> None:
    _add_design_arg(sub)
    sub.add_argument("--colours", type=int, required=True)
    _add_out_arg(sub)


def _torus_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--basis", required=True, help="diag:P,Q (diagonal units) or square:N")
    sub.add_argument("--mult", type=int, default=1, help="scale both vectors")
    sub.add_argument("--colours", type=int, required=True)
    sub.add_argument(
        "--design", default=None, metavar="FILE", help="also validate against a design"
    )
    sub.add_argument(
        "--striping", default=None, help="striping for validation (default: thin identity)"
    )
    _add_out_arg(sub)


def _render_args(sub: argparse.ArgumentParser) -> None:
    _add_design_arg(sub)
    sub.add_argument("--striping", default=None, help="colour the figure")
    sub.add_argument("--axes", action="store_true", help="overlay symmetry axes")
    sub.add_argument("--lattice-unit", action="store_true", help="outline one lattice unit")
    sub.add_argument(
        "--side",
        choices=[face.value for face in Face],
        default=Face.OBVERSE.value,
    )
    sub.add_argument("--cell-px", type=int, default=20)
    sub.add_argument("--window", default=None, help="window in cells, e.g. 9x6")
    _add_out_arg(sub)


#: Subcommand name -> (help, function adding its arguments, handler), in
#: the order help lists them.
_COMMANDS = {
    "twill": ("write a twill design file", _twill_args, _cmd_twill),
    "analyze": ("full symmetry report", _analyze_args, _cmd_analyze),
    "hang": ("does the fabric hang together?", _add_design_arg, _cmd_hang),
    "check": ("check a striping for perfection", _check_args, _cmd_check),
    "search": ("list perfect stripings", _search_args, _cmd_search),
    "place": ("place stripings constructively, then verify", _place_args, _cmd_place),
    "torus": ("strand counts on a torus closure", _torus_args, _cmd_torus),
    "render": ("draw an SVG figure", _render_args, _cmd_render),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or, when ``only`` names one, for
    that subcommand alone.

    Most of a parser's cost is its subparsers (argparse makes a formatter
    for every argument it adds), so a call that names its subcommand pays
    for one.  The one-subcommand parser still shows the full choice list
    in its usage line and errors.
    """
    parser = argparse.ArgumentParser(
        prog="isoweave",
        description="analyse doubly periodic weaves, their symmetries, and stripings",
    )
    # a metavar on the full parser would rename the command in its
    # "required" error, so it is set only where the choices are cut
    usage = {} if only is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    commands = parser.add_subparsers(dest="command", required=True, **usage)
    for name, (text, add_args, handler) in _COMMANDS.items():
        if only in (None, name):
            sub = commands.add_parser(name, help=text)
            add_args(sub)
            sub.set_defaults(handler=handler)
    return parser


if __name__ == "__main__":
    sys.exit(main())
