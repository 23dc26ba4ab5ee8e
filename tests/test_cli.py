"""Tests for the command-line interface: exit codes, piping, reports."""

import argparse
import io
import random
import sys

import numpy as np
import pytest

from isoweave.cli import main
from isoweave.colouring import Striping
from isoweave.design import Design, ParseError, parse_design, serialise, twill
from isoweave.svg import render_colouring, render_design

from helpers import full_parser


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_twill_writes_design_file(capsys):
    code, out, err = _run(capsys, ["twill", "2/1"])
    assert code == 0 and err == ""
    assert out == serialise(twill("2/1"))
    assert parse_design(out) == twill("2/1")


def test_twill_analyze_round_trip(capsys, monkeypatch):
    for spec in ("1/1", "2/1", "3/1/1/2"):
        design_file = serialise(twill(spec))
        code, out, err = _run(capsys, ["analyze"], stdin=design_file, monkeypatch=monkeypatch)
        assert code == 0, err
        assert f"order: {twill(spec).order}" in out
        assert "isonemal: yes" in out
        assert "hangs together: yes" in out


def test_analyze_report_contents(capsys, monkeypatch):
    code, out, _ = _run(
        capsys, ["analyze"], stdin=serialise(twill("2/1")), monkeypatch=monkeypatch
    )
    assert code == 0
    assert "design 3 3" in out
    assert "quarter turns: no" in out
    assert "side-reversing translation: none" in out
    assert "antidiagonal mirror" in out
    assert "antidiagonal glide" in out
    assert "fold=2" in out


def test_hang_reports_loose_fabric(capsys, monkeypatch):
    loose = Design(4, 2, ("#.#.", "##.#"))
    code, out, _ = _run(capsys, ["hang"], stdin=serialise(loose), monkeypatch=monkeypatch)
    assert code == 0
    assert "hangs together: no" in out


def test_check_perfect_striping(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["check", "--striping", "c=3 warp=0,1,2 weft=1,2,0"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "perfect: yes" in out
    assert "colour permutations:" in out
    assert "redundancy: 3 cells per period" in out


def test_check_imperfect_striping(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["check", "--striping", "c=3 warp=0,1,2 weft=2,0,1"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "perfect: no" in out
    assert "conflict:" in out


def test_search_lists_canonical_stripings(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["search", "--colours", "3"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "c=3 warp=0,1,2 weft=1,2,0\n"


def test_search_empty_result(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["search", "--colours", "3"],
        stdin=serialise(twill("1/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == ""


def test_search_disjoint_mode(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["search", "--colours", "4", "--mode", "disjoint"],
        stdin=serialise(twill("3/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "c=4 warp=0,1 weft=2,3\n"


def test_search_refuses_an_oversized_palette(capsys, monkeypatch):
    code, out, err = _run(
        capsys,
        ["search", "--colours", "12"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 1 and out == ""
    assert "479001600" in err and "2000000" in err


def test_search_and_place_refuse_an_empty_palette(capsys, monkeypatch):
    for argv in (
        ["search", "--colours", "0", "--thick", "--max-len", "1000000"],
        ["place", "--colours", "0"],
    ):
        code, out, err = _run(capsys, argv, stdin=serialise(twill("2/1")), monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert "palette must have at least one colour, got 0" in err


def test_place_matches_search(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["place", "--colours", "3"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == "c=3 warp=0,1,2 weft=1,2,0\n"


def test_torus_report(capsys):
    code, out, _ = _run(capsys, ["torus", "--basis", "diag:3,15", "--colours", "3"])
    assert code == 0
    assert "bands per direction: 1" in out
    assert "strands per colour per direction: 1" in out
    assert "crossings per strand: 6" in out
    assert "crossing permutation: (0 1 2 3 4)" in out


def test_torus_square_with_mult(capsys):
    code, out, _ = _run(
        capsys, ["torus", "--basis", "square:10", "--mult", "3", "--colours", "3"]
    )
    assert code == 0
    assert "basis: square:30" in out
    assert "strands per colour per direction: 10" in out
    assert "crossings per strand: 1" in out


def test_torus_validates_against_design(capsys, tmp_path):
    path = tmp_path / "weave.txt"
    path.write_text(serialise(twill("3/7")))
    code, out, _ = _run(
        capsys,
        [
            "torus",
            "--basis",
            "diag:3,5",
            "--colours",
            "3",
            "--design",
            str(path),
            "--striping",
            "c=3 warp=0,1,2 weft=1,2,0",
        ],
    )
    assert code == 1
    assert "period parallelogram of the coloured pattern: no" in out
    assert "inflated: diag:3,15" in out
    assert "colour phase: no" in out


def test_torus_valid_design_basis(capsys, tmp_path):
    path = tmp_path / "weave.txt"
    path.write_text(serialise(twill("3/7")))
    code, out, _ = _run(
        capsys,
        ["torus", "--basis", "diag:3,15", "--colours", "3", "--design", str(path)],
    )
    assert code == 0
    assert "period parallelogram of the coloured pattern: yes" in out
    assert "inflated:" not in out


def test_torus_inflates_a_square_to_a_square(capsys, tmp_path):
    path = tmp_path / "weave.txt"
    path.write_text(serialise(twill("2/1")))
    code, out, _ = _run(
        capsys,
        [
            "torus",
            "--basis",
            "square:3",
            "--colours",
            "1",
            "--design",
            str(path),
            "--striping",
            "c=2 warp=0 weft=0,1",
        ],
    )
    assert code == 0
    assert "period parallelogram of the coloured pattern: no" in out
    assert "inflated: square:6" in out


def test_torus_refuses_an_oversized_design(capsys, tmp_path, monkeypatch):
    rng = random.Random(513)
    big = Design(513, 512, tuple("".join(rng.choice("#.") for _ in range(513)) for _ in range(512)))
    path = tmp_path / "big.txt"
    path.write_text(serialise(big))

    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT array was built")

    monkeypatch.setattr(np.fft, "fft2", no_fft)
    code, out, err = _run(
        capsys, ["torus", "--basis", "diag:3,15", "--colours", "3", "--design", str(path)]
    )
    assert code == 1 and out == ""
    assert "513x512" in err


def test_render_to_stdout(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        ["render", "--striping", "c=3 warp=0,1,2 weft=1,2,0"],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out == render_colouring(twill("2/1"), Striping(3, (0, 1, 2), (1, 2, 0)))


def test_render_to_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "figure.svg"
    code, out, _ = _run(
        capsys,
        ["render", "--axes", "--out", str(out_path)],
        stdin=serialise(twill("2/1")),
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out == ""
    from isoweave.svg import RenderOptions

    assert out_path.read_text() == render_design(
        twill("2/1"), RenderOptions(show_axes=True)
    )


def test_usage_errors_exit_two(capsys, monkeypatch):
    with pytest.raises(SystemExit) as excinfo:
        main(["search"])  # missing required --colours
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_domain_errors_exit_one(capsys, monkeypatch):
    code, _, err = _run(capsys, ["analyze", "--design", "/no/such/file"])
    assert code == 1 and "error:" in err

    code, _, err = _run(
        capsys, ["analyze"], stdin="design 2 2\n##\n", monkeypatch=monkeypatch
    )
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["torus", "--basis", "oval:3", "--colours", "3"])
    assert code == 1 and "bad basis" in err

    code, _, err = _run(capsys, ["twill", "2/0"])
    assert code == 1 and "error:" in err


def _oracle_main(argv):
    """``main`` as it ran on the full parser."""
    args = full_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _outcome(capsys, run, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_output_matches_the_full_parser_oracle(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "t21.txt"
    path.write_text(serialise(twill("2/1")))
    f = str(path)
    commands = ("twill", "analyze", "hang", "check", "search", "place", "torus", "render")
    argvs = [[], ["-h"], ["--help"], ["no-such-command"], ["HANG"], ["--design", f, "hang"]]
    argvs += [[name, "-h"] for name in commands]
    argvs += [
        ["twill"],
        ["search"],
        ["check", "--design", f],
        ["torus", "--colours", "3"],
        ["search", "--design", f, "--colours", "x"],
        ["render", "--design", f, "--cell-px", "big"],
        ["torus", "--basis", "diag:3,15", "--colours", "3", "--mult", "two"],
        ["search", "--design", f, "--colours", "3", "--mode", "mixed"],
        ["render", "--design", f, "--side", "left"],
        ["search", "--design", f, "--colours", "3", "--thin", "--thick"],
        ["hang", "--design", f, "extra"],
        ["twill", "2/1", "3/1"],
        ["hang", "--design", f, "--bogus"],
        ["render", "--design", f, "--s", "reverse"],
        ["hang", "--des", f],
        ["analyze", "--des", f],
        ["twill", "2/1"],
        ["hang", "--design", f],
        ["check", "--design", f, "--striping", "c=3 warp=0,1,2 weft=2,0,1"],
        ["search", "--design", f, "--colours", "3"],
        ["place", "--design", f, "--colours", "3"],
        ["torus", "--basis", "diag:3,15", "--colours", "3"],
        ["render", "--design", f, "--window", "4x3"],
        ["analyze", "--design", str(tmp_path / "missing.txt")],
    ]
    assert len(argvs) >= 32
    for argv in argvs:
        assert _outcome(capsys, main, argv) == _outcome(capsys, _oracle_main, argv), argv


def test_named_subcommand_builds_one_subparser(monkeypatch, tmp_path):
    path = tmp_path / "t21.txt"
    path.write_text(serialise(twill("2/1")))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["hang", "--design", str(path)]) == 0
    assert len(built) <= 2, built
