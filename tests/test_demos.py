"""The demo scripts print what their tracked transcripts hold, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_weaves_and_symmetries", "02_perfect_stripings", "03_woven_torus")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_tracked_output(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        check=True,
    )
    assert result.stdout == (ROOT / "demos" / "output" / f"{name}.txt").read_bytes()
