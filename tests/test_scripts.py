"""The scripts under scripts/ still run against the package, at a tiny size."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, argv, header",
    [
        ("family_sharpness.py", ["--max-size", "6", "--max-k", "2"], "instance      k   n gamma   d  g_t  d_t  sharp"),
        ("small_graph_census.py", ["--max-n", "4", "--k", "1"], "k = 1: 75 labeled graphs with n <= 4"),
    ],
    ids=["family_sharpness", "small_graph_census"],
)
def test_script_runs(monkeypatch, capsys, script, argv, header):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith(header), out[:200]
