"""The scripts under scripts/ still run against the package, at a tiny size."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


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


@pytest.mark.parametrize(
    "argv",
    [
        # unbuffered, so that every row after the first meets the closed pipe at once
        ["-u", str(SCRIPTS / "family_sharpness.py"), "--max-size", "8", "--max-k", "3"],
        ["-u", str(SCRIPTS / "small_graph_census.py"), "--max-n", "4", "--k", "1"],
        ["-u", "-m", "ktdom.cli", "gen", "complete", "300"],  # one write, larger than a pipe holds
        # block-buffered, as in `ktdom gen complete 2000 | head -n 1`: a write of a full buffer
        # meets the closed pipe, and the flush at exit must not report it
        ["-m", "ktdom.cli", "gen", "complete", "2000"],
    ],
    ids=["family_sharpness", "small_graph_census", "ktdom", "ktdom-buffered"],
)
def test_closed_pipe_ends_quietly(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # only -u makes a case unbuffered
    proc = subprocess.Popen([sys.executable, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        proc.wait()
    assert (proc.returncode, err) == (0, "")
