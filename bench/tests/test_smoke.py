"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/tests -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that nothing fails, that the anchor counts of two traced runs agree,
that a call past its budget is recorded as undecided at exactly the budget,
and that the benchmark refuses to run without the library sources.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))  # the benchmark's own modules
from tracing import ANCHORS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            value, unit = rest.split()[:2]
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    result, printed = parse(run(workload, trace))
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert {name: printed[name][1] for name in wanted} == wanted
    assert printed["failed_share"] == (0.0, "share")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["domatic-dense", "ensemble-small"])
def test_anchor_counts_repeat_exactly(workload):
    first, _ = parse(run(workload, 1))
    second, _ = parse(run(workload, 1))
    assert [first["metrics"][a]["value"] for a in ANCHORS] == [second["metrics"][a]["value"] for a in ANCHORS]


def test_budget_exhaustion_is_reported_as_undecided():
    """A call that never returns is cut at the budget, whatever the library's speed."""
    import run as bench_run
    from workloads import VERIFY, Instance, Workload

    class Spinning:
        def verify_all(self, g, k):
            while True:
                pass

    budget = 0.05
    workload = Workload("spin", (Instance("spin", None, 1, VERIFY),), budget)
    previous = signal.getsignal(signal.SIGALRM)
    bench_run.install_alarm()
    try:
        run = bench_run.Run(Spinning(), workload, [None], [0])
        run.cycle(0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert run.undecided == {0} and run.first == {}
    values = bench_run.end_to_end(run, setup_s=1.0)
    assert values["wall_s"] == budget
    assert values["decided_share"] == 0
    assert values["latency_p99_ms"] == budget * 1e3


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("gamma-sparse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_workload_reasons_match_the_spec():
    from workloads import WHY

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WHY
