#!/usr/bin/env python3
"""Run one ktdom benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

One process, one thread, a closed loop with one caller.  The library is
imported from ``src/`` next to this directory.  Set-up (a fresh import plus
building every graph) is timed several times before the passes and several
times after the checks, and the median is reported as ``setup_s``.

The run makes whole passes over the workload's instances, in an order drawn
from ``--seed``, as long as the next pass is expected to end within
``--seconds``; time spent in calls cut off at the budget does not count
towards them.  On a shared virtual machine the speed of the same code drifts
by up to 2x over seconds to minutes, in wall and CPU time alike, and
differs between vCPUs, so a profiling timer runs a fixed kernel
(calibrate.py) every 0.1 s of CPU time, also in the middle of a call.  Each
execution's time, less the kernel's, is scaled by the reference kernel time
over the mean of the kernel times measured during and around it.  Every
time metric is such a scaled time, and each instance is reported by the
median of its executions.  Each call runs under the workload's wall budget;
an instance that runs out is undecided, costs exactly the budget and is not
run again.  Outputs are checked after the timed passes.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes full passes, at least two, until ``--seconds`` have passed; in
each, every instance runs untraced and then with spans around each library
layer (see tracing.py).  It reports the per-layer metrics, the tracing
overhead from those pairs, and checks that the anchor counts of every pass
agree.  Per-layer times are not scaled.  The spans are written to
``bench/out/``.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracing
from workloads import COMPUTE, VERIFY, WHY, build_workload

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())  # metric names and units
SETUP_REPEATS = 6  # before the passes, and again after the checks
CALIBRATE_EVERY_S = 0.1  # of CPU time; also how far around an execution its kernel times reach
EXHAUSTED = "budget exhausted"


class BudgetExhausted(BaseException):
    """Raised from the alarm signal when a call exceeds its budget.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExhausted


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def budgeted(fn, budget: float):
    """fn() if it returns within ``budget`` seconds of wall time, else EXHAUSTED."""
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExhausted:
        return EXHAUSTED


class Crash:
    def __init__(self, text: str):
        self.text = text


def call(kt, op: str, g, k: int):
    """The timed call; names are resolved on the package at call time."""
    if op == VERIFY:
        return kt.verify_all(g, k)
    if op == COMPUTE:
        return kt.compute_invariants(g, k, "both")
    return kt.verify_all(g, k), kt.compute_invariants(g, k, "both", with_oracle=True)


def set_up(args, times: list[float]):
    """Fresh import of the library plus every graph of the workload; appends
    the time taken, scaled by the kernel times measured before and after."""
    gc.collect()  # the previous repetition's graphs are garbage now
    before = calibrate.kernel()
    start = perf_counter()
    for name in [m for m in sys.modules if m == "ktdom" or m.startswith("ktdom.")]:
        del sys.modules[name]
    kt = importlib.import_module("ktdom")
    workload = build_workload(args.workload, args.tiny)
    graphs = [inst.build(kt) for inst in workload.instances]
    seconds = perf_counter() - start
    times.append(seconds * 2 * calibrate.REFERENCE_S / (before + calibrate.kernel()))
    return kt, workload, graphs


class Run:
    """Executions of one workload run and their bookkeeping."""

    def __init__(self, kt, workload, graphs, order):
        self.kt = kt
        self.workload = workload
        self.graphs = graphs
        self.order = order
        self.executions = []  # (traced, pass number, instance index, decided, seconds, start)
        self.calibrations = []  # (time at the end, kernel seconds)
        self.kernel_s = 0.0  # total time of the kernel runs so far
        self.cut_s = 0.0  # time spent in calls cut off at the budget
        self.undecided = set()  # instances that exhausted the budget or crashed
        self.first = {}  # instance index -> first decided result
        self.signatures = {}  # instance index -> signature of that result
        self.bad = set()  # execution numbers that crashed or disagree with an earlier execution
        self.notes = []

    def _execute(self, idx: int, number: int, tracer=None) -> None:
        inst = self.workload.instances[idx]
        traced = tracer is not None
        if traced:
            tracer.begin(len(self.executions))
            tracer.install()
        kernel_s = self.kernel_s
        start = perf_counter()
        try:
            result = budgeted(lambda: call(self.kt, inst.op, self.graphs[idx], inst.k), self.workload.budget_s)
        except Exception:
            result = Crash(traceback.format_exc())
        seconds = perf_counter() - start - (self.kernel_s - kernel_s)
        if traced:
            tracer.uninstall()
        decided = result is not EXHAUSTED and not isinstance(result, Crash)
        if isinstance(result, Crash):
            self.bad.add(len(self.executions))
            self.notes.append(f"{inst.name}: exception\n{result.text}")
        elif decided:
            sig = checks.signature(inst.op, result)
            if idx not in self.first:
                self.first[idx] = result
                self.signatures[idx] = sig
            elif sig != self.signatures[idx]:
                self.bad.add(len(self.executions))
                self.notes.append(f"{inst.name}: output differs between executions")
        if not decided:
            self.undecided.add(idx)
            self.cut_s += seconds
        self.executions.append((traced, number, idx, decided, seconds, start))

    def _calibrate(self, signum, frame) -> None:
        seconds = calibrate.kernel()
        self.kernel_s += seconds
        self.calibrations.append((perf_counter(), seconds))

    def cycle(self, seconds: float) -> int:
        """Whole passes, the first over every instance and the later ones
        over the decided ones, while the next pass is expected to end within
        ``seconds``, not counting calls cut off at the budget.  Returns the
        number of passes."""
        self._calibrate(None, None)  # so that even a short run has kernel times on both sides
        previous = signal.signal(signal.SIGPROF, self._calibrate)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            start = perf_counter() - self.cut_s
            number = 0
            while True:
                begun = perf_counter() - self.cut_s
                for idx in self.order:
                    if number == 0 or idx not in self.undecided:
                        self._execute(idx, number)
                number += 1
                now = perf_counter() - self.cut_s
                if len(self.undecided) == len(self.order) or now + (now - begun) - start > seconds:
                    return number
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self._calibrate(None, None)

    def times(self, scale: bool = True) -> dict[int, list[float]]:
        """Seconds of each instance's decided untraced executions, each scaled
        by the reference kernel time over the mean of the kernel times that
        ended during it or within CALIBRATE_EVERY_S of it (the nearest one
        if there is none)."""
        ends = [t for t, _ in self.calibrations]
        out: dict[int, list[float]] = {}
        for traced, _, idx, decided, seconds, start in self.executions:
            if traced or not decided:
                continue
            if scale:
                lo = bisect.bisect_left(ends, start - CALIBRATE_EVERY_S)
                hi = bisect.bisect_right(ends, start + seconds + CALIBRATE_EVERY_S)
                if lo == hi:
                    lo = min(range(len(ends)), key=lambda i: abs(ends[i] - start))
                    hi = lo + 1
                seconds *= calibrate.REFERENCE_S / statistics.fmean(s for _, s in self.calibrations[lo:hi])
            out.setdefault(idx, []).append(seconds)
        return out

    def traced_passes(self, tracer, seconds: float) -> int:
        """Full passes, at least two, until ``seconds`` have passed.  Each
        instance runs untraced and then traced, so that the pair sees the
        machine at the same moment; once undecided, it runs traced only."""
        start = perf_counter()
        number = 0
        while number < 2 or perf_counter() - start < seconds:
            for idx in self.order:
                if idx not in self.undecided:
                    self._execute(idx, number)
                self._execute(idx, number, tracer)
            number += 1
        return number

    def overhead(self) -> float:
        """Traced over untraced time of the decided instances, each at its median, minus 1."""
        times: dict[tuple[bool, int], list[float]] = {}
        for traced, _, idx, decided, seconds, _ in self.executions:
            if idx not in self.undecided:
                times.setdefault((traced, idx), []).append(seconds)
        both = [idx for traced, idx in times if traced and (False, idx) in times]
        return (sum(statistics.median(times[True, idx]) for idx in both)
                / sum(statistics.median(times[False, idx]) for idx in both) - 1)

    def failed(self, reference: dict) -> set[int]:
        """Execution numbers that count as failed, after checking every decided instance once."""
        wrong = set()
        for idx, result in self.first.items():
            inst = self.workload.instances[idx]
            errs = checks.errors(self.kt, inst.op, self.graphs[idx], inst.k, result,
                                 reference.get(inst.op, {}).get(inst.name))
            if errs:
                wrong.add(idx)
                self.notes += [f"{inst.name}: {e}" for e in errs]
        return self.bad | {n for n, e in enumerate(self.executions) if e[2] in wrong}


def medians(run: Run, scale: bool = True) -> dict[int, float]:
    """Median seconds of each decided instance over its executions."""
    return {idx: statistics.median(s) for idx, s in run.times(scale).items() if idx not in run.undecided}


def one_pass(run: Run, times: dict[int, float]) -> float:
    """The instances' times, an undecided one at exactly the budget."""
    return sum(times.get(idx, run.workload.budget_s) for idx in run.order)


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    times = medians(run)
    latencies = [s * 1e3 for s in times.values()] or [run.workload.budget_s * 1e3]  # nothing decided
    wall = one_pass(run, times)
    # statistics.quantiles needs two points; a lone sample is its own p99
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "instances_per_s": len(run.order) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": p99,
        "decided_share": len(times) / len(run.order),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def anchor_check(run: Run, tracer) -> dict[int, tuple]:
    """Anchor totals of each traced pass over the decided instances; an
    instance whose anchor counts differ between the passes counts as failed."""
    per_exec = tracing.anchor_counts(tracer.spans)
    by_instance: dict[int, dict[int, tuple]] = {}
    for n, (traced, number, idx, decided, _, _) in enumerate(run.executions):
        if traced and idx not in run.undecided:
            by_instance.setdefault(idx, {})[number] = per_exec.get(n, (0, 0, 0, 0))
    totals: dict[int, tuple] = {}
    for idx, rows in by_instance.items():
        if len(set(rows.values())) > 1:
            inst = run.workload.instances[idx]
            run.notes.append(f"{inst.name}: anchor counts differ between traced passes: {sorted(rows.values())}")
            run.bad |= {n for n, e in enumerate(run.executions) if e[0] and e[2] == idx}
        for number, row in rows.items():
            totals[number] = tuple(a + b for a, b in zip(totals.get(number, (0, 0, 0, 0)), row))
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "ktdom" / "__init__.py").is_file():
        print(f"error: the ktdom sources are missing: {SRC / 'ktdom'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    install_alarm()
    for _ in range(20):  # let the interpreter specialise the kernel's code
        calibrate.kernel()

    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        kt, workload, graphs = set_up(args, setups)
    if not Path(kt.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ktdom was imported from {kt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    order = list(range(len(workload.instances)))
    random.Random(args.seed).shuffle(order)
    run = Run(kt, workload, graphs, order)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.begin(-1)
        tracer.install()
        for inst in workload.instances:
            inst.build(kt)
        tracer.uninstall()
        passes = run.traced_passes(tracer, args.seconds)
        anchors = anchor_check(run, tracer)
    else:
        passes = run.cycle(args.seconds)
    failed = run.failed(reference)
    # later repetitions sample the machine at another moment of the run
    for _ in range(SETUP_REPEATS):
        set_up(args, setups)

    attempted = len(run.executions)
    undecided = sorted(workload.instances[idx].name for idx in run.undecided)
    print(f"workload {workload.name}: {WHY[workload.name]}")
    print(f"seed {args.seed}; {len(workload.instances)} instances; {attempted} executions; "
          f"budget {workload.budget_s:g} s per call")
    print(f"undecided (budget exhausted or crashed): {', '.join(undecided) if undecided else 'none'}")
    for note in run.notes:
        print(f"FAILED {note}")
    print(f"metric failed_share = {len(failed) / attempted:.6g} share")

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, {n for n, e in enumerate(run.executions) if e[3]}, passes)
        layers["trace.overhead_share"] = run.overhead()
        print(f"{passes} passes, each instance untraced and then traced")
        for number, row in sorted(anchors.items()):
            print(f"anchors of traced pass {number}: " + ", ".join(f"{a}={v}" for a, v in zip(tracing.ANCHORS, row)))
        metrics = {}
        for name, unit in units.items():
            layer, moves = tracing.LAYER_METRICS[name]
            absent = layer is not None and layer not in tracer.present
            metrics[name] = {"value": 0 if absent else layers[name], "unit": unit}
            print(f"metric {name} = {metrics[name]['value']:.6g} {unit}{' (absent)' if absent else ''}  -> {moves}")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(run, statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        kernel = statistics.median(s for _, s in run.calibrations)
        unscaled = one_pass(run, medians(run, scale=False))
        print(f"calibration: kernel median {kernel * 1e3:.3f} ms over {len(run.calibrations)} runs, "
              f"times scaled to {calibrate.REFERENCE_S * 1e3:g} ms; unscaled wall_s {unscaled:.6g} s")
        print(f"latency samples: {len(workload.instances) - len(run.undecided)} decided instances, "
              f"each the median of its executions over {passes} passes")
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
