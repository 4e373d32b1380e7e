"""In-memory spans around the library's layer entry points.

``Tracer.install`` replaces each traced function, in every loaded ``ktdom``
module that holds it, with a wrapper that records a span: layer name, start,
end, parent span and the instance execution it ran for.  Callers inside the
library resolve these names at call time, so the wrappers see the calls
between layers without any change to the library.  A traced name that the
library no longer defines is reported as absent, never as an error.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics; a layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, defining module, attribute, attribute extractor for the result)
TARGETS = (
    ("graphs.build", "graphs", "gnp", None),
    ("graphs.build", "graphs", "cycle", None),
    ("graphs.build", "graphs", "path", None),
    ("graphs.build", "graphs", "random_regular", None),
    ("graphs.complement", "graphs", "complement", None),
    ("bounds.verify_all", "bounds", "verify_all", None),
    ("reports.compute_invariants", "reports", "compute_invariants", None),
    ("domination.gamma_xk", "domination", "gamma_xk", lambda a, r: {"value": r.value, "nodes": r.nodes_explored}),
    ("domination.greedy", "domination", "_greedy_upper", lambda a, r: {"size": r.bit_count()}),
    ("domination.c11_scan", "domination", "kjoin_minimum_size", None),
    ("domination.c11_probe", "domination", "kjoin_decomposition_exists", None),
    ("domination.gamma_oracle", "domination", "gamma_oracle", lambda a, r: {"subsets": r.nodes_explored}),
    ("domatic.d_xk", "domatic", "d_xk",
     lambda a, r: {"gap": min(r.bounds_used.degree_ceiling, r.bounds_used.gamma_ceiling) - r.value}),
    ("domatic.find_partition", "domatic", "_find_partition", lambda a, r: {"found": r is not None}),
    ("domatic.d_oracle", "domatic", "d_oracle", None),
)

# per-layer metric -> (traced layer it needs, end-to-end metric it should move);
# the metrics' units are in BENCHMARK.json
LAYER_METRICS = {
    "graphs.build_s": ("graphs.build", "setup_s everywhere; instances_per_s on ensemble-small"),
    "graphs.complement_s": ("graphs.complement", "setup_s everywhere; instances_per_s on ensemble-small"),
    "domination.gamma_s": ("domination.gamma_xk",
                           "wall_s, latency_p50_ms on gamma-sparse; no change on domatic-dense"),
    "domination.gamma_calls": ("domination.gamma_xk",
                               "wall_s, latency_p50_ms on gamma-sparse; halves per instance on ensemble-oracle "
                               "under solve-once"),
    "domination.gamma_nodes": ("domination.gamma_xk",
                               "wall_s, latency_p50_ms on gamma-sparse; no change on domatic-dense"),
    "domination.greedy_s": ("domination.greedy", "instances_per_s on ensemble-small"),
    "domination.greedy_optimal_share": ("domination.greedy", "instances_per_s on ensemble-small"),
    "domination.c11_scan_s": ("domination.c11_scan", "instances_per_s on ensemble-small"),
    "domination.c11_probes": ("domination.c11_probe", "instances_per_s on ensemble-small"),
    "bounds.verify_self_s": ("bounds.verify_all", "instances_per_s on ensemble-small"),
    "domatic.d_s": ("domatic.d_xk",
                    "wall_s, decided_share on domatic-dense; latency_p99_ms on ensemble-small"),
    "domatic.find_s": ("domatic.find_partition", "wall_s, decided_share on domatic-dense"),
    "domatic.refute_s": ("domatic.find_partition", "wall_s, decided_share on domatic-dense"),
    "domatic.find_calls": ("domatic.find_partition", "wall_s, decided_share on domatic-dense"),
    "domatic.refute_calls": ("domatic.find_partition", "wall_s, decided_share on domatic-dense"),
    "domatic.refute_share": ("domatic.find_partition", "wall_s, decided_share on domatic-dense"),
    "domatic.ceiling_gap": ("domatic.d_xk", "wall_s, decided_share on domatic-dense"),
    "domatic.complement_d_s": ("domatic.d_xk",
                               "wall_s, decided_share on domatic-dense; latency_p99_ms on ensemble-small"),
    "domination.oracle_s": ("domination.gamma_oracle", "wall_s on ensemble-oracle"),
    "domination.oracle_subsets": ("domination.gamma_oracle", "wall_s on ensemble-oracle"),
    "domatic.oracle_s": ("domatic.d_oracle", "wall_s on ensemble-oracle"),
    "reports.compute_self_s": ("reports.compute_invariants", "wall_s on ensemble-oracle"),
    "trace.overhead_share": (None, "none: traced wall_s / untraced wall_s - 1"),
}

# counts that must repeat exactly between two traced passes
ANCHORS = ("domination.gamma_nodes", "domatic.find_calls", "domatic.refute_calls", "domination.c11_probes")


class Span:
    __slots__ = ("layer", "parent", "execution", "start", "end", "attrs")

    def __init__(self, layer: str, parent: int, execution: int, start: float):
        self.layer = layer
        self.parent = parent
        self.execution = execution
        self.start = start
        self.end = start
        self.attrs = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.execution = -1
        self.present: set[str] = set()
        self._complements: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def begin(self, execution: int) -> None:
        """Start attributing spans to one instance execution."""
        self.execution = execution
        self.stack.clear()
        self._complements.clear()

    def _wrap(self, layer: str, fn, extract):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else -1, self.execution, perf_counter())
            # marked before the call, so that an interrupted complement solve still counts
            complement = layer == "domatic.d_xk" and id(args[0]) in self._complements
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if complement:
                    span.attrs = {"complement": True}
            if extract is not None:
                span.attrs = {**(span.attrs or {}), **extract(args, result)}
            if layer == "graphs.complement":
                self._complements[id(result)] = result
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            modules = [m for name, m in list(sys.modules.items()) if name == "ktdom" or name.startswith("ktdom.")]
            for layer, home, attr, extract in TARGETS:
                original = getattr(sys.modules.get(f"ktdom.{home}"), attr, None)
                if original is None:
                    continue
                self.present.add(layer)
                wrapper = self._wrap(layer, original, extract)
                self._patches += [(m, attr, original, wrapper) for m in modules if getattr(m, attr, None) is original]
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON array per line: layer, start, end, parent, execution."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.layer, s.start, s.end, s.parent, s.execution]) + "\n")


def _sum(spans, layer, keep=lambda s: True, self_time=None):
    total = 0.0
    for i, s in enumerate(spans):
        if s.layer == layer and keep(s):
            total += s.end - s.start - (self_time[i] if self_time else 0.0)
    return total


def layer_metrics(spans: list[Span], decided: set[int], passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, as totals per pass.

    Times count every span.  Counts and shares count only executions that
    finished within the budget, because an interrupted search stops at a
    time-dependent point.
    """
    children = [0.0] * len(spans)
    greedy_size: dict[int, int] = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
            if s.layer == "domination.greedy" and s.attrs:
                greedy_size[s.parent] = s.attrs["size"]
    ok = [s for s in spans if s.execution in decided]
    gammas = [(i, s) for i, s in enumerate(spans)
              if s.layer == "domination.gamma_xk" and s.execution in decided and s.attrs]
    gamma_nodes, find_calls, refute_calls, c11_probes = map(sum, zip(*anchor_counts(ok).values(), (0, 0, 0, 0)))
    # a call cut off by the budget concluded nothing and counts in neither
    find_s = _sum(spans, "domatic.find_partition", keep=lambda s: bool(s.attrs and s.attrs["found"]))
    refute_s = _sum(spans, "domatic.find_partition", keep=lambda s: bool(s.attrs and not s.attrs["found"]))
    m = {
        "graphs.complement_s": _sum(spans, "graphs.complement"),
        "domination.gamma_s": _sum(spans, "domination.gamma_xk"),
        "domination.gamma_calls": len(gammas),
        "domination.gamma_nodes": gamma_nodes,
        "domination.greedy_s": _sum(spans, "domination.greedy"),
        "domination.greedy_optimal_share":
            sum(greedy_size.get(i) == s.attrs["value"] for i, s in gammas) / len(gammas) if gammas else 0.0,
        "domination.c11_scan_s": _sum(spans, "domination.c11_scan"),
        "domination.c11_probes": c11_probes,
        "bounds.verify_self_s": _sum(spans, "bounds.verify_all", self_time=children),
        "domatic.d_s": _sum(spans, "domatic.d_xk"),
        "domatic.find_s": find_s,
        "domatic.refute_s": refute_s,
        "domatic.find_calls": find_calls,
        "domatic.refute_calls": refute_calls,
        "domatic.refute_share": refute_s / (find_s + refute_s) if find_s + refute_s else 0.0,
        "domatic.ceiling_gap": sum(s.attrs["gap"] for s in ok if s.layer == "domatic.d_xk"),
        "domatic.complement_d_s":
            _sum(spans, "domatic.d_xk", keep=lambda s: bool(s.attrs and s.attrs.get("complement"))),
        "domination.oracle_s": _sum(spans, "domination.gamma_oracle"),
        "domination.oracle_subsets":
            sum(s.attrs["subsets"] for s in ok if s.layer == "domination.gamma_oracle" and s.attrs),
        "domatic.oracle_s": _sum(spans, "domatic.d_oracle"),
        "reports.compute_self_s": _sum(spans, "reports.compute_invariants", self_time=children),
    }
    # shares are already ratios; everything else is reported per pass, except
    # graph building, which ran once in the traced set-up
    m = {k: v if k.endswith("_share") else v / passes for k, v in m.items()}
    m["graphs.build_s"] = _sum(spans, "graphs.build")
    return m


def anchor_counts(spans: list[Span]) -> dict[int, tuple[int, int, int, int]]:
    """The exact anchor counts of each execution, in ANCHORS order."""
    out: dict[int, list[int]] = {}
    for s in spans:
        row = out.setdefault(s.execution, [0, 0, 0, 0])
        if s.layer == "domination.gamma_xk" and s.attrs:
            row[0] += s.attrs["nodes"]
        elif s.layer == "domatic.find_partition" and s.attrs:
            row[1 if s.attrs["found"] else 2] += 1
        elif s.layer == "domination.c11_probe":
            row[3] += 1
    return {e: tuple(row) for e, row in out.items()}
