"""Span tracing of chordlab's layers, installed from the benchmark's side.

`Tracer.install()` wraps each public function listed in TARGETS at every
place chordlab binds it: the defining module and every `from ... import`
copy held by another chordlab module.  A wrapper appends one span (name,
start, end, parent span, result size) to a list in memory; nothing is
written until `write()` at the end of the pass.  A span's layer is the
text of its name before the first dot, which is the chordlab module.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _witnesses(report):
    return len(report.witnesses)


# span name, defining module, function, result size (or None)
TARGETS = (
    ("generate.enumerate", "chordlab.generate", "enumerate_cubic", len),
    ("kernels.xy", "chordlab.kernels", "longest_xy_length", None),
    ("kernels.xy", "chordlab.kernels", "xy_paths_of_length", len),
    ("kernels.cycle", "chordlab.kernels", "longest_cycle_length", None),
    ("kernels.cycle", "chordlab.kernels", "cycles_of_length", len),
    ("kernels.ham", "chordlab.kernels", "hamilton_cycle_rows", len),
    ("search.xy_paths", "chordlab.search", "longest_xy_paths", _witnesses),
    ("search.bound", "chordlab.search", "internal_bound_vertices", None),
    ("search.cycles", "chordlab.search", "longest_cycles", None),
    ("search.hamilton", "chordlab.search", "hamilton_cycles", None),
    ("search.chords", "chordlab.search", "chords", None),
    ("graphs.gate", "chordlab.graphs", "connectivity_at_least", None),
    ("graph6.parse", "chordlab.graph6", "parse_graph6", None),
    ("graph6.write", "chordlab.graph6", "write_graph6", None),
    ("cli.generate", "chordlab.cli", "cmd_generate", None),
    ("cli.verify", "chordlab.cli", "cmd_verify", None),
    ("extender.verify", "chordlab.extender", "verify_zhan", None),
    ("extender.verify", "chordlab.extender", "verify_chords", None),
    ("extender.precheck", "chordlab.extender", "precheck", None),
    ("extender.extend", "chordlab.extender", "extend_path", None),
    ("extender.direct", "chordlab.extender", "find_direct_extension", None),
    ("extender.reduction", "chordlab.extender", "build_reduced_G2", None),
    ("extender.reduction", "chordlab.extender", "find_odd_cover_cycle", None),
    ("extender.reduction", "chordlab.extender", "compute_stats", None),
    ("extender.reduction", "chordlab.extender", "lift_to_host", None),
    ("extender.matching", "chordlab.extender", "matching_step", None),
    ("extender.adjacent", "chordlab.extender", "extend_path_adjacent", None),
    ("coloring.color", "chordlab.coloring", "three_color_cycle_plus", None),
    ("second_cycle.certificate", "chordlab.second_cycle", "second_hamilton_cycle", None),
)

# ExtensionTrace step names and branch labels counted per returned trace;
# anything else counts as "other"
BRANCHES = (
    "short-path", "direct", "certificate", "adjacent-attachment",
    "single-component", "ay-component-splice", "coloring", "reduced-graph",
    "odd-cover-cycle", "lift", "matching-step", "case-1", "case-2",
)
BRANCH_METRICS = tuple(f"extender.branch.{b}" for b in BRANCHES + ("other",))

# name -> (unit, better); the traced run reports exactly these
PER_LAYER = {
    "generate.enumerate_s": ("s", "lower"),
    "generate.graphs_out": ("count", "higher"),
    "kernels.xy.calls": ("count", "lower"),
    "kernels.xy_s": ("s", "lower"),
    "kernels.cycle.calls": ("count", "lower"),
    "kernels.cycle_s": ("s", "lower"),
    "kernels.ham.calls": ("count", "lower"),
    "kernels.ham_s": ("s", "lower"),
    "kernels.rows_out": ("count", "lower"),
    "search.xy_paths.calls": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "search.bound_s": ("s", "lower"),
    "search.witnesses": ("count", "lower"),
    "search.witnesses_per_pair": ("ratio", "lower"),
    "search.cycles.calls": ("count", "lower"),
    "graphs.gate.calls": ("count", "lower"),
    "graphs.gate_s": ("s", "lower"),
    "graphs.gate_calls_per_graph": ("ratio", "lower"),
    "graph6.parse.calls": ("count", "lower"),
    "graph6.parse_s": ("s", "lower"),
    "graph6.write_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "cli.generate_s": ("s", "lower"),
    "cli.verify_zhan2_s": ("s", "lower"),
    "cli.verify_zhan3adj_s": ("s", "lower"),
    "cli.verify_chords_s": ("s", "lower"),
    "extender.verify_self_s": ("s", "lower"),
    "extender.precheck.calls": ("count", "lower"),
    "extender.precheck_s": ("s", "lower"),
    "extender.direct_s": ("s", "lower"),
    "extender.reduction_s": ("s", "lower"),
    "extender.matching_s": ("s", "lower"),
    "extender.adjacent_s": ("s", "lower"),
    "extender.steps": ("count", "higher"),
    "extender.step_ms_p50": ("ms", "lower"),
    "extender.step_ms_p95": ("ms", "lower"),
    **{name: ("count", "lower") for name in BRANCH_METRICS},
    "coloring.calls": ("count", "lower"),
    "coloring_s": ("s", "lower"),
    "second_cycle.calls": ("count", "lower"),
    "second_cycle_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, result size, outermost of its name]
        self.spans = []
        self._open = []
        self._depth = Counter()
        self._patched = []

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "chordlab" or k.startswith("chordlab.")]
        for name, module, attr, size in TARGETS:
            fn = getattr(importlib.import_module(module), attr)
            traced = self._wrap(name, fn, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def _wrap(self, name, fn, size):
        spans, open_, depth, clock = self.spans, self._open, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, 0, depth[name] == 0]
            open_.append(len(spans))
            spans.append(span)
            depth[name] += 1
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    span[4] = size(out)
                return out
            finally:
                depth[name] -= 1
                open_.pop()
                span[2] = clock()

        return traced

    def write(self, path):
        """Spans as gzipped JSON lines: name, start and end (s), parent, size."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, size, _ in self.spans:
                fh.write(json.dumps([name, round(start - base, 7), round(end - base, 7), parent, size]) + "\n")

    def layer_metrics(self, graph_ops):
        """The span-derived part of PER_LAYER.  `graph_ops` is the number of
        graph-level operations (verify rows plus extension runs)."""
        calls, total, size = Counter(), defaultdict(float), Counter()
        child = defaultdict(float)
        for name, start, end, parent, n, outermost in self.spans:
            calls[name] += 1
            size[name] += n
            if outermost:
                total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        layer_self = defaultdict(float)
        for name, value in own.items():
            layer_self[name.split(".")[0]] += value
        witnesses = size["search.xy_paths"]
        return {
            "generate.enumerate_s": total["generate.enumerate"],
            "generate.graphs_out": size["generate.enumerate"],
            "kernels.xy.calls": calls["kernels.xy"],
            "kernels.xy_s": total["kernels.xy"],
            "kernels.cycle.calls": calls["kernels.cycle"],
            "kernels.cycle_s": total["kernels.cycle"],
            "kernels.ham.calls": calls["kernels.ham"],
            "kernels.ham_s": total["kernels.ham"],
            "kernels.rows_out": size["kernels.xy"] + size["kernels.cycle"] + size["kernels.ham"],
            "search.xy_paths.calls": calls["search.xy_paths"],
            "search.self_s": layer_self["search"],
            "search.bound_s": total["search.bound"],
            "search.witnesses": witnesses,
            "search.witnesses_per_pair": witnesses / calls["search.xy_paths"] if calls["search.xy_paths"] else 0.0,
            "search.cycles.calls": calls["search.cycles"],
            "graphs.gate.calls": calls["graphs.gate"],
            "graphs.gate_s": total["graphs.gate"],
            "graphs.gate_calls_per_graph": calls["graphs.gate"] / graph_ops if graph_ops else 0.0,
            "graph6.parse.calls": calls["graph6.parse"],
            "graph6.parse_s": total["graph6.parse"],
            "graph6.write_s": total["graph6.write"],
            "cli.self_s": layer_self["cli"],
            "extender.verify_self_s": own["extender.verify"],
            "extender.precheck.calls": calls["extender.precheck"],
            "extender.precheck_s": total["extender.precheck"],
            "extender.direct_s": total["extender.direct"],
            "extender.reduction_s": total["extender.reduction"],
            "extender.matching_s": total["extender.matching"],
            "extender.adjacent_s": total["extender.adjacent"],
            "coloring.calls": calls["coloring.color"],
            "coloring_s": total["coloring.color"],
            "second_cycle.calls": calls["second_cycle.certificate"],
            "second_cycle_s": total["second_cycle.certificate"],
            "trace.spans": len(self.spans),
        }


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]
