"""The measuring process of one run: run.py starts it once per run.

    python3 perfbench/passrun.py --workload NAME --seed N --jobs J --workdir DIR
                                 --passes P --budget S [--probes] [--trace] [--tiny]

Order inside the process: import chordlab and run kernels.warmup(), run
the workload once untimed on other inputs of the same shape (the warm-up
pass), build the timed inputs, then make up to P timed passes over those
same inputs (one pass under the tracer with --trace), checking every
output of every pass.  No pass starts that is expected to end more than
S seconds after this process started.  With --probes, a set-up probe (a
fresh interpreter doing `import chordlab` + `kernels.warmup()`) runs
before each pass and twice after the last, one at a time, so the probes
sample the whole run without competing with a pass for the processors.

Untraced passes are calibrated: before every few timed calls (before
every command, or every 32 extension calls) and after the last one, the
process times calibration_time(), the fastest of three calls of a fixed
piece of pure-Python graph code that is not chordlab's, and divides the
wall times of the calls between two calibrations by their mean
(PassContext.scaled).  Each set-up probe is paired with the start of a
fresh interpreter that does nothing, timed just before it.

The last line of stdout is one JSON object: each operation's fastest
wall time and its median scaled time over the passes, the checks'
counts, the first pass's output digests and how many later passes
disagreed with them, the set-up probe, bare-start and calibration
times, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

SETUP_CODE = "import chordlab\nfrom chordlab import kernels\nkernels.warmup()\n"
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2  # the budget never cuts a run below this many passes


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest child (the
    verify process pool), in MiB; ru_maxrss is KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _interpreter_s(code):
    """Seconds for a fresh interpreter to run `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def setup_probe():
    """(seconds for a fresh interpreter to import chordlab and warm up,
    seconds for one that does nothing, timed just before it)."""
    bare = _interpreter_s("pass")
    return _interpreter_s(SETUP_CODE), bare


def _reference_graph(n=96):
    """A fixed random cubic graph on n vertices, as adjacency lists."""
    rng = random.Random("reference")
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            adj = [[] for _ in range(n)]
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            return adj


REFERENCE_GRAPH = _reference_graph()
REFERENCE_SUM = 44248  # sum of all BFS distances in REFERENCE_GRAPH


def reference_time():
    """Seconds for a fixed piece of pure-Python graph code that is not
    chordlab's: breadth-first search from every vertex of REFERENCE_GRAPH
    (about 2 ms).  Its dict and list traffic slows down with chordlab's
    when the shared host does, which a pure arithmetic loop does not."""
    start = time.perf_counter()
    total = 0
    for s in range(len(REFERENCE_GRAPH)):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in REFERENCE_GRAPH[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist.values())
    elapsed = time.perf_counter() - start
    if total != REFERENCE_SUM:
        raise RuntimeError(f"reference computation gave {total}, expected {REFERENCE_SUM}")
    return elapsed


def calibration_time():
    """The fastest of three reference_time() calls: how long the reference
    computation takes on the host at this moment, free of one-off blips."""
    return min(reference_time() for _ in range(3))


def pass_disagreements(digests):
    """One error per pass whose output digests differ from the first pass's."""
    return [
        f"pass {i} outputs differ from pass 1 on the same inputs: {d} vs {digests[0]}"
        for i, d in enumerate(digests[1:], start=2)
        if d != digests[0]
    ]


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--probes", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    from chordlab import kernels

    kernels.warmup()
    timed, warm = workloads.workload(args.workload, args.tiny)
    scratch = tempfile.mkdtemp(prefix="pass-", dir=args.workdir)
    passes, setup, durations = [], [], []
    tracer = None
    calibrate = None if args.trace else calibration_time
    try:
        warm.run(workloads.PassContext(scratch, calibrate, timed.calibrate_every), warm.build(args.seed), args.jobs)
        inputs = timed.build(args.seed)
        while len(passes) < args.passes:
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > args.budget:
                break
            if args.probes:
                setup.append(setup_probe())
            ctx = workloads.PassContext(scratch, calibrate, timed.calibrate_every)
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
            start = time.perf_counter()
            try:
                timed.run(ctx, inputs, args.jobs)
            finally:
                if tracer:
                    tracer.uninstall()
            durations.append(time.perf_counter() - start)
            ctx.close()
            passes.append(ctx)
        if args.probes:
            setup.extend(setup_probe() for _ in range(2))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = passes[0]
    fastest = {}
    for ctx in passes:
        for key, seconds in ctx.ops.items():
            fastest[key] = min(seconds, fastest.get(key, seconds))
    scaled = {key: statistics.median(ctx.scaled.get(key, 0.0) for ctx in passes) for key in first.scaled}
    disagreements = pass_disagreements([ctx.digests for ctx in passes])
    result = {
        "ops": fastest,
        "steps": first.steps,
        "passes": len(passes),
        "pass_s": durations,
        "setup_s": [probe for probe, _ in setup],
        "setup_bare_s": [bare for _, bare in setup],
        "scaled": scaled,
        "calibration_s": [c for ctx in passes for c in ctx.calibration],
        # every pass's operations, plus one check per later pass that its
        # output digests equal the first pass's
        "attempted": sum(ctx.attempted for ctx in passes) + len(passes) - 1,
        "failed": sum(ctx.failed for ctx in passes) + len(disagreements),
        "errors": ([e for ctx in passes for e in ctx.errors] + disagreements)[:20],
        "digests": first.digests,
        "input_sha256": first.input_sha256,
        "report_bytes": first.report_bytes,
        "branches": dict(first.branches),
        "peak_rss_mb": _peak_rss_mb(),
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": kernels.BACKEND,
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(first.graph_ops)
        tracer.write(os.path.join(args.workdir, f"spans-{args.workload}.jsonl.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
