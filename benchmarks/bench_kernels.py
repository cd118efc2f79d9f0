#!/usr/bin/env python3
"""Benchmark the search kernels over the full corpus of connected cubic
graphs on a given order: all-pairs longest paths (one pruned search per
pair, and the one-DFS-per-source sweep that verify_zhan uses), longest-cycle
enumeration, and Hamilton-cycle enumeration.

The kernel backend is fixed per process by CHORDLAB_KERNEL, so the parent
re-runs itself as a worker subprocess for each backend and prints a
comparison table.  Without numba it prints the plain-Python column alone.

    python3 benchmarks/bench_kernels.py --n 10
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time


def worker(n: int, repeat: int) -> dict:
    from chordlab import kernels
    from chordlab.generate import enumerate_cubic
    from chordlab.search import hamilton_cycles, longest_cycles, longest_xy_paths

    graphs = enumerate_cubic(n)
    t0 = time.perf_counter()
    kernels.warmup()
    warmup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(repeat):
        witnesses = 0
        pair_totals = [0, 0]
        for g in graphs:
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    rep = longest_xy_paths(g, x, y, mode="all")
                    witnesses += len(rep.witnesses)
                    pair_totals[0] += rep.max_length
                    pair_totals[1] += rep.min_bound_count()
    paths_s = (time.perf_counter() - t0) / repeat

    t0 = time.perf_counter()
    for _ in range(repeat):
        sweep_totals = [0, 0]
        for g in graphs:
            for x in range(g.n):
                table = kernels.xy_sweep(g.masks, g.n, x)
                for best, min_bound, _ in table[x + 1:]:
                    sweep_totals[0] += best
                    sweep_totals[1] += min_bound
    sweep_s = (time.perf_counter() - t0) / repeat

    cycles = 0
    t0 = time.perf_counter()
    for _ in range(repeat):
        cycles = sum(len(longest_cycles(g)) for g in graphs)
    cycles_s = (time.perf_counter() - t0) / repeat

    hams = 0
    t0 = time.perf_counter()
    for _ in range(repeat):
        hams = sum(len(hamilton_cycles(g)) for g in graphs)
    ham_s = (time.perf_counter() - t0) / repeat

    return {
        "backend": kernels.BACKEND,
        "graphs": len(graphs),
        "warmup_s": warmup_s,
        "longest_paths_s": paths_s,
        "sweep_s": sweep_s,
        "pair_totals": pair_totals,
        "sweep_totals": sweep_totals,
        "longest_cycles_s": cycles_s,
        "hamilton_s": ham_s,
        "witnesses": witnesses,
        "cycles": cycles,
        "hamilton": hams,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10, help="corpus order (even, 4..12)")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        print(json.dumps(worker(args.n, args.repeat)))
        return 0

    backends = ["python"]
    if importlib.util.find_spec("numba") is not None:
        backends.append("numba")
    results = {}
    for backend in backends:
        env = dict(os.environ, CHORDLAB_KERNEL=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--worker", "--n", str(args.n), "--repeat", str(args.repeat)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[backend] = json.loads(proc.stdout)

    py = results["python"]
    if py["pair_totals"] != py["sweep_totals"]:
        print(f"MISMATCH: per-pair (length, bound) totals {py['pair_totals']}, "
              f"sweep totals {py['sweep_totals']}")
        return 1
    nb = results.get("numba")
    if nb is not None:
        for key in ("witnesses", "cycles", "hamilton", "pair_totals"):
            if py[key] != nb[key]:
                print(f"MISMATCH on {key}: python={py[key]} numba={nb[key]}")
                return 1

    print(f"corpus: all {py['graphs']} connected cubic graphs on {args.n} vertices")
    print(f"checks agree: {py['witnesses']} longest-path witnesses, "
          f"{py['cycles']} longest cycles, {py['hamilton']} Hamilton cycles; "
          f"per-pair search and sweep both total length {py['pair_totals'][0]}, "
          f"min bound {py['pair_totals'][1]}")
    if nb is None:
        print("numba not importable: plain-Python backend only\n")
        header = f"{'workload':<34}{'python':>12}"
    else:
        print(f"numba JIT warmup: {nb['warmup_s']:.2f}s (cached after first run)\n")
        header = f"{'workload':<34}{'python':>12}{'numba':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, key in (
        ("all-pairs longest paths, per pair", "longest_paths_s"),
        ("all-pairs sweep, one DFS/source", "sweep_s"),
        ("longest-cycle enumeration", "longest_cycles_s"),
        ("Hamilton-cycle enumeration", "hamilton_s"),
    ):
        line = f"{label:<34}{py[key]:>11.3f}s"
        if nb is not None:
            ratio = py[key] / nb[key] if nb[key] else float("inf")
            line += f"{nb[key]:>11.3f}s{ratio:>9.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
