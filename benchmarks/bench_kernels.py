#!/usr/bin/env python3
"""Benchmark the search kernels over the full corpus of connected cubic
graphs on a given order: all-pairs longest paths (one pruned search per
pair, and the one-DFS-per-source sweep that verify_zhan uses), longest-cycle
enumeration, and Hamilton-cycle enumeration.  Prints one timing table and
exits 1 if the per-pair search and the sweep disagree.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --n 10
"""

import argparse
import sys
import time

from chordlab import kernels
from chordlab.generate import enumerate_cubic
from chordlab.search import hamilton_cycles, longest_cycles, longest_xy_paths


def _timed(fn, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        result = fn()
    return result, (time.perf_counter() - t0) / repeat


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10, help="corpus order (even, 4..12)")
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    graphs = enumerate_cubic(args.n)

    def per_pair():
        witnesses, length, bound = 0, 0, 0
        for g in graphs:
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    rep = longest_xy_paths(g, x, y)
                    witnesses += len(rep.witnesses)
                    length += rep.max_length
                    bound += rep.min_bound_count()
        return witnesses, [length, bound]

    def sweep():
        length, bound = 0, 0
        for g in graphs:
            for x in range(g.n):
                for best, min_bound, _ in kernels.xy_sweep(g.masks, g.n, x)[x + 1:]:
                    length += best
                    bound += min_bound
        return [length, bound]

    (witnesses, pair_totals), paths_s = _timed(per_pair, args.repeat)
    sweep_totals, sweep_s = _timed(sweep, args.repeat)
    cycles, cycles_s = _timed(
        lambda: sum(len(longest_cycles(g)) for g in graphs), args.repeat
    )
    hams, ham_s = _timed(
        lambda: sum(len(hamilton_cycles(g)) for g in graphs), args.repeat
    )

    if pair_totals != sweep_totals:
        print(f"MISMATCH: per-pair (length, bound) totals {pair_totals}, "
              f"sweep totals {sweep_totals}")
        return 1

    print(f"corpus: all {len(graphs)} connected cubic graphs on {args.n} vertices")
    print(f"checks agree: {witnesses} longest-path witnesses, "
          f"{cycles} longest cycles, {hams} Hamilton cycles; "
          f"per-pair search and sweep both total length {pair_totals[0]}, "
          f"min bound {pair_totals[1]}\n")
    header = f"{'workload':<34}{'seconds':>12}"
    print(header)
    print("-" * len(header))
    for label, secs in (
        ("all-pairs longest paths, per pair", paths_s),
        ("all-pairs sweep, one DFS/source", sweep_s),
        ("longest-cycle enumeration", cycles_s),
        ("Hamilton-cycle enumeration", ham_s),
    ):
        print(f"{label:<34}{secs:>11.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
