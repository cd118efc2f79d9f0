"""Command-line surface: corpus generation, exhaustive verification,
single-graph extension runs, and the lemma property suites.

Exit codes: 0 success, 1 a verified statement fell below its threshold
(which would mean a bug, not a counterexample), 2 usage, 3 I/O or parse
failure, 4 internal error (a checked invariant failed; the message names
the step).  Reports are deterministic for identical inputs and seeds; wall
times are only attached under --timings since they would break that.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .coloring import three_color_cycle_plus
from .errors import InvariantViolation
from .extender import EXTENDABLE, extend_path, precheck, verify_chords, verify_zhan
from .generate import gen_cycle_plus_instance, gen_lemma_instance, enumerate_cubic
from .graph6 import Graph6Error, load_graph_text, stream_corpus, write_graph6
from .graphs import connectivity_at_least, is_cubic
from .search import Path
from .second_cycle import build_support_graph, second_hamilton_cycle, verify_parity_lemma

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _default_seed() -> int:
    return int(os.environ.get("CHORDLAB_SEED", "0"))


def _connectivity_class(g) -> int:
    # the gate is monotone in k, so the first level that passes is the class
    return next((k for k in (3, 2, 1) if connectivity_at_least(g, k)), 0)


# mode -> (connectivity needed, threshold, verify_zhan mode or None for chords)
_MODES = {
    "zhan2": (2, 1, "all-pairs"),
    "zhan3adj": (3, 2, "adjacent-pairs"),
    "chords": (3, 2, None),
}


def _verify_one(args):
    line, g, mode, timings = args
    started = time.perf_counter()
    kappa = _connectivity_class(g)
    need, threshold, zhan_mode = _MODES[mode]
    row = {
        "graph6": line,
        "n": g.n,
        "connectivity": kappa,
        "mode": mode,
        "value": None,
        "witness": None,
    }
    if is_cubic(g) and kappa >= need:
        if zhan_mode:
            rep = verify_zhan(g, zhan_mode)
            row["value"] = rep.minimum
            # the first pair below this mode's threshold, in pairs order
            xy = next((xy for xy, r in rep.pairs.items() if r.min_bound < threshold), None)
            if xy:
                row["witness"] = {"pair": list(xy), "path": list(rep.pairs[xy].witness)}
        else:
            rep = verify_chords(g)
            row["value"] = rep.min_chords
            if rep.min_chords < threshold:
                row["witness"] = {"cycle": list(rep.witness)}
    if timings:
        row["wall_ms"] = round(1000 * (time.perf_counter() - started), 3)
    return row


def cmd_generate(args) -> int:
    lines = [write_graph6(g) for g in enumerate_cubic(args.n)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        # latin-1 keeps every byte, so the parser names a non-ASCII one
        # and its line; line numbers count blank lines
        with open(args.infile, encoding="latin-1") as fh:
            lines = list(fh)
        corpus = list(stream_corpus(lines))
    except (OSError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    tasks = [(lines[lineno - 1].strip(), g, args.mode, args.timings) for lineno, g in corpus]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_verify_one, tasks))  # map keeps input order
    else:
        rows = [_verify_one(t) for t in tasks]
    threshold = _MODES[args.mode][1]
    checked = [r["value"] for r in rows if r["value"] is not None]
    violations = sum(1 for v in checked if v < threshold)
    report = {
        "mode": args.mode,
        "threshold": threshold,
        "graphs": len(rows),
        "checked": len(checked),
        "minimum": min(checked) if checked else None,
        "violations": violations,
        "rows": rows,
    }
    if args.format == "json":
        out = json.dumps(report, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fields = ["graph6", "n", "connectivity", "mode", "value", "witness"]
        if args.timings:
            fields.append("wall_ms")
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            row = dict(row)
            row["witness"] = json.dumps(row["witness"]) if row["witness"] else ""
            writer.writerow(row)
        out = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_extend(args) -> int:
    try:
        with open(args.graph) as fh:
            g = load_graph_text(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        vertices = tuple(int(tok) for tok in args.path.split(",") if tok.strip())
        if len(vertices) < 2:
            raise ValueError("path needs at least two vertices")
        p = Path(vertices).validate(g)
    except ValueError as exc:
        print(f"error: bad path spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cls = precheck(g, p)
    if cls.kind != EXTENDABLE:
        if cls.bound:
            where = ", ".join(f"v={v}" for v in sorted(cls.bound))
            print(f"not extendable: internal P-bound vertex present at {where}", file=sys.stderr)
        else:
            print(f"not extendable: {cls.kind}", file=sys.stderr)
        return EXIT_USAGE
    longer, trace = extend_path(g, p)
    print(",".join(str(v) for v in longer.vertices))
    print(f"length {p.length} -> {longer.length}", file=sys.stderr)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_json() + "\n")
    return EXIT_OK


def _parse_krange(spec: str):
    lo, _, hi = spec.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if lo < 2 or hi < lo:
        raise ValueError(f"bad k range {spec!r}")
    return range(lo, hi + 1)


def cmd_lemmas(args) -> int:
    base = _default_seed()
    krange = list(_parse_krange(args.krange))
    failures = 0
    if args.which == "coloring":
        sizes = list(range(6, 25))
        for i in range(args.seeds):
            seed = base + i
            n = sizes[i % len(sizes)]
            g, cyc = gen_cycle_plus_instance(n, seed)
            try:
                coloring = three_color_cycle_plus(g, cyc)
                assert all(coloring[u] != coloring[v] for u, v in g.edges)
            except Exception as exc:
                failures += 1
                print(f"seed {seed} n={n}: FAIL ({exc})", file=sys.stderr)
        print(f"coloring: {args.seeds - failures}/{args.seeds} pass")
    elif args.which == "parity":
        for i in range(args.seeds):
            seed = base + i
            k = krange[i % len(krange)]
            inst = gen_lemma_instance(k, seed)
            g1, _ = build_support_graph(inst)
            rep = verify_parity_lemma(g1, inst.a_set)
            if not (rep.all_even and rep.preserved):
                failures += 1
                print(f"seed {seed} k={k}: FAIL {rep.checked_edges}", file=sys.stderr)
        print(f"parity: {args.seeds - failures}/{args.seeds} pass")
    else:
        for i in range(args.seeds):
            seed = base + i
            k = krange[i % len(krange)]
            inst = gen_lemma_instance(k, seed)
            x, xy = _pick_lemma_edge(inst)
            try:
                cert = second_hamilton_cycle(inst, x, xy)
                _recheck_certificate(inst, x, xy, cert)
            except Exception as exc:
                failures += 1
                print(f"seed {seed} k={k}: FAIL ({exc})", file=sys.stderr)
        print(f"second-cycle: {args.seeds - failures}/{args.seeds} pass")
    return EXIT_VIOLATION if failures else EXIT_OK


def _pick_lemma_edge(inst):
    last = inst.components[-1]
    x = last[0]
    vs = inst.cycle.vertices
    i = vs.index(x)
    inside = set(zip(last, last[1:])) | set(zip(last[1:], last))
    for cand in (vs[i - 1], vs[(i + 1) % len(vs)]):
        if (x, cand) not in inside and (cand, x) not in inside:
            return x, cand
    raise ValueError("no cycle edge at the arc endpoint outside the arc")


def _recheck_certificate(inst, x, y, cert):
    c1 = cert.c_prime
    c1.validate(inst.g)
    if c1.length != inst.g.n:
        raise AssertionError("certificate cycle is not Hamilton")
    if c1 == inst.cycle:
        raise AssertionError("certificate cycle equals the base cycle")
    key = (min(x, y), max(x, y))
    if key not in c1.edge_set():
        raise AssertionError("certificate cycle misses the designated edge")
    drop = inst.a_set
    off1 = {e for e in c1.edge_pairs() if e[0] not in drop and e[1] not in drop}
    off0 = {e for e in inst.cycle.edge_pairs() if e[0] not in drop and e[1] not in drop}
    if off1 != off0:
        raise AssertionError("certificate cycle moved off A")
    v = cert.exchange_vertex
    base = inst.cycle.edge_set()
    incident = [e for e in c1.edge_pairs() if v in e]
    if sum(1 for e in incident if e in base) != 1:
        raise AssertionError("exchange vertex does not have the one-in-one-out shape")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="exact longest-path/cycle verification on small cubic graphs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit all connected cubic graphs for an order")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="run a verifier over a graph6 corpus")
    v.add_argument("--mode", choices=sorted(_MODES), required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--timings", action="store_true")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("extend", help="extend an (x,y)-path without bound vertices")
    e.add_argument("--graph", required=True)
    e.add_argument("--path", required=True, help='comma-separated ids, e.g. "0,4,1,3"')
    e.add_argument("--trace")
    e.set_defaults(fn=cmd_extend)

    l = sub.add_parser("lemmas", help="run the seeded lemma property suites")
    l.add_argument("--which", choices=("coloring", "parity", "second-cycle"), required=True)
    l.add_argument("--seeds", type=int, default=100)
    l.add_argument("--k", dest="krange", default="2..4")
    l.set_defaults(fn=cmd_lemmas)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)  # "<step>: <detail>"
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
