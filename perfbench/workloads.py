"""The benchmark's workloads: inputs built from the seed, and one timed pass.

Each workload has a `build(seed)` that makes its inputs without timing
anything, and a `run(ctx, inputs, jobs)` that drives chordlab through
its public entry points, times every call as a named operation and
checks every output.  Calls go through module attributes (`cli.main`,
`extender.precheck`, ...) so the tracer's wrappers see them.  The same
seed gives the same inputs and the same operation names, so run.py can
match each operation across passes.

Why these workloads:

* corpus-n10: `generate --n 10` then `verify` in all three modes with
  `--jobs 1`: ROADMAP's end-to-end pipeline over all 19 connected cubic
  graphs of order 10.  Many small graphs, so per-graph and per-pair
  fixed costs weigh, and enumeration is in the timed path (about a tenth
  of the pass, as at n=12).  Order 10 rather than 12 keeps a pass near
  two seconds, so each command is timed a dozen times or more per run.
  The seed only shuffles the corpus order, which leaves the work
  unchanged.
* random-n16: `verify` in all three modes with `--jobs 2` over a fixed
  pool of two random 3-connected cubic graphs of order 16, in an order
  drawn from the seed.  Few larger graphs with deeper searches: kernel
  pruning dominates, the process pool runs, and no enumeration happens.
  The graphs and their labels are fixed because the verify time of one
  random graph varies by about a quarter from graph to graph, and by up
  to a fifth between relabelings of one graph (labels set the search
  order), which would swamp run-to-run comparisons.
* extend-mixed: fixpoint runs of precheck + `extend_path` from random
  simple paths on random 2-connected hosts of order 24-28, on
  constructed hosts that reach the certificate / coloring / reduction
  branches, and `extend_path_adjacent` on constructed one-chord cycles.
  Kernels do almost no work here.  The hosts and start paths are fixed
  and the seed relabels them: with hosts drawn from the seed, the sum
  over 300 fixpoint runs still varied by about a tenth between seeds,
  while a relabeling keeps every run's step count.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter

import checks
import tracing
from chordlab import cli, extender
from chordlab.generate import random_cubic, random_simple_path
from chordlab.graphs import Graph
from chordlab.search import Path

MODES = ("zhan2", "zhan3adj", "chords")



class PassContext:
    """What one pass measured and found.

    With a `calibrate` function (seconds for a fixed reference
    computation), `calibrate` is called, outside any timing, before every
    `every`-th timed call and by close() after the last one.  The calls
    between two calibrations are also recorded in `scaled`: wall time
    divided by the mean of the two, i.e. in units of the reference
    computation's time around the call."""

    def __init__(self, workdir, calibrate=None, every=1):
        self.workdir = workdir
        self.calibrate = calibrate
        self.every = every
        self.calls = 0
        self.calibration = []
        self.pending = []  # (key, wall time) since the last calibration
        self.ops = {}
        self.scaled = {}
        self.steps = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.input_sha256 = ""
        self.report_bytes = 0
        self.graph_ops = 0
        self.branches = Counter()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def timed(self, key, fn, *args):
        """Call fn and add its wall time to operation `key`; an exception
        is returned rather than raised so it counts as a failed operation."""
        if self.calibrate and self.calls % self.every == 0:
            self._calibrate()
        self.calls += 1
        start = time.perf_counter()
        try:
            out, exc = fn(*args), None
        except Exception as caught:  # the operation failed; the pass goes on
            out, exc = None, caught
        elapsed = time.perf_counter() - start
        self.ops[key] = self.ops.get(key, 0.0) + elapsed
        if self.calibrate:
            self.pending.append((key, elapsed))
        return out, exc

    def close(self):
        """Calibrate after the last timed call, so that it is scaled too."""
        if self.calibrate and self.pending:
            self._calibrate()

    def _calibrate(self):
        self.calibration.append(self.calibrate())
        if self.pending:
            around = (self.calibration[-2] + self.calibration[-1]) / 2
            for key, elapsed in self.pending:
                self.scaled[key] = self.scaled.get(key, 0.0) + elapsed / around
            self.pending = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cli(ctx, key, argv):
    """Run one CLI command in-process as operation `key`; return its errors."""
    code, exc = ctx.timed(key, cli.main, argv)
    if exc is not None:
        return [f"{' '.join(argv[:3])}: raised {type(exc).__name__}: {exc}"]
    if code != 0:
        return [f"{' '.join(argv[:3])}: exit code {code}"]
    return []


def _verify(ctx, mode, infile, jobs, lines, check):
    out = ctx.path(f"report-{mode}.json")
    errors = _cli(ctx, f"verify_{mode}_s", ["verify", "--mode", mode, "--in", infile, "--jobs", str(jobs), "--out", out])
    text = _read(out)
    ctx.report_bytes += len(text.encode())
    ctx.graph_ops += len(lines)
    errors = errors or check(text, mode, lines)
    ctx.record(errors)
    return text


# ---------------------------------------------------------------------------
# corpus-n10


class CorpusWorkload:
    calibrate_every = 1  # before every command

    def __init__(self, n):
        self.n = n

    def build(self, seed):
        return f"corpus:{seed}"

    def run(self, ctx, shuffle_seed, jobs):
        gen = ctx.path("corpus.g6")
        errors = _cli(ctx, "generate_s", ["generate", "--n", str(self.n), "--out", gen])
        text = _read(gen)
        lines = [ln for ln in text.splitlines() if ln]
        ctx.input_sha256 = checks.sha256_text(text)
        ctx.record(errors or checks.check_corpus(lines, self.n))
        random.Random(shuffle_seed).shuffle(lines)
        infile = ctx.path("corpus-shuffled.g6")
        with open(infile, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        def check(report, mode, lines):
            return checks.check_corpus_report(report, mode, lines, self.n)

        for mode in MODES:
            report = _verify(ctx, mode, infile, jobs, lines, check)
            ctx.digests[f"report-{mode}"] = checks.sha256_text(report)
            if report:
                rows = json.loads(report).get("rows", [])
                ctx.digests[f"invariant-{mode}"] = checks.sha256_text(json.dumps(checks.invariant_rows(rows)))


# ---------------------------------------------------------------------------
# random-n16


def three_connected_seeds(n, count, start=0):
    """The first `count` seeds from `start` whose random_cubic graph is 3-connected."""
    seeds = []
    s = start
    while len(seeds) < count:
        if checks.connectivity_class(checks.adjacency(n, random_cubic(n, s).edges)) == 3:
            seeds.append(s)
        s += 1
    return tuple(seeds)


class PoolWorkload:
    calibrate_every = 1

    def __init__(self, n, graph_seeds):
        self.n = n
        self.graph_seeds = graph_seeds

    def build(self, seed):
        """(graph6 line, random_cubic seed) per pool graph, in an order
        drawn from the seed."""
        pool = [(checks.write_g6(checks.adjacency(self.n, random_cubic(self.n, s).edges)), s) for s in self.graph_seeds]
        random.Random(f"pool:{seed}").shuffle(pool)
        return pool

    def run(self, ctx, pool, jobs):
        lines = [line for line, _ in pool]
        infile = ctx.path("pool.g6")
        text = "\n".join(lines) + "\n"
        with open(infile, "w") as fh:
            fh.write(text)
        ctx.input_sha256 = checks.sha256_text(text)
        expected = [checks.POOL_EXPECTED.get((self.n, s)) for _, s in pool]

        def check(report, mode, lines):
            want = None if None in expected else [e[mode] for e in expected]
            return checks.check_report(report, mode, lines, want)

        for mode in MODES:
            report = _verify(ctx, mode, infile, jobs, lines, check)
            ctx.digests[f"report-{mode}"] = checks.sha256_text(report)


# ---------------------------------------------------------------------------
# extend-mixed


def extendable_host(rng):
    """A 2-connected cubic host and a path 0..m-1 with no internal bound
    vertex: every free degree slot on the path gets a gadget (a pendant
    K4-minus-an-edge for two slots, a claw centre or a triangle for
    three, a 4-cycle for four), so extension has to go through the
    certificate, coloring and reduction branches."""
    while True:
        m = rng.choice((8, 9, 10, 11, 12))
        closed = rng.random() < 0.5
        slots = list(range(1, m - 1)) + [0, m - 1] * (1 if closed else 2)
        rng.shuffle(slots)
        edges = [(i, i + 1) for i in range(m - 1)] + ([(0, m - 1)] if closed else [])
        nxt = m
        while slots:
            sizes = [k for k in (2, 3, 4) if k <= len(slots) and len(slots) - k != 1]
            if not sizes:
                break
            k = rng.choice(sizes)
            group, slots = slots[:k], slots[k:]
            if k == 2:
                a, b, c, d = range(nxt, nxt + 4)
                edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (a, group[0]), (b, group[1])]
                nxt += 4
            elif k == 3 and rng.random() < 0.5:
                edges += [(nxt, z) for z in group]
                nxt += 1
            elif k == 3:
                t = (nxt, nxt + 1, nxt + 2)
                edges += [(t[0], t[1]), (t[1], t[2]), (t[0], t[2])] + list(zip(t, group))
                nxt += 3
            else:
                q = tuple(range(nxt, nxt + 4))
                edges += [(q[i], q[(i + 1) % 4]) for i in range(4)] + list(zip(q, group))
                nxt += 4
        if slots:
            continue
        adj = checks.adjacency(nxt, edges)
        if len({tuple(sorted(e)) for e in edges}) != len(edges) or any(u == v for u, v in edges):
            continue
        if not checks.is_cubic(adj) or checks.connectivity_class(adj) < 2:
            continue
        path = tuple(range(m))
        if checks.has_bound_vertex(adj, path):
            continue
        return Graph(nxt, edges), Path(path)


def adjacent_host(rng):
    """A 3-connected cubic host whose cycle 0..s-1 has exactly one chord,
    (0, j): the path 0..s-1 has adjacent endpoints and the chord at x.
    The other cycle vertices are joined in threes to claw centres."""
    while True:
        s = rng.choice((8, 11, 14))
        j = rng.choice((2, s - 2, rng.randrange(3, s - 2)))
        rest = [i for i in range(s) if i not in (0, j)]
        rng.shuffle(rest)
        groups = [sorted(rest[k:k + 3]) for k in range(0, len(rest), 3)]
        if any(
            (b - a) % s in (1, s - 1)
            for grp in groups for a in grp for b in grp if a < b
        ):
            continue
        edges = [(i, (i + 1) % s) for i in range(s)] + [(0, j)]
        for k, grp in enumerate(groups):
            edges += [(s + k, z) for z in grp]
        adj = checks.adjacency(s + len(groups), edges)
        if checks.is_cubic(adj) and checks.connectivity_class(adj) == 3:
            return Graph(len(adj), edges), Path(tuple(range(s)))


def random_host(rng, n):
    while True:
        g = random_cubic(n, rng.randrange(2**31))
        adj = checks.adjacency(n, g.edges)
        if checks.is_connected(adj) and all(checks.is_connected(adj, (v,)) for v in range(n)):
            return g


def relabeled(g, p, rng):
    """Host g and path p under a random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), Path(tuple(perm[v] for v in p.vertices))


class ExtendWorkload:
    calibrate_every = 32  # calls of one to a few milliseconds each

    def __init__(self, random_hosts, starts, constructed, adjacent, orders=(24, 26, 28)):
        self.random_hosts = random_hosts
        self.starts = starts
        self.constructed = constructed
        self.adjacent = adjacent
        self.orders = orders

    def build(self, seed):
        """The fixed hosts and start paths, relabeled from the seed."""
        rng = random.Random("extend")
        fixpoint = []
        for i in range(self.random_hosts):
            g = random_host(rng, self.orders[i % len(self.orders)])
            fixpoint += [(g, random_simple_path(g, rng.randrange(2**31))) for _ in range(self.starts)]
        fixpoint += [extendable_host(rng) for _ in range(self.constructed)]
        adjacent = [adjacent_host(rng) for _ in range(self.adjacent)]
        rng = random.Random(f"extend:{seed}")
        return [relabeled(g, p, rng) for g, p in fixpoint], [relabeled(g, p, rng) for g, p in adjacent]

    def run(self, ctx, inputs, jobs):
        fixpoint, adjacent = inputs
        ident = hashlib.sha256()
        digest = hashlib.sha256()
        for g, p in fixpoint + adjacent:
            ident.update(f"{sorted(g.edges)}|{p.vertices}\n".encode())
        ctx.input_sha256 = ident.hexdigest()
        for run, (g, p) in enumerate(fixpoint):
            adj = checks.adjacency(g.n, g.edges)
            ctx.graph_ops += 1
            p = self._fixpoint(ctx, f"f{run}", g, adj, p, digest)
            if p is not None:
                ctx.record(checks.check_fixpoint(adj, p.vertices))
                digest.update(f"{p.vertices}\n".encode())
        for run, (g, p) in enumerate(adjacent):
            adj = checks.adjacency(g.n, g.edges)
            ctx.graph_ops += 1
            out, exc = ctx.timed(f"a{run}", extender.extend_path_adjacent, g, p)
            self._step(ctx, f"a{run}", adj, p, out, exc, digest)
        ctx.digests["extend"] = digest.hexdigest()

    def _fixpoint(self, ctx, run, g, adj, p, digest):
        """Extend until precheck stops; the final path, or None on failure.
        Step i (precheck + extend_path) is operation `run.i`; the final
        precheck alone is the operation of the step it turns down."""
        for i in range(g.n + 1):
            key = f"{run}.{i}"
            cls, exc = ctx.timed(key, extender.precheck, g, p)
            if exc is not None:
                ctx.record([f"precheck {p.vertices}: raised {type(exc).__name__}: {exc}"])
                return None
            if cls.kind != extender.EXTENDABLE:
                return p
            out, exc = ctx.timed(key, extender.extend_path, g, p)
            p = self._step(ctx, key, adj, p, out, exc, digest)
            if p is None:
                return None
        ctx.record([f"no fixpoint within {g.n + 1} steps on n={g.n}"])
        return None

    def _step(self, ctx, key, adj, p, out, exc, digest):
        """Check one extension call; the longer path, or None on failure."""
        ctx.steps.append(key)
        if exc is not None:
            ctx.record([f"extension of {p.vertices}: raised {type(exc).__name__}: {exc}"])
            return None
        longer, trace = out
        errors = checks.check_longer(adj, p.vertices, longer.vertices)
        ctx.record(errors)
        digest.update(trace.to_json().encode())
        labels = {step["name"] for step in trace.steps} | {step.get("branch") for step in trace.steps}
        for label in labels - {None, "precheck", "component-claim", "stats"}:
            ctx.branches[label if label in tracing.BRANCHES else "other"] += 1
        return None if errors else longer


def workload(name, tiny):
    """The workload object and its warm-up twin (same code, other inputs)."""
    if name == "corpus-n10":
        return (CorpusWorkload(8), CorpusWorkload(6)) if tiny else (CorpusWorkload(10), CorpusWorkload(8))
    if name == "random-n16":
        if tiny:
            return PoolWorkload(12, three_connected_seeds(12, 1)), PoolWorkload(8, three_connected_seeds(8, 1))
        return PoolWorkload(16, three_connected_seeds(16, 2)), PoolWorkload(12, three_connected_seeds(12, 1, 1000))
    if name == "extend-mixed":
        if tiny:
            return ExtendWorkload(1, 2, 2, 2, orders=(12,)), ExtendWorkload(1, 1, 1, 1, orders=(10,))
        return ExtendWorkload(150, 2, 50, 30), ExtendWorkload(2, 2, 5, 5, orders=(12, 14))
    raise ValueError(f"unknown workload {name!r}")
