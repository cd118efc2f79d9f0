"""Seeded instance builders shared by the extender tests, the lemma
tests and acceptance."""

from __future__ import annotations

import itertools
import random

from chordlab.extender import EXTENDABLE, precheck
from chordlab.graphs import Graph, connectivity_at_least, is_cubic
from chordlab.search import Cycle, Path
from chordlab.second_cycle import LemmaInstance


def gen_extendable_host(seed: int):
    """Cubic 2-connected host plus an extendable path along vertices
    0..m-1: interior slots (and the endpoint slots when xy is absent) are
    filled by attached components so no internal vertex is bound.
    Returns (graph, path) or None when the seed never stabilizes."""
    rng = random.Random(seed)
    for _ in range(300):
        m = rng.choice([8, 9, 10, 11, 12])
        xy_edge = rng.random() < 0.5
        slots = list(range(1, m - 1))
        for e in (0, m - 1):
            slots.extend([e] * (1 if xy_edge else 2))
        rng.shuffle(slots)
        edges = [(i, i + 1) for i in range(m - 1)]
        if xy_edge:
            edges.append((0, m - 1))
        nxt = m
        ok = True
        while slots and ok:
            take = None
            for size in rng.sample([2, 3, 4], 3):
                if size <= len(slots) and len(slots) - size != 1:
                    take = size
                    break
            if take is None:
                ok = False
                break
            group, slots = slots[:take], slots[take:]
            if take == 2:
                if group[0] == group[1]:
                    ok = False
                    break
                a, b, c, d = nxt, nxt + 1, nxt + 2, nxt + 3
                nxt += 4
                edges += [(a, c), (a, d), (b, c), (b, d), (c, d),
                          (a, group[0]), (b, group[1])]
            elif take == 3:
                if rng.random() < 0.5 and len(set(group)) == 3:
                    h = nxt
                    nxt += 1
                    edges += [(h, group[0]), (h, group[1]), (h, group[2])]
                else:
                    t1, t2, t3 = nxt, nxt + 1, nxt + 2
                    nxt += 3
                    edges += [(t1, t2), (t2, t3), (t1, t3),
                              (t1, group[0]), (t2, group[1]), (t3, group[2])]
            else:
                q = [nxt, nxt + 1, nxt + 2, nxt + 3]
                nxt += 4
                edges += [(q[0], q[1]), (q[1], q[2]), (q[2], q[3]), (q[0], q[3])]
                edges += [(q[i], group[i]) for i in range(4)]
        if not ok:
            continue
        try:
            g = Graph(nxt, edges)
        except ValueError:
            continue
        p = Path(tuple(range(m)))
        if not connectivity_at_least(g, 2):
            continue
        try:
            if precheck(g, p).kind != EXTENDABLE:
                continue
        except Exception:
            continue
        return g, p
    return None


def gen_adjacent_config(seed: int, case: str | None = None):
    """3-connected cubic host whose closing cycle has exactly one chord,
    at the first endpoint: cycle 0..s-1 with chord (0, j) and singleton
    components soaking up the remaining degree slots.  ``case`` forces
    the disjoint ('case-1') or shared ('case-2') endpoint shape."""
    rng = random.Random(seed)
    for _ in range(400):
        sc = rng.choice([8, 11, 14])
        if case == "case-2" or (case is None and rng.random() < 0.4):
            j = sc - 2
        elif case == "case-2-mirror":
            j = 2
        else:
            j = rng.randrange(3, sc - 2)
        positions = [i for i in range(sc) if i not in (0, j)]
        rng.shuffle(positions)
        t = len(positions) // 3
        groups = [sorted(positions[3 * i:3 * i + 3]) for i in range(t)]
        bad = False
        for grp in groups:
            for u, v in zip(grp, grp[1:]):
                if (v - u) % sc == 1 or (u - v) % sc == 1:
                    bad = True
        if bad:
            continue
        edges = [(i, (i + 1) % sc) for i in range(sc)] + [(0, j)]
        nxt = sc
        for grp in groups:
            edges += [(nxt, z) for z in grp]
            nxt += 1
        try:
            g = Graph(nxt, edges)
        except ValueError:
            continue
        if not is_cubic(g):
            continue
        if not connectivity_at_least(g, 3):
            continue
        return g, Path(tuple(range(sc)))
    return None


def figure_host():
    """The worked construction example: path 0..10, a triangle and a
    K4-minus-edge as two-neighbor components, two 4-cycles contracted onto
    an interior vertex and onto y."""
    edges = [(i, i + 1) for i in range(10)]
    edges += [(11, 12), (12, 13), (11, 13), (0, 11), (0, 12), (5, 13)]
    edges += [(14, 16), (14, 17), (15, 16), (15, 17), (16, 17), (1, 14), (8, 15)]
    edges += [(18, 19), (19, 20), (20, 21), (18, 21), (2, 18), (3, 19), (6, 20), (9, 21)]
    edges += [(22, 23), (23, 24), (24, 25), (22, 25), (10, 22), (10, 23), (4, 24), (7, 25)]
    return Graph(26, edges), Path(tuple(range(11)))


def gen_lemma_instance(k: int, seed: int) -> LemmaInstance:
    """Seeded instance: A spread around a cycle separating k arcs, chords
    wired from non-final arc endpoints to A."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = random.Random(k * 1_000_003 + seed)
    # a singleton arc's endpoint sits between two class vertices, so at
    # k = 2 it would have no chord target; keep non-final arcs longer then
    low = 2 if k == 2 else 1
    sizes = [rng.choice(tuple(range(low, 4))) for _ in range(k - 1)]
    sizes.append(rng.choice((1, 2, 3)))
    order = []
    components = []
    a_set = []
    for size in sizes:
        arc = []
        for _ in range(size):
            arc.append(len(order))
            order.append(len(order))
        a_set.append(len(order))
        order.append(len(order))
        components.append(tuple(arc))
    n = len(order)
    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    cyc_keys = {(min(u, v), max(u, v)) for u, v in cycle_edges}
    chords = set()
    for comp in components[:-1]:
        for end in dict.fromkeys((comp[0], comp[-1])):  # start, then end
            targets = [
                a for a in a_set
                if (min(end, a), max(end, a)) not in cyc_keys
            ]
            t = rng.choice(targets)
            chords.add((min(end, t), max(end, t)))
    g = Graph(n, cycle_edges + sorted(chords))
    inst = LemmaInstance(
        g=g,
        cycle=Cycle(tuple(range(n))),
        a_set=frozenset(a_set),
        components=tuple(components),
    )
    return inst.check()


def gen_cycle_plus_instance(n: int, seed: int):
    """Seeded Hamilton cycle plus vertex-disjoint triangles / order-3
    paths packed on it; returns (graph, hamilton cycle)."""
    if n < 6:
        raise ValueError(f"n must be >= 6, got {n}")
    rng = random.Random(n * 1_000_003 + seed)
    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    cyc_keys = {(min(u, v), max(u, v)) for u, v in cycle_edges}
    verts = list(range(n))
    rng.shuffle(verts)
    extra = []
    while len(verts) >= 3:
        tri = sorted((verts.pop(), verts.pop(), verts.pop()))
        pairs = list(itertools.combinations(tri, 2))
        on_cycle = sum(1 for p in pairs if p in cyc_keys)
        if on_cycle >= 2:
            continue
        if rng.random() < 0.2:
            continue
        extra.extend(p for p in pairs if p not in cyc_keys)
    g = Graph(n, cycle_edges + extra)
    return g, Cycle(tuple(range(n)))
