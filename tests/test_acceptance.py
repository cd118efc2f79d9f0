"""Acceptance suite: every criterion runs at its stated tolerance (all are
exact combinatorial equalities or thresholds) and prints one PASS line.

The n=16 tier for criteria 1-3 runs when CHORDLAB_ACCEPT_N16=1.
"""

import json
import os
import time
from math import factorial

import pytest

import oracles
from chordlab.cli import main
from chordlab.extender import (
    EXTENDABLE,
    HAS_BOUND_VERTEX,
    SPANNING_PATH,
    extend_path,
    precheck,
)
from chordlab.coloring import three_color_cycle_plus
from chordlab.generate import random_simple_path
from chordlab.graph6 import parse_graph6, write_graph6
from chordlab.graphs import connectivity_at_least
from chordlab.search import chords, longest_cycles, longest_xy_paths
from chordlab.second_cycle import build_support_graph, second_hamilton_cycle
from chordlab.verify import verify_chords, verify_zhan
from helpers import gen_cycle_plus_instance, gen_lemma_instance
from oracles import verify_parity_lemma

CLASS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
BUDGET_SECONDS = 300


def _ok(name, detail):
    print(f"ACCEPT {name}: PASS — {detail}")


def test_criterion_1_two_connected_bound_vertices(corpus):
    """Every longest (x,y)-path in every 2-connected cubic graph on up to
    ten vertices keeps at least one internal bound vertex."""
    started = time.time()
    checked = minimum = None
    total = 0
    for n, graphs in corpus.items():
        assert len(graphs) == CLASS_COUNTS[n]
        for g in graphs:
            if not connectivity_at_least(g, 2):
                continue
            rep = verify_zhan(g, "all-pairs")
            minimum = rep.minimum if minimum is None else min(minimum, rep.minimum)
            total += 1
    elapsed = time.time() - started
    assert minimum >= 1
    assert elapsed < BUDGET_SECONDS
    _ok("1 (2-connected bound vertices)",
        f"{total} graphs, min count {minimum}, {elapsed:.1f}s")


def test_criterion_1_extended_n12(corpus12):
    started = time.time()
    assert len(corpus12) == CLASS_COUNTS[12]
    minimum = None
    for g in corpus12:
        if not connectivity_at_least(g, 2):
            continue
        rep = verify_zhan(g, "all-pairs")
        minimum = rep.minimum if minimum is None else min(minimum, rep.minimum)
    elapsed = time.time() - started
    assert minimum >= 1
    assert elapsed < 1800
    _ok("1x (n=12 tier)", f"min count {minimum}, {elapsed:.1f}s")


@pytest.mark.skipif(
    os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
    reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
)
def test_criteria_1_to_3_extended_n16(tmp_path):
    """All 4060 connected cubic graphs on 16 vertices through `verify` in
    every mode with two workers: no violation, the checked counts and
    minima recorded when the tier first ran, and on every 3-connected row
    the relations of `test_statements_agree_on_three_connected_corpus`."""
    started = time.time()
    corpus = tmp_path / "cubic16.g6"
    assert main(["generate", "--n", "16", "--out", str(corpus)]) == 0
    # mode -> (graphs past the connectivity gate, minimum value)
    expected = {"zhan2": (3874, 4), "zhan3adj": (2828, 10), "chords": (2828, 6)}
    values = {}  # mode -> graph6 -> value
    for mode, (checked, minimum) in expected.items():
        out = tmp_path / f"{mode}.json"
        argv = ["verify", "--mode", mode, "--in", str(corpus), "--jobs", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        got = (rep["graphs"], rep["checked"], rep["minimum"], rep["violations"])
        assert got == (4060, checked, minimum, 0), mode
        values[mode] = {r["graph6"]: r["value"] for r in rep["rows"] if r["connectivity"] == 3}
    assert values["zhan2"].keys() == values["zhan3adj"].keys() == values["chords"].keys()
    assert len(values["chords"]) == 2828
    for line, chord_count in values["chords"].items():
        assert values["zhan2"][line] <= values["zhan3adj"][line] <= 2 * chord_count - 1, line
    elapsed = time.time() - started
    _ok("1-3x (n=16 tier)", f"(checked, minimum) per mode {expected}, {elapsed:.1f}s")


def test_criterion_2_three_connected_adjacent(corpus):
    """Adjacent endpoints in 3-connected cubic graphs force at least two
    internal bound vertices on every longest path."""
    started = time.time()
    minimum = None
    total = 0
    for n, graphs in corpus.items():
        for g in graphs:
            if not connectivity_at_least(g, 3):
                continue
            rep = verify_zhan(g, "adjacent-pairs")
            minimum = rep.minimum if minimum is None else min(minimum, rep.minimum)
            total += 1
    elapsed = time.time() - started
    assert minimum >= 2
    assert elapsed < BUDGET_SECONDS
    _ok("2 (3-connected adjacent pairs)",
        f"{total} graphs, min count {minimum}, {elapsed:.1f}s")


def test_criterion_3_chords(corpus):
    """Longest cycles of 3-connected cubic graphs carry at least two
    chords; the 9-cycles of the 10-vertex exception graph carry three."""
    minimum = None
    total = 0
    for n, graphs in corpus.items():
        for g in graphs:
            if not connectivity_at_least(g, 3):
                continue
            rep = verify_chords(g)
            assert rep.min_chords >= 2
            minimum = rep.min_chords if minimum is None else min(minimum, rep.min_chords)
            total += 1
    pet = oracles.petersen()
    cycles = longest_cycles(pet)
    assert all(c.length == 9 for c in cycles)
    assert all(len(chords(pet, c)) == 3 for c in cycles)
    _ok("3 (chord counts)",
        f"{total} graphs, min chords {minimum}; exception graph: 9-cycles, 3 chords")


def test_statements_agree_on_three_connected_corpus(corpus, corpus12):
    """The three statements on one graph.  The adjacent-pairs table is the
    all-pairs table on the edges, so zhan2 <= zhan3adj.  A longest cycle C
    with the fewest chords, opened at an edge xy with x bound, is a
    longest (x,y)-path with at most |B(C)| - 1 internal bound vertices,
    and |B(C)| is twice the chord count, so zhan3adj <= 2*chords - 1."""
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    checked = [g for g in graphs if connectivity_at_least(g, 3)]
    for g in checked:
        all_pairs = oracles.zhan_table(g, "all-pairs")
        adjacent = oracles.zhan_table(g, "adjacent-pairs")
        for xy, res in adjacent.items():
            assert res == all_pairs[xy], (write_graph6(g), xy)
        zhan2 = verify_zhan(g, "all-pairs").minimum
        zhan3adj = verify_zhan(g, "adjacent-pairs").minimum
        assert zhan2 == min(r.min_bound for r in all_pairs.values()), write_graph6(g)
        assert zhan3adj == min(r.min_bound for r in adjacent.values()), write_graph6(g)
        min_chords = verify_chords(g).min_chords
        assert zhan2 <= zhan3adj <= 2 * min_chords - 1, write_graph6(g)
    assert len(checked) == 78


def test_criterion_4_coloring_lemma():
    failures = 0
    for seed in range(200):
        n = 6 + (seed % 19)
        g, cyc = gen_cycle_plus_instance(n, seed)
        coloring = three_color_cycle_plus(g, cyc)
        if not all(coloring[u] != coloring[v] for u, v in g.edges):
            failures += 1
            continue
        cyc_keys = cyc.edge_set()
        rest = [e for e in g.edges if e not in cyc_keys]
        nbr = {}
        for u, v in rest:
            nbr.setdefault(u, set()).add(v)
            nbr.setdefault(v, set()).add(u)
        for u in nbr:
            tri = {u} | nbr[u]
            if len(tri) == 3 and all(
                (min(a, b), max(a, b)) in set(g.edges) for a in tri for b in tri if a < b
            ):
                if {coloring[t] for t in tri} != {1, 2, 3}:
                    failures += 1
    assert failures == 0
    _ok("4 (coloring lemma)", "200 seeded instances colored, triangles rainbow")


def test_criterion_5_parity_lemma():
    failures = 0
    for seed in range(100):
        k = 2 + seed % 3
        inst = gen_lemma_instance(k, seed)
        g1, _ = build_support_graph(inst)
        rep = verify_parity_lemma(g1, inst.a_set)
        if not (rep.all_even and rep.preserved):
            failures += 1
    assert failures == 0
    _ok("5 (parity lemma)", "100 seeded instances, all counts even, off-A preserved")


def test_criterion_6_second_cycle_lemma():
    failures = 0
    for seed in range(100):
        k = 2 + seed % 3
        inst = gen_lemma_instance(k, seed)
        last = inst.components[-1]
        x = last[0]
        vs = inst.cycle.vertices
        i = vs.index(x)
        inside = {tuple(sorted(e)) for e in zip(last, last[1:])}
        y = next(
            c for c in (vs[i - 1], vs[(i + 1) % len(vs)])
            if tuple(sorted((x, c))) not in inside
        )
        cert = second_hamilton_cycle(inst, x, y)
        c1 = cert.c_prime
        try:
            c1.validate(inst.g)
            assert c1.length == inst.g.n
            assert c1 != inst.cycle
            assert (min(x, y), max(x, y)) in c1.edge_set()
            off = lambda cyc: {
                e for e in cyc.edge_pairs()
                if e[0] not in inst.a_set and e[1] not in inst.a_set
            }
            assert off(c1) == off(inst.cycle)
            base = inst.cycle.edge_set()
            incident = [e for e in c1.edge_pairs() if cert.exchange_vertex in e]
            assert sum(1 for e in incident if e in base) == 1
        except AssertionError:
            failures += 1
    assert failures == 0
    _ok("6 (second-cycle lemma)", "100 seeded certificates independently re-verified")


def test_criterion_7_extension_engine(corpus):
    """Sampled bound-vertex-free paths always extend, and iterating lands
    on a path with a bound vertex or a spanning path."""
    runs = extensions = 0
    for n, graphs in corpus.items():
        for g in graphs:
            if not connectivity_at_least(g, 2):
                continue
            for seed in range(50):
                p = random_simple_path(g, seed)
                for _ in range(g.n + 1):
                    cls = precheck(g, p)
                    if cls.kind != EXTENDABLE:
                        break
                    p2, _ = extend_path(g, p)
                    assert p2.length > p.length
                    assert (p2.x, p2.y) == (p.x, p.y)
                    p2.validate(g)
                    exact = longest_xy_paths(g, p.x, p.y).max_length
                    assert p2.length <= exact
                    p = p2
                    extensions += 1
                else:
                    raise AssertionError("iteration did not reach a fixed point")
                assert cls.kind in (HAS_BOUND_VERTEX, SPANNING_PATH)
                runs += 1
    assert runs > 0 and extensions > 0
    _ok("7 (extension engine)", f"{runs} sampled fixpoint runs, {extensions} extensions")


def test_criterion_8_oracles(corpus, corpus12):
    """Search agrees with the naive permutation oracles on every cubic
    graph with up to eight vertices, graph6 round-trips over the whole
    corpus, and the class counts match the pairing oracle (live at small
    orders) and the labeled-count identity everywhere."""
    for n in (4, 6, 8):
        for g in corpus[n]:
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    best, wits = oracles.longest_xy_naive(g, x, y)
                    rep = longest_xy_paths(g, x, y)
                    assert rep.max_length == best
                    assert sorted(w.vertices for w in rep.witnesses) == wits
            best, cyc = oracles.longest_cycles_naive(g)
            got = longest_cycles(g)
            assert got[0].length == best
            assert sorted(c.vertices for c in got) == cyc

    full = dict(corpus)
    full[12] = corpus12
    for n, graphs in full.items():
        assert len(graphs) == CLASS_COUNTS[n]
        for g in graphs:
            assert parse_graph6(write_graph6(g)) == g
        total = sum(factorial(n) // oracles.automorphism_count(g) for g in graphs)
        assert total == oracles.labeled_connected_cubic_count(n)

    for n in (4, 6, 8):
        reps = oracles.connected_cubic_classes_by_pairing(n)
        assert len(reps) == CLASS_COUNTS[n]

    _ok("8 (oracles)",
        "search == naive oracles (n<=8); graph6 roundtrip and labeled-count "
        "identity on the full n<=12 corpus; pairing-oracle counts at n<=8")
