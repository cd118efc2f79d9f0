import hashlib
import itertools
import os
import random
import sys
from math import factorial

import pytest

import oracles
from chordlab import generate
from chordlab.cli import main
from chordlab.generate import (
    _completable,
    _graph_from_cols,
    _is_max_code,
    enumerate_cubic,
    random_cubic,
    random_simple_path,
)
from chordlab.graph6 import parse_graph6
from chordlab.graphs import Graph, connectivity_at_least, is_cubic, reach_mask
from helpers import gen_lemma_instance
from oracles import automorphism_count, canonical_code


EXPECTED_CLASS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}

# sha256 of the bytes `chordlab generate --n N` writes, recorded with the
# plain relabeling-backtrack canonicity test: a faster test must keep the
# same graphs, labelings and order
GENERATE_SHA256 = {
    4: "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    6: "49a7391d96ad84fd13c8b5267ef23c215085ed317e6146e479df2bcdfd672949",
    8: "6946d13a0aec85386d47d087ad2a9f2561b05d8580f0ec937414f8d31359d34f",
    10: "b46e70b9578943cb94fa0ec1469bba1fa2825813da4fed3698b38f9061f5b40a",
    12: "ff0fcdb1521f99d5a04d95bebe9f40faae50dfff7240e11b4f0a3602bf380eba",
    14: "b4d1bff9567f76e998c7418de7fc2c7c035524ee691a54d6ca1b6071ba1861d8",
    # recorded from the level-by-level enumeration the walk replaced
    16: "aedeebf2a1b007f740aecef8c59fb8f4927b2a7b547eaa16cbda807afac41a25",
}


def _generate(n, tmp_path):
    out = tmp_path / f"cubic{n}.g6"
    assert main(["generate", "--n", str(n), "--out", str(out)]) == 0
    return out.read_bytes()


def test_generate_output_pinned(tmp_path):
    for n in (4, 6, 8, 10, 12):
        digest = hashlib.sha256(_generate(n, tmp_path)).hexdigest()
        assert digest == GENERATE_SHA256[n], n


def test_counts_small(corpus):
    for n, graphs in corpus.items():
        assert len(graphs) == EXPECTED_CLASS_COUNTS[n]


def test_counts_against_pairing_oracle_tiny():
    for n in (4, 6):
        mine = enumerate_cubic(n)
        reps = oracles.connected_cubic_classes_by_pairing(n)
        assert len(mine) == len(reps) == EXPECTED_CLASS_COUNTS[n]
        # every oracle class matches exactly one enumerated graph
        for rep in reps:
            assert sum(1 for g in mine if oracles.are_isomorphic(g, rep)) == 1


def test_n4_is_k4():
    (g,) = enumerate_cubic(4)
    assert oracles.are_isomorphic(g, oracles.k4())


def test_n6_classes():
    a, b = enumerate_cubic(6)
    found = {
        "k33": any(oracles.are_isomorphic(g, oracles.k33()) for g in (a, b)),
        "prism": any(oracles.are_isomorphic(g, oracles.prism()) for g in (a, b)),
    }
    assert all(found.values())


def test_outputs_connected_cubic(corpus):
    for graphs in corpus.values():
        for g in graphs:
            assert is_cubic(g)
            assert connectivity_at_least(g, 1)


def test_outputs_pairwise_nonisomorphic_n8():
    graphs = enumerate_cubic(8)
    for a, b in itertools.combinations(graphs, 2):
        assert not oracles.are_isomorphic(a, b)


def test_outputs_distinct_canonical_codes(corpus):
    for graphs in corpus.values():
        codes = [canonical_code(g) for g in graphs]
        assert len(set(codes)) == len(codes)


def test_labeled_count_identity(corpus):
    """Mass check: summing n!/|Aut| over the classes must reproduce the
    labeled connected count obtained by an unrelated recurrence."""
    for n, graphs in corpus.items():
        total = sum(factorial(n) // automorphism_count(g) for g in graphs)
        assert total == oracles.labeled_connected_cubic_count(n)


def test_deterministic_order():
    assert [g.edges for g in enumerate_cubic(8)] == [g.edges for g in enumerate_cubic(8)]


def test_max_code_matches_backtrack_n12(monkeypatch):
    """Judge every child the walk generates for n <= 12 by the plain
    relabeling backtrack too, whether or not it passes `_completable`:
    the fast test agrees on every one.  The masks and neighbour lists the
    walk carries to `_is_max_code` are those of the child's columns."""
    judged = 0

    def completable(cols, degs, n):
        nonlocal judged
        g = _graph_from_cols(len(degs), cols)
        old = oracles.is_max_code_backtrack(g.masks, g.n, cols)
        nbrs = tuple(tuple(g.neighbors(v)) for v in range(g.n))
        assert _is_max_code(g.masks, nbrs, g.n, cols) == old, cols
        judged += 1
        return _completable(cols, degs, n)

    def is_max_code(masks, nbrs, n, cols):
        g = _graph_from_cols(n, cols)
        want = tuple(tuple(g.neighbors(v)) for v in range(g.n))
        assert (tuple(masks), tuple(nbrs)) == (g.masks, want), cols
        return _is_max_code(masks, nbrs, n, cols)

    monkeypatch.setattr(generate, "_completable", completable)
    monkeypatch.setattr(generate, "_is_max_code", is_max_code)
    for n in range(4, 13, 2):
        assert len(enumerate_cubic(n)) == EXPECTED_CLASS_COUNTS[n]
    assert judged > 5000


def _relabelings(g, rng):
    """g as it is, after two uniform relabelings, after two random
    search orders (each vertex after one of its neighbours, so every
    prefix is connected) and after one swap of two labels."""
    n = g.n
    perms = [list(range(n))]
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    for _ in range(2):
        order, frontier = [], {rng.randrange(n)}
        while frontier:
            v = rng.choice(sorted(frontier))
            order.append(v)
            frontier = (frontier | set(g.neighbors(v))) - set(order)
        perms.append([order.index(v) for v in range(n)])
    perm = list(range(n))
    a, b = rng.sample(range(n), 2)
    perm[a], perm[b] = b, a
    perms.append(perm)
    return [Graph(n, [(p[u], p[v]) for u, v in g.edges]) for p in perms]


def test_max_code_matches_backtrack_on_relabelings(corpus, corpus12):
    """Fact 8 prunes where the search meets ties, so judge labelings rich
    in them: every n <= 12 corpus graph and K4, K3,3, the prism and
    Petersen, each as it is and relabeled (`_relabelings`), with every
    prefix on 2..n vertices that is connected.  The pruned test agrees
    with the plain relabeling backtrack on each."""
    rng = random.Random(45)
    graphs = [g for n in sorted(corpus) for g in corpus[n]] + corpus12
    graphs += [oracles.k4(), oracles.k33(), oracles.prism(), oracles.petersen()]
    judged = maximal = 0
    for g in graphs:
        for h in _relabelings(g, rng):
            for k in range(2, h.n + 1):
                full = (1 << k) - 1
                masks = tuple(m & full for m in h.masks[:k])
                if reach_mask(masks, 1, full)[0] != full:
                    continue
                cols = _code(Graph(k, [(u, v) for u, v in h.edges if v < k]))
                nbrs = tuple(tuple(w for w in range(k) if m >> w & 1) for m in masks)
                want = oracles.is_max_code_backtrack(masks, k, cols)
                assert _is_max_code(masks, nbrs, k, cols) == want, (h.edges, k)
                judged += 1
                maximal += want
    assert (judged, maximal) == (5785, 2039)


def _beaten_calls(monkeypatch, n):
    """Calls of `_is_max_code`'s inner search while `enumerate_cubic(n)`
    runs, as (on prefixes, on complete codes), counted by a profile hook."""
    inner = next(c for c in _is_max_code.__code__.co_consts if getattr(c, "co_name", "") == "beaten")
    calls, complete = [0, 0], [0]

    def is_max_code(masks, nbrs, k, cols):
        complete[0] = k == n
        return _is_max_code(masks, nbrs, k, cols)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is inner:
            calls[complete[0]] += 1

    monkeypatch.setattr(generate, "_is_max_code", is_max_code)
    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        graphs = enumerate_cubic(n)
    finally:
        sys.setprofile(before)
    assert len(graphs) == EXPECTED_CLASS_COUNTS[n]
    return tuple(calls)


def test_max_code_nodes_pinned(monkeypatch):
    """The canonicity search's nodes at n = 10 and 12, on prefixes and on
    complete codes: a census that guards fact 8's prunes without timing
    them.  Without them the search made (1,941, 3,515) and (14,407,
    18,189) calls."""
    nodes = {n: _beaten_calls(monkeypatch, n) for n in (10, 12)}
    assert nodes == {10: (1361, 1316), 12: (10566, 10448)}


def _code(g):
    """The column code of g's labeling: column j holds j's adjacency to
    0..j-1, vertex 0 in the most significant bit."""
    return tuple(
        sum((g.masks[j] >> i & 1) << (j - 1 - i) for i in range(j)) for j in range(1, g.n)
    )


def test_walk_matches_level_reference(corpus, corpus12):
    """The depth-first walk, pruned by facts 4 to 6, emits the codes of
    the level-by-level enumeration it replaced, pruned by the counting
    checks and fact 4 alone, in the same order, for every n <= 12."""
    for n, graphs in {**corpus, 12: corpus12}.items():
        assert [_code(g) for g in graphs] == oracles.cubic_codes_by_level(n), n


def test_pruned_children_head_dead_subtrees(monkeypatch):
    """Every child of a canonical prefix that the earlier prune passes
    and facts 5 and 6 reject, for n <= 10, has no maximal code below it:
    a complete one is not maximal, and the walk under the earlier prune
    emits nothing from an incomplete one."""
    # `_walk` now prunes as before; the name imported here is the new prune
    monkeypatch.setattr(generate, "_completable", oracles.completable_reference)
    rejected = 0
    for n in range(4, 11, 2):
        levels = oracles.cubic_prefixes_by_level(n)
        for k in range(1, n):
            for cols, degs, masks in oracles._children(levels[k - 1], k):
                if _completable(cols, degs, n) or not oracles.completable_reference(cols, degs, n):
                    continue
                rejected += 1
                nbrs = [tuple(w for w in range(k + 1) if m >> w & 1) for m in masks]
                if k + 1 == n:
                    assert not _is_max_code(masks, nbrs, n, cols), cols
                else:
                    out = []
                    generate._walk(cols, degs, masks, nbrs, n, out)
                    assert out == [], cols
    assert rejected == 147  # 49 fail fact 6, the other 98 fact 5


def test_max_code_calls_pinned_n12(monkeypatch):
    """The canonicity calls at n=12 per number of vertices still to come:
    a census that guards the walk's cost without timing it.  By fact 7
    no call falls at one or two to come, and the complete codes are the
    forced completions (629 calls, against 869 with a test on every
    child)."""
    calls = {}

    def is_max_code(masks, nbrs, n, cols):
        calls[12 - n] = calls.get(12 - n, 0) + 1
        return _is_max_code(masks, nbrs, n, cols)

    monkeypatch.setattr(generate, "_is_max_code", is_max_code)
    assert len(enumerate_cubic(12)) == EXPECTED_CLASS_COUNTS[12]
    assert calls == {0: 310, 3: 159, 4: 79, 5: 42, 6: 21, 7: 10, 8: 5, 9: 2, 10: 1}


def test_forced_completion_joins_three_deficit_one_vertices(monkeypatch):
    """Fact 7, for n <= 12: every child with one vertex to come that
    `_completable` passes has exactly three vertices of degree 2 and the
    rest of degree 3, and the next code the walk judges is the child's
    completion, whose last vertex joins exactly those three.  Every
    complete code the walk judges is such a completion."""
    seen = []

    def completable(cols, degs, n):
        ok = _completable(cols, degs, n)
        seen.append((cols, list(degs), ok))
        return ok

    monkeypatch.setattr(generate, "_completable", completable)
    forced = 0
    for n in range(4, 13, 2):
        seen.clear()
        assert len(enumerate_cubic(n)) == EXPECTED_CLASS_COUNTS[n]
        for at, (cols, degs, ok) in enumerate(seen):
            if len(degs) == n:
                before, bdegs, bok = seen[at - 1]
                assert bok and len(bdegs) == n - 1 and cols[:-1] == before, cols
            if len(degs) != n - 1 or not ok:
                continue
            short = [i for i, d in enumerate(degs) if d != 3]
            assert len(short) == 3 and all(degs[i] == 2 for i in short), cols
            full, fdegs, _ = seen[at + 1]
            assert full == cols + (sum(1 << (n - 2 - i) for i in short),), cols
            assert fdegs == [3] * n, cols
            forced += 1
    assert forced == 440


def test_enumerate_rejects_bad_n():
    for bad in (5, 2, 18):
        with pytest.raises(ValueError):
            enumerate_cubic(bad)


def test_canonical_code_is_isomorphism_invariant():
    import random

    rng = random.Random(7)
    for g in enumerate_cubic(8):
        perm = list(range(g.n))
        rng.shuffle(perm)
        from chordlab.graphs import Graph

        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_code(h) == canonical_code(g)


def test_automorphism_counts_known():
    assert automorphism_count(oracles.k4()) == 24
    assert automorphism_count(oracles.petersen()) == 120
    assert automorphism_count(oracles.k33()) == 72
    assert automorphism_count(oracles.prism()) == 12


def test_random_cubic_unique_class_n4():
    for seed in (0, 1, 2):
        assert oracles.are_isomorphic(random_cubic(4, seed), oracles.k4())


def test_random_cubic_deterministic():
    assert random_cubic(10, 42).edges == random_cubic(10, 42).edges


def test_random_cubic_properties():
    for seed in range(1000):
        g = random_cubic(20, seed)
        assert is_cubic(g)


def test_lemma_instance_spec_example_shape():
    inst = gen_lemma_instance(2, 0)
    inst.check()
    assert inst.k == 2
    assert len(inst.components) == 2


def test_lemma_instance_invariants_many_seeds():
    for seed in range(100):
        inst = gen_lemma_instance(3, seed)
        inst.check()
        # A independent on C, re-asserted directly
        cyc = inst.cycle.edge_set()
        for a in inst.a_set:
            for b in inst.a_set:
                if a < b:
                    assert (a, b) not in cyc


def test_lemma_instance_rejects_small_k():
    with pytest.raises(ValueError):
        gen_lemma_instance(1, 0)


def test_random_simple_path_is_valid():
    g = oracles.petersen()
    for seed in range(30):
        p = random_simple_path(g, seed)
        p.validate(g)
        assert p.length >= 1


@pytest.mark.parametrize("g, seed, vertices", [
    (oracles.petersen(), 1, (2, 7, 5, 8, 6, 1)),
    (oracles.petersen(), 42, (1, 0, 4, 3, 2, 7)),
    (oracles.k4(), 0, (3, 1)),
    (oracles.k33(), 1, (1, 5, 0, 4, 2, 3)),
    # seeds 1 and 3 first draw the isolated vertex 0, then seed + 10007
    (Graph(3, [(1, 2)]), 1, (1, 2)),
    (Graph(3, [(1, 2)]), 3, (2, 1)),
    (Graph(3, [(1, 2)]), 7, (1, 2)),
])
def test_random_simple_path_keeps_its_draws(g, seed, vertices):
    """Pairs recorded from the recursive version, which drew again with
    the seed 10007 higher after a start at an isolated vertex: the loop
    draws the same seed sequence, so every seed gives the same path."""
    assert random_simple_path(g, seed).vertices == vertices


@pytest.mark.parametrize("n", [0, 2])
def test_random_simple_path_refuses_a_graph_without_edges(n):
    """No start can take a step: the empty graph and two isolated
    vertices are refused before any draw."""
    with pytest.raises(ValueError) as info:
        random_simple_path(Graph(n, []), 0)
    assert str(info.value) == "random simple path needs a graph with an edge"


def test_counts_against_pairing_oracle_n8():
    mine = enumerate_cubic(8)
    reps = oracles.connected_cubic_classes_by_pairing(8)
    assert len(mine) == len(reps) == EXPECTED_CLASS_COUNTS[8]
    for rep in reps:
        assert sum(1 for g in mine if oracles.are_isomorphic(g, rep)) == 1


def test_counts_n14_optional_tier(tmp_path):
    text = _generate(14, tmp_path)
    assert hashlib.sha256(text).hexdigest() == GENERATE_SHA256[14]
    graphs = [parse_graph6(line) for line in text.decode().split()]
    assert len(graphs) == EXPECTED_CLASS_COUNTS[14]
    total = sum(factorial(14) // automorphism_count(g) for g in graphs)
    assert total == oracles.labeled_connected_cubic_count(14)


@pytest.mark.skipif(
    os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
    reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
)
def test_counts_n16_optional_tier(tmp_path):
    text = _generate(16, tmp_path)
    assert hashlib.sha256(text).hexdigest() == GENERATE_SHA256[16]
    graphs = [parse_graph6(line) for line in text.decode().split()]
    assert len(graphs) == EXPECTED_CLASS_COUNTS[16]
    assert all(is_cubic(g) and connectivity_at_least(g, 1) for g in graphs)
    found = [oracles._canonical_search(g.masks, g.n) for g in graphs]
    assert len({code for code, _ in found}) == len(graphs)
    total = sum(factorial(16) // aut for _, aut in found)
    assert total == oracles.labeled_connected_cubic_count(16)
