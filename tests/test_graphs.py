import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chordlab.graphs import (
    Graph,
    components_after_deletion,
    connectivity_at_least,
    is_cubic,
    reach_mask,
    vertex_bits,
    vertex_mask,
)
from chordlab.generate import random_cubic
from chordlab.search import longest_cycles


def test_build_k4():
    g = Graph(4, list(itertools.combinations(range(4), 2)))
    assert [len(g.neighbors(v)) for v in range(4)] == [3, 3, 3, 3]


def test_build_path():
    """The views of the stored masks match a set-based reference built
    from the input edge list: on a path, K4 and seeded random simple
    graphs with n = 0..9 (sparse, disconnected and dense ones), each edge
    given in a random orientation and the list in a random order."""
    import random

    assert [len(Graph(3, [(0, 1), (1, 2)]).neighbors(v)) for v in range(3)] == [1, 2, 1]
    rng = random.Random(38)
    inputs = [(3, [(0, 1), (1, 2)]), (4, list(itertools.combinations(range(4), 2)))]
    for n in range(10):
        for density in (0.2, 0.5, 0.9):
            for _ in range(8):
                pairs = itertools.combinations(range(n), 2)
                edges = [e[::rng.choice((1, -1))] for e in pairs if rng.random() < density]
                rng.shuffle(edges)
                inputs.append((n, edges))
    for n, edges in inputs:
        g = Graph(n, edges)
        want = {tuple(sorted(e)) for e in edges}
        nbrs = [sorted({w for e in want if v in e for w in e} - {v}) for v in range(n)]
        assert (g.n, g.edges, g.m) == (n, tuple(sorted(want)), len(want))
        assert [list(g.neighbors(v)) for v in range(n)] == nbrs
        assert is_cubic(g) == all(len(a) == 3 for a in nbrs)
        for u, v in itertools.product(range(n), repeat=2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in want)
        same = Graph(n, sorted(want, reverse=True))
        assert g == same and hash(g) == hash(same)
        assert g != Graph(n + 1, edges) and g != g.masks
        for e in want:
            assert g != Graph(n, want - {e})


def test_graph_refuses_a_negative_order():
    assert Graph(0, []).n == 0
    with pytest.raises(ValueError) as exc:
        Graph(-1, [])
    assert str(exc.value) == "vertex count must be nonnegative, got -1"


def test_build_petersen():
    g = oracles.petersen()
    assert g.m == 15
    assert is_cubic(g)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_build_rejects_repeated_edge():
    """Graphs are simple by construction: a pair given twice, in either
    orientation, is refused and named."""
    with pytest.raises(ValueError, match=r"^repeated edge \(0,1\)$"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError, match=r"^repeated edge \(1,2\)$"):
        Graph(3, [(0, 1), (2, 1), (1, 2)])


def test_is_cubic():
    assert is_cubic(oracles.k4())
    assert not is_cubic(oracles.cycle_graph(5))
    assert is_cubic(oracles.petersen())


def test_connectivity_small_cases():
    assert connectivity_at_least(oracles.k4(), 3)
    c5 = oracles.cycle_graph(5)
    for k in (2, 3):
        with pytest.raises(ValueError, match="^graph is not cubic$"):
            connectivity_at_least(c5, k)


def test_connectivity_bridge_host():
    g = oracles.two_k4_minus_edge_bridge()
    assert is_cubic(g)
    assert connectivity_at_least(g, 2)
    assert not connectivity_at_least(g, 3)


def test_connectivity_chain():
    for g in (oracles.k4(), oracles.prism(), oracles.petersen(),
              oracles.two_k4_minus_edge_bridge()):
        if connectivity_at_least(g, 3):
            assert connectivity_at_least(g, 2)
        if connectivity_at_least(g, 2):
            assert connectivity_at_least(g, 1)


def test_connectivity_against_menger():
    """Against max-flow vertex connectivity, an oracle that shares no code
    with the gate's definition: a cubic zoo, two disjoint K4s, the empty
    graph (0) and the cubic graphs of `_random_simple_graphs`.  Its other
    graphs (many with a vertex of degree >= 4), a cycle, a path and the
    graphs on one to three vertices are refused: the gate answers for
    cubic graphs only."""
    k4 = oracles.k4().edges
    tiny = [Graph(1, []), Graph(2, [(0, 1)]), Graph(3, [(0, 1), (1, 2), (0, 2)])]
    zoo = [oracles.k4(), oracles.k33(), oracles.prism(), oracles.petersen(),
           oracles.two_k4_minus_edge_bridge(), Graph(8, [*k4, *((u + 4, v + 4) for u, v in k4)]),
           Graph(0, []), oracles.cycle_graph(7), oracles.path_graph(5)]
    answered = high_degree = 0
    for g in zoo + tiny + list(_random_simple_graphs()):
        if not is_cubic(g):
            with pytest.raises(ValueError, match="^graph is not cubic$"):
                connectivity_at_least(g, 1)
            high_degree += max((len(g.neighbors(v)) for v in range(g.n)), default=0) >= 4
            continue
        kappa = oracles.vertex_connectivity_menger(g)
        for k in (1, 2, 3):
            assert connectivity_at_least(g, k) == (kappa >= k and g.n > k), (g.n, g.edges, k)
        answered += 1
    assert [sum(connectivity_at_least(g, k) for k in (1, 2, 3)) for g in zoo[:7]] == [3, 3, 3, 3, 2, 0, 0]
    assert answered > 7 and high_degree > 100  # the zoo's 7 cubic graphs, then random ones


def test_connectivity_gate_is_memoized(monkeypatch):
    """One stored value answers every k: the first question runs one
    search, and no later question runs anything."""
    import chordlab.graphs as graphs

    calls = []
    real = graphs._cubic_edge_connectivity
    monkeypatch.setattr(graphs, "_cubic_edge_connectivity", lambda g: calls.append(g) or real(g))
    g = oracles.petersen()
    for k in (3, 2, 1):
        assert connectivity_at_least(g, k)
    assert calls == [g]
    calls.clear()
    for k in (1, 2, 3):
        assert connectivity_at_least(g, k)
    assert calls == []


def test_connectivity_memo_matches_fresh_answers(corpus, corpus12):
    """Stored answers, asked in a shuffled order of k, against fresh ones
    on the relabeled n <= 12 corpus, which holds classes 1-3."""
    import random

    rng = random.Random(11)
    classes = collections.Counter()
    for g0 in [g for n in sorted(corpus) for g in corpus[n]] + list(corpus12):
        label = rng.sample(range(g0.n), g0.n)
        edges = [(label[u], label[v]) for u, v in g0.edges]
        g = Graph(g0.n, edges)
        order = [1, 2, 3] * 2
        rng.shuffle(order)
        for k in order:
            fresh = connectivity_at_least(Graph(g.n, edges), k)
            assert connectivity_at_least(g, k) == fresh, (g.n, edges, k)
            if g.n <= 8:
                assert fresh == oracles.connectivity_at_least_naive(g, k)
        classes[sum(connectivity_at_least(g, k) for k in (1, 2, 3))] += 1
    assert sorted(classes) == [1, 2, 3], classes


def test_components_spanning_deletion():
    g = oracles.k4()
    assert components_after_deletion(g, {0, 1, 2, 3}) == ()


@pytest.mark.parametrize("removed", ({4}, {-1}), ids=("n", "minus-one"))
def test_components_refuse_an_out_of_range_deletion(removed):
    with pytest.raises(ValueError) as exc:
        components_after_deletion(oracles.k4(), removed)
    assert str(exc.value) == "removed set contains out-of-range ids"


def test_components_petersen_minus_9cycle():
    g = oracles.petersen()
    nine = longest_cycles(g)[0]
    assert nine.length == 9
    comps = components_after_deletion(g, set(nine.vertices))
    assert len(comps) == 1 and comps[0].bit_count() == 1


def test_components_antipodal():
    g = oracles.cycle_graph(6)
    comps = components_after_deletion(g, {0, 3})
    assert sorted(c.bit_count() for c in comps) == [2, 2]


def test_components_cover_and_separate():
    g = oracles.petersen()
    removed = {0, 3, 7}
    comps = [vertex_bits(c) for c in components_after_deletion(g, removed)]
    union = set().union(*comps) if comps else set()
    assert union == set(range(g.n)) - removed
    for a, b in itertools.combinations(comps, 2):
        assert not any(g.has_edge(u, v) for u in a for v in b)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 9), st.integers(0, 10_000))
def test_components_partition_random(n, seed):
    import random

    rng = random.Random(seed)
    edges = {
        (a, b)
        for a in range(n) for b in range(a + 1, n)
        if rng.random() < 0.4
    }
    g = Graph(n, sorted(edges))
    removed = {v for v in range(n) if rng.random() < 0.3}
    comps = components_after_deletion(g, removed)
    union = set().union(*map(vertex_bits, comps)) if comps else set()
    assert union == set(range(n)) - removed
    assert sum(c.bit_count() for c in comps) == len(union)
    least = [vertex_bits(c)[0] for c in comps]
    assert least == sorted(least)  # ascending order of the least member


def _reach_reference(g: Graph, start, allowed):
    """`reach_mask` with sets: the start vertices and every vertex of
    ``allowed`` reached from them through ``allowed``, and the vertices
    next to one of those."""
    reach = list(start)
    for u in reach:
        reach += [w for w in g.neighbors(u) if w in allowed and w not in reach]
    return set(reach), {w for u in reach for w in g.neighbors(u)}


def test_reach_mask_matches_set_walk():
    """Both results of the flood fill against a set-based walk, on the
    graphs of `_random_simple_graphs`: one and two start vertices, starts
    in and outside ``allowed``, an empty ``allowed``, and the complement
    of a visited set as `extender.find_odd_cover_cycle` passes it (a
    negative int, its start inside the visited set)."""
    import random

    rng = random.Random(48)
    shapes = collections.Counter()
    for g in _random_simple_graphs():
        for _ in range(4):
            start = set(rng.sample(range(g.n), min(g.n, rng.choice((1, 2)))))
            allowed = {v for v in range(g.n) if rng.random() < 0.6}
            cases = [(allowed, vertex_mask(allowed)), (set(), 0)]
            visited = allowed | start  # find_odd_cover_cycle: reach the unvisited
            cases.append((set(range(g.n)) - visited, ~vertex_mask(visited)))
            for allowed_set, allowed_mask in cases:
                got = reach_mask(g.masks, vertex_mask(start), allowed_mask)
                want = _reach_reference(g, start, allowed_set)
                assert tuple(map(vertex_bits, got)) == tuple(map(sorted, want)), (
                    g.edges, start, allowed_set,
                )
                shapes["start outside allowed"] += bool(start - allowed_set)
                shapes["empty allowed"] += not allowed_set
                shapes["grew past start"] += got[0] != vertex_mask(start)
    assert min(shapes.values()) > 500, shapes


def _random_simple_graphs():
    """Random simple graphs with n <= 8 at several densities, so sparse,
    disconnected, non-cubic and near-complete ones all occur."""
    import random

    rng = random.Random(2024)
    for n in range(1, 9):
        for density in (0.15, 0.3, 0.5, 0.7, 0.9):
            for _ in range(12):
                pairs = itertools.combinations(range(n), 2)
                yield Graph(n, [e for e in pairs if rng.random() < density])


def test_connectivity_against_cut_enumeration_small():
    """The gate answers for cubic graphs only: each graph of
    `_random_simple_graphs` that is not cubic is refused at every k,
    whatever its class by the gate's definition, and the refusal stores
    nothing; the cubic ones agree with the definition."""
    refused = collections.Counter()
    for g in _random_simple_graphs():
        want = [oracles.connectivity_at_least_naive(g, k) for k in (1, 2, 3)]
        if is_cubic(g):
            assert [connectivity_at_least(g, k) for k in (1, 2, 3)] == want, g.edges
            continue
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="^graph is not cubic$"):
                connectivity_at_least(g, k)
        assert g._kappa is None
        refused[sum(want)] += 1
    assert min(refused[k] for k in range(4)) > 20, refused


def test_connectivity_against_cut_enumeration_cubic(corpus, corpus12):
    """The one-search cubic gate against the gate's definition: the whole
    n <= 12 corpus, a seeded relabeling of each of its graphs (the labels
    choose the spanning tree, and so whether a 2-edge cut shows as a
    one-bit cover or as two equal covers) and random cubic graphs up to
    n = 24."""
    import random

    rng = random.Random(0)
    kappas = collections.Counter()
    graphs = [g for n in sorted(corpus) for g in corpus[n]] + list(corpus12)
    for g in list(graphs):
        label = rng.sample(range(g.n), g.n)
        graphs.append(Graph(g.n, [(label[u], label[v]) for u, v in g.edges]))
    graphs += [random_cubic(n, seed) for n in range(4, 25, 2) for seed in range(6)]
    for g in graphs:
        got = [connectivity_at_least(g, k) for k in (1, 2, 3)]
        assert got == [oracles.connectivity_at_least_naive(g, k) for k in (1, 2, 3)], g.edges
        kappas[sum(got)] += 1
    for g in (oracles.two_k4_minus_edge_bridge(), oracles.petersen(), oracles.k33()):
        for k in (1, 2, 3):
            assert connectivity_at_least(g, k) == oracles.connectivity_at_least_naive(g, k)
    assert min(kappas[k] for k in (1, 2, 3)) >= 5, kappas


def test_connectivity_gate_errors():
    with pytest.raises(ValueError, match="k must be 1, 2 or 3, got 4"):
        connectivity_at_least(oracles.k4(), 4)
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="k must be 1, 2 or 3, got 0"):
        connectivity_at_least(triangle, 0)
    with pytest.raises(ValueError, match="^graph is not cubic$"):
        connectivity_at_least(triangle, 3)
