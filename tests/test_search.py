import itertools

import pytest

import oracles
from chordlab import kernels
from chordlab.generate import random_cubic
from chordlab.graphs import Graph
from chordlab.search import (
    Cycle,
    Path,
    chords,
    cycle_problem,
    hamilton_cycles,
    internal_bound_vertices,
    longest_cycles,
    longest_xy_paths,
)
from chordlab.second_cycle import build_support_graph
from chordlab.verify import verify_chords
from helpers import gen_lemma_instance


def test_k4_adjacent_pair():
    rep = longest_xy_paths(oracles.k4(), 0, 1)
    assert rep.max_length == 3
    assert {w.vertices for w in rep.witnesses} == {(0, 2, 3, 1), (0, 3, 2, 1)}


def test_triangle_pair():
    rep = longest_xy_paths(oracles.cycle_graph(3), 0, 1)
    assert rep.max_length == 2
    assert rep.witnesses == (Path((0, 2, 1)),)


def test_petersen_adjacent_pair():
    rep = longest_xy_paths(oracles.petersen(), 0, 1)
    # a Hamilton (0,1)-path would close into a Hamilton cycle, which this
    # graph lacks; a 9-cycle through the edge exists
    assert rep.max_length == 8


def test_longest_xy_matches_naive_oracle_on_zoo():
    k4_edges = oracles.k4().edges
    k5 = Graph(5, list(itertools.combinations(range(5), 2)))  # degree 4
    two_k4 = Graph(8, [*k4_edges, *((u + 4, v + 4) for u, v in k4_edges)])  # disconnected
    zoo = [oracles.k4(), oracles.k33(), oracles.prism(),
           oracles.cycle_graph(6), oracles.two_k4_minus_edge_bridge(), k5, two_k4]
    unreachable = 0
    for g in zoo:
        adj = g.masks
        for x in range(g.n):
            for y in range(x + 1, g.n):
                best, wits = oracles.longest_xy_naive(g, x, y)
                if best == 0:
                    unreachable += 1
                    assert kernels.longest_xy_length(adj, g.n, x, y) == 0
                    assert kernels.xy_paths_of_length(adj, g.n, x, y, None) == []
                    with pytest.raises(ValueError, match="path exists"):
                        longest_xy_paths(g, x, y)
                    continue
                rep = longest_xy_paths(g, x, y)
                assert rep.max_length == best
                assert sorted(w.vertices for w in rep.witnesses) == wits
    assert unreachable == 16  # the pairs across the two K4s


@pytest.mark.parametrize("x, y, message", (
    (0, 4, "endpoint out of range: 0,4"),
    (-1, 2, "endpoint out of range: -1,2"),
    (2, 2, "endpoints must differ"),
), ids=("y-is-n", "x-negative", "same-vertex"))
def test_longest_xy_refuses_bad_endpoints(x, y, message):
    with pytest.raises(ValueError) as exc:
        longest_xy_paths(oracles.k4(), x, y)
    assert str(exc.value) == message


def test_witnesses_are_valid_paths():
    g = oracles.petersen()
    rep = longest_xy_paths(g, 0, 7)
    for w in rep.witnesses:
        w.validate(g)
        assert (w.x, w.y) == (0, 7)


def test_bound_vertices_spanning_path():
    rep = longest_xy_paths(oracles.k4(), 0, 1)
    for w, b in zip(rep.witnesses, rep.bound_sets):
        assert b == frozenset(w.interior())


def test_bound_vertices_k33_example():
    # parts {0,1,2} / {3,4,5}: path x-c-a-y = 0-4-1-3 has no bound interior
    g = oracles.k33()
    assert internal_bound_vertices(g, Path((0, 4, 1, 3))) == frozenset()


def test_bound_vertices_petersen_adjacent():
    g = oracles.petersen()
    rep = longest_xy_paths(g, 0, 1)
    assert all(len(b) >= 2 for b in rep.bound_sets)


def test_longest_cycles_k4():
    cycles = longest_cycles(oracles.k4())
    assert [c.length for c in cycles] == [4, 4, 4]


def test_no_hamilton_cycle_below_three_vertices():
    """The cycle walk closes no row on fewer than three vertices, an edge
    included."""
    for g in (Graph(0, []), Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])):
        assert hamilton_cycles(g) == []
    assert hamilton_cycles(oracles.cycle_graph(3)) == [Cycle((0, 1, 2))]


def test_longest_cycles_self():
    g = oracles.cycle_graph(5)
    assert longest_cycles(g) == [Cycle((0, 1, 2, 3, 4))]


def test_longest_cycles_petersen():
    cycles = longest_cycles(oracles.petersen())
    assert cycles[0].length == 9


def test_longest_cycles_acyclic_errors():
    with pytest.raises(ValueError):
        longest_cycles(oracles.path_graph(4))


def test_cycles_match_naive_oracle_on_zoo():
    for g in (oracles.k4(), oracles.k33(), oracles.prism(), oracles.cycle_graph(7)):
        best, naive = oracles.longest_cycles_naive(g)
        got = longest_cycles(g)
        assert got[0].length == best
        assert sorted(c.vertices for c in got) == naive


def test_chords_counts():
    k4 = oracles.k4()
    for c in longest_cycles(k4):
        assert len(chords(k4, c)) == 2
    c5 = oracles.cycle_graph(5)
    assert chords(c5, longest_cycles(c5)[0]) == frozenset()
    pet = oracles.petersen()
    for c in longest_cycles(pet):
        assert len(chords(pet, c)) == 3


def test_chords_disjoint_from_cycle():
    g = oracles.prism()
    c = longest_cycles(g)[0]
    ch = chords(g, c)
    assert not (ch & c.edge_set())
    assert all(u in set(c.vertices) and v in set(c.vertices) for u, v in ch)


def test_spanning_cycle_chord_count_formula(corpus):
    for n, graphs in corpus.items():
        for g in graphs:
            hams = hamilton_cycles(g)
            for c in hams[:2]:
                assert len(chords(g, c)) == 3 * n // 2 - n


def test_hamilton_counts():
    assert len(hamilton_cycles(oracles.k4())) == 3
    assert len(hamilton_cycles(oracles.petersen())) == 0
    assert len(hamilton_cycles(oracles.cycle_graph(6))) == 1


def test_hamilton_matches_naive():
    for g in (oracles.k4(), oracles.k33(), oracles.prism()):
        assert [c.vertices for c in hamilton_cycles(g)] == oracles.hamilton_cycles_naive(g)
    # the Hamilton search runs on lemma support graphs, which are not cubic;
    # they reach n = 14, past the permutation oracle, so the DFS one checks them
    for k in (2, 3, 4):
        for seed in range(6):
            g = build_support_graph(gen_lemma_instance(k, seed))
            adj = {v: set(g.neighbors(v)) for v in range(g.n)}
            want = sorted(c for c in oracles.all_cycles_small(adj) if len(c) == g.n)
            assert [c.vertices for c in hamilton_cycles(g)] == want, (k, seed)


def test_hamilton_through_edge():
    def through(g, e):
        return sum(1 for c in hamilton_cycles(g) if e in c.edge_set())

    k4 = oracles.k4()
    for e in k4.edges:
        assert through(k4, e) == 2
    assert through(oracles.petersen(), (0, 1)) == 0
    c6 = oracles.cycle_graph(6)
    assert through(c6, (0, 1)) == 1
    assert through(c6, (0, 2)) == 0  # not an edge


def test_cycle_canonical_form():
    assert Cycle((2, 1, 0, 3)).vertices == Cycle((0, 1, 2, 3)).vertices == (0, 1, 2, 3)
    assert Cycle((0, 3, 2, 1)).vertices == (0, 1, 2, 3)


def test_chords_match_edge_scan(corpus):
    """`chords` reads each cycle vertex's mask and gives the set that the
    earlier scan of ``g.edges`` gives, on every cycle of the n <= 8
    corpus and on the longest cycles of random cubic graphs of order
    14 to 20."""
    cases = []
    for n in (4, 6, 8):
        for g in corpus[n]:
            adj = {v: set(g.neighbors(v)) for v in range(g.n)}
            cases += [(g, Cycle(c)) for c in oracles.all_cycles_small(adj)]
    for n in (14, 16, 18, 20):
        for seed in range(5):
            g = random_cubic(n, seed)
            cases += [(g, c) for c in longest_cycles(g)]
    sizes = set()
    for g, c in cases:
        got = chords(g, c)
        assert got == oracles.chords_reference(g, c), (g, c.vertices)
        sizes.add(len(got))
    assert {0, 1, 2, 3} <= sizes


# vertex sequence, the pairs a cycle check adds, then the messages of
# Path.validate and of Cycle.validate (of cycle_problem, with added pairs)
# on oracles.k33(), whose sides are 0,1,2 and 3,4,5
WALKS = {
    "valid": ((0, 3, 1, 4), (), None, None),
    "non-edge": ((0, 2, 3, 4), (), "(0,2) is not an edge", "(0,2) is not an edge"),
    "repeated-vertex": ((0, 3, 1, 3), (), "repeated vertex in path", "repeated vertex in cycle"),
    "vertex-n": ((0, 3, 6, 4), (), "vertex out of range in path: 3,6",
                 "vertex out of range in cycle: 3,6"),
    "minus-one-first": ((-1, 3, 1, 4), (), "vertex out of range in path: -1,3",
                        "vertex out of range in cycle: -1,3"),
    # the cycle starts at its least vertex, -1
    "minus-one-inside": ((0, 3, -1, 4), (), "vertex out of range in path: 3,-1",
                         "vertex out of range in cycle: -1,3"),
    "one-vertex": ((0,), (), "path needs at least two vertices",
                   "cycle needs at least three vertices"),
    # a path takes no extra edges
    "extra-edge": ((0, 1, 3), ((1, 0),), "(0,1) is not an edge", None),
    # past a failed range test the first bad pair is named, in walk order
    "non-edge-then-vertex-n": ((0, 1, 9, 3), (), "(0,1) is not an edge", "(0,1) is not an edge"),
}


@pytest.mark.parametrize("closed", (False, True), ids=("path", "cycle"))
@pytest.mark.parametrize("vs, extra, path_msg, cycle_msg", WALKS.values(), ids=WALKS)
def test_validate_matches_naive_check(vs, extra, path_msg, cycle_msg, closed):
    """Path.validate, Cycle.validate and cycle_problem name a bad walk as
    the set- and has_edge-based oracle does, out-of-range cycle vertices
    included; a cycle that repeats a vertex is refused when it is built,
    with the same message."""
    g = oracles.k33()
    try:
        if extra and closed:
            # only the extender's checks add pairs, through cycle_problem
            got = cycle_problem(g, vs, extra)
        else:
            Cycle(vs).validate(g) if closed else Path(vs).validate(g)
            got = None
    except ValueError as exc:
        got = str(exc)
    if closed and len(vs) >= 3 and len(set(vs)) == len(vs):
        vs = Cycle(vs).vertices  # the order Cycle.validate walks
    want = oracles.walk_problem_reference(g, vs, closed, extra if closed else ())
    assert got == want == (cycle_msg if closed else path_msg)


# ---------------------------------------------------------------------------
# mutation checks: a malformed kernel row must not reach a report


def _swap_second_third(row):
    # on a triangle-free graph the first and third vertices of a path are
    # not adjacent, so the swap always puts a non-edge on the cycle
    return (row[0], row[2], row[1]) + row[3:]


def _repeat_second(row):
    return row[:-1] + (row[1],)


MUTATIONS = pytest.mark.parametrize(
    "mutate, message",
    ((_swap_second_third, "is not an edge"), (_repeat_second, "repeated vertex")),
    ids=("non-edge", "repeated-vertex"),
)


def _patch_first_row(monkeypatch, name, mutate):
    real = getattr(kernels, name)

    def mutated(*args):
        rows = real(*args)
        return [mutate(rows[0])] + rows[1:]

    monkeypatch.setattr(kernels, name, mutated)


@MUTATIONS
def test_mutated_cycle_rows_are_caught(monkeypatch, mutate, message):
    g = oracles.k33()  # triangle-free and 3-connected
    _patch_first_row(monkeypatch, "cycles_of_length", mutate)
    with pytest.raises(ValueError, match=message):
        longest_cycles(g)
    with pytest.raises(ValueError, match=message):
        verify_chords(g)


@MUTATIONS
def test_mutated_hamilton_rows_are_caught(monkeypatch, mutate, message):
    g = oracles.k33()
    _patch_first_row(monkeypatch, "hamilton_cycle_rows", mutate)
    with pytest.raises(ValueError, match=message):
        hamilton_cycles(g)
