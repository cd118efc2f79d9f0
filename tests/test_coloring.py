import pytest

from chordlab.coloring import pick_color_class, three_color_cycle_plus
from chordlab.errors import InvariantViolation
from chordlab.graphs import Graph
from chordlab.search import Cycle


def _proper(g, coloring):
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def _proper_exhaustive(g):
    """Backtracking-free oracle: try every assignment (tiny graphs)."""
    import itertools

    for assign in itertools.product((1, 2, 3), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges):
            return assign
    return None


def test_color_path_closing_on_cycle_edge():
    # 5-cycle + chords 02, 24: the off-cycle path 0-2-4 closes on the
    # cycle edge 04, the shape of an extender ring whose triangle shares
    # an edge with the ring
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (2, 4)])
    col = three_color_cycle_plus(g, Cycle((0, 1, 2, 3, 4)))
    assert _proper(g, col)
    assert {col[0], col[2], col[4]} == {1, 2, 3}


def test_color_rejects_bad_shape():
    # a path of order 4 off the cycle
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 2), (2, 4), (4, 6)])
    with pytest.raises(ValueError, match=r"off-cycle component \[0, 2, 4, 6\]"):
        three_color_cycle_plus(g, Cycle(tuple(range(8))))


def test_color_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    col = three_color_cycle_plus(g, Cycle((0, 1, 2)))
    assert sorted(col.values()) == [1, 2, 3]


def test_color_hexagon_plus_triangle():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (2, 4), (0, 4)])
    col = three_color_cycle_plus(g, Cycle(tuple(range(6))))
    assert _proper(g, col)
    assert {col[0], col[2], col[4]} == {1, 2, 3}


def test_color_matches_exhaustive_feasibility():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (2, 4)])
    assert _proper_exhaustive(g) is not None
    col = three_color_cycle_plus(g, Cycle(tuple(range(6))))
    assert _proper(g, col)


def test_pick_class_empty_forbidden_takes_lowest():
    coloring = {0: 1, 1: 2, 2: 3, 3: 1}
    a, _ = pick_color_class(coloring)
    assert a == {0, 3}


def test_pick_class_avoids_forbidden():
    coloring = {0: 1, 1: 2, 2: 3, 3: 3}
    a, _ = pick_color_class(coloring, forbidden={0, 1})
    assert a == {2, 3}


def test_pick_class_relabels_triangles():
    coloring = {0: 1, 1: 2, 2: 3, 3: 2, 4: 3, 5: 1}
    a, relabeled = pick_color_class(coloring, forbidden={1}, triangles=[(0, 1, 2), (3, 4, 5)])
    assert a == {0, 5}
    for (u, v, w) in relabeled:
        assert w in a and u < v and u not in a and v not in a


def test_pick_class_rejects_nonrainbow_triangle():
    coloring = {0: 1, 1: 1, 2: 2}
    with pytest.raises(InvariantViolation, match="^coloring: triangle"):
        pick_color_class(coloring, triangles=[(0, 1, 2)])


def test_pick_class_limit_on_forbidden():
    with pytest.raises(ValueError):
        pick_color_class({0: 1}, forbidden={1, 2, 3})
