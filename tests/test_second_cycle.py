import dataclasses

import pytest

from chordlab import second_cycle
from chordlab.errors import InvariantViolation
from chordlab.graphs import Graph
from chordlab.search import Cycle, hamilton_cycles
from chordlab.second_cycle import LemmaInstance, build_support_graph, second_hamilton_cycle
from helpers import gen_lemma_instance, long_lemma_instance
from oracles import verify_parity_lemma


def spec_instance():
    """Six vertices around a cycle: 0,2,3,5 off the chosen set {1,4},
    arcs (2,3) and (5,0), chords (2,4) and (3,1)."""
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 4), (1, 3)])
    return LemmaInstance(
        g=g,
        cycle=Cycle((0, 1, 2, 3, 4, 5)),
        a_set=frozenset({1, 4}),
        components=((2, 3), (5, 0)),
    ).check()


def _edges_off(cycle, drop):
    return {e for e in cycle.edge_pairs() if e[0] not in drop and e[1] not in drop}


def test_support_graph_designations():
    inst = spec_instance()
    g1 = build_support_graph(inst)
    assert set(g1.edges) - set(inst.cycle.edge_pairs()) == {(1, 3), (2, 4)}
    assert g1.m == 8


def test_parity_spec_instance():
    inst = spec_instance()
    g1 = build_support_graph(inst)
    rep = verify_parity_lemma(g1, inst.a_set)
    assert rep.all_even and rep.preserved
    counts = dict(rep.checked_edges)
    # both cycle edges at the distinguished arc's endpoints carry an even
    # count >= 2: the base cycle and the exchanged one
    assert counts[(0, 1)] == 2
    assert counts[(4, 5)] == 2


def test_parity_zero_count_is_even():
    # a checked edge lying on no Hamilton cycle counts zero, which is
    # even: C8 with A = {1, 5}, arcs (2,3,4) and (6,7,0), designated
    # chords (2,5) and (4,1), plus a dead chord (6,1) at a distinguished
    # endpoint; (6,7,0) is distinguished because its endpoint 0 has degree 2
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(2, 5), (4, 1), (6, 1)])
    rep = verify_parity_lemma(g, {1, 5})
    assert rep.distinguished == (0, 6, 7)
    assert rep.all_even
    counts = dict(rep.checked_edges)
    assert counts[(1, 6)] == 0
    assert counts[(0, 1)] == counts[(5, 6)] == 2


def test_parity_rejects_wrong_component_count():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ValueError):
        verify_parity_lemma(g, {0})


def test_parity_many_instances():
    for seed in range(100):
        k = 2 + seed % 3
        inst = gen_lemma_instance(k, seed)
        g1 = build_support_graph(inst)
        rep = verify_parity_lemma(g1, inst.a_set)
        assert rep.all_even, (k, seed, rep.checked_edges)
        assert rep.preserved


def test_second_cycle_spec_instance():
    inst = spec_instance()
    cert = second_hamilton_cycle(inst, x=5, y=4)
    assert cert.c_prime.vertices == (0, 1, 3, 2, 4, 5)
    assert cert.exchange_vertex == 1


def test_second_cycle_above_graph6_short_form():
    """The search kernels take any vertex count: on the 70-vertex
    instance the certificate is the support graph's one other Hamilton
    cycle, through both chords, turning at 0."""
    inst = long_lemma_instance()
    cert = second_hamilton_cycle(inst, x=69, y=0)
    assert cert.c_prime.vertices == (0, *range(29, 0, -1), *range(30, 70))
    assert cert.exchange_vertex == 0


def test_second_cycle_differs_from_base():
    for seed in range(30):
        inst = gen_lemma_instance(2, seed)
        x, y = _designated_edge(inst)
        cert = second_hamilton_cycle(inst, x, y)
        assert cert.c_prime != inst.cycle


def _designated_edge(inst):
    last = inst.components[-1]
    x = last[0]
    vs = inst.cycle.vertices
    i = vs.index(x)
    inside = set(zip(last, last[1:]))
    for cand in (vs[i - 1], vs[(i + 1) % len(vs)]):
        key = tuple(sorted((x, cand)))
        if key not in {tuple(sorted(e)) for e in inside}:
            return x, cand
    raise AssertionError


def test_second_cycle_certificates_property_run():
    for k in range(2, 7):
        for seed in range(300):
            inst = gen_lemma_instance(k, seed)
            x, y = _designated_edge(inst)
            key = (min(x, y), max(x, y))
            cert = second_hamilton_cycle(inst, x, y)
            c1 = cert.c_prime
            c1.validate(inst.g)
            assert c1.length == inst.g.n
            assert key in c1.edge_set()
            assert _edges_off(c1, inst.a_set) == _edges_off(inst.cycle, inst.a_set)
            incident = [e for e in c1.edge_pairs() if cert.exchange_vertex in e]
            base = inst.cycle.edge_set()
            assert sum(1 for e in incident if e in base) == 1
            # the certificate has the largest overlap among the candidates
            g1 = build_support_graph(inst)
            assert len(c1.edge_set() & base) == max(
                len(h.edge_set() & base)
                for h in hamilton_cycles(g1)
                if h != inst.cycle and key in h.edge_set()
            ), (k, seed)


def test_second_cycle_maximizes_overlap():
    inst = spec_instance()
    cert = second_hamilton_cycle(inst, 5, 4)
    base = inst.cycle.edge_set()
    got = len(cert.c_prime.edge_set() & base)
    g1 = build_support_graph(inst)
    key = (4, 5)
    best = max(
        len(h.edge_set() & base)
        for h in hamilton_cycles(g1)
        if h != inst.cycle and key in h.edge_set()
    )
    assert got == best


def test_missing_turning_vertex_is_an_internal_error(monkeypatch):
    """A maximum-overlap candidate without a turning vertex cannot be
    repaired by an exchange, so it is a failed invariant of the
    second-cycle step."""
    monkeypatch.setattr(
        second_cycle, "_satisfies_turning_condition", lambda *args: None
    )
    with pytest.raises(InvariantViolation) as exc:
        second_hamilton_cycle(spec_instance(), x=5, y=4)
    assert exc.value.step == "second-cycle"


def test_second_cycle_validates_inputs():
    inst = spec_instance()
    with pytest.raises(ValueError):
        second_hamilton_cycle(inst, x=2, y=3)  # not an endpoint of the last arc
    with pytest.raises(ValueError):
        second_hamilton_cycle(inst, x=5, y=2)  # not a cycle edge


def test_second_cycle_refuses_an_edge_inside_the_last_arc():
    """The spec instance's distinguished arc is (5, 0): its own edge
    cannot be the designated one."""
    with pytest.raises(ValueError) as exc:
        second_hamilton_cycle(spec_instance(), x=5, y=0)
    assert str(exc.value) == "(5,0) lies inside the distinguished arc"


def test_bad_lemma_instance_is_an_internal_error():
    """A hypothesis clause that fails is a failed invariant that names the
    clause, not a bare AssertionError that escapes the command line's
    handlers."""
    inst = spec_instance()
    bad = LemmaInstance(
        g=inst.g, cycle=inst.cycle, a_set=frozenset({0, 1}), components=inst.components
    )
    with pytest.raises(InvariantViolation, match="^lemma-instance: A is not independent on C$"):
        second_hamilton_cycle(bad, x=5, y=4)


@pytest.mark.parametrize("cycle, components, clause", [
    ((1, 2, 3), ((2, 3), (5, 0)), "cycle is not Hamilton"),
    (None, ((2, 3),), "arc count differs from |A|"),
    (None, ((0, 3), (2, 5)), "arc is not a path"),
    (None, ((2, 3), (5,)), "arcs and A do not partition the vertices"),
    (None, ((5, 0), (2, 3)), "endpoint 5 of a non-final arc has no chord to A"),
], ids=("short-cycle", "arc-count", "arc-not-path", "not-a-partition", "no-chord"))
def test_each_lemma_clause_is_an_internal_error(cycle, components, clause):
    """Each hypothesis clause, broken alone in the spec instance, fails
    with its own message in the lemma-instance stage."""
    inst = spec_instance()
    bad = LemmaInstance(
        g=inst.g,
        cycle=Cycle(cycle) if cycle else inst.cycle,
        a_set=inst.a_set,
        components=components,
    )
    with pytest.raises(InvariantViolation) as exc:
        second_hamilton_cycle(bad, x=5, y=4)
    assert exc.value.step == "lemma-instance"
    assert str(exc.value) == f"lemma-instance: {clause}"


def test_an_arc_that_repeats_a_vertex_is_no_partition():
    """The arcs and A of a seeded instance cover every vertex, and its
    last arc (8, 9) stays a walk along cycle edges as (8, 9, 8); it then
    holds 8 twice, so the arcs and A do not partition the vertices."""
    inst = gen_lemma_instance(3, 1)
    assert inst.components[-1] == (8, 9)
    bad = dataclasses.replace(inst, components=inst.components[:-1] + ((8, 9, 8),))
    with pytest.raises(InvariantViolation) as exc:
        bad.check()
    assert exc.value.step == "lemma-instance"
    assert str(exc.value) == "lemma-instance: arcs and A do not partition the vertices"


@pytest.mark.parametrize("found, detail", [
    ((0, 1, 2, 3, 4, 5), "no second Hamilton cycle through (5,4)"),
    ((0, 2, 1, 3, 4, 5), "a support-graph Hamilton cycle moved off A"),
], ids=("only-the-base", "moved-off-a"))
def test_bad_support_cycles_are_an_internal_error(monkeypatch, found, detail):
    """The parity lemma guarantees a second Hamilton cycle through xy, and
    every Hamilton cycle of the support graph agrees with the instance
    cycle off A.  A search that finds only the base cycle, or a candidate
    that swaps the arc edge (2,3) for (0,2), is a failed invariant."""
    monkeypatch.setattr(second_cycle, "hamilton_cycles", lambda g: [Cycle(found)])
    with pytest.raises(InvariantViolation) as exc:
        second_hamilton_cycle(spec_instance(), x=5, y=4)
    assert exc.value.step == "second-cycle"
    assert str(exc.value) == f"second-cycle: {detail}"
