import hashlib
import os
import random
from collections import Counter
from dataclasses import asdict

import pytest

import helpers
import oracles
from chordlab import extender, kernels, search
from chordlab.errors import InvariantViolation
from chordlab.extender import (
    BLUE,
    EXTENDABLE,
    HAS_BOUND_VERTEX,
    BlueSubpathStats,
    ExtensionTrace,
    SPANNING_PATH,
    MultiCycle,
    RED,
    ReducedGraph,
    build_reduced_G2,
    compute_stats,
    extend_path,
    extend_path_adjacent,
    find_direct_extension,
    find_odd_cover_cycle,
    lift_to_host,
    matching_step,
    precheck,
    _attached_components,
    _path_from_cycle,
    _through_component,
)
from chordlab.generate import random_cubic, random_simple_path
from chordlab.graphs import (
    Graph, components_after_deletion, connectivity_at_least, vertex_bits, vertex_mask,
)
from chordlab.search import Cycle, Path, internal_bound_vertices, longest_xy_paths
from chordlab.second_cycle import build_support_graph
from chordlab.verify import verify_chords, verify_zhan


# ---------------------------------------------------------------------------
# precheck


def test_precheck_spanning():
    assert precheck(oracles.k4(), Path((0, 2, 3, 1))).kind == SPANNING_PATH


def test_precheck_extendable_k33():
    cls = precheck(oracles.k33(), Path((0, 4, 1, 3)))
    assert cls.kind == EXTENDABLE and not cls.bound


def test_precheck_bound_on_petersen():
    g = oracles.petersen()
    w = longest_xy_paths(g, 0, 1).witnesses[0]
    cls = precheck(g, w)
    assert cls.kind == HAS_BOUND_VERTEX and len(cls.bound) >= 2


def test_precheck_gates():
    with pytest.raises(ValueError, match="cubic"):
        precheck(oracles.cycle_graph(5), Path((0, 1)))
    g = Graph(8, oracles.two_k4_minus_edge_bridge().edges)
    assert precheck(g, Path((2, 0, 4, 6))).kind  # 2-connected is enough
    tree_ish = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert precheck(tree_ish, Path((0, 1))).kind  # K4 again, fine


# ---------------------------------------------------------------------------
# one classification and one walk per extension step


def _spy_checks(monkeypatch):
    """Record each path that `precheck` scans for bound vertices
    (`extender.internal_bound_vertices`) and each walk that
    `walk_problem` makes, as (vertices, closed)."""
    scanned, walked = [], []
    real_scan, real_walk = extender.internal_bound_vertices, search.walk_problem

    def scan_spy(g, p):
        scanned.append(p.vertices)
        return real_scan(g, p)

    def walk_spy(masks, vs, closed=False):
        walked.append((tuple(vs), closed))
        return real_walk(masks, vs, closed)

    monkeypatch.setattr(extender, "internal_bound_vertices", scan_spy)
    monkeypatch.setattr(search, "walk_problem", walk_spy)
    return scanned, walked


def test_fixpoint_steps_classify_and_walk_once(monkeypatch, corpus):
    """Run every extendable path of the n <= 10 census to its fixpoint,
    each from a path object that no `precheck` has seen.  Each path is
    scanned and walked once: a start path by its first `precheck`, and a
    path made by a step by `_finish`'s `precheck`, whose result the next
    step's two `precheck` calls read."""
    starts = [
        (g, p.vertices)
        for n in (4, 6, 8, 10)
        for g in corpus[n]
        if connectivity_at_least(g, 2)
        for p in map(Path, helpers.directed_paths(g))
        if precheck(g, p).kind == EXTENDABLE
    ]
    scanned, walked = _spy_checks(monkeypatch)
    steps = 0
    for g, vs in starts:
        p = Path(vs)
        while precheck(g, p).kind == EXTENDABLE:
            p, _ = extend_path(g, p)
            steps += 1
    assert len(starts) == 9736 and steps > len(starts)
    assert len(scanned) == steps + len(starts)
    assert len([vs for vs, closed in walked if not closed]) == steps + len(starts)


def test_extend_path_reclassifies_other_objects(monkeypatch):
    """The stored classification is read only for the very path object
    that `precheck` classified and the very graph object it was
    classified in; equal copies of either are classified anew, and a
    path holds the result of its last graph alone."""
    g, p = oracles.k33(), Path((0, 4, 1, 3))
    scanned, _ = _spy_checks(monkeypatch)
    precheck(g, p)
    longer, _ = extend_path(g, p)
    step = [p.vertices, longer.vertices]  # the second in `_finish`
    assert scanned == step
    extend_path(g, Path(p.vertices))
    assert scanned == step * 2
    extend_path(Graph(g.n, g.edges), p)
    precheck(g, p)
    assert scanned == step * 3 + [p.vertices]


def test_a_refused_precheck_stores_nothing():
    """After `precheck` refuses a non-cubic host, `extend_path` on the same
    objects refuses it too, though a good pair was classified before."""
    g, p = oracles.cycle_graph(6), Path((0, 1, 2))
    extender.precheck(oracles.k33(), Path((0, 4, 1, 3)))
    for call in (extender.precheck, extend_path):
        with pytest.raises(ValueError) as exc:
            call(g, p)
        assert str(exc.value) == "host graph is not cubic"


def test_a_classified_path_is_walked_in_other_graphs(monkeypatch):
    """`_finish` classifies its path in its own graph object only: an
    equal copy of the graph walks it again, and a graph that lacks one of
    its edges refuses it."""
    g = oracles.k33()
    longer, _ = extend_path(g, Path((0, 4, 1, 3)))
    assert longer._class_in[0] is g
    _, walked = _spy_checks(monkeypatch)
    precheck(g, longer)
    assert walked == []
    precheck(Graph(g.n, g.edges), longer)
    assert walked == [(longer.vertices, False)]
    a, b = sorted(longer.vertices[:2])
    other = Graph(g.n, [e for e in g.edges if e != (a, b)])
    with pytest.raises(ValueError) as exc:
        internal_bound_vertices(other, longer)
    assert str(exc.value) == f"({longer.x},{longer.vertices[1]}) is not an edge"


def test_the_slot_is_not_a_field():
    """A classified path compares, hashes, prints and converts as an
    unclassified path with the same vertices."""
    g = oracles.k33()
    longer, _ = extend_path(g, Path((0, 4, 1, 3)))
    plain = Path(longer.vertices)
    assert longer._class_in[0] is g and plain._class_in == (None, None)
    assert longer == plain and hash(longer) == hash(plain)
    assert repr(longer) == repr(plain) == f"Path(vertices={plain.vertices})"
    assert asdict(longer) == asdict(plain) == {"vertices": plain.vertices}


def test_adjacent_walks_its_input_once(monkeypatch):
    """`extend_path_adjacent` walks its input once, as a path: that walk
    and the edge xy make the closing cycle a cycle of g, so its chord
    scan walks nothing."""
    g, p = helpers.gen_adjacent_config(1)
    _, walked = _spy_checks(monkeypatch)
    extend_path_adjacent(g, p)
    assert [w for w in walked if sorted(w[0]) == sorted(p.vertices)] == [(p.vertices, False)]
    assert len(walked) == 8


def test_adjacent_flipped_output_keeps_its_classification(monkeypatch):
    """With the chord at y, `extend_path_adjacent` flips its input and
    `_finish` reverses the output back: the reversed path keeps the
    classification `_finish` made, so a `precheck` of it walks nothing."""
    g, p = helpers.gen_adjacent_config(1)
    longer, _ = extend_path_adjacent(g, p.reversed())
    assert longer.x == p.y and longer._class_in[0] is g
    _, walked = _spy_checks(monkeypatch)
    cls = precheck(g, longer)
    assert walked == []
    assert cls == precheck(g, Path(longer.vertices))


# ---------------------------------------------------------------------------
# direct extension


def test_direct_extension_k33():
    g = oracles.k33()
    p = Path((0, 4, 1, 3))
    longer, cert = find_direct_extension(g, p, _attached_components(g, p.vertices))
    assert cert is None
    longer.validate(g)
    assert longer.length >= 4


def test_direct_extension_certificate_branch():
    g, p = helpers.figure_host()
    longer, cert = find_direct_extension(g, p, _attached_components(g, p.vertices))
    assert longer is None
    # the lowest interior-only component: the block attached to {1, 8}
    assert vertex_bits(cert) == [14, 15, 16, 17]


def test_direct_extension_branch_matches_predicate():
    """The branch taken mirrors an independently computed predicate:
    a spliced path appears exactly when every off-path component
    touches an endpoint neighborhood.  The splice comes back unchecked,
    so each one is checked here: a longer path with p's endpoints."""
    checked = 0
    for seed in range(400):
        r = helpers.gen_extendable_host(seed)
        if r is None:
            continue
        g, p = r
        comps = components_after_deletion(g, set(p.vertices))
        on_path = set(p.vertices)
        all_touch = all(
            any(w in (p.x, p.y) for v in vertex_bits(comp) for w in g.neighbors(v) if w in on_path)
            for comp in comps
        )
        longer, cert = find_direct_extension(g, p, _attached_components(g, on_path))
        assert (longer is not None) == all_touch
        assert (cert is not None) == (not all_touch)
        if longer is not None:
            longer.validate(g)
            assert (longer.x, longer.y) == (p.x, p.y) and longer.length > p.length
        checked += 1
        if checked >= 200:
            break
    assert checked >= 200


# ---------------------------------------------------------------------------
# component routing against the all-paths enumerator


def _routing_cases():
    """(g, a, b, comp) over the off-path components of random start paths
    in random cubic hosts: every ordered pair of attachments, and the
    matching-step shape with a inside comp and b taken out of it."""
    for n in range(8, 25, 2):
        for seed in range(3):
            g = random_cubic(n, seed)
            for start in range(3):
                p = random_simple_path(g, 100 * seed + start)
                on_path = set(p.vertices)
                for mask in components_after_deletion(g, on_path):
                    comp = set(vertex_bits(mask))
                    if len(comp) > 14:
                        continue
                    attach = sorted({w for v in comp for w in g.neighbors(v) if w in on_path})
                    for a in attach:
                        for b in attach:
                            if a != b:
                                yield g, a, b, comp
                    for a in sorted(comp):
                        for b in sorted(comp | set(attach)):
                            if a != b:
                                yield g, a, b, comp - {b}


def test_through_component_matches_enumerator():
    found = missing = 0
    for g, a, b, comp in _routing_cases():
        for min_len in (1, 2, 3):
            want = oracles.through_component_naive(g, a, b, comp, min_len)
            got = _through_component(g, a, b, vertex_mask(comp), min_len)
            assert (got and got.vertices) == want, (g.edges, a, b, sorted(comp), min_len)
            found += want is not None
            missing += want is None
    assert found > 5000 and missing > 100


def test_through_component_small_cases():
    g = oracles.k33()  # 0,1,2 | 3,4,5
    inside = vertex_mask({1, 2, 4, 5})
    assert _through_component(g, 0, 3, inside, 1).vertices == (0, 3)
    # bipartite: no route of length 2, so min_len 2 and 3 both give 3
    assert _through_component(g, 0, 3, inside, 2).vertices == (0, 4, 1, 3)
    assert _through_component(g, 0, 3, inside, 3).vertices == (0, 4, 1, 3)
    assert _through_component(g, 0, 3, 1 << 4, 2) is None
    assert _through_component(g, 0, 1, vertex_mask({3, 4, 5}), 1).vertices == (0, 3, 1)
    assert _through_component(g, 0, 1, 0, 1) is None


# ---------------------------------------------------------------------------
# the mask scans against their earlier set-based bodies


def _scan_cases(corpus, corpus12):
    """(g, p, removed) over the n <= 12 corpus and random cubic graphs with
    n = 14..20: three random simple paths and three random vertex sets per
    graph."""
    graphs = [g for n in sorted(corpus) for g in corpus[n]] + list(corpus12)
    graphs += [random_cubic(n, seed) for n in range(14, 21, 2) for seed in range(5)]
    rng = random.Random(35)
    for g in graphs:
        for _ in range(3):
            p = random_simple_path(g, rng.randrange(2**31))
            yield g, p, rng.sample(range(g.n), rng.randrange(g.n))


def test_mask_scans_match_set_scans(corpus, corpus12):
    """The scans agree with the set bodies, component order included, and
    the blue edges of each contraction come in the stated order: members
    ascending, each member's neighbours ascending."""
    cases = contracted = 0
    for g, p, removed in _scan_cases(corpus, corpus12):
        for dropped in (removed, p.vertices):
            got = components_after_deletion(g, dropped)
            want = oracles.components_after_deletion_reference(g, dropped)
            assert list(got) == [vertex_mask(c) for c in want], (g.edges, dropped)
        attached = oracles.attached_components_reference(g, p.vertices)
        assert _attached_components(g, p.vertices) == [
            (vertex_mask(c), at) for c, at in attached
        ]
        pm = vertex_mask(p.vertices)
        for comp, attach in attached:
            for rep in attach:
                got = extender._contraction_edges(g, vertex_mask(comp), rep, pm)
                assert got == oracles.contraction_edges_reference(g, comp, rep, p.vertices)
                contracted += 1
        assert internal_bound_vertices(g, p) == oracles.internal_bound_vertices_reference(g, p)
        cases += 1
    assert cases == 3 * (112 + 20) and contracted > 1000


def test_through_component_matches_set_body(corpus, corpus12):
    """Every ordered pair of attachments of every off-path component, and
    the matching-step shape with a inside comp and b taken out of it."""
    found = missing = 0
    for g, p, _ in _scan_cases(corpus, corpus12):
        for comp, attach in _attached_components(g, p.vertices):
            pairs = [(a, b, comp) for a in attach for b in attach if a != b]
            pairs += [(a, b, comp & ~(1 << b)) for a in vertex_bits(comp)[:3] for b in attach]
            for a, b, inside in pairs:
                for min_len in (1, 2, 3):
                    got = _through_component(g, a, b, inside, min_len)
                    want = oracles.through_component_reference(
                        g, a, b, vertex_bits(inside), min_len
                    )
                    assert (got and got.vertices) == want, (g.edges, a, b, vertex_bits(inside))
                    found += want is not None
                    missing += want is None
    assert found > 1000 and missing > 100


def test_precheck_chord_scan_matches_set_scan(monkeypatch, corpus, corpus12):
    """With the bound-vertex test out of the way, precheck names the first
    chord exactly as the set scan does, or finds none."""
    monkeypatch.setattr(extender, "internal_bound_vertices", lambda g, p: frozenset())
    named = clear = 0
    for g, p, _ in _scan_cases(corpus, corpus12):
        if len(p) == g.n or not connectivity_at_least(g, 2):
            continue
        want = oracles.precheck_chord_reference(g, p)
        if want is None:
            assert precheck(g, p).kind == EXTENDABLE
            clear += 1
            continue
        with pytest.raises(InvariantViolation) as info:
            precheck(g, p)
        assert info.value.step == "precheck"
        assert str(info.value) == (
            f"precheck: chord ({want[0]},{want[1]}) on a path without internal bound vertices"
        )
        named += 1
    assert named > 100 and clear > 20


def test_precheck_refuses_a_bridge():
    """Two K4s, each with one edge subdivided, joined by a bridge between
    the subdivision vertices: cubic, but not 2-connected."""
    k4_split = [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = Graph(10, k4_split + [(u + 5, v + 5) for u, v in k4_split] + [(4, 9)])
    with pytest.raises(ValueError) as exc:
        precheck(g, Path((0, 2)))
    assert str(exc.value) == "host graph is not 2-connected"


def test_precheck_chord_check_fires():
    """On the prism, the path 0,1,2,5 has the bound vertex 2; were it not
    found, the chord scan would name (0,2), the first chord in path
    order."""
    g, p = oracles.prism(), Path((0, 1, 2, 5))
    assert precheck(g, p).kind == HAS_BOUND_VERTEX
    fresh = Path(p.vertices)  # p holds its classification
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extender, "internal_bound_vertices", lambda g, p: frozenset())
        with pytest.raises(InvariantViolation) as info:
            precheck(g, fresh)
    assert info.value.step == "precheck"
    assert str(info.value) == "precheck: chord (0,2) on a path without internal bound vertices"
    assert precheck(g, fresh).kind == HAS_BOUND_VERTEX  # the raise kept nothing


def test_component_claim_check_fires():
    """On the prism, the path 3,0,1,2,5 leaves the one component {4},
    which touches both ends, and its second vertex 0 has every neighbour
    on the path: no component can be claimed for it."""
    g, p = oracles.prism(), Path((3, 0, 1, 2, 5))
    comps = _attached_components(g, p.vertices)
    assert comps == [(1 << 4, [1, 3, 5])]
    with pytest.raises(InvariantViolation) as info:
        find_direct_extension(g, p, comps)
    assert info.value.step == "component-claim"
    assert str(info.value) == "component-claim: interior vertex 0 has no off-path edge"


def test_direct_extension_needs_an_interior():
    """On K3,3 the edge path 0,3 leaves one component, {1, 2, 4, 5}, which
    touches both ends: no component is claimed, and a path without an
    interior has no second or next-to-last vertex to splice at."""
    g, p = oracles.k33(), Path((0, 3))
    comps = _attached_components(g, p.vertices)
    assert comps == [(vertex_mask({1, 2, 4, 5}), [0, 3])]
    with pytest.raises(ValueError) as info:
        find_direct_extension(g, p, comps)
    assert str(info.value) == "direct extension needs a path with an interior"


# ---------------------------------------------------------------------------
# reduction (the worked construction figure)


def test_reduction_matches_figure():
    """The figure's one triple component {18, 19, 20, 21} attaches at 2,
    3, 6 and 9.  Its triangle on the first three, 2, 3, 6, is coloured
    with the interior ring 1..9, and the class {2, 4, 8} avoids both
    ring ends; the component is contracted onto 2, the class member,
    which the relabeled triple names last."""
    g, p = helpers.figure_host()
    comp3 = vertex_mask({18, 19, 20, 21})
    comps = _attached_components(g, p.vertices)
    rg, a_set, triples = build_reduced_G2(g, p, comps)
    assert a_set == frozenset({2, 4, 8})
    assert triples == [(comp3, (3, 6, 2))]
    tagged = sorted(
        (tuple(e), t, rg.comps[eid])
        for eid, (e, t) in enumerate(zip(rg.edges, rg.tags)) if t != "black"
    )
    assert tagged == [
        ((0, 5), "red", vertex_mask({11, 12, 13})),
        ((1, 8), "red", vertex_mask({14, 15, 16, 17})),
        ((2, 3), "blue", comp3),
        ((2, 6), "blue", comp3),
        ((2, 9), "blue", comp3),
        ((10, 4), "blue", vertex_mask({22, 23, 24, 25})),
        ((10, 7), "blue", vertex_mask({22, 23, 24, 25})),
    ]
    assert rg.xy == (0, 10) and not g.has_edge(0, 10)
    # the closing cycle is a Hamilton cycle of the reduced graph
    verts = set(rg.adjmap)
    assert sorted(verts) == list(p.vertices)
    assert all(u != v and {u, v} <= verts for u, v in rg.edges)
    assert len(verts) == 11 and len(rg.cycle_eids) == 11


def test_reduction_degree_check_fires():
    """On K3,3 with the path 0,4,1,3, built without its one component,
    the reduced graph is the bare closing cycle, and the interior vertex
    4, which has the off-path neighbour 2, is left with degree 2."""
    g, p = oracles.k33(), Path((0, 4, 1, 3))
    with pytest.raises(InvariantViolation) as info:
        build_reduced_G2(g, p, [])
    assert info.value.step == "reduced-graph"
    assert str(info.value) == "reduced-graph: interior vertex 4 has degree 2"


def test_reduction_independence_check_fires(monkeypatch):
    """On the figure host, whose triple component is coloured, a class
    that also holds 3, the ring neighbour of its member 2, is not
    independent on the closing cycle; the triples stay valid, so every
    interior vertex still reaches degree 3."""
    g, p = helpers.figure_host()
    comps = _attached_components(g, p.vertices)
    real = extender._color_ring

    def widened(*args):
        a_set, chosen, triples = real(*args)
        return a_set | {3}, chosen, triples

    monkeypatch.setattr(extender, "_color_ring", widened)
    with pytest.raises(InvariantViolation) as info:
        build_reduced_G2(g, p, comps)
    assert info.value.step == "reduced-graph"
    assert str(info.value) == "reduced-graph: selected class not independent on the cycle"


def test_reduction_hamilton_cycle_property():
    for seed in range(60):
        r = helpers.gen_extendable_host(seed)
        if r is None:
            continue
        g, p = r
        from chordlab.extender import _adjacent_attachment_splice

        # mirror the pipeline: the reduction only runs once the splice
        # branches have passed
        comps = _attached_components(g, p.vertices)
        direct, cert = find_direct_extension(g, p, comps)
        if direct is not None or _adjacent_attachment_splice(g, p, comps) is not None:
            continue
        rg, _, _ = build_reduced_G2(g, p, comps)
        assert set(rg.cycle_vertices) == set(rg.adjmap)
        reps = {rg.edges[eid][0] for eid, tag in enumerate(rg.tags) if tag == BLUE}
        for v in p.vertices[1:-1]:
            if v in reps:
                assert rg.degree(v) >= 4
            else:
                assert rg.degree(v) == 3


def test_reduction_end_to_end_on_figure_host():
    g, p = helpers.figure_host()
    longer, trace = extend_path(g, p)
    assert longer.length > p.length
    longer.validate(g)


# ---------------------------------------------------------------------------
# odd cover cycle, stats, lift


def _toy_reduced():
    """Path 0..5 closed by xy, with one red chord (1,4)."""
    from chordlab.extender import ReducedGraph, RED

    rg = ReducedGraph(tuple(range(6)))
    rg.add_edge(1, 4, RED, 1 << 99)
    return rg


def test_odd_cover_on_cycle_plus_red_chord():
    rg = _toy_reduced()
    cp = find_odd_cover_cycle(rg)
    # the shorter cycle through the red chord covering both odd vertices
    assert cp.vertices == (0, 5, 4, 1)
    assert set(cp.vertices) >= {v for v in rg.adjmap if rg.degree(v) % 2}
    assert frozenset(cp.eids) != rg.cycle_eids
    assert rg.xy_eid in cp.eids


def test_odd_cover_check_fires_without_a_second_cycle():
    """A reduced graph with no red or blue edge is the bare closing
    cycle: its only cycle through xy is the base one, so no cover
    exists."""
    from chordlab.extender import ReducedGraph

    with pytest.raises(InvariantViolation) as info:
        find_odd_cover_cycle(ReducedGraph(tuple(range(6))))
    assert info.value.step == "odd-cover-cycle"
    assert str(info.value) == (
        "odd-cover-cycle: no second cycle through xy covering the odd-degree vertices"
    )


def test_odd_cover_differs_in_a_red_edge_when_a_empty():
    rg = _toy_reduced()
    cp = find_odd_cover_cycle(rg)
    assert any(rg.tags[e] == "red" for e in cp.eids)


def test_stats_identity_case():
    rg = _toy_reduced()
    # identity comparison: all quantities vanish
    order = list(range(5)) + [rg.xy_eid]
    cp = MultiCycle(tuple(range(6)), tuple(order[-1:] + order[:-1]))
    stats, runs = compute_stats(rg, cp)
    assert asdict(stats) == {
        "dropped_vertices": 0,
        "missing_edges": 0,
        "surplus": 0,
        "blue_on_cycle": 0,
        "red_on_cycle": 0,
        "blue_runs": 0,
        "long_blue_runs": 0,
    }


def test_stats_red_detour_case():
    # one red edge replacing two cycle edges and their middle vertex:
    # the hand-derived values are k=2, r=1, d=0, c=1, b=q=p=0
    from chordlab.extender import ReducedGraph, RED

    rg = ReducedGraph(tuple(range(6)))
    red = rg.add_edge(1, 3, RED, 1 << 99)
    # edge ids 0..4 are the path edges and 5 is xy
    cp = MultiCycle((0, 5, 4, 3, 1), (rg.xy_eid, 4, 3, red, 0))
    stats, _ = compute_stats(rg, cp)
    assert stats.missing_edges == 2
    assert stats.dropped_vertices == 1
    assert stats.surplus == 0
    assert stats.red_on_cycle == 1
    assert stats.blue_on_cycle == 0


def test_stats_property_run():
    ran = 0
    for seed in range(400):
        r = helpers.gen_extendable_host(seed)
        if r is None:
            continue
        g, p = r
        _, trace = extend_path(g, p)
        for step in trace.steps:
            if step["name"] == "stats":
                ran += 1
                assert step["blue_on_cycle"] == step["blue_runs"] + step["long_blue_runs"]
                assert (
                    step["dropped_vertices"] + step["surplus"]
                    == step["blue_on_cycle"] + step["red_on_cycle"]
                )
    assert ran >= 20


@pytest.mark.parametrize("counts, detail", [
    ((1, 1, -1, 0, 0, 0, 0), "surplus is negative"),
    ((0, 0, 0, 1, 0, 0, 0), "blue runs do not add up"),
    ((0, 0, 0, 1, 0, 1, 0), "component count identity fails"),
    ((1, 3, 1, 2, 0, 1, 1), "surplus below twice the long runs"),
    ((1, 4, 2, 3, 0, 2, 1), "strict surplus bound fails"),
])
def test_stats_check_names_each_failed_identity(counts, detail):
    """Counts that break one identity of the comparison argument, all
    earlier ones holding, fail the stats stage with that identity's
    message."""
    with pytest.raises(InvariantViolation) as exc:
        BlueSubpathStats(*counts).check()
    assert exc.value.step == "stats"
    assert str(exc.value) == f"stats: {detail}"


def _stats_error(rg, cp):
    with pytest.raises(InvariantViolation) as exc:
        compute_stats(rg, cp)
    assert exc.value.step == "stats"
    return str(exc.value)


def test_stats_cycle_must_start_on_xy():
    """A cover cycle listed from a blue edge, not from the closing edge
    xy, fails the stats stage."""
    rg = ReducedGraph((0, 1, 2, 3))
    blue = rg.add_edge(2, 0, BLUE, 1 << 9)
    assert _stats_error(rg, MultiCycle((0, 2, 3), (blue, 2, rg.xy_eid))) == (
        "stats: cycle does not start on the xy edge"
    )


def test_stats_long_run_needs_one_representative():
    """A length-2 blue run 0-2-4 fails the stats stage when its two edges
    come from different components contracted onto 2, and when they come
    from one component but start at 0 and 4, so that 2 is not their
    representative."""
    for (e1, c1), (e2, c2) in [
        (((2, 0), 1 << 9), ((2, 4), 1 << 10)),
        (((0, 2), 1 << 9), ((4, 2), 1 << 9)),
    ]:
        rg = ReducedGraph((0, 1, 2, 3, 4))
        first, second = rg.add_edge(*e1, BLUE, c1), rg.add_edge(*e2, BLUE, c2)
        cp = MultiCycle((4, 0, 2), (rg.xy_eid, first, second))
        assert _stats_error(rg, cp) == (
            "stats: length-2 blue run not centered on one representative"
        )


def test_stats_blue_run_longer_than_two():
    """Three blue edges in a row on the cover cycle fail the stats stage
    before any run is read."""
    rg = ReducedGraph(tuple(range(6)))
    blues = [rg.add_edge(a, b, BLUE, 1 << 9) for a, b in ((0, 2), (2, 4), (4, 5))]
    cp = MultiCycle((5, 0, 2, 4), (rg.xy_eid, *blues))
    assert _stats_error(rg, cp) == "stats: maximal blue run of length 3 > 2"


def test_lift_needs_a_host_path_through_the_component():
    """On K3,3 a red edge 0-1 whose component is the one vertex 3 stands
    for a host path of length >= 3, but 0-3-1 has length 2."""
    rg = ReducedGraph((0, 4, 1))
    red = rg.add_edge(0, 1, RED, 1 << 3)
    stats = BlueSubpathStats(1, 2, 0, 0, 1, 0, 0).check()
    with pytest.raises(InvariantViolation) as exc:
        lift_to_host(oracles.k33(), rg, MultiCycle((1, 0), (rg.xy_eid, red)), [], stats)
    assert exc.value.step == "lift"
    assert str(exc.value) == "lift: no host path of length >= 3 from 0 to 1 through its component"


def test_lift_checks_the_floor():
    """Stats that pass their own check and claim one blue run promise a
    cycle one longer than the base cycle of K3,3's path 0,4,1,3; lifting
    the base cycle itself falls below that floor."""
    rg = ReducedGraph((0, 4, 1, 3))
    stats = BlueSubpathStats(0, 1, 1, 1, 0, 1, 0).check()
    cp = MultiCycle((3, 0, 4, 1), (rg.xy_eid, 0, 1, 2))
    with pytest.raises(InvariantViolation) as exc:
        lift_to_host(oracles.k33(), rg, cp, [], stats)
    assert exc.value.step == "lift"
    assert str(exc.value) == "lift: lifted length 4 below the floor 5"


def test_path_from_cycle_needs_the_xy_edge():
    """A cycle without the closing edge xy cannot be opened into an
    (x,y)-path: the checker stage fails."""
    assert _path_from_cycle(Cycle((0, 1, 2, 3)), 1, 0).vertices == (1, 2, 3, 0)
    with pytest.raises(InvariantViolation) as exc:
        _path_from_cycle(Cycle((0, 1, 2, 3)), 0, 2)
    assert exc.value.step == "checker"
    assert str(exc.value) == "checker: cycle does not contain the xy edge"


# ---------------------------------------------------------------------------
# tight case


def _tight_host():
    edges = [(i, i + 1) for i in range(9)] + [(0, 9)]
    edges += [(10, 2), (10, 6), (10, 8)]
    edges += [(11, 7), (11, 1), (11, 3)]
    edges += [(12, 14), (12, 15), (13, 14), (13, 15), (14, 15), (12, 0), (13, 4)]
    edges += [(16, 18), (16, 19), (17, 18), (17, 19), (18, 19), (16, 5), (17, 9)]
    return Graph(20, edges), Path(tuple(range(10)))


def _tight_cover(rg):
    def eid_between(a, b, tag):
        for eid, (u, v) in enumerate(rg.edges):
            if {u, v} == {a, b} and rg.tags[eid] == tag:
                return eid
        raise KeyError((a, b, tag))

    seq = [(0, 9, "black"), (9, 8, "black"), (8, 2, "blue"), (2, 6, "blue"),
           (6, 5, "black"), (5, 4, "black"), (4, 3, "black"), (3, 7, "blue"),
           (7, 1, "blue"), (1, 0, "black")]
    verts = tuple(s[0] for s in seq)
    eids = tuple(eid_between(a, b, t) for a, b, t in seq)
    return MultiCycle(verts, eids)


def _tight_reduction():
    """The tight host reduced along its path: the triple components 10
    and 11 are contracted onto the class members 2 and 7."""
    g, p = _tight_host()
    rg, a_set, triples = build_reduced_G2(g, p, _attached_components(g, p.vertices))
    assert a_set == frozenset({2, 5, 7})
    assert triples == [(1 << 10, (6, 8, 2)), (1 << 11, (1, 3, 7))]
    return g, p, rg


def test_tight_pipeline_end_to_end():
    """Drive the collapse branch on a real cubic host by feeding the
    two-blue cover cycle directly: the lift exactly ties the base length
    and the matching step must beat it."""
    g, p, rg = _tight_reduction()
    assert precheck(g, p).kind == EXTENDABLE
    h1, h2 = 1 << 10, 1 << 11
    cp = _tight_cover(rg)
    stats, runs = compute_stats(rg, cp)
    assert stats.dropped_vertices == 0 and stats.red_on_cycle == 0
    assert stats.blue_runs == stats.long_blue_runs == 2
    c_star, attachments, detail = lift_to_host(g, rg, cp, runs, stats)
    assert c_star.length == len(rg.cycle_eids)  # exactly tight
    assert c_star.vertices == (0, 1, 11, 3, 4, 5, 6, 10, 8, 9)
    assert attachments == [(2, 10, h1), (7, 11, h2)]
    assert detail == {"length": 10, "floor": 10}
    out = matching_step(g, c_star, Cycle(p.vertices), attachments)
    assert out.vertices == (0, 1, 2, 10, 6, 5, 4, 3, 11, 7, 8, 9)
    out.validate(g)
    assert out.length > Cycle(p.vertices).length
    assert (0, 9) in out.edge_set()
    final = _path_from_cycle(out, 0, 9)
    final.validate(g)
    assert final.length > p.length


def _minimal_tight():
    """A hexagon with vertex 6 joined to 1, 2 and 3: the host, the lift
    through 6 in place of 2, the hexagon and the attachment of 2 to 6."""
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                  (1, 6), (2, 6), (3, 6)])
    return g, Cycle((0, 1, 6, 3, 4, 5)), Cycle((0, 1, 2, 3, 4, 5)), [(2, 6, 1 << 6)]


def test_matching_step_minimal_instance():
    g, c_star, c_host, attachments = _minimal_tight()
    out = matching_step(g, c_star, c_host, attachments)
    assert out.vertices == (0, 1, 2, 6, 3, 4, 5)
    assert out.length == 7 > c_host.length


def test_matching_step_requires_attachments():
    g, p = _tight_host()
    with pytest.raises(InvariantViolation) as exc:
        matching_step(g, Cycle(p.vertices), Cycle(p.vertices), [])
    assert exc.value.step == "matching-step"
    assert str(exc.value) == "matching-step: no attachments in the tight case"


def _tight_lift():
    """The host, the lift, the base cycle and the attachments of
    `test_tight_pipeline_end_to_end`: the lift (0, 1, 11, 3, 4, 5, 6, 10,
    8, 9) drops the representatives 2 and 7, attached to 10 and 11."""
    g, p, rg = _tight_reduction()
    cp = _tight_cover(rg)
    stats, runs = compute_stats(rg, cp)
    c_star, attachments, _ = lift_to_host(g, rg, cp, runs, stats)
    return g, c_star, Cycle(p.vertices), attachments


@pytest.mark.parametrize("corrupt, message", [
    (lambda g, s, h, a: (g, s, h, [(3, 11, a[1][2])]), "attachment edge collides"),
    (lambda g, s, h, a: (g, Cycle((12, 14, 15)), h, a), "no branch vertices on the lift"),
    (lambda g, s, h, a: (g, h, h, a), "non-trivial run not between matching endpoints"),
    (lambda g, s, h, a: (g, s, h, a * 2), "bipartition sizes off: 4 partners, 2 matching edges"),
    (lambda g, s, h, a: (g, s, h, [a[0], (2, 11, a[1][2])]), "compressed graph is not cubic"),
    (lambda g, s, h, a: (Graph(g.n, [e for e in g.edges if e != (2, 10)]), s, h, a),
     "no host route for attachment (2,10)"),
], ids=("colliding-attachment", "lift-off-the-base",
        "lift-is-the-base", "attachments-repeat", "representative-twice", "attachment-edge-gone"))
def test_matching_step_checks_fire(corrupt, message):
    """Each check of the matching step, fed the tight case with one
    intermediate corrupted:
    - an attachment along the lift's edge (3, 11) collides, while a
      repeated attachment does not: it only throws the counts off;
    - a lift that meets neither the base cycle nor an attachment has no
      branch vertex;
    - the base cycle handed back as the lift leaves the run 2 .. 7
      between two representatives;
    - a second attachment at representative 2 gives it degree 4;
    - a host without the attachment edge (2, 10) has no route for it."""
    g, c_star, c_host, attachments = corrupt(*_tight_lift())
    with pytest.raises(InvariantViolation) as exc:
        matching_step(g, c_star, c_host, attachments)
    assert exc.value.step == "matching-step"
    assert str(exc.value) == "matching-step: " + message


def test_matching_step_runs_do_not_repeat():
    """A lift that runs round its cycle twice would repeat its runs
    between partners, and `Cycle` refuses it; run once, it does not.  A
    simple lift of a simple base cycle cannot repeat a run: two runs with
    the same ends are its two arcs between them, both on the base cycle,
    so the lift is the base cycle and every vertex of degree 3 ends an
    attachment edge, which no partner does."""
    g, c_star, c_host, attachments = _tight_lift()
    assert matching_step(g, c_star, c_host, attachments).length == 12
    with pytest.raises(ValueError) as exc:
        Cycle(c_star.vertices * 2)
    assert str(exc.value) == "repeated vertex in cycle"


def test_matching_step_runs_stay_on_the_base_cycle():
    """With the 4-cycle 1, 2, 3, 6 as the base cycle, the minimal
    instance's run 3, 4, 5, 0, 1 joins its two partners off it."""
    g, c_star, _, attachments = _minimal_tight()
    with pytest.raises(InvariantViolation) as exc:
        matching_step(g, c_star, Cycle((1, 2, 3, 6)), attachments)
    assert exc.value.step == "matching-step"
    assert str(exc.value) == "matching-step: compressed run leaves the base cycle"


def test_matching_step_needs_a_longer_cycle(monkeypatch):
    """A cycle kernel that finds nothing leaves no cycle through the
    matching."""
    monkeypatch.setattr(kernels, "cycles_of_length", lambda masks, n, length: [])
    with pytest.raises(InvariantViolation) as exc:
        matching_step(*_tight_lift())
    assert exc.value.step == "matching-step"
    assert str(exc.value) == "matching-step: no longer cycle through the matching exists"


def test_matching_step_must_beat_the_base_cycle():
    """A base cycle that reports one edge more than it has is as long as
    the decompressed cycle of the minimal instance."""
    g, c_star, c_host, attachments = _minimal_tight()
    with pytest.raises(InvariantViolation) as exc:
        matching_step(g, c_star, _Miscounted(c_host.vertices), attachments)
    assert exc.value.step == "matching-step"
    assert str(exc.value) == "matching-step: decompressed cycle is not longer"


def test_extend_checks_the_tight_collapse(monkeypatch):
    """A lift that fails to grow on a cover that is not tight fails the
    collapse check before the matching step.  Seed 12 is the first
    extendable host whose extension reaches the lift; its cover has two
    blue runs of length 1."""
    g, p = helpers.gen_extendable_host(12)
    monkeypatch.setattr(extender, "lift_to_host", lambda g, rg, cp, runs, stats: (Cycle(p.vertices), [], {}))
    with pytest.raises(InvariantViolation) as exc:
        extend_path(g, p)
    assert exc.value.step == "stats-collapse"
    assert str(exc.value) == (
        "stats-collapse: lift failed to grow but the tight-case collapse does not hold"
    )


def _minus_a_matching(g, rng):
    """g without a random maximal matching: a subcubic graph with
    vertices of degree 2 (and of degree 3 where the matching missed)."""
    edges = list(g.edges)
    rng.shuffle(edges)
    matched, keep = set(), []
    for u, v in edges:
        if u in matched or v in matched:
            keep.append((u, v))
        else:
            matched |= {u, v}
    return Graph(g.n, keep)


def test_dense_cycle_kernel_matches_small_cycle_enumerator(corpus):
    """matching_step relabels its compressed graph to dense ids in label
    order and reads the cycle kernel per length; mapped back, that must
    list the cycles of the enumerator it replaced, in (length, sequence)
    order.  Besides the cubic corpus, subcubic graphs with vertices of
    degree 2, which second_hamilton_cycle hands the kernel: cycle graphs,
    lemma support graphs and cubic graphs minus a matching.  The longest
    and Hamilton rows must be the rows of their length."""
    rng = random.Random(0)
    graphs = [g for n in sorted(corpus) for g in corpus[n]]
    subcubic = [oracles.cycle_graph(n) for n in range(3, 10)]
    subcubic += [
        build_support_graph(helpers.gen_lemma_instance(k, seed))
        for k in (2, 3, 4) for seed in range(5)
    ]
    matchings = random.Random(1)
    subcubic += [_minus_a_matching(g, matchings) for g in graphs]
    assert all(any(len(g.neighbors(v)) == 2 for v in range(g.n)) for g in subcubic)
    for g in graphs + subcubic:
        n = g.n
        labels = rng.sample(range(100), n)
        adj = {labels[v]: {labels[w] for w in g.neighbors(v)} for v in range(n)}
        order = sorted(adj)
        dense = {v: i for i, v in enumerate(order)}
        masks = [sum(1 << dense[w] for w in adj[v]) for v in order]
        by_length = {
            length: [tuple(order[i] for i in row) for row in kernels.cycles_of_length(masks, n, length)]
            for length in range(3, n + 1)
        }
        got = [row for length in range(3, n + 1) for row in by_length[length]]
        want = sorted(oracles.all_cycles_small(adj), key=lambda s: (len(s), s))
        assert got == want, (g.edges, labels)
        longest = max(length for length in by_length if by_length[length])
        for rows, length in ((kernels.cycles_of_length(masks, n, None), longest),
                             (kernels.hamilton_cycle_rows(masks, n), n)):
            assert [tuple(order[i] for i in row) for row in rows] == by_length[length], (g.edges, labels)


# ---------------------------------------------------------------------------
# extend_path end to end


def test_extend_k33():
    g = oracles.k33()
    longer, trace = extend_path(g, Path((0, 4, 1, 3)))
    assert longer.length >= 4
    assert trace.final_path == longer.vertices
    assert trace.steps[0]["name"] == "precheck"


def test_extend_refuses_non_extendable():
    with pytest.raises(ValueError, match="not extendable"):
        extend_path(oracles.k4(), Path((0, 2, 3, 1)))


def test_extend_short_path_bootstrap():
    g = oracles.k33()
    longer, trace = extend_path(g, Path((0, 3)))
    assert longer.length >= 2
    assert trace.steps[1]["branch"] == "short-path"


def test_extend_never_exceeds_exact_longest():
    for seed in range(120):
        r = helpers.gen_extendable_host(seed)
        if r is None:
            continue
        g, p = r
        longer, _ = extend_path(g, p)
        exact = longest_xy_paths(g, p.x, p.y).max_length
        assert longer.length <= exact


def test_extend_synthetic_hosts_deep_machinery():
    deep = 0
    for seed in range(400):
        r = helpers.gen_extendable_host(seed)
        if r is None:
            continue
        g, p = r
        longer, trace = extend_path(g, p)
        longer.validate(g)
        assert longer.length > p.length
        if any(s["name"] == "reduced-graph" for s in trace.steps):
            deep += 1
    assert deep >= 20


def test_trace_serializes():
    import json

    g, p = helpers.figure_host()
    _, trace = extend_path(g, p)
    blob = json.loads(trace.to_json())
    assert blob["final_path"]
    assert all("name" in s for s in blob["steps"])


# ---------------------------------------------------------------------------
# adjacent-endpoint machinery


def test_adjacent_case1_end_to_end():
    ran = 0
    for seed in range(150):
        r = helpers.gen_adjacent_config(seed, case="case-1")
        if r is None:
            continue
        g, p = r
        longer, trace = extend_path_adjacent(g, p)
        longer.validate(g)
        assert longer.length > p.length
        assert (longer.x, longer.y) == (p.x, p.y)
        ran += 1
        if ran >= 60:
            break
    assert ran >= 40


def test_adjacent_case2_end_to_end():
    ran = 0
    for seed in range(150):
        r = helpers.gen_adjacent_config(seed, case="case-2")
        if r is None:
            continue
        g, p = r
        longer, trace = extend_path_adjacent(g, p)
        longer.validate(g)
        assert longer.length > p.length
        ran += 1
        if ran >= 60:
            break
    assert ran >= 40


def test_adjacent_case2_mirror_end_to_end():
    # the chord partner beside a instead of y: the shared-vertex surgery
    # runs with the roles mirrored
    ran = 0
    for seed in range(120):
        r = helpers.gen_adjacent_config(seed, case="case-2-mirror")
        if r is None:
            continue
        g, p = r
        longer, _ = extend_path_adjacent(g, p)
        longer.validate(g)
        assert longer.length > p.length
        ran += 1
        if ran >= 40:
            break
    assert ran >= 30


def test_adjacent_case1_length_accounting():
    """The reinstated cycle beats the base by at least the surplus of
    blue runs over length-2 runs."""
    ran = 0
    for seed in range(200):
        r = helpers.gen_adjacent_config(seed, case="case-1")
        if r is None:
            continue
        g, p = r
        longer, trace = extend_path_adjacent(g, p)
        lift = [s for s in trace.steps if s.get("branch") == "lift"]
        final = [s for s in trace.steps if "length" in s and s["name"].startswith("case")]
        if not lift or not final:
            continue
        q, p_long = lift[0]["blue_runs"], lift[0]["long_blue_runs"]
        assert q > p_long
        base_cycle_len = p.length + 1
        assert final[0]["length"] >= base_cycle_len + (q - p_long)
        ran += 1
        if ran >= 30:
            break
    assert ran >= 20


def test_adjacent_lift_ignores_the_cycle_start():
    """Ring 0..11; component {20} is contracted onto 3 (attachments 1, 3,
    5) and {21} onto 9 (attachments 7, 9, 11).  The found cycle passes
    3 by the two chords 1-3-5 and reaches 9 by the chord 7-9.  Every
    starting vertex, those inside the two-chord run included, must lift
    to the same host cycle."""
    ring = tuple(range(12))
    g = Graph(22, [(i, (i + 1) % 12) for i in range(12)]
              + [(20, 1), (20, 3), (20, 5), (21, 7), (21, 9), (21, 11)])
    relabeled = [(1 << 20, (1, 5, 3)), (1 << 21, (7, 11, 9))]
    c1 = (0, 1, 3, 5, 6, 7, 9, 10, 11)
    for k in range(len(c1)):
        trace = ExtensionTrace()
        got = extender._lift_adjacent(g, ring, [], relabeled, c1[k:] + c1[:k], trace, "case-1")
        assert got == Cycle((0, 1, 20, 5, 6, 7, 21, 9, 10, 11)), k
        assert trace.steps == [
            {"name": "case-1", "branch": "lift", "blue_runs": 2, "long_blue_runs": 1}
        ]


def _toy_lift(c1):
    """`_lift_adjacent` on the ring of the test above with the found cycle
    ``c1`` in place of the lemma's."""
    ring = tuple(range(12))
    g = Graph(22, [(i, (i + 1) % 12) for i in range(12)]
              + [(20, 1), (20, 3), (20, 5), (21, 7), (21, 9), (21, 11)])
    relabeled = [(1 << 20, (1, 5, 3)), (1 << 21, (7, 11, 9))]
    return extender._lift_adjacent(g, ring, [], relabeled, c1, ExtensionTrace(), "case-1")


def test_adjacent_lift_needs_a_ring_edge():
    """A found cycle of contraction chords alone has no ring edge to start
    the lift on."""
    with pytest.raises(InvariantViolation) as exc:
        _toy_lift((1, 3, 5))
    assert exc.value.step == "case-1"
    assert str(exc.value) == "case-1: found cycle uses no ring edge"


def test_adjacent_lift_needs_a_short_run():
    """A found cycle whose only chord run is the two-chord run 1-3-5 gains
    nothing over the ring: the accounting fails."""
    with pytest.raises(InvariantViolation) as exc:
        _toy_lift((0, 1, 3, 5, 6, 7, 8, 9, 10, 11))
    assert exc.value.step == "case-1"
    assert str(exc.value) == "case-1: accounting needs more runs than length-2 runs (1 vs 1)"


def _adjacent_lift_config():
    """The first case-1 host of `helpers.gen_adjacent_config` whose
    extension runs the coloring, the lift and the reinstatement."""
    for seed in range(200):
        r = helpers.gen_adjacent_config(seed, case="case-1")
        if r is not None and any(s.get("branch") == "lift" for s in extend_path_adjacent(*r)[1].steps):
            return r
    raise AssertionError("no case-1 host reaches the lift")


class _Miscounted(Cycle):
    """A cycle that reports one edge more than it has."""

    @property
    def length(self):
        return len(self.vertices) + 1


def _swapped(vs, i, j):
    vs = list(vs)
    vs[i], vs[j] = vs[j], vs[i]
    return vs


def _corrupted_adjacent(monkeypatch, helper, corrupt):
    """Run `extend_path_adjacent` on `_adjacent_lift_config` with the
    result of ``helper`` replaced by ``corrupt(path, args, result)``;
    return the path and the raised `InvariantViolation`."""
    g, p = _adjacent_lift_config()
    real = getattr(extender, helper)
    monkeypatch.setattr(extender, helper, lambda *args: corrupt(p, args, real(*args)))
    with pytest.raises(InvariantViolation) as exc:
        extend_path_adjacent(g, p)
    return p, exc.value


@pytest.mark.parametrize("helper, corrupt, message", [
    ("_reinstate", lambda p, args, cyc: Cycle(p.vertices), "reinstated cycle is not longer"),
    ("_lift_adjacent", lambda p, args, cyc: Cycle(p.vertices), "surgery edge ({a},{y}) missing from lift"),
    ("_lift_adjacent", lambda p, args, cyc: _Miscounted(cyc.vertices), "reinstatement did not add exactly two edges"),
    ("_lift_adjacent", lambda p, args, cyc: Cycle(_swapped(cyc.vertices, 1, 4)), "(1,5) is not an edge"),
], ids=("closing-cycle-reinstated", "closing-cycle-lifted", "lift-miscounted", "lift-swapped"))
def test_adjacent_reinstatement_checks_fire(monkeypatch, helper, corrupt, message):
    """The closing cycle handed back as the reinstated cycle is not
    longer; handed back as the lift, it lacks the surgery edge ay; a lift
    that miscounts its edges makes the reinstatement add other than two.
    A lift with two vertices swapped keeps both surgery edges, but the
    reinstated walk leaves the host, which the walk check before the
    `Cycle` is built names under the case's stage."""
    p, exc = _corrupted_adjacent(monkeypatch, helper, corrupt)
    assert exc.step == "case-1"
    assert str(exc) == "case-1: " + message.format(a=p.vertices[1], y=p.y)


def test_adjacent_lift_checks_its_walk(monkeypatch):
    """A lift that repeats a vertex fails the case's stage before a
    `Cycle` is built."""
    real = extender._lift_runs

    def repeating(*args):
        verts, segs = real(*args)
        return verts + [verts[1]], segs

    monkeypatch.setattr(extender, "_lift_runs", repeating)
    with pytest.raises(InvariantViolation) as exc:
        extend_path_adjacent(*helpers.gen_adjacent_config(1))
    assert str(exc.value) == "case-1: repeated vertex in cycle"


def test_adjacent_instance_needs_one_arc_per_member(monkeypatch):
    """A class with two members side by side on the ring leaves an empty
    arc between them: the lemma instance's check refuses it, as a class
    that is not independent on the cycle."""
    def corrupt(p, args, colored):
        ring = args[0]
        a_set, chosen, relabeled = colored
        v = min(a_set, key=ring.index)
        return a_set | {ring[ring.index(v) + 1]}, chosen, relabeled

    _, exc = _corrupted_adjacent(monkeypatch, "_color_ring", corrupt)
    assert exc.step == "lemma-instance"
    assert str(exc) == "lemma-instance: A is not independent on C"


def test_adjacent_handles_reversed_orientation():
    # chord incident to the far endpoint: normalization flips and the
    # output comes back in the caller's orientation
    ran = 0
    for seed in range(60):
        r = helpers.gen_adjacent_config(seed)
        if r is None:
            continue
        g, p = r
        rev = p.reversed()
        longer, _ = extend_path_adjacent(g, rev)
        longer.validate(g)
        assert (longer.x, longer.y) == (rev.x, rev.y)
        assert longer.length > rev.length
        ran += 1
        if ran >= 25:
            break
    assert ran >= 20


def test_adjacent_rejects_wrong_configuration():
    g = oracles.k4()
    with pytest.raises(ValueError) as exc:
        extend_path_adjacent(g, Path((0, 2, 3, 1)))
    assert str(exc.value) == "path must have exactly one internal bound vertex, found 2"


@pytest.mark.parametrize("g, path, message", [
    (oracles.cycle_graph(5), (0, 1), "host graph is not cubic"),
    (oracles.two_k4_minus_edge_bridge(), (2, 0, 3, 1), "host graph is not 3-connected"),
    (oracles.k33(), (0, 3, 1), "endpoints are not adjacent"),
    (Graph(10, [(i, (i + 1) % 8) for i in range(8)]
           + [(2, 5), (8, 0), (8, 3), (8, 6), (9, 1), (9, 4), (9, 7)]),
     tuple(range(8)), "path must have exactly one internal bound vertex, found 2"),
], ids=("not-cubic", "not-3-connected", "endpoints-apart", "chord-inside"))
def test_adjacent_refuses_inputs(g, path, message):
    with pytest.raises(ValueError) as exc:
        extend_path_adjacent(g, Path(path))
    assert str(exc.value) == message


def _one_chord_at_an_endpoint(g, vs):
    """`extend_path_adjacent`'s hypothesis in its closing-cycle form, over
    sets: the closing cycle (vs plus its closing pair) has exactly one
    chord, and the chord has an end in {x, y}."""
    on = set(vs)
    steps = {frozenset(e) for e in zip(vs, vs[1:] + vs[:1])}
    found = {frozenset(e) for e in g.edges if on.issuperset(e)} - steps
    return len(found) == 1 and bool(found.pop() & {vs[0], vs[-1]})


def test_adjacent_accepts_exactly_one_chord_at_an_endpoint(corpus):
    """Over every directed path with adjacent ends in every 3-connected
    cubic graph with n <= 10, `extend_path_adjacent` accepts a path
    exactly when its closing cycle has one chord, at an endpoint, and
    refuses every other path with the count of its internal bound
    vertices.  Accepted paths include ones whose bound vertex is the path
    neighbour of x and ones where it is that of y."""
    accepted, refused = 0, 0
    w_next_to = {"x": 0, "y": 0}
    for n in (4, 6, 8, 10):
        for g in corpus[n]:
            if not connectivity_at_least(g, 3):
                continue
            for vs in helpers.directed_paths(g):
                if not g.has_edge(vs[0], vs[-1]):
                    continue
                p = Path(vs)
                bound = [v for v in vs[1:-1] if set(g.neighbors(v)) <= set(vs)]
                if not _one_chord_at_an_endpoint(g, vs):
                    with pytest.raises(ValueError) as exc:
                        extend_path_adjacent(g, p)
                    assert str(exc.value) == (
                        f"path must have exactly one internal bound vertex, found {len(bound)}"
                    )
                    refused += 1
                    continue
                longer, _ = extend_path_adjacent(g, p)
                assert (longer.x, longer.y) == (p.x, p.y) and longer.length > p.length
                assert len(bound) == 1
                w_next_to["x"] += bound[0] == vs[1]
                w_next_to["y"] += bound[0] == vs[-2]
                accepted += 1
    assert (accepted, refused) == (1600, 11282)
    assert w_next_to["x"] > 0 and w_next_to["y"] > 0


@pytest.mark.skipif(
    os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
    reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
)
def test_adjacent_census_n12(corpus12):
    """`test_golden_traces.test_adjacent_census_n10` one order up: every
    directed path of every 3-connected cubic graph with n = 12 whose
    endpoints are adjacent and which has exactly one internal bound
    vertex goes through `extend_path_adjacent`; the exit each path takes
    and the digest of every trace are pinned (9,376 paths)."""
    exits = Counter()
    digest = hashlib.sha256()
    for g in corpus12:
        if not connectivity_at_least(g, 3):
            continue
        for vs in helpers.directed_paths(g):
            p = Path(vs)
            if not g.has_edge(p.x, p.y) or len(internal_bound_vertices(g, p)) != 1:
                continue
            _, trace = extend_path_adjacent(g, p)
            digest.update(trace.to_json().encode())
            branch = trace.steps[1]["branch"]
            exits[trace.steps[1]["name"] if branch == "coloring" else branch] += 1
    assert exits == {
        "single-component": 6216, "adjacent-attachment": 2928, "case-1": 160,
        "case-2": 62, "ay-component-splice": 10,
    }
    assert digest.hexdigest() == (
        "0396c3e71ae84006f48fd18244a4a06ca727d1418212861c7f0c79a6fe011e23"
    )


@pytest.mark.skipif(
    os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
    reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
)
def test_extension_census_n12(corpus12):
    """`test_golden_traces.test_extension_census_n10` one order up: every
    directed simple path of every 2-connected cubic graph with n = 12 goes
    through `precheck` and, when extendable, `extend_path`; the
    classification counts, the branch taken and the digest of every trace
    are pinned (69,760 extendable paths)."""
    kinds, branches = Counter(), Counter()
    digest = hashlib.sha256()
    for g in corpus12:
        if not connectivity_at_least(g, 2):
            continue
        for vs in helpers.directed_paths(g):
            p = Path(vs)
            kind = precheck(g, p).kind
            kinds[kind] += 1
            if kind != EXTENDABLE:
                continue
            _, trace = extend_path(g, p)
            digest.update(trace.to_json().encode())
            for s in trace.steps:
                if s["name"] == "component-claim":
                    branches[s["branch"]] += 1
                elif s["name"] in ("lift", "matching-step"):
                    branches[s["name"]] += 1
    assert kinds == {"has-bound-vertex": 403436, "spanning-path": 33968, "extendable": 69760}
    assert branches == {
        "direct": 59826, "short-path": 2916, "certificate": 7018,
        "adjacent-attachment": 6632, "lift": 386,
    }
    assert digest.hexdigest() == (
        "45f773cec4d2135771e88a5f96e31154654f6265946e2e7f59f09924aea58e98"
    )


# ---------------------------------------------------------------------------
# verifiers


def test_verify_zhan_k4_adjacent():
    rep = verify_zhan(oracles.k4(), "adjacent-pairs")
    assert rep.minimum == 2


def test_verify_zhan_prism():
    rep = verify_zhan(oracles.prism(), "adjacent-pairs")
    assert rep.minimum >= 2


def test_verify_zhan_gates():
    with pytest.raises(ValueError):
        verify_zhan(oracles.cycle_graph(6))
    with pytest.raises(ValueError):
        verify_zhan(oracles.two_k4_minus_edge_bridge(), "adjacent-pairs")


def test_verify_zhan_refuses_unknown_mode():
    with pytest.raises(ValueError, match="'bogus'"):
        verify_zhan(oracles.k4(), "bogus")


def test_verify_chords_gates():
    with pytest.raises(ValueError, match="^graph is not cubic$"):
        verify_chords(oracles.cycle_graph(6))
    # two K4-minus-an-edge blocks joined by two edges: 2- but not 3-connected
    with pytest.raises(ValueError, match="^graph is not 3-connected$"):
        verify_chords(oracles.two_k4_minus_edge_bridge())


def test_verify_chords_values():
    assert verify_chords(oracles.k4()).min_chords == 2
    rep = verify_chords(oracles.petersen())
    assert rep.min_chords == 3 and rep.cycle_length == 9
