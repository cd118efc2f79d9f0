"""The constructive path-extension machinery.

Given an (x,y)-path with no internal bound vertex in a 2-connected cubic
graph, produce a strictly longer (x,y)-path by running the contradiction
argument forward: splice through an endpoint-touching component when one
exists, otherwise reduce the graph (two-neighbor components become red
edges, larger ones are contracted onto a color-class representative),
find a second cycle through xy covering all odd-degree vertices, lift it
back along the contraction map, and in the tight case finish with the
matching-compression step.  The adjacent-endpoint variant removes x and
its chord partner, reruns the second-cycle lemma on the reduced graph,
and reinstates both vertices with a four-edge substitution.

Every path or cycle emitted anywhere is re-validated by the independent
checkers in search before being returned.  The verifiers live in
`chordlab.verify`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby

from . import kernels
from .coloring import pick_color_class, three_color_cycle_plus
from .errors import InvariantViolation
from .graphs import Graph, connectivity_at_least, is_cubic
from .graphs import component_walk, cycle_masks, reach_mask, vertex_bits, vertex_mask
from .search import Cycle, Path, chord_scan, cycle_problem, internal_bound_vertices
from .second_cycle import LemmaInstance, second_hamilton_cycle
from .verify import verify_chords, verify_zhan  # noqa: F401  (perfbench traces them here)

BLACK, RED, BLUE = "black", "red", "blue"

HAS_BOUND_VERTEX = "has-bound-vertex"
SPANNING_PATH = "spanning-path"
EXTENDABLE = "extendable"


@dataclass(frozen=True)
class Classification:
    kind: str
    bound: frozenset


@dataclass
class ExtensionTrace:
    steps: list = field(default_factory=list)
    final_path: tuple = ()

    def add(self, name: str, **data):
        self.steps.append({"name": name, **data})

    def to_json(self) -> str:
        import json  # only `extend --trace` writes a trace

        return json.dumps(
            {"steps": self.steps, "final_path": list(self.final_path)}, indent=2
        )


@dataclass(frozen=True)
class BlueSubpathStats:
    """Counting data comparing the reduced cycle with its replacement:
    dropped_vertices / missing_edges are |V(C)-V(C')| and |E(C)-E(C')|,
    surplus = missing_edges - 2*dropped_vertices, blue/red edge counts on
    the new cycle, and the maximal blue runs with the number of length-2
    ones."""

    dropped_vertices: int
    missing_edges: int
    surplus: int
    blue_on_cycle: int
    red_on_cycle: int
    blue_runs: int
    long_blue_runs: int

    def check(self):
        s = self
        if s.surplus < 0:
            raise InvariantViolation("stats", "surplus is negative")
        if s.blue_on_cycle != s.blue_runs + s.long_blue_runs:
            raise InvariantViolation("stats", "blue runs do not add up")
        if s.dropped_vertices + s.surplus != s.blue_on_cycle + s.red_on_cycle:
            raise InvariantViolation("stats", "component count identity fails")
        if s.surplus < 2 * s.long_blue_runs:
            raise InvariantViolation("stats", "surplus below twice the long runs")
        if s.blue_runs >= s.long_blue_runs + 1 and s.surplus < 2 * s.long_blue_runs + 1:
            raise InvariantViolation("stats", "strict surplus bound fails")
        return self


@dataclass(frozen=True)
class MultiCycle:
    """Cycle in an edge-indexed multigraph: vertices in order, edge ids in
    step order (edge i joins vertex i and vertex i+1, cyclically)."""

    vertices: tuple
    eids: tuple


class ReducedGraph:
    """Edge-tagged multigraph on the vertices of an (x,y)-path, plus the
    contraction bookkeeping needed to lift cycles back to the host graph.
    It starts as the base cycle: the path edges and then the closing edge
    xy, all black, with edge ids 0..len(path)-1 in that order.  A blue
    edge runs from its representative, its first end."""

    def __init__(self, path):
        self.edges = []        # (u, v) per edge id
        self.tags = []         # BLACK / RED / BLUE per edge id
        self.comps = []        # per edge id: the component behind it, 0 if black
        self.adjmap = {v: [] for v in path}  # v -> list of (eid, other)
        for a, b in zip(path, path[1:]):
            self.add_edge(a, b, BLACK)
        self.xy = (path[0], path[-1])
        self.xy_eid = self.add_edge(*self.xy, BLACK)
        self.cycle_vertices = tuple(path)
        self.cycle_eids = frozenset(range(len(path)))

    def add_edge(self, u, v, tag, comp=0) -> int:
        eid = len(self.edges)
        self.edges.append((u, v))
        self.tags.append(tag)
        self.comps.append(comp)
        self.adjmap[u].append((eid, v))
        self.adjmap[v].append((eid, u))
        return eid

    def degree(self, v) -> int:
        return len(self.adjmap[v])

    def edge_rows(self):
        return [[u, v, tag] for (u, v), tag in zip(self.edges, self.tags)]


# ---------------------------------------------------------------------------
# classification and direct splices


def precheck(g: Graph, p: Path) -> Classification:
    """Gate the hypotheses and classify the path: spanning, owning an
    internal bound vertex, or extendable.  ``bound`` is the set of
    internal bound vertices whatever the kind; `extend_path_adjacent`
    reads it, as with adjacent ends one bound vertex is one chord of the
    closing cycle, at an endpoint.

    The result is kept on p (``Path._class_in``, set whole; a raise keeps
    nothing), and a later call with the same `Graph` object returns it
    after the two gates: exact, as a `Graph` and a `Path` never change."""
    if not is_cubic(g):
        raise ValueError("host graph is not cubic")
    if not connectivity_at_least(g, 2):
        raise ValueError("host graph is not 2-connected")
    seen_in, cls = p._class_in
    if seen_in is g:
        return cls
    bound = internal_bound_vertices(g, p)  # validates p
    if len(p) == g.n:
        cls = Classification(SPANNING_PATH, bound)
    elif bound:
        cls = Classification(HAS_BOUND_VERTEX, bound)
    else:
        # a chord of the closing cycle (the path plus xy) would make an
        # internal vertex bound, so the scan finds none
        for u, w in chord_scan(g.masks, p.vertices):
            raise InvariantViolation(
                "precheck", f"chord ({u},{w}) on a path without internal bound vertices"
            )
        cls = Classification(EXTENDABLE, frozenset())
    object.__setattr__(p, "_class_in", (g, cls))
    return cls


def _attached_components(g: Graph, on):
    """The components of g minus ``on`` (vertex masks), each with its
    sorted attachment vertices on ``on``, in `component_walk` order
    (ascending least member): the vertices of ``on`` among its members'
    neighbours."""
    om = vertex_mask(on)
    walk = component_walk(g.masks, (1 << g.n) - 1 & ~om)
    return [(comp, vertex_bits(around & om)) for comp, around in walk]


def _through_component(g: Graph, a: int, b: int, comp: int, min_len: int):
    """Shortest (a,b)-path of length >= min_len whose interior lies in the
    vertex mask comp; ties broken by vertex sequence, None when there is
    none.

    Length-ordered search: for each length L from min_len up, a DFS in
    ascending neighbor order enters w only if BFS distances to b through
    comp let it still reach b in the edges left; the first path of exactly
    L edges is the least.  ``near[d]`` is the mask of b and the comp
    vertices within d edges of b through comp.  The DFS for L reads
    near[L - 1] down to near[0], so the BFS from b grows one layer per
    length tried and no further.  Below the distance from a to b the DFS
    stops at its first step; once the layers stop growing without
    reaching a neighbour of a, there is no path."""
    masks = g.masks
    inner = comp & ~(1 << a | 1 << b)
    near = [1 << b]
    frontier = near[0]
    for L in range(max(min_len, 1), inner.bit_count() + 2):
        while len(near) < L:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & inner & ~near[-1]
            near.append(near[-1] | frontier)
        if not frontier and not masks[a] & near[-1]:
            return None
        seq, on = [a], 1 << a | 1 << b  # b ends a path and is never entered
        stack = [masks[a]]  # per depth: the neighbours not yet tried
        while stack:
            left = L - len(stack)  # edges after the one taken now
            if not left:
                if stack[-1] >> b & 1:
                    return Path(tuple(seq) + (b,))
            elif nxt := stack[-1] & near[left] & ~on:
                low = nxt & -nxt
                stack[-1] ^= low
                on |= low
                seq.append(low.bit_length() - 1)
                stack.append(masks[seq[-1]])
                continue
            stack.pop()
            on ^= 1 << seq.pop()
    return None


def find_direct_extension(g: Graph, p: Path, comps):
    """When every off-path component touches the endpoint neighborhoods,
    splice a longer path through one or two of them; otherwise certify a
    component attached only to the interior.  ``comps`` is
    ``_attached_components(g, p.vertices)``.  Returns (path, component)
    with exactly one of the two set; `_finish` checks the path."""
    pm = vertex_mask(p.vertices)
    x, y = p.x, p.y
    nbrs = dict(comps)
    interior_only = [c for c, at in nbrs.items() if x not in at and y not in at]
    if interior_only:
        return None, interior_only[0]  # the least, in components order
    if p.length < 2:
        raise ValueError("direct extension needs a path with an interior")
    u, v = p.vertices[1], p.vertices[-2]

    def comp_of(vertex):
        off = g.masks[vertex] & ~pm
        if not off:
            raise InvariantViolation(
                "component-claim", f"interior vertex {vertex} has no off-path edge"
            )
        return next(c for c in nbrs if off & c)

    h_i = comp_of(u)
    if x in nbrs[h_i]:
        seg = _through_component(g, x, u, h_i, 2)
        return Path(seg.vertices + p.vertices[2:]), None
    # past the filter every component touches x or y, so h_i touches y;
    # without chords v has one off-path neighbor, so v attaches to h_i
    # exactly when h_j is h_i, and the splice below covers that case
    h_j = comp_of(v)
    if y in nbrs[h_j]:
        seg = _through_component(g, v, y, h_j, 2)
        return Path(p.vertices[:-1] + seg.vertices[1:]), None
    # likewise h_j touches x; h_i misses x and h_j misses y, so they differ
    seg_xv = _through_component(g, x, v, h_j, 2)
    seg_uy = _through_component(g, u, y, h_i, 2)
    middle = tuple(reversed(p.vertices[1:-1]))  # v .. u
    return Path(seg_xv.vertices + middle[1:] + seg_uy.vertices[1:]), None


def _adjacent_attachment_splice(g: Graph, p: Path, comps):
    """A component with two consecutive attachments admits an immediate
    splice; the argument never meets this on longest paths, but sampled
    paths do.  ``comps`` is ``_attached_components(g, p.vertices)``.
    Callers pass paths of length >= 2, so no consecutive pair is the
    endpoint pair."""
    vs = p.vertices
    for comp, attach in comps:
        for i, (a, b) in enumerate(zip(vs, vs[1:])):
            if a in attach and b in attach:
                seg = _through_component(g, a, b, comp, 2)
                return Path(vs[: i + 1] + seg.vertices[1:-1] + vs[i + 1:])
    return None


# ---------------------------------------------------------------------------
# the reduction


def _color_ring(ring, comps):
    """Close ``ring`` into a cycle, add one triangle on the first three
    attachments (in ring order) of each component in ``comps``, 3-color
    the result and pick the class avoiding both ends of the ring.

    Returns (class, chosen triangles, [(component, relabeled triangle)])
    where a relabeled triangle names its class member last."""
    pos = {h: i for i, h in enumerate(ring)}
    chosen = [tuple(sorted(attach, key=pos.__getitem__)[:3]) for _, attach in comps]
    m = len(ring)
    edges = {(i, i + 1) for i in range(m - 1)} | {(0, m - 1)}
    for t in chosen:
        for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges.add((min(pos[a], pos[b]), max(pos[a], pos[b])))
    coloring = three_color_cycle_plus(Graph(m, edges), Cycle(tuple(range(m))))
    a_set, relabeled = pick_color_class(
        {ring[i]: c for i, c in coloring.items()},
        forbidden={ring[0], ring[-1]},
        triangles=chosen,
    )
    return a_set, chosen, [(comp, t) for (comp, _), t in zip(comps, relabeled)]


def build_reduced_G2(g: Graph, p: Path, comps):
    """Reduce the host along the path: path and closing edges black, each
    two-neighbor component a red edge, each larger component attached to
    the interior only (a triple) contracted onto its designated vertex,
    the other larger ones absorbed into y (preferred) or x, with all
    contraction edges blue.  ``comps`` is ``_attached_components(g,
    p.vertices)``.  The triples are coloured on the interior ring by
    `_color_ring`; returns (reduced graph, class, [(component, relabeled
    triple)])."""
    x, y = p.x, p.y
    on_path = vertex_mask(p.vertices)
    rg = ReducedGraph(p.vertices)
    triple_comps, endpoint = [], []
    for comp, attach in comps:
        if len(attach) == 2:
            rg.add_edge(attach[0], attach[1], RED, comp)
        elif x in attach or y in attach:
            endpoint.append((comp, y if y in attach else x))
        else:
            triple_comps.append((comp, attach))
    a_set, triples = frozenset(), []
    if triple_comps:
        a_set, _, triples = _color_ring(p.vertices[1:-1], triple_comps)
    for comp, rep in [(comp, t[2]) for comp, t in triples] + endpoint:
        for w in _contraction_edges(g, comp, rep, on_path):
            rg.add_edge(rep, w, BLUE, comp)
    for v in p.vertices[1:-1]:
        if rg.degree(v) < 3:
            raise InvariantViolation(
                "reduced-graph", f"interior vertex {v} has degree {rg.degree(v)}"
            )
    on, am = cycle_masks(p.vertices, g.n), vertex_mask(a_set)
    if any(on[a] & am for a in a_set):
        raise InvariantViolation(
            "reduced-graph", "selected class not independent on the cycle"
        )
    return rg, a_set, triples


def _contraction_edges(g: Graph, comp: int, rep: int, on: int):
    """The end w on ``on`` of each host edge from ``comp`` to ``on`` other
    than those into ``rep``, where comp and on are vertex masks:
    contracting comp onto rep turns each into the edge rep-w.  The
    members of comp come in ascending order, and each member's
    neighbours in ascending order; this order numbers the blue edges of
    an `extend` trace."""
    on &= ~(1 << rep)
    return [w for v in vertex_bits(comp) for w in vertex_bits(g.masks[v] & on)]


def find_odd_cover_cycle(rg: ReducedGraph) -> MultiCycle:
    """First cycle (deterministic order) through the closing edge that
    covers every odd-degree vertex and differs from the base cycle.  A
    DFS from y cuts a branch once the vertices it can still reach miss
    an uncovered odd vertex or every neighbour of x."""
    x, y = rg.xy
    odd = vertex_mask(v for v, adj in rg.adjmap.items() if len(adj) % 2)
    base = rg.cycle_eids
    # (edge id, neighbour) per vertex, by neighbour and then edge id
    nbrs = {v: sorted(adj, key=lambda t: (t[1], t[0])) for v, adj in rg.adjmap.items()}
    near = {v: vertex_mask(w for _, w in adj) for v, adj in rg.adjmap.items()}

    def dfs(cur, vseq, eids, visited):
        if len(vseq) >= 3:
            for eid, w in nbrs[cur]:
                if w == x and eid != rg.xy_eid:
                    if not odd & ~visited:
                        cand = frozenset(eids + (eid,))
                        if cand != base:
                            return MultiCycle(vseq, eids + (eid,))
        reach, _ = reach_mask(near, 1 << cur, ~visited)
        if odd & ~visited & ~reach or not near[x] & reach:
            return None
        for eid, w in nbrs[cur]:
            if visited >> w & 1 or w == x:
                continue
            found = dfs(cur=w, vseq=vseq + (w,), eids=eids + (eid,),
                        visited=visited | 1 << w)
            if found is not None:
                return found
        return None

    found = dfs(y, (x, y), (rg.xy_eid,), 1 << x | 1 << y)
    if found is None:
        raise InvariantViolation(
            "odd-cover-cycle",
            "no second cycle through xy covering the odd-degree vertices",
        )
    # dfs closes a cycle only when odd <= visited, the vertex set of vseq
    return found


def _maximal_runs(flags, stage: str):
    """(start, length) of each maximal run of true ``flags``, which start
    with a false one so that no run wraps around; a run longer than 2
    fails ``stage``."""
    runs, i = [], 0
    for flag, group in groupby(flags):
        length = len(list(group))
        if flag:
            if length > 2:
                raise InvariantViolation(stage, f"maximal blue run of length {length} > 2")
            runs.append((i, length))
        i += length
    return runs


def compute_stats(rg: ReducedGraph, cp: MultiCycle):
    """All counting quantities of the comparison argument, with their
    internal identities asserted; also returns the maximal blue runs as
    (start index, length) pairs."""
    missing = len(rg.cycle_eids - frozenset(cp.eids))
    dropped = len(set(rg.cycle_vertices) - set(cp.vertices))
    blue_on = sum(1 for e in cp.eids if rg.tags[e] == BLUE)
    red_on = sum(1 for e in cp.eids if rg.tags[e] == RED)
    if rg.tags[cp.eids[0]] != BLACK:
        raise InvariantViolation("stats", "cycle does not start on the xy edge")
    runs = _maximal_runs([rg.tags[e] == BLUE for e in cp.eids], "stats")
    for start, length in runs:
        if length == 2:
            mid = cp.vertices[start + 1]
            e1, e2 = cp.eids[start], cp.eids[start + 1]
            reps = (rg.edges[e1][0], rg.edges[e2][0])
            if reps != (mid, mid) or rg.comps[e1] != rg.comps[e2]:
                raise InvariantViolation(
                    "stats", "length-2 blue run not centered on one representative"
                )
    q = len(runs)
    p_long = sum(1 for _, length in runs if length == 2)
    stats = BlueSubpathStats(
        dropped_vertices=dropped,
        missing_edges=missing,
        surplus=missing - 2 * dropped,
        blue_on_cycle=blue_on,
        red_on_cycle=red_on,
        blue_runs=q,
        long_blue_runs=p_long,
    ).check()
    return stats, runs


def _lift_runs(g: Graph, vertices, runs, stage: str):
    """Walk a cycle through ``vertices`` and replace each run by the
    shortest host path through its component.  ``runs`` maps a start
    index to (steps, component, least length); a run ends ``steps``
    vertices later (cyclically).  Returns the host vertex sequence and
    the host path used for each run, keyed by its start."""
    L = len(vertices)
    verts, segs = [], {}
    i = 0
    while i < L:
        if i not in runs:
            verts.append(vertices[i])
            i += 1
            continue
        steps, comp, least = runs[i]
        a, b = vertices[i], vertices[(i + steps) % L]
        seg = _through_component(g, a, b, comp, least)
        if seg is None:
            raise InvariantViolation(
                stage, f"no host path of length >= {least} from {a} to {b} through its component"
            )
        verts.extend(seg.vertices[:-1])
        segs[i] = seg
        i += steps
    return verts, segs


def lift_to_host(g: Graph, rg: ReducedGraph, cp: MultiCycle, runs, stats):
    """Replace red edges (host paths of length >= 3) and blue runs (>= 2)
    of the cover cycle with host paths through their components; returns
    (host cycle, attachments, detail) where attachments lists
    (representative, interior vertex, component) for each tight
    length-2 run.  ``runs`` and ``stats`` come from compute_stats."""
    blue_at = dict(runs)
    routes = {}
    for i, eid in enumerate(cp.eids):
        if rg.tags[eid] == RED:
            routes[i] = (1, rg.comps[eid], 3)
        elif i in blue_at:
            routes[i] = (blue_at[i], rg.comps[eid], 2)
    verts, segs = _lift_runs(g, cp.vertices, routes, "lift")
    attachments = [
        (cp.vertices[i + 1], seg.vertices[1], routes[i][1])
        for i, seg in segs.items()
        if routes[i][0] == 2 and seg.length == 2
    ]
    extra = [] if g.has_edge(*rg.xy) else [rg.xy]
    c_star = _checked_cycle(g, verts, extra, "lift")
    floor = (
        len(rg.cycle_eids)
        - stats.missing_edges
        + 2 * stats.blue_runs
        + 3 * stats.red_on_cycle
    )
    if c_star.length < floor:
        raise InvariantViolation(
            "lift",
            f"lifted length {c_star.length} below the floor {floor}",
        )
    detail = {"length": c_star.length, "floor": floor}
    return c_star, attachments, detail


# ---------------------------------------------------------------------------
# matching step (tight case)


def matching_step(g: Graph, c_star: Cycle, c_host: Cycle, attachments):
    """Tight-case finish: overlay the two equal-length cycles plus one
    attachment edge per dropped representative, compress the shared
    degree-2 runs into a matching, search the small cubic leftover for a
    longer cycle through the matching, and decompress."""
    if not attachments:
        raise InvariantViolation("matching-step", "no attachments in the tight case")
    host = cycle_masks(c_host.vertices, g.n)
    both = [s | h for s, h in zip(cycle_masks(c_star.vertices, g.n), host)]
    g3 = list(both)  # both cycles and the attachment edges
    aux = {}
    for w, w_star, comp in attachments:
        if both[w] >> w_star & 1:
            raise InvariantViolation("matching-step", "attachment edge collides")
        aux[(min(w, w_star), max(w, w_star))] = (w, w_star, comp)
        g3[w] |= 1 << w_star
        g3[w_star] |= 1 << w
    high = vertex_mask(v for v, m in enumerate(g3) if m.bit_count() >= 3)

    p_count = len(attachments)
    partners = high & ~vertex_mask(v for w, w_star, _ in attachments for v in (w, w_star))

    vs = c_star.vertices
    Lc = len(vs)
    anchors = [i for i, v in enumerate(vs) if high >> v & 1]
    if not anchors:
        raise InvariantViolation("matching-step", "no branch vertices on the lift")
    segments = []
    for idx, i in enumerate(anchors):
        j = anchors[(idx + 1) % len(anchors)]
        seg = [vs[i]]
        k = i
        while k != j:
            k = (k + 1) % Lc
            seg.append(vs[k])
        segments.append(tuple(seg))
    matching = {}
    for seg in segments:
        if partners >> seg[0] & 1 and partners >> seg[-1] & 1:
            for a, b in zip(seg, seg[1:]):
                if not host[a] >> b & 1:
                    raise InvariantViolation(
                        "matching-step", "compressed run leaves the base cycle"
                    )
            matching[(min(seg[0], seg[-1]), max(seg[0], seg[-1]))] = seg
        elif len(seg) != 2:
            raise InvariantViolation(
                "matching-step", "non-trivial run not between matching endpoints"
            )

    if partners.bit_count() != 2 * p_count or len(matching) != p_count:
        raise InvariantViolation(
            "matching-step",
            f"bipartition sizes off: {partners.bit_count()} partners, {len(matching)} matching edges",
        )

    # dense ids in vertex order: the relabeling keeps the canonical cycle
    # form and the order of vertex sequences, so the kernel's rows ascend
    # in host ids too
    order = vertex_bits(high)
    dense = {v: i for i, v in enumerate(order)}
    for a, b in matching:  # the compressed graph: g3 and the matching on high
        g3[a] |= 1 << b
        g3[b] |= 1 << a
    g4_masks = [vertex_mask(dense[w] for w in vertex_bits(g3[v] & high)) for v in order]
    if any(m.bit_count() != 3 for m in g4_masks):
        raise InvariantViolation("matching-step", "compressed graph is not cubic")

    # the shortest cycle longer than 3p through every matching edge, least
    # vertex sequence first: the first qualifying row
    def through_matching(seq):
        on = cycle_masks(seq, g.n)
        return all(on[a] >> b & 1 for a, b in matching)

    rows = (
        tuple(order[i] for i in row)
        for length in range(3 * p_count + 1, len(order) + 1)
        for row in kernels.cycles_of_length(g4_masks, length)
    )
    seq = next(filter(through_matching, rows), None)
    if seq is None:
        raise InvariantViolation(
            "matching-step", "no longer cycle through the matching exists"
        )

    host_verts = []
    for a, b in zip(seq, seq[1:] + seq[:1]):
        key = (min(a, b), max(a, b))
        if key in matching:
            seg = matching[key]
            piece = seg if seg[0] == a else tuple(reversed(seg))
        elif key in aux:
            w, w_star, comp = aux[key]
            found = _through_component(g, w, w_star, comp & ~(1 << w_star), 1)
            if found is None:
                raise InvariantViolation(
                    "matching-step", f"no host route for attachment ({w},{w_star})"
                )
            piece = found.vertices if found.x == a else tuple(reversed(found.vertices))
        else:
            piece = (a, b)
        host_verts.extend(piece[:-1])
    out = Cycle(tuple(host_verts))
    if out.length <= c_host.length:
        raise InvariantViolation("matching-step", "decompressed cycle is not longer")
    return out


# ---------------------------------------------------------------------------
# the extension pipelines


def _past_edge(vs, u, v, stage: str, problem: str) -> int:
    """The index just past the edge uv of the closed walk ``vs``, len(vs)
    when uv closes it; a walk without uv fails ``stage`` with
    ``problem``."""
    n = len(vs)
    for i in range(n):
        if {vs[i], vs[(i + 1) % n]} == {u, v}:
            return i + 1
    raise InvariantViolation(stage, problem)


def _path_from_cycle(c: Cycle, x: int, y: int) -> Path:
    vs = c.vertices
    i = _past_edge(vs, x, y, "checker", "cycle does not contain the xy edge")
    rot = vs[i:] + vs[:i]
    return Path(rot if rot[0] == x else tuple(reversed(rot)))


def _checked_cycle(g: Graph, verts, extra, stage: str) -> Cycle:
    """The `Cycle` on ``verts``, once `cycle_problem` finds it a cycle of g
    with the pairs ``extra`` added; a problem fails ``stage``."""
    problem = cycle_problem(g, verts, extra)
    if problem:
        raise InvariantViolation(stage, problem)
    return Cycle(verts)


def _finish(g, p, longer, trace, flipped=False):
    """The one exit of both pipelines: check that ``longer`` is a longer
    path of g with p's endpoints, undo the adjacent pipeline's flip and
    record it as the trace's final path.

    Its walk is `precheck`'s, on ``longer`` before the flip is undone,
    and `Path.reversed` keeps the result, so the next `precheck` of a
    fixpoint loop only reads it."""
    try:
        precheck(g, longer)
    except ValueError as exc:
        raise InvariantViolation("checker", str(exc)) from None
    if (longer.x, longer.y) != (p.x, p.y):
        raise InvariantViolation("checker", "endpoints moved")
    if longer.length <= p.length:
        raise InvariantViolation("checker", "replacement path is not longer")
    if flipped:
        longer = longer.reversed()
    trace.final_path = longer.vertices
    return longer, trace


def extend_path(g: Graph, p: Path):
    """Strictly longer (x,y)-path for an extendable input, with the trace
    of every construction step.

    Its `precheck` only reads the result when the caller, or the step
    that made p, has classified p in g already."""
    trace = ExtensionTrace()
    cls = precheck(g, p)
    if cls.kind != EXTENDABLE:
        raise ValueError(f"path is not extendable: {cls.kind} at {sorted(cls.bound)}")
    trace.add("precheck", classification=cls.kind, path=list(p.vertices))
    if p.length < 2:
        # length-1 inputs predate the machinery: the least detour around
        # xy is longer
        longer = _through_component(g, p.x, p.y, (1 << g.n) - 1, 2)
        trace.add("component-claim", branch="short-path", path=list(longer.vertices))
        return _finish(g, p, longer, trace)
    comps = _attached_components(g, p.vertices)
    direct, certificate = find_direct_extension(g, p, comps)
    if direct is not None:
        trace.add("component-claim", branch="direct", path=list(direct.vertices))
        return _finish(g, p, direct, trace)
    trace.add(
        "component-claim",
        branch="certificate",
        component=vertex_bits(certificate),
    )
    spliced = _adjacent_attachment_splice(g, p, comps)
    if spliced is not None:
        trace.add(
            "component-claim", branch="adjacent-attachment", path=list(spliced.vertices)
        )
        return _finish(g, p, spliced, trace)
    rg, a_set, triples = build_reduced_G2(g, p, comps)
    trace.add("coloring", class_a=sorted(a_set), triples=[list(t) for _, t in triples])
    trace.add("reduced-graph", edges=rg.edge_rows())
    cp = find_odd_cover_cycle(rg)
    trace.add("odd-cover-cycle", cycle=list(cp.vertices))
    stats, runs = compute_stats(rg, cp)
    trace.add("stats", **asdict(stats))
    c_star, attachments, detail = lift_to_host(g, rg, cp, runs, stats)
    trace.add("lift", cycle=list(c_star.vertices), **detail)
    base_len = len(rg.cycle_eids)
    if c_star.length > base_len:
        return _finish(g, p, _path_from_cycle(c_star, p.x, p.y), trace)
    if (
        stats.dropped_vertices != 0
        or stats.red_on_cycle != 0
        or stats.blue_runs != stats.long_blue_runs
        or len(attachments) != stats.long_blue_runs
    ):
        raise InvariantViolation(
            "stats-collapse",
            "lift failed to grow but the tight-case collapse does not hold",
        )
    c_host = Cycle(p.vertices)
    c1p = matching_step(g, c_star, c_host, attachments)
    trace.add("matching-step", cycle=list(c1p.vertices), length=c1p.length)
    return _finish(g, p, _path_from_cycle(c1p, p.x, p.y), trace)


# ---------------------------------------------------------------------------
# adjacent-endpoint machinery


def extend_path_adjacent(g: Graph, p: Path):
    """Extension for the adjacent-endpoint configuration: x and y are
    adjacent and p has exactly one internal bound vertex w, so it is not
    longest.  Removes the endpoint joined to w and w itself, reruns the
    second-cycle lemma on the contracted remainder, lifts, and reinstates
    both vertices.

    The classification is `precheck`'s, kept on p as by every other
    call.  One bound vertex is the same as one chord of the closing cycle
    (p plus xy), at an endpoint.  In a cubic graph with x ~ y every chord
    has an internal end, since xy is a cycle edge, and that end is bound;
    an internal vertex has at most one chord, its one edge off its two
    path edges, and is bound exactly when it has one.  So one bound
    vertex w means one chord, joining w to x or to y, and such a chord
    makes w the one bound vertex."""
    trace = ExtensionTrace()
    if not is_cubic(g):
        raise ValueError("host graph is not cubic")
    if not connectivity_at_least(g, 3):
        raise ValueError("host graph is not 3-connected")
    bound = precheck(g, p).bound
    x, y = p.x, p.y
    if not g.has_edge(x, y):
        raise ValueError("endpoints are not adjacent")
    if len(bound) != 1:
        raise ValueError(
            f"path must have exactly one internal bound vertex, found {len(bound)}"
        )
    (w,) = bound
    # the chord is xw unless w is x's path neighbour, whose edge to x is
    # no chord, or w misses x; then it is yw, and the flip puts it at x
    flipped = w == p.vertices[1] or not g.has_edge(x, w)
    if flipped:
        p = p.reversed()
        x, y = p.x, p.y
    # the closing cycle has at least 5 vertices, and every off-cycle
    # component at least three attachments: off x and w each cycle vertex
    # has one edge off the cycle, so a and y of a 4-cycle x, a, w, y, or a
    # component with fewer attachments, would be cut off by at most two
    # edges, which no 3-connected host allows
    vs = p.vertices  # x .. w .. y along the cycle
    a = vs[1]
    wi = vs.index(w)
    b, c = vs[wi - 1], vs[wi + 1]
    trace.add("precheck", x=x, y=y, w=w, a=a, b=b, c=c, path=list(vs))

    comps = _attached_components(g, vs)
    spliced = _adjacent_attachment_splice(g, p, comps)
    if spliced is not None:
        branch = "single-component" if len(comps) <= 1 else "adjacent-attachment"
        trace.add("component-claim", branch=branch, path=list(spliced.vertices))
        return _finish(g, p, spliced, trace, flipped)
    # xw is the only chord, so with one component every cycle vertex but
    # x and w attaches to it; a cycle of length >= 5 has two consecutive
    # such vertices on the path, and the splice above takes them

    # w is neither a nor y, so vs runs x, a .. b, w, c .. y: the surgery
    # edges ay and bc share c = y (the classical shape), b = a (the
    # mirrored one) or nothing
    case = "case-2" if c == y or b == a else "case-1"
    if c == y:
        splice = _ay_component_splice(g, p, comps, a, y, wi)
        if splice is not None:
            trace.add(case, branch="ay-component-splice", path=list(splice.vertices))
            return _finish(g, p, splice, trace, flipped)

    cprime_vertices = vs[1:wi] + vs[wi + 1:]  # a .. b, c .. y
    new_edges = [(a, y), (b, c)]
    # x and w have every neighbor on the cycle, so the attachments lie on
    # the ring and the ring ends a, y are the reinstatement pair
    a_set, chosen, relabeled = _color_ring(cprime_vertices, comps)
    trace.add(
        case,
        branch="coloring",
        class_a=sorted(a_set),
        triples=[list(t) for t in chosen],
    )
    inst, designated_edge, host_of = _adjacent_lemma_instance(
        g, cprime_vertices, relabeled, a_set, b, c
    )
    cert = second_hamilton_cycle(inst, designated_edge[0], designated_edge[1])
    c1_host_vertices = tuple(host_of[v] for v in cert.c_prime.vertices)
    trace.add(
        "odd-cover-cycle",
        cycle=list(c1_host_vertices),
        exchange_vertex=host_of[cert.exchange_vertex],
    )

    lifted = _lift_adjacent(
        g, cprime_vertices, new_edges, relabeled, c1_host_vertices, trace, case
    )
    reinstated = _reinstate(g, lifted, x, y, w, a, b, c, case)
    if reinstated.length <= len(vs):
        raise InvariantViolation(case, "reinstated cycle is not longer")
    trace.add(case, cycle=list(reinstated.vertices), length=reinstated.length)
    longer = _path_from_cycle(reinstated, x, y)
    return _finish(g, p, longer, trace, flipped)


def _ay_component_splice(g, p, comps, a, y, wi):
    """Component seeing both a and y: route x,w,b back along the cycle to
    a and through the component to y; w is ``p.vertices[wi]``."""
    vs = p.vertices
    for comp, attach in comps:
        if a in attach and y in attach:
            seg = _through_component(g, a, y, comp, 2)
            back = tuple(reversed(vs[1:wi]))  # b .. a
            return Path((vs[0], vs[wi]) + back + seg.vertices[1:])
    return None


def _adjacent_lemma_instance(g, cprime_vertices, relabeled, a_set, b, c):
    """Contract every off-cycle component onto its designated vertex and
    package the result as a lemma instance (dense ids); returns the
    instance, the designated lemma edge, and the dense->host map."""
    host_of = dict(enumerate(sorted(cprime_vertices)))
    pos = {h: i for i, h in host_of.items()}  # keeps the order of ids
    on_cycle = vertex_mask(cprime_vertices)
    ring2 = [pos[h] for h in cprime_vertices]
    cyc = Cycle(tuple(ring2))
    edges = set(cyc.edge_pairs())
    for comp, (_, _, w2) in relabeled:
        for z in _contraction_edges(g, comp, w2, on_cycle):
            edges.add((pos[min(w2, z)], pos[max(w2, z)]))
    gd = Graph(len(ring2), edges)
    a_dense = frozenset(pos[h] for h in a_set)

    start = next(i for i, v in enumerate(ring2) if v in a_dense)
    order = ring2[start:] + ring2[:start]
    # the arcs are the runs of the ring outside A, one after each member:
    # A is a colour class of the closed ring, so no two members neighbour
    # (`LemmaInstance.check` refuses an A that has two, as not independent)
    arcs = [tuple(run) for inside, run in groupby(order, a_dense.__contains__) if not inside]
    bd, cd = pos[b], pos[c]
    if b in a_set or c in a_set:
        # designate the surgery edge itself so the lemma forces it onto
        # the second cycle; its non-class endpoint heads the last arc
        inside = cd if b in a_set else bd
        lemma_x, lemma_y = inside, (bd if inside == cd else cd)
        special = next(i for i, arc in enumerate(arcs) if inside in arc)
    else:
        # the surgery edge sits inside an arc and survives automatically;
        # designate that arc and its outward cycle edge
        special = next(i for i, arc in enumerate(arcs) if bd in arc)
        lemma_x = arcs[special][0]
        # every arc starts right after a member of A in ring order, and
        # none is empty
        lemma_y = ring2[ring2.index(lemma_x) - 1]
    arcs = [arc for i, arc in enumerate(arcs) if i != special] + [arcs[special]]
    # second_hamilton_cycle checks the instance before it uses it
    inst = LemmaInstance(g=gd, cycle=cyc, a_set=a_dense, components=tuple(arcs))
    return inst, (lemma_x, lemma_y), host_of


def _lift_adjacent(g, cprime_vertices, new_edges, relabeled, c1_vertices, trace, case):
    """Replace contraction chords of the found cycle by host paths through
    their components; the result lives in the host minus the reinstated
    pair, plus the two surgery edges."""
    comp_of_rep = {w2: comp for comp, (_, _, w2) in relabeled}
    ring = cycle_masks(cprime_vertices, g.n)
    L = len(c1_vertices)
    is_chord = [
        not ring[a2] >> b2 & 1
        for a2, b2 in zip(c1_vertices, c1_vertices[1:] + c1_vertices[:1])
    ]
    start = next((i for i, ch in enumerate(is_chord) if not ch), None)
    if start is None:
        raise InvariantViolation(case, "found cycle uses no ring edge")
    # start on a ring edge, so that no run of chords wraps around
    vs = c1_vertices[start:] + c1_vertices[:start]
    is_chord = is_chord[start:] + is_chord[:start]
    runs = {}
    for i, steps in _maximal_runs(is_chord, case):
        # a two-chord run passes through its representative; a single
        # chord has it at one end
        if steps == 2:
            rep = vs[i + 1]
        else:
            rep = vs[i] if vs[i] in comp_of_rep else vs[(i + 1) % L]
        runs[i] = (steps, comp_of_rep[rep], 2)
    long_runs = sum(1 for steps, _, _ in runs.values() if steps == 2)
    if len(runs) <= long_runs:
        raise InvariantViolation(
            case, f"accounting needs more runs than length-2 runs ({len(runs)} vs {long_runs})"
        )
    trace.add(case, branch="lift", blue_runs=len(runs), long_blue_runs=long_runs)
    verts, _ = _lift_runs(g, vs, runs, case)
    return _checked_cycle(g, verts, new_edges, case)


def _reinstate(g, lifted, x, y, w, a, b, c, case):
    """Swap the two surgery edges for the four host edges through x and w:
    x goes between a and y, w between b and c.  A vertex the two edges
    share is c = y or b = a, so one rule covers every shape."""
    vs = lifted.vertices
    for p2, q2, mid in ((a, y, x), (b, c, w)):
        i = _past_edge(vs, p2, q2, case, f"surgery edge ({p2},{q2}) missing from lift")
        vs = vs[:i] + (mid,) + vs[i:]
    cyc = _checked_cycle(g, vs, (), case)
    if cyc.length != lifted.length + 2:
        raise InvariantViolation(case, "reinstatement did not add exactly two edges")
    return cyc
