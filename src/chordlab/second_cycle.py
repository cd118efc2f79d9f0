"""The constructive second Hamilton cycle with its side conditions, the
executable form of the second-cycle lemma (the parity statement it rests
on, that designated edges lie on an even number of Hamilton cycles, is
checked by the tests).

The second cycle is the Hamilton cycle of the support graph (cycle plus
designated chords) through xy, other than C, with the largest overlap with
C; its turning vertex is a vertex of A with exactly one incident edge of
C.  The exchange step of the parity argument is not coded: started from
the maximum candidate it can only reach C itself or a cycle missing xy,
because any other Hamilton cycle of the support graph through xy with a
larger overlap would contradict maximality.  A maximum candidate without a
turning vertex is therefore an internal error.  `LemmaInstance` is the
shape the lemma runs on, with its hypothesis check; the extender builds
the instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .graphs import Graph, cycle_masks, vertex_mask
from .search import Cycle, hamilton_cycles


@dataclass(frozen=True)
class LemmaInstance:
    """A graph with a Hamilton cycle C and an independent-on-C set A whose
    removal from C leaves |A| arcs, every endpoint of each non-final arc
    joined to A by a chord.  The final arc is the distinguished one."""

    g: Graph
    cycle: Cycle
    a_set: frozenset
    components: tuple  # ordered vertex tuples, distinguished arc last

    @property
    def k(self) -> int:
        return len(self.a_set)

    def check(self):
        """Check every hypothesis clause separately; a failed clause raises
        InvariantViolation("lemma-instance", <clause>).  Returns self."""
        self.cycle.validate(self.g)
        if self.cycle.length != self.g.n:
            raise InvariantViolation("lemma-instance", "cycle is not Hamilton")
        masks, on = self.g.masks, cycle_masks(self.cycle.vertices, self.g.n)
        am = vertex_mask(self.a_set)
        if any(m & am for v, m in enumerate(on) if am >> v & 1):
            raise InvariantViolation("lemma-instance", "A is not independent on C")
        if len(self.components) != self.k:
            raise InvariantViolation("lemma-instance", "arc count differs from |A|")
        for comp in self.components:
            for a, b in zip(comp, comp[1:]):
                if not masks[a] >> b & 1:
                    raise InvariantViolation("lemma-instance", "arc is not a path")
        members = [*self.a_set, *(v for comp in self.components for v in comp)]
        if sorted(members) != list(range(self.g.n)):  # a repeated vertex fails too
            raise InvariantViolation("lemma-instance", "arcs and A do not partition the vertices")
        for comp in self.components[:-1]:
            for end in (comp[0], comp[-1]):
                if not masks[end] & ~on[end] & am:
                    raise InvariantViolation(
                        "lemma-instance",
                        f"endpoint {end} of a non-final arc has no chord to A",
                    )
        return self


@dataclass(frozen=True)
class SecondCycleCertificate:
    c_prime: Cycle
    exchange_vertex: int    # one incident cycle edge kept, one swapped


def build_support_graph(inst: LemmaInstance) -> Graph:
    """Cycle plus one designated chord per endpoint of each non-final arc
    (lowest-id target in A); this is the graph the lemma machinery runs
    on.  ``inst`` is checked: `LemmaInstance.check` refuses an endpoint
    without a chord into A."""
    g, cyc = inst.g, inst.cycle
    on, am = cycle_masks(cyc.vertices, g.n), vertex_mask(inst.a_set)
    designated = set()
    for comp in inst.components[:-1]:
        for v in (comp[0], comp[-1]):
            targets = g.masks[v] & ~on[v] & am
            designated.add((v, (targets & -targets).bit_length() - 1))
    return Graph(g.n, [*cyc.edge_pairs(), *designated])


def _satisfies_turning_condition(hm, on, a_set):
    """Vertex of A with exactly one incident edge of the candidate cycle
    (neighbour masks ``hm``) on the base cycle (``on``), or None."""
    return next((v for v in sorted(a_set) if (hm[v] & on[v]).bit_count() == 1), None)


def second_hamilton_cycle(inst: LemmaInstance, x: int, y: int) -> SecondCycleCertificate:
    """The Hamilton cycle of the support graph through the edge xy, other
    than the instance cycle, with the largest overlap with it (ties by
    vertex sequence): it agrees with the instance cycle off A and has a
    turning vertex in A."""
    inst.check()
    h_last = inst.components[-1]
    if x not in (h_last[0], h_last[-1]):
        raise ValueError(f"{x} is not an endpoint of the distinguished arc")
    n, base = inst.g.n, inst.cycle
    on = cycle_masks(base.vertices, n)
    if not on[x] >> y & 1:
        raise ValueError(f"({x},{y}) is not a cycle edge")
    steps = list(zip(h_last, h_last[1:]))
    if (x, y) in steps or (y, x) in steps:
        raise ValueError(f"({x},{y}) lies inside the distinguished arc")
    g1 = build_support_graph(inst)
    # x ends the distinguished arc, which gets no designated chord, so x
    # has degree 2 in g1 and every Hamilton cycle of g1 uses xy
    cands = [(h, cycle_masks(h.vertices, n)) for h in hamilton_cycles(g1) if h != base]
    if not cands:
        raise InvariantViolation(
            "second-cycle", f"no second Hamilton cycle through ({x},{y})"
        )
    am = vertex_mask(inst.a_set)
    outside = [v for v in range(n) if not am >> v & 1]
    for _, hm in cands:
        if any((hm[v] ^ on[v]) & ~am for v in outside):
            raise InvariantViolation(
                "second-cycle", "a support-graph Hamilton cycle moved off A"
            )
    # cands ascend by vertex sequence, and max returns the first maximum
    best, hm = max(cands, key=lambda c: sum((m & o).bit_count() for m, o in zip(c[1], on)))
    v = _satisfies_turning_condition(hm, on, inst.a_set)
    if v is None:
        raise InvariantViolation(
            "second-cycle", "the maximum-overlap candidate has no turning vertex"
        )
    return SecondCycleCertificate(c_prime=best, exchange_vertex=v)
