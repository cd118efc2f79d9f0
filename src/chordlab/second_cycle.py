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
from .graphs import Graph
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
        cyc_edges = self.cycle.edge_set()
        for a in self.a_set:
            for b in self.a_set:
                if a != b and (min(a, b), max(a, b)) in cyc_edges:
                    raise InvariantViolation("lemma-instance", "A is not independent on C")
        if len(self.components) != self.k:
            raise InvariantViolation("lemma-instance", "arc count differs from |A|")
        covered = set()
        for comp in self.components:
            covered |= set(comp)
            for a, b in zip(comp, comp[1:]):
                if not self.g.has_edge(a, b):
                    raise InvariantViolation("lemma-instance", "arc is not a path")
        if covered | self.a_set != set(range(self.g.n)) or covered & self.a_set:
            raise InvariantViolation("lemma-instance", "arcs and A do not partition the vertices")
        for comp in self.components[:-1]:
            for end in (comp[0], comp[-1]):
                if not any(
                    self.g.has_edge(end, a)
                    and (min(end, a), max(end, a)) not in cyc_edges
                    for a in self.a_set
                ):
                    raise InvariantViolation(
                        "lemma-instance",
                        f"endpoint {end} of a non-final arc has no chord to A",
                    )
        return self


def _edges_minus_vertices(cycle_edges, drop) -> frozenset:
    return frozenset(e for e in cycle_edges if e[0] not in drop and e[1] not in drop)


@dataclass(frozen=True)
class SecondCycleCertificate:
    c_prime: Cycle
    exchange_vertex: int    # one incident cycle edge kept, one swapped


def build_support_graph(inst: LemmaInstance):
    """Cycle plus one designated chord per endpoint of each non-final arc
    (lowest-id target in A); this is the graph the lemma machinery runs
    on."""
    g, cyc = inst.g, inst.cycle
    cyc_keys = cyc.edge_set()
    designated = set()
    for comp in inst.components[:-1]:
        for v in dict.fromkeys((comp[0], comp[-1])):  # start, then end
            targets = sorted(
                a for a in inst.a_set
                if g.has_edge(v, a) and (min(v, a), max(v, a)) not in cyc_keys
            )
            if not targets:
                raise ValueError(f"arc endpoint {v} has no chord into A")
            a = targets[0]
            designated.add((min(v, a), max(v, a)))
    return Graph(g.n, [*cyc.edge_pairs(), *designated]), frozenset(designated)


def _satisfies_turning_condition(cycle: Cycle, base_keys, a_set):
    """Vertex of A with exactly one incident cycle edge in the base cycle,
    or None."""
    at = {v: [] for v in a_set}
    for u, v in cycle.edge_pairs():
        if u in at:
            at[u].append((u, v))
        if v in at:
            at[v].append((u, v))
    for v in sorted(a_set):
        inside = sum(1 for e in at[v] if e in base_keys)
        if inside == 1:
            return v
    return None


def second_hamilton_cycle(inst: LemmaInstance, x: int, y: int) -> SecondCycleCertificate:
    """The Hamilton cycle of the support graph through the edge xy, other
    than the instance cycle, with the largest overlap with it (ties by
    vertex sequence): it agrees with the instance cycle off A and has a
    turning vertex in A."""
    inst.check()
    h_last = inst.components[-1]
    if x not in (h_last[0], h_last[-1]):
        raise ValueError(f"{x} is not an endpoint of the distinguished arc")
    key = (min(x, y), max(x, y))
    cyc_keys = inst.cycle.edge_set()
    if key not in cyc_keys:
        raise ValueError(f"({x},{y}) is not a cycle edge")
    inside = {
        (min(a, b), max(a, b)) for a, b in zip(h_last, h_last[1:])
    }
    if key in inside:
        raise ValueError(f"({x},{y}) lies inside the distinguished arc")
    g1, _ = build_support_graph(inst)
    base = inst.cycle
    cands = [
        h for h in hamilton_cycles(g1)
        if key in h.edge_set() and h != base
    ]
    if not cands:
        raise InvariantViolation(
            "second-cycle", f"no second Hamilton cycle through ({x},{y})"
        )
    a_set = inst.a_set
    off = _edges_minus_vertices(base.edge_pairs(), a_set)
    for h in cands:
        if _edges_minus_vertices(h.edge_pairs(), a_set) != off:
            raise InvariantViolation(
                "second-cycle", "a support-graph Hamilton cycle moved off A"
            )
    base_keys = base.edge_set()
    # cands ascend by vertex sequence, and max returns the first maximum
    best = max(cands, key=lambda h: len(h.edge_set() & base_keys))
    v = _satisfies_turning_condition(best, base_keys, a_set)
    if v is None:
        raise InvariantViolation(
            "second-cycle", "the maximum-overlap candidate has no turning vertex"
        )
    return SecondCycleCertificate(c_prime=best, exchange_vertex=v)
