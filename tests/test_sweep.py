"""The sweep behind verify_zhan -- one DFS per source, which fills the
entries of the targets it is given -- checked against the per-pair search
(longest_xy_paths), the naive oracles and the sweep's earlier body
(oracles.xy_sweep_reference), which skips nothing, at floor n - 1 and at
every lower floor; verify_zhan, which sweeps at a length floor and
settles pairs by Pósa rotation, against the full table
(oracles.zhan_table) and the naive oracle; relabeling invariance of both
verifiers, since the sweep's skip depends on vertex labels;
verify_chords' counts from the masks against the chord sets of every
longest Cycle and the naive oracle; and mutation checks showing that
verify_zhan's re-validation catches a wrong entry in either mode and a
wrong rotated path or a seed that closes no Hamilton cycle; a spy on
the rotation closure and the Hamilton-cycle settle, which queue each end
pair once and settle only Hamiltonian pairs, and on the sweep, which is
never called without a target; and verify_chords' walk, which stops at
the first Hamilton cycle, against the full one."""

import ast
import collections
import itertools
import os
import random
import re

import pytest

import oracles
from chordlab import kernels, verify
from chordlab.errors import InvariantViolation
from chordlab.generate import enumerate_cubic, random_cubic
from chordlab.graph6 import parse_graph6, write_graph6
from chordlab.graphs import Graph, connectivity_at_least
from chordlab.search import chords, longest_cycles, longest_xy_paths
from chordlab.verify import verify_chords, verify_zhan

MODES = (("all-pairs", 2), ("adjacent-pairs", 3))


def _pairs(g, mode):
    if mode == "all-pairs":
        return [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
    return sorted(set(g.edges))


def _reference(g, x, y):
    """Max length, min bound count and the first witness attaining it,
    from the full per-pair witness enumeration."""
    rep = longest_xy_paths(g, x, y)
    counts = [len(b) for b in rep.bound_sets]
    mb = min(counts)
    return rep.max_length, mb, rep.witnesses[counts.index(mb)].vertices


def _check_against_reference(g):
    checked = 0
    for mode, k in MODES:
        if not connectivity_at_least(g, k):
            continue
        pairs = oracles.zhan_table(g, mode)
        assert list(pairs) == _pairs(g, mode)
        for (x, y), res in pairs.items():
            assert (res.max_length, res.min_bound, res.witness) == _reference(g, x, y), (mode, x, y)
        checked += 1
    return checked


def test_sweep_matches_per_pair_search_on_corpus(corpus):
    checked = sum(_check_against_reference(g) for n in corpus for g in corpus[n])
    assert checked > 0


@pytest.mark.parametrize("n", (14, 16))
@pytest.mark.parametrize("seed", (0, 1))
def test_sweep_matches_per_pair_search_on_random(n, seed):
    assert _check_against_reference(random_cubic(n, seed)) > 0


def _naive_min_bound(g, paths):
    def bound(seq):
        on_path = set(seq)
        return sum(1 for v in seq[1:-1] if set(g.neighbors(v)) <= on_path)

    return min(bound(p) for p in paths)


def test_sweep_matches_naive_oracle_small(corpus):
    for n in (4, 6, 8):
        for g in corpus[n]:
            for mode, k in MODES:
                if not connectivity_at_least(g, k):
                    continue
                for (x, y), res in oracles.zhan_table(g, mode).items():
                    best, paths = oracles.longest_xy_naive(g, x, y)
                    assert res.max_length == best
                    assert res.min_bound == _naive_min_bound(g, paths)
                    assert res.witness in paths


def test_sweep_table_every_end_vertex():
    """Both directions and non-cubic hosts: the table from x answers every
    y, including y < x, and leaves x itself empty."""
    graphs = [oracles.petersen(), oracles.cycle_graph(7), oracles.path_graph(5),
              oracles.two_k4_minus_edge_bridge(), random_cubic(10, 3)]
    for g in graphs:
        for x in range(g.n):
            table = kernels.xy_sweep(g.masks, x, ((1 << g.n) - 1) & ~(1 << x), g.n - 1)
            assert table[x] is None
            for y in range(g.n):
                if y != x:
                    assert table[y] == _reference(g, x, y), (x, y)


def _check_sweep_against_reference(g):
    """Every source's full table, every y included, against the sweep's
    earlier body."""
    for x in range(g.n):
        targets = ((1 << g.n) - 1) & ~(1 << x)
        assert kernels.xy_sweep(g.masks, x, targets, g.n - 1) == oracles.xy_sweep_reference(g.masks, g.n, x), x


def test_sweep_matches_reference_on_corpus(corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    for g in graphs:
        _check_sweep_against_reference(g)
    assert len(graphs) == 112


@pytest.mark.parametrize("n", range(14, 21, 2))
@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_reference_on_random(n, seed):
    _check_sweep_against_reference(random_cubic(n, seed))


def _cube():
    return Graph(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])


def _matching_union(m, seed):
    """A bipartite cubic graph on sides 0..m-1 and m..2m-1: the union of
    three perfect matchings, drawn again until they are disjoint."""
    rng = random.Random(seed)
    while True:
        edges = []
        for _ in range(3):
            side = list(range(m, 2 * m))
            rng.shuffle(side)
            edges += list(enumerate(side))
        try:
            return Graph(2 * m, edges)
        except ValueError:
            pass


def _check_targets_against_reference(g, seed=0):
    """Every source's table with every y != x as targets, y > x, the
    neighbours above x, each single y and a seeded random subset: equal to
    the full reference table on the targets, None elsewhere."""
    rng = random.Random(seed)
    everyone = (1 << g.n) - 1
    for x in range(g.n):
        full = oracles.xy_sweep_reference(g.masks, g.n, x)
        above = everyone & (-2 << x)
        masks = [above, g.masks[x] & above, rng.getrandbits(g.n) & ~(1 << x)]
        masks += [1 << y for y in range(g.n) if y != x]
        assert kernels.xy_sweep(g.masks, x, everyone & ~(1 << x), g.n - 1) == full, x
        for targets in masks:
            want = [e if (targets >> y) & 1 else None for y, e in enumerate(full)]
            assert kernels.xy_sweep(g.masks, x, targets, g.n - 1) == want, (x, targets)


def test_targeted_sweep_matches_reference_on_corpus(corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    for g in graphs:
        _check_targets_against_reference(g)
    assert len(graphs) == 112


@pytest.mark.parametrize("n", range(14, 23, 2))
@pytest.mark.parametrize("seed", range(2))
def test_targeted_sweep_matches_reference_on_random(n, seed):
    _check_targets_against_reference(random_cubic(n, seed), seed)


def test_targeted_sweep_matches_reference_on_special_graphs():
    """Bipartite graphs, where a pair on one side has no Hamiltonian path
    and so never settles; non-Hamiltonian 3-connected graphs, where no
    target settles; and the non-cubic hosts of
    test_sweep_table_every_end_vertex."""
    graphs = [oracles.k33(), _cube()] + [_matching_union(m, s) for m in (5, 6, 7, 8) for s in range(2)]
    graphs += [oracles.petersen(), parse_graph6("K{O___IAOK_k")]
    graphs += [oracles.cycle_graph(7), oracles.path_graph(5), oracles.two_k4_minus_edge_bridge()]
    for seed, g in enumerate(graphs):
        _check_targets_against_reference(g, seed)


def _values(g, k):
    """Label-free results of every verifier that applies at connectivity k,
    keyed by the vertices they concern: each mode's (length, bound count)
    per pair, and the chords (cycle length, chord count) under ()."""
    out = {}
    for mode, need in MODES:
        if k >= need:
            pairs = oracles.zhan_table(g, mode)
            out[mode] = {xy: (r.max_length, r.min_bound) for xy, r in pairs.items()}
    if k >= 3:
        rep = verify_chords(g)
        out["chords"] = {(): (rep.cycle_length, rep.min_chords)}
    return out


def _check_relabeling_invariance(g, seed):
    """Two seeded relabelings of g give the same values through the
    permutation; the sweep's skip depends on the labels, the values must not."""
    k = 3 if connectivity_at_least(g, 3) else 2 if connectivity_at_least(g, 2) else 0
    values = _values(g, k)
    rng = random.Random(seed)
    for _ in range(2):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        mapped = {
            name: {tuple(sorted(perm[v] for v in key)): val for key, val in table.items()}
            for name, table in values.items()
        }
        assert _values(h, k) == mapped, perm
    return len(values)


def test_verifiers_are_relabeling_invariant_on_corpus(corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    checked = sum(_check_relabeling_invariance(g, seed) for seed, g in enumerate(graphs))
    assert checked > 200


@pytest.mark.parametrize("n", range(14, 21, 2))
@pytest.mark.parametrize("seed", range(2))
def test_verifiers_are_relabeling_invariant_on_random(n, seed):
    _check_relabeling_invariance(random_cubic(n, seed), seed)


# ---------------------------------------------------------------------------
# the length floor: the sweep at every floor against the full table, and
# verify_zhan, which sweeps at a floor and settles pairs by rotation,
# against the full table and the naive oracle


def _check_floors_against_reference(g):
    """From every source at every floor, with every y != x as targets: an
    entry whose longest path is shorter than the floor never settles and
    is the full table's; any other has a path of at least the floor."""
    everyone = (1 << g.n) - 1
    for x in range(g.n):
        full = oracles.xy_sweep_reference(g.masks, g.n, x)
        for floor in range(1, g.n):
            table = kernels.xy_sweep(g.masks, x, everyone & ~(1 << x), floor)
            for y, want in enumerate(full):
                if want is None or want[0] < floor:
                    assert table[y] == want, (x, y, floor)
                else:
                    assert table[y][0] >= floor, (x, y, floor)


def test_floor_sweep_matches_reference_on_corpus(corpus):
    for n in corpus:
        for g in corpus[n]:
            _check_floors_against_reference(g)


@pytest.mark.parametrize("n", (12, 14))
def test_floor_sweep_matches_reference_on_random(n):
    _check_floors_against_reference(random_cubic(n, n))


def _first_below(pairs, threshold):
    return next(((xy, r.witness) for xy, r in pairs.items() if r.min_bound < threshold), None)


def _check_against_table(g):
    """verify_zhan in each mode that applies against the full table: the
    same minimum; at every threshold 1..n-1 the same first pair below it,
    with the same witness; every pair it reports in (x, y) order with the
    table's length and count, and the table's witness unless the path is
    Hamiltonian.  Returns how many modes applied."""
    checked = 0
    for mode, k in MODES:
        if not connectivity_at_least(g, k):
            continue
        rep = verify_zhan(g, mode)
        full = oracles.zhan_table(g, mode)
        assert rep.minimum == min(r.min_bound for r in full.values()), mode
        for threshold in range(1, g.n):
            assert _first_below(rep.pairs, threshold) == _first_below(full, threshold), (mode, threshold)
        assert list(rep.pairs) == [xy for xy in full if xy in rep.pairs], mode
        for xy, res in rep.pairs.items():
            want = full[xy]
            assert (res.max_length, res.min_bound) == (want.max_length, want.min_bound), (mode, xy)
            assert res.witness == want.witness or res.max_length == g.n - 1, (mode, xy)
        checked += 1
    return checked


def test_verify_zhan_matches_table_on_corpus(corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    assert sum(_check_against_table(g) for g in graphs) == 185


def test_verify_zhan_matches_table_on_relabelings(corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    checked = sum(_check_against_table(_relabeled(g, seed)) for seed, g in enumerate(graphs))
    assert checked == 185


@pytest.mark.parametrize("n", range(14, 23, 2))
def test_verify_zhan_matches_table_on_random(n):
    """The first three 2-connected graphs among random_cubic(n, 0), (n, 1), ..."""
    draws = (random_cubic(n, seed) for seed in itertools.count())
    graphs = itertools.islice((g for g in draws if connectivity_at_least(g, 2)), 3)
    assert sum(_check_against_table(g) for g in graphs) >= 3


@pytest.mark.skipif(
    os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
    reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
)
def test_verify_zhan_matches_table_n14():
    graphs = enumerate_cubic(14)
    assert len(graphs) == 509
    assert sum(_check_against_table(g) for g in graphs) == 480 + 341


def _slack_recount(g, length, wit):
    """4L - 3n + 2 + 2 e(V - S) + out(x) + out(y) for the path ``wit``
    with L = ``length`` edges on the vertex set S: e(V - S), the edges
    outside S, counted over ``g.edges``, and out(v), v's edges that leave
    S, over v's neighbours."""
    on = set(wit)
    outside = sum(1 for u, v in g.edges if u not in on and v not in on)
    leave = sum(1 for end in (wit[0], wit[-1]) for v in g.neighbors(end) if v not in on)
    return 4 * length - 3 * g.n + 2 + 2 * outside + leave


def test_slack_identity_on_every_exact_entry(corpus, corpus12):
    """Every exact entry of the full all-pairs table has as many internal
    bound vertices as the slack identity of `verify_zhan`'s docstring
    gives its witness: the 2-connected graphs of the n <= 12 corpus and
    the 2-connected ones among random_cubic(n, 0), n = 14, 16, 18, 20."""
    randoms = [random_cubic(n, 0) for n in range(14, 21, 2)]
    checked = 0
    for g in [g for n in corpus for g in corpus[n]] + corpus12 + randoms:
        if not connectivity_at_least(g, 2):
            continue
        for (x, y), res in oracles.zhan_table(g, "all-pairs").items():
            assert res.min_bound == _slack_recount(g, res.max_length, res.witness), (g.n, x, y)
            checked += 1
    assert checked == 6886


def test_verify_zhan_matches_naive_oracle_small(corpus):
    """The minimum, every pair reported, and the first pair below every
    threshold with its witness, against the naive oracle.  The sweep
    walks in lexicographic order, so a first witness is the least naive
    longest path with the least count."""
    for n in (4, 6, 8):
        for g in corpus[n]:
            for mode, k in MODES:
                if not connectivity_at_least(g, k):
                    continue
                naive = {}
                for x, y in _pairs(g, mode):
                    best, paths = oracles.longest_xy_naive(g, x, y)
                    bound = _naive_min_bound(g, paths)
                    first = min(p for p in paths if _naive_min_bound(g, [p]) == bound)
                    naive[(x, y)] = verify.PairResult(best, bound, first)
                rep = verify_zhan(g, mode)
                assert rep.minimum == min(r.min_bound for r in naive.values())
                for threshold in range(1, g.n):
                    assert _first_below(rep.pairs, threshold) == _first_below(naive, threshold)
                for xy, res in rep.pairs.items():
                    assert (res.max_length, res.min_bound) == (naive[xy].max_length, naive[xy].min_bound)


# ---------------------------------------------------------------------------
# verify_chords, which counts chords from the cycle rows and the masks,
# against the Cycle-based formulation it replaced and the naive oracle


def _chords_reference(g):
    """Longest cycle length, least chord count and the first longest cycle
    attaining it, from validated Cycles and their chord sets."""
    cycles = longest_cycles(g)
    counts = [len(chords(g, c)) for c in cycles]
    least = min(counts)
    return cycles[0].length, least, cycles[counts.index(least)].vertices


def _check_chords_against_reference(g):
    """verify_chords against the reference, and its cycle walk against the
    full one: it yields the first Hamilton cycle when there is one, and
    every longest cycle otherwise.  Returns whether g is Hamiltonian, the
    branch where the walk stops early."""
    rep = verify_chords(g)
    assert (rep.cycle_length, rep.min_chords, rep.witness) == _chords_reference(g), write_graph6(g)
    full = kernels.cycles_of_length(g.masks, None)
    hamiltonian = len(full[0]) == g.n
    assert kernels.cycles_of_length(g.masks, None, True) == (full[:1] if hamiltonian else full)
    return hamiltonian


def _relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_chord_counts_match_cycle_sets_on_corpus(corpus, corpus12):
    """The 78 3-connected graphs of order at most 12 and a relabeling of
    each; two are not Hamiltonian, the Petersen graph and one of order 12."""
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    checked = [g for g in graphs if connectivity_at_least(g, 3)]
    branches = collections.Counter()
    for seed, g in enumerate(checked):
        branches[_check_chords_against_reference(g)] += 1
        branches[_check_chords_against_reference(_relabeled(g, seed))] += 1
    assert len(checked) == 78
    assert branches == {True: 152, False: 4}
    assert not _check_chords_against_reference(oracles.petersen())


def test_chord_counts_match_cycle_sets_n14():
    """The 341 3-connected graphs of order 14, four of them not Hamiltonian."""
    checked = [g for g in enumerate_cubic(14) if connectivity_at_least(g, 3)]
    branches = collections.Counter(_check_chords_against_reference(g) for g in checked)
    assert branches == {True: 337, False: 4}


@pytest.mark.parametrize("n", range(14, 21, 2))
def test_chord_counts_match_cycle_sets_on_random(n):
    """The first two 3-connected graphs among random_cubic(n, 0), (n, 1), ...,
    all of them Hamiltonian."""
    draws = (random_cubic(n, seed) for seed in itertools.count())
    graphs = itertools.islice((g for g in draws if connectivity_at_least(g, 3)), 2)
    for seed, g in enumerate(graphs):
        assert _check_chords_against_reference(g)
        assert _check_chords_against_reference(_relabeled(g, seed))


def test_chord_counts_match_naive_oracle_small(corpus):
    checked = 0
    for n in (4, 6, 8):
        for g in corpus[n]:
            if not connectivity_at_least(g, 3):
                continue
            best, cycles = oracles.longest_cycles_naive(g)  # ascending
            counts = [sum(1 for u, v in g.edges if u in c and v in c) - len(c) for c in map(set, cycles)]
            least = min(counts)
            rep = verify_chords(g)
            assert (rep.cycle_length, rep.min_chords, rep.witness) == (best, least, cycles[counts.index(least)])
            checked += 1
    assert checked == 7


def test_chord_recount_disagreement_is_caught(monkeypatch):
    """The witness's chords are recounted from the edge list: one extra
    pair there is an invariant violation, not a report."""
    real = verify.chords
    monkeypatch.setattr(verify, "chords", lambda g, c: real(g, c) | {(g.n, g.n + 1)})
    with pytest.raises(InvariantViolation) as info:
        verify_chords(oracles.petersen())
    assert info.value.step == "chords"


def test_sweep_rejects_degree_above_three():
    """The sweep's bound-count step assumes maximum degree 3: a degree-4
    host is refused, not miscounted."""
    g = Graph(5, [(v, (v + 1) % 4) for v in range(4)] + [(4, v) for v in range(4)])  # wheel W4
    with pytest.raises(ValueError, match="degree"):
        kernels.xy_sweep(g.masks, 0, ((1 << g.n) - 1) & ~1, g.n - 1)


# ---------------------------------------------------------------------------
# the witness re-check against its Path-based reference


def _mutations(g, entry):
    """Wrong variants of one table entry: the count one off either way, a
    step over a skipped vertex (a non-edge unless it closes a triangle), a
    repeated vertex, wrong endpoints, a vertex out of range at either end
    of the ids, a one-vertex witness and no entry."""
    best, mb, wit = entry
    walks = (
        wit[:1] + wit[2:],
        wit[:-2] + wit[1:2] + wit[-1:],
        wit[::-1],
        wit[:-1],
        wit[:-1] + (g.n,),
        wit[:1] + (-1,) + wit[2:],
        wit[:1],
    )
    return [(best, mb + 1, wit), (best, mb - 1, wit), None] + [(best, mb, w) for w in walks]


KINDS = ("no path in the table", "at least two vertices", "repeated vertex", "out of range",
         "is not an edge", "table says")


def _outcome(check, g, x, y, entry):
    try:
        check(g, x, y, entry)
    except InvariantViolation as exc:
        assert exc.step == "sweep"
        return str(exc)
    return None


def _check_entries_against_reference(monkeypatch, graphs):
    """Run both verify_zhan modes and both full tables on ``graphs`` with
    every entry, and each of its mutations, re-checked by the mask check
    and by the Path-based reference: both raise the same text or both
    pass.  The kinds of failure seen, counted."""
    real = verify._check_sweep_entry
    seen = collections.Counter()

    def both(g, x, y, entry):
        for e in [entry] + _mutations(g, entry):
            got = _outcome(real, g, x, y, e)
            assert got == _outcome(oracles.check_sweep_entry_reference, g, x, y, e), (x, y, e)
            seen[next((kind for kind in KINDS if got and kind in got), got)] += 1
        return real(g, x, y, entry)

    monkeypatch.setattr(verify, "_check_sweep_entry", both)
    for g in graphs:
        for mode, k in MODES:
            if connectivity_at_least(g, k):
                verify_zhan(g, mode)
                oracles.zhan_table(g, mode)
    return seen


def test_witness_check_matches_reference_on_corpus(monkeypatch, corpus, corpus12):
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    seen = _check_entries_against_reference(monkeypatch, graphs)
    # every entry passes, and every failure is one of KINDS, each seen
    assert seen[None] > 5000
    assert sorted(seen, key=str) == sorted(KINDS + (None,), key=str)


@pytest.mark.parametrize("n", range(14, 19, 2))
@pytest.mark.parametrize("seed", range(2))
def test_witness_check_matches_reference_on_random(monkeypatch, n, seed):
    _check_entries_against_reference(monkeypatch, [random_cubic(n, seed)])


# ---------------------------------------------------------------------------
# mutation checks: a wrong table entry must not reach the report


def _patch_first_table(monkeypatch, mutate):
    """Replace the sweep by one whose first table (source 0) has its entry
    for vertex 1 rewritten by ``mutate``; (0,1) is the first pair
    verify_zhan reads in either mode, as 01 is an edge of the Petersen
    graph."""
    real = kernels.xy_sweep
    calls = []

    def mutated(masks, x, targets, floor):
        table = real(masks, x, targets, floor)
        if not calls:
            table[1] = mutate(*table[1])
        calls.append(x)
        return table

    monkeypatch.setattr(kernels, "xy_sweep", mutated)


@pytest.mark.parametrize(
    "mutate",
    (
        lambda best, mb, wit: (best, mb - 1, wit),
        lambda best, mb, wit: (best, mb, (wit[0], wit[0]) + wit[2:]),
        lambda best, mb, wit: (best, mb, wit[::-1]),
        lambda best, mb, wit: None,
    ),
    ids=("min-bound-off-by-one", "witness-vertex", "witness-reversed", "entry-missing"),
)
@pytest.mark.parametrize("mode", ("all-pairs", "adjacent-pairs"))
def test_mutated_sweep_is_caught(monkeypatch, mutate, mode):
    g = oracles.petersen()
    assert g.has_edge(0, 1)
    _patch_first_table(monkeypatch, mutate)
    with pytest.raises(InvariantViolation) as info:
        verify_zhan(g, mode)
    assert info.value.step == "sweep"
    assert "pair (0,1)" in str(info.value)


# ---------------------------------------------------------------------------
# Pósa rotations: every rotation is a Hamiltonian path, and a corrupted
# one is caught before it settles a pair


def _rotations(masks, p):
    """Every Pósa rotation of ``p``, at its last vertex and then at its
    first, neighbours ascending, each built by `verify._rotate`, with the
    end it should have: v(i+1) for the edge to v(i)."""
    for q in (p, p[::-1]):
        free = masks[q[-1]] & ~(1 << q[-2])
        for v in range(len(q)):
            if free >> v & 1:
                i = q.index(v)
                yield verify._rotate(q, i), q[i + 1]


def test_rotations_are_hamiltonian_paths(corpus, corpus12):
    """Each Hamiltonian witness of the full table has four rotations in a
    cubic graph, two at each end, and each is a Hamiltonian path that
    keeps the other end and ends where the closure reads it will."""
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    rotated = 0
    for g in graphs:
        if not connectivity_at_least(g, 2):
            continue
        for res in oracles.zhan_table(g, "all-pairs").values():
            p = res.witness
            if len(p) < g.n:
                continue
            rows = list(_rotations(g.masks, p))
            assert len({r for r, _ in rows}) == len(rows) == 4, p
            for i, (r, end) in enumerate(rows):
                assert oracles.walk_problem_reference(g, r) is None and len(r) == g.n, (p, r)
                assert r[0] == (p[0] if i < 2 else p[-1]) and r[-1] == end, (p, r)
                rotated += 1
    assert rotated == 22448


def _spy_rotate(monkeypatch, corrupt):
    """Patch `verify._rotate` to corrupt each path it builds; return a
    dict from each corrupted path to the end pair its rotation has."""
    real = verify._rotate
    made = {}

    def rotate(q, i):
        r = corrupt(q, real(q, i))
        made[r] = tuple(sorted((q[0], q[i + 1])))
        return r

    monkeypatch.setattr(verify, "_rotate", rotate)
    return made


@pytest.mark.parametrize(
    "corrupt",
    (lambda q, r: r[:1] + r[2:3] + r[1:2] + r[3:], lambda q, r: r[:-1]),
    ids=("two-swapped", "one-short"),
)
def test_corrupted_rotation_is_caught(monkeypatch, corrupt):
    """A rotated path is re-checked before it settles its pair: a wrong
    step, or a path one vertex short, raises at stage rotation and names
    the pair, which is the end pair of the rotation that built the
    corrupted path, that path and what is wrong with it."""
    g = random_cubic(16, 0)
    made = _spy_rotate(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation) as info:
        verify_zhan(g, "all-pairs")
    assert info.value.step == "rotation"
    pair, path, problem = re.match(r"rotation: pair \((\d+,\d+)\): path (\(.*?\)): (.*)$", str(info.value)).groups()
    path = ast.literal_eval(path)
    assert pair == "%d,%d" % made[path]
    assert problem == (oracles.walk_problem_reference(g, path) or f"{len(path)} of {g.n} vertices")


def test_rotation_with_wrong_ends_is_caught(monkeypatch):
    """A Hamiltonian path with the wrong ends, here the path before its
    rotation, does not settle the rotation's pair: it raises at stage
    rotation and names both."""
    g = random_cubic(16, 0)
    made = _spy_rotate(monkeypatch, lambda q, r: q)
    with pytest.raises(InvariantViolation) as info:
        verify_zhan(g, "all-pairs")
    assert info.value.step == "rotation"
    pair, path = re.match(r"rotation: pair \((\d+,\d+)\): path (\(.*?\)): ends ", str(info.value)).groups()
    path = ast.literal_eval(path)
    assert oracles.walk_problem_reference(g, path) is None and len(path) == g.n
    assert pair != "%d,%d" % tuple(sorted((path[0], path[-1])))


def _spy_closures(monkeypatch):
    """Record each settling step of verify_zhan, in call order: each
    Hamilton cycle `verify._settle_by_cycle` settles from, and each
    rotation closure with the end pairs of the paths it queues (the seeds,
    then every path `verify._rotate` builds); each with its kind, its
    source and the pairs it settles.  Also record the target mask of
    every `kernels.xy_sweep` call."""
    real_rotate, real_sweep = verify._rotate, kernels.xy_sweep
    calls, sweeps = [], []

    def rotate(q, i):
        r = real_rotate(q, i)
        calls[-1]["queued"].append(tuple(sorted((r[0], r[-1]))))
        return r

    def spy(kind, real):
        def settle(masks, x, seeds, open_, left):
            before = list(open_)
            queued = [(p[0], p[-1]) for p in seeds] if kind == "rotation" else []
            calls.append({"kind": kind, "x": x, "queued": queued})
            out = real(masks, x, seeds, open_, left)
            calls[-1]["settled"] = [
                (a, c) for a in range(len(masks)) for c in range(len(masks)) if (before[a] & ~open_[a]) >> c & 1
            ]
            assert out == left - len(calls[-1]["settled"])
            return out

        return settle

    def sweep(masks, x, targets, floor):
        sweeps.append(targets)
        return real_sweep(masks, x, targets, floor)

    monkeypatch.setattr(verify, "_rotate", rotate)
    monkeypatch.setattr(verify, "_settle_by_cycle", spy("cycle", verify._settle_by_cycle))
    monkeypatch.setattr(verify, "_settle_by_rotation", spy("rotation", verify._settle_by_rotation))
    monkeypatch.setattr(kernels, "xy_sweep", sweep)
    return calls, sweeps


def test_closure_queues_each_end_pair_once(monkeypatch, corpus, corpus12):
    """Over the n <= 12 corpus and random graphs of order 14..20, in both
    modes: each source's closure queues no end pair twice, so at most
    C(n,2) paths; every pair that a Hamilton cycle or a closure settles
    is Hamiltonian, with value n - 2 in the full table; and no source is
    swept without a target, while some sources are skipped."""
    graphs = [g for n in corpus for g in corpus[n]] + corpus12
    graphs += [random_cubic(n, seed) for n in range(14, 21, 2) for seed in range(5)]
    calls, sweeps = _spy_closures(monkeypatch)
    closures, settled, skipped = collections.Counter(), collections.Counter(), 0
    for g in graphs:
        for mode, k in MODES:
            if not connectivity_at_least(g, k):
                continue
            calls.clear()
            sweeps.clear()
            verify_zhan(g, mode)
            assert 0 not in sweeps, mode
            skipped += g.n - len(sweeps)
            full = None
            for call in calls:
                queued = call["queued"]
                assert len(set(queued)) == len(queued) <= g.n * (g.n - 1) // 2, (mode, call["x"])
                if call["settled"]:
                    full = full or oracles.zhan_table(g, mode)
                for xy in call["settled"]:
                    assert xy[0] > call["x"], (mode, xy)
                    assert (full[xy].max_length, full[xy].min_bound) == (g.n - 1, g.n - 2), (mode, xy)
                closures[call["kind"]] += 1
                settled[call["kind"]] += len(call["settled"])
    assert closures["cycle"] and closures["rotation"] and skipped
    assert settled["cycle"] and settled["rotation"]


@pytest.mark.parametrize("short", (False, True), ids=("open", "one-short"))
def test_cycle_settle_checks_its_seed(short):
    """A seed settles the pairs of its cycle only if it is a Hamilton
    cycle: a Hamiltonian path of the Petersen graph, whose ends are never
    adjacent, and a 9-cycle, one vertex short, each raise at stage cycle,
    name the seed and what is wrong with it, and settle nothing."""
    g = oracles.petersen()
    if short:
        seed = kernels.cycles_of_length(g.masks, g.n - 1)[0]
        problem = f"{g.n - 1} of {g.n} vertices"
    else:
        seed = next(r.witness for r in oracles.zhan_table(g, "all-pairs").values() if r.max_length == g.n - 1)
        problem = f"({seed[-1]},{seed[0]}) is not an edge"
    assert oracles.walk_problem_reference(g, seed) is None
    open_ = [((1 << g.n) - 1) & (-2 << x) for x in range(g.n)]
    before = list(open_)
    with pytest.raises(InvariantViolation) as info:
        verify._settle_by_cycle(g.masks, 0, seed, open_, sum(m.bit_count() for m in open_))
    assert info.value.step == "cycle"
    assert str(info.value) == f"cycle: seed {seed}: {problem}"
    assert open_ == before
