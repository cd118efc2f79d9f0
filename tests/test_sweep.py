"""The tables behind verify_zhan -- the one-DFS-per-source sweep for all
pairs and the cycle walk for adjacent pairs -- checked against the
per-pair search (longest_xy_paths), the naive oracles, the sweep's
earlier body (oracles.xy_sweep_reference) and each other, plus
mutation checks showing that verify_zhan's re-validation catches a wrong
entry from either kernel."""

import pytest

import oracles
from chordlab import kernels
from chordlab.errors import InvariantViolation
from chordlab.generate import enumerate_cubic, random_cubic
from chordlab.graphs import Graph, connectivity_at_least
from chordlab.search import longest_xy_paths
from chordlab.verify import verify_zhan

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
        pairs = verify_zhan(g, mode).pairs
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
                for (x, y), res in verify_zhan(g, mode).pairs.items():
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
            table = kernels.xy_sweep(g.masks, g.n, x)
            assert table[x] is None
            for y in range(g.n):
                if y != x:
                    assert table[y] == _reference(g, x, y), (x, y)


def _check_sweep_against_reference(g):
    """Every source's full table, every y included, against the sweep's
    earlier body."""
    for x in range(g.n):
        assert kernels.xy_sweep(g.masks, g.n, x) == oracles.xy_sweep_reference(g.masks, g.n, x), x


def test_sweep_matches_reference_on_corpus(corpus):
    graphs = [g for n in corpus for g in corpus[n]] + enumerate_cubic(12)
    for g in graphs:
        _check_sweep_against_reference(g)
    assert len(graphs) == 112


@pytest.mark.parametrize("n", range(14, 21, 2))
@pytest.mark.parametrize("seed", range(4))
def test_sweep_matches_reference_on_random(n, seed):
    _check_sweep_against_reference(random_cubic(n, seed))


def test_sweep_rejects_degree_above_three():
    """The sweep's bound-count step assumes maximum degree 3: a degree-4
    host is refused, not miscounted."""
    g = Graph(5, [(v, (v + 1) % 4) for v in range(4)] + [(4, v) for v in range(4)])  # wheel W4
    with pytest.raises(ValueError, match="degree"):
        kernels.xy_sweep(g.masks, g.n, 0)


def _check_adjacent_table(g):
    """The cycle-walk table against the sweep, edge by edge."""
    table = kernels.adjacent_table(g.masks, g.n)
    edges = sorted(set(g.edges))
    assert sorted(table) == edges
    source = sweep = None
    for x, y in edges:
        if x != source:
            source, sweep = x, kernels.xy_sweep(g.masks, g.n, x)
        assert table[(x, y)] == sweep[y], (x, y)


def test_adjacent_table_matches_sweep_on_corpus(corpus):
    graphs = [g for n in corpus for g in corpus[n]] + enumerate_cubic(12)
    checked = [g for g in graphs if connectivity_at_least(g, 2)]
    for g in checked:
        _check_adjacent_table(g)
    assert len(checked) > 80


@pytest.mark.parametrize("n", range(14, 23, 2))
def test_adjacent_table_matches_sweep_on_random(n):
    checked = [g for g in (random_cubic(n, s) for s in range(4)) if connectivity_at_least(g, 2)]
    for g in checked:
        _check_adjacent_table(g)
    assert checked


def test_adjacent_mode_never_sweeps(monkeypatch):
    def refuse(masks, n, x):
        raise AssertionError("xy_sweep called in adjacent-pairs mode")

    monkeypatch.setattr(kernels, "xy_sweep", refuse)
    assert verify_zhan(oracles.petersen(), "adjacent-pairs").minimum > 0


def test_verify_zhan_keeps_kernel_limits():
    with pytest.raises(ValueError, match="n < 63"):
        verify_zhan(random_cubic(64, 0))


# ---------------------------------------------------------------------------
# mutation checks: a wrong table entry must not reach the report


def _patch_first_table(monkeypatch, mutate):
    """Replace the sweep by one whose first table (source 0) has its entry
    for vertex 1 rewritten by ``mutate``; (0,1) is the first pair
    verify_zhan reads in all-pairs mode."""
    real = kernels.xy_sweep
    calls = []

    def mutated(masks, n, x):
        table = real(masks, n, x)
        if not calls:
            table[1] = mutate(*table[1])
        calls.append(x)
        return table

    monkeypatch.setattr(kernels, "xy_sweep", mutated)


def _patch_cycle_table(monkeypatch, mutate):
    """Replace the cycle-walk kernel by one whose entry for the edge (0,1),
    the first pair verify_zhan reads in adjacent-pairs mode, is rewritten
    by ``mutate``."""
    real = kernels.adjacent_table

    def mutated(masks, n):
        table = real(masks, n)
        table[(0, 1)] = mutate(*table[(0, 1)])
        return table

    monkeypatch.setattr(kernels, "adjacent_table", mutated)


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
    if mode == "all-pairs":
        _patch_first_table(monkeypatch, mutate)
    else:
        _patch_cycle_table(monkeypatch, mutate)
    with pytest.raises(InvariantViolation) as info:
        verify_zhan(g, mode)
    assert info.value.step == "sweep"
    assert "pair (0,1)" in str(info.value)
