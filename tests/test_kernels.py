"""Frozen kernel output.

`golden/kernel_rows.json` holds, per graph, one sha256 per kernel of the
rows it enumerates, in the order it enumerates them:

- ``xy``: for every pair x < y, the `xy_paths_of_length` rows at the
  pair's longest length, which `xy_paths_of_length(..., None)` must
  return too;
- ``cycles``: the `cycles_of_length` rows at the circumference, which
  `cycles_of_length(..., None)` must return too;
- ``ham``: the `hamilton_cycle_rows`.

The graphs are the connected cubic corpus on n <= 10 vertices and
`random_cubic` on n = 12..20, two seeds each.  A rewrite of a kernel must
reproduce every row and its position.  Regenerate the file only for an
intended change of output:

    PYTHONPATH=src python tests/test_kernels.py --write
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import json
import pkgutil
import random
import sys
from pathlib import Path as FsPath

import pytest

import chordlab
import oracles
from chordlab import kernels
from chordlab.generate import enumerate_cubic, random_cubic
from chordlab.graphs import Graph
from chordlab.search import hamilton_cycles
from chordlab.second_cycle import build_support_graph
from helpers import gen_lemma_instance, long_lemma_instance

GOLDEN = FsPath(__file__).parent / "golden" / "kernel_rows.json"

CORPUS_ORDERS = (4, 6, 8, 10)
RANDOM_HOSTS = [(n, seed) for n in (12, 14, 16, 18, 20) for seed in (0, 1)]


def _graphs():
    for n in CORPUS_ORDERS:
        for i, g in enumerate(enumerate_cubic(n)):
            yield f"corpus-n{n}-{i}", g
    for n, seed in RANDOM_HOSTS:
        yield f"random-n{n}-s{seed}", random_cubic(n, seed)


def _digest(rows) -> str:
    plain = [[int(v) for v in row] for row in rows]
    return hashlib.sha256(json.dumps(plain).encode()).hexdigest()


def _kernel_digests(g) -> dict:
    adj, n = g.masks, g.n
    xy = []
    for x in range(n):
        for y in range(x + 1, n):
            best = kernels.longest_xy_length(adj, x, y)
            xy.append([x, y, best])
            rows = kernels.xy_paths_of_length(adj, x, y, best) if best else []
            assert kernels.xy_paths_of_length(adj, x, y, None) == rows
            xy.extend(rows)
    circumference = kernels.longest_cycle_length(adj)
    cycles = kernels.cycles_of_length(adj, circumference) if circumference else []
    assert kernels.cycles_of_length(adj, None) == cycles
    ham = kernels.hamilton_cycle_rows(adj)
    # the order contract: cycle rows ascend by vertex sequence
    assert cycles == sorted(cycles) and ham == sorted(ham)
    return {
        "xy": _digest(xy),
        "cycles": _digest([[circumference]] + list(cycles)),
        "ham": _digest(ham),
    }


def _record() -> dict:
    return {gid: _kernel_digests(g) for gid, g in _graphs()}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


def test_kernel_rows_match_golden(golden):
    seen = []
    for gid, g in _graphs():
        seen.append(gid)
        assert _kernel_digests(g) == golden[gid], gid
    assert seen == list(golden)


def test_kernel_rows_are_tuples():
    g = random_cubic(12, 0)
    rows = kernels.cycles_of_length(g.masks, kernels.longest_cycle_length(g.masks))
    assert rows and all(type(r) is tuple and len(r) == len(rows[0]) for r in rows)


def test_cycle_rows_match_oracle_n12(corpus12):
    """The n=12 corpus, which the golden set leaves out: the longest and
    the Hamilton cycles are those of the naive walk, in its order, which
    ascends by vertex sequence."""
    assert len(corpus12) == 85
    for i, g in enumerate(corpus12):
        every = oracles.all_cycles_small({v: set(g.neighbors(v)) for v in range(g.n)})
        best = max(map(len, every))
        longest = kernels.cycles_of_length(g.masks, None)
        ham = kernels.hamilton_cycle_rows(g.masks)
        assert longest == [c for c in every if len(c) == best], i
        assert ham == [c for c in every if len(c) == g.n], i
        assert longest == sorted(longest) and ham == sorted(ham), i
        assert kernels.cycles_of_length(g.masks, best) == longest, i


def _random_graph(n, rng):
    """A random simple graph on n vertices, each pair an edge with a
    probability drawn from 0.3..0.8: any degree, connected or not."""
    p = rng.uniform(0.3, 0.8)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_hamilton_rule_matches_reference(corpus, corpus12):
    """The Hamilton rule cuts only subtrees without a Hamilton cycle: the
    Hamilton rows, and the longest rows (which walk on under the rule once
    a Hamilton cycle is found), are those of the walk without it, in its
    order.  Over the cubic corpus with n <= 12, `random_cubic` with n =
    14..20, the support graphs of the 1,500 seeded lemma instances and
    the 70-vertex one, and random graphs of any degree with n = 5..10."""
    graphs = [g for n in sorted(corpus) for g in corpus[n]] + list(corpus12)
    graphs += [random_cubic(n, seed) for n in (14, 16, 18, 20) for seed in range(3)]
    graphs += [
        build_support_graph(gen_lemma_instance(k, seed))
        for k in range(2, 7) for seed in range(300)
    ]
    graphs.append(build_support_graph(long_lemma_instance()))
    rng = random.Random(0)
    graphs += [_random_graph(n, rng) for n in range(5, 11) for _ in range(40)]
    hamiltonian = 0
    for i, g in enumerate(graphs):
        ham = kernels.hamilton_cycle_rows(g.masks)
        assert ham == oracles.cycle_rows_reference(g.masks, g.n), i
        assert kernels._cycle_rows(g.masks, None) == oracles.cycle_rows_reference(g.masks, None), i
        hamiltonian += bool(ham)
    assert (len(graphs), hamiltonian) == (1865, 1760)


def test_cycle_rows_above_graph6_short_form():
    """The 70-vertex support graph of `helpers.long_lemma_instance` has a
    cycle space of dimension 3 (72 edges), and each of its 7 nonzero
    elements is one cycle: the Hamilton cycle 0..69, the two chords'
    30-cycles along the first arc, the sum of each with 0..69 (42
    vertices), the sum of the two (the 4-cycle 0, 1, 30, 29) and the sum
    of all three (the second Hamilton cycle).  The kernel rows are those
    of the naive walk, length by length, and the sweep matches its
    reference."""
    g = build_support_graph(long_lemma_instance())
    every = oracles.all_cycles_small({v: set(g.neighbors(v)) for v in range(g.n)})
    assert sorted(map(len, every)) == [4, 30, 30, 42, 42, 70, 70]
    for length in (4, 30, 42, 70):
        assert kernels.cycles_of_length(g.masks, length) == [c for c in every if len(c) == length]
    ham = kernels.hamilton_cycle_rows(g.masks)
    assert len(ham) == 2 and ham == kernels.cycles_of_length(g.masks, None)
    assert [c.vertices for c in hamilton_cycles(g)] == ham
    assert kernels.longest_cycle_length(g.masks) == 70
    assert kernels.longest_xy_length(g.masks, 69, 0) == 69
    targets = (1 << g.n) - 1 & ~(1 << 69)
    assert kernels.xy_sweep(g.masks, 69, targets, g.n - 1) == oracles.xy_sweep_reference(g.masks, g.n, 69)


def test_active_backend_is_exposed():
    assert kernels.BACKEND == "python"


def test_tracer_targets_resolve():
    """perfbench/tracing.py wraps chordlab functions by name; each one of
    its TARGETS must still name a callable, or `--trace 1` breaks.  The
    tracer patches every chordlab module attribute that *is* that
    function, so any other object under the same name (a wrapper, a
    second definition) would run untraced and its span would read 0."""
    path = FsPath(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    modules = [chordlab] + [
        importlib.import_module(f"chordlab.{info.name}")
        for info in pkgutil.iter_modules(chordlab.__path__)
    ]
    for span, module, name, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), (span, name)
        for mod in modules:
            assert getattr(mod, name, fn) is fn, (span, name, mod.__name__)


def test_public_names_resolve():
    """Every name in `chordlab.__all__` is bound on the package, so a name
    left there after its function went cannot break `from chordlab import *`."""
    assert [name for name in chordlab.__all__ if not hasattr(chordlab, name)] == []
    namespace = {}
    exec("from chordlab import *", namespace)
    assert set(chordlab.__all__) <= namespace.keys()


def _reads(tree):
    """The names ``tree`` reads, as a variable or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_no_helper_only_tests_call():
    """Every module-level function and class of chordlab, and every
    method of such a class but the dunder ones, is read by other code of
    the package, exported in `chordlab.__all__`, or read by perfbench
    (its TARGETS strings, its imports and its calls, `kernels.warmup`
    among them): a function or method that only tests call, or a class
    that only tests read, is dead code.  A use inside itself is no use."""
    root = FsPath(__file__).resolve().parent.parent
    defined, used = [], set(chordlab.__all__)
    for path in sorted((root / "src" / "chordlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
                used |= _reads(node) - {node.name}
            elif isinstance(node, ast.ClassDef):
                defined.append((f"{path.stem}.{node.name}", node.name))
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                reads = set()
                for m in methods:
                    reads |= _reads(m) - {m.name}
                    if not m.name.startswith("__"):
                        defined.append((f"{path.stem}.{node.name}.{m.name}", m.name))
                for part in ast.iter_child_nodes(node):
                    if part not in methods:
                        reads |= _reads(part)
                used |= reads - {node.name}
            else:
                used |= _reads(node)
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    used |= {"__getattr__", "__dir__"}  # PEP 562 hooks (the package's, cli's): Python calls them
    assert [label for label, name in defined if name not in used] == []


def test_every_parameter_is_read():
    """Every parameter of every function, method, nested function and
    lambda of chordlab is read by its body, closures included: a
    parameter nothing reads is an argument every caller passes for
    nothing."""
    root = FsPath(__file__).resolve().parent.parent
    unread = []
    for path in sorted((root / "src" / "chordlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                body = node.body if isinstance(node.body, list) else [node.body]
                reads = {
                    part.id for part in ast.walk(ast.Module(body, []))
                    if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load)
                }
                name = getattr(node, "name", "<lambda>")
                unread += [f"{path.stem}.{name}: {p.arg}" for p in params if p and p.arg not in reads]
    assert unread == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
