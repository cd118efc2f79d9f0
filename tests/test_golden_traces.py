"""Frozen `extend_path` / `extend_path_adjacent` traces.

The extension engine is deterministic, so a refactor of the extender must
reproduce every construction step byte for byte.  `golden/extend_traces.json`
holds, per case, each step's `trace.to_json()` (parsed, key order kept) and
the returned path.  Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_traces.py --write

The census below covers every path of the small corpus instead of a
sample, and pins its counts and trace digest in place.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path as FsPath

import pytest

import helpers
from chordlab.extender import EXTENDABLE, extend_path, extend_path_adjacent, precheck
from chordlab.generate import random_cubic, random_simple_path
from chordlab.graphs import connectivity_at_least
from chordlab.search import Path, internal_bound_vertices

GOLDEN = FsPath(__file__).parent / "golden" / "extend_traces.json"

HOST_SEEDS = range(200)
ADJACENT_CASES = ("case-1", "case-2", "case-2-mirror")
ADJACENT_SEEDS = range(12)
# the configurations up to seed 79 whose lift has a two-chord (long blue) run
ADJACENT_TWO_CHORD = (
    ("case-1", 19), ("case-1", 60), ("case-1", 74),
    ("case-2", 37), ("case-2", 54),
    ("case-2-mirror", 37), ("case-2-mirror", 47), ("case-2-mirror", 54),
    ("case-2-mirror", 60),
)
FIXPOINT_HOSTS = [(n, seed) for n in (16, 20, 24, 28) for seed in range(4)]
FIXPOINT_STARTS = range(4)


def _cases():
    """(case id, graph, start path, extender) in a fixed order; a fixpoint
    case has no extender and runs `extend_path` until precheck declines."""
    for seed in HOST_SEEDS:
        r = helpers.gen_extendable_host(seed)
        if r is not None:
            yield (f"host-{seed}", *r, extend_path)
    yield ("figure", *helpers.figure_host(), extend_path)
    adjacent = [(case, seed) for case in ADJACENT_CASES for seed in ADJACENT_SEEDS]
    for case, seed in adjacent + list(ADJACENT_TWO_CHORD):
        r = helpers.gen_adjacent_config(seed, case=case)
        if r is not None:
            yield (f"adjacent-{case}-{seed}", *r, extend_path_adjacent)
    for n, seed in FIXPOINT_HOSTS:
        g = random_cubic(n, seed)
        if connectivity_at_least(g, 2):
            for start in FIXPOINT_STARTS:
                p = random_simple_path(g, 1000 * seed + start)
                yield f"fixpoint-n{n}-{seed}-{start}", g, p, None


def _step(longer, trace):
    return {"trace": json.loads(trace.to_json()), "path": list(longer.vertices)}


def _run(g, p, fn):
    """One record per extension call of the case."""
    if fn is not None:
        return [_step(*fn(g, p))]
    out = []
    while precheck(g, p).kind == EXTENDABLE:
        p, trace = extend_path(g, p)
        out.append(_step(p, trace))
    return out


def _record():
    return {case_id: _run(g, p, fn) for case_id, g, p, fn in _cases()}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


def test_golden_cover_every_shape(golden):
    ids = list(golden)
    assert sum(i.startswith("host-") for i in ids) >= 40
    assert "figure" in ids
    for case in ADJACENT_CASES:
        assert sum(i.startswith(f"adjacent-{case}-") for i in ids) >= 8
    # a lift with a two-chord run guards `_lift_adjacent`'s long-run accounting
    assert any(
        s.get("long_blue_runs", 0) > 0
        for i in ids if i.startswith("adjacent-")
        for s in golden[i][0]["trace"]["steps"]
    )
    assert sum(len(golden[i]) for i in ids if i.startswith("fixpoint-")) >= 10


def test_extend_traces_match_golden(golden):
    seen = []
    for case_id, g, p, fn in _cases():
        seen.append(case_id)
        got = _run(g, p, fn)
        want = golden[case_id]
        assert len(got) == len(want), case_id
        for step, (g_rec, w_rec) in enumerate(zip(got, want)):
            # byte identity of the serialized trace, key order included
            assert json.dumps(g_rec["trace"], indent=2) == json.dumps(
                w_rec["trace"], indent=2
            ), f"{case_id} step {step}"
            assert g_rec["path"] == w_rec["path"], f"{case_id} step {step}"
    assert seen == list(golden)


def test_extension_census_n10(corpus):
    """Every directed simple path of every 2-connected cubic graph with
    n <= 10 goes through `precheck` and, when extendable, `extend_path`:
    the classification counts, the branch taken and the digest of every
    trace are pinned, so each branch is guarded over all of its inputs."""
    kinds, branches = Counter(), Counter()
    digest = hashlib.sha256()
    for n in (4, 6, 8, 10):
        for g in corpus[n]:
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
    assert kinds == {"has-bound-vertex": 33252, "spanning-path": 5208, "extendable": 9736}
    assert branches == {
        "direct": 8518, "short-path": 708, "certificate": 510,
        "adjacent-attachment": 458, "lift": 52,
    }
    assert digest.hexdigest() == (
        "c4856984d1d6d8b2ca82b4bb35bef1df9f8721b0e0e9d62abb24591d4694429e"
    )


def test_adjacent_census_n10(corpus):
    """Every directed path of every 3-connected cubic graph with n <= 10
    whose endpoints are adjacent and which has exactly one internal bound
    vertex goes through `extend_path_adjacent`: the exit each path takes
    and the digest of every trace are pinned.  No path here reaches the
    ay-component splice; n = 12 does (10 of 9,376 paths)."""
    exits = Counter()
    digest = hashlib.sha256()
    for n in (4, 6, 8, 10):
        for g in corpus[n]:
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
        "single-component": 1216, "adjacent-attachment": 248, "case-1": 112, "case-2": 24,
    }
    assert digest.hexdigest() == (
        "97d0f202424341b3e7631b64f01c7fae719c430486d4dc2b9342af269d345b61"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), separators=(",", ":")) + "\n")
