"""Frozen `extend_path` / `extend_path_adjacent` traces.

The extension engine is deterministic, so a refactor of the extender must
reproduce every construction step byte for byte.  `golden/extend_traces.json`
holds, per case, each step's `trace.to_json()` (parsed, key order kept) and
the returned path.  Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path as FsPath

import pytest

import helpers
from chordlab.extender import EXTENDABLE, extend_path, extend_path_adjacent, precheck
from chordlab.generate import random_cubic, random_simple_path
from chordlab.graphs import connectivity_at_least

GOLDEN = FsPath(__file__).parent / "golden" / "extend_traces.json"

HOST_SEEDS = range(200)
ADJACENT_CASES = ("case-1", "case-2", "case-2-mirror")
ADJACENT_SEEDS = range(12)
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
    for case in ADJACENT_CASES:
        for seed in ADJACENT_SEEDS:
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), separators=(",", ":")) + "\n")
