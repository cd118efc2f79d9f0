"""Output checks for the benchmark, written independently of chordlab.

Every check returns a list of error strings; an empty list means the
output passed.  Nothing here calls into chordlab, so a defect in the
program cannot also hide itself in the check.  Graphs are plain
adjacency lists (a list of sets, one per vertex).

The expected values below are isomorphism invariants measured at the
commit that introduced the benchmark.  They do not depend on vertex
labels or on the order in which an enumerator emits graphs, so a new
enumerator or a relabeled corpus still has to match them.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

# connected cubic graphs per order (OEIS A002851)
CUBIC_CLASS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}

# mode -> (connectivity the mode needs, threshold the value must reach)
MODES = {"zhan2": (2, 1), "zhan3adj": (3, 2), "chords": (3, 2)}

# (order, mode) -> sorted [connectivity, value, count] over the whole corpus;
# value None marks a graph the mode's connectivity gate skips
CORPUS_EXPECTED = {
    (8, "zhan2"): [[2, 3, 1], [3, 3, 1], [3, 4, 1], [3, 6, 2]],
    (8, "zhan3adj"): [[2, None, 1], [3, 6, 4]],
    (8, "chords"): [[2, None, 1], [3, 4, 4]],
    (10, "zhan2"): [[1, None, 1], [2, 4, 4], [3, 4, 2], [3, 5, 3], [3, 6, 3], [3, 8, 6]],
    (10, "zhan3adj"): [[1, None, 1], [2, None, 4], [3, 4, 1], [3, 8, 13]],
    (10, "chords"): [[1, None, 1], [2, None, 4], [3, 3, 1], [3, 5, 13]],
}

# (order, random_cubic seed) -> {mode: value} for the random-graph pools
POOL_EXPECTED = {
    (12, 0): {"zhan2": 6, "zhan3adj": 10, "chords": 6},
    (16, 0): {"zhan2": 11, "zhan3adj": 14, "chords": 8},
    (16, 1): {"zhan2": 14, "zhan3adj": 14, "chords": 8},
}


# ---------------------------------------------------------------------------
# graph basics


def parse_g6(line: str):
    """Decode one short-form graph6 record into (n, adjacency sets)."""
    data = [ord(c) - 63 for c in line.strip()]
    if not data or not all(0 <= b <= 63 for b in data):
        raise ValueError(f"not a graph6 record: {line!r}")
    n = data[0]
    if n >= 63:
        raise ValueError("long-form graph6 is out of scope")
    nbits = n * (n - 1) // 2
    if len(data) - 1 != (nbits + 5) // 6:
        raise ValueError(f"graph6 record {line!r} has the wrong length for n={n}")
    bits = [(b >> s) & 1 for b in data[1:] for s in range(5, -1, -1)]
    if any(bits[nbits:]):
        raise ValueError(f"graph6 record {line!r} has nonzero padding")
    adj = [set() for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i].add(j)
                adj[j].add(i)
            k += 1
    return adj


def write_g6(adj) -> str:
    n = len(adj)
    bits = [1 if j in adj[i] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_cubic(adj) -> bool:
    return all(len(a) == 3 for a in adj)


def is_connected(adj, removed=()) -> bool:
    removed = set(removed)
    alive = [v for v in range(len(adj)) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def connectivity_class(adj) -> int:
    """min(vertex connectivity, 3), by deleting every set of <= 2 vertices."""
    n = len(adj)
    if not is_connected(adj):
        return 0
    if n <= 2 or any(not is_connected(adj, (v,)) for v in range(n)):
        return 1
    if n <= 3 or any(
        not is_connected(adj, (u, v)) for u in range(n) for v in range(u + 1, n)
    ):
        return 2
    return 3


def _vertex_invariants(adj):
    """Per vertex: triangles through it and its BFS layer sizes."""
    out = []
    for v in range(len(adj)):
        seen = {v}
        layer = [v]
        profile = []
        while layer:
            profile.append(len(layer))
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            layer = nxt
        tri = sum(1 for a in adj[v] for b in adj[v] if a < b and b in adj[a])
        out.append((tri, tuple(profile)))
    return out


def isomorphic(a, b) -> bool:
    """Exact isomorphism test by backtracking over invariant-respecting maps."""
    if len(a) != len(b):
        return False
    ia, ib = _vertex_invariants(a), _vertex_invariants(b)
    if sorted(ia) != sorted(ib):
        return False
    order, seen = [], set()
    for s in range(len(a)):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        for u in queue:
            order.append(u)
            for w in sorted(a[u]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    image, used = {}, set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in range(len(b)):
            if w in used or ib[w] != ia[v]:
                continue
            if all((u in a[v]) == (image[u] in b[w]) for u in image):
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del image[v]
                used.discard(w)
        return False

    return extend(0)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# corpus and verify reports


def check_corpus(lines, n):
    """The generate output: the right number of graphs, every one cubic,
    connected, on n vertices, and no two isomorphic."""
    errors = []
    want = CUBIC_CLASS_COUNTS.get(n)
    if len(lines) != want:
        errors.append(f"generate n={n}: {len(lines)} graphs, expected {want}")
    graphs = []
    for i, line in enumerate(lines):
        try:
            adj = parse_g6(line)
        except ValueError as exc:
            errors.append(f"generate n={n} line {i + 1}: {exc}")
            continue
        if len(adj) != n or not is_cubic(adj) or not is_connected(adj):
            errors.append(f"generate n={n} line {i + 1}: {line} is not a connected cubic graph on {n} vertices")
        graphs.append((i, line, adj))
    buckets = {}
    for i, line, adj in graphs:
        key = tuple(sorted(_vertex_invariants(adj)))
        for j, other_line, other in buckets.get(key, ()):
            if isomorphic(adj, other):
                errors.append(f"generate n={n}: lines {j + 1} and {i + 1} are isomorphic ({other_line}, {line})")
        buckets.setdefault(key, []).append((i, line, adj))
    return errors


def invariant_rows(rows):
    """Sorted [connectivity, value, count] rows: labels and order drop out."""
    counts = Counter((r.get("connectivity"), r.get("value")) for r in rows)
    return sorted(([c, v, k] for (c, v), k in counts.items()), key=lambda t: (t[0], -1 if t[1] is None else t[1]))


def check_report(text, mode, input_lines, expected_values=None):
    """One `verify --format json` report against its input.

    Checks the rows follow the input one to one, the connectivity column
    against an independent computation, the gating, the threshold, the
    summary fields, and, when given, the value expected for each row."""
    need, threshold = MODES[mode]
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"verify {mode}: report is not JSON ({exc})"]
    errors = []
    rows = rep.get("rows", [])
    if rep.get("mode") != mode or rep.get("threshold") != threshold:
        errors.append(f"verify {mode}: header names mode {rep.get('mode')} threshold {rep.get('threshold')}")
    if rep.get("graphs") != len(input_lines) or len(rows) != len(input_lines):
        errors.append(f"verify {mode}: {len(rows)} rows for {len(input_lines)} input graphs")
    values = []
    for i, (row, line) in enumerate(zip(rows, input_lines)):
        where = f"verify {mode} row {i + 1} ({line})"
        if row.get("graph6") != line or row.get("mode") != mode:
            errors.append(f"{where}: row is for {row.get('graph6')} / {row.get('mode')}")
            continue
        adj = parse_g6(line)
        kappa = connectivity_class(adj)
        if row.get("connectivity") != kappa or row.get("n") != len(adj):
            errors.append(f"{where}: connectivity {row.get('connectivity')}, n {row.get('n')}; expected {kappa}, {len(adj)}")
        value = row.get("value")
        gated = not (is_cubic(adj) and kappa >= need)
        if gated:
            if value is not None:
                errors.append(f"{where}: gated graph has value {value}")
            continue
        if not isinstance(value, int) or value < threshold:
            errors.append(f"{where}: value {value} below threshold {threshold}")
        elif row.get("witness") is not None:
            errors.append(f"{where}: witness attached without a violation")
        if expected_values is not None and value != expected_values[i]:
            errors.append(f"{where}: value {value}, expected {expected_values[i]}")
        values.append(value)
    if rep.get("checked") != len(values):
        errors.append(f"verify {mode}: checked {rep.get('checked')}, counted {len(values)}")
    if rep.get("violations") != 0:
        errors.append(f"verify {mode}: {rep.get('violations')} violations")
    if values and rep.get("minimum") != min(values):
        errors.append(f"verify {mode}: minimum {rep.get('minimum')}, rows give {min(values)}")
    return errors


def check_corpus_report(text, mode, input_lines, n):
    """A corpus report: the generic checks plus the expected invariant rows."""
    errors = check_report(text, mode, input_lines)
    if errors:
        return errors
    got = invariant_rows(json.loads(text)["rows"])
    want = CORPUS_EXPECTED.get((n, mode))
    if want is not None and got != want:
        errors.append(f"verify {mode} n={n}: (connectivity, value) rows {got}, expected {want}")
    return errors


# ---------------------------------------------------------------------------
# extension results


def _is_simple_path(adj, vs):
    return (
        len(vs) >= 2
        and len(set(vs)) == len(vs)
        and all(0 <= v < len(adj) for v in vs)
        and all(b in adj[a] for a, b in zip(vs, vs[1:]))
    )


def check_longer(adj, before, after):
    """A returned path: simple, along real edges, same endpoints, longer."""
    before, after = tuple(before), tuple(after)
    if not _is_simple_path(adj, after):
        return [f"extension of {before} returned {after}, not a simple path of the host"]
    if (after[0], after[-1]) != (before[0], before[-1]):
        return [f"extension of {before} moved the endpoints to {after[0]},{after[-1]}"]
    if len(after) <= len(before):
        return [f"extension of {before} returned {after}, which is not longer"]
    return []


def has_bound_vertex(adj, vs) -> bool:
    on_path = set(vs)
    return any(adj[v] <= on_path for v in vs[1:-1])


def check_fixpoint(adj, vs):
    """Where iteration stopped the path has an internal vertex whose whole
    neighborhood lies on it, or it spans the host."""
    vs = tuple(vs)
    if not _is_simple_path(adj, vs):
        return [f"fixpoint {vs} is not a simple path of the host"]
    if len(vs) != len(adj) and not has_bound_vertex(adj, vs):
        return [f"fixpoint {vs} has no bound vertex and does not span the host"]
    return []
