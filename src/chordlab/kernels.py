"""Exact search kernels over adjacency bitmasks, in plain Python.

All exact search funnels through the kernels below: longest (x,y)-path
length/enumeration, longest-cycle length/enumeration (Hamilton cycles
are the cycles of length n), and the per-source sweep whose tables
``verify_zhan`` reads for all pairs and for adjacent pairs alike.  Each
takes the ``Graph.masks`` tuple (bit w of ``adj[v]`` set iff vw is an
edge) and returns Python ints, a list of vertex tuples or a table.
Children are always tried in ascending vertex id, so every enumeration
is deterministic and the row order is part of the output.

The enumerations are unpruned recursive walks: every cycle query reads
one walk over all cycles (``_cycle_walk``), and the per-pair (x,y)
search walks every path from x (``_xy_rows``).  The sweep walks the
paths from x too, but skips a subtree once every target it could still
change is settled.  It updates its bound count in one step per appended
vertex, which is exact only for maximum degree 3, so it refuses a mask
with more than three bits.
"""

from __future__ import annotations

# the kernels carry no compiled backend; the name stays for reports
BACKEND = "python"


def _xy_rows(masks, n, x, y, length):
    """The (x,y)-paths of ``length`` edges as tuples in walk order; with
    length None, those of the greatest length (none when y is unreachable).

    One unpruned recursive walk from x, children in ascending id order; a
    path ends when it reaches y.  Cubic graphs have few simple paths, so
    no pruning is needed.
    """
    rows = []
    want = 1 if length is None else length
    path = [x]
    by = 1 << y

    def visit(v, pm):
        nonlocal want
        free = masks[v] & ~pm
        while free:
            b = free & -free
            free ^= b
            if b == by:
                if len(path) == want:
                    rows.append((*path, y))
                elif length is None and len(path) > want:
                    want = len(path)
                    rows[:] = [(*path, y)]
                continue
            w = b.bit_length() - 1
            path.append(w)
            visit(w, pm | b)
            path.pop()

    visit(x, 1 << x)
    return rows


def _cycle_walk(masks, n, close):
    """Every cycle walked once in canonical form: minimum vertex first,
    second vertex below the last, children in ascending id order.

    Calls ``close(path, pm)`` on each cycle, with ``path`` the vertex list
    (reused by the walk: copy what you keep) and ``pm`` its vertex mask.
    The walk is a preorder with ascending children, started from each
    vertex in ascending order, so the cycles of one length reach
    ``close`` in ascending vertex-sequence order.  Cubic graphs have few
    cycles, so no pruning is needed.
    """
    nbrs = [[u for u in range(n) if (m >> u) & 1] for m in masks]
    path = []

    def visit(v, pm, s):
        for w in nbrs[v]:
            if w <= s or (pm >> w) & 1:
                continue
            path.append(w)
            pm2 = pm | (1 << w)
            if (masks[s] >> w) & 1 and len(path) > 2 and path[1] < w:
                close(path, pm2)
            visit(w, pm2, s)
            path.pop()

    for s in range(n):
        path.append(s)
        visit(s, 1 << s, s)
        path.pop()


def _cycle_rows(adj, n, length):
    """The cycles of ``length`` vertices as tuples in ascending order; with
    length None, those of the greatest length (none when acyclic)."""
    rows = []
    want = 3 if length is None else length

    def close(path, pm):
        nonlocal want
        if len(path) == want:
            rows.append(tuple(path))
        elif length is None and len(path) > want:
            want = len(path)
            rows[:] = [tuple(path)]

    _cycle_walk(adj, n, close)
    return rows


def longest_xy_length(adj, n, x, y) -> int:
    rows = _xy_rows(adj, n, x, y, None)
    return len(rows[0]) - 1 if rows else 0


def xy_paths_of_length(adj, n, x, y, length) -> list:
    return _xy_rows(adj, n, x, y, length)


def longest_cycle_length(adj, n) -> int:
    rows = _cycle_rows(adj, n, None)
    return len(rows[0]) if rows else 0


def cycles_of_length(adj, n, length) -> list:
    """`_cycle_rows`: canonical tuples in ascending order."""
    return _cycle_rows(adj, n, length)


def hamilton_cycle_rows(adj, n) -> list:
    """The Hamilton cycles as canonical tuples in ascending order."""
    return _cycle_rows(adj, n, n)


def xy_sweep(masks, n, x, targets=None):
    """Every simple path from ``x`` that can still change an entry, walked
    by DFS with children in ascending id order (the order ``_xy_rows``
    returns rows in).

    ``targets`` is a bit mask of end vertices, by default every y != x.
    Returns a list indexed by end vertex y: None for y == x, for y not in
    ``targets`` or for no path, else (longest length, least number of
    internal bound vertices among the longest (x,y)-paths, the first such
    path in DFS order).  A vertex v is bound on a path with vertex mask P
    iff masks[v] & ~P == 0.  One walk serves every target.

    The bound count takes one step per appended vertex.  Appending w to a
    path from x to v binds exactly the path vertices other than x and v
    that are adjacent to w (their two path neighbours and w fill their
    degree), plus v when w is v's only off-path neighbour.  That needs
    maximum degree 3, so a mask with more bits is refused.

    A target settles when its rank reaches ``top``, the rank of a
    Hamiltonian path: length n - 1 with every internal vertex bound, as
    all its neighbours lie on the path.  The walk skips the subtree below
    w when every unsettled target lies on the path to w.  That leaves the
    table unchanged: every path in the subtree ends off the current path,
    so not at an unsettled target; an entry changes only on a strictly
    greater rank, so a settled target keeps its entry; and the paths still
    walked keep their DFS order, so each first witness is the same.
    """
    if any(m.bit_count() > 3 for m in masks):
        raise ValueError("xy_sweep needs maximum degree at most 3")
    bx = 1 << x
    if targets is None:
        targets = ((1 << n) - 1) & ~bx
    # an entry is ranked by one int, (length << shift) - count: longer
    # first, then fewer bound vertices, as a count is at most n - 2
    shift = n.bit_length()
    step = 1 << shift
    top = ((n - 1) << shift) - (n - 2)
    key = [0] * n
    first = [None] * n
    path = [x]
    unsettled = targets

    def visit(v, pm, inner, k):
        # inner: the path vertices other than x and v; k: the path's rank
        nonlocal unsettled
        free = masks[v] & ~pm
        # v binds when its last off-path neighbour joins; x never counts
        base = k + step - (v != x and free & (free - 1) == 0)
        inner2 = pm & ~bx  # the children's inner
        while free:
            b = free & -free
            free ^= b
            w = b.bit_length() - 1
            mw = masks[w]
            rank = base - (mw & inner).bit_count()
            if rank > key[w]:
                key[w] = rank
                first[w] = (*path, w)
                if rank == top:
                    unsettled &= ~b
            pm2 = pm | b
            # w has a free neighbour and some unsettled target is off the path
            if mw & ~pm2 and unsettled & ~pm2:
                path.append(w)
                visit(w, pm2, inner2, rank)
                path.pop()

    visit(x, bx, 0, 0)
    return [
        None if p is None or not (targets >> y) & 1
        else (len(p) - 1, ((len(p) - 1) << shift) - key[y], p)
        for y, p in enumerate(first)
    ]


def warmup():
    """Nothing to prepare: the kernels are plain Python and compile nothing.
    Kept so that callers that warm up before timing need no special case."""
