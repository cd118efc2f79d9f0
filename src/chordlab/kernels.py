"""Exact search kernels over adjacency bitmasks, in plain Python.

All exact search funnels through the kernels below: longest (x,y)-path
length/enumeration, longest-cycle length/enumeration (Hamilton cycles
are the cycles of length n), and the per-source sweep whose tables
``verify_zhan`` reads for all pairs and for adjacent pairs alike.  Each
takes the ``Graph.masks`` tuple (bit w of ``masks[v]`` set iff vw is an
edge), whose length is the vertex count, and returns Python ints, a list
of vertex tuples or a table.  Masks are Python ints, so no vertex
count is refused.
Children are always tried in ascending vertex id, so every enumeration
is deterministic and the row order is part of the output.

Every cycle query reads one walk over the cycles in canonical form
(``_cycle_rows``), which skips each subtree where no cycle of the wanted
length can close.  The per-pair (x,y) search is an unpruned walk over
every path from x (``_xy_rows``).  The sweep walks the paths from x too,
but skips a subtree once every target it could still change is settled:
reached by a path of at least the caller's length ``floor``.  With floor
n - 1 that is a Hamiltonian path and the table is exact on every target;
`verify_zhan` passes a lower floor where the paper's counting bound
shows that no longer path can lower its minimum.  The sweep updates its
bound count in one step per appended vertex, which is exact only for
maximum degree 3, so it refuses a mask with more than three bits.
"""

from __future__ import annotations

# the kernels carry no compiled backend; the name stays for reports
BACKEND = "python"


def _xy_rows(masks, x, y, length):
    """The (x,y)-paths of ``length`` edges as tuples in walk order; with
    length None, those of the greatest length (none when y is unreachable).

    One unpruned recursive walk from x, children in ascending id order; a
    path ends when it reaches y.  A reach prune was measured slower than
    this walk at n = 16..28, where its test costs more than it saves.
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


def _cycle_rows(masks, length, stop=False):
    """The cycles of ``length`` vertices as tuples in ascending order; with
    length None, those of the greatest length (none when acyclic).  With
    length None and ``stop``, the walk ends at the first Hamilton cycle,
    if any, which is then the one row: no cycle is longer, and it is the
    least Hamilton cycle by the order below.

    Every cycle is walked once in canonical form: least vertex s first,
    second vertex t below the last.  The walk is a preorder with ascending
    children, started from each s in ascending order, so the cycles of
    one length come out in ascending vertex-sequence order.  Two exact
    prunes skip only subtrees that hold no row:

    - a path s, t, ..., v closes in canonical form only at a neighbour of
      s above t, so the walk enters v's subtree only while such a
      neighbour is still off the path (one AND per node);
    - a cycle whose least vertex is s has at most n - s vertices, so the
      walk stops at the first s with n - s below the wanted length.  The
      Hamilton cycles are walked from vertex 0 alone.
    """
    n = len(masks)
    rows = []
    want = 3 if length is None else length
    path = []

    def visit(v, pm, ends):
        # pm: the path and every vertex below s; ends: s's neighbours above t
        nonlocal want
        free = masks[v] & ~pm
        while free:
            b = free & -free
            free ^= b
            path.append(b.bit_length() - 1)
            pm2 = pm | b
            if ends & b:
                if len(path) == want:
                    rows.append(tuple(path))
                elif length is None and len(path) > want:
                    want = len(path)
                    rows[:] = [tuple(path)]
                    if stop and want == n:
                        raise StopIteration
            if ends & ~pm2:
                visit(path[-1], pm2, ends)
            path.pop()

    try:
        for s in range(n):
            if n - s < want:
                break
            below = (2 << s) - 1
            free = masks[s] & ~below
            while free:
                b = free & -free
                free ^= b
                ends = masks[s] & -(b << 1)
                if ends:
                    path[:] = [s, b.bit_length() - 1]
                    visit(path[1], below | b, ends)
    except StopIteration:
        pass
    return rows


def longest_xy_length(masks, x, y) -> int:
    rows = _xy_rows(masks, x, y, None)
    return len(rows[0]) - 1 if rows else 0


def xy_paths_of_length(masks, x, y, length) -> list:
    return _xy_rows(masks, x, y, length)


def longest_cycle_length(masks) -> int:
    rows = _cycle_rows(masks, None)
    return len(rows[0]) if rows else 0


def cycles_of_length(masks, length, stop=False) -> list:
    """`_cycle_rows`: canonical tuples in ascending order."""
    return _cycle_rows(masks, length, stop)


def hamilton_cycle_rows(masks) -> list:
    """The Hamilton cycles as canonical tuples in ascending order."""
    return _cycle_rows(masks, len(masks))


def xy_sweep(masks, x, targets, floor):
    """Every simple path from ``x`` that can still change an entry, walked
    by DFS with children in ascending id order (the order ``_xy_rows``
    returns rows in).

    ``targets`` is a bit mask of end vertices.
    Returns a list indexed by end vertex y: None for y == x, for y not in
    ``targets`` or for no path, else (longest length, least number of
    internal bound vertices among the longest (x,y)-paths, the first such
    path in DFS order) over the paths walked.  A vertex v is bound on a
    path with vertex mask P iff masks[v] & ~P == 0.  One walk serves
    every target.

    The bound count takes one step per appended vertex.  Appending w to a
    path from x to v binds exactly the path vertices other than x and v
    that are adjacent to w (their two path neighbours and w fill their
    degree), plus v when w is v's only off-path neighbour.  That needs
    maximum degree 3, so a mask with more bits is refused.

    An entry is ranked by (length << shift) - count, with 2**shift > n
    and a count in 0..n-2, so a target settles once a path of at least
    ``floor`` edges reaches it, exactly when its rank reaches
    (floor << shift) - (n - 2): a length L >= floor gives a rank of at
    least that, and L < floor at most (floor << shift) - 2**shift, which
    is less.  The walk skips the subtree below w when every unsettled
    target lies on the path to w.  Every path in the subtree ends off the
    current path, so not at an unsettled target.  Hence:

    - an entry that never settles is exact, with the same first witness
      as the walk that skips nothing: every path to it is walked, and the
      paths walked keep their DFS order;
    - an entry that settles has length at least ``floor``, and no more
      than that is claimed for it.

    With floor n - 1 a settled entry is exact too.  Its rank is the rank
    of a Hamiltonian path, length n - 1 with every internal vertex bound,
    which no path exceeds, and an entry changes only on a strictly
    greater rank.  So with floor n - 1 the table is exact on every target
    and the same whatever ``targets`` is.
    """
    if any(m.bit_count() > 3 for m in masks):
        raise ValueError("xy_sweep needs maximum degree at most 3")
    n = len(masks)
    bx = 1 << x
    # an entry is ranked by one int, (length << shift) - count: longer
    # first, then fewer bound vertices, as a count is at most n - 2
    shift = n.bit_length()
    step = 1 << shift
    settle = (floor << shift) - (n - 2)
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
                if rank >= settle:
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
