"""Hot search kernels over adjacency bitmasks.

All exact search funnels through the kernels below: longest (x,y)-path
length/enumeration, longest-cycle length/enumeration, and Hamilton-cycle
enumeration.  Each is written once, in numba-compatible Python, and the
module compiles them with @njit unless the env flag says otherwise:

    CHORDLAB_KERNEL=numba   force numba (ImportError if unavailable)
    CHORDLAB_KERNEL=python  plain-Python fallback on the same source
    CHORDLAB_KERNEL=auto    numba when importable (default)

Masks fit in int64 (n < 63 everywhere at desk scale).  Child order is
always ascending vertex id, so both backends enumerate identically.

``xy_sweep`` (all end vertices from one source, with bound counts) is
plain Python on every backend; it is what ``verify_zhan`` reads.
"""

from __future__ import annotations

import os

import numpy as np

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


def _popcount(x):
    x = int(x)
    x = x - ((x >> 1) & _M1)
    x = (x & _M2) + ((x >> 2) & _M2)
    x = (x + (x >> 4)) & _M4
    return ((x * _H01) >> 56) & 0x7F


def _tz(bit):
    # index of a single set bit
    return _popcount(bit - 1)


def _reach(adj, start, allowed):
    """Vertices reachable from ``start`` through ``allowed`` (start included)."""
    reach = 1 << start
    frontier = reach
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & (-f)
            nxt |= adj[_tz(b)]
            f ^= b
        nxt &= allowed & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def _xy_run(adj, n, x, y, mode, target, out):
    """Simple (x,y)-paths by pruned DFS, children in ascending id order.

    mode 0: return max edge length; mode 1: count paths of length target;
    mode 2: also write each as a vertex row of ``out``.
    """
    full = (1 << n) - 1
    best = 0
    found = 0
    vstack = np.zeros(n + 2, np.int64)
    cstack = np.zeros(n + 2, np.int64)
    d = 0
    vstack[0] = x
    cstack[0] = adj[x]
    visited = 1 << x
    while d >= 0:
        cands = int(cstack[d])
        if cands == 0:
            visited &= ~(1 << int(vstack[d]))
            d -= 1
            continue
        b = cands & (-cands)
        cstack[d] = cands ^ b
        v = _tz(b)
        if v == y:
            length = d + 1
            if mode == 0:
                if length > best:
                    best = length
            elif length == target:
                if mode == 2:
                    for j in range(d + 1):
                        out[found, j] = vstack[j]
                    out[found, d + 1] = y
                found += 1
            continue
        visited2 = visited | b
        allowed = full & ~visited2
        reach = _reach(adj, v, allowed)
        if (reach >> y) & 1 == 0:
            continue
        ub = d + _popcount(reach)
        if mode == 0:
            if ub <= best:
                continue
        elif ub < target:
            continue
        d += 1
        vstack[d] = v
        cstack[d] = adj[v] & ~visited2
        visited = visited2
    if mode == 0:
        return best
    return found


def _cycle_run(adj, n, mode, target, out):
    """Cycles in canonical form: minimum vertex first, second < last.

    mode 0: max cycle length (0 when acyclic); mode 1: count cycles of
    length target; mode 2: also write vertex rows.
    """
    best = 0
    found = 0
    vstack = np.zeros(n + 2, np.int64)
    cstack = np.zeros(n + 2, np.int64)
    for s in range(n):
        gt = ~((1 << (s + 1)) - 1)
        sadj = int(adj[s])
        d = 0
        vstack[0] = s
        cstack[0] = sadj & gt
        visited = 1 << s
        while d >= 0:
            cands = int(cstack[d])
            if cands == 0:
                visited &= ~(1 << int(vstack[d]))
                d -= 1
                continue
            b = cands & (-cands)
            cstack[d] = cands ^ b
            v = _tz(b)
            if ((sadj >> v) & 1) != 0 and d >= 1 and int(vstack[1]) < v:
                length = d + 2
                if mode == 0:
                    if length > best:
                        best = length
                elif length == target:
                    if mode == 2:
                        for j in range(d + 1):
                            out[found, j] = vstack[j]
                        out[found, d + 1] = v
                    found += 1
            visited2 = visited | b
            allowed = gt & ~visited2
            reach = _reach(adj, v, allowed)
            if (reach & sadj) == 0:
                continue
            ub = d + 1 + _popcount(reach)
            if mode == 0:
                if ub <= best:
                    continue
            elif ub < target:
                continue
            d += 1
            vstack[d] = v
            cstack[d] = int(adj[v]) & gt & ~visited2
            visited = visited2
    if mode == 0:
        return best
    return found


def _ham_run(adj, n, mode, out):
    """Hamilton cycles, canonical (start 0, second < last).

    mode 1: count; mode 2: also write vertex rows.
    """
    if n < 3:
        return 0
    full = (1 << n) - 1
    found = 0
    vstack = np.zeros(n + 2, np.int64)
    cstack = np.zeros(n + 2, np.int64)
    d = 0
    vstack[0] = 0
    cstack[0] = adj[0]
    visited = 1
    adj0 = int(adj[0])
    while d >= 0:
        cands = int(cstack[d])
        if cands == 0:
            visited &= ~(1 << int(vstack[d]))
            d -= 1
            continue
        b = cands & (-cands)
        cstack[d] = cands ^ b
        v = _tz(b)
        visited2 = visited | b
        if visited2 == full:
            if ((adj0 >> v) & 1) != 0 and d >= 1 and int(vstack[1]) < v:
                if mode == 2:
                    for j in range(d + 1):
                        out[found, j] = vstack[j]
                    out[found, d + 1] = v
                found += 1
            continue
        allowed = full & ~visited2
        reach = _reach(adj, v, allowed)
        if (reach & allowed) != allowed:
            continue
        if (reach & adj0) == 0:
            continue
        d += 1
        vstack[d] = v
        cstack[d] = int(adj[v]) & ~visited2
        visited = visited2
    return found


def _select_backend():
    req = os.environ.get("CHORDLAB_KERNEL", "auto").lower()
    if req not in ("auto", "numba", "python"):
        raise ValueError(f"CHORDLAB_KERNEL must be auto|numba|python, got {req!r}")
    if req == "python":
        return "python", None
    try:
        import numba
    except ImportError:
        if req == "numba":
            raise
        return "python", None
    return "numba", numba


BACKEND, _numba = _select_backend()

if BACKEND == "numba":
    _jit = _numba.njit(cache=True, nogil=True)
    _popcount = _jit(_popcount)
    _tz = _jit(_tz)
    _reach = _jit(_reach)
    _xy_run = _jit(_xy_run)
    _cycle_run = _jit(_cycle_run)
    _ham_run = _jit(_ham_run)


def adjacency_array(masks) -> np.ndarray:
    return np.asarray(masks, dtype=np.int64)


def longest_xy_length(adj, n, x, y) -> int:
    dummy = np.zeros((1, 1), np.int64)
    return int(_xy_run(adj, n, x, y, 0, 0, dummy))


def xy_paths_of_length(adj, n, x, y, length) -> np.ndarray:
    dummy = np.zeros((1, 1), np.int64)
    count = int(_xy_run(adj, n, x, y, 1, length, dummy))
    out = np.zeros((max(count, 1), length + 1), np.int64)
    if count:
        _xy_run(adj, n, x, y, 2, length, out)
    return out[:count]


def longest_cycle_length(adj, n) -> int:
    dummy = np.zeros((1, 1), np.int64)
    return int(_cycle_run(adj, n, 0, 0, dummy))


def cycles_of_length(adj, n, length) -> np.ndarray:
    dummy = np.zeros((1, 1), np.int64)
    count = int(_cycle_run(adj, n, 1, length, dummy))
    out = np.zeros((max(count, 1), length), np.int64)
    if count:
        _cycle_run(adj, n, 2, length, out)
    return out[:count]


def hamilton_cycle_rows(adj, n) -> np.ndarray:
    dummy = np.zeros((1, 1), np.int64)
    count = int(_ham_run(adj, n, 1, dummy))
    out = np.zeros((max(count, 1), max(n, 1)), np.int64)
    if count:
        _ham_run(adj, n, 2, out)
    return out[:count]


def xy_sweep(masks, n, x):
    """Every simple path from ``x``, walked once by exhaustive DFS with
    children in ascending id order (the order ``_xy_run`` writes rows in).

    Returns a list indexed by end vertex y: None for y == x or no path,
    else (longest length, least number of internal bound vertices among
    the longest (x,y)-paths, the first such path in DFS order).  A vertex
    v is bound on a path with vertex mask P iff masks[v] & ~P == 0.
    Plain Python on purpose: cubic graphs have few simple paths, so no
    pruning is needed and one walk serves every y.
    """
    nbrs = [[u for u in range(n) if (m >> u) & 1] for m in masks]
    best = [0] * n
    low = [0] * n
    first = [None] * n
    path = [x]

    def visit(v, pm, length, bound):
        length += 1
        for w in nbrs[v]:
            if (pm >> w) & 1:
                continue
            pm2 = pm | (1 << w)
            # appending w can only bind path vertices adjacent to w
            c = bound
            for u in nbrs[w]:
                if u != x and (pm >> u) & 1 and masks[u] & ~pm2 == 0:
                    c += 1
            path.append(w)
            if length > best[w] or (length == best[w] and c < low[w]):
                best[w] = length
                low[w] = c
                first[w] = tuple(path)
            visit(w, pm2, length, c)
            path.pop()

    visit(x, 1 << x, 0, 0)
    return [
        (best[y], low[y], first[y]) if first[y] is not None else None
        for y in range(n)
    ]


def warmup():
    """Trigger JIT compilation on a scrap graph (useful before forking)."""
    adj = adjacency_array([0b1110, 0b1101, 0b1011, 0b0111])
    longest_xy_length(adj, 4, 0, 1)
    xy_paths_of_length(adj, 4, 0, 1, 3)
    longest_cycle_length(adj, 4)
    cycles_of_length(adj, 4, 4)
    hamilton_cycle_rows(adj, 4)
