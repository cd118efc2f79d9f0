"""The exhaustive verifiers of the paper's three statements: the minimum
internal bound-vertex count over longest (x,y)-paths for all pairs of a
2-connected cubic graph and for the adjacent pairs of a 3-connected one
(`verify_zhan`), and the minimum chord count over the longest cycles of a
3-connected one (`verify_chords`).  Each returns the value with a
witness; the caller compares it with the paper's threshold.

`verify_zhan` computes only what that comparison reads: the minimum,
and the pairs walked to an exact entry, among them the first pair below
any threshold with its witness.  Two exact facts let it skip the rest.
The paper's counting bound lets a source's sweep settle a target on a
path too long to lower the minimum found so far, and Pósa's rotation
(L. Pósa, *Hamiltonian circuits in random graphs*, Discrete Math. 14,
1976) turns one Hamiltonian path into others, which settle their end
pairs at n - 2 before their source is swept.  The rotation closure keeps
one path per end pair, so it ends after at most 4 C(n,2) rotations with
no budget, and it builds a rotated path only for a new end pair.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from . import kernels
from .errors import InvariantViolation
from .graphs import Graph, connectivity_at_least, is_cubic
from .search import Cycle, chords, kernel_masks, walk_problem

# the connectivity each verified statement assumes: verify_zhan's modes
# and verify_chords ("chords")
CONNECTIVITY = {"all-pairs": 2, "adjacent-pairs": 3, "chords": 3}


@dataclass(frozen=True)
class PairResult:
    max_length: int
    min_bound: int
    witness: tuple  # a path achieving the minimum


@dataclass(frozen=True)
class ZhanReport:
    mode: str
    pairs: dict
    minimum: int


def _check_sweep_entry(g: Graph, x: int, y: int, entry):
    """Re-validate one sweep table entry from ``g.masks``, independently
    of the sweep's rank arithmetic: the witness is a simple path of g
    (`walk_problem`), its endpoints and length are the pair's and the
    table's, and so is its internal bound count, the interior vertices
    with no neighbour off the path."""
    if entry is None:
        # the connectivity gate guarantees an (x,y)-path
        raise InvariantViolation("sweep", f"pair ({x},{y}): no path in the table")
    best, mb, wit = entry
    masks = g.masks
    problem = walk_problem(masks, wit)
    if problem:
        raise InvariantViolation("sweep", f"pair ({x},{y}): witness {wit}: {problem}")
    pm = 0
    for v in wit:
        pm |= 1 << v
    off = ~pm
    bound = [masks[v] & off for v in wit[1:-1]].count(0)
    if (wit[0], wit[-1]) != (x, y) or len(wit) - 1 != best or bound != mb:
        raise InvariantViolation(
            "sweep",
            f"pair ({x},{y}): witness {wit} has length {len(wit) - 1} and "
            f"{bound} internal bound vertices, table says {best} and {mb}",
        )


def _rotate(q, i):
    """The Pósa rotation of the Hamiltonian path q = v0 ... v(n-1) at its
    last vertex through the edge v(n-1)v(i), i < n - 2:
    v0 ... v(i) v(n-1) v(n-2) ... v(i+1).  Each step is an edge of q or
    v(i)v(n-1), and it holds every vertex once, so it is a Hamiltonian
    path with ends v0 and v(i+1)."""
    return q[: i + 1] + q[:i:-1]


def _settle_by_rotation(masks, x, seeds, open_, left):
    """Breadth-first Pósa closure of source x's Hamiltonian witnesses
    ``seeds``: clear from ``open_`` each pair (a, c), a > x, that a rotated
    path joins, and return how many of the ``left`` open pairs remain.

    The closure keeps one path per unordered end pair.  Each path is
    rotated at its last vertex and then at its first, neighbours
    ascending; a rotation through the edge to v(i) ends at v(i+1), so its
    end pair is read before the path is built, and `_rotate` builds it
    only for a pair not yet ``seen``.  So at most C(n,2) paths are queued,
    each with at most four rotations, and the closure ends after at most
    4 C(n,2) steps, or once no pair is open.  A path settles its pair only
    after it passes `walk_problem`, holds all n vertices and has that
    pair's ends."""
    n = len(masks)
    seen = {(p[0], p[-1]) for p in seeds}  # each seed starts at x
    queue = collections.deque(seeds)
    while queue:
        p = queue.popleft()
        for q in (p, p[::-1]):
            a = q[0]
            free = masks[q[-1]] & ~(1 << q[-2])
            while free:
                b = free & -free
                free ^= b
                i = q.index(b.bit_length() - 1)
                c = q[i + 1]
                pair = (a, c) if a < c else (c, a)
                if pair in seen:
                    continue
                seen.add(pair)
                r = _rotate(q, i)
                lo, hi = pair
                if lo > x and open_[lo] >> hi & 1:
                    problem = (
                        walk_problem(masks, r)
                        or (len(r) != n and f"{len(r)} of {n} vertices")
                        or ((r[0], r[-1]) != (a, c) and f"ends {r[0]} and {r[-1]}")
                    )
                    if problem:
                        raise InvariantViolation("rotation", f"pair ({lo},{hi}): path {r}: {problem}")
                    open_[lo] &= ~(1 << hi)
                    left -= 1
                    if not left:
                        return 0
                queue.append(r)
    return left


def verify_zhan(g: Graph, mode: str = "all-pairs") -> ZhanReport:
    """Minimum internal bound-vertex count over longest (x,y)-paths for
    every requested pair: all pairs of a 2-connected cubic graph, or the
    adjacent pairs of a 3-connected one; the caller compares the minimum
    with the paper's threshold.  One DFS per source vertex x
    (``kernels.xy_sweep``), in ascending x, walks the pairs (x, y), y > x,
    for all pairs, or y a neighbour above x for adjacent pairs.
    ``pairs`` holds, in (x, y) order, the entries walked to an exact
    value; `minimum` is exact, and so is the first pair below any
    threshold, with the witness the sweep that skips nothing finds.
    Every entry kept is re-checked before it is reported.

    Length floor.  A path with L edges has at least 4L - 3n + 2 internal
    bound vertices: of its L - 1 interior vertices, only those with a
    neighbour among the n - L - 1 vertices off it are free, and each of
    those has at most three neighbours.  Let M be the least value kept
    from the earlier sources, n - 2 at the start.  Source x sweeps with
    floor ceil((M + 3n - 2) / 4), so a target reached by a path of at
    least floor edges has value at least M.  Of its entries it keeps:

    - length n - 1: exact, with value n - 2, as no path is longer;
    - length below floor: the target never settled, so the entry and its
      first witness are the full sweep's (``xy_sweep``'s docstring);
    - nothing else: the target settled, so its value is at least M.

    Rotations.  After the sweep, `_settle_by_rotation` rotates x's
    Hamiltonian witnesses, keeping one path per end pair, so it queues at
    most C(n,2) paths and ends after at most 4 C(n,2) rotations.  A
    Hamiltonian (a,c)-path is longest with every internal vertex bound, so
    the pair's value is n - 2, at least M; the pair leaves its source's
    targets unreported.  Which pairs the closure reaches does not matter
    for exactness: each one it settles has a re-checked Hamiltonian
    witness, so its value is n - 2 whatever path settled it.

    So no pair left out is below the least value kept, which is then the
    minimum, as every value is at most n - 2 and source 0 keeps all its
    entries.  The first pair below a threshold t keeps its entry and
    witness: every earlier pair has value at least t, so its own value is
    below M, it is not Hamiltonian, and it never settles."""
    if mode not in ("all-pairs", "adjacent-pairs"):
        raise ValueError(f"mode must be all-pairs or adjacent-pairs, got {mode!r}")
    if not is_cubic(g):
        raise ValueError("graph is not cubic")
    need_k = CONNECTIVITY[mode]
    if not connectivity_at_least(g, need_k):
        raise ValueError(f"graph is not {need_k}-connected")
    masks = kernel_masks(g)
    n = g.n
    # open_[x]: source x's targets that no rotation has settled, y > x
    # only, so each pair once
    open_ = [(masks[x] if mode == "adjacent-pairs" else (1 << n) - 1) & (-2 << x) for x in range(n)]
    left = sum(m.bit_count() for m in open_)
    results = {}
    least = n - 2  # M: the least value kept so far
    for x in range(n):
        targets = open_[x]
        left -= targets.bit_count()
        floor = (least + 3 * n + 1) // 4  # ceil((least + 3n - 2) / 4)
        table = kernels.xy_sweep(masks, n, x, targets, floor)
        seeds = []
        for y in range(x + 1, n):
            if (targets >> y) & 1:
                entry = table[y]
                if entry and floor <= entry[0] < n - 1:
                    continue  # settled by the floor: its value is at least M
                _check_sweep_entry(g, x, y, entry)
                best, mb, wit = entry
                results[(x, y)] = PairResult(best, mb, wit)
                least = min(least, mb)
                if best == n - 1:
                    seeds.append(wit)
        if seeds and left:
            left = _settle_by_rotation(masks, x, seeds, open_, left)
    return ZhanReport(mode=mode, pairs=results, minimum=least)


@dataclass(frozen=True)
class ChordReport:
    cycle_length: int
    min_chords: int
    witness: tuple


def verify_chords(g: Graph) -> ChordReport:
    """Minimum chord count over the longest cycles of a 3-connected cubic
    graph, at least 2 by the paper, with the least such cycle (by vertex
    sequence) as the witness.  A cycle's chords are the edges inside its
    vertex set less its own; only the witness is validated and recounted."""
    if not is_cubic(g):
        raise ValueError("graph is not cubic")
    need_k = CONNECTIVITY["chords"]
    if not connectivity_at_least(g, need_k):
        raise ValueError(f"graph is not {need_k}-connected")
    masks = kernel_masks(g)
    best, witness = g.n, ()
    for row in kernels.cycles_of_length(masks, g.n, None):  # ascending
        inside = 0
        for v in row:
            inside |= 1 << v
        count = sum((masks[v] & inside).bit_count() for v in row) // 2 - len(row)
        if count < best:  # so the first minimum is the least
            best, witness = count, row
    if len(chords(g, Cycle(witness))) != best:  # validates the witness too
        raise InvariantViolation("chords", f"witness {witness}: the masks count {best} chords")
    return ChordReport(cycle_length=len(witness), min_chords=best, witness=witness)
