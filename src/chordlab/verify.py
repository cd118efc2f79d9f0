"""The exhaustive verifiers of the paper's three statements: the minimum
internal bound-vertex count over longest (x,y)-paths for all pairs of a
2-connected cubic graph and for the adjacent pairs of a 3-connected one
(`verify_zhan`), and the minimum chord count over the longest cycles of a
3-connected one (`verify_chords`).  Each returns the value with a
witness; the caller compares it with the paper's threshold.
"""

from __future__ import annotations

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


def verify_zhan(g: Graph, mode: str = "all-pairs") -> ZhanReport:
    """Minimum internal bound-vertex count over longest (x,y)-paths for
    every requested pair: all pairs of a 2-connected cubic graph, or the
    adjacent pairs of a 3-connected one; the caller compares the minimum
    with the paper's threshold.  One DFS per source vertex x
    (``kernels.xy_sweep``) fills the entries of its targets: the vertices
    above x for all pairs, the neighbours above x for adjacent pairs.
    Every entry is re-checked before it is reported."""
    if mode not in ("all-pairs", "adjacent-pairs"):
        raise ValueError(f"mode must be all-pairs or adjacent-pairs, got {mode!r}")
    if not is_cubic(g):
        raise ValueError("graph is not cubic")
    need_k = CONNECTIVITY[mode]
    if not connectivity_at_least(g, need_k):
        raise ValueError(f"graph is not {need_k}-connected")
    masks = kernel_masks(g)
    results = {}
    for x in range(g.n):
        ends = masks[x] if mode == "adjacent-pairs" else (1 << g.n) - 1
        targets = ends & (-2 << x)  # only y > x: each pair once
        table = kernels.xy_sweep(masks, g.n, x, targets)
        for y in range(x + 1, g.n):
            if (targets >> y) & 1:
                entry = table[y]
                _check_sweep_entry(g, x, y, entry)
                best, mb, wit = entry
                results[(x, y)] = PairResult(best, mb, wit)
    minimum = min((r.min_bound for r in results.values()), default=0)
    return ZhanReport(mode=mode, pairs=results, minimum=minimum)


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
