"""chordlab: exact search and exhaustive desk-scale verification of
bound vertices of longest paths and chords of longest cycles in cubic
graphs."""

from .graphs import (
    Graph,
    components_after_deletion,
    connectivity_at_least,
    is_cubic,
)
from .graph6 import parse_graph6, stream_corpus, write_graph6
from .coloring import pick_color_class, three_color_cycle_plus
from .errors import InvariantViolation
from .extender import (
    extend_path,
    extend_path_adjacent,
    precheck,
)
from .generate import enumerate_cubic, random_cubic
from .second_cycle import second_hamilton_cycle
from .search import (
    Cycle,
    Path,
    PathReport,
    chords,
    hamilton_cycles,
    internal_bound_vertices,
    longest_cycles,
    longest_xy_paths,
)
from .verify import verify_chords, verify_zhan

__all__ = [
    "Graph",
    "is_cubic",
    "connectivity_at_least",
    "components_after_deletion",
    "parse_graph6",
    "write_graph6",
    "stream_corpus",
    "Path",
    "Cycle",
    "PathReport",
    "longest_xy_paths",
    "internal_bound_vertices",
    "longest_cycles",
    "hamilton_cycles",
    "chords",
    "enumerate_cubic",
    "random_cubic",
    "three_color_cycle_plus",
    "pick_color_class",
    "second_hamilton_cycle",
    "precheck",
    "extend_path",
    "extend_path_adjacent",
    "verify_zhan",
    "verify_chords",
    "InvariantViolation",
]
