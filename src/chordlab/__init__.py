"""chordlab: exact search and exhaustive desk-scale verification of
bound vertices of longest paths and chords of longest cycles in cubic
graphs.

The package imports no submodule itself.  Each name in `__all__` is read
from its defining module on first access (PEP 562), which imports that
module then, so a process loads only the modules it uses.  No function
is copied into the package namespace: ``chordlab.verify_zhan`` is
``chordlab.verify.verify_zhan`` at the moment it is read.
"""

import importlib

# public name -> the submodule that defines it
_HOME = {
    "Graph": "graphs",
    "is_cubic": "graphs",
    "connectivity_at_least": "graphs",
    "components_after_deletion": "graphs",
    "parse_graph6": "graph6",
    "write_graph6": "graph6",
    "stream_corpus": "graph6",
    "Path": "search",
    "Cycle": "search",
    "PathReport": "search",
    "longest_xy_paths": "search",
    "internal_bound_vertices": "search",
    "longest_cycles": "search",
    "hamilton_cycles": "search",
    "chords": "search",
    "enumerate_cubic": "generate",
    "random_cubic": "generate",
    "three_color_cycle_plus": "coloring",
    "pick_color_class": "coloring",
    "second_hamilton_cycle": "second_cycle",
    "precheck": "extender",
    "extend_path": "extender",
    "extend_path_adjacent": "extender",
    "verify_zhan": "verify",
    "verify_chords": "verify",
    "InvariantViolation": "errors",
}

__all__ = list(_HOME)


def __getattr__(name):
    # a name outside the table must raise AttributeError, so that
    # `from chordlab import kernels` goes on to import the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
