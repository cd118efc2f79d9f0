"""Bit-exact graph6 parsing/serialization plus a human-editable edge-list
format, and lazy corpus streaming with line numbers for error reporting.

Only the short form (n < 63) is supported: one size byte 63+n, then the
upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2),
x(0,3), ..., six bits per byte (value+63), zero-padded on the right.
"""

from __future__ import annotations

from .graphs import Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def parse_graph6(line: str) -> Graph:
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty record")
    if not "?" <= min(line) <= max(line) <= "~":
        bad = next(c for c in line if not "?" <= c <= "~")
        raise Graph6Error(f"byte {ord(bad)} outside graph6 range 63..126")
    if line[0] == "~":
        raise Graph6Error("long-form size prefix (n >= 63) not supported")
    n = ord(line[0]) - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(line) - 1 != need:
        raise Graph6Error(
            f"payload is {len(line) - 1} bytes, expected {need} for n={n}"
        )
    bits = 0  # the payload as one int, six bits per byte, first bit highest
    for c in line[1:]:
        bits = bits << 6 | (ord(c) - 63)
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # bit i of the column-order sequence is bit (top - i) of the int; walk
    # the set bits from the top, so the edges come in column order
    top = 6 * need - 1
    edges = []
    col, first = 1, 0  # first: the index of x(0, col)
    while bits:
        high = bits.bit_length() - 1
        bits ^= 1 << high
        i = top - high
        while i >= first + col:
            first += col
            col += 1
        edges.append((i - first, col))
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    if g.n >= 63:
        raise ValueError("long form (n >= 63) not supported")
    n = g.n
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    bits = 0  # the payload as one int, first bit highest, as parse_graph6 reads it
    for col, mask in enumerate(g.masks):
        for row in range(col):
            bits = bits << 1 | mask >> row & 1
    bits <<= 6 * need - nbits
    return chr(n + 63) + "".join(chr((bits >> 6 * i & 63) + 63) for i in reversed(range(need)))


def stream_corpus(source):
    """Yield (lineno, Graph) pairs from a line-oriented reader or an
    iterable of strings.  Blank lines are skipped; parse failures raise
    Graph6Error naming the offending 1-based line."""
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield lineno, parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(str(exc), line=lineno) from None


def read_edge_list(text: str) -> Graph:
    """A header line "n m", then m edge lines "u v"; blank lines are
    skipped but counted in the 1-based line numbers of errors."""
    rows = [(i, r.strip()) for i, r in enumerate(text.splitlines(), 1) if r.strip()]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0][1].split()
    if len(head) != 2:
        raise ValueError('edge-list header must be "n m"')
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, r in rows[1:]:
        try:
            u, v = map(int, r.split())
        except ValueError:
            raise ValueError(f"line {lineno}: edge line {r!r} is not two integers") from None
        edges.append((u, v))
    return Graph(n, edges)


def load_graph_text(text: str) -> Graph:
    """Accept either format: an edge list when the first line is two
    integers, a single graph6 record otherwise; a corpus of several
    records is refused, not read as its first graph."""
    lines = text.strip().splitlines()
    if not lines:
        raise Graph6Error("empty graph input")
    first = lines[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        return read_edge_list(text)
    records = sum(1 for line in lines if line.strip())
    if records > 1:
        raise Graph6Error(f"expected one graph6 record, found {records}")
    return parse_graph6(lines[0])
