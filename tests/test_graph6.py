import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chordlab.graph6 import (
    Graph6Error,
    load_graph_text,
    parse_graph6,
    read_edge_list,
    stream_corpus,
    write_graph6,
)
from chordlab.graphs import Graph


def test_k4_is_c_tilde():
    assert write_graph6(oracles.k4()) == "C~"
    assert parse_graph6("C~") == oracles.k4()


def test_single_vertex_is_at():
    g = Graph(1, [])
    assert write_graph6(g) == "@"
    assert parse_graph6("@") == g


def test_reference_encoder_agreement():
    for g in (oracles.k4(), oracles.k33(), oracles.prism(), oracles.petersen(),
              oracles.path_graph(7), oracles.cycle_graph(9), Graph(1, []),
              oracles.two_k4_minus_edge_bridge()):
        assert write_graph6(g) == oracles.encode_graph6_reference(g)


def test_parse_rejects_bad_bytes():
    with pytest.raises(Graph6Error, match="byte 31 outside graph6 range 63..126"):
        parse_graph6("C\x1f")
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_parse_rejects_header_without_record():
    with pytest.raises(Graph6Error, match="empty record"):
        parse_graph6(">>graph6<<")


def test_parse_rejects_long_form():
    with pytest.raises(Graph6Error, match="long-form"):
        parse_graph6("~??")


def test_write_refuses_long_form():
    assert write_graph6(Graph(62, []))[0] == chr(62 + 63)
    with pytest.raises(ValueError) as exc:
        write_graph6(Graph(63, []))
    assert str(exc.value) == "long form (n >= 63) not supported"


def test_parse_rejects_truncation_and_excess():
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # needs one payload byte
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")


def test_parse_rejects_dirty_padding():
    # K3 on 3 vertices uses 3 bits; set a padding bit
    good = write_graph6(oracles.cycle_graph(3))
    dirty = good[0] + chr(((ord(good[1]) - 63) | 1) + 63)
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6(dirty)


def test_roundtrip_corpus(corpus):
    for graphs in corpus.values():
        for g in graphs:
            line = write_graph6(g)
            parsed = parse_graph6(line)
            assert parsed == g
            assert parsed.edges == tuple(sorted(parsed.edges))
            assert write_graph6(parsed) == line


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 10_000))
def test_roundtrip_random(n, seed):
    import random

    rng = random.Random(seed)
    edges = sorted(
        (a, b)
        for a in range(n) for b in range(a + 1, n)
        if rng.random() < 0.5
    )
    g = Graph(n, edges)
    assert parse_graph6(write_graph6(g)) == g


def test_edge_count_matches_payload_bits():
    g = oracles.prism()
    line = write_graph6(g)
    bits = 0
    for ch in line[1:]:
        bits += bin(ord(ch) - 63).count("1")
    assert bits == g.m


def test_stream_corpus_order_and_numbers():
    lines = [write_graph6(g) for g in (oracles.k4(), oracles.prism(), oracles.k33())]
    out = list(stream_corpus(io.StringIO("\n".join(lines) + "\n")))
    assert [ln for ln, _ in out] == [1, 2, 3]
    assert [g.n for _, g in out] == [4, 6, 6]


def test_stream_corpus_empty():
    assert list(stream_corpus(io.StringIO(""))) == []


def test_stream_corpus_names_bad_line():
    lines = [write_graph6(oracles.k4()), "C", write_graph6(oracles.k4())]
    with pytest.raises(Graph6Error, match="line 2"):
        list(stream_corpus(iter(lines)))


def test_edge_list_roundtrip():
    g = oracles.k33()
    assert read_edge_list(oracles.edge_list_text(g)) == g


def test_edge_list_validates_count():
    with pytest.raises(ValueError):
        read_edge_list("2 2\n0 1\n")


@pytest.mark.parametrize("text, message", (
    ("3 2\n0 1\n0 2 5\n", "line 3: edge line '0 2 5' is not two integers"),
    ("3 2\n0 1\n\n0 x\n", "line 4: edge line '0 x' is not two integers"),
), ids=("three-values", "non-integer"))
def test_edge_list_names_bad_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_edge_list(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", (
    ("", "empty edge-list input"),
    ("\n  \n", "empty edge-list input"),
    ("3\n", 'edge-list header must be "n m"'),
    ("3 1 1\n0 1\n", 'edge-list header must be "n m"'),
), ids=("empty", "blank-lines", "one-field-header", "three-field-header"))
def test_edge_list_refuses_no_input_and_bad_header(text, message):
    """`load_graph_text` reads only input whose first line is two
    integers as an edge list, so these reach `read_edge_list` only when
    it is called directly."""
    with pytest.raises(ValueError) as exc:
        read_edge_list(text)
    assert str(exc.value) == message


def test_load_graph_text_refuses_several_records():
    k4, prism = write_graph6(oracles.k4()), write_graph6(oracles.prism())
    assert load_graph_text(f"{k4}\n\n") == oracles.k4()
    for text, records in ((f"{k4}\n{prism}\n", 2), (f"{k4}\n\n{prism}\n{k4}", 3)):
        with pytest.raises(Graph6Error) as exc:
            load_graph_text(text)
        assert str(exc.value) == f"expected one graph6 record, found {records}"
