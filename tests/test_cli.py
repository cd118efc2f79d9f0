import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import time

import pytest

import chordlab
import oracles
from chordlab import cli, extender, generate, kernels, verify
from chordlab.cli import main
from chordlab.errors import InvariantViolation
from chordlab.graph6 import write_graph6
from chordlab.graphs import Graph, connectivity_at_least
from chordlab.search import Cycle, Path, chords, internal_bound_vertices


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """A fresh interpreter that imports the chordlab under test, whether
    or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_generate_counts(tmp_path, capsys):
    code, out, _ = run_cli(["generate", "--n", "4"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    code, out, _ = run_cli(["generate", "--n", "6"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_generate_rejects_odd(capsys):
    code, _, err = run_cli(["generate", "--n", "5"], capsys)
    assert code == 2
    assert "even" in err


def test_generate_to_file_roundtrips(tmp_path, capsys):
    out = tmp_path / "c8.g6"
    code, _, _ = run_cli(["generate", "--n", "8", "--out", str(out)], capsys)
    assert code == 0
    from chordlab.graph6 import parse_graph6

    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        parse_graph6(line)


def _write_corpus(tmp_path, graphs, name="corpus.g6"):
    f = tmp_path / name
    f.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    return f


def test_verify_zhan2_json(tmp_path, capsys, corpus):
    f = _write_corpus(tmp_path, corpus[6])
    code, out, _ = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["graphs"] == 2 == len(rep["rows"])
    assert rep["minimum"] >= 1
    assert rep["violations"] == 0


def test_verify_chords_includes_petersen(tmp_path, capsys):
    f = _write_corpus(tmp_path, [oracles.petersen()])
    code, out, _ = run_cli(["verify", "--mode", "chords", "--in", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"][0]["value"] == 3


def test_verify_skips_gated_graphs(tmp_path, capsys):
    f = _write_corpus(tmp_path, [oracles.two_k4_minus_edge_bridge()])
    code, out, _ = run_cli(["verify", "--mode", "chords", "--in", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["rows"][0]["value"] is None
    assert rep["checked"] == 0


def test_verify_deterministic_and_csv(tmp_path, capsys, corpus):
    f = _write_corpus(tmp_path, corpus[6] + [oracles.petersen()])
    code, out1, _ = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    code, out2, _ = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    assert out1 == out2
    code, out_csv, _ = run_cli(
        ["verify", "--mode", "zhan2", "--in", str(f), "--format", "csv"], capsys
    )
    assert code == 0
    lines = out_csv.strip().splitlines()
    assert lines[0].startswith("graph6,")
    assert len(lines) == 4


def test_verify_parse_error_names_line(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    k4 = write_graph6(oracles.k4())
    # the blank line counts: the bad record is the file's fourth line
    f.write_text(f"{k4}\n\n{k4}\nC\n")
    out = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "--mode", "zhan2", "--in", str(f), "--out", str(out)], capsys
    )
    assert code == 3
    assert "line 4" in err
    assert not out.exists()
    f.write_bytes(k4.encode() + b"\n\xff\n")
    code, _, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    assert code == 3
    assert "line 2: byte 255" in err


def test_verify_header_without_record(tmp_path, capsys):
    """A graph6 header line with no record after it is an input error
    (exit 3), not a traceback that exits 1, the violation code."""
    f = tmp_path / "header.g6"
    f.write_text(">>graph6<<\n")
    code, out, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: line 1: empty record\n"


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "--mode", "zhan2", "--in", str(tmp_path / "nope.g6")], capsys
    )
    assert code == 3


def test_verify_jobs_matches_serial(tmp_path, capsys, corpus):
    """All 27 graphs with n <= 10, a disconnected graph and a non-cubic
    one, spread over 2 workers: the same bytes as the serial run in
    every mode and format."""
    two_k4 = Graph(8, [(u + s, v + s) for s in (0, 4) for u in range(4) for v in range(u + 1, 4)])
    graphs = [g for n in sorted(corpus) for g in corpus[n]] + [two_k4, oracles.cycle_graph(6)]
    f = _write_corpus(tmp_path, graphs)
    for mode in ("zhan2", "zhan3adj", "chords"):
        for fmt in ("json", "csv"):
            argv = ["verify", "--mode", mode, "--in", str(f), "--format", fmt]
            code, serial, _ = run_cli(argv, capsys)
            assert code == 0
            assert run_cli(argv + ["--jobs", "2"], capsys) == (0, serial, ""), (mode, fmt)


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_verify_connectivity_of_non_cubic_lines(tmp_path, capsys, jobs):
    """Lines that are not cubic get a null `connectivity` and a null
    value, whatever their vertex connectivity (max-flow): a wheel (3), C6
    (2), two triangles joined by a bridge (1) and two disjoint triangles
    (0).  The gate answers for cubic graphs only."""
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    graphs = [
        Graph(6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]),
        oracles.cycle_graph(6),
        Graph(6, triangles + [(2, 3)]),
        Graph(6, triangles),
    ]
    assert [min(oracles.vertex_connectivity_menger(g), 3) for g in graphs] == [3, 2, 1, 0]
    f = _write_corpus(tmp_path, graphs)
    code, out, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f), "--jobs", jobs], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [r["connectivity"] for r in rows] == [None] * 4
    assert [r["value"] for r in rows] == [None] * 4


def test_verify_edge_cases_in_every_mode(tmp_path, capsys):
    """The empty graph, K4, C6, the wheel W5 and two disjoint triangles,
    in every mode and format at --jobs 1 and 2: the same bytes, exit 0,
    a null connectivity and value on the lines that are not cubic, 3 on
    K4, and connectivity 0 with a null value on the empty graph, which
    is cubic by the vacuous definition."""
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    wheel = Graph(6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)])
    graphs = [Graph(0, []), oracles.k4(), oracles.cycle_graph(6), wheel, Graph(6, triangles)]
    f = _write_corpus(tmp_path, graphs)
    assert f.read_text().split("\n")[0] == "?"
    # (n, connectivity, value) per row; K4's value is 2 in every mode
    want = [(0, 0, None), (4, 3, 2)] + [(6, None, None)] * 3
    for mode in ("zhan2", "zhan3adj", "chords"):
        for fmt in ("json", "csv"):
            argv = ["verify", "--mode", mode, "--in", str(f), "--format", fmt]
            code, serial, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            assert run_cli(argv + ["--jobs", "2"], capsys) == (0, serial, ""), (mode, fmt)
            if fmt == "json":
                rep = json.loads(serial)
                assert (rep["checked"], rep["minimum"], rep["violations"]) == (1, 2, 0)
                assert [(r["n"], r["connectivity"], r["value"]) for r in rep["rows"]] == want
            else:
                cells = [(r["n"], r["connectivity"], r["value"]) for r in csv.DictReader(io.StringIO(serial))]
                assert cells == [tuple("" if x is None else str(x) for x in row) for row in want], mode


# sha256 of the JSON `chordlab verify --mode M` writes for the output of
# `chordlab generate --n N`, recorded with the sweep that rescanned every
# neighbour of the new end: a faster kernel must keep the same bytes
VERIFY_SHA256 = {
    (10, "zhan2"): "04a497dde121cb5ac246de348b1a4e7939a327d114915a1409a727df14956e42",
    (10, "zhan3adj"): "e80b3da1a42869fc6d1f5433cfa67964efa1115019bc12f28fdd6b521742d07b",
    (10, "chords"): "6fac4b4b3d0b7ae1a028ccae19de1d70c17da251921c05f95e89967e5ca3d6c9",
    (12, "zhan2"): "7c40f6b761f3fccb97ffdf8c8f7f5d8d43aa9e98b18f451d148b2e2e6f10f5fd",
    (12, "zhan3adj"): "ebb97f2061dabf89455eecd41c3dcbc79ebd099b0d367f138b490cfcf2aea82b",
    (12, "chords"): "492785a60caf3a54a4614ed104cef2ff1754007c47f50868b9e024db8ef0699a",
    # recorded with the lowpoint gate, the unpruned cycle walk and the
    # bit-list graph6 decoder
    (14, "zhan2"): "100a467079604a1e29f0ac9dd56b507d69d2cc77fc87cb1e3e54dd669320936e",
    (14, "zhan3adj"): "14bf76bfec54985a3572240e57bf1be4d380e71ffbae6d1e8800e66d83d51384",
    (14, "chords"): "160af8f2a2cdc62294f89ea044a8f3f33a20ce1ac66c4b2f28739049162ac423",
    # recorded with the sweep called for every source, the chord walk over
    # every longest cycle and pairs settled by Pósa rotation alone
    (16, "zhan2"): "504c2124ca1a00dd458e7a486afc85a5c3c59c7246157668ec33f6e9b58c6728",
    (16, "zhan3adj"): "02e7d8c47a6d6625a793ef01a59f5470714c338b1c3a5566426fe0f89f6d0375",
    (16, "chords"): "0bcd026e51f38adf2798aa391bfe2a131b69ad0417c5d14761782a0e71460681",
}


@pytest.mark.parametrize("n", (
    10,
    12,
    *(pytest.param(n, marks=pytest.mark.skipif(
        os.environ.get("CHORDLAB_ACCEPT_N16") != "1",
        reason="extended tier: set CHORDLAB_ACCEPT_N16=1",
    )) for n in (14, 16)),
))
def test_verify_report_pinned(tmp_path, capsys, n):
    corpus = tmp_path / f"cubic{n}.g6"
    assert main(["generate", "--n", str(n), "--out", str(corpus)]) == 0
    for mode in ("zhan2", "zhan3adj", "chords"):
        for jobs in ("1", "2"):
            report = tmp_path / f"{mode}.json"
            argv = ["verify", "--mode", mode, "--in", str(corpus), "--jobs", jobs, "--out", str(report)]
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
            assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_SHA256[(n, mode)], (mode, jobs)


def _recheck_witness(g, mode, witness):
    """Re-validate a reported witness from scratch; return its internal
    bound count (zhan modes) or chord count (chords)."""
    if mode == "chords":
        cyc = Cycle(tuple(witness["cycle"])).validate(g)
        assert cyc.length == kernels.longest_cycle_length(g.masks)
        return len(chords(g, cyc))
    x, y = witness["pair"]
    p = Path(tuple(witness["path"]))
    assert (p.x, p.y) == (x, y) and x < y
    if mode == "zhan3adj":
        assert g.has_edge(x, y)
    assert p.length == kernels.longest_xy_length(g.masks, x, y)
    return len(internal_bound_vertices(g, p))  # validates the path


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("mode", ("zhan2", "zhan3adj", "chords"))
def test_verify_reports_violations(tmp_path, capsys, monkeypatch, corpus, mode, fmt):
    """With a mode's threshold raised to the corpus maximum, every row
    below it, and no other row, carries one witness that re-validates and
    the run exits 1."""
    graphs = [g for n in sorted(corpus) for g in corpus[n]]
    f = _write_corpus(tmp_path, graphs)
    code, out, _ = run_cli(["verify", "--mode", mode, "--in", str(f)], capsys)
    assert code == 0
    values = [r["value"] for r in json.loads(out)["rows"] if r["value"] is not None]
    threshold = max(values)
    assert min(values) < threshold
    statement = cli._MODES[mode][1]
    monkeypatch.setitem(cli._MODES, mode, (threshold, statement))
    code, out, _ = run_cli(["verify", "--mode", mode, "--in", str(f), "--format", fmt], capsys)
    assert code == 1
    if fmt == "json":
        rep = json.loads(out)
        assert rep["threshold"] == threshold
        assert rep["violations"] == sum(1 for v in values if v < threshold)
        rows = rep["rows"]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            row["value"] = int(row["value"]) if row["value"] else None
            row["witness"] = json.loads(row["witness"]) if row["witness"] else None
    assert len(rows) == len(graphs)
    for g, row in zip(graphs, rows):
        assert row["graph6"] == write_graph6(g)
        if row["value"] is None or row["value"] >= threshold:
            assert row["witness"] is None, row
            continue
        assert row["witness"] is not None, row
        assert _recheck_witness(g, mode, row["witness"]) < threshold
        if statement != "chords":
            # the full table's first violating pair and its path
            pairs = oracles.zhan_table(g, statement)
            first = next(xy for xy, r in pairs.items() if r.min_bound < threshold)
            assert tuple(row["witness"]["pair"]) == first
            assert tuple(row["witness"]["path"]) == pairs[first].witness


@pytest.mark.parametrize("mode", ("zhan2", "zhan3adj", "chords"))
def test_verify_timings(tmp_path, capsys, corpus, mode):
    """--timings adds a float wall_ms >= 0 to every JSON row and a trailing
    wall_ms column to the CSV; without it neither appears."""
    f = _write_corpus(tmp_path, corpus[8] + [oracles.petersen()])
    argv = ["verify", "--mode", mode, "--in", str(f)]
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0
    code, timed, _ = run_cli(argv + ["--timings"], capsys)
    assert code == 0
    plain_rows, timed_rows = json.loads(plain)["rows"], json.loads(timed)["rows"]
    assert len(timed_rows) == 6
    for row, timed_row in zip(plain_rows, timed_rows):
        assert "wall_ms" not in row
        wall_ms = timed_row.pop("wall_ms")
        assert type(wall_ms) is float and wall_ms >= 0
        assert timed_row == row
    _, plain_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
    _, timed_csv, _ = run_cli(argv + ["--format", "csv", "--timings"], capsys)
    plain_lines, timed_lines = plain_csv.splitlines(), timed_csv.splitlines()
    assert "wall_ms" not in plain_lines[0]
    assert timed_lines[0] == plain_lines[0] + ",wall_ms"
    assert len(timed_lines) == len(plain_lines) == 7
    for line, timed_line in zip(plain_lines[1:], timed_lines[1:]):
        head, _, wall_ms = timed_line.rpartition(",")
        assert head == line
        assert float(wall_ms) >= 0


def test_verify_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    """A failed invariant is an internal error, not a usage error: exit 4
    with the failing step named."""
    real = kernels.xy_sweep

    def lowered(masks, x, targets, floor):
        table = real(masks, x, targets, floor)
        best, mb, wit = table[1]  # (0,1) is the first pair verify reads
        table[1] = (best, mb - 1, wit)
        return table

    monkeypatch.setattr(kernels, "xy_sweep", lowered)
    f = _write_corpus(tmp_path, [oracles.petersen()])
    code, out, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: sweep: pair (0,1)")


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_verify_internal_error_names_the_graph(tmp_path, capsys, monkeypatch, corpus, jobs):
    """An internal error during verify names the graph6 record and its
    input line, serially and from a forked worker alike."""
    real = kernels.xy_sweep

    def bumped(masks, x, targets, floor):
        table = real(masks, x, targets, floor)
        y = next(y for y, entry in enumerate(table) if entry)  # source 0 fails first
        best, mb, wit = table[y]
        table[y] = (best, mb + 1, wit)
        return table

    monkeypatch.setattr(kernels, "xy_sweep", bumped)
    f = tmp_path / "c8.g6"
    # a leading blank line: input lines count it, graphs do not
    f.write_text("\n" + "".join(write_graph6(g) + "\n" for g in corpus[8]))
    first = next(i for i, g in enumerate(corpus[8]) if connectivity_at_least(g, 3))
    argv = ["verify", "--mode", "zhan3adj", "--in", str(f), "--jobs", jobs]
    code, out, err = run_cli(argv, capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: sweep: pair (")
    assert err.endswith(f"(graph {write_graph6(corpus[8][first])}, input line {first + 2})\n")


@pytest.mark.parametrize("jobs", ("1", "2"))
def test_verify_chords_recount_error_names_the_graph(tmp_path, capsys, monkeypatch, corpus, jobs):
    """A witness whose chords, recounted from the edge list, disagree with
    the count from the masks: exit 4, naming the graph and its input line."""
    real = verify.chords
    monkeypatch.setattr(verify, "chords", lambda g, c: real(g, c) | {(g.n, g.n + 1)})
    f = _write_corpus(tmp_path, corpus[8])
    first = next(i for i, g in enumerate(corpus[8]) if connectivity_at_least(g, 3))
    code, out, err = run_cli(["verify", "--mode", "chords", "--in", str(f), "--jobs", jobs], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: chords: witness (")
    assert err.endswith(f"(graph {write_graph6(corpus[8][first])}, input line {first + 1})\n")


@pytest.mark.parametrize("jobs", ("0", "-3"))
def test_verify_rejects_jobs_below_one(tmp_path, capsys, jobs):
    f = _write_corpus(tmp_path, [oracles.k4()])
    code, out, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f), "--jobs", jobs], capsys)
    assert code == 2
    assert out == ""
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_verify_forks_at_most_one_worker_per_graph(tmp_path, capsys, monkeypatch, corpus):
    """Every --jobs value runs through `_forked`.  --jobs larger than the
    corpus runs one worker per graph (the parent and one forked child per
    further graph); one graph, and --jobs 1, run in the parent and fork
    nothing; an empty corpus gives a zero-row report.  Every run writes
    the serial bytes."""
    started, forks = [], []
    real, real_fork = cli._forked, os.fork

    def recorded(tasks, workers):
        started.append(workers)
        return real(tasks, workers)

    def fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(cli, "_forked", recorded)
    monkeypatch.setattr(os, "fork", fork)
    for graphs in (corpus[8][:3], corpus[8][:1], []):
        f = _write_corpus(tmp_path, graphs)
        argv = ["verify", "--mode", "zhan2", "--in", str(f)]
        outs = []
        for jobs in (1, 8):
            started.clear()
            forks.clear()
            code, out, _ = run_cli(argv + ["--jobs", str(jobs)] * (jobs > 1), capsys)
            assert code == 0
            workers = min(jobs, len(graphs))
            assert (started, len(forks)) == ([workers], max(workers - 1, 0)), (jobs, len(graphs))
            outs.append(out)
        serial, out = outs
        assert out == serial
        assert json.loads(out)["graphs"] == len(json.loads(out)["rows"]) == len(graphs)


@contextlib.contextmanager
def _no_hang(seconds=60):
    """Fail the test with TimeoutError if its body runs ``seconds``."""

    def alarm(signum, frame):
        raise TimeoutError("verify --jobs hung")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fail_on(monkeypatch, how):
    """Make `_verify_one` call ``how[line]()`` on the graph6 lines ``how``
    names, and verify the others as before."""
    real = cli._verify_one

    def patched(task):
        if task[0] in how:
            how[task[0]]()
        return real(task)

    monkeypatch.setattr(cli, "_verify_one", patched)


def _raise_after(seconds, line):
    def fail():
        time.sleep(seconds)
        raise InvariantViolation("probe", line)

    return fail


def test_verify_jobs_names_the_first_failure_in_input_order(tmp_path, capsys, monkeypatch, corpus):
    """Two graphs fail in two workers; the later one fails first in time,
    and the error still names the earlier one."""
    graphs = corpus[8]
    first, second = write_graph6(graphs[1]), write_graph6(graphs[2])
    _fail_on(monkeypatch, {first: _raise_after(0.3, first), second: _raise_after(0, second)})
    f = _write_corpus(tmp_path, graphs)
    code, out, err = run_cli(["verify", "--mode", "chords", "--in", str(f), "--jobs", "2"], capsys)
    assert (code, out) == (4, "")
    assert err == f"internal error: probe: {first} (graph {first}, input line 2)\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc", (InvariantViolation("sweep", "pair (0,1): bad"), InvariantViolation("gate")))
def test_invariant_violation_pickles_with_its_step(exc):
    """Unpickling calls __init__ with the formatted text alone; the step
    comes back from the instance dict that BaseException pickles."""
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), back.step, str(back)) == (InvariantViolation, exc.step, str(exc))


def test_forked_failure_keeps_its_step(monkeypatch, corpus):
    """A worker's InvariantViolation reaches the parent pickled, with its
    step and its text."""

    def fail(task):
        raise InvariantViolation("sweep", f"pair (0,1): {task[0]}")

    monkeypatch.setattr(cli, "_verify_one", fail)
    tasks = [(write_graph6(g), g, "chords", False) for g in corpus[8][:2]]
    with pytest.raises(InvariantViolation) as info:
        list(cli._forked(tasks, 2))
    assert info.value.step == "sweep"
    assert str(info.value) == f"sweep: pair (0,1): {tasks[0][0]}"


def test_forked_kills_its_children_when_dispatch_fails(monkeypatch, corpus):
    """A failure while the parent dispatches, here `select` raising,
    reaches the caller, and the children are killed before they are
    reaped: the child, which sleeps a minute on its first task, is gone
    at once and nothing is left to wait for."""
    parent = os.getpid()

    def slow(task):
        if os.getpid() != parent:
            time.sleep(60)
        return task[0]

    def broken(*args):
        raise OSError("select failed")

    monkeypatch.setattr(cli, "_verify_one", slow)
    monkeypatch.setattr(select, "select", broken)
    tasks = [(write_graph6(g), g, "chords", False) for g in corpus[8][:4]]
    with _no_hang(10), pytest.raises(OSError) as exc:
        list(cli._forked(tasks, 2))
    assert str(exc.value) == "select failed"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_workers_leave_no_child(tmp_path, capsys, monkeypatch, corpus):
    """--jobs 2 reaps every worker on exit 0, on the violation path (exit
    1) and when a worker dies without replying (exit 4, naming the graph
    it held), and a dead worker does not hang the run.  The dying graph
    is the third: the child is handed it with its first, before the
    parent runs the second.  It dies only in a child, so a parent that
    ran it would not end pytest."""
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(9)

    with _no_hang():
        f = _write_corpus(tmp_path, corpus[8])
        argv = ["verify", "--mode", "chords", "--in", str(f), "--jobs", "2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        with monkeypatch.context() as m:
            m.setitem(cli._MODES, "chords", (99, "chords"))
            code, out, _ = run_cli(argv, capsys)
        assert code == 1 and json.loads(out)["violations"] > 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        dies = write_graph6(corpus[8][2])
        _fail_on(monkeypatch, {dies: die})
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert err == f"internal error: verify: worker exited with status 9 (graph {dies}, input line 3)\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_2_forks_one_child(tmp_path, capsys, monkeypatch):
    """--jobs 2 forks once and writes the serial run's bytes.  On two
    graphs the child runs the first and the parent the second; on three
    the child is not handed the third, as no task would be left for the
    parent, so the parent runs the second and the third.

    The child's task waits on a pipe, made before the fork, until the
    parent has started its own.  Its first reply then cannot be waiting
    at the parent's first `select`, where it would be recorded and the
    third graph handed to the child, so the split holds under any load."""
    graphs = [oracles.k4(), oracles.petersen(), oracles.prism()]
    parent = os.getpid()
    forks, here, started = [], [], []
    real_fork, real_verify = os.fork, cli._verify_one

    def fork():
        forks.append(None)
        return real_fork()

    def verify_one(task):
        read_end, write_end = started
        if os.getpid() == parent:
            here.append(task[0])
            os.write(write_end, b".")
        else:
            select.select([read_end], [], [])  # the byte stays: later tasks pass
        return real_verify(task)

    with _no_hang():
        for count in (2, 3):
            f = _write_corpus(tmp_path, graphs[:count])
            for mode in ("zhan2", "zhan3adj", "chords"):
                argv = ["verify", "--mode", mode, "--in", str(f)]
                code, serial, _ = run_cli(argv, capsys)
                assert code == 0
                forks.clear()
                here.clear()
                started[:] = os.pipe()
                try:
                    with monkeypatch.context() as m:
                        m.setattr(os, "fork", fork)
                        m.setattr(cli, "_verify_one", verify_one)
                        assert run_cli(argv + ["--jobs", "2"], capsys) == (0, serial, ""), (count, mode)
                finally:
                    for fd in started:
                        os.close(fd)
                assert len(forks) == 1
                assert here == [write_graph6(g) for g in graphs[1:count]]
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)


def test_recv_reads_no_byte_past_its_object():
    """Two replies in one pipe: after the first is read, select on an
    unbuffered reader still sees the second waiting."""
    r, w = os.pipe()
    with os.fdopen(r, "rb", buffering=0) as fh, os.fdopen(w, "wb") as out:
        cli._send(out, (0, {"value": 1}, None))
        cli._send(out, (1, None, InvariantViolation("probe", "x")))
        assert cli._recv(fh) == (0, {"value": 1}, None)
        assert select.select([fh], [], [], 0)[0] == [fh]
        i, row, exc = cli._recv(fh)
        assert (i, row, str(exc)) == (1, None, "probe: x")
        out.close()
        assert cli._recv(fh) is None


def _in(side, fail):
    """``fail``, run by the parent (``side`` "parent") or by a child; on
    the other side the task fails with a message the tests do not expect."""
    parent = os.getpid()

    def run():
        if (os.getpid() == parent) != (side == "parent"):
            raise InvariantViolation("probe", "ran on the wrong side")
        fail()

    return run


@pytest.mark.parametrize("late", ("parent", "child"))
def test_verify_jobs_first_failure_across_parent_and_child(tmp_path, capsys, monkeypatch, corpus, late):
    """--jobs 2 on four graphs: the child holds the first and the third,
    the parent runs the second.  Two graphs fail, one on each side, and
    the one earlier in input order fails 0.3 s later; the error names it
    either way, and no child is left."""
    lines = [write_graph6(g) for g in corpus[8][:4]]
    # (graph, the side that runs it, seconds before it fails), earlier graph first
    if late == "parent":
        failing = ((1, "parent", 0.3), (2, "child", 0))
    else:
        failing = ((0, "child", 0.3), (1, "parent", 0))
    _fail_on(monkeypatch, {lines[i]: _in(side, _raise_after(wait, lines[i])) for i, side, wait in failing})
    early = failing[0][0]
    f = _write_corpus(tmp_path, corpus[8][:4])
    with _no_hang():
        code, out, err = run_cli(["verify", "--mode", "chords", "--in", str(f), "--jobs", "2"], capsys)
    assert (code, out) == (4, "")
    assert err == f"internal error: probe: {lines[early]} (graph {lines[early]}, input line {early + 1})\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="os.waitid is POSIX-only")
@pytest.mark.parametrize("dies", (0, 2))
def test_verify_child_dies_while_the_parent_computes(tmp_path, capsys, monkeypatch, corpus, dies):
    """--jobs 2 on four graphs: the child holds the first and the third,
    the parent runs the second, and that task lasts until the child has
    died on one of its graphs.  The run exits 4 naming the child's graph,
    does not hang and leaves no child."""
    lines = [write_graph6(g) for g in corpus[8][:4]]

    def die():
        time.sleep(0.2)  # let the parent start its own task first
        os._exit(9)

    def until_a_child_exits():
        # WNOWAIT leaves the dead child for _forked to reap
        deadline = time.monotonic() + 30
        while not os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            assert time.monotonic() < deadline, "the child did not die"
            time.sleep(0.01)

    _fail_on(monkeypatch, {lines[dies]: _in("child", die), lines[1]: _in("parent", until_a_child_exits)})
    f = _write_corpus(tmp_path, corpus[8][:4])
    with _no_hang():
        code, out, err = run_cli(["verify", "--mode", "chords", "--in", str(f), "--jobs", "2"], capsys)
    assert (code, out) == (4, "")
    graph = f"(graph {lines[dies]}, input line {dies + 1})"
    assert err == f"internal error: verify: worker exited with status 9 {graph}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="CPU affinity is Linux-only"
)


@needs_affinity
def test_forked_workers_are_pinned(monkeypatch, corpus):
    """With 2 and 3 workers, the parent pins child k (k = 1..workers-1)
    to the k-th CPU of its set, modulo their count, with one call per
    child as it forks it, and the child runs its tasks there; the parent
    runs its own tasks under its own affinity, which the call leaves as
    it was.  The first workers-1 tasks go to the children, one each."""
    allowed = sorted(os.sched_getaffinity(0))
    forked, pins = [], []
    real_fork, real_pin = os.fork, os.sched_setaffinity

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def pin(pid, cpus):
        pins.append((pid, set(cpus)))
        real_pin(pid, cpus)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    monkeypatch.setattr(cli, "_verify_one", lambda task: (task[0], os.getpid(), sorted(os.sched_getaffinity(0))))
    tasks = [(write_graph6(g), g, "chords", False) for g in corpus[8]]
    for workers in (2, 3):
        forked.clear()
        pins.clear()
        rows = list(cli._forked(tasks, workers))
        assert [line for line, _, _ in rows] == [task[0] for task in tasks]
        assert len(forked) == workers - 1
        assert pins == [(pid, {allowed[k % len(allowed)]}) for k, pid in enumerate(forked, 1)]
        assert [pid for _, pid, _ in rows[:workers]] == forked + [os.getpid()]
        for _, pid, cpus in rows:
            if pid == os.getpid():
                assert cpus == allowed
            else:
                k = forked.index(pid) + 1
                assert cpus == [allowed[k % len(allowed)]], (k, cpus, allowed)
        assert sorted(os.sched_getaffinity(0)) == allowed


@needs_affinity
@pytest.mark.parametrize("how", ("missing", "failing"))
def test_verify_jobs_without_the_pin(tmp_path, capsys, monkeypatch, corpus, how):
    """Where os.sched_setaffinity is missing, or raises OSError, the
    workers run unpinned: --jobs 2 writes the serial bytes, exits 0 and
    leaves no child.  A task run on other CPUs than the parent's fails."""
    f = _write_corpus(tmp_path, corpus[8] + [oracles.petersen()])
    argv = ["verify", "--mode", "zhan3adj", "--in", str(f)]
    code, serial, _ = run_cli(argv, capsys)
    assert code == 0
    allowed = os.sched_getaffinity(0)
    real = cli._verify_one

    def unpinned_only(task):
        if os.sched_getaffinity(0) != allowed:
            raise InvariantViolation("probe", f"pinned to {sorted(os.sched_getaffinity(0))}")
        return real(task)

    monkeypatch.setattr(cli, "_verify_one", unpinned_only)
    if how == "missing":
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    code, out, err = run_cli(argv + ["--jobs", "2"], capsys)
    assert (code, out, err) == (0, serial, "")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_reaps_after_the_report(tmp_path, capsys, monkeypatch, corpus):
    """--jobs 2 writes the report before it reaps the first child, so the
    children's teardown overlaps the write; the report is the serial one."""
    f = _write_corpus(tmp_path, corpus[8][:4])
    argv = ["verify", "--mode", "zhan3adj", "--in", str(f)]
    code, serial, _ = run_cli(argv, capsys)
    assert code == 0
    order = []
    real_write, real_waitpid = cli._write, os.waitpid

    def write(text, path):
        order.append("write")
        real_write(text, path)

    def waitpid(pid, options):
        order.append("waitpid")
        return real_waitpid(pid, options)

    monkeypatch.setattr(cli, "_write", write)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with _no_hang():
        code, out, _ = run_cli(argv + ["--jobs", "2"], capsys)
    assert (code, out) == (0, serial)
    assert order == ["write", "waitpid"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_write_failure_leaves_no_child(tmp_path, capsys, monkeypatch, corpus):
    """A report write that raises OSError under --jobs 2 exits 3, and the
    children are still reaped."""

    def refuse(text, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write", refuse)
    f = _write_corpus(tmp_path, corpus[8][:4])
    with _no_hang():
        code, out, err = run_cli(["verify", "--mode", "chords", "--in", str(f), "--jobs", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: [Errno 28] No space left on device\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_needs_fork(tmp_path, capsys, monkeypatch):
    """Where os.fork does not exist, --jobs above 1 is a usage error."""
    monkeypatch.delattr(os, "fork")
    f = _write_corpus(tmp_path, [oracles.k4(), oracles.petersen()])
    code, out, err = run_cli(["verify", "--mode", "zhan2", "--in", str(f), "--jobs", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --jobs 2 needs os.fork, which this platform lacks\n"
    assert run_cli(["verify", "--mode", "zhan2", "--in", str(f)], capsys)[0] == 0


def test_extend_coloring_failure_exits_4(tmp_path, capsys, monkeypatch):
    """A failed 3-coloring is an internal error like any other invariant."""
    from chordlab import coloring

    monkeypatch.setattr(coloring, "_backtrack_three_color", lambda g: None)
    f = tmp_path / "g10.g6"
    f.write_text("I{O_ogK?w\n")  # this path reaches the coloring step
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,3,6,9,8,5,2"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: coloring:")


@pytest.mark.parametrize("bad, detail", [
    (lambda p, found: found.reversed(), "endpoints moved"),
    (lambda p, found: p, "replacement path is not longer"),
    # a walk along edges that goes back and forth once: 0,4,1,4,1,3
    (lambda p, found: Path(found.vertices[:3] + found.vertices[1:]), "repeated vertex in path"),
])
def test_extend_checker_failure_exits_4(tmp_path, capsys, monkeypatch, bad, detail):
    """A replacement path with swapped endpoints, no longer than the
    input, or not a path of the graph fails the checker stage at the
    pipelines' one exit: exit 4."""
    real = extender._through_component

    def corrupted(g, a, b, allowed, min_len):
        return bad(Path((a, b)), real(g, a, b, allowed, min_len))

    monkeypatch.setattr(extender, "_through_component", corrupted)
    f = tmp_path / "k33.txt"
    f.write_text(oracles.edge_list_text(oracles.k33()))
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,3"], capsys)
    assert (code, out) == (4, "")
    assert err == f"internal error: checker: {detail}\n"


def test_extend_lift_failure_exits_4(tmp_path, capsys, monkeypatch):
    """A lift that repeats a vertex fails the lift stage, checked before
    a `Cycle` is built: an internal error (exit 4), not a usage error."""
    real = extender._lift_runs

    def repeating(*args):
        verts, segs = real(*args)
        return verts + [verts[1]], segs

    monkeypatch.setattr(extender, "_lift_runs", repeating)
    f = tmp_path / "g10.g6"
    f.write_text("I{O_ogK?w\n")  # this path reaches the lift
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,3,6,9,8,5,2"], capsys)
    assert (code, out) == (4, "")
    assert err == "internal error: lift: repeated vertex in cycle\n"


def test_extend_k33(tmp_path, capsys):
    f = tmp_path / "k33.txt"
    f.write_text(oracles.edge_list_text(oracles.k33()))
    trace = tmp_path / "trace.json"
    code, out, err = run_cli(
        ["extend", "--graph", str(f), "--path", "0,4,1,3", "--trace", str(trace)],
        capsys,
    )
    assert code == 0
    vertices = [int(tok) for tok in out.strip().split(",")]
    assert len(vertices) >= 5
    blob = json.loads(trace.read_text())
    assert blob["final_path"] == vertices


def test_extend_refusal_names_bound_vertices(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(oracles.k4()) + "\n")
    code, _, err = run_cli(["extend", "--graph", str(f), "--path", "0,2,3,1"], capsys)
    assert code == 2
    assert "P-bound vertex" in err and "v=2" in err


@pytest.mark.parametrize("text", ("", "\n  \n\t\n"), ids=("empty", "blank-lines"))
def test_extend_empty_graph_file(tmp_path, capsys, text):
    """A graph file with nothing in it is an input error (exit 3), not a
    traceback."""
    f = tmp_path / "empty.g6"
    f.write_text(text)
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: empty graph input\n"


def test_extend_refuses_several_records(tmp_path, capsys):
    """A graph file holding a corpus is an input error, not a run on its
    first graph."""
    f = tmp_path / "c6.g6"
    assert run_cli(["generate", "--n", "6", "--out", str(f)], capsys)[0] == 0
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: expected one graph6 record, found 2\n"


@pytest.mark.parametrize(
    "text",
    ("4 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n1 0\n", "4 6\n0 1\n1 0\n2 3\n3 2\n0 2\n1 3\n"),
    ids=("k4-plus-repeat", "cubic-multigraph"),
)
def test_extend_repeated_edge_is_parse_error(tmp_path, capsys, text):
    """An edge list that names a pair twice is an input error (exit 3)
    naming the pair, whatever the rest of the graph looks like."""
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0,1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: repeated edge (0,1)\n"


def test_extend_one_vertex_path(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(oracles.k4()) + "\n")
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: bad path spec: path needs at least two vertices\n"


@pytest.mark.parametrize(
    ("spec", "reason"),
    (("3,0,1", "(0,1) is not an edge"), ("0,3,6", "vertex out of range in path: 3,6")),
    ids=("non-edge", "out-of-range"),
)
def test_extend_bad_path_spec(tmp_path, capsys, spec, reason):
    """A path that is not a path of the host is a usage error (exit 2)
    naming the first bad step."""
    f = tmp_path / "k33.txt"
    f.write_text(oracles.edge_list_text(oracles.k33()))
    code, out, err = run_cli(["extend", "--graph", str(f), "--path", spec], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: bad path spec: {reason}\n"


def _refused_output(tmp_path, capsys, monkeypatch, cmd, target):
    """Run ``cmd`` with ``target`` as its output file while every command's
    work raises: the output check must refuse the path first."""

    def no_work(*args):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(generate, "enumerate_cubic", no_work)
    monkeypatch.setattr(verify, "verify_zhan", no_work)
    monkeypatch.setattr(extender, "extend_path", no_work)
    c6 = _write_corpus(tmp_path, [oracles.prism()])
    k4 = tmp_path / "k4.txt"
    k4.write_text(oracles.edge_list_text(oracles.k4()))
    argv = {
        "generate": ["generate", "--n", "4", "--out"],
        "verify": ["verify", "--mode", "zhan2", "--in", str(c6), "--out"],
        "extend": ["extend", "--graph", str(k4), "--path", "0,1", "--trace"],
    }[cmd]
    code, out, err = run_cli(argv + [str(target)], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ") and str(target) in err
    return err


@pytest.mark.parametrize("cmd", ("generate", "verify", "extend"))
def test_unwritable_output_exits_3(tmp_path, capsys, monkeypatch, cmd):
    """An output file that cannot be opened is an I/O error (exit 3) with
    an error line, not a traceback that exits 1, the violation code.  It
    is found before any work runs."""
    _refused_output(tmp_path, capsys, monkeypatch, cmd, tmp_path / "missing" / "out")


def test_output_that_is_a_directory_exits_3(tmp_path, capsys, monkeypatch):
    """An output path that names an existing directory is refused before
    any work runs, like one in a missing directory."""
    target = tmp_path / "folder"
    target.mkdir()
    for cmd in ("generate", "verify", "extend"):
        err = _refused_output(tmp_path, capsys, monkeypatch, cmd, target)
        assert err == f"error: cannot write {target}: it is a directory\n", cmd


def test_binding_on_cli_takes_precedence(tmp_path, capsys, corpus):
    """The commands call the library names they use through the `cli`
    module, so a binding set there runs in place of the defining
    module's: perfbench/selftest.py plants its faults as
    `cli.enumerate_cubic` and `cli.verify_zhan`.  Without one, `cli`
    holds no copy and reads the defining module's function.  The spy is
    removed with `delattr`: monkeypatch's undo would bind the library
    function on `cli`, which would then shadow a later patch of the
    defining module."""
    f = _write_corpus(tmp_path, corpus[6])
    k33 = tmp_path / "k33.txt"
    k33.write_text(oracles.edge_list_text(oracles.k33()))
    extend = ["extend", "--graph", str(k33), "--path", "0,4,1,3"]
    runs = {
        "enumerate_cubic": (generate, ["generate", "--n", "6"]),
        "verify_zhan": (verify, ["verify", "--mode", "zhan2", "--in", str(f)]),
        "verify_chords": (verify, ["verify", "--mode", "chords", "--in", str(f)]),
        "precheck": (extender, extend),
        "extend_path": (extender, extend),
    }
    for name, (home, argv) in runs.items():
        assert name not in vars(cli), name
        real, calls = getattr(home, name), []

        def spy(*args, real=real, calls=calls):
            calls.append(args)
            return real(*args)

        setattr(cli, name, spy)
        try:
            code, _, _ = run_cli(argv, capsys)
        finally:
            delattr(cli, name)
        assert code == 0 and calls, name
        assert name not in vars(cli) and getattr(cli, name) is real, name


def test_cli_answers_only_the_public_names():
    """`cli` reads exactly the package's public names from the package:
    not the package's own attributes, which would make `cli` pass for a
    package, nor its private table, nor a library constant."""
    for name in chordlab.__all__:
        assert getattr(cli, name) is getattr(chordlab, name), name
    for name in ("__path__", "__all__", "_HOME", "CONNECTIVITY"):
        assert not hasattr(cli, name), name


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """Two commands in one process share one parser tree: the root and
    its three subparsers are built at most once, not once per call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(oracles.k4()) + "\n")
    assert run_cli(["generate", "--n", "4"], capsys)[0] == 0
    assert run_cli(["verify", "--mode", "chords", "--in", str(f)], capsys)[0] == 0
    assert len(built) <= 4, built


@pytest.mark.parametrize("cmd", ("generate", "verify", "extend"))
def test_main_runs_the_command_bound_on_cli(tmp_path, capsys, monkeypatch, cmd):
    """The parser binds no command: after a first `main` call, a command
    set on `cli` (a test's spy, perfbench's tracer) is the one the next
    call runs."""
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(oracles.k4()) + "\n")
    argv = {
        "generate": ["generate", "--n", "4"],
        "verify": ["verify", "--mode", "zhan2", "--in", str(f)],
        "extend": ["extend", "--graph", str(f), "--path", "0,1"],
    }[cmd]
    run_cli(argv, capsys)
    seen = []

    def spy(args):
        seen.append(args.cmd)
        return 7

    monkeypatch.setattr(cli, f"cmd_{cmd}", spy)
    assert run_cli(argv, capsys) == (7, "", "")
    assert seen == [cmd]


def test_usage_error_leaves_the_parser_as_it_was(tmp_path, capsys, corpus):
    """A usage error exits 2 with the text a lone run prints, and the next
    `verify` in the same process writes the bytes of a lone run."""
    f = _write_corpus(tmp_path, corpus[6])
    bad = ["verify", "--mode", "bogus", "--in", str(f)]
    good = ["verify", "--mode", "zhan3adj", "--in", str(f)]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lone = run_python(["-m", "chordlab.cli", *bad])
    assert (lone.returncode, lone.stderr) == (2, err)
    code, out, _ = run_cli(good, capsys)
    lone = run_python(["-m", "chordlab.cli", *good])
    assert (code, out) == (0, lone.stdout) and lone.returncode == 0


@pytest.mark.parametrize("argv", (["--help"], ["verify", "--help"]))
def test_help_matches_a_fresh_interpreter(capsys, monkeypatch, argv):
    """`--help` after another command in the same process prints the text
    of a fresh `python -m chordlab.cli`."""
    monkeypatch.setenv("COLUMNS", "80")  # one width on both sides
    assert run_cli(["generate", "--n", "4"], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    lone = run_python(["-m", "chordlab.cli", *argv])
    assert (lone.returncode, lone.stdout) == (0, out)
    assert out.startswith("usage: chordlab")


def test_tracer_installed_after_a_call_records_the_commands(tmp_path, capsys):
    """perfbench's tracer rebinds `cli.cmd_generate` and `cli.cmd_verify`
    after its untraced warm-up has called `main`; the traced calls that
    follow still record their spans."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    g6 = str(tmp_path / "c6.g6")
    assert main(["generate", "--n", "6", "--out", g6]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["generate", "--n", "6", "--out", g6]) == 0
        assert main(["verify", "--mode", "chords", "--in", g6]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.generate") == 1 and names.count("cli.verify") == 1


def test_extend_malformed_path(tmp_path, capsys):
    f = tmp_path / "k4.g6"
    f.write_text(write_graph6(oracles.k4()) + "\n")
    code, _, err = run_cli(["extend", "--graph", str(f), "--path", "0,zz"], capsys)
    assert code == 2


def test_lemmas_subcommand_is_gone(capsys):
    """The lemma suites run in the tests alone: the command line has
    generate, verify and extend, and rejects anything else as usage."""
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--which", "parity"])
    assert exc.value.code == 2
    assert "invalid choice: 'lemmas'" in capsys.readouterr().err


def test_console_entry_point():
    proc = run_python(["-m", "chordlab.cli", "generate", "--n", "4"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "C~"


def test_runs_on_the_standard_library_alone(tmp_path):
    """`import chordlab` and `verify` (forked workers included) import no
    third-party module: numpy and numba were dependencies once.  Nor does
    `verify --jobs 2` import a process pool."""
    g6, report = str(tmp_path / "c8.g6"), str(tmp_path / "report.json")
    code = (
        "import sys\n"
        "import chordlab\n"
        "from chordlab.cli import main\n"
        f"assert main(['generate', '--n', '8', '--out', {g6!r}]) == 0\n"
        "for mode in ('zhan2', 'zhan3adj', 'chords'):\n"
        f"    argv = ['verify', '--mode', mode, '--in', {g6!r}, '--jobs', '2', '--out', {report!r}]\n"
        "    assert main(argv) == 0\n"
        "top = ('numpy', 'numba', 'concurrent', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in top))\n"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs the command line as `python -m chordlab.cli` does (the module runs
# as `__main__`, so `chordlab.cli` is not among the loaded modules), and
# at exit writes the modules the process loaded and, for each `os.fork`,
# whether `chordlab.verify` was already loaded when it forked.
_LOADS = """
import atexit, os, runpy, sys
forks, fork = [], os.fork
def recorded_fork():
    forks.append("chordlab.verify" in sys.modules)
    return fork()
os.fork = recorded_fork
def report():
    modules = sorted(sys.modules)
    import json
    with open({out!r}, "w") as fh:
        json.dump({{"modules": modules, "forks": forks}}, fh)
atexit.register(report)
sys.argv = ["chordlab", *{argv!r}]
runpy.run_module("chordlab.cli", run_name="__main__", alter_sys=True)
"""


def _loads(tmp_path, argv):
    """(the chordlab submodules, every loaded module, the fork records) of
    a command-line process running ``argv``."""
    out = tmp_path / "loads.json"
    proc = run_python(["-c", _LOADS.format(out=str(out), argv=argv)])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(out.read_text())
    ours = {m.partition(".")[2] for m in seen["modules"] if m.startswith("chordlab.")}
    return ours, set(seen["modules"]), seen["forks"]


def test_import_chordlab_loads_no_submodule():
    """The package surface is lazy: `import chordlab` loads no submodule,
    `dir` lists every public name without loading one, and each name
    resolves to the object its defining module holds."""
    code = (
        "import sys\n"
        "import chordlab\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('chordlab.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert set(chordlab.__all__) <= set(dir(chordlab)), dir(chordlab)\n"
        "assert loaded() == [], loaded()\n"
        "namespace = {}\n"
        "exec('from chordlab import *', namespace)\n"
        "assert set(chordlab.__all__) <= namespace.keys()\n"
        "for name in chordlab.__all__:\n"
        "    module = sys.modules['chordlab.' + chordlab._HOME[name]]\n"
        "    assert namespace[name] is getattr(module, name), name\n"
        "    assert name not in vars(chordlab), name\n"
        "try:\n"
        "    chordlab.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "from chordlab import kernels\n"
        "assert kernels is sys.modules['chordlab.kernels']\n"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_generate_loads_only_enumeration(tmp_path):
    """`generate` loads the enumeration and graph6 writer it runs, and not
    the search, the verifiers or the extender, nor `dataclasses`, nor the
    report writers and the worker pool's modules that only `verify` uses."""
    ours, modules, _ = _loads(tmp_path, ["generate", "--n", "4"])
    assert ours == {"errors", "generate", "graph6", "graphs"}
    assert not modules & {"dataclasses", "csv", "json", "pickle", "select", "signal"}


def test_extend_loads_no_worker_pool(tmp_path):
    """`extend` without ``--trace`` loads neither the CSV or JSON writers
    nor the worker pool's modules."""
    f = tmp_path / "k33.txt"
    f.write_text(oracles.edge_list_text(oracles.k33()))
    ours, modules, _ = _loads(tmp_path, ["extend", "--graph", str(f), "--path", "0,4,1,3"])
    assert "extender" in ours
    assert not modules & {"csv", "json", "pickle", "select", "signal"}


@pytest.mark.parametrize("mode", ("zhan2", "zhan3adj", "chords"))
def test_verify_loads_no_extender(tmp_path, corpus, mode):
    f = _write_corpus(tmp_path, corpus[6])
    ours, _, _ = _loads(tmp_path, ["verify", "--mode", mode, "--in", str(f)])
    assert "verify" in ours
    assert not ours & {"extender", "coloring", "second_cycle", "generate"}


def test_verify_loads_the_verifiers_before_forking(tmp_path, corpus):
    """`verify --jobs 2` loads `chordlab.verify` before each fork, so no
    child imports it again."""
    f = _write_corpus(tmp_path, corpus[8])
    _, _, forks = _loads(tmp_path, ["verify", "--mode", "zhan2", "--in", str(f), "--jobs", "2"])
    assert forks == [True]
