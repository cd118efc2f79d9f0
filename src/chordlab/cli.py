"""Command-line surface: corpus generation, exhaustive verification and
single-graph extension runs.

Exit codes: 0 success, 1 a verified statement fell below its threshold
(which would mean a bug, not a counterexample), 2 usage, 3 I/O or parse
failure, 4 internal error (a checked invariant failed; the message names
the step, and under `verify` the graph and its input line).  Reports are
deterministic for identical inputs; wall times are only attached under
--timings since they would break that.  The library states the paper's
thresholds once, in `_MODES`, and the connectivity each statement
assumes once, in `verify.CONNECTIVITY`.
"""

from __future__ import annotations

import argparse
import collections
import functools
import io
import os
import sys
import time

from .errors import InvariantViolation
from .graph6 import Graph6Error, load_graph_text, stream_corpus, write_graph6
from .graphs import connectivity_at_least, is_cubic

# The commands call the library's public names through this module
# (`_this.verify_zhan`), which reads them from the package (PEP 562): each
# command loads only its own modules, and a binding set here (a test's
# spy, perfbench/selftest.py's planted faults) runs in place of the library's.
_package = sys.modules[__package__]
_this = sys.modules[__name__]


def __getattr__(name):
    # public names only: the package's `__path__` or `__all__` would make
    # this module pass for a package, and `import *` load every module
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_package, name)


EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _connectivity_class(g) -> int:
    # the gate is monotone in k, so the first level that passes is the class
    return next((k for k in (3, 2, 1) if connectivity_at_least(g, k)), 0)


# mode -> (threshold, statement: a verify_zhan mode or "chords"); the
# connectivity each statement needs is verify.CONNECTIVITY
_MODES = {
    "zhan2": (1, "all-pairs"),
    "zhan3adj": (2, "adjacent-pairs"),
    "chords": (2, "chords"),
}


def _verify_one(args):
    line, g, mode, timings = args
    started = time.perf_counter()
    # the gate answers for cubic graphs only: other lines get a null class
    kappa = _connectivity_class(g) if is_cubic(g) else None
    threshold, statement = _MODES[mode]
    row = {
        "graph6": line,
        "n": g.n,
        "connectivity": kappa,
        "mode": mode,
        "value": None,
        "witness": None,
    }
    from .verify import CONNECTIVITY

    if kappa is not None and kappa >= CONNECTIVITY[statement]:
        if statement == "chords":
            rep = _this.verify_chords(g)
            row["value"] = rep.min_chords
            if rep.min_chords < threshold:
                row["witness"] = {"cycle": list(rep.witness)}
        else:
            rep = _this.verify_zhan(g, statement)
            row["value"] = rep.minimum
            # the first pair below this mode's threshold, in pairs order
            xy = next((xy for xy, r in rep.pairs.items() if r.min_bound < threshold), None)
            if xy:
                row["witness"] = {"pair": list(xy), "path": list(rep.pairs[xy].witness)}
    if timings:
        row["wall_ms"] = round(1000 * (time.perf_counter() - started), 3)
    return row


def _send(fh, obj):
    """Write ``obj`` to ``fh`` as a pickle after its 8-byte length."""
    import pickle

    data = pickle.dumps(obj)
    fh.write(len(data).to_bytes(8, "little") + data)
    fh.flush()


def _recv(fh):
    """The next object `_send` wrote to ``fh``, or None at end of file.
    It reads no byte past that object, so on an unbuffered ``fh``
    `select` still sees every reply that follows."""
    import pickle

    def read(size):
        data = b""
        while len(data) < size and (chunk := fh.read(size - len(data))):
            data += chunk
        return data

    head = read(8)
    size = int.from_bytes(head, "little")
    data = read(size) if len(head) == 8 else b""
    return pickle.loads(data) if data and len(data) == size else None


# the most task indices a forked child holds, the one it runs included;
# a child whose queue ran dry would idle until the parent's own task ends
_AHEAD = 4


def _attempt(task):
    """(`_verify_one` of ``task``, None), or (None, the exception it raised)."""
    try:
        return _verify_one(task), None
    except Exception as exc:
        return None, exc


def _forked(tasks, workers):
    """Yield `_verify_one` of every task, in input order, from ``workers``
    processes: the parent and ``workers - 1`` forked children that inherit
    ``tasks``.  With one worker (or none, for no task) the parent runs
    every task itself and forks nothing; this is ``--jobs 1``.  The parent
    hands out task indices in input order and reads back (index, row,
    exception).  The children get indices 0..workers-2, one each as they
    are forked, and the parent takes the next one.  After every reply and
    every task it runs itself, the parent takes its next index and tops
    each child up to `_AHEAD` indices, but never to more than are still
    left to hand out: a child has its next task queued while the parent
    computes, and the last tasks are shared.  The parent runs its next
    index whenever no reply is waiting, and blocks in `select` only when
    none is left.  Once nothing is left to hand out, every task pipe is
    closed, so the children leave as soon as their queues are done.

    The first failing task in input order raises in place of its row; a
    child that dies without replying fails the task it held, and the
    tasks queued behind it are not needed.  A hard crash of the parent's
    own task (a signal, `os._exit`) ends the run as it would under
    ``--jobs 1``.  Forking assumes no other thread runs, as none does in
    the command line.

    The parent pins child k (1..workers-1) to the k-th of its allowed
    CPUs (modulo their count) as it forks it, before handing it a task:
    the scheduler places a forked child on its parent's run queue and
    often keeps it there on short tasks, and a pin from the parent moves
    the child to its own CPU at once.  The parent keeps its own affinity.
    The pin is Linux-only; where ``os.sched_setaffinity`` is missing the
    children are not pinned, and a pin that fails (a cpuset changed under
    the run, a child already dead) is ignored.

    The rows are yielded once every task is done, and the children are
    reaped when the generator ends or is closed, not before its first
    row: a caller that takes exactly ``len(tasks)`` rows and closes the
    generator after writing its report overlaps the children's teardown
    with that write.  A failure while dispatching kills the children
    before they are reaped."""
    # pickle for `_send` and `_recv`: loaded here, before the children fork
    import pickle  # noqa: F401
    import select
    import signal

    pin = getattr(os, "sched_setaffinity", None)
    cpus = sorted(os.sched_getaffinity(0)) if pin else []
    results = [None] * len(tasks)
    # reply pipe -> (pid, task pipe, the indices the child holds, oldest first)
    children = {}
    todo = collections.deque(range(len(tasks)))
    parent_ends = []

    def record(i, row, exc):
        results[i] = (row, exc)
        if exc is not None:
            todo.clear()  # no task after a failure is needed

    def hand(fh):
        _, task_w, held = children[fh]
        held.append(todo.popleft())
        try:
            _send(task_w, held[-1])
        except BrokenPipeError:
            pass  # the child died: its reply pipe's end of file says so

    try:
        try:
            for k in range(1, workers):
                task_r, task_w = os.pipe()
                reply_r, reply_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # the parent's ends: an inherited task pipe would
                        # never reach end of file in its own child
                        for fd in [task_w, reply_r, *parent_ends]:
                            os.close(fd)
                        tasks_in, replies = os.fdopen(task_r, "rb"), os.fdopen(reply_w, "wb")
                        while (i := _recv(tasks_in)) is not None:
                            _send(replies, (i, *_attempt(tasks[i])))
                        status = 0
                    finally:
                        os._exit(status)
                if cpus:
                    try:
                        pin(pid, {cpus[k % len(cpus)]})
                    except OSError:
                        pass  # unpinned, the child still works
                os.close(task_r)
                os.close(reply_w)
                parent_ends += [task_w, reply_r]
                # unbuffered: a failed send leaves nothing for close to flush,
                # and a read takes no reply that select has not yet seen
                fh = os.fdopen(reply_r, "rb", buffering=0)
                children[fh] = (pid, os.fdopen(task_w, "wb", buffering=0), [])
                hand(fh)  # the child starts while the next one forks
            while (waiting := [fh for fh, (_, _, held) in children.items() if held]) or todo:
                ready = select.select(waiting, [], [], 0 if todo else None)[0] if waiting else []
                for fh in ready:
                    reply = _recv(fh)
                    pid, task_w, held = children[fh]
                    if reply is None:
                        del children[fh]
                        fh.close()
                        task_w.close()
                        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        exc = InvariantViolation("verify", f"worker exited with status {status}")
                        # the indices queued behind come later in input order
                        reply = (held[0], None, exc)
                    else:
                        held.remove(reply[0])
                    record(*reply)
                mine = todo.popleft() if todo else None
                for fh, (_, _, held) in children.items():
                    while len(held) < min(_AHEAD, len(todo)):
                        hand(fh)
                if not todo:
                    for _, task_w, _ in children.values():
                        task_w.close()  # end of file: the child leaves when done
                if mine is not None:
                    record(mine, *_attempt(tasks[mine]))
        except BaseException:
            for pid, _, _ in children.values():
                os.kill(pid, signal.SIGKILL)
            raise
        for row, exc in results:
            if exc is not None:
                raise exc
            yield row
    finally:
        for fh, (_, task_w, _) in children.items():
            fh.close()
            task_w.close()
        for pid, _, _ in children.values():
            os.waitpid(pid, 0)


def _write(text, path):
    """Write ``text`` to the file ``path``, or to stdout without one; an
    unwritable path raises OSError, which `main` turns into exit 3."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    lines = [write_graph6(g) for g in _this.enumerate_cubic(args.n)]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"--jobs {args.jobs} needs os.fork, which this platform lacks")
    try:
        # latin-1 keeps every byte, so the parser names a non-ASCII one
        # and its line; line numbers count blank lines
        with open(args.infile, encoding="latin-1") as fh:
            lines = list(fh)
        corpus = list(stream_corpus(lines))
    except (OSError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    tasks = [(lines[lineno - 1].strip(), g, args.mode, args.timings) for lineno, g in corpus]
    linenos = [lineno for lineno, _ in corpus]
    del lines, corpus  # each task holds its line
    # load the verifiers `_verify_one` reads once here, not in every
    # child that `_forked` forks
    from . import verify  # noqa: F401
    rows = []
    workers = _forked(tasks, min(args.jobs, len(tasks)))
    try:
        # one row per task, so `workers` stays open: the children are
        # reaped when it closes, after the report is written
        for _ in tasks:
            rows.append(next(workers))
    except InvariantViolation as exc:
        # the rows so far are those of the tasks before the failing one
        line, lineno = tasks[len(rows)][0], linenos[len(rows)]
        print(f"internal error: {exc} (graph {line}, input line {lineno})", file=sys.stderr)
        return EXIT_INTERNAL
    import csv
    import json

    threshold = _MODES[args.mode][0]
    checked = [r["value"] for r in rows if r["value"] is not None]
    violations = sum(1 for v in checked if v < threshold)
    report = {
        "mode": args.mode,
        "threshold": threshold,
        "graphs": len(rows),
        "checked": len(checked),
        "minimum": min(checked) if checked else None,
        "violations": violations,
        "rows": rows,
    }
    if args.format == "json":
        out = json.dumps(report, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fields = ["graph6", "n", "connectivity", "mode", "value", "witness"]
        if args.timings:
            fields.append("wall_ms")
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            row = dict(row)
            row["witness"] = json.dumps(row["witness"]) if row["witness"] else ""
            writer.writerow(row)
        out = buf.getvalue()
    try:
        _write(out, args.out)
    finally:
        workers.close()
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_extend(args) -> int:
    try:
        with open(args.graph) as fh:
            g = load_graph_text(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        p = _this.Path(tuple(int(tok) for tok in args.path.split(",") if tok.strip())).validate(g)
    except ValueError as exc:
        print(f"error: bad path spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from .extender import EXTENDABLE

    cls = _this.precheck(g, p)
    if cls.kind != EXTENDABLE:
        # a refused path always has an internal bound vertex: in a cubic
        # host every internal vertex of a spanning path is bound
        where = ", ".join(f"v={v}" for v in sorted(cls.bound))
        print(f"not extendable: internal P-bound vertex present at {where}", file=sys.stderr)
        return EXIT_USAGE
    longer, trace = _this.extend_path(g, p)
    print(",".join(str(v) for v in longer.vertices))
    print(f"length {p.length} -> {longer.length}", file=sys.stderr)
    if args.trace:
        _write(trace.to_json() + "\n", args.trace)
    return EXIT_OK


@functools.cache
def _parser():
    """The command line's parser, built from `_MODES` on the first call
    and kept for the life of the process, so the `--mode` choices are
    fixed per process.  It binds no command: `main` reads the command
    from this module's bindings on every call."""
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="exact longest-path/cycle verification on small cubic graphs",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit all connected cubic graphs for an order")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out")

    v = sub.add_parser("verify", help="run a verifier over a graph6 corpus")
    v.add_argument("--mode", choices=sorted(_MODES), required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.add_argument("--timings", action="store_true")
    v.add_argument("--out")

    e = sub.add_parser("extend", help="extend an (x,y)-path without bound vertices")
    e.add_argument("--graph", required=True)
    e.add_argument("--path", required=True, help='comma-separated ids, e.g. "0,4,1,3"')
    e.add_argument("--trace")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = getattr(args, "out", None) or getattr(args, "trace", None)
    folder = os.path.dirname(os.path.abspath(out)) if out else None
    # fail before the work, not after it; the final write still maps an
    # OSError to exit 3
    if out and os.path.isdir(out):
        print(f"error: cannot write {out}: it is a directory", file=sys.stderr)
        return EXIT_IO
    if out and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        print(f"error: cannot write {out}: {folder} is not a writable directory", file=sys.stderr)
        return EXIT_IO
    try:
        # read on every call: a binding set on this module (a tracer's
        # wrapper, a test's spy) runs in place of the command
        return {"generate": cmd_generate, "verify": cmd_verify, "extend": cmd_extend}[args.cmd](args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)  # "<step>: <detail>"
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
