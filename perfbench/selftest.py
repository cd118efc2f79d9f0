#!/usr/bin/env python3
"""Self-test of the benchmark's harness and output checks.

    python3 perfbench/selftest.py

1. Tiny runs (corpus n=8, one random n=12 graph, a few extension runs)
   of every workload, untraced and traced, must pass their checks and
   emit exactly the metric names of BENCHMARK.json with their units.
2. Planted faults must be counted as failures: outputs mutated after the
   fact (a report value lowered by one, a missing or duplicated graph, a
   path with a repeated vertex, ...) and chordlab functions patched in
   this process to return wrong answers.  A calibrated pass must scale
   each timed call by the mean of the calibrations around it.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py
   must exit nonzero without printing a result.
Exit status 0 when everything held, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import passrun  # noqa: E402
import workloads  # noqa: E402
from chordlab import cli, extender  # noqa: E402
from chordlab.search import Path  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def tiny_runs():
    end_to_end, per_layer, names = _spec()
    for name in names:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            what = f"tiny {name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{what}: no result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            metrics = result["metrics"]
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{what}: correct, {result['attempted']} attempted, {result['failed']} failed")
            expect({k: v["unit"] for k, v in metrics.items()} == want, f"{what}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in metrics.values()), f"{what}: every value is a number")
            if trace == 0:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{what}: every end-to-end value is nonzero")


def _cli_outputs(tmp, n):
    gen = os.path.join(tmp, "c.g6")
    cli.main(["generate", "--n", str(n), "--out", gen])
    with open(gen) as fh:
        lines = fh.read().split()
    reports = {}
    for mode in workloads.MODES:
        out = os.path.join(tmp, f"{mode}.json")
        cli.main(["verify", "--mode", mode, "--in", gen, "--out", out])
        with open(out) as fh:
            reports[mode] = fh.read()
    return lines, reports


def _lower_first_value(text):
    rep = json.loads(text)
    row = next(r for r in rep["rows"] if r["value"] is not None)
    row["value"] -= 1
    return json.dumps(rep)


def mutated_outputs(tmp):
    lines, reports = _cli_outputs(tmp, 8)
    expect(not checks.check_corpus(lines, 8), "corpus n=8 as generated passes")
    for mode, text in reports.items():
        expect(not checks.check_corpus_report(text, mode, lines, 8), f"{mode} report as written passes")
        expect(bool(checks.check_corpus_report(_lower_first_value(text), mode, lines, 8)),
               f"{mode} report with a value lowered by one fails")
    rep = json.loads(reports["zhan2"])
    rep["rows"].pop()
    expect(bool(checks.check_corpus_report(json.dumps(rep), "zhan2", lines, 8)), "report missing a row fails")
    expect(bool(checks.check_corpus(lines[:-1], 8)), "corpus missing a graph fails")
    adj = checks.parse_g6(lines[0])
    perm = list(range(8))
    random.Random(1).shuffle(perm)
    twin = checks.write_g6(checks.adjacency(8, [(perm[u], perm[v]) for u in range(8) for v in adj[u] if u < v]))
    expect(bool(checks.check_corpus(lines[:-1] + [twin], 8)), "corpus with a relabeled duplicate fails")

    rep = json.loads(reports["chords"])
    pool = [row["graph6"] for row in rep["rows"]]
    values = [row["value"] for row in rep["rows"]]
    expect(not checks.check_report(reports["chords"], "chords", pool, values), "report with its own values passes")
    expect(bool(checks.check_report(_lower_first_value(reports["chords"]), "chords", pool, values)),
           "pool report with a value lowered by one fails")

    adj = checks.adjacency(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    expect(not checks.check_longer(adj, (0, 1), (0, 2, 1)), "a valid longer path passes")
    expect(bool(checks.check_longer(adj, (0, 1), (0, 2, 0, 1))), "a path with a repeated vertex fails")
    expect(bool(checks.check_longer(adj, (0, 2, 1), (0, 3, 1))), "a path that is not longer fails")
    expect(bool(checks.check_longer(adj, (0, 1), (0, 2, 3))), "a path whose endpoint moved fails")
    ring = checks.adjacency(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4), (2, 5)])
    expect(bool(checks.check_longer(ring, (0, 1), (0, 2, 1))), "a path along a non-edge fails")
    expect(bool(checks.check_fixpoint(ring, (0, 1, 2))), "a fixpoint with no bound vertex that does not span fails")
    expect(not checks.check_fixpoint(ring, (0, 1, 2, 3, 4, 5)), "a spanning fixpoint passes")


def _run_patched(tmp, module, attr, fake, work):
    original = getattr(module, attr)
    setattr(module, attr, fake(original))
    try:
        ctx = workloads.PassContext(tmp)
        work.run(ctx, work.build(7), 1)
    finally:
        setattr(module, attr, original)
    return ctx


def planted_program_faults(tmp):
    corpus = workloads.CorpusWorkload(8)
    ctx = workloads.PassContext(tmp)
    corpus.run(ctx, corpus.build(7), 1)
    expect(ctx.failed == 0 and ctx.attempted == 4, "unpatched corpus n=8 pass has no failures")

    def lower_minimum(fn):
        def fake(g, mode="all-pairs"):
            rep = fn(g, mode)
            return dataclasses.replace(rep, minimum=rep.minimum - 1)
        return fake

    ctx = _run_patched(tmp, cli, "verify_zhan", lower_minimum, corpus)
    expect(ctx.failed == 2, f"verify_zhan lowered by one: {ctx.failed} of {ctx.attempted} operations failed")

    def drop_last_graph(fn):
        return lambda n: fn(n)[:-1]

    ctx = _run_patched(tmp, cli, "enumerate_cubic", drop_last_graph, corpus)
    expect(ctx.failed == 4, f"enumerate_cubic missing a graph: {ctx.failed} of {ctx.attempted} operations failed")

    extend = workloads.ExtendWorkload(1, 2, 2, 2, orders=(12,))

    def repeat_vertex(fn):
        def fake(g, p):
            longer, trace = fn(g, p)
            return Path(longer.vertices[:2] + longer.vertices[:1] + longer.vertices[1:]), trace
        return fake

    ctx = _run_patched(tmp, extender, "extend_path", repeat_vertex, extend)
    expect(ctx.failed > 0, f"extend_path with a repeated vertex: {ctx.failed} of {ctx.attempted} operations failed")

    def stop_early(fn):
        def fake(g, p):
            return dataclasses.replace(fn(g, p), kind="has-bound-vertex")
        return fake

    ctx = _run_patched(tmp, extender, "precheck", stop_early, extend)
    expect(ctx.failed > 0, f"precheck stopping early: {ctx.failed} of {ctx.attempted} operations failed")

    same, other = {"report-zhan2": "a"}, {"report-zhan2": "b"}
    expect(not passrun.pass_disagreements([same, same, same]), "passes with equal outputs agree")
    expect(len(passrun.pass_disagreements([same, other, same])) == 1, "a pass with other output bytes is one failure")


def calibration(tmp):
    readings = iter([0.5, 1.5, 0.5])
    ctx = workloads.PassContext(tmp, calibrate=lambda: next(readings), every=2)
    for key in "abc":
        ctx.timed(key, sum, [1, 2])
    ctx.close()
    expect(ctx.calibration == [0.5, 1.5, 0.5], "a calibration before every second timed call and after the last")
    expect(all(ctx.scaled[key] == ctx.ops[key] / 1.0 for key in "abc"), "each call scaled by the mean calibration around it")


def bare_directory(tmp):
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-n10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"), f"bare directory: exit {proc.returncode}, no result line")


def main():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))
    try:
        mutated_outputs(tmp)
        planted_program_faults(tmp)
        calibration(tmp)
        bare_directory(tmp)
        tiny_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
