#!/usr/bin/env python3
"""chordlab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload {corpus-n10,random-n16,extend-mixed}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; chordlab is imported from
./src, nothing is installed.  The workloads are described in
perfbench/workloads.py and BENCHMARK.json.

--trace 0 measures the end-to-end metrics:
  setup_s      median over fresh interpreters of `import chordlab` +
               `kernels.warmup()`, interpreter start included, each
               scaled to a host of nominal speed (see below); one probe
               runs before every pass and two after the last one
  norm_wall_s  the workload's timed calls (a CLI command, or one
               precheck + extension step), each scaled to a host of
               nominal speed (see below) and taken at its median over the
               passes, summed; in seconds
  peak_rss_mb  measuring-process peak RSS plus its largest child's
One measuring process (passrun.py) does the run: an untimed warm-up
pass on other inputs of the same shape, then max(MIN_PASSES,
round(--seconds / PASS_SECONDS[workload])) timed passes, each running
every operation of the workload once on the same seed-made inputs; no
pass starts that would end later than about 1.25 x --seconds after
launch.
The shared host runs a process at speeds that vary by up to about 70%
for seconds to minutes at a time (2-vCPU VM; the fastest times of one
30 s run were 70% above those of the run before), so raw wall times of
equal work spread too far to compare commits.  The passes are therefore
calibrated (passrun.py): before every command, every 32 extension calls
and after the last one, a fixed pure-Python computation that is not
chordlab's is timed, and the wall times of the calls between two such
timings are divided by their mean.  A scaled time times REFERENCE_S is
the call's time on a host where the computation takes REFERENCE_S, so
norm_wall_s is in seconds on that nominal host.  Set-up, which is mostly
process start and imports, tracks the host's speed at starting
processes rather than at running Python: each probe is divided by the
start of a fresh interpreter that does nothing (`python3 -c pass`),
timed just before it, and multiplied by BARE_START_S, that start's time
on the nominal host.  A change to chordlab moves the scaled times; the
host's speed moves a call and its calibration alike.  The unscaled
figures are printed as `info setup_raw_s` and `info wall_s` (the sum of
each operation's fastest time over the passes).
The per-stage times (generate_s, verify_<mode>_s, extend_step_ms_p50 /
_p95 with their sample count) and failed_frac are printed as `info` lines
before the result; they apply to only some workloads.

--trace 1 runs one pass twice with --jobs 1, untraced and then traced,
and reports the per-layer metrics of tracing.PER_LAYER; tracing overhead
is the difference of the two pass times.

Every pass of a run sees the same inputs, so its output digests (report
bytes, extension traces) must match the first pass's; a pass whose
digests differ counts as one more failed operation.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the checkout or the arguments are unusable (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOADS = ("corpus-n10", "random-n16", "extend-mixed")
END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MiB"}
JOBS = {"corpus-n10": 1, "random-n16": 2, "extend-mixed": 1}
STAGES = ("generate_s", "verify_zhan2_s", "verify_zhan3adj_s", "verify_chords_s")
MIN_PASSES = 3
# nominal seconds per pass plus its set-up probe (2-vCPU VM, CPython 3.11, no numba)
PASS_SECONDS = {"corpus-n10": 2.3, "random-n16": 2.5, "extend-mixed": 4.0}
PASS_TIMEOUT_S = 170
BUDGET_S = 150  # no pass starts that is expected to end later than this after launch
START_S = 5  # interpreter start, imports, inputs and warm-up pass, before the timed passes
REFERENCE_S = 0.002  # passrun.calibration_time() on the nominal host
BARE_START_S = 0.05  # `python3 -c pass` on the nominal host


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_passes(args, passes, budget, jobs, trace=False, probes=False):
    """Run the measuring process in its own process group; on timeout
    kill the group.  Its result, or RuntimeError."""
    cmd = [
        sys.executable, os.path.join(HERE, "passrun.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--jobs", str(jobs), "--workdir", args.workdir,
        "--passes", str(passes), "--budget", f"{budget:.3f}",
    ]
    cmd += ["--probes"] * probes + ["--trace"] * trace + ["--tiny"] * args.tiny
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"measuring process timed out after {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exit {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_revision():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _info(name, value, unit):
    print(f"info {name} {value:.6g} {unit}")


def untraced(args, launched):
    passes = 2 if args.tiny else max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    budget = min(BUDGET_S, 1.25 * args.seconds + START_S) - (time.perf_counter() - launched)
    result = run_passes(args, passes, budget, JOBS[args.workload], probes=True)
    fastest = result["ops"]
    for key in STAGES:
        if key in fastest:
            _info(key, fastest[key], "s")
    steps = [1000 * fastest[key] for key in result["steps"]]
    if steps:
        _info("extend_step_ms_p50", tracing.percentile(steps, 50), "ms")
        _info("extend_step_ms_p95", tracing.percentile(steps, 95), "ms")
        _info("extend_steps", len(steps), "count")
    wall_s = sum(fastest.values())
    _info("wall_s", wall_s, "s")
    _info("calibration_s", statistics.median(result["calibration_s"]), "s")
    _info("passes", result["passes"], "count")
    _info("setup_raw_s", statistics.median(result["setup_s"]), "s")
    _info("bare_start_s", statistics.median(result["setup_bare_s"]), "s")
    metrics = {
        "setup_s": statistics.median(
            p * BARE_START_S / b for p, b in zip(result["setup_s"], result["setup_bare_s"])
        ),
        "norm_wall_s": sum(result["scaled"].values()) * REFERENCE_S,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return [result], metrics, END_TO_END


def traced(args, launched):
    budget = BUDGET_S - (time.perf_counter() - launched)
    plain = run_passes(args, 1, budget, 1)
    result = run_passes(args, 1, budget, 1, trace=True)
    ops = result["ops"]
    metrics = dict(result["layers"])
    for key in STAGES:
        metrics[f"cli.{key}"] = ops.get(key, 0.0)
    metrics["cli.report_bytes"] = result["report_bytes"]
    steps = [1000 * ops[key] for key in result["steps"]]
    metrics["extender.steps"] = len(steps)
    metrics["extender.step_ms_p50"] = tracing.percentile(steps, 50)
    metrics["extender.step_ms_p95"] = tracing.percentile(steps, 95)
    for name in tracing.BRANCH_METRICS:
        metrics[name] = result["branches"].get(name.rsplit(".", 1)[1], 0)
    metrics["trace.wall_s"] = sum(ops.values())
    metrics["trace.untraced_wall_s"] = sum(plain["ops"].values())
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    return [plain, result], metrics, units


def main(argv=None):
    launched = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chordlab", "__init__.py")):
        print(f"error: no chordlab sources under {ROOT}/src; run from a chordlab checkout", file=sys.stderr)
        return 2
    args.workdir = os.path.join(HERE, ".work")
    os.makedirs(args.workdir, exist_ok=True)

    try:
        runs, metrics, units = traced(args, launched) if args.trace else untraced(args, launched)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for err in [err for r in runs for err in r["errors"]]:
        print(f"check failed: {err}")
    _info("failed_frac", failed / attempted if attempted else 1.0, "ratio")
    env = dict(runs[0]["env"])
    env.update(
        workload=args.workload, seed=args.seed, passes=sum(r["passes"] for r in runs), git_revision=git_revision(),
        input_sha256=runs[0]["input_sha256"], digests=runs[0]["digests"],
    )
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
