"""Benchmark of the `degenera` command line tool, one workload per run.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): families,
many-generators, large-stabilizer, census.

The load is a closed loop: one operation at a time, in a fixed order, on
one thread.  Each pass over the workload runs in a fresh worker process
(worker.py), one process at a time, so the package's caches and the
process's peak memory start cold as they do for a command line user.
Passes repeat until the next one would end past --seconds; the first pass
always runs, and re-verifies every certificate it reports.  Every later
pass must report the same certificates.  Set-up-only processes, spread
over the run, add samples of the set-up time.

With --trace 0 the last output line carries the end-to-end metrics:
  setup_s      median time to import degenera and write the inputs
  wall_s       median over passes of the summed `cli.main` wall time
  peak_rss_mb  median peak resident memory of a pass's process
With --trace 1, traced passes alternate with untraced ones, and the last
line carries the per-layer metrics (tracing.py), the per-subcommand wall
times of the untraced passes (cmd.*_s) and the tracing overhead.

An operation fails on a wrong exit code, a traceback, a pinned invariant
that does not match, a certificate that fails re-verification or changes
between passes, or the runaway guard: a run that reaches RUN_LIMIT_S kills
its worker and counts every unfinished operation of that pass as failed.
Lines before the last one are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

# Hard limit on a whole run, set-up included: the runaway guard.
RUN_LIMIT_S = 150.0
# Set-up-only processes at each end of a run; one more runs before every pass,
# so the set-up median spans the whole run rather than its first second.
SETUP_SAMPLES = 3
KINDS = ("analyze", "certify", "roundtrip", "census", "galois")


@dataclass
class Pass:
    mode: str
    setup_s: float = None
    done: dict = field(default_factory=dict)
    running: str = None
    running_since: float = None
    running_time: float = 0.0
    process_s: float = None
    peak_rss_mb: float = None
    finished: bool = False
    problem: str = None
    dump: dict = None

    def wall_s(self, kinds=KINDS):
        total = sum(ev["wall_s"] for ev in self.done.values() if ev["kind"] in kinds)
        if self.running_since is not None and not self.finished:
            total += self.running_time
        return total


def run_worker(workload, seed, mode, deadline):
    """Start one worker, read its events until it ends or the deadline passes."""
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    result = Pass(mode)
    began = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), workdir, mode],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    buffered = b""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            eof = False
            while not eof:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    result.problem = "killed at the run's time limit"
                    break
                if not selector.select(remaining):
                    continue
                chunk = os.read(proc.stdout.fileno(), 65536)
                eof = not chunk
                buffered += chunk
                *lines, buffered = buffered.split(b"\n")
                for line in lines:
                    try:
                        event = json.loads(line)
                    except ValueError:
                        text = line.decode(errors="replace")
                        print("worker: %s" % text, file=sys.stderr)
                        continue
                    _record(result, event)
        if result.running is not None:
            result.running_time = time.monotonic() - result.running_since
        code = proc.wait()
        if result.problem is None and (code != 0 or not result.finished):
            result.problem = "worker exited with code %d" % code
        if mode == "trace" and result.finished:
            with open(os.path.join(workdir, "spans.json")) as handle:
                result.dump = json.load(handle)
        result.process_s = time.monotonic() - began
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _record(result, event):
    kind = event["event"]
    if kind == "setup":
        result.setup_s = event["setup_s"]
    elif kind == "start":
        result.running = event["op"]
        result.running_since = time.monotonic()
    elif kind == "done":
        result.done[event["op"]] = event
        result.running = None
        result.running_since = None
    elif kind == "end":
        result.peak_rss_mb = event["peak_rss_mb"]
        result.finished = True


def schedule(trace):
    """Pass modes in order: the first pass verifies; traced runs alternate."""
    if not trace:
        yield "verify"
        while True:
            yield "run"
    yield "verify"
    while True:
        yield "trace"
        yield "run"


def failures_of(passes, plan):
    """(attempted, failed, failure lines) over all passes, counted per operation."""
    verified = next((p for p in passes if p.mode == "verify"), None)
    attempted = failed = 0
    lines = []
    for number, p in enumerate(passes, start=1):
        for op_id in plan:
            attempted += 1
            event = p.done.get(op_id)
            if event is None:
                state = "was running" if op_id == p.running else "did not run"
                reasons = ["%s (%s)" % (state, p.problem or "no report")]
            else:
                reasons = list(event["failures"])
                if verified not in (None, p) and op_id in verified.done:
                    if event["certificates"] != verified.done[op_id]["certificates"]:
                        reasons.append("certificate differs from the verified pass")
            failed += bool(reasons)
            lines.extend("pass %d %s: %s" % (number, op_id, r) for r in reasons)
    return attempted, failed, lines


def median_wall(passes, kinds=KINDS):
    return statistics.median(p.wall_s(kinds) for p in passes)


def command_times(untraced):
    """Median wall time per subcommand over the untraced passes (cmd.*_s)."""
    return {"cmd.%s_s" % kind: median_wall(untraced, (kind,)) for kind in KINDS}


def end_to_end(untraced, setups):
    rss = [p.peak_rss_mb for p in untraced if p.peak_rss_mb is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_wall(untraced),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }


def per_layer(passes, untraced):
    """Per-layer metrics: medians over traced passes, counts from the first."""
    traced = [p for p in passes if p.mode == "trace" and p.dump is not None]
    if not traced:
        return {}, ["no traced pass finished"]
    summaries = [tracing.summarize(p.dump) for p in traced]
    problems = []
    for metric in tracing.COUNT_METRICS:
        values = {s[metric] for s in summaries}
        if len(values) > 1:
            problems.append(
                "count %s differs between traced passes: %s" % (metric, sorted(values))
            )
    metrics = {}
    for metric in summaries[0]:
        if metric in tracing.COUNT_METRICS:
            metrics[metric] = summaries[0][metric]
        else:
            metrics[metric] = statistics.median(s[metric] for s in summaries)
    frob_walls = [p.wall_s(("census", "galois")) for p in traced]
    metrics["frobenius.primes_per_s"] = statistics.median(
        s["frobenius.primes_processed"] / w if w else 0.0
        for s, w in zip(summaries, frob_walls)
    )
    metrics.update(command_times(untraced))
    metrics["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
    return metrics, problems


def measure(args, plan, deadline):
    """Set-up samples and passes, until the next pass would end past --seconds."""
    setups = []

    def sample_setup(count):
        for _ in range(count):
            sample = run_worker(args.workload, args.seed, "setup", deadline)
            if sample.setup_s is None:
                if not setups:
                    raise SystemExit("error: set-up failed: %s" % sample.problem)
                return
            setups.append(sample.setup_s)

    sample_setup(SETUP_SAMPLES)
    passes = []
    measuring = time.monotonic()
    for mode in schedule(args.trace):
        sample_setup(1)
        last = run_worker(args.workload, args.seed, mode, deadline)
        passes.append(last)
        if last.setup_s is not None:
            setups.append(last.setup_s)
        print(
            "pass %d (%s): %.3f s over %d/%d ops, process %.1f s%s"
            % (
                len(passes),
                mode,
                last.wall_s(),
                len(last.done),
                len(plan),
                last.process_s or 0.0,
                ", " + last.problem if last.problem else "",
            )
        )
        if last.problem is not None:
            break
        # A traced run needs one traced pass besides the verifying one.
        mean_pass = (time.monotonic() - measuring) / len(passes)
        if len(passes) > args.trace and mean_pass * (len(passes) + 1) > args.seconds:
            break
    if not passes[-1].problem:
        sample_setup(SETUP_SAMPLES)
    return setups, passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _terminate(signum, frame):
    # Unwind through run_worker's cleanup, which kills and waits for the worker.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "degenera", "cli.py")):
        print("error: no degenera sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    plan = workloads.op_ids(args.workload)
    print(
        "degenera bench: workload %s, seed %d, %d s, trace %d, python %s, nproc %d"
        % (
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            platform.python_version(),
            os.cpu_count(),
        )
    )

    setups, passes = measure(args, plan, deadline)
    attempted, failed, lines = failures_of(passes, plan)
    for line in lines:
        print("FAILED " + line, file=sys.stderr)
    untraced = [p for p in passes if p.mode != "trace" and p.finished] or passes[:1]
    if args.trace:
        metrics, problems = per_layer(passes, untraced)
    else:
        metrics, problems = end_to_end(untraced, setups), []
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    problems += ["%s not measured" % name for name in units if name not in metrics]
    for line in problems:
        print("PROBLEM " + line, file=sys.stderr)
    readable = dict(metrics) if args.trace else {**metrics, **command_times(untraced)}
    for name in sorted(readable):
        print("%-34s %14.6f %s" % (name, readable[name], units.get(name, "s")))
    print("fail_ratio %.6f (%d of %d ops)" % (failed / attempted, failed, attempted))
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def _declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
