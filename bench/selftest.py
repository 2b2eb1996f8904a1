"""Self-test of the benchmark itself.

Usage: python3 bench/selftest.py [WORKLOAD ...]   (default: every workload)

For each workload it checks that
  - the same seed writes byte-identical inputs and another seed different ones;
  - a verifying pass at each of two seeds matches every pinned invariant
    in expected.json and re-verifies every certificate;
  - two traced passes at one seed give exactly the same counts;
  - the runaway guard kills a pass at its deadline and counts each of its
    unfinished operations as failed, naming the one that was running if any.
Exits 0 when all hold, 1 otherwise.  Takes a few minutes.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import run
import tracing
import workloads

SEEDS = (1, 2)


def inputs(workload, seed):
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
        ops = workloads.build(workload, seed, workdir)
        files = sorted({op.graph_file for op in ops if op.graph_file})
        texts = []
        for path in files:
            with open(path) as handle:
                texts.append(handle.read())
    return texts


def check_workload(workload):
    problems = []
    first, again, other = (inputs(workload, s) for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
    if first != again:
        problems.append("the same seed wrote different inputs")
    if first and first == other:
        problems.append("seeds %d and %d wrote the same inputs" % SEEDS)

    plan = workloads.op_ids(workload)
    for seed in SEEDS:
        deadline = time.monotonic() + run.RUN_LIMIT_S
        passes = [run.run_worker(workload, seed, "verify", deadline)]
        _, _, lines = run.failures_of(passes, plan)
        problems += ["seed %d: %s" % (seed, line) for line in lines]

    deadline = time.monotonic() + run.RUN_LIMIT_S
    traced = [run.run_worker(workload, SEEDS[0], "trace", deadline) for _ in range(2)]
    if any(p.dump is None for p in traced):
        problems.append("a traced pass did not finish")
    else:
        counts = [
            {m: tracing.summarize(p.dump)[m] for m in tracing.COUNT_METRICS}
            for p in traced
        ]
        if counts[0] != counts[1]:
            problems.append("traced counts differ: %r vs %r" % tuple(counts))

    # Every pass takes several seconds, so this deadline cuts one short.
    cut = run.run_worker(workload, SEEDS[0], "run", time.monotonic() + 0.5)
    attempted, failed, lines = run.failures_of([cut], plan)
    running = [line for line in lines if "was running" in line]
    if cut.finished or failed != attempted - len(cut.done) or len(running) > 1:
        problems.append("runaway guard: %s" % (lines or "the pass was not cut"))
    return problems


def main(argv):
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    names = argv or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print("unknown workload: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    failed = False
    for workload in names:
        problems = check_workload(workload)
        print("%s: %s" % (workload, "ok" if not problems else "FAILED"))
        for line in problems:
            print("  " + line)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
