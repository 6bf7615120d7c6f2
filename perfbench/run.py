"""Benchmark of the cyclat workbench: one workload per run, one client in a
closed loop, every verdict checked against an answer known in advance.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload modules --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up several times (fresh import of ``cyclat``, job list
drawn from the seed, one warm-up job), then runs jobs one after the other
for ``--seconds`` seconds with tracing off and prints the end-to-end
metrics.  ``--trace 1`` sets up the same way, runs one block untimed, then
one pass over the job list untraced and one traced, writes the spans under
``.bench_build/`` and prints the per-layer metrics.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
TAIL_BEYOND = 10
MIN_JOBS = TAIL_BEYOND + 1
TRACE_TOLERANCE = 0.01  # share of the traced job time
SPAN_DIR = ".bench_build"


def import_cyclat():
    """Import cyclat afresh from ./src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cyclat" or n.startswith("cyclat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cy = importlib.import_module("cyclat")
    importlib.import_module("cyclat.cli")
    return cy


def setup(workload, seed):
    """Import, draw the job blocks and run the warm-up job; returns (cy, blocks)."""
    make_jobs, warmup_job, execute, check = workloads.WORKLOADS[workload]
    cy = import_cyclat()
    blocks = make_jobs(cy, random.Random(seed))
    warm = warmup_job(cy)
    problems = check(cy, warm, execute(cy, warm))
    if problems:
        raise RuntimeError(f"warm-up job failed: {problems}")
    return cy, blocks


def run_jobs(cy, workload, blocks, seconds=None, tracer=None):
    """Closed loop over the jobs: the next starts when the previous one is checked.

    Without ``seconds`` the list is run once; with it, the list is cycled
    until ``seconds`` have passed, at least MIN_JOBS jobs ran and a block
    is complete.  Returns (per-job wall times, number failed, first failure
    messages).
    """
    _make, _warm, execute, check = workloads.WORKLOADS[workload]
    jobs = [job for block in blocks for job in block]
    block_ends = set(itertools.accumulate(len(block) for block in blocks))
    times, failed, messages = [], 0, []
    begin = time.perf_counter()
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        problems = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = execute(cy, job)
            else:
                with tracer.job():
                    outcome = execute(cy, job)
        except Exception as exc:  # a raise is a wrong verdict, not a crash of the run
            problems = [f"raised {exc!r}"]
        times.append(time.perf_counter() - t0)
        if problems is None:
            problems = check(cy, job, outcome)
        if problems:
            failed += 1
            if len(messages) < 5:
                messages.append(f"job {i % len(jobs)}: {'; '.join(problems)}")
        i += 1
        if seconds is None:
            if i == len(jobs):
                break
        elif (
            i >= MIN_JOBS
            and (i - 1) % len(jobs) + 1 in block_ends
            and time.perf_counter() - begin >= seconds
        ):
            break
    return times, failed, messages


def tail(times):
    """(value, percentile, sample count) at the highest percentile with
    TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(times, failed, setup_times):
    value, pct, n = tail(times)
    return {
        "jobs_per_s": ((n - failed) / sum(times), "1/s"),
        "job_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "job_tail_ms": (1000.0 * value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, (pct, n)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cyclat", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a cyclat checkout (no src/cyclat here)\n")
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cy, blocks = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)

    if args.trace == 0:
        times, failed, messages = run_jobs(cy, args.workload, blocks, seconds=args.seconds)
        values, (pct, n) = end_to_end(times, failed, setup_times)
        print(f"{args.workload}: {n} jobs, {failed} failed (failed_frac {failed / n:.4f}); "
              f"job_tail_ms is p{pct:.2f} of {n} samples, {TAIL_BEYOND} beyond it")
    else:
        from tracer import Tracer

        # one untimed block first: the interpreter specializes code on its first
        # executions, and the untraced reference pass should not pay for that
        run_jobs(cy, args.workload, blocks[:1])
        plain, plain_failed, messages = run_jobs(cy, args.workload, blocks)
        tracer = Tracer()
        tracer.install()
        try:
            times, failed, traced_messages = run_jobs(cy, args.workload, blocks, tracer=tracer)
        finally:
            tracer.uninstall()
        messages += traced_messages
        failed += plain_failed
        n = len(plain) + len(times)
        raw = tracer.metrics(sum(plain))
        units = {name: unit for name, unit, _better in layers.metric_names()}
        values = {name: (raw[name], units[name]) for name in units}
        # the spans against a clock the tracer does not own: run_jobs' own
        # per-job times, which also include entering and leaving tracer.job()
        parts = raw["trace.wrapped_self_s"] + raw["trace.unwrapped_s"] + raw["trace.bookkeeping_s"]
        clock = sum(times)
        if abs(parts - clock) > TRACE_TOLERANCE * clock:
            messages.append(f"self times add up to {parts} s, the traced jobs took {clock} s")
            failed = max(failed, 1)
        misnested = tracer.misnested()
        if misnested:
            messages.append(f"{misnested} spans lie outside their parent or have negative self time")
            failed = max(failed, 1)
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write(span_file)
        print(f"{args.workload}: {len(times)} jobs untraced then traced, {failed} failed; "
              f"job time untraced {sum(plain):.3f} s, traced {clock:.3f} s, "
              f"of which spans account for {parts:.3f} s; "
              f"spans in {span_file}")

    for msg in messages:
        print(f"FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
