"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed 7]

1. A wrong expected answer is caught: for every workload, one job of the
   first block gets a wrong value in ``expect`` and the block is run through
   the same loop the timed run uses; failed_frac must be above 0 with the
   wrong answer and exactly 0 without it.
2. The traced run is deterministic: two ``--trace 1`` runs with the same
   seed, in separate processes, give identical ``.calls`` counts and
   identical ``.max_*`` values, and both are correct (which includes the
   check that the spans account for the job time the loop measured).
3. A span that ends after its parent is reported by ``Tracer.misnested``.
4. The metric names printed match BENCHMARK.json.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def wrong(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return "not the expected answer"


def check_wrong_answer_caught(seed):
    ok = True
    sys.path.insert(0, os.path.abspath("src"))
    for name in workloads.WORKLOADS:
        cy, blocks = run.setup(name, seed)
        block = blocks[0][:4]
        _times, failed, _msgs = run.run_jobs(cy, name, [block])
        job = block[0]
        key = next(iter(job["expect"]))
        bad_job = dict(job, expect=dict(job["expect"], **{key: wrong(job["expect"][key])}))
        _times, bad_failed, msgs = run.run_jobs(cy, name, [[bad_job] + block[1:]])
        frac = bad_failed / len(block)
        passed = failed == 0 and frac > 0
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} wrong-answer {name}: expect[{key!r}] altered, "
              f"failed_frac {frac:.2f} (0 when unaltered: {failed == 0}); {msgs[:1]}")
    return ok


def traced(name, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_deterministic(seed):
    ok = True
    for name in workloads.WORKLOADS:
        first, second = traced(name, seed), traced(name, seed)
        exact = [k for k in first["metrics"] if k.endswith(".calls") or ".max_" in k]
        diff = [k for k in exact if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        passed = not diff and first["correct"] and second["correct"]
        ok &= passed
        calls = sum(first["metrics"][k]["value"] for k in exact if k.endswith(".calls"))
        print(f"{'PASS' if passed else 'FAIL'} deterministic {name}: {len(exact)} exact metrics, "
              f"{calls} traced calls, differing: {diff[:5]}")
    return ok, first


def check_misnesting_caught():
    from tracer import Tracer

    t = Tracer()
    # a job span over [0, 1] with one child over [0.2, 1.5]
    for parent, (enter, start, end, leave) in ((-1, (0.0, 0.0, 1.0, 1.0)), (0, (0.2, 0.2, 1.5, 1.5))):
        for arr, v in ((t.name, 0), (t.parent, parent), (t.enter, enter), (t.start, start),
                       (t.end, end), (t.leave, leave)):
            arr.append(v)
    bad = t.misnested()  # the child lies outside, and the job's self time is negative
    t.end[1] = t.leave[1] = 0.9
    passed = bad == 2 and t.misnested() == 0
    print(f"{'PASS' if passed else 'FAIL'} misnested span caught: {bad} reported, "
          f"{t.misnested()} once the child ends inside its parent")
    return passed


def check_names(traced_result):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    want = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    got_layer = layers.metric_names()
    printed = [(k, v["unit"]) for k, v in traced_result["metrics"].items()]
    ok = want == got_layer and printed == [(n, u) for n, u, _b in want]
    e2e = sorted(m["name"] for m in bench["end_to_end"])
    plain = run.end_to_end([0.001] * 20, 0, [0.1])[0]
    ok &= e2e == sorted(plain)
    print(f"{'PASS' if ok else 'FAIL'} metric names match BENCHMARK.json "
          f"({len(want)} per-layer, {len(e2e)} end-to-end)")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cyclat", "__init__.py")):
        sys.stderr.write("selftest: run from the root of a cyclat checkout\n")
        return 2
    ok = check_wrong_answer_caught(args.seed)
    det_ok, last = check_deterministic(args.seed)
    ok &= det_ok
    ok &= check_misnesting_caught()
    ok &= check_names(last)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
