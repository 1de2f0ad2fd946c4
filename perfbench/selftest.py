"""Self-test of the benchmark's own parts; exits 1 on the first failure.

    python3 perfbench/selftest.py

1. Traced stdout is byte-identical to untraced stdout (and the exit code
   the same) on small inputs of every command the workloads use, including
   one that exits 2.
2. Spans nest: each has a parent in its own trace that encloses it, and
   self time never exceeds duration.
3. Self time is duration minus the traced children's durations.
4. The metric names run.py prints are the ones BENCHMARK.json lists.
"""

import json
import os
import sys
import time

import run
import spawn
import tracer
from workloads import Job

SMALL_JOBS = [
    "count --m 2 --n 3 --t 2 --by profile",
    "count --m 1 --n 5 --t 1 --by rank",
    "chains --m 1 --n 4 --t 1 --ranks 1,0,2",
    "verify --suite conj-h --range m=2,n=3,t=1..n",
    "verify --suite conj-count --range m=2,n=3,t=1..n",
    "verify --suite lemma54 --range m=2,n=3,t=1..n",
    "sweep --do verify --suite identities --range m=1..2,n=1..3,t=1..n",
    "verify --suite bijection --range m=1,n=1..4,t=1..n",
    "count --m 0 --n 3 --t 1",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        print("FAIL " + message)
        sys.exit(1)


def test_stdout_identical() -> None:
    jobs = [Job("cli", argv.split(), None, False) for argv in SMALL_JOBS]
    jobs.append(Job("lib", ["m_triangle", "1", "4", "1"], None, False))
    for index, job in enumerate(jobs):
        plain = spawn.run_job(job, trace_id=None)
        traced = spawn.run_job(job, trace_id=f"selftest-{index}")
        check(traced.stdout == plain.stdout, f"{job.key}: traced stdout differs")
        check(traced.returncode == plain.returncode, f"{job.key}: exit codes differ")
        check(plain.setup_s is not None and traced.trace is not None, f"{job.key}: no record")
        test_span_nesting(job.key, traced.trace)
    print(f"ok   traced stdout byte-identical on {len(jobs)} jobs; spans nest")


def test_span_nesting(key: str, trace: dict) -> None:
    spans = {span[1]: span for span in trace["spans"]}
    check(bool(spans), f"{key}: no spans recorded")
    for trace_id, _, parent, name, start, end, self_s in spans.values():
        check(trace_id == trace["trace_id"], f"{key}: span of another trace")
        check(-1e-9 <= self_s <= end - start + 1e-9, f"{key}: {name} self time out of range")
        if parent is not None:
            outer = spans.get(parent)
            check(outer is not None, f"{key}: {name} has a missing parent")
            check(outer[4] <= start and end <= outer[5], f"{key}: {name} escapes its parent")


def test_self_time_arithmetic() -> None:
    recorder = tracer.Recorder("arith")

    def busy(seconds):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass

    inner = recorder._wrap("polyalg.substitute", lambda: busy(0.02))  # a leaf: no span

    def outer_body():
        busy(0.01)
        inner()
        inner()

    outer = recorder._wrap("nonnest.h_tilde", outer_body)
    outer()
    (_, _, parent, name, start, end, self_s), = recorder.spans
    leaf_calls, leaf_self, _ = recorder.agg["polyalg.substitute"]
    check(parent is None and name == "nonnest.h_tilde", "outer span misrecorded")
    check(leaf_calls == 2 and leaf_self >= 0.04, "leaf calls not aggregated")
    check(abs(self_s + leaf_self - (end - start)) < 1e-6, "self time is not duration minus children")
    check(0.01 <= self_s < 0.03, f"outer self time {self_s:.4f} s, expected about 0.01 s")
    print("ok   self time = duration - children")


def test_metric_names() -> None:
    with open(os.path.join(spawn.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "end_to_end names or units differ",
    )
    check(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metrics(),
        "per_layer names or units differ",
    )
    print("ok   metric names match BENCHMARK.json")


if __name__ == "__main__":
    test_self_time_arithmetic()
    test_metric_names()
    test_stdout_identical()
