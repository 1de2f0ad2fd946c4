"""nclab benchmark: closed loop, one client, one fresh interpreter per job.

    python3 perfbench/run.py --workload partitions --seed 1 --seconds 40 --trace 0

Each pass runs the workload's job list once, in an order shuffled by the
seed, one job at a time (see workloads.py); an untraced pass first starts
SETUP_PROBES set-up probes.  Passes repeat while the next one still fits in
--seconds; at least one pass always runs.  Every job's output, a probe's
too, is checked; a job that fails counts against `ok_ratio` and makes the
run incorrect.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  wall_rel     wall time of a typical pass in reference-kernel units: each
               job's wall time is divided by the median time of the
               reference kernel (reference.py) run just before and just
               after it; the median of that over passes is summed over the
               job list
  setup_s      median over all jobs and set-up probes of interpreter start
               to parser built
  peak_rss_mb  median over passes of the largest peak RSS of a job
  ok_ratio     jobs that passed every check / jobs attempted
The record line also gives `wall_s`, the same typical pass in seconds.
It is not a bounded metric: the CPU speed of the machine this benchmark was
defined on drifts so much from minute to minute that ten runs of unchanged
code spread by up to 27 % in seconds, against about 11 % in kernel units.

--trace 1 runs every job twice per pass, untraced and then traced (see
tracer.py), fails the traced job unless its stdout is byte-identical, and
reports the per-layer metrics, medians over passes: per entry point
`<module>.<entry>.self_s`, `.calls` and `.objects_out`, per module `.self_s`
and `.share` (self time over traced pass wall), plus `ncpart.accept_ratio`,
`closedform.calls`, `cli.wait_s` (untraced wall minus child CPU) and
`trace.overhead_s` (traced minus untraced wall of a typical pass).  When
the run ends, every span is written as a JSON line to
.bench_build/spans-<workload>-<seed>.jsonl in the checkout.

Stdout ends with a `{"record": ...}` line (machine facts, sample counts and
quartiles; compare.py reads these) and then the result line.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import reference
import spawn
import tracer
import workloads

# A run ends within 180 s even when jobs hang: jobs are killed at this mark.
HARD_LIMIT_S = 150.0
# Set-up probes per untraced pass (workloads.SETUP_PROBE): with jobs alone a
# run of algebra-paths gives about ten set-up samples.
SETUP_PROBES = 4
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_metrics() -> dict:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    out = {}
    for module, entries in tracer.ENTRIES.items():
        if module != "closedform":
            for entry in entries:
                key = f"{module}.{entry}"
                out.update({key + ".self_s": "s", key + ".calls": "count", key + ".objects_out": "count"})
    for module in tracer.ENTRIES:
        out.update({module + ".self_s": "s", module + ".share": "ratio"})
    out.update(
        {
            "closedform.calls": "count",
            "ncpart.accept_ratio": "ratio",
            "cli.wait_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(spawn.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "seed": seed,
    }


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def run_pass(jobs, rng, digests, traced: bool, failures: list, deadline: float) -> dict:
    order = list(jobs)
    rng.shuffle(order)
    out = {"walls": {}, "rel": {}, "traced_walls": {}, "ref": [], "cpu": 0.0, "wait": 0.0, "rss": 0.0, "setup": [],
           "traces": [], "attempted": 0, "failed": 0}
    started = time.perf_counter()

    def judge(job, result, untraced=None):
        out["attempted"] += 1
        if result.timed_out:
            reason = "timed out"
        elif result.returncode != 0:
            reason = f"exit code {result.returncode}"
        elif result.setup_s is None:
            reason = "no set-up record on stderr"
        elif untraced is not None and result.stdout != untraced:
            reason = "traced stdout differs from untraced stdout"
        else:
            reason = workloads.check_output(job, result.stdout, digests)
        if reason is not None:
            out["failed"] += 1
            failures.append(f"{job.key}{' (traced)' if untraced is not None else ''}: {reason}")

    def timeout():
        return max(0.0, min(spawn.TIMEOUT_S, deadline - time.perf_counter()))

    for _ in range(0 if traced else SETUP_PROBES):
        result = spawn.run_job(workloads.SETUP_PROBE, trace_id=None, timeout=timeout())
        judge(workloads.SETUP_PROBE, result)
        if result.setup_s is not None:
            out["setup"].append(result.setup_s)
    before = reference.sample()
    out["ref"].extend(before)
    for index, job in enumerate(order):
        result = spawn.run_job(job, trace_id=None, timeout=timeout())
        after = reference.sample()
        judge(job, result)
        out["walls"][job.key] = result.wall_s
        out["rel"][job.key] = result.wall_s / statistics.median(before + after)
        out["ref"].extend(after)
        before = after
        out["cpu"] += result.cpu_s
        out["wait"] += result.wall_s - result.cpu_s
        out["rss"] = max(out["rss"], result.rss_mb)
        if result.setup_s is not None:
            out["setup"].append(result.setup_s)
        if traced:
            trace_id = f"{started:.6f}-{index}"  # unique within the run
            traced_result = spawn.run_job(job, trace_id=trace_id, timeout=timeout())
            judge(job, traced_result, untraced=result.stdout)
            out["traced_walls"][job.key] = traced_result.wall_s
            if traced_result.trace is not None:
                out["traces"].append(traced_result.trace)
    out["duration"] = time.perf_counter() - started
    return out


def typical_wall(passes, field: str) -> float:
    """A typical pass: the sum over jobs of each job's median over passes.

    Taking the median per job before summing keeps a slow spell that hits
    one job in one pass out of the result.
    """
    keys = passes[0][field]
    return sum(statistics.median(p[field][key] for p in passes) for key in keys)


def layer_values(p: dict) -> dict:
    """Per-layer metric values of one traced pass."""
    agg = {}
    for trace in p["traces"]:
        for key, (calls, self_s, objects) in trace["agg"].items():
            a = agg.setdefault(key, [0, 0.0, 0])
            a[0] += calls
            a[1] += self_s
            a[2] += objects
    values = {}
    for module, entries in tracer.ENTRIES.items():
        keys = [f"{module}.{entry}" for entry in entries]
        for key in keys:
            calls, self_s, objects = agg.get(key, (0, 0.0, 0))
            values.update({key + ".self_s": self_s, key + ".calls": calls, key + ".objects_out": objects})
        module_self = sum(agg.get(key, (0, 0.0, 0))[1] for key in keys)
        values[module + ".self_s"] = module_self
        values[module + ".share"] = module_self / sum(p["traced_walls"].values())
        if module == "closedform":
            values["closedform.calls"] = sum(agg.get(key, (0,))[0] for key in keys)
    accepted = sum(trace["nc_accepted"] for trace in p["traces"])
    candidates = sum(trace["nc_candidates"] for trace in p["traces"])
    values["ncpart.accept_ratio"] = accepted / candidates if candidates else 0.0
    values["cli.wait_s"] = p["wait"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(spawn.ROOT, "src", "nclab", "cli.py")):
        print(f"error: no nclab sources under {spawn.ROOT}/src", file=sys.stderr)
        return 2
    # Build: byte-compile once, so no job pays for compiling the sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(spawn.ROOT, "src", "nclab")],
        check=True, stdout=subprocess.DEVNULL,
    )
    digests = workloads.load_digests()
    rng = random.Random(args.seed)
    jobs = workloads.WORKLOADS[args.workload](rng)
    traced = bool(args.trace)

    failures: list = []
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(
            run_pass(jobs, rng, digests, traced, failures, started + HARD_LIMIT_S)
        )
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1]["duration"] > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if traced:
        per_pass = [layer_values(p) for p in passes]
        samples = {name: [values[name] for values in per_pass] for name in per_pass[0]}
        medians = {name: statistics.median(values) for name, values in samples.items()}
        medians["trace.overhead_s"] = typical_wall(passes, "traced_walls") - typical_wall(passes, "walls")
        samples["pass_wall_s"] = [sum(p["walls"].values()) for p in passes]
        samples["traced_pass_wall_s"] = [sum(p["traced_walls"].values()) for p in passes]
        metrics = {
            name: {"value": medians[name], "unit": unit} for name, unit in layer_metrics().items()
        }
        os.makedirs(os.path.join(spawn.ROOT, ".bench_build"), exist_ok=True)
        spans_file = os.path.join(spawn.ROOT, ".bench_build", f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_file, "w") as fh:
            for p in passes:
                for trace in p["traces"]:
                    for span in trace["spans"]:
                        fh.write(json.dumps(span) + "\n")
    else:
        samples = {
            "pass_wall_s": [sum(p["walls"].values()) for p in passes],
            "pass_wall_rel": [sum(p["rel"].values()) for p in passes],
            "setup_s": [s for p in passes for s in p["setup"]] or [0.0],
            "peak_rss_mb": [p["rss"] for p in passes],
            "cpu_s": [p["cpu"] for p in passes],  # recorded only: tells drift from waiting
            "ref_s": [s for p in passes for s in p["ref"]],
        }
        values = {
            "wall_rel": typical_wall(passes, "rel"),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "wall_s": {"value": typical_wall(passes, "walls"), "unit": "s"},
        "jobs": [job.key for job in jobs],
        "machine": machine_facts(args.seed),
        "samples": {name: summary(values) for name, values in samples.items()},
        "failures": failures,
        "job_walls": {job.key: [p["walls"][job.key] for p in passes] for job in jobs},
    }
    if traced:
        record["spans_file"] = os.path.relpath(spans_file, spawn.ROOT)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
