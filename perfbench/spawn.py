"""Start one job's interpreter, wait for it and measure it from outside.

Wall time runs from just before the process is started until it has been
reaped, so it includes interpreter start.  CPU time is the growth of this
process's reaped-children resource usage across the call (jobs run one at a
time, so that is the job's own); peak RSS comes from the child's own record
(see child.py for why not ru_maxrss).
"""

import json
import os
import resource
import subprocess
import sys
import time
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MARK = b"\x1enclab-bench "
TIMEOUT_S = 60.0  # per job, unless the run has less time left


class JobResult(NamedTuple):
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: Optional[float]  # None when the child wrote no record
    trace: Optional[dict]
    timed_out: bool


def child_env() -> dict:
    """The caller's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_job(job, trace_id: Optional[str], timeout: float = TIMEOUT_S) -> JobResult:
    argv = [sys.executable, CHILD, job.kind, trace_id or "-"] + job.argv
    cpu_before = cpu_of_children()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout,
            env=child_env(), cwd=ROOT,
        )
        returncode, out, err, timed_out = proc.returncode, proc.stdout, proc.stderr, False
    except subprocess.TimeoutExpired as exc:  # the child has been killed and reaped
        returncode, out, err, timed_out = -9, exc.stdout or b"", exc.stderr or b"", True
    end = time.perf_counter()

    record = None
    for line in err.splitlines():
        if line.startswith(MARK):
            record = json.loads(line[len(MARK):])
    return JobResult(
        returncode=returncode,
        stdout=out,
        wall_s=end - start,
        cpu_s=cpu_of_children() - cpu_before,
        rss_mb=record["peak_rss_kb"] / 1024.0 if record else 0.0,
        setup_s=record["setup_at"] - start if record else None,
        trace=record.get("trace") if record else None,
        timed_out=timed_out,
    )
