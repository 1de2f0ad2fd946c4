"""One benchmark job in a fresh interpreter.

    python3 perfbench/child.py cli <trace id or -> <nclab arguments...>
    python3 perfbench/child.py lib <trace id or -> m_triangle <m> <n> <t>
    python3 perfbench/child.py setup -

`cli` runs the package exactly as `python -m nclab <arguments>` does.  `lib`
is the library runner for checks the command line does not expose: it
compares the brute M-triangle with the closed one exactly, prints the
polynomial and exits 1 on a mismatch.  `setup` stops after the set-up below
and prints `{"job":"setup"}`.

Before the job starts, `nclab.cli` is imported and its parser built; the
moment that finishes is the end of set-up.  With a trace id other than `-`,
the span recorder is installed first.  When the job ends, one line starting
with MARK goes to stderr with the set-up timestamp, the peak RSS of this
process image and the exported spans; stdout carries only the job's own
output.

The peak RSS is VmHWM, not ru_maxrss: Linux carries the high-water mark of
the image replaced at exec into ru_maxrss, so there it would also count the
parent's pages copied at fork.
"""

import json
import os
import resource
import runpy
import sys
import time

MARK = "\x1enclab-bench "
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args) -> int:
    sys.argv = ["nclab"] + args
    try:
        runpy.run_module("nclab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    return 0


def run_lib(args) -> int:
    from nclab import polyalg
    from nclab.params import Params

    name, m, n, t = args
    if name != "m_triangle":
        raise SystemExit(f"unknown library job {name!r}")
    p = Params(int(m), int(n), int(t))
    brute = polyalg.m_triangle_brute(p)
    match = brute == polyalg.m_triangle_closed(p)
    doc = {"job": name, "m": p.m, "n": p.n, "t": p.t, "match": match}
    doc.update(brute.to_json_dict())
    print(json.dumps(doc, separators=(",", ":")))
    return 0 if match else 1


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    kind, trace_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import nclab.cli

    nclab.cli.build_parser()
    setup_at = time.perf_counter()
    if not os.path.abspath(nclab.cli.__file__).startswith(SRC + os.sep):
        print(f"nclab was imported from {nclab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    recorder = None
    if trace_id != "-":
        import tracer

        recorder = tracer.Recorder(trace_id)
        recorder.install()
    try:
        if kind == "setup":
            print(json.dumps({"job": "setup"}, separators=(",", ":")))
            return 0
        return run_cli(args) if kind == "cli" else run_lib(args)
    finally:
        sys.stdout.flush()
        record = {"setup_at": setup_at, "peak_rss_kb": peak_rss_kb()}
        if recorder is not None:
            record["trace"] = recorder.export()
        sys.stderr.write(MARK + json.dumps(record, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
