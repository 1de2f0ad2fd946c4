"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the captured stdout of one or more runs of run.py (append
them with `>>`).  Runs are paired by (workload, trace, seed), so run both
sides on the same seeds.  For every (workload, metric) the script prints
each side's median and quartiles over its runs, the change's median as a
ratio of the base median with the base beside it, and the pair win-rate:
the share of pairs in which the change is better, ties counting for
neither.  Which direction is better comes from BENCHMARK.json.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """(workload, trace, seed) -> metric values of that run."""
    runs = {}
    record = None
    with open(path) as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            if "record" in doc:
                record = doc["record"]
            elif "metrics" in doc and record is not None:
                key = (record["workload"], record["trace"], record["machine"]["seed"])
                runs[key] = {name: m["value"] for name, m in doc["metrics"].items()}
                record = None
    return runs


def directions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load_runs(argv[0]), load_runs(argv[1])
    better = directions()
    pairs = sorted(set(base) & set(change))
    if not pairs:
        print("no run appears in both files (same workload, trace and seed)", file=sys.stderr)
        return 2
    groups = sorted({(w, t) for w, t, _ in pairs})
    print(f"{'workload':14} {'metric':56} {'base q1/med/q3':>30} {'change q1/med/q3':>30}"
          f" {'ratio (of base)':>26} {'win-rate':>9}")
    for workload, trace in groups:
        keys = [k for k in pairs if k[:2] == (workload, trace)]
        for name in base[keys[0]]:
            b = [base[k][name] for k in keys if name in change[k]]
            c = [change[k][name] for k in keys if name in change[k]]
            if not b:
                continue
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            bq, cq = quartiles(b), quartiles(c)
            ratio = f"{cq[1] / bq[1]:.3f} (of {bq[1]:.4g})" if bq[1] else f"n/a (of {bq[1]:.4g})"
            print(
                f"{workload:14} {name:56} "
                f"{bq[0]:>9.4g}/{bq[1]:>9.4g}/{bq[2]:>9.4g} "
                f"{cq[0]:>9.4g}/{cq[1]:>9.4g}/{cq[2]:>9.4g} "
                f"{ratio:>26} {wins}/{len(b):<7}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
