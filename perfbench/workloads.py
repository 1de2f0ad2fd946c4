"""Job lists of the three benchmark workloads and the check for each job.

A job is one fresh interpreter: either the nclab command line or the
library runner in child.py.  The seed only shuffles the job order and draws
the rank increments of the `chains` jobs; those always sum to n - t, so the
poset work stays the same and the count is checked against the closed
formula, computed here independently of the program.

Stdout of every job whose input is fixed is also compared byte for byte
with a sha256 digest recorded on the seed commit (digests.json), because
byte-stable output is a fixed constraint of the program.

Run this file directly to print the digests of the current program:
    python3 perfbench/workloads.py > perfbench/digests.json
"""

import hashlib
import json
import os
import random
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_FILE = os.path.join(HERE, "digests.json")


class Job(NamedTuple):
    kind: str  # "cli" (python -m nclab ...) or "lib" (library runner)
    argv: List[str]
    check: Callable[[dict], Optional[str]]  # returns a reason on failure
    pinned: bool  # stdout must match the recorded digest

    @property
    def key(self) -> str:
        return " ".join([self.kind] + self.argv)


def total(m: int, n: int, t: int) -> int:
    """Closed total count (mt+1)/(mn+1) * C((m+1)n - t, n - t)."""
    value = Fraction(m * t + 1, m * n + 1) * comb((m + 1) * n - t, n - t)
    assert value.denominator == 1
    return int(value)


def multichains(m: int, n: int, t: int, s: List[int]) -> int:
    """Closed count of multichains with rank increments s (sum n - t)."""
    value = Fraction(t * (m * n - t + 1) - s[-1] * (t - 1), n * (m * n - t + 1))
    value *= comb(n, s[0]) * comb(m * n - t + 1, s[-1])
    for si in s[1:-1]:
        value *= comb(m * n, si)
    assert value.denominator == 1
    return int(value)


def _triples(m_range, n_range) -> List[tuple]:
    return [(m, n, t) for m in m_range for n in n_range for t in range(1, n + 1)]


def _check_count(m: int, n: int, t: int, by: str) -> Callable[[dict], Optional[str]]:
    def check(doc: dict) -> Optional[str]:
        if (doc.get("command"), doc.get("m"), doc.get("n"), doc.get("t"), doc.get("by")) != (
            "count", m, n, t, by,
        ):
            return "header does not echo the job"
        if doc.get("all_match") is not True:
            return "all_match is not true"
        rows = doc["rows"]
        if any(r["match"] is not True or r["formula"] != r["brute"] for r in rows):
            return "a row's formula and brute count differ"
        if by == "rank" and [r["s"] for r in rows] != list(range(n - t + 1)):
            return "rank rows do not cover 0..n-t"
        if sum(int(r["brute"]) for r in rows) != total(m, n, t):
            return "row counts do not sum to the closed total"
        return None

    return check


def _check_chains(m: int, n: int, t: int, ranks: List[int]) -> Callable[[dict], Optional[str]]:
    targets = [sum(ranks[: i + 1]) for i in range(len(ranks) - 1)]
    expected = str(multichains(m, n, t, ranks))

    def check(doc: dict) -> Optional[str]:
        if doc.get("command") != "chains" or doc.get("increments") != ranks:
            return "header does not echo the job"
        if doc.get("targets") != targets:
            return f"targets {doc.get('targets')} differ from {targets}"
        if doc.get("match") is not True or doc["formula"] != doc["brute"]:
            return "formula and poset DP differ"
        if doc["brute"] != expected:
            return f"count {doc['brute']} differs from the closed formula {expected}"
        return None

    return check


def _check_verify(triples: List[tuple], counted: bool = False) -> Callable[[dict], Optional[str]]:
    def check(doc: dict) -> Optional[str]:
        rows = doc.get("rows", [])
        if [(r["m"], r["n"], r["t"]) for r in rows] != triples:
            return "rows do not cover the requested range"
        if doc.get("command") == "verify" and doc.get("all_pass") is not True:
            return "all_pass is not true"
        if any(r["pass"] is not True for r in rows):
            return "a row does not pass"
        if counted:
            for r in rows:
                expected = str(total(r["m"], r["n"], r["t"]))
                if str(r.get("enumerated", r.get("objects"))) != expected:
                    return f"row {r} does not count {expected} objects"
        return None

    return check


def _check_m_triangle(doc: dict) -> Optional[str]:
    if doc.get("match") is not True or not doc.get("terms"):
        return "brute M-triangle differs from the closed one"
    return None


def _draw_ranks(rng: random.Random, d: int) -> List[int]:
    """A composition of d into 2..4 non-negative parts."""
    parts = rng.randint(2, 4)
    cuts = sorted(rng.randint(0, d) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [d])]


def _cli(argv: str, check, pinned: bool = True) -> Job:
    return Job("cli", argv.split(), check, pinned)


def partitions(rng: random.Random) -> List[Job]:
    r1, r2 = _draw_ranks(rng, 7), _draw_ranks(rng, 4)
    return [
        _cli("count --m 1 --n 10 --t 1 --by rank", _check_count(1, 10, 1, "rank")),
        _cli("count --m 2 --n 7 --t 2 --by profile", _check_count(2, 7, 2, "profile")),
        _cli(
            "chains --m 1 --n 8 --t 1 --ranks " + ",".join(map(str, r1)),
            _check_chains(1, 8, 1, r1),
            pinned=False,
        ),
        _cli(
            "chains --m 2 --n 6 --t 2 --ranks " + ",".join(map(str, r2)),
            _check_chains(2, 6, 2, r2),
            pinned=False,
        ),
        Job("lib", ["m_triangle", "1", "8", "1"], _check_m_triangle, True),
    ]


def filter_chains(rng: random.Random) -> List[Job]:
    m2n6 = _triples([2], [6])
    return [
        _cli("verify --suite conj-h --range m=2,n=6,t=1..n", _check_verify(m2n6)),
        _cli("verify --suite conj-count --range m=2,n=6,t=1..n", _check_verify(m2n6, True)),
        _cli("verify --suite lemma54 --range m=3,n=5,t=1..n", _check_verify(_triples([3], [5]))),
    ]


def algebra_paths(rng: random.Random) -> List[Job]:
    return [
        _cli(
            "sweep --do verify --suite identities --range m=1..4,n=1..7,t=1..n",
            _check_verify(_triples(range(1, 5), range(1, 8))),
        ),
        _cli("verify --suite bijection", _check_verify(_triples([1], range(1, 8)), True)),
    ]


# Does only the set-up every job does (import nclab.cli, build the parser),
# then prints one fixed document: run.py starts a few per pass, so that
# `setup_s` rests on more samples than a workload has jobs.
SETUP_PROBE = Job(
    "setup", [], lambda doc: None if doc == {"job": "setup"} else "unexpected document", False
)

WORKLOADS: Dict[str, Callable[[random.Random], List[Job]]] = {
    "partitions": partitions,
    "filter-chains": filter_chains,
    "algebra-paths": algebra_paths,
}


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def check_output(job: Job, stdout: bytes, digests: Dict[str, str]) -> Optional[str]:
    """None when the job's stdout is correct, else the reason it is not."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        reason = job.check(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        return f"stdout lacks an expected field: {exc!r}"
    if reason is None and job.pinned:
        digest = hashlib.sha256(stdout).hexdigest()
        if digests.get(job.key) != digest:
            return f"stdout digest {digest[:12]} differs from the recorded one"
    return reason


if __name__ == "__main__":
    import spawn

    out = {}
    for make in WORKLOADS.values():
        for job in make(random.Random(0)):
            if job.pinned:
                result = spawn.run_job(job, trace_id=None)
                if result.returncode != 0 or job.check(json.loads(result.stdout)):
                    raise SystemExit(f"job {job.key} fails; no digest recorded")
                out[job.key] = hashlib.sha256(result.stdout).hexdigest()
    print(json.dumps(out, indent=1, sort_keys=True))
