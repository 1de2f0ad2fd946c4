"""Span recorder for the traced run, installed from outside the program.

`Recorder.install()` replaces each public entry point listed in ENTRIES by a
timing wrapper, in every nclab module namespace that binds it (for example
`posetcore.enumerate_nc` as well as `ncpart.enumerate_nc`), and methods on
their class.  Nothing under src/ is edited, and the wrapper returns what the
wrapped call returned, so stdout stays byte-identical.

Each call pushes a frame.  When it returns, its self time is its duration
minus the durations of the traced calls made inside it (calls are nested and
single-threaded, so the children never overlap).  Calls of entries in LEAVES
are hot and call no other entry; they are only aggregated (calls, self time,
objects out).  The other calls are also kept as spans in memory,
(trace id, span id, parent span id, entry, start, end, self), and handed out
by `export()` when the job ends.
"""

import functools
import sys
import time
from typing import Dict, List

# module -> public entry points ("Class.method" for methods)
ENTRIES: Dict[str, List[str]] = {
    "ncpart": ["enumerate_nc", "tilde_transform", "rank_of", "block_profile"],
    "posetcore": [
        "build_refinement_poset",
        "FinitePoset.__init__",
        "FinitePoset.covers",
        "FinitePoset.count_rank_multichains",
        "FinitePoset.assert_graded",
    ],
    "nonnest": ["enumerate_nn", "nn_poset", "h_tilde", "all_t_filters", "verify_conjectures"],
    "polyalg": [
        "substitute",
        "verify_transformation_identities",
        "m_triangle_brute",
        "m_triangle_closed",
        "f_triangle_closed",
        "h_triangle_closed",
    ],
    "dyckmodel": ["ddom_leq", "theta", "theta_inverse", "enumerate_tdyck"],
    "closedform": ["total_count", "count_by_rank", "count_by_profile", "multichain_count_formula"],
    "cli": ["main"],
}

LEAVES = {
    "ncpart.tilde_transform",
    "ncpart.rank_of",
    "ncpart.block_profile",
    "polyalg.substitute",
    "dyckmodel.ddom_leq",
    "dyckmodel.theta",
    "dyckmodel.theta_inverse",
    "closedform.total_count",
    "closedform.count_by_rank",
    "closedform.count_by_profile",
    "closedform.multichain_count_formula",
}


def objects_out(result) -> int:
    """Objects a call handed back: its length, poset size or term count.

    A predicate counts 1 when true, None counts 0 and any other single value
    counts 1.
    """
    if result is None:
        return 0
    if isinstance(result, bool):
        return int(result)
    if hasattr(result, "__len__"):
        return len(result)
    if hasattr(result, "poset"):
        return len(result.poset)
    if hasattr(result, "terms"):
        return len(result.terms())
    return 1


class Recorder:
    """Per-process span store; one trace id per job."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[tuple] = []
        self.agg: Dict[str, List[float]] = {}  # entry -> [calls, self_s, objects_out]
        self.nc_accepted: Dict[tuple, int] = {}  # (m, n, t) -> |enumerate_nc|
        self._stack: List[list] = []
        self._next_id = 0
        self._total_count = None

    def install(self) -> None:
        import nclab.cli  # noqa: F401  (loads every nclab module)

        self._total_count = sys.modules["nclab.closedform"].total_count
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "nclab"]
        for mod_name, entries in ENTRIES.items():
            home = sys.modules["nclab." + mod_name]
            for entry in entries:
                key = f"{mod_name}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr)
                wrapped = self._wrap(key, original)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    def _wrap(self, key: str, fn):
        stack = self._stack
        spans = self.spans
        agg = self.agg.setdefault(key, [0, 0.0, 0])
        leaf = key in LEAVES
        init = key.endswith(".__init__")  # counts the elements it stored
        clock = time.perf_counter
        trace_id = self.trace_id
        accepted = self.nc_accepted if key == "ncpart.enumerate_nc" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                agg[0] += 1
                agg[1] += self_s
                agg[2] += len(getattr(args[0], "elements", ())) if init else objects_out(result)
                if not leaf:
                    spans.append((trace_id, span_id, parent, key, start, end, self_s))
                if accepted is not None and result is not None:
                    p = args[0]
                    accepted[(p.m, p.n, p.t)] = len(result)

        return traced

    def export(self) -> dict:
        """Spans and per-entry totals of this job, as JSON-ready data."""
        params = sys.modules["nclab.params"].Params
        candidates = sum(self._total_count(params(m, n, 1)) for m, n, _ in self.nc_accepted)
        return {
            "trace_id": self.trace_id,
            "spans": self.spans,
            "agg": self.agg,
            "nc_accepted": sum(self.nc_accepted.values()),
            "nc_candidates": candidates,
        }
