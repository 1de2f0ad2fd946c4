"""Command-line surface for enumeration, counting and verification jobs.

All output is machine-readable and deterministic for a fixed invocation:
object streams are JSON lines, polynomials and reports single JSON
documents, and sweep tables optionally CSV.  Counts and coefficients are
printed as decimal strings so arbitrary precision survives the trip.

Exit status: 0 when every requested check passes, 1 on any mismatch, and 2
on usage, parameter, or resource errors.
"""

import argparse
import io
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import closedform, dyckmodel, ncpart, nonnest, polyalg, posetcore
from .errors import (
    DomainError,
    InvariantViolation,
    ParameterError,
    ResourceLimitError,
)
from .params import Params

DEFAULT_MAX_OBJECTS = ncpart.DEFAULT_MAX_OBJECTS
ENV_MAX_OBJECTS = "NC_LAB_MAX_OBJECTS"


def _resolve_cap(value: Optional[int]) -> int:
    if value is not None:
        if value < 1:
            raise ParameterError(f"--max-objects must be positive, got {value}")
        return value
    env = os.environ.get(ENV_MAX_OBJECTS)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ParameterError(
                f"{ENV_MAX_OBJECTS} must be an integer, got {env!r}"
            ) from None
        if cap < 1:
            raise ParameterError(f"{ENV_MAX_OBJECTS} must be positive, got {cap}")
        return cap
    return DEFAULT_MAX_OBJECTS


def _parse_range(spec: str) -> List[Params]:
    """Expand 'm=1..3,n=2..6,t=1..n' into parameter triples in sorted order.

    Each variable takes either a single value or an inclusive range a..b;
    the upper bound of t may be the literal 'n'.  Omitted variables default
    to m=1, n=1..6, t=1..n; a variable given twice is an error.
    """
    bounds: Dict[str, Tuple[str, str]] = {"m": ("1", "1"), "n": ("1", "6"), "t": ("1", "n")}
    given = set()
    if spec:
        for chunk in spec.split(","):
            if "=" not in chunk:
                raise ParameterError(f"range chunk {chunk!r} is not of the form var=a..b")
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in bounds:
                raise ParameterError(f"unknown range variable {key!r}")
            if key in given:
                raise ParameterError(f"range variable {key!r} is given more than once")
            given.add(key)
            value = value.strip()
            if ".." in value:
                low, _, high = value.partition("..")
            else:
                low = high = value
            bounds[key] = (low.strip(), high.strip())

    def resolve(token: str, n: Optional[int]) -> int:
        if token == "n":
            if n is None:
                raise ParameterError("only the bounds of t may refer to n")
            return n
        try:
            return int(token)
        except ValueError:
            raise ParameterError(f"range bound {token!r} is not an integer") from None

    triples = []
    m_low, m_high = (resolve(tok, None) for tok in bounds["m"])
    n_low, n_high = (resolve(tok, None) for tok in bounds["n"])
    for m in range(m_low, m_high + 1):
        for n in range(n_low, n_high + 1):
            t_low = resolve(bounds["t"][0], n)
            t_high = resolve(bounds["t"][1], n)
            for t in range(t_low, min(t_high, n) + 1):
                triples.append(Params(m, n, t))
    if not triples:
        raise ParameterError(f"the range {spec!r} is empty")
    return triples


def _print_json(data: dict) -> None:
    print(json.dumps(data, separators=(",", ":")))


def _params_from_args(args) -> Params:
    return Params(args.m, args.n, args.t)


def _check_path_cap(p: Params, cap: int) -> None:
    """Guard a job over the paths of length 2n, counted by total_count at m = 1."""
    predicted = closedform.total_count(Params(1, p.n, p.t))
    ncpart.check_cap(predicted, cap, f"{predicted} paths for n={p.n}, t={p.t}")


def cmd_enumerate(args) -> int:
    cap = _resolve_cap(args.max_objects)
    p = _params_from_args(args)
    if args.kind == "nc":
        for part in ncpart.enumerate_nc(p, max_objects=cap):
            print(part.to_json())
    elif args.kind == "nn":
        for chain in nonnest.enumerate_nn(p, variant=args.variant, max_objects=cap):
            print(chain.to_json())
    else:
        _check_path_cap(p, cap)
        for path in dyckmodel.enumerate_tdyck(p.n, p.t):
            print(path.to_json(p.t))
    return 0


def _count_rows(p: Params, by: str, cap: int) -> List[dict]:
    tally = ncpart.census(p, by, max_objects=cap)
    rows = []
    if by == "total":
        formula = closedform.total_count(p)
        brute = tally["total"]
        rows.append(
            {"key": "total", "formula": str(formula), "brute": str(brute), "match": formula == brute}
        )
    elif by == "rank":
        for s in range(p.max_rank + 1):
            formula = closedform.count_by_rank(p, s)
            brute = tally[s]
            rows.append(
                {"s": s, "formula": str(formula), "brute": str(brute), "match": formula == brute}
            )
    else:
        for profile in closedform.profiles(p.n):
            formula = closedform.count_by_profile(p, profile)
            brute = tally[profile]
            rows.append(
                {
                    "profile": list(profile),
                    "formula": str(formula),
                    "brute": str(brute),
                    "match": formula == brute,
                }
            )
    return rows


def cmd_count(args) -> int:
    cap = _resolve_cap(args.max_objects)
    p = _params_from_args(args)
    rows = _count_rows(p, args.by, cap)
    all_match = all(row["match"] for row in rows)
    _print_json(
        {
            "command": "count",
            "m": p.m,
            "n": p.n,
            "t": p.t,
            "by": args.by,
            "rows": rows,
            "all_match": all_match,
        }
    )
    return 0 if all_match else 1


def cmd_chains(args) -> int:
    cap = _resolve_cap(args.max_objects)
    p = _params_from_args(args)
    try:
        increments = tuple(int(chunk) for chunk in args.ranks.split(","))
    except ValueError:
        raise ParameterError(f"--ranks must be a comma list of integers, got {args.ranks!r}")
    if len(increments) < 2:
        raise ParameterError("--ranks needs at least two entries (s_1, ..., s_{l+1})")
    l = len(increments) - 1
    formula = closedform.multichain_count_formula(p, l, increments)
    poset = posetcore.build_refinement_poset(p, max_objects=cap)
    targets = []
    acc = 0
    for si in increments[:-1]:
        acc += si
        targets.append(acc)
    brute = poset.count_rank_multichains(targets)
    match = formula == brute
    _print_json(
        {
            "command": "chains",
            "m": p.m,
            "n": p.n,
            "t": p.t,
            "increments": list(increments),
            "targets": targets,
            "formula": str(formula),
            "brute": str(brute),
            "match": match,
        }
    )
    return 0 if match else 1


def _triangle_poly(which: str, p: Params, cap: int) -> polyalg.BivariatePolynomial:
    if which == "m":
        return polyalg.m_triangle_closed(p)
    if which == "f":
        return polyalg.f_triangle_closed(p)
    if which == "h":
        return polyalg.h_triangle_closed(p)
    return nonnest.h_tilde(p, max_objects=cap)


def cmd_triangle(args) -> int:
    cap = _resolve_cap(args.max_objects)
    p = _params_from_args(args)
    print(_triangle_poly(args.which, p, cap).to_json())
    return 0


def _identities_row(p: Params, variant: str, cap: int) -> dict:
    try:
        results, alt_holds = polyalg.verify_transformation_identities(p)
    except InvariantViolation as exc:
        return {"m": p.m, "n": p.n, "t": p.t, "error": str(exc), "pass": False}
    row = {"m": p.m, "n": p.n, "t": p.t, **dict(results), "h_from_m_alt_prefactor": alt_holds}
    return {**row, "pass": all(ok for _, ok in results)}


def _conj_count_row(p: Params, variant: str, cap: int) -> dict:
    enumerated = len(nonnest._raw_chains(p, variant, cap))
    formula = closedform.total_count(p)
    return {
        "m": p.m,
        "n": p.n,
        "t": p.t,
        "variant": variant,
        "enumerated": str(enumerated),
        "formula": str(formula),
        "pass": enumerated == formula,
    }


def _conj_h_row(p: Params, variant: str, cap: int) -> dict:
    ok = nonnest.h_tilde(p, variant=variant, max_objects=cap) == polyalg.h_triangle_closed(p)
    return {"m": p.m, "n": p.n, "t": p.t, "variant": variant, "pass": ok}


def _bijection_row(p: Params, variant: str, cap: int) -> dict:
    if p.m != 1:
        raise ParameterError("the bijection suite runs at m=1 only")
    _check_path_cap(p, cap)
    objects = len(nonnest._tfilter_masks(p.n, p.t))
    ok = dyckmodel.bijection_holds(p.n, p.t)
    return {"m": 1, "n": p.n, "t": p.t, "objects": objects, "pass": ok}


def _lemma54_row(p: Params, variant: str, cap: int) -> dict:
    covers, violations = nonnest.certify_lemma54(p, variant=variant, max_objects=cap)
    return {
        "m": p.m,
        "n": p.n,
        "t": p.t,
        "variant": variant,
        "covers": covers,
        "violations": len(violations),
        "pass": not violations,
    }


# suite -> (default range, row function (p, variant, max_objects) -> row)
_SUITES: Dict[str, Tuple[str, Callable[[Params, str, int], dict]]] = {
    "identities": ("m=1..3,n=1..6,t=1..n", _identities_row),
    "conj-count": ("m=2..3,n=1..5,t=1..n", _conj_count_row),
    "conj-h": ("m=1,n=1..7,t=1..n", _conj_h_row),
    "bijection": ("m=1,n=1..7,t=1..n", _bijection_row),
    "lemma54": ("m=1..3,n=1..5,t=1..n", _lemma54_row),
}


def cmd_verify(args) -> int:
    cap = _resolve_cap(args.max_objects)
    default_range, make_row = _SUITES[args.suite]
    triples = _parse_range(args.range if args.range is not None else default_range)
    rows = [make_row(p, args.variant, cap) for p in triples]
    all_pass = all(row["pass"] for row in rows)
    _print_json(
        {
            "command": "verify",
            "suite": args.suite,
            "variant": args.variant,
            "rows": rows,
            "all_pass": all_pass,
        }
    )
    return 0 if all_pass else 1


def _sweep_one(task) -> List[dict]:
    do, m, n, t, by, which, suite, variant, cap = task
    p = Params(m, n, t)
    if do == "count":
        rows = _count_rows(p, by, cap)
        for row in rows:
            row.update({"m": m, "n": n, "t": t})
        return rows
    if do == "triangle":
        poly = _triangle_poly(which, p, cap)
        return [{"m": m, "n": n, "t": t, "which": which, "terms": poly.to_json()}]
    return [_SUITES[suite][1](p, variant, cap)]


def cmd_sweep(args) -> int:
    cap = _resolve_cap(args.max_objects)
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be at least 1, got {args.jobs}")
    triples = _parse_range(args.range or "")
    tasks = [
        (args.do, p.m, p.n, p.t, args.by, args.which, args.suite, args.variant, cap)
        for p in triples
    ]
    # The pool forks all its workers up front, so never more than there are tasks.
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        # Imported here: the pool machinery would add to every command's start-up.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(_sweep_one, tasks))
        except BrokenProcessPool as exc:  # a worker died, e.g. killed for memory
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        chunks = [_sweep_one(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    exit_code = 0
    for row in rows:
        if row.get("match") is False or row.get("pass") is False:
            exit_code = 1
    if args.format == "csv":
        import csv  # here, not at the top: only this branch pays for it at start-up

        buffer = io.StringIO()
        fields: List[str] = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(buffer, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: json.dumps(v) if isinstance(v, (list, dict)) else v for k, v in row.items()}
            )
        sys.stdout.write(buffer.getvalue())
    else:
        _print_json({"command": "sweep", "do": args.do, "rows": rows})
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclab",
        description="Exact enumeration and verification for the order-t non-crossing families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(sp):
        sp.add_argument(
            "--max-objects",
            type=int,
            default=None,
            help=f"refuse jobs whose predicted size exceeds this cap "
            f"(default {DEFAULT_MAX_OBJECTS}, env {ENV_MAX_OBJECTS})",
        )

    def add_mnt(sp):
        sp.add_argument("--m", type=int, required=True, help="divisibility parameter")
        sp.add_argument("--n", type=int, required=True, help="size parameter")
        sp.add_argument("--t", type=int, required=True, help="separation parameter")

    sp = sub.add_parser("enumerate", help="emit objects as JSON lines")
    add_mnt(sp)
    sp.add_argument("--kind", choices=("nc", "nn", "dyck"), default="nc")
    sp.add_argument("--variant", choices=nonnest.VARIANTS, default="paper")
    add_cap(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("count", help="closed formula vs. brute census")
    add_mnt(sp)
    sp.add_argument("--by", choices=("rank", "profile", "total"), default="total")
    add_cap(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("chains", help="rank-selected chain formula vs. poset DP")
    add_mnt(sp)
    sp.add_argument(
        "--ranks",
        required=True,
        help="comma list s1,...,s_{l+1} of rank increments summing to n-t",
    )
    add_cap(sp)
    sp.set_defaults(func=cmd_chains)

    sp = sub.add_parser("triangle", help="emit a triangle polynomial as JSON")
    add_mnt(sp)
    sp.add_argument("--which", choices=("m", "f", "h", "htilde"), required=True)
    add_cap(sp)
    sp.set_defaults(func=cmd_triangle)

    sp = sub.add_parser("verify", help="run a pass/fail verification suite")
    sp.add_argument("--suite", choices=_SUITES, required=True)
    sp.add_argument("--range", default=None, help="for example m=1..3,n=1..6,t=1..n")
    sp.add_argument("--variant", choices=nonnest.VARIANTS, default="paper")
    add_cap(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="run count/triangle/verify over a parameter grid")
    sp.add_argument("--do", choices=("count", "triangle", "verify"), required=True)
    sp.add_argument("--range", default=None, help="for example m=1..2,n=1..5,t=1..n")
    sp.add_argument("--by", choices=("rank", "profile", "total"), default="total")
    sp.add_argument("--which", choices=("m", "f", "h", "htilde"), default="h")
    sp.add_argument("--suite", choices=_SUITES, default="identities")
    sp.add_argument("--variant", choices=nonnest.VARIANTS, default="paper")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per triple")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_cap(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParameterError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
