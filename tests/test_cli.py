import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from nclab import cli, closedform, dyckmodel, ncpart, nonnest, polyalg, posetcore
from nclab.cli import main
from nclab.errors import InvariantViolation
from nclab.params import Params

GOLDEN_H_232 = '{"terms":[{"x":0,"y":0,"c":"3"},{"x":1,"y":0,"c":"1"},{"x":1,"y":1,"c":"1"}]}'


def exit_worker(task):
    os._exit(1)


def refuse_poset(*args, **kwargs):
    raise AssertionError("built a poset or a filter")


def refuse_object(*args, **kwargs):
    raise AssertionError("built a partition, filter, chain or path object")


# Every (m, n) with mn <= 8.
SMALL = [(m, n) for m in range(1, 9) for n in range(1, 8 // m + 1)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangle:
    def test_golden_h_232(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--which", "h", "--m", "2", "--n", "3", "--t", "2")
        assert code == 0
        assert out == GOLDEN_H_232 + "\n"

    def test_htilde_142(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--which", "htilde", "--m", "1", "--n", "4", "--t", "2"
        )
        assert code == 0
        assert out.strip() == (
            '{"terms":[{"x":0,"y":0,"c":"1"},{"x":1,"y":0,"c":"3"},{"x":1,"y":1,"c":"2"},'
            '{"x":2,"y":0,"c":"1"},{"x":2,"y":1,"c":"1"},{"x":2,"y":2,"c":"1"}]}'
        )

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "triangle", "--which", "f", "--m", "2", "--n", "3", "--t", "1")
        _, second, _ = run_cli(capsys, "triangle", "--which", "f", "--m", "2", "--n", "3", "--t", "1")
        assert first == second


class TestCount:
    def test_total_golden(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--t", "2", "--by", "total")
        assert code == 0
        data = json.loads(out)
        assert data["rows"] == [
            {"key": "total", "formula": "5", "brute": "5", "match": True}
        ]
        assert data["all_match"]

    def test_by_rank(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "1", "--n", "4", "--t", "2", "--by", "rank")
        assert code == 0
        data = json.loads(out)
        assert [row["formula"] for row in data["rows"]] == ["1", "5", "3"]
        assert data["all_match"]

    def test_by_profile(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--n", "3", "--t", "2", "--by", "profile")
        assert code == 0
        data = json.loads(out)
        by_profile = {tuple(row["profile"]): row["formula"] for row in data["rows"]}
        assert by_profile == {(3, 0, 0): "3", (1, 1, 0): "2", (0, 0, 1): "0"}

    def test_one_block_of_a_thousand_points(self, capsys):
        # The first-block walk keeps no frame per block member, so the one
        # partition of (1000, 1, 1), a single block, is counted.
        code, out, _ = run_cli(capsys, "count", "--m", "1000", "--n", "1", "--t", "1")
        assert code == 0
        assert json.loads(out)["rows"] == [{"key": "total", "formula": "1", "brute": "1", "match": True}]


class TestEnumerate:
    def test_nc_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3", "--t", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first == {"n": 6, "blocks": [[1, 3], [2, 4], [5, 6]]}

    def test_nn_lines_variants(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "2", "--n", "3", "--t", "2", "--kind", "nn"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "2", "--n", "3", "--t", "2",
            "--kind", "nn", "--variant", "adapted",
        )
        assert len(out.strip().split("\n")) == 6

    def test_dyck_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "1", "--n", "4", "--t", "2", "--kind", "dyck"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert len(lines) == 9
        assert all(line["n"] == 4 and line["t"] == 2 for line in lines)

    @pytest.mark.parametrize("variant", nonnest.VARIANTS)
    def test_lines_decode_to_the_objects_in_order(self, capsys, variant):
        # The printed raw forms decode, line for line, to enumerate_nc,
        # enumerate_nn and enumerate_tdyck; the chains' order is checked
        # against its own key, sorted pair tuples per component.
        for m, n in SMALL:
            for t in range(1, n + 1):
                p = Params(m, n, t)
                lines = {}
                for kind in ("nc", "nn", "dyck"):
                    argv = ("enumerate", "--kind", kind, "--variant", variant)
                    code, out, err = run_cli(capsys, *argv, "--m", str(m), "--n", str(n), "--t", str(t))
                    assert (code, err) == (0, ""), (kind, p)
                    lines[kind] = [json.loads(line) for line in out.splitlines()]
                assert [(d["n"], ncpart.SetPartition(d["blocks"])) for d in lines["nc"]] == [
                    (m * n, part) for part in ncpart.enumerate_nc(p)
                ], p
                decoded = [
                    (d["m"], tuple(frozenset(map(tuple, pairs)) for pairs in d["filters"]))
                    for d in lines["nn"]
                ]
                chains = nonnest.enumerate_nn(p, variant=variant)
                assert decoded == [(m, tuple(f.pairs for f in c.filters)) for c in chains], p
                keys = [tuple(tuple(sorted(pairs)) for pairs in filters) for _, filters in decoded]
                assert keys == sorted(keys), p
                assert [(d["n"], d["t"], dyckmodel.DyckPath(d["steps"])) for d in lines["dyck"]] == [
                    (n, t, path) for path in dyckmodel.enumerate_tdyck(n, t)
                ], p

    def test_prints_raw_forms_without_objects(self, capsys, monkeypatch):
        for cls in (ncpart.SetPartition, nonnest.TFilter, nonnest.FilterChain, dyckmodel.DyckPath):
            monkeypatch.setattr(cls, "__init__", refuse_object)
        monkeypatch.setattr(ncpart.SetPartition, "_trusted", refuse_object)
        for kind, count in (("nc", 12), ("nn", 12), ("dyck", 5)):
            code, out, _ = run_cli(capsys, "enumerate", "--kind", kind, "--m", "2", "--n", "3", "--t", "1")
            assert (code, len(out.splitlines())) == (0, count), kind


class TestChains:
    def test_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "chains", "--m", "1", "--n", "3", "--t", "1", "--ranks", "1,1,0"
        )
        assert code == 0
        data = json.loads(out)
        assert data["formula"] == "3" and data["brute"] == "3" and data["match"]

    def test_bad_sum_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "chains", "--m", "1", "--n", "3", "--t", "1", "--ranks", "1,0,0"
        )
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_conj_h_m1_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-h", "--range", "m=1,n=2..6,t=1..n"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"]
        assert len(data["rows"]) == 20

    def test_identities_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--range", "m=1..2,n=1..3,t=1..n"
        )
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_bijection_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "bijection", "--range", "m=1,n=1..4,t=1..n"
        )
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_lemma54_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemma54", "--range", "m=1..2,n=2..3,t=1..n"
        )
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_conj_count_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-count", "--range", "m=2..3,n=1..3,t=1..n"
        )
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_conj_count_builds_no_poset(self, capsys, monkeypatch):
        monkeypatch.setattr(posetcore, "FinitePoset", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-count", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert all(row["pass"] for row in json.loads(out)["rows"])

    def test_lemma54_builds_no_poset(self, capsys, monkeypatch):
        monkeypatch.setattr(posetcore, "FinitePoset", refuse_poset)
        monkeypatch.setattr(nonnest, "_filter_from_mask", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemma54", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert [row["covers"] for row in json.loads(out)["rows"]] == [15, 4, 0]

    def test_conj_h_builds_no_poset(self, capsys, monkeypatch):
        monkeypatch.setattr(posetcore, "FinitePoset", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-h", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert all(row["pass"] for row in json.loads(out)["rows"])

    def test_m_triangle_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "m-triangle", "--range", "m=1..2,n=1..4,t=1..n"
        )
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] and len(data["rows"]) == 20

    def test_m_triangle_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(polyalg, "m_triangle_closed", lambda p: polyalg.ONE)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "m-triangle", "--range", "m=1,n=1..2,t=1"
        )
        assert code == 1
        assert [row["pass"] for row in json.loads(out)["rows"]] == [True, False]


def rows_or_refusal(make_rows):
    """The rows make_rows() returns, or the message of the InvariantViolation it raises."""
    try:
        return make_rows()
    except InvariantViolation as exc:
        return str(exc)


class TestGroups:
    # A row function serves one (m, n) group; its rows are the ones it gives
    # when called once per triple of the group.
    SIZES = [(m, n) for m in range(1, 11) for n in range(1, 10 // m + 1)]

    def test_groups_keep_the_triple_order(self):
        triples = cli._parse_range("m=1..2,n=2..3,t=2..n")
        assert cli._groups(triples) == [(1, 2, (2,)), (1, 3, (2, 3)), (2, 2, (2,)), (2, 3, (2, 3))]
        assert [p for m, n, ts in cli._groups(triples) for p in (Params(m, n, t) for t in ts)] == (
            triples
        )

    @pytest.mark.parametrize("variant", nonnest.VARIANTS)
    @pytest.mark.parametrize("suite", ["conj-count", "conj-h", "lemma54", "m-triangle"])
    def test_group_rows_equal_triple_rows(self, suite, variant):
        make_rows, cap = cli._SUITES[suite][1], cli.DEFAULT_MAX_OBJECTS
        for m, n in self.SIZES:
            ts = tuple(range(1, n + 1))
            grouped = rows_or_refusal(lambda: make_rows(m, n, ts, variant, cap))
            single = rows_or_refusal(
                lambda: [row for t in ts for row in make_rows(m, n, (t,), variant, cap)]
            )
            assert grouped == single, (suite, variant, m, n)

    # 55 chains at (2, 4, 1), 25 chains at (2, 4, 2), where the partition
    # stream builds 25 partitions and 22 gap-table shapes after a plan of
    # at most 180 steps.
    @pytest.mark.parametrize(
        "suite, t_range, cap, refusal",
        [
            ("conj-count", "t=1..n", 54, "predicted about 55 chains for Params(m=2, n=4, t=1)"),
            ("conj-h", "t=1..n", 54, "predicted about 55 chains for Params(m=2, n=4, t=1)"),
            ("lemma54", "t=1..n", 54, "predicted about 55 chains for Params(m=2, n=4, t=1)"),
            ("conj-h", "t=2..n", 24, "predicted about 25 chains for Params(m=2, n=4, t=2)"),
            pytest.param(
                "m-triangle", "t=2..n", 226,
                "predicted 25 partitions, 22 table shapes and 180 plan steps"
                " for Params(m=2, n=4, t=2)",
                id="m-triangle-t=2..n-226",
            ),
        ],
    )
    def test_cap_refuses_at_t0(self, capsys, suite, t_range, cap, refusal):
        argv = ("verify", "--suite", suite, "--range", f"m=2,n=4,{t_range}", "--max-objects")
        code, out, err = run_cli(capsys, *argv, str(cap))
        assert (code, out) == (2, "")
        assert err == f"error: {refusal}, more than the cap {cap}\n"
        assert run_cli(capsys, *argv, str(cap + 1))[0] == 0


class TestSweep:
    def test_json_rows_ordered(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--do", "count", "--by", "total", "--range", "m=1..2,n=2..3,t=1..n"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        keys = [(row["m"], row["n"], row["t"]) for row in rows]
        assert keys == sorted(keys)
        assert all(row["match"] for row in rows)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--do", "count", "--by", "total",
            "--range", "m=1,n=2..3,t=1..n", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("key,formula,brute,match")
        assert len(lines) == 6

    def test_triangle_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--do", "triangle", "--which", "h", "--range", "m=2,n=3,t=2"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["terms"] == GOLDEN_H_232

    def test_htilde_sweep_honours_variant(self, capsys):
        # At (2,3,2) the adapted variant has two chains with one floor pair
        # off the staircase, the paper variant one.
        argv = ("sweep", "--do", "triangle", "--which", "htilde", "--range", "m=2,n=3,t=2")
        coefficients = {}
        for variant in ("paper", "adapted"):
            code, out, _ = run_cli(capsys, *argv, "--variant", variant)
            assert code == 0
            terms = json.loads(json.loads(out)["rows"][0]["terms"])["terms"]
            coefficients[variant] = {(d["x"], d["y"]): d["c"] for d in terms}[(1, 0)]
        assert coefficients == {"paper": "1", "adapted": "2"}

    @pytest.mark.parametrize("variant", nonnest.VARIANTS)
    def test_htilde_triangle_matches_sweep_row(self, capsys, variant):
        # `triangle` takes the variant too, and prints the sweep row's terms;
        # without the flag it prints the paper variant's.
        mnt = ("--m", "2", "--n", "3", "--t", "2")
        code, out, _ = run_cli(capsys, "triangle", "--which", "htilde", *mnt, "--variant", variant)
        assert code == 0
        argv = ("sweep", "--do", "triangle", "--which", "htilde", "--range", "m=2,n=3,t=2")
        swept = run_cli(capsys, *argv, "--variant", variant)
        assert swept[0] == 0
        assert out == json.loads(swept[1])["rows"][0]["terms"] + "\n"
        if variant == "paper":
            assert run_cli(capsys, "triangle", "--which", "htilde", *mnt) == (0, out, "")

    @pytest.mark.parametrize("variant", nonnest.VARIANTS)
    def test_htilde_sweep_equals_per_t_h_tilde(self, capsys, variant):
        # One h_tildes pass per (m, n) group gives the rows, or the refusal,
        # of one h_tilde call per t.
        for m, n in [(m, n) for m, n in SMALL if m <= 2]:
            argv = ("sweep", "--do", "triangle", "--which", "htilde", "--variant", variant)
            code, out, err = run_cli(capsys, *argv, "--range", f"m={m},n={n},t=1..n")
            try:
                rows = [
                    {"m": m, "n": n, "t": t, "which": "htilde",
                     "terms": nonnest.h_tilde(Params(m, n, t), variant=variant).to_json()}
                    for t in range(1, n + 1)
                ]
                expected = (0, {"command": "sweep", "do": "triangle", "rows": rows}, "")
            except InvariantViolation as exc:
                expected = (1, None, f"invariant failure: {exc}\n")
            assert (code, json.loads(out) if out else None, err) == expected, (m, n)


class TestErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "count", "--bogus")[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--m", "1", "--n", "8", "--t", "1", "--max-objects", "10"
        )
        assert code == 2
        assert "error" in err

    # Each enumerating suite at a triple whose predicted size is above 1:
    # 12 partitions or chains at (2, 3, 1), 5 paths at (1, 3, 1).
    @pytest.mark.parametrize(
        "suite, triple",
        [
            ("conj-count", "m=2,n=3,t=1"),
            ("conj-h", "m=2,n=3,t=1"),
            ("lemma54", "m=2,n=3,t=1"),
            ("bijection", "m=1,n=3,t=1"),
            ("m-triangle", "m=2,n=3,t=1"),
        ],
    )
    def test_enumerating_suites_refuse_over_the_cap(self, capsys, suite, triple):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--range", triple, "--max-objects", "1"
        )
        assert (code, out) == (2, "")
        assert "more than the cap 1" in err

    def test_main_reuses_the_built_parser(self, capsys, monkeypatch):
        # Set-up builds the parser once; main, on a job or a usage error, builds no other.
        cli.build_parser()

        def refuse_parser(*args, **kwargs):
            raise AssertionError("built a second parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse_parser)
        argv = ("triangle", "--which", "h", "--m", "2", "--n", "3", "--t", "2")
        assert run_cli(capsys, *argv)[:2] == (0, GOLDEN_H_232 + "\n")
        assert run_cli(capsys, "count", "--bogus")[0] == 2

    def test_bijection_guard_counts_the_theta_table(self, capsys):
        # The t = 9 family has 1 path, but every row of n = 9 reads the images
        # of all 4,862 1-filters, which the guard must count.
        argv = ("verify", "--suite", "bijection", "--range", "m=1,n=9,t=9")
        code, out, err = run_cli(capsys, *argv, "--max-objects", "100")
        assert (code, out) == (2, "")
        assert "predicted 4862 theta images" in err and "more than the cap 100" in err
        assert run_cli(capsys, *argv, "--max-objects", "4862")[0] == 0

    # 13 chains predicted at (3, 5, 4), 35 held by the adapted generator.
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--kind", "nn", "--m", "3", "--n", "5", "--t", "4"),
            ("verify", "--suite", "conj-count", "--range", "m=3,n=5,t=4"),
        ],
        ids=["enumerate", "conj-count"],
    )
    def test_adapted_chains_stop_at_the_cap(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--variant", "adapted", "--max-objects", "20")
        assert (code, out) == (2, "")
        assert err == (
            "error: adapted chains for Params(m=3, n=5, t=4) reached 21, more than the cap 20\n"
        )

    # The chain generator recurses once per column above t, whatever m is,
    # so each job runs under a recursion limit only 40 frames above the
    # caller's depth, and the adapted cap refusal still ends its run.
    @pytest.mark.parametrize(
        "argv, expected, check",
        [
            (("verify", "--suite", "conj-count", "--range", "m=60,n=2,t=1"), 0,
             lambda out, err: [(row["enumerated"], row["formula"]) for row in json.loads(out)["rows"]]
             == [("61", "61")]),
            (("enumerate", "--kind", "nn", "--m", "60", "--n", "3", "--t", "1"), 0,
             lambda out, err: len(out.splitlines()) == closedform.total_count(Params(60, 3, 1))),
            (("verify", "--suite", "lemma54", "--range", "m=20,n=3,t=1..n"), 0,
             lambda out, err: json.loads(out)["all_pass"]),
            (("enumerate", "--kind", "nn", "--m", "40", "--n", "3", "--t", "2",
              "--variant", "adapted", "--max-objects", "100"), 2,
             lambda out, err: out == "" and err.endswith(
                 "adapted chains for Params(m=40, n=3, t=2) reached 101, more than the cap 100\n")),
        ],
        ids=["conj-count", "enumerate", "lemma54", "adapted-cap"],
    )
    def test_chain_jobs_run_40_frames_above_the_caller(self, capsys, argv, expected, check):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            code, out, err = run_cli(capsys, *argv)
        finally:
            sys.setrecursionlimit(limit)
        assert code == expected
        assert check(out, err)

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("NC_LAB_MAX_OBJECTS", "10")
        code, _, err = run_cli(capsys, "count", "--m", "1", "--n", "8", "--t", "1")
        assert code == 2
        monkeypatch.setenv("NC_LAB_MAX_OBJECTS", "100000")
        code, _, _ = run_cli(capsys, "count", "--m", "1", "--n", "8", "--t", "1")
        assert code == 0

    def test_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "count", "--m", "1", "--n", "3", "--t", "5")
        assert code == 2

    def test_repeated_range_variable(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "conj-count", "--range", "m=3,n=2,m=2,t=1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: range variable 'm' is given more than once\n"

    def test_dead_sweep_worker(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_one", exit_worker)
        code, out, err = run_cli(
            capsys, "sweep", "--do", "count", "--range", "m=1,n=2..3,t=1", "--jobs", "2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestSweepJobs:
    def sweep(self, capsys, monkeypatch, jobs, triples="n=2..3"):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        code, out, err = run_cli(
            capsys, "sweep", "--do", "count", "--range", f"m=1,{triples},t=1", "--jobs", jobs
        )
        return code, out, err, FakePool.sizes

    def test_pool_no_larger_than_task_list(self, capsys, monkeypatch):
        code, out, _, sizes = self.sweep(capsys, monkeypatch, "64")
        assert code == 0
        assert sizes == [2]
        assert [row["n"] for row in json.loads(out)["rows"]] == [2, 3]

    def test_pool_no_larger_than_group_list(self, capsys, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        argv = ("sweep", "--do", "verify", "--suite", "conj-count", "--range", "m=2,n=2..3,t=1..n")
        code, out, _ = run_cli(capsys, *argv, "--jobs", "64")
        assert code == 0
        assert FakePool.sizes == [2]
        assert [(row["n"], row["t"]) for row in json.loads(out)["rows"]] == [
            (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)
        ]

    def test_single_task_starts_no_pool(self, capsys, monkeypatch):
        code, _, _, sizes = self.sweep(capsys, monkeypatch, "8", triples="n=3")
        assert code == 0
        assert sizes == []

    def test_rejects_fewer_than_one_job(self, capsys, monkeypatch):
        for jobs in ("0", "-3"):
            code, out, err, sizes = self.sweep(capsys, monkeypatch, jobs)
            assert code == 2
            assert out == ""
            assert err == f"error: --jobs must be at least 1, got {jobs}\n"
            assert sizes == []


class TestSubprocess:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "nclab", "triangle", "--which", "h",
             "--m", "2", "--n", "3", "--t", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == GOLDEN_H_232 + "\n"

    def test_parallel_sweep(self):
        result = subprocess.run(
            [sys.executable, "-m", "nclab", "sweep", "--do", "count", "--by", "total",
             "--range", "m=1..2,n=2..4,t=1..n", "--jobs", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        rows = json.loads(result.stdout)["rows"]
        keys = [(row["m"], row["n"], row["t"]) for row in rows]
        assert keys == sorted(keys)

    def test_parallel_groups_print_what_one_worker_prints(self):
        argv = [sys.executable, "-m", "nclab", "sweep", "--do", "verify", "--suite", "lemma54",
                "--range", "m=1..2,n=2..4,t=1..n"]
        one = subprocess.run(argv + ["--jobs", "1"], capture_output=True)
        two = subprocess.run(argv + ["--jobs", "2"], capture_output=True)
        assert (one.returncode, two.returncode) == (0, 0), two.stderr
        assert one.stdout == two.stdout and len(json.loads(one.stdout)["rows"]) == 18

    def test_import_loads_no_process_pool(self):
        # Only `sweep --jobs N` with N > 1 needs the pool; every other
        # command's start-up must not pay for importing it.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, nclab.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_import_loads_no_unused_modules(self):
        # The value classes use no dataclasses (which pulls in inspect), the
        # closed formulas no fractions (which pulls in decimal), and only
        # `--format csv` imports csv.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, nclab.cli; "
             "print(sorted(set(sys.modules) & "
             "{'dataclasses', 'inspect', 'fractions', 'decimal', 'csv'}))"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


# Prints, after the given statements, the nclab modules that have executed:
# a module that cli registered lazily stays an importlib.util._LazyModule
# until an attribute of it is first read.
EXECUTED = (
    "import contextlib, io, json, sys, types\n"
    "{}\n"
    "print(json.dumps(sorted(name for name, module in sys.modules.items()\n"
    "    if name.split('.')[0] == 'nclab' and type(module) is types.ModuleType)))\n"
)


def executed_modules(statements, *argv):
    result = subprocess.run(
        [sys.executable, "-c", EXECUTED.format(statements), *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestLazyImports:
    def test_parser_executes_only_the_leaves(self):
        statements = "import nclab.cli\nnclab.cli.build_parser()"
        assert executed_modules(statements) == ["nclab", "nclab.cli", "nclab.errors", "nclab.params"]

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --suite conj-count --range m=2,n=3,t=1..n",
            "verify --suite lemma54 --range m=2,n=3,t=1..n",
            "verify --suite conj-h --range m=2,n=3,t=1..n",
            "sweep --do verify --suite identities --range m=1..2,n=1..3,t=1..n",
        ],
    )
    def test_suites_execute_no_partition_or_path_module(self, argv):
        # A run that reads neither partitions, posets nor paths never
        # executes their modules.
        statements = (
            "from nclab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0"
        )
        executed = executed_modules(statements, *argv.split())
        assert "nclab.nonnest" in executed or "nclab.polyalg" in executed
        assert not {"nclab.posetcore", "nclab.ncpart", "nclab.dyckmodel"} & set(executed)

    def test_public_names(self):
        import nclab

        assert nclab.__all__ == [
            "BivariatePolynomial", "BlockProfile", "DomainError", "FinitePoset",
            "InvariantViolation", "ParameterError", "Params", "RationalExpr",
            "ResourceLimitError", "SetPartition", "block_profile", "build_refinement_poset",
            "enumerate_nc", "rank_of", "tilde_transform",
        ]
        namespace = {}
        exec("from nclab import *", namespace)
        for name in nclab.__all__:
            value = getattr(nclab, name)
            assert namespace[name] is value
            assert getattr(sys.modules[value.__module__], name) is value, name
        with pytest.raises(AttributeError):
            nclab.no_such_name
