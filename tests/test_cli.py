import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from nclab import cli, nonnest
from nclab.cli import main

GOLDEN_H_232 = '{"terms":[{"x":0,"y":0,"c":"3"},{"x":1,"y":0,"c":"1"},{"x":1,"y":1,"c":"1"}]}'


def exit_worker(task):
    os._exit(1)


def refuse_poset(*args, **kwargs):
    raise AssertionError("built a poset or a filter")


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
        monkeypatch.setattr(nonnest, "FinitePoset", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-count", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert all(row["pass"] for row in json.loads(out)["rows"])

    def test_lemma54_builds_no_poset(self, capsys, monkeypatch):
        monkeypatch.setattr(nonnest, "FinitePoset", refuse_poset)
        monkeypatch.setattr(nonnest, "_filter_from_mask", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemma54", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert [row["covers"] for row in json.loads(out)["rows"]] == [15, 4, 0]

    def test_conj_h_builds_no_poset(self, capsys, monkeypatch):
        monkeypatch.setattr(nonnest, "FinitePoset", refuse_poset)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-h", "--range", "m=2,n=3,t=1..n"
        )
        assert code == 0
        assert all(row["pass"] for row in json.loads(out)["rows"])


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
        ],
    )
    def test_enumerating_suites_refuse_over_the_cap(self, capsys, suite, triple):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--range", triple, "--max-objects", "1"
        )
        assert (code, out) == (2, "")
        assert "more than the cap 1" in err

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
