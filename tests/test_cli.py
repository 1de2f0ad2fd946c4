import json
import os
import subprocess
import sys

from nclab import cli, nonnest
from nclab.cli import main

GOLDEN_H_232 = '{"terms":[{"x":0,"y":0,"c":"3"},{"x":1,"y":0,"c":"1"},{"x":1,"y":1,"c":"1"}]}'


def exit_worker(task):
    os._exit(1)


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

    def test_conj_count_builds_no_poset(self, capsys):
        nonnest._nn_poset_cached.cache_clear()
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conj-count", "--range", "m=2,n=3,t=1..n"
        )
        assert nonnest._nn_poset_cached.cache_info().currsize == 0
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

    def test_dead_sweep_worker(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_one", exit_worker)
        code, out, err = run_cli(
            capsys, "sweep", "--do", "count", "--range", "m=1,n=2..3,t=1", "--jobs", "2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


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
