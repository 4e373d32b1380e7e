"""End-to-end runs of the command line interface."""

from __future__ import annotations

import dataclasses
import io
import json
import shlex
import sys
from collections import Counter

import pytest

import ktdom
from ktdom import (
    clique_chain,
    complete,
    complete_bipartite,
    cycle,
    d_oracle,
    disjoint_union,
    gnp,
    k_join,
    path,
    random_regular,
    read_graph,
    write_graph,
)
from ktdom import bounds
from ktdom.cli import CSV_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def replace_everywhere(monkeypatch, name, replacement):
    """Swap a ktdom function in every ktdom module that imported it."""
    original = getattr(ktdom, name)
    for module in [m for key, m in sys.modules.items() if key.startswith("ktdom")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


# `ktdom gen` parameters (shell words) and the generator call they must match
GENERATOR_CASES = [
    ("complete-bipartite 2 3", complete_bipartite(2, 3)),
    ("clique-chain 2", clique_chain(2)),
    ("disjoint-union complete-bipartite:2,3 path:1", disjoint_union([complete_bipartite(2, 3), path(1)])),
    ("k-join path:2 complete:3 --join-k 2", k_join(path(2), complete(3), 2)),
    ("random-regular 8 3 --seed 3", random_regular(8, 3, 3)),
    ("gnp 8 0.5 --seed 3", gnp(8, 0.5, 3)),
]

# `ktdom gen` parameters that exit 2, and a part of the error they print
REJECTED_CASES = [
    ("complete 3 4", "family 'complete' takes 1 integer parameter(s), got 2"),
    ("disjoint-union gnp:5", "family must be one of"),
    ("disjoint-union cycle:x", "sizes must be integers"),
    ("gnp 8", "gnp takes two parameters: n p"),
    ("gnp 8 x --seed 1", "expected a number"),
    ("gnp 8 1.5 --seed 1", "edge probability"),
    ("gnp 8 0.5", "gnp needs a seed"),
    ("random-regular 8 3", "random-regular needs a seed"),
    ("k-join path:2", "two parts"),
    ("k-join path:2 path:2", "needs k"),
    ("disjoint-union", "at least one part"),
    ("from-file", "exactly one path"),
    ("from-file ''", "from-file needs a path"),
    ("moebius 8", "unknown family 'moebius'"),
    # the vertex limit of read_graph, checked before any edge is built
    ("path 10001", "vertex count 10001 exceeds the limit of 10000"),
    ("k-join path:9999 clique-chain:1 --join-k 1", "vertex count 10003 exceeds the limit"),
    ("disjoint-union path:-5 path:10010", "vertex count 10010 exceeds the limit"),
]


# `ktdom ensemble --model` values given without their model parameter, and
# a part of the error they print
MISSING_MODEL_PARAM_CASES = [
    ("gnp", "--p"),
    ("random-regular", "random-regular needs --r"),
]


def shifted_d_oracle(*args, **kwargs):
    """d_oracle answering one above the true value."""
    result = d_oracle(*args, **kwargs)
    return dataclasses.replace(result, value=result.value + 1)


class TestGen:
    def test_simple_family_to_file(self, tmp_path, capsys):
        out = tmp_path / "k5.txt"
        code, _, _ = run(capsys, "gen", "complete", "5", "-o", str(out))
        assert code == 0
        assert read_graph(out.read_text()) == complete(5)

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "4")
        assert code == 0
        assert read_graph(out) == cycle(4)

    def test_compound_families(self, capsys):
        code, out, _ = run(capsys, "gen", "disjoint-union", "complete:3", "cycle:4")
        assert code == 0
        assert read_graph(out) == disjoint_union([complete(3), cycle(4)])
        code, out, _ = run(capsys, "gen", "k-join", "path:2", "complete:3", "--join-k", "2")
        assert code == 0
        assert read_graph(out) == k_join(path(2), complete(3), 2)

    def test_seeded_join_rule(self, capsys):
        args = ("gen", "k-join", "path:3", "complete:5", "--join-k", "2",
                "--join-rule", "seeded", "--seed", "9")
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second

    def test_from_file_canonicalizes(self, tmp_path, capsys):
        messy = tmp_path / "messy.txt"
        messy.write_text("n 3\n2 1\n0 1\n")
        code, out, _ = run(capsys, "gen", "from-file", str(messy))
        assert code == 0
        assert out.endswith("n 3\n0 1\n1 2\n")

    def test_random_family(self, capsys):
        code, out, _ = run(capsys, "gen", "gnp", "8", "0.5", "--seed", "3")
        assert code == 0
        assert read_graph(out).n == 8

    def test_bad_family_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "moebius", "8")
        assert code == 2
        assert "unknown family" in err

    def test_missing_seed_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "gnp", "8", "0.5")
        assert code == 2
        assert "seed" in err

    def test_non_numeric_param_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "complete", "five")
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize("params, expected", GENERATOR_CASES, ids=[params for params, _ in GENERATOR_CASES])
    def test_family_matches_its_generator(self, capsys, params, expected):
        code, out, err = run(capsys, "gen", *shlex.split(params))
        assert (code, err) == (0, "")
        assert read_graph(out) == expected

    @pytest.mark.parametrize("params, message", REJECTED_CASES, ids=[params for params, _ in REJECTED_CASES])
    def test_bad_parameters_exit_2(self, capsys, params, message):
        code, out, err = run(capsys, "gen", *shlex.split(params))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


class TestCompute:
    def test_json_report(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", "complete", "6", "-o", str(graph_file))
        report_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "compute", "--input", str(graph_file), "--k", "2",
                         "--report", str(report_file))
        assert code == 0
        payload = json.loads(report_file.read_text())
        assert payload["gamma"]["value"] == 2
        assert payload["domatic"]["value"] == 3

    def test_oracle_flag_clean(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", "cycle", "6", "-o", str(graph_file))
        code, out, _ = run(capsys, "compute", "--input", str(graph_file), "--k", "2", "--oracle")
        assert code == 0
        assert json.loads(out)["oracle"]["checked"] is True

    def test_oracle_cap_refused_before_solving(self, tmp_path, monkeypatch, capsys):
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", "gnp", "12", "0.8", "--seed", "7", "-o", str(graph_file))
        calls = []
        replace_everywhere(monkeypatch, "gamma_xk", lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "compute", "--input", str(graph_file), "--k", "2", "--oracle")
        assert code == 2
        assert err == "error: oracle cross-check needs n <= 10, got n = 12\n"
        assert out == "" and calls == []

    def test_oracle_mismatch_exits_1(self, monkeypatch, capsys):
        replace_everywhere(monkeypatch, "d_oracle", shifted_d_oracle)
        monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph(cycle(6))))
        code, out, err = run(capsys, "compute", "--input", "-", "--k", "1", "--oracle")
        assert code == 1
        mismatches = ["d: solver = 3, oracle = 4", "d_total: solver = 1, oracle = 2"]
        assert json.loads(out)["oracle"]["mismatches"] == mismatches
        assert err == "".join(f"oracle mismatch: {line}\n" for line in mismatches)

    def test_duplicate_edge_warning_names_the_input(self, tmp_path, monkeypatch, capsys):
        dup = tmp_path / "dup.txt"
        dup.write_text("n 3\n0 1\n1 0\n1 2\n")
        code, _, err = run(capsys, "compute", "--input", str(dup), "--k", "1")
        assert code == 0
        assert err == f"warning: {dup}: line 3: duplicate edge 1 0 dropped\n"
        code, out, err = run(capsys, "gen", "from-file", str(dup))
        assert (code, out) == (0, f"# ktdom gen from-file {dup}\nn 3\n0 1\n1 2\n")
        assert err == f"warning: {dup}: line 3: duplicate edge 1 0 dropped\n"
        for argv in (("verify", "--input", "-", "--k", "1"), ("gen", "from-file", "-")):
            monkeypatch.setattr(sys, "stdin", io.StringIO(dup.read_text()))
            code, _, err = run(capsys, *argv)
            assert code == 0
            assert err == "warning: <stdin>: line 3: duplicate edge 1 0 dropped\n"

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_empty_input_path_names_the_option(self, capsys, command):
        code, out, err = run(capsys, command, "--input", "", "--k", "1")
        assert (code, out, err) == (2, "", "error: --input needs a path\n")

    def test_oversized_header_exits_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.txt"
        huge.write_text("n 100000000000000000000\n")
        code, out, err = run(capsys, "compute", "--input", str(huge), "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the limit" in err and "Traceback" not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/nonexistent.txt", "--k", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_k_exits_2(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", "complete", "3", "-o", str(graph_file))
        code, _, _ = run(capsys, "compute", "--input", str(graph_file), "--k", "0")
        assert code == 2


class TestVerify:
    def test_clean_instance(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", "complete", "5", "-o", str(graph_file))
        code, out, err = run(capsys, "verify", "--input", str(graph_file), "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status_counts"]["violated"] == 0
        assert "violated" not in err

    def test_violated_check_exits_1(self, monkeypatch, capsys):
        real = bounds.compute_invariants

        def shifted(g, k, *args, **kwargs):  # d one above the true value, as in TestPerturbedValues
            report = real(g, k, *args, **kwargs)
            return dataclasses.replace(report, domatic=dataclasses.replace(report.domatic, value=report.domatic.value + 1))

        monkeypatch.setattr(bounds, "compute_invariants", shifted)
        monkeypatch.setattr(sys, "stdin", io.StringIO(write_graph(complete(4))))
        code, out, err = run(capsys, "verify", "--input", "-", "--k", "1")
        assert code == 1
        violated = [c["check_id"] for c in json.loads(out)["checks"] if c["status"] == "violated"]
        assert "C1" in violated
        assert err.splitlines() == [f"violated: {cid}: {bounds._STATEMENTS[cid]}" for cid in violated]

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n")
        code, _, err = run(capsys, "verify", "--input", str(bad), "--k", "1")
        assert code == 2
        assert "header" in err


class TestEnsemble:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        args = ("ensemble", "--model", "gnp", "--n", "8", "--p", "0.5",
                "--count", "6", "--seed", "7", "--k", "2")
        first = tmp_path / "a.csv"
        code, _, err = run(capsys, *args, "--csv", str(first))
        assert code == 0
        assert "ensemble: 6 instances" in err
        second = tmp_path / "b.csv"
        run(capsys, *args, "--csv", str(second))
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 7
        row = lines[1].split(",")
        assert row[0] == "gnp-n8-0000"
        assert row[CSV_COLUMNS.index("r_param")] == "NA"
        assert row[CSV_COLUMNS.index("instance_seed")] == str(7 * 1000003)

    def test_regular_model(self, capsys):
        code, out, _ = run(capsys, "ensemble", "--model", "random-regular", "--n", "8",
                           "--r", "3", "--count", "2", "--seed", "5", "--k", "1")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("p")] == "NA"
        assert row[CSV_COLUMNS.index("delta")] == "3"

    def test_gate_failures_render_as_na_cells(self, capsys):
        # k=3 on sparse G(8, 0.2) instances: most have delta < 2
        code, out, _ = run(capsys, "ensemble", "--model", "gnp", "--n", "8",
                           "--p", "0.2", "--count", "8", "--seed", "1", "--k", "3")
        assert code == 0
        gamma_col = CSV_COLUMNS.index("gamma")
        cells = [line.split(",")[gamma_col] for line in out.splitlines()[1:]]
        assert "NA" in cells

    def test_oracle_solves_each_instance_once(self, monkeypatch, capsys):
        # --oracle cross-checks the report verify_all already holds, so no
        # graph (instance or complement) is solved twice in the same mode
        solved = []  # holding each graph keeps its id unique for the run

        def spy(name):
            def wrapper(g, k, mode="closed", **kwargs):
                solved.append((g, name, mode))
                return original(g, k, mode, **kwargs)

            original = replace_everywhere(monkeypatch, name, wrapper)

        spy("gamma_xk")
        spy("d_xk")
        code, _, _ = run(capsys, "ensemble", "--model", "gnp", "--n", "8", "--p", "0.5",
                         "--count", "4", "--seed", "3", "--k", "1", "--oracle")
        assert code == 0
        counts = Counter((id(g), name, mode) for g, name, mode in solved)
        assert counts and max(counts.values()) == 1, counts

    def test_oracle_cap_refused_before_solving(self, monkeypatch, capsys):
        calls = []
        replace_everywhere(monkeypatch, "gamma_xk", lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "ensemble", "--model", "gnp", "--n", "11", "--p", "0.5",
                             "--count", "2", "--seed", "1", "--k", "1", "--oracle")
        assert code == 2
        assert err == "error: oracle cross-check needs n <= 10, got n = 11\n"
        assert out == "" and calls == []

    @pytest.mark.parametrize("model, generator, param", [("gnp", "gnp", "--p=0.5"),
                                                          ("random-regular", "random_regular", "--r=3")])
    def test_vertex_limit_refused_before_building(self, monkeypatch, capsys, model, generator, param):
        replace_everywhere(monkeypatch, generator, lambda *args: pytest.fail("built"))
        code, out, err = run(capsys, "ensemble", "--model", model, "--n", "10001", param,
                             "--count", "1", "--seed", "1", "--k", "1")
        assert (code, out) == (2, "")
        assert err == "error: vertex count 10001 exceeds the limit of 10000\n"

    def test_oracle_mismatch_exits_1(self, monkeypatch, capsys):
        replace_everywhere(monkeypatch, "d_oracle", shifted_d_oracle)
        code, out, err = run(capsys, "ensemble", "--model", "gnp", "--n", "8", "--p", "0.5",
                             "--count", "1", "--seed", "1", "--k", "1", "--oracle")
        assert code == 1
        row = out.splitlines()[1].split(",")
        d, d_total = (int(row[CSV_COLUMNS.index(name)]) for name in ("d", "d_total"))
        assert err.splitlines()[:2] == [
            f"oracle mismatch on instance 0: d: solver = {d}, oracle = {d + 1}",
            f"oracle mismatch on instance 0: d_total: solver = {d_total}, oracle = {d_total + 1}",
        ]

    @pytest.mark.parametrize("model, message", MISSING_MODEL_PARAM_CASES,
                             ids=[model for model, _ in MISSING_MODEL_PARAM_CASES])
    def test_missing_model_param_exits_2(self, capsys, model, message):
        code, _, err = run(capsys, "ensemble", "--model", model, "--n", "8",
                           "--count", "2", "--seed", "1", "--k", "1")
        assert code == 2
        assert message in err

    def test_bad_count_exits_2(self, capsys):
        code, _, err = run(capsys, "ensemble", "--model", "gnp", "--n", "8", "--p", "0.5",
                           "--count", "0", "--seed", "1", "--k", "1")
        assert code == 2
        assert "count" in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
