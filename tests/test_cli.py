"""CLI subcommands, exit codes, and report formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flexconn import FgcInstance, cli, exact, relaxation, save_instance
from flexconn.cli import run

from instances import cycle_graph, gadget_f1, triangle_p1q0, two_vertex


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "two_vertex.fgc"
    save_instance(two_vertex(), path)
    return str(path)


def _single_report(capsys) -> dict:
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    return json.loads(out[0])


def test_check_full_edge_set(inst_file, capsys):
    assert run(["check", inst_file]) == 0
    report = _single_report(capsys)
    assert report["feasible"] is True
    assert report["selection_size"] == 3
    assert report.keys() == {"command", "feasible", "selection_size"}


def test_check_infeasible_selection_exits_one(inst_file, capsys):
    assert run(["check", inst_file, "--edges", "1"]) == 1
    report = _single_report(capsys)
    assert report["feasible"] is False
    assert report["witness"] == [1]
    assert report.keys() == {"command", "feasible", "selection_size", "witness"}


def test_check_safe_edge_alone_is_feasible(inst_file, capsys):
    assert run(["check", inst_file, "--edges", "0"]) == 0
    assert _single_report(capsys)["feasible"] is True


def test_lp_report(inst_file, capsys):
    assert run(["lp", inst_file]) == 0
    report = _single_report(capsys)
    assert report["lp_value"] == pytest.approx(2.0)
    assert report["x"] == [0.0, 1.0, 1.0]
    assert report["iterations"] >= 1
    assert sorted(report) == ["active_rows", "command", "iterations", "lp_value", "x"]


@pytest.mark.parametrize("command", ["lp", "solve"])
def test_lp_and_solve_have_no_mode_option(inst_file, capsys, command):
    with pytest.raises(SystemExit):
        run([command, inst_file, "--mode", "exhaustive"])
    assert "--mode" in capsys.readouterr().err


def test_solve_report(inst_file, capsys):
    assert run(["solve", inst_file, "--with-exact"]) == 0
    report = _single_report(capsys)
    assert report["solution_cost"] == 2.0
    assert report["selection"] == [1, 2]
    assert report["attempts"] == 1
    assert report["exact_cost"] == 2.0
    assert report["ratio"] >= 1 - 1e-9
    assert report["lp_seconds"] >= 0
    assert report["rounding_seconds"] >= 0


def test_exact_report(inst_file, capsys):
    assert run(["exact", inst_file]) == 0
    report = _single_report(capsys)
    assert report["exact_cost"] == 2.0
    assert report["selection"] == [1, 2]


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = str(tmp_path / "random.fgc")
    argv = [
        "gen", "--nodes", "5", "--edges", "9", "-p", "1", "-q", "2",
        "--seed", "11", "-o", out,
    ]
    assert run(argv) == 0
    gen_report = _single_report(capsys)
    assert gen_report["written"] == out
    assert gen_report["edges_final"] >= 9

    assert run(["solve", out]) == 0
    solve_report = _single_report(capsys)
    assert solve_report["ratio"] >= 1 - 1e-9
    assert run(["check", out]) == 0


def test_counts_cycle(tmp_path, capsys):
    path = tmp_path / "triangle.fgc"
    save_instance(triangle_p1q0(), path)
    assert run(["counts", str(path), "--alpha", "1"]) == 0
    report = _single_report(capsys)
    assert report["min_cut"] == 2
    assert report["count"] == 3
    assert report["karger_bound"] == 9.0


def test_counts_refuses_large_graphs_before_any_cut_scan(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle21.fgc"
    save_instance(FgcInstance(cycle_graph(21), (True,) * 21, (1.0,) * 21, 1, 0), path)

    def no_scan(n):
        raise AssertionError("scanned every cut before the size guard")

    monkeypatch.setattr(exact, "canonical_masks", no_scan)
    assert run(["counts", str(path), "--alpha", "1"]) == 3
    assert "too large" in capsys.readouterr().err


def test_counts_refuses_large_graphs_before_its_min_cut(tmp_path, capsys, monkeypatch):
    # the min cut once ran first, only for count_cuts_at_most to refuse n > 20
    path = tmp_path / "cycle21.fgc"
    save_instance(FgcInstance(cycle_graph(21), (True,) * 21, (1.0,) * 21, 1, 0), path)

    def no_min_cut(g, caps):
        raise AssertionError("ran the min cut before the size gate")

    monkeypatch.setattr(cli, "min_cut", no_min_cut)
    assert run(["counts", str(path), "--alpha", "1"]) == 3
    assert "too large for exact counting (n=21 > 20)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lp", "solve"])
def test_lp_and_solve_refuse_large_graphs_before_any_lp(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "cycle21.fgc"
    save_instance(FgcInstance(cycle_graph(21), (True,) * 21, (1.0,) * 21, 1, 0), path)
    built = []
    monkeypatch.setattr(relaxation, "_HighsLp", lambda *args: built.append(args))
    assert run([command, str(path)]) == 3
    assert "too large" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_counts_rejects_non_finite_alpha(tmp_path, capsys, value):
    path = tmp_path / "triangle.fgc"
    save_instance(triangle_p1q0(), path)
    assert run(["counts", str(path), "--alpha", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "factor" in captured.err


def test_counts_rejects_alpha_whose_karger_bound_overflows(tmp_path, capsys):
    # 6 ** 800 is beyond float range; it raised OverflowError, exit 1
    path = tmp_path / "cycle6.fgc"
    save_instance(FgcInstance(cycle_graph(6), (True,) * 6, (1.0,) * 6, 1, 0), path)
    assert run(["counts", str(path), "--alpha", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha 400" in captured.err


@pytest.mark.parametrize("flag", ["--scale-c"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_solve_rejects_non_finite_rounding_constants(inst_file, capsys, flag, value):
    assert run(["solve", inst_file, flag, value]) == 2
    assert "finite" in capsys.readouterr().err


def test_solve_has_no_cost_cap_option(inst_file, capsys):
    # the cap is always 2 C ln(n) times the LP value
    with pytest.raises(SystemExit) as exc:
        run(["solve", inst_file, "--cost-cap", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cost-cap" in capsys.readouterr().err


def test_q_beyond_float_range(tmp_path, capsys):
    # check loaded the file through is_feasible, which raised OverflowError;
    # lp and solve then raised it from the separator's float grid, and at
    # 10^308, where p+q fits a float but 2p(p+q) does not, from the LP's rows
    for q in (10**308, 10**400):
        path = tmp_path / "cycle4.fgc"
        save_instance(FgcInstance(cycle_graph(4), (True,) * 4, (1.0,) * 4, 2, q), path)
        assert run(["check", str(path)]) == 0
        assert _single_report(capsys)["feasible"] is True
        for command in ("lp", "solve"):
            assert run([command, str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "float range" in captured.err


def test_solve_rejects_a_negative_seed_before_the_lp(inst_file, capsys, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr("flexconn.cli.solve_relaxation", no_lp)
    assert run(["solve", inst_file, "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_gen_refuses_costs_summing_beyond_float_range(tmp_path, capsys):
    # the draw's InvalidInstanceError exited 1, as an invalid file does
    path = tmp_path / "huge.fgc"
    argv = ["gen", "--nodes", "6", "--edges", "12", "-p", "1", "-q", "1"]
    assert run(argv + ["--cost-min", "1e308", "--cost-max", "1.7e308", "-o", str(path)]) == 2
    assert "beyond float range" in capsys.readouterr().err
    assert not path.exists()


def test_solve_with_exact_refuses_large_instances_before_the_lp(tmp_path, capsys, monkeypatch):
    # m = 33 > 22: the LP and rounding ran, then exact_opt refused and the
    # report was lost
    path = tmp_path / "m33.fgc"
    assert run(["gen", "--nodes", "12", "--edges", "30", "-p", "2", "-q", "1", "--seed", "1", "-o", str(path)]) == 0
    assert _single_report(capsys)["edges_final"] == 33

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr("flexconn.cli.solve_relaxation", no_lp)
    assert run(["solve", str(path), "--with-exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large for exact search (m=33 > 22)" in captured.err


def test_pretty_output_is_aligned_not_json(inst_file, capsys):
    assert run(["check", inst_file, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out.splitlines()[0])


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.fgc"
    path.write_text("fgc 1\np oops\n")
    assert run(["lp", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


@pytest.mark.parametrize("top", ["[1, 2]", '"x"'])
def test_json_top_level_not_an_object_exit_code(tmp_path, capsys, top):
    # instance_from_json called obj.get on it: AttributeError, exit 1 with a traceback
    path = tmp_path / "l.json"
    path.write_text(top)
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exit_code(tmp_path, capsys):
    assert run(["lp", str(tmp_path / "nope.fgc")]) == 2


def test_invalid_instance_exit_code(tmp_path, capsys):
    path = tmp_path / "gadget.fgc"
    path.write_text(
        "fgc 1\np 2\nq 4\nnodes 2\n"
        "edge 0 1 S 3\nedge 0 1 U 1\nedge 0 1 U 1\nedge 0 1 U 1\n"
    )
    assert run(["check", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "lp", "solve", "exact"])
def test_total_cost_beyond_float_range_exit_code(tmp_path, capsys, command):
    # solve and exact raised OverflowError from fsum, exit 1 with a traceback
    path = tmp_path / "costly.fgc"
    path.write_text(
        "fgc 1\np 1\nq 0\nnodes 3\n"
        "edge 0 1 S 1e308\nedge 1 2 S 1e308\nedge 0 2 S 1e308\n"
    )
    assert run([command, str(path)]) == 1
    assert "total cost" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge.fgc", "fgc 1\np 1\nq 0\nnodes 1000000000000\nedge 0 1 S 1\n"),
        (
            "huge.json",
            '{"format": "fgc", "version": 1, "p": 1, "q": 0, '
            '"nodes": 1000000000000, "edges": [[0, 1, "S", 1]]}',
        ),
    ],
    ids=["text", "json"],
)
def test_too_few_edges_to_connect_exit_before_allocating_per_vertex(tmp_path, capsys, name, text):
    # the union-find of is_connected would allocate a list of 10^12 vertices
    path = tmp_path / name
    path.write_text(text)
    assert run(["check", str(path)]) == 1
    assert "not connected" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli_from_a_source_tree(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "flexconn", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: flexconn")


def test_bad_edges_argument_exit_code(inst_file, capsys):
    assert run(["check", inst_file, "--edges", "zero"]) == 2


@pytest.mark.parametrize("edges", ["0_0", "\u0660", "0,\uff11", "1_"])
def test_edges_argument_refuses_underscores_and_non_ascii_digits(inst_file, capsys, edges):
    # int() read "0_0" as edge 0 and the Arabic-Indic or fullwidth digit as 0 or 1
    assert run(["check", inst_file, "--edges", edges]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--edges must be a comma-separated id list" in captured.err


def test_bench_deterministic(tmp_path, capsys):
    suite = {
        "items": [
            {"n": 4, "m": 6, "p": 1, "q": 1, "seed": 3},
            {"n": 5, "m": 8, "p": 2, "q": 0, "seed": 4},
            {"n": 4, "m": 7, "p": 1, "q": 2, "seed": 5},
        ]
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))

    assert run(["bench", "--suite", str(suite_path)]) == 0
    first = capsys.readouterr().out
    assert run(["bench", "--suite", str(suite_path)]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across runs

    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert [r["item"] for r in lines] == [0, 1, 2]
    assert all(r["lp_value"] <= r["solution_cost"] + 1e-9 for r in lines)


@pytest.mark.parametrize(
    "item, message",
    [
        ({"n": 6.9, "m": 12, "p": 2, "q": 1, "seed": 3}, "n must be an integer"),
        ({"n": 6, "m": 12.5, "p": 2, "q": 1, "seed": 3}, "m must be an integer"),
        ({"n": 6, "m": 12, "p": 2, "q": True, "seed": 3}, "q must be an integer"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": "3"}, "seed must be an integer"),
        ({"m": 12, "p": 2, "q": 1, "seed": 3}, "missing field 'n'"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "safe_fraction": "0.5"}, "safe_fraction"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "cost_range": [1, "9"]}, "cost_range"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "cost_range": 9}, "suite item 1"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "max_attempts": 2.0}, "max_attempts"),
        ([6, 12, 2, 1, 3], "list indices"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "solve_seed": -3}, "seed must be nonnegative"),
        (
            {"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "max_attempts": "3"},
            "max_attempts must be an integer",
        ),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "max_attempts": 0}, "max_attempts"),
        # integers past float range; they raised OverflowError, exit 1
        (
            {"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "scale_constant": 10**400},
            "scale_constant is out of float range",
        ),
        (
            {"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "cost_range": [1, 10**400]},
            "cost_range is out of float range",
        ),
        # a misspelt optional field ran the item at its default
        (
            {"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "scale_constnat": 0.5, "max_attempt": 1},
            "unknown field 'scale_constnat'",
        ),
        # gen_random's range errors did not name the item
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "cost_range": [10, 1]}, "cost range"),
        ({"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3, "safe_fraction": 1.5}, "safe_fraction"),
        ({"n": 6, "m": 12, "p": 0, "q": 1, "seed": 3}, "need p >= 1"),
    ],
)
def test_bench_rejects_malformed_items(tmp_path, capsys, item, message):
    suite_path = tmp_path / "suite.json"
    good = {"n": 4, "m": 6, "p": 1, "q": 1, "seed": 3}
    suite_path.write_text(json.dumps({"items": [good, item]}))
    assert run(["bench", "--suite", str(suite_path)]) == 2
    err = capsys.readouterr().err
    assert "suite item 1" in err
    assert message in err


def test_bench_rejects_unknown_suite_keys(tmp_path, capsys):
    # a suite-wide setting ran every item at its default
    suite_path = tmp_path / "suite.json"
    items = [{"n": 6, "m": 12, "p": 2, "q": 1, "seed": 3}]
    suite_path.write_text(json.dumps({"items": items, "max_attempts": 1}))
    assert run(["bench", "--suite", str(suite_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown suite key 'max_attempts'" in captured.err


@pytest.mark.parametrize("suite", [[], {"runs": []}, {"items": {}}])
def test_bench_rejects_a_suite_without_an_items_list(tmp_path, capsys, suite):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    assert run(["bench", "--suite", str(suite_path)]) == 2
    assert "'items' list" in capsys.readouterr().err


def test_solve_seed_changes_nothing_at_default_scale(inst_file, capsys):
    # saturated probabilities make the draw deterministic
    assert run(["solve", inst_file, "--seed", "1"]) == 0
    a = _single_report(capsys)
    assert run(["solve", inst_file, "--seed", "2"]) == 0
    b = _single_report(capsys)
    for key in ("solution_cost", "selection", "attempts"):
        assert a[key] == b[key]
