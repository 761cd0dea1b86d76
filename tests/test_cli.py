import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metric_outliers import (BourgainParams, Graph, bourgain_embed, from_graph, from_matrix,
                             outlier_sdp)
from metric_outliers.cli import BOUND_MAX_K, _build_parser, dispatch
from metric_outliers.lp_geometry import write_embedding
from metric_outliers.metric_core import write_graph_text, write_metric_text

from conftest import antenna_instance, integer_metric


@pytest.fixture
def claw_file(tmp_path, claw_metric):
    path = tmp_path / "claw.txt"
    write_metric_text(str(path), claw_metric)
    return str(path)


@pytest.fixture
def edge_file(tmp_path, single_edge):
    path = tmp_path / "edge.txt"
    write_graph_text(str(path), single_edge)
    return str(path)


def run(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_vc_single_edge(capsys, edge_file):
    code, out, err = run(capsys, ["oracle", "vc", "--graph", edge_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1
    assert payload["provenance"]["seed"] == 0
    assert payload["provenance"]["version"]


def test_metric_validate_names_the_triple(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 3\n1 0 1\n3 1 0\n")
    code, out, err = run(capsys, ["metric", "validate", "--metric", str(bad)])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "TriangleViolation"
    assert "(0,1,2)" in payload["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_metric_validate_rejects_a_bad_tolerance(capsys, tmp_path, tol):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 3\n1 0 1\n3 1 0\n")
    payload = error_of(capsys, ["metric", "validate", "--metric", str(bad), "--tol-tri", tol])
    assert payload["error"] == "InvalidArgument" and "tol_tri" in payload["message"]


def test_metric_validate_non_numeric_token(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\nx 0\n")
    payload = error_of(capsys, ["metric", "validate", "--metric", str(bad)])
    assert payload["error"] == "InvalidArgument" and "'x'" in payload["message"]


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by the calls that need it, not on import
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, metric_outliers.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def _leaf_parsers(parser: argparse.ArgumentParser):
    commands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not commands:
        yield parser
    for action in commands:
        for sub in action.choices.values():
            yield from _leaf_parsers(sub)


def test_readme_names_exactly_the_cli_flags():
    # a flag the parser lost (or never had) must not stay documented, and a
    # new flag must be documented; the Install section's pip flags are not ours
    flags = {opt for leaf in _leaf_parsers(_build_parser()) for action in leaf._actions
             for opt in action.option_strings if opt.startswith("--")}
    flags -= {"--help", "--version"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("\n## Install")
    readme = readme[:start] + readme[readme.index("\n## ", start + 1):]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) == flags


def test_metric_validate_ok(capsys, claw_file):
    code, out, _ = run(capsys, ["metric", "validate", "--metric", claw_file])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_metric_from_graph(capsys, edge_file):
    code, out, _ = run(capsys, ["metric", "from-graph", "--graph", edge_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["metric"] == [[0.0, 1.0], [1.0, 0.0]]


def test_usage_error_exits_2(capsys):
    assert dispatch(["oracle", "vc"]) == 2
    assert dispatch(["definitely-not-a-command"]) == 2


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path, claw_file, edge_file):
    # one process interleaves successes, usage errors (2) and domain errors (1);
    # each call must print what a fresh process prints for the same argv
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 3\n1 0 1\n3 1 0\n")
    solve = ["outliers", "solve", "--metric", claw_file, "--c", "1", "--gamma", "1.5"]
    argvs = {
        "vc": ["oracle", "vc", "--graph", edge_file],
        "usage": ["oracle", "vc", "--graph", edge_file, "--max-size", "3"],
        "domain": ["metric", "validate", "--metric", str(bad)],
        "strong": solve + ["--mode", "strong", "--seed", "5"],
        "weak": solve,
    }
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    procs = {name: subprocess.Popen([sys.executable, "-m", "metric_outliers.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                    env=env)
             for name, argv in argvs.items()}
    fresh = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        fresh[name] = (proc.returncode, out, err)
    assert [fresh[name][0] for name in argvs] == [0, 2, 1, 0, 0]
    for name in ["vc", "usage", "domain", "strong", "usage", "weak", "domain", "vc", "weak"]:
        assert run(capsys, argvs[name]) == fresh[name], name


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["oracle", "vc", "--graph", "/nonexistent/g.txt"])
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFound"


def test_outliers_solve_end_to_end(capsys, claw_file):
    code, out, _ = run(capsys, ["outliers", "solve", "--metric", claw_file,
                                "--c", "1.0", "--gamma", "1.5", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert payload["achieved_distortion"] <= 1.5 + 1e-3
    assert set(payload) == {"k", "K", "delta", "achieved_distortion", "certified_bound",
                            "gamma", "embedding", "solver", "provenance"}
    assert set(payload["solver"]) == {"objective", "max_violation", "k0", "mode", "zeta",
                                      "g_value", "f_k"}
    assert payload["solver"]["k0"] == "infeasible"
    assert len(payload["delta"]) == 4


def test_outliers_solve_does_not_depend_on_the_seed(capsys, tmp_path):
    path = tmp_path / "integer6.txt"
    write_metric_text(str(path), integer_metric(np.random.default_rng([101]), 6))
    payloads = []
    for seed in (0, 7):
        code, out, _ = run(capsys, ["outliers", "solve", "--metric", str(path), "--c", "1",
                                    "--gamma", "1.5", "--seed", str(seed)])
        payload = json.loads(out)
        assert code == 0 and payload["provenance"].pop("seed") == seed
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_planted_128_prints_its_witness_rank(capsys, tmp_path):
    # a 3-D core of 120 points plus 8 antennas, as the benchmark's planted-n128:
    # the factor keeps the witness's numerical rank, not one column per point
    m, _, _ = antenna_instance(np.random.default_rng([5]), 120, 8)
    path, out = tmp_path / "planted128.txt", tmp_path / "planted128.json"
    write_metric_text(str(path), m)
    code, _, _ = run(capsys, ["outliers", "solve", "--metric", str(path), "--c", "1",
                              "--gamma", "1.5", "--mode", "weak", "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["K"] == []
    assert len(payload["embedding"]["points"][0]) <= 32
    assert out.stat().st_size < 100_000


def test_solve_keeps_a_pair_far_below_the_diameter(capsys, tmp_path):
    # (0, 0), (1, 0), (2, 0) and (1, 1e-5): the witness's second eigenvalue,
    # 7.5e-11 of the first, is a column of the embedding, so the pair 1e-5
    # apart keeps its distance
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1e-5]])
    path = tmp_path / "spread.txt"
    write_metric_text(str(path), from_matrix(np.linalg.norm(x[:, None] - x[None], axis=-1),
                                             tol_tri=1e-9))
    code, out, _ = run(capsys, ["outliers", "solve", "--metric", str(path), "--c", "1",
                                "--gamma", "1.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == [] and len(payload["embedding"]["points"][0]) == 2
    assert payload["achieved_distortion"] < 1.0 + 1e-5


def test_byte_identical_reruns(capsys, claw_file):
    _, out1, _ = run(capsys, ["outliers", "solve", "--metric", claw_file,
                              "--c", "1.0", "--gamma", "1.5", "--seed", "7"])
    _, out2, _ = run(capsys, ["outliers", "solve", "--metric", claw_file,
                              "--c", "1.0", "--gamma", "1.5", "--seed", "7"])
    assert out1 == out2
    _, emb1, _ = run(capsys, ["embed", "bourgain", "--metric", claw_file, "--seed", "3"])
    _, emb2, _ = run(capsys, ["embed", "bourgain", "--metric", claw_file, "--seed", "3"])
    assert emb1 == emb2


def test_embed_bourgain(capsys, claw_file):
    code, out, _ = run(capsys, ["embed", "bourgain", "--metric", claw_file, "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 4
    assert payload["min_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_compose_run_and_estimate(capsys, tmp_path, claw_metric, claw_file):
    sub_points = np.array([[0.0], [-1.0], [1.0]])
    alpha_s = tmp_path / "alpha_s.json"
    alpha_x = tmp_path / "alpha_x.json"
    from metric_outliers import PointSet
    write_embedding(str(alpha_s), PointSet(points=sub_points, p=2.0))
    emb, _ = bourgain_embed(claw_metric, BourgainParams(seed=2, p=2.0))
    write_embedding(str(alpha_x), emb)
    code, out, _ = run(capsys, [
        "compose", "run", "--metric", claw_file, "--s", "0,1,2",
        "--alpha-s", str(alpha_s), "--alpha-x", str(alpha_x),
        "--samples", "4", "--seed", "11"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["transcripts"]) == 4
    assert payload["c_s"] == pytest.approx(1.0)
    code, out, _ = run(capsys, [
        "compose", "estimate", "--metric", claw_file, "--s", "0,1,2",
        "--alpha-s", str(alpha_s), "--alpha-x", str(alpha_x),
        "--pair", "0,3", "--trials", "50", "--seed", "11"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] > 0


def test_compose_bound(capsys):
    code, out, _ = run(capsys, ["compose", "bound", "--case", "c",
                                "--c-s", "1", "--c-x", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplier"] == pytest.approx(25.0)
    assert payload["coef_c_s"] == "7"


def test_compose_bound_names_a_too_large_k(capsys):
    argv = ["compose", "bound", "--case", "e", "--c-s", "1", "--c-x", "2", "--k"]
    payload = error_of(capsys, argv + ["32000"])
    assert payload["error"] == "InvalidArgument" and "--k" in payload["message"]
    code, out, _ = run(capsys, argv + [str(BOUND_MAX_K)])
    assert code == 0 and json.loads(out)["multiplier"] > 0


def test_oracle_subcommands(capsys, tmp_path, edge_file, claw_file):
    code, out, _ = run(capsys, ["oracle", "outliers", "--metric", claw_file])
    assert code == 0 and json.loads(out)["size"] == 1
    code, out, _ = run(capsys, ["oracle", "hypercube", "--graph", edge_file, "--scale", "2"])
    assert code == 0 and json.loads(out)["embeddable"] is True
    code, out, _ = run(capsys, ["oracle", "dwclasses", "--graph", edge_file])
    assert code == 0 and json.loads(out)["num_classes"] == 1


def test_oracle_hypercube_marks_a_capped_refutation(capsys, tmp_path):
    # the 4-cycle embeds in 2 columns; its complete column bound is 4
    path = tmp_path / "c4.txt"
    write_graph_text(str(path), Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    argv = ["oracle", "hypercube", "--graph", str(path)]
    for extra, embeddable, complete in (([], True, True),
                                        (["--max-columns", "1"], False, False),
                                        (["--max-columns", "3"], True, True),
                                        (["--max-columns", "4"], True, True)):
        code, out, _ = run(capsys, argv + extra)
        payload = json.loads(out)
        assert code == 0 and (payload["embeddable"], payload["complete"]) == (embeddable, complete)
    code, out, _ = run(capsys, argv + ["--max-columns", "1", "--human"])
    assert out == "hypercube embeddable at scale 1: False (refuted only within --max-columns 1)\n"
    # the triangle is not bipartite: refuted within its bound, or with no cap
    write_graph_text(str(path), Graph(3, ((0, 1), (1, 2), (0, 2))))
    for extra in ([], ["--max-columns", "2"]):
        code, out, _ = run(capsys, argv + extra)
        payload = json.loads(out)
        assert code == 0 and (payload["embeddable"], payload["complete"]) == (False, True)


@pytest.mark.parametrize("argv", [["oracle", "vc"], ["gadget", "lp"], ["metric", "from-graph"]],
                         ids=["oracle-vc", "gadget-lp", "metric-from-graph"])
def test_negative_node_count_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "g.txt"
    path.write_text("-1 0\n")
    payload = error_of(capsys, argv + ["--graph", str(path)])
    assert payload == {"error": "SizeMismatch", "message": "a graph needs n >= 0 nodes, got n=-1"}


def test_oracle_hypercube_on_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n")
    code, out, _ = run(capsys, ["oracle", "hypercube", "--graph", str(path)])
    payload = json.loads(out)
    assert code == 0 and (payload["embeddable"], payload["complete"]) == (True, True)
    assert payload["witness"] == []


def test_oracle_distortion_is_an_upper_bound(capsys, claw_file):
    code, out, _ = run(capsys, ["oracle", "distortion", "--metric", claw_file])
    assert code == 0 and json.loads(out)["optimal_distortion"] >= 1.0
    code, out, _ = run(capsys, ["oracle", "distortion", "--metric", claw_file, "--human"])
    assert code == 0
    assert out.startswith("upper bound on the optimal l2 distortion ")


def test_oracle_distortion_lower_bound_on_c10(capsys, tmp_path):
    # the 10-cycle's optimal l2 distortion is 5 sin(pi/10), the regular polygon's
    path = tmp_path / "c10.txt"
    write_metric_text(str(path), from_graph(Graph(10, tuple((i, (i + 1) % 10) for i in range(10)))))
    code, out, _ = run(capsys, ["oracle", "distortion", "--metric", str(path)])
    payload = json.loads(out)
    c2 = 5.0 * np.sin(np.pi / 10.0)
    assert code == 0
    assert payload["lower_bound"] <= c2 + 1e-9 and payload["optimal_distortion"] >= c2 - 1e-9
    assert payload["optimal_distortion"] - payload["lower_bound"] <= payload["tol"]
    code, out, _ = run(capsys, ["oracle", "distortion", "--metric", str(path), "--human"])
    assert f"certified lower bound {payload['lower_bound']:.6f}" in out


@pytest.mark.parametrize("argv", [
    ["oracle", "distortion", "--metric", "m.txt", "--max-nodes", "3"],
    ["oracle", "dwclasses", "--graph", "g.txt", "--time-cap", "1"],
    ["oracle", "vc", "--graph", "g.txt", "--max-columns", "3"],
    ["oracle", "vc", "--graph", "g.txt", "--max-size", "3"],
    ["oracle", "outliers", "--metric", "m.txt", "--max-columns", "3"],
    ["oracle", "hypercube", "--graph", "g.txt", "--max-size", "3"],
])
def test_budget_flag_the_oracle_ignores_exits_2(capsys, argv):
    assert dispatch(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gadget_commands(capsys, edge_file, tmp_path):
    code, out, _ = run(capsys, ["gadget", "lp", "--graph", edge_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and len(payload["edges"]) == 5
    out_path = tmp_path / "gadget.txt"
    code, out, _ = run(capsys, ["gadget", "l1", "--graph", edge_file,
                                "--graph-out", str(out_path)])
    assert code == 0
    assert json.loads(out)["n"] == 8
    assert out_path.exists()


def test_human_flag(capsys, edge_file):
    code, out, _ = run(capsys, ["oracle", "vc", "--graph", edge_file, "--human"])
    assert code == 0
    assert "minimum vertex cover 1" in out


def test_output_file(capsys, edge_file, tmp_path):
    dest = tmp_path / "result.json"
    code, out, _ = run(capsys, ["oracle", "vc", "--graph", edge_file, "-o", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["size"] == 1


def error_of(capsys, argv) -> dict:
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    return json.loads(err)


def test_invalid_argument_exits_1(capsys, claw_file):
    payload = error_of(capsys, ["outliers", "solve", "--metric", claw_file,
                                "--c", "0.5", "--gamma", "1.5"])
    assert payload["error"] == "InvalidArgument"
    assert "got 0.5" in payload["message"]  # the --c given, not gamma * c


@pytest.mark.parametrize("flags,given", [
    (["--c", "nan"], "nan"), (["--c", "inf"], "inf"),
    (["--gamma", "nan"], "nan"), (["--gamma", "inf"], "inf"),
], ids=["c-nan", "c-inf", "gamma-nan", "gamma-inf"])
def test_bad_search_parameter_is_named(capsys, monkeypatch, claw_file, flags, given):
    # each parameter is refused before the first feasibility run starts
    def feasibility_run(*args):
        raise AssertionError("a feasibility run started")

    monkeypatch.setattr(outlier_sdp, "distortion_feasible", feasibility_run)
    payload = error_of(capsys, ["outliers", "solve", "--metric", claw_file,
                                "--c", "1.0", "--gamma", "1.5"] + flags)
    assert f"got {given}" in payload["message"]


@pytest.mark.parametrize("flag", ["--c", "--gamma"])
def test_huge_search_parameter_is_named(capsys, claw_file, flag):
    # 1e200 is finite, but its square overflows a float
    payload = error_of(capsys, ["outliers", "solve", "--metric", claw_file,
                                "--c", "1.0", "--gamma", "1.5", flag, "1e200"])
    assert payload["error"] == "InvalidArgument"
    assert "got 1e+200" in payload["message"]


@pytest.mark.parametrize("argv,scale,message", [
    # c^2 is finite, but (gamma c)^2 d^2 on the claw's distance-2 pairs is not
    (["outliers", "solve", "--c", "1e154", "--gamma", "1.5"], 1.0,
     "gamma * c is too large: a square overflows, got 1.5e+154"),
    # at 1e160 the claw's distances are finite, but their squares are not
    (["oracle", "distortion"], 1e160,
     "distance d(0, 1) is too large: its square overflows, got 1e+160"),
    (["oracle", "outliers"], 1e160,
     "distance d(0, 1) is too large: its square overflows, got 1e+160"),
], ids=["outliers-solve", "oracle-distortion", "oracle-outliers"])
def test_overflowing_distance_bound_is_the_only_stderr(capsys, tmp_path, claw_metric, argv, scale,
                                                       message):
    # nothing may start and warn before the error is reported
    path = str(tmp_path / "claw.txt")
    write_metric_text(path, from_matrix(claw_metric.dist * scale))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv + ["--metric", path])
    assert [str(w.message) for w in caught] == []
    assert code == 1 and out == ""
    assert err == json.dumps({"error": "InvalidArgument", "message": message},
                             sort_keys=True) + "\n"


def test_large_distances_bracket_without_warnings(capsys, tmp_path, claw_file, claw_metric):
    # at 6e153 the squared distances are finite, but n d^2 is not: the
    # distance rows' Gram is formed from rows scaled by a power of two
    path = str(tmp_path / "claw.txt")
    write_metric_text(path, from_matrix(claw_metric.dist * 6e153))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["oracle", "distortion", "--metric", path])
    assert [str(w.message) for w in caught] == []
    assert code == 0 and err == ""
    scaled = json.loads(out)
    code, out, _ = run(capsys, ["oracle", "distortion", "--metric", claw_file])
    plain = json.loads(out)
    for key in ("lower_bound", "optimal_distortion"):
        assert scaled[key] == pytest.approx(plain[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("flag", ["--c", "--gamma"])
def test_large_search_parameter_still_solves(capsys, claw_file, flag):
    code, out, _ = run(capsys, ["outliers", "solve", "--metric", claw_file,
                                "--c", "1.0", "--gamma", "1.5", flag, "1e10"])
    assert code == 0
    assert json.loads(out)["K"] == []


def test_directory_as_metric_exits_1(capsys, tmp_path):
    payload = error_of(capsys, ["metric", "validate", "--metric", str(tmp_path)])
    assert payload["error"] == "IsADirectory"


def test_zero_point_metric_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("0\n")
    for argv in (["metric", "validate"], ["outliers", "solve", "--c", "1", "--gamma", "1.5"]):
        assert error_of(capsys, argv + ["--metric", str(empty)])["error"] == "SizeMismatch"


@pytest.fixture
def compose_args(tmp_path, claw_metric, claw_file):
    from metric_outliers import PointSet
    alpha_s = tmp_path / "alpha_s.json"
    alpha_x = tmp_path / "alpha_x.json"
    write_embedding(str(alpha_s), PointSet(points=np.array([[0.0], [-1.0], [1.0]]), p=2.0))
    emb, _ = bourgain_embed(claw_metric, BourgainParams(seed=2, p=2.0))
    write_embedding(str(alpha_x), emb)
    return ["--metric", claw_file, "--s", "0,1,2", "--alpha-s", str(alpha_s),
            "--alpha-x", str(alpha_x)]


def test_embedding_without_p_exits_1(capsys, tmp_path, compose_args):
    nop = tmp_path / "nop.json"
    nop.write_text('{"points": [[0.0], [-1.0], [1.0]]}')
    args = list(compose_args)
    args[args.index("--alpha-s") + 1] = str(nop)
    payload = error_of(capsys, ["compose", "run"] + args)
    assert payload["error"] == "SizeMismatch"
    assert "'p'" in payload["message"]


@pytest.mark.parametrize("pair", ["2,7", "2,-1"])
def test_pair_out_of_range_exits_1(capsys, compose_args, claw_metric, pair):
    # the CLI has no range rule of its own: the message is the composition's
    payload = error_of(capsys, ["compose", "estimate"] + compose_args + ["--pair", pair])
    assert payload["error"] == "IndexOutOfRange"
    bad = pair.split(",")[1]
    assert payload["message"] == f"pair index {bad} is outside 0..{claw_metric.n - 1}"


def test_pair_of_one_point_exits_1(capsys, compose_args):
    # a mean over zero distances would print 0 with exit 0
    payload = error_of(capsys, ["compose", "estimate"] + compose_args + ["--pair", "3,3"])
    assert payload["error"] == "DomainError"
    assert "pair (3, 3)" in payload["message"]


def test_compose_run_reruns_are_byte_identical(capsys, compose_args):
    # the counted blocks are laid out in a fixed order, so a seed fixes stdout
    argv = ["compose", "run"] + compose_args + ["--samples", "16", "--seed", "5"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv)[1] == out1


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_distortion_tol_exits_1(capsys, claw_file, tol):
    # tol <= 0 never ends the bisection; nan and inf printed invalid JSON
    payload = error_of(capsys, ["oracle", "distortion", "--metric", claw_file, "--tol", tol])
    assert payload["error"] == "InvalidArgument"
    assert f"got {float(tol)}" in payload["message"]


@pytest.mark.parametrize("argv,field", [
    (["oracle", "outliers", "--metric", "{claw}", "--time-cap", "nan"], "time_cap"),
    (["oracle", "outliers", "--metric", "{claw}", "--max-size", "-1"], "max_subset_size"),
    (["oracle", "vc", "--graph", "{edge}", "--max-nodes", "-1"], "max_nodes"),
    (["oracle", "hypercube", "--graph", "{edge}", "--max-columns", "-1"], "max_columns"),
], ids=["time-cap-nan", "max-size", "max-nodes", "max-columns"])
def test_bad_oracle_budget_exits_1(capsys, claw_file, edge_file, argv, field):
    # nan ran with no cap, and -1 columns refuted the single edge, which embeds
    argv = [a.format(claw=claw_file, edge=edge_file) for a in argv]
    payload = error_of(capsys, argv)
    assert payload["error"] == "InvalidArgument" and field in payload["message"]
    # the message leads with the flag as typed, then the field it sets
    assert payload["message"].startswith(f"{argv[-2]} ({field}) ")


HUGE_METRIC = "3\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n"


def only_stderr(capsys, argv) -> tuple[int, str, str]:
    """run, failing on any warning raised before the command returns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert [str(w.message) for w in caught] == []
    return code, out, err


def test_huge_finite_distances_validate_without_warnings(capsys, tmp_path):
    # (d + d^T) / 2 overflowed to inf here, and the metric was called valid
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_METRIC)
    code, out, err = only_stderr(capsys, ["metric", "validate", "--metric", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["valid"] is True


def test_huge_finite_distance_is_named_by_outliers_solve(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_METRIC)
    code, out, err = only_stderr(capsys, ["outliers", "solve", "--metric", str(path),
                                          "--c", "1", "--gamma", "1.5"])
    assert code == 1 and out == ""
    assert err == json.dumps({"error": "InvalidArgument", "message": "distance d(0, 1) is too "
                              "large: its square overflows, got 1e+308"}, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["run", "estimate"])
def test_overflowing_grab_radius_exits_1(capsys, tmp_path, command):
    # S = {0}: both outliers are 1e308 from their anchor, so b d(v, gamma(v))
    # overflows for b near 4. alpha_x = 5e307 I is expanding at p = 1, and its
    # cityblock distances, 1e308, are finite
    from metric_outliers import PointSet
    path, alpha_s, alpha_x = (tmp_path / name for name in ("huge.txt", "as.json", "ax.json"))
    path.write_text(HUGE_METRIC)
    write_embedding(str(alpha_s), PointSet(points=np.array([[0.0]]), p=1.0))
    write_embedding(str(alpha_x), PointSet(points=5e307 * np.eye(3), p=1.0))
    extra = ["--pair", "1,2"] if command == "estimate" else []
    code, out, err = only_stderr(capsys, ["compose", command, "--metric", str(path), "--s", "0",
                                          "--alpha-s", str(alpha_s), "--alpha-x", str(alpha_x)]
                                 + extra)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidArgument"
    assert "d(v, gamma(v)) = 1e+308" in payload["message"]


def test_computed_c0_overflow_is_the_only_stderr(capsys, tmp_path, claw_metric):
    # at 1e153 the claw's (gamma c d)^2 is finite; strong mode's f(0) = (382 zeta)^2
    # puts c0 near 9.9, whose (c0 d)^2 is not, while weak mode's c0 is about 1.0006
    path = str(tmp_path / "claw.txt")
    write_metric_text(path, from_matrix(claw_metric.dist * 1e153))
    argv = ["outliers", "solve", "--metric", path, "--c", "1", "--gamma", "1.5"]
    code, out, err = only_stderr(capsys, argv + ["--mode", "strong"])
    assert code == 1 and out == ""
    assert err == json.dumps({"error": "InvalidArgument", "message": "c0 is too large: a square "
                              "overflows, got 9.916245860434326"}, sort_keys=True) + "\n"
    code, out, err = only_stderr(capsys, argv)
    assert code == 0 and err == ""
    assert json.loads(out)["solver"]["zeta"] == 1.1547005383792517


@pytest.mark.parametrize("flags", [
    ["--tau", "inf"], ["--tau", "nan"], ["--kappa", "inf"], ["--tau", "1e308"],
    ["--c-s", "nan"], ["--c-x", "inf"], ["--c-s", "0.5"], ["--c-x", "1e308"],
], ids=lambda flags: "".join(flags))
def test_bad_bound_parameter_exits_1(capsys, flags):
    base = {"--case": "d", "--c-s": "1", "--c-x": "2"}
    base.update(dict(zip(flags[::2], flags[1::2])))
    payload = error_of(capsys, ["compose", "bound"] + [a for kv in base.items() for a in kv])
    assert payload["error"] == "InvalidArgument"


# -- the provenance and output contract, for every leaf command ------------------

LEAVES = [
    ["metric", "validate", "--metric", "{claw}"],
    ["metric", "from-graph", "--graph", "{edge}", "--metric-out", "{tmp}/m.txt"],
    ["embed", "bourgain", "--metric", "{claw}", "--seed", "3"],
    ["compose", "run", "--metric", "{claw}", "--s", "0,1,2", "--alpha-s", "{alpha_s}",
     "--alpha-x", "{alpha_x}", "--samples", "4", "--seed", "11"],
    ["compose", "estimate", "--metric", "{claw}", "--s", "0,1,2", "--alpha-s", "{alpha_s}",
     "--alpha-x", "{alpha_x}", "--pair", "0,3", "--trials", "20"],
    ["compose", "bound", "--case", "e", "--c-s", "1", "--c-x", "2", "--k", "3"],
    ["outliers", "solve", "--metric", "{claw}", "--c", "1", "--gamma", "1.5", "--seed", "7"],
    ["oracle", "vc", "--graph", "{edge}"],
    ["oracle", "outliers", "--metric", "{claw}"],
    ["oracle", "distortion", "--metric", "{claw}"],
    ["oracle", "hypercube", "--graph", "{edge}", "--scale", "2"],
    ["oracle", "dwclasses", "--graph", "{edge}"],
    ["gadget", "lp", "--graph", "{edge}"],
    ["gadget", "l1", "--graph", "{edge}", "--graph-out", "{tmp}/g.txt"],
    # the output names the input: the digest is that of the graph as read
    ["gadget", "lp", "--graph", "{edge}", "--graph-out", "{edge}"],
]
INPUT_FILE_FLAGS = ("--metric", "--graph", "--alpha-s", "--alpha-x")


@pytest.mark.parametrize("template", LEAVES, ids=lambda t: "-".join(t[:2]) + (
    "-overwrites-input" if t[-2:] == ["--graph-out", "{edge}"] else ""))
def test_provenance_and_output_contract(capsys, tmp_path, claw_file, edge_file,
                                        compose_args, template):
    alpha_s, alpha_x = (compose_args[compose_args.index(flag) + 1]
                        for flag in ("--alpha-s", "--alpha-x"))
    argv = [arg.format(claw=claw_file, edge=edge_file, alpha_s=alpha_s, alpha_x=alpha_x,
                       tmp=tmp_path) for arg in template]
    before = {path: open(path, "rb").read() for path in (claw_file, edge_file, alpha_s, alpha_x)}

    def fresh_run(extra):
        for path, data in before.items():
            with open(path, "wb") as fh:
                fh.write(data)
        return run(capsys, argv + extra)

    code, out, err = fresh_run([])
    assert code == 0 and err == ""
    given = {flag[2:].replace("-", "_"): argv[i + 1]
             for i, flag in enumerate(argv) if flag in INPUT_FILE_FLAGS}
    provenance = json.loads(out)["provenance"]
    assert provenance["inputs"] == {
        name: "sha256:" + hashlib.sha256(before[path]).hexdigest() for name, path in given.items()}

    dest = tmp_path / "result.json"
    assert fresh_run(["-o", str(dest)]) == (0, "", "")
    assert dest.read_text() == out
    dest.unlink()
    assert fresh_run(["-o", str(dest), "--human"]) == (0, "", "")
    assert dest.read_text() == out

    code, human, err = fresh_run(["--human"])
    assert code == 0 and err == ""
    assert human.endswith("\n") and "{" not in human
