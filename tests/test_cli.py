import argparse
import csv
import io
import json
import time
from fractions import Fraction

import pytest

from conftest import write_edge_list
from matchlab import cli, pm
from matchlab.cli import main
from matchlab.expansion import ExpansionParams, certify_bipartite, certify_exact
from matchlab.graphs import (
    Bipartition,
    Graph,
    complete_graph,
    read_edge_list,
    to_bidirected,
)
from matchlab.rational import as_fraction
from matchlab.walks import matrix_power, transition_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_count_from_file(capsys, tmp_path):
    path = tmp_path / "k4.el"
    write_edge_list(path, complete_graph(4))
    doc = run_json(capsys, "count", "--file", str(path))
    assert doc["rows"][0]["count"] == "3"


def test_count_complete_family(capsys):
    doc = run_json(capsys, "count", "--family", "complete", "-n", "6")
    assert doc["rows"][0]["count"] == "15"


def test_avoidance_complete_six(capsys):
    doc = run_json(capsys, "avoidance", "--family", "complete", "-n", "6")
    row = doc["rows"][0]
    assert row["exact"] == "8/15"
    assert row["reference"] == pytest.approx(0.5488116360940264)


def test_avoidance_multipartite_is_exact_truth(capsys):
    # the octahedron's own avoidance ratio (the 8/15 value belongs to the
    # six-vertex complete graph, reachable as -a 6 -b 1)
    doc = run_json(capsys, "avoidance", "--family", "multipartite", "-a", "3", "-b", "2")
    assert doc["rows"][0]["exact"] == "1/2"
    doc2 = run_json(capsys, "avoidance", "--family", "multipartite", "-a", "6", "-b", "1")
    assert doc2["rows"][0]["exact"] == "8/15"


def test_expander_pass(capsys):
    doc = run_json(
        capsys,
        "expander", "--family", "multipartite", "-a", "3", "-b", "2",
        "--nu", "0.1", "--tau", "0.3",
    )
    assert doc["rows"][0]["verdict"] == "pass"


def test_expander_sampled_never_passes(capsys):
    doc = run_json(
        capsys,
        "expander", "--family", "complete", "-n", "6",
        "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "50",
    )
    assert doc["rows"][0]["verdict"] == "inconclusive"


def test_edge_prob_rows(capsys):
    doc = run_json(capsys, "edge_prob", "--family", "complete", "-n", "4")
    rows = doc["rows"]
    assert len(rows) == 6
    assert all(r["exact"] == "1/3" for r in rows)
    assert all(r["abs_dev"] == 0 for r in rows)


def test_pmf_rows_and_tv(capsys):
    doc = run_json(capsys, "pmf", "--family", "complete", "-n", "6")
    rows = doc["rows"]
    by_k = {r["k"]: r for r in rows}
    assert by_k[0]["exact"] == "8/15"
    assert by_k[2]["exact"] == "0"
    assert by_k[0]["tv"] == pytest.approx(0.11762246611112622, rel=1e-9)


def test_disjoint_exact(capsys):
    doc = run_json(capsys, "disjoint", "--family", "complete", "-n", "6", "--r", "2")
    assert doc["rows"][0]["value"] == "8/15"


def test_switching_sweep(capsys):
    doc = run_json(
        capsys, "switching", "--family", "complete", "-n", "6",
        "--k", "1", "--reference", "edge",
    )
    rows = doc["rows"]
    assert [r["ell"] for r in rows] == [2, 3]
    assert all(r["exact_ratio"] == "1/4" for r in rows)
    assert all(r["double_count_ok"] for r in rows)


def test_walks_analysis(capsys):
    doc = run_json(
        capsys, "walks", "--family", "complete", "-n", "6",
        "--nu", "1/3", "--tau", "1/3",
    )
    row = doc["rows"][0]
    assert row["certificate"] == "pass"
    assert row["walk_bound_ok"] is True
    assert row["sandwich_ok"] is True
    assert row["mixing_passes"] is True


@pytest.mark.parametrize(
    "extra",
    [[], ["--ell", "6", "--k", "5"], ["--ell", "0"], ["--ell", "3", "--k", "3"], ["--ell", "1"], ["--ell", "5"]],
)
def test_walk_counts_match_count_walks(capsys, extra):
    argv = ["walks", "--family", "random_regular", "-n", "10", "-d", "3", "--seed", "1",
            "--nu", "1/10", "--tau", "1/5", *extra]
    row = run_json(capsys, *argv)["rows"][0]
    g, _ = cli.build_graph(cli.build_parser().parse_args(argv))
    # every out-degree is 3, so there are 3^ell * P^ell(u, v) walks
    ell = row["ell"]
    p_ell = matrix_power(transition_matrix(to_bidirected(g)), ell).rows
    counts = [3**ell * p_ell[u][v] for u in range(10) for v in range(10) if u != v]
    assert all(c.denominator == 1 for c in counts)
    assert (row["min_walks"], row["max_walks"]) == (min(counts), max(counts))
    assert row["walk_bound_ok"] == all(c >= row["walk_lower_bound"] for c in counts)
    expected = float(Fraction(3, 10) ** ell * 10 ** (ell - 1))
    assert row["max_rel_err_vs_regular_count"] == max(abs(int(c) / expected - 1.0) for c in counts)


def test_walks_on_a_bipartite_host_fail_the_walk_bound(capsys):
    # an even length never joins the two sides of K_{3,3}, so the fewest
    # walks, 0, fall short of (nu*n)^(ell-1) = 8
    row = run_json(
        capsys, "walks", "--family", "multipartite", "-a", "2", "-b", "3", "--nu", "1/3", "--tau", "1/3"
    )["rows"][0]
    assert (row["ell"], row["min_walks"], row["max_walks"]) == (4, 0, 27)
    assert row["walk_lower_bound"] == 8.0
    assert row["walk_bound_ok"] is False
    assert row["max_rel_err_vs_regular_count"] == 1.0


def test_walks_with_an_ell_past_the_float_range_is_input_error(capsys, monkeypatch):
    # 5^500 / 6 walks are expected between two vertices of K6, above the
    # largest float; that is seen before any walk is counted
    def no_counts(*args):
        raise AssertionError("walks counted for an ell past the float range")

    monkeypatch.setattr(cli.walks, "count_walks", no_counts)
    code = main(["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3", "--ell", "500"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --ell 500 is too large: the walk counts leave the float range\n"
    monkeypatch.undo()
    assert main(["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3", "--ell", "400"]) == 0


def test_walks_with_one_count_past_the_float_range_is_input_error(capsys):
    # on K_{2,2} an odd ell gives 2^(ell-1) walks across and none within a
    # side: at ell = 1025 the mean 2^1023 is a float and the count is not
    argv = ["walks", "--family", "multipartite", "-a", "2", "-b", "2", "--nu", "1/4", "--tau", "1/2", "--ell"]
    assert main([*argv, "1025"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ell 1025 is too large: the walk counts leave the float range\n"
    assert run_json(capsys, *argv, "1024")["rows"][0]["max_walks"] == 2**1024 // 2


def test_walks_on_a_one_regular_host_refuses_a_large_ell_by_its_step_budget(capsys, monkeypatch):
    # K2 has at most one walk between two vertices at any length, so no
    # float bound stops a large ell; the step budget does, before any walk
    # is counted and within a second
    def no_counts(*args):
        raise AssertionError("walks counted past the step budget")

    argv = ["walks", "--family", "complete", "-n", "2", "--nu", "1/3", "--tau", "1/3", "--ell"]
    monkeypatch.setattr(cli.walks, "count_walks", no_counts)
    start = time.perf_counter()
    code = main([*argv, "1000000"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: instance too large: walk counts need 2000000 propagation steps, "
        "over the budget of 100000\n"
    )
    assert main([*argv, str(cli.WALK_STEP_BUDGET // 2 + 1)]) == 2
    capsys.readouterr()
    monkeypatch.undo()
    # an even length never ends at the other vertex; the budget admits
    # exactly ell * n = WALK_STEP_BUDGET
    for ell in ("1000", str(cli.WALK_STEP_BUDGET // 2)):
        row = run_json(capsys, *argv, ell)["rows"][0]
        assert (row["ell"], row["min_walks"], row["max_walks"]) == (int(ell), 0, 0)


@pytest.mark.parametrize(
    "n, ell",
    [("2", "30000000"), ("10", "1000000")],
    ids=["one-regular", "past-the-float-range"],
)
def test_walks_refuses_an_ell_over_the_step_budget_before_its_float_bounds(capsys, n, ell):
    # the float bounds power (nu*n)^(ell-1) and delta^ell * n^(ell-1)
    # exactly, which takes seconds at these ells; the step budget is
    # checked first, so it wins over the float range and answers at once
    argv = ["walks", "--family", "complete", "-n", n, "--nu", "1/3", "--tau", "1/3", "--ell", ell]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: instance too large: walk counts need {int(n) * int(ell)} propagation steps, "
        "over the budget of 100000\n"
    )


def test_walks_refuses_a_large_k_by_its_step_budget(capsys, monkeypatch):
    # P^k, the k-step walk rows and the mixing checks all grow with k: a
    # k past the step budget is refused before P is powered, within a second
    def no_power(*args):
        raise AssertionError("P powered past the step budget")

    argv = ["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3", "--ell", "2", "--k"]
    monkeypatch.setattr(cli.walks, "matrix_power", no_power)
    start = time.perf_counter()
    code = main([*argv, "40000"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: instance too large: the k-step checks need 240000 propagation steps, "
        "over the budget of 100000\n"
    )
    assert main([*argv, str(cli.WALK_STEP_BUDGET // 6 + 1)]) == 2
    capsys.readouterr()
    monkeypatch.undo()
    row = run_json(capsys, *argv, "4000")["rows"][0]
    assert row["k"] == 4000


def test_csv_output_and_determinism(capsys):
    code1, out1 = run_cli(capsys, "suite_tv", "--sizes", "6", "8", "--format", "csv")
    code2, out2 = run_cli(capsys, "suite_tv", "--sizes", "6", "8", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [r["n"] for r in rows] == ["6", "8"]
    assert rows[0]["p0_exact"] == "8/15"
    # floats carry 12 significant digits
    assert rows[0]["tv"] == "0.117622466111"


def test_csv_to_file(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _ = run_cli(
        capsys, "avoidance", "--family", "complete", "-n", "6",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("n,d,")
    assert "8/15" in text


def test_exit_code_input_error(capsys):
    code = main(["count", "--file", "/nonexistent/file.el"])
    assert code == 1
    code = main(["avoidance", "--family", "complete", "-n", "5"])
    assert code == 1


def test_suite_tv_without_a_perfect_matching_is_input_error(capsys):
    # K_{1x2} is two isolated vertices: even, but with no perfect matching
    code = main(["suite_tv", "-a", "1", "--sizes", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: size 2 gives a graph with no perfect matching\n"


def test_exit_code_too_large(capsys):
    code = main(["count", "--family", "complete", "-n", "30"])
    assert code == 2


def test_switching_k_below_one_is_input_error(capsys):
    code = main(["switching", "--family", "complete", "-n", "4", "--k", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: k must be positive\n"


def test_generation_failure_is_input_error_not_too_large(capsys):
    code = main(["count", "--family", "random_regular", "-n", "10", "-d", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: no simple pairing found for (n=10, d=8) in 10000 restarts\n"
    )


def test_exit_code_bad_flags(capsys):
    assert main(["bogus_analysis"]) == 1
    assert main(["count", "--family", "multipartite"]) == 1


def test_nu_greater_than_tau_warns(capsys):
    code = main([
        "expander", "--family", "complete", "-n", "6",
        "--nu", "0.4", "--tau", "0.2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_suite_multipartite_contains_known_rows(capsys):
    rows = run_json(capsys, "suite_multipartite", "--b-max", "3", "--cap", "12")["rows"]
    index = {(r["parts"], r["part_size"]): r for r in rows}
    assert index[(6, 1)]["exact"] == "8/15"
    assert index[(2, 3)]["exact"] == "1/3"  # three-element derangements
    assert index[(3, 2)]["exact"] == "1/2"
    for row in rows:
        assert row["abs_diff"] < 0.2


def test_suite_tv_trend_shrinks(capsys):
    rows = run_json(capsys, "suite_tv", "--sizes", "6", "8", "10", "12")["rows"]
    tvs = [r["tv"] for r in rows]
    assert tvs == sorted(tvs, reverse=True)
    assert all(not r["out_of_regime"] for r in rows)


def test_suite_tv_degenerate_small_flagged(capsys):
    rows = run_json(capsys, "suite_tv", "--sizes", "2")["rows"]
    assert rows[0]["out_of_regime"] is True
    assert rows[0]["p0_exact"] == "0"


# -- every subcommand through main ------------------------------------------

def _bipartite_file(tmp_path):
    """K_{3,3} with an 'A:' line, so `expander` takes the bipartite sweep."""
    path = tmp_path / "k33.el"
    g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    write_edge_list(path, g, Bipartition(range(3), range(3, 6)))
    return path


SMALL_INVOCATIONS = {
    "count": ["--family", "complete", "-n", "6"],
    "edge_prob": ["--family", "complete", "-n", "4"],
    "pmf": ["--family", "complete", "-n", "6"],
    "avoidance": ["--family", "multipartite", "-a", "3", "-b", "2"],
    "disjoint": [
        "--family", "complete", "-n", "6", "--r", "3",
        "--mode", "montecarlo", "--samples", "500", "--seed", "7",
    ],
    "switching": ["--family", "complete", "-n", "6", "--k", "1"],
    "walks": ["--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3"],
    "expander": ["--file", "{bipartite}", "--nu", "0.1", "--tau", "0.3"],
    "suite_multipartite": ["--b-max", "2", "--cap", "8"],
    "suite_tv": ["--sizes", "6", "8"],
}


@pytest.mark.parametrize("analysis", list(cli._RUNNERS))
def test_every_runner_is_deterministic_in_json_and_csv(capsys, tmp_path, analysis):
    bipartite = str(_bipartite_file(tmp_path))
    argv = [analysis] + [a.format(bipartite=bipartite) for a in SMALL_INVOCATIONS[analysis]]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["analysis"] == analysis
    assert doc["rows"]
    code, text = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(doc["rows"])
    assert list(rows[0]) == list(doc["rows"][0])


def test_expander_file_with_a_line_takes_bipartite_sweep(capsys, tmp_path):
    path = _bipartite_file(tmp_path)
    doc = run_json(capsys, "expander", "--file", str(path), "--nu", "0.1", "--tau", "0.3")
    g, part = read_edge_list(path)
    params = ExpansionParams(Fraction(1, 10), Fraction(3, 10))
    expected = certify_bipartite(g, part, params).sets_checked
    assert doc["rows"][0]["sets_checked"] == expected
    assert expected != certify_exact(g, params).sets_checked


@pytest.mark.parametrize("a_lines, message", [
    ("A: 0 1 9\n", "error: vertex 9 outside 0..5"),
    ("A: 0 1 1\n", "error: vertex 1 repeated on the 'A:' line"),
    ("A: 0 1 2\nA: 3\n", "error: second 'A:' line: 'A: 3'"),
], ids=["out_of_range", "repeated", "second_line"])
def test_expander_file_with_bad_a_line_is_input_error(capsys, tmp_path, a_lines, message):
    path = tmp_path / "bad.el"
    edges = "".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6))
    path.write_text("6 9\n" + edges + a_lines)
    code = main(["expander", "--file", str(path), "--nu", "0.1", "--tau", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_parser_flags_and_defaults():
    ns = cli.build_parser().parse_args(["count", "--file", "g.el"])
    assert vars(ns) == {
        "analysis": "count", "seed": 0, "out": None, "fmt": "json",
        "family": None, "path": "g.el", "a": None, "b": None, "n": None, "d": None,
    }
    ns = cli.build_parser().parse_args(["walks", "--family", "complete", "--nu", "0.1", "--tau", "1/3"])
    assert (ns.nu, ns.tau) == (Fraction(1, 10), Fraction(1, 3))


_REPORT_FLAGS = {"seed": 0, "out": None, "fmt": "json"}
_HOST_FLAGS = {"family": None, "path": None, "a": None, "b": None, "n": None, "d": None}
_OWN_FLAGS = {
    "count": {},
    "edge_prob": {},
    "pmf": {"reference": "pm"},
    "avoidance": {"reference": "pm"},
    "disjoint": {"r": 2, "mode": "exact", "samples": None},
    "switching": {"reference": "pm", "ell": None, "k": None},
    "walks": {"ell": None, "k": None, "nu": None, "tau": None},
    "expander": {"nu": None, "tau": None, "sampled": False, "trials": None},
    "suite_multipartite": {"b_max": 6, "cap": 20},
    "suite_tv": {"a": None, "sizes": [6, 8, 10, 12]},
}


def test_each_subcommand_offers_only_the_flags_its_runner_reads():
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    offered = {
        name: {a.dest: a.default for a in p._actions if a.dest != "help"}
        for name, p in subparsers.choices.items()
    }
    assert list(offered) == list(cli._RUNNERS)
    for name, flags in offered.items():
        host = {} if name.startswith("suite_") else _HOST_FLAGS
        assert flags == {**_REPORT_FLAGS, **host, **_OWN_FLAGS[name]}, name
    assert sum(map(len, offered.values())) == 98


@pytest.mark.parametrize("argv", [
    ["count", "--family", "complete", "-n", "6", "--nu", "1/2"],
    ["expander", "--family", "complete", "-n", "6", "--nu", "0.1", "--tau", "0.3", "--sampled", "--samples", "50"],
    ["suite_tv", "--file", "g.el"],
    ["suite_multipartite", "--b-max", "2", "--cap", "8", "-n", "6"],
    ["pmf", "--family", "complete", "-n", "6", "--k", "2"],
    ["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3", "--reference", "edge"],
], ids=lambda argv: argv[0])
def test_a_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # the subcommand's usage, which lists the flags it does take
    assert captured.err.startswith(f"usage: matchlab {argv[0]} [-h]")
    assert f"matchlab {argv[0]}: error: unrecognized arguments: " in captured.err


@pytest.mark.parametrize("argv, message", [
    (["count", "--family", "complete", "-n", "6", "-d", "3", "-a", "9"], "complete family does not take -a -d"),
    (["count", "--family", "multipartite", "-a", "3", "-b", "2", "-n", "6"], "multipartite family does not take -n"),
    (["count", "--family", "random_regular", "-n", "6", "-d", "3", "-b", "2"], "random_regular family does not take -b"),
    (["count", "--file", "{k4}", "-n", "4"], "file family does not take -n"),
    (["count", "--file", "{k4}", "-d", "3"], "file family does not take -d"),
], ids=["complete", "multipartite", "random_regular", "bare_file", "file"])
def test_a_size_flag_the_family_does_not_use_is_refused(capsys, tmp_path, argv, message):
    k4 = tmp_path / "k4.el"
    write_edge_list(k4, complete_graph(4))
    code = main([a.format(k4=k4) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["disjoint", "--family", "complete", "-n", "6", "--samples", "5"], "--samples needs --mode montecarlo"),
    (["expander", "--family", "complete", "-n", "6", "--nu", "0.1", "--tau", "0.3", "--trials", "5"],
     "--trials needs --sampled"),
], ids=["samples", "trials"])
def test_a_flag_read_only_on_the_other_branch_is_refused(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_branch_flags_default_where_they_are_read(capsys):
    doc = run_json(capsys, "disjoint", "--family", "complete", "-n", "6", "--r", "1", "--mode", "montecarlo")
    assert doc["rows"][0]["samples"] == 100_000
    doc = run_json(
        capsys, "expander", "--family", "complete", "-n", "6", "--nu", "0.1", "--tau", "0.3", "--sampled"
    )
    assert doc["rows"][0]["sets_checked"] == 1000


@pytest.mark.parametrize("edges, verdict, witness", [
    ([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], "fail", "0 1 2"),
    ([(u, v) for u in range(6) for v in range(u + 1, 6)], "pass", None),
], ids=["two_triangles", "k6"])
def test_expander_row(capsys, tmp_path, edges, verdict, witness):
    path = tmp_path / "host.el"
    g = Graph(6, edges)
    write_edge_list(path, g)
    doc = run_json(capsys, "expander", "--file", str(path), "--nu", "0.1", "--tau", "0.3")
    cert = certify_exact(g, ExpansionParams(Fraction(1, 10), Fraction(3, 10)))
    assert doc["rows"] == [
        {"verdict": verdict, "nu": 0.1, "tau": 0.3, "witness": witness, "sets_checked": cert.sets_checked}
    ]
    assert list(doc["rows"][0]) == ["verdict", "nu", "tau", "witness", "sets_checked"]


@pytest.mark.parametrize("family", ["complete", "multipartite", "random_regular"])
def test_file_with_a_generated_family_is_input_error(capsys, tmp_path, family):
    path = tmp_path / "k4.el"
    write_edge_list(path, complete_graph(4))
    code = main(["count", "--family", family, "-n", "6", "-a", "3", "-b", "2", "-d", "3", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # a host is named once, so argparse refuses the pair under the usage
    assert captured.err.startswith("usage: matchlab count [-h]")
    assert "matchlab count: error: argument --file: not allowed with argument --family" in captured.err


# -- inputs that used to end in a traceback ---------------------------------

def test_pmf_on_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.el"
    path.write_text("0 0\n")
    doc = run_json(capsys, "pmf", "--file", str(path))
    assert doc["rows"] == [{
        "k": 0, "exact": "1", "exact_float": 1.0, "poisson": 1.0,
        "lambda": 0.0, "tv": 0.0, "poisson_truncation": 0.0,
    }]


@pytest.mark.parametrize("analysis", ["pmf", "avoidance", "switching"])
def test_edge_reference_on_graph_without_edges(capsys, tmp_path, analysis):
    path = tmp_path / "empty.el"
    path.write_text("0 0\n")
    code = main([analysis, "--file", str(path), "--reference", "edge"])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert "error: graph has no edge to use as reference" in err


class _Usage(str):
    """A refusal argparse makes, after the subcommand's usage."""


_PATH_P3 = "4 2\n0 1\n1 2\n"
_TWO_TRIANGLES = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"

# Every input error a user can reach, with its whole stderr, or for a
# refusal argparse makes (_Usage) the subcommand's usage and its error
# line; "FILE" in argv stands for a file holding the row's edge-list text
# (or bytes).
_INPUT_ERRORS = {
    "family_file_without_file": (["count", "--family", "file"], None, _Usage("argument --family: invalid choice: 'file'")),
    "family_file_with_file": (
        ["count", "--family", "file", "--file", "FILE"], _PATH_P3, _Usage("argument --family: invalid choice: 'file'"),
    ),
    "family_and_file": (
        ["count", "--family", "complete", "-n", "6", "--file", "FILE"], _PATH_P3,
        _Usage("argument --file: not allowed with argument --family"),
    ),
    "bad_header_line": (["count", "--file", "FILE"], "1 2 3\n", "bad header line: '1 2 3'"),
    "bad_edge_line": (["count", "--file", "FILE"], "4 1\n0 1 2\n", "bad edge line: '0 1 2'"),
    "header_token": (["count", "--file", "FILE"], "4 x\n", "bad header line: '4 x'"),
    "edge_token": (["count", "--file", "FILE"], "4 1\n0 x\n", "bad edge line: '0 x'"),
    "a_line_token": (["count", "--file", "FILE"], "4 1\n0 1\nA: x\n", "bad 'A:' line: 'A: x'"),
    "repeated_edge": (["count", "--file", "FILE"], "4 2\n0 1\n0 1\n", "edge 0 1 repeated: '0 1'"),
    "reversed_edge": (["count", "--file", "FILE"], "4 2\n0 1\n1 0\n", "edge 0 1 repeated: '1 0'"),
    "pmf_irregular": (["pmf", "--file", "FILE"], _PATH_P3, "pmf analysis needs a regular graph"),
    "walks_irregular": (
        ["walks", "--file", "FILE", "--nu", "0.1", "--tau", "0.3"], _PATH_P3,
        "walks analysis needs a regular graph with edges",
    ),
    "disjoint_irregular": (["disjoint", "--file", "FILE"], _PATH_P3, "graph must be regular"),
    "pmf_regular_without_pm": (
        ["pmf", "--file", "FILE"], _TWO_TRIANGLES, "graph has no perfect matching to use as reference",
    ),
    "walks_without_tau": (
        ["walks", "--family", "complete", "-n", "6", "--nu", "0.1"], None, "this analysis needs --nu and --tau",
    ),
    "expander_without_nu_tau": (
        ["expander", "--family", "complete", "-n", "6"], None, "this analysis needs --nu and --tau",
    ),
    "expander_bipartite_without_bipartition": (
        ["expander", "--family", "complete", "-n", "6", "--bipartite", "--nu", "0.1", "--tau", "0.3"], None,
        _Usage("unrecognized arguments: --bipartite"),
    ),
    "expander_bipartite_on_a_bipartition": (
        ["expander", "--family", "multipartite", "-a", "2", "-b", "3", "--nu", "0.1", "--tau", "0.3", "--bipartite"],
        None, _Usage("unrecognized arguments: --bipartite"),
    ),
    "expander_trials_zero": (
        ["expander", "--family", "complete", "-n", "8", "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "0"],
        None, "sampled mode needs at least one trial",
    ),
    "expander_trials_negative": (
        ["expander", "--family", "complete", "-n", "8", "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "-5"],
        None, "sampled mode needs at least one trial",
    ),
    "expander_sampled_on_a_bipartition": (
        ["expander", "--family", "multipartite", "-a", "2", "-b", "8", "--nu", "0.1", "--tau", "0.3", "--sampled"],
        None, "a host with a bipartition takes the bipartite sweep: drop --sampled",
    ),
    "expander_sampled_on_a_file_bipartition": (
        ["expander", "--file", "FILE", "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "5000"],
        "4 2\n0 1\n2 3\nA: 0 2\n", "a host with a bipartition takes the bipartite sweep: drop --sampled",
    ),
    "disjoint_samples_negative": (
        ["disjoint", "--family", "complete", "-n", "6", "--r", "3", "--mode", "montecarlo", "--samples", "-5"],
        None, "montecarlo mode needs at least one sample",
    ),
    "disjoint_r_zero": (["disjoint", "--family", "complete", "-n", "6", "--r", "0"], None, "r must be at least 1"),
    "suite_tv_multipartite_without_a": (
        ["suite_tv", "--family", "multipartite"], None, _Usage("unrecognized arguments: --family multipartite"),
    ),
    "suite_tv_family_complete": (
        ["suite_tv", "--family", "complete"], None, _Usage("unrecognized arguments: --family complete"),
    ),
    "suite_tv_odd_size": (["suite_tv", "--sizes", "7"], None, "size 7 gives an odd vertex count"),
    "no_family_nor_file": (["count", "-n", "6"], None, _Usage("one of the arguments --family --file is required")),
    "bare_count": (["count"], None, _Usage("one of the arguments --family --file is required")),
    "edge_prob_without_pm": (
        ["edge_prob", "--family", "random_regular", "-n", "8", "-d", "0"], None, "graph has no perfect matching",
    ),
    "edge_prob_file_without_pm": (["edge_prob", "--file", "FILE"], "4 1\n0 1\n", "graph has no perfect matching"),
    "suite_multipartite_b_max_zero": (
        ["suite_multipartite", "--b-max", "0"], None, "the suite holds no host: it needs --b-max >= 1 and --cap >= 4",
    ),
    "suite_multipartite_cap_three": (
        ["suite_multipartite", "--cap", "3"], None, "the suite holds no host: it needs --b-max >= 1 and --cap >= 4",
    ),
    "switching_without_an_ell": (
        ["switching", "--family", "complete", "-n", "2"], None,
        "switching needs n >= 4, so that some ell has 2 <= ell and 2*ell <= n",
    ),
    "file_not_utf8": (
        ["count", "--file", "FILE"], b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
}


@pytest.mark.parametrize("argv,text,message", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS)
def test_reachable_input_errors(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "host.el"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [str(path) if a == "FILE" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    if isinstance(message, _Usage):
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"usage: matchlab {argv[0]} [-h]")
        assert f"\nmatchlab {argv[0]}: error: {message}" in captured.err
    else:
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_edge_prob_on_k0_is_an_empty_report(capsys):
    # K0 has one perfect matching, the empty one, and no edge to report
    assert run_json(capsys, "edge_prob", "--family", "complete", "-n", "0")["rows"] == []
    # and CSV prints no header for no rows
    assert run_cli(capsys, "edge_prob", "--family", "complete", "-n", "0", "--format", "csv") == (0, "")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_edge_prob_on_irregular_graph_is_strict_json(capsys, tmp_path):
    path = tmp_path / "kite.el"
    path.write_text("4 4\n0 1\n1 2\n2 3\n0 2\n")
    code, out = run_cli(capsys, "edge_prob", "--file", str(path))
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert len(rows) == 4
    assert all(r["d"] is None for r in rows)
    assert all(r["one_over_d"] is None and r["abs_dev"] is None for r in rows)
    code, text = run_cli(capsys, "edge_prob", "--file", str(path), "--format", "csv")
    assert code == 0
    for row in csv.DictReader(io.StringIO(text)):
        assert row["d"] == row["one_over_d"] == row["abs_dev"] == ""


def test_suite_tv_size_zero(capsys):
    (row,) = run_json(capsys, "suite_tv", "--sizes", "0")["rows"]
    assert (row["n"], row["d"], row["lambda"]) == (0, 0, 0.0)
    assert (row["p0_exact"], row["tv"]) == ("1", 0.0)
    assert row["out_of_regime"] is True


@pytest.mark.parametrize("nu, tau, bad", [
    ("abc", "0.3", "--nu"),
    ("1/0", "0.3", "--nu"),
    ("0.1", "1/0", "--tau"),
])
def test_unparsable_fraction_is_usage_error(capsys, nu, tau, bad):
    code = main(["expander", "--family", "complete", "-n", "6", "--nu", nu, "--tau", tau])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert f"argument {bad}: invalid" in err


def test_as_fraction_zero_denominator_is_value_error():
    with pytest.raises(ValueError):
        as_fraction("1/0")


def test_as_fraction_refuses_a_type_it_cannot_read():
    with pytest.raises(TypeError, match="^cannot interpret None as an exact rational$"):
        as_fraction(None)


def test_invalid_nu_reports_error_without_warning(capsys):
    code = main([
        "expander", "--family", "complete", "-n", "6",
        "--nu", "1.5", "--tau", "0.3",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: nu and tau must lie strictly between 0 and 1" in err
    assert "warning" not in err


def test_key_error_in_runner_is_not_an_input_error(monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setitem(cli._RUNNERS, "count", broken)
    with pytest.raises(KeyError):
        main(["count", "--family", "complete", "-n", "4"])


def test_value_error_in_a_kernel_is_not_an_input_error(capsys, monkeypatch):
    # the package raises only its own errors on bad input, so a ValueError
    # is a bug: it leaves main instead of printing "error:" and exiting 1
    def broken(g):
        raise ValueError("bug")

    monkeypatch.setattr(pm, "count_pm", broken)
    with pytest.raises(ValueError, match="^bug$"):
        main(["count", "--family", "complete", "-n", "4"])
    assert capsys.readouterr() == ("", "")


VACUOUS = "warning: the size window holds no set, so the pass is vacuous\n"


@pytest.mark.parametrize("key,argv", [
    ("verdict", ["expander", "--family", "complete", "-n", "1", "--nu", "0.1", "--tau", "0.3"]),
    ("verdict", ["expander", "--family", "multipartite", "-a", "2", "-b", "3", "--nu", "0.1", "--tau", "0.4"]),
    ("certificate", ["walks", "--family", "complete", "-n", "3", "--nu", "0.1", "--tau", "0.4"]),
])
def test_empty_window_pass_warns_on_stderr(capsys, key, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == VACUOUS
    assert json.loads(captured.out)["rows"][0][key] == "pass"


def test_sampled_search_over_an_empty_window_warns_on_stderr(capsys):
    argv = ["expander", "--family", "complete", "-n", "1", "--nu", "0.1", "--tau", "0.3", "--sampled"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: the size window holds no set, so the search is vacuous\n"
    row = json.loads(captured.out)["rows"][0]
    assert (row["verdict"], row["sets_checked"]) == ("inconclusive", 0)


@pytest.mark.parametrize("argv", [
    ["expander", "--family", "complete", "-n", "6", "--nu", "0.1", "--tau", "0.3"],
    ["expander", "--family", "complete", "-n", "6", "--nu", "0.1", "--tau", "0.3", "--sampled"],
    ["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3"],
])
def test_pass_over_a_nonempty_window_does_not_warn(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_walks_rejects_negative_ell_before_the_sweep(capsys):
    # K26 is above the sweep cap, so a sweep run first would exit 2
    code = main(["walks", "--family", "complete", "-n", "26", "--nu", "0.1", "--tau", "0.3", "--ell", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: length must be non-negative\n"


@pytest.mark.parametrize(
    "extra, code, err",
    [
        (
            ["--k", "40000"],
            2,
            "error: instance too large: the k-step checks need 1040000 propagation steps, "
            "over the budget of 100000\n",
        ),
        (["--ell", "500"], 1, "error: --ell 500 is too large: the walk counts leave the float range\n"),
    ],
    ids=["k", "ell"],
)
def test_walks_refuses_over_budget_runs_before_the_sweep(capsys, extra, code, err):
    # K26 is above the sweep cap, so a sweep run first would exit 2 with
    # the sweep's message
    argv = ["walks", "--family", "complete", "-n", "26", "--nu", "0.1", "--tau", "0.3", *extra]
    assert main(argv) == code
    assert capsys.readouterr().err == err


def test_walks_refuses_a_large_k_without_sweeping(capsys, monkeypatch):
    # the sweep of rr(24, 4) at (1/24, 1/4) takes seconds; a k past the
    # step budget is refused before it, within a second
    def no_sweep(*args):
        raise AssertionError("swept a run past the step budget")

    monkeypatch.setattr(cli.expansion, "certify_exact", no_sweep)
    argv = ["walks", "--family", "random_regular", "-n", "24", "-d", "4", "--seed", "1",
            "--nu", "1/24", "--tau", "1/4", "--k", "5000"]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == (
        "error: instance too large: the k-step checks need 120000 propagation steps, "
        "over the budget of 100000\n"
    )


_WALKS_K6 = ["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3"]


def test_walks_takes_k_one_as_one_step(capsys):
    # with no --k the k-step checks take ceil(1/nu) + 1 = 4 steps (the
    # golden); a given --k of 1 is taken as it is
    assert run_json(capsys, *_WALKS_K6, "--k", "1")["rows"][0]["k"] == 1


@pytest.mark.parametrize("k", ["0", "-3"])
def test_walks_rejects_k_below_one(capsys, k):
    code = main([*_WALKS_K6, "--k", k])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --k must be at least 1\n"
