import csv
import io
import json
from fractions import Fraction

import pytest

from matchlab import cli
from matchlab.cli import main, suite_multipartite_limit, suite_tv_trend
from matchlab.expansion import ExpansionParams, certify_bipartite, certify_exact
from matchlab.graphs import (
    Bipartition,
    Graph,
    complete_graph,
    read_edge_list,
    write_edge_list,
)
from matchlab.rational import as_fraction


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


def test_exit_code_too_large(capsys):
    code = main(["count", "--family", "complete", "-n", "30"])
    assert code == 2


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


def test_suite_multipartite_contains_known_rows():
    rows = suite_multipartite_limit(b_max=3, cap=12)
    index = {(r["parts"], r["part_size"]): r for r in rows}
    assert index[(6, 1)]["exact"] == "8/15"
    assert index[(2, 3)]["exact"] == "1/3"  # three-element derangements
    assert index[(3, 2)]["exact"] == "1/2"
    for row in rows:
        assert row["abs_diff"] < 0.2


def test_suite_tv_trend_shrinks():
    rows = suite_tv_trend("complete", [6, 8, 10, 12])
    tvs = [r["tv"] for r in rows]
    assert tvs == sorted(tvs, reverse=True)
    assert all(not r["out_of_regime"] for r in rows)


def test_suite_tv_degenerate_small_flagged():
    rows = suite_tv_trend("complete", [2])
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
    "expander": ["--family", "file", "--file", "{bipartite}", "--nu", "0.1", "--tau", "0.3"],
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


def test_parser_flags_and_defaults():
    ns = cli.build_parser().parse_args(["count"])
    assert vars(ns) == {
        "analysis": "count", "family": None, "path": None, "a": None, "b": None,
        "n": None, "d": None, "nu": None, "tau": None, "ell": None, "k": 1, "r": 2,
        "samples": 100_000, "trials": 1000, "seed": 0, "mode": "exact",
        "reference": "pm", "sampled": False, "bipartite": False, "sizes": [],
        "b_max": 6, "cap": 20, "out": None, "fmt": "json",
    }
    ns = cli.build_parser().parse_args(["walks", "--nu", "0.1", "--tau", "1/3"])
    assert (ns.nu, ns.tau) == (Fraction(1, 10), Fraction(1, 3))


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
