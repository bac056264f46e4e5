"""Golden CLI output: each recorded invocation must print the same bytes.

The files under tests/golden/ hold the stdout of every command-line
example in the README (the Monte Carlo one with --samples 2000), in JSON
and in CSV, plus a few reference and stratum variants, a Monte Carlo draw
on a multipartite host, exact disjointness (the default mode) at r = 2
and r = 3 on hosts whose matchings form one automorphism orbit (K8, K6)
and on hosts with several (K_{4x2}, a 3-regular random host at r = 3,
the 3-cube of g.el), recorded before exact disjointness counted one
matching per orbit, a count on an edge list whose two components are
odd, a sampled refutation on two relabelled K15 that fails at
trial 2797, and the PMF and edge probabilities of dense14.el, the
complement of a 3-regular graph on 14 vertices with shuffled labels,
whose counts walk the complement in its own vertex order, a walks
row whose P^2 has a zero entry, so it reports `mixing_error`, and the
switching report on K12 at ell = 6, recorded from the walk over every
left matching (3,264 of them) before the walk took one matching per
automorphism orbit.  A change
that means to alter a report rewrites them with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of tests/golden/ shows what moved.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from matchlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
EDGE_LIST = GOLDEN / "g.el"
ODD_COMPONENTS = GOLDEN / "odd_components.el"
TWO_K15 = GOLDEN / "two_k15.el"
DENSE14 = GOLDEN / "dense14.el"

INVOCATIONS = {
    "count_complete_6": ["count", "--family", "complete", "-n", "6"],
    "count_odd_components": ["count", "--file", str(ODD_COMPONENTS)],
    "avoidance_multipartite_6x1": ["avoidance", "--family", "multipartite", "-a", "6", "-b", "1"],
    "edge_prob_complete_8": ["edge_prob", "--family", "complete", "-n", "8"],
    "pmf_complete_12": ["pmf", "--family", "complete", "-n", "12"],
    "disjoint_montecarlo": [
        "disjoint", "--family", "complete", "-n", "6", "--r", "3",
        "--mode", "montecarlo", "--samples", "2000",
    ],
    "disjoint_montecarlo_6x2": [
        "disjoint", "--family", "multipartite", "-a", "6", "-b", "2", "--r", "3",
        "--mode", "montecarlo", "--samples", "2000",
    ],
    "switching_complete_6": ["switching", "--family", "complete", "-n", "6", "--k", "1"],
    "expander_multipartite": [
        "expander", "--family", "multipartite", "-a", "3", "-b", "2", "--nu", "0.1", "--tau", "0.3",
    ],
    "expander_file_sampled": [
        "expander", "--file", str(EDGE_LIST),
        "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "5000",
    ],
    "expander_file_sampled_30": [
        "expander", "--file", str(TWO_K15),
        "--nu", "0.1", "--tau", "0.3", "--sampled", "--trials", "5000", "--seed", "1",
    ],
    "expander_random_regular_fail": [
        "expander", "--family", "random_regular", "-n", "12", "-d", "4", "--seed", "3",
        "--nu", "0.1", "--tau", "0.3",
    ],
    "expander_multipartite_2x5": [
        "expander", "--family", "multipartite", "-a", "2", "-b", "5", "--nu", "0.1", "--tau", "0.3",
    ],
    "expander_complete_24": ["expander", "--family", "complete", "-n", "24", "--nu", "0.1", "--tau", "0.3"],
    "expander_multipartite_2x12": [
        "expander", "--family", "multipartite", "-a", "2", "-b", "12", "--nu", "0.1", "--tau", "0.3",
    ],
    "expander_empty_window": ["expander", "--family", "complete", "-n", "1", "--nu", "0.1", "--tau", "0.3"],
    "walks_complete_6": ["walks", "--family", "complete", "-n", "6", "--nu", "1/3", "--tau", "1/3"],
    "walks_random_regular_ell6_k5": [
        "walks", "--family", "random_regular", "-n", "10", "-d", "3", "--seed", "1",
        "--nu", "1/10", "--tau", "1/5", "--ell", "6", "--k", "5",
    ],
    "walks_mixing_error": [
        "walks", "--family", "random_regular", "-n", "12", "-d", "3", "--seed", "1",
        "--nu", "1/10", "--tau", "3/10", "--k", "2",
    ],
    "suite_multipartite": ["suite_multipartite", "--b-max", "6"],
    "suite_tv": ["suite_tv", "--sizes", "6", "8", "10", "12"],
    "suite_tv_multipartite_3": ["suite_tv", "-a", "3", "--sizes", "2", "4", "6"],
    "pmf_reference_edge": ["pmf", "--family", "complete", "-n", "8", "--reference", "edge"],
    "avoidance_random_regular": [
        "avoidance", "--family", "random_regular", "-n", "16", "-d", "5", "--seed", "2",
    ],
    "switching_complete_8_k2": ["switching", "--family", "complete", "-n", "8", "--k", "2"],
    "switching_complete_10_k2": ["switching", "--family", "complete", "-n", "10", "--k", "2"],
    "switching_random_regular_edge": [
        "switching", "--family", "random_regular", "-n", "10", "-d", "3", "--seed", "1",
        "--reference", "edge",
    ],
    "switching_multipartite_2x4_k2": ["switching", "--family", "multipartite", "-a", "2", "-b", "4", "--k", "2"],
    "switching_multipartite_5x2": ["switching", "--family", "multipartite", "-a", "5", "-b", "2"],
    "switching_complete_12_ell6": ["switching", "--family", "complete", "-n", "12", "--ell", "6"],
    "pmf_multipartite_10x2": ["pmf", "--family", "multipartite", "-a", "10", "-b", "2"],
    "edge_prob_multipartite_6x2": ["edge_prob", "--family", "multipartite", "-a", "6", "-b", "2"],
    "count_complete_26": ["count", "--family", "complete", "-n", "26"],
    "pmf_dense14": ["pmf", "--file", str(DENSE14)],
    "edge_prob_dense14": ["edge_prob", "--file", str(DENSE14)],
    "disjoint_complete_8": ["disjoint", "--family", "complete", "-n", "8"],
    "disjoint_complete_6_r3": ["disjoint", "--family", "complete", "-n", "6", "--r", "3"],
    "disjoint_multipartite_4x2": ["disjoint", "--family", "multipartite", "-a", "4", "-b", "2"],
    "disjoint_random_regular_r3": [
        "disjoint", "--family", "random_regular", "-n", "10", "-d", "3", "--seed", "1", "--r", "3",
    ],
    "disjoint_file": ["disjoint", "--file", str(EDGE_LIST)],
}

CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in INVOCATIONS.items()
    for fmt in ("json", "csv")
]


def _stdout_of(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_stdout_matches_golden(name, argv):
    code, out = _stdout_of(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def record() -> None:
    for name, argv in CASES:
        code, out = _stdout_of(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")


if __name__ == "__main__":
    record()
