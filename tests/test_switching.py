import random
from fractions import Fraction

import pytest

from conftest import (
    assert_switch_graph_sound,
    gnp,
    reference_build_aux_digraph,
    reference_build_switch_graph,
    small_zoo,
)
from matchlab.errors import (
    EmptyStratumError,
    NotAPerfectMatchingError,
    NotRegularError,
)
from matchlab.graphs import (
    Matching,
    build_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
)
from matchlab.pm import enumerate_pm, stratify
from matchlab.switching import (
    aux_vertex_set,
    build_aux_digraph,
    build_switch_graph,
    count_alternating_paths,
    eligible_edge_count,
    ratio_report,
)
from matchlab.walks import count_paths


# -- eligible edge count --------------------------------------------------------

def test_eligible_edge_count_matching():
    m = Matching([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    assert eligible_edge_count(m, 1) == 5
    assert eligible_edge_count(m, 3) == 3


def test_eligible_edge_count_regular_reference():
    ring = cycle_graph(10)  # spanning 2-regular
    for k in (1, 2, 5):
        assert eligible_edge_count(ring, k) == 10


def test_eligible_edge_count_rejects_bad_k():
    with pytest.raises(ValueError):
        eligible_edge_count(Matching([(0, 1)]), 0)


# -- exchange graph ---------------------------------------------------------------

def test_switch_graph_k4_single_edge():
    h = build_switch_graph(complete_graph(4), [(0, 1)], k=1, ell=2)
    assert len(h.left) == 1 and len(h.right) == 2
    assert h.edge_count == 2
    assert h.left_degrees() == [2]
    assert h.right_degrees() == [1, 1]


def test_switch_graph_empty_stratum():
    h = build_switch_graph(complete_graph(4), [], k=1, ell=2)
    assert len(h.left) == 0 and h.edge_count == 0


def test_switch_graph_c6_whole_cycle():
    h = build_switch_graph(cycle_graph(6), [(0, 1)], k=1, ell=3)
    assert len(h.left) == 1 and len(h.right) == 1
    assert h.edge_count == 1


def test_switch_graph_c6_wrong_length_has_no_edges():
    h = build_switch_graph(cycle_graph(6), [(0, 1)], k=1, ell=2)
    assert h.edge_count == 0


def test_switch_graph_soundness_many_instances():
    rng = random.Random(9)
    hosts = [
        complete_graph(6),
        complete_graph(8),
        complete_multipartite(3, 2),
        complete_multipartite(2, 3),
        complete_multipartite(2, 4),
        cycle_graph(8),
    ]
    checked = 0
    for g in hosts:
        pms = list(enumerate_pm(g))
        refs = [[pms[0].pairs[0]], list(pms[0].pairs)]
        if len(pms) > 2:
            refs.append(list(pms[1].pairs[:2]))
        for ref in refs:
            for k in (1, 2):
                for ell in (2, 3):
                    if 2 * ell > g.n:
                        continue
                    h = build_switch_graph(g, ref, k=k, ell=ell)
                    assert_switch_graph_sound(g, ref, h)
                    checked += 1
    assert checked >= 20


def _differential_hosts():
    hosts = [(f"zoo{i}", g) for i, g in enumerate(small_zoo())]
    hosts += [("K8", complete_graph(8)), ("K4x2", complete_multipartite(4, 2))]
    hosts += [("C10", cycle_graph(10))]
    hosts += [(f"gnp10-{s}", gnp(10, 0.6, s)) for s in range(6)]
    return [
        pytest.param(g, id=name)
        for name, g in hosts
        if g.n % 2 == 0 and next(enumerate_pm(g), None)
    ]


def _differential_references(g, rng):
    """One edge, a whole perfect matching, two edges of another one, the
    empty set, and a random edge set that is not a matching (its pairs
    need not be edges of g)."""
    pms = list(enumerate_pm(g))
    other = pms[-1] if len(pms) > 1 else pms[0]
    hub, x, y = rng.sample(range(g.n), 3)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    return [
        [pms[0].pairs[0]],
        pms[0],
        list(other.pairs[:2]),
        [],
        [(hub, x), (hub, y)] + rng.sample(pairs, 2),
    ]


@pytest.mark.parametrize("g", _differential_hosts())
def test_switch_graph_matches_pairwise_oracle(g):
    rng = random.Random(g.n * 1000 + g.m)
    for ref in _differential_references(g, rng):
        for k in (1, 2, 3):
            for ell in range(2, g.n // 2 + 1):
                got = build_switch_graph(g, ref, k=k, ell=ell)
                want = reference_build_switch_graph(g, ref, k=k, ell=ell)
                assert got.left == want.left
                assert got.right == want.right
                assert got.edges == want.edges, (g, ref, k, ell)


@pytest.mark.parametrize("k, ell", [(0, 2), (1, 1), (1, 4)])
def test_switch_graph_rejects_bad_parameters_like_oracle(k, ell):
    g = complete_graph(6)
    for build in (build_switch_graph, reference_build_switch_graph):
        with pytest.raises(ValueError):
            build(g, [(0, 1)], k=k, ell=ell)


# -- companion digraph ---------------------------------------------------------

def test_aux_digraph_k4_no_reference():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    d = build_aux_digraph(g, [], base)
    assert set(d.out_neighbors(0)) == {2, 3}
    assert aux_vertex_set([], base, 4) == frozenset(range(4))


def test_aux_digraph_empty_when_reference_covers_base():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    d = build_aux_digraph(g, base, base)
    assert len(d.arcs) == 0
    assert aux_vertex_set(base, base, 4) == frozenset()


def test_aux_digraph_requires_perfect_matching():
    g = complete_graph(4)
    with pytest.raises(NotAPerfectMatchingError):
        build_aux_digraph(g, [], Matching([(0, 1)]))


def test_aux_digraph_bipartite_side_golden():
    # hand-evaluated on the balanced complete bipartite host with parts
    # {0,1,2} / {3,4,5}: reference (0,3) inside the base matching throws
    # out vertices 0 and 3, arcs stay inside the chosen side
    g = complete_multipartite(2, 3)
    base = Matching([(0, 3), (1, 4), (2, 5)])
    ref = [(0, 3)]
    side = [0, 1, 2]
    d = build_aux_digraph(g, ref, base, side=side)
    assert aux_vertex_set(ref, base, 6, side) == frozenset({1, 2})
    assert set(d.arcs) == {(1, 2), (2, 1)}


@pytest.mark.parametrize("g", _differential_hosts())
def test_aux_digraph_matches_oracle(g):
    rng = random.Random(g.n * 1000 + g.m + 1)
    pms = list(enumerate_pm(g))
    sides = [None, range(g.n // 2), range(0, g.n, 2)]
    for base in (pms[0], pms[-1]):
        for ref in _differential_references(g, rng):
            for side in sides:
                got = build_aux_digraph(g, ref, base, side=side)
                want = reference_build_aux_digraph(g, ref, base, side=side)
                assert got.arcs == want.arcs, (g, base, ref, side)


def test_aux_digraph_degree_window():
    # d-regular host, reference of max degree r, base sharing j reference
    # edges: companion degrees live in [d - (2(j+1) + r), d]
    g = complete_graph(8)
    pms = list(enumerate_pm(g))
    rng = random.Random(4)
    for _ in range(10):
        base = pms[rng.randrange(len(pms))]
        ref = Matching(rng.sample(base.pairs, 2))
        j = len(ref.edge_set & base.edge_set)
        d = build_aux_digraph(g, ref, base)
        verts = aux_vertex_set(ref, base, g.n)
        lo = 7 - (2 * (j + 1) + 1)
        for x in verts:
            assert lo <= d.out_degree(x) <= 7
            assert lo <= d.in_degree(x) <= 7


# -- alternating paths -----------------------------------------------------------

def test_alternating_paths_k4():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    assert count_alternating_paths(g, base, 0, 3, 2) == 1
    assert count_alternating_paths(g, base, 0, 2, 2) == 1
    assert count_alternating_paths(g, base, 0, 1, 2) == 0


def test_alternating_paths_zero_length():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    assert count_alternating_paths(g, base, 0, 2, 0) == 0


def test_alternating_paths_odd_length_rejected():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        count_alternating_paths(g, Matching([(0, 1), (2, 3)]), 0, 2, 3)


def test_alternating_paths_brute_force_cross_check():
    g = complete_graph(6)
    base = Matching([(0, 1), (2, 3), (4, 5)])
    forbidden = [(0, 2)]

    def brute(u, v, length):
        total = 0

        def step(x, path, need_free):
            nonlocal total
            if len(path) - 1 == length:
                total += int(x == v)
                return
            for y in g.neighbors(x):
                if y in path:
                    continue
                e = (min(x, y), max(x, y))
                if e in edge_set(forbidden):
                    continue
                in_base = e in base.edge_set
                if need_free == in_base:
                    continue
                step(y, path + [y], not need_free)

        step(u, [u], True)
        return total

    for v in (2, 3, 4, 5):
        for length in (2, 4):
            got = count_alternating_paths(g, base, 0, v, length, forbidden)
            assert got == brute(0, v, length)


def test_bijection_with_companion_digraph():
    # alternating (w, v)-paths in the host of length 2L correspond one to
    # one with L-step paths in the companion digraph that touch each base
    # edge at most once
    rng = random.Random(14)
    hosts = [complete_graph(6), complete_graph(8), complete_multipartite(3, 2)]
    probes = 0
    for g in hosts:
        pms = list(enumerate_pm(g))
        for base in (pms[0], pms[1]):
            for ref in ([], [base.pairs[0]], list(pms[2].pairs[:2])):
                d = build_aux_digraph(g, ref, base)
                verts = sorted(aux_vertex_set(ref, base, g.n))
                if len(verts) < 2:
                    continue
                constraint = Matching(base.edge_set - edge_set(ref))
                for _ in range(6):
                    w, v = rng.sample(verts, 2)
                    steps = rng.randint(1, 3)
                    lhs = count_alternating_paths(g, base, w, v, 2 * steps, ref)
                    rhs = count_paths(d, w, v, steps, matching_constraint=constraint)
                    assert lhs == rhs, (g, base.pairs, ref, w, v, steps)
                    probes += 1
    assert probes >= 60


# -- ratio reports -----------------------------------------------------------------

def test_ratio_report_k4():
    rep = ratio_report(complete_graph(4), [(0, 1)], k=1, ell=2)
    assert rep.exact_ratio == Fraction(1, 2)
    assert rep.predicted == Fraction(1, 3)
    assert rep.double_count_ok
    assert rep.left_stats == (2, 2, Fraction(2))
    assert rep.right_stats == (1, 1, Fraction(1))


def test_ratio_report_k6():
    rep = ratio_report(complete_graph(6), [(0, 1)], k=1, ell=2)
    assert rep.exact_ratio == Fraction(3, 12)
    assert rep.predicted == Fraction(1, 5)


def test_ratio_report_matches_strata():
    g = complete_multipartite(3, 2)
    ref = [(0, 2), (1, 4)]
    s = stratify(g, ref)
    rep = ratio_report(g, ref, k=1, ell=2)
    assert rep.exact_ratio == Fraction(s.get(1), s.get(0))


def test_ratio_report_regular_reference():
    # spanning 2-regular reference (union of two disjoint perfect
    # matchings of the host): prediction numerator stays e(N)
    g = complete_graph(6)
    ring = cycle_graph(6)
    rep = ratio_report(g, ring, k=1, ell=2)
    assert rep.predicted == Fraction(6, 5)
    assert rep.double_count_ok
    s = stratify(g, ring)
    assert rep.exact_ratio == Fraction(s.get(1), s.get(0))


def test_ratio_report_empty_stratum():
    with pytest.raises(EmptyStratumError):
        ratio_report(complete_graph(4), [], k=1, ell=2)


def test_ratio_report_not_regular():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(NotRegularError):
        ratio_report(g, [(0, 1)], k=1, ell=2)


def test_ratio_report_json():
    rep = ratio_report(complete_graph(6), [(0, 1)], k=1, ell=3)
    doc = rep.to_json_dict()
    assert doc["exact_ratio"] == {"num": "1", "den": "4"}
    assert doc["predicted"] == {"num": "1", "den": "5"}
    assert isinstance(doc["double_count_ok"], bool)
