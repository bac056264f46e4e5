import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    assert_switch_graph_sound,
    edge_key,
    gnp,
    reference_alternating_paths,
    reference_build_aux_digraph,
    reference_build_switch_graph,
    reference_ratio_report,
    reference_switches,
    small_zoo,
)
from matchlab import pm, switching, symmetry
from matchlab.errors import MatchlabError, ResourceLimitError
from matchlab.graphs import (
    Graph,
    Matching,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    random_regular,
    regularity,
)
from matchlab.pm import enumerate_pm, stratify
from matchlab.switching import (
    aux_vertex_set,
    build_aux_digraph,
    build_switch_graph,
    count_alternating_paths,
    ratio_report,
)
from matchlab.walks import count_paths


# -- eligible edge count --------------------------------------------------------
# ratio_report predicts e / (k * d): e = e(N) - (k - 1) for a reference N
# that repeats no vertex, else e(N)

def test_eligible_edge_count_matching():
    g = complete_graph(10)
    m = Matching([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    assert ratio_report(g, m, 1, 2).predicted == Fraction(5, 1 * 9)
    assert ratio_report(g, m, 3, 2).predicted == Fraction(3, 3 * 9)


def test_eligible_edge_count_regular_reference():
    ring = cycle_graph(10)  # spanning 2-regular
    for k in (1, 2, 5):
        assert ratio_report(complete_graph(10), ring, k, 2).predicted == Fraction(10, k * 9)


def test_eligible_edge_count_reads_raw_pairs_and_graphs():
    g = complete_graph(6)
    for ref in ([(1, 0), (2, 3)], Graph(6, [(0, 1), (2, 3)])):
        assert ratio_report(g, ref, 2, 2).predicted == Fraction(2 - 1, 2 * 5)
    for ref in ([(0, 1), (2, 1), (2, 3)], Graph(6, [(0, 1), (1, 2), (2, 3)])):
        assert ratio_report(g, ref, 2, 2).predicted == Fraction(3, 2 * 5)


def test_eligible_edge_count_rejects_bad_k():
    with pytest.raises(MatchlabError, match="^k must be positive$"):
        ratio_report(complete_graph(4), Matching([(0, 1)]), 0, 2)


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


def _differential_hosts(regular_only=False):
    hosts = [(f"zoo{i}", g) for i, g in enumerate(small_zoo())]
    hosts += [("K8", complete_graph(8)), ("K4x2", complete_multipartite(4, 2))]
    hosts += [("C10", cycle_graph(10))]
    hosts += [(f"gnp10-{s}", gnp(10, 0.6, s)) for s in range(6)]
    return [
        pytest.param(g, id=name)
        for name, g in hosts
        if g.n % 2 == 0
        and next(enumerate_pm(g), None)
        and (not regular_only or regularity(g) is not None)
    ]


def _differential_references(g, rng):
    """One edge, a whole perfect matching, two edges of another one, the
    empty set, a random edge set that is not a matching (its pairs need
    not be edges of g), and edges of g that are not a matching (two at a
    vertex of top degree, when that is at least two, and the first and
    last edge)."""
    pms = list(enumerate_pm(g))
    other = pms[-1] if len(pms) > 1 else pms[0]
    hub, x, y = rng.sample(range(g.n), 3)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    top = max(range(g.n), key=lambda v: len(g.neighbors(v)))
    return [
        [pms[0].pairs[0]],
        pms[0],
        list(other.pairs[:2]),
        [],
        [(hub, x), (hub, y)] + rng.sample(pairs, 2),
        [(top, v) for v in g.neighbors(top)[:2]] + [g.edges[0], g.edges[-1]],
    ]


def _outside(g, ref) -> bool:
    return not edge_set(ref) <= frozenset(g.edges)


OUTSIDE = r"^reference edge \(\d+, \d+\) not in graph$"


@pytest.mark.parametrize("g", _differential_hosts())
def test_switch_graph_matches_pairwise_oracle(g):
    rng = random.Random(g.n * 1000 + g.m)
    for ref in _differential_references(g, rng):
        if _outside(g, ref):
            with pytest.raises(MatchlabError, match=OUTSIDE):
                build_switch_graph(g, ref, k=1, ell=2)
            continue
        for k in (1, 2, 3):
            for ell in range(2, g.n // 2 + 1):
                got = build_switch_graph(g, ref, k=k, ell=ell)
                want = reference_build_switch_graph(g, ref, k=k, ell=ell)
                assert got.left == want.left
                assert got.right == want.right
                assert got.edges == want.edges, (g, ref, k, ell)


@pytest.mark.parametrize("g", _differential_hosts())
def test_switches_match_the_generator_pass(g):
    # the table-driven pass gives the strata and every left matching's
    # neighbours of the generator-walker pass, each left's in increasing
    # right index
    rng = random.Random(g.n * 1000 + g.m + 2)
    for ref in _differential_references(g, rng):
        if _outside(g, ref):
            with pytest.raises(MatchlabError, match=OUTSIDE):
                build_switch_graph(g, edge_set(ref), 1, 2)
            continue
        ref = edge_set(ref)
        for k in (1, 2, 3):
            for ell in range(2, g.n // 2 + 1):
                got = build_switch_graph(g, ref, k, ell)
                (left, right), *found = reference_switches(g, ref, k, ell)
                assert (list(got.left), list(got.right)) == (left, right)
                want = [(i, j) for i, js in enumerate(found) for j in sorted(js)]
                assert list(got.edges) == want, (g, sorted(ref), k, ell)


@pytest.mark.parametrize("k, ell", [(0, 2), (1, 1), (1, 4)])
def test_switch_graph_rejects_bad_parameters_like_oracle(k, ell):
    g = complete_graph(6)
    message = "^k must be positive$" if k < 1 else "^need 2 <= ell and 2[*]ell <= n$"
    for build in (build_switch_graph, reference_build_switch_graph):
        with pytest.raises(MatchlabError, match=message):
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
    with pytest.raises(MatchlabError, match="^base must be a perfect matching of the graph$"):
        build_aux_digraph(g, [], Matching([(0, 1)]))


@pytest.mark.parametrize("ref, bad", [([(5, 9)], (5, 9)), ([(9, 0)], (0, 9)), ([(0, 1), (0, 9)], (0, 9))])
def test_aux_digraph_refuses_a_reference_edge_outside_the_host(ref, bad):
    base = Matching([(0, 1), (2, 3)])
    with pytest.raises(MatchlabError, match=re.escape(f"reference edge {bad} not in graph")):
        build_aux_digraph(complete_graph(4), ref, base)


def test_aux_digraph_and_vertex_set_take_a_base_of_raw_pairs():
    g = complete_graph(6)
    base = Matching([(0, 1), (2, 3), (4, 5)])
    raw = [(1, 0), (2, 3), (5, 4)]
    for ref in ([], [(0, 1)], [(0, 2), (2, 3)]):
        assert build_aux_digraph(g, ref, raw) == build_aux_digraph(g, ref, base)
        assert aux_vertex_set(ref, raw, 6) == aux_vertex_set(ref, base, 6)
    # raw pairs that cover every vertex but reuse one are no matching
    with pytest.raises(MatchlabError, match="^base edges reuse vertex 1$"):
        build_aux_digraph(complete_graph(4), [], [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("g", _differential_hosts())
def test_aux_digraph_matches_oracle(g):
    rng = random.Random(g.n * 1000 + g.m + 1)
    pms = list(enumerate_pm(g))
    for base in (pms[0], pms[-1]):
        for ref in _differential_references(g, rng):
            if _outside(g, ref):
                with pytest.raises(MatchlabError, match=OUTSIDE):
                    build_aux_digraph(g, ref, base)
                continue
            got = build_aux_digraph(g, ref, base)
            want = reference_build_aux_digraph(g, ref, base)
            assert got.arcs == want.arcs, (g, base, ref)


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


def test_alternating_paths_refuse_equal_endpoints():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    with pytest.raises(MatchlabError, match="^endpoints must be distinct$"):
        count_alternating_paths(g, base, 2, 2, 2)


def test_alternating_paths_zero_length():
    g = complete_graph(4)
    base = Matching([(0, 1), (2, 3)])
    assert count_alternating_paths(g, base, 0, 2, 0) == 0


def test_alternating_paths_odd_length_rejected():
    g = complete_graph(4)
    with pytest.raises(MatchlabError, match="^length must be even$"):
        count_alternating_paths(g, Matching([(0, 1), (2, 3)]), 0, 2, 3)


@pytest.mark.parametrize("length", [-2, -4])
def test_alternating_paths_negative_length_rejected(length):
    g = complete_graph(6)
    base = Matching([(0, 1), (2, 3), (4, 5)])
    with pytest.raises(MatchlabError, match="^length must be non-negative$"):
        count_alternating_paths(g, base, 0, 2, length)


@pytest.mark.parametrize(
    "base, u, v, forbidden, bad",
    [
        ([(0, 1), (2, 3), (4, 5)], 0, 2, [(-1, 3)], -1),
        ([(0, 1), (2, 3), (4, 5)], 0, 2, [(0, 8)], 8),
        ([(0, 1), (2, 3), (4, 6)], 0, 2, [], 6),
        ([(-2, 1), (2, 3), (4, 5)], 0, 2, [], -2),
        ([(0, 1), (2, 3), (4, 5)], -1, 2, [], -1),
        ([(0, 1), (2, 3), (4, 5)], 0, 6, [], 6),
    ],
)
def test_alternating_paths_reject_vertices_out_of_range(base, u, v, forbidden, bad):
    g = complete_graph(6)
    with pytest.raises(MatchlabError, match=rf"^vertex {bad} outside 0\.\.5$"):
        count_alternating_paths(g, Matching(base), u, v, 2, forbidden)


@pytest.mark.parametrize(
    "g, base, u, v, bad",
    [
        # the path 0-2-1 alternates, yet the table kept only (2, 3) at 2
        (complete_graph(6), [(1, 2), (2, 3)], 0, 1, 2),
        (complete_graph(4), complete_graph(4), 0, 2, 0),
        (complete_graph(6), Graph(6, [(0, 1), (4, 5), (1, 5)]), 2, 3, 1),
    ],
)
def test_alternating_paths_refuse_a_base_that_reuses_a_vertex(g, base, u, v, bad):
    with pytest.raises(MatchlabError, match=f"^base edges reuse vertex {bad}$"):
        count_alternating_paths(g, base, u, v, 2)


def test_alternating_paths_refuse_a_base_edge_outside_the_host():
    # a walk from 0 would step 0 -> 1 and then along (1, 3), which the
    # path 0-1-2-3 lacks, and count one path; build_aux_digraph refuses
    # the same base
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    base = Matching([(1, 3)])
    for length in (2, 0):
        with pytest.raises(MatchlabError, match=r"^base edge \(1, 3\) not in graph$"):
            count_alternating_paths(g, base, 0, 3, length)
    with pytest.raises(MatchlabError, match=r"^base edge \(1, 3\) not in graph$"):
        build_aux_digraph(g, [], base)


def test_alternating_paths_brute_force_cross_check():
    cases = [
        (complete_graph(6), [(0, 1), (2, 3), (4, 5)], [(0, 2)]),
        # (0, 1) and (2, 3) lie inside a part: non-edges, so never walked
        (complete_multipartite(3, 2), [(0, 2), (1, 4), (3, 5)], [(0, 1), (2, 3)]),
        (complete_multipartite(3, 2), [(0, 2), (1, 4), (3, 5)], [(0, 1), (4, 5), (1, 4)]),
        (cycle_graph(6), [(0, 1), (2, 3), (4, 5)], [(0, 3), (1, 4), (1, 2)]),
        (cycle_graph(6), [(1, 2), (3, 4), (0, 5)], [(0, 2), (2, 5)]),
    ]

    def brute(g, base, forbidden, u, v, length):
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

    for g, base, forbidden in cases:
        base = Matching(base)
        for v in (2, 3, 4, 5):
            for length in (2, 4):
                got = count_alternating_paths(g, base, 0, v, length, forbidden)
                assert got == brute(g, base, forbidden, 0, v, length), (g, base, forbidden, v)


def _walker_bans(g, base, other):
    """No ban, one free edge, one base edge, a whole perfect matching, and
    a set holding non-edges of g (whose key bits no step tests) next to a
    base edge."""
    free = [e for e in g.edges if e not in base.edge_set][:1]
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return [
        [],
        free,
        [base.pairs[-1]],
        list(other.pairs),
        non_edges[:4] + [(g.n, g.n + 1), base.pairs[0]],
    ]


def test_alternating_walker_matches_reference():
    # count_alternating_paths counts the paths of the list walker it
    # replaced that end at v, from every start to every other end at every
    # even length
    hosts = small_zoo() + [
        complete_graph(8),
        complete_multipartite(3, 2),
        cycle_graph(6),
        random_regular(10, 3, 1),
    ]
    walked = 0
    for g in hosts:
        out_of_range = (g.n, g.n + 1)
        pms = list(enumerate_pm(g))[:2]
        for i, pm_base in enumerate(pms):
            other = pms[1 - i] if len(pms) == 2 else pm_base
            # the perfect matching, and two non-perfect ones that leave
            # two and half of the vertices without a partner
            for base in (pm_base, Matching(pm_base.pairs[1:]), Matching(pm_base.pairs[::2])):
                for ban in _walker_bans(g, base, other):
                    # count_alternating_paths refuses the pair outside
                    # 0..n-1
                    forbidden = [e for e in ban if e != out_of_range]
                    key = edge_key(g.n, forbidden)
                    for u in range(g.n):
                        for length in range(0, g.n + 1, 2):
                            ends = Counter(end for end, _ in reference_alternating_paths(g, base, u, length, key))
                            for v in range(g.n):
                                if v != u:
                                    got = count_alternating_paths(g, base, u, v, length, forbidden)
                                    assert got == ends[v], (g.edges, base.pairs, ban, u, v, length)
                            walked += sum(ends.values())
    assert walked > 10_000


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

@pytest.mark.parametrize("entry", [build_switch_graph, ratio_report])
@pytest.mark.parametrize("g,ref,bad", [
    (complete_graph(6), [(0, 9)], (0, 9)),
    (complete_multipartite(3, 2), [(0, 2), (0, 1)], (0, 1)),
])
def test_a_reference_edge_outside_the_host_is_refused(entry, g, ref, bad):
    with pytest.raises(MatchlabError, match=re.escape(f"reference edge {bad} not in graph")):
        entry(g, ref, 1, 2)


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
    assert rep.exact_ratio == Fraction(s.counts[1], s.counts[0])


def test_ratio_report_regular_reference():
    # spanning 2-regular reference (union of two disjoint perfect
    # matchings of the host): prediction numerator stays e(N)
    g = complete_graph(6)
    ring = cycle_graph(6)
    rep = ratio_report(g, ring, k=1, ell=2)
    assert rep.predicted == Fraction(6, 5)
    assert rep.double_count_ok
    s = stratify(g, ring)
    assert rep.exact_ratio == Fraction(s.counts[1], s.counts[0])


def test_ratio_report_empty_stratum():
    with pytest.raises(MatchlabError, match="^stratum 1 is empty$"):
        ratio_report(complete_graph(4), [], k=1, ell=2)
    # an empty stratum keeps no orbit record, so it is refused again at
    # every ell
    g = complete_graph(6)
    for ell in (2, 3, 2):
        with pytest.raises(MatchlabError, match="^stratum 2 is empty$"):
            ratio_report(g, [(0, 1)], k=2, ell=ell)
    assert g._strata_orbits == {}
    ratio_report(g, [(0, 1)], k=1, ell=2)
    assert list(g._strata_orbits) == [(edge_key(6, [(0, 1)]), 1)]


def test_ratio_report_not_regular():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(MatchlabError, match="^host graph must be regular$"):
        ratio_report(g, [(0, 1)], k=1, ell=2)


@pytest.mark.parametrize("k", [0, -1])
def test_ratio_report_rejects_k_below_one_first(k):
    with pytest.raises(MatchlabError, match="^k must be positive$"):
        ratio_report(complete_graph(4), [(0, 1)], k=k, ell=2)
    # checked before regularity, the reference and the strata
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(MatchlabError, match="^k must be positive$"):
        ratio_report(g, [(1, 3)], k=k, ell=2)


def _outcome(report, g, ref, k, ell):
    try:
        return report(g, ref, k, ell)
    except MatchlabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("g", _differential_hosts(regular_only=True))
def test_ratio_report_matches_previous_version(g):
    rng = random.Random(g.n * 1000 + g.m)
    for ref in _differential_references(g, rng):
        for k in (1, 2, 3):
            for ell in range(2, g.n // 2 + 1):
                got = _outcome(ratio_report, g, ref, k, ell)
                want = _outcome(reference_ratio_report, g, ref, k, ell)
                assert got == want, (g, ref, k, ell)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.mark.parametrize(
    "g", _differential_hosts(regular_only=True) + [pytest.param(random_regular(10, 3, 1), id="rr10_3")]
)
def test_ratio_report_on_orbits_equals_the_oracle_under_relabellings(g):
    # one sweep per relabelling: every reference, k and ell on one graph,
    # so the orbit memo serves every report after the first
    for seed in range(3):
        h = _relabelled(g, seed)
        for ref in _differential_references(h, random.Random(seed)):
            for k in range(1, h.n // 2 + 2):
                for ell in range(2, h.n // 2 + 1):
                    got = _outcome(ratio_report, h, ref, k, ell)
                    want = _outcome(reference_ratio_report, h, ref, k, ell)
                    assert got == want, (h.edges, ref, k, ell)


def test_two_references_in_a_row_on_one_graph_each_equal_the_oracle():
    # the orbits of a perfect matching's strata are not those of a path's:
    # a memo that kept the first reference's generators would merge the
    # second reference's orbits
    g = _relabelled(complete_graph(8), 3)
    u, v = g.edges[0]
    w, x = next((w, x) for w, x in g.edges if len({u, v, w, x}) == 4)
    path = [(u, v), (v, w), (w, x)]
    for ref in (pm.first_pm(g), path, pm.first_pm(g), [(u, v)]):
        for k in (1, 2):
            for ell in (2, 3, 4):
                got = _outcome(ratio_report, g, ref, k, ell)
                assert got == _outcome(reference_ratio_report, g, ref, k, ell), (ref, k, ell)
    # one record per reference and k; the single edge has no stratum 2
    keys = [edge_key(g.n, ref) for ref in (pm.first_pm(g), path, [(u, v)])]
    assert set(g._strata_orbits) == {(key, k) for key in keys for k in (1, 2)} - {(keys[2], 2)}


def test_an_ell_sweep_searches_for_generators_once_per_reference_and_k(monkeypatch):
    calls = []
    search = symmetry.generators

    def counted(masks, ref):
        calls.append(ref)
        return search(masks, ref)

    monkeypatch.setattr(symmetry, "generators", counted)
    g = _relabelled(complete_graph(8), 2)
    pair = [g.edges[0], g.edges[-1]]
    for ref in (pm.first_pm(g), pair):
        for k in (1, 2):
            for ell in (2, 3, 4):
                got = ratio_report(g, ref, k, ell)
                assert got == reference_ratio_report(Graph(g.n, g.edges), ref, k, ell), (ref, k, ell)
    assert len(calls) == 4
    # a fresh graph searches again
    ratio_report(Graph(g.n, g.edges), pair, 1, 2)
    assert len(calls) == 5


@pytest.mark.parametrize("seed", range(2))
def test_ratio_report_walks_one_left_matching_per_orbit_of_the_whole_group(monkeypatch, seed):
    # K10, k = 1, the reference a perfect matching N: M u N has cycle
    # type {8} or {4, 4} on the left and {10} or {6, 4} on the right, so
    # 300 left matchings in 2 orbits and 544 right ones in 2.  A
    # reference colour that loses symmetry still gives the same report,
    # but from finer orbits and more walks.
    walked = []
    neighbours = switching._neighbours

    def counted(free, closers, key, ban, ell, index):
        walked.append(key)
        return neighbours(free, closers, key, ban, ell, index)

    monkeypatch.setattr(switching, "_neighbours", counted)
    g = _relabelled(complete_graph(10), seed)
    ref = pm.first_pm(g)
    for ell in (2, 5):
        walked.clear()
        assert ratio_report(g, ref, 1, ell).double_count_ok
        assert len(walked) == 2
    _, lsizes, rsizes, _ = g._strata_orbits[edge_key(10, ref), 1]
    assert (len(lsizes), sum(lsizes), len(rsizes), sum(rsizes)) == (2, 300, 2, 544)


def test_double_count_fails_when_an_orbit_is_no_orbit(monkeypatch):
    # with each stratum lumped into one "orbit", the right stratum's
    # weighted hits of K8 at ell = 2 leave a remainder
    def lump(keys, gens, n):
        return [keys[0]], [len(keys)], dict.fromkeys(keys, 0)

    g = complete_graph(8)
    assert ratio_report(complete_graph(8), pm.first_pm(g), 1, 2).double_count_ok
    monkeypatch.setattr(symmetry, "key_orbits", lump)
    assert not ratio_report(g, pm.first_pm(g), 1, 2).double_count_ok


def test_an_ell_sweep_on_one_graph_lists_its_matchings_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ratio_report materialised the exchange graph")

    searches = []
    search = pm._search

    def counted(masks):
        searches.append(masks)
        return search(masks)

    g = complete_graph(8)
    ref = [(0, 1), (2, 3)]
    want = [reference_ratio_report(complete_graph(8), ref, k=1, ell=ell) for ell in (2, 3, 4)]
    monkeypatch.setattr(switching, "SwitchGraph", refuse)
    monkeypatch.setattr(switching, "build_switch_graph", refuse)
    monkeypatch.setattr(switching, "stratify", refuse, raising=False)
    monkeypatch.setattr(pm, "stratify", refuse)
    monkeypatch.setattr(pm, "_search", counted)
    assert [ratio_report(g, ref, k=1, ell=ell) for ell in (2, 3, 4)] == want
    assert searches == [g.neighbor_masks]
    # a second graph with the same edges lists its own matchings
    assert ratio_report(complete_graph(8), ref, k=1, ell=3) == want[1]
    assert len(searches) == 2


def test_ratio_report_error_order():
    g = complete_graph(6)
    # a bad ell is reported before the strata are split, so before an
    # empty stratum
    with pytest.raises(MatchlabError, match="^need 2 <= ell and 2[*]ell <= n$"):
        ratio_report(g, [(0, 1)], k=2, ell=4)
    with pytest.raises(MatchlabError, match="^stratum 2 is empty$"):
        ratio_report(g, [(0, 1)], k=2, ell=3)
    # above the enumeration cap (K16 has 2,027,025 perfect matchings) the
    # cap wins over an empty stratum: the strata come from the enumeration
    with pytest.raises(ResourceLimitError, match="^2027025 perfect matchings exceed the cap 1000000$"):
        ratio_report(complete_graph(16), [], k=1, ell=2)


def test_ratio_report_json():
    rep = ratio_report(complete_graph(6), [(0, 1)], k=1, ell=3)
    assert rep.exact_ratio == Fraction(1, 4)
    assert rep.predicted == Fraction(1, 5)
    assert isinstance(rep.double_count_ok, bool)
