import random
import re

import pytest

from conftest import directed_cycle, write_edge_list
from matchlab import graphs
from matchlab.errors import MatchlabError
from matchlab.graphs import (
    Bipartition,
    Digraph,
    Graph,
    Matching,
    complete_digraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    parse_edge_list,
    random_regular,
    read_edge_list,
    regularity,
    remove_edge_set,
    to_bidirected,
)


def test_build_graph_complete():
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
    assert g.n == 4 and g.m == 6
    assert g == complete_graph(4)


def test_build_graph_edgeless_and_dedup():
    g = Graph(2, [])
    assert g.n == 2 and g.m == 0
    h = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert h.m == 1


def test_build_graph_errors():
    with pytest.raises(MatchlabError, match="^self-loop at vertex 0$"):
        Graph(3, [(0, 0)])
    with pytest.raises(MatchlabError, match="^vertex 3 outside 0..2$"):
        Graph(3, [(0, 3)])
    with pytest.raises(MatchlabError, match="^vertex -1 outside 0..2$"):
        Graph(3, [(-1, 2)])


def test_negative_vertex_count_is_refused():
    with pytest.raises(MatchlabError, match="^vertex count must be non-negative$"):
        Graph(-1, [])
    with pytest.raises(MatchlabError, match="^vertex count must be non-negative$"):
        Digraph(-1, [])


def test_cycles_below_their_least_length_are_refused():
    with pytest.raises(MatchlabError, match="^cycle needs at least 3 vertices$"):
        cycle_graph(2)
    assert cycle_graph(3) == complete_graph(3)


def test_adjacency_is_symmetric_and_sorted():
    for g in [complete_multipartite(3, 2), complete_graph(5), cycle_graph(7)]:
        for u in range(g.n):
            assert list(g.neighbors(u)) == sorted(set(g.neighbors(u)))
            for v in g.neighbors(u):
                assert u != v
                assert u in g.neighbors(v)


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 2), (4, 3), (5, 1), (1, 4)])
def test_complete_multipartite_regular(a, b):
    g = complete_multipartite(a, b)
    n = a * b
    d = (a - 1) * b
    assert g.n == n
    assert regularity(g) == d
    assert g.m == n * d // 2


def test_complete_multipartite_known_shapes():
    octa = complete_multipartite(3, 2)
    assert octa.n == 6 and octa.m == 12 and regularity(octa) == 4
    k33 = complete_multipartite(2, 3)
    assert regularity(k33) == 3
    assert all((u < 3) != (v < 3) for u, v in k33.edges)
    assert complete_multipartite(1, 4).m == 0
    with pytest.raises(MatchlabError, match="^need at least one part of size at least one$"):
        complete_multipartite(0, 3)


def test_random_regular_unique_cubic_on_4():
    assert random_regular(4, 3, seed=7) == complete_graph(4)


def test_random_regular_parity_error():
    with pytest.raises(MatchlabError, match="^no simple 3-regular graph on 5 vertices$"):
        random_regular(5, 3, seed=0)
    with pytest.raises(MatchlabError, match="^no simple 4-regular graph on 4 vertices$"):
        random_regular(4, 4, seed=0)


@pytest.mark.parametrize("seed", range(6))
def test_random_regular_is_simple_and_regular(seed):
    g = random_regular(8, 3, seed=seed)
    assert regularity(g) == 3
    for u in range(g.n):
        assert len(set(g.neighbors(u))) == 3
        assert u not in g.neighbors(u)


def test_random_regular_deterministic():
    assert random_regular(10, 4, seed=3) == random_regular(10, 4, seed=3)


def test_random_regular_timeout(monkeypatch):
    monkeypatch.setattr(graphs, "DEFAULT_RESTART_CAP", 0)
    with pytest.raises(MatchlabError, match=r"^no simple pairing found for \(n=8, d=3\) in 0 restarts$"):
        random_regular(8, 3, seed=0)


def test_regularity():
    assert regularity(complete_graph(4)) == 3
    assert regularity(Graph(3, [(0, 1), (1, 2)])) is None
    assert regularity(complete_multipartite(3, 2)) == 4
    assert regularity(Graph(3, [])) == 0


def test_remove_edge_set_k4_to_c4():
    g = remove_edge_set(complete_graph(4), [(0, 1), (2, 3)])
    assert set(g.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_remove_edge_set_k6_to_octahedron():
    g = remove_edge_set(complete_graph(6), [(0, 1), (2, 3), (4, 5)])
    assert g == complete_multipartite(3, 2)


def test_remove_edge_set_identity_and_roundtrip():
    g = complete_graph(5)
    assert remove_edge_set(g, []) == g
    removed = [(0, 1), (2, 3)]
    stripped = remove_edge_set(g, removed)
    back = Graph(g.n, list(stripped.edges) + removed)
    assert back == g


def test_remove_edge_set_missing_edge():
    with pytest.raises(MatchlabError, match=r"^edges not in graph: \[\(0, 2\)\]$"):
        remove_edge_set(cycle_graph(4), [(0, 2)])


def test_matching_validation():
    m = Matching([(2, 3), (0, 1)])
    assert m.pairs == ((0, 1), (2, 3))
    with pytest.raises(MatchlabError, match=r"^vertex reused by edge \(1, 2\)$"):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(MatchlabError, match="^self-loop at vertex 1$"):
        Matching([(1, 1)])


@pytest.mark.parametrize("pairs", [[], [(0, 1)], [(0, 3), (1, 2), (4, 7)], [(0, 5), (1, 4), (2, 3)]])
def test_matching_from_sorted_equals_constructor(pairs):
    # the constructor normalises and sorts any spelling of the edges, so
    # equality, hashing and membership, which read `pairs`, agree
    fast, slow = Matching._from_sorted(pairs), Matching([(v, u) for u, v in reversed(pairs)])
    assert fast.pairs == slow.pairs == tuple(pairs)
    assert fast.edge_set == slow.edge_set == frozenset(pairs)
    assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
    assert len({fast, slow, Matching(pairs)}) == 1
    for u, v in pairs:
        assert (u, v) in fast and (v, u) in fast and (v, u) in slow
    assert (8, 9) not in fast and (9, 8) not in slow
    assert fast != Matching([(8, 9)]) and fast != tuple(pairs)


def test_edge_set_reads_every_form():
    # a Matching, a Graph and raw pairs in either order give one edge set
    pairs = frozenset({(0, 1), (2, 3)})
    assert edge_set([(1, 0)]) == frozenset({(0, 1)})
    assert edge_set([(1, 0), (2, 3), (0, 1)]) == pairs
    assert edge_set(Matching([(3, 2), (0, 1)])) == edge_set(Graph(4, [(0, 1), (2, 3)])) == pairs
    assert edge_set(cycle_graph(4)) == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_edges_in_refuses_the_edge_outside_the_host_by_name():
    g = cycle_graph(4)
    assert graphs._edges_in(g, [(1, 0), (3, 2)], "edge") == frozenset({(0, 1), (2, 3)})
    assert graphs._edges_in(g, Matching([]), "edge") == frozenset()
    for edges, what, bad in (([(0, 1), (2, 0)], "base edge", (0, 2)), ([(4, 1)], "reference edge", (1, 4))):
        with pytest.raises(MatchlabError, match=re.escape(f"{what} {bad} not in graph")):
            graphs._edges_in(g, edges, what)


def test_bipartition_validation():
    part = Bipartition([0, 2], [1, 3])
    assert part.n == 4
    with pytest.raises(MatchlabError, match="^bipartition sides overlap$"):
        Bipartition([0, 1], [1, 2])
    with pytest.raises(MatchlabError, match="^bipartition sides must cover 0..n-1$"):
        Bipartition([0], [2])


def test_digraph_basics():
    d = complete_digraph(4)
    assert all(d.out_degree(v) == 3 and d.in_degree(v) == 3 for v in range(4))
    c = directed_cycle(5)
    assert c.out_neighbors(4) == (0,)
    assert c.in_masks[0] == 1 << 4 and c.in_degree(0) == 1
    with pytest.raises(MatchlabError, match="^self-loop at vertex 1$"):
        Digraph(3, [(1, 1)])
    with pytest.raises(MatchlabError, match="^vertex 5 outside 0..2$"):
        Digraph(3, [(0, 5)])


def test_membership_is_false_outside_vertex_range():
    g = complete_graph(6)
    # -1 used to wrap to vertex 5, and 6 used to raise IndexError
    for u, v in [(-1, 3), (3, -1), (-1, 5), (6, 7), (2, 6), (6, 2)]:
        assert not g.has_edge(u, v)
    assert g.has_edge(0, 5) and g.has_edge(5, 4)
    assert not any(g.has_edge(v, v) for v in range(6))


def test_digraph_views_match_the_arc_set():
    rng = random.Random(29)
    for n in range(13):
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density}
            listed = list(arcs)
            rng.shuffle(listed)
            d = Digraph(n, listed)
            for v in range(n):
                assert d.out_neighbors(v) == tuple(sorted(w for u, w in arcs if u == v))
                assert d.in_masks[v] == sum(1 << u for u, w in arcs if w == v)
                assert d.in_degree(v) == sum(1 for _, w in arcs if w == v)


def test_equal_graphs_hash_equal():
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    h = Graph(4, [(2, 1), (3, 2), (1, 0)])
    assert g == h and hash(g) == hash(h)
    d = Digraph(4, [(0, 1), (2, 3), (3, 0)])
    e = Digraph(4, [(3, 0), (0, 1), (2, 3), (0, 1)])
    assert d == e and hash(d) == hash(e)


def test_to_bidirected():
    g = cycle_graph(4)
    d = to_bidirected(g)
    assert len(d.arcs) == 2 * g.m
    assert set(d.arcs) == {a for u, v in g.edges for a in ((u, v), (v, u))}


def test_edge_list_roundtrip(tmp_path):
    g = complete_multipartite(2, 3)
    path = tmp_path / "g.el"
    write_edge_list(path, g)
    back, part = read_edge_list(path)
    assert back == g and part is None


def test_edge_list_bipartite_roundtrip(tmp_path):
    g = complete_multipartite(2, 3)
    part = Bipartition(range(3), range(3, 6))
    path = tmp_path / "g.el"
    write_edge_list(path, g, part)
    back, part2 = read_edge_list(path)
    assert back == g
    assert part2 is not None and part2.side_a == frozenset({0, 1, 2})


def test_edge_list_comments_and_errors():
    g, part = parse_edge_list("# a comment\n3 2\n0 1\n# middle\n1 2\n")
    assert g.n == 3 and g.m == 2 and part is None
    with pytest.raises(MatchlabError, match="^header declares 2 edges, file has 1$"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(MatchlabError, match="^missing 'n m' header line$"):
        parse_edge_list("")


def test_edge_list_a_line_vertex_out_of_range():
    # used to fail with "bipartition sides must cover 0..n-1"
    with pytest.raises(MatchlabError, match="^vertex 7 outside 0..3$"):
        parse_edge_list("4 1\n0 1\nA: 0 7\n")
    with pytest.raises(MatchlabError, match="^vertex -1 outside 0..3$"):
        parse_edge_list("A: -1 2\n4 1\n0 1\n")


def test_edge_list_a_line_repeated_vertex():
    # the repeat used to be dropped silently
    with pytest.raises(MatchlabError, match="^vertex 2 repeated on the 'A:' line$"):
        parse_edge_list("4 1\n0 1\nA: 0 2 2\n")


def test_edge_list_second_a_line():
    # the second line used to replace the first silently
    with pytest.raises(MatchlabError, match="^second 'A:' line: 'A: 1 3'$"):
        parse_edge_list("4 1\n0 1\nA: 0 2\nA: 1 3\n")


@pytest.mark.parametrize("text, message", [
    ("4 x\n0 1\n", "bad header line: '4 x'"),
    ("4 1\n0 x\n", "bad edge line: '0 x'"),
    ("4 1\n0 1\nA: x\n", "bad 'A:' line: 'A: x'"),
    ("4 2\n0 1\n0 1\n", "edge 0 1 repeated: '0 1'"),
    ("4 2\n0 1\n1 0\n", "edge 0 1 repeated: '1 0'"),
], ids=["header_token", "edge_token", "a_line_token", "repeated_edge", "reversed_edge"])
def test_edge_list_names_the_line_it_refuses(text, message):
    # each refusal quotes the line it refuses; a repeated edge would
    # otherwise be merged and m read one short of the header
    with pytest.raises(MatchlabError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)


def test_edge_list_a_line_accepted():
    g, part = parse_edge_list("A: 2 0\n4 1\n0 1\n")
    assert g.m == 1
    assert part.side_a == frozenset({0, 2}) and part.side_b == frozenset({1, 3})
