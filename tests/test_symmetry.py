import itertools
import random

import pytest

from conftest import gnp
from matchlab import symmetry
from matchlab.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    random_regular,
)
from matchlab.pm import _pm_keys, first_pm


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def shuffled(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def masks_of(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def key_of(n: int, edges) -> int:
    return sum(1 << (min(u, v) * n + max(u, v)) for u, v in edges)


def cube() -> Graph:
    return Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3) if u < u ^ 1 << i])


def prism(m: int) -> Graph:
    ring = [(i, (i + 1) % m) for i in range(m)]
    return Graph(2 * m, ring + [(u + m, v + m) for u, v in ring] + [(i, i + m) for i in range(m)])


def hosts():
    return [
        ("K8", complete_graph(8)),
        ("K10", complete_graph(10)),
        ("K5,5", complete_multipartite(2, 5)),
        ("cocktail10", complete_multipartite(5, 2)),
        ("K4x3", complete_multipartite(4, 3)),
        ("C10", cycle_graph(10)),
        ("cube", cube()),
        ("prism6", prism(6)),
        ("rr12_5", random_regular(12, 5, seed=1)),
        ("gnp10", gnp(10, 0.6, 3)),
    ]


def references(g: Graph):
    """A perfect matching, one edge, a path of two edges and no edge."""
    u, v = g.edges[0]
    w = next(x for x in g.neighbors(v) if x != u)
    return [first_pm(g).pairs, [(u, v)], [(u, v), (v, w)], []]


@pytest.mark.parametrize("name, host", hosts(), ids=[name for name, _ in hosts()])
def test_every_generator_maps_both_edge_sets_onto_themselves(name, host):
    checked = 0
    for seed in range(3):
        g = relabel(host, shuffled(host.n, seed))
        edges = set(g.edges)
        for ref in references(g):
            ref = {(min(u, v), max(u, v)) for u, v in ref}
            for perm in symmetry.generators(g.neighbor_masks, masks_of(g.n, ref)):
                assert sorted(perm) == list(range(g.n))
                assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
                assert {tuple(sorted((perm[u], perm[v]))) for u, v in ref} == ref
                assert perm != list(range(g.n))
                checked += 1
    assert checked > 0 or name in ("rr12_5", "gnp10")


@pytest.mark.parametrize("name, host", hosts(), ids=[name for name, _ in hosts()])
def test_each_generator_joins_two_vertex_orbits(name, host):
    # a candidate is searched only for a vertex outside the path vertex's
    # orbit so far, and the generator it yields joins the two, so there
    # are at most n - 1 generators
    for ref in references(host):
        gens = symmetry.generators(host.neighbor_masks, masks_of(host.n, ref))
        assert len(gens) <= host.n - 1
    if name == "K8":
        # K8 alone: one generator per level of the first path
        assert len(symmetry.generators(host.neighbor_masks, [0] * 8)) == 7


def _coarsest_equitable(g: Graph, ref) -> set[frozenset[int]]:
    """Colour refinement by (colour, colours of G-neighbours, colours of
    N-neighbours) until the number of colours stops growing."""
    rn = masks_of(g.n, ref)
    colour = [0] * g.n
    while True:
        sig = [
            (colour[v],
             tuple(sorted(colour[u] for u in range(g.n) if g.neighbor_masks[v] >> u & 1)),
             tuple(sorted(colour[u] for u in range(g.n) if rn[v] >> u & 1)))
            for v in range(g.n)
        ]
        names = {x: i for i, x in enumerate(sorted(set(sig)))}
        new = [names[x] for x in sig]
        if len(set(new)) == len(set(colour)):
            break
        colour = new
    return {frozenset(v for v in range(g.n) if colour[v] == c) for c in set(colour)}


@pytest.mark.parametrize(
    "host",
    [Graph(6, [(i, i + 1) for i in range(5)]), gnp(10, 0.4, 1), gnp(12, 0.3, 2), prism(5),
     random_regular(12, 5, seed=1), complete_multipartite(3, 2)],
    ids=["P6", "gnp10", "gnp12", "prism5", "rr12_5", "K3x2"],
)
def test_refinement_from_one_cell_is_the_coarsest_equitable_partition(host):
    for ref in ([], [host.edges[0]], [host.edges[0], host.edges[-1]]):
        rn = masks_of(host.n, ref)
        cells = symmetry._refine([list(range(host.n))], [(1 << host.n) - 1], host.neighbor_masks, rn)
        assert sorted(v for cell in cells for v in cell) == list(range(host.n))
        assert all(cell == sorted(cell) for cell in cells)
        assert {frozenset(cell) for cell in cells} == _coarsest_equitable(host, ref)


def test_root_partition_orders_vertices_by_their_triangles():
    # v's G-triangles (sum over G-neighbours u of |N(u) & N(v)|) first,
    # then the same sum over v's reference neighbours
    for g in (gnp(10, 0.5, 6), random_regular(12, 5, seed=1), prism(4)):
        ref = first_pm(g).pairs
        rn = masks_of(g.n, ref)
        m = g.neighbor_masks

        def triangles(v, over):
            return sum((m[u] & m[v]).bit_count() for u in range(g.n) if over[v] >> u & 1)

        counts = [(triangles(v, m), triangles(v, rn)) for v in range(g.n)]
        cells, queue = symmetry._root(m, rn)
        assert [sorted(cell) for cell in cells] == [
            [v for v in range(g.n) if counts[v] == c] for c in sorted(set(counts))
        ]
        assert queue == [sum(1 << v for v in cell) for cell in cells]


def _brute_group(g: Graph, ref) -> set[tuple[int, ...]]:
    edges = set(g.edges)
    ref = {(min(u, v), max(u, v)) for u, v in ref}
    return {
        perm
        for perm in itertools.permutations(range(g.n))
        if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges)
        and all(tuple(sorted((perm[u], perm[v]))) in ref for u, v in ref)
    }


def _closure(gens, n: int) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    todo = list(group)
    for x in todo:
        for perm in gens:
            y = tuple(perm[x[i]] for i in range(n))
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


@pytest.mark.parametrize(
    "host",
    [complete_graph(6), complete_multipartite(2, 3), complete_multipartite(3, 2), cycle_graph(6),
     prism(3), cube(), gnp(8, 0.7, 2)],
    ids=["K6", "K3,3", "K3x2", "C6", "prism3", "cube", "gnp8"],
)
def test_generators_give_the_whole_group_on_small_hosts(host):
    # the search backtracks, so on these hosts it misses no automorphism
    g = relabel(host, shuffled(host.n, 5))
    for ref in references(g):
        gens = symmetry.generators(g.neighbor_masks, masks_of(g.n, ref))
        assert _closure(gens, g.n) == _brute_group(g, ref)


def test_a_permutation_that_is_no_automorphism_is_refused():
    g = complete_graph(4)
    ref = masks_of(4, [(0, 1)])
    assert symmetry.is_automorphism([1, 0, 3, 2], g.neighbor_masks, ref)
    # keeps K4 but moves the reference edge (0, 1) to (0, 2)
    assert not symmetry.is_automorphism([0, 2, 1, 3], g.neighbor_masks, ref)
    # not a bijection
    assert not symmetry.is_automorphism([1, 1, 3, 2], g.neighbor_masks, ref)
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    none = masks_of(4, [])
    assert symmetry.is_automorphism([3, 2, 1, 0], path.neighbor_masks, none)
    # keeps the empty reference but maps the edge (1, 2) to (0, 2)
    assert not symmetry.is_automorphism([1, 0, 2, 3], path.neighbor_masks, none)


def _stratum_orbits(g: Graph, ref, k: int) -> dict[int, list[int]]:
    """Representative -> its orbit's keys, in list order, for stratum k,
    after checking that key_orbits' three parts agree."""
    ban = key_of(g.n, ref)
    keys = [key for key in _pm_keys(g) if (key & ban).bit_count() == k]
    gens = symmetry.generators(g.neighbor_masks, masks_of(g.n, ref))
    reps, sizes, orbit = symmetry.key_orbits(keys, gens, g.n)
    assert set(orbit) == set(keys) and len(orbit) == len(keys)
    members: list[list[int]] = [[] for _ in reps]
    for key in keys:
        members[orbit[key]].append(key)
    # the orbits are numbered in the order of their first keys
    assert [orbit_keys[0] for orbit_keys in members] == reps
    assert sizes == [len(orbit_keys) for orbit_keys in members]
    return dict(zip(reps, members))


def test_key_orbits_without_generators_give_every_key_its_own_orbit():
    g = relabel(complete_graph(8), shuffled(8, 3))
    keys = _pm_keys(g)
    reps, sizes, orbit = symmetry.key_orbits(keys, [], g.n)
    assert reps == keys
    assert sizes == [1] * len(keys)
    assert orbit == {key: j for j, key in enumerate(keys)}
    assert symmetry.key_orbits([], [], 8) == ([], [], {})


@pytest.mark.parametrize("name, host", hosts()[:8], ids=[name for name, _ in hosts()[:8]])
def test_orbit_sizes_sum_to_the_stratum_sizes(name, host):
    g = relabel(host, shuffled(host.n, 7))
    ref = first_pm(g).pairs
    ban = key_of(g.n, ref)
    gens = symmetry.generators(g.neighbor_masks, masks_of(g.n, ref))
    for k in range(g.n // 2 + 1):
        stratum = [key for key in _pm_keys(g) if (key & ban).bit_count() == k]
        orbits = _stratum_orbits(g, ref, k)
        assert sum(map(len, orbits.values())) == len(stratum)
        assert sorted(key for orbit in orbits.values() for key in orbit) == sorted(stratum)
        for r, orbit in orbits.items():
            # the representative is the orbit's first key in list order, and
            # each generator maps the orbit onto itself
            assert r == orbit[0]
            for perm in gens:
                image = {key_of(g.n, [(perm[u], perm[v]) for u, v in _pairs(key, g.n)]) for key in orbit}
                assert image == set(orbit)


def _pairs(key: int, n: int):
    return [divmod(b, n) for b in range(n * n) if key >> b & 1]


@pytest.mark.parametrize("seed", range(4))
def test_k10_strata_fall_into_two_orbits_each(seed):
    # M with one edge of the perfect matching N: M u N closes 8 vertices
    # into cycles of types {8} and {4, 4}; with none, 10 vertices into
    # {10} and {6, 4}
    g = relabel(complete_graph(10), shuffled(10, seed))
    ref = first_pm(g).pairs
    left, right = _stratum_orbits(g, ref, 1), _stratum_orbits(g, ref, 0)
    assert len(left) == 2 and sum(map(len, left.values())) == 300
    assert len(right) == 2 and sum(map(len, right.values())) == 544


def test_an_asymmetric_host_gets_no_generator():
    g = gnp(8, 0.5, 4)
    for ref in ([], first_pm(g).pairs):
        assert _brute_group(g, ref) == {tuple(range(8))}
        assert symmetry.generators(g.neighbor_masks, masks_of(8, ref)) == []
    g = gnp(10, 0.6, 3)
    assert symmetry.generators(g.neighbor_masks, masks_of(10, first_pm(g).pairs)) == []


def test_tiny_hosts_have_no_generator_to_find():
    assert symmetry.generators((), ()) == []
    assert symmetry.generators((0,), (0,)) == []
    # K2: the swap keeps the edge
    assert symmetry.generators((2, 1), (0, 0)) == [[1, 0]]
