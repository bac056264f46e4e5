"""Shared brute-force oracles and fixture graphs.

The oracles here deliberately avoid the package's own algorithms: the
matching oracle enumerates all pairings of the vertex set and filters by
edge membership, and the switch-edge recheck decomposes symmetric
differences into components instead of walking a single cycle, so either
side can catch the other out.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Optional

from matchlab.errors import NoPerfectMatchingError, NotAPerfectMatchingError, TooLargeError
from matchlab.graphs import (
    Digraph,
    Edge,
    Graph,
    Matching,
    build_graph,
    complete_graph,
    cycle_graph,
    edge_set,
    vertices_of,
)
from matchlab.pm import DEFAULT_DP_LIMIT, DEFAULT_ENUM_CAP, _count_on_mask, enumerate_pm
from matchlab.switching import SwitchGraph, aux_vertex_set
from matchlab.walks import DEFAULT_MATRIX_CAP, StochasticMatrix, identity_matrix


def all_pairings(items: list[int]):
    """Every partition of `items` into unordered pairs."""
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for i, other in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


def oracle_pm_sets(g: Graph) -> list[frozenset]:
    """All perfect matchings as frozen edge sets, by pairing enumeration."""
    if g.n % 2 != 0:
        return []
    out = []
    for pairing in all_pairings(list(range(g.n))):
        if all(g.has_edge(u, v) for u, v in pairing):
            out.append(frozenset((min(u, v), max(u, v)) for u, v in pairing))
    return out


def oracle_count(g: Graph) -> int:
    return len(oracle_pm_sets(g))


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def two_triangles() -> Graph:
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def small_zoo() -> list[Graph]:
    """Assorted small graphs with and without perfect matchings."""
    from matchlab.graphs import complete_multipartite

    return [
        complete_graph(4),
        complete_graph(6),
        cycle_graph(4),
        cycle_graph(6),
        cycle_graph(8),
        complete_multipartite(2, 3),
        complete_multipartite(3, 2),
        complete_multipartite(2, 4),
        two_triangles(),
        build_graph(4, [(0, 1), (2, 3)]),
        build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        gnp(8, 0.5, 11),
        gnp(8, 0.7, 12),
        gnp(10, 0.5, 13),
        gnp(10, 0.3, 14),
        gnp(7, 0.6, 15),
    ]


# -- reference sampler ---------------------------------------------------------

def reference_sample_pm(g: Graph, rng: random.Random, limit: int = DEFAULT_DP_LIMIT) -> Matching:
    """Oracle for pm.sample_pm: every count, the current mask's and each
    scanned child's, goes through _count_on_mask instead of a direct memo
    read.  It makes the same rng calls, so it gives the same draws."""
    if g.n > limit:
        raise TooLargeError(f"n={g.n} above the counting cap {limit}")
    mask = (1 << g.n) - 1
    total = _count_on_mask(g, mask)
    if total == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    masks = g.neighbor_masks
    pairs = []
    while mask:
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        here = _count_on_mask(g, mask)
        r = rng.randrange(here)
        acc = 0
        avail = masks[u] & rest
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            sub = _count_on_mask(g, rest ^ vbit)
            acc += sub
            if r < acc:
                pairs.append((u, vbit.bit_length() - 1))
                mask = rest ^ vbit
                break
    return Matching(pairs)


# -- reference matrix power ----------------------------------------------------

def _matmul(a: StochasticMatrix, b: StochasticMatrix) -> StochasticMatrix:
    n = a.n
    bt = list(zip(*b.rows))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.rows
    )
    return StochasticMatrix(rows)


def reference_matrix_power(
    p: StochasticMatrix, k: int, cap: int = DEFAULT_MATRIX_CAP
) -> StochasticMatrix:
    """Oracle for walks.matrix_power: repeated squaring with a Fraction
    product, every intermediate matrix rebuilt and revalidated."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    if p.n > cap:
        raise TooLargeError(f"dimension {p.n} above the exact-power cap {cap}")
    result = identity_matrix(p.n)
    base = p
    e = k
    while e:
        if e & 1:
            result = _matmul(result, base)
        e >>= 1
        if e:
            base = _matmul(base, base)
    return result


# -- reference switch graph ---------------------------------------------------

def single_cycle_length(edges: frozenset[Edge]) -> Optional[int]:
    """Length of `edges` when they form exactly one cycle, else None."""
    if not edges:
        return None
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return None
    start = min(adj)
    prev, cur = start, adj[start][0]
    steps = 1
    while cur != start:
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
        steps += 1
    if steps != len(edges):  # closed early: more than one cycle
        return None
    return steps


def is_switch_edge(m_hi: Matching, m_lo: Matching, reference_edges: frozenset[Edge], ell: int) -> bool:
    """The defining test for adjacency in the exchange graph."""
    diff = m_hi.edge_set ^ m_lo.edge_set
    if len(diff) != 2 * ell:
        return False
    carried = diff & reference_edges
    if len(carried) != 1:
        return False
    (e,) = carried
    if e not in m_hi.edge_set:
        return False
    return single_cycle_length(diff) == 2 * ell


def reference_build_switch_graph(
    g: Graph, reference, k: int, ell: int, cap: int = DEFAULT_ENUM_CAP
) -> SwitchGraph:
    """Oracle for switching.build_switch_graph: pairwise tests over the
    two enumerated strata (early exit on a wrong symmetric-difference
    size)."""
    if k < 1:
        raise ValueError("k must be positive")
    if ell < 2 or 2 * ell > g.n:
        raise ValueError("need 2 <= ell and 2*ell <= n")
    ref = edge_set(reference)
    left: list[Matching] = []
    right: list[Matching] = []
    for m in enumerate_pm(g, cap=cap):
        inter = len(m.edge_set & ref)
        if inter == k:
            left.append(m)
        elif inter == k - 1:
            right.append(m)
    edges = []
    for i, m in enumerate(left):
        for j, mp in enumerate(right):
            if is_switch_edge(m, mp, ref, ell):
                edges.append((i, j))
    return SwitchGraph(tuple(left), tuple(right), tuple(edges), ell)


def reference_build_aux_digraph(g: Graph, reference, base: Matching, side=None) -> Digraph:
    """Oracle for switching.build_aux_digraph: its own free-edge and
    base-edge step, with the vertices of shared edges marked ineligible."""
    cover = vertices_of(base.edge_set)
    if cover != frozenset(range(g.n)) or any(not g.has_edge(u, v) for u, v in base):
        raise NotAPerfectMatchingError("base must be a perfect matching of the graph")
    ref = edge_set(reference)
    shared_vertices = vertices_of(ref & base.edge_set)
    eligible = [v not in shared_vertices for v in range(g.n)]
    verts = aux_vertex_set(reference, base, g.n, side)
    partner = base.partner_map()
    arcs = []
    for x in verts:
        for y in g.neighbors(x):
            if not eligible[y]:
                continue
            exy = (x, y) if x < y else (y, x)
            if exy in ref or exy in base.edge_set:
                continue
            z = partner[y]
            if z in verts:
                arcs.append((x, z))
    return Digraph(g.n, arcs)


# -- independent recheck of exchange-graph edges ------------------------------

def components_of(edges):
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        comps.append(comp)
    return comps, adj


def independent_switch_predicate(m_hi, m_lo, ref_edges, ell):
    """Component decomposition instead of the module's single traversal."""
    diff = m_hi.edge_set ^ m_lo.edge_set
    if len(diff) != 2 * ell:
        return False
    comps, adj = components_of(diff)
    if len(comps) != 1 or any(len(nbrs) != 2 for nbrs in adj.values()):
        return False
    if len(comps[0]) != 2 * ell:
        return False
    shared = diff & ref_edges
    return len(shared) == 1 and next(iter(shared)) in m_hi.edge_set


def assert_switch_graph_sound(g, ref, h):
    ref_edges = edge_set(ref)
    pairs = set(h.edges)
    for i, m in enumerate(h.left):
        for j, mp in enumerate(h.right):
            assert ((i, j) in pairs) == independent_switch_predicate(
                m, mp, ref_edges, h.ell
            )
    # double counting of the bipartite edge set
    assert sum(h.left_degrees()) == h.edge_count == sum(h.right_degrees())
    # every listed edge alternates between the two matchings around the cycle
    for i, j in h.edges:
        diff = h.left[i].edge_set ^ h.right[j].edge_set
        from_left = diff & h.left[i].edge_set
        from_right = diff & h.right[j].edge_set
        assert len(from_left) == len(from_right) == h.ell
