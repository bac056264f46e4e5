"""The switching argument made concrete.

Between the perfect matchings containing exactly k reference edges and
those containing exactly k-1, build the bipartite exchange graph whose
edges are single alternating cycles of a fixed length carrying exactly
one reference edge.  Double counting its edges ties the stratum sizes
together; the companion digraph turns alternating-path counting into
ordinary path counting, one arc per two alternating steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    EdgeNotPresentError,
    EmptyStratumError,
    NotAPerfectMatchingError,
    NotRegularError,
)
from .graphs import (
    Digraph,
    Edge,
    Graph,
    Matching,
    edge_set,
    is_matching_shaped,
    regularity,
    vertices_of,
)
from .pm import DEFAULT_ENUM_CAP, enumerate_pm, stratify
from .rational import frac_json


def eligible_edge_count(reference, k: int) -> int:
    """Number of reference edges a switch at level k can remove.

    For a matching reference each of the k-1 already-used edges blocks
    one candidate, leaving e(N) - (k - 1); for a general (regular)
    reference the count stays e(N).
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = len(edge_set(reference))
    if is_matching_shaped(reference):
        return m - (k - 1)
    return m


@dataclass(frozen=True)
class SwitchGraph:
    """Bipartite exchange graph between two adjacent strata.

    left holds the stratum with k reference edges, right the stratum
    with k-1; `edges` are (left index, right index) pairs.  Two perfect
    matchings are adjacent exactly when their symmetric difference is a
    single cycle of length 2*ell containing one reference edge, that
    edge lying on the left matching.
    """

    left: tuple[Matching, ...]
    right: tuple[Matching, ...]
    edges: tuple[tuple[int, int], ...]
    ell: int

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> list[int]:
        degs = [0] * len(self.left)
        for i, _ in self.edges:
            degs[i] += 1
        return degs

    def right_degrees(self) -> list[int]:
        degs = [0] * len(self.right)
        for _, j in self.edges:
            degs[j] += 1
        return degs


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


def build_switch_graph(
    g: Graph, reference, k: int, ell: int, cap: int = DEFAULT_ENUM_CAP
) -> SwitchGraph:
    """Materialize the exchange graph by pairwise tests over the two
    enumerated strata (early exit on a wrong symmetric-difference size)."""
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


def aux_vertex_set(reference, base: Matching, n: int, side=None) -> frozenset[int]:
    """Vertex set of the companion digraph: everything outside the edges
    shared by the reference and the base matching (restricted to one
    class in the bipartite variant)."""
    shared = edge_set(reference) & base.edge_set
    excluded = vertices_of(shared)
    verts = frozenset(range(n)) - excluded
    if side is not None:
        verts &= frozenset(side)
    return verts


def build_aux_digraph(g: Graph, reference, base: Matching, side=None) -> Digraph:
    """Companion digraph for alternating-path counting.

    One arc x -> z per two alternating steps from x: first a free edge
    (outside both the reference and the base matching) to some y, then
    y's base-matching edge to z.  The digraph keeps the original vertex
    labels; vertices outside its vertex set are simply isolated.  For
    the bipartite variant pass the class containing the endpoints of
    interest as `side`.
    """
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


def count_alternating_paths(
    g: Graph,
    base: Matching,
    u: int,
    v: int,
    length: int,
    forbidden=(),
) -> int:
    """Simple (u, v)-paths of even length alternating between free edges
    (outside `forbidden` and the base matching) and base-matching edges
    outside `forbidden`, starting with a free edge."""
    if u == v:
        raise ValueError("endpoints must be distinct")
    if length % 2 != 0:
        raise ValueError("length must be even")
    if length == 0:
        return 0
    ban = edge_set(forbidden)
    base_edges = base.edge_set
    partner = base.partner_map()
    visited = {u}

    def rec(x: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if x == v else 0
        if remaining % 2 == 0:
            # free step
            total = 0
            for y in g.neighbors(x):
                if y in visited:
                    continue
                e = (x, y) if x < y else (y, x)
                if e in ban or e in base_edges:
                    continue
                visited.add(y)
                total += rec(y, remaining - 1)
                visited.discard(y)
            return total
        # matching step: at most one continuation
        y = partner.get(x)
        if y is None or y in visited:
            return 0
        e = (x, y) if x < y else (y, x)
        if e in ban:
            return 0
        visited.add(y)
        total = rec(y, remaining - 1)
        visited.discard(y)
        return total

    return rec(u, length)


@dataclass(frozen=True)
class RatioReport:
    """Exact stratum ratio next to the switching prediction.

    `exact_ratio` is |stratum k| / |stratum k-1| from the exact strata;
    `predicted` is eligible_edge_count / (k * d) for a d-regular host.
    Degree statistics of the exchange graph and the double-count check
    come along for inspection; agreement of exact and predicted is an
    asymptotic statement and both numbers are simply reported.
    """

    k: int
    ell: int
    size_k: int
    size_km1: int
    exact_ratio: Fraction
    predicted: Fraction
    left_stats: tuple[int, int, Optional[Fraction]]
    right_stats: tuple[int, int, Optional[Fraction]]
    edge_count: int
    double_count_ok: bool

    def to_json_dict(self) -> dict:
        def stats(s):
            lo, hi, mean = s
            return {
                "min": lo,
                "max": hi,
                "mean": None if mean is None else float(mean),
            }

        return {
            "k": self.k,
            "ell": self.ell,
            "stratum_k": str(self.size_k),
            "stratum_k_minus_1": str(self.size_km1),
            "exact_ratio": frac_json(self.exact_ratio),
            "predicted": frac_json(self.predicted),
            "left_degrees": stats(self.left_stats),
            "right_degrees": stats(self.right_stats),
            "switch_edges": self.edge_count,
            "double_count_ok": self.double_count_ok,
        }


def _degree_stats(degs: list[int]) -> tuple[int, int, Optional[Fraction]]:
    if not degs:
        return (0, 0, None)
    return (min(degs), max(degs), Fraction(sum(degs), len(degs)))


def ratio_report(g: Graph, reference, k: int, ell: int) -> RatioReport:
    """Exact stratum ratio, prediction, and exchange-graph statistics."""
    d = regularity(g)
    if d is None:
        raise NotRegularError("host graph must be regular")
    ref = edge_set(reference)
    for u, v in ref:
        if not g.has_edge(u, v):
            raise EdgeNotPresentError(f"reference edge ({u}, {v}) not in graph")
    strata = stratify(g, ref)
    size_k = strata.get(k)
    size_km1 = strata.get(k - 1)
    if size_km1 == 0 or size_k == 0:
        empty = k - 1 if size_km1 == 0 else k
        raise EmptyStratumError(f"stratum {empty} is empty")
    h = build_switch_graph(g, reference, k, ell)
    ldeg = h.left_degrees()
    rdeg = h.right_degrees()
    double_ok = sum(ldeg) == h.edge_count == sum(rdeg)
    return RatioReport(
        k=k,
        ell=ell,
        size_k=size_k,
        size_km1=size_km1,
        exact_ratio=Fraction(size_k, size_km1),
        predicted=Fraction(eligible_edge_count(reference, k), k * d),
        left_stats=_degree_stats(ldeg),
        right_stats=_degree_stats(rdeg),
        edge_count=h.edge_count,
        double_count_ok=double_ok,
    )
