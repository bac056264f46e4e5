"""The switching argument made concrete.

Between the perfect matchings containing exactly k reference edges and
those containing exactly k-1, build the bipartite exchange graph whose
edges are single alternating cycles of a fixed length carrying exactly
one reference edge.  Double counting its edges ties the stratum sizes
together.

One walker, `_alternating_paths`, takes the alternating steps: a free
edge, then a base-matching edge.  The exchange graph is generated from
it, each left matching's neighbours read off the alternating cycles
through its reference edges, and `count_alternating_paths` counts its
paths.  The companion digraph has one arc per such pair of steps, so
alternating-path counting becomes ordinary path counting.
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


def _alternating_paths(g: Graph, base: Matching, u: int, length: int, ban: frozenset[Edge]):
    """Every simple path of `length` edges (even) from u that alternates a
    free edge, outside `ban` and the base matching, with a base-matching
    edge outside `ban`, starting with a free edge.

    Yields (vertices, free edges, base edges) as lists that the next step
    changes in place: copy what has to outlive it.
    """
    base_edges = base.edge_set
    partner = base.partner_map()
    path: list[int] = [u]
    free: list[Edge] = []
    based: list[Edge] = []

    def rec(x: int, pairs: int):
        if pairs == 0:
            yield path, free, based
            return
        for y in g.neighbors(x):
            z = partner.get(y)
            if z is None or y in path or z in path:
                continue
            e = (x, y) if x < y else (y, x)
            f = (y, z) if y < z else (z, y)
            if e in ban or e in base_edges or f in ban:
                continue
            path.extend((y, z))
            free.append(e)
            based.append(f)
            yield from rec(z, pairs - 1)
            del path[-2:]
            free.pop()
            based.pop()

    return rec(u, length // 2)


def build_switch_graph(
    g: Graph, reference, k: int, ell: int, cap: int = DEFAULT_ENUM_CAP
) -> SwitchGraph:
    """Materialize the exchange graph by generating each left matching's
    neighbours.  For each reference edge (a, b) of a left matching M, every
    alternating path of 2*ell - 2 edges from b avoiding the reference that
    closes at a by a non-reference edge gives one cycle C, and M ^ C is
    looked up among the right matchings by edge set."""
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
    right_index = {m.edge_set: j for j, m in enumerate(right)}
    edges = []
    for i, m in enumerate(left):
        found = []
        for a, b in m.edge_set & ref:
            for path, free, based in _alternating_paths(g, m, b, 2 * ell - 2, ref):
                z = path[-1]
                close = (a, z) if a < z else (z, a)
                if close not in ref and g.has_edge(a, z):
                    cycle = [(a, b), close, *free, *based]
                    found.append(right_index[m.edge_set.symmetric_difference(cycle)])
        edges += [(i, j) for j in sorted(found)]
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

    One arc x -> z per two alternating steps from x, as
    `_alternating_paths` takes them with the reference banned: first a
    free edge (outside both the reference and the base matching) to some
    y, then y's base-matching edge, outside the reference, to z.  The
    digraph keeps the original vertex labels; vertices outside its vertex
    set are simply isolated.  For the bipartite variant pass the class
    containing the endpoints of interest as `side`.
    """
    cover = vertices_of(base.edge_set)
    if cover != frozenset(range(g.n)) or any(not g.has_edge(u, v) for u, v in base):
        raise NotAPerfectMatchingError("base must be a perfect matching of the graph")
    ref = edge_set(reference)
    verts = aux_vertex_set(reference, base, g.n, side)
    arcs = [
        (x, path[-1])
        for x in verts
        for path, _, _ in _alternating_paths(g, base, x, 2, ref)
        if path[-1] in verts
    ]
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
    paths = _alternating_paths(g, base, u, length, edge_set(forbidden))
    return sum(1 for path, _, _ in paths if path[-1] == v)


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
    if k < 1:
        raise ValueError("k must be positive")
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
