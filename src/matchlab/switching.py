"""The switching argument made concrete.

Between the perfect matchings containing exactly k reference edges and
those containing exactly k-1, build the bipartite exchange graph whose
edges are single alternating cycles of a fixed length carrying exactly
one reference edge.  Double counting its edges ties the stratum sizes
together.

Every alternating walk reads a step table built once per base matching
(`_step_table`): row x lists, in neighbour order, each pair of steps
from x that a walk may take, a free edge to y and then y's base-matching
edge to z, as (z, the visited bits of y and z, the two edge bits).  Edge
sets are int keys (bit u*n + v per edge, u < v), the keys `pm` lists
matchings as, and the visited vertices an int mask.  One plain
recursion, `_walk`, follows the rows and hands each path's last pair of
steps to its caller:

- `_neighbours` reads one left matching's neighbours off the cycles
  through its reference edges, testing each closing edge as it takes
  the last step.  The strata come from `_strata`, which splits the
  host's key list (`pm._pm_keys`, made once per graph, so an ell sweep
  on one graph lists its matchings once) by the reference bits each key
  holds.  `_switches` walks every left matching, and
  `build_switch_graph` decodes and materialises what it finds.
  `ratio_report` walks one left matching per orbit of the automorphisms
  of the host that keep the reference (`symmetry`), weighted by the
  orbit's size, and reads each right orbit's degree off the weighted
  neighbours that land in it.  The generators and every key's orbit are
  kept per graph and reference (`Graph._key_orbits`), so an ell sweep
  finds them once; with no generator, every matching is its own orbit.
- `count_alternating_paths` counts the paths ending at v.
- `build_aux_digraph` has one arc x -> z per table entry inside its
  vertex set.

A reference, a base matching and forbidden edges may each be a
`Matching`, a `Graph` or raw pairs.  The reference and the base enter
through `graphs._edges_in`, which refuses their first edge outside the
host by name, so `_edge_bits` keys them without looking at g; a
forbidden pair that is no edge of g keeps a bit that no step tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import symmetry
from .errors import MatchlabError
from .graphs import (
    Digraph,
    Graph,
    Matching,
    _check_vertex,
    _edges_in,
    edge_set,
    regularity,
    vertices_of,
)
from .pm import _decode, _key_pairs, _pm_keys


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


def _edge_bits(n: int, edges) -> int:
    """Int key of normalised `edges` (u < v) on n vertices: bit u*n + v
    per edge."""
    return sum(1 << (u * n + v) for u, v in edges)


def _free_steps(g: Graph, ban: int) -> list[list[tuple[int, int]]]:
    """Row x holds one (y, bit(x, y)) per neighbour y of x, in increasing
    y, whose edge lies outside the int key `ban`."""
    n = g.n
    rows = []
    for x, mask in enumerate(g.neighbor_masks):
        row = []
        for y in range(n):
            if mask >> y & 1:
                e = 1 << (x * n + y if x < y else y * n + x)
                if not ban & e:
                    row.append((y, e))
        rows.append(row)
    return rows


def _step_table(free: list, base: int, ban: int) -> list[list[tuple[int, int, int]]]:
    """The alternating steps out of every vertex for one base matching,
    given by its int key `base`.

    Row x holds, in the order of the free row x (`_free_steps`), one
    (z, bits, flip) per free edge e = (x, y) whose y has a base partner z
    other than x by a base edge f = (y, z) outside the int key `ban`:
    bits = 1<<y | 1<<z marks the two vertices the step visits, and
    flip = e ^ f holds its two edge bits.  A free edge on the base matching
    would lead back to x, so it has no entry.
    """
    n = len(free)
    step: list = [None] * n
    for u, v in _key_pairs(base & ~ban, n):
        bits = 1 << u | 1 << v
        f = 1 << (u * n + v)
        step[u] = (v, bits, f)
        step[v] = (u, bits, f)
    table = []
    for x, row in enumerate(free):
        steps = []
        for y, e in row:
            s = step[y]
            if s is not None and s[0] != x:
                steps.append((s[0], s[1], e | s[2]))
        table.append(steps)
    return table


def _walk(table, x: int, seen: int, pairs: int, flip: int, last) -> None:
    """Take `pairs` steps of `table` from x without revisiting the int mask
    `seen`, then hand each path to last(end, seen, flip), which takes the
    final step itself."""
    if pairs == 0:
        last(x, seen, flip)
        return
    for z, bits, f in table[x]:
        if not seen & bits:
            _walk(table, z, seen | bits, pairs - 1, flip ^ f, last)


def _strata(g: Graph, reference, k: int, ell: int):
    """The reference's edge set and int key, and the keys of the matchings
    with k and k-1 of its edges, in enumeration order, split by the bits
    each key shares with the reference's key.  The keys come from g's list
    (`pm._pm_keys`), made once per graph after the enumeration cap check.
    A reference edge outside E(G) is refused, for `build_switch_graph` and
    `ratio_report` alike."""
    if k < 1:
        raise MatchlabError("k must be positive")
    ref = _edges_in(g, reference, "reference edge")
    if ell < 2 or 2 * ell > g.n:
        raise MatchlabError("need 2 <= ell and 2*ell <= n")
    ban = _edge_bits(g.n, ref)
    left, right = [], []
    for key in _pm_keys(g):
        shared = (key & ban).bit_count()
        if shared == k:
            left.append(key)
        elif shared == k - 1:
            right.append(key)
    return ref, ban, left, right


def _neighbours(free: list, closers: list, key: int, ban: int, ell: int, index: dict) -> list:
    """index[N] for each neighbour N of the left matching keyed `key` in
    the exchange graph: for (a, b) in M & ref, in increasing order, each
    alternating path of 2*ell - 2 edges from b avoiding `ref` (int key
    `ban`) and closing at a by an edge (z, a) outside `ref` gives the
    neighbour keyed key ^ bit(a, b) ^ bit(z, a) ^ flip.  The walk follows
    one step table, built from the key; the final step of each path looks
    its end z up in a's free row as a dict, closers[a], z -> bit(z, a),
    and appends the neighbour there."""
    n = len(free)
    found = []
    table = _step_table(free, key, ban)
    for a, b in _key_pairs(key & ban, n):
        closing = closers[a]
        opened = key ^ 1 << (a * n + b)

        def last(x: int, seen: int, flip: int) -> None:
            for z, bits, f in table[x]:
                if not seen & bits:
                    c = closing.get(z)
                    if c is not None:
                        found.append(index[opened ^ c ^ flip ^ f])

        _walk(table, b, 1 << b, ell - 2, 0, last)
    return found


def _switches(g: Graph, reference, k: int, ell: int):
    """The exchange graph in one pass.  Yields the strata (left, right) of
    `_strata`; then the list of neighbours (indices into `right`) of each
    left matching, in the order of `_neighbours`."""
    _, ban, left, right = _strata(g, reference, k, ell)
    yield left, right
    right_index = {key: j for j, key in enumerate(right)}
    free = _free_steps(g, ban)
    closers = [dict(row) for row in free]
    for key in left:
        yield _neighbours(free, closers, key, ban, ell, right_index)


def build_switch_graph(g: Graph, reference, k: int, ell: int) -> SwitchGraph:
    """Materialize the exchange graph of `_switches`: its strata decoded
    to matchings, and one (i, j) per left matching i and right neighbour
    j, each left's in increasing j."""
    walk = _switches(g, reference, k, ell)
    left, right = next(walk)
    edges = [(i, j) for i, found in enumerate(walk) for j in sorted(found)]
    left = tuple(_decode(key, g.n) for key in left)
    right = tuple(_decode(key, g.n) for key in right)
    return SwitchGraph(left, right, tuple(edges), ell)


def aux_vertex_set(reference, base, n: int) -> frozenset[int]:
    """Vertex set of the companion digraph: everything outside the edges
    shared by the reference and the base matching."""
    excluded = vertices_of(edge_set(reference) & edge_set(base))
    return frozenset(range(n)) - excluded


def build_aux_digraph(g: Graph, reference, base) -> Digraph:
    """Companion digraph for alternating-path counting.

    One arc x -> z per entry of row x of the step table with the
    reference banned: first a free edge (outside both the reference and
    the base matching) to some y, then y's base-matching edge, outside the
    reference, to z.  The digraph keeps the original vertex labels;
    vertices outside its vertex set are simply isolated.  A caller that
    wants one class of a bipartite host restricts the vertex set itself.
    """
    pairs = edge_set(base)
    cover = vertices_of(pairs)
    inside = all(g.has_edge(u, v) for u, v in pairs)
    if 2 * len(pairs) != g.n or cover != frozenset(range(g.n)) or not inside:
        raise MatchlabError("base must be a perfect matching of the graph")
    ref = _edges_in(g, reference, "reference edge")
    ban = _edge_bits(g.n, ref)
    table = _step_table(_free_steps(g, ban), _edge_bits(g.n, pairs), ban)
    verts = aux_vertex_set(ref, pairs, g.n)
    arcs = [(x, z) for x in verts for z, _, _ in table[x] if z in verts]
    return Digraph(g.n, arcs)


def count_alternating_paths(
    g: Graph,
    base,
    u: int,
    v: int,
    length: int,
    forbidden=(),
) -> int:
    """Simple (u, v)-paths of even length alternating between free edges
    (outside `forbidden` and the base matching, which must lie in E(G)
    and use each vertex once) and base-matching edges outside
    `forbidden`, starting with a free edge."""
    if u == v:
        raise MatchlabError("endpoints must be distinct")
    if length % 2 != 0:
        raise MatchlabError("length must be even")
    if length < 0:
        raise MatchlabError("length must be non-negative")
    base_edges, banned = edge_set(base), edge_set(forbidden)
    for x in (u, v, *vertices_of(base_edges), *vertices_of(banned)):
        _check_vertex(x, g.n)
    covered = 0
    for x, y in sorted(_edges_in(g, base_edges, "base edge")):
        for z in (x, y):
            if covered >> z & 1:
                raise MatchlabError(f"base edges reuse vertex {z}")
            covered |= 1 << z
    key = _edge_bits(g.n, base_edges)
    pairs = length // 2
    if pairs == 0:
        return 0
    ban = _edge_bits(g.n, banned)
    table = _step_table(_free_steps(g, ban), key, ban)
    total = 0

    def last(x: int, seen: int, flip: int) -> None:
        nonlocal total
        for z, bits, _ in table[x]:
            if z == v and not seen & bits:
                total += 1

    _walk(table, u, 1 << u, pairs - 1, 0, last)
    return total


@dataclass(frozen=True)
class RatioReport:
    """Exact stratum ratio next to the switching prediction.

    `exact_ratio` is |stratum k| / |stratum k-1| from the exact strata;
    `predicted` is e / (k * d) for a d-regular host, where e counts the
    reference edges a switch at level k can remove: e(N) - (k - 1) when
    the reference N is a matching (each of the k - 1 edges already used
    blocks one), else e(N).
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
    left_stats: tuple[int, int, Fraction]
    right_stats: tuple[int, int, Fraction]
    edge_count: int
    double_count_ok: bool


def ratio_report(g: Graph, reference, k: int, ell: int) -> RatioReport:
    """Exact stratum ratio, prediction, and exchange-graph statistics,
    without holding the exchange graph.

    An automorphism of g that keeps the reference maps each stratum onto
    itself and the exchange graph onto itself, so the matchings of one
    orbit (`symmetry._orbits`) share their degree.  One representative
    per left orbit O is walked (`_neighbours`) and weighted by |O|; a
    right orbit Q's degree is (sum over left orbits O of |O| *
    |N(rep O) & Q|) / |Q|, and `double_count_ok` is False when such a
    quotient leaves a remainder."""
    if k < 1:
        raise MatchlabError("k must be positive")
    d = regularity(g)
    if d is None:
        raise MatchlabError("host graph must be regular")
    ref, ban, left, right = _strata(g, reference, k, ell)
    size_k, size_km1 = len(left), len(right)
    if size_km1 == 0 or size_k == 0:
        empty = k - 1 if size_km1 == 0 else k
        raise MatchlabError(f"stratum {empty} is empty")
    lreps, lsizes, _ = symmetry._orbits(g, ref, ban, left)
    _, rsizes, orbit_of = symmetry._orbits(g, ref, ban, right)
    index = dict(zip(right, orbit_of))
    free = _free_steps(g, ban)
    closers = [dict(row) for row in free]
    ldeg, hits = [], [0] * len(rsizes)
    for key, size in zip(lreps, lsizes):
        found = _neighbours(free, closers, key, ban, ell, index)
        ldeg.append(len(found))
        for j in found:
            hits[j] += size
    rdeg = [h // size for h, size in zip(hits, rsizes)]
    edge_count = sum(map(mul, ldeg, lsizes))
    right_total = sum(map(mul, rdeg, rsizes))
    eligible = len(ref) - (k - 1) if len(vertices_of(ref)) == 2 * len(ref) else len(ref)
    return RatioReport(
        k=k,
        ell=ell,
        size_k=size_k,
        size_km1=size_km1,
        exact_ratio=Fraction(size_k, size_km1),
        predicted=Fraction(eligible, k * d),
        left_stats=(min(ldeg), max(ldeg), Fraction(edge_count, size_k)),
        right_stats=(min(rdeg), max(rdeg), Fraction(right_total, size_km1)),
        edge_count=edge_count,
        double_count_ok=right_total == edge_count,
    )
