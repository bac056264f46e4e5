"""Vertex-indexed graphs, digraphs, matchings, and instance generators.

Vertices are dense integers 0..n-1 throughout.  Every structure is
immutable after construction, so results are safe to share and the
per-graph memo caches used by the counting engine never go stale.
Generators emit canonical labellings (parts of a multipartite graph are
contiguous id blocks) so fixtures are reproducible byte for byte.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from .errors import MatchlabError

Edge = tuple[int, int]

# Read at each call, so a value set on the module reaches every caller.
DEFAULT_RESTART_CAP = 10_000


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise MatchlabError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise MatchlabError(f"vertex {v} outside 0..{n - 1}")


class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    Two stored views.  `neighbor_masks[v]`, the neighbours of v as a
    bitmask, is what the subset sweeps, the matching DP and search and the
    sampler's and switching's step tables read bit by bit; `neighbors(v)`
    (in increasing order) and `degrees()` are derived from it.  `edges`,
    the sorted tuple of (u, v) with u < v, is what equality, hashing and
    `m` read (`pm._is_dense` reads `m` on every count), and so do
    `edge_set`, `remove_edge_set`, `to_bidirected` and the per-edge
    reports and frequencies.

    Four memos of `pm`, each with one owner: `_pm_cache`, the
    matching count per vertex mask, is the lowest-vertex DP's, read by
    the sampler and by counts on hosts that are not dense; `_draw_rows`,
    one record per mask (count, its bit length, cumulative row, steps),
    is the sampler's; `_poly_cache`, the complement's packed matching
    polynomial per mask, is the memo of counts on dense hosts, which
    never read `_pm_cache`; and `_pm_keys`, every perfect matching as an
    int key (bit u*n + v per edge, u < v) in enumeration order, is the
    listing's, None until `enumerate_pm`'s cap check first passes, then
    read by every listing on the graph.  Beside them, `_draw_steps`
    holds the sampler's shared child steps, one `(u*n + v, 1 << u | 1 <<
    v)` per edge, None until the first draw; and `_co_masks` holds the
    complement H as `(masks, pos)`, None until a dense count or stratify
    first needs it: pos[v] is v's place in H's min-frontier order and
    masks[pos[v]] v's neighbour mask in H, relabelled by pos, so
    `_poly_cache` is keyed in that order.  `_key_orbits` maps the int key
    of a second edge colour to the automorphism generators that keep it
    and a dict of ints, each listed matching's key -> the first key of
    its orbit (`symmetry._orbits`).  Key 0, the empty colour, is exact
    disjointness's, filled for the whole key list by
    `stats.disjoint_probability`; every other key is a reference's,
    filled one stratum at a time by `switching.ratio_report`.
    """

    __slots__ = (
        "n", "edges", "neighbor_masks",
        "_pm_cache", "_draw_rows", "_draw_steps", "_poly_cache", "_co_masks", "_pm_keys",
        "_key_orbits",
    )

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise MatchlabError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            norm.add(_norm_edge(u, v))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(norm))
        masks = [0] * n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.neighbor_masks: tuple[int, ...] = tuple(masks)
        self._pm_cache: dict[int, int] = {}
        self._draw_rows: dict = {}
        self._draw_steps: Optional[list] = None
        self._poly_cache: dict[int, int] = {}
        self._co_masks: Optional[tuple[list[int], list[int]]] = None
        self._pm_keys: Optional[list[int]] = None
        self._key_orbits: dict[int, tuple[list[list[int]], dict[int, int]]] = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self.neighbor_masks[v]
        return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)

    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.neighbor_masks)

    def has_edge(self, u: int, v: int) -> bool:
        """False for u == v and for any vertex outside 0..n-1."""
        if u == v:
            return False
        u, v = (u, v) if u < v else (v, u)
        return 0 <= u and v < self.n and bool(self.neighbor_masks[u] >> v & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed graph without self-loops.

    One stored view per direction: `out_adjacency[v]`, the sorted tuple of
    v's out-neighbours, which the walk propagation and path counts read,
    and `in_masks[v]`, v's in-neighbours as a bitmask, which the expansion
    sweep reads; the in-degree is read off the masks.  `_walk_rows`
    memoises `walks.count_walks`: one tuple of walk counts per (source,
    length) asked.
    """

    __slots__ = ("n", "arcs", "out_adjacency", "in_masks", "_walk_rows")

    def __init__(self, n: int, arcs: Iterable[Edge]):
        if n < 0:
            raise MatchlabError("vertex count must be non-negative")
        norm = set()
        for u, v in arcs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise MatchlabError(f"self-loop at vertex {u}")
            norm.add((u, v))
        self.n = n
        self.arcs: tuple[Edge, ...] = tuple(sorted(norm))
        out: list[list[int]] = [[] for _ in range(n)]
        imask = [0] * n
        for u, v in self.arcs:
            out[u].append(v)
            imask[v] |= 1 << u
        self.out_adjacency = tuple(tuple(a) for a in out)
        self.in_masks = tuple(imask)
        self._walk_rows: dict[tuple[int, int], tuple[int, ...]] = {}

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self.out_adjacency[v]

    def out_degree(self, v: int) -> int:
        return len(self.out_adjacency[v])

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={len(self.arcs)})"


class Matching:
    """A set of pairwise vertex-disjoint undirected edges, stored once as
    `pairs`: normalised (u < v) and sorted by both constructors, so
    equality, hashing and membership read it; `edge_set` is derived."""

    __slots__ = ("pairs",)

    def __init__(self, edges: Iterable[Edge]):
        norm = sorted({_norm_edge(u, v) for u, v in edges})
        seen: set[int] = set()
        for u, v in norm:
            if u in seen or v in seen:
                raise MatchlabError(f"vertex reused by edge ({u}, {v})")
            seen.add(u)
            seen.add(v)
        self.pairs: tuple[Edge, ...] = tuple(norm)

    @classmethod
    def _from_sorted(cls, pairs: Iterable[Edge]) -> "Matching":
        """A Matching from pairs that are already normalised (u < v),
        sorted and vertex-disjoint, taken without the constructor's checks."""
        m = cls.__new__(cls)
        m.pairs = tuple(pairs)
        return m

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.pairs)

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return (min(u, v), max(u, v)) in self.pairs

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs)})"


class Bipartition:
    """Two disjoint vertex classes covering 0..n-1."""

    __slots__ = ("side_a", "side_b")

    def __init__(self, side_a: Iterable[int], side_b: Iterable[int]):
        a = frozenset(side_a)
        b = frozenset(side_b)
        if a & b:
            raise MatchlabError("bipartition sides overlap")
        n = len(a) + len(b)
        if a | b != frozenset(range(n)):
            raise MatchlabError("bipartition sides must cover 0..n-1")
        self.side_a = a
        self.side_b = b

    @property
    def n(self) -> int:
        return len(self.side_a) + len(self.side_b)

    def __repr__(self) -> str:
        return f"Bipartition(a={sorted(self.side_a)}, b={sorted(self.side_b)})"


# -- edge-set normalization ------------------------------------------------

def edge_set(obj) -> frozenset[Edge]:
    """Edge set of a Matching, Graph, or raw iterable of vertex pairs."""
    if isinstance(obj, Matching):
        return obj.edge_set
    if isinstance(obj, Graph):
        return frozenset(obj.edges)
    return frozenset(_norm_edge(u, v) for u, v in obj)


def _edges_in(g: Graph, edges, what: str) -> frozenset[Edge]:
    """edge_set(edges), after refusing its first edge outside g as
    `{what} (u, v) not in graph`: the one check of every edge set handed
    in with a host (forced edges, a reference, a base matching)."""
    es = edge_set(edges)
    for u, v in es:
        if not g.has_edge(u, v):
            raise MatchlabError(f"{what} ({u}, {v}) not in graph")
    return es


def vertices_of(edges: Iterable[Edge]) -> frozenset[int]:
    return frozenset(v for e in edges for v in e)


# -- constructors and generators -------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_multipartite(a: int, b: int) -> Graph:
    """a parts of size b, parts are contiguous blocks; (a-1)b-regular."""
    if a < 1 or b < 1:
        raise MatchlabError("need at least one part of size at least one")
    n = a * b
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u // b != v // b:
                edges.append((u, v))
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise MatchlabError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish d-regular graph via the pairing model with rejection.

    Each attempt pairs up n*d stubs uniformly; attempts producing a loop
    or a parallel edge are discarded wholesale.  Deterministic given the
    seed; raises after DEFAULT_RESTART_CAP failed attempts.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise MatchlabError(f"no simple {d}-regular graph on {n} vertices")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(DEFAULT_RESTART_CAP):
        rng.shuffle(stubs)
        edges: set[Edge] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, edges)
    raise MatchlabError(
        f"no simple pairing found for (n={n}, d={d}) in {DEFAULT_RESTART_CAP} restarts"
    )


def regularity(g: Graph) -> Optional[int]:
    """Common degree when the graph is regular, else None."""
    if g.n == 0:
        return 0
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None


def remove_edge_set(g: Graph, removed) -> Graph:
    """Delete the given edges (all must be present); vertex set unchanged."""
    todel = edge_set(removed)
    have = frozenset(g.edges)
    missing = todel - have
    if missing:
        raise MatchlabError(f"edges not in graph: {sorted(missing)}")
    return Graph(g.n, have - todel)


# -- digraph constructors ---------------------------------------------------

def complete_digraph(n: int) -> Digraph:
    return Digraph(n, ((u, v) for u in range(n) for v in range(n) if u != v))


def to_bidirected(g: Graph) -> Digraph:
    """Each undirected edge becomes a pair of opposite arcs."""
    arcs = []
    for u, v in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(g.n, arcs)


# -- edge-list text format ---------------------------------------------------
# First line "n m", then m lines "u v", each edge once in either order.
# Lines starting with "#" are comments.  An optional line "A: i1 i2 ..."
# names one side of a bipartition; it may appear once, anywhere, with
# distinct vertices in 0..n-1.  The package reads this format and writes
# none.

def _line_ints(tokens: list[str], kind: str, raw: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise MatchlabError(f"bad {kind} line: {raw!r}") from None


def parse_edge_list(text: str) -> tuple[Graph, Optional[Bipartition]]:
    header: Optional[tuple[int, int]] = None
    edges: set[Edge] = set()
    side_a: Optional[list[int]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("A:"):
            if side_a is not None:
                raise MatchlabError(f"second 'A:' line: {raw!r}")
            side_a = _line_ints(line[2:].split(), "'A:'", raw)
            continue
        kind = "header" if header is None else "edge"
        parts = line.split()
        if len(parts) != 2:
            raise MatchlabError(f"bad {kind} line: {raw!r}")
        u, v = _line_ints(parts, kind, raw)
        if header is None:
            header = (u, v)
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            raise MatchlabError(f"edge {edge[0]} {edge[1]} repeated: {raw!r}")
        edges.add(edge)
    if header is None:
        raise MatchlabError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise MatchlabError(f"header declares {m} edges, file has {len(edges)}")
    g = Graph(n, edges)
    part = None
    if side_a is not None:
        a = set()
        for v in side_a:
            _check_vertex(v, n)
            if v in a:
                raise MatchlabError(f"vertex {v} repeated on the 'A:' line")
            a.add(v)
        part = Bipartition(a, set(range(n)) - a)
    return g, part


def read_edge_list(path) -> tuple[Graph, Optional[Bipartition]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatchlabError(str(exc)) from None
    return parse_edge_list(text)
