"""Shared brute-force oracles and fixture graphs.

The oracles here deliberately avoid the package's own algorithms: the
matching oracle enumerates all pairings of the vertex set and filters by
edge membership, and the switch-edge recheck decomposes symmetric
differences into components instead of walking a single cycle, so either
side can catch the other out.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, Optional

from matchlab.errors import MatchlabError, NoPerfectMatchingError, ResourceLimitError
from matchlab.expansion import ExpansionCertificate, ExpansionParams, Verdict
from matchlab.graphs import (
    Bipartition,
    Digraph,
    Edge,
    Graph,
    Matching,
    _check_vertex,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    random_regular,
    regularity,
    remove_edge_set,
    vertices_of,
)
from matchlab.pm import (
    DEFAULT_DP_LIMIT,
    DEFAULT_ENUM_CAP,
    StrataCounts,
    _count_on_mask,
    _dual_sum,
    _poly_on_mask,
    count_pm,
    enumerate_pm,
    first_pm,
    stratify,
)
from matchlab.switching import (
    RatioReport,
    SwitchGraph,
    aux_vertex_set,
)
from matchlab.rational import as_fraction
from matchlab.walks import (
    DEFAULT_MATRIX_CAP,
    DEFAULT_PATH_BUDGET,
    MixingReport,
    StochasticMatrix,
    _check_distribution,
    matrix_power,
    mixing_params,
    transition_matrix,
)


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
    return Graph(n, edges)


def directed_cycle(n: int) -> Digraph:
    """The arcs i -> i+1 mod n."""
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def write_edge_list(path, g: Graph, part: Optional[Bipartition] = None) -> None:
    """Write g in the edge-list format that `read_edge_list` parses, edges
    in sorted order, with an 'A:' line for the first side of `part`."""
    lines = [f"{g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges)]
    if part is not None:
        lines.append("A: " + " ".join(map(str, sorted(part.side_a))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edge_key(n: int, edges) -> int:
    """Int key of an edge set on n vertices, bit u*n + v per edge (u, v)
    in either order, built here so that no oracle reads the package's."""
    return sum(1 << (min(u, v) * n + max(u, v)) for u, v in edges)


def partner_of(m: Matching) -> dict[int, int]:
    """v -> its partner in m, for every vertex m covers."""
    partner = {}
    for u, v in m.pairs:
        partner[u] = v
        partner[v] = u
    return partner


def two_triangles() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


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
        Graph(4, [(0, 1), (2, 3)]),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        gnp(8, 0.5, 11),
        gnp(8, 0.7, 12),
        gnp(10, 0.5, 13),
        gnp(10, 0.3, 14),
        gnp(7, 0.6, 15),
    ]


def dense_regular(n: int, seed: int) -> Graph:
    """An (n-4)-regular host on n vertices: the complement of
    random_regular(n, 3, seed), relabelled by a seeded shuffle, the shape
    of the benchmark's dense sampling hosts."""
    sparse = set(random_regular(n, 3, seed=seed).edges)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(
        n, [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse]
    )


def strata_hosts() -> list[Graph]:
    """Hosts for the strata and avoidance differential tests."""
    hosts = small_zoo()
    hosts += [complete_graph(8), complete_graph(10), complete_multipartite(4, 2), cycle_graph(10)]
    hosts += [gnp(n, p, s) for n in (0, 5, 8, 12) for p in (0.3, 0.7) for s in range(2)]
    return hosts


def strata_references(g: Graph, rng: random.Random) -> list:
    """One reference of each shape that g allows: its first perfect
    matching, one edge, the whole graph, a random edge subset and none."""
    edges = list(g.edges)
    refs = [g, rng.sample(edges, rng.randint(0, len(edges))), []]
    if edges:
        refs.append([edges[0]])
    first = first_pm(g)
    if first is not None:
        refs.append(first)
    return refs


def disconnected_hosts() -> list[Graph]:
    """Hosts with more than one component, odd n and no vertices: odd
    components (K3+K5, two interleaved K5, K4+K3+K1, K5 beside an isolated
    vertex, K7, C9), even ones (K4+K4, C6+K2, and the star K_{1,3}+K2, which
    has no perfect matching all the same), plus the 0-vertex graph."""

    def union(*parts: Graph) -> Graph:
        edges, base = [], 0
        for h in parts:
            edges += [(u + base, v + base) for u, v in h.edges]
            base += h.n
        return Graph(base, edges)

    interleaved_k5 = Graph(
        10, [(u, v) for u in range(10) for v in range(u + 1, 10) if (u - v) % 2 == 0]
    )
    return [
        union(complete_graph(3), complete_graph(5)),
        interleaved_k5,
        union(complete_graph(4), complete_graph(3), Graph(1, [])),
        union(Graph(1, []), complete_graph(5)),
        complete_graph(7),
        cycle_graph(9),
        union(complete_graph(4), complete_graph(4)),
        union(cycle_graph(6), complete_graph(2)),
        union(Graph(4, [(0, 1), (0, 2), (0, 3)]), complete_graph(2)),
        Graph(0, []),
    ]


# -- reference matching DP -----------------------------------------------------

def reference_count_on_mask(g: Graph, mask: int) -> int:
    """Oracle for pm._count_on_mask: the lowest-vertex DP with no parity
    check, one call per child, filling g's memo with every mask it meets."""
    cache = g._pm_cache
    masks = g.neighbor_masks

    def rec(m: int) -> int:
        if m == 0:
            return 1
        got = cache.get(m)
        if got is not None:
            return got
        u = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        avail = masks[u] & rest
        total = 0
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            total += rec(rest ^ vbit)
        cache[m] = total
        return total

    return rec(mask)


# The dense count as one standalone function: the oracle for the counts
# pm._count takes on a dense host and, run on the host relabelled by its
# complement's min-frontier order, for the g._poly_cache they leave.
def reference_complement_count(g: Graph, mask: int) -> int:
    """Perfect matchings of g induced on `mask`, an even vertex set S, by
    Godsil's duality: pm(G[S]) = sum_k (-1)^k m_k(H[S]) (|S|-2k-1)!!, m_k
    the k-edge matchings of the complement H, walked in g's own labels.
    The packed polynomials of H, one w-bit digit per k with w the bit
    length of C(e, e//2) for e = e(H), bound every m_k, so no digit
    carries; they are memoised per mask in g._poly_cache, which every
    count on g shares."""
    e = g.n * (g.n - 1) // 2 - g.m
    w = math.comb(e, e // 2).bit_length()
    memo = g._poly_cache
    if not memo:
        memo[0] = 1
    full = (1 << g.n) - 1
    h_masks = [full ^ m ^ 1 << v for v, m in enumerate(g.neighbor_masks)]
    packed = _poly_on_mask(h_masks, [0] * g.n, w, 0, mask, memo)
    return _dual_sum(packed, w, mask.bit_count() // 2)


def reference_min_frontier_order(g: Graph) -> list[int]:
    """Oracle for the order pm._min_frontier_relabel gives g's complement
    H, from vertex sets: place next the unplaced vertex whose placing leaves the fewest
    unplaced vertices with a placed H-neighbour, ties to the lowest label."""
    h = [{u for u in range(g.n) if u != v and not g.has_edge(u, v)} for v in range(g.n)]
    order: list[int] = []

    def frontier_after(v: int) -> int:
        placed = set(order) | {v}
        return len(set().union(*(h[x] for x in placed)) - placed)

    while len(order) < g.n:
        unplaced = [v for v in range(g.n) if v not in order]
        order.append(min(unplaced, key=lambda v: (frontier_after(v), v)))
    return order


def reference_min_frontier_relabel(h: list[int]) -> tuple[list[int], list[int]]:
    """Oracle for pm._min_frontier_relabel, its earlier form: `(masks,
    pos)` for the graph with neighbour masks `h` relabelled by a greedy
    min-frontier order, built with an isolated-vertex pre-pass, an early
    exit from each scan and an incremental relabel.

    The frontier is the set of unplaced vertices with a placed neighbour.
    Each step places the unplaced vertex that leaves the smallest frontier,
    ties going to the lowest label.  Below the frontier at step i,
    _poly_on_mask meets at most 2^(frontier) masks, so a small frontier is
    a small memo.  While the frontier is empty only an isolated vertex
    keeps it so, so the isolated vertices come first, in label order.  A
    scan stops at a vertex no other can beat: one that leaves the frontier
    one smaller than it was, or, from an empty frontier, one that leaves a
    frontier of one.  Each placed vertex is joined to its placed
    neighbours both ways, so every edge is relabelled once, when its
    second end is placed.
    """
    n = len(h)
    pos = [0] * n
    masks = []
    left = (1 << n) - 1
    if 0 in h:
        for v, m in enumerate(h):
            if not m:
                pos[v] = len(masks)
                masks.append(0)
                left ^= 1 << v
    front = 0
    while left:
        floor = front.bit_count() - 1 if front else 1
        best = n
        cand = left
        while cand:
            b = cand & -cand
            cand ^= b
            c = ((front | h[b.bit_length() - 1]) & (left ^ b)).bit_count()
            if c < best:
                best, pick = c, b
                if c == floor:
                    break
        v = pick.bit_length() - 1
        hv = h[v]
        i = pos[v] = len(masks)
        left ^= pick
        front = (front | hv) & left
        out = 0
        placed = hv & ~left
        while placed:
            b = placed & -placed
            placed ^= b
            j = pos[b.bit_length() - 1]
            out |= 1 << j
            masks[j] |= 1 << i
        masks.append(out)
    return masks, pos


def relabel_graph(g: Graph, pos: list[int]) -> Graph:
    """g with each vertex v renamed pos[v]."""
    return Graph(g.n, [(pos[u], pos[v]) for u, v in g.edges])


def relabel_mask(mask: int, pos: list[int]) -> int:
    """The vertex set `mask` with each vertex v renamed pos[v]."""
    return sum(1 << pos[v] for v in range(len(pos)) if mask >> v & 1)


# -- reference matching search ------------------------------------------------

def reference_enumerate_pm(
    g: Graph, cap: int = DEFAULT_ENUM_CAP, limit: int = DEFAULT_DP_LIMIT
) -> Iterator[Matching]:
    """Oracle for pm.enumerate_pm: its own lowest-vertex recursion, with no
    dead-mask pruning."""
    if g.n > limit:
        raise ResourceLimitError(f"n={g.n} above the counting cap {limit}")
    total = count_pm(g)
    if total > cap:
        raise ResourceLimitError(f"{total} perfect matchings exceed the cap {cap}")

    n = g.n
    masks = g.neighbor_masks
    chosen: list[Edge] = []

    def rec(mask: int) -> Iterator[Matching]:
        if mask == 0:
            yield Matching(chosen)
            return
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        avail = masks[u] & rest
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            v = vbit.bit_length() - 1
            chosen.append((u, v))
            yield from rec(rest ^ vbit)
            chosen.pop()

    yield from rec((1 << n) - 1)


def reference_first_pm(g: Graph) -> Optional[Matching]:
    """Oracle for pm.first_pm: a recursion of its own that stops at the
    first leaf and remembers the masks with no perfect matching."""
    masks = g.neighbor_masks
    chosen: list[Edge] = []
    dead: set[int] = set()

    def rec(mask: int) -> bool:
        if mask == 0:
            return True
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        avail = masks[u] & rest
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            if child in dead:
                continue
            chosen.append((u, vbit.bit_length() - 1))
            if rec(child):
                return True
            chosen.pop()
        dead.add(mask)
        return False

    if rec((1 << g.n) - 1):
        return Matching(chosen)
    return None


# -- reference sampler ---------------------------------------------------------

def reference_sample_pm(g: Graph, rng: random.Random, limit: int = DEFAULT_DP_LIMIT) -> Matching:
    """Oracle for pm.sample_pm: every count, the current mask's and each
    scanned child's, goes through reference_count_on_mask instead of a
    direct memo read.  It makes the same rng calls, so it gives the same
    draws."""
    if g.n > limit:
        raise ResourceLimitError(f"n={g.n} above the counting cap {limit}")
    mask = (1 << g.n) - 1
    total = reference_count_on_mask(g, mask)
    if total == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    masks = g.neighbor_masks
    pairs = []
    while mask:
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        here = reference_count_on_mask(g, mask)
        r = rng.randrange(here)
        acc = 0
        avail = masks[u] & rest
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            sub = reference_count_on_mask(g, rest ^ vbit)
            acc += sub
            if r < acc:
                pairs.append((u, vbit.bit_length() - 1))
                mask = rest ^ vbit
                break
    return Matching(pairs)


def scan_sample_pm(g: Graph, rng: random.Random, limit: int = DEFAULT_DP_LIMIT) -> Matching:
    """Oracle for pm.sample_pm: the sampler before its per-mask rows, which
    scans the lowest vertex's children in a Python loop, subtracting each
    child's memo count from r until r goes negative.  It reads the memo
    directly, as pm.sample_pm does, and makes the same rng calls."""
    if g.n > limit:
        raise ResourceLimitError(f"n={g.n} above the counting cap {limit}")
    mask = (1 << g.n) - 1
    if _count_on_mask(g, mask) == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    cache = g._pm_cache
    masks = g.neighbor_masks
    pairs: list[Edge] = []
    while mask:
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        r = rng.randrange(cache[mask])
        avail = masks[u] & rest
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            r -= cache[child] if child else 1
            if r < 0:
                pairs.append((u, vbit.bit_length() - 1))
                mask = child
                break
    return Matching._from_sorted(pairs)


# -- reference strata -------------------------------------------------------

def reference_stratify(g: Graph, reference, limit: int = DEFAULT_DP_LIMIT) -> StrataCounts:
    """Oracle for pm.stratify: the same bitmask DP with a tuple of
    kmax+1 counts per mask, summed by per-k inner loops."""
    if g.n > limit:
        raise ResourceLimitError(f"n={g.n} above the counting cap {limit}")
    ref = edge_set(reference)
    for u, v in ref:
        if not g.has_edge(u, v):
            raise MatchlabError(f"reference edge ({u}, {v}) not in graph")

    kmax = min(g.n // 2, len(ref))
    width = kmax + 1
    masks = g.neighbor_masks
    ref_masks = [0] * g.n
    for u, v in ref:
        ref_masks[u] |= 1 << v
        ref_masks[v] |= 1 << u
    memo: dict[int, tuple[int, ...]] = {}
    zero = (0,) * width
    base = (1,) + (0,) * kmax

    def rec(mask: int) -> tuple[int, ...]:
        if mask == 0:
            return base
        got = memo.get(mask)
        if got is not None:
            return got
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        avail = masks[u] & rest
        acc = list(zero)
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rec(rest ^ vbit)
            if ref_masks[u] & vbit:
                for k in range(width - 1):
                    acc[k + 1] += child[k]
            else:
                for k in range(width):
                    acc[k] += child[k]
        out = tuple(acc)
        memo[mask] = out
        return out

    by_k = rec((1 << g.n) - 1)
    return StrataCounts({k: c for k, c in enumerate(by_k)})


def reference_avoidance_ratio(g: Graph, reference) -> tuple[Fraction, float]:
    """Oracle for stats.avoidance_ratio: stratum 0 counted a second way,
    as the perfect matchings of g with the reference edges deleted."""
    d = regularity(g)
    if d is None:
        raise MatchlabError("graph must be regular")
    total = count_pm(g)
    if total == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    ref = edge_set(reference)
    stripped = remove_edge_set(g, ref)
    exact = Fraction(count_pm(stripped), total)
    lam = len(ref) / d if d else 0.0
    return exact, math.exp(-lam)


def reference_disjoint_probability(g: Graph, r: int) -> Fraction:
    """Oracle for exact stats.disjoint_probability: the nested enumeration
    it replaced, one validated Graph per listed prefix (each next level
    the host minus the union so far) and a fresh count_pm on the last."""

    def ordered_tuples(host: Graph, depth: int) -> int:
        if depth == 1:
            return count_pm(host)
        return sum(ordered_tuples(remove_edge_set(host, m), depth - 1) for m in enumerate_pm(host))

    return Fraction(ordered_tuples(g, r), count_pm(g) ** r)


# -- reference matrix power ----------------------------------------------------

Rows = tuple[tuple[Fraction, ...], ...]


def stochastic(rows) -> StochasticMatrix:
    """The StochasticMatrix with these rows of rationals, written over the
    lcm of their denominators."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return StochasticMatrix(tuple(tuple(int(x * den) for x in row) for row in rows), den)


def _matmul(a: Rows, b: Rows) -> Rows:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def reference_matrix_power(p: StochasticMatrix, k: int, cap: int = DEFAULT_MATRIX_CAP) -> Rows:
    """Oracle for walks.matrix_power: the rows of P^k, squared out with a
    Fraction product on plain tuples of rows."""
    if k < 0:
        raise MatchlabError("exponent must be non-negative")
    if p.n > cap:
        raise ResourceLimitError(f"dimension {p.n} above the exact-power cap {cap}")
    result = tuple(tuple(Fraction(int(i == j)) for j in range(p.n)) for i in range(p.n))
    base = p.rows
    e = k
    while e:
        if e & 1:
            result = _matmul(result, base)
        e >>= 1
        if e:
            base = _matmul(base, base)
    return result


# -- reference walk counts ----------------------------------------------------

def reference_count_walks(d: Digraph, u: int, v: int, length: int) -> int:
    """Oracle for walks.count_walks: the walk vector from u propagated
    afresh on every call, with no memo."""
    if length < 0:
        raise MatchlabError("length must be non-negative")
    _check_vertex(u, d.n)
    _check_vertex(v, d.n)
    vec = [0] * d.n
    vec[u] = 1
    for _ in range(length):
        nxt = [0] * d.n
        for x in range(d.n):
            c = vec[x]
            if c:
                for y in d.out_neighbors(x):
                    nxt[y] += c
        vec = nxt
    return vec[v]


# -- reference sandwich check ------------------------------------------------

def reference_sandwich_check(d: Digraph, k: int, nu, delta) -> bool:
    """Oracle for walks.sandwich_check: the Fraction bound on n*P^k as it
    stood before the check read the integer walk rows."""
    nu = as_fraction(nu)
    delta = as_fraction(delta)
    n = d.n
    degs = {d.out_degree(v) for v in range(n)} | {d.in_degree(v) for v in range(n)}
    if len(degs) != 1:
        raise MatchlabError("digraph is not regular")
    deg = degs.pop()
    if delta * n != deg:
        raise MatchlabError(f"degree {deg} does not equal delta*n = {delta * n}")
    p = transition_matrix(d)
    pk = matrix_power(p, k).rows
    lower = nu ** (k - 1) * delta ** (-k)
    upper = 1 / delta
    for i in range(n):
        for j in range(n):
            scaled = n * pk[i][j]
            if not lower <= scaled <= upper:
                return False
    return True


# -- reference mixing check ---------------------------------------------------

def reference_mixing_bound_check(p: StochasticMatrix, sigma, t: int) -> MixingReport:
    """Oracle for walks.mixing_bound_check: every entry of P^t compared
    with its sigma_i in rationals, as the check stood before it read
    only each column's extremes, with P^t from the Fraction oracle, since
    matrix_power and the check share one integer power."""
    params = mixing_params(p, sigma)
    sig = _check_distribution(sigma)
    pt = reference_matrix_power(p, t)
    factor = (1 - params.alpha / 2) ** t
    ok = True
    for j in range(p.n):
        for i in range(p.n):
            dev = abs(pt[j][i] - sig[i])
            if dev > factor * sig[i]:
                ok = False
    return MixingReport(passes=ok)


# -- reference expansion sweep ------------------------------------------------
# The generator-and-closure sweep and the sampled refuter as they stood
# before the sweep became one recursion over vertex masks, kept as oracles.

def _window(n: int, tau: Fraction) -> tuple[int, int]:
    lo = math.ceil(tau * n)
    hi = math.floor((1 - tau) * n)
    return lo, hi


def _lex_subsets(universe: list[int], lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All subsets with lo <= size <= hi in lexicographic tuple order,
    each with its vertex bitmask."""
    n = len(universe)
    chosen: list[int] = []

    def rec(start: int, mask: int) -> Iterator[tuple[tuple[int, ...], int]]:
        for i in range(start, n):
            v = universe[i]
            chosen.append(v)
            vmask = mask | 1 << v
            if lo <= len(chosen) <= hi:
                yield tuple(chosen), vmask
            if len(chosen) < hi:
                yield from rec(i + 1, vmask)
            chosen.pop()

    yield from rec(0, 0)


def _violation_test(masks, scale_n: int, nu: Fraction):
    """Closure testing one subset; thresholds precomputed for the sweep."""
    threshold = nu * scale_n
    need = max(0, math.ceil(threshold))

    def violates(smask: int, size: int) -> bool:
        return reference_robust_count(masks, smask, need) < size + threshold

    return violates


def reference_robust_count(masks, smask: int, need: int) -> int:
    """|RN(S)| for S = `smask`, one vertex at a time: the vertices with at
    least `need` (in-)neighbours in S."""
    rn = 0
    for mask in masks:
        if (mask & smask).bit_count() >= need:
            rn += 1
    return rn


def reference_sweep(masks, universe: list[int], scale: int, params: ExpansionParams) -> ExpansionCertificate:
    """Check every subset of `universe` in the size window at `scale`;
    Fail with the lexicographically first violating set, else Pass."""
    violates = _violation_test(masks, scale, params.nu)
    lo, hi = _window(scale, params.tau)
    checked = 0
    for subset, smask in _lex_subsets(universe, lo, hi):
        checked += 1
        if violates(smask, len(subset)):
            return ExpansionCertificate(Verdict.FAIL, params.nu, params.tau, subset, checked)
    return ExpansionCertificate(Verdict.PASS, params.nu, params.tau, None, checked)


def _in_masks(obj) -> tuple[int, ...]:
    if isinstance(obj, Digraph):
        return obj.in_masks
    return obj.neighbor_masks


def reference_certify_exact(obj, params: ExpansionParams) -> ExpansionCertificate:
    return reference_sweep(_in_masks(obj), list(range(obj.n)), obj.n, params)


def reference_refute_sampled(obj, params: ExpansionParams, trials: int, seed: int = 0) -> ExpansionCertificate:
    """Random search for a violating set; never certifies a pass."""
    n = obj.n
    lo, hi = _window(n, params.tau)
    if lo > hi or trials <= 0:
        return ExpansionCertificate(Verdict.INCONCLUSIVE, params.nu, params.tau, None, 0)
    violates = _violation_test(_in_masks(obj), n, params.nu)
    rng = random.Random(seed)
    for t in range(trials):
        size = rng.randint(lo, hi)
        subset = tuple(sorted(rng.sample(range(n), size)))
        smask = 0
        for v in subset:
            smask |= 1 << v
        if violates(smask, size):
            return ExpansionCertificate(Verdict.FAIL, params.nu, params.tau, subset, t + 1)
    return ExpansionCertificate(Verdict.INCONCLUSIVE, params.nu, params.tau, None, trials)


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
        raise MatchlabError("k must be positive")
    if ell < 2 or 2 * ell > g.n:
        raise MatchlabError("need 2 <= ell and 2*ell <= n")
    ref = edge_set(reference)
    left: list[Matching] = []
    right: list[Matching] = []
    for m in reference_enumerate_pm(g, cap=cap):
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


def _degree_stats(degs: list[int]) -> tuple[int, int, Fraction]:
    """(min, max, mean) of a non-empty degree list."""
    return (min(degs), max(degs), Fraction(sum(degs), len(degs)))


def reference_ratio_report(g: Graph, reference, k: int, ell: int) -> RatioReport:
    """Oracle for switching.ratio_report: the strata from pm.stratify and
    the degrees read off the whole exchange graph that
    reference_build_switch_graph materialises."""
    if k < 1:
        raise MatchlabError("k must be positive")
    d = regularity(g)
    if d is None:
        raise MatchlabError("host graph must be regular")
    ref = edge_set(reference)
    for u, v in ref:
        if not g.has_edge(u, v):
            raise MatchlabError(f"reference edge ({u}, {v}) not in graph")
    strata = stratify(g, ref)
    size_k = strata.counts.get(k, 0)
    size_km1 = strata.counts.get(k - 1, 0)
    if size_km1 == 0 or size_k == 0:
        empty = k - 1 if size_km1 == 0 else k
        raise MatchlabError(f"stratum {empty} is empty")
    h = reference_build_switch_graph(g, reference, k, ell)
    # a matching reference loses one eligible edge per edge already used
    touched = [v for e in ref for v in e]
    eligible = len(ref) - (k - 1) if len(set(touched)) == len(touched) else len(ref)
    ldeg = h.left_degrees()
    rdeg = h.right_degrees()
    double_ok = sum(ldeg) == h.edge_count == sum(rdeg)
    return RatioReport(
        k=k,
        ell=ell,
        size_k=size_k,
        size_km1=size_km1,
        exact_ratio=Fraction(size_k, size_km1),
        predicted=Fraction(eligible, k * d),
        left_stats=_degree_stats(ldeg),
        right_stats=_degree_stats(rdeg),
        edge_count=h.edge_count,
        double_count_ok=double_ok,
    )


def reference_build_aux_digraph(g: Graph, reference, base: Matching) -> Digraph:
    """Oracle for switching.build_aux_digraph: its own free-edge and
    base-edge step, with the vertices of shared edges marked ineligible."""
    cover = vertices_of(base.edge_set)
    if cover != frozenset(range(g.n)) or any(not g.has_edge(u, v) for u, v in base):
        raise MatchlabError("base must be a perfect matching of the graph")
    ref = edge_set(reference)
    shared_vertices = vertices_of(ref & base.edge_set)
    eligible = [v not in shared_vertices for v in range(g.n)]
    verts = aux_vertex_set(reference, base, g.n)
    partner = partner_of(base)
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


def reference_alternating_paths(g: Graph, base: Matching, u: int, length: int, ban: int):
    """Every simple path of `length` edges (even) from u that alternates a
    free edge with a base-matching edge, both outside the int key `ban`,
    starting with a free edge: the list-walking walker, yielding (last
    vertex, edge-bit XOR) depth first, each row in `g.neighbors` order.
    The oracle for count_alternating_paths (the paths ending at v) and,
    inside reference_switches, for the walks of build_switch_graph."""
    n = g.n
    partner = partner_of(base)
    path: list[int] = [u]

    def rec(x: int, pairs: int, flip: int):
        if pairs == 0:
            yield path[-1], flip
            return
        for y in g.neighbors(x):
            z = partner.get(y)
            if z is None or y in path or z in path:
                continue
            e = 1 << (x * n + y if x < y else y * n + x)
            f = 1 << (y * n + z if y < z else z * n + y)
            if ban & (e | f):
                continue
            path.extend((y, z))
            yield from rec(z, pairs - 1, flip ^ e ^ f)
            del path[-2:]

    return rec(u, length // 2, 0)


def reference_switches(g: Graph, ref: frozenset[Edge], k: int, ell: int):
    """Oracle for switching.build_switch_graph: the generator-walker pass
    it replaced, verbatim but for the walker, reference_alternating_paths,
    the list walker, and for taking each left matching's reference edges
    in sorted order.  Yields the strata (left, right) as Matching lists,
    then each left matching's neighbour list, indices into right, in walk
    order."""
    if k < 1:
        raise MatchlabError("k must be positive")
    if ell < 2 or 2 * ell > g.n:
        raise MatchlabError("need 2 <= ell and 2*ell <= n")
    strata: dict[int, list[Matching]] = {k: [], k - 1: []}
    for m in enumerate_pm(g):
        inter = len(m.edge_set & ref)
        if inter in strata:
            strata[inter].append(m)
    left, right = strata[k], strata[k - 1]
    yield left, right
    n = g.n
    masks = g.neighbor_masks
    ban = edge_key(n, ref)
    right_index = {edge_key(n, m): j for j, m in enumerate(right)}
    for m in left:
        found = []
        key = edge_key(n, m)
        for a, b in sorted(m.edge_set & ref):
            opened = key ^ 1 << (a * n + b)
            for z, flip in reference_alternating_paths(g, m, b, 2 * ell - 2, ban):
                close = 1 << (a * n + z if a < z else z * n + a)
                if masks[a] >> z & 1 and not ban & close:
                    found.append(right_index[opened ^ close ^ flip])
        yield found


def reference_count_paths(
    d: Digraph,
    u: int,
    v: int,
    length: int,
    matching_constraint: Optional[Matching] = None,
    budget: int = DEFAULT_PATH_BUDGET,
) -> int:
    """Oracle for walks.count_paths: the visited-set search it replaced,
    spending one budget step per extension attempt at the same points."""
    if u == v:
        raise MatchlabError("endpoints must be distinct")
    if length < 0:
        raise MatchlabError("length must be non-negative")
    _check_vertex(u, d.n)
    _check_vertex(v, d.n)
    if length == 0:
        return 0
    partner = partner_of(matching_constraint) if matching_constraint else {}
    visited = {u}
    steps = 0

    def blocked(x: int) -> bool:
        mate = partner.get(x)
        return mate is not None and mate in visited

    def rec(x: int, remaining: int) -> int:
        nonlocal steps
        if remaining == 0:
            return 1 if x == v else 0
        total = 0
        for y in d.out_neighbors(x):
            steps += 1
            if steps > budget:
                raise ResourceLimitError(f"path enumeration exceeded {budget} steps")
            if y in visited or blocked(y):
                continue
            visited.add(y)
            total += rec(y, remaining - 1)
            visited.discard(y)
        return total

    return rec(u, length)


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
