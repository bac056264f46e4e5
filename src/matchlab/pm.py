"""Exact enumeration, counting, stratification, and uniform sampling of
perfect matchings.

Everything here is the brute-force ground truth the rest of the package
is checked against.  The counting core is a dynamic program over the
bitmask of still-unmatched vertices: the lowest unmatched vertex is
matched against each unmatched neighbour, giving O(2^n * n) time at the
configured size cap.  Counts are Python ints, so arbitrary precision
comes for free, and each Graph carries its own memo table,
Graph._pm_cache, keyed by the surviving-vertex bitmask.  Only the DP
(_count_on_mask) reads and writes it: for the sampler, which relies on
its one invariant (a mask is cached only after all its children are),
and for counting and containment queries on hosts that are not dense
(below).
Listing runs one search, _search, in the same lowest-vertex order,
behind both enumerate_pm and first_pm; it remembers the masks whose
subtree held no perfect matching and never expands them again.  It
carries each matching down its recursion as an int key, bit u*n + v per
edge (u < v), and yields the key.  The full list is the listing's
per-graph memo, Graph._pm_keys, filled once after enumerate_pm's cap
check (_pm_keys) and read by every later listing on g, switching's
strata and exact disjointness among them; first_pm walks the search
lazily and never fills it.  Keys become Matching objects only at the
public boundary (_decode).  stratify runs the counting DP with one int
per mask that packs every stratum as a w-bit digit; w, the bit length
of (n-1)!!, bounds every count the DP meets, so no digit carries into
the next.

Dense hosts count through their complement H instead.  When
2*e(H) <= e(G), count_pm, count_pm_containing and stratify use Godsil's
duality (Combinatorica 1981): pm(G[S]) = sum_k (-1)^k m_k(H[S])
(|S|-2k-1)!!, m_k the k-edge matchings of H[S].  One kernel,
_poly_on_mask, computes those m_k by the matching-polynomial DP (the
lowest vertex may also stay uncovered), each m_k a w-bit digit with w the
bit length of C(e, e//2) for the e edges it may use, so no digit
carries.  On K_n it walks n + 1 masks where the DP walks F(n+1).  One
helper, _complement_strata, takes the duality for counts and strata
alike.  Its work depends on H's vertex order, so H is walked in a greedy
min-frontier order (_min_frontier_relabel), not in g's labels: counts
and strata read H's masks relabelled by that order, built once per graph
together with the map pos from g's labels (Graph._co_masks), and
_complement_strata maps its entry mask and the reference through pos.
Counts and strata do not depend on labels, so only the memo keys
change.  Dense counts memoise their polynomials per mask, keyed in the
new labels, in Graph._poly_cache and never touch the DP memo; stratify
takes a fresh memo per call.  Exact disjointness counts G - A, for A
the edges of a listed prefix, on g's masks (_count_avoiding): as stratum
0 of _complement_strata with reference A when G - A is dense, by the DP
on the masks with A's bits cleared otherwise, each with a fresh memo.

The sampler keeps a second per-graph memo, Graph._draw_rows: one record
per mask it has visited, `(count, k, row, steps_u)`.  count is the mask's
memo count and k its bit length.  row holds the cumulative counts of the
mask's children in scan order, each packed with its partner as
`cum << s | v` for s = n.bit_length(), children with no perfect matching
dropped: an array('q'), 8 bytes an entry, while its counts fit in 63 bits
(every graph under the default cap) and a list past that.  steps_u is
the lowest vertex u's entry in the graph's shared step table,
Graph._draw_steps, built on the first draw: `(u*n + v, 1 << u | 1 << v)`
for each neighbour v > u, the id of the edge a step appends and the bits
it clears.  A step is getrandbits(k), repeated while the result is at
least count, and one bisect of the row.  Those are the calls
randrange(count) makes, so it draws the child a scan over the children
would, from the same rng stream.  Every draw runs in one generator,
_draws, which makes the cap and count checks once and yields each draw
as the list of its edge ids u*n + v, in increasing order, built only
when asked for.  sample_pm decodes its one draw into a Matching; the
Monte Carlo reports in stats read the ids of a stream of draws and build
no Matching.

A graph with a connected component of odd size has no perfect matching.
After its input and cap checks, each entry point takes its fast paths in
one order: that parity check on the entry mask, O(n) mask operations,
then the complement's polynomial, the DP or the search; the DP reads its
memo before the check, so a count already made is answered first.  The
check never runs inside the recursion, whose children are read from the
memo inline.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import MatchlabError, NoPerfectMatchingError, ResourceLimitError
from .graphs import Edge, Graph, Matching, _edges_in

# Read at each call, so a value set on the module reaches every caller.
DEFAULT_DP_LIMIT = 26
DEFAULT_ENUM_CAP = 1_000_000


def _check_cap(g: Graph) -> None:
    """Refuse a graph on more than DEFAULT_DP_LIMIT vertices: the counting
    cap of every count, stratification and draw."""
    if g.n > DEFAULT_DP_LIMIT:
        raise ResourceLimitError(f"n={g.n} above the counting cap {DEFAULT_DP_LIMIT}")


def _has_odd_component(masks, mask: int) -> bool:
    """True when the subgraph induced on `mask` has a connected component
    of odd size, and so no perfect matching: a flood fill over the
    neighbour masks, O(|mask|) mask operations, which stops as soon as a
    component covers the mask (on a dense host, usually after a vertex or
    two)."""
    while mask:
        comp = frontier = mask & -mask
        while frontier and comp != mask:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = masks[v] & mask & ~comp
            comp |= new
            frontier |= new
        if comp.bit_count() & 1:
            return True
        mask ^= comp
    return False


def _count_on_mask(g: Graph, mask: int) -> int:
    """Perfect matchings of the subgraph induced on the bitmask `mask`.

    The memo is read first; a mask not in it that has an odd component is
    cached as 0 with no DP.  Otherwise _dp_count runs on g._pm_cache.
    """
    cache = g._pm_cache
    got = cache.get(mask)
    if got is not None:
        return got
    if _has_odd_component(g.neighbor_masks, mask):
        cache[mask] = 0
        return 0
    return _dp_count(g.neighbor_masks, mask, cache)


def _dp_count(masks, mask: int, cache: dict) -> int:
    """The lowest-vertex DP: perfect matchings of the graph with neighbour
    masks `masks`, induced on `mask`, memoised per mask in `cache`.  The
    recursion reads each child's memo entry inline and calls itself only
    on a miss, and caches a mask only after all its children."""
    lookup = cache.get

    def rec(m: int) -> int:
        if m == 0:
            return 1
        u = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        avail = masks[u] & rest
        total = 0
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            c = lookup(child)
            if c is None:
                c = rec(child)
            total += c
        cache[m] = total
        return total

    return rec(mask)


def _is_dense(g: Graph, removed: int = 0) -> bool:
    """True when the complement H of g has at most half as many edges as
    g, 2*e(H) <= e(G): then counting goes through H's matching polynomial
    instead of the lowest-vertex DP on g.  With `removed`, the same rule
    for g less that many of its edges."""
    m = g.m - removed
    return 2 * (g.n * (g.n - 1) // 2 - m) <= m


def _poly_on_mask(masks, hits, lo: int, hi: int, mask: int, memo: dict) -> int:
    """Matching polynomial of the graph with neighbour masks `masks`,
    induced on `mask`, packed into one int: the matchings using a edges
    outside `hits` and b edges inside it add 1 << (a*lo + b*hi).

    The lowest vertex u of a mask either stays uncovered or is matched to
    a neighbour, one child each, so every matching, perfect or not, is
    reached once.  `memo` maps masks to their packed values and must hold
    {0: 1}; the recursion reads each child's entry inline.
    """
    lookup = memo.get

    def rec(m: int) -> int:
        u = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        total = lookup(rest)
        if total is None:
            total = rec(rest)
        avail = masks[u] & rest
        ref = hits[u]
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            c = lookup(child)
            if c is None:
                c = rec(child)
            total += c << (hi if ref & vbit else lo)
        memo[m] = total
        return total

    got = lookup(mask)
    return rec(mask) if got is None else got


def _min_frontier_relabel(h: list[int]) -> tuple[list[int], list[int]]:
    """The graph with neighbour masks `h`, relabelled by a greedy
    min-frontier order: `(masks, pos)`, pos[v] the place of v in the order
    and masks[pos[v]] v's neighbour mask in the new labels.

    The frontier is the set of unplaced vertices with a placed neighbour.
    Each step scans every unplaced vertex and places the one that leaves
    the smallest frontier, ties going to the lowest label.  Below the
    frontier at step i, _poly_on_mask meets at most 2^(frontier) masks, so
    a small frontier is a small memo.
    """
    n = len(h)
    pos = [0] * n
    left = (1 << n) - 1
    front = 0
    for i in range(n):
        best = n
        cand = left
        while cand:
            b = cand & -cand
            cand ^= b
            c = ((front | h[b.bit_length() - 1]) & (left ^ b)).bit_count()
            if c < best:
                best, v = c, b.bit_length() - 1
        pos[v] = i
        left ^= 1 << v
        front = (front | h[v]) & left
    masks = [0] * n
    for v, m in enumerate(h):
        masks[pos[v]] = _relabel(m, pos)
    return masks, pos


def _relabel(mask: int, pos: list[int]) -> int:
    """`mask` with each vertex v moved to pos[v]."""
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= 1 << pos[b.bit_length() - 1]
    return out


def _complement_masks(g: Graph) -> tuple[list[int], list[int]]:
    """`(masks, pos)` for the complement H of g, built on first use and
    kept in g._co_masks: H relabelled by its min-frontier order
    (_min_frontier_relabel), pos[v] v's place in that order.  The kernel
    walks H in that order, so its work does not depend on g's labels."""
    got = g._co_masks
    if got is None:
        full = (1 << g.n) - 1
        h = [full ^ m ^ 1 << v for v, m in enumerate(g.neighbor_masks)]
        got = g._co_masks = _min_frontier_relabel(h)
    return got


def _dual_sum(packed: int, w: int, half: int) -> int:
    """sum_k (-1)^k m_k (2*(half-k)-1)!! for the w-bit digits m_k of
    `packed`: the perfect matchings of a 2*half-vertex graph whose
    complement has m_k k-edge matchings."""
    low = (1 << w) - 1
    total = 0
    f = 1  # (2j-1)!!, the perfect matchings of K_2j, for j = half - k
    for j in range(half + 1):
        k = half - j
        c = (packed >> (k * w) & low) * f
        total += -c if k & 1 else c
        f *= 2 * j + 1
    return total


def _count(g: Graph, mask: int) -> int:
    """The count on `mask` for count_pm and count_pm_containing: on a dense
    host the parity check, then the complement's polynomial, memoised per
    mask in g._poly_cache and shared by every count on g; on any other
    host _count_on_mask, the DP and its memo."""
    if not _is_dense(g):
        return _count_on_mask(g, mask)
    if _has_odd_component(g.neighbor_masks, mask):
        return 0
    g._poly_cache.setdefault(0, 1)
    return _complement_strata(g, [0] * g.n, 0, 0, mask, g._poly_cache)[0]


def count_pm(g: Graph) -> int:
    """Exact number of perfect matchings; 0 whenever some connected
    component has an odd number of vertices (odd n included), found
    without counting.

    A host whose complement H has at most half its edges (2*e(H) <=
    e(G)) is counted through H's matching polynomial (_complement_strata
    with no reference), which walks H's few edges instead of g's many,
    memoised in g._poly_cache; any other host runs the lowest-vertex DP
    on g._pm_cache, the sampler's memo.
    """
    _check_cap(g)
    return _count(g, (1 << g.n) - 1)


def _search(masks) -> Iterator[int]:
    """Every perfect matching of the graph with neighbour masks `masks`, as
    an int key (bit u*n + v per edge, u < v), in lexicographic order of the
    sorted edge list: the lowest unmatched vertex is matched first, its
    partner chosen in increasing order.

    A graph with an odd component yields nothing and is not searched.
    Otherwise a mask whose subtree yielded no matching (the leaf count did
    not move while its children were searched) is remembered and skipped
    for the rest of the search, so a mask without a perfect matching is
    expanded at most once.  The search is lazy: stopping after the first
    matching costs no more than reaching it.
    """
    n = len(masks)
    full = (1 << n) - 1
    if _has_odd_component(masks, full):
        return
    dead: set[int] = set()
    leaves = 0

    def rec(mask: int, key: int) -> Iterator[int]:
        nonlocal leaves
        if mask == 0:
            leaves += 1
            yield key
            return
        before = leaves
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        avail = masks[u] & rest
        row = u * n
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            if child not in dead:
                yield from rec(child, key | 1 << (row + vbit.bit_length() - 1))
        if leaves == before:
            dead.add(mask)

    yield from rec(full, 0)


def _key_pairs(key: int, n: int) -> list[Edge]:
    """The edges of the int key `key` of an n-vertex graph, in increasing
    bit order: for a matching, the sorted edge list."""
    pairs = []
    while key:
        b = key & -key
        key ^= b
        pairs.append(divmod(b.bit_length() - 1, n))
    return pairs


def _decode(key: int, n: int) -> Matching:
    """The Matching of a key that _search yielded."""
    return Matching._from_sorted(_key_pairs(key, n))


def _pm_keys(g: Graph) -> list[int]:
    """Every perfect matching of g as a key of _search, in its order,
    after checking the count against DEFAULT_ENUM_CAP.  The list is made
    on the first call that passes the check and kept in g._pm_keys, so
    every later listing on g reads it."""
    total = count_pm(g)
    if total > DEFAULT_ENUM_CAP:
        raise ResourceLimitError(f"{total} perfect matchings exceed the cap {DEFAULT_ENUM_CAP}")
    keys = g._pm_keys
    if keys is None:
        keys = g._pm_keys = list(_search(g.neighbor_masks))
    return keys


def enumerate_pm(g: Graph) -> Iterator[Matching]:
    """Yield every perfect matching once, in lexicographic order of the
    sorted edge list, after checking the count against DEFAULT_ENUM_CAP.
    The matchings are decoded from g's key list (_pm_keys), made on the
    first listing of g and read by every later one."""
    n = g.n
    for key in _pm_keys(g):
        yield _decode(key, n)


def first_pm(g: Graph) -> Optional[Matching]:
    """Lexicographically least perfect matching, or None.

    The first leaf of enumerate_pm's search, taken without counting and
    without listing the rest, so it works on graphs past the counting cap
    and on graphs whose matching count is far beyond the enumeration cap.
    """
    key = next(_search(g.neighbor_masks), None)
    return None if key is None else _decode(key, g.n)


def _count_avoiding(g: Graph, avoid: list[int]) -> int:
    """Perfect matchings of g that use no edge of the set A with neighbour
    masks `avoid` (A inside E(G)): the count of G - A, taken on g's masks
    with A's bits cleared, no Graph built.

    After the parity check on G - A, the density rule of the counts is
    read on G - A, the graph counted.  A dense G - A (_is_dense(g, |A|))
    reads stratum 0 of _complement_strata with reference A, so it walks
    g's complement in g's min-frontier order, with a fresh memo; kmax is
    n/2, the most edges a perfect matching shares with A, so stratum 0
    sums the coefficients of every power of (x-1) (kmax 0 would return
    the total).  Any other G - A runs _dp_count on its masks with a fresh
    memo.
    """
    full = (1 << g.n) - 1
    masks = [m & ~a for m, a in zip(g.neighbor_masks, avoid)]
    if _has_odd_component(masks, full):
        return 0
    r = sum(a.bit_count() for a in avoid) // 2
    if _is_dense(g, r):
        return _complement_strata(g, avoid, r, g.n // 2, full, {0: 1})[0]
    return _dp_count(masks, full, {})


def count_pm_containing(g: Graph, forced) -> int:
    """Perfect matchings containing every edge of `forced`.

    Equals the count on the graph with the forced endpoints deleted, taken
    as count_pm takes it: on a dense host every call on g shares one memo
    of the complement's polynomials, g._poly_cache, and on any other host
    the DP memo.  `forced` must be a matching inside
    E(G).
    """
    seen: set[int] = set()
    for u, v in _edges_in(g, forced, "edge"):
        if u in seen or v in seen:
            raise MatchlabError(f"forced edges reuse vertex {u if u in seen else v}")
        seen.add(u)
        seen.add(v)
    _check_cap(g)
    mask = (1 << g.n) - 1
    for v in seen:
        mask ^= 1 << v
    return _count(g, mask)


def _draw_row(g: Graph, mask: int, s: int):
    """The sampler's row for `mask`: the cumulative counts of its children
    in scan order, each packed with its partner v as `cum << s | v`.

    The children are those of the lowest vertex u of `mask`, one per
    neighbour v in increasing order; a child with no perfect matching is
    dropped.  The row is an `array('q')` while its last entry fits in 63
    bits, which covers every graph under the default cap, and a list
    otherwise; bisect searches either.
    """
    cache = g._pm_cache
    u = (mask & -mask).bit_length() - 1
    rest = mask & (mask - 1)
    avail = g.neighbor_masks[u] & rest
    acc = 0
    row = []
    while avail:
        vbit = avail & -avail
        avail ^= vbit
        child = rest ^ vbit
        c = cache[child] if child else 1
        if c:
            acc += c
            row.append(acc << s | vbit.bit_length() - 1)
    return array("q", row) if row[-1] < 1 << 63 else row


def _child_steps(g: Graph) -> list:
    """The sampler's shared child steps, built on first use and kept in
    g._draw_steps: entry u, indexed by a neighbour v > u, holds
    `(u*n + v, 1 << u | 1 << v)`, the id of the edge a step appends and
    the bits it clears from the mask."""
    steps = g._draw_steps
    if steps is None:
        n = g.n
        steps = g._draw_steps = []
        for u, mask in enumerate(g.neighbor_masks):
            row = [None] * n
            for v in range(u + 1, n):
                if mask >> v & 1:
                    row[v] = (u * n + v, 1 << u | 1 << v)
            steps.append(row)
    return steps


def _draw_record(g: Graph, mask: int, s: int) -> tuple:
    """The sampler's record for `mask` in g._draw_rows: `(count, k, row,
    steps_u)`, with count the mask's memo count, k its bit length, row its
    `_draw_row` and steps_u the entry of the mask's lowest vertex u in
    `_child_steps`."""
    count = g._pm_cache[mask]
    u = (mask & -mask).bit_length() - 1
    return count, count.bit_length(), _draw_row(g, mask, s), _child_steps(g)[u]


def _draws(g: Graph, rng: random.Random, count: int) -> Iterator[list[int]]:
    """`count` exactly uniform draws from the perfect matchings of g, each
    yielded as the list of its edges' ids u*n + v (u < v) in step order,
    which is increasing order.  The checks (the cap, then a count of the
    full mask that raises NoPerfectMatchingError when it is 0) run once,
    when the first draw is asked for, and each draw is built only when it
    is asked for, so a caller that reads them one at a time holds one at
    a time.  The steps are sample_pm's."""
    _check_cap(g)
    full = (1 << g.n) - 1
    if _count_on_mask(g, full) == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    rows = g._draw_rows
    getrandbits = rng.getrandbits
    s = g.n.bit_length()
    low = (1 << s) - 1
    for _ in range(count):
        ids: list[int] = []
        append = ids.append
        mask = full
        while mask:
            try:
                total, k, row, steps = rows[mask]
            except KeyError:
                total, k, row, steps = rows[mask] = _draw_record(g, mask, s)
            r = getrandbits(k)
            while r >= total:
                r = getrandbits(k)
            eid, clear = steps[row[bisect_right(row, r << s | low)] & low]
            append(eid)
            mask ^= clear
        yield ids


def sample_pm(g: Graph, rng: random.Random) -> Matching:
    """Exactly uniform draw from the perfect matchings of g: the first draw
    of `_draws`, its edge ids decoded into a Matching.

    Self-reducibility (Jerrum, Valiant and Vazirani): repeatedly match the
    lowest unmatched vertex u, picking neighbour v with probability
    count(G - u - v)/count(G).  A step draws r uniform below count(mask)
    and takes the first child, in increasing v, whose cumulative count
    exceeds r.  That child is found by one bisect of the mask's row (see
    `_draw_row`): with s = n.bit_length() bits below each count,
    `r << s | (1 << s) - 1` sorts after every entry whose count is at most
    r and before every entry whose count exceeds it.

    Each mask the walk reaches has one record in `g._draw_rows`, built
    the first time a draw reaches it (`_draw_record`): its count, the
    count's bit length k, its row and its lowest vertex's entry in the
    graph's shared step table, so a step appends a prebuilt edge id and
    clears a prebuilt mask.  r comes from `getrandbits(k)`, drawn again
    while r >= count: the calls `randrange(count)` makes through
    `Random._randbelow_with_getrandbits` (CPython 3.10-3.13), a count of
    1 included.  So the draws, and the rng stream, are those of a scan
    that calls randrange and subtracts each child's count from r in turn.

    The records read the per-graph memo directly.  They rely on an
    invariant of _count_on_mask: a mask is cached only after all its
    children are, so once the full mask is counted, every nonempty mask
    the walk reaches or lists as a child is in the memo.
    """
    n = g.n
    ids = next(_draws(g, rng, 1))
    return Matching._from_sorted([divmod(i, n) for i in ids])


@dataclass(frozen=True)
class StrataCounts:
    """|{perfect matchings with exactly k reference edges}| for each k."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _complement_strata(
    g: Graph, ref_masks: list[int], r: int, kmax: int, mask: int, memo: dict
) -> list[int]:
    """Strata 0..kmax of the perfect matchings of g induced on `mask`, an
    even vertex set S, by the reference R (r edges inside E(G), given by
    their neighbour masks), through the complement H of g.

    Godsil's duality (Combinatorica 1981): pm(G[S]) = sum_k (-1)^k
    m_k(H[S]) (|S|-2k-1)!!, m_k the k-edge matchings of H[S].  Weigh each
    pair of K_S by 1 + [in R](x-1) - [in H], H and R being disjoint.  A
    perfect matching of G[S] then weighs x^(shared edges), and expanding
    the product over the pairs of K_S's perfect matchings gives
        sum_M x^|M & R| = sum_{a,b} m_{a,b} (-1)^a (x-1)^b (|S|-2a-2b-1)!!,
    m_{a,b} the matchings of H + R with a edges of H and b of R.  One
    _poly_on_mask pass over H + R, memoised in `memo` (which must hold
    {0: 1}), packs m_{a,b} at bit a*w + b*w_ref, w the bit length of
    C(e, e//2) for e = e(H) + r (no m_{a,b} exceeds it) and
    w_ref = w*(|S|/2 + 1), past every a.  R may be any edge set: its edges
    may share vertices.  With no reference and kmax 0 this is the count.

    The pass walks H in its min-frontier order (_complement_masks): `mask`
    and `ref_masks`, given in g's labels, are mapped through pos first,
    the mask by the vertices it lacks, so `memo` is keyed in H's order.
    """
    e = g.n * (g.n - 1) // 2 - g.m + r
    w = math.comb(e, e // 2).bit_length()
    half = mask.bit_count() // 2
    w_ref = w * (half + 1)
    both, pos = _complement_masks(g)
    full = (1 << g.n) - 1
    mask = full ^ _relabel(full ^ mask, pos)
    hits = ref_masks
    if r:
        hits = [0] * g.n
        for v, m in enumerate(ref_masks):
            hits[pos[v]] = _relabel(m, pos)
        both = [c | h for c, h in zip(both, hits)]
    packed = _poly_on_mask(both, hits, w, w_ref, mask, memo)
    strata = [0] * (kmax + 1)
    for b in range(kmax + 1):
        # the coefficient of (x-1)^b
        c = _dual_sum(packed >> (b * w_ref), w, half - b)
        for k in range(b + 1):
            term = math.comb(b, k) * c
            strata[k] += -term if (b - k) & 1 else term
    return strata


def stratify(g: Graph, reference) -> StrataCounts:
    """Split the perfect matchings of g by the number of edges shared with
    `reference` (a matching, a graph, or a raw edge set inside E(G)).

    count_pm's DP, each memo entry the int sum_k s_k * 2^(k*w), where s_k
    counts the mask's matchings sharing k reference edges: a child reached
    through a reference edge adds its value shifted by w bits.  w is the bit
    length of (n-1)!!, the count of K_n; each s_k is at most the mask's own
    count, at most (|mask|-1)!! <= (n-1)!!, so no digit carries.  Kept apart
    from _count_on_mask: a shared loop made count_pm 3-10% slower.  As
    there, a graph with an odd component skips the DP (every stratum is 0)
    and each child's memo entry is read inline.

    A dense host (2*e(H) <= e(G) for the complement H) skips this DP too:
    _complement_strata runs _poly_on_mask on H + reference, with a memo of
    its own, and expands the duality pm = sum_k (-1)^k m_k (n-2k-1)!! by
    the reference edges used.
    """
    _check_cap(g)
    ref = _edges_in(g, reference, "reference edge")
    kmax = min(g.n // 2, len(ref))
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    if _has_odd_component(masks, full):
        return StrataCounts({k: 0 for k in range(kmax + 1)})
    ref_masks = [0] * g.n
    for u, v in ref:
        ref_masks[u] |= 1 << v
        ref_masks[v] |= 1 << u
    if _is_dense(g):
        strata = _complement_strata(g, ref_masks, len(ref), kmax, full, {0: 1})
        return StrataCounts(dict(enumerate(strata)))
    w = math.prod(range(g.n - 1, 0, -2)).bit_length()
    memo: dict[int, int] = {0: 1}
    lookup = memo.get

    def rec(mask: int) -> int:
        u = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        avail = masks[u] & rest
        hits = ref_masks[u]
        total = 0
        while avail:
            vbit = avail & -avail
            avail ^= vbit
            child = rest ^ vbit
            c = lookup(child)
            if c is None:
                c = rec(child)
            total += c << w if hits & vbit else c
        memo[mask] = total
        return total

    packed = rec(full) if full else 1
    return StrataCounts({k: packed >> (k * w) & ((1 << w) - 1) for k in range(kmax + 1)})
