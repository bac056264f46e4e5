"""Exact enumeration, counting, stratification, and uniform sampling of
perfect matchings.

Everything here is the brute-force ground truth the rest of the package
is checked against.  The counting core is a dynamic program over the
bitmask of still-unmatched vertices: the lowest unmatched vertex is
matched against each unmatched neighbour, giving O(2^n * n) time at the
configured size cap.  Counts are Python ints, so arbitrary precision
comes for free, and each Graph carries its own memo table keyed by the
surviving-vertex bitmask, shared by counting, containment queries, and
the sampler, which relies on its one invariant: a mask is cached only
after all its children are.  Listing runs one search, in the same
lowest-vertex order, behind both enumerate_pm and first_pm; it remembers
the masks whose subtree held no perfect matching and never expands them
again.  stratify runs the counting DP with one int per mask that packs every
stratum as a w-bit digit; w, the bit length of (n-1)!!, bounds every
count the DP meets, so no digit carries into the next.

The sampler keeps a second per-graph memo, Graph._draw_rows: for each
mask it has visited, the cumulative counts of the mask's children in
scan order, each packed with its partner as `cum << s | v` for
s = n.bit_length(), children with no perfect matching dropped.  A row is
an array('q'), 8 bytes an entry, while its counts fit in 63 bits (every
graph under the default cap) and a list past that.  A step is one
randrange on the mask's count and one bisect of its row; it draws the
child a scan over the children would, from the same rng stream.

A graph with a connected component of odd size has no perfect matching.
After its input and cap checks, each entry point takes its fast paths in
one order: the memo lookup (counting only), then that parity check on the
entry mask, O(n) mask operations, then the DP or search.  The check never runs inside the
recursion, whose children are read from the memo inline.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    EdgeNotPresentError,
    NoPerfectMatchingError,
    NotASubMatchingError,
    TooLargeError,
    TooManyMatchingsError,
)
from .graphs import Edge, Graph, Matching, edge_set

DEFAULT_DP_LIMIT = 26
DEFAULT_ENUM_CAP = 1_000_000


def _has_odd_component(masks, mask: int) -> bool:
    """True when the subgraph induced on `mask` has a connected component
    of odd size, and so no perfect matching: a flood fill over the
    neighbour masks, O(|mask|) mask operations."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
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
    cached as 0 with no DP.  The recursion reads each child's memo entry
    inline and calls itself only on a miss.
    """
    cache = g._pm_cache
    got = cache.get(mask)
    if got is not None:
        return got
    masks = g.neighbor_masks
    if _has_odd_component(masks, mask):
        cache[mask] = 0
        return 0
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


def count_pm(g: Graph, limit: int = DEFAULT_DP_LIMIT) -> int:
    """Exact number of perfect matchings; 0 whenever some connected
    component has an odd number of vertices (odd n included), found
    without the DP."""
    if g.n > limit:
        raise TooLargeError(f"n={g.n} above the counting cap {limit}")
    return _count_on_mask(g, (1 << g.n) - 1)


def _matchings(g: Graph) -> Iterator[Matching]:
    """Every perfect matching of g, in lexicographic order of the sorted
    edge list: the lowest unmatched vertex is matched first, its partner
    chosen in increasing order.

    A graph with an odd component yields nothing and is not searched.
    Otherwise a mask whose subtree yielded no matching (the leaf count did
    not move while its children were searched) is remembered and skipped
    for the rest of the search, so a mask without a perfect matching is
    expanded at most once.  The search is lazy: stopping after the first
    matching costs no more than reaching it.
    """
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    if _has_odd_component(masks, full):
        return
    chosen: list[Edge] = []
    dead: set[int] = set()
    leaves = 0

    def rec(mask: int) -> Iterator[Matching]:
        nonlocal leaves
        if mask == 0:
            leaves += 1
            yield Matching._from_sorted(chosen)
            return
        before = leaves
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
            yield from rec(child)
            chosen.pop()
        if leaves == before:
            dead.add(mask)

    yield from rec(full)


def enumerate_pm(
    g: Graph, cap: int = DEFAULT_ENUM_CAP, limit: int = DEFAULT_DP_LIMIT
) -> Iterator[Matching]:
    """Yield every perfect matching once, in lexicographic order of the
    sorted edge list, after checking the count against `cap`."""
    total = count_pm(g, limit=limit)
    if total > cap:
        raise TooManyMatchingsError(f"{total} perfect matchings exceed the cap {cap}")
    yield from _matchings(g)


def first_pm(g: Graph) -> Optional[Matching]:
    """Lexicographically least perfect matching, or None.

    The first leaf of enumerate_pm's search, taken without counting, so it
    works on graphs past the counting cap and on graphs whose matching
    count is far beyond the enumeration cap.
    """
    return next(_matchings(g), None)


def count_pm_containing(g: Graph, forced, limit: int = DEFAULT_DP_LIMIT) -> int:
    """Perfect matchings containing every edge of `forced`.

    Equals the count on the graph with the forced endpoints deleted.
    `forced` must be a matching inside E(G).
    """
    edges = edge_set(forced)
    seen: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise NotASubMatchingError(f"edge ({u}, {v}) not in graph")
        if u in seen or v in seen:
            raise NotASubMatchingError(f"forced edges reuse vertex {u if u in seen else v}")
        seen.add(u)
        seen.add(v)
    if g.n > limit:
        raise TooLargeError(f"n={g.n} above the counting cap {limit}")
    mask = (1 << g.n) - 1
    for v in seen:
        mask ^= 1 << v
    return _count_on_mask(g, mask)


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


def sample_pm(g: Graph, rng: random.Random, limit: int = DEFAULT_DP_LIMIT) -> Matching:
    """Exactly uniform draw from the perfect matchings of g.

    Self-reducibility (Jerrum, Valiant and Vazirani): repeatedly match the
    lowest unmatched vertex u, picking neighbour v with probability
    count(G - u - v)/count(G).  A step draws r = randrange(count(mask))
    and takes the first child, in increasing v, whose cumulative count
    exceeds r.  That child is found by one bisect of the mask's row in
    `g._draw_rows` (see `_draw_row`), built the first time the sampler
    reaches the mask: with s = n.bit_length() bits below each count,
    `r << s | (1 << s) - 1` sorts after every entry whose count is at most
    r and before every entry whose count exceeds it.  So the draws, and
    the rng calls, are those of a scan that subtracts each child's count
    from r in turn; rows exist only for masks a draw has reached.

    The rows read the per-graph memo directly.  They rely on an invariant
    of _count_on_mask: a mask is cached only after all its children are,
    so once the full mask is counted, every nonempty mask the walk reaches
    or lists as a child is in the memo.
    """
    if g.n > limit:
        raise TooLargeError(f"n={g.n} above the counting cap {limit}")
    mask = (1 << g.n) - 1
    if _count_on_mask(g, mask) == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    cache = g._pm_cache
    rows = g._draw_rows
    s = g.n.bit_length()
    low = (1 << s) - 1
    pairs: list[Edge] = []
    while mask:
        r = rng.randrange(cache[mask])
        try:
            row = rows[mask]
        except KeyError:
            row = rows[mask] = _draw_row(g, mask, s)
        ubit = mask & -mask
        v = row[bisect_right(row, r << s | low)] & low
        pairs.append((ubit.bit_length() - 1, v))
        mask ^= ubit | 1 << v
    return Matching._from_sorted(pairs)


@dataclass(frozen=True)
class StrataCounts:
    """|{perfect matchings with exactly k reference edges}| for each k."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, k: int) -> int:
        return self.counts.get(k, 0)

    def max_k(self) -> int:
        return max(self.counts) if self.counts else 0

    def to_json_dict(self) -> dict:
        return {str(k): str(c) for k, c in sorted(self.counts.items())}


def stratify(g: Graph, reference, limit: int = DEFAULT_DP_LIMIT) -> StrataCounts:
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
    """
    if g.n > limit:
        raise TooLargeError(f"n={g.n} above the counting cap {limit}")
    ref = edge_set(reference)
    for u, v in ref:
        if not g.has_edge(u, v):
            raise EdgeNotPresentError(f"reference edge ({u}, {v}) not in graph")
    kmax = min(g.n // 2, len(ref))
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    if _has_odd_component(masks, full):
        return StrataCounts({k: 0 for k in range(kmax + 1)})
    w = math.prod(range(g.n - 1, 0, -2)).bit_length()
    ref_masks = [0] * g.n
    for u, v in ref:
        ref_masks[u] |= 1 << v
        ref_masks[v] |= 1 << u
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
