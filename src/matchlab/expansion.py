"""Robust neighbourhoods and certification of robust expansion.

A set S expands robustly when the vertices seeing a positive fraction of
S are noticeably more numerous than S itself.  The exact certifier is
one recursion over vertex masks: it walks the sets of a size window in
lexicographic order and stops at the first violating set.  |RN(S)| is
monotone in S, so once a set's robust count reaches the window's top
size plus nu*n, every extension of it passes; the recursion counts that
subtree's window sets in closed form instead of visiting them.  The
sampled refuter reads the same count and only ever finds
counterexamples.  All threshold comparisons are exact: nu*n and the
window bounds are rounded once, to the integers that counts and set
sizes are compared with.

The sweep and the refuter read every robust count off one packed int per
set (a broadword counter; Knuth, TAOCP 4A, 7.1.3).  On n vertices, the
low n bits hold S as a vertex mask.  With B = n.bit_length(), vertex v
owns the field of w = B + 1 bits from bit n + v*w.  The field starts at
2^B - need and gains 1 for each of v's (in-)neighbours in S, so its top
bit is set exactly when v has at least `need` of them, and |RN(S)| is
`(acc & high).bit_count()`.  Nothing carries out of a field or the mask:
each vertex is added once, a count is at most |S| <= n < 2^B and 0 <=
need <= 2^B, so a field stays within [0, 2^(B+1)).  Adding a vertex u to
S adds one precomputed column `cols[u]`, its mask bit and a 1 in the
field of every vertex it points to.  The sweep carries the packed int
down its recursion, and the refuter builds it as it draws.

The refuter draws each trial's size and set into a vertex mask straight
from `getrandbits(k)`, drawn again while the result is at least the
bound: the calls `randint` and `Random.sample` make through
`Random._randbelow_with_getrandbits` (CPython 3.10-3.13), both of
sample's branches included.  So the draws, and the rng stream, are
those of `rng.randint(lo, hi)` then `rng.sample(range(n), size)`, and a
seed gives the same witness and trial count as those calls would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator, Optional, Union

from .errors import MatchlabError, ResourceLimitError
from .graphs import Bipartition, Digraph, Graph, _check_vertex
from .rational import as_fraction

# Read at each call, so a value set on the module reaches every caller.
DEFAULT_SWEEP_LIMIT = 24


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ExpansionParams:
    """Expansion fraction nu and window fraction tau, both in (0, 1)."""

    nu: Fraction
    tau: Fraction

    def __post_init__(self):
        nu = as_fraction(self.nu)
        tau = as_fraction(self.tau)
        if not (0 < nu < 1 and 0 < tau < 1):
            raise MatchlabError("nu and tau must lie strictly between 0 and 1")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class ExpansionCertificate:
    """Outcome of an expansion check.

    A Fail always carries a violating witness set; a Pass can only come
    from the exhaustive sweep, never from sampling.  For the sweep,
    `sets_checked` is the number of window sets certified in
    lexicographic order up to and including the witness (all of them on
    a Pass); subtrees certified by monotonicity are counted, not
    visited.  For the sampled refuter it is the number of trials drawn.
    """

    verdict: Verdict
    nu: Fraction
    tau: Fraction
    witness: Optional[tuple[int, ...]]
    sets_checked: int


def _in_masks(obj: Union[Graph, Digraph]) -> tuple[int, ...]:
    # Undirected graphs use plain neighbourhoods; digraphs count
    # in-neighbours, matching the out-neighbourhood definition.
    if isinstance(obj, Digraph):
        return obj.in_masks
    return obj.neighbor_masks


def robust_neighbourhood(obj: Union[Graph, Digraph], subset, nu) -> frozenset[int]:
    """Vertices with at least nu*n neighbours inside `subset`: neighbours
    in a Graph, in-neighbours in a Digraph (its robust out-neighbourhood),
    counted off each vertex's own mask, independently of the sweep's."""
    n = obj.n
    smask = 0
    for v in subset:
        _check_vertex(v, n)
        smask |= 1 << v
    need = _thresholds(as_fraction(nu), Fraction(0), n)[0]
    return frozenset(v for v, mask in enumerate(_in_masks(obj)) if (mask & smask).bit_count() >= need)


def _thresholds(nu: Fraction, tau: Fraction, scale: int) -> tuple[int, int, int]:
    """`(need, lo, hi)` at `scale`: a vertex is robust for S when it has at
    least `need` neighbours in S, and the window holds sizes lo..hi."""
    # Neighbour counts are integers, so count >= nu*scale <=> count >= ceil.
    need = max(0, math.ceil(nu * scale))
    return need, math.ceil(tau * scale), math.floor((1 - tau) * scale)


def _packed(masks, need: int) -> tuple[list[int], int, int]:
    """`(cols, base, high)` for the packed robust counter on the
    len(masks) = n vertices whose in-neighbour masks are `masks`.

    Bit u is vertex u's mask bit, and vertex v's field is the
    w = n.bit_length() + 1 bits from bit n + v*w.  `base` holds
    2^(w-1) - need in every field and an empty mask, `cols[u]` holds bit
    u and a 1 in the field of every v with u in masks[v], and `high` is
    every field's top bit.  S's counter is `base` plus the columns of its
    vertices; need must lie in 0..2^(w-1) (see the module docstring for
    why nothing carries).
    """
    n = len(masks)
    b = n.bit_length()
    w = b + 1
    cols = [
        1 << u | sum(1 << n + v * w for v, mask in enumerate(masks) if mask >> u & 1)
        for u in range(n)
    ]
    unit = sum(1 << n + v * w for v in range(n))
    return cols, ((1 << b) - need) * unit, unit << b


def _robust_count(acc: int, high: int) -> int:
    """|RN(S)| for S's packed counter `acc`.  S violates expansion when
    this is below |S| + nu*scale, which for integer counts means below
    |S| + need."""
    return (acc & high).bit_count()


def _sweep(masks, universe: list[int], scale: int, params: ExpansionParams) -> ExpansionCertificate:
    """Check every subset of `universe` in the size window at `scale`;
    Fail with the lexicographically first violating set, else Pass.

    The recursion carries each set as its packed counter (`_packed`),
    so extending S by one vertex is one add of that vertex's column, and
    every visited set gets its robust count, also below the window.  A
    set whose count is at least hi + need has no violating extension up
    to size hi, so its subtree is counted into `sets_checked` with
    binomials and not visited.  The verdict, witness and count equal
    those of a sweep that visits every window set.
    """
    need, lo, hi = _thresholds(params.nu, params.tau, scale)
    cols, base, high = _packed(masks, need)
    ucols = [cols[u] for u in universe]
    top = len(universe)
    # below[r][k] sums C(r, j) over j < k: a pruned set of `size`
    # vertices with r candidates after it has row[hi - size + 1] -
    # row[first - size] extensions in the window, row = below[r].
    below = [list(accumulate((math.comb(r, j) for j in range(hi + 1)), initial=0)) for r in range(top)]
    checked = 0

    def rec(start: int, acc: int, size: int) -> int:
        # Each set extending the set packed in `acc` by universe[start:],
        # `size` vertices once extended, in lexicographic order; 0 when
        # none violates.
        nonlocal checked
        for i in range(start, top):
            vacc = acc + ucols[i]
            rn = _robust_count(vacc, high)
            if size >= lo:
                checked += 1
                if rn < size + need:
                    return vacc
            if size < hi:
                if rn >= hi + need:
                    # |RN| only grows with S, so every extension of this
                    # set up to size hi passes: count those in the window.
                    first = max(lo, size + 1)
                    row = below[top - 1 - i]
                    checked += row[hi - size + 1] - row[first - size]
                    continue
                found = rec(i + 1, vacc, size + 1)
                if found:
                    return found
        return 0

    # An empty window (lo > hi) checks nothing; the top level would
    # otherwise test 1-sets even when hi = 0.
    found = rec(0, base, 1) if lo <= hi else 0
    if found:
        witness = tuple(v for v in universe if found >> v & 1)
        return ExpansionCertificate(Verdict.FAIL, params.nu, params.tau, witness, checked)
    return ExpansionCertificate(Verdict.PASS, params.nu, params.tau, None, checked)


def certify_exact(obj: Union[Graph, Digraph], params: ExpansionParams) -> ExpansionCertificate:
    """Exhaustive sweep over every set in the size window, on at most
    DEFAULT_SWEEP_LIMIT vertices.

    Fails with the lexicographically first violating set; passes only
    after checking the whole window.
    """
    n = obj.n
    if n > DEFAULT_SWEEP_LIMIT:
        raise ResourceLimitError(f"n={n} above the sweep cap {DEFAULT_SWEEP_LIMIT}")
    return _sweep(_in_masks(obj), list(range(n)), n, params)


def _random_sets(cols: list[int], base: int, lo: int, hi: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    """Yield `(size, acc)` forever: the sizes and vertex sets that
    `rng.randint(lo, hi)` then `rng.sample(range(n), size)` would draw on
    n = len(cols) vertices, each set as its packed counter (`_packed`),
    whose low n bits are the set's vertex mask.

    A draw below m is `getrandbits(m.bit_length())`, drawn again while
    the result is at least m.  As in `Random.sample`, a size whose set of
    picks would take more room than an n-list picks from a fresh pool,
    moving the last free vertex into each vacancy; any other size draws
    below n again until the vertex is not yet in the set.  Each pick
    adds its column to `acc`, which starts at `base`.
    """
    getrandbits = rng.getrandbits
    n = len(cols)
    width = hi - lo + 1
    kw = width.bit_length()
    kn = n.bit_length()
    bits = [m.bit_length() for m in range(n + 1)]
    # Random.sample's choice: a pool when n <= setsize for this size.
    pooled = [
        n <= 21 + (4 ** math.ceil(math.log(size * 3, 4)) if size > 5 else 0)
        for size in range(hi + 1)
    ]
    while True:
        r = getrandbits(kw)
        while r >= width:
            r = getrandbits(kw)
        size = lo + r
        acc = base
        if pooled[size]:
            pool = cols[:]
            for m in range(n, n - size, -1):
                k = bits[m]
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                acc += pool[j]
                pool[j] = pool[m - 1]
        else:
            for _ in range(size):
                j = getrandbits(kn)
                while j >= n or acc >> j & 1:
                    j = getrandbits(kn)
                acc += cols[j]
        yield size, acc


def refute_sampled(
    obj: Union[Graph, Digraph],
    params: ExpansionParams,
    trials: int,
    seed: int,
) -> ExpansionCertificate:
    """Random search for a violating set; never certifies a pass.

    Trial t draws a size uniform in the window and a uniform set of that
    size (`_random_sets`): the draws, and the rng stream, are those of
    `rng.randint(lo, hi)` then `rng.sample(range(n), size)` on
    `random.Random(seed)` (CPython 3.10-3.13).  Each set's packed
    counter (`_packed`) is built as its vertices are drawn, so a trial
    reads its robust count with one mask and one `bit_count`.  The
    witness is the first violating set, in increasing order, and
    `sets_checked` its trial.
    """
    n = obj.n
    need, lo, hi = _thresholds(params.nu, params.tau, n)
    if lo > hi or trials <= 0:
        return ExpansionCertificate(Verdict.INCONCLUSIVE, params.nu, params.tau, None, 0)
    cols, base, high = _packed(_in_masks(obj), need)
    sets = islice(_random_sets(cols, base, lo, hi, random.Random(seed)), trials)
    for t, (size, acc) in enumerate(sets, 1):
        if _robust_count(acc, high) < size + need:
            witness = tuple(v for v in range(n) if acc >> v & 1)
            return ExpansionCertificate(Verdict.FAIL, params.nu, params.tau, witness, t)
    return ExpansionCertificate(Verdict.INCONCLUSIVE, params.nu, params.tau, None, trials)


def certify_bipartite(g: Graph, part: Bipartition, params: ExpansionParams) -> ExpansionCertificate:
    """Bipartite sweep: sets range over one class, the scale is the side
    size rather than the full vertex count, and the side holds at most
    DEFAULT_SWEEP_LIMIT vertices."""
    if part.n != g.n:
        raise MatchlabError("bipartition does not cover the graph's vertex range")
    if len(part.side_a) != len(part.side_b):
        raise MatchlabError(f"sides have sizes {len(part.side_a)} and {len(part.side_b)}")
    for u, v in g.edges:
        if (u in part.side_a) == (v in part.side_a):
            raise MatchlabError(f"edge ({u}, {v}) does not cross the bipartition")
    side = len(part.side_a)
    if side > DEFAULT_SWEEP_LIMIT:
        raise ResourceLimitError(f"side size {side} above the sweep cap {DEFAULT_SWEEP_LIMIT}")
    return _sweep(g.neighbor_masks, sorted(part.side_a), side, params)

