import math
import random
import time
from array import array
from collections import Counter
from functools import partial

import pytest

from conftest import (
    dense_regular,
    disconnected_hosts,
    gnp,
    oracle_count,
    oracle_pm_sets,
    reference_complement_count,
    reference_count_on_mask,
    reference_enumerate_pm,
    reference_first_pm,
    reference_min_frontier_order,
    reference_min_frontier_relabel,
    reference_sample_pm,
    reference_stratify,
    relabel_graph,
    relabel_mask,
    scan_sample_pm,
    small_zoo,
    strata_hosts,
    strata_references,
)
from matchlab import pm
from matchlab.errors import MatchlabError, NoPerfectMatchingError, ResourceLimitError
from matchlab.graphs import (
    Graph,
    Matching,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
)
from matchlab.pm import (
    _complement_masks,
    _count_on_mask,
    _draw_record,
    _draw_row,
    _draws,
    _is_dense,
    _min_frontier_relabel,
    count_pm,
    count_pm_containing,
    enumerate_pm,
    first_pm,
    sample_pm,
    stratify,
)


# -- counting ---------------------------------------------------------------

@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: complete_graph(4), 3),
        (lambda: complete_graph(6), 15),
        (lambda: complete_multipartite(2, 3), 6),
        (lambda: cycle_graph(6), 2),
        (lambda: complete_multipartite(3, 2), 8),
    ],
)
def test_count_known_values(builder, expected):
    assert count_pm(builder()) == expected


def test_count_matches_pairing_oracle_on_zoo():
    for g in small_zoo():
        assert count_pm(g) == oracle_count(g)


def test_count_odd_n_is_zero():
    assert count_pm(complete_graph(5)) == 0
    assert count_pm(Graph(3, [(0, 1), (1, 2)])) == 0


def test_count_double_factorial_growth():
    # pma(K_{2m}) = (2m-1)!!
    expected = 1
    for m in range(1, 6):
        expected *= 2 * m - 1
        assert count_pm(complete_graph(2 * m)) == expected


def test_count_size_cap(monkeypatch):
    monkeypatch.setattr(pm, "DEFAULT_DP_LIMIT", 4)
    with pytest.raises(ResourceLimitError, match="^n=6 above the counting cap 4$"):
        count_pm(complete_graph(6))


# -- odd components -----------------------------------------------------------

def _has_odd_part(g, mask):
    """Some component of the subgraph induced on `mask` has odd size, found
    by a search over adjacency lists rather than neighbour masks."""
    left = {v for v in range(g.n) if mask >> v & 1}
    while left:
        stack = [left.pop()]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for y in g.neighbors(x):
                if y in left:
                    left.remove(y)
                    stack.append(y)
        if size % 2:
            return True
    return False


def _reference_count_checking_memo(fast, mask):
    """The reference DP's count on `mask`, after checking the memo of `fast`,
    on which _count_on_mask has counted only `mask`: that mask alone, as 0,
    when it has an odd component, and otherwise the very memo the DP
    without the check builds."""
    slow = _fresh(fast)
    want = reference_count_on_mask(slow, mask)
    if _has_odd_part(fast, mask):
        assert fast._pm_cache == {mask: 0}
    else:
        assert fast._pm_cache == slow._pm_cache
    return want


def _dp_hosts():
    return small_zoo() + disconnected_hosts()


def test_count_matches_reference_dp():
    hosts = _dp_hosts()
    full = [(1 << g.n) - 1 for g in hosts]
    odd = [_has_odd_part(g, m) for g, m in zip(hosts, full)]
    assert sum(odd) >= 8 and sum(not o and count_pm(g) == 0 for g, o in zip(hosts, odd)) >= 1
    for g, mask in zip(hosts, full):
        fast = _fresh(g)
        got = _count_on_mask(fast, mask)
        assert got == _reference_count_checking_memo(fast, mask) == oracle_count(g)
        # count_pm takes the complement's path on dense hosts: the oracle
        # checks its count, the DP memo test above stays with the DP
        assert count_pm(_fresh(g)) == got


def _random_matching(g, rng):
    edges = list(g.edges)
    rng.shuffle(edges)
    used, out = set(), []
    for u, v in edges:
        if u not in used and v not in used:
            used |= {u, v}
            out.append((u, v))
    return out[: rng.randint(0, len(out))]


def test_count_containing_matches_reference_dp():
    rng = random.Random(5)
    for g in _dp_hosts():
        pms = oracle_pm_sets(g)
        shared, slow = _fresh(g), _fresh(g)
        for forced in [[e] for e in g.edges] + [_random_matching(g, rng) for _ in range(10)]:
            mask = (1 << g.n) - 1
            for u, v in forced:
                mask ^= 1 << u | 1 << v
            want = reference_count_on_mask(slow, mask)
            assert want == sum(set(forced) <= m for m in pms)
            # one memo shared by every call, zeros from short cuts included
            assert count_pm_containing(shared, forced) == want
            fast = _fresh(g)
            got = _count_on_mask(fast, mask)
            assert got == _reference_count_checking_memo(fast, mask) == want
            assert count_pm_containing(_fresh(g), forced) == want


def test_stratify_matches_reference_on_disconnected_hosts():
    rng = random.Random(6)
    for g in disconnected_hosts():
        for ref in strata_references(g, rng):
            got = stratify(g, ref)
            assert got.counts == reference_stratify(g, ref).counts
            assert got.total() == count_pm(g)


def test_odd_component_hosts_skip_the_dp():
    # two interleaved K13 and K25: the DP proves "no perfect matching" in
    # about a second; the component check takes O(n) mask operations
    hosts = [_interleaved_cliques(13), complete_graph(25)]
    start = time.perf_counter()
    for g in hosts:
        assert count_pm(g) == 0
        assert stratify(g, [g.edges[0]]).counts == {0: 0, 1: 0}
        assert first_pm(g) is None
    assert time.perf_counter() - start < 1.0


# -- dense hosts: the complement's matching polynomial -------------------------

def _less_edges(n, t, seed):
    """K_n less t edges picked by a seeded shuffle: its complement has t edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    random.Random(seed).shuffle(pairs)
    return Graph(n, pairs[t:])


def _tutte_blocked():
    """A dense connected host on 12 vertices with no perfect matching: 5
    vertices joined to everything, 7 independent ones.  Deleting the 5
    leaves 7 odd components (Tutte), but the host itself is connected, so
    the parity check does not answer and the alternating sum must give 0."""
    return Graph(12, [(u, v) for u in range(5) for v in range(u + 1, 12)])


def _rule_hosts():
    """Hosts on both sides of the rule 2*e(H) <= e(G), and exactly at it
    (K_10 and K_12 less a third of their pairs), where the complement runs."""
    hosts = [complete_graph(n) for n in range(13)]
    hosts += [complete_multipartite(a, b) for a, b in ((2, 4), (3, 2), (4, 2), (6, 2), (4, 3), (3, 4))]
    hosts += [dense_regular(n, seed) for n, seed in ((10, 1), (12, 2), (14, 3))]
    hosts += [gnp(n, p, seed) for n in (9, 10, 12) for p in (0.5, 0.7, 0.85) for seed in (41, 42)]
    hosts += [_less_edges(n, n * (n - 1) // 6 + d, 43) for n in (10, 12) for d in (-1, 0, 1)]
    hosts.append(_tutte_blocked())
    return hosts


def test_dense_rule_includes_the_tie():
    # at 2*e(H) = e(G) the complement walks fewer masks than the DP (K_22
    # less 77 pairs: a few thousand against about 26,000)
    for n in (10, 12, 22):
        at = n * (n - 1) // 6
        assert [_is_dense(_less_edges(n, at + d, 0)) for d in (-1, 0, 1)] == [True, True, False]
    # a complete graph has an empty complement at every size
    assert all(_is_dense(complete_graph(n)) for n in range(4))
    assert _is_dense(_tutte_blocked()) and not _is_dense(Graph(2, []))


def test_dense_counts_match_reference_dp_and_oracle():
    hosts = _rule_hosts()
    dense = [_is_dense(g) for g in hosts]
    assert sum(dense) >= 25 and len(hosts) - sum(dense) >= 8
    for g, on_h in zip(hosts, dense):
        full = (1 << g.n) - 1
        fast = _fresh(g)
        got = count_pm(fast)
        assert got == reference_count_on_mask(_fresh(g), full)
        if g.n <= 12:
            assert got == oracle_count(g)
        if on_h:
            # the complement's path leaves the DP memo to the DP
            assert fast._pm_cache == {}
            assert bool(fast._poly_cache) == (not _has_odd_part(g, full))
        else:
            assert fast._poly_cache == {}
    assert count_pm(_tutte_blocked()) == 0


def test_dense_containing_counts_match_reference_dp():
    rng = random.Random(8)
    for g in _rule_hosts():
        shared, slow = _fresh(g), _fresh(g)
        for forced in [[e] for e in g.edges] + [_random_matching(g, rng) for _ in range(10)]:
            mask = (1 << g.n) - 1
            for u, v in forced:
                mask ^= 1 << u | 1 << v
            want = reference_count_on_mask(slow, mask)
            # one polynomial memo shared by every call, and a fresh one
            assert count_pm_containing(shared, forced) == want
            assert count_pm_containing(_fresh(g), forced) == want
        if _is_dense(g):
            assert shared._pm_cache == {}


def test_dense_strata_match_reference():
    rng = random.Random(9)
    for g in _rule_hosts():
        # the graph itself, a random edge subset and a star share vertices
        star = [e for e in g.edges if e[0] == 0]
        for ref in strata_references(g, rng) + [star]:
            got = stratify(g, ref)
            assert got.counts == reference_stratify(g, ref).counts
            assert got.total() == count_pm(g)


def _reference_dense_count(g, mask):
    """A dense count as pm._count takes it: the parity check, then the
    complement's polynomial on g's memo."""
    if _has_odd_part(g, mask):
        return 0
    return reference_complement_count(g, mask)


def _ordered(g):
    """g relabelled by its complement's min-frontier order, the labels the
    dense kernel walks, and the map pos from g's labels to those."""
    pos = [0] * g.n
    for i, v in enumerate(reference_min_frontier_order(g)):
        pos[v] = i
    return relabel_graph(g, pos), pos


def _forced_masks(g, rng):
    """The entry mask of a containment count on every edge of g and on ten
    random forced matchings."""
    full = (1 << g.n) - 1
    for forced in [[e] for e in g.edges] + [_random_matching(g, rng) for _ in range(10)]:
        mask = full
        for u, v in forced:
            mask ^= 1 << u | 1 << v
        yield forced, mask


def test_dense_counts_and_memo_match_reference_complement_count():
    # the memo is the oracle's on g relabelled by the complement's order
    rng = random.Random(10)
    for g in filter(_is_dense, _rule_hosts()):
        fast = _fresh(g)
        slow, pos = _ordered(g)
        full = (1 << g.n) - 1
        assert count_pm(fast) == _reference_dense_count(slow, full)
        assert fast._poly_cache == slow._poly_cache
        for forced, mask in _forced_masks(g, rng):
            want = _reference_dense_count(slow, relabel_mask(mask, pos))
            assert count_pm_containing(fast, forced) == want
            assert fast._poly_cache == slow._poly_cache
        assert fast._pm_cache == {}


def test_complement_masks_are_built_once_per_graph():
    # the count, every containment count and stratify read one (masks, pos)
    rng = random.Random(11)
    for g in filter(_is_dense, _rule_hosts()):
        fast = _fresh(g)
        slow, pos = _ordered(g)
        full = (1 << g.n) - 1
        assert fast._co_masks is None
        builds = []

        def note():
            got = fast._co_masks
            if got is not None and not any(got is b for b in builds):
                builds.append(got)

        assert count_pm(fast) == _reference_dense_count(slow, full)
        note()
        for forced, mask in _forced_masks(g, rng):
            want = _reference_dense_count(slow, relabel_mask(mask, pos))
            assert count_pm_containing(fast, forced) == want
            note()
        for ref in strata_references(g, rng):
            assert stratify(fast, ref).counts == reference_stratify(g, ref).counts
            note()
        assert fast._poly_cache == slow._poly_cache
        assert len(builds) == (0 if _has_odd_part(g, full) else 1)
        if builds:
            assert builds[0] == ([full ^ m ^ 1 << v for v, m in enumerate(slow.neighbor_masks)], pos)


def test_dense_counts_leave_the_sampler_memo_alone():
    # after a draw the DP memo holds the full mask and its children, but a
    # dense count reads only its own memo, the complement's polynomials
    g = dense_regular(12, 4)
    assert _is_dense(g)
    sample_pm(g, random.Random(0))
    drawn = dict(g._pm_cache)
    full = (1 << g.n) - 1
    slow, pos = _ordered(g)
    assert count_pm(g) == _reference_dense_count(slow, full)
    for v in g.neighbors(0):
        mask = relabel_mask(full ^ (1 | 1 << v), pos)
        assert count_pm_containing(g, [(0, v)]) == _reference_dense_count(slow, mask)
    assert g._pm_cache == drawn
    assert g._poly_cache and g._poly_cache == slow._poly_cache


def test_min_frontier_order_matches_reference():
    for g in _rule_hosts() + small_zoo() + [dense_regular(n, 30 + n) for n in (16, 20, 22)]:
        masks, pos = _complement_masks(_fresh(g))
        assert sorted(pos) == list(range(g.n))
        slow, want = _ordered(g)
        assert pos == want
        full = (1 << g.n) - 1
        assert masks == [full ^ m ^ 1 << v for v, m in enumerate(slow.neighbor_masks)]


def test_min_frontier_relabel_matches_its_earlier_form():
    # the plain greedy scan against the form with an isolated-vertex
    # pre-pass, an early exit and an incremental relabel
    rng = random.Random(14)
    for i in range(1200):
        n = rng.randrange(31)
        p = (0.0, 1.0)[i] if i < 2 else rng.random()
        h = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    h[u] |= 1 << v
                    h[v] |= 1 << u
        assert _min_frontier_relabel(h) == reference_min_frontier_relabel(h)


def _relabellings(g, rng, times):
    for _ in range(times):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield relabel_graph(g, perm), perm


def test_dense_counts_do_not_depend_on_labels():
    # counts, containment counts and strata on random relabellings equal
    # the oracles on the host as given; each relabelled host orders its
    # complement once
    rng = random.Random(12)
    hosts = [g for g in _rule_hosts() if _is_dense(g) and g.n >= 4]
    hosts += [dense_regular(n, seed) for n, seed in ((12, 31), (14, 32), (16, 33))]
    for g in hosts:
        full = (1 << g.n) - 1
        slow = _fresh(g)
        total = reference_count_on_mask(slow, full)
        for moved, perm in _relabellings(g, rng, 2):
            assert count_pm(moved) == total
            built = moved._co_masks
            assert (built is None) == _has_odd_part(g, full)
            for forced, mask in _forced_masks(g, rng):
                pairs = [(perm[u], perm[v]) for u, v in forced]
                assert count_pm_containing(moved, pairs) == reference_count_on_mask(slow, mask)
            for ref in strata_references(g, rng):
                pairs = [(perm[u], perm[v]) for u, v in edge_set(ref)]
                assert stratify(moved, pairs).counts == reference_stratify(g, ref).counts
            assert moved._co_masks is built
            if built is not None:
                assert sorted(built[1]) == list(range(g.n))


def test_dense_kernel_work_does_not_depend_on_labels():
    # the complement of K_{m x 2} is a perfect matching: in its order the
    # count walks n + 1 masks under every labelling (in the given order,
    # 2,047 on one labelling of K_{10 x 2})
    rng = random.Random(13)
    for m in (3, 5, 8, 10, 13):
        g = complete_multipartite(m, 2)
        for moved, _ in _relabellings(g, rng, 4):
            count_pm(moved)
            assert len(moved._poly_cache) == g.n + 1


def test_sample_after_dense_counts_matches_oracles():
    for seed, n in enumerate((12, 14)):
        g = dense_regular(n, seed + 20)
        fast = _fresh(g)
        count_pm(fast)
        for e in fast.edges[:12]:
            count_pm_containing(fast, [e])
        stratify(fast, first_pm(fast))
        assert fast._pm_cache == {} and fast._poly_cache
        _assert_matches_oracles(fast, _fresh(g), _fresh(g), seed, draws=100)
        _assert_rows_consistent(fast)


def test_dense_hosts_at_the_cap_count_quickly():
    # K_26 and K_{13x2} at n = 26: the DP walks 196,417 and over 10^5
    # masks; the complement walks n + 1 and a few hundred
    start = time.perf_counter()
    assert count_pm(complete_graph(26)) == math.prod(range(25, 0, -2))
    cocktail = complete_multipartite(13, 2)
    assert count_pm(cocktail) == stratify(cocktail, first_pm(cocktail)).total() > 0
    assert time.perf_counter() - start < 1.0


# -- enumeration ------------------------------------------------------------

def test_enumerate_k4_exact_list():
    got = [m.pairs for m in enumerate_pm(complete_graph(4))]
    assert got == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_enumerate_c4():
    got = [m.pairs for m in enumerate_pm(cycle_graph(4))]
    assert got == [((0, 1), (2, 3)), ((0, 3), (1, 2))]


def test_enumerate_odd_empty():
    assert list(enumerate_pm(complete_graph(5))) == []


def test_enumerate_is_sorted_and_complete():
    for g in small_zoo():
        ms = list(enumerate_pm(g))
        keys = [m.pairs for m in ms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert {m.edge_set for m in ms} == set(oracle_pm_sets(g))


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr(pm, "DEFAULT_ENUM_CAP", 10)
    with pytest.raises(ResourceLimitError, match="^15 perfect matchings exceed the cap 10$"):
        list(enumerate_pm(complete_graph(6)))


def test_enumerate_cap_trips_one_past_its_value(monkeypatch):
    # the documented cap; K6 has 15 perfect matchings, listed at a cap of
    # 15 and refused at 14
    assert pm.DEFAULT_ENUM_CAP == 1_000_000
    monkeypatch.setattr(pm, "DEFAULT_ENUM_CAP", 15)
    assert len(list(enumerate_pm(complete_graph(6)))) == 15
    monkeypatch.setattr(pm, "DEFAULT_ENUM_CAP", 14)
    with pytest.raises(ResourceLimitError, match="^15 perfect matchings exceed the cap 14$"):
        list(enumerate_pm(complete_graph(6)))


def test_first_pm():
    for g in small_zoo():
        ms = list(enumerate_pm(g))
        got = first_pm(g)
        if ms:
            assert got == ms[0]
        else:
            assert got is None


def _interleaved_cliques(k):
    """Two K_k on the even and the odd labels: no perfect matching when k
    is odd, and every branch of the search dead-ends only deep down."""
    n = 2 * k
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u - v) % 2 == 0])


def _disjoint_cliques(k):
    n = 2 * k
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u < k) == (v < k)])


def test_first_pm_no_matching_interleaved_cliques_is_fast():
    # without remembering dead masks the search revisits them exponentially
    g = _interleaved_cliques(11)
    start = time.perf_counter()
    assert first_pm(g) is None
    assert time.perf_counter() - start < 1.0


def test_enumerate_no_matching_interleaved_cliques_is_fast():
    g = _interleaved_cliques(11)
    start = time.perf_counter()
    assert list(enumerate_pm(g)) == []
    assert time.perf_counter() - start < 1.0


def _search_hosts():
    hosts = small_zoo()
    hosts += [complete_graph(8), complete_graph(10), complete_multipartite(4, 2), cycle_graph(10)]
    hosts += [gnp(10, p, s) for p in (0.3, 0.6) for s in range(6)]
    hosts += [Graph(0, []), complete_graph(7), _interleaved_cliques(5), _interleaved_cliques(7)]
    return hosts + disconnected_hosts()


def test_enumerate_matches_reference():
    hosts = _search_hosts()
    assert sum(count_pm(g) == 0 for g in hosts) >= 4
    for g in hosts:
        got = list(enumerate_pm(g))
        assert [m.pairs for m in got] == [m.pairs for m in reference_enumerate_pm(g)]
        for m in got:
            assert m == Matching(m.pairs) and m.edge_set == frozenset(m.pairs)


def test_first_pm_matches_reference():
    for g in _search_hosts() + [_disjoint_cliques(19)]:
        got, want = first_pm(g), reference_first_pm(g)
        assert (None if got is None else got.pairs) == (None if want is None else want.pairs)


def _bridged_triangles():
    """Two triangles joined by the edge (2, 3): connected and even, with one
    perfect matching, and matching 0 to 2 first leaves vertex 1 stranded,
    so the search meets a dead mask before its second branch ends."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_search_keys_decode_to_the_reference_listing():
    # one bit u*n + v per edge; decoded, the keys are the reference's
    # matchings in its order, on hosts whose search skips dead masks
    hosts = _search_hosts() + [_bridged_triangles()]
    assert [m.pairs for m in reference_enumerate_pm(_bridged_triangles())] == [
        ((0, 1), (2, 3), (4, 5))
    ]
    for g in hosts:
        want = [m.pairs for m in reference_enumerate_pm(g)]
        keys = list(pm._search(g.neighbor_masks))
        assert keys == [sum(1 << (u * g.n + v) for u, v in pairs) for pairs in want], g
        assert [pm._decode(key, g.n).pairs for key in keys] == want, g


@pytest.mark.parametrize("k, want", [(19, None), (20, [(2 * i, 2 * i + 1) for i in range(20)])])
def test_first_pm_past_the_counting_cap_neither_counts_nor_lists(monkeypatch, k, want):
    # two disjoint K19 (n = 38) or K20 (n = 40): past the counting cap, so
    # a count would refuse; the odd-component check or the first leaf of
    # the search answers
    g = _disjoint_cliques(k)
    assert g.n > pm.DEFAULT_DP_LIMIT

    def refuse(*args):
        raise AssertionError("first_pm counted")

    for name in ("count_pm", "_count_on_mask", "_dp_count", "_complement_strata"):
        monkeypatch.setattr(pm, name, refuse)
    got = first_pm(g)
    assert (None if got is None else list(got.pairs)) == want
    assert g._pm_keys is None


def test_the_key_list_is_made_once_per_graph_and_never_by_first_pm(monkeypatch):
    searches = []
    search = pm._search

    def counted(masks):
        searches.append(masks)
        return search(masks)

    monkeypatch.setattr(pm, "_search", counted)
    g = complete_graph(8)
    assert first_pm(g) == Matching([(0, 1), (2, 3), (4, 5), (6, 7)])
    assert g._pm_keys is None and len(searches) == 1
    listed = list(enumerate_pm(g))
    keys = g._pm_keys
    assert len(listed) == len(keys) == 105 and len(searches) == 2
    assert list(enumerate_pm(g)) == listed and g._pm_keys is keys and len(searches) == 2
    assert first_pm(g) == listed[0] and g._pm_keys is keys and len(searches) == 3
    # the cap is checked on every listing, and a refused one keeps no list
    monkeypatch.setattr(pm, "DEFAULT_ENUM_CAP", 104)
    fresh = complete_graph(8)
    for host in (g, fresh):
        with pytest.raises(ResourceLimitError, match="^105 perfect matchings exceed the cap 104$"):
            next(enumerate_pm(host))
    assert fresh._pm_keys is None and len(searches) == 3


def _set_caps(monkeypatch, kwargs):
    """Set pm's cap constants from the keywords the oracles take: `limit`
    is DEFAULT_DP_LIMIT, `cap` DEFAULT_ENUM_CAP."""
    constant = {"limit": "DEFAULT_DP_LIMIT", "cap": "DEFAULT_ENUM_CAP"}
    for key, value in kwargs.items():
        monkeypatch.setattr(pm, constant[key], value)


# the last part of each case id names the check that fires
@pytest.mark.parametrize(
    "g,kwargs,message",
    [
        (complete_graph(6), {"limit": 4}, "^n=6 above the counting cap 4$"),
        (_disjoint_cliques(19), {}, "^n=38 above the counting cap 26$"),
        (complete_graph(6), {"cap": 10}, "^15 perfect matchings exceed the cap 10$"),
    ],
    ids=["g0-kwargs0-TooLargeError", "g1-kwargs1-TooLargeError", "g2-kwargs2-TooManyMatchingsError"],
)
def test_enumerate_errors_match_reference(monkeypatch, g, kwargs, message):
    _set_caps(monkeypatch, kwargs)
    with pytest.raises(ResourceLimitError, match=message) as fast:
        list(enumerate_pm(g))
    with pytest.raises(ResourceLimitError, match=message) as slow:
        list(reference_enumerate_pm(g, **kwargs))
    assert str(fast.value) == str(slow.value)


# -- forced edges -----------------------------------------------------------

def test_count_containing_known():
    assert count_pm_containing(complete_graph(4), [(0, 1)]) == 1
    assert count_pm_containing(complete_graph(6), [(0, 1)]) == 3
    assert count_pm_containing(complete_multipartite(3, 2), [(0, 2)]) == 2


def test_count_containing_errors():
    with pytest.raises(MatchlabError, match=r"^edge \(0, 2\) not in graph$"):
        count_pm_containing(cycle_graph(4), [(0, 2)])
    with pytest.raises(MatchlabError, match="^forced edges reuse vertex 1$"):
        count_pm_containing(complete_graph(6), [(0, 1), (1, 2)])
    # the first vertex met twice in sorted edge order, whatever order the
    # edges come in
    for forced in ([(0, 1), (1, 2), (2, 3)], [(2, 3), (1, 2), (0, 1)], [(3, 2), (2, 1), (1, 0)]):
        with pytest.raises(MatchlabError, match="^forced edges reuse vertex 1$"):
            count_pm_containing(complete_graph(6), forced)


@pytest.mark.parametrize("forced, bad", [([(0, 1), (1, 2), (3, 5)], (3, 5)), ([(0, 1), (1, 2), (3, 0)], (0, 3))])
def test_count_containing_names_an_outside_edge_before_a_reused_vertex(forced, bad):
    with pytest.raises(MatchlabError, match=rf"^edge \({bad[0]}, {bad[1]}\) not in graph$"):
        count_pm_containing(cycle_graph(6), forced)


def test_every_pm_uses_vertex_once():
    # summing forced-edge counts over the edges at one vertex recovers the
    # full count
    for g in small_zoo():
        total = count_pm(g)
        if g.n == 0:
            continue
        u = 0
        s = sum(count_pm_containing(g, [(u, v)]) for v in g.neighbors(u))
        if g.n % 2 == 0:
            assert s == total if g.neighbors(u) else total == 0
        else:
            assert s == 0


# -- sampling ---------------------------------------------------------------

def test_sample_unique_pm_graph():
    g = Graph(4, [(0, 1), (2, 3)])
    rng = random.Random(0)
    only = Matching([(0, 1), (2, 3)])
    for _ in range(20):
        assert sample_pm(g, rng) == only


def test_sample_no_pm():
    with pytest.raises(NoPerfectMatchingError):
        sample_pm(cycle_graph(5), random.Random(0))


def test_sample_c4_balance():
    g = cycle_graph(4)
    rng = random.Random(42)
    counts = Counter(sample_pm(g, rng).pairs for _ in range(2000))
    assert set(counts) == {((0, 1), (2, 3)), ((0, 3), (1, 2))}
    assert abs(counts[((0, 1), (2, 3))] - 1000) < 150


def test_sample_frequencies_track_exact_ratios():
    g = gnp(8, 0.6, seed=21)
    total = count_pm(g)
    assert total > 1
    rng = random.Random(7)
    draws = 4000
    counts = Counter(sample_pm(g, rng).edge_set for _ in range(draws))
    for m in enumerate_pm(g):
        expected = draws / total
        assert abs(counts[m.edge_set] - expected) < 6 * (draws / total) ** 0.5 + 30


def _sampler_hosts():
    hosts = [g for g in small_zoo() if count_pm(g) > 0]
    hosts += [gnp(12, 0.5, 31), gnp(14, 0.4, 32), gnp(16, 0.6, 33)]
    hosts.append(Graph(0, []))
    return hosts


def _fresh(g):
    return Graph(g.n, g.edges)


def _assert_matches_oracles(fast, scan, slow, seed, draws=200):
    """sample_pm on `fast`, the scan-loop oracle on `scan` and the
    reference oracle on `slow`, each with its own Random(seed): the same
    draws and the same final rng state.  Returns the draws."""
    rngs = [random.Random(seed) for _ in range(3)]
    drawn = []
    for _ in range(draws):
        m = sample_pm(fast, rngs[0])
        assert scan_sample_pm(scan, rngs[1]) == m
        assert reference_sample_pm(slow, rngs[2]) == m
        drawn.append(m)
    assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
    return drawn


def _assert_child_steps(g):
    """g's shared step table holds, for each vertex u, exactly the steps to
    its neighbours v > u, each the edge id u*n + v and the clear bits
    1 << u | 1 << v."""
    for u, steps in enumerate(g._draw_steps):
        assert len(steps) == g.n
        partners = [v for v, step in enumerate(steps) if step is not None]
        assert partners == [v for v in g.neighbors(u) if v > u]
        assert all(steps[v] == (u * g.n + v, 1 << u | 1 << v) for v in partners)


def _assert_rows_consistent(g, cums_type=array):
    """Every record of g's row memo holds its mask's count and the count's
    bit length; its cumulative counts end at that count and rise strictly,
    each step by the memo count of one child; its partners, a byte string
    below 256 and an array('I') past it, are exactly the neighbours v of
    the mask's lowest vertex u whose child has a perfect matching, in
    increasing order; and its steps are u's entry in the graph's shared
    step table (checked by _assert_child_steps), so every child step is
    the graph's own object."""
    if g._draw_rows:
        _assert_child_steps(g)
    for mask, (count, k, cums, partners, steps) in g._draw_rows.items():
        assert type(cums) is cums_type and (cums_type is list or cums.typecode == "q")
        if partners[-1] < 256:
            assert type(partners) is bytes
        else:
            assert type(partners) is array and partners.typecode == "I"
        assert count == g._pm_cache[mask]
        assert k == count.bit_length()
        assert cums[-1] == count
        assert all(a < b for a, b in zip(cums, cums[1:]))
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ 1 << u
        children = {}
        for v in g.neighbors(u):
            child = rest ^ 1 << v
            if rest >> v & 1:
                children[v] = g._pm_cache[child] if child else 1
        assert list(partners) == [v for v, c in sorted(children.items()) if c]
        assert [b - a for a, b in zip([0, *cums], cums)] == [children[v] for v in partners]
        assert steps is g._draw_steps[u]


def test_sample_matches_reference_sampler():
    hosts = _sampler_hosts()
    assert len(hosts) > 10 and any(count_pm(g) > 100 for g in hosts)
    for seed, g in enumerate(hosts):
        fast = _fresh(g)
        _assert_matches_oracles(fast, _fresh(g), _fresh(g), seed)
        _assert_rows_consistent(fast)


def test_sample_matches_oracles_on_dense_regular_hosts():
    for seed, n in enumerate((12, 14, 16, 18, 20)):
        g = dense_regular(n, seed)
        assert set(g.degrees()) == {n - 4}
        fast = _fresh(g)
        _assert_matches_oracles(fast, _fresh(g), _fresh(g), seed, draws=300)
        _assert_rows_consistent(fast)


def _decoded_draws(g, rng, count):
    """The stream of _draws on g, each draw checked to be n/2 increasing
    edge ids and decoded by the validating Matching constructor."""
    n = g.n
    for ids in _draws(g, rng, count):
        assert len(ids) == n // 2 and ids == sorted(set(ids))
        yield Matching([divmod(i, n) for i in ids])


@pytest.mark.parametrize("dense", [False, True], ids=["zoo", "dense_regular"])
def test_draw_stream_matches_the_sampler_oracles(dense):
    # the generator's decoded draws are the scan and reference oracles'
    # draws, one for one, and every rng ends in the same state
    if dense:
        hosts = [dense_regular(n, seed) for seed, n in enumerate((12, 16, 20))]
    else:
        hosts = _sampler_hosts()
    for seed, g in enumerate(hosts):
        fast, scan, slow = _fresh(g), _fresh(g), _fresh(g)
        rngs = [random.Random(seed) for _ in range(3)]
        drawn = list(_decoded_draws(fast, rngs[0], 150))
        assert len(drawn) == 150
        assert drawn == [scan_sample_pm(scan, rngs[1]) for _ in drawn]
        assert drawn == [reference_sample_pm(slow, rngs[2]) for _ in drawn]
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
        _assert_rows_consistent(fast)


def test_draw_stream_is_lazy():
    # the checks and every draw wait for the consumer: an unread stream
    # moves no rng and counts nothing, and reading three draws of a
    # stream of 10**12 takes three draws
    g = complete_graph(8)
    rng = random.Random(5)
    stream = _draws(g, rng, 10**12)
    assert rng.getstate() == random.Random(5).getstate() and g._pm_cache == {}
    first = [next(stream) for _ in range(3)]
    oracle = random.Random(5)
    assert [Matching([divmod(i, 8) for i in ids]) for ids in first] == [
        scan_sample_pm(_fresh(g), oracle) for _ in first
    ]
    assert rng.getstate() == oracle.getstate()
    assert list(_draws(complete_graph(6), random.Random(0), 0)) == []


def test_sample_builds_rows_only_for_visited_masks():
    g = complete_graph(6)
    assert g._draw_steps is None
    drawn = sample_pm(g, random.Random(3))
    full = (1 << 6) - 1
    visited, mask = [], full
    for u, v in drawn.pairs:
        visited.append(mask)
        mask ^= 1 << u | 1 << v
    assert sorted(g._draw_rows) == sorted(visited)
    count, k, cums, partners, steps = g._draw_rows[full]
    assert (count, k) == (15, 4)
    assert list(cums) == [3, 6, 9, 12, 15] and partners == bytes(range(1, 6))
    assert steps is g._draw_steps[0]
    assert steps[1:] == [(v, 1 | 1 << v) for v in range(1, 6)]
    _assert_rows_consistent(g)
    # a second draw reuses the table and every record it reaches again
    table, records = g._draw_steps, dict(g._draw_rows)
    sample_pm(g, random.Random(4))
    assert g._draw_steps is table
    assert all(g._draw_rows[mask] is record for mask, record in records.items())
    _assert_rows_consistent(g)


def test_draw_row_falls_back_to_a_list_past_63_bits():
    # K4: the full mask's children, for v = 1, 2, 3, are the masks 0b1100,
    # 0b1010 and 0b0110; the memo below is synthetic
    g = complete_graph(4)
    cache = g._pm_cache
    cache.update({0b1100: 2**62, 0b1010: 0, 0b0110: 2**63 - 1 - 2**62})
    cums, partners = _draw_row(g, 0b1111)
    assert isinstance(cums, array) and cums.typecode == "q" and list(cums) == [2**62, 2**63 - 1]
    assert partners == bytes([1, 3])
    cache[0b0110] += 1
    cums, partners = _draw_row(g, 0b1111)
    assert type(cums) is list and cums == [2**62, 2**63]
    assert partners == bytes([1, 3])
    cache.update({0b1100: 2**70, 0b0110: 5})
    assert _draw_row(g, 0b1111) == ([2**70, 2**70 + 5], bytes([1, 3]))
    cache[0b1111] = 2**70 + 5
    count, k, cums, partners, steps = _draw_record(g, 0b1111)
    assert (count, k) == (2**70 + 5, 71)
    assert cums == [2**70, 2**70 + 5] and partners == bytes([1, 3])
    assert steps is g._draw_steps[0]


def test_sample_with_list_rows_matches_oracles():
    # the rows a graph past 63 bits would hold, on a host small enough to
    # check: every row a list, the draws unchanged
    for seed, g in enumerate([dense_regular(16, 5), gnp(12, 0.6, 37), complete_graph(10)]):
        fast = _fresh(g)
        _count_on_mask(fast, (1 << g.n) - 1)
        for mask, c in fast._pm_cache.items():
            if c:
                count, k, cums, partners, steps = _draw_record(fast, mask)
                fast._draw_rows[mask] = (count, k, list(cums), partners, steps)
        before = dict(fast._draw_rows)
        _assert_matches_oracles(fast, _fresh(g), _fresh(g), seed)
        assert fast._draw_rows == before
        _assert_rows_consistent(fast, cums_type=list)


def _path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def _relabel(g, seed, block=None):
    """g with its labels shuffled as a whole, or inside each run of
    `block` consecutive labels.  A path relabelled in runs of 6 keeps the
    lowest-vertex DP to a few hundred masks; shuffled as a whole, a
    96-vertex path already takes 31 million masks."""
    rng = random.Random(seed)
    step = block or g.n
    perm = []
    for lo in range(0, g.n, step):
        run = list(range(lo, min(lo + step, g.n)))
        rng.shuffle(run)
        perm += run
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# A path has one perfect matching, so every mask a draw reaches counts 1;
# on a cycle only the full mask counts 2 and every later one counts 1.
_COUNT_ONE_HOSTS = {
    "path_16_relabelled": (_relabel(_path(16), 5), 1),
    "cycle_14_relabelled": (_relabel(cycle_graph(14), 6), 2),
}


@pytest.mark.parametrize("g,total", _COUNT_ONE_HOSTS.values(), ids=_COUNT_ONE_HOSTS)
def test_sample_draws_the_randrange_stream_on_count_one_masks(g, total):
    # randrange(1) still takes one getrandbits(1), so a step on a mask
    # with one perfect matching moves the rng as the scan oracle's does
    assert count_pm(g) == total
    fast = _fresh(g)
    drawn = _assert_matches_oracles(fast, _fresh(g), _fresh(g), 13, draws=60)
    assert len(set(drawn)) == total
    counts = [record[0] for record in fast._draw_rows.values()]
    assert counts.count(1) >= g.n // 2 - 1 and max(counts) == total
    _assert_rows_consistent(fast)


def test_sample_past_256_vertices_keeps_wide_partners(monkeypatch):
    # a partner from 256 up does not fit a byte: its row holds an
    # array('I'), the others a byte string, and the draws do not move;
    # rows end at partners 255 and 256, on both sides of the switch
    g = _relabel(_path(300), 3, block=6)
    monkeypatch.setattr(pm, "DEFAULT_DP_LIMIT", g.n)
    fast, scan = _fresh(g), _fresh(g)
    rngs = [random.Random(19) for _ in range(2)]
    for _ in range(5):
        assert sample_pm(fast, rngs[0]) == scan_sample_pm(scan, rngs[1], limit=g.n)
    assert rngs[0].getstate() == rngs[1].getstate()
    assert {type(record[3]) for record in fast._draw_rows.values()} == {bytes, array}
    assert {255, 256} <= {record[3][-1] for record in fast._draw_rows.values()}
    _assert_rows_consistent(fast)


def test_sample_after_partial_memo_matches_reference():
    # a containment count fills the memo below one forced edge first; the
    # full count must still leave every mask the walk reads memoised
    g = gnp(12, 0.6, 34)
    u, v = g.edges[0]
    fast, scan, slow = _fresh(g), _fresh(g), _fresh(g)
    count_pm_containing(fast, [(u, v)])
    count_pm_containing(scan, [(u, v)])
    _assert_matches_oracles(fast, scan, slow, 9)
    _assert_rows_consistent(fast)


def _with_pendant(g):
    """g plus an edge (0, 1) and a new vertex hung on vertex 1, so every
    perfect matching uses the pendant edge, and forcing (0, 1) strands the
    new vertex: that count is cut short at a child of the full mask."""
    return Graph(g.n + 1, list(g.edges) + [(0, 1), (1, g.n)])


def test_sample_after_short_circuited_containment_matches_reference():
    dense = dense_regular(16, 38)
    hosts = [gnp(11, 0.6, 35), gnp(13, 0.5, 36), complete_graph(9)]
    hosts.append(Graph(15, [e for e in dense.edges if 15 not in e]))
    for seed, host in enumerate(hosts):
        g = _with_pendant(host)
        fast, scan, slow = _fresh(g), _fresh(g), _fresh(g)
        child = (1 << g.n) - 1 ^ 0b11
        assert count_pm_containing(_fresh(g), [(0, 1)]) == 0
        for h in (fast, scan):
            assert _count_on_mask(h, child) == 0
            assert h._pm_cache == {child: 0}
        assert count_pm(fast) == reference_count_on_mask(slow, (1 << g.n) - 1) > 0
        for drawn in _assert_matches_oracles(fast, scan, slow, seed):
            assert (1, g.n - 1) in drawn
        _assert_rows_consistent(fast)


@pytest.mark.parametrize(
    "g,limit,error,message",
    [
        (complete_graph(6), 4, ResourceLimitError, "^n=6 above the counting cap 4$"),
        (cycle_graph(5), 26, NoPerfectMatchingError, "^graph has no perfect matching$"),
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), 26, NoPerfectMatchingError, "^graph has no perfect matching$"),
    ],
    ids=["g0-4-TooLargeError", "g1-26-NoPerfectMatchingError", "g2-26-NoPerfectMatchingError"],
)
def test_sample_errors_match_reference(monkeypatch, g, limit, error, message):
    monkeypatch.setattr(pm, "DEFAULT_DP_LIMIT", limit)
    samplers = (sample_pm, partial(scan_sample_pm, limit=limit), partial(reference_sample_pm, limit=limit))
    rngs = [random.Random(1) for _ in range(3)]
    messages = []
    for sampler, rng in zip(samplers, rngs):
        with pytest.raises(error, match=message) as got:
            sampler(_fresh(g), rng)
        messages.append(str(got.value))
    assert len(set(messages)) == 1
    assert all(rng.getstate() == random.Random(1).getstate() for rng in rngs)


# -- stratification ----------------------------------------------------------

def test_stratify_k4_single_edge():
    s = stratify(complete_graph(4), [(0, 1)])
    assert s.counts == {0: 2, 1: 1}


def test_stratify_k4_perfect_matching():
    s = stratify(complete_graph(4), [(0, 1), (2, 3)])
    assert s.counts == {0: 2, 1: 0, 2: 1}


def test_stratify_empty_reference():
    for g in small_zoo():
        s = stratify(g, [])
        assert s.counts == {0: count_pm(g)}
        assert s.total() == count_pm(g)


def test_stratify_against_enumeration():
    rng = random.Random(5)
    for g in small_zoo():
        if g.m == 0:
            continue
        edges = list(g.edges)
        ref = rng.sample(edges, min(3, len(edges)))
        s = stratify(g, ref)
        oracle = Counter(
            len(m & frozenset(ref)) for m in oracle_pm_sets(g)
        )
        assert s.counts == {k: oracle.get(k, 0) for k in range(max(s.counts) + 1)}
        assert s.total() == count_pm(g)


def test_stratify_double_count_identity():
    # pairs (matching, shared edge) counted two ways
    for g in small_zoo():
        if g.m == 0 or g.n % 2:
            continue
        ref = list(g.edges)[:4]
        ref_matching = [e for i, e in enumerate(ref) if all(
            not set(e) & set(f) for f in ref[:i])]
        s = stratify(g, ref_matching)
        lhs = sum(k * c for k, c in s.counts.items())
        rhs = sum(count_pm_containing(g, [e]) for e in ref_matching)
        assert lhs == rhs


def test_stratify_reference_must_be_subset():
    with pytest.raises(MatchlabError, match=r"^reference edge \(0, 2\) not in graph$"):
        stratify(cycle_graph(4), [(0, 2)])


def test_strata_json_shape():
    s = stratify(complete_graph(4), [(0, 1)])
    assert s.counts == {0: 2, 1: 1}


def test_stratify_matches_reference():
    rng = random.Random(7)
    hosts = strata_hosts()
    assert sum(count_pm(g) == 0 for g in hosts) >= 4
    for g in hosts:
        for ref in strata_references(g, rng):
            assert stratify(g, ref).counts == reference_stratify(g, ref).counts


@pytest.mark.parametrize("n,kwargs,cap", [(6, {"limit": 4}, 4), (28, {}, 26)])
def test_count_pm_containing_refuses_a_host_past_its_cap(monkeypatch, n, kwargs, cap):
    _set_caps(monkeypatch, kwargs)
    with pytest.raises(ResourceLimitError, match=rf"^n={n} above the counting cap {cap}$"):
        count_pm_containing(complete_graph(n), [(0, 1)])


@pytest.mark.parametrize(
    "g,ref,kwargs,error,message",
    [
        (complete_graph(6), [(0, 1)], {"limit": 4}, ResourceLimitError, "^n=6 above the counting cap 4$"),
        (cycle_graph(4), [(0, 1), (0, 2)], {}, MatchlabError, r"^reference edge \(0, 2\) not in graph$"),
    ],
    ids=["g0-ref0-kwargs0-TooLargeError", "g1-ref1-kwargs1-EdgeNotPresentError"],
)
def test_stratify_errors_match_reference(monkeypatch, g, ref, kwargs, error, message):
    _set_caps(monkeypatch, kwargs)
    with pytest.raises(error, match=message) as fast:
        stratify(g, ref)
    with pytest.raises(error, match=message) as slow:
        reference_stratify(g, ref, **kwargs)
    assert str(fast.value) == str(slow.value)
