import random
from fractions import Fraction

import pytest

from conftest import (
    directed_cycle,
    gnp,
    reference_certify_exact,
    reference_refute_sampled,
    reference_robust_count,
    reference_sweep,
    two_triangles,
)
from matchlab import expansion
from matchlab.errors import MatchlabError, ResourceLimitError
from matchlab.expansion import (
    ExpansionParams,
    Verdict,
    certify_bipartite,
    certify_exact,
    refute_sampled,
    robust_neighbourhood,
)
from matchlab.graphs import (
    Bipartition,
    Digraph,
    Graph,
    complete_digraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    to_bidirected,
)


def test_params_validation():
    p = ExpansionParams(0.1, 0.3)
    assert p.nu == Fraction(1, 10) and p.tau == Fraction(3, 10)
    with pytest.raises(MatchlabError, match="^nu and tau must lie strictly between 0 and 1$"):
        ExpansionParams(0, 0.5)
    with pytest.raises(MatchlabError, match="^nu and tau must lie strictly between 0 and 1$"):
        ExpansionParams(0.5, 1)
    with pytest.raises(MatchlabError, match="^nu and tau must lie strictly between 0 and 1$"):
        ExpansionParams(0.5, 0)


# -- robust neighbourhoods ----------------------------------------------------

def test_rn_complete_graph():
    g = complete_graph(6)
    assert robust_neighbourhood(g, [0, 1], 0.1) == frozenset(range(6))


def test_rn_empty_set():
    assert robust_neighbourhood(complete_graph(6), [], 0.1) == frozenset()
    assert robust_neighbourhood(complete_digraph(6), [], 0.1) == frozenset()


def test_rn_two_triangles():
    g = two_triangles()
    assert robust_neighbourhood(g, [0, 1, 2], 0.1) == frozenset({0, 1, 2})


def test_rn_matches_per_vertex_scan():
    rng = random.Random(3)
    for seed in range(5):
        g = gnp(9, 0.4, seed=seed)
        s = rng.sample(range(9), 4)
        nu = Fraction(rng.randint(1, 3), 9)
        got = robust_neighbourhood(g, s, nu)
        want = {
            v
            for v in range(9)
            if len(set(g.neighbors(v)) & set(s)) >= nu * 9
        }
        assert got == frozenset(want)
    # each vertex's packed field, on every size in PACKED_SIZES and every need 0..n
    for n in PACKED_SIZES:
        for obj in (gnp(n, 0.6, n), _random_digraph(n, 0.6, n)):
            masks = expansion._in_masks(obj)
            for need in range(n + 1):
                subset = rng.sample(range(n), rng.randint(0, n))
                smask = sum(1 << u for u in subset)
                want = {v for v in range(n) if (masks[v] & smask).bit_count() >= need}
                assert robust_neighbourhood(obj, subset, Fraction(need, n)) == frozenset(want), (n, need)


def test_rn_monotone_in_subset():
    g = gnp(10, 0.5, seed=8)
    rng = random.Random(1)
    for _ in range(10):
        small = set(rng.sample(range(10), 3))
        big = small | set(rng.sample(range(10), 3))
        assert robust_neighbourhood(g, small, 0.2) <= robust_neighbourhood(g, big, 0.2)


def test_out_rn_complete_digraph():
    d = complete_digraph(6)
    assert robust_neighbourhood(d, [0, 1], 0.1) == frozenset(range(6))


@pytest.mark.parametrize("v", [-1, 6])
def test_rn_rejects_vertex_out_of_range(v):
    with pytest.raises(MatchlabError, match=f"^vertex {v} outside 0..5$"):
        robust_neighbourhood(complete_graph(6), [0, v], 0.1)
    with pytest.raises(MatchlabError, match=f"^vertex {v} outside 0..5$"):
        robust_neighbourhood(complete_digraph(6), [v], 0.1)


def test_out_rn_directed_cycle():
    d = directed_cycle(6)
    assert robust_neighbourhood(d, [0, 1, 2], 0.1) == frozenset({1, 2, 3})


@pytest.mark.parametrize("nu", [Fraction(7, 6), 2, 1000])
def test_rn_nu_above_one_is_empty(nu):
    # nu*n > n neighbours are more than any vertex has
    for obj in (complete_graph(6), complete_digraph(6)):
        assert robust_neighbourhood(obj, range(6), nu) == frozenset()
    # nu <= 0 needs no neighbour, so every vertex is robust
    assert robust_neighbourhood(directed_cycle(5), [], 1 - nu) == frozenset(range(5))


# -- exact certification ------------------------------------------------------

def test_k6_passes():
    cert = certify_exact(complete_graph(6), ExpansionParams(0.1, 0.3))
    assert cert.verdict is Verdict.PASS
    assert cert.witness is None
    assert cert.sets_checked == 50  # sizes 2, 3, 4


def test_two_triangles_fail_with_lex_first_witness():
    cert = certify_exact(two_triangles(), ExpansionParams(0.1, 0.3))
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == (0, 1, 2)


def test_k4_small_window_passes():
    cert = certify_exact(complete_graph(4), ExpansionParams(0.1, 0.5))
    assert cert.verdict is Verdict.PASS


def test_fail_witness_revalidates():
    g = two_triangles()
    p = ExpansionParams(0.1, 0.3)
    cert = certify_exact(g, p)
    rn = robust_neighbourhood(g, cert.witness, p.nu)
    assert len(rn) < len(cert.witness) + p.nu * g.n


def test_monotone_in_nu():
    g = complete_multipartite(3, 2)
    tau = Fraction(1, 3)
    grid = [Fraction(k, 30) for k in range(1, 12)]
    passing = [nu for nu in grid if
               certify_exact(g, ExpansionParams(nu, tau)).verdict is Verdict.PASS]
    if passing:
        top = max(passing)
        assert all(nu in passing for nu in grid if nu <= top)


def test_complete_graphs_pass_tiny_nu():
    for n in (5, 6, 8):
        g = complete_graph(n)
        nu = Fraction(1, n)
        for tau_num in range(2, n // 2 + 1):
            tau = Fraction(tau_num, n)
            cert = certify_exact(g, ExpansionParams(nu, tau))
            assert cert.verdict is Verdict.PASS, (n, tau)


def test_exact_sweep_cap(monkeypatch):
    monkeypatch.setattr(expansion, "DEFAULT_SWEEP_LIMIT", 6)
    with pytest.raises(ResourceLimitError, match="^n=8 above the sweep cap 6$"):
        certify_exact(complete_graph(8), ExpansionParams(0.1, 0.3))


# kwargs: the module constants to set before the sweep
@pytest.mark.parametrize("side,kwargs,cap", [(4, {"DEFAULT_SWEEP_LIMIT": 3}, 3), (25, {}, 24)])
def test_bipartite_sweep_cap(monkeypatch, side, kwargs, cap):
    for name, value in kwargs.items():
        monkeypatch.setattr(expansion, name, value)
    g = complete_multipartite(2, side)
    part = Bipartition(range(side), range(side, 2 * side))
    with pytest.raises(ResourceLimitError, match=rf"^side size {side} above the sweep cap {cap}$"):
        certify_bipartite(g, part, ExpansionParams(0.1, 0.3))


def test_bipartite_sweep_accepts_a_side_at_the_cap(monkeypatch):
    monkeypatch.setattr(expansion, "DEFAULT_SWEEP_LIMIT", 4)
    part = Bipartition(range(4), range(4, 8))
    cert = certify_bipartite(complete_multipartite(2, 4), part, ExpansionParams(0.1, 0.3))
    assert cert.verdict is Verdict.PASS


def test_digraph_certification():
    cert = certify_exact(complete_digraph(6), ExpansionParams(Fraction(1, 3), Fraction(1, 3)))
    assert cert.verdict is Verdict.PASS
    bad = directed_cycle(6)
    cert2 = certify_exact(bad, ExpansionParams(Fraction(1, 3), Fraction(1, 3)))
    assert cert2.verdict is Verdict.FAIL


# -- differential: the sweep against the generator-and-closure oracle ---------

def _random_digraph(n, p, seed):
    rng = random.Random(seed)
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])


def _random_bipartite(side, p, seed):
    rng = random.Random(seed)
    order = list(range(2 * side))
    rng.shuffle(order)
    a, b = order[:side], order[side:]
    g = Graph(2 * side, [(u, v) for u in a for v in b if rng.random() < p])
    return g, Bipartition(a, b)


DIFF_PARAMS = ExpansionParams(Fraction(1, 10), Fraction(3, 10))


def test_exact_sweep_matches_reference_on_gnp():
    for n in range(13):
        for p in (0.3, 0.6, 0.9):
            g = gnp(n, p, 100 * n + int(10 * p))
            for obj in (g, to_bidirected(g)):
                assert certify_exact(obj, DIFF_PARAMS) == reference_certify_exact(obj, DIFF_PARAMS), (n, p)


def test_exact_sweep_matches_reference_on_random_digraphs():
    for n in range(2, 11):
        for s in range(3):
            d = _random_digraph(n, 0.4 + 0.2 * s, 7 * n + s)
            assert certify_exact(d, DIFF_PARAMS) == reference_certify_exact(d, DIFF_PARAMS), (n, s)


def test_bipartite_sweep_matches_reference():
    for side in range(1, 11):
        for s in range(4):
            g, part = _random_bipartite(side, 0.5 + 0.15 * s, 31 * side + s)
            want = reference_sweep(g.neighbor_masks, sorted(part.side_a), side, DIFF_PARAMS)
            assert certify_bipartite(g, part, DIFF_PARAMS) == want, (side, s)


# -- the packed robust counter against the per-vertex loop ---------------------

PACKED_SIZES = [1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64]


def _packed_counts_match_reference(masks, universe, scale, rng):
    """For every need in 0..scale, the packed counter of random subsets of
    `universe` (the empty set and the whole universe included) holds the
    set in its low bits, and its robust count is that of the per-vertex
    loop."""
    n = len(masks)
    sets = [[], list(universe)] + [rng.sample(universe, rng.randint(1, len(universe))) for _ in range(4)]
    for need in range(scale + 1):
        cols, base, high = expansion._packed(masks, need)
        for chosen in sets:
            smask = sum(1 << u for u in chosen)
            acc = base + sum(cols[u] for u in chosen)
            assert acc & ((1 << n) - 1) == smask
            want = reference_robust_count(masks, smask, need)
            assert expansion._robust_count(acc, high) == want, (n, need, chosen)


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_count_matches_loop_on_graphs_and_digraphs(n):
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.9):
        g = gnp(n, p, 1000 * n + int(10 * p))
        d = _random_digraph(n, p, 1000 * n + int(10 * p))
        for obj in (g, d):
            _packed_counts_match_reference(expansion._in_masks(obj), list(range(n)), n, rng)


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_count_matches_robust_neighbourhood(n):
    # the two share no code: robust_neighbourhood reads each vertex's own
    # mask, the packed counter one int per set; need runs from 0, where
    # every vertex is robust, to n + 1, where none is
    rng = random.Random(n)
    for obj in (gnp(n, 0.5, 7 * n), _random_digraph(n, 0.5, 7 * n)):
        masks = expansion._in_masks(obj)
        sets = [[], list(range(n))] + [rng.sample(range(n), rng.randint(1, n)) for _ in range(4)]
        for need in range(n + 2):
            cols, base, high = expansion._packed(masks, need)
            for chosen in sets:
                want = len(robust_neighbourhood(obj, chosen, Fraction(need, n)))
                if need == 0:
                    assert want == n
                elif need > n:
                    assert want == 0
                acc = base + sum(cols[u] for u in chosen)
                assert expansion._robust_count(acc, high) == want, (n, need, chosen)


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_count_matches_loop_on_bipartite_universes(n):
    # sets range over one side and need over 0..side, at the side's scale
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    side_a = sorted(order[: (n + 1) // 2])
    for p in (0.3, 0.8):
        g = Graph(n, [(u, v) for u in side_a for v in order[(n + 1) // 2:] if rng.random() < p])
        _packed_counts_match_reference(g.neighbor_masks, side_a, len(side_a), rng)


# -- monotone pruning: subtrees whose robust count covers the window -----------

def _calls_to_robust_count(monkeypatch, n):
    """Record the vertex mask of every set the sweep counts: the low n
    bits of its packed counter."""
    calls = []
    real = expansion._robust_count

    def counting(acc, high):
        calls.append(acc & ((1 << n) - 1))
        return real(acc, high)

    monkeypatch.setattr(expansion, "_robust_count", counting)
    return calls


def test_pruned_sweep_matches_reference_on_dense_pass_hosts():
    hosts = [gnp(n, 0.7 + 0.05 * (n - 13), 100 * n + 7) for n in range(13, 17)]
    hosts.append(complete_multipartite(4, 4))
    for g in hosts:
        for obj in (g, to_bidirected(g)):
            cert = certify_exact(obj, DIFF_PARAMS)
            assert cert.verdict is Verdict.PASS, obj.n
            assert cert == reference_certify_exact(obj, DIFF_PARAMS), obj.n


def test_fail_witness_after_a_pruned_subtree(monkeypatch):
    # a dense gnp whose top vertex keeps two neighbours
    edges = [e for e in gnp(12, 0.9, 12).edges if 11 not in e]
    g = Graph(12, edges + [(0, 11), (1, 11)])
    p = ExpansionParams(Fraction(1, 5), Fraction(3, 10))
    want = reference_certify_exact(g, p)
    calls = _calls_to_robust_count(monkeypatch, g.n)
    cert = certify_exact(g, p)
    assert cert == want
    assert cert.witness == (0, 2, 5, 11)
    # window sets (size >= ceil(3/10 * 12) = 4) certified outnumber those
    # visited: a subtree before the witness was counted, not swept
    visited = sum(1 for smask in calls if smask.bit_count() >= 4)
    assert visited < cert.sets_checked == 1236


def test_prune_counts_k16_without_visiting(monkeypatch):
    calls = _calls_to_robust_count(monkeypatch, 16)
    cert = certify_exact(complete_graph(16), DIFF_PARAMS)
    assert cert.verdict is Verdict.PASS and cert.sets_checked == 60_502
    assert len(calls) < 6_050
    # a visited set has at most hi = 11 vertices, and each is visited once
    assert len(set(calls)) == len(calls)
    assert max(smask.bit_count() for smask in calls) <= 11


def test_k24_at_the_cap_passes_by_pruning():
    cert = certify_exact(complete_graph(24), DIFF_PARAMS)
    assert cert.verdict is Verdict.PASS
    assert cert.sets_checked == 15_704_906


@pytest.mark.parametrize("nu", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)])
@pytest.mark.parametrize("tau", [Fraction(1, 10), Fraction(3, 10), Fraction(2, 5), Fraction(3, 4)])
def test_sweep_matches_reference_on_param_grid(nu, tau):
    # tau = 3/4, and n = 1 with tau = 3/10, give empty windows (lo > hi)
    p = ExpansionParams(nu, tau)
    hosts = [complete_graph(n) for n in range(1, 8)] + [cycle_graph(6), two_triangles(), gnp(9, 0.5, 3)]
    for g in hosts:
        assert certify_exact(g, p) == reference_certify_exact(g, p), g.n
    g, part = _random_bipartite(5, 0.6, 2)
    want = reference_sweep(g.neighbor_masks, sorted(part.side_a), 5, p)
    assert certify_bipartite(g, part, p) == want


def _two_relabelled_cliques(k, seed):
    """Two disjoint K_k under a seeded vertex relabelling."""
    perm = list(range(2 * k))
    random.Random(seed).shuffle(perm)
    edges = [
        (perm[b + i], perm[b + j]) for b in (0, k) for i in range(k) for j in range(i + 1, k)
    ]
    return Graph(2 * k, edges)


@pytest.mark.parametrize("trials", [0, 1, 7, 200, 3000])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_refute_sampled_matches_reference(trials, seed):
    hosts = [
        two_triangles(), complete_graph(6), complete_graph(1), gnp(10, 0.4, seed),
        directed_cycle(6), _two_relabelled_cliques(9, 3),
    ]
    for obj in hosts:
        for p in (DIFF_PARAMS, ExpansionParams(Fraction(1, 3), Fraction(1, 3))):
            assert refute_sampled(obj, p, trials, seed) == reference_refute_sampled(obj, p, trials, seed)
    # Past n = 21 Random.sample picks its branch by set size; on n = 90
    # the sizes up to 21 take the selected-set branch.  These hosts fail
    # (the n = 30 one at DIFF_PARAMS only within 3000 trials), so a
    # drifted stream would move the witness or its trial.
    for obj in (_two_relabelled_cliques(15, 3), _two_relabelled_cliques(45, 3)):
        for p in (DIFF_PARAMS, ExpansionParams(Fraction(1, 10), Fraction(1, 10))):
            assert refute_sampled(obj, p, trials, seed) == reference_refute_sampled(obj, p, trials, seed)


# -- sampled refutation --------------------------------------------------------

def test_refute_sampled_fails_late_on_two_cliques():
    # the hosts the differential test above uses with n >= 16: violating
    # sets are rare, so the witness comes late (n = 18 at seed 1 from
    # trial 120, n = 30 at seeds 0-3 from trials 514 to 2797), and each
    # of those hosts does fail, so the differential test can see a drift
    wide = ExpansionParams(Fraction(1, 10), Fraction(1, 10))
    cases = [(9, DIFF_PARAMS, 1, 120)]
    cases += [(15, DIFF_PARAMS, seed, t) for seed, t in enumerate((514, 2797, 808, 2053))]
    cases += [(45, wide, seed, t) for seed, t in enumerate((13, 4, 27, 1))]
    for k, p, seed, t in cases:
        g = _two_relabelled_cliques(k, 3)
        cert = refute_sampled(g, p, 5000, seed)
        assert cert.verdict is Verdict.FAIL and cert.sets_checked == t
        assert cert.witness == tuple(sorted(cert.witness))
        rn = robust_neighbourhood(g, cert.witness, p.nu)
        assert len(rn) < len(cert.witness) + p.nu * g.n


@pytest.mark.parametrize("n", [0, 1, 5, 16, 21, 22, 30, 85, 86, 90, 120])
def test_random_sets_follow_randint_and_sample(n):
    # Random.sample keeps a pool when n <= 21 (+ 4**ceil(log4(3 size)) past
    # size 5), else a set of picks: the windows cross sizes 5/6 and 21/22,
    # so every n above reaches the branches its sizes select.
    masks = gnp(n, 0.5, n).neighbor_masks
    windows = {(0, n), (min(n, 3), min(n, 8)), (min(n, 19), min(n, 24)), (n // 3, 2 * n // 3)}
    for lo, hi in sorted(windows):
        for seed in range(4):
            need = seed * n // 4
            cols, base, high = expansion._packed(masks, need)
            rng, ref = random.Random(seed), random.Random(seed)
            sets = expansion._random_sets(cols, base, lo, hi, rng)
            for _ in range(300):
                size = ref.randint(lo, hi)
                picked = ref.sample(range(n), size)
                smask = sum(1 << v for v in picked)
                got_size, acc = next(sets)
                assert (got_size, acc & ((1 << n) - 1)) == (size, smask)
                assert acc == base + sum(cols[v] for v in picked)
                assert expansion._robust_count(acc, high) == reference_robust_count(masks, smask, need)
            assert rng.getstate() == ref.getstate()


def test_refute_sampled_finds_triangle_violation():
    cert = refute_sampled(two_triangles(), ExpansionParams(0.1, 0.3), trials=500, seed=1)
    assert cert.verdict is Verdict.FAIL
    g = two_triangles()
    rn = robust_neighbourhood(g, cert.witness, Fraction(1, 10))
    assert len(rn) < len(cert.witness) + Fraction(1, 10) * g.n


def test_refute_sampled_never_passes():
    cert = refute_sampled(complete_graph(6), ExpansionParams(0.1, 0.3), trials=200, seed=2)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.sets_checked == 200


def test_refute_sampled_draws_in_a_one_size_window():
    # tau = 1/2 on 4 vertices leaves sizes 2..2; every pair of the two
    # disjoint edges has 2 < 2 + 1 robust neighbours, so the first trial fails
    g = Graph(4, [(0, 1), (2, 3)])
    p = ExpansionParams(Fraction(1, 10), Fraction(1, 2))
    assert expansion._thresholds(p.nu, p.tau, g.n) == (1, 2, 2)
    cert = refute_sampled(g, p, trials=5, seed=0)
    assert cert.verdict is Verdict.FAIL and cert.sets_checked == 1
    assert len(cert.witness) == 2


def test_refute_sampled_zero_trials():
    cert = refute_sampled(complete_graph(6), ExpansionParams(0.1, 0.3), trials=0, seed=0)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.sets_checked == 0


# -- bipartite ------------------------------------------------------------------

def test_bipartite_k33_passes():
    g = complete_multipartite(2, 3)
    part = Bipartition(range(3), range(3, 6))
    cert = certify_bipartite(g, part, ExpansionParams(0.1, Fraction(1, 3)))
    assert cert.verdict is Verdict.PASS
    # window [1.2, 1.8] holds no integer sizes: vacuous pass
    vac = certify_bipartite(g, part, ExpansionParams(0.1, 0.4))
    assert vac.verdict is Verdict.PASS and vac.sets_checked == 0


def test_bipartite_c6_golden():
    # frozen by exhaustive sweep: every S on one side of the 6-cycle with
    # |S| in {1, 2} has |RN| = 3 >= |S| + 0.9
    g = cycle_graph(6)
    part = Bipartition([0, 2, 4], [1, 3, 5])
    cert = certify_bipartite(g, part, ExpansionParams(0.3, 0.3))
    assert cert.verdict is Verdict.PASS
    assert cert.sets_checked == 6


def test_bipartite_fail_case():
    # two disjoint 4-cycles, bipartized: one side's half expands poorly
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    part = Bipartition([0, 2, 4, 6], [1, 3, 5, 7])
    cert = certify_bipartite(g, part, ExpansionParams(0.25, 0.25))
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == (0, 2)


def test_bipartite_errors():
    g = complete_multipartite(2, 3)
    with pytest.raises(MatchlabError, match="^sides have sizes 1 and 5$"):
        certify_bipartite(g, Bipartition([0], range(1, 6)), ExpansionParams(0.1, 0.3))
    tri = Graph(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(MatchlabError, match=r"^edge \(1, 2\) does not cross the bipartition$"):
        certify_bipartite(tri, Bipartition([0, 3], [1, 2]), ExpansionParams(0.1, 0.3))
    with pytest.raises(MatchlabError, match="^bipartition does not cover the graph's vertex range$"):
        certify_bipartite(g, Bipartition([0, 1], [2, 3]), ExpansionParams(0.1, 0.3))


# -- certificate fields -----------------------------------------------------------

def test_certificate_json():
    cert = certify_exact(two_triangles(), ExpansionParams(0.1, 0.3))
    assert cert.verdict is Verdict.FAIL
    assert cert.witness == (0, 1, 2)
    assert (cert.nu, cert.tau) == (Fraction(1, 10), Fraction(3, 10))
