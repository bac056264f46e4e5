import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from scipy.stats import poisson as scipy_poisson

import matchlab.stats as stats
from conftest import (
    dense_regular,
    gnp,
    oracle_pm_sets,
    reference_avoidance_ratio,
    reference_disjoint_probability,
    reference_ratio_report,
    reference_sample_pm,
    relabel_graph,
    small_zoo,
    strata_hosts,
    strata_references,
)
from matchlab.errors import MatchlabError, NoPerfectMatchingError, ResourceLimitError
from matchlab.graphs import (
    Graph,
    Matching,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    random_regular,
    regularity,
)
from matchlab import pm, symmetry
from matchlab.pm import _is_dense, count_pm, count_pm_containing, enumerate_pm, stratify
from matchlab.stats import (
    Pmf,
    avoidance_ratio,
    disjoint_probability,
    edge_probability,
    empirical_edge_freq,
    intersection_pmf,
    poisson_pmf,
    poisson_reference,
    tv_distance,
)
from matchlab.switching import ratio_report

F = Fraction


# -- edge probabilities -------------------------------------------------------

def test_edge_probability_k4():
    g = complete_graph(4)
    for e in g.edges:
        assert edge_probability(g, e) == F(1, 3)


def test_edge_probability_octahedron_and_c6():
    octa = complete_multipartite(3, 2)
    for e in octa.edges:
        assert edge_probability(octa, e) == F(1, 4)
    c6 = cycle_graph(6)
    for e in c6.edges:
        assert edge_probability(c6, e) == F(1, 2)


def test_edge_probability_vertex_transitive_families_hit_reciprocal_degree():
    for g, d in [
        (complete_graph(8), 7),
        (complete_multipartite(2, 3), 3),
        (cycle_graph(8), 2),
    ]:
        for e in g.edges:
            assert edge_probability(g, e) == F(1, d)


def test_edge_probability_errors():
    with pytest.raises(MatchlabError, match=r"^edge \(0, 2\) not in graph$"):
        edge_probability(cycle_graph(4), (0, 2))
    with pytest.raises(NoPerfectMatchingError):
        edge_probability(Graph(4, [(0, 1), (1, 2), (1, 3)]), (0, 1))


# -- overlap distribution -------------------------------------------------------

def test_intersection_pmf_k4_with_own_matching():
    p = intersection_pmf(complete_graph(4), [(0, 1), (2, 3)])
    assert p.prob(0) == F(2, 3)
    assert p.prob(1) == 0
    assert p.prob(2) == F(1, 3)
    assert sum(p.probs.values()) == 1


def test_intersection_pmf_empty_reference():
    p = intersection_pmf(complete_graph(6), [])
    assert p.probs == {0: F(1)}


def test_intersection_pmf_k6_single_edge():
    p = intersection_pmf(complete_graph(6), [(0, 1)])
    assert p.prob(1) == F(3, 15)
    assert p.prob(0) == F(12, 15)


def test_pmf_mean_equals_edge_probability_sum():
    rng = random.Random(2)
    for seed in range(4):
        g = gnp(8, 0.6, seed=seed + 30)
        if count_pm(g) == 0:
            continue
        pms = list(enumerate_pm(g))
        ref = Matching(rng.sample(pms[0].pairs, 2))
        p = intersection_pmf(g, ref)
        assert sum(k * q for k, q in p.probs.items()) == sum(edge_probability(g, e) for e in ref)


# -- poisson reference ------------------------------------------------------------

def test_poisson_point_mass_at_zero_rate():
    p = poisson_pmf(0.0, 10)
    assert p.probs == {0: 1.0}


def test_poisson_known_values():
    p = poisson_pmf(1.0, 6)
    assert math.isclose(p.prob(0), math.exp(-1))
    assert math.isclose(p.prob(1), p.prob(0))


def test_poisson_against_scipy():
    for lam in (0.3, 1.0, 2.5):
        p = poisson_pmf(lam, 15)
        for k in range(16):
            assert math.isclose(p.prob(k), scipy_poisson.pmf(k, lam), rel_tol=1e-10)
        assert math.isclose(
            p.truncation_mass, scipy_poisson.sf(15, lam), rel_tol=1e-6, abs_tol=1e-12
        )


def test_poisson_truncation_recorded():
    p = poisson_pmf(5.0, 3)
    assert p.truncation_mass > 0.5


def test_poisson_refuses_a_negative_rate():
    with pytest.raises(MatchlabError, match="^rate must be non-negative$"):
        poisson_pmf(-0.5, 3)


# -- total variation ---------------------------------------------------------------

def test_tv_identical_is_zero():
    p = intersection_pmf(complete_graph(4), [(0, 1), (2, 3)])
    assert tv_distance(p, p) == 0.0


def test_tv_disjoint_point_masses():
    p = Pmf({0: F(1)}, exact=True)
    q = Pmf({1: F(1)}, exact=True)
    assert tv_distance(p, q) == 1.0


def test_tv_k4_vs_poisson_golden():
    # frozen from the exact pipeline: overlap PMF (2/3, 0, 1/3) against a
    # Poisson of rate 2/3
    p = intersection_pmf(complete_graph(4), [(0, 1), (2, 3)])
    q = poisson_reference(2 / 3, p)
    assert math.isclose(tv_distance(p, q), 0.3724901878490542, rel_tol=1e-9)


def test_tv_value_is_independent_of_truncation_point():
    p = intersection_pmf(complete_graph(6), [(0, 1)])
    lam = 0.2
    values = {round(tv_distance(p, poisson_pmf(lam, kmax)), 12) for kmax in (4, 8, 30)}
    assert len(values) == 1


def test_tv_metric_properties_on_random_pmfs():
    rng = random.Random(17)

    def rand_pmf():
        weights = [rng.randint(0, 5) for _ in range(5)]
        total = sum(weights) or 1
        return Pmf({k: F(w, total) for k, w in enumerate(weights) if w}, exact=True)

    for _ in range(25):
        p, q, r = rand_pmf(), rand_pmf(), rand_pmf()
        assert abs(tv_distance(p, q) - tv_distance(q, p)) < 1e-12
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        assert tv_distance(p, q) >= -1e-12


# -- avoidance ---------------------------------------------------------------------

def test_avoidance_k6():
    exact, ref = avoidance_ratio(complete_graph(6), [(0, 1), (2, 3), (4, 5)])
    assert exact == F(8, 15)
    assert math.isclose(ref, math.exp(-0.6))


def test_avoidance_k33_derangements():
    g = complete_multipartite(2, 3)
    exact, ref = avoidance_ratio(g, [(0, 3), (1, 4), (2, 5)])
    assert exact == F(2, 6)
    assert math.isclose(ref, math.exp(-1))


def test_avoidance_empty_reference():
    exact, ref = avoidance_ratio(complete_graph(6), [])
    assert exact == 1 and ref == 1.0


def test_avoidance_requires_regular():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(MatchlabError, match="^graph must be regular$"):
        avoidance_ratio(g, [(0, 1)])


def test_avoidance_equals_zero_stratum():
    rng = random.Random(23)
    for g in (complete_graph(6), complete_multipartite(3, 2), complete_multipartite(2, 4)):
        pms = list(enumerate_pm(g))
        ref = pms[rng.randrange(len(pms))]
        exact, _ = avoidance_ratio(g, ref)
        assert exact == intersection_pmf(g, ref).prob(0)


def test_avoidance_matches_reference():
    rng = random.Random(8)
    hosts = [g for g in strata_hosts() if regularity(g) is not None]
    assert len(hosts) >= 10
    for g in hosts:
        for ref in strata_references(g, rng):
            if count_pm(g) == 0:
                with pytest.raises(NoPerfectMatchingError):
                    avoidance_ratio(g, ref)
                with pytest.raises(NoPerfectMatchingError):
                    reference_avoidance_ratio(g, ref)
            else:
                assert avoidance_ratio(g, ref) == reference_avoidance_ratio(g, ref)


def test_avoidance_errors_match_reference():
    # the oracle removes the reference edges, so it names a missing one in its own words
    missing = {
        avoidance_ratio: r"^reference edge \(0, 2\) not in graph$",
        reference_avoidance_ratio: r"^edges not in graph: \[\(0, 2\)\]$",
    }
    for fn in (avoidance_ratio, reference_avoidance_ratio):
        with pytest.raises(ResourceLimitError, match=r"^n=28 above the counting cap 26$"):
            fn(cycle_graph(28), [])
        with pytest.raises(MatchlabError, match=missing[fn]):
            fn(cycle_graph(4), [(0, 2)])
        with pytest.raises(MatchlabError, match="^graph must be regular$"):
            fn(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]), [])
        with pytest.raises(NoPerfectMatchingError, match="^graph has no perfect matching$"):
            fn(complete_graph(5), [(0, 1)])


# -- disjointness ------------------------------------------------------------------

def test_disjoint_r1():
    value, ref = disjoint_probability(complete_graph(6), 1)
    assert value == 1 and ref == 1.0


def test_disjoint_r2_matches_avoidance():
    value, ref = disjoint_probability(complete_graph(6), 2)
    assert value == F(8, 15)
    avo, aref = avoidance_ratio(complete_graph(6), [(0, 1), (2, 3), (4, 5)])
    assert value == avo and math.isclose(ref, aref)


def test_disjoint_r3_exact_by_triple_enumeration():
    # independent oracle: iterate ordered triples of enumerated matchings
    g = complete_graph(6)
    pms = [m.edge_set for m in enumerate_pm(g)]
    good = sum(
        1
        for a in pms
        for b in pms
        for c in pms
        if not (a & b) and not (a & c) and not (b & c)
    )
    value, ref = disjoint_probability(g, 3)
    assert value == F(good, len(pms) ** 3)
    assert math.isclose(ref, math.exp(-0.6 * 3))


def _pairing_disjoint_probability(g, r):
    """Ordered r-tuples of pairwise disjoint perfect matchings over all
    r-tuples, from the pairing oracle's matchings: bit j of apart[i] is
    set when matchings i and j share no edge, and the matchings a prefix
    allows next are the AND of its members' rows."""
    pms = oracle_pm_sets(g)
    apart = [sum(1 << j for j, b in enumerate(pms) if not a & b) for a in pms]

    def disjoint_tuples(allowed, depth):
        if depth == 1:
            return allowed.bit_count()
        return sum(disjoint_tuples(allowed & row, depth - 1) for i, row in enumerate(apart) if allowed >> i & 1)

    return F(disjoint_tuples((1 << len(pms)) - 1, r), len(pms) ** r)


@pytest.mark.parametrize("r", [2, 3])
def test_disjoint_exact_matches_pairing_oracle_on_zoo(r):
    hosts = [g for g in small_zoo() if regularity(g) is not None and oracle_pm_sets(g)]
    assert len(hosts) >= 5
    for g in hosts:
        value, _ = disjoint_probability(g, r)
        assert value == _pairing_disjoint_probability(g, r)


# The last level of the exact count is G minus the prefix's edges, counted
# through the complement when that graph is dense (K8 less one or two
# matchings, K_{4x2} less one) and by the DP otherwise.
_MASK_DISJOINT_HOSTS = {
    "K8": complete_graph(8),
    "K4x2": complete_multipartite(4, 2),
    "dense10": dense_regular(10, 1),
    "K55": complete_multipartite(2, 5),
    "rr12_5": random_regular(12, 5, seed=1),
}
_DENSE_LAST_LEVEL = {2: {"K8", "K4x2"}, 3: {"K8"}}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", list(_MASK_DISJOINT_HOSTS))
def test_disjoint_on_cleared_masks_matches_pairing_oracle(monkeypatch, name, r):
    host = _MASK_DISJOINT_HOSTS[name]
    g = Graph(host.n, host.edges)
    routes = []
    for route in ("_complement_strata", "_dp_count"):
        kernel = getattr(pm, route)

        def spied(*args, _kernel=kernel, _route=route):
            # a count on one of g's own memos is the host's total
            if args[-1] is not g._poly_cache and args[-1] is not g._pm_cache:
                routes.append(_route)
            return _kernel(*args)

        monkeypatch.setattr(pm, route, spied)
    value, _ = disjoint_probability(g, r)
    assert value == _pairing_disjoint_probability(g, r)
    dense = name in _DENSE_LAST_LEVEL[r]
    assert _is_dense(g, (r - 1) * g.n // 2) == dense
    assert routes and set(routes) == {"_complement_strata" if dense else "_dp_count"}
    # the first level lists the host's matchings once, as its key list
    assert g._pm_keys is not None and len(g._pm_keys) == count_pm(g)


def test_disjoint_matches_the_nested_graph_enumeration():
    # regular hosts on both sides of the density rule, under relabellings,
    # against one Graph per prefix
    hosts = [dense_regular(n, seed) for n in (8, 10) for seed in (0, 1)]
    hosts += [complete_multipartite(5, 2), complete_graph(10), cycle_graph(10)]
    hosts += [random_regular(10, d, seed=2) for d in (3, 4, 5)]
    assert {_is_dense(g, g.n // 2) for g in hosts} == {True, False}
    rng = random.Random(5)
    for g in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for r in (2, 3):
            if r == 3 and count_pm(g) > 100:
                continue
            want = reference_disjoint_probability(Graph(g.n, g.edges), r)
            assert disjoint_probability(g, r)[0] == want, (g.edges, r)


def test_disjoint_k12_counts_its_last_level_through_the_complement():
    # K12 less a matching is 10-regular, so its one count (K12's 10,395
    # matchings are one orbit) is stratum 0 of the complement's polynomial
    # with the matching as reference
    g = complete_graph(12)
    assert _is_dense(g, 6)
    value, reference = disjoint_probability(g, 2)
    assert value == F(1208, 2079)
    assert math.isclose(reference, math.exp(-12 / 22))


def _cube() -> Graph:
    return Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


def _prism() -> Graph:
    # C6 x K2: two hexagons 0..5 and 6..11, joined rung by rung
    ring = [(i, (i + 1) % 6) for i in range(6)]
    return Graph(12, ring + [(u + 6, v + 6) for u, v in ring] + [(i, i + 6) for i in range(6)])


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel_graph(g, perm)


def _count_avoiding_calls(monkeypatch) -> list:
    """The masks of every last-level count disjoint_probability makes
    from now on."""
    calls = []
    count_avoiding = stats._count_avoiding

    def counted(g, avoid):
        calls.append(avoid)
        return count_avoiding(g, avoid)

    monkeypatch.setattr(stats, "_count_avoiding", counted)
    return calls


# Hosts whose matchings fall into few orbits under the automorphisms.
_ORBIT_HOSTS = {
    "K8": complete_graph(8),
    "K10": complete_graph(10),
    "K55": complete_multipartite(2, 5),
    "K4x2": complete_multipartite(4, 2),
    "K5x2": complete_multipartite(5, 2),
    "cube": _cube(),
    "prism": _prism(),
    "two_K4": Graph(8, [(u + s, v + s) for s in (0, 4) for u, v in combinations(range(4), 2)]),
}

# The nested Graph enumeration takes 30 s on K10 and 12 s on K_{5x2} at
# r = 3; its values there, recorded once, stand in for it.
_NESTED_AT_R3 = {"K10": F(159232, 893025), "K5x2": F(89919, 628864)}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", list(_ORBIT_HOSTS))
def test_disjoint_by_orbit_matches_both_oracles_under_relabellings(monkeypatch, name, r):
    g = _ORBIT_HOSTS[name]
    want = _pairing_disjoint_probability(g, r)
    nested = _NESTED_AT_R3[name] if r == 3 and name in _NESTED_AT_R3 else reference_disjoint_probability(g, r)
    assert nested == want
    found = []
    search = symmetry.generators

    def recorded(masks, ref):
        found.append(search(masks, ref))
        return found[-1]

    monkeypatch.setattr(symmetry, "generators", recorded)
    for seed in range(3):
        h = _relabelled(g, seed)
        found.clear()
        assert disjoint_probability(h, r)[0] == want, (h.edges, r)
        # the first level went by orbit: one search, with no second
        # colour, found generators
        assert len(found) == 1 and found[0], (h.edges, r)


@pytest.mark.parametrize("name,orbits", [("K8", 1), ("K4x2", 2)])
def test_disjoint_counts_once_per_orbit_at_r2(monkeypatch, name, orbits):
    calls = _count_avoiding_calls(monkeypatch)
    g = _relabelled(_ORBIT_HOSTS[name], 4)
    assert disjoint_probability(g, 2)[0] == _pairing_disjoint_probability(g, 2)
    assert len(calls) == orbits


@pytest.mark.parametrize("r", [2, 3])
def test_disjoint_without_generators_counts_every_matching(monkeypatch, r):
    # with no generator every matching is its own orbit: the same values,
    # one count per listed matching at r = 2 (K10 and K_{5x2} at r = 3
    # would make some 10^5 counts)
    hosts = [g for name, g in _ORBIT_HOSTS.items() if r == 2 or name not in _NESTED_AT_R3]
    want = [disjoint_probability(_relabelled(g, 1), r)[0] for g in hosts]
    monkeypatch.setattr(symmetry, "generators", lambda masks, ref: [])
    calls = _count_avoiding_calls(monkeypatch)
    for g, value in zip(hosts, want):
        calls.clear()
        h = _relabelled(g, 1)
        assert disjoint_probability(h, r)[0] == value, g.edges
        if r == 2:
            assert len(calls) == count_pm(h), g.edges


def test_disjoint_and_ratio_report_keep_their_orbits_apart():
    # disjointness reads the host's own automorphisms and keeps nothing, a
    # reference's records hold those that keep the reference: each report
    # on one graph, in either order, is the oracle's
    for seed in range(2):
        for first in ("disjoint", "ratio"):
            g = _relabelled(complete_multipartite(4, 2), seed)
            ref = pm.first_pm(g)
            fresh = Graph(g.n, g.edges)
            want_disjoint = reference_disjoint_probability(fresh, 2)
            want_ratios = [reference_ratio_report(fresh, ref, k, ell) for k in (1, 2) for ell in (2, 3, 4)]
            if first == "disjoint":
                assert disjoint_probability(g, 2)[0] == want_disjoint
            assert [ratio_report(g, ref, k, ell) for k in (1, 2) for ell in (2, 3, 4)] == want_ratios
            assert disjoint_probability(g, 2)[0] == want_disjoint
            ban = sum(1 << (u * g.n + v) for u, v in ref)
            assert set(g._strata_orbits) == {(ban, 1), (ban, 2)}


def test_disjoint_montecarlo_tracks_exact():
    g = complete_graph(6)
    exact, _ = disjoint_probability(g, 3)
    est, _ = disjoint_probability(g, 3, mode="montecarlo", samples=20_000, seed=3)
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / 20_000)
    assert abs(est - float(exact)) <= 3 * sigma


def test_disjoint_exact_budget(monkeypatch):
    monkeypatch.setattr(stats, "DEFAULT_TUPLE_BUDGET", 1000)
    with pytest.raises(ResourceLimitError, match=r"^105\^3 listed prefixes exceed the exact budget 1000$"):
        disjoint_probability(complete_graph(8), 4)


def test_disjoint_exact_budget_counts_listed_prefixes(monkeypatch):
    # K6 has 15 perfect matchings; r = 3 lists 15^2 = 225 prefixes and
    # counts the last level, so a budget below 15^3 = 3375 is enough
    g = complete_graph(6)
    pms = oracle_pm_sets(g)
    assert len(pms) == 15
    good = sum(
        1
        for a in pms
        for b in pms
        if not a & b
        for c in pms
        if not (a | b) & c
    )
    monkeypatch.setattr(stats, "DEFAULT_TUPLE_BUDGET", 1000)
    value, _ = disjoint_probability(g, 3)
    assert value == F(good, 15**3)
    monkeypatch.setattr(stats, "DEFAULT_TUPLE_BUDGET", 224)
    with pytest.raises(ResourceLimitError, match=r"15\^2 listed"):
        disjoint_probability(g, 3)


def test_disjoint_exact_budget_trips_one_past_its_value(monkeypatch):
    # the documented budget; K6 at r = 3 lists 15^2 = 225 prefixes, so it
    # runs at a budget of 225 and is refused at 224
    assert stats.DEFAULT_TUPLE_BUDGET == 10_000_000
    g = complete_graph(6)
    want = disjoint_probability(g, 3)
    monkeypatch.setattr(stats, "DEFAULT_TUPLE_BUDGET", 225)
    assert disjoint_probability(g, 3) == want
    monkeypatch.setattr(stats, "DEFAULT_TUPLE_BUDGET", 224)
    with pytest.raises(ResourceLimitError, match=r"^15\^2 listed prefixes exceed the exact budget 224$"):
        disjoint_probability(g, 3)


def test_disjoint_exact_budget_refuses_a_huge_r_without_the_power():
    # 3^(10^8 - 1) has about 48 million digits; the refusal must not
    # build it, and K2's single matching still passes at any r
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^3\^99999999 listed prefixes exceed the exact budget 10000000$"):
        disjoint_probability(complete_graph(4), 10**8)
    assert time.perf_counter() - start < 1.0
    assert disjoint_probability(complete_graph(2), 10**8)[0] == 0


# K5 has no perfect matching and C5 plus a chord is not regular: a check
# made after counting, or after the regularity check, raises something else
_UNCOUNTED_HOSTS = [
    complete_graph(5),
    Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
    complete_graph(6),
]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("g", _UNCOUNTED_HOSTS)
def test_disjoint_rejects_unknown_mode_before_counting(g, r):
    g = Graph(g.n, g.edges)
    with pytest.raises(MatchlabError, match="unknown mode 'bogus'"):
        disjoint_probability(g, r, mode="bogus")
    assert g._pm_cache == {} and g._poly_cache == {}


@pytest.mark.parametrize("samples", [0, -3, None])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("g", _UNCOUNTED_HOSTS)
def test_disjoint_montecarlo_rejects_no_samples_before_counting(g, r, samples):
    g = Graph(g.n, g.edges)
    with pytest.raises(MatchlabError, match="at least one sample"):
        disjoint_probability(g, r, mode="montecarlo", samples=samples)
    assert g._pm_cache == {} and g._poly_cache == {}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("g", _UNCOUNTED_HOSTS)
def test_disjoint_montecarlo_rejects_a_missing_seed_before_counting(g, r):
    g = Graph(g.n, g.edges)
    with pytest.raises(MatchlabError, match="^montecarlo mode needs a seed$"):
        disjoint_probability(g, r, mode="montecarlo", samples=10)
    assert g._pm_cache == {} and g._poly_cache == {}


def test_disjoint_exact_ignores_samples():
    g = complete_graph(4)
    assert disjoint_probability(g, 2, samples=0) == disjoint_probability(g, 2)


# -- empirical frequencies -----------------------------------------------------------

@pytest.mark.parametrize("g", [complete_graph(4), complete_graph(5)])
def test_empirical_freq_rejects_negative_samples_before_counting(g):
    g = Graph(g.n, g.edges)
    with pytest.raises(MatchlabError, match="non-negative"):
        empirical_edge_freq(g, -1, seed=0)
    assert g._pm_cache == {} and g._poly_cache == {}


def test_empirical_freq_zero_samples():
    freqs = empirical_edge_freq(complete_graph(4), 0, seed=0)
    assert set(freqs.values()) == {0.0}


def test_empirical_freq_unique_pm():
    g = Graph(4, [(0, 1), (2, 3), (0, 2)])
    freqs = empirical_edge_freq(g, 50, seed=1)
    assert freqs[(0, 1)] == 1.0 and freqs[(2, 3)] == 1.0 and freqs[(0, 2)] == 0.0


def test_empirical_freq_k4_three_sigma():
    freqs = empirical_edge_freq(complete_graph(4), 3000, seed=11)
    sigma = math.sqrt((1 / 3) * (2 / 3) / 3000)
    for value in freqs.values():
        assert abs(value - 1 / 3) <= 3.5 * sigma


_MONTECARLO_RUNS = {
    "edge_freq": lambda g: empirical_edge_freq(g, 40, seed=3),
    "disjoint": lambda g: disjoint_probability(g, 3, mode="montecarlo", samples=15, seed=3),
}


@pytest.mark.parametrize("run", _MONTECARLO_RUNS.values(), ids=_MONTECARLO_RUNS)
def test_montecarlo_on_a_dense_host_samples_without_counting(monkeypatch, run):
    # no count before the draws: the complement's memo stays empty, and the
    # draws and the final rng state are those of the reference sampler
    g = dense_regular(12, 5)
    assert _is_dense(g)
    drawn, rngs = [], set()

    def recorded(host, rng, count):
        rngs.add(rng)
        for ids in pm._draws(host, rng, count):
            assert ids == sorted(ids)
            drawn.append(Matching([divmod(i, host.n) for i in ids]))
            yield ids

    monkeypatch.setattr(stats, "_draws", recorded)
    run(g)
    assert g._poly_cache == {}
    rng = random.Random(3)
    slow = Graph(g.n, g.edges)
    assert drawn == [reference_sample_pm(slow, rng) for _ in drawn]
    assert len(rngs) == 1 and rngs.pop().getstate() == rng.getstate()


def _replay_disjoint(g, r, samples, seed):
    """Monte Carlo disjointness replayed through the reference sampler,
    each r-tuple's edge sets compared pair by pair."""
    slow = Graph(g.n, g.edges)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        sets = [reference_sample_pm(slow, rng).edge_set for _ in range(r)]
        hits += all(a.isdisjoint(b) for a, b in combinations(sets, 2))
    return hits / samples


def _replay_edge_freq(g, samples, seed):
    """Edge frequencies replayed through the reference sampler."""
    slow = Graph(g.n, g.edges)
    rng = random.Random(seed)
    freq = dict.fromkeys(g.edges, 0)
    for _ in range(samples):
        for e in reference_sample_pm(slow, rng):
            freq[e] += 1
    return {e: c / samples for e, c in freq.items()}


_REPLAY_HOSTS = {
    "k4": complete_graph(4),
    "k6": complete_graph(6),
    "k_3x2": complete_multipartite(3, 2),
    "k_4_4": complete_multipartite(2, 4),
    "c8": cycle_graph(8),
    "dense12": dense_regular(12, 5),
}


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("g", _REPLAY_HOSTS.values(), ids=_REPLAY_HOSTS)
def test_montecarlo_disjoint_matches_a_reference_replay(g, r):
    got, _ = disjoint_probability(Graph(g.n, g.edges), r, mode="montecarlo", samples=60, seed=r)
    assert got == _replay_disjoint(g, r, 60, r)
    if r == 2:
        # every host has two disjoint matchings and repeats draws
        assert 0 < got < 1


_UNION_HOSTS = {
    "k6": complete_graph(6),
    "k_4x2": complete_multipartite(4, 2),
    "dense12": dense_regular(12, 5),
}


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("g", _UNION_HOSTS.values(), ids=_UNION_HOSTS)
def test_montecarlo_disjoint_early_exit_matches_the_union_test(g, r):
    # a tuple is disjoint when the union of its draws' edge ids has r*n/2
    # elements; the estimate, which stops at the first draw that shares an
    # edge with those before it, gives the same hits on the same stream,
    # a tuple whose only shared edge lies between its last two draws
    # included
    size, samples = r * (g.n // 2), 300
    last_pair_only = 0
    for seed in range(3):
        got, _ = disjoint_probability(Graph(g.n, g.edges), r, mode="montecarlo", samples=samples, seed=seed)
        draws = pm._draws(Graph(g.n, g.edges), random.Random(seed), samples * r)
        tuples = [[set(ids) for ids in tup] for tup in zip(*[draws] * r)]
        assert got == sum(len(set().union(*tup)) == size for tup in tuples) / samples
        last_pair_only += sum(
            len(set().union(*tup)) == size - 1 and len(tup[-2] & tup[-1]) == 1 for tup in tuples
        )
    assert last_pair_only > 0


# (host, r, samples, seed, estimate): draws that all overlap, on a host
# with one perfect matching, and draws that are all disjoint, on the empty
# host and on seeds of K14 where every tuple happens to be disjoint
_EXTREME_CASES = {
    "one_pm_r2": (Graph(4, [(0, 1), (2, 3)]), 2, 20, 1, 0.0),
    "one_pm_r4": (Graph(4, [(0, 1), (2, 3)]), 4, 20, 1, 0.0),
    "empty_r3": (Graph(0, []), 3, 20, 1, 1.0),
    "k14_r2": (complete_graph(14), 2, 4, 24, 1.0),
    "k14_r3": (complete_graph(14), 3, 4, 280, 1.0),
    "k14_r4": (complete_graph(14), 4, 2, 656, 1.0),
}


@pytest.mark.parametrize("g,r,samples,seed,estimate", _EXTREME_CASES.values(), ids=_EXTREME_CASES)
def test_montecarlo_disjoint_extremes_match_a_reference_replay(g, r, samples, seed, estimate):
    got, _ = disjoint_probability(Graph(g.n, g.edges), r, mode="montecarlo", samples=samples, seed=seed)
    assert got == _replay_disjoint(g, r, samples, seed) == estimate


@pytest.mark.parametrize("seed", [0, 1])
def test_empirical_freq_matches_a_reference_replay(seed):
    hosts = [g for g in small_zoo() if count_pm(g) > 0] + [dense_regular(12, 5), Graph(0, [])]
    for g in hosts:
        host = Graph(g.n, g.edges)
        got = empirical_edge_freq(host, 50, seed)
        assert all(e is f for e, f in zip(got, host.edges, strict=True))
        assert got == _replay_edge_freq(g, 50, seed)


def test_montecarlo_streams_its_draws():
    # 60,000 draws of K6 listed at once would hold megabytes; the stream
    # holds one tuple at a time
    g = complete_graph(6)
    disjoint_probability(g, 3, mode="montecarlo", samples=10, seed=0)
    tracemalloc.start()
    try:
        disjoint_probability(g, 3, mode="montecarlo", samples=20_000, seed=0)
        empirical_edge_freq(g, 60_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


_TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.mark.parametrize("run", _MONTECARLO_RUNS.values(), ids=_MONTECARLO_RUNS)
def test_montecarlo_errors_come_from_the_first_draw(run):
    # K5 and two triangles have odd components (both are regular, as the
    # disjointness check needs), and K28 is past the counting cap
    for g in (complete_graph(5), _TWO_TRIANGLES):
        with pytest.raises(NoPerfectMatchingError, match="^graph has no perfect matching$"):
            run(g)
    with pytest.raises(ResourceLimitError, match=r"^n=28 above the counting cap 26$"):
        run(complete_graph(28))


def test_edge_freq_on_a_connected_host_without_a_matching_raises_at_the_first_draw():
    # 5 hubs joined to everything and 7 leaves: connected, so only the DP
    # under the first draw finds that there is no perfect matching
    blocked = Graph(12, [(u, v) for u in range(5) for v in range(u + 1, 12)])
    with pytest.raises(NoPerfectMatchingError, match="^graph has no perfect matching$"):
        empirical_edge_freq(blocked, 10, seed=0)
    assert blocked._pm_cache[(1 << 12) - 1] == 0 and blocked._poly_cache == {}


def test_counting_paths_keep_their_count():
    for g in (complete_graph(5), _TWO_TRIANGLES):
        with pytest.raises(NoPerfectMatchingError, match="^graph has no perfect matching$"):
            empirical_edge_freq(g, 0, seed=0)
        with pytest.raises(NoPerfectMatchingError, match="^graph has no perfect matching$"):
            disjoint_probability(g, 2)


# -- pipeline: ratios reproduce the distribution --------------------------------------

def test_ratio_chain_rebuilds_pmf():
    # multiply the exact stratum ratios together and normalize; must equal
    # the directly computed overlap distribution wherever strata stay
    # non-empty
    cases = [
        (complete_graph(6), [(0, 1)]),
        (complete_graph(6), [(0, 1), (2, 3)]),
        (complete_graph(8), [(0, 1), (2, 3)]),
        (complete_multipartite(2, 4), [(0, 4), (1, 5)]),
    ]
    for g, ref in cases:
        dist = intersection_pmf(g, ref)
        top = max(k for k, p in dist.probs.items() if p > 0)
        assert all(dist.prob(k) > 0 for k in range(top + 1))
        weights = [F(1)]
        for k in range(1, top + 1):
            rep = ratio_report(g, ref, k=k, ell=2)
            weights.append(weights[-1] * rep.exact_ratio)
        total = sum(weights)
        rebuilt = [w / total for w in weights]
        for k in range(top + 1):
            assert rebuilt[k] == dist.prob(k)


def test_pmf_json_shape():
    p = intersection_pmf(complete_graph(4), [(0, 1), (2, 3)])
    assert p.exact
    assert [p.prob(k) for k in range(3)] == [Fraction(2, 3), 0, Fraction(1, 3)]


@pytest.mark.parametrize("pair", [(-1, 3), (3, -1), (6, 7), (2, 6)])
def test_pair_outside_vertex_range_is_not_an_edge(pair):
    # a negative vertex used to shift by a negative count and one >= n to
    # index past the neighbour masks; both are edges that are not there
    g = complete_graph(6)
    u, v = sorted(pair)
    missing = rf"^reference edge \({u}, {v}\) not in graph$"
    with pytest.raises(MatchlabError, match=missing):
        stratify(g, [pair])
    with pytest.raises(MatchlabError, match=missing):
        avoidance_ratio(g, [pair])
    with pytest.raises(MatchlabError, match=missing):
        intersection_pmf(g, [pair])
    with pytest.raises(MatchlabError, match=missing):
        ratio_report(g, [pair], k=1, ell=2)
    with pytest.raises(MatchlabError, match=rf"^edge \({u}, {v}\) not in graph$"):
        count_pm_containing(g, [pair])
    with pytest.raises(MatchlabError, match=rf"^edge \({pair[0]}, {pair[1]}\) not in graph$"):
        edge_probability(g, pair)
