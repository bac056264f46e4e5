"""Acceptance gate: one test per criterion, each printing a pass/fail
line with its runtime.  Exact identities are asserted as rational or
integer equalities; trend statements at the stated float tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

from scipy.stats import chi2

from conftest import assert_switch_graph_sound, gnp
from matchlab.expansion import ExpansionParams, Verdict, certify_exact, robust_neighbourhood
from matchlab.graphs import (
    Graph,
    Matching,
    complete_digraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    random_regular,
    to_bidirected,
)
from matchlab.pm import count_pm, enumerate_pm, sample_pm, stratify
from matchlab.stats import (
    avoidance_ratio,
    disjoint_probability,
    edge_probability,
    intersection_pmf,
    poisson_reference,
    tv_distance,
)
from matchlab.switching import aux_vertex_set, build_aux_digraph, build_switch_graph, count_alternating_paths
from matchlab.walks import (
    count_paths,
    count_walks,
    matrix_power,
    mixing_bound_check,
    mixing_params,
    sandwich_check,
    transition_matrix,
    uniform_distribution,
)

F = Fraction


class Gate:
    def __init__(self, number: int, label: str, limit_s: float):
        self.number = number
        self.label = label
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        extra = f" :: {detail}" if detail else ""
        print(f"criterion {self.number:02d} [{status}] {self.label} ({elapsed:.2f}s){extra}")
        assert ok, f"criterion {self.number} failed{extra}"
        assert elapsed < self.limit_s, (
            f"criterion {self.number} exceeded {self.limit_s}s ({elapsed:.2f}s)"
        )


def test_criterion_01_oracle_equivalence():
    gate = Gate(1, "count/enumerate/stratify agree on 50 random graphs", 10)
    rng = random.Random(101)
    graphs = []
    while len(graphs) < 44:
        n = rng.choice([4, 6, 7, 8, 9, 10, 11, 12])
        graphs.append(gnp(n, rng.uniform(0.25, 0.85), seed=rng.randrange(10**6)))
    for seed in range(6):
        graphs.append(random_regular(10, 3, seed=seed))
    assert len(graphs) == 50
    ok = True
    for g in graphs:
        listed = list(enumerate_pm(g))
        counted = count_pm(g)
        if counted != len(listed):
            ok = False
            break
        ref = [e for e in g.edges[:3]]
        if stratify(g, ref).total() != counted:
            ok = False
            break
    gate.finish(ok, f"{len(graphs)} graphs")


def test_criterion_02_edge_probability_reciprocal_degree():
    gate = Gate(2, "edge probability equals 1/d exactly on symmetric families", 5)
    cases = [complete_graph(n) for n in (4, 6, 8, 10)]
    cases += [complete_multipartite(3, 2), complete_multipartite(2, 3)]
    cases += [cycle_graph(n) for n in (6, 8, 10)]
    ok = True
    for g in cases:
        d = len(g.neighbors(0))
        for e in g.edges:
            if edge_probability(g, e) != F(1, d):
                ok = False
    gate.finish(ok, f"{len(cases)} graphs, all edges")


def test_criterion_03_avoidance_values():
    gate = Gate(3, "avoidance ratios: K6 and derangement family", 30)
    ok = True
    exact, ref = avoidance_ratio(complete_graph(6), [(0, 1), (2, 3), (4, 5)])
    ok &= exact == F(8, 15)
    ok &= abs(float(exact) - ref) <= 0.05
    derangement = {3: F(2, 6), 4: F(9, 24), 5: F(44, 120), 6: F(265, 720)}
    for b, want in derangement.items():
        g = complete_multipartite(2, b)
        pm0 = Matching([(i, b + i) for i in range(b)])
        got, reference = avoidance_ratio(g, pm0)
        ok &= got == want
        ok &= math.isclose(reference, math.exp(-1))
        ok &= abs(float(got) - reference) <= 0.05
    largest, ref6 = avoidance_ratio(
        complete_multipartite(2, 6), Matching([(i, 6 + i) for i in range(6)])
    )
    gap = abs(float(largest) - ref6)
    ok &= gap <= 1e-3
    gate.finish(ok, f"b=6 gap {gap:.2e}")


def test_criterion_04_switching_identities():
    gate = Gate(4, "switch graphs: double count and cycle soundness", 60)
    rng = random.Random(7)
    hosts = [
        complete_graph(6),
        complete_graph(8),
        complete_multipartite(3, 2),
        complete_multipartite(2, 3),
        complete_multipartite(2, 4),
        cycle_graph(8),
        cycle_graph(12),
        gnp(10, 0.6, seed=77),
    ]
    instances = 0
    for g in hosts:
        if count_pm(g) == 0:
            continue
        pms = list(enumerate_pm(g))
        refs = [[pms[0].pairs[0]], list(pms[0].pairs)]
        if len(pms) > 1:
            refs.append(list(pms[min(1, len(pms) - 1)].pairs[:2]))
        for ref in refs:
            for k in (1, 2):
                for ell in (2, 3):
                    if 2 * ell > g.n:
                        continue
                    h = build_switch_graph(g, ref, k=k, ell=ell)
                    assert_switch_graph_sound(g, ref, h)
                    instances += 1
    gate.finish(instances >= 20, f"{instances} instances")


def test_criterion_05_companion_digraph_bijection():
    gate = Gate(5, "alternating paths match companion-digraph paths", 60)
    rng = random.Random(15)
    hosts = [
        complete_graph(6),
        complete_graph(8),
        complete_multipartite(3, 2),
        complete_multipartite(2, 3),
        complete_multipartite(2, 4),
        cycle_graph(8),
        gnp(8, 0.7, seed=55),
    ]
    probes = 0
    instances = 0
    ok = True
    for g in hosts:
        pms = list(enumerate_pm(g))
        if not pms:
            continue
        for base in pms[:2]:
            refs = [[], [base.pairs[0]]]
            if len(pms) > 2:
                refs.append(list(pms[2].pairs[:2]))
            for ref in refs:
                d = build_aux_digraph(g, ref, base)
                verts = sorted(aux_vertex_set(ref, base, g.n))
                if len(verts) < 2:
                    continue
                instances += 1
                constraint = Matching(base.edge_set - edge_set(ref))
                for _ in range(5):
                    w, v = rng.sample(verts, 2)
                    steps = rng.randint(1, 3)
                    lhs = count_alternating_paths(g, base, w, v, 2 * steps, ref)
                    rhs = count_paths(d, w, v, steps, matching_constraint=constraint)
                    if lhs != rhs:
                        ok = False
                    probes += 1
    gate.finish(ok and probes >= 100 and instances >= 10,
                f"{probes} probes over {instances} instances")


CERTIFIED_DIGRAPHS = [
    # (digraph, nu, tau, chain step k in [1/nu + 1, 2/nu])
    (complete_digraph(6), F(1, 3), F(1, 3), 4),
    (complete_digraph(8), F(1, 4), F(1, 4), 5),
    (complete_digraph(7), F(2, 7), F(2, 7), 5),
    (to_bidirected(complete_multipartite(3, 2)), F(1, 6), F(1, 3), 7),
]


def test_criterion_06_walk_lower_bound():
    gate = Gate(6, "walk counts beat (nu*n)^(len-1) on certified digraphs", 60)
    ok = True
    used = 0
    for d, nu, tau, _ in CERTIFIED_DIGRAPHS:
        cert = certify_exact(d, ExpansionParams(nu, tau))
        assert cert.verdict is Verdict.PASS, "instance list must be certified"
        assert all(
            min(d.out_degree(v), d.in_degree(v)) >= tau * d.n for v in range(d.n)
        )
        lo = math.ceil(1 / nu) + 1
        hi = min(d.n, math.floor(1 / nu + 4))
        for ell in range(lo, hi + 1):
            used += 1
            bound = (nu * d.n) ** (ell - 1)
            for u in range(d.n):
                for v in range(d.n):
                    if u != v and count_walks(d, u, v, ell) < bound:
                        ok = False
    gate.finish(ok and used > 0, f"{used} (instance, length) pairs")


def test_criterion_07_mixing_bound():
    gate = Gate(7, "k-step chains meet the geometric mixing envelope", 30)
    ok = True
    for d, nu, tau, k in CERTIFIED_DIGRAPHS:
        p = matrix_power(transition_matrix(d), k)
        assert p.min_entry() > 0, "chain step must make every entry positive"
        sigma = uniform_distribution(d.n)
        threshold = mixing_params(p, sigma).threshold
        t0 = math.ceil(threshold)
        for t in range(t0, t0 + 11):
            rep = mixing_bound_check(p, sigma, t)
            if not rep.passes:
                ok = False
    gate.finish(ok, f"{len(CERTIFIED_DIGRAPHS)} chains, 11 times each")


def test_criterion_08_sandwich_bound():
    gate = Gate(8, "two-sided bound on scaled k-step probabilities", 30)
    ok = True
    for d, nu, tau, k in CERTIFIED_DIGRAPHS:
        deg = d.out_degree(0)
        delta = F(deg, d.n)
        assert 1 / nu + 1 <= k <= 2 / nu
        if not sandwich_check(d, k, nu, delta):
            ok = False
    gate.finish(ok, f"{len(CERTIFIED_DIGRAPHS)} instances")


def test_criterion_09_poisson_trend():
    gate = Gate(9, "overlap vs Poisson distance small at n=12 and shrinking", 60)

    def tv_for(n: int) -> float:
        g = complete_graph(n)
        ref = Matching([(2 * i, 2 * i + 1) for i in range(n // 2)])
        dist = intersection_pmf(g, ref)
        lam = (n // 2) / (n - 1)
        return tv_distance(dist, poisson_reference(lam, dist))

    tv6 = tv_for(6)
    tv12 = tv_for(12)
    ok = tv12 <= 0.05 + 1e-12 and tv12 < tv6
    gate.finish(ok, f"tv6={tv6:.4f} tv12={tv12:.4f}")


def test_criterion_10_disjointness():
    gate = Gate(10, "pairwise-disjoint matchings: exact r=2, Monte Carlo r=3", 120)
    g = complete_graph(6)
    two, _ = disjoint_probability(g, 2)
    avo, _ = avoidance_ratio(g, [(0, 1), (2, 3), (4, 5)])
    ok = two == F(8, 15) and two == avo

    # independent oracle: ordered triples over the enumerated matchings
    pms = [m.edge_set for m in enumerate_pm(g)]
    good = sum(
        1
        for a in pms
        for b in pms
        for c in pms
        if not (a & b) and not (a & c) and not (b & c)
    )
    exact3 = good / len(pms) ** 3
    est, _ = disjoint_probability(g, 3, mode="montecarlo", samples=100_000, seed=42)
    sigma = math.sqrt(exact3 * (1 - exact3) / 100_000)
    ok &= abs(est - exact3) <= 3 * sigma
    gate.finish(ok, f"exact={exact3:.5f} mc={est:.5f} 3sigma={3 * sigma:.5f}")


def test_criterion_11_sampler_uniformity():
    gate = Gate(11, "chi-square uniformity of the exact sampler", 30)
    ok = True
    for g, seed in [(complete_graph(4), 4), (complete_multipartite(2, 3), 5)]:
        outcomes = [m.edge_set for m in enumerate_pm(g)]
        index = {m: i for i, m in enumerate(outcomes)}
        counts = [0] * len(outcomes)
        rng = random.Random(seed)
        draws = 3000
        for _ in range(draws):
            counts[index[sample_pm(g, rng).edge_set]] += 1
        expected = draws / len(outcomes)
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        cutoff = chi2.ppf(0.99, df=len(outcomes) - 1)
        if statistic > cutoff:
            ok = False
    gate.finish(ok)


def test_criterion_12_expansion_certificates():
    gate = Gate(12, "expansion certificates with revalidating witnesses", 10)
    params = ExpansionParams(0.1, 0.3)
    ok = certify_exact(complete_graph(6), params).verdict is Verdict.PASS
    triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cert = certify_exact(triangles, params)
    ok &= cert.verdict is Verdict.FAIL and cert.witness is not None
    rn = robust_neighbourhood(triangles, cert.witness, params.nu)
    ok &= len(rn) < len(cert.witness) + params.nu * triangles.n
    gate.finish(ok, f"witness={cert.witness}")
