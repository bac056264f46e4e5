"""The three benchmark workloads: hosts, operations and output checks.

An operation is one analysis, as a `matchlab` subcommand would run it,
on one host.  Each operation receives freshly built `Graph`/`Digraph`
objects, so no per-graph memo carries over from an earlier operation or
pass, just as no memo carries over between two CLI invocations.  The
call sequences mirror the runners in `matchlab.cli` and go through module
attributes (`pm.count_pm`, not a local binding), so the traced run sees
every call.

Checks run outside the timed region.  `check_outputs` verifies exact
identities that hold for every seed; `digest` reduces an output to the
ints, Fractions, tuples and floats that are compared with the values
recorded from the seed commit at the default seed.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import inputs
from matchlab import expansion, graphs, pm, stats, switching, walks
from matchlab.errors import NoPerfectMatchingError
from matchlab.graphs import Bipartition, Digraph, Graph

NO_PM = "no perfect matching"

# Exact-reports hosts are split by what bounds them: the DP-bound reports
# (count, pmf, avoidance, edge_prob) run on n = 20..22, the
# enumeration-bound ones (switching, disjoint) on n = 8..10.  Complete and
# complete-multipartite hosts do the same work under every relabelling;
# the random dense regular hosts vary a little with the seed, which is
# why they are large (the DP state count barely depends on structure) or
# few.
# The no-PM hosts are two odd cliques.  Two K13 answer `count` in a
# fraction of a second, but with interleaved labels `first_pm` searches
# exponentially (two K11 already take 14 s), so the reports that pick a
# reference matching (pmf, avoidance) use two K9, relabelled at random,
# where the same search costs about 0.1 s.  The two K13 take the even and
# the odd labels: how the cliques interleave sets the DP's work (0.04 to
# 0.15 s over random relabellings), and any relabelling within a clique
# gives the same graph, so this host is the same on every seed.


@dataclass(frozen=True)
class Host:
    """Generated edge list of one input; `side_a` marks a bipartition."""

    n: int
    edges: tuple
    directed: bool = False
    side_a: Optional[frozenset] = None
    odd_component: bool = False

    def build(self):
        if self.directed:
            return Digraph(self.n, self.edges)
        g = Graph(self.n, self.edges)
        if self.side_a is None:
            return g
        return g, Bipartition(self.side_a, set(range(self.n)) - self.side_a)


@dataclass(frozen=True)
class Op:
    """One analysis on one host.  A `shared` operation gets the host
    object that every shared operation on that host uses within a pass,
    so the per-graph memo is built once per host and pass."""

    analysis: str
    host: str
    params: tuple = ()
    shared: bool = False

    @property
    def key(self) -> str:
        tail = ",".join(str(p) for p in self.params)
        return f"{self.analysis}:{self.host}" + (f":{tail}" if tail else "")


def _rng(workload: str, seed: int, host: str) -> random.Random:
    # String seeds are hashed with SHA-512, so the inputs do not depend on
    # the interpreter's hash randomisation.
    return random.Random(f"{workload}/{host}/{seed}")


def _graph(n, edges, rng, **kw) -> Host:
    return Host(n, tuple(inputs.relabel(n, edges, rng)), **kw)


def _two_cliques(k, rng) -> Host:
    n, edges = inputs.disjoint_union((k, inputs.complete(k)), (k, inputs.complete(k)))
    return _graph(n, edges, rng, odd_component=k % 2 == 1)


def _interleaved_cliques(k) -> Host:
    """Two K_k, one on the even labels and one on the odd."""
    edges = [(u, v) for u in range(2 * k) for v in range(u + 2, 2 * k, 2)]
    return Host(2 * k, tuple(edges), odd_component=k % 2 == 1)


def _bipartite(b, c, rng) -> Host:
    """K_{b,b} minus c random perfect matchings, sides relabelled."""
    gone = set()
    for _ in range(c):
        perm = list(range(b))
        rng.shuffle(perm)
        gone.update((a, b + perm[a]) for a in range(b))
    edges = [(a, b + x) for a in range(b) for x in range(b) if (a, b + x) not in gone]
    perm = list(range(2 * b))
    rng.shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return Host(2 * b, tuple(edges), side_a=frozenset(perm[:b]))


HOSTS_EXACT = {
    "dense22": lambda r: _graph(22, inputs.dense_regular(22, 18, r), r),
    "cocktail20": lambda r: _graph(20, inputs.multipartite(10, 2), r),
    "nopm26": lambda r: _interleaved_cliques(13),
    "nopm18": lambda r: _two_cliques(9, r),
    "cocktail10": lambda r: _graph(10, inputs.multipartite(5, 2), r),
    "k8": lambda r: _graph(8, inputs.complete(8), r),
    "k55": lambda r: _graph(10, inputs.multipartite(2, 5), r),
    "cocktail8": lambda r: _graph(8, inputs.multipartite(4, 2), r),
    "dense10": lambda r: _graph(10, inputs.dense_regular(10, 6, r), r),
}


HOSTS_SAMPLING = {
    "cocktail12": lambda r: _graph(12, inputs.multipartite(6, 2), r),
    "dense16": lambda r: _graph(16, inputs.dense_regular(16, 12, r), r),
    "dense20": lambda r: _graph(20, inputs.dense_regular(20, 16, r), r),
}


HOSTS_CERTIFY = {
    "dense16": lambda r: _graph(16, inputs.dense_regular(16, 12, r), r),
    "k4x4": lambda r: _graph(16, inputs.multipartite(4, 4), r),
    "twok9": lambda r: _two_cliques(9, r),
    "bip14": lambda r: _bipartite(14, 3, r),
    "walk16": lambda r: _graph(16, inputs.dense_regular(16, 12, r), r),
    "circ28": lambda r: Host(28, tuple(inputs.circulant_arcs(28, 14, r)), directed=True),
}


NU, TAU = Fraction(1, 10), Fraction(3, 10)
# Sampling runs in chunks of a few tenths of a second, so the speed
# reference (speed.py) is read often enough to follow the machine.
CHUNKS = 3
MC_SAMPLES = 1000
FREQ_SAMPLES = 2000
REFUTE_TRIALS = 20000


def _ops_exact(seed):
    ops = []
    for host in ("dense22", "cocktail20"):
        ops += [Op(a, host) for a in ("count", "pmf", "avoidance", "edge_prob")]
    ops += [Op("count", "nopm26"), Op("edge_prob", "nopm26")]
    ops += [Op("pmf", "nopm18"), Op("avoidance", "nopm18")]
    for host in ("cocktail10", "k8", "k55"):
        ops += [Op("switching", host, (k,)) for k in (1, 2)]
    ops += [Op("disjoint", host) for host in ("k8", "k55", "cocktail8", "dense10")]
    return ops


def _ops_sampling(seed):
    ops = []
    for i, host in enumerate(("cocktail12", "dense16", "dense20")):
        for chunk in range(CHUNKS):
            mc_seed = (seed * 10 + i) * CHUNKS + chunk
            ops.append(Op("disjoint_mc", host, (MC_SAMPLES, mc_seed), shared=True))
            ops.append(Op("edge_freq", host, (FREQ_SAMPLES, mc_seed), shared=True))
    return ops


def _ops_certify(seed):
    return [
        Op("certify_exact", "dense16", (NU, TAU)),
        Op("certify_exact", "k4x4", (NU, TAU)),
        Op("certify_exact", "twok9", (NU, TAU)),
        Op("certify_bipartite", "bip14", (NU, Fraction(1, 4))),
        Op("refute_sampled", "dense16", (NU, TAU, REFUTE_TRIALS, seed)),
        Op("refute_sampled", "twok9", (NU, TAU, REFUTE_TRIALS, seed)),
        Op("walks", "walk16", (NU, TAU)),
        Op("walks", "circ28", (Fraction(1, 7), None)),
    ]


WORKLOADS = {
    "exact-reports": (HOSTS_EXACT, _ops_exact),
    "sampling": (HOSTS_SAMPLING, _ops_sampling),
    "certify": (HOSTS_CERTIFY, _ops_certify),
}

# End-to-end sums over one pass: which analyses each one adds up.
ANALYSIS_SUMS = {
    "pmf_s": ("pmf",),
    "switching_s": ("switching",),
    "disjoint_s": ("disjoint", "disjoint_mc"),
    "expander_s": ("certify_exact", "certify_bipartite", "refute_sampled"),
    "walks_s": ("walks",),
}


def generate(workload: str, seed: int) -> tuple[dict, list]:
    """Edge lists of every host, and the operation list, for one seed."""
    makers, ops_of = WORKLOADS[workload]
    hosts = {name: make(_rng(workload, seed, name)) for name, make in makers.items()}
    return hosts, ops_of(seed)


def draws_of(op: Op) -> int:
    """sample_pm draws an operation makes."""
    if op.analysis == "disjoint_mc":
        return 3 * op.params[0]
    if op.analysis == "edge_freq":
        return op.params[0]
    return 0


# -- call sequences ------------------------------------------------------------


def _count(g):
    return pm.count_pm(g)


def _pmf(g):
    ref = pm.first_pm(g)
    if ref is None:
        return NO_PM
    d = graphs.regularity(g)
    dist = stats.intersection_pmf(g, ref)
    lam = len(list(ref)) / d
    pois = stats.poisson_reference(lam, dist)
    return ref, dist, lam, stats.tv_distance(dist, pois)


def _avoidance(g):
    ref = pm.first_pm(g)
    if ref is None:
        return NO_PM
    return ref, stats.avoidance_ratio(g, ref)


def _edge_prob(g):
    try:
        return {e: stats.edge_probability(g, e) for e in g.edges}
    except NoPerfectMatchingError:
        return NO_PM


def _switching(g, k):
    ref = pm.first_pm(g)
    return ref, tuple(
        switching.ratio_report(g, ref, k, ell) for ell in range(2, g.n // 2 + 1)
    )


def _disjoint(g):
    return stats.disjoint_probability(g, 2, mode="exact")


def _disjoint_mc(g, samples, seed):
    return stats.disjoint_probability(g, 3, mode="montecarlo", samples=samples, seed=seed)


def _edge_freq(g, samples, seed):
    return stats.empirical_edge_freq(g, samples, seed)


def _certify_exact(g, nu, tau):
    return expansion.certify_exact(g, expansion.ExpansionParams(nu, tau))


def _certify_bipartite(gp, nu, tau):
    g, part = gp
    return expansion.certify_bipartite(g, part, expansion.ExpansionParams(nu, tau))


def _refute(g, nu, tau, trials, seed):
    return expansion.refute_sampled(g, expansion.ExpansionParams(nu, tau), trials, seed)


@dataclass
class WalksOut:
    cert: Optional[expansion.ExpansionCertificate]
    ell: int
    counts: list
    k: int
    pk: walks.StochasticMatrix
    sandwich: bool
    mix: walks.MixingParams
    t: int
    report: walks.MixingReport


def _walks(obj, nu, tau):
    """The `walks` analysis; the certificate only when a window is given
    (hosts above the sweep cap skip it)."""
    dg = graphs.to_bidirected(obj) if isinstance(obj, Graph) else obj
    n = dg.n
    cert = None
    if tau is not None:
        cert = expansion.certify_exact(dg, expansion.ExpansionParams(nu, tau))
    ell = min(n, math.ceil(1 / nu) + 1)
    counts = [walks.count_walks(dg, u, v, ell) for u in range(n) for v in range(n) if u != v]
    k = math.ceil(1 / nu) + 1
    p = walks.transition_matrix(dg)
    pk = walks.matrix_power(p, k)
    sigma = walks.uniform_distribution(n)
    sandwich = walks.sandwich_check(dg, k, nu, Fraction(dg.out_degree(0), n))
    mix = walks.mixing_params(pk, sigma)
    t = math.ceil(mix.threshold)
    report = walks.mixing_bound_check(pk, sigma, t)
    return WalksOut(cert, ell, counts, k, pk, sandwich, mix, t, report)


ANALYSES: dict[str, Callable] = {
    "count": _count,
    "pmf": _pmf,
    "avoidance": _avoidance,
    "edge_prob": _edge_prob,
    "switching": _switching,
    "disjoint": _disjoint,
    "disjoint_mc": _disjoint_mc,
    "edge_freq": _edge_freq,
    "certify_exact": _certify_exact,
    "certify_bipartite": _certify_bipartite,
    "refute_sampled": _refute,
    "walks": _walks,
}


def run_op(op: Op, obj):
    return ANALYSES[op.analysis](obj, *op.params)


# -- digests: the values compared across passes and with the recording --------


def _cert(c):
    return (c.verdict.value, c.witness, c.sets_checked)


def digest(op: Op, out):
    a = op.analysis
    if isinstance(out, str):
        return out
    if a == "count":
        return out
    if a == "pmf":
        ref, dist, lam, tv = out
        return (ref.pairs, tuple(sorted(dist.probs.items())), lam, tv)
    if a == "avoidance":
        ref, (exact, reference) = out
        return (ref.pairs, exact, reference)
    if a == "edge_prob":
        return tuple(sorted(out.items()))
    if a == "switching":
        ref, reports = out
        return (ref.pairs, tuple(
            (r.ell, r.size_k, r.size_km1, r.exact_ratio, r.predicted,
             r.left_stats, r.right_stats, r.edge_count, r.double_count_ok)
            for r in reports
        ))
    if a == "disjoint":
        return out
    if a == "disjoint_mc":
        value, reference = out
        return (round(value * op.params[0]), reference)
    if a == "edge_freq":
        samples = op.params[0]
        return tuple(sorted((e, round(f * samples)) for e, f in out.items()))
    if a in ("certify_exact", "certify_bipartite", "refute_sampled"):
        return _cert(out)
    if a == "walks":
        return (
            None if out.cert is None else _cert(out.cert),
            out.ell, min(out.counts), max(out.counts), sum(out.counts), out.k,
            out.sandwich, out.mix.alpha, out.mix.beta, out.t,
            out.report.passes, out.report.exact_pass,
        )
    raise KeyError(a)


def same(expected, actual) -> bool:
    """Structural equality; floats within 1e-9 relative."""
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-15)
        )
    if isinstance(expected, (tuple, list)):
        return (
            isinstance(actual, (tuple, list))
            and len(expected) == len(actual)
            and all(same(x, y) for x, y in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def encode(x):
    """JSON form of a digest: Fractions tagged, tuples as lists."""
    if isinstance(x, Fraction):
        return {"q": f"{x.numerator}/{x.denominator}"}
    if isinstance(x, (tuple, list)):
        return [encode(y) for y in x]
    return x


def decode(x):
    if isinstance(x, dict):
        return Fraction(x["q"])
    if isinstance(x, list):
        return tuple(decode(y) for y in x)
    return x


# -- identities that hold on every seed ----------------------------------------


def _adjacency(host: Host) -> list[set]:
    adj = [set() for _ in range(host.n)]
    for u, v in host.edges:
        adj[u].add(v)
        if not host.directed:
            adj[v].add(u)
    return adj


def _in_sets(host: Host) -> list[set]:
    """Vertices counting towards v's robust membership: neighbours, or
    in-neighbours for a digraph."""
    if not host.directed:
        return _adjacency(host)
    ins = [set() for _ in range(host.n)]
    for u, v in host.edges:
        ins[v].add(u)
    return ins


def _violates(ins, witness, scale, nu) -> bool:
    """Own brute-force expansion test of one set."""
    s = set(witness)
    need = nu * scale
    robust = sum(1 for nb in ins if len(nb & s) >= need)
    return robust < len(s) + need


def _window_total(scale, tau) -> int:
    lo = math.ceil(tau * scale)
    hi = math.floor((1 - tau) * scale)
    return sum(math.comb(scale, s) for s in range(lo, hi + 1))


def _check_cert(c, ins, scale, nu, tau, swept: Optional[int], universe=None) -> list:
    errs = []
    if c.verdict.value == "fail":
        lo, hi = math.ceil(tau * scale), math.floor((1 - tau) * scale)
        w = c.witness
        if w is None or not lo <= len(w) <= hi or list(w) != sorted(set(w)):
            errs.append(f"bad witness {w}")
        elif universe is not None and not set(w) <= universe:
            errs.append("witness leaves the side")
        elif not _violates(ins, w, scale, nu):
            errs.append(f"witness {w} does not violate expansion")
    elif c.verdict.value == "pass":
        if swept is None:
            errs.append("sampling returned a pass")
        elif c.sets_checked != swept:
            errs.append(f"pass swept {c.sets_checked} sets, window has {swept}")
    elif swept is not None:
        errs.append("exact sweep was inconclusive")
    return errs


def _regular_degree(host: Host) -> int:
    return 2 * len(host.edges) // host.n


def _switch_pair(m_hi, m_lo, ref_edges, ell) -> bool:
    """Independent switch-edge predicate: component walk of the symmetric
    difference instead of the module's cycle traversal."""
    diff = m_hi.edge_set ^ m_lo.edge_set
    if len(diff) != 2 * ell:
        return False
    shared = diff & ref_edges
    if len(shared) != 1 or not shared <= m_hi.edge_set:
        return False
    adj: dict = {}
    for u, v in diff:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == 2 * ell


def _is_pm(adj: list, matching) -> bool:
    covered = sorted(v for e in matching for v in e)
    return covered == list(range(len(adj))) and all(v in adj[u] for u, v in matching)


def _degree_stats(degs: list) -> tuple:
    if not degs:
        return (0, 0, None)
    return (min(degs), max(degs), Fraction(sum(degs), len(degs)))


def check_outputs(hosts: dict, ops: list, outs: dict) -> dict:
    """Errors per operation key, for the outputs of one pass."""
    errors = {}
    strata_cache: dict = {}

    def strata(host, ref):
        key = (host, ref.pairs)
        if key not in strata_cache:
            strata_cache[key] = pm.stratify(hosts[host].build(), ref).counts
        return strata_cache[key]

    for op in ops:
        try:
            errs = _CHECKS[op.analysis](op, hosts[op.host], outs[op.key], strata)
        except Exception:  # a check that cannot run fails its operation
            errs = [traceback.format_exc(limit=4)]
        if errs:
            errors[op.key] = errs
    return errors


def _check_count(op, host, out, strata):
    if host.odd_component:
        return [] if out == 0 else [f"count {out} on a host with an odd component"]
    ref = pm.first_pm(host.build())
    total = sum(strata(op.host, ref).values())
    return [] if out == total else [f"count {out} != strata sum {total}"]


def _check_no_pm(op, host, out):
    if host.odd_component:
        return [] if out == NO_PM else ["expected 'no perfect matching'"]
    if out == NO_PM:
        return ["reported no perfect matching on a host that has one"]
    return None


def _check_pmf(op, host, out, strata):
    done = _check_no_pm(op, host, out)
    if done is not None:
        return done
    ref, dist, lam, tv = out
    errs = [] if _is_pm(_adjacency(host), ref.pairs) else ["reference is not a perfect matching"]
    counts = strata(op.host, ref)
    total = sum(counts.values())
    want = {k: Fraction(c, total) for k, c in counts.items()}
    if dict(dist.probs) != want:
        errs.append("pmf differs from strata / total")
    if sum(dist.probs.values()) != 1:
        errs.append("pmf does not sum to 1")
    if lam != (host.n / 2) / _regular_degree(host):
        errs.append(f"lambda {lam}")
    if not 0 <= tv <= 1:
        errs.append(f"tv {tv}")
    return errs


def _check_avoidance(op, host, out, strata):
    done = _check_no_pm(op, host, out)
    if done is not None:
        return done
    ref, (exact, reference) = out
    counts = strata(op.host, ref)
    errs = []
    if exact != Fraction(counts.get(0, 0), sum(counts.values())):
        errs.append("avoidance differs from stratum 0 / total")
    if not math.isclose(reference, math.exp(-(host.n / 2) / _regular_degree(host)), rel_tol=1e-12):
        errs.append(f"reference {reference}")
    return errs


def _check_edge_prob(op, host, out, strata):
    done = _check_no_pm(op, host, out)
    if done is not None:
        return done
    if set(out) != set(host.edges):
        return ["edge probabilities do not cover the edge set"]
    at = [Fraction(0)] * host.n
    for (u, v), p in out.items():
        at[u] += p
        at[v] += p
    bad = [v for v in range(host.n) if at[v] != 1]
    return [f"edge probabilities at vertex {bad[0]} sum to {at[bad[0]]}"] if bad else []


def _check_switching(op, host, out, strata):
    (k,) = op.params
    ref, reports = out
    counts = strata(op.host, ref)
    ref_edges = ref.edge_set
    d = _regular_degree(host)
    adj = _adjacency(host)
    errs = []
    if [r.ell for r in reports] != list(range(2, host.n // 2 + 1)):
        errs.append("ell sweep incomplete")
    for r in reports:
        tag = f"ell={r.ell}"
        if (r.size_k, r.size_km1) != (counts.get(k, 0), counts.get(k - 1, 0)):
            errs.append(f"{tag}: strata sizes differ from stratify")
        if r.exact_ratio != Fraction(r.size_k, r.size_km1):
            errs.append(f"{tag}: exact ratio")
        if r.predicted != Fraction(host.n // 2 - (k - 1), k * d):
            errs.append(f"{tag}: prediction")
        h = switching.build_switch_graph(host.build(), ref, k, r.ell)
        ldeg, rdeg = h.left_degrees(), h.right_degrees()
        if not (r.double_count_ok and sum(ldeg) == h.edge_count == sum(rdeg) == r.edge_count):
            errs.append(f"{tag}: double count")
        if (len(h.left), len(h.right)) != (r.size_k, r.size_km1):
            errs.append(f"{tag}: switch graph sides differ from the strata")
        if len(set(h.left)) != len(h.left) or len(set(h.right)) != len(h.right):
            errs.append(f"{tag}: repeated matching in a stratum")
        if any(len(m.edge_set & ref_edges) != k or not _is_pm(adj, m.pairs) for m in h.left):
            errs.append(f"{tag}: bad left matching")
        if any(len(m.edge_set & ref_edges) != k - 1 or not _is_pm(adj, m.pairs) for m in h.right):
            errs.append(f"{tag}: bad right matching")
        listed = set(h.edges)
        for i, m in enumerate(h.left):
            for j, mp in enumerate(h.right):
                if ((i, j) in listed) != _switch_pair(m, mp, ref_edges, r.ell):
                    errs.append(f"{tag}: switch edge ({i}, {j}) fails the recheck")
                    break
        if (r.left_stats, r.right_stats) != (_degree_stats(ldeg), _degree_stats(rdeg)):
            errs.append(f"{tag}: degree statistics")
    return errs


def _check_disjoint(op, host, out, strata):
    value, reference = out
    g = host.build()
    total = pm.count_pm(g)
    good = sum(
        pm.count_pm(graphs.remove_edge_set(host.build(), m)) for m in pm.enumerate_pm(g)
    )
    errs = [] if value == Fraction(good, total**2) else [f"value {value} != {good}/{total}^2"]
    d = _regular_degree(host)
    if not math.isclose(reference, math.exp(-(host.n / (2 * d))), rel_tol=1e-12):
        errs.append(f"reference {reference}")
    return errs


def _check_disjoint_mc(op, host, out, strata):
    samples, seed = op.params
    value, reference = out
    # Replay the estimator with the same draws, checking each draw.
    g = host.build()
    adj = _adjacency(host)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        draws = [pm.sample_pm(g, rng) for _ in range(3)]
        if not all(_is_pm(adj, m.pairs) for m in draws):
            return ["a draw is not a perfect matching of the host"]
        used = [e for m in draws for e in m.pairs]
        hits += len(used) == len(set(used))
    errs = [] if value == hits / samples else [f"estimate {value} != replayed {hits}/{samples}"]
    d = _regular_degree(host)
    if not math.isclose(reference, math.exp(-(host.n / (2 * d)) * 3), rel_tol=1e-12):
        errs.append(f"reference {reference}")
    return errs


def _check_edge_freq(op, host, out, strata):
    samples = op.params[0]
    if set(out) != set(host.edges):
        return ["frequencies do not cover the edge set"]
    counts = {e: round(f * samples) for e, f in out.items()}
    if any(c / samples != out[e] for e, c in counts.items()):
        return ["a frequency is not a count / samples"]
    # Each draw is a matching (Matching rejects a reused vertex), so
    # `samples` hits at every vertex mean every draw was perfect.
    at = [0] * host.n
    for (u, v), c in counts.items():
        at[u] += c
        at[v] += c
    return [] if all(x == samples for x in at) else ["a draw missed a vertex"]


def _check_certify_exact(op, host, out, strata):
    nu, tau = op.params
    return _check_cert(out, _in_sets(host), host.n, nu, tau, _window_total(host.n, tau))


def _check_certify_bipartite(op, host, out, strata):
    nu, tau = op.params
    side = len(host.side_a)
    return _check_cert(out, _adjacency(host), side, nu, tau, _window_total(side, tau), host.side_a)


def _check_refute(op, host, out, strata):
    nu, tau, trials, _ = op.params
    errs = _check_cert(out, _in_sets(host), host.n, nu, tau, None)
    if out.verdict.value == "inconclusive" and out.sets_checked != trials:
        errs.append(f"inconclusive after {out.sets_checked} of {trials} trials")
    return errs


def _check_walks(op, host, out, strata):
    nu, tau = op.params
    n = host.n
    dhost = host if host.directed else Host(n, tuple(inputs.bidirected(host.edges)), directed=True)
    errs = []
    if out.cert is not None:
        errs += _check_cert(out.cert, _in_sets(dhost), n, nu, tau, _window_total(n, tau))
    rows = out.pk.rows
    if any(sum(row) != 1 for row in rows):
        errs.append("a row of P^k does not sum to 1")
    deg = len(dhost.edges) // n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if out.ell == out.k and any(
        deg**out.k * rows[u][v] != c for (u, v), c in zip(pairs, out.counts)
    ):
        errs.append("d^k P^k differs from the walk counts")
    delta = Fraction(deg, n)
    lower, upper = nu ** (out.k - 1) * delta ** (-out.k), 1 / delta
    inside = all(lower <= n * x <= upper for row in rows for x in row)
    if inside != out.sandwich:
        errs.append("sandwich verdict differs from P^k")
    lo = min(min(row) for row in rows)
    hi = max(max(row) for row in rows)
    if (out.mix.alpha, out.mix.beta) != (n * lo, n * hi):
        errs.append("mixing alpha/beta differ from P^k")
    return errs


_CHECKS = {
    "count": _check_count,
    "pmf": _check_pmf,
    "avoidance": _check_avoidance,
    "edge_prob": _check_edge_prob,
    "switching": _check_switching,
    "disjoint": _check_disjoint,
    "disjoint_mc": _check_disjoint_mc,
    "edge_freq": _check_edge_freq,
    "certify_exact": _check_certify_exact,
    "certify_bipartite": _check_certify_bipartite,
    "refute_sampled": _check_refute,
    "walks": _check_walks,
}
