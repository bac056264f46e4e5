"""Theorem-level quantities: exact edge-inclusion probabilities, the
distribution of the overlap between a random perfect matching and a
fixed reference, Poisson references, total-variation distance, and
avoidance/disjointness ratios.

Exact distributions are rational end to end; only Poisson references
and distances are floats.  A truncated Poisson records the mass it
dropped, and the distance computation adds half of that tail back, so
the reported value is the true distance whenever the exact support fits
inside the truncation window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import symmetry
from .errors import MatchlabError, NoPerfectMatchingError, ResourceLimitError
from .graphs import Edge, Graph, edge_set, regularity
from .pm import (
    _count_avoiding,
    _draws,
    _key_pairs,
    _pm_keys,
    _search,
    count_pm,
    count_pm_containing,
    stratify,
)

# Read at each call, so a value set on the module reaches every caller.
DEFAULT_TUPLE_BUDGET = 10_000_000

Prob = Union[Fraction, float]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on non-negative integers.

    Exact PMFs hold Fractions summing to exactly one; float PMFs (the
    Poisson references) may be truncated, with the dropped tail recorded
    in `truncation_mass`.
    """

    probs: dict[int, Prob]
    exact: bool
    truncation_mass: float = 0.0

    def support(self) -> list[int]:
        return sorted(self.probs)

    def prob(self, k: int) -> Prob:
        return self.probs.get(k, Fraction(0) if self.exact else 0.0)


def edge_probability(g: Graph, e: Edge) -> Fraction:
    """Exact probability that a uniform perfect matching contains e."""
    u, v = e
    if not g.has_edge(u, v):
        raise MatchlabError(f"edge ({u}, {v}) not in graph")
    total = count_pm(g)
    if total == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    return Fraction(count_pm_containing(g, [(u, v)]), total)


def intersection_pmf(g: Graph, reference) -> Pmf:
    """Exact distribution of |M intersect reference| for uniform M."""
    strata = stratify(g, reference)
    total = strata.total()
    if total == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    return Pmf(
        probs={k: Fraction(c, total) for k, c in strata.counts.items()},
        exact=True,
    )


def poisson_pmf(lam: float, k_max: int) -> Pmf:
    """Poisson reference on 0..k_max, terms computed in log space; the
    dropped tail is recorded, never silently ignored."""
    lam = float(lam)
    if lam < 0:
        raise MatchlabError("rate must be non-negative")
    if lam == 0:
        return Pmf(probs={0: 1.0}, exact=False, truncation_mass=0.0)
    probs = {}
    loglam = math.log(lam)
    for k in range(k_max + 1):
        probs[k] = math.exp(-lam + k * loglam - math.lgamma(k + 1))
    trunc = max(0.0, 1.0 - math.fsum(probs.values()))
    return Pmf(probs=probs, exact=False, truncation_mass=trunc)


def poisson_reference(lam: float, exact: Pmf) -> Pmf:
    """Poisson PMF truncated generously past the exact support."""
    top = max(exact.support()) if exact.probs else 0
    k_max = int(top + math.ceil(10 * lam) + 20)
    return poisson_pmf(lam, k_max)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Half the l1 distance over the union of supports.

    Truncated mass on either side is added at half weight: a truncated
    tail sits where the other PMF carries nothing, so this recovers the
    exact distance whenever supports fit the truncation windows.
    """
    keys = set(p.probs) | set(q.probs)
    acc = 0.0
    for k in keys:
        acc += abs(float(p.prob(k)) - float(q.prob(k)))
    return 0.5 * acc + 0.5 * (p.truncation_mass + q.truncation_mass)


def avoidance_ratio(g: Graph, reference) -> tuple[Fraction, float]:
    """Exact probability that a uniform perfect matching avoids the
    reference edges (stratum 0 of intersection_pmf), next to the Poisson
    zero-term exp(-e(N)/d)."""
    d = regularity(g)
    if d is None:
        raise MatchlabError("graph must be regular")
    ref = edge_set(reference)
    lam = len(ref) / d if d else 0.0
    return intersection_pmf(g, ref).prob(0), math.exp(-lam)


def disjoint_probability(
    g: Graph,
    r: int,
    mode: str = "exact",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[Prob, float]:
    """Probability that r independent uniform perfect matchings are
    pairwise edge-disjoint, with the reference exp(-(n/2d) * C(r, 2)).

    Exact mode counts ordered r-tuples by nested enumeration (each next
    matching is a perfect matching of the host minus the union so far,
    and the last level is counted, not listed); for r >= 3 it refuses
    politely once count^(r-1), the number of listed prefixes it may
    visit, exceeds DEFAULT_TUPLE_BUDGET.  The nesting runs on neighbour
    masks with each listed matching's bits cleared, building no Graph:
    the host's key list (pm._pm_keys) at the first level, pm's search
    below it, and pm._count_avoiding at the last.  An automorphism of
    the host that maps M to M' maps G - M onto G - M', so the first level
    counts one matching per orbit of the key list under the host's
    automorphisms (`symmetry.generators` with no second edge colour, then
    `symmetry.key_orbits`, once per call; nothing is kept on the graph)
    and weights it by the orbit's size: at r = 2 one count per orbit,
    one in all on K8.  Monte Carlo mode estimates the same probability
    from `samples` r-tuples of the sampler's stream of draws (pm._draws),
    read r at a time and never listed, and counts nothing: its first draw
    raises on a host with no perfect matching or past the cap.  Each draw
    is the list of its edge ids, n/2 distinct ones.  A tuple is pairwise
    disjoint exactly when each draw is disjoint from the set of the ids
    before it, so the set starts as the first draw's ids and the tuple
    is dropped at the first later draw that shares one; every draw of
    the tuple is still taken from the stream.
    `r`, `mode` and, in Monte Carlo mode, `samples` and `seed` (both
    required there, ignored in exact mode) are checked before anything is
    counted or drawn, on every host and every r.
    """
    if r < 1:
        raise MatchlabError("r must be at least 1")
    if mode not in ("exact", "montecarlo"):
        raise MatchlabError(f"unknown mode {mode!r}")
    if mode == "montecarlo" and (samples is None or samples < 1):
        raise MatchlabError("montecarlo mode needs at least one sample")
    if mode == "montecarlo" and seed is None:
        raise MatchlabError("montecarlo mode needs a seed")
    d = regularity(g)
    if d is None:
        raise MatchlabError("graph must be regular")
    reference = math.exp(-(g.n / (2 * d)) * math.comb(r, 2)) if d else 1.0
    if r == 1:
        return Fraction(1), reference

    if mode == "exact":
        total = count_pm(g)
        if total == 0:
            raise NoPerfectMatchingError("graph has no perfect matching")
        # r = 2 reduces to averaging pma(G - M) over one enumeration and
        # needs no tuple budget; deeper nesting lists at most count^(r-1)
        # prefixes and counts the last level, so that is what is gated.
        # A count of 2 or more to a power of at least the budget's bit
        # length exceeds it, so a large r is refused without the power.
        budget = DEFAULT_TUPLE_BUDGET
        if r >= 3 and (total > 1 and r - 1 >= budget.bit_length() or total ** (r - 1) > budget):
            raise ResourceLimitError(f"{total}^{r - 1} listed prefixes exceed the exact budget {budget}")

        n = g.n
        masks = g.neighbor_masks

        def plus(used: list[int], key: int) -> list[int]:
            # used with the edges of the matching `key` added
            nxt = list(used)
            for u, v in _key_pairs(key, n):
                nxt[u] |= 1 << v
                nxt[v] |= 1 << u
            return nxt

        def ordered_tuples(used: list[int], depth: int) -> int:
            # used: the neighbour masks of the union of the prefix so far
            if depth == 1:
                return _count_avoiding(g, used)
            keys = _search([m & ~u for m, u in zip(masks, used)])
            return sum(ordered_tuples(plus(used, key), depth - 1) for key in keys)

        # An automorphism of g maps G - M onto G - M', so every first
        # matching of one orbit leaves the same count.
        zero = [0] * n
        gens = symmetry.generators(masks, zero)
        reps, sizes, _ = symmetry.key_orbits(_pm_keys(g), gens, n)
        good = sum(size * ordered_tuples(plus(zero, key), r - 1) for key, size in zip(reps, sizes))
        return Fraction(good, total**r), reference

    draws = _draws(g, random.Random(seed), samples * r)
    hits = 0
    for first, *rest in zip(*[draws] * r):
        seen = set(first)
        for ids in rest:
            if not seen.isdisjoint(ids):
                break
            seen.update(ids)
        else:
            hits += 1
    return hits / samples, reference


def empirical_edge_freq(g: Graph, samples: int, seed: int) -> dict[Edge, float]:
    """Per-edge inclusion frequency over exactly uniform draws; with
    zero samples every frequency is reported as 0, after a count that
    raises on a host with no perfect matching (with samples, the first
    draw raises instead).  A negative `samples` raises MatchlabError before
    anything is counted.  The draws come from the sampler's stream
    (pm._draws) as edge ids u*n + v, tallied in a flat list by id."""
    if samples < 0:
        raise MatchlabError("samples must be non-negative")
    if samples == 0:
        if count_pm(g) == 0:
            raise NoPerfectMatchingError("graph has no perfect matching")
        return {e: 0.0 for e in g.edges}
    n = g.n
    tally = [0] * (n * n)
    for ids in _draws(g, random.Random(seed), samples):
        for i in ids:
            tally[i] += 1
    # keyed by g's own edge tuples, which every report on g then shares
    return {e: tally[e[0] * n + e[1]] / samples for e in g.edges}
