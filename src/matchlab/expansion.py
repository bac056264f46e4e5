"""Robust neighbourhoods and certification of robust expansion.

A set S expands robustly when the vertices seeing a positive fraction of
S are noticeably more numerous than S itself.  The exact certifier
sweeps every candidate set in a size window; the sampled refuter only
ever finds counterexamples.  All threshold comparisons are exact: the
expansion fraction and the window bounds are rationals, never rounded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    NotBipartiteError,
    TooLargeForExactSweepError,
    UnbalancedBipartitionError,
)
from .graphs import Bipartition, Digraph, Graph
from .rational import as_fraction

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
            raise ValueError("nu and tau must lie strictly between 0 and 1")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class ExpansionCertificate:
    """Outcome of an expansion check.

    A Fail always carries a violating witness set; a Pass can only come
    from the exhaustive sweep, never from sampling.
    """

    verdict: Verdict
    nu: Fraction
    tau: Fraction
    witness: Optional[tuple[int, ...]]
    sets_checked: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "nu": float(self.nu),
            "tau": float(self.tau),
            "witness": list(self.witness) if self.witness is not None else None,
            "sets_checked": self.sets_checked,
        }


def _in_masks(obj: Union[Graph, Digraph]) -> tuple[int, ...]:
    # Undirected graphs use plain neighbourhoods; digraphs count
    # in-neighbours, matching the out-neighbourhood definition.
    if isinstance(obj, Digraph):
        return obj.in_masks
    return obj.neighbor_masks


def robust_neighbourhood(g: Graph, subset, nu) -> frozenset[int]:
    """Vertices with at least nu*n neighbours inside `subset`."""
    return _robust_set(g.neighbor_masks, g.n, subset, as_fraction(nu) * g.n)


def robust_outneighbourhood(d: Digraph, subset, nu) -> frozenset[int]:
    """Vertices with at least nu*n in-neighbours inside `subset`."""
    return _robust_set(d.in_masks, d.n, subset, as_fraction(nu) * d.n)


def _robust_set(masks, n: int, subset, threshold: Fraction) -> frozenset[int]:
    smask = 0
    for v in subset:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        smask |= 1 << v
    # Neighbour counts are integers, so count >= threshold <=> count >= ceil.
    need = max(0, math.ceil(threshold))
    return frozenset(v for v in range(n) if (masks[v] & smask).bit_count() >= need)


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
        rn = 0
        for mask in masks:
            if (mask & smask).bit_count() >= need:
                rn += 1
        return rn < size + threshold

    return violates


def _sweep(masks, universe: list[int], scale: int, params: ExpansionParams) -> ExpansionCertificate:
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


def certify_exact(
    obj: Union[Graph, Digraph],
    params: ExpansionParams,
    limit: int = DEFAULT_SWEEP_LIMIT,
) -> ExpansionCertificate:
    """Exhaustive sweep over every set in the size window.

    Fails with the lexicographically first violating set; passes only
    after checking the whole window.
    """
    n = obj.n
    if n > limit:
        raise TooLargeForExactSweepError(f"n={n} above the sweep cap {limit}")
    return _sweep(_in_masks(obj), list(range(n)), n, params)


def refute_sampled(
    obj: Union[Graph, Digraph],
    params: ExpansionParams,
    trials: int,
    seed: int = 0,
) -> ExpansionCertificate:
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


def certify_bipartite(
    g: Graph,
    part: Bipartition,
    params: ExpansionParams,
    limit: int = DEFAULT_SWEEP_LIMIT,
) -> ExpansionCertificate:
    """Bipartite sweep: sets range over one class, the scale is the side
    size rather than the full vertex count."""
    if part.n != g.n:
        raise ValueError("bipartition does not cover the graph's vertex range")
    if len(part.side_a) != len(part.side_b):
        raise UnbalancedBipartitionError(
            f"sides have sizes {len(part.side_a)} and {len(part.side_b)}"
        )
    for u, v in g.edges:
        if (u in part.side_a) == (v in part.side_a):
            raise NotBipartiteError(f"edge ({u}, {v}) does not cross the bipartition")
    side = len(part.side_a)
    if side > limit:
        raise TooLargeForExactSweepError(f"side size {side} above the sweep cap {limit}")
    return _sweep(g.neighbor_masks, sorted(part.side_a), side, params)


def min_degree_sufficient(g: Graph, eps) -> bool:
    """Cheap sufficient condition: minimum degree at least (1/2 + eps)n."""
    if g.n == 0:
        return True
    bound = (Fraction(1, 2) + as_fraction(eps)) * g.n
    return min(g.degrees()) >= bound
