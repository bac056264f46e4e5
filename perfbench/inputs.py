"""Seeded host generator for the benchmark.

Everything here is the benchmark's own code and depends only on the
standard library, so the inputs for a given seed stay the same whatever
later changes do to `matchlab.graphs` (its `random_regular` cannot reach
dense degrees, and its algorithm is due to change).  Hosts are plain edge
lists; the program only ever sees `Graph`/`Digraph` objects built from
them.

Dense regular hosts are complements of sparse pairing-model graphs, and
every host is relabelled by a permutation drawn from the seed, so the
lowest-vertex-first order of the matching kernels meets a different
labelling on every seed.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]

_PAIRING_ATTEMPTS = 100_000


def complete(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def multipartite(parts: int, size: int) -> list[Edge]:
    n = parts * size
    return [(u, v) for u in range(n) for v in range(u + 1, n) if u // size != v // size]


def sparse_regular(n: int, c: int, rng: random.Random) -> list[Edge]:
    """Uniform simple c-regular graph by the pairing model with rejection;
    fine for the small c used here (acceptance about exp(-(c*c-1)/4))."""
    if c == 0:
        return []
    stubs = [v for v in range(n) for _ in range(c)]
    for _ in range(_PAIRING_ATTEMPTS):
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)
    raise RuntimeError(f"no simple {c}-regular pairing on {n} vertices")


def dense_regular(n: int, d: int, rng: random.Random) -> list[Edge]:
    """d-regular host on n vertices: the complement of a sparse
    (n-1-d)-regular one."""
    gone = set(sparse_regular(n, n - 1 - d, rng))
    return [e for e in complete(n) if e not in gone]


def disjoint_union(*parts: tuple[int, list[Edge]]) -> tuple[int, list[Edge]]:
    edges: list[Edge] = []
    offset = 0
    for n, part in parts:
        edges.extend((u + offset, v + offset) for u, v in part)
        offset += n
    return offset, edges


def relabel(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )


def circulant_arcs(n: int, d: int, rng: random.Random) -> list[Edge]:
    """Directed d-regular host: arcs x -> x + s (mod n) for d distinct
    nonzero shifts s drawn from the seed, then relabelled."""
    shifts = rng.sample(range(1, n), d)
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[x], perm[(x + s) % n]) for x in range(n) for s in shifts)


def bidirected(edges: list[Edge]) -> list[Edge]:
    return sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
