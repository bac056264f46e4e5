"""Automorphisms of a graph that keep a second edge set, and the orbits
they give the int keys of edge sets.

A host G and a reference N are two edge colours over the same vertices,
each given as one neighbour mask per vertex.  `generators` finds
permutations of the vertices that map E(G) onto E(G) and N onto N by the
search of McKay & Piperno (*Practical graph isomorphism, II*, J. Symbolic
Comput. 2014), cut down to three steps:

- equitable refinement of an ordered partition (`_refine`): every vertex
  of a cell has the same number of G-neighbours and of N-neighbours in
  every cell.  The root partition (`_root`) already groups the vertices
  by the triangles they close, which settles most hosts without
  symmetry at the root;
- individualisation along a first path: the lowest vertex of the first
  cell that is not a singleton becomes a cell of its own, and the result
  is refined, until every cell is a singleton (the first leaf);
- bottom level first, for each other vertex w of that level's target
  cell that no generator found so far maps the path's vertex to, a
  depth-first search of w's subtree for a leaf whose match with the
  first leaf, position by position, is an automorphism.  A subtree
  whose cell sizes part from the first path's at some level holds no
  such leaf and is cut there.

Every candidate is checked edge by edge on both colours
(`is_automorphism`) before it is kept, so each generator is an
automorphism whatever the search does.  The backtracking makes the
generators generate the whole group; a generator the search missed
would only leave orbits finer, never wrong.  `key_orbits` splits a list
of edge-set keys (bit u*n + v per edge, u < v, the keys `pm` lists
matchings as) into orbits under the generators.

`_orbits` is the one orbit helper of the package: it finds the
generators of a graph and a second colour once, keeps them with every
key's representative in `Graph._key_orbits`, and hands back one
representative per orbit with the orbit sizes.  Two callers read it:
`switching.ratio_report`, on the strata of a reference, and exact
`stats.disjoint_probability`, on the host's whole key list with the
empty colour (key 0).
"""

from __future__ import annotations

from typing import Sequence


def _mask(cell: list[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(cells: list[list[int]], queue: list[int], masks, ref) -> list[list[int]]:
    """Split the ordered partition `cells` by the vertex masks in `queue`
    and by every part split off on the way, until no splitter splits a
    cell: the coarsest equitable refinement when `cells` is already
    stable under the cells the queue leaves out (the root queues every
    cell, an individualisation only its new singleton).

    Each splitter w, in queue order, splits every cell by the count
    (G-neighbours in w, N-neighbours in w) of its vertices; the parts
    replace the cell in increasing count order and join the queue.  The
    order depends on the counts alone, so relabelling the input relabels
    the output."""
    n = len(masks)
    span = n + 1
    i = 0
    while i < len(queue) and len(cells) < n:
        w = queue[i]
        i += 1
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts: dict[int, list[int]] = {}
            for v in cell:
                c = (masks[v] & w).bit_count() * span + (ref[v] & w).bit_count()
                parts.setdefault(c, []).append(v)
            if len(parts) == 1:
                out.append(cell)
                continue
            for c in sorted(parts):
                part = parts[c]
                out.append(part)
                queue.append(_mask(part))
        cells = out
    return cells


def _root(masks, ref) -> tuple[list[list[int]], list[int]]:
    """The root partition and its splitters: the vertices grouped, in
    increasing order, by the triangles each closes with its G-neighbours
    and with its N-neighbours, a count that refinement alone does not see
    on a regular host."""
    n = len(masks)
    span = n * n
    parts: dict[int, list[int]] = {}
    for v in range(n):
        mv = masks[v]
        c = 0
        for u in range(n):
            if mv >> u & 1:
                c += (masks[u] & mv).bit_count() * span
            if ref[v] >> u & 1:
                c += (masks[u] & mv).bit_count()
        parts.setdefault(c, []).append(v)
    cells = [parts[c] for c in sorted(parts)]
    return cells, [_mask(cell) for cell in cells]


def _individualise(cells: list[list[int]], t: int, v: int, masks, ref) -> list[list[int]]:
    """Refine `cells` after making v, a vertex of cell t, a cell of its own
    placed before the rest of cell t."""
    rest = [u for u in cells[t] if u != v]
    split = cells[:t] + [[v], rest] + cells[t + 1:]
    return _refine(split, [1 << v], masks, ref)


def is_automorphism(perm: Sequence[int], masks, ref) -> bool:
    """True when the vertex permutation `perm` maps every edge of both
    colours (neighbour masks `masks` and `ref`) onto an edge of the same
    colour.  A bijection that does so maps each edge set onto itself."""
    n = len(masks)
    if sorted(perm) != list(range(n)):
        return False
    for colour in (masks, ref):
        for u, mask in enumerate(colour):
            image = colour[perm[u]]
            while mask:
                b = mask & -mask
                mask ^= b
                if not image >> perm[b.bit_length() - 1] & 1:
                    return False
    return True


def generators(masks, ref) -> list[list[int]]:
    """Generators of the automorphisms of the host whose neighbour masks
    are `masks` that map the reference (neighbour masks `ref`, edges of
    the same vertices) onto itself, each a list perm with v -> perm[v].
    An empty list when the search finds none, as on a host with no
    symmetry.  Every partition keeps each cell's vertices in increasing
    order, so a cell's first vertex is its lowest."""
    n = len(masks)
    if n < 2:
        return []
    path = [_refine(*_root(masks, ref), masks, ref)]
    targets = []
    while len(path[-1]) < n:
        cells = path[-1]
        t = next(t for t, cell in enumerate(cells) if len(cell) > 1)
        targets.append(t)
        path.append(_individualise(cells, t, cells[t][0], masks, ref))
    first = [cell[0] for cell in path[-1]]
    shapes = [[len(cell) for cell in cells] for cells in path]
    orbit = list(range(n))

    def find(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def leaf(cells: list[list[int]], level: int, u: int):
        """An automorphism that maps the first leaf to a leaf below
        `cells`, the partition at `level` of a subtree whose cell sizes
        matched the first path's so far, with u individualised; None
        when there is none."""
        below = _individualise(cells, targets[level], u, masks, ref)
        if [len(cell) for cell in below] != shapes[level + 1]:
            return None
        if level + 1 == len(targets):
            perm = [0] * n
            for x, cell in zip(first, below):
                perm[x] = cell[0]
            return perm if is_automorphism(perm, masks, ref) else None
        for x in below[targets[level + 1]]:
            perm = leaf(below, level + 1, x)
            if perm is not None:
                return perm
        return None

    found = []
    for level in reversed(range(len(targets))):
        cells = path[level]
        v, *others = cells[targets[level]]
        for w in others:
            if find(w) == find(v):
                continue
            perm = leaf(cells, level, w)
            if perm is None:
                continue
            found.append(perm)
            for x in range(n):
                a, b = find(x), find(perm[x])
                if a != b:
                    orbit[a] = b
    return found


def key_orbits(keys: list[int], gens: list[list[int]], n: int, rep: dict[int, int]) -> None:
    """Set rep[key], for every key of `keys` (edge-set keys on n vertices,
    bit u*n + v per edge, u < v), to the first key of its orbit under the
    vertex permutations `gens`, first in the order of `keys`.  Every
    image of a key of `keys` must lie in `keys`."""
    tables = []
    for perm in gens:
        table = [0] * (n * n)
        for u in range(n):
            a = perm[u]
            for v in range(u + 1, n):
                b = perm[v]
                table[u * n + v] = 1 << (a * n + b if a < b else b * n + a)
        tables.append(table)
    for key in keys:
        if key in rep:
            continue
        rep[key] = key
        todo = [key]
        for x in todo:
            for table in tables:
                y = 0
                z = x
                while z:
                    b = z & -z
                    z ^= b
                    y |= table[b.bit_length() - 1]
                if y not in rep:
                    rep[y] = key
                    todo.append(y)


def _orbits(g, ref, ban: int, keys: list[int]) -> tuple[list[int], list[int], Sequence[int]]:
    """The orbits of `keys`, perfect matchings of the Graph g as int keys,
    under the automorphisms of g that keep the second edge colour `ref`
    (an edge set, int key `ban`; empty, key 0, for none): (one
    representative per orbit, in the order of `keys`; their sizes; the
    orbit index of each key, in the order of `keys`).  The generators
    (`generators`) and every key's representative (`key_orbits`) are kept
    in g._key_orbits[ban], so a second list of keys on g and ref finds the
    generators again without a search.  With no generator every key is
    its own orbit, and no orbit is built."""
    memo = g._key_orbits.get(ban)
    if memo is None:
        masks = [0] * g.n
        for u, v in ref:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        memo = g._key_orbits[ban] = (generators(g.neighbor_masks, masks), {})
    gens, rep = memo
    if not gens:
        return keys, [1] * len(keys), range(len(keys))
    if keys[0] not in rep:
        key_orbits(keys, gens, g.n, rep)
    place: dict[int, int] = {}
    reps, sizes, orbit_of = [], [], []
    for key in keys:
        r = rep[key]
        j = place.get(r)
        if j is None:
            j = place[r] = len(reps)
            reps.append(r)
            sizes.append(0)
        sizes[j] += 1
        orbit_of.append(j)
    return reps, sizes, orbit_of
