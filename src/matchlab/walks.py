"""Simple-random-walk transition matrices, exact walk and path counts,
and quantitative mixing checks.

Every matrix entry is an exact rational; floats appear only in the
logarithm of the mixing threshold (`mixing_params`).  A matrix is stored
in integers, P = num / den with one positive den, so powers are plain
int arithmetic: P^k = B^k / den^k with B = num, and no Fraction is built
until a caller reads `rows`.  Walk counts are plain integers: `count_walks`
propagates the vector of counts from a source along out-arcs and keeps
the resulting row on the digraph, one row per (source, length), so every
target of a source is answered from one propagation.  On a d-regular
digraph a row is d^len * P^len(u, .), so the sandwich bound is tested on
the rows in integers and P is powered only for the mixing checks.  The
mixing envelope bounds |P^t(j, i) - sigma_i| in each column i, and over
a column that distance is largest at the column's largest or smallest
entry, so each column is decided by its two extremes, read off B^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import MatchlabError, ResourceLimitError
from .graphs import Digraph, Matching, _check_vertex, vertices_of
from .rational import as_fraction

# Read at each call, so a value set on the module reaches every caller.
DEFAULT_MATRIX_CAP = 64
DEFAULT_PATH_BUDGET = 100_000_000


@dataclass(frozen=True)
class StochasticMatrix:
    """P = num / den: square rows of ints (kept as tuples) over a
    positive int den, no entry negative and every row summing to den.  num and den are divided by
    the gcd of den and every entry, so den is the lcm of the entries'
    reduced denominators and equal matrices compare and hash equal."""

    num: tuple[tuple[int, ...], ...]
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise MatchlabError("denominator must be positive")
        for row in self.num:
            if len(row) != self.n:
                raise MatchlabError("matrix must be square")
            if any(x < 0 for x in row):
                raise MatchlabError("negative entry in stochastic matrix")
            if sum(row) != self.den:
                raise MatchlabError("row sum differs from 1")
        g = math.gcd(self.den, *(x for row in self.num for x in row))
        object.__setattr__(self, "num", tuple(tuple(x // g for x in row) for row in self.num))
        object.__setattr__(self, "den", self.den // g)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @property
    def n(self) -> int:
        return len(self.num)

    def min_entry(self) -> Fraction:
        return Fraction(min(min(row) for row in self.num), self.den)

    def max_entry(self) -> Fraction:
        return Fraction(max(max(row) for row in self.num), self.den)


def transition_matrix(d: Digraph) -> StochasticMatrix:
    """One uniform step along out-arcs: P(u, v) = 1/outdeg(u), written
    den // outdeg(u) over den, the lcm of the out-degrees."""
    degs = [d.out_degree(u) for u in range(d.n)]
    if 0 in degs:
        raise MatchlabError(f"vertex {degs.index(0)} has out-degree 0")
    den = math.lcm(*degs)
    rows = [[0] * d.n for _ in degs]
    for u, deg in enumerate(degs):
        for v in d.out_neighbors(u):
            rows[u][v] = den // deg
    return StochasticMatrix(rows, den)


def _imatmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of two square integer matrices given as lists of rows."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _integer_power(p: StochasticMatrix, k: int):
    """(B^k, den^k) with B = p.num, so that P^k = B^k / den^k; B^k is
    squared out in integers, B^0 the identity."""
    if k < 0:
        raise MatchlabError("exponent must be non-negative")
    if p.n > DEFAULT_MATRIX_CAP:
        raise ResourceLimitError(f"dimension {p.n} above the exact-power cap {DEFAULT_MATRIX_CAP}")
    base = p.num
    result = [[int(i == j) for j in range(p.n)] for i in range(p.n)] if k == 0 else None
    e = k
    while e:
        if e & 1:
            result = base if result is None else _imatmul(result, base)
        e >>= 1
        if e:
            base = _imatmul(base, base)
    return result, p.den**k


def matrix_power(p: StochasticMatrix, k: int) -> StochasticMatrix:
    """Exact P^k = B^k / den^k, squared out in integers."""
    return StochasticMatrix(*_integer_power(p, k))


def count_walks(d: Digraph, u: int, v: int, length: int) -> int:
    """Exact number of directed (u, v)-walks of the given length: entry
    v of the walk row of u."""
    if length < 0:
        raise MatchlabError("length must be non-negative")
    _check_vertex(u, d.n)
    _check_vertex(v, d.n)
    return _walk_counts(d, u, length)[v]


def _walk_counts(d: Digraph, u: int, length: int) -> tuple[int, ...]:
    """The walk counts from u to every vertex, a tuple of n ints propagated
    along out-arcs `length` times.  The digraph keeps one such row per
    (source, length) asked, so the n targets of one source cost one
    propagation."""
    rows = d._walk_rows
    row = rows.get((u, length))
    if row is None:
        row = rows[u, length] = _walk_row(d.out_adjacency, u, length)
    return row


def _walk_row(adjacency, u: int, length: int) -> tuple[int, ...]:
    """Walk counts of the given length from u to every vertex."""
    n = len(adjacency)
    vec = [0] * n
    vec[u] = 1
    for _ in range(length):
        nxt = [0] * n
        for x, c in enumerate(vec):
            if c:
                for y in adjacency[x]:
                    nxt[y] += c
        vec = nxt
    return tuple(vec)


def count_paths(
    d: Digraph,
    u: int,
    v: int,
    length: int,
    matching_constraint: Optional[Matching] = None,
) -> int:
    """Simple directed (u, v)-paths of the given length, visiting at most
    one endpoint of each constraint edge.

    u, v and every constraint vertex must lie in the digraph.  Depth-first
    enumeration over an int mask of visited vertices; each extension
    attempt consumes one step of DEFAULT_PATH_BUDGET.
    """
    if u == v:
        raise MatchlabError("endpoints must be distinct")
    if length < 0:
        raise MatchlabError("length must be non-negative")
    pairs = matching_constraint or ()
    for x in (u, v, *vertices_of(pairs)):
        _check_vertex(x, d.n)
    if length == 0:
        return 0
    block = [1 << x for x in range(d.n)]
    for a, b in pairs:
        block[a] |= 1 << b
        block[b] |= 1 << a
    steps = 0

    def rec(x: int, seen: int, remaining: int) -> int:
        nonlocal steps
        if remaining == 0:
            return 1 if x == v else 0
        total = 0
        for y in d.out_neighbors(x):
            steps += 1
            if steps > DEFAULT_PATH_BUDGET:
                raise ResourceLimitError(f"path enumeration exceeded {DEFAULT_PATH_BUDGET} steps")
            if not seen & block[y]:
                total += rec(y, seen | 1 << y, remaining - 1)
        return total

    return rec(u, 1 << u, length)


def uniform_distribution(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, n) for _ in range(n))


@dataclass(frozen=True)
class MixingParams:
    """Entry-to-stationary ratio extremes and the convergence threshold.

    alpha and beta are the exact min and max of P(i, j)/sigma_k over all
    index triples; the threshold 2 + 2*log(beta)/alpha (natural log) is
    the step count past which geometric convergence is guaranteed.
    """

    alpha: Fraction
    beta: Fraction
    threshold: float


def _check_distribution(sigma: Sequence) -> tuple[Fraction, ...]:
    out = tuple(as_fraction(s) for s in sigma)
    if any(s <= 0 for s in out):
        raise MatchlabError("stationary distribution must be strictly positive")
    return out


def _mixing_params(p: StochasticMatrix, sigma: Sequence) -> tuple[MixingParams, tuple[Fraction, ...]]:
    """mixing_params and sigma as checked Fractions, sigma checked once."""
    sig = _check_distribution(sigma)
    if len(sig) != p.n:
        raise MatchlabError("distribution length must match the matrix dimension")
    if p.n == 0:
        raise MatchlabError("transition matrix is empty")
    lo = p.min_entry()
    if lo == 0:
        raise MatchlabError("transition matrix has a zero entry")
    hi = p.max_entry()
    alpha = lo / max(sig)
    beta = hi / min(sig)
    threshold = 2.0 + 2.0 * float(1 / alpha) * math.log(float(beta))
    return MixingParams(alpha, beta, threshold), sig


def mixing_params(p: StochasticMatrix, sigma: Sequence) -> MixingParams:
    """Exact alpha and beta; requires every transition probability positive."""
    return _mixing_params(p, sigma)[0]


@dataclass(frozen=True)
class MixingReport:
    """Outcome of checking |P^t(j, i) - sigma_i| <= (1 - alpha/2)^t sigma_i.

    `passes` is that comparison made exactly, in rationals.  `exact_pass`
    repeats it under the name the benchmark reads.
    """

    passes: bool

    @property
    def exact_pass(self) -> bool:
        """The same verdict as `passes`, a comparison made in rationals."""
        return self.passes


def mixing_bound_check(p: StochasticMatrix, sigma: Sequence, t: int) -> MixingReport:
    """Verify the geometric-convergence envelope at time t.

    Column i deviates from sigma_i by at most dev_i = max(max_j P^t(j, i)
    - sigma_i, sigma_i - min_j P^t(j, i)), since |x - s| over a set of x
    is largest at its largest or smallest x; the envelope holds when every
    dev_i <= (1 - alpha/2)^t sigma_i, compared exactly.  Only the extremes
    of B^t = den^t P^t become rationals.  Any t >= 0 is checked, below the
    threshold too.
    """
    params, sig = _mixing_params(p, sigma)
    return MixingReport(passes=_envelope_holds(p, sig, params.alpha, t))


def _envelope_holds(p: StochasticMatrix, sig: tuple[Fraction, ...], alpha: Fraction, t: int) -> bool:
    """The verdict of mixing_bound_check on sigma and alpha as
    `_mixing_params` checked and computed them."""
    power, den = _integer_power(p, t)
    factor = (1 - alpha / 2) ** t
    return all(
        max(Fraction(max(c), den) - s, s - Fraction(min(c), den)) <= factor * s
        for c, s in zip(zip(*power), sig)
    )


def sandwich_check(d: Digraph, k: int, nu, delta) -> bool:
    """Two-sided bound on the k-step chain of a regular digraph.

    True when every entry of n*P^k lies in [nu^(k-1) * delta^(-k),
    delta^(-1)].  The digraph must be deg-regular with deg = delta*n; then
    P^k = W_k / deg^k for the integer walk rows W_k, and the test is
    (nu*n)^(k-1) <= W_k(i, j) <= deg^(k-1).

    Only the lower bound is compared.  A Digraph has no loops and no
    repeated arcs, so for k >= 1 a k-step walk from i to j is fixed by
    its first k-1 steps, each one of deg arcs: W_k(i, j) <= deg^(k-1)
    always.  At k = 0, W_0 is the identity, whose off-diagonal 0 already
    fails the lower bound (nu*n)^(-1) for nu > 0.
    """
    nu = as_fraction(nu)
    delta = as_fraction(delta)
    n = d.n
    if n == 0:
        raise MatchlabError("digraph is empty")
    degs = {d.out_degree(v) for v in range(n)} | {d.in_degree(v) for v in range(n)}
    if len(degs) != 1:
        raise MatchlabError("digraph is not regular")
    deg = degs.pop()
    if delta * n != deg:
        raise MatchlabError(f"degree {deg} does not equal delta*n = {delta * n}")
    if deg == 0:
        raise MatchlabError("vertex 0 has out-degree 0")
    if k < 0:
        raise MatchlabError("exponent must be non-negative")
    lower = (nu * n) ** (k - 1)
    return all(lower <= min(_walk_counts(d, u, k)) for u in range(n))
