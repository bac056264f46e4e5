import math
import random
from fractions import Fraction

import pytest

from conftest import (
    directed_cycle,
    gnp,
    reference_count_paths,
    reference_count_walks,
    reference_matrix_power,
    reference_mixing_bound_check,
    reference_sandwich_check,
    stochastic,
)
from matchlab import walks
from matchlab.errors import MatchlabError, ResourceLimitError
from matchlab.expansion import ExpansionParams, Verdict, certify_exact
from matchlab.graphs import (
    Digraph,
    Matching,
    complete_digraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    edge_set,
    random_regular,
    to_bidirected,
)
from matchlab.pm import enumerate_pm
from matchlab.switching import aux_vertex_set, build_aux_digraph
from matchlab.walks import (
    StochasticMatrix,
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


def uniform_matrix(n):
    return StochasticMatrix(((1,) * n,) * n, n)


# -- transition matrices -------------------------------------------------------

def test_transition_complete_digraph():
    rows = transition_matrix(complete_digraph(4)).rows
    for i in range(4):
        for j in range(4):
            assert rows[i][j] == (F(0) if i == j else F(1, 3))


def test_transition_directed_cycle_is_permutation():
    rows = transition_matrix(directed_cycle(5)).rows
    for i in range(5):
        assert rows[i][(i + 1) % 5] == 1
        assert sum(rows[i]) == 1


def test_transition_sink_error():
    with pytest.raises(MatchlabError, match="^vertex 2 has out-degree 0$"):
        transition_matrix(Digraph(3, [(0, 1), (1, 2)]))


def test_stochastic_validation():
    with pytest.raises(MatchlabError, match="^row sum differs from 1$"):
        stochastic(((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))))


def test_stochastic_refuses_a_ragged_row_and_a_negative_entry():
    with pytest.raises(MatchlabError, match="^matrix must be square$"):
        stochastic(((F(1),), (F(1, 2), F(1, 2))))
    # the row still sums to 1, so only the sign check can refuse it
    with pytest.raises(MatchlabError, match="^negative entry in stochastic matrix$"):
        stochastic(((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2))))


# -- powering --------------------------------------------------------------------

def test_power_zero_is_identity():
    p = transition_matrix(complete_digraph(4))
    ident = matrix_power(p, 0).rows
    for i in range(4):
        for j in range(4):
            assert ident[i][j] == (1 if i == j else 0)


def test_power_two_complete_digraph():
    p = transition_matrix(complete_digraph(4))
    p2 = matrix_power(p, 2).rows
    for i in range(4):
        for j in range(4):
            assert p2[i][j] == (F(1, 3) if i == j else F(2, 9))


def random_digraphs():
    rng = random.Random(0)
    out = []
    for _ in range(3):
        n = rng.randint(3, 6)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.7]
        for u in range(n):
            if not any(a == u for a, _ in arcs):
                arcs.append((u, (u + 1) % n))
        out.append(Digraph(n, arcs))
    return out


def test_power_preserves_stochasticity():
    for d in random_digraphs():
        p = transition_matrix(d)
        for k in range(9):
            pk = matrix_power(p, k)
            assert all(sum(row) == 1 for row in pk.rows)


def test_power_dimension_cap(monkeypatch):
    monkeypatch.setattr(walks, "DEFAULT_MATRIX_CAP", 4)
    with pytest.raises(ResourceLimitError, match="^dimension 5 above the exact-power cap 4$"):
        matrix_power(uniform_matrix(5), 2)
    # a dimension equal to the cap is powered
    monkeypatch.setattr(walks, "DEFAULT_MATRIX_CAP", 5)
    assert matrix_power(uniform_matrix(5), 2) == uniform_matrix(5)


# -- integer power against the Fraction oracle ---------------------------------

def mixed_degree_digraph():
    # out-degrees 1, 2, 3, 1: the power's common denominator is L = 6
    return Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)])


def power_test_matrices():
    digraphs = [
        complete_digraph(4),
        complete_digraph(5),
        complete_digraph(6),
        complete_digraph(8),
        directed_cycle(5),
        Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)]),
        to_bidirected(complete_multipartite(3, 2)),
        mixed_degree_digraph(),
        *random_digraphs(),
    ]
    return [transition_matrix(d) for d in digraphs] + [
        uniform_matrix(4),
        uniform_matrix(5),
        stochastic(((F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)))),
        StochasticMatrix((), 1),
    ]


def test_power_matches_reference_entry_for_entry():
    for p in power_test_matrices():
        for k in (0, 1, 2, 3, 7, 8):
            assert matrix_power(p, k).rows == reference_matrix_power(p, k), (p, k)


def test_power_mixed_out_degrees():
    p = transition_matrix(mixed_degree_digraph())
    assert p.den == 6
    for k in range(10):
        assert matrix_power(p, k).rows == reference_matrix_power(p, k), k


def test_power_of_a_power_matches_reference():
    # mixing_bound_check raises P^k again to a power t
    digraphs = (
        complete_digraph(6),
        mixed_degree_digraph(),
        to_bidirected(complete_multipartite(3, 2)),
    )
    for d in digraphs:
        p = transition_matrix(d)
        for k in (2, 3, 4):
            pk = matrix_power(p, k)
            assert pk.rows == reference_matrix_power(p, k)
            for t in (1, 2, 5, 8):
                assert matrix_power(pk, t).rows == reference_matrix_power(pk, t), (k, t)


@pytest.mark.parametrize(
    "p, k, cap",
    [
        (uniform_matrix(3), -1, 64),
        (uniform_matrix(5), -2, 4),
        (uniform_matrix(5), 2, 4),
        (uniform_matrix(5), 0, 4),
    ],
)
def test_power_errors_match_reference(monkeypatch, p, k, cap):
    monkeypatch.setattr(walks, "DEFAULT_MATRIX_CAP", cap)
    message = "^exponent must be non-negative$" if k < 0 else f"^dimension {p.n} above the exact-power cap {cap}$"
    with pytest.raises(MatchlabError, match=message) as want:
        reference_matrix_power(p, k, cap=cap)
    with pytest.raises(want.type, match=message) as got:
        matrix_power(p, k)
    assert got.type is want.type and str(got.value) == str(want.value)


def test_built_matrices_pass_the_public_constructor():
    # each matrix transition_matrix and matrix_power build, spelled again
    # from its rational rows, passes the constructor as the same matrix
    for p in power_test_matrices() + [transition_matrix(d) for d in sandwich_hosts()]:
        assert stochastic(p.rows) == p
        for k in range(10):
            pk = matrix_power(p, k)
            assert stochastic(pk.rows) == pk, (p.rows, k)


def test_power_den_is_the_lcm_of_its_entry_denominators():
    for p in power_test_matrices():
        for k in range(6):
            pk = matrix_power(p, k)
            assert pk.den == math.lcm(*(x.denominator for row in pk.rows for x in row)), (p, k)


def test_two_spellings_of_one_matrix_compare_and_hash_equal():
    # the constructor divides by the gcd of den and every entry
    for p in power_test_matrices():
        scaled = StochasticMatrix(tuple(tuple(6 * x for x in row) for row in p.num), 6 * p.den)
        assert (scaled.num, scaled.den) == (p.num, p.den)
        assert scaled == p and hash(scaled) == hash(p)


@pytest.mark.parametrize("num, den", [((), 0), (((0,),), 0), ((), -1), (((-1,),), -1)])
def test_stochastic_refuses_a_denominator_below_one(num, den):
    # a zero row sums to a zero den, so only this check refuses it
    with pytest.raises(MatchlabError, match="^denominator must be positive$"):
        StochasticMatrix(num, den)


# -- walk counting ----------------------------------------------------------------

def test_walks_length_zero():
    d = complete_digraph(4)
    assert count_walks(d, 0, 0, 0) == 1
    assert count_walks(d, 0, 1, 0) == 0


def test_walks_complete_digraph_length_two():
    d = complete_digraph(4)
    assert count_walks(d, 0, 1, 2) == 2
    assert count_walks(d, 0, 0, 2) == 3


def test_walks_match_brute_force():
    d = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)])

    def brute(u, v, ell):
        if ell == 0:
            return int(u == v)
        return sum(brute(w, v, ell - 1) for w in d.out_neighbors(u))

    for ell in range(6):
        for u in range(5):
            for v in range(5):
                assert count_walks(d, u, v, ell) == brute(u, v, ell)


def test_walks_out_degree_sum():
    d = complete_digraph(5)
    for ell in range(5):
        assert sum(count_walks(d, 0, v, ell) for v in range(5)) == 4**ell


def test_walks_equal_scaled_power_on_regular():
    # on a d-regular digraph walk counts are d^len times the transition
    # probabilities, as exact rationals
    d = to_bidirected(complete_multipartite(3, 2))
    p = transition_matrix(d)
    deg = 4
    for ell in (1, 2, 3, 5):
        pl = matrix_power(p, ell).rows
        for u in (0, 3):
            for v in range(6):
                assert count_walks(d, u, v, ell) == deg**ell * pl[u][v]


def _walk_hosts(seed):
    sink = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 4)])
    circulant = Digraph(9, [(i, (i + s) % 9) for i in range(9) for s in (1, 2, 4)])
    return [
        complete_digraph(5),
        directed_cycle(6),
        sink,
        to_bidirected(gnp(9, 0.5, seed)),
        circulant,
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoised_walk_counts_match_reference(seed):
    # one object per digraph, every (u, v, ell <= 6) asked in a shuffled
    # order that mixes lengths, so a row served for the wrong source or
    # length shows
    rng = random.Random(seed)
    for d in _walk_hosts(seed):
        queries = [(u, v, ell) for u in range(d.n) for v in range(d.n) for ell in range(7)]
        rng.shuffle(queries)
        for u, v, ell in queries:
            assert count_walks(d, u, v, ell) == reference_count_walks(d, u, v, ell)
        assert len(d._walk_rows) == 7 * d.n


def test_walk_rows_propagate_once_per_source_and_length(monkeypatch):
    calls = []
    propagate = walks._walk_row

    def counted(adjacency, u, length):
        calls.append((u, length))
        return propagate(adjacency, u, length)

    monkeypatch.setattr(walks, "_walk_row", counted)
    d = to_bidirected(complete_multipartite(3, 2))
    for ell in (3, 2, 3):
        for u in range(6):
            for v in range(6):
                count_walks(d, u, v, ell)
    assert calls == [(u, ell) for ell in (3, 2) for u in range(6)]


def test_warm_walk_memo_still_checks_inputs():
    d = directed_cycle(4)
    for u in range(4):
        for ell in range(3):
            count_walks(d, u, 0, ell)
    for u, v, bad in [(0, -1, -1), (0, 4, 4), (-1, 0, -1), (4, 0, 4)]:
        with pytest.raises(MatchlabError, match=f"^vertex {bad} outside 0..3$"):
            count_walks(d, u, v, 1)
    with pytest.raises(MatchlabError, match="^length must be non-negative$"):
        count_walks(d, 0, 1, -1)


def test_equal_digraphs_keep_separate_walk_memos():
    a, b = complete_digraph(4), complete_digraph(4)
    assert a == b
    assert count_walks(a, 0, 1, 3) == 7
    assert a._walk_rows == {(0, 3): (6, 7, 7, 7)}
    assert b._walk_rows == {}
    assert count_walks(b, 0, 0, 3) == 6
    assert a._walk_rows == b._walk_rows


# -- path counting ------------------------------------------------------------------

def test_paths_complete_digraph():
    d = complete_digraph(4)
    assert count_paths(d, 0, 1, 2) == 2
    assert count_paths(d, 0, 1, 1) == 1
    assert count_paths(d, 0, 2, 1) == 1


def test_paths_length_one_absent_arc():
    d = directed_cycle(4)
    assert count_paths(d, 0, 2, 1) == 0


def test_paths_never_exceed_walks():
    d = complete_digraph(5)
    for ell in range(1, 5):
        for v in range(1, 5):
            assert count_paths(d, 0, v, ell) <= count_walks(d, 0, v, ell)


def test_paths_with_matching_constraint():
    d = complete_digraph(6)

    def brute(u, v, ell, pairs):
        # enumerate simple paths, filter the at-most-one-endpoint rule
        total = 0
        stack = [(u, (u,))]
        while stack:
            x, path = stack.pop()
            if len(path) == ell + 1:
                if x == v:
                    ok = all(len(set(e) & set(path)) <= 1 for e in pairs)
                    total += int(ok)
                continue
            for y in d.out_neighbors(x):
                if y not in path:
                    stack.append((y, path + (y,)))
        return total

    constraint = Matching([(1, 2), (3, 4)])
    for ell in (1, 2, 3, 4):
        got = count_paths(d, 0, 5, ell, matching_constraint=constraint)
        assert got == brute(0, 5, ell, [(1, 2), (3, 4)])


def _path_count_or_trip(count, *args):
    try:
        return count(*args)
    except ResourceLimitError as exc:
        return str(exc)


def _companion_cases():
    """(digraph, vertices, constraint) for the companion digraphs of a few
    hosts, with and without a banned reference edge, and for the complete
    digraph on 6 vertices with and without a constraint."""
    cases = [
        (complete_digraph(6), range(6), None),
        (complete_digraph(6), range(6), Matching([(1, 2), (3, 4)])),
    ]
    hosts = [complete_graph(6), complete_graph(8), complete_multipartite(3, 2), cycle_graph(6)]
    for g in hosts + [random_regular(10, 3, 1)]:
        for base in list(enumerate_pm(g))[:2]:
            for ref in ([], [base.pairs[0]]):
                d = build_aux_digraph(g, ref, base)
                constraint = Matching(base.edge_set - edge_set(ref))
                verts = sorted(aux_vertex_set(ref, base, g.n))
                cases.append((d, verts, constraint))
    return cases


def test_paths_match_reference():
    # the mask search counts what the visited-set search it replaced counts
    probes = 0
    for d, verts, constraint in _companion_cases():
        for u in verts:
            for v in verts:
                if u == v:
                    continue
                for ell in range(4):
                    want = reference_count_paths(d, u, v, ell, constraint)
                    assert count_paths(d, u, v, ell, constraint) == want, (d.arcs, u, v, ell)
                    probes += want > 0
    assert probes > 500


def test_paths_budget_trips_where_reference_trips(monkeypatch):
    # every budget from 1 up to the step count trips (or not) with the same
    # message, and the first budget that suffices is the same
    rng = random.Random(21)
    for d, verts, constraint in _companion_cases():
        for _ in range(3):
            u, v = rng.sample(list(verts), 2)
            ell = rng.randint(1, 4)
            budget = 1
            while True:
                args = (d, u, v, ell, constraint)
                monkeypatch.setattr(walks, "DEFAULT_PATH_BUDGET", budget)
                want = _path_count_or_trip(reference_count_paths, *args, budget)
                assert _path_count_or_trip(count_paths, *args) == want, (d.arcs, u, v, ell, budget)
                if isinstance(want, int):
                    break
                budget += 1


@pytest.mark.parametrize("pairs,bad", [([(0, 9)], 9), ([(1, 2), (3, 4)], 4), ([(-1, 2)], -1)])
@pytest.mark.parametrize("length", [0, 2])
def test_paths_reject_constraint_vertex_out_of_range(pairs, bad, length):
    # a constraint pair off the digraph used to be ignored, and is checked
    # before the length-0 answer like the endpoints
    with pytest.raises(MatchlabError, match=f"^vertex {bad} outside 0..3$"):
        count_paths(complete_digraph(4), 0, 1, length, matching_constraint=Matching(pairs))


def test_paths_budget(monkeypatch):
    monkeypatch.setattr(walks, "DEFAULT_PATH_BUDGET", 10)
    d = complete_digraph(7)
    with pytest.raises(ResourceLimitError, match="^path enumeration exceeded 10 steps$"):
        count_paths(d, 0, 1, 5)


def test_paths_rejects_equal_endpoints():
    with pytest.raises(MatchlabError, match="^endpoints must be distinct$"):
        count_paths(complete_digraph(4), 1, 1, 2)


@pytest.mark.parametrize("length", [-1, -2])
def test_paths_rejects_negative_length(monkeypatch, length):
    # a budget of 10 would be spent long before a walk that never ends
    monkeypatch.setattr(walks, "DEFAULT_PATH_BUDGET", 10)
    with pytest.raises(MatchlabError, match="^length must be non-negative$"):
        count_paths(complete_digraph(7), 0, 1, length)


@pytest.mark.parametrize(
    "count,u,v,length,bad",
    [
        (count_walks, -1, 0, 1, -1),
        (count_walks, 4, 0, 1, 4),
        (count_walks, 0, 4, 1, 4),
        (count_paths, -1, 1, 2, -1),
        (count_paths, 0, 4, 2, 4),
    ],
)
def test_counts_reject_vertex_out_of_range(count, u, v, length, bad):
    # -1 used to wrap to vertex 3, and 4 to miss or raise IndexError
    with pytest.raises(MatchlabError, match=f"^vertex {bad} outside 0..3$"):
        count(directed_cycle(4), u, v, length)


# -- mixing -------------------------------------------------------------------------

def test_mixing_params_uniform():
    mp = mixing_params(uniform_matrix(5), uniform_distribution(5))
    assert mp.alpha == 1 and mp.beta == 1
    assert mp.threshold == 2.0


def test_mixing_params_known_threshold():
    # alpha 1/2 and beta 2 give 2 + 4 ln 2
    p = StochasticMatrix(((1, 3), (2, 2)), 4)
    sigma = (F(1, 2), F(1, 2))
    mp = mixing_params(p, sigma)
    assert mp.alpha == F(1, 2) and mp.beta == F(3, 2)
    assert math.isclose(mp.threshold, 2 + 4 * math.log(1.5))


def test_mixing_zero_entry():
    p = transition_matrix(complete_digraph(3))
    with pytest.raises(MatchlabError, match="^transition matrix has a zero entry$"):
        mixing_params(p, uniform_distribution(3))


def test_mixing_check_uniform_matrix():
    rep = mixing_bound_check(uniform_matrix(4), uniform_distribution(4), 3)
    assert rep.passes and rep.exact_pass


def test_mixing_check_near_tie_is_decided_exactly():
    # with P uniform on 2 states and sigma = (s, 1 - s), s > 1/2, the t = 1
    # envelope holds iff 8s^2 - 7s + 1 <= 0, whose upper root is
    # (7 + sqrt(17))/16; just above it the two sides differ by far less
    # than a float tolerance, so only an exact comparison fails there
    s = F((7 + math.sqrt(17)) / 16) + F(1, 10**14)
    assert 8 * s * s - 7 * s + 1 > 0
    rep = mixing_bound_check(uniform_matrix(2), (s, 1 - s), 1)
    assert not rep.passes and not rep.exact_pass
    below = F((7 + math.sqrt(17)) / 16) - F(1, 10**14)
    assert 8 * below * below - 7 * below + 1 < 0
    assert mixing_bound_check(uniform_matrix(2), (below, 1 - below), 1).passes


def test_mixing_check_powered_expander():
    dg = complete_digraph(6)
    cert = certify_exact(dg, ExpansionParams(F(1, 3), F(1, 3)))
    assert cert.verdict is Verdict.PASS
    p4 = matrix_power(transition_matrix(dg), 4)
    sigma = uniform_distribution(6)
    threshold = mixing_params(p4, sigma).threshold
    for t in range(math.ceil(threshold), math.ceil(threshold) + 5):
        rep = mixing_bound_check(p4, sigma, t)
        assert rep.passes and rep.exact_pass, t


def mixing_cases():
    """(P^k, sigma) with every entry of P^k positive, from the powering
    and sandwich hosts: sigma uniform, and sigma proportional to 1..n."""
    for p in power_test_matrices() + [transition_matrix(d) for d in sandwich_hosts()]:
        n = p.n
        skewed = tuple(F(i + 1, n * (n + 1) // 2) for i in range(n))
        for k in range(1, 5):
            pk = matrix_power(p, k)
            if n and pk.min_entry() > 0:
                yield pk, uniform_distribution(n)
                yield pk, skewed


def test_mixing_bound_check_matches_reference():
    # each column's extremes decide what the entrywise loop decided,
    # below, at and above the threshold
    verdicts = []
    for pk, sigma in mixing_cases():
        threshold = mixing_params(pk, sigma).threshold
        top = math.ceil(threshold)
        for t in sorted({0, 1, 2, max(top - 1, 0), top, top + 3}):
            want = reference_mixing_bound_check(pk, sigma, t)
            assert mixing_bound_check(pk, sigma, t) == want, (pk.rows, sigma, t)
            verdicts.append((t < threshold, want.passes))
    assert len(verdicts) > 500
    assert {(b, ok) for b in (False, True) for ok in (False, True)} <= set(verdicts)


@pytest.mark.parametrize(
    "p, sigma, t, message",
    [
        (uniform_matrix(3), uniform_distribution(3), -1, "^exponent must be non-negative$"),
        (uniform_matrix(65), uniform_distribution(65), 2, "^dimension 65 above the exact-power cap 64$"),
        (uniform_matrix(65), uniform_distribution(65), -1, "^exponent must be non-negative$"),
        (uniform_matrix(3), (F(1, 2), F(1, 2), F(0)), 2, "^stationary distribution must be strictly positive$"),
        (uniform_matrix(3), uniform_distribution(4), 2, "^distribution length must match the matrix dimension$"),
        (transition_matrix(complete_digraph(3)), uniform_distribution(3), 2, "^transition matrix has a zero entry$"),
    ],
    ids=["negative-t", "above-cap", "negative-t-above-cap", "zero-sigma", "sigma-length", "zero-entry"],
)
def test_mixing_errors_match_reference(p, sigma, t, message):
    with pytest.raises(MatchlabError, match=message) as want:
        reference_mixing_bound_check(p, sigma, t)
    with pytest.raises(want.type, match=message) as got:
        mixing_bound_check(p, sigma, t)
    assert got.type is want.type and str(got.value) == str(want.value)


def test_mixing_params_refuses_the_empty_matrix():
    with pytest.raises(MatchlabError, match="^transition matrix is empty$"):
        mixing_params(StochasticMatrix((), 1), ())


def test_mixing_bound_check_refuses_the_empty_matrix():
    with pytest.raises(MatchlabError, match="^transition matrix is empty$"):
        mixing_bound_check(StochasticMatrix((), 1), (), 1)


def test_uniform_is_stationary_for_regular():
    for d in (complete_digraph(5), to_bidirected(complete_multipartite(3, 2))):
        rows = transition_matrix(d).rows
        sigma = uniform_distribution(d.n)
        for j in range(d.n):
            assert sum(sigma[i] * rows[i][j] for i in range(d.n)) == sigma[j]


# -- sandwich -------------------------------------------------------------------------

def test_sandwich_complete_digraph():
    n = 6
    assert sandwich_check(complete_digraph(n), 2, F(1, 3), F(n - 1, n))


def test_sandwich_certified_instance():
    assert sandwich_check(complete_digraph(6), 4, F(1, 3), F(5, 6))


def test_sandwich_not_regular():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)])
    with pytest.raises(MatchlabError, match="^digraph is not regular$"):
        sandwich_check(d, 2, F(1, 3), F(1, 2))
    with pytest.raises(MatchlabError, match=r"^degree 3 does not equal delta\*n = 2$"):
        sandwich_check(complete_digraph(4), 2, F(1, 4), F(1, 2))


def test_sandwich_refuses_an_out_regular_digraph_with_uneven_in_degrees():
    # every out-degree is 1, the in-degrees are 3, 1, 0 and 0
    d = Digraph(4, [(0, 1), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(MatchlabError, match="^digraph is not regular$"):
        sandwich_check(d, 2, F(1, 4), F(1, 4))


def test_sandwich_lower_bound_has_exponent_k_minus_one():
    # K6 has W_2 = 4J + I and W_3 = 21J - I, so min W_k is 4 and 20: the
    # lower bound (nu*n)^(k-1) holds at nu*n = 4 (4 <= 4, 16 <= 20) and
    # fails at nu*n = 5 (5 > 4, 25 > 20)
    d = complete_digraph(6)
    for k in (2, 3):
        assert sandwich_check(d, k, F(4, 6), F(5, 6))
        assert not sandwich_check(d, k, F(5, 6), F(5, 6))


def circulant(n, shifts):
    return Digraph(n, [(i, (i + s) % n) for i in range(n) for s in shifts])


def sandwich_hosts():
    """Regular digraphs: complete digraphs, directed cycles, bidirected
    random regular graphs and 2-shift circulants."""
    hosts = [complete_digraph(n) for n in range(2, 9)]
    hosts += [directed_cycle(n) for n in range(2, 9)]
    hosts += [
        to_bidirected(random_regular(n, deg, seed))
        for n in range(4, 13)
        for deg in (2, 3)
        if n * deg % 2 == 0
        for seed in (0, 1)
    ]
    hosts += [circulant(n, (1, 2)) for n in range(3, 12)]
    return hosts


def test_sandwich_matches_reference_verdicts():
    # the integer test on the walk rows against the Fraction test on n*P^k
    verdicts = []
    for d in sandwich_hosts():
        n = d.n
        delta = F(d.out_degree(0), n)
        for nu in (F(1, 10), F(1, 3), F(1, 2), F(1, n), F(2, n)):
            for k in range(9):
                want = reference_sandwich_check(d, k, nu, delta)
                assert sandwich_check(d, k, nu, delta) is want, (d.arcs, k, nu)
                verdicts.append(want)
    assert len(verdicts) > 2000
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize(
    "d, k, delta, message",
    [
        (Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)]), 2, F(1, 2), "^digraph is not regular$"),
        (complete_digraph(4), 2, F(1, 2), r"^degree 3 does not equal delta\*n = 2$"),
        (Digraph(3, []), 2, F(0), "^vertex 0 has out-degree 0$"),
        (Digraph(3, []), -1, F(0), "^vertex 0 has out-degree 0$"),
        (complete_digraph(4), -1, F(3, 4), "^exponent must be non-negative$"),
    ],
    ids=["not_regular", "delta_mismatch", "degree_zero", "degree_zero_k_negative", "k_negative"],
)
def test_sandwich_errors_match_reference(d, k, delta, message):
    with pytest.raises(MatchlabError, match=message) as want:
        reference_sandwich_check(d, k, F(1, 3), delta)
    with pytest.raises(want.type, match=message) as got:
        sandwich_check(d, k, F(1, 3), delta)
    assert got.type is want.type and str(got.value) == str(want.value)


def test_sandwich_refuses_the_empty_digraph():
    # no degree at all, so "not regular" would mislead
    with pytest.raises(MatchlabError, match="^digraph is empty$"):
        sandwich_check(Digraph(0, []), 2, F(1, 2), F(1, 2))


def test_sandwich_reads_the_row_of_every_source():
    # in three steps source 1 never comes back to itself, and every other
    # source reaches every vertex in 1 to 4 = deg^2 ways; the rotations
    # move that one failing row through every position, the last included
    arcs = [(0, 2), (0, 3), (1, 3), (1, 5), (2, 0), (2, 5),
            (3, 1), (3, 4), (4, 0), (4, 2), (5, 1), (5, 4)]
    for r in range(6):
        d = Digraph(6, [((u + r) % 6, (v + r) % 6) for u, v in arcs])
        assert count_walks(d, (1 + r) % 6, (1 + r) % 6, 3) == 0
        assert not reference_sandwich_check(d, 3, F(1, 6), F(1, 3))
        assert not sandwich_check(d, 3, F(1, 6), F(1, 3))


def test_sandwich_answers_above_the_matrix_cap():
    # no n x n matrix is built, so n = 70 answers where the reference
    # refuses; the circulant's rows are shifts of row 0, whose Fraction
    # bound is rechecked from the unmemoised walk counts
    n, deg = 70, 35
    d = circulant(n, range(1, deg + 1))
    delta = F(deg, n)
    for k, nu in ((2, F(1, 10)), (3, F(1, 70)), (3, F(1, 10))):
        with pytest.raises(ResourceLimitError, match="^dimension 70 above the exact-power cap 64$"):
            reference_sandwich_check(d, k, nu, delta)
        lower, upper = nu ** (k - 1) * delta ** (-k), 1 / delta
        want = all(
            lower <= n * F(reference_count_walks(d, 0, v, k), deg**k) <= upper for v in range(n)
        )
        assert sandwich_check(d, k, nu, delta) is want, (k, nu)
    # two steps return to the start only as 35 + 35
    assert not sandwich_check(d, 2, F(1, 10), delta)
    assert sandwich_check(d, 3, F(1, 70), delta)


# -- walk lower bound on certified outexpanders ---------------------------------------

def test_walk_count_lower_bound_on_certified_digraphs():
    cases = [
        (complete_digraph(6), F(1, 3), F(1, 3)),
        (complete_digraph(8), F(1, 4), F(1, 4)),
    ]
    for d, nu, tau in cases:
        cert = certify_exact(d, ExpansionParams(nu, tau))
        assert cert.verdict is Verdict.PASS
        assert all(
            min(d.out_degree(v), d.in_degree(v)) >= tau * d.n for v in range(d.n)
        )
        lo = math.ceil(1 / nu) + 1
        hi = min(d.n, int(1 / nu) + 4)
        for ell in range(lo, hi + 1):
            bound = (nu * d.n) ** (ell - 1)
            for u in range(d.n):
                for v in range(d.n):
                    if u != v:
                        assert count_walks(d, u, v, ell) >= bound
