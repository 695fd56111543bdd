import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp import lp_relax
from pathtsp.cli import check_lp_point
from pathtsp.instance import (
    Instance,
    complete_edges,
    edge,
    metric_closure,
    over_lcm,
    random_metric_instance,
)
from pathtsp.cuts import load_of_mask
from pathtsp.simplex import ExactSimplex
from pathtsp.tree_decomp import is_spanning_tree
from pathtsp.lp_relax import (
    parse_solution,
    emit_solution,
    separate,
    solve_lp,
)

from . import oracles
from .conftest import lp_path
from .oracles import (
    cut_value,
    full_path_lp_value,
    mask_of,
    path_min_cost,
    separate_all_pairs,
    separate_every_pair,
    tree_polytope_violations,
    violated_cuts,
)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    cost = {e: Fraction(1) for e in complete_edges(n)}
    return Instance(n=n, s=s, t=t, cost=cost)


def path_incidence(seq):
    return {edge(a, b): Fraction(1) for a, b in zip(seq, seq[1:])}


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30).flatmap(lambda n: st.permutations(range(n))))
def test_separate_accepts_hamiltonian_path(order):
    # solve_lp stops without separating at a point that is 1 on the edges
    # of a spanning tree; under the degree rows that is a Hamiltonian s-t
    # path, which this holds to violate no cut
    n = len(order)
    inst = uniform_instance(n, s=order[0], t=order[-1])
    x = path_incidence(order)
    assert all(v == 1 for v in x.values()) and is_spanning_tree(x, n)
    assert separate(x, inst, 1) == []


# a triangle floating next to an s-t path: degrees are fine, but the path
# side and the triangle side both violate their cut constraints
PLANTED_GAP = {edge(1, 2): Fraction(1), edge(1, 3): Fraction(1),
               edge(2, 3): Fraction(1), edge(0, 4): Fraction(1),
               edge(4, 5): Fraction(1)}


def test_separate_agrees_with_enumeration_on_a_planted_gap():
    inst = uniform_instance(6)
    x = PLANTED_GAP
    found = separate(x, inst, 1)
    brute = {U for U, _ in violated_cuts(x, inst)}
    assert found and brute
    for U, need, load in found:
        side = frozenset(U) if inst.s in U else frozenset(range(6)) - set(U)
        assert side in brute
        assert load_of_mask(x, mask_of(U)) == load < need
    assert frozenset({0, 4, 5}) in brute


def test_the_path_exit_needs_a_spanning_tree():
    # every value is 1 and every degree is right, but the support is not
    # connected: solve_lp must separate this point, not stop at it
    assert all(v == 1 for v in PLANTED_GAP.values())
    assert not is_spanning_tree(PLANTED_GAP, 6)
    assert separate(PLANTED_GAP, uniform_instance(6), 1)


@pytest.mark.parametrize("seed", range(8))
def test_a_path_vertex_costs_no_separation_round(monkeypatch, seed):
    # the random-n26 benchmark corpus: six of its eight LP optima are
    # Hamiltonian s-t paths
    inst = random_metric_instance(26, seed)
    _, sol, points = lp_path(inst)
    monkeypatch.setattr(lp_relax, "is_spanning_tree", lambda edges, n: False)
    _, full, full_points = lp_path(inst)
    assert (sol.x, sol.value) == (full.x, full.value)
    assert full_points[:len(points)] == points
    assert len(full_points) - len(points) == (0 if seed in (1, 3) else 1)


def test_each_separation_round_is_one_batch_of_rows(monkeypatch):
    # the random-n26 benchmark corpus: 228 cut rows in 19 add_cut_rows
    # calls, one per round, where appending them one row per call made 228
    made = []

    class Recording(ExactSimplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.batches = []
            made.append(self)

        def add_cut_rows(self, cuts):
            self.batches.append(len(cuts))
            return super().add_cut_rows(cuts)

    monkeypatch.setattr(lp_relax, "ExactSimplex", Recording)
    for seed in range(8):
        solve_lp(random_metric_instance(26, seed))
    assert [sx.batches for sx in made] == [
        [15], [17, 10], [13, 18, 9], [20, 6, 1, 4], [14, 25], [7, 25, 4],
        [9, 15], [15, 1]]
    assert sum(map(sum, (sx.batches for sx in made))) == 228


@pytest.mark.parametrize("path", ["lp20", "lp26", "lp40"])
def test_the_lp_fixtures_end_on_a_separated_point(path, request):
    # their optima are fractional, so each path records its last point
    _, sol, points = request.getfixturevalue(path)
    assert points[-1] == sol.x
    assert any(v != 1 for v in sol.x.values())


@pytest.mark.parametrize("n", [6, 24])
def test_separate_finds_the_merged_ends_above_the_enumeration_limit(n):
    # x_st = 1 leaves the contracted {s, t} node without an edge; every
    # degree is right, but the cut around {s, t} carries no load
    inst = uniform_instance(n)
    x = path_incidence((0, n - 1))
    x.update(path_incidence(tuple(range(1, n - 1)) + (1,)))
    assert separate(x, inst, 1) == [((0, n - 1), 2, 0)]
    assert separate_all_pairs(x, inst) == [((0, n - 1), 2, 0)]


@pytest.mark.parametrize("path", ["lp20", "lp26"])
def test_separate_matches_all_pairs_along_the_lp_path(path, request):
    inst, sol, points = request.getfixturevalue(path)
    assert len(points) > 1
    for x in points:
        assert separate(x, inst, 1) == separate_all_pairs(x, inst)
    assert separate(sol.x, inst, 1) == []


def test_pair_flows_run_in_name_order_with_the_merged_vertex_last(
        monkeypatch, lp26):
    # which pair flows run, and so the cut lists, the LP path and the
    # recorded report digests, depend on this order: the vertices other
    # than s and t by the string order of their names, then s, into which
    # t is merged
    inst, _, points = lp26
    s, t = inst.s, inst.t
    order = sorted((v for v in range(inst.n) if v not in (s, t)), key=str)
    rank = {v: i for i, v in enumerate(order + [s])}
    flow = lp_relax.max_flow_min_cut
    calls = []

    def recording(net, source, sink):
        calls.append((source, sink))
        return flow(net, source, sink)

    monkeypatch.setattr(lp_relax, "max_flow_min_cut", recording)
    pair_flows = 0
    for x in points:
        calls.clear()
        separate(x, inst, 1)
        assert calls[0] == (s, t)  # the odd cuts' one s-t flow
        ranks = [(rank[a], rank[b]) for a, b in calls[1:]]
        assert all(i < j for i, j in ranks)
        assert ranks == sorted(ranks)
        pair_flows += len(ranks)
    assert pair_flows == 108


def flow_results(module, separator, *args):
    """separator(*args), and the set of (source, side) results of the
    flows it ran through module.max_flow_min_cut."""
    flow = module.max_flow_min_cut
    results = set()

    def recording(net, source, sink):
        value, side = flow(net, source, sink)
        results.add((source, side))
        return value, side

    module.max_flow_min_cut = recording
    try:
        return separator(*args), results
    finally:
        module.max_flow_min_cut = flow


def assert_skips_change_nothing(x, inst):
    """separate returns every-pair separation's list, and each flow it
    skips would have returned a side that a flow from the same source
    returned."""
    assert flow_results(lp_relax, separate, x, inst, 1) \
        == flow_results(oracles, separate_every_pair, x, inst)


@pytest.mark.parametrize("path", ["lp20", "lp26", "lp40"])
def test_pair_flow_skips_change_nothing_along_the_lp_path(path, request):
    inst, _, points = request.getfixturevalue(path)
    for x in points:
        assert_skips_change_nothing(x, inst)


weights = st.sampled_from([Fraction(0)] * 4 + [
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
    Fraction(1), Fraction(3, 2), Fraction(2)])


@st.composite
def fractional_points(draw):
    """Any s and t, and a sparse x of small fractions on up to 12 vertices;
    x need not be LP-feasible."""
    n = draw(st.integers(2, 12))
    s, t = draw(st.permutations(range(n)))[:2]
    x = {e: w for e in complete_edges(n) if (w := draw(weights)) != 0}
    return uniform_instance(n, s, t), x


@st.composite
def sparse_points(draw):
    """Any s and t on 13 to 30 vertices, and a sum of small fractions on
    up to 3n random vertex pairs; x need not be LP-feasible, and its
    contracted support mostly has many narrow cut-tree edges."""
    n = draw(st.integers(13, 30))
    s, t = draw(st.permutations(range(n)))[:2]
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                     unique=True)
    x = {}
    for (u, v), w in draw(st.lists(st.tuples(pairs, weights),
                                   max_size=3 * n)):
        if w:
            x[edge(u, v)] = x.get(edge(u, v), 0) + w
    return uniform_instance(n, s, t), x


@settings(max_examples=150, deadline=None)
@given(sparse_points())
def test_pair_flow_skips_change_nothing_on_sparse_points(point):
    inst, x = point
    assert_skips_change_nothing(x, inst)


@settings(max_examples=200, deadline=None)
@given(fractional_points())
def test_separate_returns_violated_cuts_and_a_most_violated_one(point):
    inst, x = point
    everything = frozenset(range(inst.n))
    deficit = {U: need - cut_value(x, U) for U, need in violated_cuts(x, inst)}
    found = separate(x, inst, 1)
    # the same list from x as ints over twice the lcm of its denominators,
    # as the LP loop hands it over (a basic den need not be the least)
    nums, den = over_lcm(x)
    assert separate({e: 2 * v for e, v in nums.items()}, inst, 2 * den) \
        == found
    assert bool(found) == bool(deficit)
    assert found == sorted(found, key=lambda r: (r[2] - r[1], r[0]))
    for U, need, load in found:
        side = frozenset(U) if inst.s in U else everything - set(U)
        assert U == tuple(sorted(U)) and 0 in U
        assert side in deficit
        assert load == cut_value(x, U) and need - load == deficit[side]
    if found:
        assert found[0][1] - found[0][2] == max(deficit.values())


def test_solve_lp_uniform_triangle():
    sol = solve_lp(uniform_instance(3, s=0, t=2))
    assert sol.value == 2
    assert separate(sol.x, uniform_instance(3, s=0, t=2), 1) == []


def test_solve_lp_unit_circuit_matches_brute_force():
    n = 6
    ring = {edge(i, (i + 1) % n): 1 for i in range(n)}
    inst = Instance(n=n, s=0, t=1, cost=metric_closure(n, ring))
    sol = solve_lp(inst)
    assert sol.value == n - 1 == path_min_cost(inst)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lp_lower_bounds_the_optimum(seed):
    inst = random_metric_instance(7, seed)
    sol = solve_lp(inst)
    assert sol.value <= path_min_cost(inst)


@pytest.mark.parametrize("n,seed", [(n, seed) for n in (5, 6, 7)
                                    for seed in range(3)])
def test_solve_lp_is_optimal(n, seed):
    inst = random_metric_instance(n, seed)
    assert solve_lp(inst).value == full_path_lp_value(inst)


def test_solve_lp_is_optimal_at_a_fractional_optimum():
    # the closure of an eight-edge graph: the LP optimum 23/2 lies below
    # the cheapest Hamiltonian path, 12
    graph = {(0, 1): 1, (0, 3): 2, (0, 4): 3, (1, 3): 1, (2, 3): 2,
             (2, 4): 3, (2, 5): 3, (3, 5): 2}
    inst = Instance(n=6, s=0, t=5, cost=metric_closure(6, graph))
    sol = solve_lp(inst)
    assert sol.value == full_path_lp_value(inst) == Fraction(23, 2)
    assert path_min_cost(inst) == 12


@pytest.mark.parametrize("n,seed", [(6, 2), (9, 13), (10, 0)])
def test_solution_is_feasible_and_in_the_tree_polytope(n, seed):
    inst = random_metric_instance(n, seed)
    sol = solve_lp(inst)
    assert check_lp_point(sol.x, inst)
    assert tree_polytope_violations(sol.x, inst) == []
    assert violated_cuts(sol.x, inst) == []


def test_solve_lp_is_deterministic():
    inst = random_metric_instance(9, 13)
    a = solve_lp(inst)
    b = solve_lp(inst)
    assert a.x == b.x
    assert a.value == b.value
    assert any(v.denominator == 2 for v in a.x.values())  # genuinely fractional


def test_solution_file_round_trip():
    inst = random_metric_instance(8, 5)
    sol = solve_lp(inst)
    x, value = parse_solution(emit_solution(sol.x, sol.value))
    assert x == {e: v for e, v in sol.x.items() if v != 0}
    assert value == sol.value


@pytest.mark.parametrize("text, message", [
    ("0 1\n", "line 1: expected `u v a/b`"),
    ("0 1 1/2\n\n1 0 1/2\n", "line 3: duplicate edge (0, 1)"),
    ("# value 2\n0 1 -1/2\n", "line 2: negative value"),
])
def test_parse_solution_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_solution(text)


def test_parse_solution_skips_blank_and_comment_lines():
    text = "# a comment\n\n# value 3/2\n  \n0 1 1\n1 2 1/2\n0 2 0\n"
    assert parse_solution(text) == (
        {(0, 1): 1, (1, 2): Fraction(1, 2)}, Fraction(3, 2))
