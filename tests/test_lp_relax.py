from fractions import Fraction

import pytest

from pathtsp.cli import check_lp_point
from pathtsp.instance import (
    Instance,
    complete_edges,
    edge,
    metric_closure,
    random_metric_instance,
)
from pathtsp.lp_relax import (
    cut_load,
    parse_solution,
    emit_solution,
    separate,
    solve_lp,
)

from .oracles import (
    path_min_cost,
    separate_all_pairs,
    tree_polytope_violations,
    violated_cuts,
)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    cost = {e: Fraction(1) for e in complete_edges(n)}
    return Instance(n=n, s=s, t=t, cost=cost)


def path_incidence(seq):
    return {edge(a, b): Fraction(1) for a, b in zip(seq, seq[1:])}


def test_separate_accepts_hamiltonian_path():
    inst = uniform_instance(6)
    x = path_incidence((0, 2, 4, 1, 3, 5))
    assert separate(x, inst) == []


def test_separate_agrees_with_enumeration_on_a_planted_gap():
    # a triangle floating next to an s-t path: degrees are fine, but the
    # path side and the triangle side both violate their cut constraints
    inst = uniform_instance(6)
    x = {edge(1, 2): Fraction(1), edge(1, 3): Fraction(1),
         edge(2, 3): Fraction(1), edge(0, 4): Fraction(1),
         edge(4, 5): Fraction(1)}
    found = separate(x, inst)
    brute = {U for U, _ in violated_cuts(x, inst)}
    assert found and brute
    for U, need, load in found:
        side = frozenset(U) if inst.s in U else frozenset(range(6)) - set(U)
        assert side in brute
        assert cut_load(x, U) == load < need
    assert frozenset({0, 4, 5}) in brute


def test_separate_finds_the_merged_ends_above_the_enumeration_limit():
    # x_st = 1 leaves the contracted {s, t} node without an edge; every
    # degree is right, but the cut around {s, t} carries no load
    n = 24
    inst = uniform_instance(n)
    x = path_incidence((0, n - 1))
    x.update(path_incidence(tuple(range(1, n - 1)) + (1,)))
    assert separate(x, inst) == [((0, n - 1), 2, 0)]
    assert separate_all_pairs(x, inst) == [((0, n - 1), 2, 0)]


def test_separate_matches_all_pairs_along_the_lp_path(lp26):
    inst, sol, points = lp26
    assert inst.n > 22 and len(points) > 1
    for x in points:
        assert separate(x, inst) == separate_all_pairs(x, inst)
    assert separate(sol.x, inst) == []


def test_solve_lp_uniform_triangle():
    sol = solve_lp(uniform_instance(3, s=0, t=2))
    assert sol.value == 2
    assert separate(sol.x, uniform_instance(3, s=0, t=2)) == []


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
