import random
import re
from fractions import Fraction

import pytest

from pathtsp.bomc import (
    best_of_many,
    format_tour_report,
    held_karp_opt,
    min_tjoin,
    tour_from_tree,
)
from pathtsp.instance import (
    Instance,
    complete_edges,
    edge,
    random_metric_instance,
)
from pathtsp.lp_relax import solve_lp
from pathtsp.parity import split_path_join
from pathtsp.tree_decomp import Atom, decompose

from .oracles import matching_min_cost, min_cost_spanning_tree, path_min_cost

ZERO = Fraction(0)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    return Instance(n=n, s=s, t=t,
                    cost={e: Fraction(1) for e in complete_edges(n)})


def cost_of(edges, inst):
    return sum((inst.cost[e] for e in edges), ZERO)


def path_tree(seq):
    return frozenset(edge(a, b) for a, b in zip(seq, seq[1:]))


def test_tjoin_base_cases():
    inst = uniform_instance(5)
    assert min_tjoin(set(), inst) == frozenset()
    assert min_tjoin({1, 3}, inst) == {(1, 3)}
    with pytest.raises(ValueError):
        min_tjoin({1, 2, 3}, inst)
    big = uniform_instance(24)
    with pytest.raises(ValueError):
        min_tjoin(set(range(22)), big)


def test_tjoin_degrees_fix_the_parity_set():
    inst = random_metric_instance(9, 3)
    join = min_tjoin({0, 2, 5, 8}, inst)
    deg = {}
    for u, v in join:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert {v for v, d in deg.items() if d % 2} == {0, 2, 5, 8}


@pytest.mark.parametrize("seed", range(50))
def test_tjoin_matches_the_exhaustive_matching(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    inst = random_metric_instance(n, seed + 1000)
    size = rng.choice([2, 4, 6, 8])
    if size > n:
        size = n - (n % 2)
    T = rng.sample(range(n), size)
    assert cost_of(min_tjoin(T, inst), inst) == matching_min_cost(T, inst)


def test_tour_from_hamiltonian_path():
    inst = uniform_instance(6)
    tree = path_tree(range(6))
    st_tour, tour = tour_from_tree(tree, inst)
    assert st_tour.edges == tuple(sorted(tree))
    assert st_tour.cost == tour.cost == 5
    assert tour.vertices == (0, 1, 2, 3, 4, 5)


def test_tour_from_star_tree():
    inst = random_metric_instance(7, 2)
    tree = frozenset(edge(inst.s, v) for v in range(7) if v != inst.s)
    st_tour, tour = tour_from_tree(tree, inst)
    assert st_tour.cost == cost_of(st_tour.edges, inst)
    assert tour.cost <= st_tour.cost
    assert sorted(tour.vertices) == list(range(7))
    assert tour.vertices[0] == inst.s and tour.vertices[-1] == inst.t


def test_best_of_many_picks_the_minimum_row():
    inst = random_metric_instance(8, 11)
    x = solve_lp(inst).x
    dist = decompose(x, inst)
    rows, tour, bomc = best_of_many(dist, inst)
    assert bomc == min(total for _, _, _, total in rows)
    assert tour.cost <= bomc
    assert len(rows) == len(dist)
    for atom, tree_cost, join_cost, total in rows:
        assert tree_cost == cost_of(atom.tree, inst)
        assert total == tree_cost + join_cost
        par = split_path_join(atom.tree, inst)
        assert join_cost <= cost_of(par.j_edges, inst)


def test_best_of_many_breaks_ties_canonically():
    inst = uniform_instance(4)
    first = path_tree((0, 1, 2, 3))
    second = path_tree((0, 2, 1, 3))
    dist = [Atom(second, Fraction(1, 2), "z"), Atom(first, Fraction(1, 2), "a")]
    rows, tour, bomc = best_of_many(dist, inst)
    assert bomc == 3 and [r[3] for r in rows] == [3, 3]
    assert tour.vertices == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        best_of_many([], inst)


@pytest.mark.parametrize("seed", range(20))
def test_held_karp_matches_brute_force(seed):
    n = 5 + seed % 3
    inst = random_metric_instance(n, seed)
    tour = held_karp_opt(inst)
    assert tour.cost == path_min_cost(inst)
    assert tour.vertices[0] == inst.s and tour.vertices[-1] == inst.t
    assert sorted(tour.vertices) == list(range(n))
    assert cost_of([edge(a, b) for a, b in
                    zip(tour.vertices, tour.vertices[1:])], inst) == tour.cost


def test_held_karp_rejects_large_instances():
    with pytest.raises(ValueError):
        held_karp_opt(uniform_instance(19))


@pytest.mark.parametrize("seed", range(12))
def test_single_tree_heuristic_stays_under_five_thirds(seed):
    inst = random_metric_instance(5 + seed % 5, seed * 7 + 1)
    mst = min_cost_spanning_tree(inst)
    assert cost_of(mst, inst) <= held_karp_opt(inst).cost
    _, tour = tour_from_tree(mst, inst)
    assert tour.cost <= Fraction(5, 3) * held_karp_opt(inst).cost


def test_bound_chain_on_a_fractional_solution():
    inst = random_metric_instance(9, 13)
    x = solve_lp(inst).x
    dist = decompose(x, inst)
    rows, tour, bomc = best_of_many(dist, inst)
    average = sum((atom.weight * total for atom, _, _, total in rows), ZERO)
    assert tour.cost <= bomc <= average
    assert tour.cost >= held_karp_opt(inst).cost


def test_tour_report_format():
    inst = uniform_instance(4)
    dist = [Atom(path_tree((0, 1, 2, 3)), Fraction(1), "d")]
    rows, _, bomc = best_of_many(dist, inst)
    lines = format_tour_report(rows, bomc, opt_cost=held_karp_opt(inst).cost)
    assert lines[0] == "atom=0 tree_cost=3 join_cost=0 total=3"
    assert lines[-1] == "bomc=3 opt=3 ratio≈1.000000"
    pat = re.compile(r"atom=\d+ tree_cost=\S+ join_cost=\S+ total=\S+$")
    assert all(pat.match(ln) for ln in lines[:-1])
    assert format_tour_report(rows, bomc)[-1] == "bomc=3"
