import math
import random
import re
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp import bomc, parity
from pathtsp.bomc import (
    best_of_many,
    held_karp_opt,
    min_tjoin,
)
from pathtsp.cli import format_tour_report
from pathtsp.cuts import gomory_hu_tree
from pathtsp.instance import (
    Instance,
    build_appendix_instance,
    complete_edges,
    edge,
    random_metric_instance,
)
from pathtsp.lp_relax import solve_lp
from pathtsp.parity import split_path_join, tjoin_cut_violations
from pathtsp.reassembler import reassemble
from pathtsp.simplex import ExactSimplex
from pathtsp.tree_decomp import Atom, decompose

from .oracles import (
    ZERO,
    degree_rows_one_at_a_time,
    matching_min_cost,
    min_cost_spanning_tree,
    min_tjoin_one_row_at_a_time,
    path_min_cost,
    path_tree,
    tjoin_subset_dp,
    tree_parities,
    uniform_instance,
    wall,
)


def cost_of(edges, inst):
    return sum((inst.cost[e] for e in edges), ZERO)


def tour_from_tree(tree, inst):
    """(tree + min parity join cost, shortcut Tour) of one tree."""
    dist = [Atom(tree, Fraction(1))]
    _, tour, value = best_of_many(dist, tree_parities(dist, inst), inst)
    return value, tour


def test_tjoin_base_cases():
    inst = uniform_instance(5)
    assert min_tjoin(set(), inst) == frozenset()
    assert min_tjoin({1, 3}, inst) == {(1, 3)}
    with pytest.raises(ValueError):
        min_tjoin({1, 2, 3}, inst)
    big = uniform_instance(24)
    # all costs are 1, so any 11 disjoint edges are a minimum join
    assert cost_of(min_tjoin(set(range(22)), big), big) == 11


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


def assert_perfect_matching_on(join, T):
    deg = {}
    for u, v in join:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert deg == {v: 1 for v in T}


def separating_min_tjoin(T, inst):
    """min_tjoin(T, inst), asserting that every separation round it runs
    returns at least one cut: an integral vertex ends the loop unseparated.
    Each round's vertex, as ints over den, has every degree exactly 1."""
    found = []

    def recording(y, t_set, n, den):
        deg = [0] * n
        for (i, j), v in y.items():
            deg[i] += v
            deg[j] += v
        assert deg == [den] * n
        cuts = tjoin_cut_violations(y, t_set, n, den)
        found.append(len(cuts))
        return cuts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bomc, "tjoin_cut_violations", recording)
        join = min_tjoin(T, inst)
    assert all(found), f"cuts per separation round: {found}"
    return join


@st.composite
def parity_problems(draw):
    """(T, instance) with |T| <= 12, on a random metric or on all-equal
    costs, where every perfect matching ties."""
    n = draw(st.integers(3, 14))
    if draw(st.booleans()):
        inst = random_metric_instance(n, draw(st.integers(0, 10 ** 6)))
    else:
        inst = uniform_instance(n)
    size = draw(st.sampled_from(range(0, min(n, 12) + 1, 2)))
    T = draw(st.permutations(range(n)))[:size]
    return T, inst


@settings(max_examples=150, deadline=None)
@given(parity_problems())
def test_tjoin_matches_the_subset_dp(problem):
    T, inst = problem
    join = separating_min_tjoin(T, inst)
    assert cost_of(join, inst) == cost_of(tjoin_subset_dp(T, inst), inst)
    assert_perfect_matching_on(join, T)


@pytest.mark.parametrize("k", [0, 5])
def test_tjoin_matches_the_subset_dp_on_the_wall(k):
    # |T| = 10 + 2k on every tree of the wall
    inst, _, dist = build_appendix_instance(k)
    for atom in dist:
        T = split_path_join(atom.tree, inst).t_set
        assert len(T) == 10 + 2 * k
        join = separating_min_tjoin(T, inst)
        assert cost_of(join, inst) == cost_of(tjoin_subset_dp(T, inst), inst)
        assert_perfect_matching_on(join, T)


def recorded_simplices(monkeypatch):
    """The list of every ExactSimplex that min_tjoin makes from now on,
    each with `degree_state`, a copy of what it stored just after its
    first add_cut_rows call (the degree rows), and `rounds`, the number of
    add_cut_rows calls after that one (the separation rounds)."""
    made = []

    class Recording(ExactSimplex):
        degree_state = None
        rounds = 0

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def add_cut_rows(self, cuts):
            row_ids = super().add_cut_rows(cuts)
            if self.degree_state is None:
                self.degree_state = deepcopy(vars(self))
            else:
                self.rounds += 1
            return row_ids

    monkeypatch.setattr("pathtsp.bomc.ExactSimplex", Recording)
    return made


@pytest.mark.parametrize("size", range(2, 25, 2))
def test_the_one_step_degree_rows_equal_the_rows_one_at_a_time(size, monkeypatch):
    # the same columns, rows, dens, basis, cost rows and row maps as
    # |T| + 1 add_cut_row calls, entry for entry
    made = recorded_simplices(monkeypatch)
    inst = random_metric_instance(30, size)
    T = random.Random(size).sample(range(30), size)
    min_tjoin(T, inst)
    sx, _, _ = degree_rows_one_at_a_time(T, inst)
    assert made[0].degree_state == vars(sx)
    assert len(sx.rows) == size + 1 and sx.pivots == 0


def wall_parity_sets():
    """(inst, T) for every tree of the raw and the reassembled walls
    k = 0..8."""
    for k in range(9):
        inst, _, dist, chain = wall(k)
        final, _ = reassemble(dist, chain)
        for atom in dist + final:
            yield inst, split_path_join(atom.tree, inst).t_set


def test_tjoin_takes_the_row_by_row_pivots_on_the_walls(monkeypatch):
    made = recorded_simplices(monkeypatch)
    cases = list(wall_parity_sets())
    for inst, T in cases:
        join = min_tjoin(T, inst)
        assert (join, made[-1].pivots) == min_tjoin_one_row_at_a_time(T, inst)
    assert len(made) == len(cases) > 36


def test_tjoin_rounds_cut_every_odd_component_at_once(monkeypatch):
    # with one Gomory-Hu side per round, one k = 5 set took 14 rounds, the
    # walls k = 0, 2..5 (the `wall` benchmark pass) 37, and the reassembled
    # k = 20 wall 60, 57 of them on one |T| = 48 set
    made = recorded_simplices(monkeypatch)
    rounds = {}
    for k in (0, 2, 3, 4, 5, 20):
        inst, _, final, _ = wall(k, reassembled=True)
        sets = [split_path_join(atom.tree, inst).t_set for atom in final]
        for T in sets:
            assert_perfect_matching_on(min_tjoin(T, inst), T)
        rounds[k] = [sx.rounds for sx in made[-len(sets):]]
    assert len(made) == 24
    assert max(rounds[5]) <= 2
    assert sum(sum(rounds[k]) for k in (0, 2, 3, 4, 5)) <= 20
    assert sum(rounds[20]) <= 5


def test_tjoin_pivots_stay_few_on_the_raw_wall(monkeypatch):
    # with the degree rows as equalities, phase 2 took about 98,000
    # pivots on one of these parity sets (|T| = 70)
    made = recorded_simplices(monkeypatch)
    inst, _, dist = build_appendix_instance(30)
    for atom in dist:
        T = split_path_join(atom.tree, inst).t_set
        assert_perfect_matching_on(min_tjoin(T, inst), T)
    assert len(made) == 4 and max(sx.pivots for sx in made) < 1000


def test_tjoin_reaches_padberg_rao(monkeypatch):
    # 16 random points in the unit square, T = all of them: the only seed
    # in 0..399 at |T| = 16, 20 and 24 where a round of min_tjoin finds no
    # T-odd component of the support, so that its cut comes from the
    # Gomory-Hu tree on the terminals
    rng = random.Random(154)
    points = [(rng.random(), rng.random()) for _ in range(16)]
    inst = Instance(n=16, s=0, t=15, cost={
        (u, v): int(1000 * math.dist(points[u], points[v])) + 1
        for u, v in complete_edges(16)})
    trees = []   # the node list of every Gomory-Hu tree the rounds build
    rounds = []  # (cuts, Gomory-Hu trees built) per separation round

    def building(net, nodes):
        trees.append(nodes)
        return gomory_hu_tree(net, nodes)

    def recording(y, t_set, n, den):
        built = len(trees)
        cuts = tjoin_cut_violations(y, t_set, n, den)
        rounds.append((len(cuts), len(trees) - built))
        return cuts

    monkeypatch.setattr(parity, "gomory_hu_tree", building)
    monkeypatch.setattr(bomc, "tjoin_cut_violations", recording)
    made = recorded_simplices(monkeypatch)
    join = min_tjoin(range(16), inst)
    assert rounds == [(2, 0), (2, 0), (2, 0), (2, 0), (1, 1)]
    assert trees == [list(range(16))]
    assert_perfect_matching_on(join, range(16))
    assert (join, made[-1].pivots) == min_tjoin_one_row_at_a_time(
        range(16), inst)
    assert cost_of(join, inst) == cost_of(tjoin_subset_dp(range(16), inst),
                                          inst) == 1334


def test_best_of_many_solves_one_join_per_atom(monkeypatch):
    inst, _, dist = build_appendix_instance(0)
    calls = []

    def counting(T, inst):
        calls.append(T)
        return min_tjoin(T, inst)

    monkeypatch.setattr("pathtsp.bomc.min_tjoin", counting)
    rows, tour, value = best_of_many(dist, tree_parities(dist, inst), inst)
    assert len(calls) == len(dist) == 4
    winner = next(atom for atom, _, _, total in rows if total == value)
    assert tour == tour_from_tree(winner.tree, inst)[1]


def test_tour_from_hamiltonian_path():
    inst = uniform_instance(6)
    tree = path_tree(range(6))
    st_cost, tour = tour_from_tree(tree, inst)
    assert st_cost == tour.cost == 5
    assert tour.vertices == (0, 1, 2, 3, 4, 5)


def test_tour_from_star_tree():
    inst = random_metric_instance(7, 2)
    tree = frozenset(edge(inst.s, v) for v in range(7) if v != inst.s)
    st_cost, tour = tour_from_tree(tree, inst)
    par = split_path_join(tree, inst)
    assert st_cost == cost_of(tree, inst) + cost_of(
        min_tjoin(par.t_set, inst), inst)
    assert tour.cost <= st_cost
    assert sorted(tour.vertices) == list(range(7))
    assert tour.vertices[0] == inst.s and tour.vertices[-1] == inst.t


def test_best_of_many_picks_the_minimum_row():
    inst = random_metric_instance(8, 11)
    x = solve_lp(inst).x
    dist = decompose(x, inst)
    rows, tour, bomc = best_of_many(dist, tree_parities(dist, inst), inst)
    assert bomc == min(total for _, _, _, total in rows)
    assert tour.cost <= bomc
    assert len(rows) == len(dist)
    for atom, tree_cost, join_cost, total in rows:
        assert tree_cost == cost_of(atom.tree, inst)
        assert total == tree_cost + join_cost
        par = split_path_join(atom.tree, inst)
        assert join_cost <= cost_of(par.j_edges, inst)


def test_a_tree_listed_twice_is_joined_and_checked_once(monkeypatch,
                                                       params):
    # reassembly lists a tree twice when it keeps whole grid steps and a
    # residual; here the reassembled wall's first tree is split in two atoms,
    # the second and the last
    inst, _, final, chain = wall(0, reassembled=True)
    twice = Atom(final[0].tree, final[0].weight / 2)
    dist = [final[1], twice, *final[2:], twice]
    seen = {"min_tjoin": [], "tjoin_cut_violations": []}

    def counting(owner, name, t_arg):
        real = getattr(owner, name)

        def counted(*args):
            seen[name].append(args[t_arg])
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    counting(bomc, "min_tjoin", 0)
    counting(parity, "tjoin_cut_violations", 1)
    t_sets = [split_path_join(a.tree, inst).t_set for a in final]
    assert len(set(t_sets)) == len(final)   # one T_S per distinct tree

    rows, _, _ = best_of_many(dist, tree_parities(dist, inst), inst)
    assert len(rows) == len(dist)   # every atom keeps its row
    assert sorted(map(sorted, seen["min_tjoin"])) == sorted(map(sorted,
                                                                t_sets))
    table = parity.assign_gamma(dist, chain, params)
    cv = parity.correction_vectors(table)
    parity.check_join_membership(cv, table)
    assert sorted(map(sorted, seen["tjoin_cut_violations"])) == sorted(
        map(sorted, t_sets))
    # a failing y^S is named by the first atom of its tree
    cv.y[1] = cv.y[-1] = {}
    with pytest.raises(AssertionError, match=r"^atom 1: y\^S misses"):
        parity.check_join_membership(cv, table)


def test_best_of_many_breaks_ties_canonically():
    inst = uniform_instance(4)
    first = path_tree((0, 1, 2, 3))
    second = path_tree((0, 2, 1, 3))
    dist = [Atom(second, Fraction(1, 2)), Atom(first, Fraction(1, 2))]
    rows, tour, bomc = best_of_many(dist, tree_parities(dist, inst), inst)
    assert bomc == 3 and [r[3] for r in rows] == [3, 3]
    assert tour.vertices == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        best_of_many([], [], inst)


@pytest.mark.parametrize("seed", range(20))
def test_held_karp_matches_brute_force(seed):
    n = 5 + seed % 3
    inst = random_metric_instance(n, seed)
    assert held_karp_opt(inst) == path_min_cost(inst)


def test_held_karp_rejects_large_instances():
    with pytest.raises(ValueError):
        held_karp_opt(uniform_instance(19))


@pytest.mark.parametrize("seed", range(12))
def test_single_tree_heuristic_stays_under_five_thirds(seed):
    inst = random_metric_instance(5 + seed % 5, seed * 7 + 1)
    mst = min_cost_spanning_tree(inst)
    assert cost_of(mst, inst) <= held_karp_opt(inst)
    _, tour = tour_from_tree(mst, inst)
    assert tour.cost <= Fraction(5, 3) * held_karp_opt(inst)


def test_bound_chain_on_a_fractional_solution():
    inst = random_metric_instance(9, 13)
    x = solve_lp(inst).x
    dist = decompose(x, inst)
    rows, tour, bomc = best_of_many(dist, tree_parities(dist, inst), inst)
    average = sum((atom.weight * total for atom, _, _, total in rows), ZERO)
    assert tour.cost <= bomc <= average
    assert tour.cost >= held_karp_opt(inst)


def test_tour_report_format():
    inst = uniform_instance(4)
    dist = [Atom(path_tree((0, 1, 2, 3)), Fraction(1))]
    rows, _, bomc = best_of_many(dist, tree_parities(dist, inst), inst)
    lines = format_tour_report(rows, bomc, opt_cost=held_karp_opt(inst))
    assert lines[0] == "atom=0 tree_cost=3 join_cost=0 total=3"
    assert lines[-1] == "bomc=3 opt=3 ratio≈1.000000"
    pat = re.compile(r"atom=\d+ tree_cost=\S+ join_cost=\S+ total=\S+$")
    assert all(pat.match(ln) for ln in lines[:-1])
    assert format_tour_report(rows, bomc)[-1] == "bomc=3"
