from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp.cuts import (
    ChainError,
    CutChain,
    crossings,
    cut_stats,
    format_cut_report,
    gomory_hu_tree,
    narrow_cuts,
)
from pathtsp.instance import (
    Instance,
    appendix_wall_cut_indices,
    build_appendix_instance,
    complete_edges,
    edge,
    random_metric_instance,
)
from pathtsp.lp_relax import solve_lp
from pathtsp.parity import split_path_join
from pathtsp.tree_decomp import Atom, decompose

from .oracles import (
    cut_value,
    narrow_sets,
    narrow_sets_all_pairs,
    pairwise_intersection_check,
)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    cost = {e: Fraction(1) for e in complete_edges(n)}
    return Instance(n=n, s=s, t=t, cost=cost)


def path_x(seq):
    return {edge(a, b): Fraction(1) for a, b in zip(seq, seq[1:])}


def test_three_vertex_path_chain():
    inst = uniform_instance(3, s=0, t=2)
    chain = narrow_cuts(path_x((0, 1, 2)), inst)
    assert chain.levels == [(0,), (0, 1)]
    assert chain.loads == [1, 1]
    assert chain.xi_indices == [0, 1]


def test_end_cuts_always_present():
    for n, seed in ((9, 13), (10, 0), (8, 4)):
        inst = random_metric_instance(n, seed)
        chain = narrow_cuts(solve_lp(inst).x, inst)
        assert set(chain.levels[0]) == {inst.s}
        assert set(chain.levels[-1]) == set(range(n)) - {inst.t}
        assert chain.loads[0] == 1 and chain.loads[-1] == 1
        assert 0 in chain.xi_indices and len(chain) - 1 in chain.xi_indices


def test_chain_is_strictly_nested_and_complete():
    for n, seed in ((9, 13), (10, 0), (11, 8)):
        inst = random_metric_instance(n, seed)
        x = solve_lp(inst).x
        chain = narrow_cuts(x, inst)
        for a, b in zip(chain.levels, chain.levels[1:]):
            assert set(a) < set(b)
        assert {frozenset(lv) for lv in chain.levels} == set(narrow_sets(x, inst))


def test_chain_matches_all_pairs_reference(lp26):
    cases = [build_appendix_instance(k)[:2] for k in (2, 5)]
    inst26, sol26, _ = lp26
    cases.append((inst26, sol26.x))
    for inst, x in cases:
        chain = narrow_cuts(x, inst)
        assert inst.n > 22
        assert ({frozenset(lv) for lv in chain.levels}
                == narrow_sets_all_pairs(x, inst))
        assert chain.loads == [cut_value(x, lv) for lv in chain.levels]


@st.composite
def rational_graphs(draw):
    """Up to 9 nodes, random rational capacities; zero-capacity and missing
    edges leave room for isolated nodes and disconnected graphs."""
    n = draw(st.integers(2, 9))
    cap = {}
    for e in combinations(range(n), 2):
        num = draw(st.integers(0, 6))
        if num and draw(st.booleans()):
            cap[e] = Fraction(num, draw(st.integers(1, 4)))
    return n, cap


@settings(max_examples=60, deadline=None)
@given(rational_graphs())
def test_gomory_hu_tree_against_brute_force(graph):
    n, cap = graph
    tree = gomory_hu_tree(cap, range(n))
    assert len(tree) == n - 1
    for side, value in tree:
        assert 0 not in side
        assert cut_value(cap, side) == value
    loads = {}
    for r in range(1, n):
        for extra in combinations(range(1, n), r - 1):
            U = frozenset((0, *extra))
            loads[U] = cut_value(cap, U)
    for a, b in combinations(range(n), 2):
        brute = min(lo for U, lo in loads.items() if (a in U) != (b in U))
        path = min(value for side, value in tree
                   if (a in side) != (b in side))
        assert path == brute


def test_non_chain_structure_is_rejected():
    # infeasible point: a floating triangle makes narrow cuts incomparable
    inst = uniform_instance(6)
    x = {edge(1, 2): Fraction(1), edge(1, 3): Fraction(1),
         edge(2, 3): Fraction(1), edge(0, 4): Fraction(1),
         edge(4, 5): Fraction(1)}
    with pytest.raises(ChainError):
        narrow_cuts(x, inst)
    # the cuts nest, but the end cut {s} carries load 3/2
    x = path_x((0, 1, 2, 3))
    x[edge(0, 2)] = Fraction(1, 2)
    with pytest.raises(ChainError):
        narrow_cuts(x, uniform_instance(4))


def test_appendix_chain_shape(appendix0, appendix0_chain):
    inst, xstar, _ = appendix0
    chain = appendix0_chain
    assert len(chain) == 12
    assert chain.loads[0] == 1 and chain.loads[-1] == 1
    for load in chain.loads[1:-1]:
        assert load == Fraction(3, 2)
    assert chain.xi_indices == list(range(12))  # 3/2 < 173/100: all xi-narrow
    assert chain.inst == inst
    assert chain.x == {e: v for e, v in xstar.items() if v != 0}


def test_pairwise_intersection_margins(appendix0, appendix0_chain):
    inst, xstar, _ = appendix0
    margins = pairwise_intersection_check(appendix0_chain, xstar)
    assert len(margins) == 12 * 11 // 2
    assert all(m >= 0 for m in margins)
    assert Fraction(0) in margins  # adjacent wall cuts are tight


def test_pairwise_intersection_on_tiny_path():
    inst = uniform_instance(3, s=0, t=2)
    x = path_x((0, 1, 2))
    chain = narrow_cuts(x, inst)
    assert pairwise_intersection_check(chain, x) == [0]


def test_cut_stats_on_the_four_tree_wall(appendix0, appendix0_chain):
    _, _, p4 = appendix0
    stats = cut_stats(appendix0_chain, p4)
    for i in appendix_wall_cut_indices(0):
        st = stats[i]
        assert st.load == Fraction(3, 2)
        assert st.p_one == Fraction(1, 2)
        assert st.p_even == Fraction(1, 2)
        assert st.p_many == 0


def test_cut_stats_single_tree():
    inst = uniform_instance(4, s=0, t=3)
    x = path_x((0, 1, 2, 3))
    chain = narrow_cuts(x, inst)
    stats = cut_stats(chain, [Atom(frozenset(path_x((0, 1, 2, 3))), Fraction(1), "t")])
    for st in stats:
        assert (st.p_one, st.p_even, st.p_many) == (1, 0, 0)


def test_cut_stats_inequalities_on_random_solutions():
    for n, seed in ((10, 0), (12, 15)):
        inst = random_metric_instance(n, seed)
        x = solve_lp(inst).x
        chain = narrow_cuts(x, inst)
        dist = decompose(x, inst)
        for st in cut_stats(chain, dist):
            assert st.p_even <= st.load - 1
            assert st.p_one >= 2 - st.load
            assert st.p_many == (st.load - 1 - st.p_even) / 2


def packing_holds(chain, dist, inst):
    lhs = {}
    for i, mask in enumerate(chain.masks):
        for atom in dist:
            cut = [e for e in atom.tree if ((mask >> e[0]) ^ (mask >> e[1])) & 1]
            if len(cut) == 1:
                lhs[cut[0]] = lhs.get(cut[0], Fraction(0)) + atom.weight
    rhs = {}
    for atom in dist:
        for e in split_path_join(atom.tree, inst).i_edges:
            rhs[e] = rhs.get(e, Fraction(0)) + atom.weight
    return all(v <= rhs.get(e, Fraction(0)) for e, v in lhs.items())


def test_packing_inequality(appendix0, appendix0_chain):
    inst, _, p4 = appendix0
    assert packing_holds(appendix0_chain, p4, inst)
    for n, seed in ((9, 13), (12, 15)):
        rinst = random_metric_instance(n, seed)
        x = solve_lp(rinst).x
        assert packing_holds(narrow_cuts(x, rinst), decompose(x, rinst), rinst)


def test_cut_report_format(appendix0_chain):
    lines = format_cut_report(appendix0_chain)
    assert lines[0] == "cuts:"
    assert len(lines) == 13
    assert all("load" in ln and "xi_narrow" in ln for ln in lines[1:])
    assert "load 3/2" in lines[2] and "xi_narrow: yes" in lines[2]
