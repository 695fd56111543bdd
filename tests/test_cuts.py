import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtsp.cli import format_cut_report
from pathtsp.cuts import (
    ChainError,
    CutChain,
    cut_stats,
    gomory_hu_tree,
    narrow_cuts,
)
from pathtsp.flows import FlowNetwork
from pathtsp.instance import (
    Instance,
    build_appendix_instance,
    edge,
    random_metric_instance,
)
from pathtsp.lp_relax import solve_lp
from pathtsp.reassembler import type_data
from pathtsp.tree_decomp import Atom, decompose

from .oracles import (
    appendix_wall_cut_indices,
    crossing_edges,
    crossings,
    cut_value,
    gomory_hu_tree_all_nodes,
    ONE,
    members,
    narrow_sets,
    narrow_sets_all_pairs,
    packing_holds,
    pairwise_intersection_check,
    path_x,
    rational_graphs,
    trees_on_chains,
    type_data_scan,
    uniform_instance,
)


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


@settings(max_examples=60, deadline=None)
@given(rational_graphs())
def test_gomory_hu_tree_against_brute_force(graph):
    n, cap = graph
    net = FlowNetwork(cap, n)
    tree = [(side, Fraction(value, net.den))
            for side, value in gomory_hu_tree(net, range(n))]
    assert len(tree) == n - 1
    for side, value in tree:
        assert isinstance(side, int) and 0 < side < 1 << n
        assert not side & 1  # the tree hangs from vertex 0
        assert cut_value(cap, members(side)) == value
    loads = {}
    for r in range(1, n):
        for extra in combinations(range(1, n), r - 1):
            U = frozenset((0, *extra))
            loads[U] = cut_value(cap, U)
    for a, b in combinations(range(n), 2):
        brute = min(lo for U, lo in loads.items() if (a in U) != (b in U))
        path = min(value for side, value in tree
                   if ((side >> a) ^ (side >> b)) & 1)
        assert path == brute


@settings(max_examples=60, deadline=None)
@given(rational_graphs(), st.data())
def test_gomory_hu_tree_on_terminals_against_brute_force(graph, data):
    n, cap = graph
    T = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    net = FlowNetwork(cap, n)
    tree = [(side, Fraction(value, net.den))
            for side, value in gomory_hu_tree(net, T)]
    assert len(tree) == max(len(T) - 1, 0)
    t_mask = sum(1 << v for v in T)
    loads = [cut_value(cap, members(U)) for U in range(1 << n)]
    for side, value in tree:
        assert 0 < side and not side & ~t_mask
        assert not (side >> T[0]) & 1  # the tree hangs from T[0]
        # the least load of a vertex set that splits T as the edge does
        split = min(load for U, load in enumerate(loads)
                    if U & t_mask == side)
        assert split == value


@st.composite
def graphs_with_terminals(draw):
    n, cap = draw(rational_graphs())
    return n, cap, sorted(draw(st.sets(st.integers(0, n - 1))))


@settings(max_examples=100, deadline=None)
@given(graphs_with_terminals())
# the first flow, from 2 to 0, has the side {1, 2}: it holds the
# non-terminal 1, which is not in the tree
@example((3, {(0, 1): ONE, (1, 2): 2 * ONE}, [0, 2]))
def test_gomory_hu_tree_is_the_tree_that_rehangs_over_every_node(graph):
    n, cap, T = graph
    net = FlowNetwork(cap, n)
    for nodes in (range(n), T):
        assert gomory_hu_tree(net, nodes) == \
            gomory_hu_tree_all_nodes(net, nodes)


@pytest.mark.parametrize("nodes", [[], [3]])
def test_gomory_hu_tree_of_fewer_than_two_nodes_is_empty(nodes):
    cap = {(0, 3): ONE, (1, 3): ONE}
    assert gomory_hu_tree(FlowNetwork(cap, 4), nodes) == []


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


def test_chain_errors_name_the_end_cuts():
    # deg(s) = 2: the only cut of load < 2 is {0, 1, 2}
    x = path_x((0, 1, 2, 3))
    x[edge(0, 2)] = Fraction(1)
    with pytest.raises(ChainError, match=re.escape("does not start at {0}")):
        narrow_cuts(x, uniform_instance(4))
    # deg(t) = 2: the only cut of load < 2 is {0}
    x = path_x((0, 1, 2, 3))
    x[edge(1, 3)] = Fraction(1)
    with pytest.raises(ChainError, match=re.escape("does not end at V-{3}")):
        narrow_cuts(x, uniform_instance(4))
    # a cycle has no cut of load < 2 at all
    inst = random_metric_instance(4, 0)
    assert (inst.s, inst.t) == (1, 2)
    cycle = {edge(v, (v + 1) % 4): Fraction(1) for v in range(4)}
    with pytest.raises(ChainError, match=re.escape("does not start at {1}")):
        narrow_cuts(cycle, inst)


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
    stats = cut_stats(chain, [Atom(frozenset(path_x((0, 1, 2, 3))), Fraction(1))])
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


# ----- crossing profiles against the scanning oracle -----

# the path s=0, 1, 2, 3, t=4 cut at every prefix, all xi-narrow: the edge
# 1-3 crosses xi-cuts 1 and 2 but not 0, so l = 1 at cut 2 and l = 0 at 1
@settings(max_examples=150, deadline=None)
@given(trees_on_chains())
@example((frozenset({(0, 1), (1, 3), (2, 3), (3, 4)}),
          CutChain(masks=[0b1, 0b11, 0b111, 0b1111], loads=[None] * 4,
                   xi_indices=[0, 1, 2, 3],
                   inst=Instance(n=5, s=0, t=4, cost={}), x={})))
def test_profile_matches_the_scanning_oracle(case):
    tree, chain = case
    size = len(chain.masks)
    for v in range(chain.inst.n):
        inside = [i for i, m in enumerate(chain.masks) if (m >> v) & 1]
        assert chain.layer[v] == (inside[0] if inside else size)
    # the one crossing rule: uv crosses exactly the levels that separate
    # u from v, in either endpoint order
    for u, v in combinations(range(chain.inst.n), 2):
        apart = [i for i, m in enumerate(chain.masks)
                 if (m >> u) & 1 != (m >> v) & 1]
        assert list(range(*chain.levels_crossed(u, v))) == apart
        assert chain.levels_crossed(v, u) == chain.levels_crossed(u, v)
    prof = chain.profile(tree)
    assert chain.profile(tree) is prof
    assert prof.counts == [crossings(tree, m) for m in chain.masks]
    hits = [crossing_edges(tree, m) for m in chain.masks]
    assert prof.single == [h[0] if len(h) == 1 else None for h in hits]
    for i in range(1, len(chain.xi_indices) - 1):
        assert type_data(tree, chain, i) == type_data_scan(tree, chain, i)


def test_chain_levels_must_nest():
    inst = uniform_instance(4, s=0, t=3)
    with pytest.raises(ValueError, match="nested"):
        CutChain(masks=[0b011, 0b101], loads=[ONE, ONE], xi_indices=[0, 1],
                 inst=inst, x={})
