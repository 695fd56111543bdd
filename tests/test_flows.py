from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp import cuts, lp_relax
from pathtsp.flows import FlowNetwork, max_flow_min_cut

from .oracles import cut_value, fraction_max_flow_min_cut

capacities = st.one_of(st.integers(0, 4),
                       st.builds(Fraction, st.integers(0, 6),
                                 st.integers(1, 4)))


@st.composite
def flow_problems(draw):
    """Up to 9 int vertices, int and Fraction capacities (zeros too), each
    edge keyed (u, v), (v, u) or both, in a random key order; the source
    and sink may have no edge at all."""
    n = draw(st.integers(2, 9))
    nodes = draw(st.permutations(range(n)))
    cap = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            keys = draw(st.sampled_from([(), ((u, v),), ((v, u),),
                                         ((u, v), (v, u))]))
            for key in keys:
                cap[key] = draw(capacities)
    source, sink = draw(st.permutations(nodes))[:2]
    return n, cap, source, sink


@settings(max_examples=200, deadline=None)
@given(flow_problems())
def test_matches_the_fraction_edmonds_karp(problem):
    n, cap, source, sink = problem
    net = FlowNetwork(cap, n)
    value, side = max_flow_min_cut(net, source, sink)
    assert isinstance(value, int) and isinstance(side, frozenset)
    value = Fraction(value, net.den)
    assert (value, side) == fraction_max_flow_min_cut(cap, source, sink)
    assert source in side and sink not in side
    assert cut_value(cap, side) == value


@settings(max_examples=100, deadline=None)
@given(flow_problems(), st.data())
def test_one_network_answers_a_sequence_of_queries(problem, data):
    # no residual flow may leak from one query into the next
    n, cap, source, sink = problem
    pairs = data.draw(st.lists(
        st.permutations(range(n)).map(lambda p: (p[0], p[1])),
        min_size=1, max_size=6))
    queries = [(source, sink), *pairs, (sink, source),
               *[(b, a) for a, b in pairs], (source, sink)]
    net = FlowNetwork(cap, n)
    for a, b in queries:
        value, side = max_flow_min_cut(net, a, b)
        assert (Fraction(value, net.den), side) \
            == fraction_max_flow_min_cut(cap, a, b)


def test_negative_capacity_raises():
    with pytest.raises(ValueError):
        FlowNetwork({(0, 1): 1, (1, 2): Fraction(-1, 2)}, 3)
    with pytest.raises(ValueError):
        FlowNetwork({(0, 1): -1}, 2)


def test_side_is_the_minimal_minimum_cut():
    # both edges of 0-1-2 are minimum cuts; the side is the smaller one
    net = FlowNetwork({(0, 1): 1, (1, 2): 1}, 3)
    assert max_flow_min_cut(net, 0, 2) == (1, frozenset({0}))


def test_isolated_source():
    net = FlowNetwork({(1, 2): Fraction(1, 2)}, 3)
    assert max_flow_min_cut(net, 0, 2) == (0, frozenset({0}))


def test_isolated_sink():
    # no flow; the side is everything the source reaches
    net = FlowNetwork({(0, 1): 1, (1, 2): Fraction(1, 2), (3, 4): 1}, 6)
    assert max_flow_min_cut(net, 0, 5) == (0, frozenset({0, 1, 2}))


def test_every_flow_goes_through_the_module_globals(monkeypatch, lp26):
    # the benchmark's tracer counts flows by wrapping these two names;
    # a flow that bypasses them would read as no flow at all
    calls = []
    for module in (cuts, lp_relax):
        def counting(net, source, sink, flow=module.max_flow_min_cut):
            calls.append((source, sink))
            return flow(net, source, sink)
        monkeypatch.setattr(module, "max_flow_min_cut", counting)
    inst, sol, points = lp26
    cuts.narrow_cuts(sol.x, inst)
    assert len(calls) == inst.n - 1
    calls.clear()
    for x in points:
        lp_relax.separate(x, inst, 1)
    # 5 points: 5 s-t flows, 5 cut trees of 24 flows and 108 pair flows
    # (the 715 pairs whose minimal cut is already known run no flow); pair
    # flows that bypassed the module global would leave 125
    assert len(calls) == 233
