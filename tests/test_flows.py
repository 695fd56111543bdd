from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp.flows import max_flow_min_cut

from .oracles import cut_value, fraction_max_flow_min_cut

capacities = st.one_of(st.integers(0, 4),
                       st.builds(Fraction, st.integers(0, 6),
                                 st.integers(1, 4)))


@st.composite
def flow_problems(draw):
    """Up to 9 nodes, int labels and the string "st", int and Fraction
    capacities (zeros too), each edge keyed (u, v), (v, u) or both; the
    source and sink may have no edge at all."""
    n = draw(st.integers(2, 9))
    nodes = draw(st.permutations([*range(n - 1), "st"]))
    cap = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            keys = draw(st.sampled_from([(), ((u, v),), ((v, u),),
                                         ((u, v), (v, u))]))
            for key in keys:
                cap[key] = draw(capacities)
    source, sink = draw(st.permutations(nodes))[:2]
    return cap, source, sink


@settings(max_examples=200, deadline=None)
@given(flow_problems())
def test_matches_the_fraction_edmonds_karp(problem):
    cap, source, sink = problem
    value, side = max_flow_min_cut(cap, source, sink)
    assert isinstance(value, Fraction) and isinstance(side, frozenset)
    assert (value, side) == fraction_max_flow_min_cut(cap, source, sink)
    assert source in side and sink not in side
    assert cut_value(cap, side) == value


def test_negative_capacity_raises():
    with pytest.raises(ValueError):
        max_flow_min_cut({(0, 1): 1, (1, 2): Fraction(-1, 2)}, 0, 2)
    with pytest.raises(ValueError):
        max_flow_min_cut({(0, 1): -1}, 0, 1)


def test_side_is_the_minimal_minimum_cut():
    # both edges of s-a-t are minimum cuts; the side is the smaller one
    assert max_flow_min_cut({("s", "a"): 1, ("a", "t"): 1}, "s", "t") \
        == (1, frozenset({"s"}))


def test_isolated_source():
    assert max_flow_min_cut({(1, 2): Fraction(1, 2)}, 0, 2) \
        == (0, frozenset({0}))
