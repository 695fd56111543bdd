import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathtsp.instance import (Instance, complete_edges, edge,
                              random_metric_instance)
from pathtsp.tree_decomp import (
    Atom,
    DecompositionError,
    check_reconstruction,
    decompose,
    emit_distribution,
    is_spanning_tree,
    parse_distribution,
    total_weight,
    tree_path,
)

from .oracles import path_tree, reconstruct, spans


def test_spanning_tree_check():
    assert is_spanning_tree(path_tree((0, 1, 2, 3)), 4)
    assert not is_spanning_tree({edge(0, 1), edge(1, 2), edge(0, 2)}, 4)
    assert not is_spanning_tree({edge(0, 1), edge(2, 3)}, 4)
    assert not is_spanning_tree(path_tree((0, 1, 2)), 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.data())
def test_spanning_tree_check_matches_oracle(n, data):
    pool = list(complete_edges(n))
    edges = data.draw(st.sets(st.sampled_from(pool),
                              min_size=n - 1, max_size=n - 1))
    assert is_spanning_tree(edges, n) == spans(edges, n)


def test_tree_path_walks_the_tree():
    tree = {edge(0, 2), edge(2, 4), edge(4, 1), edge(4, 3)}
    assert tree_path(tree, 0, 1) == [0, 2, 4, 1]
    assert tree_path(tree, 3, 0) == [3, 4, 2, 0]


def test_tree_path_reports_a_goal_it_cannot_reach():
    with pytest.raises(ValueError, match=r"^no path 0\.\.2 in tree$"):
        tree_path({edge(0, 1)}, 0, 2)


def test_decompose_integral_point_is_one_atom():
    inst = random_metric_instance(6, 0)
    inner = [v for v in range(6) if v not in (inst.s, inst.t)]
    tree = path_tree((inst.s, *inner, inst.t))
    x = {e: Fraction(1) for e in tree}
    dist = decompose(x, inst)
    assert len(dist) == 1
    assert dist[0].tree == frozenset(tree)
    assert dist[0].weight == 1


def test_decompose_rejects_an_integral_point_that_is_not_a_tree():
    # n - 1 edges at 1 that close a cycle and miss vertex 3
    inst = random_metric_instance(4, 0)
    x = {e: Fraction(1) for e in (edge(0, 1), edge(1, 2), edge(0, 2))}
    with pytest.raises(DecompositionError,
                       match="^support graph is not connected$"):
        decompose(x, inst)


def test_decompose_two_tree_mixture():
    inst = random_metric_instance(4, 1)
    t1 = path_tree((0, 1, 2, 3))
    t2 = path_tree((0, 2, 1, 3))
    x = {}
    for t in (t1, t2):
        for e in t:
            x[e] = x.get(e, Fraction(0)) + Fraction(1, 2)
    dist = decompose(x, inst)
    assert reconstruct(dist) == x
    assert total_weight(dist) == 1
    assert all(is_spanning_tree(a.tree, 4) for a in dist)


def test_decompose_reports_a_point_outside_the_spanning_tree_polytope():
    # x sums to n - 1 = 3, but the triangle 0-1-2 carries 5/2 > 2
    inst = Instance(n=4, s=0, t=3,
                    cost={e: Fraction(1) for e in complete_edges(4)})
    x = {(0, 1): Fraction(5, 6), (1, 2): Fraction(5, 6),
         (0, 2): Fraction(5, 6), (2, 3): Fraction(1, 2)}
    with pytest.raises(DecompositionError, match=re.escape(
            "pricing found no improving tree; residual gap 2")):
        decompose(x, inst)


def test_decompose_appendix(appendix0):
    inst, xstar, _ = appendix0
    dist = decompose(xstar, inst)
    assert reconstruct(dist) == xstar
    assert total_weight(dist) == 1
    assert len(dist) < inst.n * inst.n
    assert all(is_spanning_tree(a.tree, inst.n) for a in dist)
    assert all(a.weight > 0 for a in dist)


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 7), st.integers(0, 10**6), st.integers(2, 5))
def test_decompose_inverts_random_mixtures(n, seed, k):
    # build a random convex combination of spanning trees, then recover one
    import random
    rng = random.Random(seed)
    inst = random_metric_instance(n, seed)
    x = {}
    raw = [rng.randrange(1, 9) for _ in range(k)]
    for w in raw:
        perm = list(range(n))
        rng.shuffle(perm)
        for e in path_tree(tuple(perm)):
            x[e] = x.get(e, Fraction(0)) + Fraction(w, sum(raw))
    dist = decompose(x, inst)
    assert reconstruct(dist) == x
    assert total_weight(dist) == 1


def test_distribution_file_round_trip_and_merge():
    t1 = path_tree((0, 1, 2, 3))
    t2 = path_tree((0, 2, 1, 3))
    dist = [Atom(t1, Fraction(1, 4)), Atom(t2, Fraction(1, 2)),
            Atom(t1, Fraction(1, 4))]
    text = emit_distribution(dist)
    back = parse_distribution(text, n=4)
    assert reconstruct(back) == reconstruct(dist)
    assert len(back) == 2  # equal trees merged on emit
    assert emit_distribution(back) == text


def test_parse_distribution_rejects_non_trees():
    text = "tree 1\n0 1\n1 2\n0 2\n"
    with pytest.raises(ValueError):
        parse_distribution(text, n=4)


@pytest.mark.parametrize("text, message", [
    ("", "no trees in distribution file"),
    ("# nothing\n\n", "no trees in distribution file"),
    ("tree\n0 1\n", "line 1: malformed tree header"),
    ("tree 1 2\n0 1\n", "line 1: malformed tree header"),
    ("tree 0\n0 1\n", "line 1: weight must be positive"),
    ("0 1\ntree 1\n", "line 1: edge before any tree header"),
    ("tree 1\n0 1 2\n", "line 2: expected `u v`"),
])
def test_parse_distribution_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_distribution(text, n=3)


def test_parse_distribution_skips_blank_and_comment_lines():
    text = "# two paths\n\ntree 1/2  # first\n0 1\n\n1 2\ntree 1/2\n0 2\n1 2\n"
    dist = parse_distribution(text, n=3)
    assert dist == [Atom(frozenset({(0, 1), (1, 2)}), Fraction(1, 2)),
                    Atom(frozenset({(0, 2), (1, 2)}), Fraction(1, 2))]


def test_check_reconstruction():
    x = {edge(0, 1): Fraction(1, 2), edge(1, 2): Fraction(1),
         edge(0, 2): Fraction(1, 2), edge(2, 3): Fraction(0)}
    dist = [Atom(path_tree((0, 1, 2)), Fraction(1, 2)),
            Atom(path_tree((1, 2, 0)), Fraction(1, 2))]
    check_reconstruction(x, dist)   # zero entries of x are ignored
    with pytest.raises(ValueError, match="^total weight is not 1$"):
        check_reconstruction(x, dist[:1])
    with pytest.raises(ValueError, match="^distribution does not "
                       "reconstruct the solution$"):
        check_reconstruction(x, [dist[0], Atom(dist[0].tree, Fraction(1, 2))])


def test_int_weights_reconstruct_to_fractions():
    tree = path_tree((0, 1, 2))
    for dist in ([Atom(tree, 1)], [Atom(tree, Fraction(1, 3)), Atom(tree, 0),
                                   Atom(tree, Fraction(2, 3))]):
        x = reconstruct(dist)
        assert x == {edge(0, 1): 1, edge(1, 2): 1}
        assert all(type(v) is Fraction for v in x.values())
        assert total_weight(dist) == 1 and type(total_weight(dist)) is Fraction
        check_reconstruction(x, dist)
    with pytest.raises(ValueError, match="^total weight is not 1$"):
        check_reconstruction(x, [Atom(tree, 2)])
