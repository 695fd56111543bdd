import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from pathtsp import instance
from pathtsp.cli import main
from pathtsp.cuts import load_of_mask
from pathtsp.instance import (
    Instance,
    build_appendix_instance,
    complete_edges,
    edge,
    emit_instance,
    instance_digest,
    metric_closure,
    over_lcm,
    parse_instance,
    parse_rational,
    random_metric_instance,
)
from pathtsp.lp_relax import emit_solution, separate
from pathtsp.tree_decomp import Atom, emit_distribution

from .oracles import (appendix_certificate_sets, mask_of,
                      metric_closure_floyd_warshall, rational_rank,
                      uniform_instance, validate_metric)


def test_edge_is_canonical():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_parse_rational_accepts_integers_and_fractions():
    # held to Fraction(str): the same strings, read as the same values
    for tok in ["3", "007", "-3", "+3", " 7 ", "1_000", "7/4", " 7/4",
                "1.5", "1e3"]:
        q = parse_rational(tok)
        assert type(q) is Fraction and q == Fraction(tok), tok
    # rejected with a ValueError naming the token; Fraction("1/0") raises
    # ZeroDivisionError instead
    for tok in ["7 /4", "", "0x10", "²", "1/0"]:
        with pytest.raises(ValueError, match=re.escape(repr(tok))):
            parse_rational(tok)


def test_an_instance_cost_with_a_zero_denominator_is_rejected():
    with pytest.raises(ValueError, match="'1/0'"):
        parse_instance("2 0 1\n0 1 1/0\n")


@pytest.mark.parametrize("q, text", [
    (0, "0"), (3, "3"), (-3, "-3"), (Fraction(5), "5"),
    (Fraction(-7, 4), "-7/4"), (Fraction(6, 4), "3/2")])
def test_files_write_ints_plainly_and_fractions_in_lowest_terms(q, text):
    assert emit_instance(Instance(n=2, s=0, t=1, cost={(0, 1): q})) == (
        f"2 0 1\n0 1 {text}\n")
    # a zero entry of x is not written
    assert emit_solution({(0, 1): q}, q) == (
        f"# value {text}\n" + (f"0 1 {text}\n" if q else ""))
    assert emit_distribution([Atom(frozenset({(0, 1)}), q)]) == (
        f"tree {text}\n0 1\n")


def test_an_instance_file_is_written_back_in_lowest_terms():
    inst = parse_instance("3 0 2\n0 1 6/4\n0 2 007\n1 2 6\n")
    assert emit_instance(inst) == "3 0 2\n0 1 3/2\n0 2 7\n1 2 6\n"


def test_over_lcm_edge_cases():
    assert over_lcm({}) == ({}, 1)
    ints = {"a": 3, "b": -2, "c": 0}
    assert over_lcm(ints) == (ints, 1)
    assert over_lcm({"a": Fraction(-1, 4), "b": Fraction(5, 6), "c": 2}) == (
        {"a": -3, "b": 10, "c": 24}, 12)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 20), st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=60).filter(lambda q: abs(q) < 100))))
def test_over_lcm_keeps_every_value_and_sign(values):
    nums, den = over_lcm(values)
    assert den == lcm(*(Fraction(v).denominator for v in values.values()))
    assert nums.keys() == values.keys()
    for k, v in values.items():
        assert type(nums[k]) is int and Fraction(nums[k], den) == v
        assert (nums[k] > 0) == (v > 0) and (nums[k] < 0) == (v < 0)


def test_instance_rejects_bad_endpoints():
    cost = {e: Fraction(1) for e in complete_edges(3)}
    with pytest.raises(ValueError):
        Instance(n=3, s=1, t=1, cost=cost)
    with pytest.raises(ValueError):
        Instance(n=3, s=0, t=5, cost=cost)


def test_validate_metric_uniform_is_empty():
    assert validate_metric(uniform_instance(4)) == []


def test_validate_metric_reports_violating_triples():
    cost = {edge(0, 1): Fraction(1), edge(1, 2): Fraction(1),
            edge(0, 2): Fraction(3)}
    bad = validate_metric(Instance(n=3, s=0, t=2, cost=cost))
    assert bad
    assert all(inst_cost_breaks(t, cost) for t in bad)
    assert (0, 1, 2) in bad or (2, 1, 0) in bad


def inst_cost_breaks(triple, cost):
    u, v, w = triple
    return cost[edge(u, w)] > cost[edge(u, v)] + cost[edge(v, w)]


def test_metric_closure_is_metric():
    weighted = {edge(0, 1): 2, edge(1, 2): 3, edge(2, 3): 1, edge(0, 3): 10}
    cost = metric_closure(4, weighted)
    assert cost[edge(0, 3)] == 6  # shortest path wins over the direct edge
    inst = Instance(n=4, s=0, t=3, cost=cost)
    assert validate_metric(inst) == []


@st.composite
def weighted_graphs(draw):
    """(n, {edge: length}) with int and Fraction lengths, zeros included;
    connected or not."""
    n = draw(st.integers(1, 9))
    length = st.one_of(st.integers(0, 20),
                       st.fractions(0, 20, max_denominator=12))
    pairs = draw(st.lists(st.sampled_from(complete_edges(n)), unique=True)
                 if n > 1 else st.just([]))
    return n, {e: draw(length) for e in pairs}


def closure_or_error(closure, n, weighted):
    try:
        return list(closure(n, weighted).items())
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_metric_closure_matches_floyd_warshall(graph):
    # the same distances, in the same key order, or the same error on a
    # disconnected graph; every distance is an int when every length is
    n, weighted = graph
    got = closure_or_error(metric_closure, n, weighted)
    assert got == closure_or_error(metric_closure_floyd_warshall, n,
                                   weighted)
    if not isinstance(got, str) and all(type(w) is int
                                        for w in weighted.values()):
        assert all(type(d) is int for _, d in got)


def test_closure_rejects_a_disconnected_graph_with_enough_edges():
    # n - 1 edges pass the early count, but vertex 3 is isolated
    with pytest.raises(ValueError, match="support graph is disconnected"):
        parse_instance("4 0 3\n0 1 1\n1 2 1\n0 2 1\n")


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10), st.integers(0, 10**6))
def test_instance_file_round_trip(n, seed):
    inst = random_metric_instance(n, seed)
    again = parse_instance(emit_instance(inst))
    assert again == inst
    assert emit_instance(again) == emit_instance(inst)


def test_an_integer_file_keeps_int_costs(tmp_path):
    # the same costs written as "c" parse to ints and as "c/1" to
    # Fractions: the two instances, digests and run reports are equal
    inst = random_metric_instance(26, 0)
    text = emit_instance(inst)
    head, edges = text.split("\n", 1)
    as_ratios = head + "\n" + re.sub(r" (\d+)$", r" \1/1", edges, flags=re.M)
    parsed, fractions = parse_instance(text), parse_instance(as_ratios)
    assert {type(c) for c in parsed.cost.values()} == {int}
    assert {type(c) for c in fractions.cost.values()} == {Fraction}
    assert parsed == fractions == inst
    assert instance_digest(parsed) == instance_digest(fractions)
    reports = []
    for name, body in (("int.txt", text), ("fraction.txt", as_ratios)):
        (tmp_path / name).write_text(body)
        out = tmp_path / f"{name}.report"
        assert main(["run", str(tmp_path / name), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        reports.append(lines[:lines.index("# timings")])
    assert reports[0] == reports[1]
    assert reports[0][0].startswith(f"instance={instance_digest(inst)} ")


def test_random_metric_instance_is_deterministic_and_metric():
    a = random_metric_instance(5, 7)
    b = random_metric_instance(5, 7)
    assert a == b
    assert validate_metric(a) == []
    assert a.s != a.t


def test_random_metric_instance_rejects_tiny_n():
    with pytest.raises(ValueError, match="need at least two vertices"):
        random_metric_instance(1, 0)
    inst = random_metric_instance(2, 0)
    assert (inst.n, sorted((inst.s, inst.t))) == (2, [0, 1])


def test_a_partial_file_is_completed_by_shortest_paths():
    text = "4 0 3\n0 1 1\n1 2 1\n2 3 1\n"
    inst = parse_instance(text)
    assert inst.cost[edge(0, 3)] == 3
    assert validate_metric(inst) == []
    assert inst == parse_instance(emit_instance(inst))
    # a listed cost above a path is refused, as in a full file
    with pytest.raises(ValueError, match=re.escape(
            "edge 0,2 costs more than a path through a third vertex: "
            "not a metric")):
        parse_instance(text + "0 2 5\n")


def test_a_large_header_is_rejected_without_listing_its_edges(monkeypatch):
    # n = 10^6 would need an n x n table or a set of n^2/2 edges
    def allocates(*args):
        raise AssertionError("the complete edge set was built")

    monkeypatch.setattr(instance, "complete_edges", allocates)
    monkeypatch.setattr(instance, "metric_closure", allocates)
    # a partial file, refused for its too few edges before any distance
    with pytest.raises(ValueError, match="support graph is disconnected"):
        parse_instance("1000000 0 1\n0 1 1\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty instance file"),
    ("# only a comment\n\n", "empty instance file"),
    ("3 0\n", "bad header '3 0', expected 'n s t'"),
    ("3 0 2\n0 1\n", "bad edge line '0 1'"),
    ("3 0 2\n0 3 1\n", "vertex out of range in '0 3 1'"),
    ("3 0 2\n0 1 1\n1 0 2\n", "duplicate edge (0, 1)"),
    ("3 0 2\n0 1 -1\n", "negative cost in '0 1 -1'"),
    ("3 0 2\n0 1 1\n", "support graph is disconnected"),
    ("-5 0 1\n", "need at least two vertices"),
])
def test_parse_instance_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_instance(text)


def test_parse_instance_skips_blank_and_comment_lines():
    text = "# a triangle\n\n3 0 2\n  \n0 1 1\n# the long side\n0 2 2\n1 2 1\n"
    inst = parse_instance(text)
    assert (inst.n, inst.s, inst.t) == (3, 0, 2)
    assert inst.cost == {(0, 1): 1, (0, 2): 2, (1, 2): 1}


def test_digest_is_stable_under_reemission():
    inst = random_metric_instance(6, 3)
    assert instance_digest(inst) == instance_digest(parse_instance(emit_instance(inst)))


# ----- the wall fixture -----

def test_appendix_base_shape(appendix0):
    inst, xstar, p4 = appendix0
    assert inst.n == 20
    assert len(xstar) == 30
    assert set(xstar.values()) <= {Fraction(1, 4), Fraction(1, 2),
                                   Fraction(3, 4), Fraction(1)}
    assert validate_metric(inst) == []


def test_appendix_xstar_is_lp_feasible(appendix0):
    inst, xstar, _ = appendix0
    deg = {v: Fraction(0) for v in range(inst.n)}
    for (u, v), val in xstar.items():
        deg[u] += val
        deg[v] += val
    for v in range(inst.n):
        assert deg[v] == (1 if v in (inst.s, inst.t) else 2)
    assert separate(xstar, inst, 1) == []


def test_appendix_four_trees_average_to_xstar(appendix0):
    _, xstar, p4 = appendix0
    assert len(p4) == 4
    assert all(atom.weight == Fraction(1, 4) for atom in p4)
    acc = {}
    for atom in p4:
        for e in atom.tree:
            acc[e] = acc.get(e, Fraction(0)) + atom.weight
    assert acc == xstar


def test_appendix_certificate_tight_and_independent(appendix0):
    inst, xstar, _ = appendix0
    sets = appendix_certificate_sets(0)
    assert len(sets) == 30
    support = sorted(xstar)
    rows = []
    for U in sets:
        need = 1 if (inst.s in U) != (inst.t in U) else 2
        assert load_of_mask(xstar, mask_of(U)) == need
        rows.append([1 if (e[0] in U) != (e[1] in U) else 0
                     for e in support])
    assert rational_rank(rows) == 30


def test_appendix_extension_grows_by_four_and_six():
    inst, xstar, p4 = build_appendix_instance(1)
    assert inst.n == 24
    assert len(xstar) == 36
    acc = {}
    for atom in p4:
        for e in atom.tree:
            acc[e] = acc.get(e, Fraction(0)) + atom.weight
    assert acc == xstar
    assert separate(xstar, inst, 1) == []


def test_appendix_rejects_negative_k():
    with pytest.raises(ValueError):
        build_appendix_instance(-1)
