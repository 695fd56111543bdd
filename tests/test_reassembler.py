from dataclasses import replace
from fractions import Fraction

import pytest

from pathtsp.cuts import CutChain, load_of_mask, narrow_cuts
from pathtsp.instance import Instance, appendix_wall_cut_indices, complete_edges, edge
from pathtsp.reassembler import (
    TYPE_CODES,
    ExchangeError,
    classify,
    exchange,
    exchange_left,
    reassemble,
    sweep_left,
    sweep_right,
    type_census,
    type_data,
    type_mix_bound_holds,
    validate_exchange_record,
)
from pathtsp.tree_decomp import Atom, decompose, reconstruct, total_weight

HALF = Fraction(1, 2)
XI = Fraction(173, 100)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    cost = {e: Fraction(1) for e in complete_edges(n)}
    return Instance(n=n, s=s, t=t, cost=cost)


def chain_of(inst, levels, x):
    """Hand-assembled chain: the exchange machinery never needs the x it
    came from to be LP-feasible, only the nesting."""
    masks = [sum(1 << v for v in lv) for lv in levels]
    loads = [load_of_mask(x, m) for m in masks]
    return CutChain(levels=[tuple(sorted(lv)) for lv in levels], masks=masks,
                    loads=loads, xi=XI, xi_indices=list(range(len(levels))),
                    inst=inst, x=x)


def tree(*edges_):
    return frozenset(edge(a, b) for a, b in edges_)


S1 = tree((0, 3), (2, 3), (1, 2), (3, 4), (4, 5))   # 120 at cut 2
S2 = tree((0, 1), (1, 2), (2, 5), (4, 5), (3, 4))   # 011 at cut 2
LEVELS6 = [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4)]


@pytest.fixture
def six_chain():
    inst = uniform_instance(6)
    x = {}
    for tr in (S1, S2):
        for e in tr:
            x[e] = x.get(e, Fraction(0)) + HALF
    return chain_of(inst, LEVELS6, x)


def test_every_type_code_is_reachable(six_chain):
    cases = {
        "010": tree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
        "011": S2,
        "110": tree((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)),
        "111": tree((0, 1), (1, 2), (1, 4), (3, 4), (4, 5)),
        "021": tree((0, 1), (1, 2), (2, 3), (2, 4), (4, 5)),
        "120": S1,
        "022": tree((0, 1), (1, 2), (2, 4), (2, 5), (3, 4)),
        "220": tree((0, 3), (1, 3), (1, 2), (3, 4), (4, 5)),
        "121": tree((0, 3), (1, 2), (2, 5), (3, 4), (4, 5)),
        "GOOD": tree((0, 3), (1, 4), (2, 5), (0, 1), (1, 2)),  # m = 3
    }
    for code, tr in cases.items():
        assert classify(tr, six_chain, 2) == code
    # "020" needs a wider gap between neighboring cuts
    inst8 = uniform_instance(8)
    tr = tree((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7))
    x8 = {e: Fraction(1) for e in tr}
    chain8 = chain_of(inst8, [(0,), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5),
                              (0, 1, 2, 3, 4, 5, 6)], x8)
    assert classify(tr, chain8, 2) == "020"
    assert set(cases) | {"020"} == set(TYPE_CODES)


def test_good_via_large_sidecount(six_chain):
    tr = tree((0, 3), (1, 4), (0, 1), (1, 2), (4, 5))
    code, l, m, r = type_data(tr, six_chain, 2)
    assert code == "GOOD" and (l, m, r) == (2, 2, 1)


def test_good_when_nothing_singleton_defines(six_chain):
    tr = tree((0, 1), (1, 2), (2, 3), (2, 4), (3, 5))
    code, l, m, r = type_data(tr, six_chain, 2)
    assert code == "GOOD" and (l, m, r) == (0, 2, 1)


def test_type_queries_only_at_internal_cuts(six_chain):
    with pytest.raises(ValueError):
        classify(S1, six_chain, 0)
    with pytest.raises(ValueError):
        classify(S1, six_chain, 4)


def test_type_census(six_chain):
    dist = [Atom(S1, HALF, "a"), Atom(S2, HALF, "b")]
    assert type_census(dist, six_chain, 2) == {"120": HALF, "011": HALF}


def test_exchange_on_the_two_tree_fixture(six_chain):
    s1n, s2n, rec = exchange(S1, S2, six_chain, 2)
    assert rec.e0 == (0, 3) and rec.e1 == (2, 3) and rec.e2 == (2, 5)
    assert rec.h == 0 and rec.k == 4
    assert rec.direction == "right"
    assert s1n == S1 - {(2, 3)} | {(2, 5)}
    assert s2n == S2 - {(2, 5)} | {(2, 3)}
    assert classify(s1n, six_chain, 2) == "121"
    assert classify(s2n, six_chain, 2) == "010"
    assert validate_exchange_record(rec, six_chain) == []


def test_exchange_left_is_the_mirror_image():
    # relabel v -> 5 - v: S1 becomes type 021, S2 becomes 110
    inst = uniform_instance(6)
    flip = lambda tr: tree(*((5 - a, 5 - b) for a, b in tr))
    s1m, s2m = flip(S1), flip(S2)
    x = {}
    for tr in (s1m, s2m):
        for e in tr:
            x[e] = x.get(e, Fraction(0)) + HALF
    chain = chain_of(inst, LEVELS6, x)
    assert classify(s1m, chain, 2) == "021"
    assert classify(s2m, chain, 2) == "110"
    s1n, s2n, rec = exchange_left(s1m, s2m, chain, 2)
    assert rec.e0 == (2, 5) and rec.e1 == (2, 3) and rec.e2 == (0, 3)
    assert rec.h == 4 and rec.k == 0
    assert rec.direction == "left"
    assert classify(s1n, chain, 2) == "121"
    assert classify(s2n, chain, 2) == "010"
    assert validate_exchange_record(rec, chain) == []


def test_exchange_rejects_wrong_types(six_chain):
    with pytest.raises(ExchangeError):
        exchange(S2, S1, six_chain, 2)   # swapped roles
    with pytest.raises(ExchangeError):
        exchange(S1, S1, six_chain, 2)
    with pytest.raises(ExchangeError):
        exchange_left(S1, S2, six_chain, 2)


def test_validate_catches_tampering(six_chain):
    _, _, rec = exchange(S1, S2, six_chain, 2)
    bad = validate_exchange_record(replace(rec, s1_new=rec.s1), six_chain)
    assert any("s1_new" in msg for msg in bad)
    bad = validate_exchange_record(replace(rec, e1=rec.e2, e2=rec.e1),
                                   six_chain)
    assert bad


def test_sweeps_on_the_wall_distribution(appendix0, appendix0_chain):
    inst, xstar, p4 = appendix0
    chain = appendix0_chain
    for i in appendix_wall_cut_indices(0):
        census = type_census(p4, chain, i)
        assert census == {"011": Fraction(1, 4), "110": Fraction(1, 4),
                          "021": Fraction(1, 4), "120": Fraction(1, 4)}
    swept, recs = sweep_right(p4, chain)
    assert recs and reconstruct(swept) == xstar
    assert total_weight(swept) == 1
    for i in range(1, len(chain) - 1):
        census = type_census(swept, chain, i)
        assert min(census.get("120", Fraction(0)),
                   census.get("011", Fraction(0))) == 0
    swept2, recs2 = sweep_left(swept, chain)
    assert reconstruct(swept2) == xstar
    for i in range(1, len(chain) - 1):
        census = type_census(swept2, chain, i)
        assert min(census.get("021", Fraction(0)),
                   census.get("110", Fraction(0))) == 0
    for rec in recs + recs2:
        assert validate_exchange_record(rec, chain) == []
        assert rec.delta > 0


def test_sweep_without_applicable_pairs_is_identity():
    inst = uniform_instance(6)
    x = {e: Fraction(1) for e in tree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))}
    chain = narrow_cuts(x, inst)
    dist = decompose(x, inst)
    out, recs = sweep_right(dist, chain)
    assert recs == [] and out == dist
    out, recs = sweep_left(dist, chain)
    assert recs == [] and out == dist


def test_reassemble_fixes_the_wall(appendix0, appendix0_chain):
    inst, xstar, p4 = appendix0
    chain = appendix0_chain
    eps = Fraction(1, 100)
    assert not type_mix_bound_holds(p4, chain, eps)
    final, records = reassemble(p4, chain, eps)
    assert type_mix_bound_holds(final, chain, eps)
    assert reconstruct(final) == {e: v for e, v in xstar.items() if v != 0}
    assert total_weight(final) == 1
    assert all(a.weight > 0 for a in final)
    assert len(final) < inst.n ** 2 / eps + inst.n ** 2
    assert len(records) == 6
    for rec in records:
        assert validate_exchange_record(rec, chain) == []


def test_reassemble_trivial_on_integral_point():
    inst = uniform_instance(6)
    x = {e: Fraction(1) for e in tree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))}
    final, records = reassemble(decompose(x, inst), narrow_cuts(x, inst),
                                Fraction(1, 100))
    assert records == []
    assert len(final) == 1 and total_weight(final) == 1


def test_reassemble_validates_parameters(appendix0, appendix0_chain):
    inst, xstar, p4 = appendix0
    with pytest.raises(ValueError, match="xi"):
        reassemble(p4, narrow_cuts(xstar, inst, Fraction(3, 2)),
                   Fraction(1, 100))
    with pytest.raises(ValueError, match="eps"):
        reassemble(p4, appendix0_chain, Fraction(0))
    # a distribution read from a file need not belong to the chain's point
    one_tree = [Atom(p4[0].tree, Fraction(1), "a")]
    with pytest.raises(ValueError, match="reconstruct"):
        reassemble(one_tree, appendix0_chain, Fraction(1, 100))
