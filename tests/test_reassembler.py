from dataclasses import replace
from fractions import Fraction

import pytest

from pathtsp import reassembler
from pathtsp.cuts import TYPE_CODES, CutChain, load_of_mask, narrow_cuts
from pathtsp.instance import edge, random_metric_instance
from pathtsp.lp_relax import solve_lp
from pathtsp.reassembler import (
    EPS,
    ExchangeError,
    census,
    classify,
    exchange,
    reassemble,
    sweep,
    type_data,
    type_mix_bound_holds,
)
from pathtsp.tree_decomp import Atom, decompose, total_weight

from .oracles import (HALF, appendix_wall_cut_indices, grid_pot, pot_atoms,
                      reconstruct, sweep_rescanning, type_census_fraction,
                      uniform_instance, validate_exchange_record, wall)


def chain_of(inst, levels, x):
    """Hand-assembled chain: the exchange machinery never needs the x it
    came from to be LP-feasible, only the nesting."""
    masks = [sum(1 << v for v in lv) for lv in levels]
    loads = [load_of_mask(x, m) for m in masks]
    return CutChain(masks=masks, loads=loads,
                    xi_indices=list(range(len(levels))), inst=inst, x=x)


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
    assert census([S1, S2], [1, 1], six_chain) == [
        {}, {"121": 1, "010": 1}, {"120": 1, "011": 1}, {"010": 1, "121": 1},
        {}]


def test_exchange_on_the_two_tree_fixture(six_chain):
    rec = exchange(S1, S2, six_chain, 2, "right", HALF)
    s1n, s2n = rec.s1_new, rec.s2_new
    assert rec.e0 == (0, 3) and rec.e1 == (2, 3) and rec.e2 == (2, 5)
    assert rec.h == 0 and rec.k == 4
    assert rec.direction == "right" and rec.delta == HALF
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
    rec = exchange(s1m, s2m, chain, 2, "left", HALF)
    s1n, s2n = rec.s1_new, rec.s2_new
    assert rec.e0 == (2, 5) and rec.e1 == (2, 3) and rec.e2 == (0, 3)
    assert rec.h == 4 and rec.k == 0
    assert rec.direction == "left"
    assert classify(s1n, chain, 2) == "121"
    assert classify(s2n, chain, 2) == "010"
    assert validate_exchange_record(rec, chain) == []


def test_exchange_rejects_wrong_types(six_chain):
    with pytest.raises(ExchangeError):
        exchange(S2, S1, six_chain, 2, "right", HALF)   # swapped roles
    with pytest.raises(ExchangeError):
        exchange(S1, S1, six_chain, 2, "right", HALF)
    with pytest.raises(ExchangeError):
        exchange(S1, S2, six_chain, 2, "left", HALF)


def test_validate_catches_tampering(six_chain):
    rec = exchange(S1, S2, six_chain, 2, "right", HALF)
    bad = validate_exchange_record(replace(rec, s1_new=rec.s1), six_chain)
    assert any("s1_new" in msg for msg in bad)
    bad = validate_exchange_record(replace(rec, e1=rec.e2, e2=rec.e1),
                                   six_chain)
    assert bad


def test_sweeps_on_the_wall_distribution(appendix0, appendix0_chain):
    inst, xstar, p4 = appendix0
    chain = appendix0_chain
    for i in appendix_wall_cut_indices(0):
        mass = type_census_fraction(p4, chain, i)
        assert mass == {"011": Fraction(1, 4), "110": Fraction(1, 4),
                        "021": Fraction(1, 4), "120": Fraction(1, 4)}
    quantum = EPS / inst.n ** 2   # the grid reassemble sweeps on
    pot, tree_of, residual = grid_pot(p4, quantum)
    assert residual == []
    recs = sweep(pot, tree_of, chain, "right", quantum)
    swept = pot_atoms(pot, tree_of, quantum)
    assert recs and reconstruct(swept) == xstar
    assert total_weight(swept) == 1
    for i in range(1, len(chain) - 1):
        mass = type_census_fraction(swept, chain, i)
        assert min(mass.get("120", Fraction(0)),
                   mass.get("011", Fraction(0))) == 0
    recs2 = sweep(pot, tree_of, chain, "left", quantum)
    swept2 = pot_atoms(pot, tree_of, quantum)
    assert reconstruct(swept2) == xstar
    for i in range(1, len(chain) - 1):
        mass = type_census_fraction(swept2, chain, i)
        assert min(mass.get("021", Fraction(0)),
                   mass.get("110", Fraction(0))) == 0
    for rec in recs + recs2:
        assert validate_exchange_record(rec, chain) == []
        assert rec.delta > 0


def test_sweep_without_applicable_pairs_is_identity():
    inst = uniform_instance(6)
    x = {e: Fraction(1) for e in tree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))}
    chain = narrow_cuts(x, inst)
    dist = decompose(x, inst)
    quantum = EPS / inst.n ** 2
    pot, tree_of, _ = grid_pot(dist, quantum)
    for direction in ("right", "left"):
        assert sweep(pot, tree_of, chain, direction, quantum) == []
        assert pot_atoms(pot, tree_of, quantum) == dist


def sweeps_against_the_reference(inst, dist, chain):
    """Runs sweep and the rescanning reference side by side on the grid pot
    of dist, each direction alone and right after left as reassemble runs
    them, and asserts equal records and equal pots; returns the number of
    exchanges of the left-right pass."""
    quantum = EPS / inst.n ** 2   # the grid reassemble sweeps on
    pot, tree_of, _ = grid_pot(dist, quantum)
    for directions in (["right"], ["left"], ["left", "right"]):
        got = dict(pot), dict(tree_of)
        want = dict(pot), dict(tree_of)
        made = 0
        for direction in directions:
            recs = sweep(*got, chain, direction, quantum)
            assert recs == sweep_rescanning(*want, chain, direction, quantum)
            assert got == want
            made += len(recs)
    return made


@pytest.mark.parametrize("n, seed, exchanges", [(20, 0, 5), (40, 1, 3)])
def test_sweep_matches_the_rescanning_reference_on_random_points(
        n, seed, exchanges):
    # these pots pair out of key order when a sweep takes its largest keys
    # first
    inst = random_metric_instance(n, seed)
    x = solve_lp(inst).x
    assert sweeps_against_the_reference(
        inst, decompose(x, inst), narrow_cuts(x, inst)) == exchanges


@pytest.mark.parametrize("k", range(6))
def test_sweep_matches_the_rescanning_reference_on_the_wall(k):
    inst, _, dist, chain = wall(k)
    assert sweeps_against_the_reference(inst, dist, chain) > 0


def test_the_sweep_contract_catches_a_grown_fragile_type(
        appendix0, appendix0_chain, monkeypatch):
    # an exchange that hands both trees' steps to the wall's type-110 tree
    # grows that fragile type at the first wall cut with no GOOD mass to
    # cover it, while the targeted pair still annihilates
    inst, _, p4 = appendix0
    chain = appendix0_chain
    i = appendix_wall_cut_indices(0)[0]
    (t110,) = [a.tree for a in p4 if classify(a.tree, chain, i) == "110"]
    real = reassembler.exchange

    def to_110(s1, s2, chain, i, direction, delta):
        return replace(real(s1, s2, chain, i, direction, delta),
                       s1_new=t110, s2_new=t110)

    monkeypatch.setattr(reassembler, "exchange", to_110)
    quantum = EPS / inst.n ** 2
    pot, tree_of, _ = grid_pot(p4, quantum)
    with pytest.raises(AssertionError):
        sweep(pot, tree_of, chain, "right", quantum)


def test_reassemble_fixes_the_wall(appendix0, appendix0_chain):
    inst, xstar, p4 = appendix0
    chain = appendix0_chain
    assert not type_mix_bound_holds(p4, chain)
    final, records = reassemble(p4, chain)
    assert type_mix_bound_holds(final, chain)
    assert reconstruct(final) == {e: v for e, v in xstar.items() if v != 0}
    assert total_weight(final) == 1
    assert all(a.weight > 0 for a in final)
    assert len(final) < inst.n ** 2 / EPS + inst.n ** 2
    # the left sweep runs first
    assert [rec.direction for rec in records] == ["left"] * 3 + ["right"] * 3
    for rec in records:
        assert validate_exchange_record(rec, chain) == []


def test_reassemble_trivial_on_integral_point():
    inst = uniform_instance(6)
    x = {e: Fraction(1) for e in tree((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))}
    final, records = reassemble(decompose(x, inst), narrow_cuts(x, inst))
    assert records == []
    assert len(final) == 1 and total_weight(final) == 1


def three_paths():
    """The average of three Hamiltonian 0-4 paths on five vertices, an LP
    point whose chain has no internal xi-narrow cut, and its distribution
    with the paths out of canonical order."""
    inst = uniform_instance(5)
    paths = [tree((0, 3), (3, 1), (1, 2), (2, 4)),
             tree((0, 1), (1, 2), (2, 3), (3, 4)),
             tree((0, 2), (2, 3), (3, 1), (1, 4))]
    dist = [Atom(p, Fraction(1, 3)) for p in paths]
    chain = narrow_cuts(reconstruct(dist), inst)
    assert len(chain.xi_indices) == 2
    return chain, paths, dist


def test_reassemble_rounds_each_weight_down_onto_the_grid():
    # 1/3 is 833 steps of 1/2500 and 1/7500 over: the grid atoms come in
    # canonical tree order, then the residual atoms in input order
    chain, paths, dist = three_paths()
    final, records = reassemble(dist, chain)
    assert records == []
    grid = [Atom(p, Fraction(833, 2500)) for p in sorted(paths, key=sorted)]
    assert final == grid + [Atom(p, Fraction(1, 7500)) for p in paths]


def test_reassemble_on_the_grid_leaves_no_residual():
    # 1/5 and 2/5 are 500 and 1000 steps of 1/2500
    _, paths, _ = three_paths()
    dist = [Atom(p, Fraction(w, 5)) for p, w in zip(paths, (1, 2, 2))]
    chain = narrow_cuts(reconstruct(dist), uniform_instance(5))
    final, records = reassemble(dist, chain)
    assert records == []
    assert final == sorted(dist, key=lambda a: sorted(a.tree))


def test_reassemble_validates_parameters(appendix0, appendix0_chain):
    _, _, p4 = appendix0
    # a distribution read from a file need not belong to the chain's point
    one_tree = [Atom(p4[0].tree, Fraction(1))]
    with pytest.raises(ValueError, match="reconstruct"):
        reassemble(one_tree, appendix0_chain)
