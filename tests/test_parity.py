import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp.cuts import gomory_hu_tree, narrow_cuts
from pathtsp.instance import Instance, build_appendix_instance, complete_edges, edge
from pathtsp.parity import (
    BETA_DEFAULT,
    EPS_DEFAULT,
    XI_DEFAULT,
    GammaParams,
    assign_gamma,
    benefit,
    benefits,
    certify_bound,
    correction_vectors,
    f_value,
    format_audit_lines,
    split_path_join,
    tjoin_cut_violations,
)
from pathtsp.reassembler import reassemble, type_census
from pathtsp.tree_decomp import decompose

from .oracles import cut_value, tjoin_violations_enumerate
from .test_cuts import rational_graphs

HALF = Fraction(1, 2)


def uniform_instance(n, s=0, t=None):
    t = n - 1 if t is None else t
    return Instance(n=n, s=s, t=t,
                    cost={e: Fraction(1) for e in complete_edges(n)})


def path_x(seq):
    return {edge(a, b): Fraction(1) for a, b in zip(seq, seq[1:])}


@pytest.fixture(scope="module")
def reassembled(appendix0, appendix0_chain, params):
    _, _, p4 = appendix0
    final, records = reassemble(p4, appendix0_chain, params.eps)
    parities = assign_gamma(final, appendix0_chain, params)
    audit = benefits(final, appendix0_chain, parities, params)
    return final, records, audit


@pytest.fixture(scope="module")
def raw_audit(appendix0, appendix0_chain, params):
    _, _, p4 = appendix0
    parities = assign_gamma(p4, appendix0_chain, params, uniform_half=True)
    return p4, parities, benefits(p4, appendix0_chain, parities, params,
                                  rule_gamma=False)


def test_f_vanishes_at_the_window_ends(params, legacy_params):
    assert params.f(1) == 0 and params.f(2) == 0
    assert params.f(Fraction(3, 2)) == Fraction(401, 792) > HALF
    assert legacy_params.f(Fraction(3, 2)) == HALF
    assert f_value(Fraction(2, 5), Fraction(7, 4)) == HALF * Fraction(3, 4)


def test_parameter_pack():
    p = GammaParams()
    assert (p.beta, p.xi, p.eps) == (BETA_DEFAULT, XI_DEFAULT, EPS_DEFAULT)
    assert p.nu == Fraction(132181, 220000) > Fraction(3, 5)
    assert p.beta >= 3 / (6 + 4 * p.xi * (2 - p.xi)) == Fraction(2500, 6557)
    for kwargs in ({"beta": Fraction(3, 10)}, {"beta": HALF},
                   {"xi": Fraction(3, 2)}, {"eps": 0},
                   {"beta": Fraction(49, 100)}):  # nu falls below 1/2
        with pytest.raises(ValueError):
            GammaParams(**kwargs)


def test_split_of_a_bare_path():
    inst = uniform_instance(5)
    par = split_path_join(frozenset(path_x(range(5))), inst)
    assert par.path_vertices == (0, 1, 2, 3, 4)
    assert par.j_edges == frozenset() and par.t_set == frozenset()


def test_split_of_a_star_at_s():
    inst = uniform_instance(5)
    par = split_path_join(frozenset(edge(0, v) for v in range(1, 5)), inst)
    assert par.path_vertices == (0, 4)
    assert par.i_edges == {(0, 4)}
    assert par.j_edges == {(0, 1), (0, 2), (0, 3)}
    assert par.t_set == {0, 1, 2, 3}


def test_gamma_is_one_on_an_integral_path(params):
    inst = uniform_instance(6)
    x = path_x(range(6))
    chain = narrow_cuts(x, inst)
    parities = assign_gamma(decompose(x, inst), chain, params)
    assert all(g == 1 for g in parities[0].gamma.values())


def test_gamma_uniform_override(appendix0, appendix0_chain, params):
    _, _, p4 = appendix0
    for par in assign_gamma(p4, appendix0_chain, params, uniform_half=True):
        assert all(g == HALF for g in par.gamma.values())
        assert set(par.gamma) == set(par.i_edges)


def test_benefit_values(params):
    inst = uniform_instance(6)
    par = split_path_join(frozenset(path_x(range(6))), inst)
    par.gamma = {e: Fraction(1, 4) for e in par.i_edges}
    mask = 1  # cut {0}; the path edge there is (0, 1)
    assert benefit(par, 1, Fraction(1), mask, params) == Fraction(3, 4)
    assert benefit(par, 3, Fraction(3, 2), mask, params) == 0
    # even crossings: min(beta (2 - load) / (1 - 2 beta), gamma)
    assert benefit(par, 2, Fraction(3, 2), mask, params) == Fraction(1, 4)
    par.gamma[(0, 1)] = Fraction(3, 4)
    assert benefit(par, 2, Fraction(7, 4), mask, params) == Fraction(401, 792)


def test_raw_wall_distribution_fails_the_audit(raw_audit):
    _, _, audit = raw_audit
    assert not audit.all_ok
    for c in audit.per_cut:
        if c.load == 1:
            assert c.status == "OK" and c.margin == HALF
        else:
            assert c.status == "FAIL"
            assert c.total == HALF
            assert c.required == Fraction(401, 792)
            assert c.margin == Fraction(-5, 792)
    assert [c.cut_index for c in audit.per_cut
            if c.status == "FAIL"] == list(range(1, 11))


def test_raw_wall_distribution_falls_back(raw_audit, appendix0_chain,
                                          params):
    p4, parities, audit = raw_audit
    cv = correction_vectors(p4, appendix0_chain, parities, params)
    verdict = certify_bound(p4, audit, cv, params)
    assert not verdict.certified and verdict.label == "fallback"
    assert verdict.bound == Fraction(5, 3)
    assert verdict.z_cost == Fraction(2401, 2000)
    assert verdict.path_cost == 7
    assert format_audit_lines(audit, verdict)[-1] == "certified_beta=none"


def test_legacy_beta_passes_on_the_raw_wall(appendix0, appendix0_chain,
                                            legacy_params):
    _, _, p4 = appendix0
    parities = assign_gamma(p4, appendix0_chain, legacy_params,
                            uniform_half=True)
    audit = benefits(p4, appendix0_chain, parities, legacy_params,
                     rule_gamma=False)
    assert audit.all_ok
    assert all(c.margin == 0 for c in audit.per_cut if c.load > 1)
    cv = correction_vectors(p4, appendix0_chain, parities, legacy_params)
    verdict = certify_bound(p4, audit, cv, legacy_params)
    assert verdict.certified and verdict.bound == Fraction(8, 5)


def test_reassembled_wall_is_certified(reassembled, appendix0,
                                       appendix0_chain, params):
    final, _, audit = reassembled
    assert audit.all_ok
    for c in audit.per_cut:
        if c.load > 1:
            assert c.case == "1"
            assert c.margin > 0
            assert c.eq18_ok is True
            assert 2 * c.total >= c.eq17_bound
        else:
            assert c.case == "less_critical"
    cv = correction_vectors(final, appendix0_chain, audit.parities, params)
    verdict = certify_bound(final, audit, cv, params)
    assert verdict.certified and verdict.label == "certified"
    assert verdict.bound == 2 - params.beta == Fraction(1599, 1000)
    assert verdict.z_cost <= (1 - 2 * params.beta) * verdict.path_cost
    lines = format_audit_lines(audit, verdict)
    assert lines[-1] == "certified_beta=401/1000"
    pat = re.compile(r"cut=\d+ load=\S+ case=\S+ benefit=\S+ "
                     r"required=\S+ margin=-?\S+ status=(OK|FAIL)$")
    assert all(pat.match(ln) for ln in lines[:-1])


def test_swapping_the_ends_mirrors_everything(appendix0, params):
    inst, xstar, p4 = appendix0
    swapped = Instance(n=inst.n, s=inst.t, t=inst.s, cost=inst.cost)
    c1 = narrow_cuts(xstar, inst)
    c2 = narrow_cuts(xstar, swapped)
    assert c2.loads == c1.loads[::-1]
    mirror = lambda code: code if code == "GOOD" else code[::-1]
    last = len(c1) - 1
    for i in range(1, last):
        census = type_census(p4, c1, i)
        assert type_census(p4, c2, last - i) == {
            mirror(code): w for code, w in census.items()}
    audits = []
    for chain in (c1, c2):
        parities = assign_gamma(p4, chain, params, uniform_half=True)
        audits.append(benefits(p4, chain, parities, params,
                               rule_gamma=False))
    assert ([c.margin for c in audits[1].per_cut]
            == [c.margin for c in audits[0].per_cut][::-1])
    assert ([c.total for c in audits[1].per_cut]
            == [c.total for c in audits[0].per_cut][::-1])


def test_criticality_window(params):
    assert params.f(Fraction(144, 100)) <= HALF
    assert params.f(Fraction(156, 100)) <= HALF
    assert params.f(Fraction(3, 2)) > HALF


def test_constants_cover_the_critical_window(params):
    beta, xi, eps, nu = params.beta, params.xi, params.eps, params.nu
    base = lambda x: 1 + (5 - Fraction(3, 2) * (x + xi) - eps) * (nu - HALF)
    x = Fraction(144, 100)
    while x <= Fraction(156, 100):
        assert base(x) >= 2 * params.f(x), f"failed at load {x}"
        x += Fraction(1, 1000)
    # 2 f - base is a concave parabola; its vertex is the worst load
    x_ext = Fraction(3, 2) + 3 * (1 - 2 * beta) * (nu - HALF) / (8 * beta)
    assert x_ext == Fraction(3, 2) + Fraction(6587757, 352880000)
    margin = base(x_ext) - 2 * params.f(x_ext)
    assert margin == Fraction(147711386831, 254073600000000) > 0
    delta = Fraction(1, 10 ** 9)
    for probe in (x_ext - delta, x_ext + delta):
        assert base(probe) - 2 * params.f(probe) > margin


def test_even_cut_topup_constant(params):
    topup = params.beta * (2 - Fraction(3, 2)) - (1 - 2 * params.beta) * HALF
    assert topup == Fraction(203, 2000)


def test_correction_vectors_on_the_wall(raw_audit, appendix0,
                                        appendix0_chain, params):
    inst, xstar, p4 = appendix0
    _, parities, _ = raw_audit
    cv = correction_vectors(p4, appendix0_chain, parities, params)
    assert len(cv.z) == len(cv.y) == len(p4)
    w1 = 1 - 2 * params.beta
    for ai, atom in enumerate(p4):
        assert all(v >= 0 for v in cv.z[ai].values())
        rebuilt = {e: params.beta * v for e, v in appendix0_chain.x.items()}
        for e in parities[ai].j_edges:
            rebuilt[e] = rebuilt.get(e, Fraction(0)) + w1
        for e, v in cv.z[ai].items():
            rebuilt[e] = rebuilt.get(e, Fraction(0)) + v
        assert rebuilt == cv.y[ai]
        T = parities[ai].t_set
        assert tjoin_cut_violations(cv.y[ai], T, inst.n) == []
        assert tjoin_violations_enumerate(cv.y[ai], T, inst.n) == []
        # at half weight some T_S-cuts fall below 1
        half = {e: v / 2 for e, v in cv.y[ai].items()}
        fast = tjoin_cut_violations(half, T, inst.n)
        assert fast and set(fast) <= set(
            tjoin_violations_enumerate(half, T, inst.n))
    for ci in range(len(appendix0_chain)):
        e = cv.e_cheap[ci]
        assert ((appendix0_chain.masks[ci] >> e[0])
                ^ (appendix0_chain.masks[ci] >> e[1])) & 1


@settings(max_examples=60, deadline=None)
@given(rational_graphs(), st.data())
def test_padberg_rao_against_enumeration(graph, data):
    n, y = graph
    T = data.draw(st.sets(st.integers(0, n - 1)))
    if len(T) % 2:
        T = T ^ {0}
    fast = tjoin_cut_violations(y, T, n)
    brute = tjoin_violations_enumerate(y, T, n)
    assert set(fast) <= set(brute)
    assert bool(fast) == bool(brute)
    for U in fast:
        assert U[0] == 0 and cut_value(y, U) < 1
    # a minimum T-odd cut is a T-odd fundamental cut of the tree
    odd = [value for side, value in gomory_hu_tree(y, range(n))
           if len(side & T) % 2]
    subsets = [{0, *extra} for r in range(n - 1)
               for extra in combinations(range(1, n), r)]
    odd_loads = [cut_value(y, U) for U in subsets if len(U & T) % 2]
    assert min(odd, default=None) == min(odd_loads, default=None)


def test_exchange_records_from_the_driver(reassembled, appendix0_chain):
    _, records, _ = reassembled
    assert len(records) == 6
    assert all(rec.delta > 0 for rec in records)
