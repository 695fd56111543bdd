import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp import cuts
from pathtsp.cli import format_audit_lines
from pathtsp.cuts import XI, gomory_hu_tree, narrow_cuts
from pathtsp.flows import FlowNetwork
from pathtsp.instance import Instance, edge, over_lcm, random_metric_instance
from pathtsp.parity import (
    BETA_DEFAULT,
    GammaParams,
    assign_gamma,
    benefits,
    certify_bound,
    cheapest_cut_edges,
    correction_vectors,
    f_value,
    split_path_join,
    tjoin_cut_violations,
)
from pathtsp.reassembler import EPS, reassemble
from pathtsp.tree_decomp import Atom, decompose

from .oracles import (HALF, benefit, cheapest_cut_edge, correction_fractions,
                      cut_value, members, path_edge_at_cut, path_x,
                      random_chain, rational_graphs, tjoin_violations_enumerate,
                      trees_on_chains, type_census_fraction, uniform_instance,
                      wall)


@pytest.fixture(scope="module")
def reassembled(appendix0, appendix0_chain, params):
    _, _, p4 = appendix0
    final, records = reassemble(p4, appendix0_chain)
    audit = benefits(assign_gamma(final, appendix0_chain, params))
    return final, records, audit


@pytest.fixture(scope="module")
def raw_audit(appendix0, appendix0_chain, half_params):
    _, _, p4 = appendix0
    table = assign_gamma(p4, appendix0_chain, half_params)
    return p4, table, benefits(table)


def test_f_vanishes_at_the_window_ends(params, legacy_params):
    beta = params.beta
    assert f_value(beta, 1) == 0 and f_value(beta, 2) == 0
    assert f_value(beta, Fraction(3, 2)) == Fraction(401, 792) > HALF
    assert f_value(legacy_params.beta, Fraction(3, 2)) == HALF
    assert f_value(Fraction(2, 5), Fraction(7, 4)) == HALF * Fraction(3, 4)


def test_parameter_pack():
    p = GammaParams()
    assert (p.beta, p.uniform_half) == (BETA_DEFAULT, False)
    assert Fraction(3, 2) < XI < 2
    assert Fraction(17, 10) <= XI <= Fraction(18, 10)
    assert EPS > 0
    assert p.nu == Fraction(132181, 220000) > Fraction(3, 5)
    assert p.beta >= 3 / (6 + 4 * XI * (2 - XI)) == Fraction(2500, 6557)
    for beta in (Fraction(3, 10), HALF, Fraction(49, 100)):  # 49/100: nu < 1/2
        with pytest.raises(ValueError):
            GammaParams(beta)


def test_split_of_a_bare_path():
    inst = uniform_instance(5)
    par = split_path_join(frozenset(path_x(range(5))), inst)
    assert par.path_vertices == (0, 1, 2, 3, 4)
    assert par.j_edges == frozenset() and par.t_set == frozenset()
    with pytest.raises(FrozenInstanceError):   # the split is built whole
        par.t_set = frozenset({0, 4})


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
    table = assign_gamma(decompose(x, inst), chain, params)
    assert all(g == table.g for g in table.gammas[0].values())


def test_gamma_uniform_override(appendix0, appendix0_chain, half_params):
    _, _, p4 = appendix0
    table = assign_gamma(p4, appendix0_chain, half_params)
    for par, gamma in zip(table.parities, table.gammas):
        assert all(2 * g == table.g for g in gamma.values())
        assert set(gamma) == set(par.i_edges)


def walked_path_edges(par, chain):
    return [path_edge_at_cut(par, mask) for mask in chain.masks]


@pytest.mark.parametrize("k", [0, 2, 5])
def test_first_path_edges_match_the_walk_on_the_walls(k, params):
    _, _, raw, chain = wall(k)
    fixed, records = reassemble(raw, chain)
    assert records
    for dist in (raw, fixed):
        table = assign_gamma(dist, chain, params)
        for par, e_path in zip(table.parities, table.e_paths):
            assert e_path == walked_path_edges(par, chain)


def test_first_path_edges_match_the_walk_on_an_lp_optimum(lp26, params):
    inst, sol, _ = lp26
    chain = narrow_cuts(sol.x, inst)
    table = assign_gamma(decompose(sol.x, inst), chain, params)
    for par, e_path in zip(table.parities, table.e_paths):
        assert e_path == walked_path_edges(par, chain)


@settings(max_examples=150, deadline=None)
@given(trees_on_chains())
def test_first_path_edges_match_the_walk_on_random_trees(case):
    tree, chain = case
    # the chain has no loads: give it loads of 1, which the table's caps
    # and f values read, and a uniform gamma, which reads no profile
    chain = replace(chain, loads=[Fraction(1)] * len(chain))
    table = assign_gamma([Atom(tree, Fraction(1))], chain,
                         GammaParams(uniform_half=True))
    assert table.e_paths == [walked_path_edges(table.parities[0], chain)]


def test_benefit_values(params):
    inst = uniform_instance(6)
    x = path_x(range(6))
    chain = narrow_cuts(x, inst)
    table = assign_gamma(decompose(x, inst), chain, params)
    ci = 0  # cut {0}; the path edge there is (0, 1)
    assert chain.masks[ci] == 1 and table.e_paths[0][ci] == (0, 1)

    def cap(load):  # beta (2 - load) / (1 - 2 beta)
        return params.beta * (2 - load) / (1 - 2 * params.beta)

    gamma = Fraction(1, 4)
    assert benefit(gamma, 1, cap(Fraction(1))) == Fraction(3, 4)
    assert benefit(gamma, 3, cap(Fraction(3, 2))) == 0
    # even crossings: min(cap, gamma)
    assert benefit(gamma, 2, cap(Fraction(3, 2))) == Fraction(1, 4)
    assert benefit(Fraction(3, 4), 2, cap(Fraction(7, 4))) == Fraction(
        401, 792)


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


def test_raw_wall_distribution_falls_back(raw_audit):
    _, table, audit = raw_audit
    verdict = certify_bound(audit, correction_vectors(table))
    assert not verdict.certified and verdict.label == "fallback"
    assert verdict.bound == Fraction(5, 3)
    assert verdict.z_cost == Fraction(2401, 2000)
    assert verdict.path_cost == 7
    assert format_audit_lines(audit, verdict)[-1] == "certified_beta=none"


def test_legacy_beta_passes_on_the_raw_wall(appendix0, appendix0_chain,
                                            legacy_params):
    _, _, p4 = appendix0
    table = assign_gamma(p4, appendix0_chain, legacy_params)
    audit = benefits(table)
    assert audit.all_ok
    assert all(c.margin == 0 for c in audit.per_cut if c.load > 1)
    verdict = certify_bound(audit, correction_vectors(table))
    assert verdict.certified and verdict.bound == Fraction(8, 5)


def test_reassembled_wall_is_certified(reassembled, params):
    _, _, audit = reassembled
    assert audit.all_ok
    for c in audit.per_cut:
        if c.load > 1:
            assert c.case == "1"
            assert c.margin > 0
            assert c.eq18_ok is True
            assert 2 * c.total >= c.eq17_bound
        else:
            assert c.case == "less_critical"
    verdict = certify_bound(audit, correction_vectors(audit.table))
    assert verdict.certified and verdict.label == "certified"
    assert verdict.bound == 2 - params.beta == Fraction(1599, 1000)
    assert verdict.z_cost <= (1 - 2 * params.beta) * verdict.path_cost
    lines = format_audit_lines(audit, verdict)
    assert lines[-1] == "certified_beta=401/1000"
    pat = re.compile(r"cut=\d+ load=\S+ case=\S+ benefit=\S+ "
                     r"required=\S+ margin=-?\S+ status=(OK|FAIL)$")
    assert all(pat.match(ln) for ln in lines[:-1])


def test_certify_bound_checks_join_membership(reassembled, appendix0,
                                             params):
    inst, _, _ = appendix0
    _, _, audit = reassembled
    cv = correction_vectors(audit.table)
    assert certify_bound(audit, cv).certified
    # without its J_S part y^S is no longer in the T_S-join dominant
    cv = correction_fractions(cv)
    par = audit.table.parities[0]
    w1 = 1 - 2 * params.beta
    for e in par.j_edges:
        cv.y[0][e] -= w1
    assert tjoin_cut_violations(cv.y[0], par.t_set, inst.n, 1)
    with pytest.raises(AssertionError, match=r"atom 0: y\^S misses"):
        certify_bound(audit, cv)


def test_join_membership_runs_one_flow_per_terminal_tree_edge(
        monkeypatch, params):
    inst, _, final, chain = wall(5, reassembled=True)
    table = assign_gamma(final, chain, params)
    cv = correction_vectors(table)
    calls = []
    flow = cuts.max_flow_min_cut

    def counted(net, s, t):
        calls.append((s, t))
        return flow(net, s, t)

    monkeypatch.setattr(cuts, "max_flow_min_cut", counted)
    for y, par in zip(cv.y, table.parities):
        calls.clear()
        assert tjoin_cut_violations(y, par.t_set, inst.n, cv.den) == []
        assert len(calls) == len(par.t_set) - 1 < inst.n - 1


def test_swapping_the_ends_mirrors_everything(appendix0, half_params):
    inst, xstar, p4 = appendix0
    swapped = Instance(n=inst.n, s=inst.t, t=inst.s, cost=inst.cost)
    c1 = narrow_cuts(xstar, inst)
    c2 = narrow_cuts(xstar, swapped)
    assert c2.loads == c1.loads[::-1]
    mirror = lambda code: code if code == "GOOD" else code[::-1]
    last = len(c1) - 1
    for i in range(1, last):
        census = type_census_fraction(p4, c1, i)
        assert type_census_fraction(p4, c2, last - i) == {
            mirror(code): w for code, w in census.items()}
    audits = []
    for chain in (c1, c2):
        audits.append(benefits(assign_gamma(p4, chain, half_params)))
    assert ([c.margin for c in audits[1].per_cut]
            == [c.margin for c in audits[0].per_cut][::-1])
    assert ([c.total for c in audits[1].per_cut]
            == [c.total for c in audits[0].per_cut][::-1])


def test_criticality_window(params):
    assert f_value(params.beta, Fraction(144, 100)) <= HALF
    assert f_value(params.beta, Fraction(156, 100)) <= HALF
    assert f_value(params.beta, Fraction(3, 2)) > HALF


def test_constants_cover_the_critical_window(params):
    beta, nu = params.beta, params.nu
    base = lambda x: 1 + (5 - Fraction(3, 2) * (x + XI) - EPS) * (nu - HALF)
    x = Fraction(144, 100)
    while x <= Fraction(156, 100):
        assert base(x) >= 2 * f_value(beta, x), f"failed at load {x}"
        x += Fraction(1, 1000)
    # 2 f - base is a concave parabola; its vertex is the worst load
    x_ext = Fraction(3, 2) + 3 * (1 - 2 * beta) * (nu - HALF) / (8 * beta)
    assert x_ext == Fraction(3, 2) + Fraction(6587757, 352880000)
    margin = base(x_ext) - 2 * f_value(beta, x_ext)
    assert margin == Fraction(147711386831, 254073600000000) > 0
    delta = Fraction(1, 10 ** 9)
    for probe in (x_ext - delta, x_ext + delta):
        assert base(probe) - 2 * f_value(beta, probe) > margin


def test_even_cut_topup_constant(params):
    topup = params.beta * (2 - Fraction(3, 2)) - (1 - 2 * params.beta) * HALF
    assert topup == Fraction(203, 2000)


def test_correction_vectors_on_the_wall(raw_audit, appendix0,
                                        appendix0_chain, params):
    inst, xstar, p4 = appendix0
    _, table, _ = raw_audit
    parities = table.parities
    cv = correction_fractions(correction_vectors(table))
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
        assert tjoin_cut_violations(cv.y[ai], T, inst.n, 1) == []
        assert tjoin_violations_enumerate(cv.y[ai], T, inst.n) == []
        # at half weight some T_S-cuts fall below 1
        half = {e: v / 2 for e, v in cv.y[ai].items()}
        fast = tjoin_cut_violations(half, T, inst.n, 1)
        assert fast and set(fast) <= set(
            tjoin_violations_enumerate(half, T, inst.n))
    for ci in range(len(appendix0_chain)):
        e = cv.e_cheap[ci]
        assert ((appendix0_chain.masks[ci] >> e[0])
                ^ (appendix0_chain.masks[ci] >> e[1])) & 1


def half_triangles(count):
    """y = 1/2 on the edges of `count` disjoint triangles 3i, 3i+1, 3i+2."""
    return {edge(3 * i + a, 3 * i + b): HALF
            for i in range(count) for a, b in ((0, 1), (0, 2), (1, 2))}


def test_odd_components_are_cut_before_any_flow(monkeypatch):
    calls = []
    flow = cuts.max_flow_min_cut

    def counted(net, s, t):
        calls.append((s, t))
        return flow(net, s, t)

    monkeypatch.setattr(cuts, "max_flow_min_cut", counted)
    # two components are one cut: {0, 1, 2} is V minus the other
    assert tjoin_cut_violations(half_triangles(2), range(6), 6, 1) == [
        (0, 1, 2)]
    # a component even in T is no cut, but it sets the two sides apart
    y = {**half_triangles(2), (6, 7): Fraction(1)}
    assert tjoin_cut_violations(y, range(6), 8, 1) == [(0, 1, 2),
                                                       (0, 1, 2, 6, 7)]
    # with four odd components each is its own cut, by the side holding 0
    got = tjoin_cut_violations(half_triangles(4), range(12), 12, 1)
    assert got == [(0, 1, 2)] + [
        tuple(v for v in range(12) if v // 3 != i) for i in (1, 2, 3)]
    assert calls == []
    # joined by an edge, the support is connected: Padberg-Rao, 5 flows
    joined = {**half_triangles(2), (2, 3): HALF}
    assert tjoin_cut_violations(joined, range(6), 6, 1) == [(0, 1, 2)]
    assert len(calls) == 5


@settings(max_examples=60, deadline=None)
@given(rational_graphs(), st.data())
def test_padberg_rao_against_enumeration(graph, data):
    n, y = graph
    T = data.draw(st.sets(st.integers(0, n - 1)))
    if len(T) % 2:
        T = T ^ {0}
    fast = tjoin_cut_violations(y, T, n, 1)
    # the same cuts from the values as ints over their lcm
    nums, den = over_lcm(y)
    assert tjoin_cut_violations(nums, T, n, den) == fast
    brute = tjoin_violations_enumerate(y, T, n)
    assert len(set(fast)) == len(fast)
    assert set(fast) <= set(brute)
    assert bool(fast) == bool(brute)
    for U in fast:
        assert U[0] == 0 and cut_value(y, U) < 1
    # a minimum T-odd cut is a T-odd fundamental cut of the tree
    net = FlowNetwork(y, n)
    tree = gomory_hu_tree(net, range(n))
    odd = [Fraction(value, net.den) for side, value in tree
           if len(members(side) & T) % 2]
    subsets = [{0, *extra} for r in range(n - 1)
               for extra in combinations(range(1, n), r)]
    odd_loads = [cut_value(y, U) for U in subsets if len(U & T) % 2]
    assert min(odd, default=None) == min(odd_loads, default=None)


def test_exchange_records_from_the_driver(reassembled, appendix0_chain):
    _, records, _ = reassembled
    assert len(records) == 6
    assert all(rec.delta > 0 for rec in records)


@lru_cache(maxsize=None)
def metric_instance(n, seed):
    return random_metric_instance(n, seed)


@lru_cache(maxsize=None)
def fraction_instance(n, seed):
    """metric_instance(n, seed) with its int costs c made distinct
    non-integer Fractions of mixed denominators, c/3 + 1/(7(i + 2)) on the
    i-th edge."""
    inst = metric_instance(n, seed)
    cost = {e: Fraction(c, 3) + Fraction(1, 7 * (i + 2))
            for i, (e, c) in enumerate(sorted(inst.cost.items()))}
    return Instance(n=n, s=inst.s, t=inst.t, cost=cost)


@st.composite
def priced_chains(draw):
    """A random nested chain on n <= 40 vertices, over the int costs of a
    random metric instance, over those costs made distinct Fractions, or
    over all-equal costs, where only the lexicographic tie-break tells the
    edges apart."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(("uniform", "int", "fraction")))
    if kind == "uniform":
        s, t = draw(st.permutations(range(n)))[:2]
        inst = uniform_instance(n, s, t)
    else:
        make = metric_instance if kind == "int" else fraction_instance
        inst = make(n, draw(st.integers(0, 2)))
    return random_chain(draw, inst)[0]


@settings(max_examples=60, deadline=None)
@given(priced_chains())
def test_swept_cheapest_edges_match_the_per_cut_scan(chain):
    assert cheapest_cut_edges(chain) == {
        ci: cheapest_cut_edge(chain.inst, mask)
        for ci, mask in enumerate(chain.masks)}


def test_the_readme_library_snippet_runs():
    # the README's library example calls every certificate stage; it must
    # run as printed, asserts included
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    snippet = re.search(r"^## Library\n+```python\n(.*?)^```\n", text,
                        re.M | re.S)
    assert snippet
    exec(compile(snippet[1], "README.md", "exec"), {})
