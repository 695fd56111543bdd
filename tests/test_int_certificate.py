"""The certificate's int arithmetic against its Fraction reference.

assign_gamma, benefits, correction_vectors, certify_bound (with its cost
chain), check_reconstruction and the type census run on ints over common
denominators; the versions written on Fractions are kept in
tests/oracles.py.  Every case runs both and asks for the same gammas,
CutAudits, z^S, y^S (read through their Fraction view), cheap
edges, verdict and census, for the int check to accept the Fraction
reconstruction, or for the same AssertionError message when a check
fails, since `verify` prints that message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp.cuts import CutChain, narrow_cuts
from pathtsp.instance import Instance, complete_edges, edge, metric_closure
from pathtsp.parity import (GammaParams, assign_gamma, benefits,
                            certify_bound, correction_vectors)
from pathtsp.reassembler import census, reassemble
from pathtsp.tree_decomp import (Atom, check_reconstruction, decompose,
                                 weight_ints)

from .oracles import (assign_gamma_fraction, benefits_fraction,
                      certify_bound_fraction, correction_fractions,
                      correction_vectors_fraction, fraction_gammas,
                      random_chain, reconstruct, type_census_fraction, wall)

# the defaults, Sebo's 8/5 audit, and the beta window GammaParams admits
# at the default xi, on a 1/200 grid
PARAMS = ([GammaParams(), GammaParams(beta=Fraction(2, 5), uniform_half=True)]
          + [GammaParams(beta=Fraction(b, 200)) for b in range(80, 84)])


def outcome(fn, *args):
    """fn's result, or the type and message of the AssertionError it
    raised."""
    try:
        return fn(*args)
    except AssertionError as exc:
        return AssertionError, str(exc)


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


def assert_stages_agree(dist, chain, params):
    table = assign_gamma(dist, chain, params)
    assert all(type(v) is int for gamma in table.gammas
               for v in gamma.values())
    assert fraction_gammas(table) == assign_gamma_fraction(dist, chain,
                                                           params)
    audit = outcome(benefits, table)
    assert audit == outcome(benefits_fraction, table)
    cv = outcome(correction_vectors, table)
    ref = outcome(correction_vectors_fraction, table)
    if isinstance(cv, tuple):
        assert cv == ref
    else:
        assert correction_fractions(cv) == ref
    if isinstance(audit, tuple) or isinstance(cv, tuple):
        return
    for c in audit.per_cut:
        assert all_fractions((c.total, c.required, c.margin))
        assert c.eq17_bound is None or type(c.eq17_bound) is Fraction
    assert all(type(v) is int for vec in cv.z + cv.y for v in vec.values())
    verdict = outcome(certify_bound, audit, cv)
    assert verdict == outcome(certify_bound_fraction, audit,
                              correction_fractions(cv))
    if not isinstance(verdict, tuple):
        assert all_fractions((verdict.z_cost, verdict.path_cost))


def fractions_made(monkeypatch, fn, *args):
    """(fn's result, the number of Fractions it constructed)."""
    made = []
    new = Fraction.__new__

    def counting(cls, *a, **kw):
        made.append(cls)
        return new(cls, *a, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting)
        result = fn(*args)
    return result, len(made)


def test_the_wall_closure_and_correction_vectors_make_no_fraction(
        monkeypatch):
    inst, xstar, final, chain = wall(5, reassembled=True)
    table = assign_gamma(final, chain, GammaParams())
    cost, made = fractions_made(monkeypatch, metric_closure, inst.n,
                                dict.fromkeys(xstar, 1))
    assert made == 0 and cost == inst.cost
    assert all(type(c) is int for c in cost.values())
    cv, made = fractions_made(monkeypatch, correction_vectors, table)
    assert made == 0
    assert correction_fractions(cv) == correction_vectors_fraction(table)


def test_assign_gamma_makes_no_fraction_per_atom(monkeypatch, params):
    # the raw k = 5 wall, the reassembled one (four atoms each, with other
    # paths) and one raw atom alone, on one chain: the count of Fractions
    # made grows with neither the atoms nor their path edges
    _, _, dist, chain = wall(5)
    final, _ = reassemble(dist, chain)
    made = [fractions_made(monkeypatch, assign_gamma, d, chain, params)[1]
            for d in (dist, final, dist[:1])]
    assert made[0] == made[1] == made[2]


def assert_sums_agree(dist, chain):
    # the int reconstruction check accepts the Fraction sum, on the
    # weights scaled to total 1
    total = Fraction(sum(a.weight for a in dist))
    unit = [Atom(a.tree, a.weight / total) for a in dist]
    check_reconstruction(reconstruct(unit), unit)
    nums, den = weight_ints(dist)
    masses = census((a.tree for a in dist), nums, chain)
    assert masses[0] == masses[-1] == {}
    for i in range(1, len(chain.xi_indices) - 1):
        assert {code: Fraction(w, den) for code, w in masses[i].items()} \
            == type_census_fraction(dist, chain, i)


@pytest.mark.parametrize("reassembled", [False, True], ids=["raw", "final"])
@pytest.mark.parametrize("k", range(7))
def test_the_wall_stages_match_the_fraction_reference(k, reassembled):
    _, _, dist, chain = wall(k, reassembled)
    assert_sums_agree(dist, chain)
    for params in PARAMS:
        assert_stages_agree(dist, chain, params)


@pytest.mark.parametrize("fixture", ["lp20", "lp26", "lp40"])
def test_the_lp_optima_stages_match_the_fraction_reference(fixture, request):
    inst, sol, _ = request.getfixturevalue(fixture)
    chain = narrow_cuts(sol.x, inst)
    dist = decompose(sol.x, inst)
    assert_sums_agree(dist, chain)
    for params in PARAMS[:2]:
        assert_stages_agree(dist, chain, params)


@st.composite
def distributions_on_chains(draw):
    """(dist, chain) on 3 to 10 vertices: 1 to 4 random spanning trees with
    weights that mix plain ints and Fractions of coprime denominators, on a
    random chain of their weighted sum x.  The loads are drawn from [1, 2]
    (where gamma lies in [0, 1]), near 3/2 in part, so that some cuts are
    critical; the stages read them as given."""
    n = draw(st.integers(3, 10))
    s, t = draw(st.permutations(range(n)))[:2]
    cost = {e: draw(st.sampled_from((1, 2, 3, Fraction(5, 2), Fraction(7, 3))))
            for e in complete_edges(n)}
    inst = Instance(n=n, s=s, t=t, cost=cost)
    chain, _ = random_chain(draw, inst)
    weight = st.one_of(st.integers(1, 3),
                       st.builds(Fraction, st.integers(1, 12),
                                 st.sampled_from((2, 3, 5, 7, 11))))
    dist = []
    for _ in range(draw(st.integers(1, 4))):
        seq = draw(st.permutations(range(n)))
        tree = frozenset(edge(seq[i], seq[draw(st.integers(0, i - 1))])
                         for i in range(1, n))
        dist.append(Atom(tree, draw(weight)))
    load = st.sampled_from((1, Fraction(3, 2), Fraction(29, 20),
                            Fraction(5, 3), Fraction(31, 20), Fraction(7, 4),
                            Fraction(6, 5)))
    chain = CutChain(masks=chain.masks,
                     loads=[draw(load) for _ in chain.masks],
                     xi_indices=chain.xi_indices, inst=inst,
                     x=reconstruct(dist))
    return dist, chain


@settings(max_examples=100, deadline=None)
@given(distributions_on_chains(), st.sampled_from(PARAMS))
def test_random_distributions_match_the_fraction_reference(case, params):
    dist, chain = case
    assert_sums_agree(dist, chain)
    assert_stages_agree(dist, chain, params)


def test_a_tampered_gamma_fails_both_versions_alike(params):
    _, _, final, chain = wall(0, reassembled=True)
    table = assign_gamma(final, chain, params)
    table.gammas[0] = dict.fromkeys(table.gammas[0], table.g)   # gamma = 1
    message = ("per-tree case-1 inequality failed: atom 0, cut 3, type 110, "
               "lhs 0")
    for fn in (benefits, benefits_fraction):
        with pytest.raises(AssertionError) as info:
            fn(table)
        assert str(info.value) == message
