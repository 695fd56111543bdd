"""Parity structure, benefits, correction vectors, and the bound audit.

For a tree S in the distribution, I_S is its s-t path, J_S = S - I_S, and
T_S collects the wrong-parity vertices (odd degree internally, even degree
at s or t); J_S is then a T_S-join.  Each path edge e gets a number
gamma_{S,e} in [0,1] from the two quantities

    f1 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| = 1)
    f2 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| even)
    gamma = f2 if f2 < f1 else 1 - f1,     f(x) = beta(2-x)(x-1)/(1-2beta),

or gamma = 1/2 on every path edge when GammaParams.uniform_half is set
(Sebo's uniform assignment).  The default GammaParams() is the paper's
audit at beta = 401/1000, which certifies 2 - beta = 1.599; LEGACY, the
uniform gamma at beta = 2/5, is Sebo's audit of 8/5.  e^S_C, the first path
edge crossing the narrow cut C, is found for every level of the chain in
one walk along the path, and kept with gamma in the GammaTable.

The benefit of (S, C) is min(beta(2-x(C))/(1-2beta), gamma at e^S_C) when
S crosses C an even number of times, 1 - gamma at e^S_C when it crosses
once, and 0 otherwise.  The audit checks, per narrow cut, that total
benefit covers beta(2-x(C)) p_even/(1-2beta); under the rule-based gamma
it also labels each critical cut (f(x(C)) > 1/2) with the first
applicable census case and re-derives the per-tree inequalities behind
that case analysis.

Correction vectors: z^S spreads (1-2beta) gamma over the path edges and
tops up even narrow cuts on their cheapest edge e_C, and
y^S = beta x* + (1-2beta) chi^{J_S} + z^S must hit every T_S-cut with load
at least 1, verified at every n by Padberg-Rao: a minimum T_S-odd cut is a
fundamental cut of a Gomory-Hu tree of y^S on the terminals T_S, built
from |T_S| - 1 flows.  certify_bound checks that membership for the y^S
of every distinct tree (a tree listed twice has one T_S and one y^S) and
re-verifies the full cost chain instead of trusting it.

One grid: assign_gamma returns a GammaTable, which holds each atom's
TreeParity (the tree's split alone), gammas and e^S_C, and per level the
cap beta(2 - x(C))/(1 - 2beta) and f(x(C)), with nu - 1/2, the numbers as
ints over one lcm g (instance.over_lcm) that also covers 1/2.  Every gamma
the rule gives is 0, 1/2, 1, f or 1 - f, so none is rescaled later:
benefits and correction_vectors read only the table, and certify_bound
only their two results.  The weights are ints over their own lcm
(tree_decomp.weight_ints), and z^S and y^S ints over one denominator,
CorrectionVectors.den.  The verdict's costs c(z^S) and c(I_S) come from
instance.vector_cost and edges_cost, which scale only the costs of the
edges they read.  A Fraction is made only for a returned value, for each
level's cap and f(x(C)), and for eq17 and the eq-18 test at critical cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .cuts import XI, CutChain, gomory_hu_tree, load_of_mask
from .flows import FlowNetwork, max_flow_min_cut
from .instance import (HALF, ZERO, Instance, complete_edges, degrees, edge,
                       edges_cost, over_lcm, vector_cost)
from .reassembler import EPS, MIX_PAIRS, census, mix_pair, type_data
from .tree_decomp import UnionFind, tree_path, weight_ints

BETA_DEFAULT = Fraction(401, 1000)


def f_value(beta: Fraction, x) -> Fraction:
    """beta(2 - x)(x - 1)/(1 - 2beta), as one Fraction of the int ratios of
    beta and of x (an int or a Fraction)."""
    bn, bd = beta.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    return Fraction(bn * (2 * xd - xn) * (xn - xd), xd * xd * (bd - 2 * bn))


@dataclass(frozen=True)
class GammaParams:
    beta: Fraction = BETA_DEFAULT
    uniform_half: bool = False   # gamma = 1/2 on every path edge

    def __post_init__(self):
        if not Fraction(2, 5) <= self.beta < HALF:
            raise ValueError(f"beta {self.beta} outside [0.4, 0.5)")
        if self.nu <= HALF:
            raise ValueError(f"nu = {self.nu} must exceed 1/2")

    @property
    def nu(self) -> Fraction:
        return 1 - f_value(self.beta, XI)


# Sebo's 8/5 audit: the uniform gamma = 1/2 at beta = 2/5
LEGACY = GammaParams(Fraction(2, 5), uniform_half=True)


@dataclass(frozen=True)
class TreeParity:
    path_vertices: tuple   # s .. t along the tree path
    i_edges: frozenset     # edges of the path
    j_edges: frozenset     # the rest: a T_S-join
    t_set: frozenset       # wrong-parity vertices


def split_path_join(tree, inst: Instance) -> TreeParity:
    """Split a spanning tree into its s-t path and the leftover join."""
    verts = tree_path(tree, inst.s, inst.t)
    i_edges = frozenset(edge(a, b) for a, b in zip(verts, verts[1:]))
    j_edges = frozenset(tree) - i_edges
    # wrong parity: odd degree inside the path, even degree at s or t
    t_set = {v for v, d in enumerate(degrees(tree, inst.n))
             if (d % 2 == 1) != (v in (inst.s, inst.t))}
    assert len(t_set) % 2 == 0, "odd-size parity set is impossible"
    for v, d in enumerate(degrees(j_edges, inst.n)):
        assert (d % 2 == 1) == (v in t_set), "J_S is not a T_S-join"
    return TreeParity(path_vertices=tuple(verts),
                      i_edges=i_edges, j_edges=j_edges,
                      t_set=frozenset(t_set))


def first_path_edges(parity: TreeParity, chain: CutChain) -> list:
    """e^S_C at every level of the chain: the first path edge, walking
    from s, that crosses the level.  The path leaves level c on the first
    edge to reach a vertex of layer above c, so one walk with a high-water
    mark over the layers fills the levels in order."""
    out = []
    for a, b in zip(parity.path_vertices, parity.path_vertices[1:]):
        _, top = chain.levels_crossed(a, b)
        if top > len(out):
            out.extend([edge(a, b)] * (top - len(out)))
    return out


@dataclass(frozen=True)
class GammaTable:
    """assign_gamma's result, the one input of benefits and
    correction_vectors; every gamma, cap and f(x(C)) in it is an int over g."""
    dist: list
    chain: CutChain
    params: GammaParams
    parities: list     # TreeParity per atom
    gammas: list       # per atom: path edge -> gamma, over g
    e_paths: list      # per atom: chain level -> e^S_C
    g: int
    caps: list         # beta(2 - x(C))/(1 - 2beta) per level, over g
    f_at: list         # f(x(C)) per level, over g
    nu_half: int       # nu - 1/2, over g


def assign_gamma(dist, chain: CutChain, params: GammaParams) -> GammaTable:
    """Each atom's TreeParity, gamma and e^S_C, in one GammaTable."""
    inst = chain.inst
    bn, bd = params.beta.as_integer_ratio()
    terms = {"half": HALF, "nu": params.nu - HALF}
    for ci, load in enumerate(chain.loads):
        ln, ld = load.as_integer_ratio()
        terms["cap", ci] = Fraction(bn * (2 * ld - ln), ld * (bd - 2 * bn))
        terms["f", ci] = f_value(params.beta, load)
    num, g = over_lcm(terms)
    half = num["half"]
    f_at = [num["f", ci] for ci in range(len(chain.loads))]
    parities = [split_path_join(atom.tree, inst) for atom in dist]
    gammas = []
    for atom, par in zip(dist, parities):
        if params.uniform_half:
            gamma = dict.fromkeys(par.i_edges, half)
        else:
            gamma = {}
            cross_count = chain.profile(atom.tree).counts
            for e in par.i_edges:
                one_cuts = []
                even_cuts = []
                for ci in range(*chain.levels_crossed(*e)):
                    k = cross_count[ci]
                    if k == 1:
                        one_cuts.append(f_at[ci])
                    elif k % 2 == 0:
                        even_cuts.append(f_at[ci])
                f1 = min(half, max(one_cuts)) if one_cuts else 0
                f2 = min(half, max(even_cuts)) if even_cuts else 0
                gamma[e] = f2 if f2 < f1 else g - f1
        assert all(0 <= v <= g for v in gamma.values())
        gammas.append(gamma)
    return GammaTable(dist=dist, chain=chain, params=params,
                      parities=parities, gammas=gammas,
                      e_paths=[first_path_edges(p, chain) for p in parities],
                      g=g, caps=[num["cap", ci] for ci in range(len(f_at))],
                      f_at=f_at, nu_half=num["nu"])


# ----- benefits and the per-cut audit -----

# census pair (MIX_PAIRS in order, so mix_pair's position is the case)
# and l,m,r combination per Lemma-14 case
CASE_SPECS = tuple(zip("1234", MIX_PAIRS, (
    lambda l, m, r, a: l + r - m + a,
    lambda l, m, r, a: l + r + m + a - 3,
    lambda l, m, r, a: 2 * l + r + a - 2,
    lambda l, m, r, a: l + 2 * r + a - 2)))


@dataclass(frozen=True)
class CutAudit:
    cut_index: int        # index into the narrow-cut chain
    load: Fraction
    case: str             # "1".."4", "less_critical", or "none"
    total: Fraction
    required: Fraction
    margin: Fraction
    eq17_bound: Fraction  # weighted-sum lower bound at critical cuts
    eq18_ok: bool         # constants sufficiency at the realized load
    status: str           # "OK" | "FAIL"


@dataclass(frozen=True)
class BenefitAudit:
    table: GammaTable
    per_cut: list
    all_ok: bool


def benefits(table: GammaTable) -> BenefitAudit:
    """Per-narrow-cut benefit audit of the table's distribution; margins
    may be negative (reported, never raised).  The per-tree invariants of
    the critical-cut case analysis are asserted wherever an active case
    exists — their failure would mean a code bug, not a legitimately
    failing instance.  They are consequences of the rule-based gamma, so
    under params.uniform_half the case machinery is skipped and the margins
    alone decide."""
    dist, chain, params, g = table.dist, table.chain, table.params, table.g
    nh = table.nu_half        # nu - 1/2 over g
    nm = 4 * nh + g           # 4 nu - 1 over g
    wts, wden = weight_ints(dist)
    eps_w = floor(EPS * wden)  # an int over wden is <= EPS iff <= eps_w
    # chain index -> xi-position, at the internal xi-narrow cuts
    internal = {ci: p for p, ci in enumerate(chain.xi_indices[1:-1], 1)}
    counts = [chain.profile(atom.tree).counts for atom in dist]
    cells = census((a.tree for a in dist), wts, chain)  # over wden
    per_cut = []
    for ci, load in enumerate(chain.loads):
        cap, fx = table.caps[ci], table.f_at[ci]
        total = p_even = 0    # over g * wden and wden
        bens = []
        for ai, w in enumerate(wts):
            k, gam = counts[ai][ci], table.gammas[ai][table.e_paths[ai][ci]]
            b = min(cap, gam) if k % 2 == 0 else g - gam if k == 1 else 0
            bens.append(b)
            total += w * b
            if k % 2 == 0:
                p_even += w
        required = cap * p_even
        total_q = Fraction(total, g * wden)

        case = "less_critical" if 2 * fx <= g else "none"
        eq17 = eq18_ok = None
        pos = internal.get(ci)
        # a critical cut, whose case analysis reads the tree types and their
        # census; at the default beta its load sits in a small window around
        # 3/2, in particular below XI and off the chain ends, so it is
        # internal.  A larger beta widens the window toward (1, 2), which
        # can break that; then no case applies and the margin alone decides.
        if case == "none" and not params.uniform_half and pos is not None:
            data = [(ai, wts[ai], *type_data(atom.tree, chain, pos),
                     bens[ai]) for ai, atom in enumerate(dist)]
            p_many = sum(w * ((m - 1) // 2) for _, w, _, _, m, _, _ in data)
            pick = mix_pair(cells[pos], eps_w)
            if pick is not None:
                case, pair, combine = CASE_SPECS[pick]
                a_sum = 0
                for ai, w, code, l, m, r, b in data:
                    a = 1 if code in pair else (-1 if code == "GOOD" else 0)
                    a_sum += w * a
                    many = (m - 1) // 2
                    if m >= 3:
                        lhs = 2 * b - (m + 1) * nh + nm * many
                    else:
                        lhs = 2 * b + combine(l, m, r, a) * nh + nm * many
                    assert lhs >= g, (
                        f"per-tree case-{case} inequality failed: "
                        f"atom {ai}, cut {ci}, type {code}, "
                        f"lhs {Fraction(lhs, g)}")
                assert a_sum <= eps_w, "sum p_S a_S exceeded EPS"
            base = (1 + (5 - Fraction(3, 2) * (load + XI) - EPS)
                    * Fraction(nh, g))
            eq17 = base - Fraction(nm * p_many, g * wden)
            eq18_ok = base >= 2 * Fraction(fx, g)
            if case != "none" and load >= 2 - XI / 3:
                assert 2 * total_q >= eq17, "weighted-sum bound failed"

        per_cut.append(CutAudit(
            cut_index=ci, load=load, case=case, total=total_q,
            required=Fraction(required, g * wden),
            margin=Fraction(total - required, g * wden), eq17_bound=eq17,
            eq18_ok=eq18_ok, status="OK" if total >= required else "FAIL"))
    return BenefitAudit(table=table, per_cut=per_cut,
                        all_ok=all(c.status == "OK" for c in per_cut))


# ----- correction vectors -----

@dataclass(frozen=True)
class CorrectionVectors:
    """z^S and y^S per atom, as edge vectors of ints over den: the value
    on edge e is z[ai][e] / den."""
    z: list         # per atom: edge vector
    y: list         # per atom: beta x* + (1-2beta) chi^{J_S} + z^S
    den: int        # of every value of z and y
    e_cheap: dict   # narrow-cut index -> cheapest complete-graph edge e_C


def cheapest_cut_edges(chain: CutChain) -> dict:
    """Chain index -> e_C, the minimum-cost complete-graph edge crossing
    that narrow cut; ties go to the lexicographically smallest edge.

    One pass over the edges in (cost, edge) order: each edge fills every
    level it crosses that no earlier edge has filled."""
    inst = chain.inst
    size = len(chain.masks)
    cheap = [None] * size
    unfilled = size
    for e in sorted(complete_edges(inst.n), key=lambda e: (inst.cost[e], e)):
        for ci in range(*chain.levels_crossed(*e)):
            if cheap[ci] is None:
                cheap[ci] = e
                unfilled -= 1
        if not unfilled:
            break
    return dict(enumerate(cheap))


def correction_vectors(table: GammaTable) -> CorrectionVectors:
    """z^S and y^S per atom of the table, as ints over one den, asserting
    the even-cut floor of z^S; certify_bound checks that each y^S is in the
    T_S-join dominant."""
    chain, g = table.chain, table.g
    bn, bd = table.params.beta.as_integer_ratio()
    xs, xden = over_lcm(chain.x)
    den = bd * g * xden   # of z^S and y^S
    w1 = (bd - 2 * bn) * xden   # (1 - 2beta) v/g is w1 v over den
    e_cheap = cheapest_cut_edges(chain)
    # beta(2 - x(C)) = (1 - 2beta) cap, and beta x*, over den
    floors = [w1 * cap for cap in table.caps]
    beta_x = {e: bn * g * v for e, v in xs.items()}
    zs, ys = [], []
    for atom, par, gamma, e_path in zip(table.dist, table.parities,
                                        table.gammas, table.e_paths):
        z = {e: w1 * gam for e, gam in gamma.items()}
        counts = chain.profile(atom.tree).counts
        for ci, k in enumerate(counts):
            if k % 2 == 0:
                top = floors[ci] - w1 * gamma[e_path[ci]]
                if top > 0:
                    z[e_cheap[ci]] = z.get(e_cheap[ci], 0) + top
        assert all(v >= 0 for v in z.values())
        # even narrow cuts now carry z-mass at least beta(2 - load)
        for ci, mask in enumerate(chain.masks):
            if counts[ci] % 2 == 0:
                assert load_of_mask(z, mask) >= floors[ci], \
                    "even-cut correction requirement failed"
        y = dict(beta_x)
        for e in par.j_edges:
            y[e] = y.get(e, 0) + w1 * g
        for e, v in z.items():
            y[e] = y.get(e, 0) + v
        zs.append(z)
        ys.append(y)
    return CorrectionVectors(z=zs, y=ys, den=den, e_cheap=e_cheap)


def tjoin_cut_violations(y: dict, t_set, n: int, den: int):
    """T-odd cuts with y(delta(U)) < 1, as distinct vertex tuples
    containing 0, for the edge vector whose value on e is y[e] / den
    (y's values are ints, or Fractions with den 1).

    First the connected components of y's support: a component C with
    |C cap T| odd is a T-odd cut of load 0, so every such C is returned at
    once, by its side holding 0 (two components give one cut, C1 and
    V - C2 being the same set).  Only when there is none does the exact
    separation run: Padberg-Rao on a Gomory-Hu tree of y over the
    terminals T alone, |T| - 1 flows.  Each tree edge splits T, and its
    value is the least load of a cut with that split.  The edges whose
    side is odd include a minimum T-odd cut, so the list is empty exactly
    when every T-odd cut has load at least 1.  One more flow per violated
    edge, between two added vertices tied to the terminals of each side,
    turns the split into a vertex set (the edge's own side when T = V,
    where every vertex is tied)."""
    cap = {e: v for e, v in y.items() if v != 0}
    full = (1 << n) - 1
    t_mask = sum(1 << v for v in t_set)
    uf = UnionFind(n)
    for u, v in cap:
        uf.union(u, v)
    comps = {}
    for v in range(n):
        root = uf.find(v)
        comps[root] = comps.get(root, 0) | 1 << v
    sides = [side for side in comps.values()
             if (side & t_mask).bit_count() % 2]
    if not sides:
        net = FlowNetwork(cap, n)
        for side, value in gomory_hu_tree(net, sorted(t_set)):
            if value >= net.den * den or side.bit_count() % 2 == 0:
                continue
            big = sum(cap.values(), 1)  # above any cut's load
            ties = dict(cap)
            for v in t_set:
                ties[n if (side >> v) & 1 else n + 1, v] = big
            tnet = FlowNetwork(ties, n + 2)
            flow, cut = max_flow_min_cut(tnet, n, n + 1)
            assert flow * net.den == value * tnet.den, \
                "the split's cut is not the tree edge's"
            sides.append(sum(1 << v for v in cut if v < n))
    return [tuple(v for v in range(n) if (side >> v) & 1)
            for side in dict.fromkeys(s if s & 1 else s ^ full
                                      for s in sides)]


def check_join_membership(cv: CorrectionVectors, table: GammaTable):
    """Assert that every y^S of cv, built from table, lies in the T_S-join
    dominant.  A tree has one T_S and one y^S, so a tree listed twice is
    checked once, at its first atom."""
    first = {}
    for ai, atom in enumerate(table.dist):
        first.setdefault(atom.tree, ai)
    for ai in first.values():
        bad = tjoin_cut_violations(cv.y[ai], table.parities[ai].t_set,
                                   table.chain.inst.n, cv.den)
        assert not bad, f"atom {ai}: y^S misses the T_S-cut {bad[0]}"


# ----- certification -----

@dataclass(frozen=True)
class Verdict:
    certified: bool
    label: str          # "certified" or "fallback"
    bound: Fraction     # 2 - beta when certified, else 5/3
    z_cost: Fraction    # sum p_S c(z^S)
    path_cost: Fraction # sum p_S c(I_S)


def certify_bound(audit: BenefitAudit, cv: CorrectionVectors) -> Verdict:
    """Certified iff every narrow cut passed the benefit audit AND the
    correction vectors cv (built by correction_vectors from audit.table)
    are cheap enough:
        sum p_S c(z^S) <= (1 - 2 beta) sum p_S c(I_S).
    Every y^S is checked for T_S-join membership on every call, and when
    the audit passed, the whole cost chain behind that implication is
    re-derived step by step (any failure is a bug, hence an assertion)."""
    table = audit.table
    inst = table.chain.inst
    check_join_membership(cv, table)
    beta = table.params.beta
    w1 = 1 - 2 * beta
    z_cost = sum((a.weight * vector_cost(z, inst)
                  for a, z in zip(table.dist, cv.z)), ZERO) / cv.den
    path_cost = sum((a.weight * edges_cost(par.i_edges, inst)
                     for a, par in zip(table.dist, table.parities)), ZERO)
    if audit.all_ok:
        _verify_cost_chain(table, cv, z_cost, path_cost)
    certified = audit.all_ok and z_cost <= w1 * path_cost
    return Verdict(certified=certified,
                   label="certified" if certified else "fallback",
                   bound=(2 - beta) if certified else Fraction(5, 3),
                   z_cost=z_cost, path_cost=path_cost)


def _verify_cost_chain(table: GammaTable, cv, z_cost, path_cost):
    """The Lemma-6-style derivation, every step numerical, on the table's
    ints, the weights over their lcm and the instance's costs as it holds
    them."""
    dist, chain, g = table.dist, table.chain, table.g
    wts, _ = weight_ints(dist)
    w1 = 1 - 2 * table.params.beta
    # per cut: the top-up mass is covered by the single-crossing slack
    # (this is exactly the benefit inequality restated), and the cheap
    # edge never costs more than the designated path edge, which is the
    # lone edge of a cut crossed once.  A top-up is w1 (cap - gamma): the
    # factor w1 > 0 of tops <= w1 * slack is divided out.
    cost = chain.inst.cost
    profiles = [chain.profile(atom.tree) for atom in dist]
    for ci, cap in enumerate(table.caps):
        tops = slack = 0
        for ai, (w, prof) in enumerate(zip(wts, profiles)):
            k = prof.counts[ci]
            esc, gamma = table.e_paths[ai][ci], table.gammas[ai]
            if k % 2 == 0:
                tops += w * max(0, cap - gamma[esc])
            elif k == 1:
                assert prof.single[ci] == esc
                slack += w * (g - gamma[esc])
                assert cost[cv.e_cheap[ci]] <= cost[esc]
        assert tops <= slack, f"stepping stone failed at cut {ci}"
    # per atom: narrow cuts crossed once are defined by distinct path edges
    check_packing(dist, chain)
    assert z_cost <= w1 * path_cost, "cost chain conclusion failed"


def check_packing(dist, chain: CutChain):
    """Assert that no edge of a tree is the lone crossing of two narrow
    cuts."""
    for ai, atom in enumerate(dist):
        seen = set()
        for e in chain.profile(atom.tree).single:
            if e is not None:
                assert e not in seen, (
                    f"atom {ai}: edge {e} defines two narrow cuts")
                seen.add(e)
