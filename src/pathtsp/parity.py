"""Parity structure, benefits, correction vectors, and the bound audit.

For a tree S in the distribution, I_S is its s-t path, J_S = S - I_S, and
T_S collects the wrong-parity vertices (odd degree internally, even degree
at s or t); J_S is then a T_S-join.  Each path edge e gets a number
gamma_{S,e} in [0,1] from the two quantities

    f1 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| = 1)
    f2 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| even)
    gamma = f2 if f2 < f1 else 1 - f1,     f(x) = beta(2-x)(x-1)/(1-2beta),

or gamma = 1/2 on every path edge when GammaParams.uniform_half is set
(Sebo's uniform assignment, the legacy audit mode).  e^S_C, the first path
edge crossing the narrow cut C, is found for every level of the chain in
one walk along the path and kept on the tree's TreeParity.

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
from |T_S| - 1 flows.  certify_bound checks that
membership for every y^S and re-verifies the full cost chain instead of
trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cuts import XI_DEFAULT, CutChain, gomory_hu_tree, load_of_mask
from .flows import FlowNetwork, max_flow_min_cut
from .instance import (HALF, ZERO, Instance, complete_edges, edge, edges_cost,
                       format_rational, vector_cost)
from .reassembler import MIX_PAIRS, type_data
from .tree_decomp import tree_path

BETA_DEFAULT = Fraction(401, 1000)
EPS_DEFAULT = Fraction(1, 100)


def f_value(beta: Fraction, x: Fraction) -> Fraction:
    return beta * (2 - x) * (x - 1) / (1 - 2 * beta)


@dataclass
class GammaParams:
    beta: Fraction = BETA_DEFAULT
    xi: Fraction = XI_DEFAULT
    eps: Fraction = EPS_DEFAULT
    uniform_half: bool = False   # gamma = 1/2 on every path edge

    def __post_init__(self):
        self.beta = Fraction(self.beta)
        self.xi = Fraction(self.xi)
        self.eps = Fraction(self.eps)
        if not Fraction(2, 5) <= self.beta < HALF:
            raise ValueError(f"beta {self.beta} outside [0.4, 0.5)")
        if not Fraction(17, 10) <= self.xi <= Fraction(18, 10):
            raise ValueError(f"xi {self.xi} outside [1.7, 1.8]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.nu <= HALF:
            raise ValueError(f"nu = {self.nu} must exceed 1/2")

    def f(self, x) -> Fraction:
        return f_value(self.beta, Fraction(x))

    @property
    def nu(self) -> Fraction:
        return 1 - f_value(self.beta, self.xi)


@dataclass
class TreeParity:
    path_vertices: tuple   # s .. t along the tree path
    i_edges: frozenset     # edges of the path
    j_edges: frozenset     # the rest: a T_S-join
    t_set: frozenset       # wrong-parity vertices
    gamma: dict = None     # path edge -> Fraction, set by assign_gamma
    e_path: list = None    # chain level -> e^S_C, set by assign_gamma


def split_path_join(tree, inst: Instance) -> TreeParity:
    """Split a spanning tree into its s-t path and the leftover join."""
    verts = tree_path(tree, inst.s, inst.t)
    i_edges = frozenset(edge(a, b) for a, b in zip(verts, verts[1:]))
    j_edges = frozenset(tree) - i_edges
    deg = {}
    for (u, v) in tree:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    t_set = set()
    for v, d in deg.items():
        if v in (inst.s, inst.t):
            if d % 2 == 0:
                t_set.add(v)
        elif d % 2 == 1:
            t_set.add(v)
    assert len(t_set) % 2 == 0, "odd-size parity set is impossible"
    jdeg = {}
    for (u, v) in j_edges:
        jdeg[u] = jdeg.get(u, 0) + 1
        jdeg[v] = jdeg.get(v, 0) + 1
    for v in range(inst.n):
        assert (jdeg.get(v, 0) % 2 == 1) == (v in t_set), \
            "J_S is not a T_S-join"
    return TreeParity(path_vertices=tuple(verts),
                      i_edges=i_edges, j_edges=j_edges,
                      t_set=frozenset(t_set))


def first_path_edges(parity: TreeParity, chain: CutChain) -> list:
    """e^S_C at every level of the chain: the first path edge, walking
    from s, that crosses the level.  The path leaves level c on the first
    edge to reach a vertex of layer above c, so one walk with a high-water
    mark over the layers fills the levels in order."""
    layer = chain.layer
    out = []
    for a, b in zip(parity.path_vertices, parity.path_vertices[1:]):
        top = max(layer[a], layer[b])
        if top > len(out):
            out.extend([edge(a, b)] * (top - len(out)))
    return out


def assign_gamma(dist, chain: CutChain, params: GammaParams):
    """TreeParity, with gamma and e_path, per atom."""
    inst = chain.inst
    if not params.uniform_half:
        f_at = [params.f(x) for x in chain.loads]   # f(x(C)) per level
    out = []
    for atom in dist:
        par = split_path_join(atom.tree, inst)
        if params.uniform_half:
            gamma = dict.fromkeys(par.i_edges, HALF)
        else:
            gamma = {}
            cross_count = chain.profile(atom.tree).counts
            for e in par.i_edges:
                one_cuts = []
                even_cuts = []
                # the levels e crosses: from the lower layer of its ends
                # up to, not including, the higher one
                lo, hi = sorted((chain.layer[e[0]], chain.layer[e[1]]))
                for ci in range(lo, hi):
                    k = cross_count[ci]
                    if k == 1:
                        one_cuts.append(f_at[ci])
                    elif k % 2 == 0:
                        even_cuts.append(f_at[ci])
                f1 = min(HALF, max(one_cuts)) if one_cuts else ZERO
                f2 = min(HALF, max(even_cuts)) if even_cuts else ZERO
                gamma[e] = f2 if f2 < f1 else 1 - f1
        assert all(0 <= g <= 1 for g in gamma.values())
        par.gamma = gamma
        par.e_path = first_path_edges(par, chain)
        out.append(par)
    return out


# ----- benefits and the per-cut audit -----

def benefit(parity: TreeParity, k_cross: int, ci: int,
            cap: Fraction) -> Fraction:
    """The benefit of the tree at chain level ci, crossed k_cross times;
    cap = beta(2 - x(C))/(1 - 2beta) at that level."""
    if k_cross % 2 == 0:
        return min(cap, parity.gamma[parity.e_path[ci]])
    if k_cross == 1:
        return 1 - parity.gamma[parity.e_path[ci]]
    return ZERO


# census pair (the type-mix pairs, in order) and l,m,r combination per
# Lemma-14 case
CASE_SPECS = tuple(zip("1234", MIX_PAIRS, (
    lambda l, m, r, a: l + r - m + a,
    lambda l, m, r, a: l + r + m + a - 3,
    lambda l, m, r, a: 2 * l + r + a - 2,
    lambda l, m, r, a: l + 2 * r + a - 2)))


@dataclass
class CutAudit:
    cut_index: int        # index into the narrow-cut chain
    load: Fraction
    case: str             # "1".."4", "less_critical", or "none"
    total: Fraction
    required: Fraction
    margin: Fraction
    eq17_bound: Fraction  # weighted-sum lower bound at critical cuts
    eq18_ok: bool = None  # constants sufficiency at the realized load
    status: str = "OK"    # "OK" | "FAIL"


@dataclass
class BenefitAudit:
    chain: CutChain
    parities: list
    per_cut: list
    all_ok: bool


def benefits(dist, chain: CutChain, parities,
             params: GammaParams) -> BenefitAudit:
    """Per-narrow-cut benefit audit of parities (from assign_gamma with the
    same params); margins may be negative (reported, never raised).  The
    per-tree invariants of the critical-cut case analysis are asserted
    wherever an active case exists — their failure would mean a code bug,
    not a legitimately failing instance.  They are consequences of the
    rule-based gamma, so under params.uniform_half the case machinery is
    skipped and the margins alone decide."""
    beta, xi, eps = params.beta, params.xi, params.eps
    w1 = 1 - 2 * beta
    nu = params.nu
    nu_half, nu_many = nu - HALF, 4 * nu - 1
    # chain index -> xi-position, at the internal xi-narrow cuts
    internal = {ci: p for p, ci in enumerate(chain.xi_indices[1:-1], 1)}
    counts = [chain.profile(atom.tree).counts for atom in dist]
    per_cut = []
    for ci, load in enumerate(chain.loads):
        cap = beta * (2 - load) / w1
        total = ZERO
        p_even = ZERO
        bens = []
        for ai, atom in enumerate(dist):
            k = counts[ai][ci]
            b = benefit(parities[ai], k, ci, cap)
            bens.append(b)
            total += atom.weight * b
            if k % 2 == 0:
                p_even += atom.weight
        required = cap * p_even
        margin = total - required

        f = params.f(load)
        case = "less_critical" if f <= HALF else "none"
        eq17 = None
        eq18_ok = None
        pos = internal.get(ci)
        # a critical cut, whose case analysis reads the tree types; with
        # default constants its load sits in a small window around 3/2, in
        # particular below xi and off the chain ends, so it is internal.
        # Exotic (but validated) parameters can break that, in which case
        # no case applies and the margin alone decides the verdict.
        if f > HALF and not params.uniform_half and pos is not None:
            data = [(ai, atom.weight, *type_data(atom.tree, chain, pos),
                     bens[ai]) for ai, atom in enumerate(dist)]
            census = {}
            p_many = ZERO
            for _, w, code, _, m, _, _ in data:
                census[code] = census.get(code, ZERO) + w
                p_many += w * ((m - 1) // 2)
            good = census.get("GOOD", ZERO)
            for label, pair, combine in CASE_SPECS:
                pair_mass = sum((census.get(c, ZERO) for c in pair), ZERO)
                if pair_mass <= good + eps:
                    case = label
                    a_sum = ZERO
                    for ai, w, code, l, m, r, b in data:
                        a = 1 if code in pair else (-1 if code == "GOOD"
                                                    else 0)
                        a_sum += w * a
                        many = (m - 1) // 2
                        if m >= 3:
                            lhs = (2 * b - (m + 1) * nu_half
                                   + nu_many * many)
                        else:
                            lhs = (2 * b + combine(l, m, r, a) * nu_half
                                   + nu_many * many)
                        assert lhs >= 1, (
                            f"per-tree case-{label} inequality failed: "
                            f"atom {ai}, cut {ci}, type {code}, "
                            f"lhs {lhs}")
                    assert a_sum <= eps, "sum p_S a_S exceeded eps"
                    break
            base = (1 + (5 - Fraction(3, 2) * (load + xi) - eps)
                    * nu_half)
            eq17 = base - nu_many * p_many
            eq18_ok = base >= 2 * f
            if case != "none" and load >= 2 - xi / 3:
                assert 2 * total >= eq17, "weighted-sum bound failed"

        per_cut.append(CutAudit(
            cut_index=ci, load=load, case=case, total=total,
            required=required, margin=margin, eq17_bound=eq17,
            eq18_ok=eq18_ok, status="OK" if margin >= 0 else "FAIL"))
    return BenefitAudit(chain=chain, parities=parities, per_cut=per_cut,
                        all_ok=all(c.status == "OK" for c in per_cut))


# ----- correction vectors -----

@dataclass
class CorrectionVectors:
    z: list         # per atom: edge vector
    y: list         # per atom: beta x* + (1-2beta) chi^{J_S} + z^S
    e_cheap: dict   # narrow-cut index -> cheapest complete-graph edge e_C


def cheapest_cut_edges(chain: CutChain) -> dict:
    """Chain index -> e_C, the minimum-cost complete-graph edge crossing
    that narrow cut; ties go to the lexicographically smallest edge.

    One pass over the edges in (cost, edge) order: each edge fills every
    level of its layer interval that no earlier edge has filled.  The sort
    compares costs as ints over their common denominator, the same order
    as comparing the Fractions, only cheaper."""
    inst, layer = chain.inst, chain.layer
    edges = complete_edges(inst.n)
    den = lcm(*(inst.cost[e].denominator for e in edges))
    size = len(chain.masks)
    cheap = [None] * size
    unfilled = size
    for e in sorted(edges, key=lambda e: (inst.cost[e].numerator * (
            den // inst.cost[e].denominator), e)):
        lo, hi = sorted((layer[e[0]], layer[e[1]]))
        for ci in range(lo, hi):
            if cheap[ci] is None:
                cheap[ci] = e
                unfilled -= 1
        if not unfilled:
            break
    return dict(enumerate(cheap))


def correction_vectors(dist, chain: CutChain, parities,
                       params: GammaParams) -> CorrectionVectors:
    """z^S and y^S per atom, asserting the even-cut floor of z^S;
    certify_bound checks that each y^S is in the T_S-join dominant."""
    beta = params.beta
    w1 = 1 - 2 * beta
    e_cheap = cheapest_cut_edges(chain)
    floor = [beta * (2 - load) for load in chain.loads]  # per level
    beta_x = {e: beta * v for e, v in chain.x.items()}
    zs, ys = [], []
    for atom, par in zip(dist, parities):
        z = {}
        for e in par.i_edges:
            z[e] = z.get(e, ZERO) + w1 * par.gamma[e]
        counts = chain.profile(atom.tree).counts
        for ci, k in enumerate(counts):
            if k % 2 == 0:
                top = floor[ci] - w1 * par.gamma[par.e_path[ci]]
                if top > 0:
                    ec = e_cheap[ci]
                    z[ec] = z.get(ec, ZERO) + top
        assert all(v >= 0 for v in z.values())
        # even narrow cuts now carry z-mass at least beta(2 - load)
        for ci, mask in enumerate(chain.masks):
            if counts[ci] % 2 == 0:
                assert load_of_mask(z, mask) >= floor[ci], \
                    "even-cut correction requirement failed"
        y = dict(beta_x)
        for e in par.j_edges:
            y[e] = y.get(e, ZERO) + w1
        for e, v in z.items():
            y[e] = y.get(e, ZERO) + v
        zs.append(z)
        ys.append(y)
    return CorrectionVectors(z=zs, y=ys, e_cheap=e_cheap)


def tjoin_cut_violations(y: dict, t_set, n: int):
    """T-odd cuts with y(delta(U)) < 1, as vertex tuples containing 0.

    Padberg-Rao on a Gomory-Hu tree of y over the terminals T alone,
    |T| - 1 flows: each tree edge splits T, and its value is the least
    load of a cut with that split.  The edges whose side is odd include a
    minimum T-odd cut, so the list is empty exactly when every T-odd cut
    has load at least 1.  When T = V an edge's side is its cut; otherwise
    one more flow per violated edge, between two added vertices tied to
    the terminals of each side, turns the split into a vertex set."""
    cap = {e: v for e, v in y.items() if v != 0}
    full = (1 << n) - 1
    t_mask = sum(1 << v for v in t_set)
    out = []
    net = FlowNetwork(cap, n)
    for side, value in gomory_hu_tree(net, sorted(t_set)):
        if value >= net.den or side.bit_count() % 2 == 0:
            continue
        if t_mask != full:
            big = sum(cap.values(), 1)  # above any cut's load
            ties = dict(cap)
            for v in t_set:
                ties[n if (side >> v) & 1 else n + 1, v] = big
            tnet = FlowNetwork(ties, n + 2)
            flow, cut = max_flow_min_cut(tnet, n, n + 1)
            assert flow * net.den == value * tnet.den, \
                "the split's cut is not the tree edge's"
            side = sum(1 << v for v in cut if v < n)
        if not side & 1:
            side ^= full
        out.append(tuple(v for v in range(n) if (side >> v) & 1))
    return out


def check_join_membership(cv: CorrectionVectors, parities, n: int):
    """Assert that every y^S lies in the T_S-join dominant."""
    for ai, (y, par) in enumerate(zip(cv.y, parities)):
        bad = tjoin_cut_violations(y, par.t_set, n)
        assert not bad, f"atom {ai}: y^S misses the T_S-cut {bad[0]}"


# ----- certification -----

@dataclass
class Verdict:
    certified: bool
    label: str          # "certified" or "fallback"
    bound: Fraction     # 2 - beta when certified, else 5/3
    beta: Fraction
    z_cost: Fraction    # sum p_S c(z^S)
    path_cost: Fraction # sum p_S c(I_S)


def certify_bound(dist, audit: BenefitAudit, cv: CorrectionVectors,
                  params: GammaParams) -> Verdict:
    """Certified iff every narrow cut passed the benefit audit AND the
    correction vectors cv (built by correction_vectors for the same dist,
    chain and parities) are cheap enough:
        sum p_S c(z^S) <= (1 - 2 beta) sum p_S c(I_S).
    Every y^S is checked for T_S-join membership on every call, and when
    the audit passed, the whole cost chain behind that implication is
    re-derived step by step (any failure is a bug, hence an assertion)."""
    chain, parities = audit.chain, audit.parities
    inst = chain.inst
    check_join_membership(cv, parities, inst.n)
    beta = params.beta
    w1 = 1 - 2 * beta
    z_cost = sum((atom.weight * vector_cost(cv.z[ai], inst)
                  for ai, atom in enumerate(dist)), ZERO)
    path_cost = sum((atom.weight * edges_cost(parities[ai].i_edges, inst)
                     for ai, atom in enumerate(dist)), ZERO)
    if audit.all_ok:
        _verify_cost_chain(dist, chain, parities, params, cv,
                           z_cost, path_cost)
    certified = audit.all_ok and z_cost <= w1 * path_cost
    return Verdict(certified=certified,
                   label="certified" if certified else "fallback",
                   bound=(2 - beta) if certified else Fraction(5, 3),
                   beta=beta, z_cost=z_cost, path_cost=path_cost)


def _verify_cost_chain(dist, chain, parities, params, cv, z_cost, path_cost):
    """The Lemma-6-style derivation, every step numerical."""
    beta = params.beta
    w1 = 1 - 2 * beta
    # per cut: the top-up mass is covered by the single-crossing slack
    # (this is exactly the benefit inequality restated), and the cheap
    # edge never costs more than the designated path edge, which is the
    # lone edge of a cut crossed once
    profiles = [chain.profile(atom.tree) for atom in dist]
    for ci, load in enumerate(chain.loads):
        tops = ZERO
        slack = ZERO
        for atom, prof, par in zip(dist, profiles, parities):
            k = prof.counts[ci]
            esc = par.e_path[ci]
            if k % 2 == 0:
                top = max(ZERO, beta * (2 - load) - w1 * par.gamma[esc])
                tops += atom.weight * top
            elif k == 1:
                assert prof.single[ci] == esc
                slack += atom.weight * (1 - par.gamma[esc])
                assert chain.inst.cost[cv.e_cheap[ci]] \
                    <= chain.inst.cost[esc]
        assert tops <= w1 * slack, f"stepping stone failed at cut {ci}"
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


# ----- report formatting -----

def format_audit_lines(audit: BenefitAudit, verdict: Verdict):
    lines = []
    for c in audit.per_cut:
        lines.append(
            f"cut={c.cut_index} load={format_rational(c.load)} "
            f"case={c.case} benefit={format_rational(c.total)} "
            f"required={format_rational(c.required)} "
            f"margin={format_rational(c.margin)} status={c.status}")
    beta = format_rational(verdict.beta) if verdict.certified else "none"
    lines.append(f"certified_beta={beta}")
    return lines
