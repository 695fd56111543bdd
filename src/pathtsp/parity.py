"""Parity structure, benefits, correction vectors, and the bound audit.

For a tree S in the distribution, I_S is its s-t path, J_S = S - I_S, and
T_S collects the wrong-parity vertices (odd degree internally, even degree
at s or t); J_S is then a T_S-join.  Each path edge e gets a number
gamma_{S,e} in [0,1] from the two quantities

    f1 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| = 1)
    f2 = 0, or min(1/2, max f(x(C)) over narrow C with e in C, |S cap C| even)
    gamma = f2 if f2 < f1 else 1 - f1,     f(x) = beta(2-x)(x-1)/(1-2beta).

The benefit of (S, C) is min(beta(2-x(C))/(1-2beta), gamma at e^S_C) when
S crosses C an even number of times, 1 - gamma at e^S_C when it crosses
once, and 0 otherwise, where e^S_C is the first path edge crossing C.  The
audit checks, per narrow cut, that total benefit covers
beta(2-x(C)) p_even/(1-2beta), labels each critical cut (f(x(C)) > 1/2)
with the first applicable census case, and re-derives the per-tree
inequalities behind that case analysis.

Correction vectors: z^S spreads (1-2beta) gamma over the path edges and
tops up even narrow cuts on their cheapest edge e_C, and
y^S = beta x* + (1-2beta) chi^{J_S} + z^S must hit every T_S-cut with load
at least 1, verified at every n by Padberg-Rao: a minimum T_S-odd cut is a
fundamental cut of a Gomory-Hu tree of y^S.  certify_bound re-verifies the
full cost chain instead of trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import (XI_DEFAULT, CutChain, crossing_edges, crossings,
                   format_rational, gomory_hu_tree)
from .instance import Instance, complete_edges, edge, vector_cost
from .tree_decomp import tree_path

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

BETA_DEFAULT = Fraction(401, 1000)
EPS_DEFAULT = Fraction(1, 100)


def f_value(beta: Fraction, x: Fraction) -> Fraction:
    return beta * (2 - x) * (x - 1) / (1 - 2 * beta)


@dataclass
class GammaParams:
    beta: Fraction = BETA_DEFAULT
    xi: Fraction = XI_DEFAULT
    eps: Fraction = EPS_DEFAULT

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
    tree: frozenset
    path_vertices: tuple   # s .. t along the tree path
    i_edges: frozenset     # edges of the path
    j_edges: frozenset     # the rest: a T_S-join
    t_set: frozenset       # wrong-parity vertices
    gamma: dict = None     # path edge -> Fraction, set by assign_gamma


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
    return TreeParity(tree=frozenset(tree), path_vertices=tuple(verts),
                      i_edges=i_edges, j_edges=j_edges,
                      t_set=frozenset(t_set))


def path_edge_at_cut(parity: TreeParity, mask: int):
    """First path edge crossing the cut, walking from s."""
    for a, b in zip(parity.path_vertices, parity.path_vertices[1:]):
        if ((mask >> a) ^ (mask >> b)) & 1:
            return edge(a, b)
    raise ValueError("path does not cross the cut")


def assign_gamma(dist, chain: CutChain, params: GammaParams,
                 uniform_half=False):
    """TreeParity (with gamma) per atom.  uniform_half forces gamma = 1/2
    on every path edge — the legacy audit mode."""
    inst = chain.inst
    out = []
    for atom in dist:
        par = split_path_join(atom.tree, inst)
        gamma = {}
        if uniform_half:
            for e in par.i_edges:
                gamma[e] = HALF
        else:
            cross_count = [crossings(atom.tree, mk) for mk in chain.masks]
            for e in par.i_edges:
                one_cuts = []
                even_cuts = []
                for ci, mk in enumerate(chain.masks):
                    if not ((mk >> e[0]) ^ (mk >> e[1])) & 1:
                        continue
                    k = cross_count[ci]
                    if k == 1:
                        one_cuts.append(chain.loads[ci])
                    elif k % 2 == 0:
                        even_cuts.append(chain.loads[ci])
                f1 = min(HALF, max(params.f(x) for x in one_cuts)) \
                    if one_cuts else ZERO
                f2 = min(HALF, max(params.f(x) for x in even_cuts)) \
                    if even_cuts else ZERO
                gamma[e] = f2 if f2 < f1 else 1 - f1
        assert all(0 <= g <= 1 for g in gamma.values())
        par.gamma = gamma
        out.append(par)
    return out


# ----- benefits and the per-cut audit -----

def benefit(parity: TreeParity, k_cross: int, load: Fraction, mask: int,
            params: GammaParams) -> Fraction:
    if k_cross % 2 == 0:
        g = parity.gamma[path_edge_at_cut(parity, mask)]
        return min(params.beta * (2 - load) / (1 - 2 * params.beta), g)
    if k_cross == 1:
        g = parity.gamma[path_edge_at_cut(parity, mask)]
        return 1 - g
    return ZERO


# census-pair and l,m,r combination per Lemma-14 case
CASE_SPECS = (
    ("1", ("120", "021"), lambda l, m, r, a: l + r - m + a),
    ("2", ("011", "110"), lambda l, m, r, a: l + r + m + a - 3),
    ("3", ("011", "021"), lambda l, m, r, a: 2 * l + r + a - 2),
    ("4", ("110", "120"), lambda l, m, r, a: l + 2 * r + a - 2),
)


@dataclass
class CutAudit:
    cut_index: int        # index into the narrow-cut chain
    load: Fraction
    case: str             # "1".."4", "less_critical", or "none"
    rows: list            # (atom_index, type code or None, benefit)
    a_marks: dict         # atom_index -> a_S for the active case (or None)
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


def benefits(dist, chain: CutChain, parities, params: GammaParams,
             rule_gamma=True) -> BenefitAudit:
    """Per-narrow-cut benefit audit; margins may be negative (reported,
    never raised).  The per-tree invariants of the critical-cut case
    analysis are asserted wherever an active case exists — their failure
    would mean a code bug, not a legitimately failing instance.  They are
    consequences of the rule-based gamma assignment, so pass
    rule_gamma=False when auditing an overridden (e.g. uniform-1/2)
    assignment: the case machinery is skipped and the margins alone
    decide."""
    from .reassembler import type_data

    beta, xi, eps = params.beta, params.xi, params.eps
    nu = params.nu
    xi_pos = {ci: p for p, ci in enumerate(chain.xi_indices)}
    lprime = len(chain.xi_indices) - 1
    per_cut = []
    for ci, mask in enumerate(chain.masks):
        load = chain.loads[ci]
        rows = []
        total = ZERO
        p_even = ZERO
        p_many = ZERO
        data = []
        for ai, atom in enumerate(dist):
            k = crossings(atom.tree, mask)
            b = benefit(parities[ai], k, load, mask, params)
            pos = xi_pos.get(ci)
            if pos is not None and 0 < pos < lprime:
                code, l, m, r = type_data(atom.tree, chain, pos)
            else:
                code = l = m = r = None
            rows.append((ai, code, b))
            data.append((ai, atom.weight, code, l, m, r, k, b))
            total += atom.weight * b
            if k % 2 == 0:
                p_even += atom.weight
            p_many += atom.weight * ((k - 1) // 2)
        required = beta * (2 - load) * p_even / (1 - 2 * beta)
        margin = total - required

        case = "less_critical" if params.f(load) <= HALF else "none"
        a_marks = None
        eq17 = None
        eq18_ok = None
        if params.f(load) > HALF and rule_gamma:
            # a critical cut; with default constants its load sits in a
            # small window around 3/2, in particular below xi and off the
            # chain ends, so the type census is defined.  Exotic (but
            # validated) parameters can break that, in which case no case
            # applies and the margin alone decides the verdict.
            case = "none"
            if all(c is not None for _, _, c, *_ in data):
                census = {}
                for _, w, code, *_ in data:
                    census[code] = census.get(code, ZERO) + w
                good = census.get("GOOD", ZERO)
                for label, pair, combine in CASE_SPECS:
                    pair_mass = sum((census.get(c, ZERO) for c in pair),
                                    ZERO)
                    if pair_mass <= good + eps:
                        case = label
                        a_marks = {}
                        a_sum = ZERO
                        for ai, w, code, l, m, r, k, b in data:
                            a = 1 if code in pair else (-1 if code == "GOOD"
                                                        else 0)
                            a_marks[ai] = a
                            a_sum += w * a
                            many = (m - 1) // 2
                            if m >= 3:
                                lhs = (2 * b - (m + 1) * (nu - HALF)
                                       + (4 * nu - 1) * many)
                            else:
                                lhs = (2 * b
                                       + combine(l, m, r, a) * (nu - HALF)
                                       + (4 * nu - 1) * many)
                            assert lhs >= 1, (
                                f"per-tree case-{label} inequality failed: "
                                f"atom {ai}, cut {ci}, type {code}, "
                                f"lhs {lhs}")
                        assert a_sum <= eps, "sum p_S a_S exceeded eps"
                        break
                base = (1 + (5 - Fraction(3, 2) * (load + xi) - eps)
                        * (nu - HALF))
                eq17 = base - (4 * nu - 1) * p_many
                eq18_ok = base >= 2 * params.f(load)
                if case != "none" and load >= 2 - xi / 3:
                    assert 2 * total >= eq17, "weighted-sum bound failed"

        per_cut.append(CutAudit(
            cut_index=ci, load=load, case=case, rows=rows, a_marks=a_marks,
            total=total, required=required, margin=margin, eq17_bound=eq17,
            eq18_ok=eq18_ok,
            status="OK" if margin >= 0 else "FAIL"))
    return BenefitAudit(chain=chain, parities=parities, per_cut=per_cut,
                        all_ok=all(c.status == "OK" for c in per_cut))


# ----- correction vectors -----

@dataclass
class CorrectionVectors:
    z: list         # per atom: edge vector
    y: list         # per atom: beta x* + (1-2beta) chi^{J_S} + z^S
    e_path: list    # per atom: narrow-cut index -> e^S_C
    e_cheap: dict   # narrow-cut index -> cheapest complete-graph edge e_C


def cheapest_cut_edge(inst: Instance, mask: int):
    """Minimum-cost complete-graph edge crossing the cut; ties go to the
    lexicographically smallest edge."""
    best = None
    for e in complete_edges(inst.n):
        if ((mask >> e[0]) ^ (mask >> e[1])) & 1:
            if best is None or (inst.cost[e], e) < (inst.cost[best], best):
                best = e
    return best


def correction_vectors(dist, chain: CutChain, parities,
                       params: GammaParams,
                       check_membership=True) -> CorrectionVectors:
    inst = chain.inst
    beta = params.beta
    if beta > HALF:
        raise ValueError("beta must not exceed 1/2")
    w1 = 1 - 2 * beta
    e_cheap = {ci: cheapest_cut_edge(inst, mask)
               for ci, mask in enumerate(chain.masks)}
    zs, ys, e_paths = [], [], []
    for ai, atom in enumerate(dist):
        par = parities[ai]
        z = {}
        for e in par.i_edges:
            z[e] = z.get(e, ZERO) + w1 * par.gamma[e]
        e_path = {}
        for ci, mask in enumerate(chain.masks):
            k = crossings(atom.tree, mask)
            if k % 2 == 1 and k > 1:
                continue
            esc = path_edge_at_cut(par, mask)
            e_path[ci] = esc
            if k % 2 == 0:
                top = beta * (2 - chain.loads[ci]) - w1 * par.gamma[esc]
                if top > 0:
                    ec = e_cheap[ci]
                    z[ec] = z.get(ec, ZERO) + top
        assert all(v >= 0 for v in z.values())
        # even narrow cuts now carry z-mass at least beta(2 - load)
        for ci, mask in enumerate(chain.masks):
            if crossings(atom.tree, mask) % 2 == 0:
                zc = sum((v for e, v in z.items()
                          if ((mask >> e[0]) ^ (mask >> e[1])) & 1), ZERO)
                assert zc >= beta * (2 - chain.loads[ci]), \
                    "even-cut correction requirement failed"
        y = {e: beta * v for e, v in chain.x.items()}
        for e in par.j_edges:
            y[e] = y.get(e, ZERO) + w1
        for e, v in z.items():
            y[e] = y.get(e, ZERO) + v
        if check_membership:
            bad = tjoin_cut_violations(y, par.t_set, inst.n)
            assert not bad, f"atom {ai}: y^S misses the T_S-cut {bad[0]}"
        zs.append(z)
        ys.append(y)
        e_paths.append(e_path)
    return CorrectionVectors(z=zs, y=ys, e_path=e_paths, e_cheap=e_cheap)


def tjoin_cut_violations(y: dict, t_set, n: int):
    """T-odd cuts with y(delta(U)) < 1, as vertex tuples containing 0.

    Padberg-Rao: the T-odd fundamental cuts of a Gomory-Hu tree of y
    include a minimum T-odd cut, so the list is empty exactly when every
    T-odd cut has load at least 1."""
    cap = {e: v for e, v in y.items() if v != 0}
    out = []
    for side, value in gomory_hu_tree(cap, range(n)):
        if value < 1 and len(side.intersection(t_set)) % 2 == 1:
            U = side if 0 in side else frozenset(range(n)) - side
            out.append(tuple(sorted(U)))
    return out


# ----- certification -----

@dataclass
class Verdict:
    certified: bool
    label: str          # "certified" or "fallback"
    bound: Fraction     # 2 - beta when certified, else 5/3
    beta: Fraction
    z_cost: Fraction    # sum p_S c(z^S)
    path_cost: Fraction # sum p_S c(I_S)
    margins: list


def certify_bound(dist, audit: BenefitAudit, cv: CorrectionVectors,
                  params: GammaParams) -> Verdict:
    """Certified iff every narrow cut passed the benefit audit AND the
    correction vectors cv (built by correction_vectors for the same dist,
    chain and parities) are cheap enough:
        sum p_S c(z^S) <= (1 - 2 beta) sum p_S c(I_S).
    When the audit passed, the whole cost chain behind that implication is
    re-derived step by step (any failure is a bug, hence an assertion)."""
    chain, parities = audit.chain, audit.parities
    inst = chain.inst
    beta = params.beta
    w1 = 1 - 2 * beta
    z_cost = sum((atom.weight * vector_cost(cv.z[ai], inst)
                  for ai, atom in enumerate(dist)), ZERO)
    path_cost = sum((atom.weight * sum((inst.cost[e] for e in
                                        parities[ai].i_edges), ZERO)
                     for ai, atom in enumerate(dist)), ZERO)
    margins = [c.margin for c in audit.per_cut]
    margins_ok = audit.all_ok
    if margins_ok:
        _verify_cost_chain(dist, chain, parities, params, cv,
                           z_cost, path_cost)
    certified = margins_ok and z_cost <= w1 * path_cost
    return Verdict(certified=certified,
                   label="certified" if certified else "fallback",
                   bound=(2 - beta) if certified else Fraction(5, 3),
                   beta=beta, z_cost=z_cost, path_cost=path_cost,
                   margins=margins)


def _verify_cost_chain(dist, chain, parities, params, cv, z_cost, path_cost):
    """The Lemma-6-style derivation, every step numerical."""
    beta = params.beta
    w1 = 1 - 2 * beta
    # per cut: the top-up mass is covered by the single-crossing slack
    # (this is exactly the benefit inequality restated), and the cheap
    # edge never costs more than the designated path edge
    for ci, mask in enumerate(chain.masks):
        load = chain.loads[ci]
        tops = ZERO
        slack = ZERO
        for ai, atom in enumerate(dist):
            k = crossings(atom.tree, mask)
            if k % 2 == 0:
                esc = cv.e_path[ai][ci]
                top = max(ZERO, beta * (2 - load) - w1 * parities[ai].gamma[esc])
                tops += atom.weight * top
            elif k == 1:
                esc = cv.e_path[ai][ci]
                slack += atom.weight * (1 - parities[ai].gamma[esc])
                assert chain.inst.cost[cv.e_cheap[ci]] \
                    <= chain.inst.cost[esc]
        assert tops <= w1 * slack, f"stepping stone failed at cut {ci}"
    # per atom: narrow cuts crossed once are defined by distinct path edges
    for ai, atom in enumerate(dist):
        seen = set()
        for ci, mask in enumerate(chain.masks):
            hits = crossing_edges(atom.tree, mask)
            if len(hits) == 1:
                e = hits[0]
                assert e in parities[ai].i_edges
                assert e not in seen, "an edge single-defines two narrow cuts"
                seen.add(e)
    assert z_cost <= w1 * path_cost, "cost chain conclusion failed"


# ----- report formatting -----

def format_audit_lines(audit: BenefitAudit, verdict: Verdict = None):
    lines = []
    for c in audit.per_cut:
        lines.append(
            f"cut={c.cut_index} load={format_rational(c.load)} "
            f"case={c.case} benefit={format_rational(c.total)} "
            f"required={format_rational(c.required)} "
            f"margin={format_rational(c.margin)} status={c.status}")
    if verdict is not None:
        tag = format_rational(verdict.beta) if verdict.certified else "none"
        lines.append(f"certified_beta={tag}")
    return lines
