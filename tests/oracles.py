"""Brute-force reference implementations the tests compare against.

Everything here favors obviously-correct code over speed: factorial and
powerset enumeration with plain Fractions, one exact max-flow per vertex
pair where enumeration would be too large, and the simplex tableau and the
max-flow held in Fractions.  Nothing is imported from the package under
test except the exact max-flow routine and its FlowNetwork, which tests
hold to the Fraction max-flow below, the Gomory-Hu tree built on them,
which tests hold to every-pair flows, and the table of type codes, so an
agreement between a fast routine and its oracle is evidence, not
circularity.

First come the builders that several test modules share, so that each is
written once and no test module imports another: the all-ones instance,
the incidence vector and tree of a vertex sequence, the wall at k with its
narrow-cut chain and, when asked, its reassembled distribution, each
atom's path-join split, and the hypothesis strategies for random graphs,
chains and trees with the packing check.  They are not oracles: wall
builds its inputs with the package's narrow_cuts and reassemble, which
other tests hold to the references.

The checkers near the end are not agreement oracles: they restate what a
result must satisfy (a metric, a tight-cut basis of the wall fixture, an
exchange's promises) and use the package's classify, is_spanning_tree,
sweep table and wall fixture to do so.

Last come the certificate's stages (the gamma rule, benefits, correction
vectors, the verdict and its cost chain, reconstruction, the type census)
and the sweeps' grid pot as they were written on Fractions.  They share
the package's inputs to those stages (path-join splits, e^S_C, crossing
profiles, tree types, cheap edges, the membership and packing checks, the
canonical tree order) and hold only its int arithmetic to the Fraction
one.  fraction_gammas and correction_fractions are the Fraction views of
the package's gammas and of its z^S and y^S, which it keeps as ints over
one denominator each.

Then comes the minimum T-join with its degree rows added one call at a
time, on the package's simplex and separation: it holds the one-step
degree rows and the int reading of the LP vertex to the row-by-row build.

Last come three earlier forms of package code that tests hold the current
ones to: the simplex pivot on dense int rows, Gusfield's cut tree
re-hanging over every node, and the sweep that rescans its pot after every
exchange.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import numpy as np
from hypothesis import strategies as st

from pathtsp.cuts import (TYPE_CODES, XI, CutChain, gomory_hu_tree,
                          load_of_mask, narrow_cuts)
from pathtsp.flows import FlowNetwork, max_flow_min_cut
from pathtsp.instance import (Instance, build_appendix_instance,
                              complete_edges, edge, edges_cost, vector_cost)
from pathtsp.parity import (CASE_SPECS, BenefitAudit,
                            CorrectionVectors, CutAudit, GammaParams,
                            GammaTable, Verdict, check_join_membership,
                            check_packing, cheapest_cut_edges, f_value,
                            split_path_join, tjoin_cut_violations)
from pathtsp.reassembler import (EPS, SWEEPS, classify, exchange,
                                 reassemble, type_data)
from pathtsp.simplex import DEN_LIMIT, ExactSimplex, delta_rows
from pathtsp.tree_decomp import Atom, is_spanning_tree, tree_key

ZERO = Fraction(0)
HALF = Fraction(1, 2)


# ----- builders several test modules share -----

def uniform_instance(n, s=0, t=None):
    """The instance on n vertices with every cost 1, from s to t (by
    default n - 1)."""
    t = n - 1 if t is None else t
    cost = {e: Fraction(1) for e in complete_edges(n)}
    return Instance(n=n, s=s, t=t, cost=cost)


def path_x(seq):
    """The incidence vector of the path through the vertices of seq."""
    return {edge(a, b): Fraction(1) for a, b in zip(seq, seq[1:])}


def path_tree(seq):
    """The edge set of the path through the vertices of seq."""
    return frozenset(path_x(seq))


def wall(k, reassembled=False):
    """(Instance, xstar, distribution, chain) of the wall at k: its
    four-tree distribution, or that distribution reassembled on the
    chain."""
    inst, xstar, dist = build_appendix_instance(k)
    chain = narrow_cuts(xstar, inst)
    if reassembled:
        dist, _ = reassemble(dist, chain)
    return inst, xstar, dist, chain


def tree_parities(dist, inst):
    """Each atom's TreeParity, in dist's order, as best_of_many takes them."""
    return [split_path_join(atom.tree, inst) for atom in dist]


@st.composite
def rational_graphs(draw):
    """Up to 9 nodes, random rational capacities; zero-capacity and missing
    edges leave room for isolated nodes and disconnected graphs."""
    n = draw(st.integers(2, 9))
    cap = {}
    for e in combinations(range(n), 2):
        num = draw(st.integers(0, 6))
        if num and draw(st.booleans()):
            cap[e] = Fraction(num, draw(st.integers(1, 4)))
    return n, cap


def random_chain(draw, inst):
    """A random nested chain of inst from {s} to V - {t}, with a random
    xi-subset that always keeps both end levels, so that, as on real
    chains, some levels in between may not be xi-narrow.  Returns the chain
    and the vertex order its levels are prefixes of."""
    n, s, t = inst.n, inst.s, inst.t
    middle = draw(st.permutations([v for v in range(n) if v not in (s, t)]))
    order = [s, *middle, t]
    keep = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    sizes = [j for j in range(1, n) if keep[j - 1] or j in (1, n - 1)]
    masks = [sum(1 << v for v in order[:j]) for j in sizes]
    last = len(masks) - 1
    keep = draw(st.lists(st.booleans(), min_size=last + 1,
                         max_size=last + 1))
    xi_indices = [i for i in range(last + 1) if keep[i] or i in (0, last)]
    chain = CutChain(masks=masks, loads=[None] * len(masks),
                     xi_indices=xi_indices, inst=inst, x={})
    return chain, order


@st.composite
def trees_on_chains(draw):
    """(spanning tree, chain) on n <= 40 vertices.  The tree takes the
    vertices in a random order and hangs each from an earlier one: in three
    cases of four from one at most 1, 2 or 3 places away in the chain's
    vertex order, so that the tree crosses few cuts and types other than
    GOOD turn up, and otherwise from any earlier vertex."""
    n = draw(st.integers(2, 40))
    s, t = draw(st.permutations(range(n)))[:2]
    chain, order = random_chain(draw, Instance(n=n, s=s, t=t, cost={}))
    place = {v: j for j, v in enumerate(order)}
    reach = draw(st.sampled_from((1, 2, 3, n)))
    seq = draw(st.permutations(range(n)))
    tree = set()
    for i in range(1, n):
        v = seq[i]
        near = [u for u in seq[:i] if abs(place[u] - place[v]) <= reach]
        near = near or seq[:i]
        tree.add(edge(v, near[draw(st.integers(0, len(near) - 1))]))
    return frozenset(tree), chain


def packing_holds(chain, dist, inst):
    """Whether, on every edge e, the weight of the trees that cross a chain
    cut only at e, summed over the cuts, is at most the weight of the
    trees whose s-t path holds e."""
    lhs = {}
    for i, mask in enumerate(chain.masks):
        for atom in dist:
            cut = [e for e in atom.tree if ((mask >> e[0]) ^ (mask >> e[1])) & 1]
            if len(cut) == 1:
                lhs[cut[0]] = lhs.get(cut[0], Fraction(0)) + atom.weight
    rhs = {}
    for atom in dist:
        for e in split_path_join(atom.tree, inst).i_edges:
            rhs[e] = rhs.get(e, Fraction(0)) + atom.weight
    return all(v <= rhs.get(e, Fraction(0)) for e, v in lhs.items())


# ----- reference implementations -----


def cut_value(x, U):
    """x(delta(U)) computed straight from the definition."""
    U = set(U)
    return sum((v for (a, b), v in x.items() if (a in U) != (b in U)), ZERO)


def members(mask):
    """The vertex set of an int bitmask (bit v for vertex v)."""
    return frozenset(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def mask_of(U):
    """The int bitmask of a vertex set."""
    return sum(1 << v for v in U)


def matching_min_cost(T, inst):
    """Minimum perfect-matching cost on T, by exhaustive pairing."""
    T = sorted(T)
    if len(T) % 2:
        raise ValueError("odd vertex set has no perfect matching")
    if len(T) > 10:
        raise ValueError("oracle is factorial; keep |T| small")

    def rec(rest):
        if not rest:
            return ZERO
        first, rest = rest[0], rest[1:]
        return min(inst.cost[edge(first, rest[i])]
                   + rec(rest[:i] + rest[i + 1:])
                   for i in range(len(rest)))

    return rec(tuple(T))


def tjoin_subset_dp(T, inst):
    """Minimum-cost perfect matching on T (direct edges), by dynamic
    programming over the 2^|T| subsets of T; the join as a frozenset."""
    verts = sorted(T)
    if len(verts) % 2:
        raise ValueError("parity set has odd size")
    if not verts:
        return frozenset()
    k = len(verts)
    pair_cost = [[inst.cost[edge(a, b)] if a != b else ZERO
                  for b in verts] for a in verts]
    scale = lcm(*[c.denominator for row in pair_cost for c in row])
    w = [[int(c * scale) for c in row] for row in pair_cost]

    memo = {0: 0}
    choice = {}

    def solve(mask):
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = None
        best_j = None
        jm = rest
        while jm:
            j = (jm & -jm).bit_length() - 1
            jm &= jm - 1
            c = solve(rest ^ (1 << j)) + w[i][j]
            if best is None or c < best:
                best, best_j = c, j
        memo[mask] = best
        choice[mask] = best_j
        return best

    solve((1 << k) - 1)
    join = set()
    mask = (1 << k) - 1
    while mask:
        i = (mask & -mask).bit_length() - 1
        j = choice[mask]
        join.add((verts[i], verts[j]))  # i < j, so the edge is canonical
        mask ^= (1 << i) | (1 << j)
    assert sum((inst.cost[e] for e in join), ZERO) \
        == Fraction(memo[(1 << k) - 1], scale)
    return frozenset(join)


def path_min_cost(inst):
    """Cheapest Hamiltonian s-t path by trying every internal order."""
    inner = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    if len(inner) > 7:
        raise ValueError("oracle is factorial; keep n small")
    best = None
    for perm in permutations(inner):
        seq = (inst.s,) + perm + (inst.t,)
        cost = sum(inst.cost[edge(a, b)] for a, b in zip(seq, seq[1:]))
        if best is None or cost < best:
            best = cost
    return best


def s_side_subsets(inst):
    """All proper vertex subsets containing s but not all of V."""
    others = [v for v in range(inst.n) if v != inst.s]
    for size in range(len(others)):
        for extra in combinations(others, size):
            yield {inst.s, *extra}


def violated_cuts(x, inst):
    """Every violated cut constraint, by full subset enumeration."""
    out = []
    for U in s_side_subsets(inst):
        need = 2 if inst.t in U else 1
        load = cut_value(x, U)
        if load < need:
            out.append((frozenset(U), Fraction(need)))
    return out


def narrow_sets(x, inst):
    """All s-side sets with load < 2, as the cut-chain oracle."""
    return [frozenset(U) for U in s_side_subsets(inst)
            if cut_value(x, U) < 2]


def narrow_sets_all_pairs(x, inst):
    """All s-side sets with load < 2, from one exact min cut per vertex
    pair.  Complete for an LP-feasible x: a narrow cut is the unique cut of
    load < 2 between a vertex of the chain gap on its left and one of the
    gap on its right."""
    cap = {e: v for e, v in x.items() if v != 0}
    net = FlowNetwork(cap, inst.n)
    everything = frozenset(range(inst.n))
    found = set()
    for a, b in combinations(range(inst.n), 2):
        value, side = max_flow_min_cut(net, a, b)
        if Fraction(value, net.den) < 2:
            found.add(side if inst.s in side else everything - side)
    return found


def separate_all_pairs(x, inst):
    """Violated cuts as (U, required, load) in lp_relax.separate's order,
    from the min s-t cut (odd cuts) and one min cut per vertex pair of x
    with t merged into s (even cuts).  s is a node even when it has no
    edge.  Pairs run with the other vertices sorted by str and s last,
    source first, as the library's route does."""
    return _separate_by_pairs(x, inst, pruned=False)


def separate_every_pair(x, inst):
    """separate_all_pairs, with a flow only for the pairs that one
    Gomory-Hu tree of the merged support puts at connectivity below 2:
    lp_relax.separate's pair loop before it skipped the flows whose
    minimal min cut is already known."""
    return _separate_by_pairs(x, inst, pruned=True)


def _separate_by_pairs(x, inst, pruned):
    n, s, t = inst.n, inst.s, inst.t
    cap = {e: v for e, v in x.items() if v != 0}

    def canonical(side):
        U = set(side)
        if 0 not in U:
            U = set(range(n)) - U
        return tuple(sorted(U))

    found = {}
    odd = FlowNetwork(cap, n)
    value, side = max_flow_min_cut(odd, s, t)
    if Fraction(value, odd.den) < 1:
        U = canonical(side)
        found[U] = (U, Fraction(1), cut_value(x, U))
    merged = {}
    for (u, v), c in cap.items():
        u = s if u == t else u
        v = s if v == t else v
        if u != v:
            merged[edge(u, v)] = merged.get(edge(u, v), ZERO) + c
    nodes = sorted((v for v in range(n) if v not in (s, t)), key=str) + [s]
    net = FlowNetwork(merged, n)
    pairs = combinations(nodes, 2)
    if pruned:
        narrow = [members(cut) for cut, value in gomory_hu_tree(net, nodes)
                  if Fraction(value, net.den) < 2]
        group = {u: tuple(u in cut for cut in narrow) for u in nodes}
        pairs = [(a, b) for a, b in pairs if group[a] != group[b]]
    for a, b in pairs:
        value, side = max_flow_min_cut(net, a, b)
        if Fraction(value, net.den) < 2:
            U = canonical(side | {t} if s in side else side)
            need = Fraction(1 if (s in U) != (t in U) else 2)
            load = cut_value(x, U)
            if U not in found and load < need:
                found[U] = (U, need, load)
    return sorted(found.values(), key=lambda r: (r[2] - r[1], r[0]))


def tjoin_violations_enumerate(y, t_set, n):
    """Every U containing vertex 0 with |U cap T| odd and y(delta(U)) < 1,
    by enumerating the 2^(n-1) subsets in int64 arithmetic."""
    items = sorted((e, v) for e, v in y.items() if v != 0)
    denom = lcm(*[v.denominator for _, v in items]) if items else 1
    total = sum((v for _, v in items), ZERO)
    assert denom * (total + 2) < 1 << 61, "loads would overflow int64"
    idx = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
    parity = np.zeros(len(idx), dtype=np.int64)
    for v in t_set:
        parity ^= (idx >> v) & 1
    load = np.zeros(len(idx), dtype=np.int64)
    for (u, v), val in items:
        load += (((idx >> u) ^ (idx >> v)) & 1) * int(val * denom)
    bad = np.nonzero((parity == 1) & (load < denom))[0]
    return [tuple(v for v in range(n) if (int(idx[i]) >> v) & 1)
            for i in bad.tolist()]


def tree_polytope_violations(x, inst):
    """Check x(E) = n-1 and x(E[U]) <= |U|-1 (minus 2 when {s,t} inside U),
    for every nonempty proper U, by enumerating the 2^n subsets in int64
    arithmetic."""
    n, s, t = inst.n, inst.s, inst.t
    items = sorted((e, v) for e, v in x.items() if v != 0)
    out = []
    total = sum((v for _, v in items), ZERO)
    if total != n - 1:
        out.append(("x(E)", total))
    m = 1 << n
    idx = np.arange(m, dtype=np.int64)
    size = np.zeros(m, dtype=np.int64)
    for v in range(n):
        size += (idx >> v) & 1
    denom = lcm(*[v.denominator for _, v in items]) if items else 1
    assert denom * (n + 1) < 1 << 61, "loads would overflow int64"
    inside = np.zeros(m, dtype=np.int64)
    for (u, v), val in items:
        inside += ((idx >> u) & (idx >> v) & 1) * int(val * denom)
    st_in = (idx >> s) & (idx >> t) & 1
    bound = (size - 1 - st_in) * denom
    ok = (size == 0) | (idx == m - 1) | (inside <= bound)
    for i in np.nonzero(~ok)[0].tolist():
        mask = int(idx[i])
        U = tuple(v for v in range(n) if (mask >> v) & 1)
        out.append(("E[U]", U, Fraction(int(inside[i]), denom),
                    Fraction(int(bound[i]), denom)))
    return out


def shared_load(x, mask_a, mask_b):
    """x-mass on edges lying in BOTH cuts."""
    total = ZERO
    for (u, v), val in x.items():
        if (((mask_a >> u) ^ (mask_a >> v)) & 1
                and ((mask_b >> u) ^ (mask_b >> v)) & 1):
            total += val
    return total


def pairwise_intersection_check(chain, x):
    """Margins  load(C)/2 + load(C')/2 - 1 - x(C cap C')  for all pairs of
    chain cuts.

    Raises if any margin is negative (LP feasibility would be broken)."""
    margins = []
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            margin = (chain.loads[i] / 2 + chain.loads[j] / 2 - 1
                      - shared_load(x, chain.masks[i], chain.masks[j]))
            if margin < 0:
                raise ValueError(
                    f"cut pair ({i},{j}) has negative margin {margin}")
            margins.append(margin)
    return margins


def crossing_edges(tree, mask):
    """The edges of tree that cross the cut of mask, in the tree's order."""
    return [e for e in tree if ((mask >> e[0]) ^ (mask >> e[1])) & 1]


def crossings(tree, mask):
    """|S cap C| by scanning the tree against the cut's bitmask."""
    return len(crossing_edges(tree, mask))


def path_edge_at_cut(parity, mask):
    """e^S_C: the first path edge crossing the cut, walking the tree's s-t
    path from s."""
    for a, b in zip(parity.path_vertices, parity.path_vertices[1:]):
        if ((mask >> a) ^ (mask >> b)) & 1:
            return (min(a, b), max(a, b))
    raise ValueError("path does not cross the cut")


def cheapest_cut_edge(inst, mask):
    """Minimum-cost complete-graph edge crossing the cut, by scanning all
    n(n-1)/2 edges; ties go to the lexicographically smallest edge."""
    best = None
    for u, v in combinations(range(inst.n), 2):
        if ((mask >> u) ^ (mask >> v)) & 1:
            if best is None or (inst.cost[u, v], (u, v)) < (inst.cost[best],
                                                            best):
                best = (u, v)
    return best


def type_data_scan(tree, chain, i):
    """(code, l, m, r) of the tree at the i-th xi-narrow cut, by scanning
    the tree against the cut's bitmask and, for the singleton test, against
    every xi-narrow cut's."""
    masks = [chain.masks[j] for j in chain.xi_indices]
    last = len(masks) - 1
    if not 0 < i < last:
        raise ValueError(f"type queries are only defined at internal "
                         f"xi-narrow cuts, got index {i} of 0..{last}")
    cut = crossing_edges(tree, masks[i])
    m = len(cut)
    l = len(crossing_edges(cut, masks[i - 1]))
    r = len(crossing_edges(cut, masks[i + 1]))
    if m >= 3 or l + r >= 3:
        return "GOOD", l, m, r
    if l + r >= 1:
        cut_set = set(cut)
        defined = False
        for mk in masks:
            inter = crossing_edges(tree, mk)
            if len(inter) == 1 and inter[0] in cut_set:
                defined = True
                break
        if not defined:
            return "GOOD", l, m, r
    code = f"{l}{m}{r}"
    assert code in TYPE_CODES, f"impossible type {code}"
    return code, l, m, r


def min_cost_spanning_tree(inst):
    """Kruskal with (cost, edge) tie-break — the single-tree comparator."""
    component = list(range(inst.n))
    tree = set()
    for _, (u, v) in sorted((c, e) for e, c in inst.cost.items()):
        cu, cv = component[u], component[v]
        if cu != cv:
            component = [cu if c == cv else c for c in component]
            tree.add((u, v))
    assert len(tree) == inst.n - 1
    return frozenset(tree)


def spans(edges, n):
    """|edges| = n-1 and the graph is connected (breadth-first search)."""
    if len(set(edges)) != n - 1:
        return False
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def rational_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ----- the exact simplex on a Fraction tableau -----
#
# The tableau that pathtsp.simplex.ExactSimplex replaced: every entry a
# Fraction.  Kept as it was, except that add_constraint takes only a
# rhs >= 0, so no row is stored negated, and it takes and returns what
# ExactSimplex does: add_cut_row appends a >= row, add_cut_rows appends >=
# rows given as ints over a denominator, and basic_values and duals return
# values over the denominator 1.  It keeps its staged model: add_variable,
# then add_constraint, which still takes a sense, set up on the first
# solve.  ExactSimplex takes its costs and its equality rows with rhs >= 0
# in its constructor; the tests build this tableau from the same equalities
# (tests/test_simplex.py, FractionEqualities).  The integer-row tableau
# must pick the same pivots and return the same values.

ONE = Fraction(1)

STALL_LIMIT = 12  # degenerate pivots in a row before switching to Bland


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class FractionSimplex:
    """min cost.x  s.t.  rows (=, >=),  x >= 0 — all exact rationals."""

    def __init__(self):
        self.costs = []          # phase-2 cost per column
        self.is_artificial = []
        self.enterable = []      # artificials are banned once they leave
        self.rows = []           # tableau: rows[i] = list of coefs per column
        self.rhs = []
        self.basis = []          # basic column per row
        self.art_of_row = []     # artificial column per original row (-1: none)
        self.sp_of_row = {}      # surplus column of a row, where one exists
        self.z = None            # phase-2 reduced-cost row
        self.z1 = None           # phase-1 reduced-cost row (None once closed)
        self._setup_done = False
        self.pivots = 0

    # ----- model building (before setup) -----

    def add_variable(self, cost) -> int:
        assert not self._setup_done, "add_variable only before the first solve"
        self.costs.append(Fraction(cost))
        self.is_artificial.append(False)
        self.enterable.append(True)
        return len(self.costs) - 1

    def add_constraint(self, coeffs: dict, sense: str, rhs):
        """coeffs: {col: coef}; sense '=' or '>='."""
        assert not self._setup_done, "add_constraint only before the first solve"
        rhs = Fraction(rhs)
        assert rhs >= 0, "add_constraint takes a rhs >= 0"
        row = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        if sense == ">=":
            sp = self.add_variable(ZERO)
            row[sp] = Fraction(-1)
            self.sp_of_row[len(self.rows)] = sp
        elif sense != "=":
            raise ValueError(f"unknown sense {sense!r}")
        self.rows.append(row)  # densified in _setup
        self.rhs.append(rhs)

    def _setup(self):
        m = len(self.rows)
        for i in range(m):
            a = len(self.costs)
            self.costs.append(ZERO)
            self.is_artificial.append(True)
            self.enterable.append(True)
            self.art_of_row.append(a)
        ncols = len(self.costs)
        dense = []
        for i, row in enumerate(self.rows):
            r = [ZERO] * ncols
            for j, c in row.items():
                r[j] = c
            r[self.art_of_row[i]] = ONE
            dense.append(r)
        self.rows = dense
        self.basis = list(self.art_of_row)
        # phase-1 reduced costs (minimize the sum of artificials, basis = I)
        self.z1 = [ZERO] * ncols
        for i in range(m):
            row = self.rows[i]
            for j in range(ncols):
                self.z1[j] -= row[j]
        for a in self.art_of_row:
            self.z1[a] = ZERO
        # phase-2 reduced costs: the all-artificial basis has zero cost
        self.z = list(self.costs)
        self._setup_done = True

    def _ensure_setup(self):
        if not self._setup_done:
            self._setup()

    # ----- pivoting -----

    def _pivot(self, r, j):
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        piv = prow[j]
        assert piv != 0
        inv = ONE / piv
        rows[r] = prow = [c * inv for c in prow]
        rhs[r] *= inv
        nz = [jj for jj, c in enumerate(prow) if c != 0]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[j]
            if f != 0:
                for jj in nz:
                    row[jj] -= f * prow[jj]
                rhs[i] -= f * rhs[r]
        for zrow in (self.z, self.z1):
            if zrow is None:
                continue
            f = zrow[j]
            if f != 0:
                for jj in nz:
                    zrow[jj] -= f * prow[jj]
        leaving = self.basis[r]
        if self.is_artificial[leaving]:
            self.enterable[leaving] = False  # never let artificials back in
        self.basis[r] = j
        self.pivots += 1

    def _phase1_objective(self) -> Fraction:
        return sum((self.rhs[i] for i in range(len(self.rows))
                    if self.is_artificial[self.basis[i]]), ZERO)

    def objective(self) -> Fraction:
        return sum((self.costs[self.basis[i]] * self.rhs[i]
                    for i in range(len(self.rows))), ZERO)

    def _primal_steps(self, zrow_name):
        """Primal simplex to optimality on the chosen objective row."""
        phase1 = zrow_name == "z1"
        obj = self._phase1_objective() if phase1 else self.objective()
        stall = 0
        bland = False
        while True:
            zrow = self.z1 if phase1 else self.z
            enter = -1
            if bland:
                for j, rc in enumerate(zrow):
                    if rc < 0 and self.enterable[j]:
                        enter = j
                        break
            else:
                best = ZERO
                for j, rc in enumerate(zrow):
                    if rc < best and self.enterable[j]:
                        best = rc
                        enter = j
            if enter < 0:
                return
            # Ratio test.  A zero-rhs row whose basic variable is artificial
            # blocks at ratio 0 for ANY nonzero pivot entry: pivoting there
            # keeps every rhs unchanged and ejects the artificial, which must
            # never be allowed to rise above zero.
            leave = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if (self.rhs[i] == 0 and a != 0
                        and self.is_artificial[self.basis[i]]):
                    leave = i
                    break
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and self.basis[i] < self.basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise Unbounded(f"column {enter} is unbounded")
            self._pivot(leave, enter)
            new_obj = self._phase1_objective() if phase1 else self.objective()
            if new_obj == obj:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            obj = new_obj

    def _close_phase1(self):
        val = self._phase1_objective()
        if val != 0:
            raise Infeasible(f"phase-1 optimum {val} > 0")
        for j, isa in enumerate(self.is_artificial):
            if isa:
                self.enterable[j] = False
        # pivot zero-level artificials out of the basis where possible
        for i in range(len(self.rows)):
            if self.is_artificial[self.basis[i]] and self.rhs[i] == 0:
                for j, c in enumerate(self.rows[i]):
                    if c != 0 and not self.is_artificial[j]:
                        self._pivot(i, j)
                        break
        self.z1 = None

    def _dual_steps(self):
        """Restore primal feasibility after violated rows were appended."""
        while True:
            leave = -1
            worst = ZERO
            for i, b in enumerate(self.rhs):
                if b < worst:
                    worst = b
                    leave = i
            if leave < 0:
                return
            row = self.rows[leave]
            enter = -1
            best = None
            for j, a in enumerate(row):
                if a < 0 and self.enterable[j]:
                    ratio = self.z[j] / (-a)
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                raise Infeasible("dual step found an unsatisfiable row")
            self._pivot(leave, enter)

    # ----- solving -----

    def solve(self):
        """Two-phase solve; warm after add_cut_row via dual repair."""
        self._ensure_setup()
        if self.z1 is not None:
            self._primal_steps("z1")
            self._close_phase1()
        self._dual_steps()
        self._primal_steps("z")

    def solve_phase1(self) -> Fraction:
        """Run phase 1 to optimality and return its objective (may be > 0).

        Leaves phase 1 open so the caller can add_column() and call again:
        this is the column-generation master loop.
        """
        self._ensure_setup()
        assert self.z1 is not None, "phase 1 already closed"
        self._primal_steps("z1")
        return self._phase1_objective()

    # ----- warm modifications -----

    def add_cut_row(self, coeffs: dict, rhs):
        """Append a (typically violated) >= row; solve() repairs the basis."""
        assert self._setup_done and self.z1 is None
        rhs = Fraction(rhs)
        ncols = len(self.costs)
        raw = [ZERO] * ncols
        for j, c in coeffs.items():
            raw[j] = Fraction(c)
        sp = len(self.costs)
        self.costs.append(ZERO)
        self.is_artificial.append(False)
        self.enterable.append(True)
        for row in self.rows:
            row.append(ZERO)
        self.z.append(ZERO)
        raw.append(Fraction(-1))
        # express the new row in the current basis
        new_rhs = rhs
        for i, row in enumerate(self.rows):
            f = raw[self.basis[i]]
            if f != 0:
                for jj, c in enumerate(row):
                    if c != 0:
                        raw[jj] -= f * c
                new_rhs -= f * self.rhs[i]
        # flip signs so the surplus enters the basis with coefficient +1
        assert raw[sp] == -1
        raw = [-c for c in raw]
        new_rhs = -new_rhs
        row_id = len(self.rows)
        self.rows.append(raw)
        self.rhs.append(new_rhs)
        self.basis.append(sp)
        self.art_of_row.append(-1)
        self.sp_of_row[row_id] = sp
        return row_id

    def add_cut_rows(self, cuts) -> list:
        """ExactSimplex.add_cut_rows: one add_cut_row per (coeffs, b, d),
        the row coeffs.x >= b over d."""
        return [self.add_cut_row({j: Fraction(p, d) for j, p in coeffs.items()},
                                 Fraction(b, d)) for coeffs, b, d in cuts]

    def add_column(self, cost, coeffs: dict) -> int:
        """Append a structural column given its ORIGINAL-row coefficients.

        Valid while every row still carries its artificial column (true for
        the decomposition master, which never appends rows).
        """
        assert self._setup_done
        cost = Fraction(cost)
        m = len(self.rows)
        col = [ZERO] * m  # tableau column = B^-1 a, read off artificial cols
        for i0, a in coeffs.items():
            a = Fraction(a)
            if a == 0:
                continue
            acol = self.art_of_row[i0]
            assert acol >= 0, "add_column needs the row's artificial column"
            for i in range(m):
                c = self.rows[i][acol]
                if c != 0:
                    col[i] += a * c
        j = len(self.costs)
        self.costs.append(cost)
        self.is_artificial.append(False)
        self.enterable.append(True)
        for i in range(m):
            self.rows[i].append(col[i])
        y2, _ = self.duals("z")
        self.z.append(cost - sum((Fraction(a) * y2[i]
                                  for i, a in coeffs.items()), ZERO))
        if self.z1 is not None:
            y1, _ = self.duals("z1")
            self.z1.append(-sum((Fraction(a) * y1[i]
                                 for i, a in coeffs.items()), ZERO))
        return j

    # ----- reading results -----

    def solution(self) -> dict:
        out = {}
        for i, j in enumerate(self.basis):
            if self.rhs[i] != 0:
                out[j] = out.get(j, ZERO) + self.rhs[i]
        return out

    def basic_values(self) -> list:
        """(column, value, 1) for each basic column at a nonzero value, in
        row order: the Fraction values over the denominator 1, in
        ExactSimplex's form."""
        return [(j, b, 1) for j, b in zip(self.basis, self.rhs) if b]

    def duals(self, zrow_name="z"):
        """One multiplier per row, in row order, as (values, 1): the
        Fraction values over the denominator 1, in ExactSimplex's form.

        Read from the reduced cost of each row's unit column: for the
        artificial (+1 entry, cost 0 in phase 2 and 1 in phase 1) y_i is
        the negated reduced cost; for a surplus (-1 entry, cost 0) y_i is
        the reduced cost itself.
        """
        out = []
        for i in range(len(self.rows)):
            acol = self.art_of_row[i]
            if zrow_name == "z1":
                assert self.z1 is not None and acol >= 0
                y = ONE - self.z1[acol]
            elif acol >= 0:
                y = -self.z[acol]
            else:
                y = self.z[self.sp_of_row[i]]
            out.append(y)
        return out, 1

    def assert_optimal(self):
        assert all(b >= 0 for b in self.rhs), "primal infeasible tableau"
        bad = [j for j, rc in enumerate(self.z) if rc < 0 and self.enterable[j]]
        assert not bad, f"negative reduced costs remain: {bad[:5]}"


def full_path_lp_value(inst):
    """The path LP's optimum with every constraint written out: the degree
    equalities and one row per vertex set U with 2 <= |U| <= n - 2 (U
    taken to contain vertex 0), requiring 1 when U separates s and t and
    2 otherwise.  Exponential in n; keep n small."""
    n = inst.n
    sx = FractionSimplex()
    edges = [edge(u, v) for u, v in combinations(range(n), 2)]
    col = {e: sx.add_variable(inst.cost[e]) for e in edges}

    def delta(U):
        return {col[e]: 1 for e in edges if (e[0] in U) != (e[1] in U)}

    for v in range(n):
        sx.add_constraint(delta({v}), "=",
                          1 if v in (inst.s, inst.t) else 2)
    for size in range(1, n - 2):
        for extra in combinations(range(1, n), size):
            U = {0, *extra}
            sx.add_constraint(delta(U), ">=",
                              1 if (inst.s in U) != (inst.t in U) else 2)
    sx.solve()
    sx.assert_optimal()
    return sx.objective()


# ----- the exact max-flow on Fractions -----
#
# The Edmonds-Karp that pathtsp.flows.max_flow_min_cut replaced, kept as it
# was: Fraction residuals in dicts keyed by node pairs, set adjacency.  The
# integer routine must return the same value and the same source side.

def fraction_max_flow_min_cut(capacity: dict, source, sink):
    """capacity: {(u, v): cap} undirected, nodes are arbitrary hashables.

    Returns (flow_value, source_side frozenset).
    """
    assert source != sink
    residual = {}
    adj = {}
    for (u, v), cap in capacity.items():
        if cap < 0:
            raise ValueError("negative capacity")
        residual[(u, v)] = residual.get((u, v), ZERO) + cap
        residual[(v, u)] = residual.get((v, u), ZERO) + cap
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    adj.setdefault(source, set())
    adj.setdefault(sink, set())

    value = ZERO
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual.get((u, v), ZERO) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            side = frozenset(parent)
            return value, side
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            r = residual[(u, v)]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] = residual.get((v, u), ZERO) + bottleneck
            v = u
        value += bottleneck


def metric_closure_floyd_warshall(n, weighted_edges):
    """instance.metric_closure as it was, by Floyd-Warshall on an n x n
    table: the same distances, key order and disconnection error."""
    INF = None
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for (u, v), w in weighted_edges.items():
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for m in range(n):
        dm = dist[m]
        for u in range(n):
            dum = dist[u][m]
            if dum is None:
                continue
            du = dist[u]
            for v in range(n):
                if dm[v] is None:
                    continue
                alt = dum + dm[v]
                if du[v] is None or alt < du[v]:
                    du[v] = alt
    out = {}
    for u in range(n):
        for v in range(u + 1, n):
            if dist[u][v] is None:
                raise ValueError("support graph is disconnected")
            out[(u, v)] = Fraction(dist[u][v])
    return out


# ----- checkers: what a result must satisfy -----

def validate_metric(inst):
    """Every ordered triple (u,v,w) violating c(u,w) <= c(u,v) + c(v,w)."""
    bad = []
    c = inst.cost
    for u in range(inst.n):
        for w in range(inst.n):
            if u == w:
                continue
            cuw = c[edge(u, w)]
            for v in range(inst.n):
                if v == u or v == w:
                    continue
                if cuw > c[edge(u, v)] + c[edge(v, w)]:
                    bad.append((u, v, w))
    return bad


def appendix_certificate_sets(k=0):
    """Vertex sets whose cut constraints are tight at the wall fixture's
    xstar: the rung pairs (its value-1 edges), the c-block quadruple and
    every singleton.  Together exactly as many sets as support edges, with
    linearly independent cut incidence vectors."""
    inst, xstar, _ = build_appendix_instance(k)
    sets = [frozenset(e) for e, v in xstar.items() if v == 1]
    sets.append(frozenset(range(5, 9)))  # c1, c2, c3, c4 at every k
    sets += [frozenset([v]) for v in range(inst.n)]
    return sets


def appendix_wall_cut_indices(k=0):
    """Chain indices (0-based, in the full narrow-cut chain) of the wall
    fixture's wall cuts."""
    return list(range(5, 9 + 2 * k))


def validate_exchange_record(rec, chain):
    """Re-check everything the exchange promises; returns violation strings."""
    bad = []
    last = len(chain.xi_indices) - 1
    n = chain.inst.n
    i = rec.cut_index
    mirrored = rec.direction == "left"
    (want1, want2), fragile = SWEEPS[rec.direction]

    if rec.s1_new != rec.s1 - {rec.e1} | {rec.e2}:
        bad.append("s1_new is not s1 - e1 + e2")
    if rec.s2_new != rec.s2 - {rec.e2} | {rec.e1}:
        bad.append("s2_new is not s2 - e2 + e1")
    for name, tree in (("s1", rec.s1), ("s2", rec.s2),
                       ("s1_new", rec.s1_new), ("s2_new", rec.s2_new)):
        if not is_spanning_tree(tree, n):
            bad.append(f"{name} is not a spanning tree")
    if classify(rec.s1, chain, i) != want1:
        bad.append(f"s1 was not type {want1} at cut {i}")
    if classify(rec.s2, chain, i) != want2:
        bad.append(f"s2 was not type {want2} at cut {i}")
    if classify(rec.s1_new, chain, i) != "121":
        bad.append("s1_new is not type 121 at the exchange cut")
    if classify(rec.s2_new, chain, i) != "010":
        bad.append("s2_new is not type 010 at the exchange cut")

    protected = range(1, i) if not mirrored else range(i + 1, last)
    for j in protected:
        if classify(rec.s1, chain, j) != classify(rec.s1_new, chain, j):
            bad.append(f"(a) s1 type changed at protected cut {j}")
        if classify(rec.s2, chain, j) != classify(rec.s2_new, chain, j):
            bad.append(f"(a) s2 type changed at protected cut {j}")

    open_side = range(i + 1, last) if not mirrored else range(1, i)
    for j in open_side:
        tj = classify(rec.s1_new, chain, j)
        if tj in fragile and classify(rec.s1, chain, j) != tj:
            bad.append(f"(c) s1_new acquired fragile type {tj} at cut {j}")
    # claim inside the proof: s1_new is GOOD strictly between i and k
    if mirrored:
        claim = range(max(rec.k, 1), i)
    else:
        claim = range(i + 1, min(rec.k, last - 1) + 1)
    for j in claim:
        if classify(rec.s1_new, chain, j) != "GOOD":
            bad.append(f"(claim) s1_new not GOOD at cut {j}")
    for j in open_side:
        tj = classify(rec.s2_new, chain, j)
        if tj in fragile and classify(rec.s2, chain, j) != tj:
            span = range(i + 1, j + 1) if not mirrored else range(j, i)
            if not all(classify(rec.s1_new, chain, p) == "GOOD"
                       for p in span):
                bad.append(f"(d) s2_new acquired fragile type {tj} at "
                           f"cut {j} without s1_new GOOD cover")
    return bad


# ----- the certificate's stages in Fractions -----
# The package runs these stages on ints over common denominators; here
# they are kept as they were written on Fractions, line for line, so the
# tests can hold the int versions to the same values, verdicts and
# assertion messages.  The later stages read the package's GammaTable,
# each gamma as Fraction(v, table.g), and the profiles, types and cheap
# edges from the package, as the int versions do.

def assign_gamma_fraction(dist, chain: CutChain, params: GammaParams):
    """Per atom, gamma as a Fraction per path edge."""
    inst = chain.inst
    if not params.uniform_half:
        f_at = [f_value(params.beta, x) for x in chain.loads]
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
                for ci in range(*chain.levels_crossed(*e)):
                    k = cross_count[ci]
                    if k == 1:
                        one_cuts.append(f_at[ci])
                    elif k % 2 == 0:
                        even_cuts.append(f_at[ci])
                f1 = min(HALF, max(one_cuts)) if one_cuts else ZERO
                f2 = min(HALF, max(even_cuts)) if even_cuts else ZERO
                gamma[e] = f2 if f2 < f1 else 1 - f1
        assert all(0 <= g <= 1 for g in gamma.values())
        out.append(gamma)
    return out


def fraction_gammas(table: GammaTable) -> list:
    """The table's gammas, each as the Fraction it stands for: the form
    assign_gamma_fraction returns and the stages below read."""
    return [{e: Fraction(v, table.g) for e, v in gamma.items()}
            for gamma in table.gammas]


def benefit(gamma: Fraction, k_cross: int, cap: Fraction) -> Fraction:
    """The benefit of a tree at a chain level it crosses k_cross times,
    with gamma at its e^S_C there and cap = beta(2 - x(C))/(1 - 2beta) at
    that level."""
    if k_cross % 2 == 0:
        return min(cap, gamma)
    if k_cross == 1:
        return 1 - gamma
    return ZERO


def benefits_fraction(table: GammaTable) -> BenefitAudit:
    """Per-narrow-cut benefit audit of the table's distribution; margins
    may be negative (reported, never raised).  The per-tree invariants of
    the critical-cut case analysis are asserted wherever an active case
    exists — their failure would mean a code bug, not a legitimately
    failing instance.  They are consequences of the rule-based gamma, so
    under params.uniform_half the case machinery is skipped and the margins
    alone decide."""
    dist, chain, params = table.dist, table.chain, table.params
    gammas = fraction_gammas(table)
    beta = params.beta
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
            b = benefit(gammas[ai][table.e_paths[ai][ci]], k, cap)
            bens.append(b)
            total += atom.weight * b
            if k % 2 == 0:
                p_even += atom.weight
        required = cap * p_even
        margin = total - required

        f = f_value(beta, load)
        case = "less_critical" if f <= HALF else "none"
        eq17 = None
        eq18_ok = None
        pos = internal.get(ci)
        # a critical cut, whose case analysis reads the tree types; at the
        # default beta its load sits in a small window around 3/2, in
        # particular below XI and off the chain ends, so it is internal.  A
        # larger beta widens the window toward (1, 2), which can break
        # that; then no case applies and the margin alone decides.
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
                if pair_mass <= good + EPS:
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
                    assert a_sum <= EPS, "sum p_S a_S exceeded EPS"
                    break
            base = (1 + (5 - Fraction(3, 2) * (load + XI) - EPS)
                    * nu_half)
            eq17 = base - nu_many * p_many
            eq18_ok = base >= 2 * f
            if case != "none" and load >= 2 - XI / 3:
                assert 2 * total >= eq17, "weighted-sum bound failed"

        per_cut.append(CutAudit(
            cut_index=ci, load=load, case=case, total=total,
            required=required, margin=margin, eq17_bound=eq17,
            eq18_ok=eq18_ok, status="OK" if margin >= 0 else "FAIL"))
    return BenefitAudit(table=table, per_cut=per_cut,
                        all_ok=all(c.status == "OK" for c in per_cut))


def correction_fractions(cv: CorrectionVectors) -> CorrectionVectors:
    """cv with z^S and y^S as Fraction edge vectors over den 1: the form
    correction_vectors_fraction returns and the tests read."""
    def view(vecs):
        return [{e: Fraction(v, cv.den) for e, v in vec.items()}
                for vec in vecs]
    return CorrectionVectors(z=view(cv.z), y=view(cv.y), den=1,
                             e_cheap=cv.e_cheap)


def correction_vectors_fraction(table: GammaTable) -> CorrectionVectors:
    """z^S and y^S per atom of the table as Fractions over den 1, asserting
    the even-cut floor of z^S; certify_bound checks that each y^S is in the
    T_S-join dominant."""
    dist, chain = table.dist, table.chain
    gammas = fraction_gammas(table)
    beta = table.params.beta
    w1 = 1 - 2 * beta
    e_cheap = cheapest_cut_edges(chain)
    floor = [beta * (2 - load) for load in chain.loads]  # per level
    beta_x = {e: beta * v for e, v in chain.x.items()}
    zs, ys = [], []
    for atom, par, gamma, e_path in zip(dist, table.parities, gammas,
                                        table.e_paths):
        z = {}
        for e in par.i_edges:
            z[e] = z.get(e, ZERO) + w1 * gamma[e]
        counts = chain.profile(atom.tree).counts
        for ci, k in enumerate(counts):
            if k % 2 == 0:
                top = floor[ci] - w1 * gamma[e_path[ci]]
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
    return CorrectionVectors(z=zs, y=ys, den=1, e_cheap=e_cheap)


def certify_bound_fraction(audit: BenefitAudit,
                           cv: CorrectionVectors) -> Verdict:
    """Certified iff every narrow cut passed the benefit audit AND the
    correction vectors cv (built by correction_vectors from audit.table,
    in their Fraction view) are cheap enough:
        sum p_S c(z^S) <= (1 - 2 beta) sum p_S c(I_S).
    Every y^S is checked for T_S-join membership on every call, and when
    the audit passed, the whole cost chain behind that implication is
    re-derived step by step (any failure is a bug, hence an assertion)."""
    table = audit.table
    dist, chain, params = table.dist, table.chain, table.params
    inst = chain.inst
    check_join_membership(cv, table)
    beta = params.beta
    w1 = 1 - 2 * beta
    z_cost = sum((atom.weight * vector_cost(cv.z[ai], inst)
                  for ai, atom in enumerate(dist)), ZERO)
    path_cost = sum((atom.weight * edges_cost(par.i_edges, inst)
                     for atom, par in zip(dist, table.parities)), ZERO)
    if audit.all_ok:
        _verify_cost_chain_fraction(dist, chain, fraction_gammas(table),
                                    table.e_paths, params, cv, z_cost,
                                    path_cost)
    certified = audit.all_ok and z_cost <= w1 * path_cost
    return Verdict(certified=certified,
                   label="certified" if certified else "fallback",
                   bound=(2 - beta) if certified else Fraction(5, 3),
                   z_cost=z_cost, path_cost=path_cost)


def _verify_cost_chain_fraction(dist, chain, gammas, e_paths, params, cv,
                                z_cost, path_cost):
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
        for atom, prof, gamma, e_path in zip(dist, profiles, gammas,
                                             e_paths):
            k = prof.counts[ci]
            esc = e_path[ci]
            if k % 2 == 0:
                top = max(ZERO, beta * (2 - load) - w1 * gamma[esc])
                tops += atom.weight * top
            elif k == 1:
                assert prof.single[ci] == esc
                slack += atom.weight * (1 - gamma[esc])
                assert chain.inst.cost[cv.e_cheap[ci]] \
                    <= chain.inst.cost[esc]
        assert tops <= w1 * slack, f"stepping stone failed at cut {ci}"
    # per atom: narrow cuts crossed once are defined by distinct path edges
    check_packing(dist, chain)
    assert z_cost <= w1 * path_cost, "cost chain conclusion failed"


def reconstruct(dist) -> dict:
    """Sum of weight * tree incidence, as an exact edge vector of Fractions
    without its zero entries."""
    x = {}
    for atom in dist:
        for e in atom.tree:
            x[e] = x.get(e, ZERO) + atom.weight
    return {e: v for e, v in x.items() if v != 0}


def grid_pot(dist, quantum):
    """(pot, tree_of, residual): dist's weights rounded down onto the grid
    of step quantum, in Fractions, as sweep reads them.  pot maps each
    tree_key to its int count of steps, tree_of each key to its first
    tree; residual holds the leftovers as atoms, in dist's order."""
    pot, tree_of, residual = {}, {}, []
    for a in dist:
        steps = a.weight // quantum
        if steps:
            key = tree_key(a.tree)
            pot[key] = pot.get(key, 0) + steps
            tree_of.setdefault(key, a.tree)
        if a.weight > steps * quantum:
            residual.append(Atom(a.tree, a.weight - steps * quantum))
    return pot, tree_of, residual


def pot_atoms(pot, tree_of, quantum):
    """A grid pot as atoms, in canonical tree order."""
    return [Atom(tree_of[k], w * quantum) for k, w in sorted(pot.items())]


def type_census_fraction(dist, chain: CutChain, i: int) -> dict:
    """Total weight per type code at internal xi-cut i."""
    census = {}
    for atom in dist:
        code = classify(atom.tree, chain, i)
        census[code] = census.get(code, ZERO) + atom.weight
    return census


# ----- the minimum T-join with its degree rows added one at a time -----
#
# bomc.min_tjoin as it was before its 2|T| degree rows went into the tableau
# in one step: each row is its own add_cut_row call, and each round reads
# the LP vertex through solution(), one Fraction per basic column.  It runs
# the package's ExactSimplex, so the two must give the same tableau, the
# same pivots and the same join.

def degree_rows_one_at_a_time(T, inst):
    """(ExactSimplex, pairs, delta) of the matching LP on T just after its
    |T| + 1 degree rows went in, one add_cut_row call each: every star
    >= 1, then -y(E) >= -|T|/2."""
    verts = sorted(T)
    k = len(verts)
    pairs = complete_edges(k)
    sx = ExactSimplex([inst.cost[edge(verts[i], verts[j])] for i, j in pairs])
    delta_coeffs = delta_rows(pairs, k)
    for v in range(k):
        sx.add_cut_row(delta_coeffs({v}), 1)
    sx.add_cut_row(dict.fromkeys(range(len(pairs)), -1), -(k // 2))
    return sx, pairs, delta_coeffs


def min_tjoin_one_row_at_a_time(T, inst):
    """(join, pivots): the minimum T-join and the pivots it took."""
    verts = sorted(T)
    k = len(verts)
    assert k % 2 == 0
    if not verts:
        return frozenset(), 0
    sx, pairs, delta_coeffs = degree_rows_one_at_a_time(T, inst)
    sx.solve()
    while True:
        y = {pairs[j]: v for j, v in sorted(sx.solution().items())
             if j < len(pairs)}
        if all(val == 1 for val in y.values()):
            break
        for U in tjoin_cut_violations(y, range(k), k, 1):
            sx.add_cut_row(delta_coeffs(U), 1)
        sx.solve()
    return frozenset(edge(verts[i], verts[j]) for i, j in y), sx.pivots


# ----- the simplex pivot on dense int rows -----
#
# simplex._reduced, simplex._eliminate and ExactSimplex._pivot as they were
# before they touched only a row's nonzeros: every entry is scanned, scaled
# and divided, and a scaled or divided row is a new list.  A row's gcd is
# the gcd of its nonzeros, so both must store the same ints.  Both keep a
# rescaled row unreduced while its denominator is below DEN_LIMIT.

def reduced_dense(row, b, d):
    """(row, b, d) divided by the gcd of all its entries, taken with the
    sign of d; a new row when that gcd is not 1."""
    if d == 1:
        return row, b, d
    g = gcd(d, b, *row)
    if d < 0:
        g = -g
    if g == 1:
        return row, b, d
    return [c // g for c in row], b // g, d // g


def eliminate_dense(row, b, d, f, pivot_nz, pb, pd):
    """(row, b) / d minus f / d times the pivot row (pivot_nz, pb) / pd, on
    a copy of row; reduced when d was scaled to DEN_LIMIT or more."""
    g = gcd(f, pd)
    s, f = pd // g, f // g
    row = [c * s for c in row]
    for jj, p in pivot_nz:
        row[jj] -= f * p
    b, d = b * s - f * pb, d * s
    if s == 1 or d < DEN_LIMIT:
        return row, b, d
    return reduced_dense(row, b, d)


def pivot_dense(rows, rhs, den, z, zden, r, j):
    """(rows, rhs, den, z, zden) after a pivot on row r, column j, as new
    lists: the pivot row over its pivot entry, reduced, and the column
    eliminated from every other row and from the cost row z."""
    rows, rhs, den = [list(row) for row in rows], list(rhs), list(den)
    rows[r], rhs[r], den[r] = prow, pb, pd = reduced_dense(rows[r], rhs[r],
                                                           rows[r][j])
    pivot_nz = [(jj, p) for jj, p in enumerate(prow) if p]
    for i, row in enumerate(rows):
        if row[j] and i != r:
            rows[i], rhs[i], den[i] = eliminate_dense(row, rhs[i], den[i],
                                                      row[j], pivot_nz, pb, pd)
    if z[j]:
        z, _, zden = eliminate_dense(z, 0, zden, z[j], pivot_nz, 0, pd)
    return rows, rhs, den, list(z), zden


# ----- Gusfield's cut tree, re-hanging over every node -----
#
# cuts.gomory_hu_tree as it was before its re-hanging loop went over the
# flow's side alone: it scans every node for the ones on the side that hang
# from t.  Separation's cut lists depend on the exact tree, so the two must
# return the same list.

def gomory_hu_tree_all_nodes(net: FlowNetwork, nodes) -> list:
    """One (side, value) pair per tree edge, as cuts.gomory_hu_tree."""
    nodes = list(nodes)
    if len(nodes) < 2:
        return []
    root = nodes[0]
    parent = {v: root for v in nodes}
    value = {}
    for s in nodes[1:]:
        t = parent[s]
        flow, side = max_flow_min_cut(net, s, t)
        for v in nodes:
            if v != s and v in side and parent[v] == t:
                parent[v] = s
        value[s] = flow
        if parent[t] in side:
            parent[s] = parent[t]
            parent[t] = s
            value[s] = value[t]
            value[t] = flow
    children = {v: [] for v in nodes}
    for v in nodes[1:]:
        children[parent[v]].append(v)
    order = [root]
    for v in order:
        order.extend(children[v])
    below = {v: 1 << v for v in nodes}
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    return [(below[v], value[v]) for v in nodes[1:]]


# ----- the sweep that rescans the pot after every exchange -----
#
# reassembler.sweep as it was before each cut listed its two exchanged types'
# keys once: after every exchange it reclassifies the whole pot at the cut
# and pairs the smallest key of each type.  Which keys pair decides the
# records and the pot, so the two must give the same ones.

def sweep_rescanning(pot, tree_of, chain: CutChain, direction: str, quantum):
    """sweep's exchanges on pot and tree_of in place, with no contract
    check; returns the exchange records."""
    last = len(chain.xi_indices) - 1
    (want1, want2), _ = SWEEPS[direction]
    records = []
    order = range(1, last) if direction == "right" else range(last - 1, 0, -1)
    for i in order:
        while True:
            ones = []
            twos = []
            for key in sorted(pot):
                code = classify(tree_of[key], chain, i)
                if code == want1:
                    ones.append(key)
                elif code == want2:
                    twos.append(key)
            if not ones or not twos:
                break
            k1, k2 = ones[0], twos[0]
            delta = min(pot[k1], pot[k2])
            rec = exchange(tree_of[k1], tree_of[k2], chain, i, direction,
                           delta * quantum)
            records.append(rec)
            for key, tree in ((k1, rec.s1_new), (k2, rec.s2_new)):
                pot[key] -= delta
                if pot[key] == 0:
                    del pot[key]
                nk = tree_key(tree)
                pot[nk] = pot.get(nk, 0) + delta
                tree_of.setdefault(nk, tree)
    return records
