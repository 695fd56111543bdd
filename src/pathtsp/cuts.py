"""Narrow cuts of an LP point: the chain, its statistics, and checks.

A cut here is delta(L) for a vertex set L with s in L, t not in L; it is
narrow when its load x(delta(L)) is below 2.  For a feasible LP point the
narrow cuts are totally ordered by inclusion of their s-sides — that chain,
the sub-chain of xi-narrow cuts (load < XI), and the per-cut crossing
statistics of a tree distribution are what the reassembly stage consumes.

The chain is read off one Gomory-Hu cut tree (Gusfield 1990), built from
n-1 exact max-flows; the LP separation uses the same tree, and parity's
T-join membership check builds it on the terminals T only, from |T| - 1
flows.  For a feasible LP point a narrow cut is the unique minimum cut
between any vertex of the chain gap on its left and any vertex of the gap
on its right, so it is always one of the tree's fundamental cuts.  The
tree's sides are laminar, so turned to hold s, those that leave t out
nest; CutChain checks that they do.

A vertex set is an int bitmask (bit v for vertex v) from the cut tree up:
the tree's sides, the chain's levels and load_of_mask all take that form,
and the chain derives its levels' sorted vertex tuples for the reports.
Because the levels are nested, each vertex also has a layer, the first
level whose tuple holds it (t is in none, so its layer is the chain
length), and an edge crosses exactly the levels from the lower of its
endpoints' layers up to, not including, the higher one.  That is the one
crossing rule: CutChain.levels_crossed applies it, and every module that
asks which levels an edge crosses asks that method, so only this module
reads the layers.  One pass over a tree's edges gives everything the later
stages ask about the tree: each edge adds itself to a difference array of
crossing counts over its level interval and is laid over that interval
with one list slice, so a level crossed once holds its lone edge.  That is
the tree's crossing profile, built once per tree and kept on the chain,
with the tree's type code at every internal xi-narrow cut (the rule is in
`reassembler`'s docstring).

A level's load is the flow value of the cut-tree edge that gives it, so the
chain reads every load off the tree, one Fraction per level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, pairwise

from .flows import FlowNetwork, max_flow_min_cut
from .instance import ZERO, Instance
from .tree_decomp import total_weight

# the paper's xi, fixed: a cut of load below XI is xi-narrow
XI = Fraction(173, 100)

# the type codes a tree can have at an internal xi-narrow cut
TYPE_CODES = ("010", "011", "110", "111", "020", "021", "120",
              "022", "220", "121", "GOOD")
# (l, m, r) -> its code "lmr", one string shared by every profile
CODE_OF = {tuple(map(int, c)): c for c in TYPE_CODES if c != "GOOD"}


class ChainError(Exception):
    """No LP-feasible x has these load<2 cuts: one holds both path ends,
    they do not run from {s} to V-{t}, or an end cut's load is not 1."""


def load_of_mask(x: dict, mask: int):
    """x(delta(mask)), in the type of x's values (ints or Fractions)."""
    return sum(v for (a, b), v in x.items() if ((mask >> a) ^ (mask >> b)) & 1)


@dataclass(frozen=True)
class CrossingProfile:
    """How one spanning tree S meets the cuts of a chain.

    counts[c]  |S cap C| at chain level c;
    single[c]  the edge e when S cap C = {e} at level c, else None;
    types[p]   (l, m, r) at the p-th xi-narrow cut C: m = |S cap C|, and
               l and r count the edges of S cap C that also cross the
               previous and the next xi-narrow cut (0 at the two ends).
    codes[p]   the type code of S at the p-th xi-narrow cut when it is
               internal (0 < p < the last position), else None.
    """
    counts: list
    single: list
    types: list
    codes: list


@dataclass
class CutChain:
    masks: list           # int bitmask per level, strictly nested s-sides
    loads: list           # Fraction load per level
    xi_indices: list      # chain indices with load < XI
    inst: Instance        # the instance and LP point the chain belongs to
    x: dict
    # derived from masks: levels[c] is level c as a sorted vertex tuple;
    # layer[v] is the first level containing v, and len(masks) for a
    # vertex in none (t)
    levels: list = field(init=False, repr=False, compare=False)
    layer: list = field(init=False, repr=False, compare=False)
    # xi_at[c]: the first xi-position whose chain index is at least c
    _xi_at: list = field(init=False, repr=False, compare=False)
    _profiles: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size, n = len(self.masks), self.inst.n
        if any(inner & ~outer for inner, outer in pairwise(self.masks)):
            raise ValueError("chain levels must be nested")
        self.levels = [tuple(v for v in range(n) if (m >> v) & 1)
                       for m in self.masks]
        self.layer = [size] * n
        for i in reversed(range(size)):  # so the first level holding v wins
            for v in self.levels[i]:
                self.layer[v] = i
        self._xi_at = [bisect_left(self.xi_indices, c)
                       for c in range(size + 1)]
        self._profiles = {}

    def __len__(self):
        return len(self.levels)

    def levels_crossed(self, u: int, v: int):
        """(lo, hi): the edge uv crosses exactly the levels lo..hi - 1, the
        lower of its endpoints' layers up to the higher; lo == hi when it
        crosses none."""
        a, b = self.layer[u], self.layer[v]
        return (a, b) if a <= b else (b, a)

    def profile(self, tree) -> CrossingProfile:
        """The crossing profile of tree (a frozenset of edges), built on
        first request and kept for the chain's lifetime."""
        prof = self._profiles.get(tree)
        if prof is None:
            prof = self._profiles[tree] = self._build_profile(tree)
        return prof

    def _build_profile(self, tree) -> CrossingProfile:
        size, xi, xi_at = len(self.masks), self.xi_indices, self._xi_at
        npos = len(xi)
        count = [0] * (size + 1)  # |S cap C| by level, as a difference array
        last = [None] * size      # the last crossing edge laid on each level
        spans = {}     # edge -> the xi-positions [pa, pb) it crosses
        # the edges crossing xi-cuts p - 1 and p, as a difference array
        both = [0] * (npos + 1)
        for e in tree:
            a, b = self.levels_crossed(*e)
            if a == b:
                continue
            count[a] += 1
            count[b] -= 1
            last[a:b] = [e] * (b - a)
            pa, pb = spans[e] = xi_at[a], xi_at[b]
            if pb - pa >= 2:
                both[pa + 1] += 1
                both[pb] -= 1
        counts = list(accumulate(count[:size]))
        # a level crossed once has had one edge laid on it: its lone edge
        single = [e if c == 1 else None for c, e in zip(counts, last)]
        shared = list(accumulate(both))  # edges crossing xi-cuts p - 1, p
        # marked[p] at the p-th xi-narrow cut C when some xi-narrow cut C'
        # has S cap C' = {e} for an edge e of S cap C
        marked = [False] * npos
        for ci in xi:
            if single[ci] is not None:
                pa, pb = spans[single[ci]]
                marked[pa:pb] = [True] * (pb - pa)
        types, codes = [], []
        for p, ci in enumerate(xi):
            l, m, r = shared[p], counts[ci], shared[p + 1]
            types.append((l, m, r))
            if not 0 < p < npos - 1:
                code = None
            elif m >= 3 or l + r >= 3 or (l + r >= 1 and not marked[p]):
                code = "GOOD"
            else:
                code = CODE_OF.get((l, m, r))
                assert code is not None, f"impossible type {l}{m}{r}"
            codes.append(code)
        return CrossingProfile(counts=counts, single=single, types=types,
                               codes=codes)


def gomory_hu_tree(net: FlowNetwork, nodes) -> list:
    """Gusfield's (1990) cut tree of an undirected graph, from
    len(nodes) - 1 exact max-flows on one network and no contraction.

    net: the graph's FlowNetwork, built once by the caller, who may go on
    querying it; nodes: the vertices to span, isolated ones included, all
    of the graph's vertices or a subset of them (Gusfield's terminals).
    Returns one (side, value) pair per tree edge, none for fewer than two
    nodes: side is the int bitmask of the nodes below the edge when the
    tree hangs from nodes[0], and value is the edge's flow value as an int
    over net.den, as max_flow_min_cut returns it.  The side is the node
    part of a minimum cut of that value: with every vertex as a node it is
    that cut's vertex set, and value / net.den is the capacity of
    delta(side).  For nodes a and b, the minimum a-b cut value is the least
    value among the edges whose side separates a from b, and the side of
    such an edge is the node part of a minimum a-b cut.
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        return []
    root = nodes[0]
    parent = {v: root for v in nodes}
    value = {}
    for s in nodes[1:]:
        t = parent[s]
        flow, side = max_flow_min_cut(net, s, t)
        for v in side:  # side may hold non-nodes, which have no parent
            if v != s and parent.get(v) == t:
                parent[v] = s
        value[s] = flow
        # the swap keeps every subtree a minimum cut, not just flow-equivalent
        if parent[t] in side:
            parent[s] = parent[t]
            parent[t] = s
            value[s] = value[t]
            value[t] = flow
    children = {v: [] for v in nodes}
    for v in nodes[1:]:
        children[parent[v]].append(v)
    order = [root]
    for v in order:  # breadth-first: parents before children
        order.extend(children[v])
    below = {v: 1 << v for v in nodes}
    for v in reversed(order[1:]):  # children before parents
        below[parent[v]] |= below[v]
    return [(below[v], value[v]) for v in nodes[1:]]


def narrow_cuts(x: dict, inst: Instance) -> CutChain:
    """All cuts with load < 2, assembled into the nested chain: the
    fundamental cuts of value < 2 of one Gomory-Hu tree of x, which are
    all such cuts when x is LP-feasible."""
    n, s, t = inst.n, inst.s, inst.t
    cap = {e: v for e, v in x.items() if v != 0}

    full = (1 << n) - 1
    net = FlowNetwork(cap, n)
    oriented = {}   # s-side -> the load of its cut, over net.den
    for mask, value in gomory_hu_tree(net, range(n)):
        if value >= 2 * net.den:
            continue
        if not (mask >> s) & 1:
            mask ^= full
        if (mask >> t) & 1:
            raise ChainError("narrow cut contains both path ends")
        oriented[mask] = value
    levels = sorted(oriented, key=lambda m: (m.bit_count(), m))
    if not levels or levels[0] != 1 << s:
        raise ChainError(f"chain does not start at {{{s}}}")
    if levels[-1] != full ^ (1 << t):
        raise ChainError(f"chain does not end at V-{{{t}}}")

    loads = [Fraction(oriented[m], net.den) for m in levels]
    if loads[0] != 1 or loads[-1] != 1:
        raise ChainError("end cuts must have load 1")
    assert all(lo < 2 for lo in loads)
    xi_indices = [i for i, lo in enumerate(loads) if lo < XI]
    return CutChain(masks=levels, loads=loads, xi_indices=xi_indices,
                    inst=inst, x=cap)


# ----- per-cut crossing statistics of a distribution -----

@dataclass(frozen=True)
class CutStat:
    load: Fraction
    p_even: Fraction
    p_one: Fraction
    p_many: Fraction


def cut_stats(chain: CutChain, dist) -> list:
    """One CutStat per chain level; asserts that the weights sum to 1 and
    the crossing identities."""
    assert total_weight(dist) == 1, "total weight is not 1"
    out = []
    counts = [chain.profile(atom.tree).counts for atom in dist]
    for i, load in enumerate(chain.loads):
        p_even = ZERO
        p_one = ZERO
        p_many = ZERO
        weighted = ZERO
        for atom, count in zip(dist, counts):
            k = count[i]
            assert k >= 1, "a spanning tree must cross every cut"
            weighted += atom.weight * k
            if k % 2 == 0:
                p_even += atom.weight
            elif k == 1:
                p_one += atom.weight
            p_many += atom.weight * ((k - 1) // 2)
        assert weighted == load, "x(C) = sum p_S |S cap C| failed"
        assert p_even <= load - 1
        assert p_one >= 2 - load
        assert p_many == (load - 1 - p_even) / 2
        out.append(CutStat(load=load, p_even=p_even, p_one=p_one,
                           p_many=p_many))
    return out
