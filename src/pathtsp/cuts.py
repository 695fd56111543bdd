"""Narrow cuts of an LP point: the chain, its statistics, and checks.

A cut here is delta(L) for a vertex set L with s in L, t not in L; it is
narrow when its load x(delta(L)) is below 2.  For a feasible LP point the
narrow cuts are totally ordered by inclusion of their s-sides — that chain,
the sub-chain of xi-narrow cuts (load < xi), and the per-cut crossing
statistics of a tree distribution are what the reassembly stage consumes.

The chain is read off one Gomory-Hu cut tree (Gusfield 1990), built from
n-1 exact max-flows; parity's T-join membership check and the LP
separation above n = 22 use the same tree.  For a feasible LP point a
narrow cut is the unique minimum cut between any vertex of the chain gap
on its left and any vertex of the gap on its right, so it is always one of
the tree's fundamental cuts.

Levels are carried both as sorted vertex tuples and as int bitmasks; the
bitmask makes "does edge (u,v) cross cut i" a two-shift test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flows import max_flow_min_cut
from .instance import Instance, format_rational
from .tree_decomp import total_weight

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)
XI_DEFAULT = Fraction(173, 100)


class ChainError(Exception):
    """The load<2 cuts fail to nest — the input x cannot be LP-feasible."""


def crossing_mask(mask: int, u: int, v: int) -> bool:
    return ((mask >> u) & 1) != ((mask >> v) & 1)


def crossing_edges(tree, mask: int) -> list:
    """The edges of tree that cross the cut of mask, in the tree's order."""
    return [e for e in tree if ((mask >> e[0]) ^ (mask >> e[1])) & 1]


def crossings(tree, mask: int) -> int:
    return sum(1 for (u, v) in tree if ((mask >> u) ^ (mask >> v)) & 1)


def load_of_mask(x: dict, mask: int) -> Fraction:
    total = ZERO
    for (u, v), val in x.items():
        if ((mask >> u) ^ (mask >> v)) & 1:
            total += val
    return total


@dataclass
class CutChain:
    levels: list          # sorted vertex tuples, strictly nested s-sides
    masks: list           # int bitmask per level
    loads: list           # Fraction load per level
    xi: Fraction
    xi_indices: list      # chain indices with load < xi
    inst: Instance        # the instance and LP point the chain belongs to
    x: dict

    def __len__(self):
        return len(self.levels)


def gomory_hu_tree(capacity: dict, nodes) -> list:
    """Gusfield's (1990) cut tree of an undirected graph, from
    len(nodes) - 1 exact max-flows and no contraction.

    capacity: {(u, v): cap} as for max_flow_min_cut; nodes: every vertex,
    isolated ones included.  Returns one (side, value) pair per tree edge:
    side is the frozenset of nodes below the edge when the tree hangs from
    nodes[0], value is the edge's flow value and equals capacity(delta(side)).
    The minimum a-b cut value is the least value among the edges whose side
    separates a from b, and the side of such an edge is a minimum a-b cut.
    """
    nodes = list(nodes)
    root = nodes[0]
    parent = {v: root for v in nodes}
    value = {}
    for s in nodes[1:]:
        t = parent[s]
        flow, side = max_flow_min_cut(capacity, s, t)
        for v in nodes:
            if v != s and v in side and parent[v] == t:
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
    below = {}
    for v in reversed(order):
        below[v] = frozenset({v}).union(*(below[c] for c in children[v]))
    return [(below[v], value[v]) for v in nodes[1:]]


def narrow_cuts(x: dict, inst: Instance, xi=XI_DEFAULT) -> CutChain:
    """All cuts with load < 2, assembled into the nested chain: the
    fundamental cuts of value < 2 of one Gomory-Hu tree of x, which are
    all such cuts when x is LP-feasible."""
    n, s, t = inst.n, inst.s, inst.t
    xi = Fraction(xi)
    cap = {e: v for e, v in x.items() if v != 0}

    full = (1 << n) - 1
    oriented = set()
    for side, value in gomory_hu_tree(cap, range(n)):
        if value >= 2:
            continue
        mask = sum(1 << v for v in side)
        if not (mask >> s) & 1:
            mask ^= full
        if (mask >> t) & 1:
            raise ChainError("narrow cut contains both path ends")
        oriented.add(mask)
    levels = sorted(oriented, key=lambda m: (bin(m).count("1"), m))
    for a, b in zip(levels, levels[1:]):
        if a & ~b:
            raise ChainError("narrow cuts do not form a chain")
    if levels[0] != 1 << s:
        raise ChainError("chain does not start at {s}")
    if levels[-1] != full ^ (1 << t):
        raise ChainError("chain does not end at V-{t}")

    loads = [load_of_mask(x, m) for m in levels]
    if loads[0] != 1 or loads[-1] != 1:
        raise ChainError("end cuts must have load 1")
    assert all(lo < 2 for lo in loads)
    xi_indices = [i for i, lo in enumerate(loads) if lo < xi]
    tuples = [tuple(v for v in range(n) if (m >> v) & 1) for m in levels]
    return CutChain(levels=tuples, masks=levels, loads=loads, xi=xi,
                    xi_indices=xi_indices, inst=inst, x=cap)


# ----- per-cut crossing statistics of a distribution -----

@dataclass
class CutStat:
    load: Fraction
    p_even: Fraction
    p_one: Fraction
    p_many: Fraction


def cut_stats(chain: CutChain, dist) -> list:
    """One CutStat per chain level; asserts the crossing identities."""
    out = []
    total = total_weight(dist)
    for i, mask in enumerate(chain.masks):
        load = chain.loads[i]
        p_even = ZERO
        p_one = ZERO
        p_many = ZERO
        weighted = ZERO
        for atom in dist:
            k = crossings(atom.tree, mask)
            assert k >= 1, "a spanning tree must cross every cut"
            weighted += atom.weight * k
            if k % 2 == 0:
                p_even += atom.weight
            elif k == 1:
                p_one += atom.weight
            p_many += atom.weight * ((k - 1) // 2)
        if total == 1:
            assert weighted == load, "x(C) = sum p_S |S cap C| failed"
            assert p_even <= load - 1
            assert p_one >= 2 - load
            assert p_many == (load - 1 - p_even) / 2
        out.append(CutStat(load=load, p_even=p_even, p_one=p_one,
                           p_many=p_many))
    return out


# ----- report formatting -----

def format_cut_report(chain: CutChain) -> list:
    lines = ["cuts:"]
    for i, level in enumerate(chain.levels):
        ids = " ".join(str(v) for v in level)
        xi_flag = "yes" if i in chain.xi_indices else "no"
        lines.append(f"  {ids} load {format_rational(chain.loads[i])} "
                     f"xi_narrow: {xi_flag}")
    return lines
