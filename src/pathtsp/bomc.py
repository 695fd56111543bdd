"""Tour construction: T-joins, {s,t}-tours, best-of-many selection, and
the cost of an exact dynamic-programming baseline for measured ratios.

Adding a minimum T_S-join J to a spanning tree S gives a connected
multigraph in which exactly s and t have odd degree (an {s,t}-tour); an
Eulerian s-t walk of it, shortcut past repeated vertices, is a Hamiltonian
s-t path costing no more.  BOMC(p) takes the cheapest tree-plus-join over
the support of a distribution.

In a metric instance a minimum T-join is a minimum perfect matching on T
using direct edges.  It is computed exactly, at any |T|, as the optimal
vertex of the perfect-matching LP on the complete graph over T: the exact
simplex solves |T| + 1 degree rows (every star >= 1 and the pair total
<= |T|/2, which together hold each degree at 1 but, unlike equality rows,
let the dual simplex start from the all-slack basis with no primal
phase), which go into the tableau in one step as int rows, then odd-set
rows are added warm until none is violated, by simplex.cutting_planes,
the loop the path LP shares.  Each round adds every T-odd connected
component of the LP support at once, and the cuts of Padberg-Rao on one
Gomory-Hu tree only when there is none.  Each round reads the LP vertex on
ints and hands it to the separation as ints over the lcm of the basic
denominators.  By Edmonds' perfect-matching polytope theorem the last
vertex is 0/1, which is asserted; no blossom code is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import (Instance, complete_edges, degrees, edge, edges_cost,
                       over_lcm)
from .parity import split_path_join, tjoin_cut_violations
from .simplex import ExactSimplex, cutting_planes, delta_rows
from .tree_decomp import tree_key

HELD_KARP_LIMIT = 18


@dataclass
class Tour:
    vertices: tuple   # permutation of V, vertices[0] = s, vertices[-1] = t
    cost: Fraction


def min_tjoin(T, inst: Instance):
    """Minimum-cost T-join as a minimum perfect matching on T (direct
    edges), from the exact matching LP on the complete graph over T.

    The LP starts with k + 1 degree rows, y(delta(v)) >= 1 for every v
    and -y(E) >= -k/2, all appended in one step as int rows; together they
    hold every degree at exactly 1.  It gains odd-set rows
    y(delta(U)) >= 1 in warm rounds, each round appending in one step
    every cut that tjoin_cut_violations returns: all T-odd connected
    components of the support when there are any (each has load 0), else
    the violated cuts of Padberg-Rao separation.  When none is left, the
    vertex satisfies Edmonds' description of the perfect-matching
    polytope, so it is a vertex of that polytope: a 0/1 perfect matching.
    Conversely, a vertex whose pair values are all 1 is a perfect matching
    by the degree rows; it crosses every odd set, so it ends the loop
    without a separation round.  A fractional vertex at which separation
    found no cut would end the loop too, and fail the 0/1 assert.

    The rounds are simplex.cutting_planes: each reads the vertex on ints,
    every pair value as an int over the lcm den of the basic pairs' dens,
    so a pair is at 1 exactly when its int is den."""
    verts = sorted(T)
    k = len(verts)
    if k % 2:
        raise ValueError("parity set has odd size")
    if not verts:
        return frozenset()
    pairs = complete_edges(k)   # over the positions 0..k-1 in verts
    # verts is sorted, so (verts[i], verts[j]) is an edge for i < j
    sx = ExactSimplex([inst.cost[verts[i], verts[j]] for i, j in pairs])
    delta_coeffs = delta_rows(pairs, k)

    # The stars and the total force every degree to exactly 1 (the degrees
    # sum to 2 y(E) <= k).  As inequalities they let the dual simplex start
    # from y = 0, which the costs (>= 0) keep dual feasible; as equalities
    # they would start a primal phase 2 on the highly degenerate fractional
    # matching polytope, which took about 98,000 pivots on one parity set
    # (|T| = 70) of the raw wall at k = 30.  The tableau has no rows before
    # them, so all k + 1 go in through one add_cut_rows call as ints over 1.
    sx.add_cut_rows([(delta_coeffs({v}), 1, 1) for v in range(k)]
                    + [(dict.fromkeys(range(len(pairs)), -1), -(k // 2), 1)])

    def oracle(y, den):
        if all(v == den for v in y.values()):
            return []
        return [(U, 1) for U in tjoin_cut_violations(y, range(k), k, den)]

    y, den = cutting_planes(sx, pairs, delta_coeffs, oracle)
    assert all(v == den for v in y.values()), "matching LP vertex is not 0/1"
    assert degrees(y, k) == [1] * k, \
        "matching LP vertex is not a perfect matching"
    return frozenset(edge(verts[i], verts[j]) for i, j in y)


def euler_walk(edges, start, n):
    """Eulerian walk over an edge multiset with canonical neighbor order."""
    adj = {v: [] for v in range(n)}
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for v in adj:
        adj[v].sort()
    used = [False] * len(edges)
    ptr = {v: 0 for v in range(n)}
    stack = [start]
    walk = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        while ptr[v] < len(lst) and used[lst[ptr[v]][1]]:
            ptr[v] += 1
        if ptr[v] == len(lst):
            walk.append(stack.pop())
        else:
            u, eid = lst[ptr[v]]
            used[eid] = True
            stack.append(u)
    walk.reverse()
    assert len(walk) == len(edges) + 1, "edge multiset is not connected"
    return walk


def _shortcut(tree, join, inst: Instance):
    """The {s,t}-tour tree + join and its Eulerian walk, shortcut."""
    multiset = tuple(sorted(list(tree) + list(join)))
    for v, d in enumerate(degrees(multiset, inst.n)):
        assert (d % 2 == 1) == (v in (inst.s, inst.t)), \
            "parity correction left a wrong-degree vertex"

    walk = euler_walk(multiset, inst.s, inst.n)
    assert walk[0] == inst.s and walk[-1] == inst.t
    seen = {inst.t}
    seq = []
    for v in walk:
        if v not in seen:
            seen.add(v)
            seq.append(v)
    seq.append(inst.t)
    assert len(seq) == inst.n and seq[0] == inst.s
    cost = edges_cost([edge(a, b) for a, b in zip(seq, seq[1:])], inst)
    return Tour(vertices=tuple(seq), cost=cost)


def best_of_many(dist, inst: Instance):
    """Cheapest tree-plus-join over the support; ties go to the first
    atom in canonical order.  Returns (rows, best Tour, bomc value) where
    rows hold (atom, tree cost, join cost, total) in that order."""
    if not dist:
        raise ValueError("empty distribution")
    atoms = sorted(dist, key=lambda a: tree_key(a.tree))
    rows = []
    best = None
    for atom in atoms:
        tree_cost = edges_cost(atom.tree, inst)
        par = split_path_join(atom.tree, inst)
        join = min_tjoin(par.t_set, inst)
        join_cost = edges_cost(join, inst)
        total = tree_cost + join_cost
        rows.append((atom, tree_cost, join_cost, total))
        if best is None or total < best:
            best = total
            best_tree, best_join = atom.tree, join
    tour = _shortcut(best_tree, best_join, inst)
    assert tour.cost <= best, "shortcutting increased the cost"
    return rows, tour, best


def held_karp_opt(inst: Instance) -> Fraction:
    """Cost of a minimum-cost Hamiltonian s-t path, by subset DP."""
    n = inst.n
    if n > HELD_KARP_LIMIT:
        raise ValueError(f"n = {n} exceeds the subset-DP cap "
                         f"{HELD_KARP_LIMIT}")
    others = [v for v in range(n) if v != inst.s]
    k = len(others)
    cost, scale = over_lcm(inst.cost)
    w = [[0] * n for _ in range(n)]
    for (u, v), c in cost.items():
        w[u][v] = w[v][u] = c

    size = 1 << k
    INF = float("inf")
    dp = [[INF] * k for _ in range(size)]
    for i, v in enumerate(others):
        dp[1 << i][i] = w[inst.s][v]
    for mask in range(size):
        row = dp[mask]
        for i in range(k):
            cur = row[i]
            if cur is INF or not (mask >> i) & 1:
                continue
            vi = others[i]
            for j in range(k):
                if (mask >> j) & 1:
                    continue
                nxt = cur + w[vi][others[j]]
                nm = mask | (1 << j)
                if nxt < dp[nm][j]:
                    dp[nm][j] = nxt
    best = dp[size - 1][others.index(inst.t)]
    assert best is not INF
    return Fraction(best, scale)


def format_tour_report(rows, bomc_value, opt_cost=None):
    lines = []
    for k, (atom, tree_cost, join_cost, total) in enumerate(rows):
        lines.append(f"atom={k} tree_cost={tree_cost} "
                     f"join_cost={join_cost} total={total}")
    tail = f"bomc={bomc_value}"
    if opt_cost is not None:
        tail += f" opt={opt_cost}"
        if opt_cost:   # no ratio to an optimum of cost 0
            tail += f" ratio≈{float(bomc_value / opt_cost):.6f}"
    lines.append(tail)
    return lines
