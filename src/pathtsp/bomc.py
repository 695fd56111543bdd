"""Tour construction: T-joins, {s,t}-tours, best-of-many selection, and
an exact dynamic-programming baseline for measured ratios.

Adding a minimum T_S-join J to a spanning tree S gives a connected
multigraph in which exactly s and t have odd degree (an {s,t}-tour); an
Eulerian s-t walk of it, shortcut past repeated vertices, is a Hamiltonian
s-t path costing no more.  BOMC(p) takes the cheapest tree-plus-join over
the support of a distribution.

In a metric instance a minimum T-join is a minimum perfect matching on T
using direct edges, computed here by subset dynamic programming (desk
scale — |T| capped at 20 — instead of a blossom implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .instance import Instance, edge, format_rational
from .parity import split_path_join

ZERO = Fraction(0)

TJOIN_LIMIT = 20
HELD_KARP_LIMIT = 18


@dataclass
class Tour:
    vertices: tuple   # permutation of V, vertices[0] = s, vertices[-1] = t
    cost: Fraction


@dataclass
class STTour:
    edges: tuple      # sorted edge multiset; connected, s and t odd
    cost: Fraction


def min_tjoin(T, inst: Instance):
    """Minimum-cost T-join as a perfect matching on T (direct edges)."""
    verts = sorted(T)
    if len(verts) % 2:
        raise ValueError("parity set has odd size")
    if not verts:
        return frozenset()
    if len(verts) > TJOIN_LIMIT:
        raise ValueError(
            f"parity set of size {len(verts)} exceeds the subset-DP cap "
            f"{TJOIN_LIMIT}")
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
        join.add(edge(verts[i], verts[j]))
        mask ^= (1 << i) | (1 << j)
    assert sum((inst.cost[e] for e in join), ZERO) \
        == Fraction(memo[(1 << k) - 1], scale)
    return frozenset(join)


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


def tour_from_tree(tree, inst: Instance):
    """Tree + min parity join, then Eulerian walk and shortcut."""
    par = split_path_join(tree, inst)
    join = min_tjoin(par.t_set, inst)
    multiset = tuple(sorted(list(tree) + list(join)))
    st_cost = sum((inst.cost[e] for e in multiset), ZERO)
    deg = {v: 0 for v in range(inst.n)}
    for u, v in multiset:
        deg[u] += 1
        deg[v] += 1
    for v, d in deg.items():
        assert (d % 2 == 1) == (v in (inst.s, inst.t)), \
            "parity correction left a wrong-degree vertex"
    st_tour = STTour(edges=multiset, cost=st_cost)

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
    cost = sum((inst.cost[edge(a, b)] for a, b in zip(seq, seq[1:])), ZERO)
    assert cost <= st_cost, "shortcutting increased the cost"
    return st_tour, Tour(vertices=tuple(seq), cost=cost)


def best_of_many(dist, inst: Instance):
    """Cheapest tree-plus-join over the support; ties go to the first
    atom in canonical order.  Returns (rows, best Tour, bomc value) where
    rows hold (atom, tree cost, join cost, total) in that order."""
    if not dist:
        raise ValueError("empty distribution")
    atoms = sorted(dist, key=lambda a: (tuple(sorted(a.tree)), a.tag))
    rows = []
    best = None
    best_atom = None
    for atom in atoms:
        tree_cost = sum((inst.cost[e] for e in atom.tree), ZERO)
        par = split_path_join(atom.tree, inst)
        join_cost = sum((inst.cost[e]
                         for e in min_tjoin(par.t_set, inst)), ZERO)
        total = tree_cost + join_cost
        rows.append((atom, tree_cost, join_cost, total))
        if best is None or total < best:
            best = total
            best_atom = atom
    _, tour = tour_from_tree(best_atom.tree, inst)
    assert tour.cost <= best
    return rows, tour, best


def held_karp_opt(inst: Instance) -> Tour:
    """Exact minimum-cost Hamiltonian s-t path by subset DP."""
    n = inst.n
    if n > HELD_KARP_LIMIT:
        raise ValueError(f"n = {n} exceeds the subset-DP cap "
                         f"{HELD_KARP_LIMIT}")
    others = [v for v in range(n) if v != inst.s]
    k = len(others)
    scale = lcm(*[c.denominator for c in inst.cost.values()])
    w = [[0] * n for _ in range(n)]
    for (u, v), c in inst.cost.items():
        w[u][v] = w[v][u] = int(c * scale)

    size = 1 << k
    INF = float("inf")
    dp = [[INF] * k for _ in range(size)]
    parent = [[-1] * k for _ in range(size)]
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
                    parent[nm][j] = i
    ti = others.index(inst.t)
    full = size - 1
    assert dp[full][ti] is not INF
    seq = [inst.t]
    mask, i = full, ti
    while parent[mask][i] >= 0:
        pi = parent[mask][i]
        mask ^= 1 << i
        i = pi
        seq.append(others[i])
    seq.append(inst.s)
    seq.reverse()
    assert len(seq) == n and seq[0] == inst.s and seq[-1] == inst.t
    return Tour(vertices=tuple(seq), cost=Fraction(dp[full][ti], scale))


def format_tour_report(rows, bomc_value, opt_cost=None):
    lines = []
    for k, (atom, tree_cost, join_cost, total) in enumerate(rows):
        lines.append(f"atom={k} tree_cost={format_rational(tree_cost)} "
                     f"join_cost={format_rational(join_cost)} "
                     f"total={format_rational(total)}")
    tail = f"bomc={format_rational(bomc_value)}"
    if opt_cost is not None:
        tail += (f" opt={format_rational(opt_cost)}"
                 f" ratio≈{float(bomc_value / opt_cost):.6f}")
    lines.append(tail)
    return lines
