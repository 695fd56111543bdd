"""Brute-force reference implementations the tests compare against.

Everything here favors obviously-correct code over speed: factorial and
powerset enumeration with plain Fractions, and one exact max-flow per
vertex pair where enumeration would be too large.  Nothing is imported
from the package under test except the exact max-flow routine, so an
agreement between a fast routine and its oracle is evidence, not
circularity.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

from pathtsp.flows import max_flow_min_cut

ZERO = Fraction(0)


def cut_value(x, U):
    """x(delta(U)) computed straight from the definition."""
    U = set(U)
    return sum((v for (a, b), v in x.items() if (a in U) != (b in U)), ZERO)


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
        return min(inst.c(first, rest[i])
                   + rec(rest[:i] + rest[i + 1:])
                   for i in range(len(rest)))

    return rec(tuple(T))


def path_min_cost(inst):
    """Cheapest Hamiltonian s-t path by trying every internal order."""
    inner = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    if len(inner) > 7:
        raise ValueError("oracle is factorial; keep n small")
    best = None
    for perm in permutations(inner):
        seq = (inst.s,) + perm + (inst.t,)
        cost = sum(inst.c(a, b) for a, b in zip(seq, seq[1:]))
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
    everything = frozenset(range(inst.n))
    found = set()
    for a, b in combinations(range(inst.n), 2):
        value, side = max_flow_min_cut(cap, a, b)
        if value < 2:
            found.add(side if inst.s in side else everything - side)
    return found


def separate_all_pairs(x, inst):
    """Violated cuts as (U, required, load) in lp_relax.separate's order,
    from the min s-t cut (odd cuts) and one min cut per vertex pair of x
    with s and t merged into the node "st" (even cuts).  "st" is a node
    even when it has no edge.  Pairs run in the order of the nodes sorted
    by str, source first, as the library's route does."""
    n, s, t = inst.n, inst.s, inst.t
    cap = {e: v for e, v in x.items() if v != 0}

    def canonical(side):
        U = set(side)
        if 0 not in U:
            U = set(range(n)) - U
        return tuple(sorted(U))

    found = {}
    value, side = max_flow_min_cut(cap, s, t)
    if value < 1:
        U = canonical(side)
        found[U] = (U, Fraction(1), cut_value(x, U))
    merged = {}
    for (u, v), c in cap.items():
        u = "st" if u in (s, t) else u
        v = "st" if v in (s, t) else v
        if u != v:
            key = tuple(sorted((u, v), key=str))
            merged[key] = merged.get(key, ZERO) + c
    nodes = sorted([v for v in range(n) if v not in (s, t)] + ["st"],
                   key=str)
    for a, b in combinations(nodes, 2):
        value, side = max_flow_min_cut(merged, a, b)
        if value < 2:
            real = set()
            for u in side:
                real.update((s, t) if u == "st" else (u,))
            U = canonical(real)
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
