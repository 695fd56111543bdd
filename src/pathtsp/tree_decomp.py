"""Convex decompositions of LP points into spanning trees.

The decomposition is found by column generation: a phase-1 master matches
the target edge vector exactly (one row per support edge plus a convexity
row), and the pricing oracle is a max-weight spanning tree on the master's
dual weights, restricted to the support graph.  The duals are read as ints
over one positive denominator, which orders the edges as the rationals
would.  Everything is exact.

A distribution is a plain list of Atom records; helper functions give its
total weight, check that it reconstructs a point (check_reconstruction, on
ints: the one check that decompose, reassemble, audit and verify share),
and read and write the canonical file format.  Rounding onto the eps/n^2
weight grid is reassembler.reassemble's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import (ONE, ZERO, Instance, edge, edges_cost, over_lcm,
                       parse_rational, support)
from .simplex import ExactSimplex


class DecompositionError(Exception):
    pass


@dataclass(frozen=True)
class Atom:
    """One spanning tree with its weight."""
    tree: frozenset
    weight: Fraction


# ----- spanning tree utilities -----

class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, v):
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


def is_spanning_tree(edges, n) -> bool:
    if len(edges) != n - 1:
        return False
    uf = UnionFind(n)
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n) or not uf.union(u, v):
            return False
    return True


def max_weight_spanning_tree(n, weights: dict):
    """Kruskal on -weight with canonical (edge-id) tie-breaks, sorting the
    weights (ints or Fractions) as ints scaled over their lcm.

    Returns (frozenset of edges, total weight), or None if the edges of
    weights do not connect all n vertices.
    """
    scaled, den = over_lcm(weights)
    uf = UnionFind(n)
    picked = []
    total = 0
    for e in sorted(scaled, key=lambda e: (-scaled[e], e)):
        if uf.union(*e):
            picked.append(e)
            total += scaled[e]
            if len(picked) == n - 1:
                return frozenset(picked), Fraction(total, den)
    return None


def tree_path(tree, start, goal):
    """Vertex sequence from start to goal inside a tree (edge set)."""
    adj = {}
    for (u, v) in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for w in adj.get(v, ()):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if goal not in parent:
        raise ValueError(f"no path {start}..{goal} in tree")
    path = [goal]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# ----- distributions -----

def weight_ints(dist):
    """(nums, den): dist's weights, in order, as ints over their lcm den."""
    nums, den = over_lcm(dict(enumerate(a.weight for a in dist)))
    return list(nums.values()), den


def total_weight(dist) -> Fraction:
    nums, den = weight_ints(dist)
    return Fraction(sum(nums), den)


def check_reconstruction(x: dict, dist):
    """The distribution's weights sum to 1 and its trees average to x,
    compared as ints: the weights and the sum of weight * tree incidence
    over the weights' lcm den, x over its own lcm."""
    nums, den = weight_ints(dist)
    if sum(nums) != den:
        raise ValueError("total weight is not 1")
    sums = {}
    for atom, w in zip(dist, nums):
        for e in atom.tree:
            sums[e] = sums.get(e, 0) + w
    sums = {e: v for e, v in sums.items() if v != 0}
    xs, xden = over_lcm({e: v for e, v in x.items() if v != 0})
    if sums.keys() != xs.keys() or any(v * xden != xs[e] * den
                                       for e, v in sums.items()):
        raise ValueError("distribution does not reconstruct the solution")


def distribution_cost(dist, inst: Instance) -> Fraction:
    return sum((a.weight * edges_cost(a.tree, inst) for a in dist), ZERO)


def decompose(x: dict, inst: Instance):
    """Write x exactly as a convex combination of spanning trees.

    Raises DecompositionError when pricing proves x is outside the
    spanning tree polytope (upstream bug: x should come from the LP).
    """
    n = inst.n
    edges = support(x)
    if len(edges) == n - 1 and all(x[e] == 1 for e in edges):
        tree = frozenset(edges)
        if not is_spanning_tree(tree, n):
            raise DecompositionError("integral x is not a spanning tree")
        return [Atom(tree, ONE)]

    row_of = {e: i for i, e in enumerate(edges)}
    conv = len(edges)  # convexity row id
    sx = ExactSimplex(rows=[({}, *x[e].as_integer_ratio()) for e in edges]
                      + [({}, 1, 1)])
    columns = {}       # simplex column id -> tree

    def add_tree(tree):
        coeffs = {row_of[e]: ONE for e in tree}
        coeffs[conv] = ONE
        columns[sx.add_column(ZERO, coeffs)] = tree

    seeded = max_weight_spanning_tree(n, {e: x[e] for e in edges})
    if seeded is None:
        raise DecompositionError("support graph is not connected")
    add_tree(seeded[0])

    # every round adds a tree that pricing proves improving and that is
    # new, and there are finitely many trees, so the loop ends
    seen = {seeded[0]}
    while (gap := sx.solve_phase1()) != 0:
        y, _ = sx.duals("z1")  # over a den > 0: same order, same sign
        weights = {e: y[row_of[e]] for e in edges}
        best = max_weight_spanning_tree(n, weights)
        if best is None or best[1] + y[conv] <= 0:
            raise DecompositionError(
                f"pricing found no improving tree; residual gap {gap}")
        tree = best[0]
        assert tree not in seen, "pricing returned a known tree"
        seen.add(tree)
        add_tree(tree)

    dist = []
    sol = sx.solution()
    for j, tree in columns.items():
        w = sol.get(j, ZERO)
        if w < 0:
            raise DecompositionError("negative weight in master solution")
        if w > 0:
            dist.append(Atom(tree, w))
    check_reconstruction(x, dist)
    assert len(dist) < n * n
    for atom in dist:
        assert is_spanning_tree(atom.tree, n)
    return dist


# ----- canonical file format -----

def tree_key(tree):
    """The canonical order of trees: by sorted edge list."""
    return tuple(sorted(tree))


def emit_distribution(dist) -> str:
    """Blocks of `tree a/b` + one `u v` line per edge; trees sorted
    lexicographically by edge list, equal trees merged."""
    merged = {}
    for atom in dist:
        k = tree_key(atom.tree)
        merged[k] = merged.get(k, ZERO) + atom.weight
    out = []
    for k in sorted(merged):
        out.append(f"tree {merged[k]}")
        for (u, v) in k:
            out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def parse_distribution(text: str, n: int):
    dist = []
    cur_weight = None
    cur_edges = []

    def flush():
        if cur_weight is None:
            return
        if not is_spanning_tree(cur_edges, n):
            raise ValueError(f"block is not a spanning tree: {cur_edges}")
        dist.append(Atom(frozenset(cur_edges), cur_weight))

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "tree":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed tree header")
            flush()
            cur_weight = parse_rational(parts[1])
            if cur_weight <= 0:
                raise ValueError(f"line {lineno}: weight must be positive")
            cur_edges = []
        else:
            if cur_weight is None:
                raise ValueError(f"line {lineno}: edge before any tree header")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected `u v`")
            cur_edges.append(edge(int(parts[0]), int(parts[1])))
    flush()
    if not dist:
        raise ValueError("no trees in distribution file")
    return dist


def read_distribution(path, n: int):
    with open(path) as fh:
        return parse_distribution(fh.read(), n)


def write_distribution(path, dist):
    with open(path, "w") as fh:
        fh.write(emit_distribution(dist))
