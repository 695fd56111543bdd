"""Exact cutting-plane solver for the path LP relaxation.

Variables live on all edges of the complete graph.  The initial model is
the n degree equalities (2 at internal vertices, 1 at the path ends);
violated cut constraints are then separated and appended until none
remain.  Cuts whose vertex set contains both or neither of {s, t} require
load 2, the others require 1.  A singleton cut needs no row: its degree
equality makes its load equal its requirement, so separation never
returns one.  The feasible region, and so the LP value, is the same as
with those rows; where the optimum is not unique, the simplex may stop at
another optimal vertex than it would with them.  A vertex that is 1 on
the edges of a spanning tree is, under the degree equalities, a
Hamiltonian s-t path, which crosses every cut as often as it requires:
the loop stops there without a separation round.

Separation is exact at every n, by max-flow alone.  One min s-t cut gives
the most violated odd cut.  For the even cuts it builds one Gomory-Hu tree
of the graph with t merged into s and computes a min cut only for the
vertex pairs whose tree connectivity is below 2, so a feasible point costs
n - 1 flows (the s-t flow and the tree's n - 2); the most violated even
cut is a global min cut and so one of these.  Separation thus returns a
most violated cut whenever one exists.  A pair flow is skipped when an
earlier flow from the same source already returned its answer (see
separate), which drops most of the pair flows.

The loop is simplex.cutting_planes, the driver the T-join's matching LP
shares.  Each round reads the vertex as ints over the lcm D of the basic
denominators and hands them to separate as they are, so the flow values and
tree values are ints over D, compared against the requirements times D.  A
candidate cut's load is the value of the flow that found it, and a Fraction
is made only for the load of a violated cut.  Each round appends its (at
most ADD_PER_ROUND) cuts in one step, as int rows from a vertex-pair table
of columns (simplex.delta_rows); x is built as Fractions once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import gomory_hu_tree
from .flows import FlowNetwork, max_flow_min_cut
from .instance import (Instance, complete_edges, edge, over_lcm,
                       parse_rational, vector_cost)
from .simplex import ExactSimplex, cutting_planes, delta_rows
from .tree_decomp import is_spanning_tree

ADD_PER_ROUND = 32   # most-violated cuts appended per round


@dataclass
class LpSolution:
    x: dict
    value: Fraction


# ----- separation -----

def separate(x: dict, inst: Instance, den: int):
    """Violated cuts of the point x[e] / den (ints, or Fractions with den
    1) as (U, required, load), U canonical (contains vertex 0), required
    an int, sorted by decreasing deficit then by vertex set.

    Every returned cut is violated and carries its exact load and
    requirement.  The list is empty exactly when x violates no cut
    constraint, and its first cut is a most violated one.  It need not list
    every violated cut.

    The even cuts come from the pairs (a, b) of the contracted graph that a
    narrow edge (value < 2) of its Gomory-Hu tree separates; lambda(a, b),
    the min a-b cut value, is the least value among those edges.  The flow
    from a to b returns M(a, b), the minimal min a-b cut (flows module).
    For each source a the flows run so far leave their sides S = M(a, b')
    at values lambda(a, b').  The pair (a, b) runs no flow when some such S
    does not contain b and lambda(a, b') = lambda(a, b): then S is a min
    a-b cut, so M(a, b) lies inside S; M(a, b) also leaves out b' at value
    lambda(a, b'), so it is a min a-b' cut and contains S.  So M(a, b) = S:
    the flow would return a side already examined, so the list is the one
    that running every flow gives.  Each flow that runs must return exactly
    lambda(a, b), which is asserted.
    """
    n, s, t = inst.n, inst.s, inst.t
    # x on ints over D = den times the lcm of x's own denominators
    nums, scale = over_lcm(x)
    scale *= den
    cap = {e: c for e, c in nums.items() if c}
    full = (1 << n) - 1
    found = {}  # canonical mask (vertex 0 inside) -> its violated cut

    def consider(side, required, load):
        # load: the value of the flow that returned side, x(delta(side))
        # times D
        if not side & 1:
            side ^= full
        if side not in found and load < required * scale:
            U = tuple(v for v in range(n) if (side >> v) & 1)
            found[side] = (U, required, load)

    # odd cuts: a min s-t cut is itself odd, so one flow suffices; cap is
    # on ints, so each network's den is 1 and a flow value is a load times D
    val, side = max_flow_min_cut(FlowNetwork(cap, n), s, t)
    if val < scale:
        consider(sum(1 << v for v in side), 1, val)
    # even cuts: merge t into s, one entry per vertex pair, then every
    # pair whose connectivity is below 2, all on one network
    merged = {}
    for (u, v), c in cap.items():
        u, v = (s if u == t else u), (s if v == t else v)
        if u != v:
            merged[edge(u, v)] = merged.get(edge(u, v), 0) + c
    cnet = FlowNetwork(merged, n)
    # The pairs run in the string order of the vertex names with the merged
    # vertex last: which flows run, and so the cut lists, the LP path and
    # the recorded report digests, depend on that order.
    nodes = sorted((v for v in range(n) if v not in (s, t)), key=str) + [s]
    # the narrow tree edges, least value first; bit k of bits[u] says
    # whether u lies below narrow edge k
    narrow = sorted(((value, cut)
                     for cut, value in gomory_hu_tree(cnet, nodes)
                     if value < 2 * scale), key=lambda item: item[0])
    bits = {u: sum(1 << k for k, (_, cut) in enumerate(narrow)
                   if (cut >> u) & 1)
            for u in nodes}
    for i, a in enumerate(nodes):
        kept = {}  # value -> the sides the flows from a returned at it
        for b in nodes[i + 1:]:
            split = bits[a] ^ bits[b]
            # pairs on the same side of every narrow edge have
            # connectivity >= 2 and cannot give a violated cut
            if not split:
                continue
            lam = narrow[(split & -split).bit_length() - 1][0]
            if any(not (S >> b) & 1 for S in kept.get(lam, ())):
                continue  # the flow would return one of these sides
            val, side = max_flow_min_cut(cnet, a, b)
            assert val == lam, "flow value is not the tree's"
            side = sum(1 << v for v in side)
            kept.setdefault(lam, []).append(side)
            # the merged network's cut, with t beside s, crosses exactly
            # the edges of cap that the original cut does
            consider(side | (1 << t) if (side >> s) & 1 else side, 2, val)
    cuts = sorted(found.values(), key=lambda r: (r[2] - r[1] * scale, r[0]))
    return [(U, req, Fraction(load, scale)) for U, req, load in cuts]


# ----- the solver -----

def solve_lp(inst: Instance) -> LpSolution:
    n = inst.n
    edges = complete_edges(n)
    delta_coeffs = delta_rows(edges, n)
    sx = ExactSimplex([inst.cost[e] for e in edges],
                      [(delta_coeffs({v}), 1 if v in (inst.s, inst.t) else 2, 1)
                       for v in range(n)])

    def oracle(y, den):
        # 1 on a spanning tree, under the degree rows: a Hamiltonian s-t
        # path, which crosses every cut as often as it requires
        if all(v == den for v in y.values()) and is_spanning_tree(y, n):
            return []
        cuts = separate(y, inst, den)[:ADD_PER_ROUND]
        return [(U, req) for U, req, _ in cuts]

    y, den = cutting_planes(sx, edges, delta_coeffs, oracle)
    x = {e: Fraction(v, den) for e, v in y.items()}
    value = sx.objective()
    assert value == vector_cost(x, inst)
    return LpSolution(x=x, value=value)


# ----- solution files -----

def emit_solution(x: dict, value: Fraction) -> str:
    lines = [f"# value {value}"]
    for (u, v) in sorted(x):
        if x[(u, v)] != 0:
            lines.append(f"{u} {v} {x[(u, v)]}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str):
    x = {}
    value = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "value":
                value = parse_rational(parts[1])
            continue
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected `u v a/b`")
        e = edge(int(parts[0]), int(parts[1]))
        if e in x:
            raise ValueError(f"line {lineno}: duplicate edge {e}")
        val = parse_rational(parts[2])
        if val < 0:
            raise ValueError(f"line {lineno}: negative value")
        if val != 0:
            x[e] = val
    return x, value


def read_solution(path):
    with open(path) as fh:
        return parse_solution(fh.read())


def write_solution(path, x, value):
    with open(path, "w") as fh:
        fh.write(emit_solution(x, value))
