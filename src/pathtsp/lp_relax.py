"""Exact cutting-plane solver for the path LP relaxation.

Variables live on all edges of the complete graph.  The initial model has
the degree equalities (2 at internal vertices, 1 at the path ends) plus
x(delta(v)) >= 1 warm-start rows for every singleton; violated cut
constraints are then separated and appended until none remain.  Cuts whose
vertex set contains both or neither of {s, t} require load 2, the others
require 1.

Separation is exact at every n, by max-flow alone.  One min s-t cut gives
the most violated odd cut.  For the even cuts it builds one Gomory-Hu tree
of the graph with s and t contracted and computes a min cut only for the
vertex pairs whose tree connectivity is below 2, so a feasible point costs
n flows; the most violated even cut is a global min cut and so one of
these.  Separation thus returns a most violated cut whenever one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import gomory_hu_tree
from .flows import FlowNetwork, max_flow_min_cut
from .instance import (Instance, complete_edges, edge, format_rational,
                       parse_rational, vector_cost)
from .simplex import ExactSimplex

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)

ADD_PER_ROUND = 32   # most-violated cuts appended per round
MAX_ROUNDS = 200     # separation rounds before solve_lp gives up


@dataclass
class LpSolution:
    x: dict
    value: Fraction


def cut_requirement(U, inst: Instance) -> Fraction:
    k = (inst.s in U) + (inst.t in U)
    return ONE if k == 1 else TWO


def cut_load(x: dict, U) -> Fraction:
    total = ZERO
    for (u, v), val in x.items():
        if (u in U) != (v in U):
            total += val
    return total


# ----- separation -----

def separate(x: dict, inst: Instance):
    """Violated cuts as (U, required, load), U canonical (contains vertex 0),
    sorted by decreasing deficit then by vertex set.

    Every returned cut is violated and carries its exact load and
    requirement.  The list is empty exactly when x violates no cut
    constraint, and its first cut is a most violated one.  It need not list
    every violated cut.
    """
    n, s, t = inst.n, inst.s, inst.t
    cap = {e: v for e, v in x.items() if v != 0}

    def canonical(side):
        U = frozenset(side)
        if 0 not in U:
            U = frozenset(range(n)) - U
        return tuple(sorted(U))

    found = {}
    # odd cuts: a min s-t cut is itself odd, so one flow suffices
    val, side = max_flow_min_cut(FlowNetwork(cap), s, t)
    if val < 1:
        U = canonical(side)
        found[U] = (U, ONE, cut_load(x, frozenset(U)))
    # even cuts: contract s,t together, then every pair whose connectivity
    # is below 2, all on one network.  "st" is a node even when x_st = 1
    # leaves it isolated.
    cnet = FlowNetwork(_contract(cap, {s, t}, "st"))
    nodes = sorted([v for v in range(n) if v not in (s, t)] + ["st"],
                   key=str)
    # pairs on the same side of every tree edge of value < 2 have
    # connectivity >= 2 and cannot give a violated cut
    narrow = [cut for cut, value in gomory_hu_tree(cnet, nodes) if value < 2]
    group = {u: tuple(u in cut for cut in narrow) for u in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if group[a] == group[b]:
                continue
            val, side = max_flow_min_cut(cnet, a, b)
            if val < 2:
                real = set()
                for u in side:
                    real.update({s, t} if u == "st" else {u})
                U = canonical(real)
                if U not in found:
                    lo = cut_load(x, frozenset(U))
                    rq = cut_requirement(frozenset(U), inst)
                    if lo < rq:
                        found[U] = (U, rq, lo)
    return sorted(found.values(), key=lambda r: (r[2] - r[1], r[0]))


def _contract(cap: dict, group, label):
    out = {}
    for (u, v), c in cap.items():
        u2 = label if u in group else u
        v2 = label if v in group else v
        if u2 == v2:
            continue
        key = tuple(sorted((u2, v2), key=str))
        out[key] = out.get(key, ZERO) + c
    return out


# ----- the solver -----

def solve_lp(inst: Instance) -> LpSolution:
    n = inst.n
    edges = complete_edges(n)
    sx = ExactSimplex()
    var_of = {e: sx.add_variable(inst.cost[e]) for e in edges}

    def delta_coeffs(Uset):
        return {var_of[e]: 1 for e in edges
                if (e[0] in Uset) != (e[1] in Uset)}

    for v in range(n):
        rhs = 1 if v in (inst.s, inst.t) else 2
        sx.add_constraint(delta_coeffs({v}), "=", rhs)
    seen = set()  # canonical vertex sets of the cut rows
    for v in range(n):
        sx.add_constraint(delta_coeffs({v}), ">=", 1)
        seen.add(tuple(sorted(frozenset(range(n)) - {v})) if v != 0 else (0,))
    sx.solve()

    rounds = 0
    while True:
        sol = sx.solution()
        xcur = {e: sol[j] for e, j in var_of.items() if sol.get(j, ZERO) != 0}
        cuts = separate(xcur, inst)
        if not cuts:
            break
        if rounds >= MAX_ROUNDS:
            raise RuntimeError(f"separation did not close after "
                               f"{MAX_ROUNDS} rounds")
        for (U, req, _load) in cuts[:ADD_PER_ROUND]:
            assert U not in seen, "separated a cut already in the model"
            seen.add(U)
            sx.add_cut_row(delta_coeffs(frozenset(U)), ">=", req)
        sx.solve()
        rounds += 1

    sx.assert_optimal()
    value = sx.objective()
    assert value == vector_cost(xcur, inst)
    return LpSolution(x=xcur, value=value)


# ----- solution files -----

def emit_solution(x: dict, value: Fraction) -> str:
    lines = [f"# value {format_rational(value)}"]
    for (u, v) in sorted(x):
        if x[(u, v)] != 0:
            lines.append(f"{u} {v} {format_rational(x[(u, v)])}")
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
