"""Metric s-t path instances: value types, file I/O, and generators.

Conventions used across the package:
  * an Edge is a canonical tuple (u, v) with u < v (use edge() to build one);
  * an edge vector is a plain dict Edge -> int or Fraction, missing entries
    meaning 0, and an instance's costs are ints or Fractions too: the wall
    fixture's and a random instance's are ints, and a file's are ints where
    its tokens are plain digits, Fractions elsewhere.  Readers take either
    through as_integer_ratio() or over_lcm; writers print either with str(),
    "p/q" in lowest terms or "p" for a whole number;
  * an instance file that lists every pair is kept as given; one that
    lists fewer pairs is completed by metric_closure, and one with fewer
    than n - 1 edges is refused as disconnected.  Either kind is refused
    when a listed cost is above a path through a third vertex;
  * all arithmetic is exact (ints and fractions.Fraction), never floats.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import add

# the package's shared constants, defined here once
ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def edge(u, v):
    """Canonical edge tuple (smaller endpoint first)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def complete_edges(n):
    """All edges of the complete graph on vertices 0..n-1, sorted."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def parse_rational(tok: str) -> Fraction:
    """The rational that Fraction(tok) reads.  A zero denominator is a
    ValueError, as is any string Fraction rejects."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None


def over_lcm(values: dict):
    """(nums, den): the dict's int or Fraction values as ints over den, the
    lcm of their denominators (1 when there are none), so that values[k] ==
    Fraction(nums[k], den) and the ints compare and add as the values do."""
    ratios = {k: v.as_integer_ratio() for k, v in values.items()}
    den = lcm(*{d for _, d in ratios.values()})
    return {k: num * (den // d) for k, (num, d) in ratios.items()}, den


@dataclass(frozen=True)
class Instance:
    """A complete graph with symmetric rational costs and endpoints s != t."""

    n: int
    s: int
    t: int
    # Edge -> int or Fraction, all n*(n-1)/2 pairs
    cost: dict

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two vertices")
        if not (0 <= self.s < self.n and 0 <= self.t < self.n):
            raise ValueError("s/t out of range")
        if self.s == self.t:
            raise ValueError("s and t must differ")


def vector_cost(x: dict, inst: Instance) -> Fraction:
    """c(x) = sum of x_e * cost(e), summed as ints over the lcms of x's
    values and of their edges' costs."""
    xs, xden = over_lcm(x)
    cost, cden = over_lcm({e: inst.cost[e] for e in x})
    return Fraction(sum(v * cost[e] for e, v in xs.items()), xden * cden)


def edges_cost(edges, inst: Instance) -> Fraction:
    """The total cost of an edge collection, repeats counted, summed as
    ints over the lcm of the costs' denominators."""
    nums, den = over_lcm(dict(enumerate(inst.cost[e] for e in edges)))
    return Fraction(sum(nums.values()), den)


def degrees(edges, n) -> list:
    """deg[v] for v in 0..n-1: the edges of the collection at v, repeats
    counted."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def support(x: dict):
    """Sorted edges carrying nonzero value."""
    return sorted(e for e, q in x.items() if q != 0)


def metric_closure(n, weighted_edges):
    """All-pairs shortest path distances of a connected weighted graph, by
    Dijkstra from each vertex over the given edges.

    weighted_edges: dict Edge -> nonnegative length, ints or Fractions.
    Returns a full cost dict of the path lengths as summed: all ints when
    every length is an int.
    """
    adj = [[] for _ in range(n)]
    for (u, v), w in weighted_edges.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = {}
    for src in range(n):
        dist = [None] * n
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue  # a stale entry: u was reached cheaper since
            for v, w in adj[u]:
                alt = d + w
                if dist[v] is None or alt < dist[v]:
                    dist[v] = alt
                    heappush(heap, (alt, v))
        if None in dist:
            raise ValueError("support graph is disconnected")
        for v in range(src + 1, n):
            out[(src, v)] = dist[v]
    return out


def random_metric_instance(n: int, seed: int) -> Instance:
    """Deterministic random metric: closure of a random connected integer-weighted graph."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(f"pathtsp/{n}/{seed}")
    order = list(range(n))
    rng.shuffle(order)
    weights = {}
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        weights[edge(u, v)] = rng.randint(1, 20)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in weights:
                continue
            p, q = rng.random().as_integer_ratio()
            if 20 * p < 7 * q:  # an edge with chance 7/20
                weights[(u, v)] = rng.randint(1, 20)
    cost = metric_closure(n, weights)
    s, t = rng.sample(range(n), 2)
    return Instance(n=n, s=s, t=t, cost=cost)


# ---------------------------------------------------------------------------
# file format: header "n s t", then one line "u v a/b" per edge
# ---------------------------------------------------------------------------

def emit_instance(inst: Instance) -> str:
    return f"{inst.n} {inst.s} {inst.t}\n" + "".join(
        [f"{u} {v} {inst.cost[u, v]}\n" for u, v in complete_edges(inst.n)])


def parse_instance(text: str) -> Instance:
    rows = [ln for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty instance file")
    head = rows[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {rows[0]!r}, expected 'n s t'")
    n, s, t = (int(tok) for tok in head)
    given = {}
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in {ln!r}")
        e = edge(u, v)
        if e in given:
            raise ValueError(f"duplicate edge {e}")
        tok = parts[2]  # a plain digit token is kept as an int
        q = int(tok) if tok.isascii() and tok.isdigit() else parse_rational(tok)
        if q < 0:
            raise ValueError(f"negative cost in {ln!r}")
        given[e] = q
    # the edges are in range and distinct, so counting finds the gaps
    missing = (n * (n - 1) // 2 if n > 1 else 0) - len(given)
    # the T-join and the shortcutting assume a metric, so a listed cost
    # above a path through a third vertex is refused in either kind of file
    if missing:
        if len(given) < n - 1:  # checked before the n x n table is built
            raise ValueError("support graph is disconnected")
        cost = metric_closure(n, given)
        over = (e for e in sorted(given) if cost[e] < given[e])
    else:
        cost = {e: given[e] for e in sorted(given)}
        row = [[0] * n for _ in range(n)]  # row[u]: u's costs
        for (u, w), c in cost.items():
            row[u][w] = row[w][u] = c
        over = ((u, w) for (u, w), c in cost.items()
                if min(map(add, row[u], row[w])) < c)
    bad = next(over, None)
    if bad is not None:
        raise ValueError(f"edge {bad[0]},{bad[1]} costs more than a path "
                         "through a third vertex: not a metric")
    return Instance(n=n, s=s, t=t, cost=cost)


def read_instance(path) -> Instance:
    with open(path) as fh:
        return parse_instance(fh.read())


def write_instance(inst: Instance, path):
    with open(path, "w") as fh:
        fh.write(emit_instance(inst))


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(emit_instance(inst).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the wall fixture: a 20+4k vertex fractional solution whose internal narrow
# cuts all carry load 3/2, together with the four trees averaging to it
# ---------------------------------------------------------------------------

Q = Fraction(1, 4)


def build_appendix_instance(k: int = 0):
    """The hard wall family: (Instance, xstar, four-tree distribution).

    k >= 0 inserts k extra column pairs (one bottom-rung, one top-rung) in the
    middle of the wall, growing the instance by 4 vertices and 6 support edges
    per step.  Costs are the metric closure of the support graph with unit
    edge lengths; the fixture is structural, not cost-optimal.
    """
    # local: avoids a module cycle
    from .tree_decomp import Atom, check_reconstruction

    if k < 0:
        raise ValueError("k must be nonnegative")
    names = ["s", "a1", "a2", "b", "b2", "c1", "c2", "c3", "c4", "d", "d2", "e", "e2"]
    for i in range(1, k + 1):
        names += [f"dn{i}", f"db{i}", f"up{i}", f"ut{i}"]
    names += ["f", "f2", "g", "g2", "h1", "h2", "t"]
    ix = {nm: i for i, nm in enumerate(names)}
    n = len(names)

    down_mids = [f"dn{i}" for i in range(1, k + 1)]
    up_mids = [f"up{i}" for i in range(1, k + 1)]
    bottoms_ins = [f"db{i}" for i in range(1, k + 1)]
    tops_ins = [f"ut{i}" for i in range(1, k + 1)]

    rungs = ([("a1", "a2"), ("b", "b2"), ("c1", "c2"), ("c3", "c4"),
              ("d", "d2"), ("e", "e2")]
             + [(f"dn{i}", f"db{i}") for i in range(1, k + 1)]
             + [(f"up{i}", f"ut{i}") for i in range(1, k + 1)]
             + [("f", "f2"), ("g", "g2"), ("h1", "h2")])

    mids = ["c3", "d", "e"]
    for i in range(1, k + 1):
        mids += [f"dn{i}", f"up{i}"]
    mids += ["f", "g"]
    mid_row = list(zip(mids, mids[1:])) + [("g", "h1")]

    tops = ["c4", "e2"] + tops_ins + ["g2"]
    top_row = [("c2", "c4")] + list(zip(tops, tops[1:]))

    bottoms = ["b2", "d2"] + bottoms_ins + ["f2", "h1"]
    bottom_row = list(zip(bottoms, bottoms[1:]))

    half_edges = ([("a2", "c2"), ("a2", "b"), ("b", "c1"), ("c1", "c3")]
                  + mid_row + top_row + bottom_row)
    quarter_edges = [("s", "b2"), ("a1", "b2"), ("g2", "h2"), ("g2", "t")]
    threequarter_edges = [("s", "a1"), ("h2", "t")]

    xstar = {}
    for u, v in rungs:
        xstar[edge(ix[u], ix[v])] = ONE
    for u, v in half_edges:
        xstar[edge(ix[u], ix[v])] = HALF
    for u, v in quarter_edges:
        xstar[edge(ix[u], ix[v])] = Q
    for u, v in threequarter_edges:
        xstar[edge(ix[u], ix[v])] = Fraction(3, 4)
    assert len(xstar) == 30 + 6 * k

    unit = {e: 1 for e in xstar}
    cost = metric_closure(n, unit)
    inst = Instance(n=n, s=ix["s"], t=ix["t"], cost=cost)

    # the four trees averaging to xstar
    up_exits = list(zip(["c3", "e"] + up_mids, ["d"] + down_mids + ["f"])) + [("g", "h1")]
    down_exits = list(zip(["d"] + down_mids, ["e"] + up_mids)) + [("f", "g")]

    def tr(pairs):
        return frozenset(edge(ix[u], ix[v]) for u, v in pairs)

    t1 = tr(rungs + [("s", "a1"), ("a2", "c2"), ("a2", "b")] + top_row + up_exits
            + [("g2", "t")])
    t2 = tr(rungs + [("s", "a1"), ("a2", "c2"), ("b", "c1")] + top_row + down_exits
            + [("g2", "h2"), ("h2", "t")])
    t3 = tr(rungs + [("s", "b2"), ("a2", "b"), ("c1", "c3")] + bottom_row + up_exits
            + [("h2", "t")])
    t4 = tr(rungs + [("s", "a1"), ("a1", "b2"), ("b", "c1"), ("c1", "c3")]
            + bottom_row + down_exits + [("h2", "t")])

    p4 = [Atom(tree=t, weight=Q) for t in (t1, t2, t3, t4)]
    for atom in p4:
        assert len(atom.tree) == n - 1
    check_reconstruction(xstar, p4)
    return inst, xstar, p4
