"""Exact max-flow / min-cut on small undirected graphs.

Edmonds-Karp on Python ints.  The Gomory-Hu cut tree in `cuts` is built
from these flows, and LP separation above n = 22 runs them for the vertex
pairs that tree cannot rule out.

Integer scaling.  Each call multiplies every capacity by `den`, the lcm of
the capacity denominators, so the flow runs on exact ints and the value is
returned as Fraction(int_value, den).  No Fraction is created or compared
while augmenting.

Arc arrays.  Nodes are numbered 0..n-1 (source 0, sink 1).  Each undirected
edge is one arc pair in the flat lists `head` and `res`: arc a and its
reverse a ^ 1, both starting with the edge's capacity, where the keys
(u, v) and (v, u) add up to one edge.  Every node keeps a list of its arc
ids in capacity-dict order, and the breadth-first search records the arc
that reached each node.

The result does not depend on the algorithm.  The returned side is the set
of nodes reachable from the source in the final residual graph.  For every
maximum flow this set is the same: the unique inclusion-minimal minimum
source side.  So any augmenting order, and any exact max-flow algorithm,
returns the same (value, side).  Adjacency is kept in lists, never sets, so
the work done does not depend on string hashing (PYTHONHASHSEED) either.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def max_flow_min_cut(capacity: dict, source, sink):
    """capacity: {(u, v): cap} undirected, with int or Fraction caps >= 0;
    nodes are arbitrary hashables.

    Returns (flow_value Fraction, source_side frozenset), the side being
    the minimum cut with the fewest nodes.
    """
    assert source != sink
    ratios = [cap.as_integer_ratio() for cap in capacity.values()]
    if any(num < 0 for num, _ in ratios):
        raise ValueError("negative capacity")
    den = lcm(*{d for _, d in ratios})

    labels = [source, sink]
    index = {source: 0, sink: 1}
    adj = [[], []]
    head = []   # head[a]: the node arc a points to; a ^ 1 is its reverse
    res = []    # res[a]: residual capacity of arc a, scaled by den
    arc = {}    # (u, v) -> the arc from u to v
    for (u, v), (num, d) in zip(capacity, ratios):
        c = num * (den // d)
        a = arc.get((u, v))
        if a is not None:
            res[a] += c
            res[a ^ 1] += c
            continue
        for w in (u, v):
            if w not in index:
                index[w] = len(labels)
                labels.append(w)
                adj.append([])
        a = len(head)
        arc[u, v], arc[v, u] = a, a + 1
        iu, iv = index[u], index[v]
        head += (iv, iu)
        res += (c, c)
        adj[iu].append(a)
        adj[iv].append(a + 1)

    value = 0
    while True:
        parent = [None] * len(labels)   # the arc that reached each node
        parent[0] = -1
        queue = [0]
        for u in queue:
            for a in adj[u]:
                if res[a] and parent[head[a]] is None:
                    parent[head[a]] = a
                    queue.append(head[a])
            if parent[1] is not None:
                break
        else:
            return Fraction(value, den), frozenset(labels[v] for v in queue)
        path = []
        v = 1
        while v:
            a = parent[v]
            path.append(a)
            v = head[a ^ 1]
        bottleneck = min(res[a] for a in path)
        for a in path:
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
        value += bottleneck
