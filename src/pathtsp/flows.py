"""Exact max-flow / min-cut on small undirected graphs.

Edmonds-Karp on Python ints.  The Gomory-Hu cut tree in `cuts` is built
from these flows, and LP separation runs them for the vertex pairs that
tree cannot rule out.

Build once, query many times.  A FlowNetwork is built once per capacity
dict and answers every flow asked of that dict: the n - 1 flows of a cut
tree, and the per-pair flows of separation.  Each max_flow_min_cut query
copies the network's capacity list into fresh residuals, so no flow is
left behind for the next query.

Integer scaling.  The network multiplies every capacity by `den`, the lcm
of the capacity denominators, so the flow runs on exact ints and the value
is returned as Fraction(int_value, den).  No Fraction is created or
compared while augmenting.

Arc arrays.  Nodes are numbered 0..n-1 in capacity-dict order.  Each
undirected edge is one arc pair in the flat lists `head` and `cap`: arc a
and its reverse a ^ 1, both with the edge's capacity, where the keys
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


class FlowNetwork:
    """An undirected capacity graph, scaled to ints and numbered once for
    any number of max_flow_min_cut queries.

    capacity: {(u, v): cap} undirected, with int or Fraction caps >= 0;
    nodes are arbitrary hashables.  A negative capacity raises ValueError.
    """

    def __init__(self, capacity: dict):
        ratios = [cap.as_integer_ratio() for cap in capacity.values()]
        if any(num < 0 for num, _ in ratios):
            raise ValueError("negative capacity")
        self.den = lcm(*{d for _, d in ratios})
        self.labels = []  # labels[i]: the node numbered i
        self.index = {}   # node -> its number
        self.adj = []     # adj[i]: the arcs leaving node i
        self.head = []    # head[a]: the node arc a points to; a ^ 1 reverses
        self.cap = []     # cap[a]: capacity of arc a, scaled by den
        arc = {}          # (u, v) -> the arc from u to v
        for (u, v), (num, d) in zip(capacity, ratios):
            c = num * (self.den // d)
            a = arc.get((u, v))
            if a is not None:
                self.cap[a] += c
                self.cap[a ^ 1] += c
                continue
            for w in (u, v):
                if w not in self.index:
                    self.index[w] = len(self.labels)
                    self.labels.append(w)
                    self.adj.append([])
            a = len(self.head)
            arc[u, v], arc[v, u] = a, a + 1
            iu, iv = self.index[u], self.index[v]
            self.head += (iv, iu)
            self.cap += (c, c)
            self.adj[iu].append(a)
            self.adj[iv].append(a + 1)


def max_flow_min_cut(net: FlowNetwork, source, sink):
    """Returns (flow_value Fraction, source_side frozenset), the side being
    the minimum source-sink cut of net with the fewest nodes.  A source
    with no edge in net gives (0, {source}); a sink with no edge gives 0
    and the nodes the source reaches.
    """
    assert source != sink
    s = net.index.get(source)
    if s is None:
        return Fraction(0), frozenset({source})
    n = len(net.labels)
    t = net.index.get(sink, n)  # an edgeless sink: a node no arc reaches
    head, adj = net.head, net.adj
    res = net.cap.copy()        # res[a]: residual capacity of arc a
    value = 0
    while True:
        parent = [None] * (n + 1)   # the arc that reached each node
        parent[s] = -1
        queue = [s]
        for u in queue:
            for a in adj[u]:
                if res[a] and parent[head[a]] is None:
                    parent[head[a]] = a
                    queue.append(head[a])
            if parent[t] is not None:
                break
        else:
            return (Fraction(value, net.den),
                    frozenset(net.labels[v] for v in queue))
        path = []
        v = t
        while v != s:
            a = parent[v]
            path.append(a)
            v = head[a ^ 1]
        bottleneck = min(res[a] for a in path)
        for a in path:
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
        value += bottleneck
