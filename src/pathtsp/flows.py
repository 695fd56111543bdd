"""Exact max-flow / min-cut on small undirected graphs.

Edmonds-Karp on Python ints, with every breadth-first search used for
more than one path: once it labels the sink t, flow is pushed along the
search tree's path to each labelled neighbour w of t and on over the arc
w -> t, as long as that path has residual capacity left.  The Gomory-Hu
cut tree in `cuts` is built from these flows, and LP separation runs them
for the vertex pairs that tree cannot rule out.

Build once, query many times.  A FlowNetwork is built once per capacity
dict and answers every flow asked of that dict: the n - 1 flows of a cut
tree, and the per-pair flows of separation.  Each max_flow_min_cut query
copies the network's capacity list into fresh residuals, so no flow is
left behind for the next query.

Integer scaling.  The network reads its capacities as ints over `den`, the
lcm of their denominators (instance.over_lcm), and returns the flow value
as the int it computes: the value times net.den.  No Fraction is created;
callers compare the int against their own thresholds times net.den.

Arc arrays.  Vertices are the ints 0..n-1 and number themselves, so a
side is a set of the caller's own vertex ids and an edgeless vertex is
just one with no arcs.  Each capacity entry is one arc pair in the flat
lists `head` and `cap`: arc a and its reverse a ^ 1, both with the entry's
capacity.  Two entries on one vertex pair, such as (u, v) and (v, u), are
two parallel arc pairs, which a max-flow treats as one edge of their
summed capacity.  Every vertex keeps a list of its arc ids in
capacity-dict order, and the breadth-first search records the arc that
reached each vertex.

The result does not depend on the algorithm.  The returned side is the set
of vertices reachable from the source in the final residual graph.  For
every maximum flow this set is the same: the unique inclusion-minimal
minimum source side.  So any augmenting order, and any exact max-flow
algorithm, returns the same (value, side).  Adjacency is kept in lists,
never sets, so the work done does not depend on hashing either.
"""

from __future__ import annotations

from .instance import over_lcm


class FlowNetwork:
    """An undirected capacity graph on the vertices 0..n-1, scaled to ints
    once for any number of max_flow_min_cut queries.

    capacity: {(u, v): cap} undirected, with int or Fraction caps >= 0.
    A negative capacity raises ValueError.
    """

    def __init__(self, capacity: dict, n: int):
        scaled, self.den = over_lcm(capacity)
        if any(c < 0 for c in scaled.values()):
            raise ValueError("negative capacity")
        self.adj = [[] for _ in range(n)]  # adj[u]: the arcs leaving u
        self.head = []    # head[a]: the vertex arc a points to; a ^ 1 reverses
        self.cap = []     # cap[a]: capacity of arc a, scaled by den
        for (u, v), c in scaled.items():
            a = len(self.head)
            self.head += (v, u)
            self.cap += (c, c)
            self.adj[u].append(a)
            self.adj[v].append(a + 1)


def max_flow_min_cut(net: FlowNetwork, s: int, t: int):
    """Returns (value, source_side frozenset): value is the maximum s-t flow
    as an int over net.den (the flow is value / net.den), and the side is
    the minimum s-t cut of net with the fewest vertices.
    """
    assert s != t
    head, adj = net.head, net.adj
    res = net.cap.copy()        # res[a]: residual capacity of arc a
    value = 0
    while True:
        parent = [None] * len(adj)  # the arc that reached each vertex
        parent[s] = -1
        queue = [s]
        for u in queue:
            for a in adj[u]:
                if res[a]:
                    v = head[a]
                    if parent[v] is None:
                        parent[v] = a
                        queue.append(v)
            if parent[t] is not None:
                break
        else:
            return value, frozenset(queue)
        # push flow along the tree path to each labelled w and over the
        # arc w -> t, the path that reached t among them; each path is
        # walked back twice, for its bottleneck and then to push that much
        # flow, which may leave a later path with none
        for b in adj[t]:
            w, last = head[b], b ^ 1
            bottleneck = res[last]
            if not bottleneck or parent[w] is None:
                continue
            v = w
            while v != s:
                a = parent[v]
                if res[a] < bottleneck:
                    bottleneck = res[a]
                v = head[a ^ 1]
            if not bottleneck:
                continue
            res[last] -= bottleneck
            res[b] += bottleneck
            v = w
            while v != s:
                a = parent[v]
                res[a] -= bottleneck
                res[a ^ 1] += bottleneck
                v = head[a ^ 1]
            value += bottleneck
