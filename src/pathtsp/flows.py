"""Exact max-flow / min-cut on small undirected graphs.

Edmonds-Karp over Fractions.  Desk-scale only: the Gomory-Hu cut tree in
`cuts` is built from these flows, and LP separation above n = 22 runs them
for the vertex pairs that tree cannot rule out.  Graphs stay small and
exactness matters more than speed.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

ZERO = Fraction(0)


def max_flow_min_cut(capacity: dict, source, sink):
    """capacity: {(u, v): cap} undirected, nodes are arbitrary hashables.

    Returns (flow_value, source_side frozenset).
    """
    assert source != sink
    residual = {}
    adj = {}
    for (u, v), cap in capacity.items():
        if cap < 0:
            raise ValueError("negative capacity")
        residual[(u, v)] = residual.get((u, v), ZERO) + cap
        residual[(v, u)] = residual.get((v, u), ZERO) + cap
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    adj.setdefault(source, set())
    adj.setdefault(sink, set())

    value = ZERO
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual.get((u, v), ZERO) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            side = frozenset(parent)
            return value, side
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            r = residual[(u, v)]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] = residual.get((v, u), ZERO) + bottleneck
            v = u
        value += bottleneck
