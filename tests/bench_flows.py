"""Micro-benchmarks of the exact max-flow and the cut oracles built on it
(pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_flows.py

On the `lp26` fixture's optimum with t merged into s, as LP separation
sees it, `flow_network` times building one FlowNetwork and `pair_queries`
times a max_flow_min_cut query for every vertex pair on one built network,
so the build and query halves of a flow are measured apart.
`gomory_hu_tree` times one cut tree (n - 1 flows) of the optimum itself;
`separate` times LP separation at every point that fixture's solve handed
to it, which is where solve_lp spends its flows.
"""

from itertools import combinations

from pathtsp.cuts import gomory_hu_tree
from pathtsp.flows import FlowNetwork, max_flow_min_cut
from pathtsp.instance import edge
from pathtsp.lp_relax import separate


def merged_support(lp26):
    """The optimum's support with t merged into s, and its vertices in
    separation's pair order (by str, the merged vertex last)."""
    inst, sol, _ = lp26
    s, t = inst.s, inst.t
    merged = {}
    for (u, v), c in sol.x.items():
        u, v = (s if u == t else u), (s if v == t else v)
        if c and u != v:
            merged[edge(u, v)] = merged.get(edge(u, v), 0) + c
    nodes = sorted((v for v in range(inst.n) if v not in (s, t)), key=str)
    return merged, inst.n, nodes + [s]


def test_flow_network_n26(benchmark, lp26):
    mcap, n, nodes = merged_support(lp26)
    net = benchmark.pedantic(FlowNetwork, (mcap, n), rounds=200,
                             iterations=1)
    assert sorted(v for v in range(n) if net.adj[v]) == sorted(nodes)


def test_pair_queries_n26(benchmark, lp26):
    mcap, n, nodes = merged_support(lp26)
    net = FlowNetwork(mcap, n)

    def all_pairs():
        return [max_flow_min_cut(net, a, b)
                for a, b in combinations(nodes, 2)]

    flows = benchmark.pedantic(all_pairs, rounds=5, iterations=1)
    assert len(flows) == len(nodes) * (len(nodes) - 1) // 2


def test_gomory_hu_tree_n26(benchmark, lp26):
    inst, sol, _ = lp26
    net = FlowNetwork({e: v for e, v in sol.x.items() if v != 0}, inst.n)
    tree = benchmark.pedantic(gomory_hu_tree, (net, range(inst.n)),
                              rounds=10, iterations=1)
    assert len(tree) == inst.n - 1


def test_separate_lp26_points(benchmark, lp26):
    inst, _, points = lp26

    def separate_all():
        return [separate(x, inst, 1) for x in points]

    found = benchmark.pedantic(separate_all, rounds=5, iterations=1)
    assert found[-1] == [] and all(found[:-1])
