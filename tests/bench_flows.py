"""Micro-benchmarks of the exact max-flow and the cut oracles built on it
(pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_flows.py

`gomory_hu_tree` times one cut tree (n - 1 flows) of the `lp26` fixture's
optimum; `separate` times LP separation at every point that fixture's
solve handed to it, which is where solve_lp spends its flows.
"""

from pathtsp.cuts import gomory_hu_tree
from pathtsp.lp_relax import separate


def test_gomory_hu_tree_n26(benchmark, lp26):
    inst, sol, _ = lp26
    cap = {e: v for e, v in sol.x.items() if v != 0}
    tree = benchmark.pedantic(gomory_hu_tree, (cap, range(inst.n)),
                              rounds=10, iterations=1)
    assert len(tree) == inst.n - 1


def test_separate_lp26_points(benchmark, lp26):
    inst, _, points = lp26

    def separate_all():
        return [separate(x, inst) for x in points]

    found = benchmark.pedantic(separate_all, rounds=5, iterations=1)
    assert found[-1] == [] and all(found[:-1])
