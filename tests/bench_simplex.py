"""Micro-benchmarks of the exact simplex (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_simplex.py

`solve_lp` times the cutting-plane solver on random n = 26, 40 and 60
instances (seed 0; n = 40 and 60 are on the ROADMAP's grid), separation
included;
`decompose` times one column-generation master on the `lp26` fixture's
optimum.
"""

from pathtsp.instance import random_metric_instance
from pathtsp.lp_relax import solve_lp
from pathtsp.tree_decomp import decompose

from .oracles import reconstruct


def test_solve_lp_n26(benchmark):
    inst = random_metric_instance(26, 0)
    sol = benchmark.pedantic(solve_lp, (inst,), rounds=3, iterations=1)
    assert sol.value > 0


def test_solve_lp_n40(benchmark):
    inst = random_metric_instance(40, 0)
    sol = benchmark.pedantic(solve_lp, (inst,), rounds=3, iterations=1)
    assert sol.value > 0


def test_solve_lp_n60(benchmark):
    inst = random_metric_instance(60, 0)
    sol = benchmark.pedantic(solve_lp, (inst,), rounds=3, iterations=1)
    assert sol.value > 0


def test_decompose_master_n26(benchmark, lp26):
    inst, sol, _ = lp26
    dist = benchmark.pedantic(decompose, (sol.x, inst), rounds=5,
                              iterations=1)
    assert len(dist) > 1 and reconstruct(dist) == sol.x
