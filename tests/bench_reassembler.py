"""Micro-benchmark of the reassembling sweeps (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_reassembler.py

Each case times one `reassemble` of a wall's four-tree distribution on its
narrow-cut chain: k = 5, the longest wall that the `wall` benchmark
workload runs, and k = 20.  Every round gets a fresh copy of the chain, so
that it builds its trees' crossing profiles anew instead of finding them
kept from the round before.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from pathtsp import build_appendix_instance, narrow_cuts
from pathtsp.reassembler import reassemble

EPS = Fraction(1, 100)


@pytest.mark.parametrize("k, exchanges", [(5, 12), (20, 32)])
def test_reassemble_wall(benchmark, k, exchanges):
    inst, xstar, dist = build_appendix_instance(k)
    chain = narrow_cuts(xstar, inst)

    def fresh():
        return (dist, replace(chain), EPS), {}

    final, records = benchmark.pedantic(reassemble, setup=fresh, rounds=10,
                                        iterations=1)
    assert len(records) == exchanges
