"""Micro-benchmark of the exact minimum T-join (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_bomc.py

Each `min_tjoin_wall` case times one min_tjoin call on the first parity set
T_S of the given size among the trees of a wall's distribution: on the raw
four-tree distribution, |T| = 20 at k = 5, the longest wall that the `wall`
benchmark workload runs, and |T| = 34 at k = 12; on the reassembled k = 20
wall, a |T| = 48 set that took 57 separation rounds (about 0.6-0.8 s) while
each round added one Gomory-Hu side, and takes 2 now that a round adds
every T-odd component of the LP support; it runs fewer rounds.
`subset_dp` times the 2^|T| reference in tests/oracles.py on the first set.
`best_of_many` times the whole tour stage of `pathtsp run` on the
reassembled k = 5 wall: one T-join and one tree-plus-join per atom, then
the shortcut of the cheapest.
"""

import pytest

from pathtsp import build_appendix_instance, narrow_cuts
from pathtsp.bomc import best_of_many, min_tjoin
from pathtsp.parity import GammaParams, split_path_join
from pathtsp.reassembler import reassemble

from .oracles import tjoin_subset_dp


def parity_set(k, size, reassembled=False):
    """(T, inst): the first T_S with |T_S| = size on the wall at k."""
    inst, xstar, dist = build_appendix_instance(k)
    if reassembled:
        dist, _ = reassemble(dist, narrow_cuts(xstar, inst),
                             GammaParams().eps)
    T = next(T for T in (split_path_join(atom.tree, inst).t_set
                         for atom in dist) if len(T) == size)
    return T, inst


@pytest.mark.parametrize("k, size, reassembled, rounds", [
    (5, 20, False, 30), (12, 34, False, 30), (20, 48, True, 8)])
def test_min_tjoin_wall(benchmark, k, size, reassembled, rounds):
    T, inst = parity_set(k, size, reassembled)
    join = benchmark.pedantic(min_tjoin, (T, inst), rounds=rounds,
                              iterations=1, warmup_rounds=2)
    assert len(join) == size // 2


def test_subset_dp_wall5(benchmark):
    T, inst = parity_set(5, 20)
    join = benchmark.pedantic(tjoin_subset_dp, (T, inst), rounds=10,
                              iterations=1)
    assert len(join) == 10


def test_best_of_many_wall(benchmark):
    inst, xstar, dist = build_appendix_instance(5)
    final, _ = reassemble(dist, narrow_cuts(xstar, inst), GammaParams().eps)
    rows, tour, bomc = benchmark.pedantic(best_of_many, (final, inst),
                                          rounds=30, iterations=1,
                                          warmup_rounds=2)
    assert len(rows) == len(final) and tour.cost <= bomc
