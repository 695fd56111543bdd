"""Micro-benchmark of reading an instance file (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_instance.py

Times one read_instance call on the written file of
random_metric_instance(26, 0), an integer-cost instance of the size that
the `random-n26` benchmark workload reads eight of per pass.  No span of
the benchmark's trace covers parsing.  Also times metric_closure on the
unit lengths of the k = 5 wall's support (40 vertices, 60 edges), the
bulk of that wall's `build` stage.
"""

from pathtsp.instance import (build_appendix_instance, metric_closure,
                              random_metric_instance, read_instance,
                              write_instance)


def test_read_instance_n26(benchmark, tmp_path):
    inst = random_metric_instance(26, 0)
    path = tmp_path / "random-n26-0.txt"
    write_instance(inst, path)
    read = benchmark.pedantic(read_instance, (path,), rounds=30,
                              iterations=1, warmup_rounds=2)
    assert read == inst


def test_metric_closure_wall5(benchmark):
    inst, xstar, _ = build_appendix_instance(5)
    unit = dict.fromkeys(xstar, 1)
    cost = benchmark.pedantic(metric_closure, (inst.n, unit), rounds=30,
                              iterations=1, warmup_rounds=2)
    assert cost == inst.cost
