"""Micro-benchmark of reading an instance file (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_instance.py

Times one read_instance call on the written file of
random_metric_instance(26, 0), an integer-cost instance of the size that
the `random-n26` benchmark workload reads eight of per pass.  No span of
the benchmark's trace covers parsing.
"""

from pathtsp.instance import (random_metric_instance, read_instance,
                              write_instance)


def test_read_instance_n26(benchmark, tmp_path):
    inst = random_metric_instance(26, 0)
    path = tmp_path / "random-n26-0.txt"
    write_instance(inst, path)
    read = benchmark.pedantic(read_instance, (path,), rounds=30,
                              iterations=1, warmup_rounds=2)
    assert read == inst
