"""The benchmark's tracer wraps pathtsp's functions by module attribute name
(perfbench/tracing.py), so renaming or removing one of those attributes
would break every traced benchmark run.  This test installs the tracer on
the current modules, runs one small pipeline through the wrappers, and
uninstalls it again."""

import importlib.util
import json
from pathlib import Path

from pathtsp import reassembler
from pathtsp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    classify = reassembler.classify
    try:
        tracing.install(tracer)   # AttributeError if a wrapped name is gone
        patched = list(tracer._undo)
        assert reassembler.classify is not classify
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
        assert tracer.run_request(main, ["run", "appendix", "--k", "0"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)
    assert reassembler.classify is classify

    metrics = tracing.layer_metrics([tracer.totals()])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} <= set(metrics)
    # the sweeps and the census still classify through the module name
    assert metrics["reassembler.classify_calls"] > 0
    assert metrics["reassembler.exchanges"] == 6
    assert metrics["cuts.narrow_cuts_calls"] == 1
    assert metrics["parity.correction_vectors_calls"] == 1
