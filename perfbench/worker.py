"""One pass of the benchmark loop, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD CORPUS SEED WORKDIR TRACE SPANS

Calls `pathtsp.cli.main(["run", ...])` in-process for every job of the
workload, one at a time, in the seed's order, and checks every answer
outside the timed region.  A fixed reference loop is timed just before and
just after every job, also outside the timed region (see run.py for why).
With TRACE 1 the layer boundaries are wrapped
(see tracing.py) and the spans are written to SPANS.  Prints one JSON line:
the samples, the peak resident memory and, when traced, the layer totals.
"""

import gc
import hashlib
import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
VERDICT_OK = "verdict=certified bound=1599/1000"
BOMC_OK = re.compile(r"bomc_bound=\S+ status=OK")


def answer_digest(report: str) -> str:
    """sha256 of the whole report above its timings: the instance digest,
    LP value, every narrow cut's vertex set, the cut audit, the atoms, the
    tour and the verdict.  Only the timings vary between runs."""
    return hashlib.sha256(report.split("# timings")[0].encode()).hexdigest()


def check_answer(rc, report: str, expected):
    """None if the run passed the answer check, else the reason it failed.
    `expected` is the recorded answer digest, or None where none is."""
    if rc != 0:
        return f"exit status {rc}"
    lines = report.splitlines()
    if VERDICT_OK not in lines:
        return f"no '{VERDICT_OK}' line"
    if not any(BOMC_OK.fullmatch(ln) for ln in lines):
        return "no 'bomc_bound=... status=OK' line"
    if expected is not None and answer_digest(report) != expected:
        return "report differs from the recorded digest"
    return None


def reference_seconds() -> float:
    """Seconds of a fixed exact-arithmetic loop that does not call pathtsp:
    Fraction additions, like pathtsp's own hot loops, about 17 ms."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 5000):
        total += Fraction(i % 89 + 1, i % 97 + 1)
    return time.perf_counter() - t0


def run_one(cli, job, workdir, tracer):
    """Run one job; returns (exit status or None if it raised, report)."""
    out = workdir / "report.txt"
    out.unlink(missing_ok=True)
    argv = [*job.argv, "-o", str(out)]
    try:
        rc = tracer.run_request(cli.main, argv) if tracer else cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, out.read_text() if out.exists() else ""


def main(argv):
    workload, corpus, seed = argv[0], int(argv[1]), int(argv[2])
    workdir, trace, spans = Path(argv[3]), argv[4] == "1", argv[5]
    workloads.add_source_path()
    from pathtsp import cli
    answers = json.loads((HERE / "answers.json").read_text())
    order = workloads.visiting_order(
        workloads.jobs(workload, corpus, workdir), workload, seed)
    # untimed warm-up on a small instance outside the workload
    cli.main(["run", "random", "--n", "8", "--seed", "0",
              "-o", str(workdir / "warmup.txt")])
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    samples = []
    for job in order:
        gc.collect()
        before = reference_seconds()
        t0 = time.perf_counter()
        rc, report = run_one(cli, job, workdir, tracer)
        seconds = time.perf_counter() - t0
        reference = (before + reference_seconds()) / 2
        samples.append({"key": job.key, "seconds": seconds,
                        "reference": reference, "rc": rc,
                        "problem": check_answer(rc, report,
                                                answers.get(job.key))})
    result = {"samples": samples,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024}
    if tracer:
        tracer.uninstall()
        tracer.write(spans)
        result["layers"] = tracer.totals()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
