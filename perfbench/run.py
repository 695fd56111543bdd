"""Closed-loop benchmark of `pathtsp run`, one workload at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wall --seed 1 --seconds 40 --trace 0

Set-up writes the workload's inputs.  Then the workload runs in complete
passes, as many as fill --seconds at its nominal pass time
(workloads.PASS_SECONDS), one after another.  Each pass is a fresh
single-threaded interpreter (worker.py) that calls
`pathtsp.cli.main(["run", ...])` in-process, one instance at a time, and
checks every answer outside the timed region.  With `--trace 0` the last
stdout line reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` the layer boundaries are wrapped (see tracing.py) and it
reports the per-layer metrics instead.

Pass p runs with PYTHONHASHSEED = p.  String hashing orders the sets that
max_flow_min_cut searches, and with it the augmenting paths, so one n = 40
instance takes 3.5 s under one hash seed and 5.4 s under another; fixing
the seeds per pass makes every run sample the same ones.

The host's speed drifts by up to +-25% over tens of seconds: the median
n = 26 instance took 0.78 s in one run and 1.29 s in another, with process
CPU time tracking wall time.  So the worker also times a fixed Fraction
loop that does not call pathtsp (worker.reference_seconds) just before and
just after every job, and each job's seconds are scaled by REFERENCE_S /
that loop's seconds.  A slower program reads slower by the same factor; a
slower host does not.  The time metrics that BENCHMARK.json gates
(norm_run_s_p50, norm_instances_per_s) are these host-normalised seconds;
the raw ones are printed above the JSON line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# median of worker.reference_seconds() on a 2-vCPU 2.1 GHz VM, so that
# normalised seconds read as seconds on that machine at its median speed
REFERENCE_S = 0.017


def median_run_seconds(samples) -> float:
    """Median of (failed, seconds) samples.  A failed attempt ranks above
    every success and is never averaged in, so the median is a success
    time while fewer than half of the attempts fail."""
    ranked = sorted(samples)
    lo, hi = ranked[(len(ranked) - 1) // 2], ranked[len(ranked) // 2]
    return lo[1] if hi[0] else (lo[1] + hi[1]) / 2


def set_up(workload, corpus, workdir, repeats) -> float:
    """Median seconds of `repeats` fresh-interpreter set-ups."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload,
             str(corpus), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(args, workdir, spans_stem):
    """The passes that fill --seconds at the workload's nominal pass time.
    The count depends on nothing measured, so every run at one --seconds
    does the same work under the same hash seeds."""
    env = {k: v for k, v in os.environ.items() if k != "PATHTSP_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    passes = max(1, round(args.seconds
                          / workloads.PASS_SECONDS[args.workload]))
    results = []
    for p in range(passes):
        env["PYTHONHASHSEED"] = str(p)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload,
             str(args.corpus), str(args.seed), str(workdir),
             str(args.trace), f"{spans_stem}-pass{p}.json"],
            stdout=subprocess.PIPE, text=True, env=env, timeout=170,
            check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="orders the workload's instances")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus", type=int, default=0,
                   help="random workloads: 0 = default corpus, "
                        "1 = held-out corpus")
    args = p.parse_args(argv)

    workloads.add_source_path()
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    work_root = workloads.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    spans_stem = work_root / f"spans-{args.workload}-seed{args.seed}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    try:
        # a traced run reports no setup_s, so it writes the inputs once
        setup_s = set_up(args.workload, args.corpus, workdir,
                         1 if args.trace else SETUP_REPEATS)
        results = run_passes(args, workdir, spans_stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for r in results for s in r["samples"]]
    failures = [f"{s['key']}: {s['problem']}" for s in samples
                if s["problem"]]
    attempted, failed = len(samples), len(failures)
    timed = [(s["problem"] is not None, s["seconds"]) for s in samples]
    normed = [(s["problem"] is not None,
               s["seconds"] * REFERENCE_S / s["reference"]) for s in samples]
    run_s_p50 = median_run_seconds(timed)
    norm_run_s_p50 = median_run_seconds(normed)
    succeeded = attempted - failed
    if args.trace:
        values = tracing.layer_metrics([r["layers"] for r in results])
    else:
        values = {
            "setup_s": setup_s,
            "norm_run_s_p50": norm_run_s_p50,
            "norm_instances_per_s": succeeded / sum(t for _, t in normed),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
        }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    print(f"workload={args.workload} seed={args.seed} corpus={args.corpus} "
          f"passes={len(results)} attempted={attempted} failed={failed} "
          f"ops_failed_frac={failed / attempted:.4f}")
    reference_ms = 1000 * statistics.median(s["reference"] for s in samples)
    print(f"run_s_p50 over {attempted} runs"
          f"{' (traced)' if args.trace else ''}: {run_s_p50:.6g} s, "
          f"host-normalised {norm_run_s_p50:.6g} s; reference loop "
          f"median {reference_ms:.4g} ms")
    print(f"instances_per_s: {succeeded / sum(t for _, t in timed):.6g} 1/s")
    for line in failures:
        print(f"  failed: {line}")
    if args.trace:
        print(f"spans written to {spans_stem}-pass*.json")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    # the listed workloads run no failing job, so any failed answer check
    # (a wrong answer, a lost certificate or a crash) makes the run wrong
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
