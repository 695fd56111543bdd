"""Run every workload, each in a fresh process, and print the full report.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seconds S] [--seed 1] [--held-out-seed 2]

Workloads run one at a time, each in its own single-threaded process with
PATHTSP_THREADS unset.  For each workload:

1. an untraced run prints the end-to-end metrics, ops_failed_frac and the
   answer check (failed on any failed job);
2. two traced runs at the same seed print every per-layer metric, the
   tracing overhead (traced minus untraced norm_run_s_p50) and whether the two
   runs reproduced the same counts;
3. an untraced run on the held-out corpus, at the held-out seed, lets a
   claim be re-checked on instances not used while it was developed.

Three workloads run here but are not listed in BENCHMARK.json.
`random-n20` keeps the n <= 22 subset enumerators under measurement; it
was left out so that the listed workloads get longer, steadier runs.
`random-n40` fits too few samples in a run for a steady median.
`wall-large` (wall lengths 8 and 12) exits 2 at the T-join cap; it runs
here so that the failure and the cost of the stages before it stay
visible.  Exits 1 if an answer check of another workload or the
count-stability check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace, corpus=0):
    """One run.py run: its JSON result and its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--corpus", str(corpus)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def traced_norm_run_s_p50(stdout) -> float:
    """The host-normalised run_s_p50 that a traced run prints (it is not a
    layer metric)."""
    line = next(ln for ln in stdout.splitlines()
                if ln.startswith("run_s_p50 over") and "(traced)" in ln)
    return float(line.split("host-normalised ")[1].split()[0])


def show(metrics, indent="  "):
    for name, m in metrics.items():
        print(f"{indent}{name:34s} {m['value']:>12.6g} {m['unit']}")


def summary(res, workload) -> str:
    expected = " (expected)" if workload in workloads.EXPECTED_TO_FAIL else ""
    return (f"ops_failed_frac {res['failed'] / res['attempted']:.4g} "
            f"({res['failed']}/{res['attempted']}), answer check "
            f"{'OK' if res['correct'] else 'FAILED' + expected}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, help="default: run_seconds "
                   "of BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int, default=2)
    args = p.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]

    ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload} (seed {args.seed}) ==", flush=True)
        plain, _ = bench(workload, args.seed, args.seconds, 0)
        show(plain["metrics"])
        print(f"  {plain['attempted']} runs; "
              f"{summary(plain, workload)}")
        traced = [bench(workload, args.seed, args.seconds, 1)
                  for _ in range(2)]
        print("  per-layer, per pass (first traced run):")
        show(traced[0][0]["metrics"], "    ")
        t50 = traced_norm_run_s_p50(traced[0][1])
        u50 = plain["metrics"]["norm_run_s_p50"]["value"]
        print(f"  tracing overhead: {t50 - u50:+.4f} s on norm_run_s_p50 "
              f"({(t50 - u50) / u50:+.1%})")
        counts = [{k: r["metrics"][k]["value"]
                   for k in tracing.STABLE_COUNTS} for r, _ in traced]
        same = counts[0] == counts[1]
        print(f"  count stability across two traced runs: "
              f"{'OK' if same else f'FAIL {counts}'}")
        held, _ = bench(workload, args.held_out_seed, args.seconds, 0,
                        corpus=1)
        print(f"  held-out corpus, seed {args.held_out_seed}: "
              f"norm_run_s_p50 "
              f"{held['metrics']['norm_run_s_p50']['value']:.4g} s, "
              f"norm_instances_per_s "
              f"{held['metrics']['norm_instances_per_s']['value']:.4g} 1/s, "
              f"{summary(held, workload)}", flush=True)
        # wall-large fails by design; its failures are printed, not gated
        checked = [plain, held] + [res for res, _ in traced]
        ok &= same and (workload in workloads.EXPECTED_TO_FAIL
                        or all(res["correct"] for res in checked))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
