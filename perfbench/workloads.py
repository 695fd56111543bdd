"""Workload definitions shared by the benchmark's set-up and its run loop.

A workload is a fixed list of jobs.  Each job is one `pathtsp run`
invocation: either an instance file written during set-up (random
workloads) or the built-in wall family selected by flags.

Random workloads run a fixed corpus of instances.  Instance cost varies
two- to three-fold between random instances of one size, and a run has
time for only a few dozen runs of 1-8 s each, so a corpus drawn afresh from
every workload seed would move the run median by up to +-20% between
seeds.  The workload seed therefore fixes the order in which the closed
loop visits the corpus, and each run makes two or more passes over it;
`--corpus 1` selects the held-out corpus, generated from other generator
seeds, for re-checking a claim on unseen instances.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# name -> (n, instances per corpus); generator seed = 1000 * corpus + i.
# BENCHMARK.json lists random-n26 only; report.py runs all three.  n = 26
# keeps n > ENUM_LIMIT (22) with instances cheap enough for ~30 samples a
# run; n = 40 fits fewer than 10, too few for a steady median.
RANDOM = {"random-n20": (20, 5), "random-n26": (26, 8),
          "random-n40": (40, 3)}
# name -> wall lengths.  `wall` stops at k = 5, the longest wall whose tour
# stage fits the T-join cap (|T| <= 20).  `wall-large` exits 2 at that cap
# (|T| = 24 and 34); only report.py runs it, BENCHMARK.json does not list it.
WALL = {"wall": (0, 2, 3, 4, 5), "wall-large": (8, 12)}
WORKLOADS = tuple(RANDOM) + tuple(WALL)
EXPECTED_TO_FAIL = ("wall-large",)   # report.py prints, not gates, these
# seconds of one untraced pass on a 2-vCPU 2.1 GHz VM; a run makes
# round(--seconds / PASS_SECONDS) passes, so every run does the same work
PASS_SECONDS = {"random-n20": 12, "random-n26": 10.5, "random-n40": 17,
                "wall": 6, "wall-large": 10.5}


@dataclass(frozen=True)
class Job:
    key: str          # names the instance in answers.json
    argv: tuple       # arguments to `pathtsp`, without -o
    n: int = 0        # random instances: size and generator seed
    gen_seed: int = 0
    path: str = ""    # instance file written during set-up


def add_source_path():
    """Put the checkout's `src` first on sys.path; exit if it is absent."""
    if not (SOURCE / "pathtsp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pathtsp sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))


def jobs(workload: str, corpus: int, workdir: Path) -> list:
    if workload in WALL:
        return [Job(key=f"appendix k={k}",
                    argv=("run", "appendix", "--k", str(k)))
                for k in WALL[workload]]
    n, count = RANDOM[workload]
    out = []
    for i in range(count):
        seed = 1000 * corpus + i
        path = str(workdir / f"{workload}-{seed}.txt")
        out.append(Job(key=f"random n={n} seed={seed}", argv=("run", path),
                       n=n, gen_seed=seed, path=path))
    return out


def visiting_order(jobs_list: list, workload: str, seed: int) -> list:
    order = list(jobs_list)
    random.Random(f"perfbench/{workload}/{seed}").shuffle(order)
    return order
