"""One benchmark set-up: import the program and write the workload's inputs.

Usage: python3 perfbench/prepare.py WORKLOAD CORPUS WORKDIR

Runs in a fresh interpreter so that every set-up pays the imports a user
pays.  Prints the seconds spent on imports plus instance generation.
"""

import sys
import time
from pathlib import Path

import workloads


def main(argv):
    workload, corpus, workdir = argv[0], int(argv[1]), Path(argv[2])
    workloads.add_source_path()
    t0 = time.perf_counter()
    import pathtsp.cli  # noqa: F401  the import every `pathtsp` run pays
    from pathtsp.instance import random_metric_instance, write_instance
    for job in workloads.jobs(workload, corpus, workdir):
        if job.path:
            write_instance(random_metric_instance(job.n, job.gen_seed),
                           job.path)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])
