"""Record the answer digests that the benchmark's answer check compares with.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs every job of every workload once, on the default and the held-out
corpus, and writes perfbench/answers.json: the sha256 of the report above
its timings, for each run that passes the other checks.  Jobs that fail
get no digest.
Record only on a commit whose answers are trusted; the digests in the
repository were recorded at the commit that introduced the benchmark.
"""

import json
import shutil

import workloads
import worker


def main():
    workloads.add_source_path()
    from pathtsp import cli
    from pathtsp.instance import random_metric_instance, write_instance

    answers, seen = {}, set()
    workdir = workloads.ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    tmp = workdir / "record"
    tmp.mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for corpus in (0, 1):
                for job in workloads.jobs(workload, corpus, tmp):
                    if job.key in seen:
                        continue
                    seen.add(job.key)
                    if job.path:
                        write_instance(
                            random_metric_instance(job.n, job.gen_seed),
                            job.path)
                    rc, report = worker.run_one(cli, job, tmp, None)
                    problem = worker.check_answer(rc, report, None)
                    print(job.key, problem or "recorded", flush=True)
                    if problem is None:
                        answers[job.key] = worker.answer_digest(report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(worker.HERE / "answers.json", "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
