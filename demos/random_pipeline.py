#!/usr/bin/env python3
"""End-to-end pipeline on one random metric instance.

Solve the relaxation exactly, decompose the optimum into spanning trees,
reassemble, audit, and build the best-of-many tour: one cli.pipeline run,
which at n <= 12 also finds the exact optimum, for the true ratio.
"""

import argparse

from pathtsp.cli import pipeline
from pathtsp.cuts import XI
from pathtsp.instance import random_metric_instance
from pathtsp.tree_decomp import distribution_cost


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args()

    inst = random_metric_instance(args.n, args.seed)
    print(f"instance: n={inst.n}, s={inst.s}, t={inst.t}, seed={args.seed}")
    res = pipeline(inst)

    frac = sum(1 for v in res.x.values() if v and v.denominator > 1)
    print(f"lp optimum {res.value}, "
          f"{sum(1 for v in res.x.values() if v)} support edges, "
          f"{frac} fractional")
    avg = distribution_cost(res.dist0, inst)
    print(f"decomposition: {len(res.dist0)} trees, average tree cost {avg}")
    print(f"narrow-cut chain: {len(res.chain)} cuts, "
          f"{len(res.chain.xi_indices)} below {XI}")
    print(f"reassembly: {len(res.records)} exchanges, "
          f"{len({atom.tree for atom in res.dist})} trees")
    worst = min(c.margin for c in res.audit.per_cut)
    print(f"audit: {res.verdict.label}, bound {res.verdict.bound}, "
          f"worst margin {worst}")
    print(f"tour: cost {res.tour.cost}, bomc {res.bomc}, "
          f"lp ratio {float(res.tour.cost / res.value):.4f}")
    assert res.tour.cost <= res.verdict.bound * res.value
    if res.opt is not None:
        print(f"exact baseline {res.opt}, "
              f"true ratio {float(res.tour.cost / res.opt):.4f}")


if __name__ == "__main__":
    main()
