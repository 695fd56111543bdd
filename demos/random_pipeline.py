#!/usr/bin/env python3
"""End-to-end pipeline on one random metric instance.

Solve the relaxation exactly, decompose the optimum into spanning trees,
reassemble, audit, and build the best-of-many tour.  For n <= 18 the exact
dynamic-programming baseline is cheap enough to report the true ratio.
"""

import argparse

from pathtsp.bomc import best_of_many, held_karp_opt
from pathtsp.cuts import XI, narrow_cuts
from pathtsp.instance import format_rational, random_metric_instance
from pathtsp.lp_relax import solve_lp
from pathtsp.parity import (GammaParams, assign_gamma, benefits,
                            certify_bound, correction_vectors)
from pathtsp.reassembler import reassemble
from pathtsp.tree_decomp import decompose, distribution_cost


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args()

    inst = random_metric_instance(args.n, args.seed)
    print(f"instance: n={inst.n}, s={inst.s}, t={inst.t}, seed={args.seed}")

    sol = solve_lp(inst)
    frac = sum(1 for v in sol.x.values() if v and v.denominator > 1)
    print(f"lp optimum {format_rational(sol.value)}, "
          f"{sum(1 for v in sol.x.values() if v)} support edges, "
          f"{frac} fractional")

    dist = decompose(sol.x, inst)
    avg = distribution_cost(dist, inst)
    print(f"decomposition: {len(dist)} trees, "
          f"average tree cost {format_rational(avg)}")

    chain = narrow_cuts(sol.x, inst)
    print(f"narrow-cut chain: {len(chain)} cuts, "
          f"{len(chain.xi_indices)} below {format_rational(XI)}")

    fixed, records = reassemble(dist, chain)
    print(f"reassembly: {len(records)} exchanges, "
          f"{len({atom.tree for atom in fixed})} trees")

    table = assign_gamma(fixed, chain, GammaParams())
    audit = benefits(table)
    cv = correction_vectors(table)
    verdict = certify_bound(audit, cv)
    worst = min(c.margin for c in audit.per_cut)
    print(f"audit: {verdict.label}, bound {format_rational(verdict.bound)}, "
          f"worst margin {format_rational(worst)}")

    rows, tour, value = best_of_many(fixed, inst)
    print(f"tour: cost {format_rational(tour.cost)}, "
          f"bomc {format_rational(value)}, "
          f"lp ratio {float(tour.cost / sol.value):.4f}")
    assert tour.cost <= verdict.bound * sol.value

    if inst.n <= 18:
        opt = held_karp_opt(inst)
        print(f"exact baseline {format_rational(opt)}, "
              f"true ratio {float(tour.cost / opt):.4f}")


if __name__ == "__main__":
    main()
