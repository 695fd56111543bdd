#!/usr/bin/env python3
"""Walk the 20-vertex wall fixture from stuck to certified.

The wall is built so that its natural four-tree decomposition puts, at every
wall cut, a quarter of the weight on each of the four fragile tree types.
With the flat gamma = 1/2 accounting every interior cut then earns benefit
exactly 1/2 while the 401/1000 target demands 401/792 — short by 5/792, at
every single cut.  A left and a right sweep of pair exchanges repair the mix,
after which the rule-based gamma certifies the 1599/1000 bound.  Everything
printed here is an exact rational.
"""

from fractions import Fraction

from pathtsp.bomc import best_of_many, format_tour_report
from pathtsp.cuts import XI, format_cut_report, narrow_cuts
from pathtsp.instance import build_appendix_instance, vector_cost
from pathtsp.parity import (GammaParams, assign_gamma, benefits,
                            certify_bound, correction_vectors,
                            format_audit_lines)
from pathtsp.reassembler import census, reassemble

RULE = "-" * 72


def show_census(dist, chain, indices):
    masses = census((a.tree for a in dist), (a.weight for a in dist), chain)
    for i in indices:
        parts = ", ".join(f"{code}:{w}"
                          for code, w in sorted(masses[i].items()))
        print(f"  cut {i}: {parts}")


def main():
    inst, xstar, dist = build_appendix_instance(0)
    print(__doc__.splitlines()[0])
    print(RULE)
    print(f"instance: n={inst.n}, s={inst.s}, t={inst.t}, "
          f"lp point cost {vector_cost(xstar, inst)}")

    chain = narrow_cuts(xstar, inst)
    wall = list(range(5, 9))  # the wall cuts' chain indices at k = 0
    print(f"narrow-cut chain: {len(chain)} cuts, all below {XI}; "
          f"wall cuts are {wall}")
    for line in format_cut_report(chain)[:3]:
        print(f"  {line}")
    print("  ...")

    print(RULE)
    print("tree types at the wall cuts, before any exchange:")
    show_census(dist, chain, wall)

    params = GammaParams()
    flat_params = GammaParams(uniform_half=True)
    flat = assign_gamma(dist, chain, flat_params)
    audit = benefits(flat)
    bad = [c for c in audit.per_cut if c.margin < 0]
    interior = [c for c in audit.per_cut if c.required > 0]
    print(f"flat gamma=1/2 audit at beta={params.beta}: "
          f"{len(bad)} of {len(interior)} interior cuts fail")
    print(f"  every failure: benefit {bad[0].total} vs required "
          f"{bad[0].required} (margin {bad[0].margin})")
    cv = correction_vectors(flat)
    verdict = certify_bound(audit, cv)
    print(f"  verdict: {verdict.label}, bound {verdict.bound}")

    print(RULE)
    fixed, records = reassemble(dist, chain)
    print(f"reassembly: {len(records)} exchanges, "
          f"{len({atom.tree for atom in fixed})} trees in the repaired "
          f"distribution")
    for rec in records:
        print(f"  cut {rec.cut_index} {rec.direction:>5}: moved "
              f"{rec.delta} weight, swapped {rec.e1} "
              f"for {rec.e2} (reach {rec.h}..{rec.k})")
    print("tree types at the wall cuts, after:")
    show_census(fixed, chain, wall)

    print(RULE)
    table = assign_gamma(fixed, chain, params)
    audit = benefits(table)
    cv = correction_vectors(table)
    verdict = certify_bound(audit, cv)
    for line in format_audit_lines(audit, verdict):
        print(f"  {line}")
    assert verdict.certified and verdict.bound == Fraction(1599, 1000)

    print(RULE)
    rows, tour, value = best_of_many(fixed, inst)
    for line in format_tour_report(rows, value):
        print(f"  {line}")
    lp_value = vector_cost(xstar, inst)
    print(f"tour cost {tour.cost} <= bomc {value} <= "
          f"{verdict.bound} * {lp_value}")
    assert tour.cost <= value <= verdict.bound * lp_value


if __name__ == "__main__":
    main()
