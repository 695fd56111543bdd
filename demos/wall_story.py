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

from pathtsp.cli import (Runner, certify_stages, format_audit_lines,
                         format_cut_report, format_tour_report, pipeline)
from pathtsp.cuts import XI
from pathtsp.instance import build_appendix_instance
from pathtsp.parity import GammaParams
from pathtsp.reassembler import census

RULE = "-" * 72


def show_census(dist, chain, indices):
    masses = census((a.tree for a in dist), (a.weight for a in dist), chain)
    for i in indices:
        parts = ", ".join(f"{code}:{w}"
                          for code, w in sorted(masses[i].items()))
        print(f"  cut {i}: {parts}")


def main():
    inst, xstar, dist = build_appendix_instance(0)
    res = pipeline(inst, xstar, dist)
    chain = res.chain
    print(__doc__.splitlines()[0])
    print(RULE)
    print(f"instance: n={inst.n}, s={inst.s}, t={inst.t}, "
          f"lp point cost {res.value}")

    wall = list(range(5, 9))  # the wall cuts' chain indices at k = 0
    print(f"narrow-cut chain: {len(chain)} cuts, all below {XI}; "
          f"wall cuts are {wall}")
    for line in format_cut_report(chain)[:3]:
        print(f"  {line}")
    print("  ...")

    print(RULE)
    print("tree types at the wall cuts, before any exchange:")
    show_census(dist, chain, wall)

    flat = GammaParams(uniform_half=True)
    audit, verdict = certify_stages(Runner(), dist, chain, flat)
    bad = [c for c in audit.per_cut if c.margin < 0]
    interior = [c for c in audit.per_cut if c.required > 0]
    print(f"flat gamma=1/2 audit at beta={flat.beta}: "
          f"{len(bad)} of {len(interior)} interior cuts fail")
    print(f"  every failure: benefit {bad[0].total} vs required "
          f"{bad[0].required} (margin {bad[0].margin})")
    print(f"  verdict: {verdict.label}, bound {verdict.bound}")

    print(RULE)
    print(f"reassembly: {len(res.records)} exchanges, "
          f"{len({atom.tree for atom in res.dist})} trees in the repaired "
          f"distribution")
    for rec in res.records:
        print(f"  cut {rec.cut_index} {rec.direction:>5}: moved "
              f"{rec.delta} weight, swapped {rec.e1} "
              f"for {rec.e2} (reach {rec.h}..{rec.k})")
    print("tree types at the wall cuts, after:")
    show_census(res.dist, chain, wall)

    print(RULE)
    for line in format_audit_lines(res.audit, res.verdict):
        print(f"  {line}")
    assert res.verdict.certified and res.verdict.bound == Fraction(1599, 1000)

    print(RULE)
    for line in format_tour_report(res.rows, res.bomc):
        print(f"  {line}")
    print(f"tour cost {res.tour.cost} <= bomc {res.bomc} <= "
          f"{res.verdict.bound} * {res.value}")
    assert res.tour.cost <= res.bomc <= res.verdict.bound * res.value


if __name__ == "__main__":
    main()
