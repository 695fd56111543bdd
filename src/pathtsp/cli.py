"""Command-line driver: pipeline runs, stage-by-stage commands, and the
certificate checker.

Exit status: 0 = all audits pass, 1 = an audit FAILed, 2 = usage, parse,
or stage error.  Reports are deterministic byte-for-byte for identical
inputs and flags; wall-clock timings are segregated below a `# timings`
marker so comparisons can strip them.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import bomc, cuts, lp_relax, parity, reassembler, tree_decomp
from .cuts import XI_DEFAULT
from .instance import (build_appendix_instance, format_rational,
                       instance_digest, parse_rational,
                       random_metric_instance, read_instance, vector_cost,
                       write_instance)
from .parity import BETA_DEFAULT, EPS_DEFAULT

OPT_BASELINE_LIMIT = 12   # held_karp in reports only at this size or below


class StageFailure(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


class Runner:
    """Collects report lines and per-stage timings."""

    def __init__(self):
        self.lines = []
        self.timings = []

    def stage(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            raise StageFailure(name, exc) from exc
        self.timings.append(
            f"stage={name} seconds={time.perf_counter() - t0:.3f}")
        return result

    def emit(self, out_path=None):
        text = "\n".join(self.lines + ["# timings"] + self.timings) + "\n"
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def check_lp_point(x, inst):
    """Degree/nonnegativity plus cut separation; works at every size."""
    bad = []
    deg = {v: Fraction(0) for v in range(inst.n)}
    for (u, v), val in x.items():
        if val < 0:
            bad.append(f"negative weight on {u},{v}")
        deg[u] += val
        deg[v] += val
    for v in range(inst.n):
        want = 1 if v in (inst.s, inst.t) else 2
        if deg[v] != want:
            bad.append(f"degree {deg[v]} at vertex {v}, expected {want}")
    bad.extend(f"cut {U} load {format_rational(load)} < "
               f"{format_rational(req)}"
               for U, req, load in lp_relax.separate(x, inst))
    if bad:
        raise ValueError("; ".join(bad))
    return True


def census_lines(dist, chain):
    out = []
    for pos in range(1, len(chain.xi_indices) - 1):
        census = reassembler.type_census(dist, chain, pos)
        cells = " ".join(f"{code}={format_rational(mass)}"
                         for code, mass in sorted(census.items()))
        out.append(f"  cut={chain.xi_indices[pos]} {cells}")
    return out


def exchange_lines(records):
    out = []
    for rec in records:
        out.append(f"  cut={rec.cut_index} dir={rec.direction} "
                   f"delta={format_rational(rec.delta)} h={rec.h} k={rec.k}")
    return out


# ----- subcommand implementations -----

def cmd_gen(args):
    if args.target == "random":
        inst = random_metric_instance(args.n, args.seed)
        write_instance(inst, args.output)
    else:
        inst, xstar, dist = build_appendix_instance(args.k)
        write_instance(inst, args.output)
        if args.solution:
            lp_relax.write_solution(args.solution, xstar,
                                    vector_cost(xstar, inst))
        if args.dist:
            tree_decomp.write_distribution(args.dist, dist)
    return 0


def cmd_solve_lp(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    sol = r.stage("solve-lp", lp_relax.solve_lp, inst,
                  max_rounds=args.max_rounds)
    if args.output:
        lp_relax.write_solution(args.output, sol.x, sol.value)
    r.lines.append(f"instance={instance_digest(inst)} n={inst.n}")
    r.lines.append(f"lp_value={format_rational(sol.value)}")
    r.lines.append(f"support={len(sol.x)}")
    r.emit()
    return 0


def cmd_decompose(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    x, _ = lp_relax.read_solution(args.solution)
    dist = r.stage("decompose", tree_decomp.decompose, x, inst)
    tree_decomp.write_distribution(args.output, dist)
    r.lines.append(f"atoms={len(dist)}")
    r.lines.append(
        f"cost={format_rational(tree_decomp.distribution_cost(dist, inst))}")
    r.emit()
    return 0


def cmd_reassemble(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    x, _ = lp_relax.read_solution(args.solution)
    r.stage("check-lp-point", check_lp_point, x, inst)
    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst, args.xi)
    if args.initial:
        dist0 = tree_decomp.read_distribution(args.initial, n=inst.n)
    else:
        dist0 = r.stage("decompose", tree_decomp.decompose, x, inst)
    dist, records = r.stage("reassemble", reassembler.reassemble, dist0,
                            chain, args.eps)
    tree_decomp.write_distribution(args.output, dist)
    r.lines.append(f"atoms={len(dist)}")
    r.lines.append(f"exchanges={len(records)}")
    if args.trace:
        r.lines.append("exchanges:")
        r.lines.extend(exchange_lines(records))
    r.emit()
    return 0


def cmd_audit(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    x, _ = lp_relax.read_solution(args.solution)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    params = parity.GammaParams(args.beta, args.xi, args.eps)
    r.stage("check-lp-point", check_lp_point, x, inst)
    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst, args.xi)
    parities = r.stage("assign-gamma", parity.assign_gamma, dist, chain,
                       params, uniform_half=args.legacy_gamma_half)
    audit = r.stage("benefits", parity.benefits, dist, chain, parities,
                    params, rule_gamma=not args.legacy_gamma_half)
    cv = r.stage("correction-vectors", parity.correction_vectors, dist,
                 chain, parities, params, check_membership=False)
    verdict = r.stage("certify", parity.certify_bound, dist, audit, cv,
                      params)
    r.lines.extend(parity.format_audit_lines(audit, verdict))
    r.emit(args.output)
    return 0 if verdict.certified else 1


def cmd_tour(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    rows, tour, value = r.stage("tours", bomc.best_of_many, dist, inst)
    opt = None
    if inst.n <= OPT_BASELINE_LIMIT:
        opt = r.stage("baseline", bomc.held_karp_opt, inst)
    r.lines.extend(bomc.format_tour_report(
        rows, value, None if opt is None else opt.cost))
    r.lines.append("path=" + " ".join(str(v) for v in tour.vertices))
    r.emit(args.output)
    return 0


def cmd_verify(args):
    r = Runner()
    inst = read_instance(args.instance, closure=args.closure)
    x, _ = lp_relax.read_solution(args.solution)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    params = parity.GammaParams(args.beta, args.xi, args.eps)
    failures = 0
    chain = parities = cv = None  # set once computed

    def report(name, fn, ready=True):
        """Run one check and add its line; a check whose inputs could not
        be computed reads SKIP.  Returns whether the check passed."""
        nonlocal failures
        if not ready:
            r.lines.append(f"check={name} status=SKIP")
            return False
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "OK"
        except (AssertionError, ValueError, cuts.ChainError) as exc:
            detail = str(exc) or exc.__class__.__name__
            status = "FAIL"
            failures += 1
        r.timings.append(
            f"stage={name} seconds={time.perf_counter() - t0:.3f}")
        line = f"check={name} status={status}"
        if status == "FAIL" and detail:
            line += f" detail={detail}"
        elif isinstance(detail, str) and detail:
            line += f" {detail}"
        r.lines.append(line)
        return status == "OK"

    def check_reconstruction():
        assert tree_decomp.total_weight(dist) == 1, "total weight is not 1"
        assert tree_decomp.reconstruct(dist) == \
            {e: v for e, v in x.items() if v != 0}, \
            "distribution does not reconstruct the solution"
        return ""

    def find_chain():
        nonlocal chain
        # narrow_cuts is complete only for a feasible point
        chain = cuts.narrow_cuts(x, inst, args.xi)
        return ""

    def check_packing():
        for ai, atom in enumerate(dist):
            seen = {}
            for mask in chain.masks:
                hits = cuts.crossing_edges(atom.tree, mask)
                if len(hits) == 1:
                    e = hits[0]
                    assert e not in seen, (
                        f"atom {ai}: edge {e} defines two narrow cuts")
                    seen[e] = mask
        return ""

    def check_floor():
        nonlocal cv
        cv = parity.correction_vectors(dist, chain, parities, params,
                                       check_membership=False)
        return ""

    def check_membership():
        for ai in range(len(dist)):
            bad = parity.tjoin_cut_violations(
                cv.y[ai], parities[ai].t_set, inst.n)
            assert not bad, f"atom {ai}: uncovered T_S-cut {bad[0]}"
        return ""

    def check_margins():
        audit = parity.benefits(dist, chain, parities, params,
                                rule_gamma=not args.legacy_gamma_half)
        bad = [c.cut_index for c in audit.per_cut if c.status != "OK"]
        assert not bad, f"negative margin at cuts {bad}"
        return ""

    def check_type_mix():
        assert reassembler.type_mix_bound_holds(dist, chain, args.eps), \
            "type-mix bound violated at an internal cut"
        return ""

    point_ok = report("lp_point", lambda: (check_lp_point(x, inst), "")[1])
    report("reconstruction", check_reconstruction)
    chain_ok = report("narrow_cuts", find_chain, point_ok)
    report("cut_stats", lambda: (cuts.cut_stats(chain, dist), "")[1],
           chain_ok)
    report("packing", check_packing, chain_ok)
    if chain_ok:
        parities = parity.assign_gamma(dist, chain, params,
                                       uniform_half=args.legacy_gamma_half)
    floor_ok = report("correction_floor", check_floor, chain_ok)
    report("join_membership", check_membership, floor_ok)
    report("benefit_margins", check_margins, chain_ok)
    report("type_mix", check_type_mix, chain_ok)
    r.lines.append(f"checks_failed={failures}")
    r.emit(args.output)
    return 1 if failures else 0


def cmd_run(args):
    r = Runner()
    initial = None
    xstar = None
    if args.target == "appendix":
        inst, xstar, initial = r.stage("build", build_appendix_instance,
                                       args.k)
    elif args.target == "random":
        if args.n is None:
            raise SystemExit("pathtsp: run random requires --n")
        inst = r.stage("build", random_metric_instance, args.n, args.seed)
    else:
        inst = read_instance(args.target, closure=args.closure)
    r.lines.append(f"instance={instance_digest(inst)} n={inst.n} "
                   f"s={inst.s} t={inst.t}")

    if xstar is None:
        sol = r.stage("solve-lp", lp_relax.solve_lp, inst,
                      max_rounds=args.max_rounds)
        x, value = sol.x, sol.value
    else:
        x = xstar
        value = vector_cost(x, inst)
        r.stage("check-lp-point", check_lp_point, x, inst)
    r.lines.append(f"lp_value={format_rational(value)}")

    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst, args.xi)
    r.lines.extend(cuts.format_cut_report(chain))

    if initial is None:
        dist0 = r.stage("decompose", tree_decomp.decompose, x, inst)
    else:
        dist0 = initial
    r.lines.append("types_before:")
    r.lines.extend(census_lines(dist0, chain))

    records = []
    if args.skip_reassembly:
        dist = dist0
    else:
        dist, records = r.stage("reassemble", reassembler.reassemble,
                                dist0, chain, args.eps)
    r.lines.append("types_after:")
    r.lines.extend(census_lines(dist, chain))
    if args.trace and records:
        r.lines.append("exchanges:")
        r.lines.extend(exchange_lines(records))

    params = parity.GammaParams(args.beta, args.xi, args.eps)
    parities = r.stage("assign-gamma", parity.assign_gamma, dist, chain,
                       params, uniform_half=args.legacy_gamma_half)
    audit = r.stage("benefits", parity.benefits, dist, chain, parities,
                    params, rule_gamma=not args.legacy_gamma_half)
    cv = r.stage("correction-vectors", parity.correction_vectors, dist,
                 chain, parities, params)
    verdict = r.stage("certify", parity.certify_bound, dist, audit, cv,
                      params)
    r.lines.extend(parity.format_audit_lines(audit, verdict))

    rows, tour, bomc_value = r.stage("tours", bomc.best_of_many, dist, inst)
    opt = None
    if inst.n <= OPT_BASELINE_LIMIT:
        opt = r.stage("baseline", bomc.held_karp_opt, inst)
    r.lines.extend(bomc.format_tour_report(
        rows, bomc_value, None if opt is None else opt.cost))

    bound_ok = True
    if verdict.certified:
        cap = verdict.bound * value
        bound_ok = bomc_value <= cap
        r.lines.append(f"bomc_bound={format_rational(cap)} "
                       f"status={'OK' if bound_ok else 'FAIL'}")
    r.lines.append(f"verdict={verdict.label} "
                   f"bound={format_rational(verdict.bound)}")
    r.emit(args.output)
    return 0 if verdict.certified and bound_ok else 1


# ----- argument parsing -----

def _add_instance_flags(sp):
    sp.add_argument("--closure", action="store_true",
                    help="complete a partial cost list by shortest paths")


def _add_param_flags(sp, beta=True):
    sp.add_argument("--xi", type=parse_rational, default=XI_DEFAULT,
                    metavar="A/B")
    sp.add_argument("--eps", type=parse_rational, default=EPS_DEFAULT,
                    metavar="A/B")
    if beta:
        sp.add_argument("--beta", type=parse_rational, default=BETA_DEFAULT,
                        metavar="A/B")
        sp.add_argument("--legacy-gamma-half", action="store_true",
                        help="uniform gamma = 1/2 (use with --beta 2/5)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="pathtsp",
        description="exact-arithmetic laboratory for best-of-many "
                    "Christofides on the s-t path TSP")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate instance files")
    gsub = sp.add_subparsers(dest="target", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("-o", "--output", required=True)
    ga = gsub.add_parser("appendix")
    ga.add_argument("--k", type=int, default=0)
    ga.add_argument("-o", "--output", required=True)
    ga.add_argument("--solution", help="also write the designed LP point")
    ga.add_argument("--dist", help="also write the four-tree distribution")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("solve-lp", help="solve the relaxation exactly")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", help="solution file to write")
    sp.add_argument("--max-rounds", type=int, default=200)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_solve_lp)

    sp = sub.add_parser("decompose",
                        help="write the solution as a tree distribution")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output", required=True)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("reassemble",
                        help="exchange edges until the type mix is safe")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--initial", help="distribution to start from")
    sp.add_argument("--trace", action="store_true")
    _add_param_flags(sp, beta=False)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_reassemble)

    sp = sub.add_parser("audit", help="benefit audit and certification")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("dist")
    sp.add_argument("-o", "--output")
    _add_param_flags(sp)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("tour", help="best-of-many tour construction")
    sp.add_argument("instance")
    sp.add_argument("dist")
    sp.add_argument("-o", "--output")
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_tour)

    sp = sub.add_parser("verify",
                        help="run every invariant suite on a triple")
    sp.add_argument("dist")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output")
    _add_param_flags(sp)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("run", help="full pipeline on one instance")
    sp.add_argument("target",
                    help="instance path, or the word 'appendix'/'random'")
    sp.add_argument("--k", type=int, default=0,
                    help="appendix wall length")
    sp.add_argument("--n", type=int, help="random instance size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output")
    sp.add_argument("--skip-reassembly", action="store_true")
    sp.add_argument("--max-rounds", type=int, default=200)
    sp.add_argument("--trace", action="store_true")
    _add_param_flags(sp)
    _add_instance_flags(sp)
    sp.set_defaults(fn=cmd_run)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except StageFailure as exc:
        print(f"pathtsp: error {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"pathtsp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
