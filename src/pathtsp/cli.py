"""Command-line driver: the run pipeline, stage-by-stage commands, and the
certificate checker.

`pipeline` runs each stage once and returns a `RunResult`, which `run`
formats and the demos print; it calls each stage through its module, so a
wrapper set on the module attribute sees the call.  The stage modules
return records only: every line of every subcommand's report is built
here, by the report-line functions and the subcommands themselves.

Exit status: 0 = all audits pass, 1 = an audit FAILed, 2 = usage, parse,
or stage error.  Reports are deterministic byte-for-byte for identical
inputs and flags; wall-clock timings are segregated below a `# timings`
marker so comparisons can strip them.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bomc, cuts, lp_relax, parity, reassembler, tree_decomp
from .instance import (build_appendix_instance, instance_digest, over_lcm,
                       random_metric_instance, read_instance, vector_cost,
                       write_instance)

OPT_BASELINE_LIMIT = 12   # held_karp in reports only at this size or below


class StageFailure(Exception):
    """A stage raised; the message names the stage and the error."""


class Runner:
    """Collects report lines and per-stage timings."""

    def __init__(self):
        self.lines = []
        self.timings = []
        self.failures = 0

    def _timed(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timings.append(
                f"stage={name} seconds={time.perf_counter() - t0:.3f}")

    def stage(self, name, fn, *args, **kwargs):
        try:
            return self._timed(name, fn, *args, **kwargs)
        except Exception as exc:
            raise StageFailure(f"stage {name}: {exc}") from exc

    def check(self, name, fn, *args, ready=True):
        """Run one check and add its line; a check whose inputs could not
        be computed reads SKIP.  Returns (passed, fn's result)."""
        if not ready:
            self.lines.append(f"check={name} status=SKIP")
            return False, None
        status, result = "OK", None
        try:
            result = self._timed(name, fn, *args)
        except (AssertionError, ValueError, cuts.ChainError) as exc:
            status = f"FAIL detail={str(exc) or exc.__class__.__name__}"
            self.failures += 1
        self.lines.append(f"check={name} status={status}")
        return status == "OK", result

    def emit(self, out_path=None):
        text = "\n".join(self.lines + ["# timings"] + self.timings) + "\n"
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def check_lp_point(x, inst):
    """Vertex range, degree/nonnegativity plus cut separation; works at
    every size.  The degrees are summed as ints over the lcm of x's
    values, on the edges between vertices of inst with weight >= 0."""
    bad = []
    nums, den = over_lcm(x)
    deg = [0] * inst.n   # over den
    inside = {}  # the edges of x between vertices of inst, weight >= 0
    for (u, v), val in x.items():
        outside = [w for w in (u, v) if not 0 <= w < inst.n]
        bad.extend(f"vertex {w} of edge {u},{v} is not in 0..{inst.n - 1}"
                   for w in outside)
        if val < 0:
            bad.append(f"negative weight on {u},{v}")
        if outside or val < 0:
            continue
        inside[u, v] = nums[u, v]
        deg[u] += nums[u, v]
        deg[v] += nums[u, v]
    for v in range(inst.n):
        want = 1 if v in (inst.s, inst.t) else 2
        if deg[v] != want * den:
            bad.append(f"degree {Fraction(deg[v], den)} at vertex {v}, "
                       f"expected {want}")
    bad.extend(f"cut {U} load {load} < {req}"
               for U, req, load in lp_relax.separate(inside, inst, den))
    if bad:
        raise ValueError("; ".join(bad))
    return True


def certify_stages(r, dist, chain, params):
    """The assign-gamma, benefits, correction-vectors and certify stages;
    returns (benefit audit, verdict)."""
    table = r.stage("assign-gamma", parity.assign_gamma, dist, chain, params)
    audit = r.stage("benefits", parity.benefits, table)
    cv = r.stage("correction-vectors", parity.correction_vectors, table)
    return audit, r.stage("certify", parity.certify_bound, audit, cv)


def tour_stages(r, dist, parities, inst):
    """The tours stage, on dist and its atoms' TreeParity, and the exact
    baseline on small instances; returns (rows, tour, bomc value, opt)."""
    tours = r.stage("tours", bomc.best_of_many, dist, parities, inst)
    opt = None
    if inst.n <= OPT_BASELINE_LIMIT:
        opt = r.stage("baseline", bomc.held_karp_opt, inst)
    return (*tours, opt)


@dataclass(frozen=True)
class RunResult:
    """What pipeline computed, stage by stage."""
    x: dict                  # the LP point
    value: Fraction          # its cost, the LP value
    chain: cuts.CutChain
    dist0: list              # the decomposition of x
    dist: list               # after reassembly (dist0 when skipped)
    records: list            # reassembly's exchange records
    audit: parity.BenefitAudit   # audit.table is the gamma table
    verdict: parity.Verdict
    rows: list               # per atom: (atom, tree cost, join cost, total)
    tour: bomc.Tour
    bomc: Fraction
    opt: Fraction | None     # held_karp_opt at n <= OPT_BASELINE_LIMIT


def pipeline(inst, x=None, dist0=None, params=parity.GammaParams(),
             reassemble=True, r=None):
    """The whole algorithm on inst, each stage once: solve-lp (or, given
    the point x, check-lp-point), narrow-cuts, decompose (skipped given
    dist0), reassemble (unless reassemble is false), the certify_stages
    and the tour_stages.  Each stage is timed on the Runner r (a fresh
    one when omitted), and one that raises raises StageFailure."""
    r = r or Runner()
    if x is None:
        sol = r.stage("solve-lp", lp_relax.solve_lp, inst)
        x, value = sol.x, sol.value
    else:
        value = vector_cost(x, inst)
        r.stage("check-lp-point", check_lp_point, x, inst)
    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst)
    if dist0 is None:
        dist0 = r.stage("decompose", tree_decomp.decompose, x, inst)
    dist, records = dist0, []
    if reassemble:
        dist, records = r.stage("reassemble", reassembler.reassemble, dist0,
                                chain)
    audit, verdict = certify_stages(r, dist, chain, params)
    return RunResult(x, value, chain, dist0, dist, records, audit, verdict,
                     *tour_stages(r, dist, audit.table.parities, inst))


def gamma_params(args):
    return parity.LEGACY if args.legacy_gamma_half else parity.GammaParams()


# ----- report lines -----

def format_cut_report(chain: cuts.CutChain) -> list:
    lines = ["cuts:"]
    for i, level in enumerate(chain.levels):
        ids = " ".join(str(v) for v in level)
        xi_flag = "yes" if i in chain.xi_indices else "no"
        lines.append(f"  {ids} load {chain.loads[i]} xi_narrow: {xi_flag}")
    return lines


def census_lines(dist, chain):
    nums, den = tree_decomp.weight_ints(dist)
    masses = reassembler.census((a.tree for a in dist), nums, chain)
    out = []
    for ci, mass in zip(chain.xi_indices[1:-1], masses[1:-1]):
        cells = " ".join(f"{code}={Fraction(w, den)}"
                         for code, w in sorted(mass.items()))
        out.append(f"  cut={ci} {cells}")
    return out


def exchange_lines(records):
    out = ["exchanges:"]
    for rec in records:
        out.append(f"  cut={rec.cut_index} dir={rec.direction} "
                   f"delta={rec.delta} h={rec.h} k={rec.k}")
    return out


def format_audit_lines(audit: parity.BenefitAudit, verdict: parity.Verdict):
    lines = []
    for c in audit.per_cut:
        lines.append(
            f"cut={c.cut_index} load={c.load} case={c.case} "
            f"benefit={c.total} required={c.required} "
            f"margin={c.margin} status={c.status}")
    beta = audit.table.params.beta
    lines.append(f"certified_beta={beta if verdict.certified else 'none'}")
    return lines


def format_tour_report(rows, bomc_value, opt_cost=None):
    lines = []
    for k, (atom, tree_cost, join_cost, total) in enumerate(rows):
        lines.append(f"atom={k} tree_cost={tree_cost} "
                     f"join_cost={join_cost} total={total}")
    tail = f"bomc={bomc_value}"
    if opt_cost is not None:
        tail += f" opt={opt_cost}"
        if opt_cost:   # no ratio to an optimum of cost 0
            tail += f" ratio≈{float(bomc_value / opt_cost):.6f}"
    lines.append(tail)
    return lines


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
    inst = read_instance(args.instance)
    sol = r.stage("solve-lp", lp_relax.solve_lp, inst)
    if args.output:
        lp_relax.write_solution(args.output, sol.x, sol.value)
    r.lines.append(f"instance={instance_digest(inst)} n={inst.n}")
    r.lines.append(f"lp_value={sol.value}")
    r.lines.append(f"support={len(sol.x)}")
    r.emit()
    return 0


def cmd_decompose(args):
    r = Runner()
    inst = read_instance(args.instance)
    x, _ = lp_relax.read_solution(args.solution)
    r.stage("check-lp-point", check_lp_point, x, inst)
    dist = r.stage("decompose", tree_decomp.decompose, x, inst)
    tree_decomp.write_distribution(args.output, dist)
    r.lines.append(f"atoms={len(dist)}")
    r.lines.append(f"cost={tree_decomp.distribution_cost(dist, inst)}")
    r.emit()
    return 0


def cmd_reassemble(args):
    r = Runner()
    inst = read_instance(args.instance)
    x, _ = lp_relax.read_solution(args.solution)
    r.stage("check-lp-point", check_lp_point, x, inst)
    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst)
    if args.initial:
        dist0 = tree_decomp.read_distribution(args.initial, n=inst.n)
    else:
        dist0 = r.stage("decompose", tree_decomp.decompose, x, inst)
    dist, records = r.stage("reassemble", reassembler.reassemble, dist0,
                            chain)
    tree_decomp.write_distribution(args.output, dist)
    r.lines.append(f"atoms={len({atom.tree for atom in dist})}")
    r.lines.append(f"exchanges={len(records)}")
    if args.trace:
        r.lines.extend(exchange_lines(records))
    r.emit()
    return 0


def cmd_audit(args):
    r = Runner()
    inst = read_instance(args.instance)
    x, _ = lp_relax.read_solution(args.solution)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    params = gamma_params(args)
    r.stage("check-lp-point", check_lp_point, x, inst)
    r.stage("reconstruction", tree_decomp.check_reconstruction, x, dist)
    chain = r.stage("narrow-cuts", cuts.narrow_cuts, x, inst)
    audit, verdict = certify_stages(r, dist, chain, params)
    r.lines.extend(format_audit_lines(audit, verdict))
    r.emit(args.output)
    return 0 if verdict.certified else 1


def cmd_tour(args):
    r = Runner()
    inst = read_instance(args.instance)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    parities = [parity.split_path_join(a.tree, inst) for a in dist]
    rows, tour, value, opt = tour_stages(r, dist, parities, inst)
    r.lines.extend(format_tour_report(rows, value, opt))
    r.lines.append("path=" + " ".join(str(v) for v in tour.vertices))
    r.emit(args.output)
    return 0


def cmd_verify(args):
    r = Runner()
    inst = read_instance(args.instance)
    x, _ = lp_relax.read_solution(args.solution)
    dist = tree_decomp.read_distribution(args.dist, n=inst.n)
    params = gamma_params(args)

    def check_margins():
        audit = parity.benefits(table)
        bad = [c.cut_index for c in audit.per_cut if c.status != "OK"]
        assert not bad, f"negative margin at cuts {bad}"

    def check_type_mix():
        assert reassembler.type_mix_bound_holds(dist, chain), \
            "type-mix bound violated at an internal cut"

    point_ok, _ = r.check("lp_point", check_lp_point, x, inst)
    r.check("reconstruction", tree_decomp.check_reconstruction, x, dist)
    # narrow_cuts is complete only for a feasible point
    chain_ok, chain = r.check("narrow_cuts", cuts.narrow_cuts, x, inst,
                              ready=point_ok)
    r.check("cut_stats", cuts.cut_stats, chain, dist, ready=chain_ok)
    r.check("packing", parity.check_packing, dist, chain, ready=chain_ok)
    table = parity.assign_gamma(dist, chain, params) if chain_ok else None
    floor_ok, cv = r.check("correction_floor", parity.correction_vectors,
                           table, ready=chain_ok)
    r.check("join_membership", parity.check_join_membership, cv, table,
            ready=floor_ok)
    r.check("benefit_margins", check_margins, ready=chain_ok)
    r.check("type_mix", check_type_mix, ready=chain_ok)
    r.lines.append(f"checks_failed={r.failures}")
    r.emit(args.output)
    return 1 if r.failures else 0


def cmd_run(args):
    r = Runner()
    params = gamma_params(args)
    x = dist0 = None
    if args.target == "appendix":
        inst, x, dist0 = r.stage("build", build_appendix_instance, args.k)
    elif args.target == "random":
        if args.n is None:
            raise ValueError("run random requires --n")
        inst = r.stage("build", random_metric_instance, args.n, args.seed)
    else:
        inst = read_instance(args.target)
    res = pipeline(inst, x, dist0, params, not args.skip_reassembly, r)

    r.lines.append(f"instance={instance_digest(inst)} n={inst.n} "
                   f"s={inst.s} t={inst.t}")
    r.lines.append(f"lp_value={res.value}")
    r.lines.extend(format_cut_report(res.chain))
    r.lines.append("types_before:")
    r.lines.extend(census_lines(res.dist0, res.chain))
    r.lines.append("types_after:")
    r.lines.extend(census_lines(res.dist, res.chain))
    if args.trace and res.records:
        r.lines.extend(exchange_lines(res.records))
    r.lines.extend(format_audit_lines(res.audit, res.verdict))
    r.lines.extend(format_tour_report(res.rows, res.bomc, res.opt))

    bound_ok = True
    if res.verdict.certified:
        cap = res.verdict.bound * res.value
        bound_ok = res.bomc <= cap
        r.lines.append(f"bomc_bound={cap} "
                       f"status={'OK' if bound_ok else 'FAIL'}")
    r.lines.append(f"verdict={res.verdict.label} bound={res.verdict.bound}")
    r.emit(args.output)
    return 0 if res.verdict.certified and bound_ok else 1


# ----- argument parsing -----

def _add_param_flags(sp):
    sp.add_argument("--legacy-gamma-half", action="store_true",
                    help="Sebo's 8/5 audit: uniform gamma = 1/2 at beta = 2/5")


def _add_gen(sub):
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


def _add_solve_lp(sub):
    sp = sub.add_parser("solve-lp", help="solve the relaxation exactly")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", help="solution file to write")
    sp.set_defaults(fn=cmd_solve_lp)


def _add_decompose(sub):
    sp = sub.add_parser("decompose",
                        help="write the solution as a tree distribution")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_decompose)


def _add_reassemble(sub):
    sp = sub.add_parser("reassemble",
                        help="exchange edges until the type mix is safe")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--initial", help="distribution to start from")
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_reassemble)


def _add_audit(sub):
    sp = sub.add_parser("audit", help="benefit audit and certification")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("dist")
    sp.add_argument("-o", "--output")
    _add_param_flags(sp)
    sp.set_defaults(fn=cmd_audit)


def _add_tour(sub):
    sp = sub.add_parser("tour", help="best-of-many tour construction")
    sp.add_argument("instance")
    sp.add_argument("dist")
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_tour)


def _add_verify(sub):
    sp = sub.add_parser("verify",
                        help="run every invariant suite on a triple")
    sp.add_argument("dist")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output")
    _add_param_flags(sp)
    sp.set_defaults(fn=cmd_verify)


def _add_run(sub):
    sp = sub.add_parser("run", help="full pipeline on one instance")
    sp.add_argument("target",
                    help="instance path, or the word 'appendix'/'random'")
    sp.add_argument("--k", type=int, default=0,
                    help="appendix wall length")
    sp.add_argument("--n", type=int, help="random instance size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output")
    sp.add_argument("--skip-reassembly", action="store_true")
    sp.add_argument("--trace", action="store_true")
    _add_param_flags(sp)
    sp.set_defaults(fn=cmd_run)


# each subcommand's parser builder, in the order `pathtsp -h` lists them
SUBCOMMANDS = {"gen": _add_gen, "solve-lp": _add_solve_lp,
               "decompose": _add_decompose, "reassemble": _add_reassemble,
               "audit": _add_audit, "tour": _add_tour, "verify": _add_verify,
               "run": _add_run}


def build_parser(command=None):
    """The argument parser.  For a known subcommand name, only that
    subcommand's parser is built, which parses its arguments, prints its
    help and reports its errors as the full parser does; the usage line
    still lists every subcommand.  Otherwise every subparser is built."""
    p = argparse.ArgumentParser(
        prog="pathtsp",
        description="exact-arithmetic laboratory for best-of-many "
                    "Christofides on the s-t path TSP")
    if command in SUBCOMMANDS:
        # the metavar names the argument in errors, so it is set only here,
        # where no error can be about the subcommand itself
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(SUBCOMMANDS) + "}")
        SUBCOMMANDS[command](sub)
    else:
        sub = p.add_subparsers(dest="command", required=True)
        for add in SUBCOMMANDS.values():
            add(sub)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.fn(args)
    except StageFailure as exc:
        print(f"pathtsp: error {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"pathtsp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
