"""Spans and counts recorded around pathtsp's layer boundaries.

The wrappers replace the module attributes that pathtsp's callers look up
at call time (for example `lp_relax.separate`, which both `solve_lp` and
`cli.check_lp_point` reach through the `lp_relax` module), so no file of
the program changes.  Spans (name, start, end, parent, request) and counts
stay in memory and are written out when the run ends.

A layer's time is self time: its spans' durations minus the durations of
their direct child spans.  Hot functions get count-only wrappers without a
span, so their time stays in the caller's self time and tracing overhead
stays small.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# counts that every pass over the same inputs must reproduce exactly
STABLE_COUNTS = ("simplex.pivots", "lp_relax.separate_calls",
                 "lp_relax.cuts_added", "flows.max_flow_calls",
                 "cuts.narrow_cuts_calls", "reassembler.classify_calls",
                 "reassembler.exchanges", "tree_decomp.pricing_calls",
                 "parity.correction_vectors_calls", "bomc.min_tjoin_calls")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.counts = Counter()
        self.maxima = Counter()
        self.request = -1
        self._sides = set()      # distinct max-flow source sides this request
        self._stack = []
        self._undo = []

    # ----- recording -----

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def run_request(self, fn, *args):
        """Root span around one whole `pathtsp` invocation."""
        self.request += 1
        self._sides = set()
        try:
            return self._span("cli.run", fn, args, {})
        finally:
            self.counts["flows.distinct_sides"] += len(self._sides)

    def spanned(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) -> token, after(result, args,
        token) record counts from the call."""
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            result = self._span(name, fn, args, kwargs)
            if after:
                after(result, args, token)
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"counts": self.counts, "maxima": self.maxima,
                       "spans": self.spans}, fh)

    # ----- reading -----

    def totals(self) -> dict:
        """Self seconds and calls per span name, plus the counts and maxima;
        `lp_cuts` counts simplex.add_cut_row spans made by solve_lp."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds, calls = Counter(), Counter()
        lp_cuts = 0
        for i, (name, start, end, parent, _req) in enumerate(self.spans):
            seconds[name] += end - start - child[i]
            calls[name] += 1
            if name == "simplex.add_cut_row" and parent >= 0 and \
                    self.spans[parent][0] == "lp_relax.solve_lp":
                lp_cuts += 1
        return {"seconds": seconds, "calls": calls, "counts": self.counts,
                "maxima": self.maxima, "lp_cuts": lp_cuts}


def install(tracer: Tracer):
    """Wrap every traced layer boundary of the imported pathtsp modules."""
    from pathtsp import (bomc, cli, cuts, lp_relax, parity, reassembler,
                         tree_decomp)
    from pathtsp.simplex import ExactSimplex

    counts, maxima = tracer.counts, tracer.maxima

    def lp_bits(sol, _args, _token):
        bits = max((q.denominator.bit_length()
                    for q in [sol.value, *sol.x.values()]), default=0)
        maxima["lp_relax.denominator_bits"] = max(
            maxima["lp_relax.denominator_bits"], bits)

    def flow_side(result, _args, _token):
        tracer._sides.add(frozenset(result[1]))

    def chain_len(chain, _args, _token):
        counts["cuts.chain_len"] += len(chain)

    def atoms(dist, _args, _token):
        counts["tree_decomp.atoms"] += len(dist)

    def exchanges(result, _args, _token):
        counts["reassembler.exchanges"] += len(result[1])

    def t_size(args):
        maxima["bomc.t_size"] = max(maxima["bomc.t_size"], len(args[0]))

    def pivots_before(args):
        return args[0].pivots

    def pivots_after(_result, args, before):
        counts["simplex.pivots"] += args[0].pivots - before

    def span(owner, attr, name, before=None, after=None):
        tracer.patch(owner, attr, tracer.spanned(
            name, getattr(owner, attr), before, after))

    span(lp_relax, "solve_lp", "lp_relax.solve_lp", after=lp_bits)
    span(lp_relax, "separate", "lp_relax.separate")
    for owner in (lp_relax, cuts):
        span(owner, "max_flow_min_cut", "flows.max_flow_min_cut",
             after=flow_side)
    for owner in (cuts, reassembler):
        span(owner, "narrow_cuts", "cuts.narrow_cuts", after=chain_len)
    span(tree_decomp, "decompose", "tree_decomp.decompose", after=atoms)
    tracer.patch(tree_decomp, "max_weight_spanning_tree", tracer.counted(
        "tree_decomp.pricing", tree_decomp.max_weight_spanning_tree))
    span(reassembler, "reassemble", "reassembler.reassemble",
         after=exchanges)
    tracer.patch(reassembler, "classify", tracer.counted(
        "reassembler.classify", reassembler.classify))
    for attr in ("assign_gamma", "benefits", "correction_vectors",
                 "certify_bound"):
        span(parity, attr, f"parity.{attr}")
    span(parity, "tjoin_cut_violations", "parity.join_membership")
    span(bomc, "best_of_many", "bomc.best_of_many")
    span(bomc, "min_tjoin", "bomc.min_tjoin", before=t_size)
    span(bomc, "held_karp_opt", "bomc.held_karp_opt")
    span(cli, "check_lp_point", "cli.check_lp_point")
    for attr in ("solve", "solve_phase1"):
        span(ExactSimplex, attr, "simplex.solve", before=pivots_before,
             after=pivots_after)
    span(ExactSimplex, "add_cut_row", "simplex.add_cut_row")
    span(ExactSimplex, "add_column", "simplex.add_column")


def layer_metrics(passes: list) -> dict:
    """Every per-layer metric, by name, from the totals of each pass:
    sums and counts per pass, maxima over all passes."""
    seconds, calls, counts, maxima = Counter(), Counter(), Counter(), Counter()
    lp_cuts = 0
    for t in passes:
        seconds.update(t["seconds"])
        calls.update(t["calls"])
        counts.update(t["counts"])
        for name, value in t["maxima"].items():
            maxima[name] = max(maxima[name], value)
        lp_cuts += t["lp_cuts"]
    flow_calls = calls["flows.max_flow_min_cut"]
    pricing = counts["tree_decomp.pricing"]
    per_pass = {
        "simplex.pivots": counts["simplex.pivots"],
        "simplex.solve_s": seconds["simplex.solve"],
        "simplex.add_cut_row_s": seconds["simplex.add_cut_row"],
        "simplex.add_column_s": seconds["simplex.add_column"],
        "lp_relax.solve_lp_s": seconds["lp_relax.solve_lp"],
        "lp_relax.separate_calls": calls["lp_relax.separate"],
        "lp_relax.separate_s": seconds["lp_relax.separate"],
        "lp_relax.cuts_added": lp_cuts,
        "flows.max_flow_calls": flow_calls,
        "flows.max_flow_s": seconds["flows.max_flow_min_cut"],
        "cuts.narrow_cuts_calls": calls["cuts.narrow_cuts"],
        "cuts.narrow_cuts_s": seconds["cuts.narrow_cuts"],
        "cuts.chain_len": counts["cuts.chain_len"],
        "reassembler.reassemble_s": seconds["reassembler.reassemble"],
        "reassembler.classify_calls": counts["reassembler.classify"],
        "reassembler.exchanges": counts["reassembler.exchanges"],
        "tree_decomp.decompose_s": seconds["tree_decomp.decompose"],
        "tree_decomp.pricing_calls": pricing,
        "parity.assign_gamma_s": seconds["parity.assign_gamma"],
        "parity.benefits_s": seconds["parity.benefits"],
        "parity.correction_vectors_calls": calls["parity.correction_vectors"],
        "parity.correction_vectors_s": seconds["parity.correction_vectors"],
        "parity.join_membership_s": seconds["parity.join_membership"],
        "parity.certify_bound_s": seconds["parity.certify_bound"],
        "bomc.best_of_many_s": seconds["bomc.best_of_many"],
        "bomc.min_tjoin_calls": calls["bomc.min_tjoin"],
        "bomc.min_tjoin_s": seconds["bomc.min_tjoin"],
        "bomc.held_karp_s": seconds["bomc.held_karp_opt"],
        "cli.check_lp_point_s": seconds["cli.check_lp_point"],
        "cli.run_self_s": seconds["cli.run"],
    }
    out = {name: value / len(passes) for name, value in per_pass.items()}
    out.update({
        "lp_relax.denominator_bits_max": maxima["lp_relax.denominator_bits"],
        "bomc.t_size_max": maxima["bomc.t_size"],
        "flows.distinct_cut_ratio": (counts["flows.distinct_sides"]
                                     / flow_calls if flow_calls else 0.0),
        "tree_decomp.column_yield": (counts["tree_decomp.atoms"] / pricing
                                     if pricing else 0.0),
    })
    return out
