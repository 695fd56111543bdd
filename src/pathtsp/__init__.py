"""Exact-arithmetic laboratory for best-of-many Christofides on the
metric s-t path TSP: relaxation solving, spanning-tree decompositions,
narrow-cut analysis, distribution reassembly, benefit audits, and tour
construction — every number exact: ints and Fractions."""

from .bomc import best_of_many, held_karp_opt, min_tjoin
from .cuts import CutChain, cut_stats, narrow_cuts
from .instance import (Instance, build_appendix_instance,
                       random_metric_instance, read_instance,
                       write_instance)
from .lp_relax import LpSolution, separate, solve_lp
from .parity import (GammaParams, assign_gamma, benefits, certify_bound,
                     correction_vectors, split_path_join)
from .reassembler import classify, exchange, reassemble, sweep
from .tree_decomp import Atom, decompose

__all__ = [
    "Atom", "CutChain", "GammaParams", "Instance", "LpSolution",
    "assign_gamma", "benefits", "best_of_many", "build_appendix_instance",
    "certify_bound", "classify", "correction_vectors", "cut_stats",
    "decompose", "exchange", "held_karp_opt", "min_tjoin", "narrow_cuts",
    "random_metric_instance", "read_instance", "reassemble", "separate",
    "solve_lp", "split_path_join", "sweep", "write_instance",
]
