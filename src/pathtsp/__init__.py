"""Exact-arithmetic laboratory for best-of-many Christofides on the
metric s-t path TSP: relaxation solving, spanning-tree decompositions,
narrow-cut analysis, distribution reassembly, benefit audits, and tour
construction — every number exact: ints and Fractions."""
