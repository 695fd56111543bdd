"""Micro-benchmark of the certification layer (pytest-benchmark).

Outside the default test run, which collects only test_*.py; run with

    PYTHONPATH=src python -m pytest tests/bench_parity.py

Times one certification of the reassembled k = 20 wall: `assign_gamma`,
`benefits`, `correction_vectors` and `certify_bound`, with the T-join
membership check of every y^S.  The chain keeps the crossing profiles that
reassembly built, as it does in `pathtsp run`.  Also times two stages
alone on the reassembled k = 5 wall, the longest wall of the `wall`
benchmark workload: `benefits`, the per-cut audit with the case analysis
at every critical cut, `correction_vectors`, z^S and y^S of every atom as
ints over one denominator, and the membership check
`check_join_membership`, one Padberg-Rao pass per atom.
"""

from pathtsp import build_appendix_instance, narrow_cuts
from pathtsp.parity import (GammaParams, assign_gamma, benefits,
                            certify_bound, check_join_membership,
                            correction_vectors)
from pathtsp.reassembler import reassemble


def test_certify_reassembled_wall(benchmark):
    params = GammaParams()
    inst, xstar, dist = build_appendix_instance(20)
    chain = narrow_cuts(xstar, inst)
    final, _ = reassemble(dist, chain, params.eps)

    def certify():
        parities = assign_gamma(final, chain, params)
        audit = benefits(final, chain, parities, params)
        cv = correction_vectors(final, chain, parities, params)
        return certify_bound(final, audit, cv, params)

    verdict = benchmark.pedantic(certify, rounds=30, iterations=1,
                                 warmup_rounds=2)
    assert verdict.certified


def test_benefits_reassembled_wall5(benchmark):
    params = GammaParams()
    inst, xstar, dist = build_appendix_instance(5)
    chain = narrow_cuts(xstar, inst)
    final, _ = reassemble(dist, chain, params.eps)
    parities = assign_gamma(final, chain, params)
    audit = benefits(final, chain, parities, params)
    assert audit.all_ok and any(c.case == "1" for c in audit.per_cut)
    benchmark.pedantic(benefits, (final, chain, parities, params),
                       rounds=30, iterations=1, warmup_rounds=2)


def test_correction_vectors_reassembled_wall5(benchmark):
    params = GammaParams()
    inst, xstar, dist = build_appendix_instance(5)
    chain = narrow_cuts(xstar, inst)
    final, _ = reassemble(dist, chain, params.eps)
    parities = assign_gamma(final, chain, params)
    cv = benchmark.pedantic(correction_vectors,
                            (final, chain, parities, params), rounds=30,
                            iterations=1, warmup_rounds=2)
    assert len(cv.z) == len(cv.y) == len(final)


def test_join_membership_reassembled_wall5(benchmark):
    params = GammaParams()
    inst, xstar, dist = build_appendix_instance(5)
    chain = narrow_cuts(xstar, inst)
    final, _ = reassemble(dist, chain, params.eps)
    parities = assign_gamma(final, chain, params)
    cv = correction_vectors(final, chain, parities, params)
    benchmark.pedantic(check_join_membership, (cv, parities, inst.n),
                       rounds=30, iterations=1, warmup_rounds=2)
