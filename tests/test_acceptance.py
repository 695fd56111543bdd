"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
Everything numeric is exact rational arithmetic; there are no tolerances
anywhere in this file.
"""

import functools
import time
from fractions import Fraction

import pytest

from pathtsp import bomc, cuts, lp_relax, parity, reassembler, tree_decomp
from pathtsp.cli import check_lp_point, main
from pathtsp.instance import (
    build_appendix_instance,
    random_metric_instance,
    vector_cost,
)

from .oracles import (appendix_certificate_sets, appendix_wall_cut_indices,
                      correction_fractions, crossings, grid_pot, mask_of,
                      matching_min_cost, path_min_cost, pot_atoms,
                      rational_rank, reconstruct, validate_exchange_record,
                      violated_cuts)
from .test_cuts import packing_holds

BETA = Fraction(401, 1000)
XI = Fraction(173, 100)
EPS = Fraction(1, 100)
HALF = Fraction(1, 2)
ZERO = Fraction(0)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL — {desc}")
                raise
            note = f" ({detail})" if detail else ""
            print(f"criterion {num}: PASS — {desc}{note} "
                  f"[{time.perf_counter() - t0:.1f}s]")
        return wrapper
    return deco


@criterion(1, "wall fixture reproduces with an independent tight-cut basis")
def test_criterion_1(appendix0, appendix0_chain):
    t0 = time.perf_counter()
    inst, xstar, p4 = appendix0
    assert inst.n == 20
    assert len(xstar) == 30
    chain = appendix0_chain
    assert all(load == Fraction(3, 2) for load in chain.loads[1:-1])
    assert reconstruct(p4) == xstar
    sets = appendix_certificate_sets(0)
    assert len(sets) == 30
    support = sorted(xstar)
    rows = []
    for U in sets:
        need = 1 if (inst.s in U) != (inst.t in U) else 2
        assert cuts.load_of_mask(xstar, mask_of(U)) == need
        rows.append([1 if (e[0] in U) != (e[1] in U) else 0
                     for e in support])
    assert rational_rank(rows) == 30
    assert time.perf_counter() - t0 <= 10
    return "n=20, support=30, rank=30"


@criterion(2, "raw wall benefits stall at 1/2 and miss the requirement")
def test_criterion_2(appendix0, appendix0_chain, half_params):
    _, _, p4 = appendix0
    parities = parity.assign_gamma(p4, appendix0_chain, half_params)
    audit = parity.benefits(p4, appendix0_chain, parities, half_params)
    assert not audit.all_ok
    for i in appendix_wall_cut_indices(0):
        c = audit.per_cut[i]
        assert c.total == HALF
        assert c.margin < 0
        assert c.margin == HALF - BETA * HALF * HALF / (1 - 2 * BETA)
        assert c.margin == Fraction(-5, 792)
    return "wall benefit=1/2, margin=-5/792"


@criterion(3, "reassembled wall is certified for k=0,1,2")
def test_criterion_3(params):
    notes = []
    for k in (0, 1, 2):
        t0 = time.perf_counter()
        inst, xstar, p4 = build_appendix_instance(k)
        chain = cuts.narrow_cuts(xstar, inst, XI)
        final, records = reassembler.reassemble(p4, chain, EPS)
        assert reassembler.type_mix_bound_holds(final, chain, EPS)
        parities = parity.assign_gamma(final, chain, params)
        audit = parity.benefits(final, chain, parities, params)
        assert audit.all_ok
        cv = parity.correction_vectors(final, chain, parities, params)
        verdict = parity.certify_bound(final, audit, cv, params)
        assert verdict.certified and verdict.bound == 2 - BETA
        _, _, bomc_value = bomc.best_of_many(final, inst)
        assert bomc_value <= (2 - BETA) * vector_cost(xstar, inst)
        for rec in records:
            assert validate_exchange_record(rec, chain) == []
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60
        notes.append(f"k={k}: {len(records)} exchanges, {elapsed:.1f}s")
    return "; ".join(notes)


@criterion(4, "the constant pack covers the critical window")
def test_criterion_4(params):
    beta, xi, eps, nu = params.beta, params.xi, params.eps, params.nu
    assert nu == Fraction(132181, 220000)
    assert nu > Fraction(3, 5)
    assert beta >= 3 / (6 + 4 * xi * (2 - xi)) == Fraction(2500, 6557)
    base = lambda x: 1 + (5 - Fraction(3, 2) * (x + xi) - eps) * (nu - HALF)
    x = Fraction(144, 100)
    count = 0
    while x <= Fraction(156, 100):
        assert base(x) >= 2 * params.f(x), f"window violated at {x}"
        x += Fraction(1, 1000)
        count += 1
    # the gap is a concave parabola in the load; check its exact vertex
    x_ext = Fraction(3, 2) + 3 * (1 - 2 * beta) * (nu - HALF) / (8 * beta)
    assert Fraction(144, 100) < x_ext < Fraction(156, 100)
    margin = base(x_ext) - 2 * params.f(x_ext)
    assert margin == Fraction(147711386831, 254073600000000) > 0
    return f"{count} grid points plus the extremum"


def instance_pool():
    pairs = []
    for i in range(200):
        pairs.append((5 + i % 8, i // 8))
    return pairs


@pytest.fixture(scope="module")
def property_results(params, legacy_params):
    t0 = time.perf_counter()
    results = []
    for n, seed in instance_pool():
        inst = random_metric_instance(n, seed)
        sol = lp_relax.solve_lp(inst)
        x = {e: v for e, v in sol.x.items() if v != 0}
        chain = cuts.narrow_cuts(x, inst, XI)

        # (a) reconstruction after every stage
        dist0 = tree_decomp.decompose(x, inst)
        assert reconstruct(dist0) == x
        quantum = EPS / (inst.n * inst.n)
        pot, tree_of, residual = grid_pot(dist0, quantum)
        assert reconstruct(pot_atoms(pot, tree_of, quantum) + residual) == x
        for direction in ("left", "right"):
            reassembler.sweep(pot, tree_of, chain, direction, quantum)
            stage = pot_atoms(pot, tree_of, quantum)
            assert reconstruct(stage + residual) == x

        final, records = reassembler.reassemble(dist0, chain, EPS)
        assert reconstruct(final) == x

        # (b) per-cut crossing inequalities and the packing bound
        cuts.cut_stats(chain, final)
        assert packing_holds(chain, final, inst)

        # (c) correction vectors: even-cut floor and join-polyhedron
        # membership for every atom
        parities = parity.assign_gamma(final, chain, params)
        cv = parity.correction_vectors(final, chain, parities, params)
        parity.check_join_membership(cv, parities, inst.n)
        zs = correction_fractions(cv).z
        for ai in range(len(final)):
            for ci, mask in enumerate(chain.masks):
                if crossings(final[ai].tree, mask) % 2 == 0:
                    zc = sum((v for e, v in zs[ai].items()
                              if ((mask >> e[0]) ^ (mask >> e[1])) & 1),
                             ZERO)
                    assert zc >= BETA * (2 - chain.loads[ci])

        # (d) every exchange record revalidates
        for rec in records:
            assert validate_exchange_record(rec, chain) == []

        # (e) certification at the headline beta
        audit = parity.benefits(final, chain, parities, params)
        verdict = parity.certify_bound(final, audit, cv, params)
        assert verdict.certified

        # (f) tour and ratio bounds
        _, tour, bomc_value = bomc.best_of_many(final, inst)
        assert tour.cost <= bomc_value <= (2 - BETA) * sol.value
        opt = bomc.held_karp_opt(inst)
        assert tour.cost <= Fraction(1599, 1000) * opt

        # criterion 6 input: the legacy audit on the same distribution
        legacy_parities = parity.assign_gamma(final, chain, legacy_params)
        legacy_audit = parity.benefits(final, chain, legacy_parities,
                                       legacy_params)
        results.append({
            "n": n, "seed": seed,
            "fractional": any(v.denominator > 1 for v in x.values()),
            "exchanges": len(records),
            "legacy_ok": legacy_audit.all_ok,
        })
    return results, time.perf_counter() - t0


@criterion(5, "property suite holds on 200 random instances")
def test_criterion_5(property_results):
    results, elapsed = property_results
    assert len(results) == 200
    assert elapsed <= 600
    fractional = sum(1 for r in results if r["fractional"])
    exchanges = sum(r["exchanges"] for r in results)
    assert fractional > 0
    return (f"{len(results)} instances, {fractional} fractional, "
            f"{exchanges} exchanges, {elapsed:.0f}s")


@criterion(6, "legacy 2/5 audit passes on the same 200 instances")
def test_criterion_6(property_results):
    results, _ = property_results
    bad = [(r["n"], r["seed"]) for r in results if not r["legacy_ok"]]
    assert bad == []
    return f"{len(results)} instances"


@criterion(7, "fast routines agree with the brute-force oracles")
def test_criterion_7():
    import random as _random
    rng = _random.Random(20260818)
    for _ in range(500):
        n = rng.randint(5, 10)
        inst = random_metric_instance(n, rng.randrange(10 ** 6))
        size = rng.choice([2, 4, 6, 8])
        size = min(size, n - (n % 2))
        T = rng.sample(range(n), size)
        fast = sum((inst.cost[e] for e in bomc.min_tjoin(T, inst)), ZERO)
        assert fast == matching_min_cost(T, inst)
    for case in range(100):
        n = 5 + case % 4
        inst = random_metric_instance(n, case)
        assert bomc.held_karp_opt(inst) == path_min_cost(inst)
    lp_checked = 0
    for n, seed in [(9, 13), (10, 0), (11, 8), (11, 12), (12, 8),
                    (12, 15), (12, 22), (5, 0), (8, 1), (12, 34)]:
        inst = random_metric_instance(n, seed)
        x = lp_relax.solve_lp(inst).x
        assert violated_cuts(x, inst) == []
        assert check_lp_point(x, inst)
        lp_checked += 1
    return f"500 joins, 100 optima, {lp_checked} LP points"


@criterion(8, "reports are byte-identical across repeat runs")
def test_criterion_8(tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"wall-{name}.txt"
        assert main(["run", "appendix", "-o", str(path)]) == 0
        outs.append(path.read_text())
    bodies = [text[:text.index("# timings")] for text in outs]
    assert bodies[0] == bodies[1]
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"rand-{name}.txt"
        assert main(["run", "random", "--n", "9", "--seed", "13",
                     "-o", str(path)]) == 0
        outs.append(path.read_text())
    bodies = [text[:text.index("# timings")] for text in outs]
    assert bodies[0] == bodies[1]
    return "wall and random reports match"
