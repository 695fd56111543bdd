import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtsp import bomc, build_appendix_instance, lp_relax, tree_decomp
from pathtsp.instance import complete_edges, random_metric_instance
from pathtsp.parity import split_path_join
from pathtsp.simplex import (DEN_LIMIT, STALL_LIMIT, ExactSimplex, Infeasible,
                             Unbounded, _reduced, cutting_planes, delta_rows)

from . import oracles


def int_row(coeffs, rhs):
    """(coeffs, b, d): the row coeffs.x = rhs (or >= rhs), ints or
    Fractions, as ints over their lcm d, the form the constructor and
    add_cut_rows take; zero coefficients are left out."""
    ratios = [(j, Fraction(c)) for j, c in coeffs.items() if c]
    d = lcm(Fraction(rhs).denominator, *(c.denominator for _, c in ratios))
    return {j: int(c * d) for j, c in ratios}, int(rhs * d), d


def build(costs, rows):
    """The ExactSimplex of costs and one equality coeffs.x = rhs per
    (coeffs, rhs) in rows, ints or Fractions."""
    return ExactSimplex(costs, [int_row(coeffs, rhs) for coeffs, rhs in rows])


def dual_values(sx, zrow_name="z"):
    """The duals of sx as Fractions; their denominator must be positive."""
    nums, den = sx.duals(zrow_name)
    assert den > 0
    return [Fraction(y, den) for y in nums]


def test_equality_system_solves_exactly():
    x, y = 0, 1
    sx = build([1, 2], [({x: 1, y: 1}, 3), ({x: 1, y: -1}, 1)])
    sx.solve()
    assert sx.objective() == 4
    assert sx.solution()[x] == 2
    assert sx.solution()[y] == 1
    sx.assert_optimal()


def test_surplus_rows_and_strong_duality():
    x, y, s1, s2 = range(4)
    sx = build([2, 3, 0, 0], [({x: 1, y: 1, s1: -1}, 4), ({x: 1, s2: -1}, 1)])
    sx.solve()
    assert sx.objective() == 8
    y_row = dual_values(sx)
    assert y_row[0] * 4 + y_row[1] * 1 == sx.objective()
    assert all(v >= 0 for v in y_row)


def test_fractional_rhs_stays_exact():
    x = 0
    sx = build([1], [({x: 7}, 3)])
    sx.solve()
    assert sx.solution()[x] == Fraction(3, 7)
    assert isinstance(sx.objective(), Fraction)


def test_model_rows_reject_a_negative_rhs():
    # b = -1 over d = 1 and 2, as the only row and after a valid one
    for b, d in ((-1, 1), (-1, 2)):
        for rows in ([({0: -1}, b, d)], [({0: 1}, 0, 1), ({0: -1}, b, d)]):
            with pytest.raises(ValueError):
                ExactSimplex([1], rows)
    sx = ExactSimplex([1], [({0: 1}, 0, 1)])
    sx.solve()
    assert sx.objective() == 0


def test_infeasible_system_raises():
    x, sp = 0, 1
    sx = build([1, 0], [({x: 1}, 1), ({x: 1, sp: -1}, 2)])
    with pytest.raises(Infeasible):
        sx.solve()


def test_unbounded_objective_raises():
    x, sp = 0, 1
    sx = build([-1, 0], [({x: 1, sp: -1}, 1)])
    with pytest.raises(Unbounded):
        sx.solve()


def test_beale_cycling_example_terminates():
    # the classic degenerate tableau that cycles under naive Dantzig; each
    # >= row gets its surplus column, and x6 <= 1 its slack
    x4, x5, x6, x7, s1, s2, s3 = range(7)
    sx = build([Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0], [
        ({x4: Fraction(-1, 4), x5: 60, x6: Fraction(1, 25), x7: -9, s1: -1},
         0),
        ({x4: Fraction(-1, 2), x5: 90, x6: Fraction(1, 50), x7: -3, s2: -1},
         0),
        ({x6: 1, s3: 1}, 1)])
    sx.solve()
    assert sx.objective() == Fraction(-1, 20)
    sx.assert_optimal()


def test_warm_cut_rows_reprice_the_optimum():
    x, y, sp = range(3)
    sx = build([1, 1, 0], [({x: 1, y: 1, sp: -1}, 1)])
    sx.solve()
    assert sx.objective() == 1
    # y >= 0 as 2y / d >= 0: y is not basic, so each row is stored as
    # (-2 at y, d at its surplus) over d until d reaches DEN_LIMIT
    sx.add_cut_rows([({y: 2}, 0, d) for d in
                     (DEN_LIMIT // 2, DEN_LIMIT, 2 * DEN_LIMIT)])
    assert sx.den[1:] == [DEN_LIMIT // 2, DEN_LIMIT // 2, DEN_LIMIT]
    sx.add_cut_row({x: 1}, Fraction(3, 4))
    sx.add_cut_row({y: 1}, Fraction(1, 2))
    sx.solve()
    assert sx.objective() == Fraction(5, 4)
    assert sx.solution()[x] == Fraction(3, 4)
    assert sx.solution()[y] == Fraction(1, 2)
    sx.assert_optimal()


def test_column_generation_master_loop():
    # miniature of the decomposition master: fix a target point, price in
    # columns until the phase-1 residual hits zero
    sx = ExactSimplex(rows=[({}, 1, 2), ({}, 1, 1)])
    gap = sx.solve_phase1()
    assert gap == Fraction(3, 2)
    a = sx.add_column(0, {0: 1, 1: 1})
    gap = sx.solve_phase1()
    assert gap == Fraction(1, 2)
    b = sx.add_column(0, {1: 1})
    gap = sx.solve_phase1()
    assert gap == 0
    assert sx.solution()[a] == Fraction(1, 2)
    assert sx.solution()[b] == Fraction(1, 2)


def test_duals_belong_to_the_rows_as_given():
    # x <= 3 as x + s1 = 3 and x >= 1 as x - s2 = 1: only the second row
    # binds, and sum y_i b_i = 1 equals the objective
    x, s1, s2 = range(3)
    sx = build([1, 0, 0], [({x: 1, s1: 1}, 3), ({x: 1, s2: -1}, 1)])
    sx.solve()
    assert sx.objective() == 1
    assert dual_values(sx) == [0, 1]


def test_solution_maps_only_nonzero_basics():
    x, y, sp = range(3)
    sx = build([1, 1, 0], [({x: 1, y: 1, sp: -1}, 2)])
    sx.solve()
    sol = sx.solution()
    assert sum(sol.values(), Fraction(0)) == 2
    assert all(v > 0 for v in sol.values())


# ----- the cut loop of the pair LPs -----

class CountingSimplex(ExactSimplex):
    solves = 0

    def solve(self):
        self.solves += 1
        super().solve()


def two_triangle_matching_lp():
    """(sx, pairs, delta): the degree rows x(delta(v)) = 1 on six vertices,
    with the pairs inside {0, 1, 2} and inside {3, 4, 5} at cost 1 and the
    others at cost 10.  Its optimum, 3, is 1/2 on each triangle pair."""
    pairs = complete_edges(6)
    delta = delta_rows(pairs, 6)
    sx = CountingSimplex([1 if (u < 3) == (v < 3) else 10 for u, v in pairs],
                         [(delta({v}), 1, 1) for v in range(6)])
    return sx, pairs, delta


def test_cutting_planes_stops_after_one_solve_when_no_cut_comes():
    sx, pairs, delta = two_triangle_matching_lp()
    calls = []

    def oracle(y, den):
        calls.append((dict(y), den))
        return []

    y, den = cutting_planes(sx, pairs, delta, oracle)
    assert calls == [(y, den)]
    assert (sx.solves, len(sx.rows)) == (1, 6)
    assert {e: Fraction(v, den) for e, v in y.items()} == {
        (u, v): Fraction(1, 2) for u, v in pairs if (u < 3) == (v < 3)}


def test_cutting_planes_rejects_a_cut_already_in_the_model():
    sx, pairs, delta = two_triangle_matching_lp()
    rounds = iter([[((0, 1, 2), 1)]] * 2)  # the same cut twice, then none
    with pytest.raises(AssertionError, match="already in the model"):
        cutting_planes(sx, pairs, delta, lambda y, den: next(rounds, []))
    assert (sx.solves, len(sx.rows)) == (2, 7)


# ----- the integer tableau against the Fraction tableau -----

RAISES = (Infeasible, Unbounded, oracles.Infeasible, oracles.Unbounded)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
# the data of one model: all ints, all Fractions, or each value either
numbers = st.sampled_from([st.integers(-4, 4), rationals,
                           st.one_of(st.integers(-4, 4), rationals)])


class PivotPath:
    """Records every pivot (row, column) in self.path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.path = []

    def _pivot(self, r, j):
        self.path.append((r, j))
        super()._pivot(r, j)


def stored_rows(sx):
    """(numerators, rhs, denominator) of every row and cost row of sx."""
    rows = [*zip(sx.rows, sx.rhs, sx.den), (sx.z, 0, sx.zden)]
    if sx.z1 is not None:
        rows.append((sx.z1, 0, sx.z1den))
    return rows


class IntegerTableau(PivotPath, ExactSimplex):
    """Checks the lazy normalisation after every pivot and appended column:
    the pivot row is in lowest terms, and a row whose denominator changed
    is in lowest terms or over a denominator below DEN_LIMIT."""

    def _pivot(self, r, j):
        before = [d for _, _, d in stored_rows(self)]
        super()._pivot(r, j)
        assert gcd(self.den[r], self.rhs[r], *self.rows[r]) == 1
        self.assert_rescaled_rows_reduced(before)

    def add_column(self, cost, coeffs):
        before = [d for _, _, d in stored_rows(self)]
        j = super().add_column(cost, coeffs)
        self.assert_rescaled_rows_reduced(before)
        return j

    def assert_rescaled_rows_reduced(self, before):
        for (row, b, d), d0 in zip(stored_rows(self), before, strict=True):
            assert d > 0
            if d != d0:
                assert d < DEN_LIMIT or gcd(d, b, *row) == 1


class FractionEqualities(oracles.FractionSimplex):
    """The Fraction tableau, built from the constructor arguments that
    ExactSimplex takes: costs and the equalities coeffs.x = b / d, set up
    at once, with phase 1 closed when there is no row."""

    def __init__(self, costs=(), rows=()):
        super().__init__()
        for c in costs:
            self.add_variable(c)
        for coeffs, b, d in rows:
            self.add_constraint({j: Fraction(p, d) for j, p in coeffs.items()},
                                "=", Fraction(b, d))
        self._setup()
        if not rows:
            self._close_phase1()


class StallRecorder(PivotPath, FractionEqualities):
    """The oracle, recording its pivots and its longest run of degenerate
    pivots."""
    streak = longest = 0

    def _pivot(self, r, j):
        self.streak = self.streak + 1 if self.rhs[r] == 0 else 0
        self.longest = max(self.longest, self.streak)
        super()._pivot(r, j)


def both(costs, rows):
    """(integer tableau, Fraction tableau), each built from costs and
    rows."""
    return IntegerTableau(costs, rows), StallRecorder(costs, rows)


def same_call(pair, method, *args):
    """Call method on both tableaux: they must return the same value or
    raise the same Infeasible/Unbounded.  True when the calls returned."""
    outcomes = []
    for sx in pair:
        try:
            outcomes.append(("returned", getattr(sx, method)(*args)))
        except RAISES as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0] == "returned"


def assert_strong_duality(sx, rhs):
    """sum y_i b_i over the rows as given equals the objective."""
    nums, den = sx.duals()
    assert sum((y * b for y, b in zip(nums, rhs)), Fraction(0)) \
        == den * sx.objective()


def assert_same_tableau(pair):
    """Every stored entry of the integer tableau, over its row's
    denominator, equals the Fraction tableau's entry: the same pivots give
    the same rows in the same order."""
    new, old = pair
    assert len(new.rows) == len(old.rows)
    for row, b, d, old_row, old_b in zip(new.rows, new.rhs, new.den,
                                         old.rows, old.rhs):
        assert [Fraction(c, d) for c in row] == old_row
        assert Fraction(b, d) == old_b
    assert [Fraction(c, new.zden) for c in new.z] == old.z
    assert (new.z1 is None) == (old.z1 is None)
    if old.z1 is not None:
        assert [Fraction(c, new.z1den) for c in new.z1] == old.z1


def assert_same_state(pair, phase1=False):
    new, old = pair
    assert_same_tableau(pair)
    assert new.path == old.path
    assert new.basis == old.basis
    assert new.pivots == old.pivots
    assert new.solution() == old.solution()
    assert new.objective() == old.objective()
    for zrow_name in ("z", "z1") if phase1 else ("z",):
        old_values, old_den = old.duals(zrow_name)
        assert old_den == 1
        assert dual_values(new, zrow_name) == old_values


def build_model(costs, rows):
    """The constructor's (costs, rows): each row (coefs, sense, rhs) goes
    in as an equality with rhs >= 0, as ints over their lcm.  A >= row gets
    a surplus column of cost 0 and coefficient -1, appended after the
    columns before it, and a row with rhs < 0 is negated."""
    costs, out = list(costs), []
    for coefs, sense, rhs in rows:
        coeffs = dict(enumerate(coefs))
        if sense == ">=":
            coeffs[len(costs)] = -1
            costs.append(0)
        if rhs < 0:
            coeffs = {j: -c for j, c in coeffs.items()}
        out.append(int_row(coeffs, abs(rhs)))
    return costs, out


@st.composite
def cutting_plane_runs(draw):
    """A model with int, Fraction or mixed data, = and >= rows and any rhs
    sign, plus the >= rows appended warm afterwards."""
    number = draw(numbers)
    nvars = draw(st.integers(1, 5))
    coefs = st.lists(number, min_size=nvars, max_size=nvars)
    costs = draw(coefs)
    rows = draw(st.lists(st.tuples(coefs, st.sampled_from(["=", ">="]),
                                   number), min_size=1, max_size=5))
    cuts = draw(st.lists(st.tuples(coefs, number), max_size=4))
    return costs, rows, cuts


@settings(max_examples=150, deadline=None)
@given(cutting_plane_runs())
def test_cutting_plane_path_matches_the_fraction_tableau(run):
    costs, rows, cuts = run
    rhs_given = [abs(Fraction(rhs)) for _, _, rhs in rows]
    pair = both(*build_model(costs, rows))
    if not same_call(pair, "solve"):
        return
    assert_same_state(pair)
    pair[0].assert_optimal()
    assert_strong_duality(pair[0], rhs_given)
    for coefs, rhs in cuts:
        for sx in pair:
            sx.add_cut_row(dict(enumerate(coefs)), rhs)
        assert_same_tableau(pair)
        rhs_given.append(rhs)
        if not same_call(pair, "solve"):
            return
        assert_same_state(pair)
        pair[0].assert_optimal()
        assert_strong_duality(pair[0], rhs_given)


@settings(max_examples=100, deadline=None)
@given(cutting_plane_runs())
def test_a_batch_of_cut_rows_is_the_rows_one_at_a_time(run):
    costs, rows, cuts = run
    one, batch = (ExactSimplex(*build_model(costs, rows)) for _ in range(2))
    for sx in (one, batch):
        try:
            sx.solve()
        except (Infeasible, Unbounded):
            return
    for coefs, rhs in cuts:
        one.add_cut_row(dict(enumerate(coefs)), rhs)
    row_ids = batch.add_cut_rows([int_row(dict(enumerate(coefs)), rhs)
                                  for coefs, rhs in cuts])
    assert row_ids == list(range(len(rows), len(rows) + len(cuts)))
    assert vars(batch) == vars(one)


# sparse int rows: about two entries in three are 0, and a common factor
# g >= 1 leaves rows with a gcd of 1 and rows with a larger one
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
# denominators up to 64 times below DEN_LIMIT, and just above it: a row
# over one of them, scaled by an elimination, often reaches the cap
near_cap = st.builds(lambda k, e: (DEN_LIMIT >> k) + e, st.integers(0, 6),
                     st.integers(-1, 1))


@st.composite
def scaled_rows(draw, ncols, positive_den=True):
    """(row, b, d): a sparse int row of ncols entries, all-zero rows
    included, its rhs and its denominator, all times one factor g >= 1,
    except a denominator of 1, which about a third of the draws give."""
    g = draw(st.integers(1, 4))
    row = draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
    d = draw(st.one_of(st.just(1), st.integers(1, 6) if positive_den
                       else st.integers(-6, 6).filter(bool), near_cap))
    return ([g * c for c in row], g * draw(st.integers(-9, 9)),
            d if d == 1 else g * d)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: scaled_rows(n, False)))
def test_reduced_touches_only_nonzeros(triple):
    row, b, d = triple
    want = oracles.reduced_dense(list(row), b, d)
    assert _reduced(list(row), b, d) == want
    nz = [j for j, c in enumerate(row) if c]
    assert _reduced(list(row), b, d, nz) == want


@st.composite
def pivot_cases(draw):
    """A tableau of sparse int rows over positive denominators, a sparse
    cost row, and a pivot (r, j) on a nonzero entry of either sign."""
    ncols = draw(st.integers(1, 8))
    m = draw(st.integers(1, 5))
    rows, rhs, den = zip(*(draw(scaled_rows(ncols)) for _ in range(m)))
    z, _, zden = draw(scaled_rows(ncols))
    r = draw(st.integers(0, m - 1))
    j = draw(st.integers(0, ncols - 1))
    rows = [list(row) for row in rows]
    if not rows[r][j]:
        rows[r][j] = draw(st.integers(-9, 9).filter(bool))
    return rows, list(rhs), list(den), z, zden, r, j


@settings(max_examples=300, deadline=None)
@given(pivot_cases())
def test_pivot_on_nonzeros_stores_the_dense_ints(case):
    rows, rhs, den, z, zden, r, j = case
    sx = ExactSimplex([0] * len(z))
    sx.rows, sx.rhs, sx.den = [list(row) for row in rows], list(rhs), list(den)
    sx.z, sx.zden = list(z), zden
    sx.basis = [0] * len(rows)  # not artificial, so nothing is banned
    sx._pivot(r, j)
    assert (sx.rows, sx.rhs, sx.den, sx.z, sx.zden) == \
        oracles.pivot_dense(rows, rhs, den, z, zden, r, j)


def degenerate_model(seed):
    """Homogeneous >= rows and one convexity row: nearly every pivot is
    degenerate, so long runs reach the Bland switch."""
    rng = random.Random(seed)
    nvars, m = rng.randint(6, 10), rng.randint(8, 16)
    costs = [rng.randint(-5, 5) for _ in range(nvars)]
    rows = [([rng.randint(-3, 3) for _ in range(nvars)], ">=", 0)
            for _ in range(m)]
    rows.append(([1] * nvars, "=", 1))
    return build_model(costs, rows)


@pytest.mark.parametrize("seed", [182, 187, 191, 195])
def test_degenerate_path_through_bland_matches(seed):
    pair = both(*degenerate_model(seed))
    if same_call(pair, "solve"):
        assert_same_state(pair)
    assert pair[1].longest >= STALL_LIMIT


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_degenerate_path_matches_the_fraction_tableau(seed):
    pair = both(*degenerate_model(seed))
    if same_call(pair, "solve"):
        assert_same_state(pair)


@st.composite
def master_runs(draw):
    """A column-generation master: = rows with rational rhs of any sign
    and no variables, then columns priced in one at a time.  A row with
    rhs < 0 goes in negated, with its entry in every column."""
    m = draw(st.integers(1, 5))
    rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    columns = draw(st.lists(st.tuples(
        rationals, st.lists(rationals, min_size=m, max_size=m)),
        min_size=1, max_size=8))
    return rhs, columns


@settings(max_examples=100, deadline=None)
@given(master_runs())
# a pivot leaves a cost row with a common factor, and the next column's
# entry 1/2 scales that row's denominator: the row must come out reduced
@example(([Fraction(0)], [(Fraction(2, 3), [Fraction(2, 3)]),
                          (Fraction(0), [Fraction(1, 2)])]))
def test_master_path_matches_the_fraction_tableau(run):
    rhs, columns = run

    pair = both((), [int_row({}, abs(b)) for b in rhs])
    assert same_call(pair, "solve_phase1")
    assert_same_state(pair, phase1=True)
    for cost, coefs in columns:
        for sx in pair:
            sx.add_column(cost, {i: -a if b < 0 else a for i, (a, b)
                                 in enumerate(zip(coefs, rhs))})
        assert_same_tableau(pair)
        assert same_call(pair, "solve_phase1")
        assert_same_state(pair, phase1=True)
    if same_call(pair, "solve"):
        assert_same_state(pair)


def same_pivots_as_fractions(monkeypatch, module, run):
    """run() with module.ExactSimplex, then with the Fraction tableau in its
    place: both return the same result through the same pivots.  Returns
    that result and the pivots."""
    results, paths = [], []
    for base in (ExactSimplex, FractionEqualities):
        path = []

        class Recording(base):
            def _pivot(self, r, j, path=path):
                path.append((r, j))
                super()._pivot(r, j)

        monkeypatch.setattr(module, "ExactSimplex", Recording)
        results.append(run())
        paths.append(path)
    assert results[0] == results[1]
    assert paths[0] == paths[1]
    return results[0], paths[0]


def test_lp_path_matches_the_fraction_tableau(lp26, monkeypatch):
    inst, sol, _ = lp26

    def run():
        got = lp_relax.solve_lp(inst)
        return got.x, got.value

    got, _ = same_pivots_as_fractions(monkeypatch, lp_relax, run)
    assert got == (sol.x, sol.value)


def test_tjoin_path_matches_the_fraction_tableau(monkeypatch):
    # the largest parity set of the raw k = 5 wall; the matching LP starts
    # from its degree rows appended warm, so most pivots are dual steps
    inst, _, dist = build_appendix_instance(5)
    T = max((split_path_join(atom.tree, inst).t_set for atom in dist),
            key=len)
    assert len(T) == 20
    _, path = same_pivots_as_fractions(monkeypatch, bomc,
                                       lambda: bomc.min_tjoin(T, inst))
    assert len(path) > len(T)


def test_decomposition_path_matches_the_fraction_tableau(lp26, monkeypatch):
    inst, sol, _ = lp26
    _, path = same_pivots_as_fractions(
        monkeypatch, tree_decomp, lambda: tree_decomp.decompose(sol.x, inst))
    assert path


def test_tableau_ints_stay_small_along_the_lp40_path(lp40, monkeypatch):
    # lazy normalisation leaves rows with a common factor; it must not let
    # the stored ints compound (they peak at 6 bits here with the DEN_LIMIT
    # cap, as they do when every rescaled row is reduced and with no cap,
    # and at 14 bits when the pivot row is not reduced either)
    inst, sol, _ = lp40
    peak = []

    def largest_bits(sx):
        ints = chain(*sx.rows, sx.rhs, sx.den, sx.z, [sx.zden])
        peak.append(max(map(abs, ints)).bit_length())

    class Watched(ExactSimplex):
        def _pivot(self, r, j):
            super()._pivot(r, j)
            largest_bits(self)

        def add_cut_rows(self, cuts):
            row_ids = super().add_cut_rows(cuts)
            largest_bits(self)
            return row_ids

    monkeypatch.setattr(lp_relax, "ExactSimplex", Watched)
    got = lp_relax.solve_lp(inst)
    assert (got.x, got.value) == (sol.x, sol.value)
    assert peak and max(peak) <= 10


def test_tableau_ints_stay_small_along_the_lp80_master_path(monkeypatch):
    # the master on this point rescales its rows again and again: its stored
    # ints peak at 41 bits with the DEN_LIMIT cap (20 when every rescaled
    # row is reduced), and at 425 bits with no cap
    x, _ = lp_relax.read_solution(Path(__file__).parent / "data"
                                  / "lp80_seed0.sol")
    peak = []

    class Watched(ExactSimplex):
        def _pivot(self, r, j):
            super()._pivot(r, j)
            peak.append(max(abs(c) for ints, b, d in stored_rows(self)
                            for c in (*ints, b, d)).bit_length())

    monkeypatch.setattr(tree_decomp, "ExactSimplex", Watched)
    dist = tree_decomp.decompose(x, random_metric_instance(80, 0))
    assert oracles.reconstruct(dist) == x
    assert peak and max(peak) <= 44
