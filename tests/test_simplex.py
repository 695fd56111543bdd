import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtsp import lp_relax
from pathtsp.simplex import STALL_LIMIT, ExactSimplex, Infeasible, Unbounded

from . import oracles


def build(costs):
    sx = ExactSimplex()
    cols = [sx.add_variable(c) for c in costs]
    return sx, cols


def test_equality_system_solves_exactly():
    sx, (x, y) = build([1, 2])
    sx.add_constraint({x: 1, y: 1}, "=", 3)
    sx.add_constraint({x: 1, y: -1}, "=", 1)
    sx.solve()
    assert sx.objective() == 4
    assert sx.value_of(x) == 2
    assert sx.value_of(y) == 1
    sx.assert_optimal()


def test_surplus_rows_and_strong_duality():
    sx, (x, y) = build([2, 3])
    sx.add_constraint({x: 1, y: 1}, ">=", 4)
    sx.add_constraint({x: 1}, ">=", 1)
    sx.solve()
    assert sx.objective() == 8
    y_row = sx.duals()
    assert y_row[0] * 4 + y_row[1] * 1 == sx.objective()
    assert all(v >= 0 for v in y_row)


def test_fractional_rhs_stays_exact():
    sx, (x,) = build([1])
    sx.add_constraint({x: 7}, "=", 3)
    sx.solve()
    assert sx.value_of(x) == Fraction(3, 7)
    assert isinstance(sx.objective(), Fraction)


def test_infeasible_system_raises():
    sx, (x,) = build([1])
    sx.add_constraint({x: 1}, "=", 1)
    sx.add_constraint({x: 1}, ">=", 2)
    with pytest.raises(Infeasible):
        sx.solve()


def test_unbounded_objective_raises():
    sx, (x,) = build([-1])
    sx.add_constraint({x: 1}, ">=", 1)
    with pytest.raises(Unbounded):
        sx.solve()


def test_beale_cycling_example_terminates():
    # the classic degenerate tableau that cycles under naive Dantzig
    sx, (x4, x5, x6, x7) = build([Fraction(-3, 4), 150, Fraction(-1, 50), 6])
    sx.add_constraint({x4: Fraction(-1, 4), x5: 60, x6: Fraction(1, 25),
                       x7: -9}, ">=", 0)
    sx.add_constraint({x4: Fraction(-1, 2), x5: 90, x6: Fraction(1, 50),
                       x7: -3}, ">=", 0)
    sx.add_constraint({x6: -1}, ">=", -1)
    sx.solve()
    assert sx.objective() == Fraction(-1, 20)
    sx.assert_optimal()


def test_warm_cut_rows_reprice_the_optimum():
    sx, (x, y) = build([1, 1])
    sx.add_constraint({x: 1, y: 1}, ">=", 1)
    sx.solve()
    assert sx.objective() == 1
    sx.add_cut_row({x: 1}, ">=", Fraction(3, 4))
    sx.add_cut_row({y: 1}, ">=", Fraction(1, 2))
    sx.solve()
    assert sx.objective() == Fraction(5, 4)
    assert sx.value_of(x) == Fraction(3, 4)
    assert sx.value_of(y) == Fraction(1, 2)
    sx.assert_optimal()


def test_column_generation_master_loop():
    # miniature of the decomposition master: fix a target point, price in
    # columns until the phase-1 residual hits zero
    sx = ExactSimplex()
    sx.add_constraint({}, "=", Fraction(1, 2))
    sx.add_constraint({}, "=", 1)
    gap = sx.solve_phase1()
    assert gap == Fraction(3, 2)
    a = sx.add_column(0, {0: 1, 1: 1})
    gap = sx.solve_phase1()
    assert gap == Fraction(1, 2)
    b = sx.add_column(0, {1: 1})
    gap = sx.solve_phase1()
    assert gap == 0
    assert sx.value_of(a) == Fraction(1, 2)
    assert sx.value_of(b) == Fraction(1, 2)


def test_add_column_on_a_negative_rhs_row():
    # add_constraint stores a row with rhs < 0 negated; a column priced in
    # later enters with its coefficient on that row negated too
    sx = ExactSimplex()
    sx.add_constraint({}, "=", -1)
    sx.add_constraint({}, "=", 2)
    assert sx.solve_phase1() == 3
    j = sx.add_column(0, {0: -1, 1: 2})
    assert sx.solve_phase1() == 0
    assert sx.value_of(j) == 1


def test_solution_maps_only_nonzero_basics():
    sx, (x, y) = build([1, 1])
    sx.add_constraint({x: 1, y: 1}, ">=", 2)
    sx.solve()
    sol = sx.solution()
    assert sum(sol.values(), Fraction(0)) == 2
    assert all(v > 0 for v in sol.values())


# ----- the integer tableau against the Fraction tableau -----

RAISES = (Infeasible, Unbounded, oracles.Infeasible, oracles.Unbounded)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


class StallRecorder(oracles.FractionSimplex):
    """The oracle, recording its longest run of degenerate pivots."""
    streak = longest = 0

    def _pivot(self, r, j):
        self.streak = self.streak + 1 if self.rhs[r] == 0 else 0
        self.longest = max(self.longest, self.streak)
        super()._pivot(r, j)


def both(build):
    """(integer tableau, Fraction tableau), each set up by build(sx)."""
    pair = ExactSimplex(), StallRecorder()
    for sx in pair:
        build(sx)
    return pair


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


def assert_same_state(pair, phase1=False):
    new, old = pair
    assert new.basis == old.basis
    assert new.pivots == old.pivots
    assert new.solution() == old.solution()
    assert new.objective() == old.objective()
    assert new.duals() == old.duals()
    if phase1:
        assert new.duals("z1") == old.duals("z1")


def build_model(costs, rows):
    def build(sx):
        cols = [sx.add_variable(c) for c in costs]
        for coefs, sense, rhs in rows:
            sx.add_constraint(dict(zip(cols, coefs)), sense, rhs)
    return build


@st.composite
def cutting_plane_runs(draw):
    """A model with rational data, = and >= rows and any rhs sign, plus
    the >= rows appended warm afterwards."""
    nvars = draw(st.integers(1, 5))
    coefs = st.lists(rationals, min_size=nvars, max_size=nvars)
    costs = draw(coefs)
    rows = draw(st.lists(st.tuples(coefs, st.sampled_from(["=", ">="]),
                                   rationals), min_size=1, max_size=5))
    cuts = draw(st.lists(st.tuples(coefs, rationals), max_size=4))
    return costs, rows, cuts


@settings(max_examples=150, deadline=None)
@given(cutting_plane_runs())
def test_cutting_plane_path_matches_the_fraction_tableau(run):
    costs, rows, cuts = run
    pair = both(build_model(costs, rows))
    if not same_call(pair, "solve"):
        return
    assert_same_state(pair)
    pair[0].assert_optimal()
    for coefs, rhs in cuts:
        for sx in pair:
            sx.add_cut_row(dict(enumerate(coefs)), ">=", rhs)
        if not same_call(pair, "solve"):
            return
        assert_same_state(pair)
        pair[0].assert_optimal()


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
    pair = both(degenerate_model(seed))
    if same_call(pair, "solve"):
        assert_same_state(pair)
    assert pair[1].longest >= STALL_LIMIT


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_degenerate_path_matches_the_fraction_tableau(seed):
    pair = both(degenerate_model(seed))
    if same_call(pair, "solve"):
        assert_same_state(pair)


@st.composite
def master_runs(draw):
    """A column-generation master: = rows with rational rhs and no
    variables, then columns priced in one at a time.  The rhs stay >= 0:
    the Fraction tableau's add_column does not negate a column on a row
    that add_constraint stored negated."""
    m = draw(st.integers(1, 5))
    rhs = draw(st.lists(st.builds(Fraction, st.integers(0, 4),
                                  st.integers(1, 3)), min_size=m, max_size=m))
    columns = draw(st.lists(st.tuples(
        rationals, st.lists(rationals, min_size=m, max_size=m)),
        min_size=1, max_size=8))
    return rhs, columns


@settings(max_examples=100, deadline=None)
@given(master_runs())
def test_master_path_matches_the_fraction_tableau(run):
    rhs, columns = run

    def build(sx):
        for b in rhs:
            sx.add_constraint({}, "=", b)

    pair = both(build)
    assert same_call(pair, "solve_phase1")
    for cost, coefs in columns:
        for sx in pair:
            sx.add_column(cost, dict(enumerate(coefs)))
        assert same_call(pair, "solve_phase1")
        assert_same_state(pair, phase1=True)
    if same_call(pair, "solve"):
        assert_same_state(pair)


def test_lp_path_matches_the_fraction_tableau(lp26, monkeypatch):
    # n = 26 is above the separation enumerator's limit
    inst, sol, _ = lp26
    paths = []
    for base in (ExactSimplex, oracles.FractionSimplex):
        path = []

        class Recording(base):
            def _pivot(self, r, j, path=path):
                path.append((r, j))
                super()._pivot(r, j)

        monkeypatch.setattr(lp_relax, "ExactSimplex", Recording)
        got = lp_relax.solve_lp(inst)
        assert (got.x, got.value) == (sol.x, sol.value)
        paths.append(path)
    assert paths[0] == paths[1]
