"""Exact two-phase primal/dual simplex on integer rows.

Dense tableau with one artificial column per original row; the artificial
columns double as an explicit B^-1, which is what makes warm column
generation cheap.  Pivot selection is Dantzig with an automatic switch to
Bland's rule after a stall, so degenerate models still terminate.  All
tie-breaks go to the lowest index, so runs are deterministic.

Representation.  Row i is a list of Python ints `rows[i]` and an int
`rhs[i]` over one positive int denominator `den[i]`: the tableau entry is
rows[i][j] / den[i].  The reduced-cost rows `z` and `z1` are int lists over
their own denominators `zden` and `z1den`.  A pivot divides the pivot row
by its pivot entry, which cancels that row's denominator, and eliminates
the entering column from every other row fraction-free, in the spirit of
Bareiss (1968), touching only the pivot row's nonzeros.  Start rows and
add_cut_rows() rows come as ints; costs and the other inputs, ints or
Fractions, are read as int ratios (as_integer_ratio(), or numerator and
denominator) on entry, and costs are stored as given.  Fractions appear
only in the readers: the solution, the objective and the phase-1
objective.  The duals are read back as ints over their cost row's
denominator, the form pricing uses, and the solution can be read the same
way, as each basic column's rhs over its row's denominator.

Normalisation is lazy.  The pivot row is divided by the gcd of its
numerators, rhs and denominator on every pivot.  Any other row keeps its
ints as they are until a step scales its denominator d by some s: an
elimination whose multiple f / pd of the pivot row is not over the row's
own denominator, an appended entry whose denominator does not divide it, or
a new cut row, over the cut's denominator times the lcm of the rows it is
expressed through.  The row then stays over d * s, unreduced, while d * s <
DEN_LIMIT, and is divided by its gcd once d * s reaches DEN_LIMIT.  Most
eliminations leave the denominator as it is; they change only the pivot
row's columns.  Normalisation and scaling touch only a row's nonzeros, in
place: its gcd is its nonzeros' gcd, and a zero stays zero when it is
scaled or divided.  Unreduced scalings compound, each multiplying the
stored ints by its s, so the cap is what bounds them: a row's denominator
is below DEN_LIMIT (one 30-bit CPython digit), or it was the least one the
row's values had when the denominator last changed, and the stored ints are
the values times it.  A row need not be in lowest terms, and no choice
depends on whether it is.

The pivots are exactly those of the same tableau held in Fractions (kept as
the reference in tests/oracles.py), because every choice compares exact
rationals, here by cross-multiplying ints:
  * pricing compares entries of one cost row, which share a positive
    denominator, so it compares numerators;
  * the ratio rhs_i / a_i does not depend on row i's denominator, so the
    primal ratio test cross-multiplies numerators; the dual step compares
    rhs_i / den_i across rows, and z_j / (-a_j) along one row, the same way;
  * a pivot moves the objective by z_enter * rhs_r / a_r with z_enter != 0,
    so it leaves the objective unchanged (a stall) exactly when the leaving
    row's rhs is 0.

Each LP is built in one constructor call, ExactSimplex(costs, rows): its
start rows are equalities with rhs >= 0 in the int form (coeffs, b, d) that
add_cut_rows() takes.  Two usage patterns:
  * the pair LPs: the path LP starts from its degree rows, and the T-join
    matching LP from none, so its phase 1 is closed at once and its degree
    rows go in through add_cut_rows().  cutting_planes() then solves, reads
    the vertex with basic_values() on ints and appends each round of cuts
    in one add_cut_rows() step, whose tableau is the one that one
    add_cut_row() per row builds (dual simplex repairs the basis);
  * decomposition master: start rows on no columns, then solve_phase1(),
    read duals("z1"), add_column(), repeat with phase 1 open until its
    objective is zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

STALL_LIMIT = 12  # degenerate pivots in a row before switching to Bland
DEN_LIMIT = 1 << 30  # a rescaled row is put in lowest terms from here on


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _reduced(row, b, d, nz=None):
    """Divide (row, b, d) by the gcd of all its entries, taken with the sign
    of d, so that the denominator comes out positive.  The row is divided
    in place at its nonzero columns nz, listed here when not given."""
    if d == 1:
        return row, b, d
    if nz is None:
        nz = list(compress(range(len(row)), row))
    g = gcd(d, b, *[row[j] for j in nz])
    if d < 0:
        g = -g
    if g == 1:
        return row, b, d
    for j in nz:
        row[j] //= g
    return row, b // g, d // g


def _rescaled(row, b, d):
    """(row, b, d) just after its denominator was scaled up to d > 0: kept
    as it is below DEN_LIMIT, reduced at or above it."""
    if d < DEN_LIMIT:
        return row, b, d
    return _reduced(row, b, d)


def _eliminate(row, b, d, f, pivot_nz, pb, pd):
    """(row, b) / d minus f / d times the pivot row, whose nonzeros are
    pivot_nz = [(column, numerator)] and whose rhs is pb, both over pd.
    The row is changed in place; when d had to be scaled, the result
    goes through _rescaled."""
    g = gcd(f, pd)
    s, f = pd // g, f // g
    if s != 1:
        for jj in compress(range(len(row)), row):
            row[jj] *= s
    for jj, p in pivot_nz:
        row[jj] -= f * p
    if s == 1:
        return row, b - f * pb, d
    return _rescaled(row, b * s - f * pb, d * s)


def _appended(row, b, d, num, nden):
    """(row, b) / d with num / nden appended to the row.  When d had to be
    scaled, the result goes through _rescaled."""
    g = gcd(num, nden)
    num, nden = num // g, nden // g
    s = nden // gcd(d, nden)
    if s == 1:
        row.append(num * (d // nden))
        return row, b, d
    row = [c * s for c in row]
    row.append(num * (d * s // nden))
    return _rescaled(row, b * s, d * s)


def delta_rows(pairs, n: int):
    """The cut-row builder of an LP with one column per vertex pair:
    column j is the pair pairs[j] of 0..n-1.  Returns delta(U) ->
    {column: 1} over the pairs with exactly one end in U, read from an
    n x n table in |U| (n - |U|) steps."""
    table = [[0] * n for _ in range(n)]
    for j, (u, v) in enumerate(pairs):
        table[u][v] = table[v][u] = j

    def delta(U):
        inside = set(U)
        outside = [v for v in range(n) if v not in inside]
        return {table[u][v]: 1 for u in inside for v in outside}

    return delta


def cutting_planes(sx, pairs, delta, oracle):
    """The cut loop of an LP whose columns 0..len(pairs) - 1 are the
    vertex pairs, with delta from delta_rows; the caller builds sx and its
    start rows.  Each round solves, reads the vertex as ints y[pair] over
    den, the lcm of the basic pairs' dens (pairs at 0 left out), and
    appends the rows delta(U).x >= required of oracle(y, den), a list
    [(U, required)] of ints, in one add_cut_rows call.  No U may be a cut
    row already, so the loop ends.  At no cut, it asserts optimality and
    returns (y, den): the stop test is the oracle's."""
    npairs = len(pairs)
    seen = set()  # vertex sets of the cut rows
    while True:
        sx.solve()
        at = sorted(v for v in sx.basic_values() if v[0] < npairs)
        den = lcm(*{d for _, _, d in at})
        y = {pairs[j]: b * (den // d) for j, b, d in at}
        cuts = oracle(y, den)
        if not cuts:
            sx.assert_optimal()
            return y, den
        for U, _ in cuts:
            assert U not in seen, "separated a cut already in the model"
            seen.add(U)
        sx.add_cut_rows([(delta(U), required, 1) for U, required in cuts])


class ExactSimplex:
    """min cost.x  s.t.  rows (=, >=),  x >= 0 — all exact rationals."""

    def __init__(self, costs=(), rows=()):
        """The tableau of min costs.x subject to one equality coeffs.x =
        b / d per row (coeffs, b, d) of rows, x >= 0, in int form: coeffs
        maps columns to int numerators over the int d > 0, and b >= 0.  It
        starts on the all-artificial basis with phase 1 open; with no rows,
        phase 1 is closed at once, so add_cut_rows() may follow."""
        self.costs = list(costs)  # phase-2 cost per column, as given
        # False for an artificial column, which never enters: it starts
        # basic, so at reduced cost 0, and is banned once it leaves
        self.structural = [True] * len(self.costs)
        self.rows = []           # tableau: rows[i][j] / den[i]
        self.rhs = []            # rhs[i] / den[i]
        self.den = []
        self.art_of_row = []     # artificial column per original row (-1: none)
        self.sp_of_row = {}      # surplus column of each cut row
        self.pivots = 0
        ncols = len(self.costs) + len(rows)
        for coeffs, b, d in rows:
            if b < 0:
                raise ValueError(f"row rhs {b}/{d} < 0")
            a = self._new_column(0, structural=False)
            row = [0] * ncols
            for j, p in coeffs.items():
                row[j] = p
            row[a] = d
            self.rows.append(row)
            self.rhs.append(b)
            self.den.append(d)
            self.art_of_row.append(a)
        self.basis = list(self.art_of_row)  # basic column per row
        # phase-2 reduced costs over zden: the all-artificial basis has
        # zero cost
        ratios = [c.as_integer_ratio() for c in self.costs]
        self.zden = lcm(*(q for _, q in ratios))
        self.z = [p * (self.zden // q) for p, q in ratios]
        # phase-1 reduced costs over z1den (minimize the sum of
        # artificials, basis = I); None once phase 1 is closed
        self.z1, self.z1den = None, 1
        if self.rows:
            z1den = lcm(*self.den)
            z1 = [0] * ncols
            for row, d in zip(self.rows, self.den):
                k = z1den // d
                for j in compress(count(), row):
                    z1[j] -= k * row[j]
            for a in self.art_of_row:
                z1[a] = 0
            self.z1, _, self.z1den = _reduced(z1, 0, z1den)

    def _new_column(self, cost, structural=True) -> int:
        self.costs.append(cost)
        self.structural.append(structural)
        return len(self.costs) - 1

    # ----- pivoting -----

    def _pivot(self, r, j):
        rows, rhs, den = self.rows, self.rhs, self.den
        prow = rows[r]
        pd = prow[j]
        assert pd != 0
        nz = list(compress(range(len(prow)), prow))
        # dividing by the pivot entry pd / den[r] leaves the row over pd
        _, pb, pd = _reduced(prow, rhs[r], pd, nz)
        rhs[r], den[r] = pb, pd
        pivot_nz = [(jj, prow[jj]) for jj in nz]
        for i, row in enumerate(rows):
            f = row[j]
            if f and i != r:
                rows[i], rhs[i], den[i] = _eliminate(row, rhs[i], den[i], f,
                                                     pivot_nz, pb, pd)
        if self.z[j]:
            self.z, _, self.zden = _eliminate(self.z, 0, self.zden,
                                              self.z[j], pivot_nz, 0, pd)
        if self.z1 is not None and self.z1[j]:
            self.z1, _, self.z1den = _eliminate(self.z1, 0, self.z1den,
                                                self.z1[j], pivot_nz, 0, pd)
        self.basis[r] = j
        self.pivots += 1

    def _phase1_objective(self) -> Fraction:
        terms = [(b, d) for b, d, j in zip(self.rhs, self.den, self.basis)
                 if b and not self.structural[j]]
        den = lcm(*(d for _, d in terms))
        return Fraction(sum(b * (den // d) for b, d in terms), den)

    def objective(self) -> Fraction:
        return sum((self.costs[j] * Fraction(b, d) for b, d, j in
                    zip(self.rhs, self.den, self.basis) if b), Fraction(0))

    def _primal_steps(self, zrow_name):
        """Primal simplex to optimality on the chosen objective row."""
        phase1 = zrow_name == "z1"
        rows, rhs, basis = self.rows, self.rhs, self.basis
        structural = self.structural
        stall = 0
        bland = False
        while True:
            zrow = self.z1 if phase1 else self.z
            if bland:
                enter = next((j for j in compress(count(), structural)
                              if zrow[j] < 0), -1)
            else:  # the first structural column of the least reduced cost
                best = min(compress(zrow, structural), default=0)
                enter = zrow.index(best) if best < 0 else -1
                while enter >= 0 and not structural[enter]:
                    enter = zrow.index(best, enter + 1)
            if enter < 0:
                return
            # Ratio test, least rhs_i / a_i over a_i > 0.  A zero-rhs row
            # whose basic variable is artificial blocks at ratio 0 for ANY
            # nonzero pivot entry: pivoting there keeps every rhs unchanged
            # and ejects the artificial, which must never be allowed to rise
            # above zero.
            leave = -1
            lb = la = 0  # the least ratio so far is lb / la
            for i, row in enumerate(rows):
                a = row[enter]
                if not a:
                    continue
                b = rhs[i]
                if b == 0 and not structural[basis[i]]:
                    leave = i
                    break
                if a > 0:
                    if leave >= 0:
                        here, least = b * la, lb * a
                        if here > least or (here == least
                                            and basis[i] > basis[leave]):
                            continue
                    lb, la, leave = b, a, i
            if leave < 0:
                raise Unbounded(f"column {enter} is unbounded")
            if rhs[leave] == 0:  # the objective moves by z_enter * rhs / a
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            self._pivot(leave, enter)

    def _close_phase1(self):
        val = self._phase1_objective()
        if val != 0:
            raise Infeasible(f"phase-1 optimum {val} > 0")
        # pivot zero-level artificials out of the basis where possible
        for i in range(len(self.rows)):
            if not self.structural[self.basis[i]] and self.rhs[i] == 0:
                for j, c in enumerate(self.rows[i]):
                    if c != 0 and self.structural[j]:
                        self._pivot(i, j)
                        break
        self.z1 = None

    def _dual_steps(self):
        """Restore primal feasibility after violated rows were appended."""
        rows, rhs, den = self.rows, self.rhs, self.den
        structural = self.structural
        while True:
            # leave on the most negative rhs_i / den_i, the first one on ties
            leave = -1
            wb, wd = 0, 1
            for i, b in enumerate(rhs):
                if b < 0 and b * wd < wb * den[i]:
                    wb, wd, leave = b, den[i], i
            if leave < 0:
                return
            # enter on the least z_j / (-a_j) over a_j < 0, the first on ties
            z = self.z
            enter = -1
            bz = ba = 0  # the least ratio so far is bz / ba
            row = rows[leave]
            for j in compress(count(), row):
                a = row[j]
                if a < 0 and structural[j]:
                    if enter < 0 or z[j] * ba < bz * -a:
                        bz, ba, enter = z[j], -a, j
            if enter < 0:
                raise Infeasible("dual step found an unsatisfiable row")
            self._pivot(leave, enter)

    # ----- solving -----

    def solve(self):
        """Two-phase solve; warm after add_cut_rows via dual repair."""
        if self.z1 is not None:
            self._primal_steps("z1")
            self._close_phase1()
        self._dual_steps()
        self._primal_steps("z")

    def solve_phase1(self) -> Fraction:
        """Run phase 1 to optimality and return its objective (may be > 0).

        Leaves phase 1 open so the caller can add_column() and call again:
        this is the column-generation master loop.
        """
        assert self.z1 is not None, "phase 1 already closed"
        self._primal_steps("z1")
        return self._phase1_objective()

    # ----- warm modifications -----

    def add_cut_row(self, coeffs: dict, rhs):
        """Append a (typically violated) row coeffs.x >= rhs; solve()
        repairs the basis.  Coefficients and rhs are ints or Fractions."""
        b, bd = rhs.as_integer_ratio()
        d = lcm(bd, *{c.denominator for c in coeffs.values()})
        nums = {j: c.numerator * (d // c.denominator)
                for j, c in coeffs.items() if c}
        return self.add_cut_rows([(nums, b * (d // bd), d)])[0]

    def add_cut_rows(self, cuts) -> list:
        """Append one row coeffs.x >= b / d per (coeffs, b, d) in cuts, in
        int form: coeffs maps columns to int numerators over the positive
        int d.  Returns the rows' ids; solve() repairs the basis.

        The tableau is the one that adding the rows one at a time builds:
        the surplus columns are all appended first, and each row is
        expressed in the basis of the rows before it.  The cuts use only
        columns that exist before the call."""
        assert self.z1 is None
        first_sp = len(self.costs)
        for _ in cuts:
            self._new_column(0)
        pad = [0] * len(cuts)
        for row in self.rows:
            row.extend(pad)
        self.z.extend(pad)
        ncols = len(self.costs)
        rows, rhs, den = self.rows, self.rhs, self.den
        first = len(rows)
        for sp, (coeffs, b, d_in) in enumerate(cuts, first_sp):
            # express the row in the current basis: subtract coeffs[basis[i]]
            # times row i, over the common denominator d_in * d_rows, at row
            # i's nonzeros; the row is kept negated, so that the surplus
            # enters the basis with coefficient +1
            used = [(i, coeffs[j]) for i, j in enumerate(self.basis)
                    if j in coeffs]
            d_rows = lcm(*(den[i] for i, _ in used))
            d = d_in * d_rows
            raw = [0] * ncols
            for j, p in coeffs.items():
                raw[j] = -p * d_rows
            raw[sp] = d
            new_rhs = -b * d_rows
            for i, p in used:
                k = p * (d_rows // den[i])
                row = rows[i]
                for jj in compress(count(), row):
                    raw[jj] += k * row[jj]
                new_rhs += k * rhs[i]
            assert raw[sp] == d
            raw, new_rhs, d = _rescaled(raw, new_rhs, d)
            self.sp_of_row[len(rows)] = sp
            rows.append(raw)
            rhs.append(new_rhs)
            den.append(d)
            self.basis.append(sp)
            self.art_of_row.append(-1)
        return list(range(first, len(rows)))

    def add_column(self, cost, coeffs: dict) -> int:
        """Append a structural column given its ORIGINAL-row coefficients.

        Valid while every row still carries its artificial column (true for
        the decomposition master, which never appends rows).
        """
        coeffs = {i0: a.as_integer_ratio() for i0, a in coeffs.items()
                  if a != 0}
        # tableau column = B^-1 a, read off the artificial columns
        d_in = lcm(*(q for _, q in coeffs.values()))
        weights = []
        for i0, (p, q) in coeffs.items():
            acol = self.art_of_row[i0]
            assert acol >= 0, "add_column needs the row's artificial column"
            weights.append((acol, p * (d_in // q)))
        j = self._new_column(cost)
        rows, rhs, den = self.rows, self.rhs, self.den
        for i, row in enumerate(rows):
            v = sum(k * row[acol] for acol, k in weights)
            rows[i], rhs[i], den[i] = _appended(row, rhs[i], den[i],
                                                v, den[i] * d_in)
        # reduced costs cost - y.a over the column's rows only, with y read
        # off the artificial columns as in duals(): y_i = -z[a_i] / zden,
        # and y_i = 1 - z1[a_i] / z1den in phase 1
        cp, cq = cost.as_integer_ratio()
        zden = self.zden
        num = sum(k * self.z[acol] for acol, k in weights)
        self.z, _, self.zden = _appended(
            self.z, 0, zden, cp * zden * d_in + num * cq, cq * zden * d_in)
        if self.z1 is not None:
            z1den = self.z1den
            num = sum(k * (self.z1[acol] - z1den) for acol, k in weights)
            self.z1, _, self.z1den = _appended(self.z1, 0, z1den, num,
                                               z1den * d_in)
        return j

    # ----- reading results -----

    def solution(self) -> dict:
        return {j: Fraction(b, d) for j, b, d in self.basic_values()}

    def basic_values(self) -> list:
        """The solution as ints: (column, num, den) for each basic column
        at a nonzero value num / den, in row order.  den > 0, and the ratio
        need not be in lowest terms, so the value is 1 exactly when
        num == den."""
        return [(j, b, d) for j, b, d in zip(self.basis, self.rhs, self.den)
                if b]

    def duals(self, zrow_name="z"):
        """One multiplier per row, in row order, for the rows as given, as
        (nums, den): y_i = nums[i] / den over the cost row's own positive
        denominator (zden, or z1den in phase 1).

        Read from the reduced cost of each row's unit column: for the
        artificial (+1 entry, cost 0 in phase 2 and 1 in phase 1) y_i is
        the negated reduced cost; for a surplus (-1 entry, cost 0) y_i is
        the reduced cost itself.
        """
        phase1 = zrow_name == "z1"
        assert not phase1 or self.z1 is not None
        zrow, den = (self.z1, self.z1den) if phase1 else (self.z, self.zden)
        out = []
        for i, acol in enumerate(self.art_of_row):
            if phase1:
                out.append(den - zrow[acol])
            elif acol >= 0:
                out.append(-zrow[acol])
            else:
                out.append(zrow[self.sp_of_row[i]])
        return out, den

    def assert_optimal(self):
        assert all(b >= 0 for b in self.rhs), "primal infeasible tableau"
        bad = [j for j, rc in enumerate(self.z)
               if rc < 0 and self.structural[j]]
        assert not bad, f"negative reduced costs remain: {bad[:5]}"
