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
Bareiss (1968); each updated row is then divided by the gcd of its
numerators, rhs and denominator.  When the pivot row's denominator is 1,
the update touches only the pivot row's nonzeros.  Fractions appear only at
the API boundary: inputs are converted on entry, and every value read back
(solution, objective, duals) is a Fraction.

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

Two usage patterns:
  * cutting-plane solver: add_variable/add_constraint, solve(), then
    add_cut_row() + solve() repeatedly (dual simplex repairs the basis);
  * column-generation master: solve_phase1(), read duals("z1"),
    add_column(), repeat until the phase-1 objective hits zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)

STALL_LIMIT = 12  # degenerate pivots in a row before switching to Bland


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _reduced(row, b, d):
    """Divide (row, b, d) by the gcd of all its entries."""
    if d != 1:
        g = gcd(d, b, *row)
        if g != 1:
            return [c // g for c in row], b // g, d // g
    return row, b, d


def _eliminate(row, b, d, f, pivot_nz, pb, pd):
    """(row, b) / d minus f / d times the pivot row, whose nonzeros are
    pivot_nz = [(column, numerator)] and whose rhs is pb, both over pd."""
    g = gcd(f, pd)
    s, f = pd // g, f // g
    if s != 1:
        row = [c * s for c in row]
        b *= s
        d *= s
    for jj, p in pivot_nz:
        row[jj] -= f * p
    return _reduced(row, b - f * pb, d)


def _appended(row, b, d, num, nden):
    """(row, b) / d with num / nden appended to the row."""
    g = gcd(num, nden)
    num, nden = num // g, nden // g
    s = nden // gcd(d, nden)
    if s != 1:
        row = [c * s for c in row]
        b *= s
        d *= s
    row.append(num * (d // nden))
    return row, b, d


class ExactSimplex:
    """min cost.x  s.t.  rows (=, >=),  x >= 0 — all exact rationals."""

    def __init__(self):
        self.costs = []          # phase-2 cost per column (Fractions)
        self.is_artificial = []
        self.enterable = []      # artificials are banned once they leave
        self.model = []          # (coeffs, rhs) per row until set up
        self.rows = []           # tableau: rows[i][j] / den[i]
        self.rhs = []            # rhs[i] / den[i]
        self.den = []
        self.basis = []          # basic column per row
        self.art_of_row = []     # artificial column per original row (-1: none)
        self.sp_of_row = {}      # surplus column of a row, where one exists
        self.negated = set()     # rows stored times -1 to make rhs >= 0
        self.z = None            # phase-2 reduced-cost row, over zden
        self.zden = 1
        self.z1 = None           # phase-1 row over z1den; None once closed
        self.z1den = 1
        self._setup_done = False
        self.pivots = 0

    # ----- model building (before setup) -----

    def _new_column(self, cost, artificial=False) -> int:
        self.costs.append(Fraction(cost))
        self.is_artificial.append(artificial)
        self.enterable.append(True)
        return len(self.costs) - 1

    def add_variable(self, cost) -> int:
        assert not self._setup_done, "add_variable only before the first solve"
        return self._new_column(cost)

    def add_constraint(self, coeffs: dict, sense: str, rhs):
        """coeffs: {col: coef}; sense '=' or '>='."""
        assert not self._setup_done, "add_constraint only before the first solve"
        rhs = Fraction(rhs)
        row = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        if sense == ">=":
            sp = self.add_variable(ZERO)
            row[sp] = Fraction(-1)
            self.sp_of_row[len(self.model)] = sp
        elif sense != "=":
            raise ValueError(f"unknown sense {sense!r}")
        if rhs < 0:
            row = {j: -c for j, c in row.items()}
            rhs = -rhs
            self.negated.add(len(self.model))
        self.model.append((row, rhs))

    def _setup(self):
        self.art_of_row = [self._new_column(ZERO, artificial=True)
                           for _ in self.model]
        ncols = len(self.costs)
        for (coeffs, b), a in zip(self.model, self.art_of_row):
            d = lcm(b.denominator, *(c.denominator for c in coeffs.values()))
            row = [0] * ncols
            for j, c in coeffs.items():
                row[j] = c.numerator * (d // c.denominator)
            row[a] = d
            self.rows.append(row)
            self.rhs.append(b.numerator * (d // b.denominator))
            self.den.append(d)
        self.model = None
        self.basis = list(self.art_of_row)
        # phase-1 reduced costs (minimize the sum of artificials, basis = I)
        z1den = lcm(*self.den)
        z1 = [0] * ncols
        for row, d in zip(self.rows, self.den):
            k = z1den // d
            for j, c in enumerate(row):
                if c:
                    z1[j] -= k * c
        for a in self.art_of_row:
            z1[a] = 0
        self.z1, _, self.z1den = _reduced(z1, 0, z1den)
        # phase-2 reduced costs: the all-artificial basis has zero cost
        self.zden = lcm(*(c.denominator for c in self.costs))
        self.z = [c.numerator * (self.zden // c.denominator)
                  for c in self.costs]
        self._setup_done = True

    def _ensure_setup(self):
        if not self._setup_done:
            self._setup()

    # ----- pivoting -----

    def _pivot(self, r, j):
        rows, rhs, den = self.rows, self.rhs, self.den
        prow, pb, pd = rows[r], rhs[r], rows[r][j]
        assert pd != 0
        if pd < 0:
            prow, pb, pd = [-c for c in prow], -pb, -pd
        # dividing by the pivot entry pd / den[r] leaves the row over pd
        rows[r], rhs[r], den[r] = prow, pb, pd = _reduced(prow, pb, pd)
        pivot_nz = [(jj, c) for jj, c in enumerate(prow) if c]
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
        leaving = self.basis[r]
        if self.is_artificial[leaving]:
            self.enterable[leaving] = False  # never let artificials back in
        self.basis[r] = j
        self.pivots += 1

    def _phase1_objective(self) -> Fraction:
        return sum((Fraction(b, d) for b, d, j in
                    zip(self.rhs, self.den, self.basis)
                    if b and self.is_artificial[j]), ZERO)

    def objective(self) -> Fraction:
        return sum((self.costs[j] * Fraction(b, d) for b, d, j in
                    zip(self.rhs, self.den, self.basis) if b), ZERO)

    def _primal_steps(self, zrow_name):
        """Primal simplex to optimality on the chosen objective row."""
        phase1 = zrow_name == "z1"
        rows, rhs, basis = self.rows, self.rhs, self.basis
        enterable, is_artificial = self.enterable, self.is_artificial
        stall = 0
        bland = False
        while True:
            zrow = self.z1 if phase1 else self.z
            enter = -1
            if bland:
                for j, rc in enumerate(zrow):
                    if rc < 0 and enterable[j]:
                        enter = j
                        break
            else:
                best = 0
                for j, rc in enumerate(zrow):
                    if rc < best and enterable[j]:
                        best = rc
                        enter = j
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
                if b == 0 and is_artificial[basis[i]]:
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
        for j, isa in enumerate(self.is_artificial):
            if isa:
                self.enterable[j] = False
        # pivot zero-level artificials out of the basis where possible
        for i in range(len(self.rows)):
            if self.is_artificial[self.basis[i]] and self.rhs[i] == 0:
                for j, c in enumerate(self.rows[i]):
                    if c != 0 and not self.is_artificial[j]:
                        self._pivot(i, j)
                        break
        self.z1 = None

    def _dual_steps(self):
        """Restore primal feasibility after violated rows were appended."""
        rows, rhs, den = self.rows, self.rhs, self.den
        enterable = self.enterable
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
            for j, a in enumerate(rows[leave]):
                if a < 0 and enterable[j]:
                    if enter < 0 or z[j] * ba < bz * -a:
                        bz, ba, enter = z[j], -a, j
            if enter < 0:
                raise Infeasible("dual step found an unsatisfiable row")
            self._pivot(leave, enter)

    # ----- solving -----

    def solve(self):
        """Two-phase solve; warm after add_cut_row via dual repair."""
        self._ensure_setup()
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
        self._ensure_setup()
        assert self.z1 is not None, "phase 1 already closed"
        self._primal_steps("z1")
        return self._phase1_objective()

    # ----- warm modifications -----

    def add_cut_row(self, coeffs: dict, sense: str, rhs):
        """Append a (typically violated) >= row; solve() repairs the basis."""
        assert self._setup_done and self.z1 is None
        if sense != ">=":
            raise NotImplementedError("only >= rows can be appended warm")
        rhs = Fraction(rhs)
        coeffs = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        sp = self._new_column(ZERO)
        for row in self.rows:
            row.append(0)
        self.z.append(0)
        # express the new row in the current basis: subtract coeffs[basis[i]]
        # times row i, over the common denominator d_in * d_rows
        used = [(i, coeffs[j]) for i, j in enumerate(self.basis)
                if j in coeffs]
        d_in = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        d_rows = lcm(*(self.den[i] for i, _ in used))
        d = d_in * d_rows
        raw = [0] * len(self.costs)
        for j, c in coeffs.items():
            raw[j] = c.numerator * (d // c.denominator)
        raw[sp] = -d
        new_rhs = rhs.numerator * (d // rhs.denominator)
        for i, c in used:
            k = c.numerator * (d_in // c.denominator) * (d_rows // self.den[i])
            raw = [a - k * e for a, e in zip(raw, self.rows[i])]
            new_rhs -= k * self.rhs[i]
        # flip signs so the surplus enters the basis with coefficient +1
        assert raw[sp] == -d
        raw, new_rhs, d = _reduced([-c for c in raw], -new_rhs, d)
        row_id = len(self.rows)
        self.rows.append(raw)
        self.rhs.append(new_rhs)
        self.den.append(d)
        self.basis.append(sp)
        self.art_of_row.append(-1)
        self.sp_of_row[row_id] = sp
        return row_id

    def add_column(self, cost, coeffs: dict) -> int:
        """Append a structural column given its ORIGINAL-row coefficients.

        Valid while every row still carries its artificial column (true for
        the decomposition master, which never appends rows).
        """
        assert self._setup_done
        coeffs = {i0: Fraction(-a if i0 in self.negated else a)
                  for i0, a in coeffs.items() if a != 0}
        # tableau column = B^-1 a, read off the artificial columns
        d_in = lcm(*(a.denominator for a in coeffs.values()))
        weights = []
        for i0, a in coeffs.items():
            acol = self.art_of_row[i0]
            assert acol >= 0, "add_column needs the row's artificial column"
            weights.append((acol, a.numerator * (d_in // a.denominator)))
        j = self._new_column(cost)
        rows, rhs, den = self.rows, self.rhs, self.den
        for i, row in enumerate(rows):
            v = sum(k * row[acol] for acol, k in weights)
            rows[i], rhs[i], den[i] = _appended(row, rhs[i], den[i],
                                                v, den[i] * d_in)
        y2 = self.duals("z")
        rc = self.costs[j] - sum((a * y2[i] for i, a in coeffs.items()), ZERO)
        self.z, _, self.zden = _appended(self.z, 0, self.zden,
                                         rc.numerator, rc.denominator)
        if self.z1 is not None:
            y1 = self.duals("z1")
            rc = -sum((a * y1[i] for i, a in coeffs.items()), ZERO)
            self.z1, _, self.z1den = _appended(self.z1, 0, self.z1den,
                                               rc.numerator, rc.denominator)
        return j

    # ----- reading results -----

    def solution(self) -> dict:
        out = {}
        for b, d, j in zip(self.rhs, self.den, self.basis):
            if b:
                out[j] = out.get(j, ZERO) + Fraction(b, d)
        return out

    def value_of(self, j) -> Fraction:
        return sum((Fraction(b, d) for b, d, bj in
                    zip(self.rhs, self.den, self.basis) if bj == j), ZERO)

    def duals(self, zrow_name="z"):
        """One multiplier per row, in row order.

        Read from the reduced cost of each row's unit column: for the
        artificial (+1 entry, cost 0 in phase 2 and 1 in phase 1) y_i is
        the negated reduced cost; for a surplus (-1 entry, cost 0) y_i is
        the reduced cost itself.
        """
        out = []
        for i in range(len(self.rows)):
            acol = self.art_of_row[i]
            if zrow_name == "z1":
                assert self.z1 is not None and acol >= 0
                out.append(ONE - Fraction(self.z1[acol], self.z1den))
            elif acol >= 0:
                out.append(Fraction(-self.z[acol], self.zden))
            else:
                out.append(Fraction(self.z[self.sp_of_row[i]], self.zden))
        return out

    def assert_optimal(self):
        assert all(b >= 0 for b in self.rhs), "primal infeasible tableau"
        bad = [j for j, rc in enumerate(self.z) if rc < 0 and self.enterable[j]]
        assert not bad, f"negative reduced costs remain: {bad[:5]}"
