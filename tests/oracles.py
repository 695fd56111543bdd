"""Brute-force reference implementations the tests compare against.

Everything here favors obviously-correct code over speed: factorial and
powerset enumeration with plain Fractions, one exact max-flow per vertex
pair where enumeration would be too large, and the simplex tableau held in
Fractions.  Nothing is imported
from the package under test except the exact max-flow routine, so an
agreement between a fast routine and its oracle is evidence, not
circularity.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

from pathtsp.flows import max_flow_min_cut

ZERO = Fraction(0)


def cut_value(x, U):
    """x(delta(U)) computed straight from the definition."""
    U = set(U)
    return sum((v for (a, b), v in x.items() if (a in U) != (b in U)), ZERO)


def matching_min_cost(T, inst):
    """Minimum perfect-matching cost on T, by exhaustive pairing."""
    T = sorted(T)
    if len(T) % 2:
        raise ValueError("odd vertex set has no perfect matching")
    if len(T) > 10:
        raise ValueError("oracle is factorial; keep |T| small")

    def rec(rest):
        if not rest:
            return ZERO
        first, rest = rest[0], rest[1:]
        return min(inst.c(first, rest[i])
                   + rec(rest[:i] + rest[i + 1:])
                   for i in range(len(rest)))

    return rec(tuple(T))


def path_min_cost(inst):
    """Cheapest Hamiltonian s-t path by trying every internal order."""
    inner = [v for v in range(inst.n) if v not in (inst.s, inst.t)]
    if len(inner) > 7:
        raise ValueError("oracle is factorial; keep n small")
    best = None
    for perm in permutations(inner):
        seq = (inst.s,) + perm + (inst.t,)
        cost = sum(inst.c(a, b) for a, b in zip(seq, seq[1:]))
        if best is None or cost < best:
            best = cost
    return best


def s_side_subsets(inst):
    """All proper vertex subsets containing s but not all of V."""
    others = [v for v in range(inst.n) if v != inst.s]
    for size in range(len(others)):
        for extra in combinations(others, size):
            yield {inst.s, *extra}


def violated_cuts(x, inst):
    """Every violated cut constraint, by full subset enumeration."""
    out = []
    for U in s_side_subsets(inst):
        need = 2 if inst.t in U else 1
        load = cut_value(x, U)
        if load < need:
            out.append((frozenset(U), Fraction(need)))
    return out


def narrow_sets(x, inst):
    """All s-side sets with load < 2, as the cut-chain oracle."""
    return [frozenset(U) for U in s_side_subsets(inst)
            if cut_value(x, U) < 2]


def narrow_sets_all_pairs(x, inst):
    """All s-side sets with load < 2, from one exact min cut per vertex
    pair.  Complete for an LP-feasible x: a narrow cut is the unique cut of
    load < 2 between a vertex of the chain gap on its left and one of the
    gap on its right."""
    cap = {e: v for e, v in x.items() if v != 0}
    everything = frozenset(range(inst.n))
    found = set()
    for a, b in combinations(range(inst.n), 2):
        value, side = max_flow_min_cut(cap, a, b)
        if value < 2:
            found.add(side if inst.s in side else everything - side)
    return found


def separate_all_pairs(x, inst):
    """Violated cuts as (U, required, load) in lp_relax.separate's order,
    from the min s-t cut (odd cuts) and one min cut per vertex pair of x
    with s and t merged into the node "st" (even cuts).  "st" is a node
    even when it has no edge.  Pairs run in the order of the nodes sorted
    by str, source first, as the library's route does."""
    n, s, t = inst.n, inst.s, inst.t
    cap = {e: v for e, v in x.items() if v != 0}

    def canonical(side):
        U = set(side)
        if 0 not in U:
            U = set(range(n)) - U
        return tuple(sorted(U))

    found = {}
    value, side = max_flow_min_cut(cap, s, t)
    if value < 1:
        U = canonical(side)
        found[U] = (U, Fraction(1), cut_value(x, U))
    merged = {}
    for (u, v), c in cap.items():
        u = "st" if u in (s, t) else u
        v = "st" if v in (s, t) else v
        if u != v:
            key = tuple(sorted((u, v), key=str))
            merged[key] = merged.get(key, ZERO) + c
    nodes = sorted([v for v in range(n) if v not in (s, t)] + ["st"],
                   key=str)
    for a, b in combinations(nodes, 2):
        value, side = max_flow_min_cut(merged, a, b)
        if value < 2:
            real = set()
            for u in side:
                real.update((s, t) if u == "st" else (u,))
            U = canonical(real)
            need = Fraction(1 if (s in U) != (t in U) else 2)
            load = cut_value(x, U)
            if U not in found and load < need:
                found[U] = (U, need, load)
    return sorted(found.values(), key=lambda r: (r[2] - r[1], r[0]))


def tjoin_violations_enumerate(y, t_set, n):
    """Every U containing vertex 0 with |U cap T| odd and y(delta(U)) < 1,
    by enumerating the 2^(n-1) subsets in int64 arithmetic."""
    items = sorted((e, v) for e, v in y.items() if v != 0)
    denom = lcm(*[v.denominator for _, v in items]) if items else 1
    total = sum((v for _, v in items), ZERO)
    assert denom * (total + 2) < 1 << 61, "loads would overflow int64"
    idx = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
    parity = np.zeros(len(idx), dtype=np.int64)
    for v in t_set:
        parity ^= (idx >> v) & 1
    load = np.zeros(len(idx), dtype=np.int64)
    for (u, v), val in items:
        load += (((idx >> u) ^ (idx >> v)) & 1) * int(val * denom)
    bad = np.nonzero((parity == 1) & (load < denom))[0]
    return [tuple(v for v in range(n) if (int(idx[i]) >> v) & 1)
            for i in bad.tolist()]


def tree_polytope_violations(x, inst):
    """Check x(E) = n-1 and x(E[U]) <= |U|-1 (minus 2 when {s,t} inside U),
    for every nonempty proper U, by enumerating the 2^n subsets in int64
    arithmetic."""
    n, s, t = inst.n, inst.s, inst.t
    items = sorted((e, v) for e, v in x.items() if v != 0)
    out = []
    total = sum((v for _, v in items), ZERO)
    if total != n - 1:
        out.append(("x(E)", total))
    m = 1 << n
    idx = np.arange(m, dtype=np.int64)
    size = np.zeros(m, dtype=np.int64)
    for v in range(n):
        size += (idx >> v) & 1
    denom = lcm(*[v.denominator for _, v in items]) if items else 1
    assert denom * (n + 1) < 1 << 61, "loads would overflow int64"
    inside = np.zeros(m, dtype=np.int64)
    for (u, v), val in items:
        inside += ((idx >> u) & (idx >> v) & 1) * int(val * denom)
    st_in = (idx >> s) & (idx >> t) & 1
    bound = (size - 1 - st_in) * denom
    ok = (size == 0) | (idx == m - 1) | (inside <= bound)
    for i in np.nonzero(~ok)[0].tolist():
        mask = int(idx[i])
        U = tuple(v for v in range(n) if (mask >> v) & 1)
        out.append(("E[U]", U, Fraction(int(inside[i]), denom),
                    Fraction(int(bound[i]), denom)))
    return out


def shared_load(x, mask_a, mask_b):
    """x-mass on edges lying in BOTH cuts."""
    total = ZERO
    for (u, v), val in x.items():
        if (((mask_a >> u) ^ (mask_a >> v)) & 1
                and ((mask_b >> u) ^ (mask_b >> v)) & 1):
            total += val
    return total


def pairwise_intersection_check(chain, x):
    """Margins  load(C)/2 + load(C')/2 - 1 - x(C cap C')  for all pairs of
    chain cuts.

    Raises if any margin is negative (LP feasibility would be broken)."""
    margins = []
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            margin = (chain.loads[i] / 2 + chain.loads[j] / 2 - 1
                      - shared_load(x, chain.masks[i], chain.masks[j]))
            if margin < 0:
                raise ValueError(
                    f"cut pair ({i},{j}) has negative margin {margin}")
            margins.append(margin)
    return margins


def min_cost_spanning_tree(inst):
    """Kruskal with (cost, edge) tie-break — the single-tree comparator."""
    component = list(range(inst.n))
    tree = set()
    for _, (u, v) in sorted((c, e) for e, c in inst.cost.items()):
        cu, cv = component[u], component[v]
        if cu != cv:
            component = [cu if c == cv else c for c in component]
            tree.add((u, v))
    assert len(tree) == inst.n - 1
    return frozenset(tree)


def spans(edges, n):
    """|edges| = n-1 and the graph is connected (breadth-first search)."""
    if len(set(edges)) != n - 1:
        return False
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def rational_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# ----- the exact simplex on a Fraction tableau -----
#
# The tableau that pathtsp.simplex.ExactSimplex replaced, kept as it was:
# every entry a Fraction.  The integer-row tableau must pick the same pivots
# and return the same values.

ONE = Fraction(1)

STALL_LIMIT = 12  # degenerate pivots in a row before switching to Bland


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class FractionSimplex:
    """min cost.x  s.t.  rows (=, >=),  x >= 0 — all exact rationals."""

    def __init__(self):
        self.costs = []          # phase-2 cost per column
        self.is_artificial = []
        self.enterable = []      # artificials are banned once they leave
        self.rows = []           # tableau: rows[i] = list of coefs per column
        self.rhs = []
        self.basis = []          # basic column per row
        self.art_of_row = []     # artificial column per original row (-1: none)
        self.sp_of_row = {}      # surplus column of a row, where one exists
        self.z = None            # phase-2 reduced-cost row
        self.z1 = None           # phase-1 reduced-cost row (None once closed)
        self._setup_done = False
        self.pivots = 0

    # ----- model building (before setup) -----

    def add_variable(self, cost) -> int:
        assert not self._setup_done, "add_variable only before the first solve"
        self.costs.append(Fraction(cost))
        self.is_artificial.append(False)
        self.enterable.append(True)
        return len(self.costs) - 1

    def add_constraint(self, coeffs: dict, sense: str, rhs):
        """coeffs: {col: coef}; sense '=' or '>='."""
        assert not self._setup_done, "add_constraint only before the first solve"
        rhs = Fraction(rhs)
        row = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
        if sense == ">=":
            sp = self.add_variable(ZERO)
            row[sp] = Fraction(-1)
            self.sp_of_row[len(self.rows)] = sp
        elif sense != "=":
            raise ValueError(f"unknown sense {sense!r}")
        if rhs < 0:
            row = {j: -c for j, c in row.items()}
            rhs = -rhs
        self.rows.append(row)  # densified in _setup
        self.rhs.append(rhs)

    def _setup(self):
        m = len(self.rows)
        for i in range(m):
            a = len(self.costs)
            self.costs.append(ZERO)
            self.is_artificial.append(True)
            self.enterable.append(True)
            self.art_of_row.append(a)
        ncols = len(self.costs)
        dense = []
        for i, row in enumerate(self.rows):
            r = [ZERO] * ncols
            for j, c in row.items():
                r[j] = c
            r[self.art_of_row[i]] = ONE
            dense.append(r)
        self.rows = dense
        self.basis = list(self.art_of_row)
        # phase-1 reduced costs (minimize the sum of artificials, basis = I)
        self.z1 = [ZERO] * ncols
        for i in range(m):
            row = self.rows[i]
            for j in range(ncols):
                self.z1[j] -= row[j]
        for a in self.art_of_row:
            self.z1[a] = ZERO
        # phase-2 reduced costs: the all-artificial basis has zero cost
        self.z = list(self.costs)
        self._setup_done = True

    def _ensure_setup(self):
        if not self._setup_done:
            self._setup()

    # ----- pivoting -----

    def _pivot(self, r, j):
        rows, rhs = self.rows, self.rhs
        prow = rows[r]
        piv = prow[j]
        assert piv != 0
        inv = ONE / piv
        rows[r] = prow = [c * inv for c in prow]
        rhs[r] *= inv
        nz = [jj for jj, c in enumerate(prow) if c != 0]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[j]
            if f != 0:
                for jj in nz:
                    row[jj] -= f * prow[jj]
                rhs[i] -= f * rhs[r]
        for zrow in (self.z, self.z1):
            if zrow is None:
                continue
            f = zrow[j]
            if f != 0:
                for jj in nz:
                    zrow[jj] -= f * prow[jj]
        leaving = self.basis[r]
        if self.is_artificial[leaving]:
            self.enterable[leaving] = False  # never let artificials back in
        self.basis[r] = j
        self.pivots += 1

    def _phase1_objective(self) -> Fraction:
        return sum((self.rhs[i] for i in range(len(self.rows))
                    if self.is_artificial[self.basis[i]]), ZERO)

    def objective(self) -> Fraction:
        return sum((self.costs[self.basis[i]] * self.rhs[i]
                    for i in range(len(self.rows))), ZERO)

    def _primal_steps(self, zrow_name):
        """Primal simplex to optimality on the chosen objective row."""
        phase1 = zrow_name == "z1"
        obj = self._phase1_objective() if phase1 else self.objective()
        stall = 0
        bland = False
        while True:
            zrow = self.z1 if phase1 else self.z
            enter = -1
            if bland:
                for j, rc in enumerate(zrow):
                    if rc < 0 and self.enterable[j]:
                        enter = j
                        break
            else:
                best = ZERO
                for j, rc in enumerate(zrow):
                    if rc < best and self.enterable[j]:
                        best = rc
                        enter = j
            if enter < 0:
                return
            # Ratio test.  A zero-rhs row whose basic variable is artificial
            # blocks at ratio 0 for ANY nonzero pivot entry: pivoting there
            # keeps every rhs unchanged and ejects the artificial, which must
            # never be allowed to rise above zero.
            leave = -1
            best_ratio = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if (self.rhs[i] == 0 and a != 0
                        and self.is_artificial[self.basis[i]]):
                    leave = i
                    break
                if a > 0:
                    ratio = self.rhs[i] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and self.basis[i] < self.basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise Unbounded(f"column {enter} is unbounded")
            self._pivot(leave, enter)
            new_obj = self._phase1_objective() if phase1 else self.objective()
            if new_obj == obj:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            obj = new_obj

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
        while True:
            leave = -1
            worst = ZERO
            for i, b in enumerate(self.rhs):
                if b < worst:
                    worst = b
                    leave = i
            if leave < 0:
                return
            row = self.rows[leave]
            enter = -1
            best = None
            for j, a in enumerate(row):
                if a < 0 and self.enterable[j]:
                    ratio = self.z[j] / (-a)
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
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
        ncols = len(self.costs)
        raw = [ZERO] * ncols
        for j, c in coeffs.items():
            raw[j] = Fraction(c)
        sp = len(self.costs)
        self.costs.append(ZERO)
        self.is_artificial.append(False)
        self.enterable.append(True)
        for row in self.rows:
            row.append(ZERO)
        self.z.append(ZERO)
        raw.append(Fraction(-1))
        # express the new row in the current basis
        new_rhs = rhs
        for i, row in enumerate(self.rows):
            f = raw[self.basis[i]]
            if f != 0:
                for jj, c in enumerate(row):
                    if c != 0:
                        raw[jj] -= f * c
                new_rhs -= f * self.rhs[i]
        # flip signs so the surplus enters the basis with coefficient +1
        assert raw[sp] == -1
        raw = [-c for c in raw]
        new_rhs = -new_rhs
        row_id = len(self.rows)
        self.rows.append(raw)
        self.rhs.append(new_rhs)
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
        cost = Fraction(cost)
        m = len(self.rows)
        col = [ZERO] * m  # tableau column = B^-1 a, read off artificial cols
        for i0, a in coeffs.items():
            a = Fraction(a)
            if a == 0:
                continue
            acol = self.art_of_row[i0]
            assert acol >= 0, "add_column needs the row's artificial column"
            for i in range(m):
                c = self.rows[i][acol]
                if c != 0:
                    col[i] += a * c
        j = len(self.costs)
        self.costs.append(cost)
        self.is_artificial.append(False)
        self.enterable.append(True)
        for i in range(m):
            self.rows[i].append(col[i])
        y2 = self.duals("z")
        self.z.append(cost - sum((Fraction(a) * y2[i]
                                  for i, a in coeffs.items()), ZERO))
        if self.z1 is not None:
            y1 = self.duals("z1")
            self.z1.append(-sum((Fraction(a) * y1[i]
                                 for i, a in coeffs.items()), ZERO))
        return j

    # ----- reading results -----

    def solution(self) -> dict:
        out = {}
        for i, j in enumerate(self.basis):
            if self.rhs[i] != 0:
                out[j] = out.get(j, ZERO) + self.rhs[i]
        return out

    def value_of(self, j) -> Fraction:
        val = ZERO
        for i, b in enumerate(self.basis):
            if b == j:
                val += self.rhs[i]
        return val

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
                out.append(ONE - self.z1[acol])
            elif acol >= 0:
                out.append(-self.z[acol])
            else:
                out.append(self.z[self.sp_of_row[i]])
        return out

    def assert_optimal(self):
        assert all(b >= 0 for b in self.rhs), "primal infeasible tableau"
        bad = [j for j, rc in enumerate(self.z) if rc < 0 and self.enterable[j]]
        assert not bad, f"negative reduced costs remain: {bad[:5]}"
