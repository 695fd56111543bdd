"""Tree-type classification and the reassembling passes.

Types live at INTERNAL xi-narrow cuts only.  With C the i-th xi-narrow cut
and C_left/C_right its neighbors in the xi-subchain, set

    l = |S cap C cap C_left|,  m = |S cap C|,  r = |S cap C cap C_right|.

The type is GOOD when m >= 3, or l+r >= 3, or (l+r >= 1 and no xi-narrow
cut C' -- including C itself -- satisfies S cap C' = {e} for an edge
e of S cap C); otherwise the code is the literal digits "lmr".

The exchange in direction "right" swaps one edge between a type-120 tree
and a type-011 tree at the same cut, turning them into 121 and 010 without
disturbing the cuts to the left, and the sweep in that direction drives
those exchanges across the chain until one of the two type classes is
exhausted at every cut.  Direction "left" mirrors both (021 with 110,
right to left); SWEEPS holds what differs.  The reassemble driver
takes a tree distribution and the narrow-cut chain of the point it
decomposes.  It is the one place that knows the eps/n^2 grid: it splits
each weight once, as an int over the weights' lcm, into whole grid steps
and a residual below one step, sweeps left then right on one pot of int
steps by tree, and adds the residual mass back, so the final distribution
satisfies the four-way type-mix bound within eps at every internal
xi-narrow cut.

Every type is read from the tree's crossing profile on the chain
(CutChain.profile), built once per tree from the chain's layers and kept
with the tree's code at every internal xi-narrow cut.  classify and
type_data read one cut; census reads every cut of each tree in one pass,
one weight-by-type dict per xi-position, for the sweeps' contracts, the
type-mix bound, the reports and parity.benefits.  mix_pair is the one
type-mix test, read by the bound and by benefits' case choice.  A sweep
lists its two exchanged types' keys at a cut once: an exchange there makes
types 121 and 010, so it adds no key to either list.  The exchange and the
sweeps still re-check every type they promise.  Which xi-narrow cuts an
edge crosses, the exchange asks the chain (CutChain.levels_crossed), as
every crossing question in the package is asked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor

# narrow_cuts is unused here; perfbench/tracing.py wraps it by this name
from .cuts import CutChain, narrow_cuts
from .instance import over_lcm
from .tree_decomp import Atom, check_reconstruction, is_spanning_tree, tree_key

# the four type pairs of the type-mix bound: after reassembly, at every
# internal xi-narrow cut, the mass of one of them is at most p_GOOD + eps
MIX_PAIRS = (("120", "021"), ("011", "110"), ("011", "021"), ("110", "120"))

# sweep direction -> (the pair it exchanges into (121, 010), the fragile
# pair whose mass it may grow only by what became GOOD)
SWEEPS = {"right": (("120", "011"), ("110", "021")),
          "left": (("021", "110"), ("011", "120"))}


class ExchangeError(Exception):
    pass


def _check_internal(chain: CutChain, i: int):
    last = len(chain.xi_indices) - 1
    if not 0 < i < last:
        raise ValueError(f"type queries are only defined at internal "
                         f"xi-narrow cuts, got index {i} of 0..{last}")


def type_data(tree, chain: CutChain, i: int):
    """(code, l, m, r) of the tree at the i-th xi-narrow cut (0 < i < l'),
    read from the tree's crossing profile."""
    _check_internal(chain, i)
    prof = chain.profile(tree)
    return (prof.codes[i], *prof.types[i])


def classify(tree, chain: CutChain, i: int) -> str:
    """Type code of the tree at the i-th xi-narrow cut."""
    _check_internal(chain, i)
    return chain.profile(tree).codes[i]


def census(trees, weights, chain: CutChain) -> list:
    """Total weight per type code at every xi-position, one dict each, empty
    at the two ends; ints or Fractions as the weights are.  Reads each
    tree's crossing profile once."""
    cells = [{} for _ in chain.xi_indices]
    for tree, w in zip(trees, weights):
        for cell, code in zip(cells, chain.profile(tree).codes):
            if code is not None:
                cell[code] = cell.get(code, 0) + w
    return cells


def mix_pair(mass: dict, slack):
    """Position in MIX_PAIRS of the first pair whose mass in the census
    cell mass is at most the GOOD mass plus slack, or None."""
    good = mass.get("GOOD", 0) + slack
    for p, pair in enumerate(MIX_PAIRS):
        if sum(mass.get(c, 0) for c in pair) <= good:
            return p
    return None


# ----- the two-edge exchange -----

@dataclass(frozen=True)
class ExchangeRecord:
    cut_index: int        # index into the xi-subchain
    direction: str        # "right": (120,011) -> (121,010); "left" mirrors
    s1: frozenset
    s2: frozenset
    e0: tuple             # path edge kept in S1 (singleton-defined at C_h)
    e1: tuple             # edge removed from S1, added to S2
    e2: tuple             # edge removed from S2, added to S1
    h: int                # xi-index with S1 cap C_h = {e0}
    k: int                # far end of e2's xi-cut interval
    s1_new: frozenset
    s2_new: frozenset
    delta: Fraction = None


def exchange(s1, s2, chain: CutChain, i: int, direction: str):
    """Swap one edge between s1 and s2 at the i-th xi-narrow cut: (120, 011)
    -> (121, 010) for direction "right", (021, 110) -> (121, 010) for its
    mirror image "left".  Returns the ExchangeRecord."""
    xi = chain.xi_indices
    last = len(xi) - 1
    mirrored = direction == "left"
    want1, want2 = SWEEPS[direction][0]
    t1 = classify(s1, chain, i)
    t2 = classify(s2, chain, i)
    if t1 != want1 or t2 != want2:
        raise ExchangeError(f"need types ({want1},{want2}) at cut {i}, "
                            f"got ({t1},{t2})")

    def crosses(e, j):
        """Whether edge e crosses the j-th xi-narrow cut."""
        lo, hi = chain.levels_crossed(*e)
        return lo <= xi[j] < hi

    cut1 = [e for e in s1 if crosses(e, i)]
    cut2 = [e for e in s2 if crosses(e, i)]
    assert len(cut1) == 2 and len(cut2) == 1
    e2 = cut2[0]

    # e0 is the edge of S1 cap C_i that single-defines a xi-cut beyond the
    # neighbor; the other edge e1 crosses no xi-cut except C_i itself.
    if mirrored:
        hunt = range(i + 1, last + 1)
        neighbor = i + 1
    else:
        hunt = range(i - 1, -1, -1)
        neighbor = i - 1
    single = chain.profile(s1).single
    e0 = h = None
    for j in hunt:
        e = single[xi[j]]
        if e is not None and e in cut1:
            e0, h = e, j
            break
    if e0 is None:
        raise ExchangeError(f"no singleton-defining cut for the type-{want1} "
                            f"tree at cut {i}")
    (e1,) = [e for e in cut1 if e != e0]
    assert crosses(e0, neighbor), "e0 must be the neighbor-crossing edge"
    assert not crosses(e1, i - 1)
    assert not crosses(e1, i + 1)
    assert e1 != e2

    krange = [j for j in range(last + 1) if crosses(e2, j)]
    k = min(krange) if mirrored else max(krange)

    s1_new = frozenset(s1 - {e1} | {e2})
    s2_new = frozenset(s2 - {e2} | {e1})
    n = chain.inst.n
    if not is_spanning_tree(s1_new, n) or not is_spanning_tree(s2_new, n):
        raise ExchangeError("exchange output is not a spanning tree")
    assert classify(s1_new, chain, i) == "121"
    assert classify(s2_new, chain, i) == "010"
    return ExchangeRecord(
        cut_index=i, direction=direction,
        s1=frozenset(s1), s2=frozenset(s2), e0=e0, e1=e1, e2=e2, h=h, k=k,
        s1_new=s1_new, s2_new=s2_new)


# ----- sweeps -----

def sweep(pot, tree_of, chain: CutChain, direction: str, quantum):
    """One pass exchanging the pairs SWEEPS[direction] names, left to right
    for "right" and right to left for "left", on pot (tree_key -> int count
    of grid steps of size quantum) in place; tree_of maps each key to its
    tree and gains the trees the exchanges make.  Returns the exchange
    records.  At each cut it lists the keys of the two types once, in key
    order, and pairs the first left of each until a list is empty; a key
    leaves its list when its steps run out.  The contract is checked on
    censuses of the pot taken before and after."""
    last = len(chain.xi_indices) - 1
    (want1, want2), fragile = SWEEPS[direction]
    before = census(map(tree_of.get, pot), pot.values(), chain)

    records = []
    order = range(1, last) if direction == "right" else range(last - 1, 0, -1)
    for i in order:
        code = {key: classify(tree_of[key], chain, i) for key in sorted(pot)}
        ones = [key for key, c in code.items() if c == want1]
        twos = [key for key, c in code.items() if c == want2]
        while ones and twos:
            k1, k2 = ones[0], twos[0]
            delta = min(pot[k1], pot[k2])
            rec = exchange(tree_of[k1], tree_of[k2], chain, i, direction)
            records.append(replace(rec, delta=delta * quantum))
            for key, tree, keys in ((k1, rec.s1_new, ones),
                                    (k2, rec.s2_new, twos)):
                pot[key] -= delta
                if pot[key] == 0:
                    del pot[key]
                    keys.pop(0)
                nk = tree_key(tree)
                pot[nk] = pot.get(nk, 0) + delta
                tree_of.setdefault(nk, tree)

    assert len(pot) <= 1 / quantum, "support exceeded n^2/eps"
    # contract: the targeted pair annihilates; fragile types grow only
    # by what became GOOD
    after = census(map(tree_of.get, pot), pot.values(), chain)
    for was, now in zip(before, after):
        assert min(now.get(want1, 0), now.get(want2, 0)) == 0
        good = now.get("GOOD", 0)
        for f in fragile:
            assert now.get(f, 0) <= was.get(f, 0) + good
    return records


# ----- the driver -----

def type_mix_bound_holds(dist, chain: CutChain, eps) -> bool:
    """min over the four two-type sums <= p_GOOD + eps at every internal
    xi-narrow cut."""
    nums, den = over_lcm(dict(enumerate(a.weight for a in dist)))
    eps_w = floor(eps * den)  # an int over den is > eps iff > eps_w
    cells = census((a.tree for a in dist), nums.values(), chain)
    return all(mix_pair(mass, eps_w) is not None for mass in cells[1:-1])


def reassemble(dist, chain: CutChain, eps):
    """Split each weight of the tree distribution dist of chain.x into whole
    steps of the eps/n^2 grid and a residual below one step, sweep the
    steps left, then right, and add the residual back.  Returns
    (distribution, exchange records).

    chain is the narrow-cut chain of the LP point dist decomposes, with
    3/2 < chain.xi < 2.  The output reconstructs chain.x exactly and
    satisfies the four-way type-mix bound within eps at every internal
    xi-narrow cut.
    """
    eps = Fraction(eps)
    if not Fraction(3, 2) < chain.xi < 2:
        raise ValueError("xi must lie strictly between 3/2 and 2")
    check_reconstruction(chain.x, dist)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = chain.inst.n

    # weight w/den = steps * quantum + rest/(den*qd), with rest/(den*qd)
    # below one step; pot keeps the steps by tree, tree_of each key's
    # first frozenset, so the chain's profile cache hashes no new one
    quantum = eps / (n * n)
    qn, qd = quantum.as_integer_ratio()
    nums, den = over_lcm(dict(enumerate(a.weight for a in dist)))
    pot, tree_of, rests = {}, {}, []
    for a, w in zip(dist, nums.values()):
        steps, rest = divmod(w * qd, den * qn)
        rests.append(rest)
        if steps:
            key = tree_key(a.tree)
            pot[key] = pot.get(key, 0) + steps
            tree_of.setdefault(key, a.tree)
    assert Fraction(sum(rests), den * qd) < eps, "residual mass >= eps"
    records = sweep(pot, tree_of, chain, "left", quantum)
    records += sweep(pot, tree_of, chain, "right", quantum)
    final = [Atom(tree_of[k], w * quantum) for k, w in sorted(pot.items())]
    final += [Atom(a.tree, Fraction(rest, den * qd))
              for a, rest in zip(dist, rests) if rest]

    check_reconstruction(chain.x, final)
    assert len(final) < n * n / eps + n * n
    assert type_mix_bound_holds(final, chain, eps)
    return final, records
