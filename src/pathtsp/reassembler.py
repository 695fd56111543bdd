"""Tree-type classification and the reassembling passes.

Types live at INTERNAL xi-narrow cuts only.  With C the i-th xi-narrow cut
and C_left/C_right its neighbors in the xi-subchain, set

    l = |S cap C cap C_left|,  m = |S cap C|,  r = |S cap C cap C_right|.

The type is GOOD when m >= 3, or l+r >= 3, or (l+r >= 1 and no xi-narrow
cut C' -- including C itself -- satisfies S cap C' = {e} for an edge
e of S cap C); otherwise the code is the literal digits "lmr".

The exchange swaps one edge between a type-120 tree and a type-011 tree at
the same cut, turning them into 121 and 010 without disturbing the cuts to
the left, and the sweeps drive those exchanges across the chain until one
of the two type classes is exhausted at every cut.  A mirrored exchange
(021 with 110) supports the right-to-left sweep.  The reassemble driver
takes a tree distribution and the narrow-cut chain of the point it
decomposes, rounds weights onto the eps/n^2 grid, sweeps left then right,
and returns the residual mass to the pot, so the final distribution
satisfies the four-way type-mix bound within eps at every internal
xi-narrow cut.

Everything recomputes types from scratch after every exchange — correctness
over speed at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

# narrow_cuts is unused here; perfbench/tracing.py wraps it by this name
from .cuts import CutChain, crossing_edges, crossing_mask, narrow_cuts
from .tree_decomp import (Atom, is_spanning_tree, reconstruct,
                          round_distribution, total_weight)

ZERO = Fraction(0)
ONE = Fraction(1)

TYPE_CODES = ("010", "011", "110", "111", "020", "021", "120",
              "022", "220", "121", "GOOD")


class ExchangeError(Exception):
    pass


def xi_masks(chain: CutChain):
    return [chain.masks[j] for j in chain.xi_indices]


def type_data(tree, chain: CutChain, i: int):
    """(code, l, m, r) of the tree at the i-th xi-narrow cut (0 < i < l')."""
    masks = xi_masks(chain)
    last = len(masks) - 1
    if not 0 < i < last:
        raise ValueError(f"type queries are only defined at internal "
                         f"xi-narrow cuts, got index {i} of 0..{last}")
    cut = crossing_edges(tree, masks[i])
    m = len(cut)
    l = sum(1 for e in cut if crossing_mask(masks[i - 1], *e))
    r = sum(1 for e in cut if crossing_mask(masks[i + 1], *e))
    if m >= 3 or l + r >= 3:
        return "GOOD", l, m, r
    if l + r >= 1:
        cut_set = set(cut)
        defined = False
        for mk in masks:
            inter = crossing_edges(tree, mk)
            if len(inter) == 1 and inter[0] in cut_set:
                defined = True
                break
        if not defined:
            return "GOOD", l, m, r
    code = f"{l}{m}{r}"
    assert code in TYPE_CODES, f"impossible type {code}"
    return code, l, m, r


def classify(tree, chain: CutChain, i: int) -> str:
    """Type code of the tree at the i-th xi-narrow cut."""
    return type_data(tree, chain, i)[0]


def type_census(dist, chain: CutChain, i: int) -> dict:
    """Total weight per type code at internal xi-cut i."""
    census = {}
    for atom in dist:
        code = classify(atom.tree, chain, i)
        census[code] = census.get(code, ZERO) + atom.weight
    return census


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


def _exchange_core(s1, s2, chain, i, mirrored):
    masks = xi_masks(chain)
    last = len(masks) - 1
    want1, want2 = ("021", "110") if mirrored else ("120", "011")
    t1 = classify(s1, chain, i)
    t2 = classify(s2, chain, i)
    if t1 != want1 or t2 != want2:
        raise ExchangeError(f"need types ({want1},{want2}) at cut {i}, "
                            f"got ({t1},{t2})")
    cut1 = crossing_edges(s1, masks[i])
    cut2 = crossing_edges(s2, masks[i])
    assert len(cut1) == 2 and len(cut2) == 1
    e2 = cut2[0]

    # e0 is the edge of S1 cap C_i that single-defines a xi-cut beyond the
    # neighbor; the other edge e1 crosses no xi-cut except C_i itself.
    if mirrored:
        hunt = range(i + 1, last + 1)
        neighbor = masks[i + 1]
    else:
        hunt = range(i - 1, -1, -1)
        neighbor = masks[i - 1]
    e0 = h = None
    for j in hunt:
        inter = crossing_edges(s1, masks[j])
        if len(inter) == 1 and inter[0] in cut1:
            e0, h = inter[0], j
            break
    if e0 is None:
        raise ExchangeError(f"no singleton-defining cut for the type-{want1} "
                            f"tree at cut {i}")
    (e1,) = [e for e in cut1 if e != e0]
    assert crossing_mask(neighbor, *e0), "e0 must be the neighbor-crossing edge"
    assert not crossing_mask(masks[i - 1], *e1)
    assert not crossing_mask(masks[i + 1], *e1)
    assert e1 != e2

    krange = [j for j, mk in enumerate(masks) if crossing_mask(mk, *e2)]
    k = min(krange) if mirrored else max(krange)

    s1_new = frozenset(s1 - {e1} | {e2})
    s2_new = frozenset(s2 - {e2} | {e1})
    n = chain.inst.n
    if not is_spanning_tree(s1_new, n) or not is_spanning_tree(s2_new, n):
        raise ExchangeError("exchange output is not a spanning tree")
    assert classify(s1_new, chain, i) == "121"
    assert classify(s2_new, chain, i) == "010"
    return ExchangeRecord(
        cut_index=i, direction="left" if mirrored else "right",
        s1=frozenset(s1), s2=frozenset(s2), e0=e0, e1=e1, e2=e2, h=h, k=k,
        s1_new=s1_new, s2_new=s2_new)


def exchange(s1, s2, chain: CutChain, i: int):
    """(120, 011) -> (121, 010) at cut i; returns (s1', s2', record)."""
    rec = _exchange_core(s1, s2, chain, i, mirrored=False)
    return rec.s1_new, rec.s2_new, rec


def exchange_left(s1, s2, chain: CutChain, i: int):
    """Mirror image: (021, 110) -> (121, 010) at cut i."""
    rec = _exchange_core(s1, s2, chain, i, mirrored=True)
    return rec.s1_new, rec.s2_new, rec


def validate_exchange_record(rec: ExchangeRecord, chain: CutChain):
    """Re-check everything the exchange promises; returns violation strings."""
    bad = []
    masks = xi_masks(chain)
    last = len(masks) - 1
    n = chain.inst.n
    i = rec.cut_index
    mirrored = rec.direction == "left"
    want1, want2 = ("021", "110") if mirrored else ("120", "011")

    if rec.s1_new != rec.s1 - {rec.e1} | {rec.e2}:
        bad.append("s1_new is not s1 - e1 + e2")
    if rec.s2_new != rec.s2 - {rec.e2} | {rec.e1}:
        bad.append("s2_new is not s2 - e2 + e1")
    for name, tree in (("s1", rec.s1), ("s2", rec.s2),
                       ("s1_new", rec.s1_new), ("s2_new", rec.s2_new)):
        if not is_spanning_tree(tree, n):
            bad.append(f"{name} is not a spanning tree")
    if classify(rec.s1, chain, i) != want1:
        bad.append(f"s1 was not type {want1} at cut {i}")
    if classify(rec.s2, chain, i) != want2:
        bad.append(f"s2 was not type {want2} at cut {i}")
    if classify(rec.s1_new, chain, i) != "121":
        bad.append("s1_new is not type 121 at the exchange cut")
    if classify(rec.s2_new, chain, i) != "010":
        bad.append("s2_new is not type 010 at the exchange cut")

    protected = range(1, i) if not mirrored else range(i + 1, last)
    for j in protected:
        if classify(rec.s1, chain, j) != classify(rec.s1_new, chain, j):
            bad.append(f"(a) s1 type changed at protected cut {j}")
        if classify(rec.s2, chain, j) != classify(rec.s2_new, chain, j):
            bad.append(f"(a) s2 type changed at protected cut {j}")

    open_side = range(i + 1, last) if not mirrored else range(1, i)
    fragile = ("110", "021") if not mirrored else ("011", "120")
    for j in open_side:
        tj = classify(rec.s1_new, chain, j)
        if tj in fragile and classify(rec.s1, chain, j) != tj:
            bad.append(f"(c) s1_new acquired fragile type {tj} at cut {j}")
    # claim inside the proof: s1_new is GOOD strictly between i and k
    if mirrored:
        claim = range(max(rec.k, 1), i)
    else:
        claim = range(i + 1, min(rec.k, last - 1) + 1)
    claim = list(claim)
    for j in claim:
        if classify(rec.s1_new, chain, j) != "GOOD":
            bad.append(f"(claim) s1_new not GOOD at cut {j}")
    for j in open_side:
        tj = classify(rec.s2_new, chain, j)
        if tj in fragile and classify(rec.s2, chain, j) != tj:
            span = range(i + 1, j + 1) if not mirrored else range(j, i)
            if not all(classify(rec.s1_new, chain, p) == "GOOD"
                       for p in span):
                bad.append(f"(d) s2_new acquired fragile type {tj} at "
                           f"cut {j} without s1_new GOOD cover")
    return bad


# ----- sweeps -----

def _on_grid(dist, quantum):
    return all((a.weight / quantum).denominator == 1 for a in dist)


def _sweep(dist, chain: CutChain, mirrored, quantum=None):
    if quantum is not None:
        quantum = Fraction(quantum)
        if quantum <= 0 or not _on_grid(dist, quantum):
            raise ValueError("weights not on the eps/n^2 grid")
    masks = xi_masks(chain)
    last = len(masks) - 1
    want1, want2 = ("021", "110") if mirrored else ("120", "011")
    fragile = ("110", "021") if not mirrored else ("011", "120")

    # weights keyed by (tree, tag); canonical order = sorted key
    pot = {}
    for a in dist:
        key = (tuple(sorted(a.tree)), a.tag)
        pot[key] = pot.get(key, ZERO) + a.weight
    before = {i: type_census(dist, chain, i) for i in range(1, last)}

    records = []
    order = range(1, last) if not mirrored else range(last - 1, 0, -1)
    for i in order:
        while True:
            ones = []
            twos = []
            for key in sorted(pot):
                tree = frozenset(key[0])
                code = classify(tree, chain, i)
                if code == want1:
                    ones.append(key)
                elif code == want2:
                    twos.append(key)
            if not ones or not twos:
                break
            k1, k2 = ones[0], twos[0]
            delta = min(pot[k1], pot[k2])
            core = exchange_left if mirrored else exchange
            s1n, s2n, rec = core(frozenset(k1[0]), frozenset(k2[0]), chain, i)
            records.append(replace(rec, delta=delta))
            for key, tree in ((k1, s1n), (k2, s2n)):
                pot[key] -= delta
                if pot[key] == 0:
                    del pot[key]
                nk = (tuple(sorted(tree)), key[1])
                pot[nk] = pot.get(nk, ZERO) + delta

    out = [Atom(frozenset(k[0]), w, k[1]) for k, w in sorted(pot.items())]
    if quantum is not None:
        assert len(out) <= 1 / quantum, "support exceeded n^2/eps"
    # contract: the targeted pair annihilates; fragile types grow only
    # by what became GOOD
    for i in range(1, last):
        after = type_census(out, chain, i)
        assert min(after.get(want1, ZERO), after.get(want2, ZERO)) == 0
        good = after.get("GOOD", ZERO)
        for f in fragile:
            assert after.get(f, ZERO) <= before[i].get(f, ZERO) + good
    return out, records


def sweep_right(dist, chain: CutChain, quantum=None):
    """Left-to-right pass exchanging (120, 011) pairs; returns
    (new distribution, exchange records)."""
    return _sweep(dist, chain, mirrored=False, quantum=quantum)


def sweep_left(dist, chain: CutChain, quantum=None):
    """Right-to-left pass exchanging (021, 110) pairs."""
    return _sweep(dist, chain, mirrored=True, quantum=quantum)


# ----- the driver -----

def type_mix_bound_holds(dist, chain: CutChain, eps) -> bool:
    """min over the four two-type sums <= p_GOOD + eps at every internal
    xi-narrow cut."""
    last = len(chain.xi_indices) - 1
    for i in range(1, last):
        census = type_census(dist, chain, i)
        p = lambda c: census.get(c, ZERO)
        combos = (p("120") + p("021"), p("011") + p("110"),
                  p("011") + p("021"), p("120") + p("110"))
        if min(combos) > p("GOOD") + eps:
            return False
    return True


def reassemble(dist, chain: CutChain, eps):
    """Round the tree distribution dist of chain.x to the eps/n^2 grid,
    sweep left, sweep right, recombine the residual.  Returns
    (distribution, exchange records).

    chain is the narrow-cut chain of the LP point dist decomposes, with
    3/2 < chain.xi < 2.  The output reconstructs chain.x exactly and
    satisfies the four-way type-mix bound within eps at every internal
    xi-narrow cut.
    """
    eps = Fraction(eps)
    if not Fraction(3, 2) < chain.xi < 2:
        raise ValueError("xi must lie strictly between 3/2 and 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if reconstruct(dist) != chain.x:
        raise ValueError("the distribution does not reconstruct the "
                         "chain's LP point")
    n = chain.inst.n

    quantum = eps / (n * n)
    rounded, residual = round_distribution(dist, eps, n)
    swept, rec_l = sweep_left(rounded, chain, quantum)
    swept, rec_r = sweep_right(swept, chain, quantum)
    final = swept + residual
    records = rec_l + rec_r

    assert reconstruct(final) == chain.x
    assert total_weight(final) == 1
    assert len(final) < n * n / eps + n * n
    assert type_mix_bound_holds(final, chain, eps)
    return final, records
