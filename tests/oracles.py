"""Exhaustive and loop-based versions of the groupoid and cocycle checks.

The library checks associativity and the cocycle condition with the middle
argument over a generating set, and validates a groupoid on its compose
array.  These are the plain versions they replaced: every composable
triple, and one Python loop per rule.  The tests compare the two.
"""

import itertools

import numpy as np

from weylkit.errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    MissingComposite,
    SchemaError,
    UnknownArrowId,
)


def comp_array(arrows, compose):
    """The compose table over sorted arrow indices, -1 off its entries."""
    ids = sorted(arrows)
    index = {g: i for i, g in enumerate(ids)}
    comp = np.full((len(ids), len(ids)), -1, dtype=np.int64)
    for (g, h), k in compose.items():
        comp[index[g], index[h]] = index[k]
    return ids, comp


def associativity_violations(arrows, compose):
    """Every composable triple (g, h, k) with (gh)k != g(hk), by sorted index."""
    ids, comp = comp_array(arrows, compose)
    out = []
    for gi in range(len(ids)):
        for hi in np.flatnonzero(comp[gi] >= 0):
            gh = comp[gi, hi]
            for ki in np.flatnonzero(comp[hi] >= 0):
                if comp[gh, ki] != comp[gi, comp[hi, ki]]:
                    out.append((ids[gi], ids[hi], ids[ki]))
    return out


def cocycle_violations(G, omega):
    """Every composable triple at which d omega is nonzero, by index."""
    om, comp, den = omega._int_table()
    out = []
    for gi in range(len(G.arrows)):
        gh = comp[gi]
        mask = (gh[:, None] >= 0) & (comp >= 0)
        # omega(g, hk) + omega(h, k) - omega(gh, k) - omega(g, h)
        lhs = om[gi][np.clip(comp, 0, None)] + om
        rhs = om[np.clip(gh, 0, None)] + om[gi][:, None]
        for hi, ki in np.argwhere(mask & ((lhs - rhs) % den != 0)):
            out.append((G.arrows[gi], G.arrows[hi], G.arrows[ki]))
    return out


def is_cocycle_violation(G, omega, triple):
    """d omega at one triple, recomputed with Phase arithmetic."""
    g, h, k = triple
    d = (omega.omega(h, k) - omega.omega(G.mul(g, h), k)
         + omega.omega(g, G.mul(h, k)) - omega.omega(g, h))
    return not d.is_zero


def validate_groupoid_loops(units, arrows, compose, inverse=None):
    """validate_groupoid as one loop per rule; returns the inverse map.

    Associativity is checked over every composable triple.
    """
    units = sorted(set(units))
    src = {g: st[0] for g, st in arrows.items()}
    tgt = {g: st[1] for g, st in arrows.items()}
    unit_set = set(units)
    for u in units:
        if u not in src:
            raise DanglingUnit(u, "unit is not an arrow")
        if src[u] != u or tgt[u] != u:
            raise DanglingUnit(u, "unit arrow must have source = target = itself")
    for g in src:
        if src[g] not in unit_set or tgt[g] not in unit_set:
            raise DanglingUnit(g, "arrow endpoint is not a declared unit")

    for (g, h), k in compose.items():
        for a in (g, h, k):
            if a not in src:
                raise UnknownArrowId(a)
        if src[g] != tgt[h]:
            raise SchemaError(f"compose entry ({g}, {h}) is not a composable pair")
        if src[k] != src[h] or tgt[k] != tgt[g]:
            raise SchemaError(f"compose entry ({g}, {h}) -> {k} breaks source/target rules")
    for g, h in itertools.product(src, src):
        if src[g] == tgt[h] and (g, h) not in compose:
            raise MissingComposite(g, h)

    for g in src:
        if compose[(tgt[g], g)] != g or compose[(g, src[g])] != g:
            raise DanglingUnit(src[g], f"unit fails to act as identity on {g}")

    violations = associativity_violations(arrows, compose)
    if violations:
        raise AssociativityViolation(*violations[0])

    if inverse is None:
        inv = {}
        for g in src:
            cands = [
                h
                for h in src
                if src[h] == tgt[g]
                and tgt[h] == src[g]
                and compose[(h, g)] == src[g]
                and compose[(g, h)] == tgt[g]
            ]
            if not cands:
                raise BadInverse(g, "no two-sided inverse in the compose table")
            inv[g] = cands[0]
    else:
        inv = dict(inverse)
        for g in src:
            h = inverse.get(g)
            if h is None or h not in src:
                raise BadInverse(g, "missing from inverse map")
            if compose.get((h, g)) != src[g] or compose.get((g, h)) != tgt[g]:
                raise BadInverse(g, "declared inverse fails the inverse laws")
    for g in src:
        if inv[inv[g]] != g:
            raise BadInverse(g, "inverse is not an involution")
    return inv
