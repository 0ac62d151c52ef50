"""2-cocycles with exact phase values, and the maximal-subgroupoid search.

The cocycle condition and its consequences are checked exhaustively.  For
large groupoids the triple loop is vectorized over integer numerators with
a common denominator, which keeps the check exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import SearchCapExceeded, UndefinedPair
from .groupoid import FIBRE_CAP, FiniteGroupoid, Subgroupoid, isotropy_fibres, kernel_of_grading
from .phases import ZERO, Phase


class TwoCocycle:
    """Phase-valued function on the composable pairs of a groupoid.

    Pairs absent from ``values`` take the zero phase, so the trivial cocycle
    is the empty table.
    """

    def __init__(self, G: FiniteGroupoid, values: Optional[Mapping] = None):
        self.G = G
        self.values = {}
        for pair, ph in (values or {}).items():
            if pair not in G.compose:
                raise UndefinedPair(*pair)
            if not ph.is_zero:
                self.values[pair] = ph

    def omega(self, g, h) -> Phase:
        if (g, h) not in self.G.compose:
            raise UndefinedPair(g, h)
        return self.values.get((g, h), ZERO)

    def is_trivial(self) -> bool:
        return not self.values

    def _int_table(self):
        """(numerator array, compose matrix, common denominator)."""
        G = self.G
        den = 1
        for ph in self.values.values():
            den = math.lcm(den, ph.q.denominator)
        n = len(G.arrows)
        om = np.zeros((n, n), dtype=np.int64)
        for (g, h), ph in self.values.items():
            om[G.index[g], G.index[h]] = ph.q.numerator * (den // ph.q.denominator)
        return om, G.comp_matrix(), den


def check_cocycle(G: FiniteGroupoid, omega: TwoCocycle, max_witnesses: int = 5):
    """Exhaustive cocycle-condition check; returns a list of violating triples.

    An empty list means valid.  Also enforces the unit normalization
    omega(u, u) = 0.
    """
    violations = []
    for u in G.units:
        if not omega.omega(u, u).is_zero:
            violations.append((u, u, u))
    om, comp, den = omega._int_table()
    n = len(G.arrows)
    comp_safe = np.vstack([comp, np.full((1, n), -1, dtype=np.int32)])
    om_safe = np.vstack([om, np.zeros((1, n), dtype=np.int64)])
    for gi in range(n):
        gh = comp[gi]                                  # g*h
        mask = (gh[:, None] >= 0) & (comp >= 0)        # composable triples (g,h,k)
        if not mask.any():
            continue
        # omega(g, hk) + omega(h, k) - omega(gh, k) - omega(g, h)
        lhs = om[gi][np.clip(comp, 0, None)] + om
        rhs = om_safe[gh] + om[gi][:, None]
        bad = mask & ((lhs - rhs) % den != 0)
        if bad.any():
            for hi, ki in zip(*np.nonzero(bad)):
                violations.append((G.arrows[gi], G.arrows[int(hi)], G.arrows[int(ki)]))
                if len(violations) >= max_witnesses:
                    return violations
    return violations


def check_symmetric_on(omega: TwoCocycle, members: Iterable) -> bool:
    """True iff omega(a, b) = omega(b, a) for all composable a, b in the subset."""
    G = omega.G
    S = sorted(set(members))
    for a, b in itertools.combinations(S, 2):
        if G.composable(a, b) and omega.omega(a, b) != omega.omega(b, a):
            return False
    return True


def check_unit_identity(omega: TwoCocycle) -> bool:
    """Consequence check: omega(g, g^-1) = omega(g^-1, g) and unit neutrality.

    Both follow from the cocycle condition with the unit normalization, so a
    failure indicates a corrupted table.
    """
    G = omega.G
    for g in G.arrows:
        gi = G.inv(g)
        if omega.omega(g, gi) != omega.omega(gi, g):
            return False
        if not omega.omega(G.tgt[g], g).is_zero or not omega.omega(g, G.src[g]).is_zero:
            return False
    return True


def _closure(G: FiniteGroupoid, u, gens):
    """Subgroup of the isotropy fibre at u generated by gens (BFS closure)."""
    seen = {u} | set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in (G.inv(a),):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
            for b in list(seen):
                for prod in (G.mul(a, b), G.mul(b, a)):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def _abelian_symmetric(G, omega, subset):
    for a, b in itertools.combinations(subset, 2):
        if G.mul(a, b) != G.mul(b, a) or omega.omega(a, b) != omega.omega(b, a):
            return False
    return True


def _maximal_fibre_subgroups(G, omega, u, fibre):
    """All maximal abelian subgroups of the fibre at u on which omega is symmetric."""
    if len(fibre) > FIBRE_CAP:
        raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)} > {FIBRE_CAP}")
    fibre = set(fibre)
    maximal = set()
    visited = set()

    def extensions(A):
        out = []
        for t in sorted(fibre - A):
            B = _closure(G, u, A | {t})
            if B <= fibre and _abelian_symmetric(G, omega, B):
                out.append(B)
        return out

    def grow(A):
        if A in visited:
            return
        visited.add(A)
        exts = extensions(A)
        if not exts:
            maximal.add(A)
            return
        for B in exts:
            grow(B)

    for g in sorted(fibre):
        A = _closure(G, u, {g})
        if _abelian_symmetric(G, omega, A):
            grow(A)
    return sorted(maximal, key=sorted)


def find_maximal_symmetric_abelian(G: FiniteGroupoid, omega: TwoCocycle, c) -> list:
    """All maximal wide abelian group-bundle subgroupoids of Iso(c^-1(0))
    on which omega is symmetric.

    The search runs fibrewise (bundle subgroupoids decompose over units) and
    takes the product of the per-fibre maximal families.
    """
    iso = isotropy_fibres(G, kernel_of_grading(G, c).members)
    per_unit = [
        _maximal_fibre_subgroups(G, omega, u, iso[u]) for u in G.units
    ]
    results = []
    for combo in itertools.product(*per_unit):
        members = frozenset().union(*combo) if combo else frozenset(G.units)
        results.append(Subgroupoid(G, members))
    return results


def is_maximal_symmetric_abelian(G: FiniteGroupoid, omega: TwoCocycle, c, members) -> Optional[tuple]:
    """None if the bundle is maximal; otherwise a witness arrow extending it."""
    kernel = isotropy_fibres(G, kernel_of_grading(G, c).members)
    S = isotropy_fibres(G, members)
    for u in G.units:
        fibre, Su = set(kernel[u]), set(S[u])
        if len(fibre) > FIBRE_CAP:
            raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)}")
        for t in sorted(fibre - Su):
            B = _closure(G, u, Su | {t})
            if B <= fibre and _abelian_symmetric(G, omega, B):
                return (u, t)
    return None
