"""Exhaustive, loop-based and Fraction-based versions of library code.

The library checks associativity and the cocycle condition with the middle
argument over a generating set, validates a groupoid on its compose array,
keeps phases as reduced int pairs and builds the Weyl twist as one array
expression.  These are the plain versions they replaced: every composable
triple, one Python loop per rule, a ``Fraction`` per phase and one phase
sum per Weyl pair.  The tests compare the two.
"""

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from weylkit.cocycle import TwoCocycle
from weylkit.errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    ElementNotInS,
    MissingComposite,
    SchemaError,
    UnknownArrowId,
)


@dataclass(frozen=True, order=True)
class FractionPhase:
    """The Fraction-backed phase: a reduced rational q in [0, 1)."""

    q: Fraction

    def __post_init__(self):
        if not (0 <= self.q < 1):
            object.__setattr__(self, "q", self.q % 1)

    @staticmethod
    def of(num: int, den: int = 1) -> "FractionPhase":
        return FractionPhase(Fraction(num, den))

    @staticmethod
    def parse(text: str) -> "FractionPhase":
        """Parse a serialized phase "a/b" (b >= 1) or a bare integer."""
        try:
            if "/" in text:
                a, b = text.split("/")
                num, den = int(a), int(b)
            else:
                num, den = int(text), 1
        except ValueError as exc:
            raise SchemaError(f"bad phase string {text!r}") from exc
        if den < 1:
            raise SchemaError(f"bad phase string {text!r}: denominator must be >= 1")
        return FractionPhase(Fraction(num, den))

    def __add__(self, other):
        return FractionPhase(self.q + other.q)

    def __sub__(self, other):
        return FractionPhase(self.q - other.q)

    def __neg__(self):
        return FractionPhase(-self.q)

    def times(self, n: int):
        return FractionPhase(self.q * n)

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.q))

    def __str__(self) -> str:
        return f"{self.q.numerator}/{self.q.denominator}"

    def __repr__(self) -> str:
        return f"Phase({self})"


def weyl_twist_cocycle_loop(GW, data):
    """The Weyl twist C with one Phase sum per composable pair, in ``GW.compose`` order."""
    G, omega, Q, sec = data.G, data.omega, data.Q, data.section
    values = {}
    for (a1, a2) in GW.compose:
        c1, _ = data.split_gw_id(a1)
        c2, chi = data.split_gw_id(a2)
        c12 = Q.mul(c1, c2)
        s12, s1, s2 = sec[c12], sec[c1], sec[c2]
        defect = G.mul_all(G.inv(s12), s1, s2)
        if defect not in data.S:
            raise ElementNotInS(defect)
        values[(a1, a2)] = (
            chi.value(defect)
            - omega.omega(s12, defect)
            + omega.omega(s1, s2)
        )
    return TwoCocycle(GW, values)


def grading_add(c, a, b):
    """The sum of two values of the grading ``c`` in its group."""
    return c.normalize(tuple(x + y for x, y in zip(a, b)))


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
