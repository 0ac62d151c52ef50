"""Finite groupoids: validation, subgroupoid analysis, gradings, quotients.

A groupoid is stored extensionally: a finite set of arrow ids, source/target
maps into the unit set, a compose table defined exactly on composable pairs
(x*y needs s(x) = r(y)), and a total inverse map.  Units are themselves
arrows (their own source and target), so subgroupoids automatically carry
the units they touch.  Everything is immutable after validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    MissingComposite,
    NotAbelian,
    NotBundle,
    NotHomomorphism,
    NotNormal,
    SchemaError,
    UnknownArrowId,
)

MAX_ARROWS = 4096
FIBRE_CAP = 256


class FiniteGroupoid:
    """A validated finite groupoid.  Construct via :func:`validate_groupoid`."""

    def __init__(self, name, units, src, tgt, compose, inverse):
        self.name = name
        self.units = tuple(sorted(units))
        self.arrows = tuple(sorted(src))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self.index = {g: i for i, g in enumerate(self.arrows)}
        self._unit_set = frozenset(self.units)

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        return f"<FiniteGroupoid {self.name}: {len(self.units)} units, {len(self.arrows)} arrows>"

    def is_unit(self, g):
        return g in self._unit_set

    def composable(self, g, h):
        return self.src[g] == self.tgt[h]

    def mul(self, g, h):
        return self.compose[(g, h)]

    def mul_all(self, *gs):
        out = gs[0]
        for g in gs[1:]:
            out = self.compose[(out, g)]
        return out

    def inv(self, g):
        return self.inverse[g]

    def conjugate(self, g, a):
        """g^{-1} a g, defined when a is isotropy at r(g); lands at s(g)."""
        return self.mul_all(self.inv(g), a, g)

    def arrows_from(self, u):
        """All arrows with source u (the fibre G_u of the left regular action)."""
        return [g for g in self.arrows if self.src[g] == u]

    def element_order(self, g):
        """Order of an isotropy arrow in its fibre group."""
        if self.src[g] != self.tgt[g]:
            raise UnknownArrowId(g)
        n, x = 1, g
        while not self.is_unit(x):
            x = self.mul(x, g)
            n += 1
        return n

    # dense integer tables for the vectorized exhaustive checks
    def comp_matrix(self):
        n = len(self.arrows)
        comp = np.full((n, n), -1, dtype=np.int32)
        for (g, h), k in self.compose.items():
            comp[self.index[g], self.index[h]] = self.index[k]
        return comp


@dataclass(frozen=True)
class Subgroupoid:
    parent: FiniteGroupoid
    members: frozenset


def isotropy_fibres(G: FiniteGroupoid, members: Iterable) -> dict:
    """The isotropy members at each unit of G: unit -> sorted tuple."""
    fibres = {u: [] for u in G.units}
    for g in sorted(members):
        if G.src[g] == G.tgt[g]:
            fibres[G.src[g]].append(g)
    return {u: tuple(fs) for u, fs in fibres.items()}


@dataclass(frozen=True)
class Grading:
    """Homomorphism c: G -> Gamma into a finite list of cyclic factors.

    A factor order of 0 denotes an infinite cyclic factor.
    """

    group: tuple
    values: Mapping

    def normalize(self, v):
        return tuple(x % n if n else x for x, n in zip(v, self.group))

    @property
    def zero(self):
        return tuple(0 for _ in self.group)

    def add(self, a, b):
        return self.normalize(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.normalize(tuple(-x for x in a))

    def value(self, g):
        return self.normalize(tuple(self.values[g]))


def _first_violation(mask_bad):
    gs, hs = np.nonzero(mask_bad)
    return int(gs[0]), int(hs[0])


def _check_associativity(G: FiniteGroupoid):
    comp = G.comp_matrix()
    n = len(G.arrows)
    # guard row so that comp_safe[-1] is all -1
    comp_safe = np.vstack([comp, np.full((1, n), -1, dtype=np.int32)])
    for gi in range(n):
        row = comp[gi]                    # g*h for each h (-1 where undefined)
        left = comp_safe[row]             # (g*h)*k, -1 rows via the guard
        right = np.where(comp >= 0, comp[gi][np.clip(comp, 0, None)], -1)  # g*(h*k)
        mask = (row[:, None] >= 0) & (comp >= 0)
        bad = mask & (left != right)
        if bad.any():
            hi, ki = _first_violation(bad)
            raise AssociativityViolation(G.arrows[gi], G.arrows[hi], G.arrows[ki])


def validate_groupoid(
    units: Iterable,
    arrows: Mapping,
    compose: Mapping,
    inverse: Optional[Mapping] = None,
    name: str = "G",
) -> FiniteGroupoid:
    """Validate a groupoid description and return the immutable groupoid.

    ``arrows`` maps arrow id -> (source unit, target unit); units must appear
    as arrows with source = target = themselves.  ``compose`` must cover
    exactly the composable pairs.  ``inverse`` is derived from the compose
    table when omitted.
    """
    units = sorted(set(units))
    src = {g: st[0] for g, st in arrows.items()}
    tgt = {g: st[1] for g, st in arrows.items()}
    if len(src) > MAX_ARROWS:
        raise SchemaError(f"too many arrows ({len(src)} > {MAX_ARROWS})")
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

    # two-sided identity behavior of units
    for g in src:
        if compose[(tgt[g], g)] != g or compose[(g, src[g])] != g:
            raise DanglingUnit(src[g], f"unit fails to act as identity on {g}")

    G = FiniteGroupoid(name, units, src, tgt, compose, inverse or {})
    _check_associativity(G)

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
        G.inverse.update(inv)
    else:
        for g in src:
            h = inverse.get(g)
            if h is None or h not in src:
                raise BadInverse(g, "missing from inverse map")
            if compose.get((h, g)) != src[g] or compose.get((g, h)) != tgt[g]:
                raise BadInverse(g, "declared inverse fails the inverse laws")
    for g in src:
        if G.inverse[G.inverse[g]] != g:
            raise BadInverse(g, "inverse is not an involution")
    return G


def build_groupoid(
    units: Iterable,
    arrows: Mapping,
    mul: Callable,
    name: str = "G",
) -> FiniteGroupoid:
    """Assemble the compose table from a multiplication callable, then validate."""
    src = {g: st[0] for g, st in arrows.items()}
    tgt = {g: st[1] for g, st in arrows.items()}
    compose = {
        (g, h): mul(g, h)
        for g in src
        for h in src
        if src[g] == tgt[h]
    }
    return validate_groupoid(units, arrows, compose, name=name)


@dataclass
class PropertyReport:
    is_subgroupoid: bool
    is_wide: bool
    is_group_bundle: bool
    fibres_abelian: bool
    is_normal: bool
    witnesses: dict = field(default_factory=dict)

    def all_true(self):
        return (
            self.is_subgroupoid
            and self.is_wide
            and self.is_group_bundle
            and self.fibres_abelian
            and self.is_normal
        )


def subgroupoid_properties(G: FiniteGroupoid, members: Iterable) -> PropertyReport:
    """Flags for a subset of arrows: subgroupoid, wide, bundle, abelian, normal."""
    S = frozenset(members)
    for g in S:
        if g not in G.src:
            raise UnknownArrowId(g)
    wit = {}

    closed = True
    for g in S:
        if G.inv(g) not in S:
            closed, wit["subgroupoid"] = False, ("inverse", g)
            break
        if G.src[g] not in S or G.tgt[g] not in S:
            closed, wit["subgroupoid"] = False, ("unit", g)
            break
    if closed:
        for g, h in itertools.product(S, S):
            if G.composable(g, h) and G.mul(g, h) not in S:
                closed, wit["subgroupoid"] = False, ("compose", g, h)
                break

    wide = set(G.units) <= S
    bundle = all(G.src[g] == G.tgt[g] for g in S)
    if not bundle:
        wit["bundle"] = next(g for g in S if G.src[g] != G.tgt[g])

    abelian = True
    if bundle:
        for g, h in itertools.combinations(S, 2):
            if G.composable(g, h) and G.mul(g, h) != G.mul(h, g):
                abelian, wit["abelian"] = False, (g, h)
                break

    normal = True
    for g in G.arrows:
        for a in S:
            if G.src[a] == G.tgt[a] == G.tgt[g]:
                if G.conjugate(g, a) not in S:
                    normal, wit["normal"] = False, (g, a)
                    break
        if not normal:
            break

    return PropertyReport(closed, wide, bundle, abelian, normal, wit)


def iso_subgroupoid(G: FiniteGroupoid) -> Subgroupoid:
    """The isotropy bundle Iso(G) = arrows with equal range and source."""
    return Subgroupoid(G, frozenset(g for g in G.arrows if G.src[g] == G.tgt[g]))


def check_effective(G: FiniteGroupoid) -> bool:
    """Discrete effectiveness: every isotropy arrow is a unit."""
    return all(G.is_unit(g) for g in iso_subgroupoid(G).members)


def validate_grading(G: FiniteGroupoid, c: Grading) -> None:
    for u in G.units:
        if c.value(u) != c.zero:
            raise NotHomomorphism((u, u))
    for (g, h), k in G.compose.items():
        if c.value(k) != c.add(c.value(g), c.value(h)):
            raise NotHomomorphism((g, h))


def kernel_of_grading(G: FiniteGroupoid, c: Grading) -> Subgroupoid:
    """The wide subgroupoid of arrows graded zero."""
    validate_grading(G, c)
    return Subgroupoid(G, frozenset(g for g in G.arrows if c.value(g) == c.zero))


def quotient_by_bundle(G: FiniteGroupoid, members: Iterable):
    """Quotient G by a wide normal abelian group bundle S inside Iso(G).

    Returns (quotient groupoid, class map arrow -> class id).  Class ids are
    the lexicographically least member of each class.
    """
    S = frozenset(members)
    rep = subgroupoid_properties(G, S)
    if not (rep.is_subgroupoid and rep.is_wide and rep.is_group_bundle):
        raise NotBundle(f"marked subgroupoid is not a wide group bundle: {rep.witnesses}")
    if not rep.fibres_abelian:
        raise NotAbelian(f"bundle fibres are not abelian: {rep.witnesses}")
    if not rep.is_normal:
        raise NotNormal(f"bundle is not normal: {rep.witnesses}")

    fibres = isotropy_fibres(G, S)
    return orbit_quotient(
        G,
        lambda g: frozenset(G.mul(g, a) for a in fibres[G.src[g]]),
        name=f"{G.name}/S",
        error=NotNormal,
    )


def orbit_quotient(G: FiniteGroupoid, orbit: Callable, name: str, error: type):
    """Quotient G by the partition of its arrows into orbits.

    ``orbit(g)`` is the set of arrows identified with g.  Class ids are the
    least member of each orbit.  Classes are composed through representatives
    that match on source, and the composition is checked to descend; a
    failure of either the partition or the descent raises ``error``.
    Returns (quotient groupoid, class map arrow -> class id).
    """
    class_map, classes = {}, {}
    for g in G.arrows:
        members = orbit(g)
        cid = min(members)
        class_map[g] = cid
        classes.setdefault(cid, members)
    if sum(len(ms) for ms in classes.values()) != len(G.arrows) or any(
        class_map[m] != cid for cid, ms in classes.items() for m in ms
    ):
        raise error("orbits do not partition the arrow set")

    # the least member with each source (later keys overwrite earlier ones)
    by_source = {cid: {G.src[m]: m for m in sorted(ms, reverse=True)} for cid, ms in classes.items()}
    units = {class_map[u] for u in G.units}
    arrows = {cid: (class_map[G.src[cid]], class_map[G.tgt[cid]]) for cid in classes}

    def q_mul(c1, c2):
        return class_map[G.mul(by_source[c1][G.tgt[c2]], c2)]

    Q = build_groupoid(units, arrows, q_mul, name=name)
    for (g, h), gh in G.compose.items():
        if class_map[gh] != Q.mul(class_map[g], class_map[h]):
            raise error(f"quotient composition depends on representatives: ({g}, {h})")
    return Q, class_map


def class_table(class_map: Mapping) -> dict:
    """Invert a class map: class id -> frozenset of its members."""
    classes = {}
    for g, cid in class_map.items():
        classes.setdefault(cid, set()).add(g)
    return {cid: frozenset(ms) for cid, ms in classes.items()}


def find_isomorphism(G1: FiniteGroupoid, G2: FiniteGroupoid):
    """Exhaustive search for a groupoid isomorphism G1 -> G2.

    Returns an arrow bijection dict or None.  Intended for desk-scale
    groupoids (tens of arrows); candidates are prefiltered by unit-ness,
    isotropy, endpoints-in-common and element order.
    """
    if len(G1) != len(G2) or len(G1.units) != len(G2.units):
        return None

    def profile(G, g):
        iso = G.src[g] == G.tgt[g]
        order = G.element_order(g) if iso else 0
        return (G.is_unit(g), iso, G.src[g] == G.tgt[g], order)

    cand = {}
    for g in G1.arrows:
        cand[g] = [h for h in G2.arrows if profile(G2, h) == profile(G1, g)]
        if not cand[g]:
            return None

    order = sorted(G1.arrows, key=lambda g: (not G1.is_unit(g), len(cand[g]), g))
    assign = {}
    used = set()

    def consistent(g, h):
        if G1.src[g] in assign and assign[G1.src[g]] != G2.src[h]:
            return False
        if G1.tgt[g] in assign and assign[G1.tgt[g]] != G2.tgt[h]:
            return False
        if G1.inv(g) in assign and assign[G1.inv(g)] != G2.inv(h):
            return False
        for g2, h2 in assign.items():
            if G1.composable(g, g2):
                if not G2.composable(h, h2):
                    return False
                prod = G1.mul(g, g2)
                if prod in assign and assign[prod] != G2.mul(h, h2):
                    return False
            if G1.composable(g2, g):
                if not G2.composable(h2, h):
                    return False
                prod = G1.mul(g2, g)
                if prod in assign and assign[prod] != G2.mul(h2, h):
                    return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        g = order[i]
        for h in cand[g]:
            if h in used or not consistent(g, h):
                continue
            assign[g] = h
            used.add(h)
            if backtrack(i + 1):
                return True
            del assign[g]
            used.remove(h)
        return False

    if backtrack(0):
        return dict(assign)
    return None
