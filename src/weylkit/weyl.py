"""Dynamical Cartan hypotheses, the quotient action on the dual bundle,
the concrete Weyl groupoid, its twist cocycle, and the conditional
expectation onto the abelian bundle algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .cocycle import TwoCocycle, check_symmetric_on, is_maximal_symmetric_abelian
from .dual import Character, CharacterBundle, bundle_from_subgroupoid, dual_bundle
from .errors import (
    CardinalityMismatch,
    ElementNotInS,
    NotAnAction,
    RepresentativeDisagreement,
    SchemaError,
)
from .groupoid import (
    FiniteGroupoid,
    Grading,
    build_groupoid,
    class_table,
    isotropy_fibres,
    kernel_of_grading,
    quotient_by_bundle,
    subgroupoid_properties,
)


class PowerTable(dict):
    """Each element's powers x, x^2, ... up to the identity, built on first lookup."""

    def __init__(self, mul, identity):
        super().__init__()
        self.mul, self.identity = mul, identity

    def __missing__(self, x):
        pw, e = [x], self.identity(x)
        while pw[-1] != e:
            pw.append(self.mul(pw[-1], x))
        self[x] = pw
        return pw


def first_centralizing_bound(fibre, moved, powers: PowerTable):
    """The immediately-centralizing test on one fibre of a bundle.

    ``moved`` maps each fibre element x to its image under one arrow (for
    conjugation by t, x -> t x t^-1).  Returns the least bound k, up to the
    maximal element order of the fibre, such that every x has
    (moved x)^n = x^n for some n <= k although ``moved`` is not the
    identity; None when there is no such k.
    """
    if all(moved[x] == x for x in fibre):
        return None
    top = max(len(powers[x]) for x in fibre)

    def agree(x, n):  # (moved x)^n == x^n
        pm, px = powers[moved[x]], powers[x]
        return pm[(n - 1) % len(pm)] == px[(n - 1) % len(px)]

    # the premise only grows with k, so it first holds at the largest of
    # the per-element least exponents
    k = max(next((n for n in range(1, top + 1) if agree(x, n)), top + 1) for x in fibre)
    return k if k <= top else None


def check_immediately_centralizing(G: FiniteGroupoid, S_members, T_members):
    """Whether the bundle S <= T is immediately centralizing inside T.

    For every t in T and every bound k up to the maximal element order of the
    fibre S_{p(t)}: if each s has some power s^n (n <= k) commuting with t,
    then t must commute with the whole fibre.  Returns (ok, witness) where
    the witness is the offending (t, k).
    """
    fibres = isotropy_fibres(G, S_members)
    powers = PowerTable(G.mul, G.tgt.__getitem__)
    for t in sorted(T_members):
        fibre, ti = fibres[G.src[t]], G.inv(t)
        # t s^n = s^n t exactly when (t s t^-1)^n = s^n
        moved = {s: G.mul_all(t, s, ti) for s in fibre}
        k = first_centralizing_bound(fibre, moved, powers)
        if k is not None:
            return False, (t, k)
    return True, None


@dataclass
class HypothesisReport:
    """Per-hypothesis verdicts for the dynamical Cartan theorem."""

    contained_in_iso_kernel: bool
    wide: bool
    group_bundle: bool
    abelian: bool
    symmetric: bool
    maximal: bool
    normal: bool
    immediately_centralizing: bool
    witnesses: dict = field(default_factory=dict)
    topological_note: str = (
        "openness/closedness/continuity hold automatically for finite discrete groupoids"
    )

    def all_pass(self) -> bool:
        return all(
            (
                self.contained_in_iso_kernel,
                self.wide,
                self.group_bundle,
                self.abelian,
                self.symmetric,
                self.maximal,
                self.normal,
                self.immediately_centralizing,
            )
        )

    def as_dict(self) -> dict:
        return {
            "contained_in_iso_kernel": self.contained_in_iso_kernel,
            "wide": self.wide,
            "group_bundle": self.group_bundle,
            "abelian": self.abelian,
            "symmetric": self.symmetric,
            "maximal": self.maximal,
            "normal": self.normal,
            "immediately_centralizing": self.immediately_centralizing,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "note": self.topological_note,
            "all_pass": self.all_pass(),
        }


def iso_kernel_members(G: FiniteGroupoid, c: Grading) -> frozenset:
    """Arrows of Iso(c^-1(0)): zero-graded isotropy."""
    kernel = kernel_of_grading(G, c)
    return frozenset(g for g in kernel.members if G.src[g] == G.tgt[g])


def check_gamma_cartan_hypotheses(
    G: FiniteGroupoid, omega: TwoCocycle, c: Grading, S_members
) -> HypothesisReport:
    S = frozenset(S_members)
    T = iso_kernel_members(G, c)
    wit = {}

    contained = S <= T
    if not contained:
        wit["contained_in_iso_kernel"] = next(iter(S - T))

    props = subgroupoid_properties(G, S)
    wit.update({f"props_{k}": v for k, v in props.witnesses.items()})

    symmetric = check_symmetric_on(omega, S)

    ext = is_maximal_symmetric_abelian(G, omega, c, S) if contained else ("n/a",)
    maximal = ext is None
    if not maximal:
        wit["maximal"] = ext

    imm, imm_wit = check_immediately_centralizing(G, S, T)
    if not imm:
        wit["immediately_centralizing"] = imm_wit

    return HypothesisReport(
        contained_in_iso_kernel=contained,
        wide=props.is_wide and props.is_subgroupoid,
        group_bundle=props.is_group_bundle,
        abelian=props.fibres_abelian,
        symmetric=symmetric,
        maximal=maximal,
        normal=props.is_normal,
        immediately_centralizing=imm,
        witnesses=wit,
    )


@dataclass
class WeylData:
    """Everything the Weyl constructions share: quotient, dual, action, section."""

    G: FiniteGroupoid
    S: frozenset
    omega: TwoCocycle
    Q: FiniteGroupoid
    class_map: dict           # G arrow -> class id
    classes: dict             # class id -> frozenset of members
    dual: CharacterBundle     # dual of the bundle S
    action: dict              # (class id, char id) -> Character
    section: dict             # class id -> G arrow

    def char_id(self, chi: Character) -> str:
        return self.dual.char_id[chi]

    def gw_arrow_id(self, cid, chi) -> str:
        return f"{cid}&{self.char_id(chi)}"

    def split_gw_id(self, arrow_id):
        cid, char_id = arrow_id.rsplit("&", 1)
        return cid, self.dual.by_id[char_id]


def _act_one(G, omega, dual, gamma, chi: Character) -> Character:
    """Evaluate the quotient action of the representative gamma on chi."""
    gi = G.inv(gamma)
    base = -omega.omega(gamma, gi)
    table = {}
    for a in dual.bundle.fibre(G.tgt[gamma]):
        gia = G.mul(gi, a)
        table[a] = (
            base
            + omega.omega(gi, a)
            + omega.omega(gia, gamma)
            + chi.value(G.mul(gia, gamma))
        )
    return Character.from_table(G.tgt[gamma], table)


def weyl_action(G: FiniteGroupoid, S_members, omega: TwoCocycle):
    """Action of G/S on the dual bundle of S, verified representative-independent.

    Returns (Q, class_map, dual, action) with action keyed by
    (class id, character id).
    """
    S = frozenset(S_members)
    Q, class_map = quotient_by_bundle(G, S)
    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    action = {}
    for cid, members in class_table(class_map).items():
        for chi in dual.fibres[G.src[cid]]:
            results = {_act_one(G, omega, dual, g, chi) for g in members}
            if len(results) != 1:
                raise RepresentativeDisagreement((cid, dual.char_id[chi]))
            action[(cid, dual.char_id[chi])] = results.pop()
    # the action is affine in the character for a nontrivial cocycle, so
    # multiplicativity is deliberately not checked here
    verify_groupoid_action(Q, dual, action, {class_map[u]: u for u in G.units})
    return Q, class_map, dual, action


def verify_groupoid_action(
    Q: FiniteGroupoid, dual: CharacterBundle, action: Mapping, base_of_unit: Mapping
):
    """Check that ``action`` is an action of the groupoid Q on the bundle ``dual``.

    ``action`` maps (arrow of Q, character id) -> Character, for the
    characters over the base point of the arrow's source; ``base_of_unit``
    sends each unit of Q to its base point.  Unit arrows must act trivially
    and the action must respect composition.  Raises NotAnAction with the
    first failing instance.
    """
    # work on character ids, so that each Character is hashed once
    act = {}
    for key, chi in action.items():
        act[key] = dual.char_id.get(chi)
        if act[key] is None:
            raise NotAnAction(("image outside the dual", *key))
    ids = {x: [dual.char_id[chi] for chi in chis] for x, chis in dual.fibres.items()}
    for u, x in base_of_unit.items():
        for i in ids[x]:
            if act[(u, i)] != i:
                raise NotAnAction(("unit acts nontrivially", u, i))
    for (c1, c2), c12 in Q.compose.items():
        for i in ids[base_of_unit[Q.src[c2]]]:
            if act[(c12, i)] != act[(c1, act[(c2, i)])]:
                raise NotAnAction(("composition", c1, c2, i))


def choose_section(G: FiniteGroupoid, class_map, classes) -> dict:
    """Deterministic section: the unit on unit classes, else the least arrow id."""
    section = {}
    unit_classes = {class_map[u]: u for u in G.units}
    for cid, members in classes.items():
        section[cid] = unit_classes.get(cid, min(members))
    return section


def validate_section(G: FiniteGroupoid, class_map, classes, section) -> None:
    """A section picks a member of every class, and a unit on unit classes."""
    missing = set(classes) - set(section)
    if missing:
        raise SchemaError(f"section has no value on class {min(missing, key=str)}")
    unknown = set(section) - set(classes)
    if unknown:
        raise SchemaError(f"section names an unknown class {min(unknown, key=str)}")
    for cid, g in section.items():
        if g not in classes[cid]:
            raise SchemaError(f"section value {g!r} is not a member of class {cid}")
    for u in G.units:
        if not G.is_unit(section[class_map[u]]):
            raise SchemaError("section must send unit classes to units")


def build_weyl_groupoid(
    G: FiniteGroupoid, S_members, omega: TwoCocycle, section: Optional[dict] = None
):
    """The action groupoid (G/S acting on the dual of S) plus shared WeylData."""
    # Weyl arrow ids are "class&char" with character ids "base#i", and the
    # twisted product joins those with "&&": ids of G must avoid both
    for g in G.arrows:
        for sep in "&#":
            if sep in str(g):
                raise SchemaError(f"arrow id {g!r} contains {sep!r}, a separator of derived ids")
    Q, class_map, dual, action = weyl_action(G, S_members, omega)
    classes = class_table(class_map)
    if section is None:
        section = choose_section(G, class_map, classes)
    validate_section(G, class_map, classes, section)
    data = WeylData(
        G=G,
        S=frozenset(S_members),
        omega=omega,
        Q=Q,
        class_map=class_map,
        classes=classes,
        dual=dual,
        action=action,
        section=section,
    )

    unit_of_char = {}
    for u in G.units:
        uc = class_map[u]
        for chi in dual.fibres[u]:
            unit_of_char[dual.char_id[chi]] = data.gw_arrow_id(uc, chi)

    arrows = {}
    for cid, members in classes.items():
        u = G.src[min(members)]
        for chi in dual.fibres[u]:
            aid = data.gw_arrow_id(cid, chi)
            target_chi = action[(cid, dual.char_id[chi])]
            arrows[aid] = (
                unit_of_char[dual.char_id[chi]],
                unit_of_char[dual.char_id[target_chi]],
            )

    def gw_mul(a1, a2):
        c1, _chi1 = data.split_gw_id(a1)
        c2, chi2 = data.split_gw_id(a2)
        return data.gw_arrow_id(Q.mul(c1, c2), chi2)

    GW = build_groupoid(set(unit_of_char.values()), arrows, gw_mul, name=f"W({G.name})")
    if len(GW) != len(G):
        raise CardinalityMismatch(("Weyl groupoid", len(GW), len(G)))
    return GW, data


def weyl_twist_cocycle(GW: FiniteGroupoid, data: WeylData) -> TwoCocycle:
    """The section-dependent 2-cocycle C on the Weyl groupoid."""
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


def conditional_expectation(
    G: FiniteGroupoid, dual: CharacterBundle, f: Mapping
) -> dict:
    """The expectation (Delta f)(x) = sum_{a in S_{p(x)}} e^{2 pi i x(a)} f(a).

    ``f`` maps arrow ids to complex numbers; missing arrows count as 0.
    The pairing uses x(a) verbatim, no conjugation.
    """
    out = {}
    for x_unit in dual.base:
        for chi in dual.fibres[x_unit]:
            total = 0j
            for a in dual.bundle.fibre(x_unit):
                coeff = f.get(a, 0)
                if coeff:
                    total += chi.value(a).to_complex() * coeff
            out[dual.char_id[chi]] = total
    return out
