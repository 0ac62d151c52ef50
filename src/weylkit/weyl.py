"""Dynamical Cartan hypotheses, the quotient action on the dual bundle,
the concrete Weyl groupoid, its twist cocycle, and the conditional
expectation onto the abelian bundle algebra.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .cocycle import (
    TwoCocycle,
    check_symmetric_on,
    common_denominator,
    _maximal_extension,
)
from .dual import CharacterBundle, CharacterTable, bundle_from_subgroupoid, dual_bundle, rows_in, size_blocks, stack
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
    arrow_indices,
    build_groupoid,
    isotropy_fibres,
    kernel_of_grading,
    quotient_by_bundle,
    subgroupoid_properties,
)


def centralizing_bounds(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The immediately-centralizing test on a block of fibres, one arrow per row.

    Row i of ``x`` lists the elements of one fibre and row i of ``y`` their
    images under one arrow (for conjugation by t, x -> t x t^-1), as
    indices into ``table``, a stack of product tables: layer i, or the only
    layer, holds the index of a*b at [a, b].  Returns, per row, the least
    bound k, up to the fibre's largest element order, such that every x
    has (moved x)^n = x^n for some n <= k although the arrow moves some x;
    0 where there is no such k.  The powers of the rows that move are built
    side by side, one gather per exponent, until every x is back at x.
    """
    bound, n = np.zeros(len(x), dtype=np.int64), table.shape[-1]
    rows = (x != y).any(axis=1).nonzero()[0]
    if not len(rows):
        return bound
    p = np.stack([x[rows], y[rows]])
    # the flat index of [layer, 0, b] for each x and y as b; row i reads layer i, or the only one
    at = (rows % len(table) * n * n)[:, None] + p
    flat, powers, back = table.reshape(-1), [p], np.zeros(p[0].shape, dtype=bool)
    while not back.all():
        p = flat[p * n + at]
        powers.append(p)
        back |= p[0] == powers[0][0]
    powers = np.array(powers)       # x^j and y^j at [j - 1, 0] and [j - 1, 1]
    agree = powers[:, 0] == powers[:, 1]
    # the premise only grows with k, so it first holds at the largest of the
    # per-element least exponents; top is the largest order, where x^(top+1) = x
    k = np.where(agree.any(axis=0), agree.argmax(axis=0), len(powers)).max(axis=1) + 1
    top = (powers[1:, 0] == powers[0, 0]).argmax(axis=0).max(axis=1) + 1
    bound[rows] = np.where(k <= top, k, 0)
    return bound


def check_immediately_centralizing(G: FiniteGroupoid, S_members, T_members):
    """Whether the bundle S <= T is immediately centralizing inside T.

    For every t in T and every bound k up to the maximal element order of the
    fibre S_{p(t)}: if each s has some power s^n (n <= k) commuting with t,
    then t must commute with the whole fibre.  Returns (ok, witness) where
    the witness is the offending (t, k), t the first in index order.  Powers
    are taken in G, so a marking need not be closed.
    """
    comp, inv, (src, tgt) = G.comp_matrix(), G.inverse_indices(), G.endpoint_indices()
    s = np.array([G.index[g] for g in S_members], dtype=np.int64)
    s = s[src[s] == tgt[s]]
    s = s[np.argsort(src[s])]       # by unit
    t = np.sort(np.array([G.index[g] for g in T_members], dtype=np.int64))
    count = np.bincount(src[s], minlength=len(G.arrows))
    t = t[count[src[t]] > 0]        # an empty fibre commutes with every t
    start, size = (np.cumsum(count) - count)[src[t]], count[src[t]]
    bound = np.zeros(len(t), dtype=np.int64)
    for k, at in size_blocks(size, lambda k: k * k):
        x = s[start[at, None] + np.arange(k)]
        # t s^n = s^n t exactly when (t s t^-1)^n = s^n
        y = comp[comp[t[at, None], x], inv[t[at], None]]
        bound[at] = centralizing_bounds(comp[None], x, y)
    if not bound.any():
        return True, None
    i = int(np.argmax(bound > 0))
    return False, (G.arrows[t[i]], int(bound[i]))


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
        wit["contained_in_iso_kernel"] = min(S - T, key=str)

    props = subgroupoid_properties(G, S)
    wit.update({f"props_{k}": v for k, v in props.witnesses.items()})

    symmetric = check_symmetric_on(omega, S)

    ext = _maximal_extension(G, omega, isotropy_fibres(G, T), S) if contained else ("n/a",)
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
    dual: CharacterBundle     # dual of the bundle S
    image: np.ndarray         # the action's table, see weyl_action
    section: dict             # class id -> G arrow


def _columns(G: FiniteGroupoid, dual: CharacterBundle) -> np.ndarray:
    """The column of each arrow index of G in its fibre's character table, -1 off the bundle."""
    pos = np.full(len(G.arrows), -1)
    for t in dual.tables.values():
        pos[[G.index[a] for a in t.elements]] = np.arange(len(t.elements))
    return pos


def weyl_action(G: FiniteGroupoid, S_members, omega: TwoCocycle):
    """Action of G/S on the dual bundle of S, verified representative-independent.

    The class of g sends a character chi over s(g) to the character over
    r(g) with a -> -omega(g, g^-1) + omega(g^-1, a) + omega(g^-1 a, g)
    + chi(g^-1 a g).  Each class is evaluated at every member, on the
    character tables, as numerators over one common denominator, and all
    members must agree, and each image must be a character of the dual.
    The classes are gathered in blocks of equal fibre size; the first
    class, in index order, that fails raises, naming its first character
    that fails.

    Returns (Q, class_map, dual, image): ``image[c, r]`` is the row over
    the target of the class of index c of the image of row r over its
    source, -1 past the source fibre; read-only.
    """
    S = frozenset(S_members)
    Q, class_map = quotient_by_bundle(G, S)
    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    om, comp, den = omega._int_table()
    exponents = ((f"character exponent {t.exponent} at {x}", t.exponent) for x, t in dual.tables.items())
    D = common_denominator(exponents, den)
    om = om * (D // den)
    pos = _columns(G, dual)
    inv = G.inverse_indices()
    unit_class = {u: class_map[u] for u in G.units}
    tables, _, fs, ft = fibres_of(Q, dual, unit_class)
    elements = [arrow_indices(G.index, t.elements, len(t.elements)) for t in tables]
    values = [t.values * (D // t.exponent) for t in tables]

    size = np.array([len(t.ids) for t in tables])[fs]
    image, disagree = np.full((len(Q.arrows), size.max()), -1), np.zeros(len(Q.arrows), dtype=bool)
    for k, c in size_blocks(size, lambda k: k ** 3):
        V, g = stack(values, k), class_map.members[c, :k]          # g at [class, member]
        gi, a = inv[g][:, :, None], stack(elements, k)[ft[c]][:, None, :]
        gia = comp[gi, a]
        # at [class, member, element a over the target]: the cocycle terms.  A member
        # g s conjugates S as the class id g does, S being abelian and normal, so the
        # members can differ only here, and then at every character.
        w = (om[gi, a] + om[gia, g[:, :, None]] - om[g, gi[:, :, 0]][:, :, None]) % D
        disagree[c] = (w != w[:, :1]).any(axis=(1, 2))
        conj = pos[comp[gia[:, 0], g[:, :1]]]       # the column of g^-1 a g over the source
        chi = V[fs[c][:, None, None], np.arange(k)[:, None], conj[:, None, :]]    # [class, character, a]
        image[c, :k] = rows_in((chi + w[:, :1]) % D, V[ft[c]])
    outside = (image < 0) & (np.arange(image.shape[1]) < size[:, None])
    bad = disagree | outside.any(axis=1)
    if bad.any():
        c = int(np.argmax(bad))
        ids = tables[fs[c]].ids
        if disagree[c]:
            raise RepresentativeDisagreement((Q.arrows[c], ids[0]))
        raise NotAnAction(("image outside the dual", Q.arrows[c], ids[int(np.argmax(outside[c]))]))
    image.setflags(write=False)
    # the action is affine in the character for a nontrivial cocycle, so it
    # need not map characters multiplicatively; only the action laws are checked
    verify_groupoid_action(Q, dual, image, unit_class)
    return Q, class_map, dual, image


def image_rows(t: CharacterTable, nums, den: int, cid, ids) -> np.ndarray:
    """The row of ``t`` of each image ``nums[k]``/``den`` of the character ``ids[k]`` under the arrow ``cid``.

    An image that is no character of ``t`` raises NotAnAction, naming the first.
    """
    rows = t.rows_of(nums, den)
    if (rows < 0).any():
        raise NotAnAction(("image outside the dual", cid, ids[int(np.argmax(rows < 0))]))
    return rows


def fibres_of(Q: FiniteGroupoid, dual: CharacterBundle, unit_of_base: Mapping):
    """(tables, units, source, target): the fibres of ``dual`` numbered for a groupoid Q acting on it.

    ``unit_of_base`` sends each base point of ``dual`` to its unit of Q,
    and gives the numbering; other keys are ignored, so a class map of G
    serves.  Fibre f is ``tables[f]`` over the unit of index ``units[f]``;
    the arrow of index c runs from fibre ``source[c]`` to ``target[c]``.
    """
    tables = [dual.tables[x] for x in unit_of_base if x in dual.tables]
    units = np.array([Q.index[unit_of_base[t.base]] for t in tables], dtype=np.int64)
    fibre = np.empty(len(Q.arrows), dtype=np.int64)
    fibre[units] = np.arange(len(tables))
    s, t = Q.endpoint_indices()
    return tables, units, fibre[s], fibre[t]


def verify_groupoid_action(Q: FiniteGroupoid, dual: CharacterBundle, image: np.ndarray, unit_of_base: Mapping):
    """Check that the table ``image`` is an action of the groupoid Q on the bundle ``dual``.

    ``image[c, r]`` is the row over the target of the arrow of index c of
    the image of row r over its source, -1 past the source fibre;
    ``unit_of_base`` is as in :func:`fibres_of`.  Each image must be a row
    of the target fibre, units must act trivially and the action must
    respect composition: gathers over the arrows, the units and
    ``Q.pair_indices()``, times the rows.  Raises NotAnAction with the
    first failing instance.
    """
    tables, units, fs, ft = fibres_of(Q, dual, unit_of_base)
    size = np.array([len(t.ids) for t in tables])
    r = np.arange(image.shape[1])

    def fail(kind, arrows, c, i):  # row i over the source of the arrow of index c
        raise NotAnAction((kind, *map(Q.arrows.__getitem__, arrows), tables[fs[c]].ids[i]))

    dom = r < size[fs][:, None]
    stray = dom & ((image < 0) | (image >= size[ft][:, None]))
    if stray.any():
        c, i = np.argwhere(stray)[0]
        fail("image outside the dual", [c], c, i)
    moved = dom[units] & (image[units] != r)
    if moved.any():
        j, i = np.argwhere(moved)[0]
        fail("unit acts nontrivially", [units[j]], units[j], i)
    gi, hi = Q.pair_indices()
    broken = dom[hi] & (image[Q.comp_matrix()[gi, hi]] != image[gi[:, None], image[hi]])
    if broken.any():
        j, i = np.argwhere(broken)[0]
        fail("composition", [gi[j], hi[j]], hi[j], i)


def action_ids(Q: FiniteGroupoid, dual: CharacterBundle, image: np.ndarray, unit_of_base: Mapping) -> dict:
    """The table ``image`` of :func:`verify_groupoid_action` spelled as (arrow id, character id) -> character id."""
    tables, _, fs, ft = fibres_of(Q, dual, unit_of_base)
    out = {}
    for c, row, a, b in zip(Q.arrows, image.tolist(), fs.tolist(), ft.tolist()):
        out.update(((c, i), tables[b].ids[r]) for i, r in zip(tables[a].ids, row))
    return out


def choose_section(G: FiniteGroupoid, class_map) -> dict:
    """Deterministic section: the unit on unit classes, else the class id, its least member."""
    unit_classes = {class_map[u]: u for u in G.units}
    return {cid: unit_classes.get(cid, cid) for cid in dict.fromkeys(class_map.values())}


def validate_section(G: FiniteGroupoid, class_map, section) -> None:
    """A section picks a member of every class, and a unit on unit classes."""
    classes = set(class_map.values())
    missing = classes - set(section)
    if missing:
        raise SchemaError(f"section has no value on class {min(missing, key=str)}")
    unknown = set(section) - classes
    if unknown:
        raise SchemaError(f"section names an unknown class {min(unknown, key=str)}")
    for cid, g in section.items():
        if class_map.get(g) != cid:
            raise SchemaError(f"section value {g!r} is not a member of class {cid}")
    for u in G.units:
        if not G.is_unit(section[class_map[u]]):
            raise SchemaError("section must send unit classes to units")


def build_weyl_groupoid(
    G: FiniteGroupoid, S_members, omega: TwoCocycle, section: Optional[dict] = None
):
    """The action groupoid (G/S acting on the dual of S) plus shared WeylData.

    A Weyl arrow is the key of its action entry, the pair (class id,
    character id); the units are the unit classes with each character.
    """
    Q, class_map, dual, image = weyl_action(G, S_members, omega)
    if section is None:
        section = choose_section(G, class_map)
    validate_section(G, class_map, section)
    data = WeylData(
        G=G,
        S=frozenset(S_members),
        omega=omega,
        Q=Q,
        class_map=class_map,
        dual=dual,
        image=image,
        section=section,
    )

    # the Weyl unit over each character, and each arrow's ends: its character and the image's
    unit_of = {cid: (class_map[x], cid) for cid, (x, _) in dual.position.items()}
    arrows = {key: (unit_of[key[1]], unit_of[i]) for key, i in action_ids(Q, dual, image, class_map).items()}

    q_mul = Q.compose

    def gw_mul(a1, a2):
        return q_mul[a1[0], a2[0]], a2[1]

    GW = build_groupoid(set(unit_of.values()), arrows, gw_mul, name=f"W({G.name})")
    if len(GW) != len(G):
        raise CardinalityMismatch(("Weyl groupoid", len(GW), len(G)))
    return GW, data


def section_defects(data: WeylData, section: Mapping) -> np.ndarray:
    """The defect s12^-1 s1 s2 of the section values of c1, c2 and c1 c2, at [c1, c2], as one gather.

    Entries are arrow indices of G over the class indices of Q, -1 off the
    composable pairs.  The first pair in ``Q.compose`` order whose defect is
    undefined raises SchemaError naming the classes; the first whose defect
    lies outside S raises ElementNotInS.
    """
    G, Q, comp = data.G, data.Q, data.G.comp_matrix()
    sec = arrow_indices(G.index, map(section.get, Q.arrows), len(Q.arrows))
    q1, q2 = Q.pair_indices()
    s1, s2, s12 = sec[q1], sec[q2], sec[Q.comp_matrix()[q1, q2]]
    step = np.where((s1 < 0) | (s12 < 0), -1, comp[G.inverse_indices()[s12], s1])
    defect = np.where((step < 0) | (s2 < 0), -1, comp[step, s2])
    bad = ~np.isin(defect, arrow_indices(G.index, data.S, len(data.S)))
    if bad.any():
        j = int(np.argmax(bad))
        if defect[j] < 0:
            raise SchemaError(f"section defect at classes ({Q.arrows[q1[j]]}, {Q.arrows[q2[j]]}) is undefined")
        raise ElementNotInS(G.arrows[defect[j]])
    out = np.full((len(Q.arrows),) * 2, -1, dtype=np.int64)
    out[q1, q2] = defect
    return out


def weyl_twist_cocycle(GW: FiniteGroupoid, data: WeylData) -> TwoCocycle:
    """The section-dependent 2-cocycle C on the Weyl groupoid.

    For composable Weyl arrows (c1, chi1), (c2, chi) with sections s1, s2
    and s12 of c1, c2 and c1 c2, the defect s12^-1 s1 s2 must lie in S, and
    C = chi(defect) - omega(s12, defect) + omega(s1, s2).  All pairs are
    evaluated at once, on the table of :func:`section_defects`, as
    numerators over the denominator of the Weyl action's tables.
    """
    G, Q, dual = data.G, data.Q, data.dual
    defects = section_defects(data, data.section)
    sec = arrow_indices(G.index, map(data.section.get, Q.arrows), len(Q.arrows))
    om, _, den = data.omega._int_table()
    exponents = ((f"character exponent {t.exponent} at {x}", t.exponent) for x, t in dual.tables.items())
    D = common_denominator(exponents, den)
    pos = _columns(G, dual)

    # the tables end to end, over D: Weyl arrow i's character at a is chars[row_of[i] + column of a]
    chars = np.concatenate([t.values.ravel() * (D // t.exponent) for t in dual.tables.values()])
    start = dict(zip(dual.tables, np.cumsum([0] + [t.values.size for t in dual.tables.values()]).tolist()))
    q_of, row_of = np.empty((2, len(GW.arrows)), dtype=np.int64)
    for i, (cid, chi_id) in enumerate(GW.arrows):
        x, row = dual.position[chi_id]
        q_of[i], row_of[i] = Q.index[cid], start[x] + row * len(dual.tables[x].values)

    a1, a2 = (GW.comp_matrix() >= 0).nonzero()
    c1, c2 = q_of[a1], q_of[a2]
    s1, s2, s12, defect = sec[c1], sec[c2], sec[Q.comp_matrix()[c1, c2]], defects[c1, c2]
    num = np.zeros((len(GW.arrows), len(GW.arrows)), dtype=np.int64)
    num[a1, a2] = (chars[row_of[a2] + pos[defect]] + (om[s1, s2] - om[s12, defect]) * (D // den)) % D
    return TwoCocycle.from_table(GW, num, D)


def conditional_expectation(
    G: FiniteGroupoid, dual: CharacterBundle, f: Mapping
) -> dict:
    """The expectation (Delta f)(x) = sum_{a in S_{p(x)}} e^{2 pi i x(a)} f(a).

    ``f`` maps arrow ids to complex numbers; missing arrows count as 0.
    The pairing uses x(a) verbatim, no conjugation.
    """
    out = {}
    for t in dual.tables.values():
        coeff = [f.get(a, 0) for a in t.elements]
        out.update(zip(t.ids, (sum(map(operator.mul, row, coeff)) for row in t.pairing)))
    return out
