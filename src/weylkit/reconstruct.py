"""Recovering a groupoid from its Weyl groupoid.

The pipeline: package the translation/conjugation actions of the unit bundle
T on a groupoid H, verify the action-compatibility axioms, form the quotient
H/T and the diamond action of H/T on the dual bundle of T, extract the
section-defect data theta, build the twisted product groupoid, and verify
that the result is isomorphic to the original groupoid.  The whole pipeline
requires a trivial 2-cocycle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cocycle import TwoCocycle
from .dual import CharacterBundle, GroupBundle, dual_bundle
from .errors import (
    AssumptionUnverified,
    DescentFailure,
    IsoCheckFailed,
    MomentMapMismatch,
    NontrivialCocycle,
    NotAnAction,
    SchemaError,
    ThetaInvalid,
)
from .groupoid import (
    FiniteGroupoid,
    Grading,
    arrow_index,
    arrow_indices,
    build_groupoid,
    class_table,
    distinct_rows,
    orbit_quotient,
    validate_arrays,
)
from .weyl import (
    PowerTable,
    WeylData,
    action_ids,
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    fibres_of,
    first_centralizing_bound,
    image_rows,
    section_defects,
    validate_section,
    verify_groupoid_action,
)


@dataclass
class ActionPackage:
    """A groupoid H whose unit space is a group bundle T over a base X.

    The bundle acts on arrows from both sides, and the exchange maps let the
    two actions commute past composition.  Each map is a read-only int
    array over indices: an element of T by its position in
    ``t_elements()``, an arrow of H by its arrow index.  ``left[t, eta]``
    and ``rho[t, eta]`` are defined for t over r(eta), ``right[eta, t]``
    and ``lam[eta, t]`` for t over s(eta), and -1 marks every other pair.
    ``left`` and ``right`` hold arrow indices, ``lam`` and ``rho`` T
    indices, as int32.  T element ids are exactly the unit arrow ids of H.
    """

    H: FiniteGroupoid
    T: GroupBundle
    left: np.ndarray
    right: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    weyl: Optional[WeylData] = None

    def __post_init__(self):
        for a in (self.left, self.right, self.lam, self.rho):
            a.setflags(write=False)

    def p_r(self, eta):
        return self.T.p[self.H.tgt[eta]]

    def p_s(self, eta):
        return self.T.p[self.H.src[eta]]

    def t_elements(self):
        return sorted(self.T.p)

    def check_moment_maps(self):
        if set(self.H.units) != set(self.T.p):
            raise MomentMapMismatch(
                "unit space of H and element set of T disagree: "
                f"{sorted(set(self.H.units) ^ set(self.T.p))[:4]}"
            )


@dataclass
class ActionPackageReport:
    """Per-clause verdicts for the action-compatibility axioms.

    ``instances`` counts, per clause, the instances that were checked, so a
    clause that passed on an empty domain shows 0.
    """

    clauses: dict
    witnesses: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    note: str = (
        "properness and continuity hold automatically for finite discrete bundles; "
        "freeness is checked explicitly"
    )

    def all_pass(self) -> bool:
        return all(self.clauses.values())

    def as_dict(self) -> dict:
        return {
            "clauses": dict(self.clauses),
            "instances": dict(self.instances),
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "note": self.note,
            "all_pass": self.all_pass(),
        }


def _padded(a: np.ndarray) -> np.ndarray:
    """``a`` with a trailing -1 on every axis, so that index -1 reads -1."""
    return np.pad(a, [(0, 1)] * a.ndim, constant_values=-1)


def _agree(a, b):
    """Where both sides are defined and equal."""
    return (a == b) & (a >= 0)


def verify_action_package(pkg: ActionPackage) -> ActionPackageReport:
    """Exhaustively check every axiom the two T-actions must satisfy.

    Each clause is a gather and a comparison over the package's arrays,
    padded so that index -1 reads -1.  An instance passes when both sides
    are defined and agree, so a map value outside its fibre fails every
    clause that reads it.  The (t, eta) clauses run over each arrow's two
    fibres, the (t, t2, eta) clauses over pairs from those fibres, and the
    composition laws over ``H.pair_indices()`` times a fibre.  Each
    instance has a key in scan order: t, then t2, then eta, with the
    r-fibre instance of a (t, eta) before the s-fibre one; for the
    composition laws, the pair, then the position in the fibre.  A failing
    clause's witness is its failing instance of least key.
    """
    pkg.check_moment_maps()
    H, T = pkg.H, pkg.T
    ids = pkg.t_elements()
    pos = {t: i for i, t in enumerate(ids)}
    n_t, n_h = len(ids), len(H.arrows)
    left, right, lam, rho = map(_padded, (pkg.left, pkg.right, pkg.lam, pkg.rho))
    src, tgt = map(_padded, H.endpoint_indices())
    inv, comp = _padded(H.inverse_indices()), _padded(H.comp_matrix())

    # in T indices: the fibre through each element, as a row padded with
    # -1, each element's identity, and the product, -1 across fibres
    k = max(map(len, T.fibres.values()), default=0)
    fibre, ident, prod = np.full((n_t, k), -1), np.full(n_t + 1, -1), np.full((n_t + 1, n_t + 1), -1)
    for x in T.base:
        f = [pos[t] for t in T.fibre(x)]
        fibre[f, :len(f)] = f
        ident[f] = pos[T.identity[x]]
        prod[np.ix_(f, f)] = [[pos.get(T.mult(a, b), -1) for b in T.fibre(x)] for a in T.fibre(x)]
    unit_t = np.array([pos.get(a, -1) for a in H.arrows])     # the T index of each unit arrow
    R, S = fibre[unit_t[tgt[:-1]]], fibre[unit_t[src[:-1]]]  # T over r(eta), over s(eta)

    e = np.arange(n_h)[:, None]
    L, Rt, lam_S, rho_R = left[R, e], right[e, S], lam[e, S], rho[R, e]
    # scan-order keys of the (t, eta) instances, the one over r(eta) first
    key_R, key_S = 2 * (R * n_h + e), 2 * (S * n_h + e) + 1
    units = np.flatnonzero(unit_t >= 0)
    U, RU = units[:, None], R[units]
    # (eta, t, t2) with t over r(eta) or, as s1, over s(eta), and t2 over s(eta)
    t, t2, s1, e3 = R[:, :, None], S[:, None, :], S[:, :, None], e[:, :, None]
    lam_t, lam_t2 = lam_S[:, :, None], lam_S[:, None, :]
    gi, hi = H.pair_indices()
    g, h, gh = gi[:, None], hi[:, None], comp[gi, hi][:, None]
    after, before = S[hi], R[gi]                             # T over s(eta), over r(gamma)
    lam_h, rho_g = lam[h, after], rho[before, g]

    def pair_witness(key):
        return ids[key // 2 // n_h], H.arrows[key // 2 % n_h]

    def triple_witness(key):
        return ids[key // n_h // n_t], H.arrows[key % n_h], ids[key // n_h % n_t]

    def composition_witness(fib):
        return lambda key: (H.arrows[gi[key // k]], H.arrows[hi[key // k]], ids[fib.flat[key]])

    flat = np.arange(gi.size * k).reshape(-1, k)
    # (name, domain, passes, key, witness of a key), a clause's parts in its scan order
    checks = (
        ("units_compatible", RU >= 0, _agree(left[RU, U], right[U, RU]), key_R[units], pair_witness),
        ("endpoints_compatible", R >= 0, _agree(tgt[L], left[R, tgt[e]]), key_R, pair_witness),
        ("endpoints_compatible", S >= 0, _agree(src[Rt], right[src[e], S]), key_S, pair_witness),
        ("actions_commute", (t >= 0) & (t2 >= 0), _agree(right[L[:, :, None], t2], left[t, Rt[:, None, :]]),
         (t * n_t + t2) * n_h + e3, triple_witness),
        ("left_free", R >= 0, (L >= 0) & ((L != e) | (R == ident[R])), key_R, pair_witness),
        ("right_free", S >= 0, (Rt >= 0) & ((Rt != e) | (S == ident[S])), key_S, pair_witness),
        ("right_via_lambda", S >= 0, _agree(Rt, left[lam_S, e]), key_S, pair_witness),
        ("left_via_rho", R >= 0, _agree(L, right[e, rho_R]), key_R, pair_witness),
        ("right_distributes", after >= 0, _agree(right[gh, after], comp[right[g, lam_h], right[h, after]]),
         flat, composition_witness(after)),
        ("left_distributes", before >= 0, _agree(left[before, gh], comp[left[before, g], left[rho_g, h]]),
         flat, composition_witness(before)),
        ("inverse_right", S >= 0, _agree(inv[Rt], left[S, inv[e]]), key_S, pair_witness),
        ("inverse_left", R >= 0, _agree(inv[L], right[inv[e], R]), key_R, pair_witness),
        ("lambda_rho_inverse", R >= 0, _agree(lam[e, rho_R], R), key_R, pair_witness),
        ("lambda_rho_inverse", S >= 0, _agree(rho[lam_S, e], S), key_S, pair_witness),
        ("lambda_multiplicative", (s1 >= 0) & (t2 >= 0), _agree(lam[e3, prod[s1, t2]], prod[lam_t, lam_t2]),
         (s1 * n_t + t2) * n_h + e3, triple_witness),
        ("identity_on_units", RU >= 0, (rho[RU, U] == RU) & (lam[U, RU] == RU), key_R[units], pair_witness),
        ("lambda_composition", after >= 0, _agree(lam[gh, after], lam[g, lam_h]), flat, composition_witness(after)),
        ("rho_composition", before >= 0, _agree(rho[before, gh], rho[rho_g, h]), flat, composition_witness(before)),
    )

    names = [name for name, *_ in checks]
    report = ActionPackageReport(dict.fromkeys(names, True), {}, dict.fromkeys(names, 0))
    first, witness_of = {}, {}
    for name, domain, passes, key, witness in checks:
        bad = domain & ~passes
        report.instances[name] += int(np.count_nonzero(domain))
        if bad.any():
            report.clauses[name] = False
            first[name], witness_of[name] = min(first.get(name, np.inf), key[bad].min()), witness
    report.witnesses = {name: witness_of[name](int(first[name])) for name in names if name in first}
    return report


def derive_weyl_actions(G: FiniteGroupoid, S_members, omega: Optional[TwoCocycle] = None) -> ActionPackage:
    """The canonical ActionPackage on a Weyl groupoid H = (G/S acting on the dual).

    Conjugation by each class of G/S, pulled back to the characters of T,
    is tabulated once as a map of character rows; ``rho[t, eta]`` reads it
    at the class of eta and ``lam[eta, t]`` at the inverse class.  The left
    action multiplies the character part of eta by ``rho[t, eta]`` and the
    right action multiplies it by t, in the character product table.
    Arrows of H are pairs (class id, character id), and T is the unit pairs.
    """
    omega = omega if omega is not None else TwoCocycle(G, {})
    GW, data = build_weyl_groupoid(G, S_members, omega)
    dual, Q = data.dual, data.Q
    K = dual.to_bundle()
    t_of = {cid: (data.class_map[x], cid) for cid, x in K.p.items()}
    fibres = {u: tuple(sorted(t_of[cid] for cid in K.fibre(u))) for u in G.units}
    T = GroupBundle(
        base=tuple(G.units),
        fibres=fibres,
        p={t: u for u, fs in fibres.items() for t in fs},
        mult=lambda a, b: t_of[K.mult(a[1], b[1])],
        inv=lambda a: t_of[K.inv(a[1])],
        identity={u: t_of[K.identity[u]] for u in G.units},
    )
    pos = {t: i for i, t in enumerate(sorted(T.p))}
    t_row = {x: np.array([pos[t_of[c]] for c in t.ids]) for x, t in dual.tables.items()}  # T index of each row

    # ad[cid]: the rows over the target of the class -> rows over its
    # source, the character chi going to a -> chi(gamma a gamma^-1) for the
    # least member gamma.  This is representative-independent because the
    # bundle is abelian and normal; no cocycle correction enters (the
    # corrections live in the quotient action, not in conjugation).
    ad = {}
    for cid, members in data.classes.items():
        gamma = min(members)
        tx, ty = dual.tables[G.src[gamma]], dual.tables[G.tgt[gamma]]
        conj = [ty.column[G.mul_all(gamma, a, G.inv(gamma))] for a in tx.elements]
        ad[cid] = tx.rows_of(ty.values[:, conj], ty.exponent)

    left, rho = np.full((2, len(pos), len(GW.arrows)), -1, dtype=np.int32)
    right, lam = np.full((2, len(GW.arrows), len(pos)), -1, dtype=np.int32)
    for cid in data.classes:
        tx, ts, tt = dual.tables[G.src[cid]], t_row[G.src[cid]], t_row[G.tgt[cid]]
        eta = np.array([GW.index[(cid, i)] for i in tx.ids])   # the arrow of each row over the source
        rho[tt[:, None], eta] = ts[ad[cid]][:, None]
        left[tt[:, None], eta] = eta[tx.product[ad[cid]]]
        right[eta[:, None], ts] = eta[tx.product]
        lam[eta[:, None], ts] = tt[ad[Q.inv(cid)]]
    return ActionPackage(H=GW, T=T, left=left, right=right, lam=lam, rho=rho, weyl=data)


def bundle_package(T: GroupBundle) -> ActionPackage:
    """The degenerate package where H is just the unit space T (co-trivial).

    Both actions are T's product, and the exchange maps are the identity.
    """
    ids = sorted(T.p)
    pos = {t: i for i, t in enumerate(ids)}
    H = build_groupoid(ids, {t: (t, t) for t in ids}, lambda a, b: a, name="cotrivial(T)")
    left, right, lam, rho = np.full((4, len(ids), len(ids)), -1, dtype=np.int32)
    for x in T.base:
        f = np.array([pos[t] for t in T.fibre(x)])
        on = np.ix_(f, f)
        left[on] = right[on] = [[pos[T.mult(a, b)] for b in T.fibre(x)] for a in T.fibre(x)]
        lam[on], rho[on] = f[None, :], f[:, None]
    return ActionPackage(H=H, T=T, left=left, right=right, lam=lam, rho=rho)


def quotient_HT(pkg: ActionPackage, report: Optional[ActionPackageReport] = None):
    """The quotient of H by the right T-action, as a groupoid over the base X.

    The right orbit of an arrow is its row of ``right``, and it must equal
    the left orbit, its column of ``left``.  Returns (H/T, class map).
    Requires a passing ActionPackageReport.
    """
    if report is None:
        report = verify_action_package(pkg)
    if not report.all_pass():
        failing = [k for k, v in report.clauses.items() if not v]
        raise AssumptionUnverified(f"action axioms fail: {failing}")
    H = pkg.H
    differ = (distinct_rows(pkg.right) != distinct_rows(pkg.left.T)).any(axis=1)
    if differ.any():
        raise AssumptionUnverified(f"left and right orbits of {H.arrows[int(np.argmax(differ))]} differ")
    return orbit_quotient(H, pkg.right, name=f"{H.name}/T", error=AssumptionUnverified)


@dataclass
class DiamondData:
    """The action of H/T on the dual bundle of T, plus the shared plumbing."""

    pkg: ActionPackage
    HT: FiniteGroupoid
    class_map: dict           # H arrow -> H/T class id
    classes: dict             # class id -> frozenset
    That: CharacterBundle     # dual of pkg.T
    x_unit: dict              # base point of X -> H/T unit class id
    q_class: Optional[dict]   # H/T class id -> G/S class id; None unless Weyl-derived
    image: np.ndarray         # the action's table, as in weyl_action
    # the last twisted product build_boxtimes verified and built, with a
    # copy of the theta values it was built from
    boxtimes: Optional[tuple] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def fibre_tables(self):
        """(tables, source, target, size, start, product): :func:`fibres_of` for the diamond action.

        Fibre f has size[f] rows, and rows i, j multiply to product[start[f] + i * size[f] + j].
        """
        tables, _, fs, ft = fibres_of(self.HT, self.That, self.x_unit)
        size = np.array([len(t.ids) for t in tables])
        start = np.cumsum(size * size) - size * size
        return tables, fs, ft, size, start, np.concatenate([t.product.ravel() for t in tables])


def diamond_action(pkg: ActionPackage, report: Optional[ActionPackageReport] = None) -> DiamondData:
    """chi -> chi o rho_gamma, verified to descend to H/T and to be an action."""
    HT, class_map = quotient_HT(pkg, report)
    H, T = pkg.H, pkg.T
    classes = class_table(class_map)
    That = dual_bundle(T)
    ids = pkg.t_elements()
    pos = {t: i for i, t in enumerate(ids)}

    image = np.full((len(HT.arrows), max(len(t.ids) for t in That.tables.values())), -1)
    for cid, members in classes.items():
        # rho descends: every member of the class has the same column
        rho = pkg.rho[:, sorted(H.index[eta] for eta in members)]
        if (rho != rho[:, :1]).any():
            raise DescentFailure(tuple(sorted(members)[:2]))
        tr, ts = That.tables[pkg.p_r(min(members))], That.tables[pkg.p_s(min(members))]
        # chi over the source goes to chi o rho over the target
        at_rho = ts.values[:, [ts.column[ids[rho[pos[t], 0]]] for t in tr.elements]]
        image[HT.index[cid], :len(ts.ids)] = image_rows(tr, at_rho, ts.exponent, cid, ts.ids)
    image.setflags(write=False)

    x_unit = {T.p[u]: class_map[u] for u in H.units}
    verify_groupoid_action(HT, That, image, x_unit)
    # each class acts by a homomorphism of the character groups
    for cid, members in classes.items():
        ts, tr = That.tables[pkg.p_s(min(members))], That.tables[pkg.p_r(min(members))]
        img = image[HT.index[cid], :len(ts.ids)]
        bad = img[ts.product] != tr.product[img[:, None], img[None, :]]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise NotAnAction(("multiplicativity", cid, ts.ids[a], ts.ids[b]))

    # an H/T class is one G/S class with all its characters
    q_class = None if pkg.weyl is None else {cid: cid[0] for cid in classes}
    return DiamondData(pkg, HT, class_map, classes, That, x_unit, q_class, image)


@dataclass
class ThetaDatum:
    """Character-valued defect data on composable class pairs of H/T."""

    values: dict  # (class id, class id) -> Character of the dual of T


@dataclass
class ThetaReport:
    unit_triviality: bool
    cocycle_identity: bool
    coverage: bool
    violations: list = field(default_factory=list)
    instances: dict = field(default_factory=dict)   # per check, the instances checked
    # theta(c1, c2) at [c1, c2] as a row over the source of c2, -1 where there is none
    rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def all_pass(self) -> bool:
        return self.unit_triviality and self.cocycle_identity and self.coverage


def theta_for_package(pkg: ActionPackage, dia: DiamondData, section: Optional[dict] = None) -> ThetaDatum:
    """Section-defect characters for a Weyl-derived package with trivial cocycle.

    The defect of the section on a pair of quotient classes lies in the
    marked bundle; evaluating characters on it turns it into an element of
    the double dual, i.e. a character of T.
    """
    data = pkg.weyl
    if data is None:
        raise SchemaError("theta extraction needs a Weyl-derived package")
    if not data.omega.is_trivial():
        raise NontrivialCocycle("reconstruction requires a trivial 2-cocycle")
    G, Q = data.G, data.Q
    sec = section if section is not None else data.section
    validate_section(G, data.class_map, data.classes, sec)
    defects = section_defects(data, sec)

    # the H/T class of each class index of Q, and the character of T each element of S evaluates to
    ht_of_q = {q: cid for cid, q in dia.q_class.items()}
    ht = [ht_of_q[q] for q in Q.arrows]
    char = {G.index[s]: dia.That.by_id[i] for s, i in _evaluation(pkg, dia).items()}
    q1, q2 = Q.pair_indices()
    pairs = zip(q1.tolist(), q2.tolist(), defects[q1, q2].tolist())
    return ThetaDatum({(ht[a], ht[b]): char[d] for a, b, d in pairs})


def _evaluation(pkg: ActionPackage, dia: DiamondData) -> dict:
    """Each element s of the marked bundle -> the id of the character t -> t(s) of T, in the dual of T.

    The elements of T are (class, character id) pairs of the Weyl dual.
    """
    dual, out = pkg.weyl.dual, {}
    for x, t in dual.tables.items():
        tt = dia.That.tables[x]
        rows = tt.rows_of(t.values[[dual.position[cid][1] for _, cid in tt.elements]].T, t.exponent)
        out.update(zip(t.elements, map(tt.ids.__getitem__, rows.tolist())))
    return out


def trivial_theta(dia: DiamondData) -> ThetaDatum:
    values = {}
    for (c1, c2) in dia.HT.compose:
        x = dia.pkg.p_s(min(dia.classes[c2]))
        values[(c1, c2)] = dia.That.trivial(x)
    return ThetaDatum(values)


def theta_from_section(G: FiniteGroupoid, S_members, section: Optional[dict] = None) -> ThetaDatum:
    """Build the whole pipeline from (G, S) and return the verified theta."""
    pkg = derive_weyl_actions(G, S_members)
    dia = diamond_action(pkg)
    theta = theta_for_package(pkg, dia, section)
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"derived theta fails verification: {report.violations[:3]}")
    return theta


def verify_theta(dia: DiamondData, theta: ThetaDatum) -> ThetaReport:
    """Unit triviality and the character-valued cocycle identity, exhaustively.

    Each value must be a character of the dual of T over the source of c2;
    one that is not fails ``coverage`` with an "outside the dual" violation,
    as a missing one does.  The cocycle identity is one gather over every
    triple whose four values lie in the dual (each pair, then c3 in index
    order), so it fails on a break there even when ``coverage`` fails elsewhere.
    """
    HT, That = dia.HT, dia.That
    n, comp, inv = len(HT.arrows), HT.comp_matrix(), HT.inverse_indices()
    (s, t), arrows = HT.endpoint_indices(), HT.arrows
    tables, fs, _, size, start, prod = dia.fibre_tables
    violations = []

    rows, outside = np.full((n, n), -1, dtype=np.int32), []
    for (c1, c2), val in theta.values.items():
        x, r = That.position.get(That.char_id.get(val), (None, -1))
        j = HT.index.get(c2, -1)
        if j < 0 or x != tables[fs[j]].base:
            outside.append((c1, c2))
        elif c1 in HT.index:
            rows[HT.index[c1], j] = r
    rows[comp < 0] = -1
    rows.setflags(write=False)

    coverage = set(theta.values) == set(HT.compose)
    if not coverage:
        violations.append(("coverage", set(HT.compose) ^ set(theta.values)))
    if outside:
        coverage = False
        violations += [("outside the dual", pair) for pair in outside]

    # (r(c), c) and (c, s(c)) for every arrow c: a value that is not row 0
    # may still be trivial outside the dual, so those are read as Characters
    ar = np.arange(n)
    left, right = np.stack([t, ar], axis=1).ravel(), np.stack([ar, s], axis=1).ravel()
    unit_ok = True
    for i, j in zip(*(a[rows[left, right] != 0].tolist() for a in (left, right))):
        val = theta.values.get((arrows[i], arrows[j]))
        if val is None or not val.is_trivial:
            unit_ok = False
            violations.append(("unit", (arrows[i], arrows[j])))

    gi, hi = HT.pair_indices()
    k, c3 = (comp[hi] >= 0).nonzero()
    c1, c2 = gi[k], hi[k]
    c12, c23 = comp[c1, c2], comp[c2, c3]
    a, b, c, d = rows[c1, c2], rows[c12, c3], rows[c1, c23], rows[c2, c3]
    checked = ((a >= 0) & (b >= 0) & (c >= 0) & (d >= 0)).nonzero()[0]
    c1, c2, c3, a, b, c, d = (v[checked] for v in (c1, c2, c3, a, b, c, d))
    # all four values lie over the source of c3, and so do their products;
    # c3^-1 acts on theta(c1, c2)
    f = fs[c3]
    lhs = prod[start[f] + dia.image[inv[c3], a] * size[f] + b]
    bad = (lhs != prod[start[f] + c * size[f] + d]).nonzero()[0]
    violations += [("cocycle", (arrows[c1[i]], arrows[c2[i]], arrows[c3[i]])) for i in bad.tolist()]
    instances = {"unit_triviality": 2 * n, "cocycle_identity": len(checked)}
    return ThetaReport(unit_ok, not bad.size, coverage, violations, instances, rows)


def build_boxtimes(dia: DiamondData, theta: ThetaDatum) -> FiniteGroupoid:
    """The groupoid of pairs (quotient class, dual character), twisted by theta.

    Arrows pair a class of H/T with a character at its source base point:
    (c1, x1) (c2, x2) = (c1 c2, theta(c1, c2) (c2^-1 . x1) x2), one gather
    over the composable pairs of the arrows as built (classes in index
    order, characters in row order), then validated as a groupoid.  The
    unit space is identified with the base X.  The product is kept on
    ``dia`` and returned again, unverified and unbuilt, for a theta with
    equal values.
    """
    if dia.boxtimes is not None and dia.boxtimes[0] == theta.values:
        return dia.boxtimes[1]
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"theta fails verification: {report.violations[:3]}")
    HT = dia.HT
    tables, fs, ft, size, start, prod = dia.fibre_tables
    unit_id = [(dia.x_unit[t.base], t.ids[0]) for t in tables]

    # the arrows as built: arrow j is class c[j] with row r[j] over its source; class c's start at first[c]
    c, r = (np.arange(size.max()) < size[fs][:, None]).nonzero()
    first = np.cumsum(size[fs]) - size[fs]
    keys = [(HT.arrows[ci], tables[fs[ci]].ids[ri]) for ci, ri in zip(c.tolist(), r.tolist())]
    arrows = dict(zip(keys, [(unit_id[fs[ci]], unit_id[ft[ci]]) for ci in c.tolist()]))
    index = arrow_indices(arrow_index(keys), keys, len(keys))

    # the composable pairs (g, h) of arrows as built
    g, h = (fs[c][:, None] == ft[c][None, :]).nonzero()
    c1, c2, f = c[g], c[h], fs[c[h]]
    acted = prod[start[f] + dia.image[HT.inverse_indices()[c2], r[g]] * size[f] + r[h]]
    out = prod[start[f] + report.rows[c1, c2] * size[f] + acted]
    c12 = HT.comp_matrix()[c1, c2]

    def entry(j):
        return (keys[g[j]], keys[h[j]]), (HT.arrows[c12[j]], tables[f[j]].ids[out[j]])

    ki = index[first[c12] + out]
    B = validate_arrays(set(unit_id), arrows, index[g], index[h], ki, entry, name=f"boxtimes({HT.name})")
    dia.boxtimes = (dict(theta.values), B)
    return B


def check_imm_centralizing_action(Q: FiniteGroupoid, K: GroupBundle, action: dict, unit_of_base: dict):
    """Whether an action of Q on the bundle K is immediately centralizing.

    ``action`` maps (isotropy arrow id, K element id) -> K element id;
    ``unit_of_base`` sends base points of K to units of Q.  For every
    isotropy arrow g and bound k up to the max fibre order: if each chi has
    some power with (g.chi)^n = chi^n for n <= k, then g must fix the fibre.
    Returns (ok, witness (g, k)).
    """
    base_of_unit = {}
    for x, u in unit_of_base.items():
        base_of_unit.setdefault(u, []).append(x)
    powers = PowerTable(K.mult, lambda chi: K.identity[K.p[chi]])
    for g in sorted(Q.arrows):
        if Q.src[g] != Q.tgt[g]:
            continue
        for x in base_of_unit.get(Q.src[g], []):
            fibre = K.fibres[x]
            k = first_centralizing_bound(fibre, {chi: action[(g, chi)] for chi in fibre}, powers)
            if k is not None:
                return False, (g, k)
    return True, None


@dataclass
class ReconstructionHypothesesReport:
    """Hypotheses under which the twisted product supports a Cartan pair."""

    grading_descends: bool
    kernel_effective: bool
    imm_centralizing: bool
    witnesses: dict
    cross_validation: object  # HypothesisReport on the twisted product
    roundtrip_succeeded: Optional[bool] = None
    note: str = (
        "these hypotheses are sufficient, not necessary: a failure here does "
        "not preclude the round-trip isomorphism"
    )

    def all_pass(self) -> bool:
        return (
            self.grading_descends
            and self.kernel_effective
            and self.imm_centralizing
            and self.cross_validation.all_pass()
        )


def verify_reconstruction_hypotheses(
    dia: DiamondData,
    theta: ThetaDatum,
    c_tilde: Grading,
    roundtrip: Optional[bool] = None,
) -> ReconstructionHypothesesReport:
    """Check the sufficient conditions for the twisted product to be Cartan.

    ``c_tilde`` grades H.  Checks: it is constant on H/T classes, its kernel
    is effective in H, and the diamond action is immediately centralizing;
    then cross-validates by running the full hypothesis checker on the
    twisted product with the induced grading and the dual bundle marked.
    """
    pkg, HT, That = dia.pkg, dia.HT, dia.That
    H = pkg.H
    wit = {}

    descends = True
    for cid, members in dia.classes.items():
        vals = {c_tilde.value(m) for m in members}
        if len(vals) != 1:
            descends, wit["grading_descends"] = False, cid
            break

    kernel = [g for g in H.arrows if c_tilde.value(g) == c_tilde.zero]
    effective = True
    for g in kernel:
        if H.src[g] == H.tgt[g] and not H.is_unit(g):
            effective, wit["kernel_effective"] = False, g
            break

    act = action_ids(HT, That, dia.image, dia.x_unit)
    imm, imm_wit = check_imm_centralizing_action(HT, That.to_bundle(), act, dia.x_unit)
    if not imm:
        wit["imm_centralizing"] = imm_wit

    B = build_boxtimes(dia, theta)
    class_grade = {cid: c_tilde.value(min(ms)) for cid, ms in dia.classes.items()}
    c_bar = Grading(
        group=c_tilde.group,
        values={a: class_grade[a[0]] for a in B.arrows},
    )
    unit_classes = set(dia.x_unit.values())
    S_members = frozenset(a for a in B.arrows if a[0] in unit_classes)
    cross = check_gamma_cartan_hypotheses(B, TwoCocycle(B, {}), c_bar, S_members)

    return ReconstructionHypothesesReport(
        grading_descends=descends,
        kernel_effective=effective,
        imm_centralizing=imm,
        witnesses=wit,
        cross_validation=cross,
        roundtrip_succeeded=roundtrip,
    )


def induced_grading_on_H(pkg: ActionPackage, c: Grading) -> Grading:
    """Transport a grading of G (zero on the marked bundle) to the Weyl groupoid."""
    data = pkg.weyl
    if data is None:
        raise SchemaError("needs a Weyl-derived package")
    values = {a: c.value(min(data.classes[a[0]])) for a in pkg.H.arrows}
    return Grading(group=c.group, values=values)


@dataclass
class ReconstructionReport:
    """Successful round trip: the twisted product is isomorphic to G."""

    phi: dict                 # twisted-product arrow -> G arrow
    boxtimes: FiniteGroupoid
    theta: ThetaDatum
    dia: DiamondData
    grading_checked: bool
    sizes: tuple


def reconstruction_iso(
    G: FiniteGroupoid,
    S_members,
    c: Optional[Grading] = None,
    section: Optional[dict] = None,
) -> ReconstructionReport:
    """Run the full pipeline and verify the explicit isomorphism back to G.

    The map sends (quotient class, character) to the section representative
    times the bundle element that the character evaluates to.  Raises
    IsoCheckFailed with a witness if any structure is not preserved.
    """
    pkg = derive_weyl_actions(G, S_members)
    report = verify_action_package(pkg)
    if not report.all_pass():
        raise AssumptionUnverified(
            f"derived package fails: {[k for k, v in report.clauses.items() if not v]}"
        )
    dia = diamond_action(pkg, report)
    data = pkg.weyl
    theta = theta_for_package(pkg, dia, section)
    B = build_boxtimes(dia, theta)
    sec = section if section is not None else data.section

    # invert the evaluation pairing: each character of T comes from exactly
    # one element of the marked bundle
    elem_of = {i: G.index[s] for s, i in _evaluation(pkg, dia).items()}

    stray = [a for a in B.arrows if a[1] not in elem_of]
    if stray:
        raise IsoCheckFailed(("character not in the image of evaluation", stray[0]))
    # phi sends (class, character) to the section value times its element, as arrow indices
    reps = [G.index[sec[dia.q_class[cid]]] for cid, _ in B.arrows]
    phi = G.comp_matrix()[reps, [elem_of[i] for _, i in B.arrows]]

    if len(phi) != len(G.arrows) or phi.min() < 0 or len(np.unique(phi)) != len(G.arrows):
        raise IsoCheckFailed(("not a bijection", len(phi), len(G.arrows)))
    (gs, gt), (bs, bt) = G.endpoint_indices(), B.endpoint_indices()
    bad = (gs[phi] != phi[bs]) | (gt[phi] != phi[bt])
    if bad.any():
        raise IsoCheckFailed(("endpoints", B.arrows[int(np.argmax(bad))]))
    bi, bj = B.pair_indices()
    bad = phi[B.comp_matrix()[bi, bj]] != G.comp_matrix()[phi[bi], phi[bj]]
    if bad.any():
        j = int(np.argmax(bad))
        raise IsoCheckFailed(("composition", B.arrows[bi[j]], B.arrows[bj[j]]))
    phi = dict(zip(B.arrows, map(G.arrows.__getitem__, phi.tolist())))

    if c is not None:
        class_grade = {cid: c.value(min(data.classes[dia.q_class[cid]])) for cid in dia.classes}
        off_grade = [a for a in B.arrows if c.value(phi[a]) != class_grade[a[0]]]
        if off_grade:
            raise IsoCheckFailed(("grading", off_grade[0]))
    return ReconstructionReport(
        phi=phi,
        boxtimes=B,
        theta=theta,
        dia=dia,
        grading_checked=c is not None,
        sizes=(len(B), len(G)),
    )
