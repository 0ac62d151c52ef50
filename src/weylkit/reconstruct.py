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
from typing import Mapping, Optional

import numpy as np

from .cocycle import TwoCocycle
from .dual import CharacterBundle, GroupBundle, dual_bundle, rows_in, size_blocks, stack
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
    distinct_rows,
    grading_table,
    orbit_quotient,
    validate_arrays,
)
from .weyl import (
    _columns,
    WeylData,
    build_weyl_groupoid,
    centralizing_bounds,
    check_gamma_cartan_hypotheses,
    fibres_of,
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
    out = np.full(tuple(n + 1 for n in a.shape), -1, dtype=a.dtype)
    out[tuple(slice(n) for n in a.shape)] = a
    return out


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
    The classes are gathered in blocks of equal fibre size.
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
    tables, _, fs, ft = fibres_of(Q, dual, {u: data.class_map[u] for u in G.units})
    # per fibre: its elements, the T index of each row, and the character tables
    elements = [arrow_indices(G.index, t.elements, len(t.elements)) for t in tables]
    t_row = [np.array([pos[t_of[c]] for c in t.ids]) for t in tables]
    values, product = [t.values for t in tables], [t.product for t in tables]
    exponent = np.array([t.exponent for t in tables])
    size = np.array([len(t.ids) for t in tables])[fs]
    keys = [(cid, i) for cid, f in zip(Q.arrows, fs.tolist()) for i in tables[f].ids]
    eta = np.full((len(Q.arrows), size.max()), -1)       # the arrow of H of each row over a class's source
    eta[np.arange(eta.shape[1]) < size[:, None]] = arrow_indices(GW.index, keys, len(keys))

    # ad[c]: the rows over the target of the class -> rows over its source,
    # the character chi going to a -> chi(gamma a gamma^-1) for the class id
    # gamma.  This is representative-independent because the bundle is
    # abelian and normal; no cocycle correction enters (the corrections live
    # in the quotient action, not in conjugation).
    comp, inv, column = G.comp_matrix(), G.inverse_indices(), _columns(G, dual)
    gamma = arrow_indices(G.index, Q.arrows, len(Q.arrows))[:, None]
    ad = np.full(eta.shape, -1)
    for k, c in size_blocks(size, lambda k: k ** 3):
        V = stack(values, k)
        conj = column[comp[comp[gamma[c], stack(elements, k)[fs[c]]], inv[gamma[c]]]]   # [class, a over the source]
        nums = V[ft[c][:, None, None], np.arange(k)[:, None], conj[:, None, :]] * exponent[fs[c], None, None]
        ad[c, :k] = rows_in(nums, V[fs[c]] * exponent[ft[c], None, None])

    left, rho = np.full((2, len(pos), len(GW.arrows)), -1, dtype=np.int32)
    right, lam = np.full((2, len(GW.arrows), len(pos)), -1, dtype=np.int32)
    qinv = Q.inverse_indices()
    for k, c in size_blocks(size, lambda k: k * k):
        rows, P = stack(t_row, k), stack(product, k)[fs[c]]
        ts, tt, e, a = rows[fs[c]], rows[ft[c]], eta[c, :k], ad[c, :k]
        b = np.arange(len(e))[:, None, None]
        R, E = tt[:, :, None], e[:, None, :]
        rho[R, E] = ts[b[:, 0], a][:, :, None]
        left[R, E] = e[b, P[b, a[:, :, None], np.arange(k)]]
        right[e[:, :, None], ts[:, None, :]] = e[b, P]
        lam[e[:, :, None], ts[:, None, :]] = tt[b[:, 0], ad[qinv[c], :k]][:, None, :]
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
    That: CharacterBundle     # dual of pkg.T
    x_unit: dict              # base point of X -> H/T unit class id
    q_class: Optional[dict]   # H/T class id -> G/S class id; None unless Weyl-derived
    image: np.ndarray         # the action's table, as in weyl_action
    # the last twisted product build_boxtimes verified and built, with the
    # read-only row table of the theta it was built from
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

    @functools.cached_property
    def evaluation(self) -> np.ndarray:
        """At the arrow index of each element s of the marked bundle, the row of the character
        t -> t(s) of T over its base point, in the dual of T; -1 at the other arrows of G.

        For a Weyl-derived package, whose elements of T are (class, character id) pairs of the Weyl dual.
        """
        G, dual = self.pkg.weyl.G, self.pkg.weyl.dual
        out = np.full(len(G.arrows), -1, dtype=np.int64)
        for x, t in dual.tables.items():
            tt = self.That.tables[x]
            at = arrow_indices(G.index, t.elements, len(t.elements))
            out[at] = tt.rows_of(t.values[[dual.position[cid][1] for _, cid in tt.elements]].T, t.exponent)
        return out


def diamond_action(pkg: ActionPackage, report: Optional[ActionPackageReport] = None) -> DiamondData:
    """chi -> chi o rho_gamma, verified to descend to H/T and to be an action.

    The classes are gathered in blocks of equal fibre size.  The first
    class, in index order, on which rho does not descend or that sends a
    character outside the dual raises, and so does, once the table is an
    action, the first class whose map of characters is not multiplicative.
    """
    HT, class_map = quotient_HT(pkg, report)
    H, T = pkg.H, pkg.T
    That = dual_bundle(T)
    x_unit = {T.p[u]: class_map[u] for u in H.units}
    q_class = None if pkg.weyl is None else {cid: cid[0] for cid in HT.arrows}
    dia = DiamondData(pkg, HT, class_map, That, x_unit, q_class, None)
    tables, fs, ft, size, _, _ = dia.fibre_tables

    # rho descends: every member of a class has the class id's column
    members, n = class_map.members, len(HT.arrows)
    moved = np.zeros(n, dtype=bool)
    moved[class_map.of[(pkg.rho != pkg.rho[:, members[class_map.of, 0]]).any(axis=0)]] = True
    # per fibre of That: the T index of each column, and the column of each T index
    pos = {t: i for i, t in enumerate(pkg.t_elements())}
    t_col = [np.array([pos[t] for t in tab.elements]) for tab in tables]
    column = np.empty(len(pos), dtype=np.int64)
    for cols in t_col:
        column[cols] = np.arange(len(cols))
    values, product = [t.values for t in tables], [t.product for t in tables]
    exponent = np.array([t.exponent for t in tables])

    # chi over the source goes to chi o rho over the target
    size = size[fs]
    image = np.full((n, size.max()), -1)
    for k, c in size_blocks(size, lambda k: k ** 3):
        V = stack(values, k)
        at = column[pkg.rho[stack(t_col, k)[ft[c]], members[c, :1]]]     # [class, column over the target]
        nums = V[fs[c][:, None, None], np.arange(k)[:, None], at[:, None, :]] * exponent[ft[c], None, None]
        image[c, :k] = rows_in(nums, V[ft[c]] * exponent[fs[c], None, None])
    outside = (image < 0) & (np.arange(image.shape[1]) < size[:, None])
    bad = moved | outside.any(axis=1)
    if bad.any():
        c = int(np.argmax(bad))
        if moved[c]:
            raise DescentFailure(tuple(H.arrows[m] for m in members[c, :2].tolist() if m >= 0))
        raise NotAnAction(("image outside the dual", HT.arrows[c], tables[fs[c]].ids[int(np.argmax(outside[c]))]))
    image.setflags(write=False)
    dia.image = image
    verify_groupoid_action(HT, That, image, x_unit)

    # each class acts by a homomorphism of the character groups
    broken = np.zeros((n, size.max() ** 2), dtype=bool)
    for k, c in size_blocks(size, lambda k: k * k):
        P, img = stack(product, k), image[c, :k]
        b = np.arange(len(img))[:, None, None]
        broken[c, :k * k] = (img[b, P[fs[c]]] != P[ft[c][:, None, None], img[:, :, None], img[:, None, :]]).reshape(-1, k * k)
    if broken.any():
        c = int(np.argmax(broken.any(axis=1)))
        a, b = divmod(int(np.argmax(broken[c])), size[c])
        raise NotAnAction(("multiplicativity", HT.arrows[c], tables[fs[c]].ids[a], tables[fs[c]].ids[b]))
    return dia


class ThetaDatum:
    """Character-valued defect data on composable class pairs of H/T.

    ``values`` maps (class id, class id) -> Character of the dual of T.
    :func:`theta_for_package` and :func:`trivial_theta` build the datum
    from its row table, theta(c1, c2) at [c1, c2] as a row over the source
    of c2, -1 off the composable pairs, and spell ``values`` on first read,
    in ``HT.compose`` order.  From that read on, as for a datum built from
    a dict, ``values`` is the datum, so every write to it reaches the next
    reader.
    """

    def __init__(self, values: dict):
        self._values, self._table = values, None

    @classmethod
    def _of_rows(cls, dia: "DiamondData", rows: np.ndarray) -> "ThetaDatum":
        theta = cls(None)
        rows.setflags(write=False)
        theta._table = (dia, rows)
        return theta

    @property
    def values(self) -> dict:
        if self._values is None:
            dia, rows = self._table
            tables, fs = dia.fibre_tables[:2]
            fibres = [dia.That.fibres[t.base] for t in tables]
            ids, (gi, hi) = dia.HT.arrows, dia.HT.pair_indices()
            at = zip(gi.tolist(), hi.tolist(), fs[hi].tolist(), rows[gi, hi].tolist())
            self._values = {(ids[i], ids[j]): fibres[f][r] for i, j, f, r in at}
            self._table = None
        return self._values

    @values.setter
    def values(self, values: dict):
        self._values, self._table = values, None

    def __eq__(self, other):
        return isinstance(other, ThetaDatum) and self.values == other.values


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
    the double dual, i.e. a character of T.  Returned as its row table.
    """
    data = pkg.weyl
    if data is None:
        raise SchemaError("theta extraction needs a Weyl-derived package")
    if not data.omega.is_trivial():
        raise NontrivialCocycle("reconstruction requires a trivial 2-cocycle")
    G, Q, HT = data.G, data.Q, dia.HT
    sec = section if section is not None else data.section
    validate_section(G, data.class_map, sec)
    defects = section_defects(data, sec)

    # the H/T class index of each class index of Q; theta is the defect's evaluation
    ht_of_q = {q: cid for cid, q in dia.q_class.items()}
    ht = arrow_indices(HT.index, map(ht_of_q.get, Q.arrows), len(Q.arrows))
    q1, q2 = Q.pair_indices()
    rows = np.full((len(HT.arrows),) * 2, -1, dtype=np.int32)
    rows[ht[q1], ht[q2]] = dia.evaluation[defects[q1, q2]]
    return ThetaDatum._of_rows(dia, rows)


def trivial_theta(dia: DiamondData) -> ThetaDatum:
    return ThetaDatum._of_rows(dia, np.where(dia.HT.comp_matrix() >= 0, 0, -1).astype(np.int32))


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
    as a missing one does.  A datum built on ``dia`` from its row table
    covers the composable pairs and is read as it is.  The cocycle identity
    is one gather over every triple whose four values lie in the dual (each
    pair, then c3 in index order), so it fails on a break there even when
    ``coverage`` fails elsewhere.
    """
    HT, That = dia.HT, dia.That
    n, comp, inv = len(HT.arrows), HT.comp_matrix(), HT.inverse_indices()
    (s, t), arrows = HT.endpoint_indices(), HT.arrows
    tables, fs, _, size, start, prod = dia.fibre_tables
    violations, coverage, values = [], True, None

    if theta._table is not None and theta._table[0] is dia:
        rows = theta._table[1]
    else:
        values, rows, outside = theta.values, np.full((n, n), -1, dtype=np.int32), []
        for (c1, c2), val in values.items():
            x, r = That.position.get(That.char_id.get(val), (None, -1))
            j = HT.index.get(c2, -1)
            if j < 0 or x != tables[fs[j]].base:
                outside.append((c1, c2))
            elif c1 in HT.index:
                rows[HT.index[c1], j] = r
        rows[comp < 0] = -1
        rows.setflags(write=False)
        coverage = set(values) == set(HT.compose)
        if not coverage:
            violations.append(("coverage", set(HT.compose) ^ set(values)))
        if outside:
            coverage = False
            violations += [("outside the dual", pair) for pair in outside]

    # (r(c), c) and (c, s(c)) for every arrow c: a value that is not row 0
    # may still be trivial outside the dual, so those are read as Characters
    ar = np.arange(n)
    left, right = np.stack([t, ar], axis=1).ravel(), np.stack([ar, s], axis=1).ravel()
    unit_ok = True
    for i, j in zip(*(a[rows[left, right] != 0].tolist() for a in (left, right))):
        val = None if values is None else values.get((arrows[i], arrows[j]))
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
    ``dia`` and returned again, unbuilt, for a theta with the same row
    table: unverified for a datum built on ``dia`` from its rows, and once
    verified for any other.
    """
    if theta._table is not None and theta._table[0] is dia and dia.boxtimes is not None \
            and np.array_equal(dia.boxtimes[0], theta._table[1]):
        return dia.boxtimes[1]
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"theta fails verification: {report.violations[:3]}")
    if dia.boxtimes is not None and np.array_equal(dia.boxtimes[0], report.rows):
        return dia.boxtimes[1]
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
    dia.boxtimes = (report.rows, B)
    return B


def check_imm_centralizing_action(Q: FiniteGroupoid, dual: CharacterBundle, image: np.ndarray, unit_of_base: Mapping):
    """Whether the action ``image`` of Q on the bundle ``dual`` is immediately centralizing.

    The action is given as to :func:`~weylkit.weyl.verify_groupoid_action`.
    For every isotropy arrow g and bound k up to the max order in its fibre:
    if each chi has some power with (g.chi)^n = chi^n for n <= k, then g
    must fix the fibre.  Powers are read off each fibre's
    ``CharacterTable.product``, the arrows gathered in blocks of equal
    fibre size.  Returns (ok, witness (g, k)), g the first in index order.
    """
    tables, _, fs, _ = fibres_of(Q, dual, unit_of_base)
    s, t = Q.endpoint_indices()
    loops = np.flatnonzero(s == t)
    size = np.array([len(tab.ids) for tab in tables])[fs[loops]]
    product = [tab.product for tab in tables]
    bound = np.zeros(len(loops), dtype=np.int64)
    for k, at in size_blocks(size, lambda k: k * k):
        c = loops[at]
        rows = np.arange(k)[None].repeat(len(c), axis=0)
        bound[at] = centralizing_bounds(stack(product, k)[fs[c]], rows, image[c, :k])
    if not bound.any():
        return True, None
    i = int(np.argmax(bound > 0))
    return False, (Q.arrows[loops[i]], int(bound[i]))


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
    grades, (of, first) = grading_table(H, c_tilde), (dia.class_map.of, dia.class_map.members[:, 0])

    # each arrow is graded as its class id; the first class, in index order, that is not
    split = (grades != grades[first[of]]).any(axis=1)
    descends = not split.any()
    if not descends:
        wit["grading_descends"] = HT.arrows[of[split].min()]

    # the first arrow of the kernel that is isotropy but no unit
    s, t = H.endpoint_indices()
    bad = ~grades.any(axis=1) & (s == t) & (s != np.arange(len(s)))
    effective = not bad.any()
    if not effective:
        wit["kernel_effective"] = H.arrows[int(np.argmax(bad))]

    imm, imm_wit = check_imm_centralizing_action(HT, That, dia.image, dia.x_unit)
    if not imm:
        wit["imm_centralizing"] = imm_wit

    B = build_boxtimes(dia, theta)
    class_grade = dict(zip(HT.arrows, map(tuple, grades[first].tolist())))
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
    # a class id is the least member of its class
    grade = {cid: c.value(cid) for cid in data.Q.arrows}
    return Grading(group=c.group, values={a: grade[a[0]] for a in pkg.H.arrows})


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
    ev = dia.evaluation
    at = np.flatnonzero(ev >= 0).tolist()
    elem_of = {dia.That.tables[G.src[G.arrows[s]]].ids[r]: s for s, r in zip(at, ev[at].tolist())}

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
    if c is not None:
        # each arrow's image graded as its class's G/S class id, the least member
        grades, HT = grading_table(G, c), dia.HT
        of = arrow_indices(HT.index, (a[0] for a in B.arrows), len(B.arrows))
        q_id = arrow_indices(G.index, map(dia.q_class.get, HT.arrows), len(HT.arrows))
        off = (grades[phi] != grades[q_id[of]]).any(axis=1)
        if off.any():
            raise IsoCheckFailed(("grading", B.arrows[int(np.argmax(off))]))
    phi = dict(zip(B.arrows, map(G.arrows.__getitem__, phi.tolist())))
    return ReconstructionReport(
        phi=phi,
        boxtimes=B,
        theta=theta,
        dia=dia,
        grading_checked=c is not None,
        sizes=(len(B), len(G)),
    )
