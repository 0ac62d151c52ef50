"""Recovering a groupoid from its Weyl groupoid.

The pipeline: package the translation/conjugation actions of the unit bundle
T on a groupoid H, verify the action-compatibility axioms, form the quotient
H/T and the diamond action of H/T on the dual bundle of T, extract the
section-defect data theta, build the twisted product groupoid, and verify
that the result is isomorphic to the original groupoid.  The whole pipeline
requires a trivial 2-cocycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    NotInS,
    SchemaError,
    ThetaInvalid,
    WeylkitError,
)
from .groupoid import (
    FiniteGroupoid,
    Grading,
    build_groupoid,
    class_table,
    orbit_quotient,
)
from .weyl import (
    PowerTable,
    WeylData,
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    first_centralizing_bound,
    image_rows,
    validate_section,
    verify_groupoid_action,
)


@dataclass
class ActionPackage:
    """A groupoid H whose unit space is a group bundle T over a base X.

    ``left(t, eta)`` and ``right(eta, t)`` are the bundle actions on arrows
    (defined when the moment maps match); ``lam(eta, t)`` and ``rho(t, eta)``
    are the exchange maps that let the two actions commute past composition.
    T element ids are exactly the unit arrow ids of H.  In a Weyl-derived
    package (:func:`derive_weyl_actions`) the four maps read per-class
    tables: ``rho`` and ``lam`` are table lookups, and ``left`` and
    ``right`` one lookup in the character product table each.
    """

    H: FiniteGroupoid
    T: GroupBundle
    left: Callable
    right: Callable
    lam: Callable
    rho: Callable
    weyl: Optional[WeylData] = None

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


def verify_action_package(pkg: ActionPackage) -> ActionPackageReport:
    """Exhaustively check every axiom the two T-actions must satisfy."""
    pkg.check_moment_maps()
    H, T = pkg.H, pkg.T
    clauses, wit, counts = {}, {}, {}

    def record(name, check, witness=None):
        # a check that raises a KeyError or a WeylkitError (e.g. a mutated
        # action landing outside the arrow set) counts as a failure, with
        # the exception type in the witness; anything else is a bug
        try:
            ok, raised = bool(check()), None
        except (KeyError, WeylkitError) as exc:
            ok, raised = False, type(exc).__name__
        clauses[name] = clauses[name] and ok
        counts[name] += 1
        if not ok and name not in wit:
            wit[name] = witness if raised is None else (*witness, raised)

    t_elems = pkg.t_elements()
    for name in (
        "units_compatible", "endpoints_compatible", "actions_commute",
        "left_free", "right_free",
        "right_via_lambda", "left_via_rho",
        "right_distributes", "left_distributes",
        "inverse_right", "inverse_left",
        "lambda_rho_inverse", "lambda_multiplicative",
        "identity_on_units", "lambda_composition", "rho_composition",
    ):
        clauses[name], counts[name] = True, 0

    for t in t_elems:
        x = T.p[t]
        for eta in H.arrows:
            if pkg.p_r(eta) == x:
                record("endpoints_compatible",
                       lambda t=t, eta=eta: H.tgt[pkg.left(t, eta)] == pkg.left(t, H.tgt[eta]),
                       (t, eta))
                record("left_free",
                       lambda t=t, eta=eta, x=x: pkg.left(t, eta) != eta or t == T.identity[x],
                       (t, eta))
                record("left_via_rho",
                       lambda t=t, eta=eta: pkg.left(t, eta) == pkg.right(eta, pkg.rho(t, eta)),
                       (t, eta))
                record("inverse_left",
                       lambda t=t, eta=eta: H.inv(pkg.left(t, eta)) == pkg.right(H.inv(eta), t),
                       (t, eta))
                record("lambda_rho_inverse",
                       lambda t=t, eta=eta: pkg.lam(eta, pkg.rho(t, eta)) == t,
                       (t, eta))
            if pkg.p_s(eta) == x:
                record("endpoints_compatible",
                       lambda t=t, eta=eta: H.src[pkg.right(eta, t)] == pkg.right(H.src[eta], t),
                       (t, eta))
                record("right_free",
                       lambda t=t, eta=eta, x=x: pkg.right(eta, t) != eta or t == T.identity[x],
                       (t, eta))
                record("right_via_lambda",
                       lambda t=t, eta=eta: pkg.right(eta, t) == pkg.left(pkg.lam(eta, t), eta),
                       (t, eta))
                record("inverse_right",
                       lambda t=t, eta=eta: H.inv(pkg.right(eta, t)) == pkg.left(t, H.inv(eta)),
                       (t, eta))
                record("lambda_rho_inverse",
                       lambda t=t, eta=eta: pkg.rho(pkg.lam(eta, t), eta) == t,
                       (t, eta))
            if H.is_unit(eta) and T.p[eta] == x:
                record("units_compatible",
                       lambda t=t, eta=eta: pkg.left(t, eta) == pkg.right(eta, t),
                       (t, eta))
                record("identity_on_units",
                       lambda t=t, eta=eta: pkg.rho(t, eta) == t and pkg.lam(eta, t) == t,
                       (t, eta))

    for t, t2 in itertools.product(t_elems, t_elems):
        for eta in H.arrows:
            if pkg.p_r(eta) == T.p[t] and pkg.p_s(eta) == T.p[t2]:
                record("actions_commute",
                       lambda t=t, eta=eta, t2=t2:
                       pkg.right(pkg.left(t, eta), t2) == pkg.left(t, pkg.right(eta, t2)),
                       (t, eta, t2))
            if pkg.p_s(eta) == T.p[t] == T.p[t2]:
                record("lambda_multiplicative",
                       lambda t=t, eta=eta, t2=t2:
                       pkg.lam(eta, T.mult(t, t2)) == T.mult(pkg.lam(eta, t), pkg.lam(eta, t2)),
                       (t, eta, t2))

    for (gamma, eta) in H.compose:
        ge = H.mul(gamma, eta)
        for t in T.fibre(pkg.p_s(eta)):
            record("right_distributes",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   pkg.right(ge, t)
                   == H.mul(pkg.right(gamma, pkg.lam(eta, t)), pkg.right(eta, t)),
                   (gamma, eta, t))
            record("lambda_composition",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   pkg.lam(ge, t) == pkg.lam(gamma, pkg.lam(eta, t)),
                   (gamma, eta, t))
        for t in T.fibre(pkg.p_r(gamma)):
            record("left_distributes",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   pkg.left(t, ge)
                   == H.mul(pkg.left(t, gamma), pkg.left(pkg.rho(t, gamma), eta)),
                   (gamma, eta, t))
            record("rho_composition",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   pkg.rho(t, ge) == pkg.rho(pkg.rho(t, gamma), eta),
                   (gamma, eta, t))

    return ActionPackageReport(clauses, wit, counts)


def derive_weyl_actions(G: FiniteGroupoid, S_members, omega: Optional[TwoCocycle] = None) -> ActionPackage:
    """The canonical ActionPackage on a Weyl groupoid H = (G/S acting on the dual).

    The four maps are per-class tables.  Conjugation by each class of G/S,
    pulled back to the characters of T, is tabulated once; ``rho(t, eta)``
    reads it at the class of eta and ``lam(eta, t)`` at the inverse class.
    The left action multiplies the character part of eta by ``rho(t, eta)``
    and the right action multiplies it by t, one product-table lookup each.
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

    # ad[cid]: T over the target of the class -> T over its source, the
    # character chi going to a -> chi(gamma a gamma^-1) for the least member
    # gamma.  This is representative-independent because the bundle is
    # abelian and normal; no cocycle correction enters (the corrections
    # live in the quotient action, not in conjugation).
    ad = {}
    for cid, members in data.classes.items():
        gamma = min(members)
        tx, ty = dual.tables[G.src[gamma]], dual.tables[G.tgt[gamma]]
        conj = [ty.column[G.mul_all(gamma, a, G.inv(gamma))] for a in tx.elements]
        rows = tx.rows_of(ty.values[:, conj], ty.exponent)
        ad[cid] = {t_of[c]: t_of[tx.ids[r]] for c, r in zip(ty.ids, rows.tolist())}

    # each map reads eta through pkg.p_r or pkg.p_s first, so an id that
    # is not an arrow of H raises KeyError there
    def left(t, eta):
        if pkg.p_r(eta) != T.p[t]:
            raise MomentMapMismatch(f"left action undefined on ({t}, {eta})")
        cid, i = eta
        return cid, K.mult(ad[cid][t][1], i)

    def right(eta, t):
        if pkg.p_s(eta) != T.p[t]:
            raise MomentMapMismatch(f"right action undefined on ({eta}, {t})")
        cid, i = eta
        return cid, K.mult(i, t[1])

    def lam(eta, t):
        if pkg.p_s(eta) != T.p[t]:
            raise MomentMapMismatch(f"lambda undefined on ({eta}, {t})")
        return ad[Q.inv(eta[0])][t]

    def rho(t, eta):
        if pkg.p_r(eta) != T.p[t]:
            raise MomentMapMismatch(f"rho undefined on ({t}, {eta})")
        return ad[eta[0]][t]

    pkg = ActionPackage(H=GW, T=T, left=left, right=right, lam=lam, rho=rho, weyl=data)
    return pkg


def bundle_package(T: GroupBundle) -> ActionPackage:
    """The degenerate package where H is just the unit space T (co-trivial)."""
    ids = sorted(T.p)
    arrows = {t: (t, t) for t in ids}
    H = build_groupoid(ids, arrows, lambda a, b: a, name="cotrivial(T)")
    return ActionPackage(
        H=H,
        T=T,
        left=lambda t, eta: T.mult(t, eta),
        right=lambda eta, t: T.mult(eta, t),
        lam=lambda eta, t: t,
        rho=lambda t, eta: t,
    )


def quotient_HT(pkg: ActionPackage, report: Optional[ActionPackageReport] = None):
    """The quotient of H by the right T-action, as a groupoid over the base X.

    Returns (H/T, class map).  Requires a passing ActionPackageReport.
    """
    if report is None:
        report = verify_action_package(pkg)
    if not report.all_pass():
        failing = [k for k, v in report.clauses.items() if not v]
        raise AssumptionUnverified(f"action axioms fail: {failing}")
    H, T = pkg.H, pkg.T

    def orbit(eta):
        right = frozenset(pkg.right(eta, t) for t in T.fibre(pkg.p_s(eta)))
        if right != frozenset(pkg.left(t, eta) for t in T.fibre(pkg.p_r(eta))):
            raise AssumptionUnverified(f"left and right orbits of {eta} differ")
        return right

    return orbit_quotient(H, orbit, name=f"{H.name}/T", error=AssumptionUnverified)


@dataclass
class DiamondData:
    """The action of H/T on the dual bundle of T, plus the shared plumbing."""

    pkg: ActionPackage
    HT: FiniteGroupoid
    class_map: dict           # H arrow -> H/T class id
    classes: dict             # class id -> frozenset
    That: CharacterBundle     # dual of pkg.T
    action: dict              # (class id, char id) -> Character
    x_unit: dict              # base point of X -> H/T unit class id
    q_class: Optional[dict]   # H/T class id -> G/S class id; None unless Weyl-derived
    image: dict               # class id -> row of the image of each row of the source fibre
    # the last twisted product build_boxtimes verified and built, with a
    # copy of the theta values it was built from
    boxtimes: Optional[tuple] = field(default=None, repr=False, compare=False)


def diamond_action(pkg: ActionPackage, report: Optional[ActionPackageReport] = None) -> DiamondData:
    """chi -> chi o rho_gamma, verified to descend to H/T and to be an action."""
    HT, class_map = quotient_HT(pkg, report)
    H, T = pkg.H, pkg.T
    classes = class_table(class_map)
    That = dual_bundle(T)

    action, image = {}, {}
    for cid, members in classes.items():
        rhos = {tuple((t, pkg.rho(t, eta)) for t in T.fibre(pkg.p_r(eta))) for eta in sorted(members)}
        if len(rhos) != 1:
            raise DescentFailure(tuple(sorted(members)[:2]))
        rho = dict(rhos.pop())
        tr, ts = That.tables[pkg.p_r(min(members))], That.tables[pkg.p_s(min(members))]
        # chi over the source goes to chi o rho over the target
        at_rho = ts.values[:, [ts.column[rho[t]] for t in tr.elements]]
        image[cid] = image_rows(tr, at_rho, ts.exponent, cid, ts.ids)
        action.update(((cid, i), That.fibres[tr.base][r]) for i, r in zip(ts.ids, image[cid]))

    x_unit = {T.p[u]: class_map[u] for u in H.units}

    verify_groupoid_action(HT, That, action, {uc: x for x, uc in x_unit.items()})
    # each class acts by a homomorphism of the character groups
    for cid, members in classes.items():
        ts, tr = That.tables[pkg.p_s(min(members))], That.tables[pkg.p_r(min(members))]
        img = np.array(image[cid])
        bad = img[ts.product] != tr.product[img[:, None], img[None, :]]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise NotAnAction(("multiplicativity", cid, ts.ids[a], ts.ids[b]))

    # an H/T class is one G/S class with all its characters
    q_class = None if pkg.weyl is None else {cid: cid[0] for cid in classes}
    return DiamondData(pkg, HT, class_map, classes, That, action, x_unit, q_class, image)


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
    # (c1, c2) -> (x, row) of each value in the dual of T, None outside it
    rows: dict = field(default_factory=dict, repr=False, compare=False)

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

    ht_of_q = {q: cid for cid, q in dia.q_class.items()}
    sec = section if section is not None else data.section
    validate_section(G, data.class_map, data.classes, sec)

    evaluation = _evaluation(pkg, dia)
    values = {}
    for (q1, q2) in Q.compose:
        q12 = Q.mul(q1, q2)
        defect = G.mul_all(G.inv(sec[q12]), sec[q1], sec[q2])
        if defect not in data.S:
            raise NotInS(f"section defect {defect} lies outside the marked bundle")
        values[(ht_of_q[q1], ht_of_q[q2])] = evaluation[defect]
    return ThetaDatum(values)


def _evaluation(pkg: ActionPackage, dia: DiamondData) -> dict:
    """Each element s of the marked bundle -> the character t -> t(s) of T, in the dual of T.

    The elements of T are (class, character id) pairs of the Weyl dual.
    """
    dual, out = pkg.weyl.dual, {}
    for x, t in dual.tables.items():
        tt = dia.That.tables[x]
        rows = tt.rows_of(t.values[[dual.position[cid][1] for _, cid in tt.elements]].T, t.exponent)
        out.update(zip(t.elements, map(dia.That.fibres[x].__getitem__, rows.tolist())))
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
    one that is not fails ``coverage`` with an "outside the dual" violation.
    """
    HT, That = dia.HT, dia.That
    violations = []

    # (c1, c2) -> (x, row) of theta(c1, c2) in the dual of T over x, the source of c2; else None
    source = {c: dia.pkg.p_s(min(ms)) for c, ms in dia.classes.items()}
    at = (That.position.get(That.char_id.get(val)) for val in theta.values.values())
    rows = {pair: p if p and p[0] == source.get(pair[1]) else None for pair, p in zip(theta.values, at)}

    coverage = set(theta.values) == set(HT.compose)
    if not coverage:
        violations.append(("coverage", set(HT.compose) ^ set(theta.values)))
    outside = [pair for pair, found in rows.items() if found is None]
    if outside:
        coverage = False
        violations += [("outside the dual", pair) for pair in outside]

    unit_ok = True
    for c in HT.arrows:
        for pair in ((HT.tgt[c], c), (c, HT.src[c])):
            val = theta.values.get(pair)
            if val is None or not val.is_trivial:
                unit_ok = False
                violations.append(("unit", pair))

    cocycle_ok = True
    if coverage:
        row = {pair: r for pair, (_, r) in rows.items()}
        product = {x: t.product.tolist() for x, t in That.tables.items()}
        for (c1, c2) in HT.compose:
            c12 = HT.mul(c1, c2)
            for c3 in HT.arrows:
                if not HT.composable(c2, c3):
                    continue
                c23 = HT.mul(c2, c3)
                # all four values lie over the source of c3, and so do their products
                mul = product[rows[(c2, c3)][0]]
                acted = dia.image[HT.inv(c3)][row[(c1, c2)]]      # c3^-1 acting on theta(c1, c2)
                if mul[acted][row[(c12, c3)]] != mul[row[(c1, c23)]][row[(c2, c3)]]:
                    cocycle_ok = False
                    violations.append(("cocycle", (c1, c2, c3)))
    return ThetaReport(unit_ok, cocycle_ok, coverage, violations, rows)


def build_boxtimes(dia: DiamondData, theta: ThetaDatum) -> FiniteGroupoid:
    """The groupoid of pairs (quotient class, dual character), twisted by theta.

    Arrows pair a class of H/T with a character at its source base point;
    the product twists the character part by theta and by the diamond action.
    The unit space is identified with the base X.  The product is kept on
    ``dia`` and returned again, unverified and unbuilt, for a theta with
    equal values.
    """
    if dia.boxtimes is not None and dia.boxtimes[0] == theta.values:
        return dia.boxtimes[1]
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"theta fails verification: {report.violations[:3]}")
    pkg, HT, That = dia.pkg, dia.HT, dia.That

    unit_id = {x: (uc, That.tables[x].ids[0]) for x, uc in dia.x_unit.items()}
    arrows = {}
    for cid in HT.arrows:
        xs, xt = pkg.p_s(min(dia.classes[cid])), pkg.p_r(min(dia.classes[cid]))
        arrows.update(((cid, i), (unit_id[xs], unit_id[xt])) for i in That.tables[xs].ids)

    rows, position = report.rows, That.position
    product = {x: t.product.tolist() for x, t in That.tables.items()}

    def mul(a1, a2):
        (c1, x1), (c2, x2) = a1, a2
        x, r2 = position[x2]
        acted = dia.image[HT.inv(c2)][position[x1][1]]      # c2^-1 acting on x1, over x
        out = product[x][rows[(c1, c2)][1]][product[x][acted][r2]]
        return HT.mul(c1, c2), That.tables[x].ids[out]

    B = build_groupoid(set(unit_id.values()), arrows, mul, name=f"boxtimes({HT.name})")
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

    K = That.to_bundle()
    act_ids = {key: That.char_id[val] for key, val in dia.action.items()}
    imm, imm_wit = check_imm_centralizing_action(HT, K, act_ids, dia.x_unit)
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
    elem_of = {dia.That.char_id[chi]: G.index[s] for s, chi in _evaluation(pkg, dia).items()}

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
