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

from .cocycle import TwoCocycle
from .dual import Character, CharacterBundle, GroupBundle, dual_bundle
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
    isotropy_fibres,
    orbit_quotient,
)
from .weyl import (
    PowerTable,
    WeylData,
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    first_centralizing_bound,
    validate_section,
    verify_groupoid_action,
)


@dataclass
class ActionPackage:
    """A groupoid H whose unit space is a group bundle T over a base X.

    ``left(t, eta)`` and ``right(eta, t)`` are the bundle actions on arrows
    (defined when the moment maps match); ``lam(eta, t)`` and ``rho(t, eta)``
    are the exchange maps that let the two actions commute past composition.
    T element ids are exactly the unit arrow ids of H.
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
    """Per-clause verdicts for the action-compatibility axioms."""

    clauses: dict
    witnesses: dict = field(default_factory=dict)
    note: str = (
        "properness and continuity hold automatically for finite discrete bundles; "
        "freeness is checked explicitly"
    )

    def all_pass(self) -> bool:
        return all(self.clauses.values())

    def as_dict(self) -> dict:
        return {
            "clauses": dict(self.clauses),
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "note": self.note,
            "all_pass": self.all_pass(),
        }


def verify_action_package(pkg: ActionPackage) -> ActionPackageReport:
    """Exhaustively check every axiom the two T-actions must satisfy."""
    pkg.check_moment_maps()
    H, T = pkg.H, pkg.T
    clauses, wit = {}, {}

    def record(name, check, witness=None):
        # a check that raises a KeyError or a WeylkitError (e.g. a mutated
        # action landing outside the arrow set) counts as a failure, with
        # the exception type in the witness; anything else is a bug
        try:
            ok, raised = bool(check()), None
        except (KeyError, WeylkitError) as exc:
            ok, raised = False, type(exc).__name__
        clauses[name] = clauses.get(name, True) and ok
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
        clauses[name] = True

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

    return ActionPackageReport(clauses, wit)


def derive_weyl_actions(G: FiniteGroupoid, S_members, omega: Optional[TwoCocycle] = None) -> ActionPackage:
    """The canonical ActionPackage on a Weyl groupoid H = (G/S acting on the dual).

    The left action twists the character part by conjugation pulled through
    the quotient action; the right action multiplies the character part.
    """
    omega = omega if omega is not None else TwoCocycle(G, {})
    GW, data = build_weyl_groupoid(G, S_members, omega)
    dual = data.dual

    def char_of(t):
        return data.split_gw_id(t)[1]

    def id_of(chi: Character):
        return data.gw_arrow_id(data.class_map[chi.unit], chi)

    fibres = {
        u: tuple(sorted(id_of(chi) for chi in dual.fibres[u]))
        for u in G.units
    }
    T = GroupBundle(
        base=tuple(G.units),
        fibres=fibres,
        p={t: char_of(t).unit for fs in fibres.values() for t in fs},
        mult=lambda a, b: id_of(dual.multiply(char_of(a), char_of(b))),
        inv=lambda a: id_of(dual.invert(char_of(a))),
        identity={u: id_of(dual.trivial(u)) for u in G.units},
    )

    def ad(cid, chi):
        """Conjugation by (a representative of) the class cid, dual side.

        a -> chi(gamma a gamma^{-1}) is representative-independent because
        the bundle is abelian and normal; no cocycle correction enters (the
        corrections live in the quotient action, not in conjugation).
        """
        gamma = min(data.classes[cid])
        gi = G.inv(gamma)
        table = {
            a: chi.value(G.mul_all(gamma, a, gi))
            for a in dual.bundle.fibre(G.src[gamma])
        }
        return Character.from_table(G.src[gamma], table)

    def split(eta):
        cid, chi = data.split_gw_id(eta)
        return cid, chi

    def left(t, eta):
        cid, chi = split(eta)
        if pkg.p_r(eta) != T.p[t]:
            raise MomentMapMismatch(f"left action undefined on ({t}, {eta})")
        return data.gw_arrow_id(cid, dual.multiply(ad(cid, char_of(t)), chi))

    def right(eta, t):
        cid, chi = split(eta)
        if pkg.p_s(eta) != T.p[t]:
            raise MomentMapMismatch(f"right action undefined on ({eta}, {t})")
        return data.gw_arrow_id(cid, dual.multiply(chi, char_of(t)))

    def lam(eta, t):
        cid, _ = split(eta)
        if pkg.p_s(eta) != T.p[t]:
            raise MomentMapMismatch(f"lambda undefined on ({eta}, {t})")
        return id_of(ad(data.Q.inv(cid), char_of(t)))

    def rho(t, eta):
        cid, _ = split(eta)
        if pkg.p_r(eta) != T.p[t]:
            raise MomentMapMismatch(f"rho undefined on ({t}, {eta})")
        return id_of(ad(cid, char_of(t)))

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

    def act(self, cid, chi: Character) -> Character:
        return self.action[(cid, self.That.char_id[chi])]


def diamond_action(pkg: ActionPackage, report: Optional[ActionPackageReport] = None) -> DiamondData:
    """chi -> chi o rho_gamma, verified to descend to H/T and to be an action."""
    HT, class_map = quotient_HT(pkg, report)
    H, T = pkg.H, pkg.T
    classes = class_table(class_map)
    That = dual_bundle(T)

    def rho_table(eta):
        return tuple(
            (t, pkg.rho(t, eta)) for t in T.fibre(pkg.p_r(eta))
        )

    action = {}
    for cid, members in classes.items():
        tables = {eta: rho_table(eta) for eta in sorted(members)}
        distinct = set(tables.values())
        if len(distinct) != 1:
            pair = sorted(members)[:2]
            raise DescentFailure(tuple(pair))
        rho = dict(next(iter(distinct)))
        x_r = pkg.p_r(min(members))
        x_s = pkg.p_s(min(members))
        for chi in That.fibres[x_s]:
            table = {t: chi.value(rho[t]) for t in T.fibre(x_r)}
            action[(cid, That.char_id[chi])] = Character.from_table(x_r, table)

    x_unit = {T.p[u]: class_map[u] for u in H.units}

    verify_groupoid_action(HT, That, action, {uc: x for x, uc in x_unit.items()})
    # each class acts by a homomorphism of the character groups
    for cid, members in classes.items():
        x = pkg.p_s(min(members))
        for a, b in itertools.product(That.fibres[x], That.fibres[x]):
            lhs = action[(cid, That.char_id[That.multiply(a, b)])]
            rhs = That.multiply(action[(cid, That.char_id[a])], action[(cid, That.char_id[b])])
            if lhs != rhs:
                raise NotAnAction(("multiplicativity", cid, That.char_id[a], That.char_id[b]))

    return DiamondData(pkg, HT, class_map, classes, That, action, x_unit)


@dataclass
class ThetaDatum:
    """Character-valued defect data on composable class pairs of H/T."""

    values: dict  # (class id, class id) -> Character of the dual of T

    def value(self, c1, c2) -> Character:
        return self.values[(c1, c2)]


@dataclass
class ThetaReport:
    unit_triviality: bool
    cocycle_identity: bool
    coverage: bool
    violations: list = field(default_factory=list)

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

    ht_of_q = {}
    for cid, members in dia.classes.items():
        qcid, _ = data.split_gw_id(min(members))
        ht_of_q[qcid] = cid
    sec = section if section is not None else data.section
    validate_section(G, data.class_map, data.classes, sec)

    values = {}
    for (q1, q2) in Q.compose:
        q12 = Q.mul(q1, q2)
        defect = G.mul_all(G.inv(sec[q12]), sec[q1], sec[q2])
        if defect not in data.S:
            raise NotInS(f"section defect {defect} lies outside the marked bundle")
        x = G.src[defect]
        table = {
            t: data.split_gw_id(t)[1].value(defect)
            for t in pkg.T.fibre(x)
        }
        values[(ht_of_q[q1], ht_of_q[q2])] = Character.from_table(x, table)
    return ThetaDatum(values)


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
    """Unit triviality and the character-valued cocycle identity, exhaustively."""
    HT, That = dia.HT, dia.That
    violations = []

    coverage = set(theta.values) == set(HT.compose)
    if not coverage:
        violations.append(("coverage", set(HT.compose) ^ set(theta.values)))

    unit_ok = True
    for c in HT.arrows:
        for pair in ((HT.tgt[c], c), (c, HT.src[c])):
            val = theta.values.get(pair)
            if val is None or not val.is_trivial:
                unit_ok = False
                violations.append(("unit", pair))

    cocycle_ok = True
    if coverage:
        for (c1, c2) in HT.compose:
            c12 = HT.mul(c1, c2)
            for c3 in HT.arrows:
                if not HT.composable(c2, c3):
                    continue
                c23 = HT.mul(c2, c3)
                lhs = That.multiply(
                    dia.act(HT.inv(c3), theta.value(c1, c2)),
                    theta.value(c12, c3),
                )
                rhs = That.multiply(theta.value(c1, c23), theta.value(c2, c3))
                if lhs != rhs:
                    cocycle_ok = False
                    violations.append(("cocycle", (c1, c2, c3)))
    return ThetaReport(unit_ok, cocycle_ok, coverage, violations)


def boxtimes_id(cid, char_id) -> str:
    return f"{cid}&&{char_id}"


def split_boxtimes_id(arrow_id):
    return arrow_id.rsplit("&&", 1)


def build_boxtimes(dia: DiamondData, theta: ThetaDatum) -> FiniteGroupoid:
    """The groupoid of pairs (quotient class, dual character), twisted by theta.

    Arrows pair a class of H/T with a character at its source base point;
    the product twists the character part by theta and by the diamond action.
    The unit space is identified with the base X.
    """
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"theta fails verification: {report.violations[:3]}")
    pkg, HT, That = dia.pkg, dia.HT, dia.That

    unit_id = {
        x: boxtimes_id(uc, That.char_id[That.trivial(x)])
        for x, uc in dia.x_unit.items()
    }
    x_of_class_src = {cid: pkg.p_s(min(ms)) for cid, ms in dia.classes.items()}
    x_of_class_tgt = {cid: pkg.p_r(min(ms)) for cid, ms in dia.classes.items()}

    arrows = {}
    for cid in HT.arrows:
        xs, xt = x_of_class_src[cid], x_of_class_tgt[cid]
        for chi in That.fibres[xs]:
            arrows[boxtimes_id(cid, That.char_id[chi])] = (unit_id[xs], unit_id[xt])

    def mul(a1, a2):
        c1, x1 = split_boxtimes_id(a1)
        c2, x2 = split_boxtimes_id(a2)
        chi, nu = That.by_id[x1], That.by_id[x2]
        c12 = HT.mul(c1, c2)
        part = That.multiply(dia.act(HT.inv(c2), chi), nu)
        out = That.multiply(theta.value(c1, c2), part)
        return boxtimes_id(c12, That.char_id[out])

    return build_groupoid(set(unit_id.values()), arrows, mul, name=f"boxtimes({HT.name})")


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
        values={a: class_grade[split_boxtimes_id(a)[0]] for a in B.arrows},
    )
    unit_classes = set(dia.x_unit.values())
    S_members = frozenset(
        a for a in B.arrows if split_boxtimes_id(a)[0] in unit_classes
    )
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
    values = {}
    for aid in pkg.H.arrows:
        cid, _ = data.split_gw_id(aid)
        values[aid] = c.value(min(data.classes[cid]))
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

    def all_pass(self) -> bool:
        return True


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

    q_of_ht = {}
    for cid, members in dia.classes.items():
        q_of_ht[cid] = data.split_gw_id(min(members))[0]
    sec = section if section is not None else data.section

    # invert the evaluation pairing: each character of T comes from exactly
    # one element of the marked bundle
    elem_of_char = {}
    for x, fibre in isotropy_fibres(G, S_members).items():
        for s in fibre:
            table = {
                t: data.split_gw_id(t)[1].value(s)
                for t in pkg.T.fibre(x)
            }
            elem_of_char[Character.from_table(x, table)] = s

    phi = {}
    for a in B.arrows:
        cid, char_id = split_boxtimes_id(a)
        chi = dia.That.by_id[char_id]
        s = elem_of_char.get(chi)
        if s is None:
            raise IsoCheckFailed(("character not in the image of evaluation", a))
        phi[a] = G.mul(sec[q_of_ht[cid]], s)

    if len(set(phi.values())) != len(G.arrows) or len(phi) != len(G.arrows):
        raise IsoCheckFailed(("not a bijection", len(phi), len(G.arrows)))
    for a in B.arrows:
        if (G.src[phi[a]], G.tgt[phi[a]]) != (phi[B.src[a]], phi[B.tgt[a]]):
            raise IsoCheckFailed(("endpoints", a))
    for (a1, a2) in B.compose:
        if phi[B.mul(a1, a2)] != G.mul(phi[a1], phi[a2]):
            raise IsoCheckFailed(("composition", a1, a2))

    grading_checked = False
    if c is not None:
        class_grade = {
            cid: c.value(min(data.classes[q_of_ht[cid]])) for cid in dia.classes
        }
        for a in B.arrows:
            cid, _ = split_boxtimes_id(a)
            if c.value(phi[a]) != class_grade[cid]:
                raise IsoCheckFailed(("grading", a))
        grading_checked = True

    return ReconstructionReport(
        phi=phi,
        boxtimes=B,
        theta=theta,
        dia=dia,
        grading_checked=grading_checked,
        sizes=(len(B), len(G)),
    )
