"""Semidirect products H x| K of finite abelian groups, their cocycles,
the closed-form untwisting action, and the rotation-family generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .cocycle import TwoCocycle, check_cocycle
from .dual import Character, bundle_from_subgroupoid, dual_bundle
from .errors import CocycleInvalid, NotAutomorphism, RestrictionNotTrivial, SchemaError
from .groupoid import Grading, build_groupoid
from .phases import ZERO, Phase
from .weyl import build_weyl_groupoid, weyl_action, weyl_twist_cocycle


def _elements(orders):
    if any(o <= 0 for o in orders):
        raise SchemaError("semidirect factors must be finite cyclic (order >= 1)")
    return list(itertools.product(*[range(o) for o in orders]))


def _add(orders, a, b):
    return tuple((x + y) % o for x, y, o in zip(a, b, orders))


def _neg(orders, a):
    return tuple((-x) % o for x, o in zip(a, orders))


@dataclass
class SemidirectSpec:
    """Data for G = H x|_beta K with a 2-cocycle omega.

    ``beta(k, h)`` is the automorphism action of K on H; ``omega`` takes two
    group elements (h, k) and returns a Phase.
    """

    name: str
    h_orders: tuple
    k_orders: tuple
    beta: Callable = None
    omega: Callable = None

    def __post_init__(self):
        if self.beta is None:
            self.beta = lambda k, h: h
        if self.omega is None:
            self.omega = lambda a, b: ZERO

    def h_elements(self):
        return _elements(self.h_orders)

    def k_elements(self):
        return _elements(self.k_orders)

    def elements(self):
        return [(h, k) for h in self.h_elements() for k in self.k_elements()]

    def mul(self, a, b):
        (h, k), (h2, k2) = a, b
        return (
            _add(self.h_orders, h, self.beta(k, h2)),
            _add(self.k_orders, k, k2),
        )

    def elem_id(self, a):
        h, k = a
        return ".".join(map(str, h)) + "|" + ".".join(map(str, k))

    def parse_id(self, text):
        hs, ks = text.split("|")
        return (
            tuple(int(x) for x in hs.split(".")),
            tuple(int(x) for x in ks.split(".")),
        )

    def validate_action(self):
        h_elems = self.h_elements()
        zero_k = tuple(0 for _ in self.k_orders)
        for h in h_elems:
            if self.beta(zero_k, h) != h:
                raise NotAutomorphism(f"beta_0 is not the identity on {h}")
        for k in self.k_elements():
            images = [self.beta(k, h) for h in h_elems]
            if sorted(images) != sorted(h_elems):
                raise NotAutomorphism(f"beta_{k} is not a bijection")
            for a, b in itertools.product(h_elems, h_elems):
                if self.beta(k, _add(self.h_orders, a, b)) != _add(
                    self.h_orders, self.beta(k, a), self.beta(k, b)
                ):
                    raise NotAutomorphism(f"beta_{k} is not a homomorphism at ({a}, {b})")
        for k1, k2 in itertools.product(self.k_elements(), self.k_elements()):
            for h in h_elems:
                if self.beta(_add(self.k_orders, k1, k2), h) != self.beta(
                    k1, self.beta(k2, h)
                ):
                    raise NotAutomorphism(f"beta is not an action at ({k1}, {k2})")


def build_semidirect(spec: SemidirectSpec):
    """Build (G, omega, S = H x {0} member set, grading c(h, k) = k)."""
    spec.validate_action()
    elems = spec.elements()
    unit = spec.elem_id((tuple(0 for _ in spec.h_orders), tuple(0 for _ in spec.k_orders)))
    arrows = {spec.elem_id(a): (unit, unit) for a in elems}

    def mul(x, y):
        return spec.elem_id(spec.mul(spec.parse_id(x), spec.parse_id(y)))

    G = build_groupoid([unit], arrows, mul, name=spec.name)
    omega = TwoCocycle(
        G,
        {
            (spec.elem_id(a), spec.elem_id(b)): spec.omega(a, b)
            for a, b in itertools.product(elems, elems)
        },
    )
    violations = check_cocycle(G, omega)
    if violations:
        raise CocycleInvalid(violations)

    zero_k = tuple(0 for _ in spec.k_orders)
    S = frozenset(spec.elem_id((h, zero_k)) for h in spec.h_elements())
    c = Grading(
        group=tuple(spec.k_orders),
        values={spec.elem_id(a): a[1] for a in elems},
    )
    return G, omega, S, c


def omega_restricts_trivially(spec: SemidirectSpec, factor: str) -> bool:
    zero_h = tuple(0 for _ in spec.h_orders)
    zero_k = tuple(0 for _ in spec.k_orders)
    if factor == "H":
        pairs = itertools.product(spec.h_elements(), spec.h_elements())
        lift = lambda h: (h, zero_k)
    else:
        pairs = itertools.product(spec.k_elements(), spec.k_elements())
        lift = lambda k: (zero_h, k)
    return all(spec.omega(lift(a), lift(b)).is_zero for a, b in pairs)


def semidirect_weyl_action(spec: SemidirectSpec, use_corollary: bool = False):
    """Closed-form action of K on the dual of H, for omega trivial on H.

    Returns (G, omega, S, c, action) with the action keyed exactly like
    :func:`weylkit.weyl.weyl_action`: (class id of H x {k}, character id).
    With ``use_corollary`` (valid when omega is also trivial on K) the
    leading correction term is dropped.
    """
    if not omega_restricts_trivially(spec, "H"):
        raise RestrictionNotTrivial("omega must restrict trivially to H")
    if use_corollary and not omega_restricts_trivially(spec, "K"):
        raise RestrictionNotTrivial("corollary form needs omega trivial on K")
    G, omega, S, c = build_semidirect(spec)
    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    unit = G.units[0]
    zero_h = tuple(0 for _ in spec.h_orders)
    zero_k = tuple(0 for _ in spec.k_orders)

    def class_id(k):
        return min(spec.elem_id((h, k)) for h in spec.h_elements())

    action = {}
    for k in spec.k_elements():
        nk = _neg(spec.k_orders, k)
        lead = (
            ZERO
            if use_corollary
            else -spec.omega((zero_h, nk), (zero_h, k))
        )
        for chi in dual.fibres[unit]:
            table = {}
            for h in spec.h_elements():
                bh = spec.beta(nk, h)
                table[spec.elem_id((h, zero_k))] = (
                    lead
                    + spec.omega((zero_h, nk), (h, zero_k))
                    + spec.omega((bh, nk), (zero_h, k))
                    + chi.value(spec.elem_id((bh, zero_k)))
                )
            action[(class_id(k), dual.char_id[chi])] = Character.from_table(unit, table)
    return G, omega, S, c, action


@dataclass
class UntwistingReport:
    action_matches_closed_form: bool
    corollary_agrees: Optional[bool]
    twist_equals_omega_on_k: bool
    twist_is_cocycle: bool
    mismatches: list = field(default_factory=list)

    def all_pass(self):
        checks = [
            self.action_matches_closed_form,
            self.twist_equals_omega_on_k,
            self.twist_is_cocycle,
        ]
        if self.corollary_agrees is not None:
            checks.append(self.corollary_agrees)
        return all(checks)


def verify_untwisting(spec: SemidirectSpec) -> UntwistingReport:
    """Check the untwisting claims on a semidirect spec with omega trivial on H.

    Compares the general quotient action with the closed form, builds the
    Weyl twist with the section k -> (0, k), and checks it equals the
    restriction of omega to K.
    """
    G, omega, S, c, closed = semidirect_weyl_action(spec)
    _, _, _, general = weyl_action(G, S, omega)
    mismatches = [key for key in closed if closed[key] != general.get(key)]
    action_ok = not mismatches and set(closed) == set(general)

    corollary_ok = None
    if omega_restricts_trivially(spec, "K"):
        *_, cor_action = semidirect_weyl_action(spec, use_corollary=True)
        corollary_ok = cor_action == closed

    zero_h = tuple(0 for _ in spec.h_orders)

    def pure_k_section(classes, class_map):
        section = {}
        for cid, members in classes.items():
            _, k = spec.parse_id(min(members))
            section[cid] = spec.elem_id((zero_h, k))
        return section

    GW, data = build_weyl_groupoid(G, S, omega)
    data.section = pure_k_section(data.classes, data.class_map)
    C = weyl_twist_cocycle(GW, data)
    twist_ok = True
    for (a1, a2) in GW.compose:
        c1, _ = data.split_gw_id(a1)
        c2, _ = data.split_gw_id(a2)
        _, k1 = spec.parse_id(data.section[c1])
        _, k2 = spec.parse_id(data.section[c2])
        expected = spec.omega((zero_h, k1), (zero_h, k2))
        if C.omega(a1, a2) != expected:
            twist_ok = False
            mismatches.append((a1, a2))
    cocycle_ok = not check_cocycle(GW, C)
    return UntwistingReport(action_ok, corollary_ok, twist_ok, cocycle_ok, mismatches)


def gen_rotation(n: int, p: int) -> SemidirectSpec:
    """The finite rotation-family spec on Zn x Zn with theta = p/n."""
    if n < 1 or not (0 <= p < n):
        raise SchemaError(f"rotation parameters need n >= 1 and 0 <= p < n, got ({n}, {p})")

    def omega(a, b):
        (_, k), (h2, _) = a, b
        return Phase.of(p * k[0] * h2[0], n)

    return SemidirectSpec(
        name=f"rotation({n},{p})",
        h_orders=(n,),
        k_orders=(n,),
        omega=omega,
    )
