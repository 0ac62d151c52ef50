"""Semidirect products H x| K of finite abelian groups, their cocycles,
the closed-form untwisting action, and the rotation-family generators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cocycle import TwoCocycle, check_cocycle, common_denominator
from .dual import bundle_from_subgroupoid, dual_bundle
from .errors import CocycleInvalid, NotAutomorphism, RestrictionNotTrivial, SchemaError
from .groupoid import Grading, arrow_index, arrow_indices, validate_arrays
from .phases import ZERO, Phase
from .weyl import action_ids, build_weyl_groupoid, image_rows, weyl_twist_cocycle


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
    group elements (h, k) and returns a Phase.  Element ids "h1.h2|k1" are
    tabulated both ways on first use.
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

    @functools.cached_property
    def _ids(self) -> dict:
        """Element -> id, for every element of the group."""
        return {a: _format_id(a) for a in self.elements()}

    @functools.cached_property
    def _elements_by_id(self) -> dict:
        """Id -> element, the inverse of ``_ids``."""
        return {text: a for a, text in self._ids.items()}

    def elem_id(self, a):
        try:
            return self._ids[a]
        except KeyError:
            return _format_id(a)

    def parse_id(self, text):
        try:
            return self._elements_by_id[text]
        except KeyError:
            hs, ks = text.split("|")
            return (
                tuple(int(x) for x in hs.split(".")),
                tuple(int(x) for x in ks.split(".")),
            )


def _action_table(spec: SemidirectSpec) -> np.ndarray:
    """The checked table of beta: the position of beta(k, h) at [position k, position h].

    beta is called once per (k, h).  The laws are gathers on that table and
    the addition tables, and the first failure raises NotAutomorphism: beta_0
    moves some h; then, k by k, beta_k is not a bijection, or not a
    homomorphism at the first (a, b); then, over (k1, k2), the action law
    fails.
    """
    h_elems, k_elems = spec.h_elements(), spec.k_elements()
    h_pos = {h: i for i, h in enumerate(h_elems)}
    images = (spec.beta(k, h) for k in k_elems for h in h_elems)
    beta = np.fromiter(map(h_pos.get, images, itertools.repeat(-1)), np.int64, len(k_elems) * len(h_elems))
    beta = beta.reshape(len(k_elems), len(h_elems))
    ar = np.arange(len(h_elems))
    moved = beta[0] != ar          # k_elems[0] is the zero of K
    if moved.any():
        raise NotAutomorphism(f"beta_0 is not the identity on {h_elems[np.argmax(moved)]}")
    add_h = _addition(spec.h_orders)
    for k, row in zip(k_elems, beta):
        if not np.array_equal(np.sort(row), ar):
            raise NotAutomorphism(f"beta_{k} is not a bijection")
        bad = row[add_h] != add_h[row[:, None], row]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise NotAutomorphism(f"beta_{k} is not a homomorphism at ({h_elems[a]}, {h_elems[b]})")
    # beta_{k1 + k2}(h) against beta_k1(beta_k2(h)), row k1 at a time
    add_k = _addition(spec.k_orders)
    for k1, (sums, row) in enumerate(zip(add_k, beta)):
        bad = (beta[sums] != row[beta]).any(axis=1)
        if bad.any():
            raise NotAutomorphism(f"beta is not an action at ({k_elems[k1]}, {k_elems[np.argmax(bad)]})")
    return beta


def _format_id(a) -> str:
    h, k = a
    return ".".join(map(str, h)) + "|" + ".".join(map(str, k))


def _addition(orders) -> np.ndarray:
    """Positions of a + b at [position a, position b], in the order of ``_elements(orders)``."""
    elems = _elements(orders)
    coords = np.array(elems, dtype=np.int64).reshape(len(elems), len(orders))
    weights = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
    return ((coords[:, None] + coords[None]) % np.array(orders, dtype=np.int64)) @ weights


def build_semidirect(spec: SemidirectSpec):
    """Build (G, omega, S = H x {0} member set, grading c(h, k) = k).

    An element (h, k) sits at position h_pos * |K| + k_pos, the order of
    ``spec.elements()``.  With beta tabulated once, the compose array is
    index arithmetic over those positions, and omega is read once per pair.
    """
    beta = _action_table(spec)
    h_elems, k_elems, elems = spec.h_elements(), spec.k_elements(), spec.elements()
    ids = [spec.elem_id(a) for a in elems]
    unit = ids[0]           # (0, 0)
    arrows = {i: (unit, unit) for i in ids}

    h1, k1, h2, k2 = np.ix_(*(range(len(x)) for x in (h_elems, k_elems, h_elems, k_elems)))
    # (h1, k1)(h2, k2) = (h1 + beta_k1(h2), k1 + k2)
    prod = _addition(spec.h_orders)[h1, beta[k1, h2]] * len(k_elems) + _addition(spec.k_orders)[k1, k2]
    n = len(elems)
    prod = prod.ravel()     # position of a*b at a_pos * n + b_pos
    idx = arrow_indices(arrow_index(arrows), ids, n)
    entry = lambda j: ((ids[j // n], ids[j % n]), ids[prod[j]])
    G = validate_arrays([unit], arrows, np.repeat(idx, n), np.tile(idx, n), idx[prod], entry, name=spec.name)

    # omega row by row; each distinct Phase object is held, in order of first use, so no id is reused
    distinct, codes = {}, np.empty((n, n), dtype=np.int64)
    for a, out in zip(elems, codes):
        row = map(functools.partial(spec.omega, a), elems)
        out[:] = [distinct.setdefault(id(ph), (len(distinct), ph))[0] for ph in row]
    omega = TwoCocycle._from_codes(G, *G.pair_indices(), codes.ravel(), [ph for _, ph in distinct.values()])
    violations = check_cocycle(G, omega)
    if violations:
        raise CocycleInvalid(violations)

    zero_k = tuple(0 for _ in spec.k_orders)
    S = frozenset(spec.elem_id((h, zero_k)) for h in h_elems)
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
    action = _closed_form_action(spec, dual, use_corollary)
    return G, omega, S, c, {key: dual.by_id[cid] for key, cid in action.items()}


def _closed_form_action(spec: SemidirectSpec, dual, use_corollary: bool) -> dict:
    """The closed-form action on ``dual``, the dual of H x {0} in the groupoid of ``spec``.

    Maps (class id, character id) to the character id of the image, read
    off the character table over one common denominator per k.
    """
    t = dual.tables[dual.base[0]]
    zero_h = tuple(0 for _ in spec.h_orders)
    zero_k = tuple(0 for _ in spec.k_orders)
    h_elems = spec.h_elements()
    h_col = [t.column[spec.elem_id((h, zero_k))] for h in h_elems]
    action = {}
    for k in spec.k_elements():
        nk = _neg(spec.k_orders, k)
        lead = (
            ZERO
            if use_corollary
            else -spec.omega((zero_h, nk), (zero_h, k))
        )
        # per h: the character-free terms, and the column of beta_{-k}(h) where chi is read
        terms, at = [], []
        for h in h_elems:
            bh = spec.beta(nk, h)
            terms.append(lead + spec.omega((zero_h, nk), (h, zero_k)) + spec.omega((bh, nk), (zero_h, k)))
            at.append(t.column[spec.elem_id((bh, zero_k))])
        D = common_denominator(((f"phase {ph} at {h}", ph.den) for h, ph in zip(h_elems, terms)), t.exponent)
        num = np.array([ph.num * (D // ph.den) for ph in terms], dtype=np.int64)
        vals = np.empty_like(t.values)
        vals[:, h_col] = (num + t.values[:, at] * (D // t.exponent)) % D
        cid = min(spec.elem_id((h, k)) for h in h_elems)
        action.update(((cid, i), t.ids[r]) for i, r in zip(t.ids, image_rows(t, vals, D, cid, t.ids).tolist()))
    return action


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
    if not omega_restricts_trivially(spec, "H"):
        raise RestrictionNotTrivial("omega must restrict trivially to H")
    G, omega, S, _ = build_semidirect(spec)
    GW, data = build_weyl_groupoid(G, S, omega)
    # both actions as character ids of the one dual bundle
    closed = _closed_form_action(spec, data.dual, use_corollary=False)
    general = action_ids(data.Q, data.dual, data.image, data.class_map)
    mismatches = [key for key in closed if closed[key] != general.get(key)]
    action_ok = not mismatches and set(closed) == set(general)

    corollary_ok = None
    if omega_restricts_trivially(spec, "K"):
        corollary_ok = _closed_form_action(spec, data.dual, use_corollary=True) == closed

    zero_h = tuple(0 for _ in spec.h_orders)
    k_elems = spec.k_elements()
    k_pos = {k: i for i, k in enumerate(k_elems)}
    section, k_of_class = {}, {}
    for cid in data.Q.arrows:       # a class id is its class's least member
        _, k = spec.parse_id(cid)
        section[cid], k_of_class[cid] = spec.elem_id((zero_h, k)), k_pos[k]
    data.section = section
    C = weyl_twist_cocycle(GW, data)

    # both sides as numerator tables: C's own, and omega on K x K from the spec
    expected = [((k1, k2), spec.omega((zero_h, k1), (zero_h, k2))) for k1 in k_elems for k2 in k_elems]
    twist, _, den = C._int_table()
    D = common_denominator(((f"phase {ph} at {k}", ph.den) for k, ph in expected), den)
    on_k = np.array([ph.num * (D // ph.den) for _, ph in expected], dtype=np.int64)
    on_k = on_k.reshape(len(k_elems), len(k_elems))
    k_of = np.array([k_of_class[cid] for cid, _ in GW.arrows])
    a1, a2 = (GW.comp_matrix() >= 0).nonzero()
    differs = np.zeros((len(GW), len(GW)), dtype=bool)
    differs[a1, a2] = (twist[a1, a2] * (D // den) - on_k[k_of[a1], k_of[a2]]) % D != 0
    twist_ok = not differs.any()
    if not twist_ok:
        mismatches += [(x, y) for x, y in GW.compose if differs[GW.index[x], GW.index[y]]]
    cocycle_ok = not check_cocycle(GW, C)
    return UntwistingReport(action_ok, corollary_ok, twist_ok, cocycle_ok, mismatches)


def gen_rotation(n: int, p: int) -> SemidirectSpec:
    """The finite rotation-family spec on Zn x Zn with theta = p/n."""
    if n < 1 or not (0 <= p < n):
        raise SchemaError(f"rotation parameters need n >= 1 and 0 <= p < n, got ({n}, {p})")

    phases = [Phase(v, n) for v in range(n)]     # every value omega takes, built once

    def omega(a, b):
        (_, k), (h2, _) = a, b
        return phases[p * k[0] * h2[0] % n]

    return SemidirectSpec(
        name=f"rotation({n},{p})",
        h_orders=(n,),
        k_orders=(n,),
        omega=omega,
    )
