"""Pontryagin duality for finite abelian group bundles.

Characters are stored extensionally (full value tables over the fibre), so
evaluation is a lookup: each :class:`Character` builds its element -> phase
dict and its hash once, at construction.  A :class:`CharacterBundle`
computes the product of two of its own characters once, on first use, and
keeps it in ``_products``, a dict keyed by value.  Products are the
bundle's own instances (:meth:`CharacterBundle.canonical`), so later
lookups compare them by identity.  Over a base point with m characters
(m <= ``FIBRE_CAP``) a bundle keeps at most m^2 products.

A :class:`GroupBundle` is the minimal interface the duality machinery
needs; subgroupoids and character bundles both adapt to it, which is what
makes the double dual and the reconstruction pipeline table-driven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import DualityFailure, FibreMismatch, FibreTooLarge, NotAbelian, UnknownArrowId
from .groupoid import FIBRE_CAP, FiniteGroupoid, isotropy_fibres
from .phases import ZERO, Phase


@dataclass(frozen=True)
class GroupBundle:
    """A disjoint union of finite groups, one fibre per base point."""

    base: tuple
    fibres: Mapping            # base point -> tuple of element ids
    p: Mapping                 # element id -> base point
    mult: Callable
    inv: Callable
    identity: Mapping          # base point -> identity element id

    def fibre(self, x):
        return self.fibres[x]

    def element_order(self, a) -> int:
        n, x = 1, a
        e = self.identity[self.p[a]]
        while x != e:
            x = self.mult(x, a)
            n += 1
        return n


def bundle_from_subgroupoid(G: FiniteGroupoid, members) -> GroupBundle:
    """View a group-bundle subgroupoid (all members isotropy) as a GroupBundle."""
    S = frozenset(members)
    for g in S:
        if g not in G.src:
            raise UnknownArrowId(g)
        if G.src[g] != G.tgt[g]:
            raise NotAbelian(f"member {g} is not isotropy")
    return GroupBundle(
        base=tuple(G.units),
        fibres=isotropy_fibres(G, S),
        p={g: G.src[g] for g in S},
        mult=G.mul,
        inv=G.inv,
        identity={u: u for u in G.units},
    )


@dataclass(frozen=True)
class Character:
    """A homomorphism from one fibre to the circle, as a value table."""

    unit: object
    values: tuple  # sorted tuple of (element id, Phase)
    _lookup: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.values))
        object.__setattr__(self, "_hash", hash((self.unit, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def value(self, a) -> Phase:
        return self._lookup[a]

    @property
    def is_trivial(self) -> bool:
        return all(ph.is_zero for _, ph in self.values)

    @staticmethod
    def from_table(unit, table: Mapping) -> "Character":
        return Character(unit, tuple(sorted(table.items())))


class CharacterBundle:
    """The dual of a GroupBundle: all characters, fibre by fibre.

    Characters get deterministic ids "<base>#<i>" with i the index in the
    lexicographic ordering of value tables.
    """

    def __init__(self, bundle: GroupBundle, fibres: Mapping):
        self.bundle = bundle
        self.base = bundle.base
        self.fibres = {x: tuple(sorted(chars, key=lambda c: c.values)) for x, chars in fibres.items()}
        self.char_id = {}
        self.by_id = {}
        self._products = {}     # (chi, nu) -> chi * nu, for characters of this bundle
        for x in self.base:
            for i, chi in enumerate(self.fibres[x]):
                cid = f"{x}#{i}"
                self.char_id[chi] = cid
                self.by_id[cid] = chi

    def p(self, chi: Character):
        return chi.unit

    def trivial(self, x) -> Character:
        return Character.from_table(x, {a: ZERO for a in self.bundle.fibre(x)})

    def canonical(self, chi: Character) -> Character:
        """This bundle's own instance of ``chi``, or ``chi`` itself if it lies outside.

        Dict lookups on the own instance compare by identity, not value.
        """
        cid = self.char_id.get(chi)
        return chi if cid is None else self.by_id[cid]

    def multiply(self, chi: Character, nu: Character) -> Character:
        out = self._products.get((chi, nu))
        if out is None:
            if chi.unit != nu.unit:
                raise FibreMismatch((chi.unit, nu.unit))
            out = self.canonical(
                Character.from_table(chi.unit, {a: p + nu.value(a) for a, p in chi.values})
            )
            # keeping only products of the bundle's own characters bounds the cache
            if chi in self.char_id and nu in self.char_id:
                self._products[chi, nu] = out
        return out

    def invert(self, chi: Character) -> Character:
        return Character.from_table(chi.unit, {a: -p for a, p in chi.values})

    def power(self, chi: Character, n: int) -> Character:
        return Character.from_table(chi.unit, {a: p.times(n) for a, p in chi.values})

    def to_bundle(self) -> GroupBundle:
        """The character bundle as a GroupBundle over character ids."""
        fibres = {x: tuple(self.char_id[c] for c in self.fibres[x]) for x in self.base}
        ident = {x: self.char_id[self.trivial(x)] for x in self.base}

        def mult(a, b):
            return self.char_id[self.multiply(self.by_id[a], self.by_id[b])]

        def inv(a):
            return self.char_id[self.invert(self.by_id[a])]

        return GroupBundle(
            base=self.base,
            fibres=fibres,
            p={cid: chi.unit for cid, chi in self.by_id.items()},
            mult=mult,
            inv=inv,
            identity=ident,
        )


def _enumerate_fibre_characters(bundle: GroupBundle, x):
    """All homomorphisms fibre -> Q/Z, by extension over a generating sequence.

    Partial characters on the subgroup generated so far are extended one
    generator at a time; the relative order of the generator pins down the
    admissible values, so the enumeration never backtracks blindly.
    """
    fibre = bundle.fibre(x)
    e = bundle.identity[x]
    span = {e}
    partial = [{e: ZERO}]
    for g in fibre:
        if g in span:
            continue
        # relative order: least m >= 1 with g^m in the current span
        m, power = 1, g
        while power not in span:
            power = bundle.mult(power, g)
            m += 1
        new_partial = []
        for chi in partial:
            anchor = chi[power]  # value forced on g^m
            for j in range(m):
                v = Phase(anchor.num + j * anchor.den, anchor.den * m)   # (anchor + j) / m
                ext = dict(chi)
                cur = e
                val = ZERO
                for _ in range(m):
                    for s, ps in chi.items():
                        ext[bundle.mult(s, cur)] = ps + val
                    cur = bundle.mult(cur, g)
                    val = val + v
                new_partial.append(ext)
        partial = new_partial
        span = set(partial[0])
    return [Character.from_table(x, chi) for chi in partial]


def dual_bundle(bundle: GroupBundle) -> CharacterBundle:
    """Pontryagin dual of a finite abelian group bundle."""
    for x in bundle.base:
        fibre = bundle.fibre(x)
        if len(fibre) > FIBRE_CAP:
            raise FibreTooLarge(f"fibre at {x} has order {len(fibre)}")
        for a, b in itertools.combinations(fibre, 2):
            if bundle.mult(a, b) != bundle.mult(b, a):
                raise NotAbelian(f"fibre at {x} is not abelian: ({a}, {b})")
    fibres = {x: _enumerate_fibre_characters(bundle, x) for x in bundle.base}
    dual = CharacterBundle(bundle, fibres)
    _verify_dual(bundle, dual)
    return dual


def _verify_dual(bundle: GroupBundle, dual: CharacterBundle):
    for x in bundle.base:
        fibre = bundle.fibre(x)
        chars = dual.fibres[x]
        if len(chars) != len(fibre):
            raise DualityFailure(("character count", x, len(chars), len(fibre)))
        if len(set(chars)) != len(chars):
            raise DualityFailure(("duplicate characters", x))
        for chi in chars:
            values = dict(chi.values)
            for a, b in itertools.product(fibre, fibre):
                if values[bundle.mult(a, b)] != values[a] + values[b]:
                    raise DualityFailure(("not multiplicative", x, dual.char_id[chi], a, b))
        # nondegeneracy: only the trivial character kills everything, and
        # only the identity is killed by every character
        for chi in chars:
            if all(chi.value(a).is_zero for a in fibre) and not chi.is_trivial:
                raise DualityFailure(("degenerate character", x, dual.char_id[chi]))
        for a in fibre:
            if a != bundle.identity[x] and all(chi.value(a).is_zero for chi in chars):
                raise DualityFailure(("degenerate element", x, a))


def double_dual_iso(bundle: GroupBundle):
    """The canonical evaluation map into the double dual.

    Returns (dual, double_dual, eval_map) with eval_map: element id ->
    Character of the dual fibre; verified bijective and multiplicative.
    """
    dual = dual_bundle(bundle)
    ddual = dual_bundle(dual.to_bundle())
    eval_map = {}
    for x in bundle.base:
        for a in bundle.fibre(x):
            table = {dual.char_id[chi]: chi.value(a) for chi in dual.fibres[x]}
            eval_map[a] = Character.from_table(x, table)
    # bijective fibrewise
    for x in bundle.base:
        images = {eval_map[a] for a in bundle.fibre(x)}
        if images != set(ddual.fibres[x]):
            raise DualityFailure(("evaluation map not bijective", x))
        for a, b in itertools.product(bundle.fibre(x), bundle.fibre(x)):
            if eval_map[bundle.mult(a, b)] != ddual.multiply(eval_map[a], eval_map[b]):
                raise DualityFailure(("evaluation map not multiplicative", x, a, b))
    return dual, ddual, eval_map
