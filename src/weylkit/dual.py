"""Pontryagin duality for finite abelian group bundles.

Each fibre of a :class:`CharacterBundle` is one :class:`CharacterTable`:
entry [i, j] is character i at element j, a numerator over the fibre's
exponent.  Columns follow the sorted element ids, rows the characters in
lexicographic order of their values, so row 0 is the trivial character,
with id "<base>#0".  The fibre's product, the product of characters and the
inverse are index tables; the last two are built on first read.  A
:class:`Character` is the read-only view of one row, for io, the reports
and the tests, and a bundle's views are built on first read too.

A :class:`GroupBundle` holds one product table per fibre, in the format of
``CharacterTable.product``; a subgroupoid's is gathered from its compose
table, and the unit bundle of a Weyl groupoid reuses the character tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DualityFailure, FibreTooLarge, NotAbelian, UnknownArrowId
from .groupoid import FIBRE_CAP, FiniteGroupoid, arrow_indices, isotropy_fibres
from .phases import Phase

# Entries of one multiplicativity gather, rows * m * m: 8 MB of int64 at most,
# where the whole (m, m, m) gather at m = FIBRE_CAP would take 134 MB.
_GATHER = 2**20


@dataclass(frozen=True)
class GroupBundle:
    """A disjoint union of finite groups, one fibre per base point."""

    base: tuple
    fibres: Mapping            # base point -> tuple of element ids
    p: Mapping                 # element id -> base point
    product: Mapping           # base point -> [i, j]: position in the fibre of its i-th times j-th element, or -1
    identity: Mapping          # base point -> identity element id


def bundle_from_subgroupoid(G: FiniteGroupoid, members) -> GroupBundle:
    """View a group-bundle subgroupoid (all members isotropy) as a GroupBundle, checked in arrow-index order."""
    S = sorted(set(members))
    for g in S:
        if g not in G.src:
            raise UnknownArrowId(g)
        if G.src[g] != G.tgt[g]:
            raise NotAbelian(f"member {g} is not isotropy")
    fibres, units, comp = isotropy_fibres(G, S), G.units, G.comp_matrix()
    # a product of two members at u lies at u, so one position array serves every block
    position, product = np.full(len(G.arrows) + 1, -1), {}
    for k, c in size_blocks(np.fromiter(map(len, fibres.values()), np.int64, len(units)), np.square):
        at = units[c] if isinstance(c, slice) else [units[u] for u in c.tolist()]
        f = arrow_indices(G.index, [g for u in at for g in fibres[u]], len(at) * k).reshape(len(at), k)
        position[f] = np.arange(k)
        block = position[comp[f[:, :, None], f[:, None, :]]]
        product.update(zip(at, block))
    return GroupBundle(tuple(units), fibres, {g: G.src[g] for g in S}, product, {u: u for u in units})


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

    @functools.cached_property
    def is_trivial(self) -> bool:
        return all(ph.is_zero for _, ph in self.values)

    @staticmethod
    def from_table(unit, table: Mapping) -> "Character":
        return Character(unit, tuple(sorted(table.items())))


class CharacterTable:
    """The characters of the fibre of a GroupBundle at one base point, as integer tables.

    Column j is element ``elements[j]`` (sorted ids; ``column`` inverts it),
    and ``mul`` holds the column of a*b at [column a, column b].  Row i of
    ``values`` is the character "<base>#i" as numerators over ``exponent``,
    the least n with a^n = 1 for all a.  ``product[i, j]`` and ``inverse[i]``
    are rows, built on first read.
    """

    def __init__(self, bundle: GroupBundle, x):
        fibre, mul = bundle.fibres[x], bundle.product[x]
        if len(fibre) > FIBRE_CAP:
            raise FibreTooLarge(f"fibre at {x} has order {len(fibre)}")
        self.base, self.elements, m = x, tuple(sorted(fibre)), len(fibre)
        self.column = column = {a: j for j, a in enumerate(self.elements)}
        self.ids = tuple(f"{x}#{i}" for i in range(m))
        if m == 1:      # the trivial group, with its one character, once u * u = u is the identity
            if self.elements[0] != bundle.identity[x] or mul.item(0, 0) != 0:
                raise DualityFailure(("fibre is not a group", x))
            self.mul, self.values = np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
            self.identity, self.exponent = 0, 1
            return
        if self.elements != fibre:      # the table to sorted order, -1 staying -1
            order = sorted(range(m), key=fibre.__getitem__)
            mul = np.append(np.argsort(order), -1)[mul[np.ix_(order, order)]]
        self.mul = mul
        if (mul != mul.T).any():
            i, j = np.argwhere(np.triu(mul != mul.T, 1))[0]
            raise NotAbelian(f"fibre at {x} is not abelian: ({self.elements[i]}, {self.elements[j]})")
        self.identity = column.get(bundle.identity[x], -1)
        if self.identity < 0 or (mul < 0).any():
            raise DualityFailure(("fibre is not a group", x))
        power, self.exponent = np.arange(m), 1
        while (power != self.identity).any():
            power, self.exponent = mul[power, np.arange(m)], self.exponent + 1
        self.values = self.check(self._characters())

    @functools.cached_property
    def _rows(self) -> dict:
        """The row of each character, keyed by the bytes of its values."""
        return {row: i for i, row in enumerate(map(bytes, self.values))}

    @functools.cached_property
    def product(self) -> np.ndarray:
        """The row of the product of characters i and j at [i, j]."""
        m, e = len(self.elements), self.exponent
        step = max(1, _GATHER // (m * m))
        products = ((self.values[lo:lo + step, None] + self.values[None]) % e for lo in range(0, m, step))
        return np.concatenate([self.rows_of(p, e) for p in products]).reshape(m, m)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """The row of the inverse of each character: the one trivial product in each row."""
        return self.product.argmin(axis=1)

    def _characters(self) -> np.ndarray:
        """All homomorphisms to Q/Z as numerator rows, extending partial ones one generator g at a time.

        With r least such that g^r lies in the span so far, chi(g) = v needs
        r v = chi(g^r), which has r solutions, and chi(s g^i) = chi(s) + i v.
        """
        e, mul = self.exponent, self.mul
        rows, span = np.zeros((1, len(mul)), dtype=np.int64), np.array([self.identity])
        for g in range(len(mul)):
            if g in span:
                continue
            steps, p = [self.identity], g          # g^0, ..., g^(r-1), then p = g^r
            while p not in span:
                steps.append(p)
                p = mul[p, g]
            r = len(steps)
            v = (rows[:, p, None] + e * np.arange(r)) // r      # every chi(g) per partial character
            cells = mul[span[:, None], steps]                  # s g^i at [s, i]
            rows = np.repeat(rows, r, axis=0)
            rows[:, cells] = (rows[:, span, None] + v.reshape(-1, 1, 1) * np.arange(r)) % e
            span = cells.ravel()
        return rows

    def check(self, values) -> np.ndarray:
        """``values`` in sorted order, checked to be all the characters of the fibre.

        They must be as many as the elements, distinct, multiplicative and
        separating the elements; DualityFailure names the first witness.
        """
        x, m, e = self.base, len(self.elements), self.exponent
        values = np.asarray(values, dtype=np.int64)
        values = values[np.lexsort(values.T[::-1])]
        if len(values) != m:
            raise DualityFailure(("character count", x, len(values), m))
        if (values[1:] == values[:-1]).all(axis=1).any():
            raise DualityFailure(("duplicate characters", x))
        step = max(1, _GATHER // (m * m))
        for lo in range(0, m, step):       # chi(ab) = chi(a) + chi(b), a block of rows at a time
            block = values[lo:lo + step]
            bad = block[:, self.mul] != (block[:, :, None] + block[:, None, :]) % e
            if bad.any():
                i, a, b = np.argwhere(bad)[0]
                a, b = self.elements[a], self.elements[b]
                raise DualityFailure(("not multiplicative", x, f"{x}#{lo + i}", a, b))
        killed = ~values.any(axis=0)       # only the identity is killed by every character
        killed[self.identity] = False
        if killed.any():
            raise DualityFailure(("degenerate element", x, self.elements[int(np.argmax(killed))]))
        return values

    def rows_of(self, nums, den: int) -> np.ndarray:
        """The row of each character with values ``nums[k]`` / ``den`` at the columns, -1 where none is.

        Numerators lie in [0, den), and den times the exponent fits in int64.
        """
        e = self.exponent
        nums = np.asarray(nums, dtype=np.int64).reshape(-1, len(self.elements))
        if den != e:     # to numerators over e, or -1s, which match no row
            up, down = math.lcm(den, e) // den, math.lcm(den, e) // e
            nums = np.where((nums * up % down == 0).all(axis=1, keepdims=True), nums * up // down, -1)
        keys = map(bytes, np.ascontiguousarray(nums))
        return np.array([self._rows.get(k, -1) for k in keys], dtype=np.int64)

    @functools.cached_property
    def pairing(self) -> list:
        """e^{2 pi i chi(a)} at [row chi][column a], as Python complex numbers, built on first read."""
        return np.exp(2j * np.pi * (self.values / self.exponent)).tolist()


class CharacterBundle:
    """The dual of a GroupBundle: one CharacterTable per base point.

    ``fibres[x]`` lists the characters over x as :class:`Character` views in
    row order; ``char_id`` and ``by_id`` translate between views and ids,
    and ``position`` sends an id to its (base point, row).  Each is built
    on first read.
    """

    def __init__(self, bundle: GroupBundle, tables: Mapping):
        self.bundle, self.base, self.tables = bundle, bundle.base, dict(tables)

    @functools.cached_property
    def fibres(self) -> dict:
        fibres = {}
        for x in self.base:
            t = self.tables[x]
            phases = [Phase(k, t.exponent) for k in range(t.exponent)]
            fibres[x] = tuple(Character(x, tuple(zip(t.elements, map(phases.__getitem__, row))))
                              for row in t.values.tolist())
        return fibres

    @functools.cached_property
    def char_id(self) -> dict:
        return {chi: cid for x in self.base for chi, cid in zip(self.fibres[x], self.tables[x].ids)}

    @functools.cached_property
    def by_id(self) -> dict:
        return {cid: chi for x in self.base for cid, chi in zip(self.tables[x].ids, self.fibres[x])}

    @functools.cached_property
    def position(self) -> dict:
        return {cid: (x, i) for x in self.base for i, cid in enumerate(self.tables[x].ids)}


def size_blocks(sizes: np.ndarray, cost: Callable):
    """(k, at) for each size k in ``sizes``: the indices i with sizes[i] = k, increasing,
    in blocks of at most ``_GATHER // cost(k)`` (at least one), so that a gather of cost(k)
    entries per index stays within one block's budget.  A block is a slice when every
    size is k, and an index array otherwise.
    """
    distinct = set(sizes.tolist())
    for k in sorted(distinct):
        step = max(1, _GATHER // max(1, cost(k)))
        if len(distinct) == 1:
            yield from ((k, slice(lo, lo + step)) for lo in range(0, len(sizes), step))
        else:
            at = np.flatnonzero(sizes == k)
            yield from ((k, at[lo:lo + step]) for lo in range(0, len(at), step))


def stack(arrays: list, k: int) -> np.ndarray:
    """The arrays of length k in ``arrays`` stacked at their positions in the list, zeros at the others."""
    if all(len(a) == k for a in arrays):
        return np.array(arrays)
    first = next(a for a in arrays if len(a) == k)
    out = np.zeros((len(arrays), *first.shape), dtype=first.dtype)
    for i, a in enumerate(arrays):
        if len(a) == k:
            out[i] = a
    return out


def rows_in(nums: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The row of ``values[b]`` equal to ``nums[b, i]`` at every column, at [b, i]; -1 where none is.

    ``nums`` is (blocks, m, k) and ``values`` (blocks, rows, k), over one denominator per block.
    """
    hit = (nums[:, :, None, :] == values[:, None, :, :]).all(axis=3)
    return np.where(hit.any(axis=2), hit.argmax(axis=2), -1)


def dual_bundle(bundle: GroupBundle) -> CharacterBundle:
    """Pontryagin dual of a finite abelian group bundle."""
    return CharacterBundle(bundle, {x: CharacterTable(bundle, x) for x in bundle.base})
