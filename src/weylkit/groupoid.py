"""Finite groupoids: validation, subgroupoid analysis, gradings, quotients.

A groupoid is stored extensionally: a finite set of arrow ids, source/target
maps into the unit set, a compose table defined exactly on composable pairs
(x*y needs s(x) = r(y)), and a total inverse map.  Units are themselves
arrows (their own source and target), so subgroupoids automatically carry
the units they touch.  Everything is immutable after validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    MissingComposite,
    NotAbelian,
    NotBundle,
    NotHomomorphism,
    NotNormal,
    SchemaError,
    UnknownArrowId,
)

MAX_ARROWS = 4096
FIBRE_CAP = 256
# Largest integer an int64 table may hold: a common phase denominator, a
# cyclic order or a grading entry.  Four such magnitudes sum below 2**63.
MAX_TABLE_INT = 2**60


class FiniteGroupoid:
    """A validated finite groupoid.  Construct via :func:`validate_groupoid`.

    The compose array (``comp_matrix()``) is the groupoid.  ``compose`` is
    the same table as a read-only mapping keyed by (g, h), built on first read.
    """

    def __init__(self, name, units, src, tgt, inverse):
        self.name = name
        self.units = tuple(sorted(units))
        self.arrows = tuple(sorted(src))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.inverse = dict(inverse)
        self.index = arrow_index(self.arrows)
        self._unit_set = frozenset(self.units)
        self._compose = self._gens = None
        # set by the validation: the endpoint, compose and inverse index arrays, and
        # g * len(arrows) + h, int32, for the composable pairs (g, h) in compose order
        self._ends = self._comp = self._inv = self._pairs = None

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        return f"<FiniteGroupoid {self.name}: {len(self.units)} units, {len(self.arrows)} arrows>"

    @property
    def compose(self) -> Mapping:
        """(g, h) -> g*h on the composable pairs, read-only, in the order the table was given."""
        if self._compose is None:
            gi, hi = self.pair_indices()
            ids = self.arrows
            keys = zip(map(ids.__getitem__, gi.tolist()), map(ids.__getitem__, hi.tolist()))
            self._compose = MappingProxyType(dict(zip(keys, map(ids.__getitem__, self._comp[gi, hi].tolist()))))
        return self._compose

    def pair_indices(self):
        """(g, h) arrow-index arrays of the composable pairs, in ``compose`` order."""
        return np.divmod(self._pairs, len(self.arrows))

    def is_unit(self, g):
        return g in self._unit_set

    def _defined(self, g, h) -> bool:
        """Whether (g, h) is a composable pair of arrows of this groupoid."""
        s = self.src.get(g)
        return s is not None and s == self.tgt.get(h)

    def mul(self, g, h):
        k = self._comp.item(self.index[g], self.index[h])
        if k < 0:
            raise KeyError((g, h))
        return self.arrows[k]

    def inv(self, g):
        return self.inverse[g]

    # dense integer tables for the vectorized exact checks, built once by the validation and read-only
    def comp_matrix(self):
        """Arrow indices of g*h at [index g, index h], -1 off the composable pairs."""
        return self._comp

    def inverse_indices(self):
        """Arrow index of the inverse of each arrow, in index order."""
        return self._inv

    def endpoint_indices(self):
        """(source, target): the arrow indices of each arrow's endpoints, in index order."""
        return self._ends

    def generators(self):
        """Arrow indices whose composable products give every arrow.

        Greedy, hence deterministic: the non-unit arrows in index order,
        then the units, each taken when it is not yet in the product
        closure of the generators chosen so far.  The closure is taken from
        the generators alone, so a unit is a generator only when no product
        g*g^-1 of the others reaches it, as in a groupoid of units alone.
        Built once, read-only, in the order chosen.
        """
        if self._gens is None:
            covered = np.zeros(len(self.arrows), dtype=bool)
            gens = []
            # units are their own source: they sort last, each part in index order
            for g in np.argsort(self._ends[0] == np.arange(len(self.arrows)), kind="stable").tolist():
                if not covered[g]:
                    gens.append(g)
                    product_closure(self, covered, np.array([g]))
            self._gens = np.array(gens, dtype=np.int64)
            self._gens.setflags(write=False)
        return self._gens


def product_closure(G: FiniteGroupoid, covered: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Close the mask ``covered``, closed but for the arrow indices ``new``, under products, in place."""
    comp, n = G.comp_matrix(), len(covered)
    covered[new] = True
    while new.size:   # the new arrows times every covered arrow, on both sides; -1 lands in the last slot
        old = covered.nonzero()[0]
        reached = np.zeros(n + 1, dtype=bool)
        reached[comp[new[:, None], old]] = True
        reached[comp[old[:, None], new]] = True
        new = (reached[:n] > covered).nonzero()[0]
        covered[new] = True
    return covered


def noncommuting_pair(G: FiniteGroupoid, m: np.ndarray):
    """The first pair of arrow indices in ``combinations(m, 2)`` with gh defined and hg != gh, or None."""
    sub = G.comp_matrix()[np.ix_(m, m)]
    bad = np.triu((sub >= 0) & (sub != sub.T), 1)
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(m[i]), int(m[j])


@dataclass(frozen=True)
class Subgroupoid:
    parent: FiniteGroupoid
    members: frozenset


def isotropy_fibres(G: FiniteGroupoid, members: Iterable) -> dict:
    """The isotropy members at each unit of G: unit -> sorted tuple."""
    fibres = {u: [] for u in G.units}
    for g in sorted(members):
        if G.src[g] == G.tgt[g]:
            fibres[G.src[g]].append(g)
    return {u: tuple(fs) for u, fs in fibres.items()}


@dataclass(frozen=True)
class Grading:
    """Homomorphism c: G -> Gamma into a finite list of cyclic factors.

    A factor order of 0 denotes an infinite cyclic factor.
    """

    group: tuple
    values: Mapping

    def normalize(self, v):
        return tuple(x % n if n else x for x, n in zip(v, self.group))

    def value(self, g):
        return self.normalize(tuple(self.values[g]))


def _first(mask, order):
    """Arrow indices of the first True entry of ``mask``, axes read in ``order``."""
    hit = np.argwhere(mask[np.ix_(*[order] * mask.ndim)])[0]
    return tuple(int(order[i]) for i in hit)


def _check_associativity(G: FiniteGroupoid):
    """(ab)c = a(bc) for every composable triple, with b over ``G.generators()``.

    Light's test: the middles b that pass for all a and c are closed under
    composable products, since a(b1 b2)c can be rebracketed one generator at
    a time, so checking the generators checks every middle.
    """
    comp = G.comp_matrix()
    for b in G.generators():
        a = (comp[:, b] >= 0).nonzero()[0]
        c = (comp[b] >= 0).nonzero()[0]
        bad = comp[comp[a, b][:, None], c] != comp[a[:, None], comp[b, c]]
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise AssociativityViolation(G.arrows[a[i]], G.arrows[b], G.arrows[c[k]])


def arrow_index(arrows: Iterable) -> dict:
    """Arrow id -> arrow index: its position in sorted order, as in the groupoid's ``index``."""
    return {g: i for i, g in enumerate(sorted(arrows))}


def arrow_indices(index: Mapping, ids, count: int) -> np.ndarray:
    """The int64 indices of the ``count`` ids of the sequence ``ids``, -1 for an id not in ``index``."""
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), dtype=np.int64, count=count)


def _arrow_set(units: Iterable, arrows: Mapping, name: str):
    """The groupoid's units, arrows and endpoint indices, checked, before its compose table is set."""
    units = sorted(set(units))
    src = {g: st[0] for g, st in arrows.items()}
    tgt = {g: st[1] for g, st in arrows.items()}
    if len(src) > MAX_ARROWS:
        raise SchemaError(f"too many arrows ({len(src)} > {MAX_ARROWS})")
    unit_set = set(units)
    for u in units:
        if u not in src:
            raise DanglingUnit(u, "unit is not an arrow")
        if src[u] != u or tgt[u] != u:
            raise DanglingUnit(u, "unit arrow must have source = target = itself")
    for g in src:
        if src[g] not in unit_set or tgt[g] not in unit_set:
            raise DanglingUnit(g, "arrow endpoint is not a declared unit")
    G = FiniteGroupoid(name, units, src, tgt, {})
    G._ends = tuple(arrow_indices(G.index, map(ends.__getitem__, G.arrows), len(src)) for ends in (src, tgt))
    for a in G._ends:
        a.setflags(write=False)
    return G


def _compose_table(G: FiniteGroupoid, gi, hi, ki, entry: Callable) -> np.ndarray:
    """The compose array of the entries (gi[j], hi[j]) -> ki[j], after the per-entry rules.

    Indices are arrow indices of G, -1 for an unknown id.  The first entry
    (in j order) with an unknown id, a non-composable key or a composite
    with the wrong endpoints raises; ``entry(j)`` gives its ids,
    ``((g, h), k)``.
    """
    s, t = G.endpoint_indices()
    # an unknown id, -1, reads the last arrow's endpoints: its entry is bad either way
    bad = (gi < 0) | (hi < 0) | (ki < 0)
    bad |= s[gi] != t[hi]
    bad |= s[ki] != s[hi]
    bad |= t[ki] != t[gi]
    if bad.any():
        (g, h), k = entry(int(np.argmax(bad)))
        for a in (g, h, k):
            if a not in G.src:
                raise UnknownArrowId(a)
        if G.src[g] != G.tgt[h]:
            raise SchemaError(f"compose entry ({g}, {h}) is not a composable pair")
        raise SchemaError(f"compose entry ({g}, {h}) -> {k} breaks source/target rules")
    n = len(G.arrows)
    comp = np.full((n, n), -1, dtype=np.int32)
    comp[gi, hi] = ki
    return comp


def validate_groupoid(
    units: Iterable,
    arrows: Mapping,
    compose: Mapping,
    inverse: Optional[Mapping] = None,
    name: str = "G",
) -> FiniteGroupoid:
    """Validate a groupoid description and return the immutable groupoid.

    ``arrows`` maps arrow id -> (source unit, target unit); units must appear
    as arrows with source = target = themselves.  ``compose`` must cover
    exactly the composable pairs.  ``inverse`` is derived from the compose
    table when omitted.  The checks run on the compose array (see
    :func:`validate_arrays`); ``G.compose`` is built from it on first read,
    in the order of ``compose``.
    """
    index, m = arrow_index(arrows), len(compose)
    gi, hi = arrow_indices(index, list(itertools.chain.from_iterable(compose)), 2 * m).reshape(m, 2).T
    ki = arrow_indices(index, list(compose.values()), m)
    entry = lambda j: next(itertools.islice(compose.items(), j, None))
    return validate_arrays(units, arrows, gi, hi, ki, entry, inverse, name)


def validate_arrays(
    units: Iterable,
    arrows: Mapping,
    gi: np.ndarray,
    hi: np.ndarray,
    ki: np.ndarray,
    entry: Callable,
    inverse: Optional[Mapping] = None,
    name: str = "G",
) -> FiniteGroupoid:
    """Validate a groupoid whose compose table is given as index arrays: gi[j] * hi[j] = ki[j].

    Indices are those of :func:`arrow_index` on ``arrows``, -1 for an
    unknown id; ``entry(j)`` gives the ids of entry j, ``((g, h), k)``.
    The entries' order is the order of ``G.compose``, which is built from
    the arrays on first read.  The checks run on the compose array, which
    becomes ``comp_matrix()``; each failure names the first witness in the
    order of ``arrows`` (in j order for the per-entry rules).
    """
    G = _arrow_set(units, arrows, name)
    G._pairs = (gi * len(G.arrows) + hi).astype(np.int32)
    return _validate_table(G, _compose_table(G, gi, hi, ki, entry), inverse)


def _validate_table(G: FiniteGroupoid, comp: np.ndarray, inverse: Optional[Mapping]):
    """The groupoid laws on a compose array that passed the per-entry rules.

    ``comp`` becomes G's ``comp_matrix()``, and the inverse index array its
    ``inverse_indices()``.  Each failure names the first witness in the
    caller's arrow order.
    """
    # arrow indices in the caller's order
    order = np.fromiter(map(G.index.__getitem__, G.src), np.int64, len(G.arrows))
    s, t = G.endpoint_indices()
    ar = np.arange(len(G.arrows))
    missing = (s[:, None] == t[None, :]) & (comp < 0)
    if missing.any():
        g, h = _first(missing, order)
        raise MissingComposite(G.arrows[g], G.arrows[h])

    # two-sided identity behavior of units
    bad = (comp[t, ar] != ar) | (comp[ar, s] != ar)
    if bad.any():
        (g,) = _first(bad, order)
        raise DanglingUnit(G.arrows[s[g]], f"unit fails to act as identity on {G.arrows[g]}")

    comp.setflags(write=False)
    G._comp = comp
    _check_associativity(G)

    if inverse is None:
        # h is a two-sided inverse of g iff h*g = s(g) and g*h = t(g);
        # take the first in the caller's order, at position ``first``
        rank = np.empty_like(order)
        rank[order] = ar
        two_sided = (comp.T == s[:, None]) & (comp == t[:, None])
        first = np.where(two_sided, rank, len(ar)).min(axis=1, initial=len(ar))
        if (first == len(ar)).any():
            (g,) = _first(first == len(ar), order)
            raise BadInverse(G.arrows[g], "no two-sided inverse in the compose table")
        inv = order[first]
        G.inverse.update((G.arrows[g], G.arrows[inv[g]]) for g in order)
    else:
        inv = np.array([G.index.get(inverse.get(g), -1) for g in G.arrows], dtype=np.int64)
        h = np.maximum(inv, 0)
        bad = (inv < 0) | (comp[h, ar] != s) | (comp[ar, h] != t)
        if bad.any():
            (g,) = _first(bad, order)
            if inv[g] < 0:
                raise BadInverse(G.arrows[g], "missing from inverse map")
            raise BadInverse(G.arrows[g], "declared inverse fails the inverse laws")
        G.inverse.update(inverse)
    bad = inv[inv] != ar
    if bad.any():
        (g,) = _first(bad, order)
        raise BadInverse(G.arrows[g], "inverse is not an involution")
    inv.setflags(write=False)
    G._inv = inv
    return G


def build_groupoid(
    units: Iterable,
    arrows: Mapping,
    mul: Callable,
    name: str = "G",
) -> FiniteGroupoid:
    """Validate the compose table of ``mul``, called on the composable pairs in ``arrows`` order."""
    ids, code = list(arrows), {}
    # each source as a small int, in order of first appearance; -1 for a target that is no source
    s = np.fromiter((code.setdefault(st[0], len(code)) for st in arrows.values()), np.int64, len(ids))
    t = np.fromiter((code.get(st[1], -1) for st in arrows.values()), np.int64, len(ids))
    gi, hi = (s[:, None] == t[None, :]).nonzero()
    pairs = zip(map(ids.__getitem__, gi.tolist()), map(ids.__getitem__, hi.tolist()))
    compose = {(g, h): mul(g, h) for g, h in pairs}
    return validate_groupoid(units, arrows, compose, name=name)


@dataclass
class PropertyReport:
    is_subgroupoid: bool
    is_wide: bool
    is_group_bundle: bool
    fibres_abelian: bool
    is_normal: bool
    witnesses: dict = field(default_factory=dict)


def subgroupoid_properties(G: FiniteGroupoid, members: Iterable) -> PropertyReport:
    """Flags for a subset of arrows: subgroupoid, wide, bundle, abelian, normal.

    Each clause is one expression on the compose array.  Each witness is the first in
    ``G.arrows`` order: by member, by row of products, and by (arrow, member) for normality.
    """
    S = frozenset(members)
    unknown = S.difference(G.src)
    if unknown:
        raise UnknownArrowId(min(unknown, key=str))
    comp, inv, (s, t) = G.comp_matrix(), G.inverse_indices(), G.endpoint_indices()
    in_S = np.zeros(len(G.arrows), dtype=bool)
    in_S[arrow_indices(G.index, S, len(S))] = True
    m = in_S.nonzero()[0]
    ids = G.arrows
    wit = {}

    no_inv, no_unit = ~in_S[inv[m]], ~(in_S[s[m]] & in_S[t[m]])
    closed = not (no_inv | no_unit).any()
    if not closed:
        i = int(np.argmax(no_inv | no_unit))
        wit["subgroupoid"] = ("inverse" if no_inv[i] else "unit", ids[m[i]])
    else:
        prods = comp[np.ix_(m, m)]
        escapes = (prods >= 0) & ~in_S[prods]
        if escapes.any():
            closed = False
            i, j = np.argwhere(escapes)[0]
            wit["subgroupoid"] = ("compose", ids[m[i]], ids[m[j]])

    wide = set(G.units) <= S
    loops = s[m] == t[m]
    bundle = bool(loops.all())
    if not bundle:
        wit["bundle"] = ids[m[np.argmin(loops)]]

    abelian = True
    if bundle:
        pair = noncommuting_pair(G, m)
        if pair is not None:
            abelian, wit["abelian"] = False, (ids[pair[0]], ids[pair[1]])

    # g^-1 a g for every arrow g and isotropy member a at r(g)
    a = m[loops]
    at = t[:, None] == t[a][None, :]
    left = np.where(at, comp[inv[:, None], a[None, :]], 0)
    moved = ~in_S[comp[left, np.arange(len(ids))[:, None]]] & at
    normal = not moved.any()
    if not normal:
        g, j = np.argwhere(moved)[0]
        wit["normal"] = (ids[g], ids[a[j]])

    return PropertyReport(closed, wide, bundle, abelian, normal, wit)


def grading_table(G: FiniteGroupoid, c: Grading) -> np.ndarray:
    """c on G as its normalised value array: row i is ``c.value(G.arrows[i])``, int64.

    A grading with a negative order, that misses an arrow, or has a vector
    of the wrong length or an entry beyond ``MAX_TABLE_INT`` raises
    SchemaError.  Whether c is a homomorphism is not checked.
    """
    orders = list(c.group)
    if any(n < 0 for n in orders):
        raise SchemaError(f"grading orders must be nonnegative, got {orders}")
    try:
        rows = [c.values[g] for g in G.arrows]
        malformed = set(map(len, rows)) != {len(orders)}
    except KeyError:
        malformed = True
    if malformed:       # name the first arrow at fault
        for g in G.arrows:
            if g not in c.values:
                raise SchemaError(f"grading has no value on arrow {g!r}")
            if len(c.values[g]) != len(orders):
                raise SchemaError(f"grading value on arrow {g!r} does not have {len(orders)} entries")
    if max(map(abs, itertools.chain(orders, *rows)), default=0) > MAX_TABLE_INT:
        # within the bound once reduced, as ``Grading.value`` reduces them, or refused
        rows = list(map(c.value, G.arrows))
        if any(abs(x) > MAX_TABLE_INT for row in rows + [orders] for x in row):
            raise SchemaError(f"grading orders and values must lie within {MAX_TABLE_INT} in size")
    values = np.array(rows, dtype=np.int64).reshape(len(G.arrows), len(orders))
    orders = np.array(orders, dtype=np.int64)
    finite = orders > 0
    values[:, finite] %= orders[finite]
    return values


def validate_grading(G: FiniteGroupoid, c: Grading) -> np.ndarray:
    """Check that c is a homomorphism on G; returns its normalised value array.

    Row i of the int64 array is c of ``G.arrows[i]``; a malformed grading
    raises SchemaError, as in :func:`grading_table`.  A unit graded nonzero, or the
    first composable pair (in ``G.compose`` order) with c(gh) != c(g) + c(h),
    raises NotHomomorphism.
    """
    values = grading_table(G, c)
    orders = np.array(c.group, dtype=np.int64)
    finite = orders > 0
    s = G.endpoint_indices()[0]
    graded_units = np.flatnonzero((s == np.arange(len(s))) & values.any(axis=1))
    if len(graded_units):
        u = G.arrows[graded_units[0]]
        raise NotHomomorphism((u, u))

    comp = G.comp_matrix()
    defined = comp >= 0
    total = values[:, None, :] + values[None, :, :]
    total = np.where(finite, total % np.where(finite, orders, 1), total)
    bad = defined & (total != values[np.where(defined, comp, 0)]).any(axis=2)
    if bad.any():
        gi, hi = G.pair_indices()
        j = int(np.argmax(bad[gi, hi]))
        raise NotHomomorphism((G.arrows[gi[j]], G.arrows[hi[j]]))
    return values


def kernel_of_grading(G: FiniteGroupoid, c: Grading) -> Subgroupoid:
    """The wide subgroupoid of arrows graded zero."""
    zero = ~validate_grading(G, c).any(axis=1)
    return Subgroupoid(G, frozenset(g for g, z in zip(G.arrows, zero) if z))


def quotient_by_bundle(G: FiniteGroupoid, members: Iterable):
    """Quotient G by a wide normal abelian group bundle S inside Iso(G).

    Returns (quotient groupoid, class map arrow -> class id).  Class ids are
    the lexicographically least member of each class.
    """
    S = frozenset(members)
    rep = subgroupoid_properties(G, S)
    if not (rep.is_subgroupoid and rep.is_wide and rep.is_group_bundle):
        raise NotBundle(f"marked subgroupoid is not a wide group bundle: {rep.witnesses}")
    if not rep.fibres_abelian:
        raise NotAbelian(f"bundle fibres are not abelian: {rep.witnesses}")
    if not rep.is_normal:
        raise NotNormal(f"bundle is not normal: {rep.witnesses}")

    # row g is the coset gS: g times each member of S, -1 off the fibre at s(g)
    cosets = G.comp_matrix()[:, arrow_indices(G.index, S, len(S))]
    return orbit_quotient(G, cosets, name=f"{G.name}/S", error=NotNormal)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of the index table ``rows`` as a set: sorted, a repeated entry read as the padding -1."""
    srt = np.sort(rows, axis=1)
    srt[:, 1:][srt[:, 1:] == srt[:, :-1]] = -1
    return np.sort(srt, axis=1)


class ClassMap(dict):
    """A class map, arrow id -> class id, with its index tables.

    ``of[i]`` is the class index, in the quotient, of the arrow of index i,
    and row c of ``members`` lists the arrow indices of the class of index
    c in increasing order, the class id first, padded with -1.  Both are
    read-only int64 arrays.
    """

    of: np.ndarray
    members: np.ndarray


def orbit_quotient(G: FiniteGroupoid, orbits: np.ndarray, name: str, error: type):
    """Quotient G by the partition of its arrows into orbits.

    Row g of the index table ``orbits`` lists the arrows identified with g,
    padded with -1.  Class ids are the least member of each orbit.  Classes
    are composed through representatives, the least member of c1 with
    source r(c2) times c2, as one gather; the composition is checked to
    descend on every composable pair at once.  A failure of either the
    partition or the descent raises ``error``, naming the first pair in
    ``G.compose`` order.  Returns (quotient groupoid, class map arrow -> class id),
    the class map a :class:`ClassMap`.
    """
    n, ids = len(G.arrows), G.arrows
    rows = distinct_rows(orbits)
    cls = np.where(rows >= 0, rows, n).min(axis=1, initial=n)
    # every member of a row has the row's class, and every row holds its whole class
    stray = (rows >= 0) & (np.append(cls, -1)[rows] != cls[:, None])
    if stray.any() or ((rows >= 0).sum(axis=1) != np.bincount(cls, minlength=n + 1)[cls]).any():
        raise error("orbits do not partition the arrow set")

    cids, q = np.unique(cls, return_inverse=True)   # the class ids, and the class index of each arrow
    s, t = G.endpoint_indices()
    qs, qt = q[s[cids]], q[t[cids]]
    # m * c2 where the class of m composes with c2; the least such m of each class
    prod = G.comp_matrix()[:, cids]
    m, c2 = ((prod >= 0) & (qs[q][:, None] == qt)).nonzero()
    key, first = np.unique(q[m] * len(cids) + c2, return_index=True)
    (gi, hi), ki = np.divmod(key, len(cids)), q[prod[m[first], c2[first]]]
    arrows = {ids[c]: (ids[cids[a]], ids[cids[b]]) for c, a, b in zip(cids.tolist(), qs.tolist(), qt.tolist())}

    def entry(j):
        return (ids[cids[gi[j]]], ids[cids[hi[j]]]), ids[cids[ki[j]]]

    Q = validate_arrays(set(map(ids.__getitem__, cls[s].tolist())), arrows, gi, hi, ki, entry, name=name)
    # the class of g*h against the product of the classes, on every composable pair at once
    gi, hi = G.pair_indices()
    bad = q[G.comp_matrix()[gi, hi]] != Q.comp_matrix()[q[gi], q[hi]]
    if bad.any():
        j = int(np.argmax(bad))
        g, h = G.arrows[gi[j]], G.arrows[hi[j]]
        raise error(f"quotient composition depends on representatives: ({g}, {h})")
    class_map = ClassMap(zip(ids, map(ids.__getitem__, cls.tolist())))
    # each class's row, its members sorted with the padding last
    members = np.sort(np.where(rows[cids] >= 0, rows[cids], n), axis=1)
    members[members == n] = -1
    class_map.of, class_map.members = q, members
    for a in (q, members):
        a.setflags(write=False)
    return Q, class_map
