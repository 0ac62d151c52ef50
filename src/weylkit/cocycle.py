"""2-cocycles with exact phase values, and the maximality check of a marked bundle.

A cocycle is its numerator table: one read-only int64 array of numerators
over one common denominator, built when the cocycle is made.  Every check
reads that table.  The cocycle condition is checked exactly on it, for
every composable triple whose middle argument is a generator of the
groupoid; that covers every composable triple.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import MutableMapping
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import SchemaError, SearchCapExceeded, UndefinedPair
from .groupoid import (
    FIBRE_CAP,
    MAX_TABLE_INT,
    FiniteGroupoid,
    arrow_indices,
    isotropy_fibres,
    kernel_of_grading,
    noncommuting_pair,
    product_closure,
)
from .phases import Phase

_BLOCK = 2**15      # entries of one block of rows of the cocycle identity


class TwoCocycle:
    """Phase-valued function on the composable pairs of a groupoid.

    The cocycle is its read-only numerator table, omega(g, h) = num[g, h]/den
    at arrow indices, built by every constructor.  Pairs absent from
    ``values``, a view of the table (see :class:`TableValues`), take the
    zero phase, so the trivial cocycle is the empty table.  A common
    denominator past ``MAX_TABLE_INT`` raises SchemaError, naming the entry.
    """

    def __init__(self, G: FiniteGroupoid, values: Optional[Mapping] = None):
        values = values or {}
        if not all(itertools.starmap(G._defined, values)):
            raise UndefinedPair(*next(pair for pair in values if not G._defined(*pair)))
        self._keep(G, *numerator_table(G, values))

    def _keep(self, G: FiniteGroupoid, num: np.ndarray, den: int) -> "TwoCocycle":
        self.G, self._num, self._den, self._values = G, num, den, None
        return self

    @classmethod
    def _from_codes(cls, G: FiniteGroupoid, gi, hi, codes, phases: list) -> "TwoCocycle":
        """The cocycle with value ``phases[codes[j]]`` at arrow indices (gi[j], hi[j]).

        The pairs must be composable.  The table is over the lcm of the
        denominators of ``phases``; when that passes ``MAX_TABLE_INT`` the
        first entry, in j order, that takes it there is named.
        """
        den = math.lcm(*(ph.den for ph in phases))
        if den > MAX_TABLE_INT:
            common_denominator((f"phase {phases[k]} at {(G.arrows[g], G.arrows[h])}", phases[k].den)
                               for g, h, k in zip(gi.tolist(), hi.tolist(), codes.tolist()))   # raises
        om = np.zeros((len(G.arrows), len(G.arrows)), dtype=np.int64)
        om[gi, hi] = np.array([ph.num * (den // ph.den) for ph in phases], dtype=np.int64)[codes]
        om.setflags(write=False)
        return cls.__new__(cls)._keep(G, om, den)

    @classmethod
    def from_table(cls, G: FiniteGroupoid, num: np.ndarray, den: int) -> "TwoCocycle":
        """The cocycle whose value at arrow indices [g, h] is num[g, h]/den.

        ``num`` holds numerators in [0, den), zero off the composable pairs.
        The cocycle's table is ``num`` reduced to the lcm of the
        denominators of its values.
        """
        gi, hi = num.nonzero()
        nums = num[gi, hi]
        distinct = sorted(set(nums.tolist()))
        codes = np.searchsorted(np.array(distinct, dtype=np.int64), nums)
        return cls._from_codes(G, gi, hi, codes, [Phase(v, den) for v in distinct])

    @property
    def values(self) -> "TableValues":
        return TableValues(self)

    def _spell(self) -> dict:
        """The pair -> Phase dict of the nonzero entries of the table, in index order, spelled once per table."""
        if self._values is None:
            gi, hi = self._num.nonzero()
            nums, code = np.unique(self._num[gi, hi], return_inverse=True)
            phases = [Phase(v, self._den) for v in nums.tolist()]
            ids = self.G.arrows
            pairs = zip(map(ids.__getitem__, gi.tolist()), map(ids.__getitem__, hi.tolist()))
            self._values = dict(zip(pairs, map(phases.__getitem__, code.tolist())))
        return self._values

    def omega(self, g, h) -> Phase:
        if not self.G._defined(g, h):
            raise UndefinedPair(g, h)
        return Phase(self._num.item(self.G.index[g], self.G.index[h]), self._den)

    def is_trivial(self) -> bool:
        return not self._num.any()

    def _int_table(self):
        """(read-only numerator array, compose matrix, common denominator)."""
        return self._num, self.G.comp_matrix(), self._den


class TableValues(MutableMapping):
    """The nonzero values of a cocycle, pair -> Phase, spelled from its table in arrow-index order.

    A write rebuilds the table at once, checked as by the constructor, so
    no reader sees a stale table.  It is no dict: unbound dict writes fail.
    """

    def __init__(self, omega: TwoCocycle):
        self._omega = omega

    def __getitem__(self, pair) -> Phase:
        return self._omega._spell()[pair]

    def __iter__(self):
        return iter(self._omega._spell())

    def __len__(self) -> int:
        return len(self._omega._spell())

    def __setitem__(self, pair, phase: Phase) -> None:
        omega = self._omega
        omega.__init__(omega.G, {**omega._spell(), pair: phase})

    def __delitem__(self, pair) -> None:
        values = dict(self._omega._spell())
        del values[pair]
        self._omega.__init__(self._omega.G, values)


def numerator_table(G: FiniteGroupoid, values: Mapping):
    """(read-only int64 array of numerators at [index g, index h], common denominator).

    A common denominator past ``MAX_TABLE_INT`` raises SchemaError naming
    the first entry, in ``values`` order, that takes it there.
    """
    den = math.lcm(*{ph.den for ph in values.values()})
    if den > MAX_TABLE_INT:
        common_denominator((f"phase {ph} at {k}", ph.den) for k, ph in values.items())   # raises, naming it
    n, m = len(G.arrows), len(values)
    gh = np.fromiter(map(G.index.__getitem__, itertools.chain.from_iterable(values)),
                     dtype=np.int64, count=2 * m).reshape(m, 2)
    om = np.zeros((n, n), dtype=np.int64)
    om[gh[:, 0], gh[:, 1]] = np.fromiter((ph.num * (den // ph.den) for ph in values.values()), np.int64, m)
    om.setflags(write=False)
    return om, den


def common_denominator(dens, den: int = 1) -> int:
    """The lcm of ``den`` and the denominators of the (label, denominator) pairs.

    Raises SchemaError naming the label of the first denominator that takes
    it past ``MAX_TABLE_INT``, so that numerator tables stay exact in int64.
    """
    for where, d in dens:
        den = math.lcm(den, d)
        if den > MAX_TABLE_INT:
            raise SchemaError(f"{where} takes the common denominator past {MAX_TABLE_INT}")
    return den


def check_defined_on(G: FiniteGroupoid, omega: TwoCocycle) -> None:
    """Raise SchemaError unless omega is defined on G: on G, or on the same arrows composed alike."""
    other = omega.G
    if other is not G and (other.arrows != G.arrows or not np.array_equal(other.comp_matrix(), G.comp_matrix())):
        raise SchemaError(f"cocycle is defined on {omega.G.name}, not on {G.name}")


def check_cocycle(G: FiniteGroupoid, omega: TwoCocycle, max_witnesses: int = 5):
    """Exact cocycle-condition check; returns a list of violating triples.

    An empty list means valid.  See :func:`cocycle_violations`.
    """
    check_defined_on(G, omega)
    om, _, den = omega._int_table()
    return cocycle_violations(G, om, den, max_witnesses)


def cocycle_violations(G: FiniteGroupoid, om: np.ndarray, den: int, max_witnesses: int = 5):
    """The violating triples of the numerators ``om`` in [0, den) at G's arrow indices.

    Unit-normalization failures (u, u, u) come first.  The condition
    d omega(a, b, c) = 0 is checked for every composable a and c, with the
    middle b over ``G.generators()``: by the coboundary identity
    d(d omega) = 0 on the quadruple (a, b1, b2, c), the middles that pass
    are closed under composable products.  Triples are listed in generator
    order, then in (a, c) index order, until there are ``max_witnesses``.

    One row per composable (a, b), b a generator, holds the c that compose
    with b, the arrows into s(b); the rows are checked in blocks of at most
    _BLOCK entries, gathered from the flattened tables.
    """
    n = len(G.arrows)
    s, t = G.endpoint_indices()
    units = np.flatnonzero(s == np.arange(n))
    violations = [(G.arrows[u],) * 3 for u in units[om[units, units] != 0].tolist()]
    comp, gens = G.comp_matrix(), G.generators()
    # the arrows into each unit, in index order, one row per unit padded with -1
    slot = np.searchsorted(units, t)
    order = np.argsort(slot, kind="stable")
    count = np.bincount(slot, minlength=len(units))
    into = np.full((len(units), count.max()), -1, dtype=np.int64)
    into[slot[order], np.arange(n) - (np.cumsum(count) - count)[slot[order]]] = order
    b, a = np.nonzero(comp[:, gens].T >= 0)         # b in generator order, then a in index order
    b = gens[b]
    into_sb = np.searchsorted(units, s[b])
    omf, compf = om.ravel(), comp.ravel()
    step = max(1, _BLOCK // into.shape[1])
    for lo in range(0, len(b), step):
        a_, b_ = a[lo:lo + step], b[lo:lo + step]
        c = into[into_sb[lo:lo + step]]
        at_bc = b_[:, None] * n + c
        # omega(b, c) - omega(ab, c) + omega(a, bc) - omega(a, b), in (-2 den, 2 den)
        d = omf.take(at_bc) - omf.take(comp[a_, b_][:, None] * n + c)
        d += omf.take(a_[:, None] * n + compf.take(at_bc))
        d -= om[a_, b_][:, None]
        bad = (d != 0) & (d != den) & (d != -den) & (c >= 0)
        if bad.any():
            for i, k in np.argwhere(bad).tolist():
                violations.append((G.arrows[a_[i]], G.arrows[b_[i]], G.arrows[c[i, k]]))
                if len(violations) >= max_witnesses:
                    return violations
    return violations


def check_symmetric_on(omega: TwoCocycle, members: Iterable) -> bool:
    """True iff omega(a, b) = omega(b, a) for all a, b in the subset that compose both ways.

    One gather of the numerator table over the subset; its numerators lie
    in [0, den), so equal phases are equal numerators.
    """
    om, comp, _ = omega._int_table()
    s = np.array([omega.G.index[g] for g in set(members)], dtype=np.int64)
    defined = comp[s[:, None], s] >= 0
    num = om[s[:, None], s]
    return bool((~(defined & defined.T) | (num == num.T)).all())


def is_maximal_symmetric_abelian(G: FiniteGroupoid, omega: TwoCocycle, c, members) -> Optional[tuple]:
    """None if the bundle is maximal; otherwise a witness arrow extending it."""
    return _maximal_extension(G, omega, isotropy_fibres(G, kernel_of_grading(G, c).members), members)


def _maximal_extension(G: FiniteGroupoid, omega: TwoCocycle, kernel: Mapping, members) -> Optional[tuple]:
    """:func:`is_maximal_symmetric_abelian` given ``kernel``, the isotropy fibres of the grading's kernel;
    each candidate's subgroup is a product-closure mask, and its arrows all compose both ways."""
    S, om, n = isotropy_fibres(G, members), omega._int_table()[0], len(G.arrows)
    for u in G.units:
        fibre, inside = kernel[u], np.zeros(n, dtype=bool)
        if len(fibre) > FIBRE_CAP:
            raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)}")
        inside[arrow_indices(G.index, fibre, len(fibre))] = True
        seeds = arrow_indices(G.index, [u, *S[u]], 1 + len(S[u]))
        for t in sorted(set(fibre) - set(S[u])):
            B = product_closure(G, np.zeros(n, dtype=bool), np.append(seeds, G.index[t]))
            b = B.nonzero()[0]
            num = om[np.ix_(b, b)]
            if (B <= inside).all() and noncommuting_pair(G, b) is None and (num == num.T).all():
                return (u, t)
    return None
