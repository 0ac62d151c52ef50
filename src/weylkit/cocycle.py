"""2-cocycles with exact phase values, and the maximal-subgroupoid search.

The cocycle condition is checked exactly, over integer numerators with a
common denominator, for every composable triple whose middle argument is a
generator of the groupoid; that covers every composable triple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import SchemaError, SearchCapExceeded, UndefinedPair
from .groupoid import (
    FIBRE_CAP,
    MAX_TABLE_INT,
    FiniteGroupoid,
    Subgroupoid,
    arrow_indices,
    isotropy_fibres,
    kernel_of_grading,
    noncommuting_pair,
    product_closure,
)
from .phases import ZERO, Phase

_BLOCK = 2**15      # entries of one block of rows of the cocycle identity


class TwoCocycle:
    """Phase-valued function on the composable pairs of a groupoid.

    Pairs absent from ``values`` take the zero phase, so the trivial cocycle
    is the empty table.  A cocycle made from arrays (a parsed file, a
    semidirect product, the Weyl twist) keeps its read-only numerator table
    until ``values`` is first read, and builds ``values`` then.  From that
    read on, as for a cocycle made from a dict, the table is built from
    ``values`` at every use, so every write to ``values`` reaches the next
    reader.
    """

    def __init__(self, G: FiniteGroupoid, values: Optional[Mapping] = None):
        self.G = G
        values = dict(values or {})
        if not all(itertools.starmap(G._defined, values)):
            raise UndefinedPair(*next(pair for pair in values if not G._defined(*pair)))
        zero = {i for i, ph in _by_id(values).items() if ph.is_zero}
        self._values = {pair: ph for pair, ph in values.items() if id(ph) not in zero} if zero else values
        self._pending = self._table = None

    @classmethod
    def _from_codes(cls, G: FiniteGroupoid, gi, hi, codes, phases: list) -> "TwoCocycle":
        """The cocycle with value ``phases[codes[j]]`` at arrow indices (gi[j], hi[j]).

        The pairs must be composable.  ``values`` lists the nonzero entries
        in j order, and is built on first read.  The numerator table is
        built now, over the lcm of the denominators of ``phases``; when that
        lcm passes ``MAX_TABLE_INT`` it is left to the first reader, which
        raises naming the entry at fault, as for a table built from ``values``.
        """
        nonzero = ~np.array([ph.is_zero for ph in phases], dtype=bool)[codes]
        gi, hi, codes = gi[nonzero], hi[nonzero], codes[nonzero]
        omega = cls.__new__(cls)
        omega.G, omega._values, omega._pending, omega._table = G, None, (gi, hi, codes, phases), None
        den = math.lcm(*(ph.den for ph in phases))
        if den <= MAX_TABLE_INT:
            nums = [ph.num * (den // ph.den) for ph in phases]
            om = np.zeros((len(G.arrows), len(G.arrows)), dtype=np.int64)
            om[gi, hi] = np.array(nums, dtype=np.int64)[codes]
            om.setflags(write=False)
            omega._table = (om, den)
            omega._by_num = {0: ZERO, **dict(zip(nums, phases))}
        return omega

    @classmethod
    def from_table(cls, G: FiniteGroupoid, num: np.ndarray, den: int) -> "TwoCocycle":
        """The cocycle whose value at arrow indices [g, h] is num[g, h]/den.

        ``num`` holds numerators in [0, den), zero off the composable pairs.
        Each distinct numerator becomes one Phase, and the table, reduced to
        the lcm of their denominators, is kept as the cocycle's own.
        """
        gi, hi = num.nonzero()
        nums = num[gi, hi]
        distinct = sorted(set(nums.tolist()))
        codes = np.searchsorted(np.array(distinct, dtype=np.int64), nums)
        return cls._from_codes(G, gi, hi, codes, [Phase(v, den) for v in distinct])

    @property
    def values(self) -> dict:
        """The pair -> Phase table of the nonzero values."""
        if self._values is None:
            self._values = self._build_values()
            self._pending = self._table = None
        return self._values

    def _build_values(self) -> dict:
        gi, hi, codes, phases = self._pending
        ids = self.G.arrows
        pairs = zip(map(ids.__getitem__, gi.tolist()), map(ids.__getitem__, hi.tolist()))
        return dict(zip(pairs, map(phases.__getitem__, codes.tolist())))

    def omega(self, g, h) -> Phase:
        if not self.G._defined(g, h):
            raise UndefinedPair(g, h)
        if self._values is None and self._table is not None:
            return self._by_num[self._table[0].item(self.G.index[g], self.G.index[h])]
        return self.values.get((g, h), ZERO)

    def is_trivial(self) -> bool:
        if self._values is None:
            return not len(self._pending[0])
        # a zero phase written into ``values`` reads as zero
        return all(ph.is_zero for ph in self._values.values())

    def _int_table(self):
        """(numerator array, compose matrix, common denominator).

        The numerator array is read-only: the array-built table while
        ``values`` is unread, and otherwise a new one from ``values``.
        """
        if self._values is None and self._table is not None:
            om, den = self._table
        else:
            om, den = numerator_table(self.G, self.values)
        return om, self.G.comp_matrix(), den


def numerator_table(G: FiniteGroupoid, values: Mapping):
    """(read-only int64 array of numerators at [index g, index h], common denominator).

    Entries that share one Phase object, as parsed entries do, are
    converted once.
    """
    phases = _by_id(values)
    den = math.lcm(*(ph.den for ph in phases.values()))
    if den > MAX_TABLE_INT:
        common_denominator((f"phase {ph} at {k}", ph.den) for k, ph in values.items())   # raises, naming it
    num = {i: ph.num * (den // ph.den) for i, ph in phases.items()}
    n, m = len(G.arrows), len(values)
    gh = np.fromiter(map(G.index.__getitem__, itertools.chain.from_iterable(values)),
                     dtype=np.int64, count=2 * m).reshape(m, 2)
    om = np.zeros((n, n), dtype=np.int64)
    om[gh[:, 0], gh[:, 1]] = np.fromiter(map(num.__getitem__, map(id, values.values())), np.int64, m)
    om.setflags(write=False)
    return om, den


def _by_id(values: Mapping) -> dict:
    """The distinct Phase objects of a pair -> Phase table, keyed by id, in order of first use."""
    return dict(zip(map(id, values.values()), values.values()))


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


def check_cocycle(G: FiniteGroupoid, omega: TwoCocycle, max_witnesses: int = 5):
    """Exact cocycle-condition check; returns a list of violating triples.

    An empty list means valid.  See :func:`cocycle_violations`.
    """
    if omega.G is not G and omega.G.arrows != G.arrows:
        raise SchemaError(f"cocycle is defined on {omega.G.name}, not on {G.name}")
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
    """True iff omega(a, b) = omega(b, a) for all a, b in the subset that compose both ways."""
    G = omega.G
    S = sorted(set(members))
    for a, b in itertools.combinations(S, 2):
        if G.composable(a, b) and G.composable(b, a) and omega.omega(a, b) != omega.omega(b, a):
            return False
    return True


def _closure(G: FiniteGroupoid, u, gens):
    """Subgroup of the isotropy fibre at u generated by gens: their product closure with u."""
    seeds = arrow_indices(G.index, [u, *gens], 1 + len(gens))
    covered = product_closure(G, np.zeros(len(G.arrows), dtype=bool), seeds)
    return frozenset(map(G.arrows.__getitem__, covered.nonzero()[0].tolist()))


def _abelian_symmetric(G, omega, subset):
    m = arrow_indices(G.index, subset, len(subset))
    return noncommuting_pair(G, m) is None and check_symmetric_on(omega, subset)


def _maximal_fibre_subgroups(G, omega, u, fibre):
    """All maximal abelian subgroups of the fibre at u on which omega is symmetric."""
    if len(fibre) > FIBRE_CAP:
        raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)} > {FIBRE_CAP}")
    fibre = set(fibre)
    maximal = set()
    visited = set()

    def extensions(A):
        out = []
        for t in sorted(fibre - A):
            B = _closure(G, u, A | {t})
            if B <= fibre and _abelian_symmetric(G, omega, B):
                out.append(B)
        return out

    def grow(A):
        if A in visited:
            return
        visited.add(A)
        exts = extensions(A)
        if not exts:
            maximal.add(A)
            return
        for B in exts:
            grow(B)

    for g in sorted(fibre):
        A = _closure(G, u, {g})
        if _abelian_symmetric(G, omega, A):
            grow(A)
    return sorted(maximal, key=sorted)


def find_maximal_symmetric_abelian(G: FiniteGroupoid, omega: TwoCocycle, c) -> list:
    """All maximal wide abelian group-bundle subgroupoids of Iso(c^-1(0))
    on which omega is symmetric.

    The search runs fibrewise (bundle subgroupoids decompose over units) and
    takes the product of the per-fibre maximal families.
    """
    iso = isotropy_fibres(G, kernel_of_grading(G, c).members)
    per_unit = [
        _maximal_fibre_subgroups(G, omega, u, iso[u]) for u in G.units
    ]
    results = []
    for combo in itertools.product(*per_unit):
        members = frozenset().union(*combo) if combo else frozenset(G.units)
        results.append(Subgroupoid(G, members))
    return results


def is_maximal_symmetric_abelian(G: FiniteGroupoid, omega: TwoCocycle, c, members) -> Optional[tuple]:
    """None if the bundle is maximal; otherwise a witness arrow extending it."""
    return _maximal_extension(G, omega, isotropy_fibres(G, kernel_of_grading(G, c).members), members)


def _maximal_extension(G: FiniteGroupoid, omega: TwoCocycle, kernel: Mapping, members) -> Optional[tuple]:
    """:func:`is_maximal_symmetric_abelian` given ``kernel``, the isotropy fibres of the grading's kernel."""
    S = isotropy_fibres(G, members)
    for u in G.units:
        fibre, Su = set(kernel[u]), set(S[u])
        if len(fibre) > FIBRE_CAP:
            raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)}")
        for t in sorted(fibre - Su):
            B = _closure(G, u, Su | {t})
            if B <= fibre and _abelian_symmetric(G, omega, B):
                return (u, t)
    return None
