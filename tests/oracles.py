"""Exhaustive, loop-based and Fraction-based versions of library code.

The library checks associativity and the cocycle condition with the middle
argument over a generating set, validates a groupoid on its compose array,
keeps phases as reduced int pairs, builds the Weyl twist as one array
expression, runs the twisted algebra on its structure constants, parses
and writes files and builds semidirect products straight from index
arrays, checks a semidirect action on one table of beta, and
checks a quotient's descent, the subgroupoid properties and subgroup
closures on arrays, and holds each fibre of a dual bundle as one integer
table.  These are the plain versions they replaced: every composable
triple, one Python loop per rule, a ``Fraction`` per phase, one phase sum
per Weyl pair, one matrix product per composable pair, dense commutators
for the center and the commutant, one convolution term per composable
pair, tuple-keyed dicts for the parsed and the written tables, one
multiplication call per semidirect pair, one beta call per instance of
each action law, one lookup per composable pair of the quotient, one
``mul`` per pair of members, a breadth-first search per closure, and
characters enumerated and checked as ``Character`` objects, one ``Phase``
sum at a time, and the action-package axioms checked one call of the
four maps at a time, as functions over ids.  The actions on a dual bundle,
theta's cocycle identity and the twisted product run as gathers over one
row table per action; their plain versions take the action as a dict of
``Character`` values, loop over every (c1, c2) x c3 triple, and build the
twisted product through ``build_groupoid`` with one ``mul`` call per
composable pair.  The orbit quotient takes an orbit table and composes
classes by one gather, and theta reads the section defects off one
gathered table; their plain versions take each orbit as a frozenset from
a callable (``orbits_of_table`` adapts a table), compose classes with one
``mul`` per pair, compare H/T's left and right orbits one arrow at a
time, and form each section defect with ``mul_all``.  The Weyl action,
the action package and the diamond action gather over all classes at
once, and theta is its row table; their plain versions take one class at
a time, conjugate with ``mul_all``, and build theta as a dict of
``Character`` values.  The immediately-centralizing checks build powers
by gathers on index tables; their plain versions cache each element's
powers in a dict, one ``mul`` or character product per step, and test
one arrow at a time.  The algebra names the law a failing cocycle breaks
from its numerator table; the plain version sums ``Phase`` values one law
instance at a time.  The symmetry of a cocycle on a set of arrows is one
gather on its numerator table; the plain version compares ``omega`` calls
one pair of arrows at a time.  The tests compare the two.  Last, a few names only
the tests use: the unit-identity consequence of the cocycle condition,
the isotropy bundle and effectiveness, the error of theta's loop, and the
(|left|, |G|, |cols|) commutator map of the center oracle.  And the library
functions that no verdict reads, kept as references: the id-level
products, conjugates, source fibres and element orders of a groupoid, the
class dict of a class map, the exhaustive isomorphism search, the search
for every maximal symmetric abelian bundle, the evaluation map into the
double dual, the co-trivial action package of a bundle, and theta from
(G, S) in one call; and the methods no verdict reads, as functions.  A
group bundle holds product tables; ``tabulate_bundle`` builds one from a
product callable, ``bundle_lookups`` reads products and inverses by id,
and ``CharacterTableLoop`` builds a character table from a callable, one
call per pair.  The maximality search tests each candidate on index masks;
its plain version closes each candidate as a set of ids.
"""

import cmath
import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from weylkit.algebra import (
    HOM_TOL,
    POS_TOL,
    SPEC_TOL,
    ExpectationReport,
    TwistedAlgebra,
    _null_space,
    reduced_norm,
)
from weylkit.cocycle import TwoCocycle, check_cocycle, check_symmetric_on, common_denominator
from weylkit.dual import Character, CharacterTable, GroupBundle, bundle_from_subgroupoid, dual_bundle
from weylkit.errors import (
    AssociativityViolation,
    AssumptionUnverified,
    DescentFailure,
    NotAnAction,
    NotAutomorphism,
    RepresentativeDisagreement,
    SearchCapExceeded,
    ThetaInvalid,
    BadInverse,
    CocycleInvalid,
    ConventionMismatch,
    DanglingUnit,
    DegenerateSample,
    DualityFailure,
    ElementNotInS,
    FibreTooLarge,
    MissingComposite,
    NotAbelian,
    NontrivialCocycle,
    NotStarHomomorphism,
    SchemaError,
    UnknownArrowId,
    WeylkitError,
)
from weylkit.groupoid import (
    FIBRE_CAP,
    FiniteGroupoid,
    Grading,
    PropertyReport,
    Subgroupoid,
    arrow_indices,
    build_groupoid,
    isotropy_fibres,
    kernel_of_grading,
    noncommuting_pair,
    product_closure,
    quotient_by_bundle,
    validate_groupoid,
)
from weylkit.io import GroupoidFile, _expect, _split_pair, label
from weylkit.phases import ZERO, Phase
from weylkit.semidirect import _action_table
from weylkit.reconstruct import (
    ActionPackage,
    ActionPackageReport,
    DiamondData,
    ThetaDatum,
    ThetaReport,
    derive_weyl_actions,
    diamond_action,
    quotient_HT,
    theta_for_package,
    verify_theta,
)
from weylkit.weyl import (
    _columns,
    build_weyl_groupoid,
    conditional_expectation,
    image_rows,
    validate_section,
    verify_groupoid_action,
)


@dataclass(frozen=True, order=True)
class FractionPhase:
    """The Fraction-backed phase: a reduced rational q in [0, 1)."""

    q: Fraction

    def __post_init__(self):
        if not (0 <= self.q < 1):
            object.__setattr__(self, "q", self.q % 1)

    @staticmethod
    def of(num: int, den: int = 1) -> "FractionPhase":
        return FractionPhase(Fraction(num, den))

    @staticmethod
    def parse(text: str) -> "FractionPhase":
        """Parse a serialized phase "a/b" (b >= 1) or a bare integer."""
        try:
            if "/" in text:
                a, b = text.split("/")
                num, den = int(a), int(b)
            else:
                num, den = int(text), 1
        except ValueError as exc:
            raise SchemaError(f"bad phase string {text!r}") from exc
        if den < 1:
            raise SchemaError(f"bad phase string {text!r}: denominator must be >= 1")
        return FractionPhase(Fraction(num, den))

    def __add__(self, other):
        return FractionPhase(self.q + other.q)

    def __sub__(self, other):
        return FractionPhase(self.q - other.q)

    def __neg__(self):
        return FractionPhase(-self.q)

    def times(self, n: int):
        return FractionPhase(self.q * n)

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.q))

    def __str__(self) -> str:
        return f"{self.q.numerator}/{self.q.denominator}"

    def __repr__(self) -> str:
        return f"Phase({self})"


def weyl_twist_cocycle_loop(GW, data):
    """The Weyl twist C with one Phase sum per composable pair, in ``GW.compose`` order."""
    G, omega, Q, sec = data.G, data.omega, data.Q, data.section
    values = {}
    for (a1, a2) in GW.compose:
        (c1, _), (c2, chi_id) = a1, a2
        chi = data.dual.by_id[chi_id]
        c12 = Q.mul(c1, c2)
        s12, s1, s2 = sec[c12], sec[c1], sec[c2]
        defect = mul_all(G, G.inv(s12), s1, s2)
        if defect not in data.S:
            raise ElementNotInS(defect)
        values[(a1, a2)] = (
            chi.value(defect)
            - omega.omega(s12, defect)
            + omega.omega(s1, s2)
        )
    return TwoCocycle(GW, values)


def grading_add(c, a, b):
    """The sum of two values of the grading ``c`` in its group."""
    return c.normalize(tuple(x + y for x, y in zip(a, b)))


def comp_array(arrows, compose):
    """The compose table over sorted arrow indices, -1 off its entries."""
    ids = sorted(arrows)
    index = {g: i for i, g in enumerate(ids)}
    comp = np.full((len(ids), len(ids)), -1, dtype=np.int64)
    for (g, h), k in compose.items():
        comp[index[g], index[h]] = index[k]
    return ids, comp


def associativity_violations(arrows, compose):
    """Every composable triple (g, h, k) with (gh)k != g(hk), by sorted index."""
    ids, comp = comp_array(arrows, compose)
    out = []
    for gi in range(len(ids)):
        for hi in np.flatnonzero(comp[gi] >= 0):
            gh = comp[gi, hi]
            for ki in np.flatnonzero(comp[hi] >= 0):
                if comp[gh, ki] != comp[gi, comp[hi, ki]]:
                    out.append((ids[gi], ids[hi], ids[ki]))
    return out


def cocycle_violations(G, omega):
    """Every composable triple at which d omega is nonzero, by index."""
    om, comp, den = omega._int_table()
    out = []
    for gi in range(len(G.arrows)):
        gh = comp[gi]
        mask = (gh[:, None] >= 0) & (comp >= 0)
        # omega(g, hk) + omega(h, k) - omega(gh, k) - omega(g, h)
        lhs = om[gi][np.clip(comp, 0, None)] + om
        rhs = om[np.clip(gh, 0, None)] + om[gi][:, None]
        for hi, ki in np.argwhere(mask & ((lhs - rhs) % den != 0)):
            out.append((G.arrows[gi], G.arrows[hi], G.arrows[ki]))
    return out


def cocycle_violations_by_generator(G, omega, max_witnesses=5):
    """``check_cocycle``'s triples, one generator at a time: every composable a, c for each middle b."""
    om, comp, den = omega._int_table()
    out = [(u, u, u) for u in G.units if not omega.omega(u, u).is_zero]
    for b in G.generators():
        a = (comp[:, b] >= 0).nonzero()[0]
        c = (comp[b] >= 0).nonzero()[0]
        ab, bc = comp[a, b], comp[b, c]
        d = om[b, c][None, :] - om[ab[:, None], c] + om[a[:, None], bc] - om[a, b][:, None]
        for i, k in np.argwhere(d % den != 0):
            out.append((G.arrows[a[i]], G.arrows[b], G.arrows[c[k]]))
            if len(out) >= max_witnesses:
                return out
    return out


def phase_table_unique(num, den):
    """The complex phase table of numerators over den, one ``Phase.to_complex`` per distinct numerator."""
    nums, at = np.unique(num, return_inverse=True)
    values = np.array([Phase(v, den).to_complex() for v in nums.tolist()])
    return values[at.reshape(num.shape)]


def is_cocycle_violation(G, omega, triple):
    """d omega at one triple, recomputed with Phase arithmetic."""
    g, h, k = triple
    d = (omega.omega(h, k) - omega.omega(G.mul(g, h), k)
         + omega.omega(g, G.mul(h, k)) - omega.omega(g, h))
    return not d.is_zero


def validate_groupoid_loops(units, arrows, compose, inverse=None):
    """validate_groupoid as one loop per rule; returns the inverse map.

    Associativity is checked over every composable triple.
    """
    units = sorted(set(units))
    src = {g: st[0] for g, st in arrows.items()}
    tgt = {g: st[1] for g, st in arrows.items()}
    unit_set = set(units)
    for u in units:
        if u not in src:
            raise DanglingUnit(u, "unit is not an arrow")
        if src[u] != u or tgt[u] != u:
            raise DanglingUnit(u, "unit arrow must have source = target = itself")
    for g in src:
        if src[g] not in unit_set or tgt[g] not in unit_set:
            raise DanglingUnit(g, "arrow endpoint is not a declared unit")

    for (g, h), k in compose.items():
        for a in (g, h, k):
            if a not in src:
                raise UnknownArrowId(a)
        if src[g] != tgt[h]:
            raise SchemaError(f"compose entry ({g}, {h}) is not a composable pair")
        if src[k] != src[h] or tgt[k] != tgt[g]:
            raise SchemaError(f"compose entry ({g}, {h}) -> {k} breaks source/target rules")
    for g, h in itertools.product(src, src):
        if src[g] == tgt[h] and (g, h) not in compose:
            raise MissingComposite(g, h)

    for g in src:
        if compose[(tgt[g], g)] != g or compose[(g, src[g])] != g:
            raise DanglingUnit(src[g], f"unit fails to act as identity on {g}")

    violations = associativity_violations(arrows, compose)
    if violations:
        raise AssociativityViolation(*violations[0])

    if inverse is None:
        inv = {}
        for g in src:
            cands = [
                h
                for h in src
                if src[h] == tgt[g]
                and tgt[h] == src[g]
                and compose[(h, g)] == src[g]
                and compose[(g, h)] == tgt[g]
            ]
            if not cands:
                raise BadInverse(g, "no two-sided inverse in the compose table")
            inv[g] = cands[0]
    else:
        inv = dict(inverse)
        for g in src:
            h = inverse.get(g)
            if h is None or h not in src:
                raise BadInverse(g, "missing from inverse map")
            if compose.get((h, g)) != src[g] or compose.get((g, h)) != tgt[g]:
                raise BadInverse(g, "declared inverse fails the inverse laws")
    for g in src:
        if inv[inv[g]] != g:
            raise BadInverse(g, "inverse is not an involution")
    return inv


# ------------------------------------------------------------------ algebra

def regular_representation_loop(G, omega, u):
    """The regular representation at u, one entry per composable (g, x), checked exhaustively."""
    basis = sorted(arrows_from(G, u))
    index = {g: i for i, g in enumerate(basis)}
    mats = {}
    for g in G.arrows:
        M = np.zeros((len(basis), len(basis)), dtype=complex)
        for x in basis:
            if composable(G, g, x):
                M[index[G.mul(g, x)], index[x]] = omega.omega(g, x).to_complex()
        mats[g] = M
    verify_star_hom_exhaustive(G, omega, mats)
    return mats, basis


def reduced_norm_loop(G, omega, f):
    """The largest operator norm of f over the loop-built regular representations, summed matrix by matrix."""
    best = 0.0
    for u in G.units:
        mats, _ = regular_representation_loop(G, omega, u)
        M = sum((v * mats[g] for g, v in f.items()), np.zeros_like(mats[G.arrows[0]]))
        best = max(best, float(np.linalg.norm(M, 2)))
    return best


def verify_star_hom_exhaustive(G, omega, mats):
    """The star law on every arrow, then the product law on every composable pair."""
    for g in G.arrows:
        gi = G.inv(g)
        ph = np.conj(omega.omega(g, gi).to_complex())
        if not np.max(np.abs(mats[g].conj().T - ph * mats[gi])) < HOM_TOL:
            raise NotStarHomomorphism(("star", g))
    for (g, h), gh in G.compose.items():
        expected = omega.omega(g, h).to_complex() * mats[gh]
        if not np.max(np.abs(mats[g] @ mats[h] - expected)) < HOM_TOL:
            raise NotStarHomomorphism(("product", g, h))


def total_representation_loop(G, omega):
    """The block-diagonal sum of the loop-built regular representations."""
    blocks = [regular_representation_loop(G, omega, u)[0] for u in G.units]
    sizes = [next(iter(b.values())).shape[0] for b in blocks]
    n = sum(sizes)
    mats = {}
    for g in G.arrows:
        M = np.zeros((n, n), dtype=complex)
        off = 0
        for b, sz in zip(blocks, sizes):
            M[off : off + sz, off : off + sz] = b[g]
            off += sz
        mats[g] = M
    return mats


def represent_stack(alg, basis):
    """The stacked dense matrices of every arrow delta on the span of ``basis``, checked by products."""
    pos = np.empty(len(alg.G), dtype=np.int64)
    pos[basis] = np.arange(len(basis))
    cols = alg.comp[:, basis]
    g, j = np.nonzero(cols >= 0)
    stack = np.zeros((len(alg.G), len(basis), len(basis)), dtype=complex)
    stack[g, pos[cols[g, j]], j] = alg.phase[g, basis[j]]
    verify_star_hom_stack(alg, stack)
    return stack


def verify_star_hom_stack(alg, stack):
    """The star law on every arrow, the product law on (g, b) for b over the generators, by dense products."""
    arrows = alg.G.arrows
    for g, M in enumerate(stack):
        if not np.max(np.abs(M.conj().T - alg.star_phase[g] * stack[alg.inv[g]])) < HOM_TOL:
            raise NotStarHomomorphism(("star", arrows[g]))
    gens = alg.G.generators()
    for g, M in enumerate(stack):
        bs = gens[alg.comp[g, gens] >= 0]
        gb = alg.comp[g, bs]
        err = np.abs(M @ stack[bs] - alg.phase[g, bs][:, None, None] * stack[gb]).max(axis=(1, 2))
        bad = ~(err < HOM_TOL)
        if bad.any():
            raise NotStarHomomorphism(("product", arrows[g], arrows[bs[bad.argmax()]]))


def broken_law_loop(G, omega, basis):
    """The witness NotStarHomomorphism carries for the deltas on the span of the arrows ``basis``, or None.

    The star law at g, omega(g, g^-1) = omega(g, x) + omega(g^-1, gx), for
    every arrow g, then the product law at (g, b),
    omega(b, x) + omega(g, bx) = omega(g, b) + omega(gb, x), for b over the
    generators, one ``Phase`` sum per instance with x over ``basis``; when
    both hold, the first exact cocycle defect.
    """
    w = omega.omega
    for g in G.arrows:
        gi = G.inv(g)
        if any(w(g, gi) != w(g, x) + w(gi, G.mul(g, x)) for x in basis if composable(G, g, x)):
            return ("star", g)
    gens = [G.arrows[i] for i in G.generators()]
    for g in G.arrows:
        for b in gens:
            if composable(G, g, b) and any(
                w(b, x) + w(g, G.mul(b, x)) != w(g, b) + w(G.mul(g, b), x) for x in basis if composable(G, b, x)
            ):
                return ("product", g, b)
    found = check_cocycle(G, omega, max_witnesses=1)
    return found[0] if found else None


def total_basis_loop(G):
    """Every arrow index, unit by unit over ``arrows_from``: the basis of the total representation."""
    return np.array([G.index[g] for u in G.units for g in arrows_from(G, u)], dtype=np.int64)


def total_representation_stack(G, omega):
    """The total representation as dense matrices, checked by dense products."""
    return dict(zip(G.arrows, represent_stack(TwistedAlgebra(G, omega), total_basis_loop(G))))


def split_blocks_dense(mats, center, seed, tol):
    """Sorted Wedderburn block sizes from dense matrices: the rank of Q^* M_g Q per cluster, arrow by arrow."""
    arrows = list(mats)
    center_dim = center.shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(5):
        coeffs = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        A = np.zeros_like(mats[arrows[0]])
        for g, v in zip(arrows, center @ coeffs):
            if v:
                A = A + v * mats[g]
        H = A + A.conj().T
        eigvals, eigvecs = np.linalg.eigh(H)
        scale = max(1.0, float(np.max(np.abs(eigvals))))
        clusters = []
        start = 0
        for i in range(1, len(eigvals) + 1):
            if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > tol * scale:
                clusters.append(range(start, i))
                start = i
        if len(clusters) != center_dim:
            continue
        blocks = []
        for cl in clusters:
            Q = eigvecs[:, cl]
            Qh = Q.conj().T
            span = np.empty((len(cl) ** 2, len(arrows)), dtype=complex)
            for i, g in enumerate(arrows):
                span[:, i] = (Qh @ mats[g] @ Q).ravel()
            d = int(np.linalg.matrix_rank(span, tol=tol))
            root = round(d**0.5)
            if root * root != d:
                break
            blocks.append(root)
        else:
            if sum(b * b for b in blocks) == len(arrows):
                return sorted(blocks)
    raise DegenerateSample(f"no separating central element found after 5 attempts (seed {seed})")


def wedderburn_blocks_stack(G, omega, seed=0, tol=SPEC_TOL):
    """Wedderburn blocks and center dimension from the dense stack, split arrow by arrow."""
    mats = total_representation_stack(G, omega)
    center = center_basis_stack(TwistedAlgebra(G, omega), tol=tol)
    return split_blocks_dense(mats, center, seed, tol), center.shape[1]


def _commutator_map(alg, left, cols):
    """The matrix of z -> ([z, delta_b])_{b in left} for z supported on ``cols``.

    ``left`` and ``cols`` hold arrow indices; the rows are (b, arrow index)
    pairs and the columns follow ``cols``.
    """
    left, cols = np.asarray(left, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    K = np.zeros((len(left), len(alg.G), len(cols)), dtype=complex)
    i, j = np.nonzero(alg.comp[cols[None, :], left[:, None]] >= 0)     # h * b
    K[i, alg.comp[cols[j], left[i]], j] = alg.phase[cols[j], left[i]]
    i, j = np.nonzero(alg.comp[left[:, None], cols[None, :]] >= 0)     # b * h
    K[i, alg.comp[left[i], cols[j]], j] -= alg.phase[left[i], cols[j]]
    return K.reshape(-1, len(cols))


def center_basis_stack(alg, tol=SPEC_TOL):
    """The center from the whole (generators, |G|, |G|) commutator map K, by eigh of K^* K."""
    K = _commutator_map(alg, alg.G.generators(), np.arange(len(alg.G)))
    return _null_space(K.conj().T @ K, tol)


def center_basis_dense(mats, arrows, tol=SPEC_TOL):
    """The center as the common null space of every dense commutator [M_h, M_g]."""
    M = np.zeros((len(arrows), len(arrows)), dtype=complex)
    for g in arrows:
        A = mats[g]
        C = np.stack([(mats[h] @ A - A @ mats[h]).ravel() for h in arrows], axis=1)
        M += C.conj().T @ C
    eigvals, eigvecs = np.linalg.eigh(M)
    scale = max(1.0, float(eigvals.max(initial=1.0)))
    return eigvecs[:, eigvals < tol * scale]


def wedderburn_blocks_dense(G, omega, seed=0, tol=SPEC_TOL):
    """Wedderburn blocks and center dimension from the loop-built matrices and the dense center."""
    mats = total_representation_loop(G, omega)
    center = center_basis_dense(mats, list(G.arrows), tol)
    return split_blocks_dense(mats, center, seed, tol), center.shape[1]


def commutant_check_dense(G, omega, c, S_members, represent=total_representation_loop):
    """(commutant dimension, span(S) abelian) from dense commutators of the matrices ``represent`` builds."""
    S = sorted(set(S_members))
    A0 = sorted(g for g in G.arrows if c.value(g) == grading_zero(c))
    mats = represent(G, omega)
    M = np.zeros((len(A0), len(A0)), dtype=complex)
    for s in S:
        Ds = mats[s]
        C = np.stack([(mats[g] @ Ds - Ds @ mats[g]).ravel() for g in A0], axis=1)
        M += C.conj().T @ C
    eigvals = np.linalg.eigvalsh(M)
    commutant_dim = int(np.sum(eigvals < SPEC_TOL * max(1.0, eigvals.max(initial=1.0))))
    abelian = all(
        np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) <= SPEC_TOL
        for a, b in itertools.combinations(S, 2)
    )
    return commutant_dim, abelian


def convolve_loop(G, omega, f, h):
    """f * h with one term per composable pair, in ``G.compose`` order."""
    out = {}
    for (g1, g2), g12 in G.compose.items():
        a, b = f.get(g1, 0), h.get(g2, 0)
        if a and b:
            out[g12] = out.get(g12, 0) + a * b * omega.omega(g1, g2).to_complex()
    return out


def star_loop(G, omega, f):
    """f^* with one phase lookup per arrow."""
    return {G.inv(g): np.conj(v) * np.conj(omega.omega(g, G.inv(g)).to_complex()) for g, v in f.items()}


def expectation_checks_loop(G, omega, S_members, trials=100, seed=0):
    """expectation_checks with f^* . f convolved one composable pair at a time."""
    rng = np.random.default_rng(seed)
    dual = dual_bundle(bundle_from_subgroupoid(G, frozenset(S_members)))
    arrows = list(G.arrows)
    failures, max_neg = 0, 0.0
    faithful_ok, diagonal_ok = True, True
    for _ in range(trials):
        coeffs = rng.standard_normal(len(arrows)) + 1j * rng.standard_normal(len(arrows))
        f = dict(zip(arrows, coeffs))
        delta = conditional_expectation(G, dual, convolve_loop(G, omega, star_loop(G, omega, f), f))
        worst = min((v.real for v in delta.values()), default=0.0)
        imag = max((abs(v.imag) for v in delta.values()), default=0.0)
        if worst < -POS_TOL or imag > SPEC_TOL:
            failures += 1
            max_neg = min(max_neg, worst)
        if max(abs(v) for v in delta.values()) <= POS_TOL:
            if reduced_norm(G, omega, f) > SPEC_TOL:
                faithful_ok = False
        d = {g: f[g] for g in S_members}
        gelfand = conditional_expectation(G, dual, d)
        for cid, chi in dual.by_id.items():
            direct = sum(chi.value(a).to_complex() * d.get(a, 0) for a in dual.bundle.fibres[chi.unit])
            if abs(gelfand[cid] - direct) > SPEC_TOL:
                diagonal_ok = False
    if failures >= max(1, trials // 2):
        raise ConventionMismatch(f"expectation positivity failed on {failures}/{trials} trials")
    return ExpectationReport(trials, seed, failures, max_neg, faithful_ok, diagonal_ok)


# ------------------------------------------------------------ io, semidirect

def _pair_table(raw, table, message, parse=None):
    """A JSON object keyed by "g,h" as a dict keyed by (g, h), values parsed once each."""
    _expect(isinstance(raw, dict), table, "must be an object")
    pairs = list(map(tuple, map(str.split, raw, itertools.repeat(","))))
    vals = list(raw.values())
    try:
        if not (set(map(len, pairs)) <= {2} and all(map(isinstance, vals, itertools.repeat(str)))):
            raise SchemaError(table)
        if parse is not None:
            parsed = {val: parse(val) for val in dict.fromkeys(vals)}
            vals = map(parsed.__getitem__, vals)
    except SchemaError:
        for key, val in raw.items():
            path = f"{table}/{key}"
            _split_pair(key, path)
            _expect(isinstance(val, str), path, message)
            try:
                if parse is not None:
                    parse(val)
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from exc
        raise
    return dict(zip(pairs, vals))


def parse_groupoid_data_dicts(data):
    """The parse through tuple-keyed dicts: validate_groupoid on the compose dict,
    TwoCocycle on the pair -> Phase dict.  The grading and the marking are
    read without their schema checks.
    """
    _expect(isinstance(data, dict), "/", "top level must be an object")
    name = data.get("name", "G")
    _expect(isinstance(name, str), "/name", "must be a string")
    units = data.get("units")
    _expect(isinstance(units, list) and units, "/units", "must be a nonempty list")
    for i, u in enumerate(units):
        _expect(isinstance(u, str), f"/units/{i}", "unit ids must be strings")
    raw_arrows = data.get("arrows")
    _expect(isinstance(raw_arrows, list) and raw_arrows, "/arrows", "must be a nonempty list")
    arrows = {}
    for i, rec in enumerate(raw_arrows):
        path = f"/arrows/{i}"
        _expect(isinstance(rec, dict), path, "must be an object")
        for key in ("id", "source", "target"):
            _expect(isinstance(rec.get(key), str), f"{path}/{key}", "must be a string")
        _expect("," not in rec["id"], f"{path}/id", "arrow ids must not contain commas")
        _expect(rec["id"] not in arrows, f"{path}/id", f"duplicate arrow id {rec['id']!r}")
        arrows[rec["id"]] = (rec["source"], rec["target"])

    compose = _pair_table(data.get("compose"), "/compose", "composite must be an arrow id string")
    G = validate_groupoid(units, arrows, compose, name=name)
    values = _pair_table(data.get("cocycle", {}), "/cocycle", "phase must be a string 'a/b'", Phase.parse)
    omega = TwoCocycle(G, values)

    c = None
    raw_grading = data.get("grading")
    if raw_grading is not None:
        group = raw_grading["group"]
        c = Grading(group=tuple(group), values={g: tuple(v) for g, v in raw_grading["values"].items()})
    marked = data.get("marked_subgroupoid")
    return GroupoidFile(name=name, G=G, omega=omega, c=c,
                        marked=None if marked is None else frozenset(marked))


def emit_groupoid_data_dicts(G, omega=None, c=None, marked=None, name=None):
    """emit_groupoid_data through the dicts: sorted ``G.compose`` and ``omega.values`` items."""
    lab, spelled = {}, {}
    for g in G.arrows:
        lab[g] = text = label(g)
        if "," in text:
            raise SchemaError(f"arrow id {text!r} contains a comma and cannot be serialized")
        if spelled.setdefault(text, g) != g:
            raise SchemaError(f"arrows {spelled[text]!r} and {g!r} are both spelled {text!r}")
    data = {
        "name": name or G.name,
        "units": [lab[u] for u in G.units],
        "arrows": [
            {"id": lab[g], "source": lab[G.src[g]], "target": lab[G.tgt[g]]} for g in G.arrows
        ],
        "compose": {
            f"{lab[g]},{lab[h]}": lab[k] for (g, h), k in sorted(G.compose.items())
        },
    }
    if omega is not None and omega.values:
        data["cocycle"] = {
            f"{label(g)},{label(h)}": str(ph) for (g, h), ph in sorted(omega.values.items())
        }
    if c is not None:
        data["grading"] = {
            "group": list(c.group),
            "values": {lab[g]: list(c.value(g)) for g in G.arrows},
        }
    if marked is not None:
        data["marked_subgroupoid"] = sorted(map(label, marked))
    return data


def validate_action_loop(spec):
    """SemidirectSpec.validate_action over tuples: one ``spec.beta`` call per instance of each law."""
    def add(orders, a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    h_elems = spec.h_elements()
    zero_k = tuple(0 for _ in spec.k_orders)
    for h in h_elems:
        if spec.beta(zero_k, h) != h:
            raise NotAutomorphism(f"beta_0 is not the identity on {h}")
    for k in spec.k_elements():
        images = [spec.beta(k, h) for h in h_elems]
        if sorted(images) != sorted(h_elems):
            raise NotAutomorphism(f"beta_{k} is not a bijection")
        for a, b in itertools.product(h_elems, h_elems):
            if spec.beta(k, add(spec.h_orders, a, b)) != add(
                spec.h_orders, spec.beta(k, a), spec.beta(k, b)
            ):
                raise NotAutomorphism(f"beta_{k} is not a homomorphism at ({a}, {b})")
    for k1, k2 in itertools.product(spec.k_elements(), spec.k_elements()):
        for h in h_elems:
            if spec.beta(add(spec.k_orders, k1, k2), h) != spec.beta(k1, spec.beta(k2, h)):
                raise NotAutomorphism(f"beta is not an action at ({k1}, {k2})")


def build_semidirect_loop(spec):
    """build_semidirect through the multiplication callable: one ``spec.mul`` per pair, on ids."""
    validate_action_loop(spec)
    elems = spec.elements()
    ids = [spec.elem_id(a) for a in elems]
    unit = spec.elem_id((tuple(0 for _ in spec.h_orders), tuple(0 for _ in spec.k_orders)))
    arrows = {i: (unit, unit) for i in ids}

    def mul(x, y):
        return spec.elem_id(spec.mul(spec.parse_id(x), spec.parse_id(y)))

    G = build_groupoid([unit], arrows, mul, name=spec.name)
    omega = TwoCocycle(G, {
        (ia, ib): spec.omega(a, b)
        for (a, ia), (b, ib) in itertools.product(zip(elems, ids), repeat=2)
    })
    violations = check_cocycle(G, omega)
    if violations:
        raise CocycleInvalid(violations)
    zero_k = tuple(0 for _ in spec.k_orders)
    S = frozenset(spec.elem_id((h, zero_k)) for h in spec.h_elements())
    c = Grading(group=tuple(spec.k_orders), values={spec.elem_id(a): a[1] for a in elems})
    return G, omega, S, c


def orbits_of_table(G, orbits):
    """The orbit callable of an orbit table: arrow id -> the frozenset of the ids in its row."""
    return lambda g: frozenset(G.arrows[i] for i in orbits[G.index[g]].tolist() if i >= 0)


def orbit_quotient_loop(G, orbit, name, error):
    """orbit_quotient with the descent checked one ``G.compose`` entry at a time."""
    class_map, classes = {}, {}
    for g in G.arrows:
        members = orbit(g)
        cid = min(members)
        class_map[g] = cid
        classes.setdefault(cid, members)
    if sum(len(ms) for ms in classes.values()) != len(G.arrows) or any(
        class_map[m] != cid for cid, ms in classes.items() for m in ms
    ):
        raise error("orbits do not partition the arrow set")
    by_source = {cid: {G.src[m]: m for m in sorted(ms, reverse=True)} for cid, ms in classes.items()}
    units = {class_map[u] for u in G.units}
    arrows = {cid: (class_map[G.src[cid]], class_map[G.tgt[cid]]) for cid in classes}

    def q_mul(c1, c2):
        return class_map[G.mul(by_source[c1][G.tgt[c2]], c2)]

    Q = build_groupoid(units, arrows, q_mul, name=name)
    for (g, h), gh in G.compose.items():
        if class_map[gh] != Q.mul(class_map[g], class_map[h]):
            raise error(f"quotient composition depends on representatives: ({g}, {h})")
    return Q, class_map


def quotient_HT_loop(pkg, report):
    """quotient_HT with each orbit a frozenset of ids, compared one arrow at a time, through orbit_quotient_loop."""
    if not report.all_pass():
        raise AssumptionUnverified(f"action axioms fail: {[k for k, v in report.clauses.items() if not v]}")
    H = pkg.H

    def orbit(eta):
        row, col = pkg.right[H.index[eta]], pkg.left[:, H.index[eta]]
        right = frozenset(map(H.arrows.__getitem__, row[row >= 0].tolist()))
        if right != frozenset(map(H.arrows.__getitem__, col[col >= 0].tolist())):
            raise AssumptionUnverified(f"left and right orbits of {eta} differ")
        return right

    return orbit_quotient_loop(H, orbit, name=f"{H.name}/T", error=AssumptionUnverified)


def subgroupoid_properties_loop(G, members):
    """subgroupoid_properties with one ``mul`` per pair of members and one conjugate per (arrow, member)."""
    S = frozenset(members)
    unknown = S.difference(G.src)
    if unknown:
        raise UnknownArrowId(min(unknown, key=str))
    ordered = [g for g in G.arrows if g in S]
    wit = {}

    closed = True
    for g in ordered:
        if G.inv(g) not in S:
            closed, wit["subgroupoid"] = False, ("inverse", g)
            break
        if G.src[g] not in S or G.tgt[g] not in S:
            closed, wit["subgroupoid"] = False, ("unit", g)
            break
    if closed:
        for g, h in itertools.product(ordered, ordered):
            if composable(G, g, h) and G.mul(g, h) not in S:
                closed, wit["subgroupoid"] = False, ("compose", g, h)
                break

    wide = set(G.units) <= S
    bundle = all(G.src[g] == G.tgt[g] for g in ordered)
    if not bundle:
        wit["bundle"] = next(g for g in ordered if G.src[g] != G.tgt[g])

    abelian = True
    if bundle:
        for g, h in itertools.combinations(ordered, 2):
            if composable(G, g, h) and G.mul(g, h) != G.mul(h, g):
                abelian, wit["abelian"] = False, (g, h)
                break

    normal = True
    for g in G.arrows:
        for a in ordered:
            if G.src[a] == G.tgt[a] == G.tgt[g]:
                if conjugate(G, g, a) not in S:
                    normal, wit["normal"] = False, (g, a)
                    break
        if not normal:
            break

    return PropertyReport(closed, wide, bundle, abelian, normal, wit)


def closure_bfs(G, u, gens):
    """Subgroup of the isotropy fibre at u generated by gens, by breadth-first search over ``mul`` and ``inv``."""
    seen = {u} | set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in (G.inv(a),):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
            for b in list(seen):
                for prod in (G.mul(a, b), G.mul(b, a)):
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(seen)


def enumerate_fibre_characters(bundle, x):
    """All homomorphisms fibre -> Q/Z as Characters, by extension over a generating sequence.

    Partial characters on the subgroup generated so far are extended one
    generator at a time, in Phase arithmetic; the relative order of the
    generator pins down the admissible values.
    """
    fibre, mult = bundle.fibres[x], bundle_lookups(bundle)[0]
    e = bundle.identity[x]
    span = {e}
    partial = [{e: ZERO}]
    for g in fibre:
        if g in span:
            continue
        # relative order: least m >= 1 with g^m in the current span
        m, power = 1, g
        while power not in span:
            power = mult(power, g)
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
                        ext[mult(s, cur)] = ps + val
                    cur = mult(cur, g)
                    val = val + v
                new_partial.append(ext)
        partial = new_partial
        span = set(partial[0])
    return [Character.from_table(x, chi) for chi in partial]


def dual_fibres_oracle(bundle) -> dict:
    """Base point -> the characters of its fibre, sorted by value table and checked one Phase sum at a time.

    The characters are those of :func:`enumerate_fibre_characters`; the
    id of the i-th one over x is "x#i".  Raises DualityFailure with the
    first witness.
    """
    out, mult = {}, bundle_lookups(bundle)[0]
    for x in bundle.base:
        fibre = bundle.fibres[x]
        chars = sorted(enumerate_fibre_characters(bundle, x), key=lambda c: c.values)
        if len(chars) != len(fibre):
            raise DualityFailure(("character count", x, len(chars), len(fibre)))
        if len(set(chars)) != len(chars):
            raise DualityFailure(("duplicate characters", x))
        for i, chi in enumerate(chars):
            for a, b in itertools.product(fibre, fibre):
                if chi.value(mult(a, b)) != chi.value(a) + chi.value(b):
                    raise DualityFailure(("not multiplicative", x, f"{x}#{i}", a, b))
        for a in fibre:
            if a != bundle.identity[x] and all(chi.value(a).is_zero for chi in chars):
                raise DualityFailure(("degenerate element", x, a))
        out[x] = tuple(chars)
    return out


def action_maps(pkg):
    """The package's four maps as functions over ids, read from its arrays.

    Returns (left, right, lam, rho), called as left(t, eta), right(eta, t),
    lam(eta, t) and rho(t, eta).  An id outside T or H, or an entry -1,
    raises KeyError.
    """
    H, ids = pkg.H, pkg.t_elements()
    pos = {t: i for i, t in enumerate(ids)}

    def read(table, out, i, j):
        v = int(table[i, j])
        if v < 0:
            raise KeyError((i, j))
        return out[v]

    return (
        lambda t, eta: read(pkg.left, H.arrows, pos[t], H.index[eta]),
        lambda eta, t: read(pkg.right, H.arrows, H.index[eta], pos[t]),
        lambda eta, t: read(pkg.lam, ids, H.index[eta], pos[t]),
        lambda t, eta: read(pkg.rho, ids, pos[t], H.index[eta]),
    )


def tabulate_actions(pkg, **maps):
    """A copy of ``pkg`` with each map given by name (left, right, lam, rho) tabulated from a function over ids.

    The function is called on every pair over the moment-map fibres; a
    KeyError or WeylkitError, or a value that is no arrow of H (for left
    and right) or element of T (for lam and rho), becomes -1.  Any other
    exception propagates.
    """
    H, T, ids = pkg.H, pkg.T, pkg.t_elements()
    pos = {t: i for i, t in enumerate(ids)}
    out = {"left": H.index, "right": H.index, "lam": pos, "rho": pos}
    arrays = {}
    for name, f in maps.items():
        table = np.full((len(ids), len(H.arrows)), -1)
        for i, t in enumerate(ids):
            for j, eta in enumerate(H.arrows):
                over = p_r(pkg, eta) if name in ("left", "rho") else p_s(pkg, eta)
                if T.p[t] != over:
                    continue
                try:
                    v = f(t, eta) if name in ("left", "rho") else f(eta, t)
                except (KeyError, WeylkitError):
                    continue
                table[i, j] = out[name].get(v, -1)
        arrays[name] = table if name in ("left", "rho") else table.T.copy()
    return dataclasses.replace(pkg, **arrays)


def verify_action_package_loop(pkg):
    """Every action-package axiom, one call of the maps of :func:`action_maps` per instance.

    A check that raises a KeyError or a WeylkitError fails; anything else
    propagates.  The witness of a failing clause is its first failing
    instance in scan order.
    """
    left, right, lam, rho = action_maps(pkg)
    pkg.check_moment_maps()
    H, T = pkg.H, pkg.T
    mult = bundle_lookups(T)[0]
    clauses, wit, counts = {}, {}, {}

    def record(name, check, witness=None):
        try:
            ok = bool(check())
        except (KeyError, WeylkitError):
            ok = False
        clauses[name] = clauses[name] and ok
        counts[name] += 1
        if not ok and name not in wit:
            wit[name] = witness

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
            if p_r(pkg, eta) == x:
                record("endpoints_compatible",
                       lambda t=t, eta=eta: H.tgt[left(t, eta)] == left(t, H.tgt[eta]),
                       (t, eta))
                record("left_free",
                       lambda t=t, eta=eta, x=x: left(t, eta) != eta or t == T.identity[x],
                       (t, eta))
                record("left_via_rho",
                       lambda t=t, eta=eta: left(t, eta) == right(eta, rho(t, eta)),
                       (t, eta))
                record("inverse_left",
                       lambda t=t, eta=eta: H.inv(left(t, eta)) == right(H.inv(eta), t),
                       (t, eta))
                record("lambda_rho_inverse",
                       lambda t=t, eta=eta: lam(eta, rho(t, eta)) == t,
                       (t, eta))
            if p_s(pkg, eta) == x:
                record("endpoints_compatible",
                       lambda t=t, eta=eta: H.src[right(eta, t)] == right(H.src[eta], t),
                       (t, eta))
                record("right_free",
                       lambda t=t, eta=eta, x=x: right(eta, t) != eta or t == T.identity[x],
                       (t, eta))
                record("right_via_lambda",
                       lambda t=t, eta=eta: right(eta, t) == left(lam(eta, t), eta),
                       (t, eta))
                record("inverse_right",
                       lambda t=t, eta=eta: H.inv(right(eta, t)) == left(t, H.inv(eta)),
                       (t, eta))
                record("lambda_rho_inverse",
                       lambda t=t, eta=eta: rho(lam(eta, t), eta) == t,
                       (t, eta))
            if H.is_unit(eta) and T.p[eta] == x:
                record("units_compatible",
                       lambda t=t, eta=eta: left(t, eta) == right(eta, t),
                       (t, eta))
                record("identity_on_units",
                       lambda t=t, eta=eta: rho(t, eta) == t and lam(eta, t) == t,
                       (t, eta))

    for t, t2 in itertools.product(t_elems, t_elems):
        for eta in H.arrows:
            if p_r(pkg, eta) == T.p[t] and p_s(pkg, eta) == T.p[t2]:
                record("actions_commute",
                       lambda t=t, eta=eta, t2=t2: right(left(t, eta), t2) == left(t, right(eta, t2)),
                       (t, eta, t2))
            if p_s(pkg, eta) == T.p[t] == T.p[t2]:
                record("lambda_multiplicative",
                       lambda t=t, eta=eta, t2=t2: lam(eta, mult(t, t2)) == mult(lam(eta, t), lam(eta, t2)),
                       (t, eta, t2))

    for (gamma, eta) in H.compose:
        ge = H.mul(gamma, eta)
        for t in sorted(T.fibres[p_s(pkg, eta)]):
            record("right_distributes",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   right(ge, t) == H.mul(right(gamma, lam(eta, t)), right(eta, t)),
                   (gamma, eta, t))
            record("lambda_composition",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t: lam(ge, t) == lam(gamma, lam(eta, t)),
                   (gamma, eta, t))
        for t in sorted(T.fibres[p_r(pkg, gamma)]):
            record("left_distributes",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t:
                   left(t, ge) == H.mul(left(t, gamma), left(rho(t, gamma), eta)),
                   (gamma, eta, t))
            record("rho_composition",
                   lambda ge=ge, gamma=gamma, eta=eta, t=t: rho(t, ge) == rho(rho(t, gamma), eta),
                   (gamma, eta, t))

    return ActionPackageReport(clauses, wit, counts)


def verify_groupoid_action_loop(Q, dual, action, base_of_unit):
    """Check that ``action`` is an action of the groupoid Q on the bundle ``dual``, one character at a time.

    ``action`` maps (arrow of Q, character id) -> Character, for the
    characters over the base point of the arrow's source; ``base_of_unit``
    sends each unit of Q to its base point.  Raises NotAnAction with the
    first failing instance.
    """
    act = {key: dual.char_id.get(chi) for key, chi in action.items()}
    stray = [key for key, i in act.items() if i is None]
    if stray:
        raise NotAnAction(("image outside the dual", *stray[0]))
    ids = {x: t.ids for x, t in dual.tables.items()}
    for u, x in base_of_unit.items():
        for i in ids[x]:
            if act[(u, i)] != i:
                raise NotAnAction(("unit acts nontrivially", u, i))
    for (c1, c2), c12 in Q.compose.items():
        for i in ids[base_of_unit[Q.src[c2]]]:
            if act[(c12, i)] != act[(c1, act[(c2, i)])]:
                raise NotAnAction(("composition", c1, c2, i))


def verify_theta_loop(dia, theta):
    """Unit triviality and the cocycle identity of ``theta``, one (c1, c2) x c3 triple at a time.

    The diamond action is read from its table one row at a time.  The
    report's ``rows`` maps each pair of ``theta`` to the (base point, row)
    of its value, None outside the dual; ``instances`` counts the unit
    pairs and the triples checked.
    """
    HT, That = dia.HT, dia.That
    image = dict(zip(HT.arrows, dia.image.tolist()))
    violations = []

    source = {c: p_s(dia.pkg, min(ms)) for c, ms in class_table(dia.class_map).items()}
    at = (That.position.get(That.char_id.get(val)) for val in theta.values.values())
    rows = {pair: p if p and p[0] == source.get(pair[1]) else None for pair, p in zip(theta.values, at)}

    coverage = set(theta.values) == set(HT.compose)
    if not coverage:
        violations.append(("coverage", set(HT.compose) ^ set(theta.values)))
    outside = [pair for pair, found in rows.items() if found is None]
    if outside:
        coverage = False
        violations += [("outside the dual", pair) for pair in outside]

    unit_ok, units = True, 0
    for c in HT.arrows:
        for pair in ((HT.tgt[c], c), (c, HT.src[c])):
            units += 1
            val = theta.values.get(pair)
            if val is None or not val.is_trivial:
                unit_ok = False
                violations.append(("unit", pair))

    cocycle_ok, triples = True, 0
    row = {pair: found[1] for pair, found in rows.items() if found is not None}
    product = {x: t.product.tolist() for x, t in That.tables.items()}
    for (c1, c2) in HT.compose:
        c12 = HT.mul(c1, c2)
        for c3 in HT.arrows:
            if not composable(HT, c2, c3):
                continue
            c23 = HT.mul(c2, c3)
            if not {(c1, c2), (c12, c3), (c1, c23), (c2, c3)} <= row.keys():
                continue
            triples += 1
            mul = product[rows[(c2, c3)][0]]
            acted = image[HT.inv(c3)][row[(c1, c2)]]
            if mul[acted][row[(c12, c3)]] != mul[row[(c1, c23)]][row[(c2, c3)]]:
                cocycle_ok = False
                violations.append(("cocycle", (c1, c2, c3)))
    instances = {"unit_triviality": units, "cocycle_identity": triples}
    return ThetaReport(unit_ok, cocycle_ok, coverage, violations, instances, rows)


def theta_for_package_loop(pkg, dia, section=None):
    """theta_for_package with one ``mul_all`` section defect per composable pair of G/S, in ``Q.compose`` order."""
    data = pkg.weyl
    if data is None:
        raise SchemaError("theta extraction needs a Weyl-derived package")
    if not data.omega.is_trivial():
        raise NontrivialCocycle("reconstruction requires a trivial 2-cocycle")
    G, Q = data.G, data.Q
    ht_of_q = {q: cid for cid, q in dia.q_class.items()}
    sec = section if section is not None else data.section
    validate_section(G, data.class_map, sec)
    evaluation = evaluation_ids(pkg, dia)
    values = {}
    for (q1, q2) in Q.compose:
        defect = mul_all(G, G.inv(sec[Q.mul(q1, q2)]), sec[q1], sec[q2])
        if defect not in data.S:
            raise NotInS(f"section defect {defect} lies outside the marked bundle")
        values[(ht_of_q[q1], ht_of_q[q2])] = dia.That.by_id[evaluation[defect]]
    return ThetaDatum(values)


def build_boxtimes_loop(dia, theta):
    """The twisted product through ``build_groupoid``, one ``mul`` call per composable pair.

    Verifies ``theta`` with :func:`verify_theta_loop` and raises
    ThetaInvalid as the library does; never reads or writes ``dia.boxtimes``.
    """
    report = verify_theta_loop(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"theta fails verification: {report.violations[:3]}")
    pkg, HT, That = dia.pkg, dia.HT, dia.That
    image = dict(zip(HT.arrows, dia.image.tolist()))

    unit_id = {x: (uc, That.tables[x].ids[0]) for x, uc in dia.x_unit.items()}
    arrows, classes = {}, class_table(dia.class_map)
    for cid in HT.arrows:
        xs, xt = p_s(pkg, min(classes[cid])), p_r(pkg, min(classes[cid]))
        arrows.update(((cid, i), (unit_id[xs], unit_id[xt])) for i in That.tables[xs].ids)

    rows, position = report.rows, That.position
    product = {x: t.product.tolist() for x, t in That.tables.items()}

    def mul(a1, a2):
        (c1, x1), (c2, x2) = a1, a2
        x, r2 = position[x2]
        acted = image[HT.inv(c2)][position[x1][1]]
        out = product[x][rows[(c1, c2)][1]][product[x][acted][r2]]
        return HT.mul(c1, c2), That.tables[x].ids[out]

    return build_groupoid(set(unit_id.values()), arrows, mul, name=f"boxtimes({HT.name})")


def evaluation_ids(pkg, dia):
    """Each element s of the marked bundle -> the id of the character t -> t(s) of T, in the dual of T, a fibre at a time."""
    dual, out = pkg.weyl.dual, {}
    for x, t in dual.tables.items():
        tt = dia.That.tables[x]
        rows = tt.rows_of(t.values[[dual.position[cid][1] for _, cid in tt.elements]].T, t.exponent)
        out.update(zip(t.elements, map(tt.ids.__getitem__, rows.tolist())))
    return out


def weyl_action_loop(G, S_members, omega):
    """weyl_action one class at a time: every member at every character, and one row lookup per class."""
    S = frozenset(S_members)
    Q, class_map = quotient_by_bundle(G, S)
    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    om, comp, den = omega._int_table()
    exponents = ((f"character exponent {t.exponent} at {x}", t.exponent) for x, t in dual.tables.items())
    D = common_denominator(exponents, den)
    om = om * (D // den)
    pos = _columns(G, dual)
    inv = G.inverse_indices()

    image = np.full((len(Q.arrows), max(len(t.ids) for t in dual.tables.values())), -1)
    for cid, members in class_table(class_map).items():
        tx, ty = dual.tables[G.src[cid]], dual.tables[G.tgt[cid]]
        g = np.array([G.index[m] for m in sorted(members)])[:, None]
        a = np.array([G.index[b] for b in ty.elements])[None, :]
        gi = inv[g]
        gia = comp[gi, a]
        # [character, member, fibre element]; g^-1 a g lies in S
        chi = tx.values[:, pos[comp[gia, g]]] * (D // tx.exponent)
        vals = ((-om[g, gi] + om[gi, a] + om[gia, g])[None] + chi) % D
        disagree = (vals != vals[:, :1]).any(axis=(1, 2))
        if disagree.any():
            raise RepresentativeDisagreement((cid, tx.ids[int(np.argmax(disagree))]))
        image[Q.index[cid], :len(tx.ids)] = image_rows(ty, vals[:, 0], D, cid, tx.ids)
    image.setflags(write=False)
    verify_groupoid_action(Q, dual, image, class_map)
    return Q, dict(class_map), dual, image


def derive_weyl_actions_loop(G, S_members, omega=None):
    """derive_weyl_actions with conjugation by ``mul_all`` and the four tables written one class at a time."""
    omega = omega if omega is not None else TwoCocycle(G, {})
    GW, data = build_weyl_groupoid(G, S_members, omega)
    dual, Q = data.dual, data.Q
    K = to_bundle(dual)
    k_mult = bundle_lookups(K)[0]
    t_of = {cid: (data.class_map[x], cid) for cid, x in K.p.items()}
    fibres = {u: tuple(sorted(t_of[cid] for cid in K.fibres[u])) for u in G.units}
    T = tabulate_bundle(G.units, fibres, lambda a, b: t_of[k_mult(a[1], b[1])],
                        {u: t_of[K.identity[u]] for u in G.units})
    pos = {t: i for i, t in enumerate(sorted(T.p))}
    t_row = {x: np.array([pos[t_of[c]] for c in t.ids]) for x, t in dual.tables.items()}

    ad, classes = {}, class_table(data.class_map)
    for cid, members in classes.items():
        gamma = min(members)
        tx, ty = dual.tables[G.src[gamma]], dual.tables[G.tgt[gamma]]
        conj = [ty.column[mul_all(G, gamma, a, G.inv(gamma))] for a in tx.elements]
        ad[cid] = tx.rows_of(ty.values[:, conj], ty.exponent)

    left, rho = np.full((2, len(pos), len(GW.arrows)), -1, dtype=np.int32)
    right, lam = np.full((2, len(GW.arrows), len(pos)), -1, dtype=np.int32)
    for cid in classes:
        tx, ts, tt = dual.tables[G.src[cid]], t_row[G.src[cid]], t_row[G.tgt[cid]]
        eta = np.array([GW.index[(cid, i)] for i in tx.ids])
        rho[tt[:, None], eta] = ts[ad[cid]][:, None]
        left[tt[:, None], eta] = eta[tx.product[ad[cid]]]
        right[eta[:, None], ts] = eta[tx.product]
        lam[eta[:, None], ts] = tt[ad[Q.inv(cid)]]
    return ActionPackage(H=GW, T=T, left=left, right=right, lam=lam, rho=rho, weyl=data)


def diamond_action_loop(pkg, report=None):
    """diamond_action one class at a time: descent, image and multiplicativity, each a loop over the classes."""
    HT, class_map = quotient_HT(pkg, report)
    H, T = pkg.H, pkg.T
    classes = class_table(class_map)
    That = dual_bundle(T)
    ids = pkg.t_elements()
    pos = {t: i for i, t in enumerate(ids)}

    image = np.full((len(HT.arrows), max(len(t.ids) for t in That.tables.values())), -1)
    for cid, members in classes.items():
        rho = pkg.rho[:, sorted(H.index[eta] for eta in members)]
        if (rho != rho[:, :1]).any():
            raise DescentFailure(tuple(sorted(members)[:2]))
        tr, ts = That.tables[p_r(pkg, min(members))], That.tables[p_s(pkg, min(members))]
        at_rho = ts.values[:, [ts.column[ids[rho[pos[t], 0]]] for t in tr.elements]]
        image[HT.index[cid], :len(ts.ids)] = image_rows(tr, at_rho, ts.exponent, cid, ts.ids)
    image.setflags(write=False)

    x_unit = {T.p[u]: class_map[u] for u in H.units}
    verify_groupoid_action(HT, That, image, x_unit)
    for cid, members in classes.items():
        ts, tr = That.tables[p_s(pkg, min(members))], That.tables[p_r(pkg, min(members))]
        img = image[HT.index[cid], :len(ts.ids)]
        bad = img[ts.product] != tr.product[img[:, None], img[None, :]]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise NotAnAction(("multiplicativity", cid, ts.ids[a], ts.ids[b]))

    q_class = None if pkg.weyl is None else {cid: cid[0] for cid in classes}
    return DiamondData(pkg, HT, class_map, That, x_unit, q_class, image)


def trivial_theta_loop(dia):
    """trivial_theta as a dict, one trivial Character per composable pair of H/T, in ``HT.compose`` order."""
    values, classes = {}, class_table(dia.class_map)
    for (c1, c2) in dia.HT.compose:
        x = p_s(dia.pkg, min(classes[c2]))
        values[(c1, c2)] = trivial(dia.That, x)
    return ThetaDatum(values)


def grading_checks_loop(dia, c_tilde):
    """verify_reconstruction_hypotheses' grading checks, a class and an arrow at a time: (descends, effective, witnesses)."""
    H, wit = dia.pkg.H, {}
    descends = True
    for cid, members in class_table(dia.class_map).items():
        if len({c_tilde.value(m) for m in members}) != 1:
            descends, wit["grading_descends"] = False, cid
            break
    effective = True
    for g in (g for g in H.arrows if c_tilde.value(g) == grading_zero(c_tilde)):
        if H.src[g] == H.tgt[g] and not H.is_unit(g):
            effective, wit["kernel_effective"] = False, g
            break
    return descends, effective, wit


def iso_grading_loop(rep, c):
    """reconstruction_iso's grading check on its report, an arrow of the twisted product at a time: the first off its class's grade, or None."""
    data, dia = rep.dia.pkg.weyl, rep.dia
    classes = class_table(data.class_map)
    class_grade = {cid: c.value(min(classes[dia.q_class[cid]])) for cid in dia.HT.arrows}
    return next((a for a in rep.boxtimes.arrows if c.value(rep.phi[a]) != class_grade[a[0]]), None)


class PowerTable(dict):
    """Each element's powers x, x^2, ... up to the identity, built on first lookup."""

    def __init__(self, mul, identity):
        super().__init__()
        self.mul, self.identity = mul, identity

    def __missing__(self, x):
        pw, e = [x], self.identity(x)
        while pw[-1] != e:
            pw.append(self.mul(pw[-1], x))
        self[x] = pw
        return pw


def first_centralizing_bound(fibre, moved, powers: PowerTable):
    """The immediately-centralizing test on one fibre of a bundle.

    ``moved`` maps each fibre element x to its image under one arrow (for
    conjugation by t, x -> t x t^-1).  Returns the least bound k, up to the
    maximal element order of the fibre, such that every x has
    (moved x)^n = x^n for some n <= k although ``moved`` is not the
    identity; None when there is no such k.
    """
    if all(moved[x] == x for x in fibre):
        return None
    top = max(len(powers[x]) for x in fibre)

    def agree(x, n):  # (moved x)^n == x^n
        pm, px = powers[moved[x]], powers[x]
        return pm[(n - 1) % len(pm)] == px[(n - 1) % len(px)]

    k = max(next((n for n in range(1, top + 1) if agree(x, n)), top + 1) for x in fibre)
    return k if k <= top else None


def check_immediately_centralizing_loop(G, S_members, T_members):
    """check_immediately_centralizing one t at a time, conjugating with ``mul_all`` and powers from a PowerTable."""
    fibres = isotropy_fibres(G, S_members)
    powers = PowerTable(G.mul, G.tgt.__getitem__)
    for t in sorted(T_members):
        fibre, ti = fibres[G.src[t]], G.inv(t)
        moved = {s: mul_all(G, t, s, ti) for s in fibre}
        k = first_centralizing_bound(fibre, moved, powers)
        if k is not None:
            return False, (t, k)
    return True, None


def check_imm_centralizing_action_loop(Q, K, action, unit_of_base):
    """check_imm_centralizing_action one isotropy arrow at a time.

    ``K`` is the bundle as a GroupBundle (:func:`to_bundle`), and
    ``action`` maps (isotropy arrow id, K element id) -> K element id
    (``action_ids``); powers come from a PowerTable over K's product lookup.
    """
    base_of_unit = {}
    for x, u in unit_of_base.items():
        base_of_unit.setdefault(u, []).append(x)
    powers = PowerTable(bundle_lookups(K)[0], lambda chi: K.identity[K.p[chi]])
    for g in sorted(Q.arrows):
        if Q.src[g] != Q.tgt[g]:
            continue
        for x in base_of_unit.get(Q.src[g], []):
            fibre = K.fibres[x]
            k = first_centralizing_bound(fibre, {chi: action[(g, chi)] for chi in fibre}, powers)
            if k is not None:
                return False, (g, k)
    return True, None


def check_unit_identity(omega: TwoCocycle) -> bool:
    """Consequence check: omega(g, g^-1) = omega(g^-1, g) and unit neutrality.

    Both follow from the cocycle condition with the unit normalization, so a
    failure indicates a corrupted table.
    """
    G = omega.G
    for g in G.arrows:
        gi = G.inv(g)
        if omega.omega(g, gi) != omega.omega(gi, g):
            return False
        if not omega.omega(G.tgt[g], g).is_zero or not omega.omega(g, G.src[g]).is_zero:
            return False
    return True


def check_symmetric_on_loop(omega: TwoCocycle, members) -> bool:
    """check_symmetric_on with one pair of ``omega`` calls per pair of members that compose both ways."""
    G = omega.G
    S = sorted(set(members))
    for a, b in itertools.combinations(S, 2):
        if composable(G, a, b) and composable(G, b, a) and omega.omega(a, b) != omega.omega(b, a):
            return False
    return True


def iso_subgroupoid(G) -> Subgroupoid:
    """The isotropy bundle Iso(G) = arrows with equal range and source."""
    return Subgroupoid(G, frozenset(g for g in G.arrows if G.src[g] == G.tgt[g]))


def check_effective(G) -> bool:
    """Discrete effectiveness: every isotropy arrow is a unit."""
    return all(G.is_unit(g) for g in iso_subgroupoid(G).members)


class NotInS(WeylkitError):
    """A section defect outside the marked bundle, as :func:`theta_for_package_loop` raises it."""


# ------------------------------------------- reference versions only tests call

def mul_all(G: FiniteGroupoid, *gs):
    """The product gs[0] * gs[1] * ..., one ``mul`` at a time."""
    out = gs[0]
    for g in gs[1:]:
        out = G.mul(out, g)
    return out


def conjugate(G: FiniteGroupoid, g, a):
    """g^{-1} a g, defined when a is isotropy at r(g); lands at s(g)."""
    return mul_all(G, G.inv(g), a, g)


def arrows_from(G: FiniteGroupoid, u):
    """All arrows with source u (the fibre G_u of the left regular action)."""
    return [g for g in G.arrows if G.src[g] == u]


def element_order(G: FiniteGroupoid, g):
    """Order of an isotropy arrow in its fibre group."""
    if G.src[g] != G.tgt[g]:
        raise UnknownArrowId(g)
    n, x = 1, g
    while not G.is_unit(x):
        x = G.mul(x, g)
        n += 1
    return n


def class_table(class_map: Mapping) -> dict:
    """Invert a class map: class id -> frozenset of its members."""
    classes = {}
    for g, cid in class_map.items():
        classes.setdefault(cid, set()).add(g)
    return {cid: frozenset(ms) for cid, ms in classes.items()}


def find_isomorphism(G1: FiniteGroupoid, G2: FiniteGroupoid):
    """Exhaustive search for a groupoid isomorphism G1 -> G2.

    Returns an arrow bijection dict or None.  Intended for desk-scale
    groupoids (tens of arrows); candidates are prefiltered by unit-ness,
    isotropy and element order, then checked against the partial assignment.
    """
    if len(G1) != len(G2) or len(G1.units) != len(G2.units):
        return None

    def profile(G, g):
        iso = G.src[g] == G.tgt[g]
        return (G.is_unit(g), iso, element_order(G, g) if iso else 0)

    cand = {}
    for g in G1.arrows:
        cand[g] = [h for h in G2.arrows if profile(G2, h) == profile(G1, g)]
        if not cand[g]:
            return None

    order = sorted(G1.arrows, key=lambda g: (not G1.is_unit(g), len(cand[g]), g))
    assign = {}
    used = set()

    def consistent(g, h):
        if G1.src[g] in assign and assign[G1.src[g]] != G2.src[h]:
            return False
        if G1.tgt[g] in assign and assign[G1.tgt[g]] != G2.tgt[h]:
            return False
        if G1.inv(g) in assign and assign[G1.inv(g)] != G2.inv(h):
            return False
        for g2, h2 in assign.items():
            if composable(G1, g, g2):
                if not composable(G2, h, h2):
                    return False
                prod = G1.mul(g, g2)
                if prod in assign and assign[prod] != G2.mul(h, h2):
                    return False
            if composable(G1, g2, g):
                if not composable(G2, h2, h):
                    return False
                prod = G1.mul(g2, g)
                if prod in assign and assign[prod] != G2.mul(h2, h):
                    return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        g = order[i]
        for h in cand[g]:
            if h in used or not consistent(g, h):
                continue
            assign[g] = h
            used.add(h)
            if backtrack(i + 1):
                return True
            del assign[g]
            used.remove(h)
        return False

    if backtrack(0):
        return dict(assign)
    return None


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
            B = fibre_closure(G, u, A | {t})
            if B <= fibre and abelian_symmetric(G, omega, B):
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
        A = fibre_closure(G, u, {g})
        if abelian_symmetric(G, omega, A):
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


def double_dual_iso(bundle: GroupBundle):
    """The canonical evaluation map into the double dual.

    Returns (dual, double_dual, eval_map) with eval_map: element id ->
    Character of the dual fibre; verified bijective and multiplicative.
    """
    dual = dual_bundle(bundle)
    ddual = dual_bundle(to_bundle(dual))
    eval_map = {}
    for x in bundle.base:
        t, tt = dual.tables[x], ddual.tables[x]
        # element a evaluates each character: column a of the dual's table,
        # read in the order of the double dual's columns (the sorted ids)
        chars = [dual.position[cid][1] for cid in tt.elements]
        image = tt.rows_of(t.values[chars].T, t.exponent)
        if sorted(image.tolist()) != list(range(len(image))):
            raise DualityFailure(("evaluation map not bijective", x))
        bad = image[t.mul] != tt.product[image[:, None], image[None, :]]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise DualityFailure(("evaluation map not multiplicative", x, t.elements[a], t.elements[b]))
        eval_map.update(zip(t.elements, map(ddual.fibres[x].__getitem__, image.tolist())))
    return dual, ddual, eval_map


def bundle_package(T: GroupBundle) -> ActionPackage:
    """The degenerate package where H is just the unit space T (co-trivial).

    Both actions are T's product, and the exchange maps are the identity.
    """
    ids = sorted(T.p)
    pos = {t: i for i, t in enumerate(ids)}
    H = build_groupoid(ids, {t: (t, t) for t in ids}, lambda a, b: a, name="cotrivial(T)")
    left, right, lam, rho = np.full((4, len(ids), len(ids)), -1, dtype=np.int32)
    for x in T.base:
        f = np.array([pos[t] for t in T.fibres[x]])
        on = np.ix_(f, f)
        left[on] = right[on] = np.append(f, -1)[T.product[x]]
        lam[on], rho[on] = f[None, :], f[:, None]
    return ActionPackage(H=H, T=T, left=left, right=right, lam=lam, rho=rho)


def theta_from_section(G: FiniteGroupoid, S_members, section: Optional[dict] = None) -> ThetaDatum:
    """Build the whole pipeline from (G, S) and return the verified theta."""
    pkg = derive_weyl_actions(G, S_members)
    dia = diamond_action(pkg)
    theta = theta_for_package(pkg, dia, section)
    report = verify_theta(dia, theta)
    if not report.all_pass():
        raise ThetaInvalid(f"derived theta fails verification: {report.violations[:3]}")
    return theta


# ---------------------------------- methods no verdict reads, kept as references

def p_r(pkg: ActionPackage, eta):
    """The base point of T over the range of the arrow ``eta`` of H."""
    return pkg.T.p[pkg.H.tgt[eta]]


def p_s(pkg: ActionPackage, eta):
    """The base point of T over the source of the arrow ``eta`` of H."""
    return pkg.T.p[pkg.H.src[eta]]


def composable(G: FiniteGroupoid, g, h) -> bool:
    return G.src[g] == G.tgt[h]


def grading_zero(c: Grading) -> tuple:
    return tuple(0 for _ in c.group)


def all_true(rep: PropertyReport) -> bool:
    return rep.is_subgroupoid and rep.is_wide and rep.is_group_bundle and rep.fibres_abelian and rep.is_normal


def validate_action(spec):
    """Check that beta is an action of K on H by automorphisms; raise NotAutomorphism if not."""
    _action_table(spec)


def star_basis(alg: TwistedAlgebra, g):
    """delta_g^* = conj(phase(g, g^{-1})) . delta_{g^{-1}}."""
    i = alg.G.index[g]
    return alg.G.arrows[alg.inv[i]], alg.star_phase[i]


def convolve(alg: TwistedAlgebra, f, h) -> dict:
    out = alg.convolve_vectors(alg.vector(f), alg.vector(h))
    return {alg.G.arrows[k]: out[k] for k in np.flatnonzero(out)}


def star(alg: TwistedAlgebra, f) -> dict:
    out = {}
    for g, v in f.items():
        gi, ph = star_basis(alg, g)
        out[gi] = np.conj(v) * ph
    return out


def times(p: Phase, n: int) -> Phase:
    """n-fold sum of p (the n-th power on the circle)."""
    return Phase(p.num * n, p.den)


# ------------------------------------------ group bundles through callables

def tabulate_bundle(base, fibres: Mapping, mult, identity: Mapping) -> GroupBundle:
    """The GroupBundle whose product is the callable ``mult``, one call per pair of each fibre.

    ``fibres[x]`` lists the elements over x in the order of the table's
    positions; a product outside the fibre is -1.
    """
    fibres = {x: tuple(fibres[x]) for x in base}
    product = {}
    for x, f in fibres.items():
        pos = {a: i for i, a in enumerate(f)}
        product[x] = np.array([pos.get(mult(a, b), -1) for a in f for b in f], dtype=np.int64).reshape(len(f), len(f))
    return GroupBundle(tuple(base), fibres, {a: x for x, f in fibres.items() for a in f}, product, dict(identity))


def bundle_lookups(T: GroupBundle):
    """(mult, inv): the product and inverse of T's elements by id, read off its product tables.

    A product across fibres, or one the table leaves undefined, raises KeyError.
    """
    position = {a: i for f in T.fibres.values() for i, a in enumerate(f)}

    def mult(a, b):
        x = T.p[a]
        k = T.product[x][position[a], position[b]] if T.p[b] == x else -1
        if k < 0:
            raise KeyError((a, b))
        return T.fibres[x][k]

    def inv(a):
        x = T.p[a]
        row = T.product[x][position[a]] == position[T.identity[x]]
        if not row.any():
            raise KeyError(a)
        return T.fibres[x][int(np.argmax(row))]

    return mult, inv


def bundle_element_order(T: GroupBundle, a) -> int:
    """The least n >= 1 with a^n the identity of a's fibre."""
    mult = bundle_lookups(T)[0]
    n, x, e = 1, a, T.identity[T.p[a]]
    while x != e:
        x, n = mult(x, a), n + 1
    return n


def to_bundle(dual) -> GroupBundle:
    """A character bundle as a GroupBundle over character ids, with the character product tables."""
    tables = dual.tables
    return GroupBundle(dual.base, {x: tables[x].ids for x in dual.base},
                       {cid: x for cid, (x, _) in dual.position.items()},
                       {x: tables[x].product for x in dual.base}, {x: tables[x].ids[0] for x in dual.base})


def trivial(dual, x) -> Character:
    return dual.fibres[x][0]


def multiply(dual, chi: Character, nu: Character) -> Character:
    """The product of two characters of ``dual`` over one base point."""
    (x, i), (y, j) = dual.position[dual.char_id[chi]], dual.position[dual.char_id[nu]]
    if x != y:
        raise KeyError((chi.unit, nu.unit))
    return dual.fibres[x][dual.tables[x].product[i, j]]


def invert(dual, chi: Character) -> Character:
    x, i = dual.position[dual.char_id[chi]]
    return dual.fibres[x][dual.tables[x].inverse[i]]


class CharacterTableLoop(CharacterTable):
    """A CharacterTable whose ``mul`` is built by calling ``mult`` on every pair of sorted elements.

    The rest (exponent, characters, checks, product and inverse) is
    CharacterTable's own, so the two differ only in how the fibre's product
    is read: a callable here, the bundle's product table there.
    """

    def __init__(self, fibre, mult, identity, x):
        if len(fibre) > FIBRE_CAP:
            raise FibreTooLarge(f"fibre at {x} has order {len(fibre)}")
        self.base, self.elements, m = x, tuple(sorted(fibre)), len(fibre)
        self.column = column = {a: j for j, a in enumerate(self.elements)}
        self.ids = tuple(f"{x}#{i}" for i in range(m))
        if m == 1:
            (u,) = self.elements
            if u != identity or mult(u, u) != u:
                raise DualityFailure(("fibre is not a group", x))
            self.mul, self.values = np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
            self.identity, self.exponent = 0, 1
            return
        mul = np.array([column.get(mult(a, b), -1) for a in self.elements for b in self.elements])
        self.mul = mul = mul.reshape(m, m)
        if (mul != mul.T).any():
            i, j = np.argwhere(np.triu(mul != mul.T, 1))[0]
            raise NotAbelian(f"fibre at {x} is not abelian: ({self.elements[i]}, {self.elements[j]})")
        self.identity = column.get(identity, -1)
        if self.identity < 0 or (mul < 0).any():
            raise DualityFailure(("fibre is not a group", x))
        power, self.exponent = np.arange(m), 1
        while (power != self.identity).any():
            power, self.exponent = mul[power, np.arange(m)], self.exponent + 1
        self.values = self.check(self._characters())


# ------------------------------ the maximality search on sets of arrow ids

def fibre_closure(G: FiniteGroupoid, u, gens):
    """Subgroup of the isotropy fibre at u generated by gens: their product closure with u."""
    seeds = arrow_indices(G.index, [u, *gens], 1 + len(gens))
    covered = product_closure(G, np.zeros(len(G.arrows), dtype=bool), seeds)
    return frozenset(map(G.arrows.__getitem__, covered.nonzero()[0].tolist()))


def abelian_symmetric(G, omega, subset):
    m = arrow_indices(G.index, subset, len(subset))
    return noncommuting_pair(G, m) is None and check_symmetric_on(omega, subset)


def maximal_extension_loop(G: FiniteGroupoid, omega: TwoCocycle, kernel: Mapping, members) -> Optional[tuple]:
    """``cocycle._maximal_extension`` on frozensets of ids, one closure per candidate."""
    S = isotropy_fibres(G, members)
    for u in G.units:
        fibre, Su = set(kernel[u]), set(S[u])
        if len(fibre) > FIBRE_CAP:
            raise SearchCapExceeded(f"isotropy fibre at {u} has order {len(fibre)}")
        for t in sorted(fibre - Su):
            B = fibre_closure(G, u, Su | {t})
            if B <= fibre and abelian_symmetric(G, omega, B):
                return (u, t)
    return None
