"""Finite twisted convolution algebras realized as matrix algebras.

An algebra is held as its structure constants on arrow indices:
delta_g * delta_h = phase[g, h] . delta_{comp[g, h]}, where ``comp`` is the
groupoid's compose array and ``phase`` is filled from the cocycle's
numerator table with one ``Phase.to_complex`` per distinct numerator.
Every step runs on these two arrays:

- A representation on the span of a union of source fibres B (one fibre
  for a left regular representation, every fibre for the total one) is
  held as two (|G|, |B|) tables, filled by one gather: target[g, j], the
  position of g * B[j] in B (-1 where they do not compose), and
  value[g, j], its phase.  Each delta_g is monomial, so the tables are the
  whole matrix.  On the basis vector x the product law
  pi(g) pi(b) = omega(g, b) pi(gb) at (g, b) is the cocycle identity at
  (g, b, x), and the star law pi(g)^* = conj(omega(g, g^-1)) pi(g^-1) is
  the identity at (g, g^-1, gx) once omega vanishes at the units.  So both
  laws are checked once per algebra, exactly, by ``check_cocycle``'s test
  on the numerator table (``TwistedAlgebra.defect``), and a cocycle that
  passes gets no other law check.  For one that fails, the broken law is
  named from the same numerators, mod den, before any table is built
  (``_broken_law``).  The dense matrices of the deltas are built from the
  tables only for the callers that return them.
- The center and the commutant are null spaces of the maps
  z -> ([z, delta_b])_b, b over the generators, resp. over S with z on the
  zero-graded part.  Neither map is built: its Gram matrix is scattered
  from one entry per (column, b) (see ``_center_gram``).  Whether span(S)
  is abelian is read off the tables exactly: delta_s delta_t = delta_t
  delta_s when st = ts and omega(s, t) = omega(t, s), or neither is defined.
- A convolution gathers the composable pairs whose products are asked
  for, grouped by product, and sums each group, over any leading axes in
  blocks of rows.
- The expectation trials run as blocked array passes over the same
  seeded stream of coefficients: f^* . f only at the members of S, and
  the expectation as one product with the tables' pairing rows.
- The Wedderburn blocks are read orbit by orbit, after the exact check.
  Choosing an arrow from a unit u to each unit of its orbit O gives
  C*(G, omega) as the sum over the orbits of
  M_|O|(C*(G_u^u, omega restricted)) (Muhly, Renault and Williams, 1987).
  For abelian isotropy A this is exact integer work on the cocycle's
  numerators: |rad| blocks of size |O| sqrt(|A|/|rad|), rad the radical
  {a : omega(a, b) - omega(b, a) = 0 mod den for every b} of the
  commutator bicharacter (Karpilovsky, 1985).  For non-abelian isotropy
  the split takes the eigenvalues of a random self-adjoint central element
  of C*(G_u^u, omega), one scatter from its tables; block n_i is an
  eigenvalue of multiplicity n_i^2 (see ``_split_blocks``), times |O|.

The law check, the naming of a broken law, whether span(S) is abelian and
the blocks for abelian isotropy are exact integer work on the numerator
table.  The center, the commutant's dimension and the split for non-abelian
isotropy are numerical, with fixed tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import TwoCocycle, check_symmetric_on, cocycle_violations
from .dual import bundle_from_subgroupoid, dual_bundle
from .errors import (
    ConventionMismatch,
    DegenerateSample,
    NotStarHomomorphism,
    SchemaError,
)
from .groupoid import FiniteGroupoid, Grading, validate_arrays, validate_grading
from .phases import Phase

HOM_TOL = 1e-12     # reported in CompareReport.tolerances; every law is checked exactly
SPEC_TOL = 1e-8
POS_TOL = 1e-10
_GATHER = 2**15     # entries in one block of rows of gathered convolution terms or law instances
_PASS = 2**18       # coefficients drawn per pass of expectation trials


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise SchemaError(f"seed must be a non-negative integer, got {seed!r}")


def _check_tol(tol):
    if not 0 < tol < 1:
        raise SchemaError(f"tol must be finite and in (0, 1), got {tol!r}")


class TwistedAlgebra:
    """The *-algebra spanned by arrow deltas with cocycle-twisted product.

    On arrow indices: ``comp`` is the compose array, ``num[g, h]`` the
    cocycle's numerator over the common denominator ``den``, ``phase[g, h]``
    the complex structure constant of delta_g * delta_h, ``inv[g]`` the
    inverse arrow and ``star_phase[g]`` the phase of delta_g^*.  No list of
    composable pairs is kept; a convolution gathers the pairs it needs.
    ``phase`` and ``star_phase`` are built on first read.
    """

    def __init__(self, G: FiniteGroupoid, omega: TwoCocycle):
        self.G = G
        self.omega = omega
        self.num, self.comp, self.den = omega._int_table()
        self.inv = G.inverse_indices()

    @functools.cached_property
    def phase(self):
        """The (|G|, |G|) complex table of e^{2 pi i num/den}.

        One gather from a table of the numerators that occur, or, where den
        exceeds the table's size, from the distinct numerators.
        """
        if self.den <= self.num.size:
            # numerators lie in [0, den): a lookup table, filled at the ones that occur
            lut = np.zeros(self.den, dtype=complex)
            seen = np.flatnonzero(np.bincount(self.num.ravel(), minlength=self.den))
            lut[seen] = [Phase(v, self.den).to_complex() for v in seen.tolist()]
            return lut[self.num]
        nums, at = np.unique(self.num, return_inverse=True)
        values = np.array([Phase(v, self.den).to_complex() for v in nums.tolist()])
        return values[at.reshape(self.num.shape)]

    @functools.cached_property
    def star_phase(self):
        """conj(phase[g, g^-1]) for each arrow index g."""
        return self.phase[np.arange(len(self.G)), self.inv].conj()

    @functools.cached_property
    def defect(self):
        """The first triple at which omega fails the exact cocycle check, or None; found on first read.

        The check is ``check_cocycle``'s, on the numerator table: unit
        normalization, then the identity with the middle argument over
        ``G.generators()``.
        """
        found = cocycle_violations(self.G, self.num, self.den, max_witnesses=1)
        return found[0] if found else None

    def vector(self, f):
        """The coefficient vector over arrow indices of an arrow -> number map."""
        out = np.zeros(len(self.G), dtype=complex)
        if f:
            out[[self.G.index[g] for g in f]] = list(f.values())
        return out

    def star_vector(self, a):
        """The coefficients of f^* for the coefficients a of f, along the last axis."""
        out = np.empty_like(a)
        out[..., self.inv] = a.conj() * self.star_phase
        return out

    def convolve_vectors(self, a, b, at=None):
        """The coefficients of f * h at the arrow indices ``at`` (default: every arrow).

        a and b hold the coefficients of f and h along their last axis, with
        any leading axes (one row per trial, say).  The value at x sums the
        composable pairs whose product is x, and only those pairs are
        gathered, in blocks of rows of at most _GATHER terms.
        """
        at = np.arange(len(self.G)) if at is None else np.asarray(at, dtype=np.int64)
        pos = np.full(len(self.G), -1, dtype=np.int64)
        pos[at] = np.arange(len(at))
        pairs = np.flatnonzero(self.comp >= 0)      # the composable [g, h] as flat indices, row by row
        k = pos[self.comp.ravel()[pairs]]
        pick = np.flatnonzero(k >= 0)
        pick = pick[np.argsort(k[pick], kind="stable")]
        # every arrow x is a product, of r(x) and x, so no run of pairs is empty
        starts = np.searchsorted(k[pick], np.arange(len(at)))
        gi, hi = np.divmod(pairs[pick], len(self.G))
        phase = self.phase[gi, hi]
        a2, b2 = (np.asarray(v, dtype=complex).reshape(-1, v.shape[-1]) for v in (a, b))
        out = np.empty((len(a2), len(at)), dtype=complex)
        step = max(1, _GATHER // max(1, len(pick)))
        for lo in range(0, len(out), step):
            terms = a2[lo:lo + step, gi]
            terms *= b2[lo:lo + step, hi]
            terms *= phase
            out[lo:lo + step] = np.add.reduceat(terms, starts, axis=1)
        return out.reshape(*a.shape[:-1], len(at))


def _tables(alg: TwistedAlgebra, basis):
    """The arrow deltas on the span of ``basis`` as two (|G|, |B|) tables.

    ``basis`` holds arrow indices and is a union of source fibres, so it is
    closed under left multiplication: delta_g sends basis vector j to
    value[g, j] times basis vector target[g, j], the position of g * basis[j],
    and target[g, j] is -1 where g and basis[j] do not compose.

    The tables are a *-homomorphism exactly when omega passes the exact
    cocycle check (see the module docstring), so they are returned with no
    other check when ``alg.defect`` is None.  Otherwise no table is built,
    and NotStarHomomorphism carries the witness of :func:`_broken_law`.
    """
    if alg.defect is not None:
        raise NotStarHomomorphism(_broken_law(alg, basis))
    pos = np.empty(len(alg.G), dtype=np.int64)
    pos[basis] = np.arange(len(basis))
    cols = alg.comp[:, basis]
    composes = cols >= 0
    target = np.where(composes, pos[cols], -1)
    value = np.where(composes, alg.phase[:, basis], 0)
    return target, value


def _broken_law(alg: TwistedAlgebra, basis):
    """The law that the deltas break on the span of ``basis``, read from the numerators mod den.

    On a basis vector x the star law at g is omega(g, g^-1) =
    omega(g, x) + omega(g^-1, gx), and the product law at (g, b) is
    omega(b, x) + omega(g, bx) = omega(g, b) + omega(gb, x).  The witness is
    ("star", g) for the first arrow g that fails, else ("product", g, b)
    for the first (g, b), b over the generators, in g-major order, else the
    exact defect, which may lie off ``basis``.  Rows are read in blocks of
    at most _GATHER entries.
    """
    G, num, comp, den = alg.G, alg.num, alg.comp, alg.den
    step = max(1, _GATHER // max(1, len(basis)))
    for lo in range(0, len(G), step):
        g = np.arange(lo, min(lo + step, len(G)))[:, None]
        gi, gx = alg.inv[g], comp[g, basis]
        bad = (gx >= 0) & ((num[g, basis] + num[gi, gx] - num[g, gi]) % den != 0)
        if bad.any():
            return ("star", G.arrows[lo + int(bad.any(axis=1).argmax())])
    gens = G.generators()
    g, b = np.nonzero(comp[:, gens] >= 0)
    b = gens[b]
    for lo in range(0, len(g), step):
        g_, b_ = g[lo:lo + step, None], b[lo:lo + step, None]
        bx, gb = comp[b_, basis], comp[g_, b_]
        bad = (bx >= 0) & ((num[b_, basis] + num[g_, bx] - num[g_, b_] - num[gb, basis]) % den != 0)
        if bad.any():
            k = lo + int(bad.any(axis=1).argmax())
            return ("product", G.arrows[g[k]], G.arrows[b[k]])
    return alg.defect


def _matrix(target, value, coeffs):
    """The matrix of sum_g coeffs[g] delta_g, by one scatter.

    For each column x the row gx determines g, so no two terms share an entry.
    """
    g, j = np.nonzero(target >= 0)
    M = np.zeros((target.shape[1], target.shape[1]), dtype=complex)
    M[target[g, j], j] = coeffs[g] * value[g, j]
    return M


def _fibre(G: FiniteGroupoid, u):
    """Indices of the arrows out of u, in index order."""
    return np.flatnonzero(G.endpoint_indices()[0] == G.index[u])


def _total_basis(G: FiniteGroupoid):
    """Every arrow index, fibre by fibre over the units, each in index order: the basis of the total representation."""
    return np.argsort(G.endpoint_indices()[0], kind="stable")


def _stack(target, value):
    """The dense (|G|, |B|, |B|) matrices of a representation's tables."""
    g, j = np.nonzero(target >= 0)
    stack = np.zeros((*target.shape, target.shape[1]), dtype=complex)
    stack[g, target[g, j], j] = value[g, j]
    return stack


def regular_representation(G: FiniteGroupoid, omega: TwoCocycle, u):
    """Matrices of the arrow deltas on the span of the arrows out of u.

    Returns (matrices: arrow -> ndarray, basis: ordered fibre arrows).
    A *-homomorphism, checked exactly (see :func:`_tables`).
    """
    basis = _fibre(G, u)
    stack = _stack(*_tables(TwistedAlgebra(G, omega), basis))
    return dict(zip(G.arrows, stack)), [G.arrows[i] for i in basis]


def total_representation(G: FiniteGroupoid, omega: TwoCocycle):
    """Block-diagonal sum of the regular representations over all units.

    Faithful, of total dimension |G|.  Returns arrow -> ndarray.
    """
    basis = _total_basis(G)
    return dict(zip(G.arrows, _stack(*_tables(TwistedAlgebra(G, omega), basis))))


def reduced_norm(G: FiniteGroupoid, omega: TwoCocycle, f) -> float:
    """sup over units of the operator norm of the regular representation."""
    alg = TwistedAlgebra(G, omega)
    coeffs = alg.vector(f)
    best = 0.0
    for u in G.units:
        M = _matrix(*_tables(alg, _fibre(G, u)), coeffs)
        best = max(best, float(np.linalg.norm(M, 2)))
    return best


def _null_space(gram, tol):
    """Orthonormal columns spanning the null space of K: eigenvalues of gram = K^* K below tol * scale."""
    eigvals, eigvecs = np.linalg.eigh(gram)
    scale = max(1.0, float(eigvals.max(initial=1.0)))
    return eigvecs[:, eigvals < tol * scale]


def _center_gram(alg: TwistedAlgebra, left=None, cols=None):
    """The Gram matrix K^* K of K: z -> ([z, delta_b])_{b in left}, z supported on ``cols``, built without K.

    ``left`` and ``cols`` hold arrow indices; they default to the
    generators, whose commutant is the center, and every arrow.  K_b is
    R_b - L_b, right minus left multiplication by delta_b, and both are
    monomial: R_b^* R_b and L_b^* L_b are diagonal, counting the b with
    x b, and with b x, defined.  The cross term C = sum_b R_b^* L_b has
    conj(phase[x, b]) phase[b, y] at [x, y] when x b = b y, that is
    y = b^-1 (x b), so sum_b K_b^* K_b = counts - C - C^* is scattered from
    one entry per (x, b), kept where y is in ``cols`` too.
    """
    n = len(alg.G)
    left = alg.G.generators() if left is None else np.asarray(left, dtype=np.int64)
    cols = np.arange(n) if cols is None else np.asarray(cols, dtype=np.int64)
    m = len(cols)
    pos = np.full(n + 1, -1, dtype=np.int64)       # position in cols, or -1; pos[-1] is a spare -1
    pos[cols] = np.arange(m)
    xb = alg.comp[cols[:, None], left]
    defined = xb >= 0
    y = pos[alg.comp[alg.inv[left], xb]]            # b^-1 (x b), read only where x b is defined
    x, k = np.nonzero(defined & (y >= 0))
    y, b = y[x, k], left[k]
    terms = alg.phase[cols[x], b].conj() * alg.phase[b, cols[y]]
    at = x * m + y
    cross = np.empty(m * m, dtype=complex)
    cross.real = np.bincount(at, terms.real, m * m)
    cross.imag = np.bincount(at, terms.imag, m * m)
    cross = cross.reshape(m, m)
    counts = defined.sum(axis=1) + (alg.comp[left[:, None], cols] >= 0).sum(axis=0)
    return np.diag(counts) - cross - cross.conj().T


def _center_basis(alg: TwistedAlgebra, tol=SPEC_TOL):
    """Orthonormal coefficient vectors spanning the center: the null space of ``_center_gram``."""
    return _null_space(_center_gram(alg), tol)


@dataclass
class CommutantReport:
    dim_D: int
    dim_A0: int
    commutant_dim: int
    D_abelian: bool
    maximal_abelian: bool
    tol: float = SPEC_TOL

    def as_dict(self):
        return {
            "dim_D": self.dim_D,
            "dim_A0": self.dim_A0,
            "commutant_dim": self.commutant_dim,
            "D_abelian": self.D_abelian,
            "maximal_abelian": self.maximal_abelian,
            "tol": self.tol,
        }


def commutant_check(G: FiniteGroupoid, omega: TwoCocycle, c: Grading, S_members) -> CommutantReport:
    """The commutant of span(S) inside the zero-graded part, by nullspace.

    span(S) is maximal abelian in the zero-graded subalgebra exactly when
    it is abelian, which is read off the tables exactly, and the commutant
    dimension, the null space of ``_center_gram`` over S and the
    zero-graded arrows, equals dim span(S).
    """
    S = sorted(set(S_members))
    A0 = np.flatnonzero(~validate_grading(G, c).any(axis=1))    # raises NotHomomorphism unless c is a grading
    alg = TwistedAlgebra(G, omega)
    if alg.defect is not None:
        _tables(alg, _total_basis(G))   # raises NotStarHomomorphism, naming the broken law
    s = np.array([G.index[g] for g in S], dtype=np.int64)
    commutant_dim = _null_space(_center_gram(alg, s, A0), SPEC_TOL).shape[1]
    # delta_a, delta_b commute: ab = ba as indices (both -1 where neither is defined) and omega(a, b) = omega(b, a)
    ab = alg.comp[s[:, None], s]
    abelian = bool((ab == ab.T).all()) and check_symmetric_on(omega, S)
    return CommutantReport(
        dim_D=len(S),
        dim_A0=len(A0),
        commutant_dim=commutant_dim,
        D_abelian=abelian,
        maximal_abelian=abelian and commutant_dim == len(S),
    )


@dataclass
class ExpectationReport:
    trials: int
    seed: int
    positivity_failures: int
    max_negative: float
    faithful_ok: bool
    diagonal_ok: bool

    def all_pass(self):
        return self.positivity_failures == 0 and self.faithful_ok and self.diagonal_ok

    def as_dict(self):
        return {
            "trials": self.trials,
            "seed": self.seed,
            "positivity_failures": self.positivity_failures,
            "max_negative": self.max_negative,
            "faithful_ok": self.faithful_ok,
            "diagonal_ok": self.diagonal_ok,
            "all_pass": self.all_pass(),
        }


def expectation_checks(
    G: FiniteGroupoid,
    omega: TwoCocycle,
    S_members,
    trials: int = 100,
    seed: int = 0,
) -> ExpectationReport:
    """Random-trial positivity and faithfulness of the expectation onto span(S).

    For each random f: the expectation of f* . f must be (numerically)
    nonnegative at every character, and can only vanish identically when
    f itself is negligible in the reduced norm; on f restricted to span(S)
    it must be the Gelfand transform.  Raises ConventionMismatch when
    positivity fails on at least half the trials.

    The trials run as array passes over blocks of at most _PASS
    coefficients, drawn as ``standard_normal((block, 2, |G|))``, real part
    first: the stream of one real and one imaginary draw per trial.  f* . f
    is convolved only at the members of S, and the expectation is one
    product with the (characters x S) matrix of the tables' pairing rows,
    which the diagonal check compares with the phases of the tables' value
    rows, one ``Phase.to_complex`` per numerator.
    """
    _check_seed(seed)
    if trials < 1:
        raise SchemaError(f"trials must be at least 1, got {trials!r}")
    alg = TwistedAlgebra(G, omega)
    dual = dual_bundle(bundle_from_subgroupoid(G, frozenset(S_members)))
    S = sorted(S_members)
    column = {a: k for k, a in enumerate(S)}
    tables = [dual.tables[x] for x in dual.base]
    pairing = np.zeros((sum(len(t.elements) for t in tables), len(S)), dtype=complex)
    gelfand_phases = np.zeros_like(pairing)
    r = 0
    for t in tables:
        rows, cols = slice(r, r + len(t.elements)), [column[a] for a in t.elements]
        pairing[rows, cols] = t.pairing
        phases = np.array([Phase(k, t.exponent).to_complex() for k in range(t.exponent)])
        gelfand_phases[rows, cols] = phases[t.values]
        r = rows.stop
    mismatch = pairing - gelfand_phases
    s_index = np.array([G.index[a] for a in S], dtype=np.int64)

    rng = np.random.default_rng(seed)
    failures, max_neg = 0, 0.0
    faithful_ok, diagonal_ok = True, True
    step = max(1, _PASS // len(G))
    for lo in range(0, trials, step):
        draws = rng.standard_normal((min(step, trials - lo), 2, len(G)))
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        delta = alg.convolve_vectors(alg.star_vector(coeffs), coeffs, at=s_index) @ pairing.T
        worst = delta.real.min(axis=1, initial=0.0)
        failed = (worst < -POS_TOL) | (np.abs(delta.imag).max(axis=1, initial=0.0) > SPEC_TOL)
        failures += int(failed.sum())
        max_neg = min(max_neg, float(worst[failed].min(initial=0.0)))
        negligible = coeffs[np.abs(delta).max(axis=1, initial=0.0) <= POS_TOL]
        norms = np.array([reduced_norm(G, omega, dict(zip(G.arrows, c))) for c in negligible])
        faithful_ok &= not (norms > SPEC_TOL).any()
        # restriction to the bundle is the Gelfand transform on its span
        diagonal_ok &= not np.abs(coeffs[:, s_index] @ mismatch.T).max(initial=0.0) > SPEC_TOL

    if failures >= max(1, trials // 2):
        raise ConventionMismatch(
            f"expectation positivity failed on {failures}/{trials} trials"
        )
    return ExpectationReport(trials, seed, failures, max_neg, faithful_ok, diagonal_ok)


def _split_blocks(target, value, center, seed, tol):
    """Sorted Wedderburn block sizes from a total representation's tables and a center basis.

    Tables on ``_total_basis`` are the left regular representation of
    A = M_{n_1} + ... + M_{n_k} on itself, where M_n has dimension n^2.  A
    central z = sum lambda_i 1_i acts on the i-th summand as lambda_i, so
    once the eigenvalue clusters of a random z + z^* are as many as the
    center's dimension, cluster i has exactly n_i^2 members.  Other samples
    are retried with fresh coefficients.
    """
    center_dim = center.shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(5):
        coeffs = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        A = _matrix(target, value, center @ coeffs)
        eigvals = np.linalg.eigvalsh(A + A.conj().T)
        scale = max(1.0, float(np.max(np.abs(eigvals))))
        ends = np.flatnonzero(np.diff(eigvals) > tol * scale) + 1
        sizes = np.diff(ends, prepend=0, append=len(eigvals))
        roots = np.rint(np.sqrt(sizes)).astype(np.int64)
        if len(sizes) == center_dim and (roots * roots == sizes).all():
            return sorted(roots.tolist())
    raise DegenerateSample(f"no separating central element found after 5 attempts (seed {seed})")


def _orbits(G: FiniteGroupoid):
    """(orbit size, isotropy arrow indices at the orbit's least unit) for each orbit of units, in unit order.

    The orbit of a unit u is the set of targets of the arrows out of u, so
    its least member is one scatter over the arrows.
    """
    n = len(G)
    s, t = G.endpoint_indices()
    least = np.full(n, n)
    np.minimum.at(least, s, t)          # at each unit, the least unit of its orbit
    reps = np.flatnonzero(least == np.arange(n))
    sizes = np.bincount(least[s == np.arange(n)], minlength=n)[reps]
    for u, size in zip(reps.tolist(), sizes.tolist()):
        yield size, np.flatnonzero((s == u) & (t == u))


def _abelian_blocks(num, den):
    """(blocks, center dimension) of C*(A, omega) for an abelian group A, from numerators over den on A x A.

    For a cocycle omega, omega(a, b) - omega(b, a) is a bicharacter that
    does not change when omega is multiplied by a coboundary, and
    C*(A, omega) is |rad| copies of M_k with k^2 = |A|/|rad|, rad the
    bicharacter's radical (Karpilovsky, Projective Representations of
    Finite Groups, 1985).  The numerators are read mod den.
    """
    rad = int((~((num - num.T) % den).any(axis=1)).sum())
    return [math.isqrt(len(num) // rad)] * rad, rad


def _isotropy_algebra(alg: TwistedAlgebra, iso):
    """C*(G_u^u, omega restricted) on the isotropy arrow indices ``iso`` at one unit, as an algebra of its own."""
    G, m = alg.G, len(iso)
    ids = [G.arrows[i] for i in iso.tolist()]
    pos = np.empty(len(G), dtype=np.int64)
    pos[iso] = np.arange(m)
    gi, hi = np.divmod(np.arange(m * m), m)
    ki = pos[alg.comp[iso[gi], iso[hi]]]
    u = G.src[ids[0]]
    H = validate_arrays([u], dict.fromkeys(ids, (u, u)), gi, hi, ki,
                        lambda j: ((ids[gi[j]], ids[hi[j]]), ids[ki[j]]), name=f"{G.name} at {u}")
    group = TwistedAlgebra(H, TwoCocycle.from_table(H, alg.num[np.ix_(iso, iso)], alg.den))
    group.defect = None     # covered by G's exact check: omega restricted to G_u^u is a cocycle when omega is
    return group


def wedderburn_blocks(G: FiniteGroupoid, omega: TwoCocycle, seed: int = 0, tol: float = SPEC_TOL):
    """Block sizes of the algebra as a direct sum of matrix algebras.

    omega is first checked exactly (see :func:`_tables`).  Then, orbit by
    orbit: C*(G, omega) is the sum over the orbits O of
    M_|O|(C*(G_u^u, omega restricted)), u in O (Muhly, Renault and
    Williams, 1987; for a finite groupoid, choose an arrow from u to each
    unit of O), and a group is its own one orbit, read with no gather.  For
    abelian isotropy the blocks are exact integer work on the numerator
    table (see :func:`_abelian_blocks`); otherwise the eigenvalue
    multiplicities of a random self-adjoint central element of
    C*(G_u^u, omega) are the squares n_i^2 (see :func:`_split_blocks`), and
    only there do ``seed`` and ``tol`` enter.  Each block is multiplied by
    |O|, and the center dimension is the sum over the orbits.  Returns (sorted block list, center dimension).
    """
    _check_seed(seed)
    _check_tol(tol)
    alg = TwistedAlgebra(G, omega)
    if alg.defect is not None:
        _tables(alg, _total_basis(G))   # raises NotStarHomomorphism, naming the broken law
    blocks, center_dim = [], 0
    for size, iso in [(1, None)] if len(G.units) == 1 else _orbits(G):
        sub = alg.comp if iso is None else alg.comp[np.ix_(iso, iso)]      # iso None: G is the group
        if (sub == sub.T).all():        # G_u^u is abelian
            found, dim = _abelian_blocks(alg.num if iso is None else alg.num[np.ix_(iso, iso)], alg.den)
        else:
            group = alg if iso is None else _isotropy_algebra(alg, iso)
            center = _center_basis(group, tol=tol)
            tables = _tables(group, np.arange(len(group.G)))
            found, dim = _split_blocks(*tables, center, seed, tol), center.shape[1]
        blocks += [size * n for n in found]
        center_dim += dim
    return sorted(blocks), center_dim


@dataclass
class CompareReport:
    dims: tuple
    center_dims: tuple
    blocks: tuple
    seed: int
    verdict: str
    tolerances: dict = field(
        default_factory=lambda: {"spectral": SPEC_TOL, "homomorphism": HOM_TOL}
    )

    @property
    def passed(self):
        return self.verdict == "PASS"

    def as_dict(self):
        return {
            "dimensions": list(self.dims),
            "center_dims": list(self.center_dims),
            "blocks": [list(b) for b in self.blocks],
            "seed": self.seed,
            "verdict": self.verdict,
            "tolerances": self.tolerances,
        }


def compare_algebras(
    G1: FiniteGroupoid,
    omega1: TwoCocycle,
    G2: FiniteGroupoid,
    omega2: TwoCocycle,
    seed: int = 0,
    tol: float = SPEC_TOL,
) -> CompareReport:
    """Isomorphism-invariant comparison of two twisted algebras.

    Equal Wedderburn multisets decide the isomorphism type of
    finite-dimensional C*-algebras, so the verdict is PASS exactly when
    dimensions, center dimensions and block multisets all agree.  A seed
    that is negative, or a tol outside (0, 1), is refused with SchemaError.
    """
    b1, z1 = wedderburn_blocks(G1, omega1, seed=seed, tol=tol)
    b2, z2 = wedderburn_blocks(G2, omega2, seed=seed, tol=tol)
    same = len(G1) == len(G2) and z1 == z2 and b1 == b2
    return CompareReport(
        dims=(len(G1), len(G2)),
        center_dims=(z1, z2),
        blocks=(tuple(b1), tuple(b2)),
        seed=seed,
        verdict="PASS" if same else "FAIL",
    )
