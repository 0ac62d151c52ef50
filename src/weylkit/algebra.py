"""Finite twisted convolution algebras realized as matrix algebras.

Everything runs through the left regular representations: one block per
unit, acting on the complex span of the arrows out of that unit.  Exact
phases enter only through the structure constants; from there on the
computations are numerical with fixed tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cocycle import TwoCocycle
from .dual import bundle_from_subgroupoid, dual_bundle
from .errors import CardinalityMismatch, ConventionMismatch, DegenerateSample, NotStarHomomorphism
from .groupoid import FiniteGroupoid, Grading
from .weyl import conditional_expectation

HOM_TOL = 1e-12
SPEC_TOL = 1e-8
POS_TOL = 1e-10


class TwistedAlgebra:
    """The *-algebra spanned by arrow deltas with cocycle-twisted product."""

    def __init__(self, G: FiniteGroupoid, omega: TwoCocycle):
        self.G = G
        self.omega = omega

    def product_basis(self, g, h):
        """delta_g * delta_h = phase . delta_{gh}, or None if not composable."""
        if not self.G.composable(g, h):
            return None
        return self.G.mul(g, h), self.omega.omega(g, h).to_complex()

    def star_basis(self, g):
        """delta_g^* = conj(phase(g, g^{-1})) . delta_{g^{-1}}."""
        gi = self.G.inv(g)
        return gi, np.conj(self.omega.omega(g, gi).to_complex())

    def convolve(self, f, h):
        out = {}
        for (g1, g2), g12 in self.G.compose.items():
            a, b = f.get(g1, 0), h.get(g2, 0)
            if a and b:
                out[g12] = out.get(g12, 0) + a * b * self.omega.omega(g1, g2).to_complex()
        return out

    def star(self, f):
        out = {}
        for g, v in f.items():
            gi, ph = self.star_basis(g)
            out[gi] = np.conj(v) * ph
        return out


def regular_representation(G: FiniteGroupoid, omega: TwoCocycle, u):
    """Matrices of the arrow deltas on the span of the arrows out of u.

    Returns (matrices: arrow -> ndarray, basis: ordered fibre arrows).
    Verified to be a *-homomorphism to 1e-12.
    """
    basis = sorted(G.arrows_from(u))
    index = {g: i for i, g in enumerate(basis)}
    n = len(basis)
    alg = TwistedAlgebra(G, omega)
    mats = {}
    for g in G.arrows:
        M = np.zeros((n, n), dtype=complex)
        for x in basis:
            res = alg.product_basis(g, x)
            if res is not None:
                gx, ph = res
                M[index[gx], index[x]] = ph
        mats[g] = M
    _verify_star_hom(G, alg, mats)
    return mats, basis


def _verify_star_hom(G, alg, mats):
    for g in G.arrows:
        gi, ph = alg.star_basis(g)
        if not np.max(np.abs(mats[g].conj().T - ph * mats[gi])) < HOM_TOL:
            raise NotStarHomomorphism(("star", g))
    for (g, h), gh in G.compose.items():
        expected = alg.product_basis(g, h)[1] * mats[gh]
        if not np.max(np.abs(mats[g] @ mats[h] - expected)) < HOM_TOL:
            raise NotStarHomomorphism(("product", g, h))


def total_representation(G: FiniteGroupoid, omega: TwoCocycle):
    """Block-diagonal sum of the regular representations over all units.

    Faithful, of total dimension |G|.  Returns arrow -> ndarray.
    """
    blocks = [regular_representation(G, omega, u)[0] for u in G.units]
    sizes = [next(iter(b.values())).shape[0] for b in blocks]
    n = sum(sizes)
    if n != len(G):
        raise CardinalityMismatch(("total representation", n, len(G)))
    mats = {}
    for g in G.arrows:
        M = np.zeros((n, n), dtype=complex)
        off = 0
        for b, sz in zip(blocks, sizes):
            M[off : off + sz, off : off + sz] = b[g]
            off += sz
        mats[g] = M
    return mats


def rep_matrix(mats, f):
    """The matrix of a finitely supported function under a representation."""
    some = next(iter(mats.values()))
    M = np.zeros_like(some)
    for g, v in f.items():
        if v:
            M = M + v * mats[g]
    return M


def reduced_norm(G: FiniteGroupoid, omega: TwoCocycle, f) -> float:
    """sup over units of the operator norm of the regular representation."""
    best = 0.0
    for u in G.units:
        mats, _ = regular_representation(G, omega, u)
        best = max(best, float(np.linalg.norm(rep_matrix(mats, f), 2)))
    return best


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
    the commutant dimension equals dim span(S).
    """
    S = sorted(set(S_members))
    A0 = sorted(g for g in G.arrows if c.value(g) == c.zero)
    mats = total_representation(G, omega)
    n = next(iter(mats.values())).shape[0]

    M = np.zeros((len(A0), len(A0)), dtype=complex)
    for s in S:
        Ds = mats[s]
        C = np.stack(
            [(mats[g] @ Ds - Ds @ mats[g]).ravel() for g in A0], axis=1
        )
        M += C.conj().T @ C
    eigvals = np.linalg.eigvalsh(M)
    commutant_dim = int(np.sum(eigvals < SPEC_TOL * max(1.0, eigvals.max(initial=1.0))))

    abelian = True
    for a, b in itertools.combinations(S, 2):
        if np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) > SPEC_TOL:
            abelian = False
            break
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
    f itself is negligible in the reduced norm.  Raises ConventionMismatch
    when positivity fails on at least half the trials.
    """
    rng = np.random.default_rng(seed)
    alg = TwistedAlgebra(G, omega)
    dual = dual_bundle(bundle_from_subgroupoid(G, frozenset(S_members)))
    arrows = list(G.arrows)

    failures, max_neg = 0, 0.0
    faithful_ok, diagonal_ok = True, True
    for _ in range(trials):
        coeffs = rng.standard_normal(len(arrows)) + 1j * rng.standard_normal(len(arrows))
        f = dict(zip(arrows, coeffs))
        ff = alg.convolve(alg.star(f), f)
        delta = conditional_expectation(G, dual, ff)
        worst = min((v.real for v in delta.values()), default=0.0)
        imag = max((abs(v.imag) for v in delta.values()), default=0.0)
        if worst < -POS_TOL or imag > SPEC_TOL:
            failures += 1
            max_neg = min(max_neg, worst)
        if max(abs(v) for v in delta.values()) <= POS_TOL:
            if reduced_norm(G, omega, f) > SPEC_TOL:
                faithful_ok = False

        # restriction to the bundle is the Gelfand transform on its span
        d = {g: f[g] for g in S_members}
        gelfand = conditional_expectation(G, dual, d)
        for cid, chi in dual.by_id.items():
            direct = sum(
                chi.value(a).to_complex() * d.get(a, 0)
                for a in dual.bundle.fibre(chi.unit)
            )
            if abs(gelfand[cid] - direct) > SPEC_TOL:
                diagonal_ok = False

    if failures >= max(1, trials // 2):
        raise ConventionMismatch(
            f"expectation positivity failed on {failures}/{trials} trials"
        )
    return ExpectationReport(trials, seed, failures, max_neg, faithful_ok, diagonal_ok)


def _center_basis(mats, arrows, tol=SPEC_TOL):
    n = next(iter(mats.values())).shape[0]
    M = np.zeros((len(arrows), len(arrows)), dtype=complex)
    for g in arrows:
        A = mats[g]
        C = np.stack([(mats[h] @ A - A @ mats[h]).ravel() for h in arrows], axis=1)
        M += C.conj().T @ C
    eigvals, eigvecs = np.linalg.eigh(M)
    scale = max(1.0, float(eigvals.max(initial=1.0)))
    keep = eigvals < tol * scale
    return eigvecs[:, keep]


def wedderburn_blocks(G: FiniteGroupoid, omega: TwoCocycle, seed: int = 0, tol: float = SPEC_TOL):
    """Block sizes of the algebra as a direct sum of matrix algebras.

    A random self-adjoint central element is diagonalized; its spectral
    projections cut out the simple ideals, each of dimension n_i^2.
    Returns (sorted block list, center dimension).
    """
    mats = total_representation(G, omega)
    arrows = list(G.arrows)
    n = next(iter(mats.values())).shape[0]
    center = _center_basis(mats, arrows, tol=tol)
    center_dim = center.shape[1]

    rng = np.random.default_rng(seed)
    for attempt in range(5):
        coeffs = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        z = dict(zip(arrows, center @ coeffs))
        A = rep_matrix(mats, z)
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
            continue  # degenerate sample; retry with fresh coefficients
        blocks = []
        ok = True
        for cl in clusters:
            P = eigvecs[:, cl] @ eigvecs[:, cl].conj().T
            span = np.stack([(P @ mats[g] @ P).ravel() for g in arrows], axis=1)
            d = int(np.linalg.matrix_rank(span, tol=tol))
            root = round(d**0.5)
            if root * root != d:
                ok = False
                break
            blocks.append(root)
        if not ok:
            continue
        if sum(b * b for b in blocks) != len(G):
            continue
        return sorted(blocks), center_dim
    raise DegenerateSample(
        f"no separating central element found after 5 attempts (seed {seed})"
    )


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
    dimensions, center dimensions and block multisets all agree.
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
