"""Twisted convolution algebras as matrix algebras: representations, norms,
commutants, expectation trials, Wedderburn blocks, isomorphism comparison."""

import cmath
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit import algebra, corpus
from weylkit.algebra import (
    TwistedAlgebra,
    commutant_check,
    compare_algebras,
    expectation_checks,
    reduced_norm,
    regular_representation,
    total_representation,
    wedderburn_blocks,
)
from weylkit.cocycle import TwoCocycle
from weylkit.errors import ConventionMismatch, NotHomomorphism, NotStarHomomorphism, SchemaError
from weylkit.groupoid import Grading
from weylkit.phases import HALF, Phase
from weylkit.weyl import build_weyl_groupoid, weyl_twist_cocycle

from oracles import convolve, star, star_basis, total_representation_stack

BLOCK_ORACLE = {
    "z2z2": [1, 1, 1, 1],
    "pauli": [2],
    "rotation(3,1)": [3],
    "rotation(4,1)": [4],
    "s3": [1, 1, 2],
    "d4": [1, 1, 1, 1, 2],
    "q8": [1, 1, 1, 1, 2],
    "z2xR2": [2, 2],
    "rotation(6,2)": [3, 3, 3, 3],
}


def test_regular_representation_permutation_for_trivial_cocycle(entry):
    e = entry("s3")
    mats, basis = regular_representation(e.G, TwoCocycle(e.G, {}), e.G.units[0])
    for g in e.G.arrows:
        M = mats[g]
        assert np.all(np.isin(M, [0, 1]))  # 0/1 entries
        assert np.allclose(M @ M.conj().T, np.eye(len(basis)))


def test_pauli_generators_anticommute(entry):
    e = entry("pauli")
    mats, _ = regular_representation(e.G, e.omega, e.G.units[0])
    U, V = mats["1|0"], mats["0|1"]
    assert np.max(np.abs(U @ V + V @ U)) < 1e-12


def test_rotation31_commutation_relation(entry):
    e = entry("rotation(3,1)")
    mats, _ = regular_representation(e.G, e.omega, e.G.units[0])
    U, V = mats["1|0"], mats["0|1"]
    q = cmath.exp(2j * cmath.pi / 3)
    assert np.max(np.abs(V @ U - q * U @ V)) < 1e-12


def test_total_representation_faithful(entry):
    e = entry("z2xR2")
    mats = total_representation(e.G, e.omega)
    n = next(iter(mats.values())).shape[0]
    assert n == len(e.G)
    for g in e.G.arrows:
        assert np.max(np.abs(mats[g])) > 0


def test_star_and_convolution(entry):
    e = entry("pauli")
    alg = TwistedAlgebra(e.G, e.omega)
    g = "1|0"
    gi, ph = star_basis(alg, g)
    assert gi == e.G.inv(g)
    f = {"1|0": 1.0, "0|1": 2.0}
    ff = convolve(alg, star(alg, f), f)
    u = e.G.units[0]
    assert abs(ff[u] - 5.0) < 1e-12  # |1|^2 + |2|^2 on the unit


def test_reduced_norm_examples(entry):
    e = entry("z2z2")
    u = e.G.units[0]
    assert abs(reduced_norm(e.G, e.omega, {u: 1.0}) - 1) < 1e-10
    assert abs(reduced_norm(e.G, e.omega, {"0|1": 1.0}) - 1) < 1e-10
    # unit plus an order-2 bundle element
    assert abs(reduced_norm(e.G, e.omega, {u: 1.0, "1|0": 1.0}) - 2) < 1e-10


@pytest.mark.parametrize("name", ["pauli", "s3", "d4", "q8", "z2xR2"])
def test_commutant_maximal_abelian(entry, name):
    e = entry(name)
    report = commutant_check(e.G, e.omega, e.c, e.S)
    assert report.D_abelian and report.maximal_abelian
    assert report.commutant_dim == report.dim_D == len(e.S)


def test_commutant_pauli_equals_a0(entry):
    e = entry("pauli")
    report = commutant_check(e.G, e.omega, e.c, e.S)
    assert report.dim_A0 == report.dim_D == 2


def test_commutant_detects_non_maximal(entry):
    e = entry("d4")
    center = frozenset(["0|0", "2|0"])
    report = commutant_check(e.G, e.omega, e.c, center)
    assert report.D_abelian and not report.maximal_abelian
    assert report.commutant_dim > len(center)


def test_commutant_refuses_a_grading_that_is_no_homomorphism(entry):
    # A0 is the kernel of c, which means nothing unless c is a homomorphism
    e = entry("d4")
    regraded = Grading(e.c.group, {**e.c.values, "0|1": (0,)})     # the reflection 0|1 to degree 0
    with pytest.raises(NotHomomorphism) as exc:
        commutant_check(e.G, e.omega, regraded, e.S)
    assert exc.value.witness == ("0|1", "1|0")


@pytest.mark.parametrize("name", ["pauli", "q8", "z2xR2", "rotation(4,1)"])
def test_expectation_trials(entry, name):
    e = entry(name)
    report = expectation_checks(e.G, e.omega, e.S, trials=100, seed=0)
    assert report.all_pass()
    assert report.positivity_failures == 0 and report.max_negative >= -1e-10


def test_expectation_deterministic_per_seed(entry):
    e = entry("pauli")
    r1 = expectation_checks(e.G, e.omega, e.S, trials=10, seed=7)
    r2 = expectation_checks(e.G, e.omega, e.S, trials=10, seed=7)
    assert r1.as_dict() == r2.as_dict()


def test_systematic_positivity_failure_raises(entry):
    # corrupt the involution phase: delta_g^* picks up a spurious sign, so
    # f^* . f stops being positive and the checker must refuse to pass
    e = entry("z2z2")
    bad = TwoCocycle(e.G, {})
    bad.values[("1|0", "1|0")] = HALF  # bypasses cocycle validation on purpose
    with pytest.raises(ConventionMismatch):
        expectation_checks(e.G, bad, e.S, trials=20, seed=0)


def test_positivity_failure_on_the_only_trial_raises(entry):
    e = entry("z2z2")
    bad = TwoCocycle(e.G, {})
    bad.values[("1|0", "1|0")] = HALF
    with pytest.raises(ConventionMismatch, match="1/1 trials"):
        expectation_checks(e.G, bad, e.S, trials=1, seed=0)


@pytest.mark.parametrize("name", ["q8", "z2xR2", "rotation(4,0)"])
def test_expectation_reads_the_tables_pairing_rows(entry, name, monkeypatch):
    # row 1 of one fibre's pairing becomes minus row 0, so the expectation at
    # "<x>#1" is minus the one at the trivial character, negative on every trial
    def corrupted(bundle):
        dual = real(bundle)
        t = next(t for t in dual.tables.values() if len(t.elements) > 1)
        t.pairing[1] = [-v for v in t.pairing[0]]
        return dual

    real = algebra.dual_bundle
    e = entry(name)
    monkeypatch.setattr(algebra, "dual_bundle", corrupted)
    with pytest.raises(ConventionMismatch, match="10/10 trials"):
        expectation_checks(e.G, e.omega, e.S, trials=10, seed=0)


@pytest.mark.parametrize("name", ["q8", "z2xR2", "rotation(4,0)"])
def test_expectation_diagonal_check_sees_a_corrupted_pairing_row(entry, name, monkeypatch):
    # row 1 of one fibre's pairing repeats row 0: still a character, so positivity
    # holds, but the expectation no longer matches the Gelfand transform at "<x>#1"
    def corrupted(bundle):
        dual = real(bundle)
        t = next(t for t in dual.tables.values() if len(t.elements) > 1)
        t.pairing[1] = list(t.pairing[0])
        return dual

    real = algebra.dual_bundle
    e = entry(name)
    assert expectation_checks(e.G, e.omega, e.S, trials=10, seed=0).diagonal_ok
    monkeypatch.setattr(algebra, "dual_bundle", corrupted)
    report = expectation_checks(e.G, e.omega, e.S, trials=10, seed=0)
    assert report.positivity_failures == 0 and report.faithful_ok
    assert not report.diagonal_ok and not report.all_pass()


def test_expectation_trials_draw_one_real_and_one_imaginary_vector_per_trial(entry, monkeypatch):
    # the stream the trials drew one at a time, so a seed keeps its f's; on d4,
    # 32,800 trials are drawn in two passes
    e = entry("d4")
    seen = []
    star = TwistedAlgebra.star_vector
    monkeypatch.setattr(TwistedAlgebra, "star_vector", lambda alg, a: seen.append(a.copy()) or star(alg, a))
    expectation_checks(e.G, e.omega, e.S, trials=32800, seed=4)
    assert len(seen) == 2
    rng = np.random.default_rng(4)
    expected = [rng.standard_normal(len(e.G)) + 1j * rng.standard_normal(len(e.G)) for _ in range(32800)]
    assert np.array_equal(np.vstack(seen), expected)


def test_expectation_at_256_arrows_in_bounded_memory():
    # the trials' convolution terms are gathered in blocks: gathered at once,
    # 100 trials of 16 * 256 composable pairs peaked at 23 MB
    e = corpus.rotation(16, 1)
    tracemalloc.start()
    try:
        report = expectation_checks(e.G, e.omega, e.S, trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass()
    assert peak < 8e6, peak


def test_expectation_failures_survive_optimized_mode():
    # the checks compare arrays and raise typed errors, so they still run under python -O
    script = (
        "from weylkit import algebra, corpus\n"
        "from weylkit.cocycle import TwoCocycle\n"
        "from weylkit.errors import ConventionMismatch\n"
        "from weylkit.phases import HALF\n"
        "e = corpus.by_name('z2z2')\n"
        "bad = TwoCocycle(e.G, {})\n"
        "bad.values[('1|0', '1|0')] = HALF\n"
        "try:\n"
        "    algebra.expectation_checks(e.G, bad, e.S, trials=20, seed=0)\n"
        "except ConventionMismatch as exc:\n"
        "    print(type(exc).__name__)\n"
        "real = algebra.dual_bundle\n"
        "def corrupted(bundle):\n"
        "    dual = real(bundle)\n"
        "    t = next(t for t in dual.tables.values() if len(t.elements) > 1)\n"
        "    t.pairing[1] = list(t.pairing[0])\n"
        "    return dual\n"
        "algebra.dual_bundle = corrupted\n"
        "e = corpus.by_name('q8')\n"
        "print(algebra.expectation_checks(e.G, e.omega, e.S, trials=10, seed=0).diagonal_ok)\n"
    )
    assert run_optimized(script) == ["ConventionMismatch", "False"]


def test_table_and_grading_checks_survive_optimized_mode():
    script = (
        "from weylkit import algebra, corpus\n"
        "from weylkit.cocycle import TwoCocycle, check_cocycle\n"
        "from weylkit.errors import NotHomomorphism\n"
        "from weylkit.groupoid import Grading\n"
        "from weylkit.phases import HALF\n"
        "e = corpus.by_name('pauli')\n"
        "omega = TwoCocycle(e.G, e.omega.values)\n"
        "print(len(check_cocycle(e.G, omega)))\n"
        "omega.values[('1|0', '1|0')] = HALF\n"
        "print(len(check_cocycle(e.G, omega)))\n"
        "e = corpus.by_name('d4')\n"
        "c = Grading(e.c.group, {**e.c.values, '0|1': (0,)})\n"
        "try:\n"
        "    algebra.commutant_check(e.G, e.omega, c, e.S)\n"
        "except NotHomomorphism as exc:\n"
        "    print(exc.witness)\n"
    )
    assert run_optimized(script) == ["0", "5", "('0|1', '1|0')"]


@pytest.mark.parametrize("name", ["pauli", "rotation(4,1)"])
def test_exact_blocks_check_the_tables_in_optimized_mode(entry, name):
    # abelian isotropy reads its blocks from the numerator table, after the table check
    e = entry(name)
    G = e.G
    pair = next((g, x) for g, x in G.compose if not (G.is_unit(g) or G.is_unit(x)))
    values = dict(e.omega.values)
    values[pair] = e.omega.omega(*pair) + Phase(1, 3)
    expected = repr(_stack_witness(G, TwoCocycle(G, values)))
    script = (
        "from weylkit import corpus\n"
        "from weylkit.algebra import compare_algebras, wedderburn_blocks\n"
        "from weylkit.cocycle import TwoCocycle\n"
        "from weylkit.errors import NotStarHomomorphism\n"
        "from weylkit.phases import Phase\n"
        f"e = corpus.by_name({name!r})\n"
        "values = dict(e.omega.values)\n"
        f"values[{pair!r}] = e.omega.omega(*{pair!r}) + Phase(1, 3)\n"
        "bad = TwoCocycle(e.G, values)\n"
        "for run in (lambda: wedderburn_blocks(e.G, bad), lambda: compare_algebras(e.G, e.omega, e.G, bad)):\n"
        "    try:\n"
        "        run()\n"
        "    except NotStarHomomorphism as exc:\n"
        "        print(repr(exc.witness))\n"
    )
    assert run_optimized(script) == [expected, expected]


def _stack_witness(G, omega):
    with pytest.raises(NotStarHomomorphism) as info:
        total_representation_stack(G, omega)
    return info.value.witness


def run_optimized(script):
    """The stdout lines of ``script`` run under python -O."""
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


@pytest.mark.parametrize("name", sorted(BLOCK_ORACLE))
def test_wedderburn_blocks_oracles(entry, name):
    e = entry(name)
    blocks, center_dim = wedderburn_blocks(e.G, e.omega, seed=0)
    assert blocks == BLOCK_ORACLE[name]
    assert center_dim == len(blocks)
    assert sum(b * b for b in blocks) == len(e.G)


@pytest.mark.parametrize("name", ["pauli", "rotation(4,1)", "q8"])
def test_compare_with_weyl_output(entry, name):
    e = entry(name)
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    C = weyl_twist_cocycle(GW, data)
    report = compare_algebras(e.G, e.omega, GW, C, seed=0)
    assert report.passed, report.as_dict()
    assert report.dims[0] == report.dims[1]


def test_compare_detects_mismatch(entry):
    twisted = entry("rotation(4,1)")
    flat = entry("rotation(4,0)")
    GW, data = build_weyl_groupoid(flat.G, flat.S, flat.omega)
    C = weyl_twist_cocycle(GW, data)
    report = compare_algebras(twisted.G, twisted.omega, GW, C, seed=0)
    assert not report.passed
    assert report.blocks[0] != report.blocks[1]


def test_negative_seeds_are_refused(entry):
    # pauli's isotropy is abelian, so its blocks never read the seed; it is checked all the same
    e = entry("pauli")
    with pytest.raises(SchemaError):
        wedderburn_blocks(e.G, e.omega, seed=-5)
    with pytest.raises(SchemaError):
        wedderburn_blocks(e.G, e.omega, seed=-1)
    with pytest.raises(SchemaError):
        compare_algebras(e.G, e.omega, e.G, e.omega, seed=-1)
    with pytest.raises(SchemaError):
        expectation_checks(e.G, e.omega, e.S, trials=5, seed=-3)


@pytest.mark.parametrize("trials", [0, -3])
def test_expectation_refuses_fewer_than_one_trial(entry, trials):
    e = entry("pauli")
    with pytest.raises(SchemaError):
        expectation_checks(e.G, e.omega, e.S, trials=trials)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1e3, 1.0, 1.5])
def test_tolerances_outside_the_unit_interval_are_refused(entry, tol):
    e = entry("pauli")
    with pytest.raises(SchemaError):
        wedderburn_blocks(e.G, e.omega, tol=tol)
    with pytest.raises(SchemaError):
        compare_algebras(e.G, e.omega, e.G, e.omega, tol=tol)
