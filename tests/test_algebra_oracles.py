"""The structure-constant algebra against the matrix-by-matrix algorithms it replaced.

Representations, *-homomorphism checks, centers, commutants, convolutions
and expectation trials are compared with the oracles in ``tests/oracles.py``
on the corpus and its Weyl twists.  Cocycle mutations show that the checks
restricted to generators refuse whatever the exhaustive ones refuse: single
entries, which the star law already catches, and pairs of entries that keep
the star law and break only the product law.
"""

import numpy as np
import pytest

from weylkit import corpus
from weylkit.algebra import (
    TwistedAlgebra,
    _center_basis,
    commutant_check,
    expectation_checks,
    regular_representation,
    total_representation,
    wedderburn_blocks,
)
from weylkit.cocycle import TwoCocycle
from weylkit.errors import NotStarHomomorphism
from weylkit.phases import HALF, Phase
from weylkit.weyl import build_weyl_groupoid, weyl_twist_cocycle

from oracles import (
    center_basis_dense,
    commutant_check_dense,
    convolve_loop,
    expectation_checks_loop,
    regular_representation_loop,
    total_representation_loop,
    wedderburn_blocks_dense,
)

NAMES = sorted(corpus.BUILDERS) + ["rotation(4,1)", "rotation(6,2)", "rotation(6,3)"]


@pytest.fixture(scope="module")
def algebras(entry):
    """(G, omega) for a corpus name, or for its Weyl groupoid and twist with a "weyl:" prefix."""
    cache = {}

    def get(key):
        if key not in cache:
            name = key.removeprefix("weyl:")
            e = entry(name)
            if key == name:
                cache[key] = (e.G, e.omega)
            else:
                GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
                cache[key] = (GW, weyl_twist_cocycle(GW, data))
        return cache[key]

    return get


KEYS = NAMES + [f"weyl:{n}" for n in NAMES]


@pytest.mark.parametrize("key", KEYS)
def test_representations_bit_equal_to_loop(algebras, key):
    G, omega = algebras(key)
    new, old = total_representation(G, omega), total_representation_loop(G, omega)
    assert list(new) == list(old)
    assert all(np.array_equal(new[g], old[g]) for g in G.arrows)
    for u in G.units:
        (new, nb), (old, ob) = regular_representation(G, omega, u), regular_representation_loop(G, omega, u)
        assert nb == ob
        assert all(np.array_equal(new[g], old[g]) for g in G.arrows)


@pytest.mark.parametrize("key", KEYS)
def test_center_and_blocks_match_dense(algebras, key):
    G, omega = algebras(key)
    new = _center_basis(TwistedAlgebra(G, omega))
    old = center_basis_dense(total_representation_loop(G, omega), list(G.arrows))
    assert new.shape == old.shape
    # the same subspace: equal orthogonal projections
    assert np.max(np.abs(new @ new.conj().T - old @ old.conj().T)) < 1e-8
    for seed in (0, 3):
        assert wedderburn_blocks(G, omega, seed=seed) == wedderburn_blocks_dense(G, omega, seed=seed)


@pytest.mark.parametrize("name", [n for n in NAMES if corpus.by_name(n).c is not None])
def test_commutant_matches_dense(entry, name):
    e = entry(name)
    d4_center = frozenset(["0|0", "2|0"]) if name == "d4" else e.S
    for S in {e.S, d4_center}:
        report = commutant_check(e.G, e.omega, e.c, S)
        assert (report.commutant_dim, report.D_abelian) == commutant_check_dense(e.G, e.omega, e.c, S)


@pytest.mark.parametrize("key", KEYS)
def test_convolution_matches_loop(algebras, key):
    G, omega = algebras(key)
    alg = TwistedAlgebra(G, omega)
    rng = np.random.default_rng(11)
    for _ in range(3):
        f, h = (dict(zip(G.arrows, rng.standard_normal(len(G)) + 1j * rng.standard_normal(len(G))))
                for _ in range(2))
        sparse = {g: v for g, v in f.items() if rng.random() < 0.3}
        for a, b in ((f, h), (sparse, h), (alg.star(f), f)):
            new, old = alg.convolve(a, b), convolve_loop(G, omega, a, b)
            assert max(abs(new.get(g, 0) - old.get(g, 0)) for g in G.arrows) < 1e-12


def test_convolution_over_leading_axes_matches_one_row_at_a_time():
    # 40 rows of 16 * 256 pairs each are gathered in several blocks
    e = corpus.rotation(16, 1)
    alg = TwistedAlgebra(e.G, e.omega)
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((2, 4, 10, len(e.G))) + 1j * rng.standard_normal((2, 4, 10, len(e.G)))
    at = np.array(sorted(e.G.index[g] for g in e.S))
    batch = alg.convolve_vectors(alg.star_vector(a), b, at=at)
    assert batch.shape == (4, 10, len(at))
    for i, j in np.ndindex(4, 10):
        row = alg.convolve_vectors(alg.star_vector(a[i, j]), b[i, j])
        assert np.max(np.abs(batch[i, j] - row[at])) < 1e-12


@pytest.mark.parametrize("name", NAMES + ["pair(6)", "rotation(8,3)"])
def test_expectation_report_matches_loop(entry, name):
    # pair(6) and rotation(8,3) are inputs of the benchmark, which runs 100 trials
    e = corpus.pair_groupoid(6) if name == "pair(6)" else entry(name)
    trials = 100 if name == "rotation(8,3)" else 15
    for seed in (0, 5):
        new = expectation_checks(e.G, e.omega, e.S, trials=trials, seed=seed)
        assert new.as_dict() == expectation_checks_loop(e.G, e.omega, e.S, trials=trials, seed=seed).as_dict()


def _mutated(omega, pair, shift):
    values = dict(omega.values)
    values[pair] = omega.omega(*pair) + shift
    return TwoCocycle(omega.G, values)


def _witness(build, *args):
    with pytest.raises(NotStarHomomorphism) as info:
        build(*args)
    return info.value.witness


@pytest.mark.parametrize("name", ["pauli", "d4", "rotation(4,1)"])
def test_single_entry_mutations_fail_both_checks(entry, name):
    e = entry(name)
    G = e.G
    gens = {G.arrows[i] for i in G.generators()}
    assert any(h not in gens for _, h in G.compose)   # right factors off the generators are mutated too
    u = G.units[0]
    for pair in G.compose:
        bad = _mutated(e.omega, pair, Phase(1, 3))
        old = _witness(regular_representation_loop, G, bad, u)
        new = _witness(regular_representation, G, bad, u)
        if old[0] == "star":
            assert new == old       # the star law is still checked on every arrow, in order
        else:
            assert new[0] == "product" and new[2] in gens
        assert _witness(total_representation, G, bad)[0] in ("star", "product")


@pytest.mark.parametrize("name", ["pauli", "d4", "rotation(4,1)"])
def test_broken_star_phase_gives_star_witness(entry, name):
    e = entry(name)
    G = e.G
    g = next(a for a in G.arrows if not G.is_unit(a))
    bad = _mutated(e.omega, (g, G.inv(g)), HALF)
    u = G.units[0]
    assert _witness(regular_representation_loop, G, bad, u) == ("star", g)
    assert _witness(regular_representation, G, bad, u) == ("star", g)
    assert _witness(total_representation, G, bad) == ("star", g)


@pytest.mark.parametrize("name", ["pauli", "d4", "q8", "rotation(4,1)"])
def test_star_preserving_mutations_fail_the_product_check(entry, name):
    # shifting omega(g, x) by s and omega(g^-1, gx) by -s keeps the star law
    # on every arrow but breaks the cocycle identity, so only the product
    # check can refuse it
    e = entry(name)
    G = e.G
    gens = {G.arrows[i] for i in G.generators()}
    off_generators = 0
    for g, x in G.compose:
        if G.is_unit(g) or G.is_unit(x) or x == G.inv(g):
            continue
        bad = _mutated(_mutated(e.omega, (g, x), Phase(1, 3)), (G.inv(g), G.mul(g, x)), Phase(2, 3))
        old = _witness(regular_representation_loop, G, bad, G.units[0])
        new = _witness(regular_representation, G, bad, G.units[0])
        assert old[0] == new[0] == "product" and new[2] in gens
        off_generators += old[2] not in gens
    assert off_generators or name == "pauli"
