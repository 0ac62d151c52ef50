"""The algebra layer on (target, value) tables against the dense stack it replaced.

``wedderburn_blocks``, ``compare_algebras`` and ``commutant_check`` hold
each representation as two (|G|, |B|) tables, name a broken law from the
numerators and scatter the commutant's Gram matrix;
``wedderburn_blocks`` reads its blocks orbit by orbit.  The oracles in
``tests/oracles.py`` build the dense (|G|, |B|, |B|) stack of the whole
groupoid, check it with matrix products and split it arrow by arrow.  Both
must give the same blocks and center dimensions on healthy cocycles, and
the same ``NotStarHomomorphism`` witness under the cocycle mutations of
``test_algebra_oracles.py``.
"""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit import corpus
from weylkit.algebra import (
    SPEC_TOL,
    TwistedAlgebra,
    _abelian_blocks,
    _center_basis,
    _center_gram,
    _fibre,
    _split_blocks,
    _tables,
    _total_basis,
    commutant_check,
    compare_algebras,
    reduced_norm,
    regular_representation,
    total_representation,
    wedderburn_blocks,
)
from weylkit.cocycle import TwoCocycle
from weylkit.errors import DegenerateSample, NotStarHomomorphism
from weylkit.groupoid import build_groupoid
from weylkit.phases import HALF, Phase

from oracles import (
    _commutator_map,
    broken_law_loop,
    center_basis_stack,
    commutant_check_dense,
    reduced_norm_loop,
    represent_stack,
    total_basis_loop,
    total_representation_stack,
    wedderburn_blocks_stack,
)

INPUTS = (
    sorted(corpus.BUILDERS)
    + [f"pair({n})" for n in range(3, 9)]
    + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)]
)
SEEDS = (0, 1, 2)
SAMPLE = 6      # mutations drawn per family on inputs with more than 64 composable pairs


@functools.lru_cache(maxsize=None)
def build(name):
    if name.startswith("pair("):
        return corpus.pair_groupoid(int(name[len("pair(") : -1]))
    return corpus.by_name(name)


def _mutated(omega, pair, shift):
    values = dict(omega.values)
    values[pair] = omega.omega(*pair) + shift
    return TwoCocycle(omega.G, values)


def _outcome(run, *args, **kwargs):
    """The NotStarHomomorphism witness of a call, or None when it returns."""
    try:
        run(*args, **kwargs)
    except NotStarHomomorphism as exc:
        return exc.witness
    return None


def _witness(run, *args, **kwargs):
    with pytest.raises(NotStarHomomorphism) as info:
        run(*args, **kwargs)
    return info.value.witness


def _sample(items, name):
    """Every item on small inputs, else SAMPLE of them, the first included, drawn per input."""
    if len(items) <= 64:
        return items
    rng = np.random.default_rng(INPUTS.index(name))
    picks = rng.choice(np.arange(1, len(items)), SAMPLE - 1, replace=False)
    return [items[0]] + [items[i] for i in sorted(picks)]


def mutations(name):
    """The cocycle mutations of the dense-oracle tests: single entries, the star phase, star-keeping pairs.

    Each comes as (the first pair mutated, the mutated cocycle).
    """
    e = build(name)
    G = e.G
    single = [(pair, _mutated(e.omega, pair, Phase(1, 3))) for pair in _sample(list(G.compose), name)]
    non_units = [g for g in G.arrows if not G.is_unit(g)]
    star = [((g, G.inv(g)), _mutated(e.omega, (g, G.inv(g)), HALF)) for g in non_units[:1]]
    # shifting omega(g, x) by 1/3 and omega(g^-1, gx) by 2/3 keeps the star law on every arrow
    keeping = [
        (g, x) for g, x in G.compose if not (G.is_unit(g) or G.is_unit(x) or x == G.inv(g))
    ]
    product = [
        ((g, x), _mutated(_mutated(e.omega, (g, x), Phase(1, 3)), (G.inv(g), G.mul(g, x)), Phase(2, 3)))
        for g, x in _sample(keeping, name)
    ]
    return single + star + product


@pytest.mark.parametrize("name", INPUTS)
def test_blocks_and_commutant_match_stack_oracle(name):
    e = build(name)
    trivial = TwoCocycle(e.G, {})
    for seed in SEEDS:
        blocks = wedderburn_blocks(e.G, e.omega, seed=seed)
        assert blocks == wedderburn_blocks_stack(e.G, e.omega, seed=seed)
        (b1, z1), (b2, z2) = blocks, wedderburn_blocks_stack(e.G, trivial, seed=seed)
        report = compare_algebras(e.G, e.omega, e.G, trivial, seed=seed)
        assert report.center_dims == (z1, z2) and report.blocks == (tuple(b1), tuple(b2))
        assert report.passed == (z1 == z2 and b1 == b2)
    report = commutant_check(e.G, e.omega, e.c, e.S)
    dense = commutant_check_dense(e.G, e.omega, e.c, e.S, represent=total_representation_stack)
    assert (report.commutant_dim, report.D_abelian) == dense


def markings(e):
    """Markings other than S: the units, S less a generator, an unclosed pair, S and a non-isotropy arrow.

    The last three are left out where G has no such generator, pair or arrow.
    """
    G, S = e.G, sorted(e.S)
    out = [list(G.units)]
    less = next((G.arrows[i] for i in G.generators() if G.arrows[i] in e.S), None)
    if less is not None:
        out.append([g for g in S if g != less])
    # g h is neither g nor h when neither is a unit
    out += [list(pair) for pair in G.compose if not (G.is_unit(pair[0]) or G.is_unit(pair[1]))][:1]
    out += [S + [g] for g in G.arrows if G.src[g] != G.tgt[g]][:1]
    return out


@pytest.mark.parametrize("name", INPUTS)
def test_commutant_matches_the_dense_oracle_under_other_markings(name):
    e = build(name)
    for S in markings(e):
        report = commutant_check(e.G, e.omega, e.c, S)
        dim, abelian = commutant_check_dense(e.G, e.omega, e.c, S, represent=total_representation_stack)
        assert (report.commutant_dim, report.D_abelian) == (dim, abelian), S
        assert report.maximal_abelian == (abelian and dim == len(set(S))), S


def test_an_asymmetry_below_the_tolerance_on_S_is_not_abelian(monkeypatch):
    # for a cocycle and commuting s, t, omega(s, t) - omega(t, s) has an order dividing
    # the order of s, so no cocycle here has an asymmetry of 2^-45; the exact cocycle
    # check is switched off to reach the abelian test, where SPEC_TOL accepted it
    e = build("rotation(4,1)")
    G = e.G
    s, t = [g for g in sorted(e.S) if not G.is_unit(g)][:2]
    bad = _mutated(e.omega, (s, t), Phase(1, 2**45))
    monkeypatch.setattr(weylkit.algebra.TwistedAlgebra, "defect", None)
    report = commutant_check(G, bad, e.c, e.S)
    assert commutant_check_dense(G, bad, e.c, e.S, represent=total_representation_stack)[1]
    assert not report.D_abelian and not report.maximal_abelian
    assert commutant_check(G, e.omega, e.c, e.S).maximal_abelian


@pytest.mark.parametrize("name", INPUTS)
def test_witnesses_match_stack_oracle(name):
    e = build(name)
    G = e.G
    kinds = set()
    for i, ((_, x), bad) in enumerate(mutations(name)):
        seed = SEEDS[i % len(SEEDS)]
        expected = _witness(total_representation_stack, G, bad)
        kinds.add(expected[0])
        assert _witness(wedderburn_blocks, G, bad, seed=seed) == expected
        assert _witness(compare_algebras, G, bad, G, e.omega, seed=seed) == expected
        assert _witness(commutant_check, G, bad, e.c, e.S) == expected
        assert _witness(total_representation, G, bad) == expected
        u = G.src[x]        # the fibre whose matrices the mutation changes
        stack = _outcome(represent_stack, TwistedAlgebra(G, bad), _fibre(G, u))
        assert _outcome(regular_representation, G, bad, u) == stack
    if len(G) > 4:
        assert kinds == {"star", "product"}


@pytest.mark.parametrize("name", ["pauli", "s3", "q8", "z2xR2", "pair(3)", "rotation(4,1)", "rotation(6,2)"])
def test_reduced_norm_matches_loop(name):
    e = build(name)
    rng = np.random.default_rng(5)
    arrows = list(e.G.arrows)
    for f in (
        dict(zip(arrows, rng.standard_normal(len(arrows)) + 1j * rng.standard_normal(len(arrows)))),
        {arrows[-1]: 2.0},
        {},
    ):
        assert abs(reduced_norm(e.G, e.omega, f) - reduced_norm_loop(e.G, e.omega, f)) < 1e-12


def test_table_check_survives_optimized_mode():
    # the law check raises a typed error, so it still runs under python -O, and
    # names the law a 2^-45 shift breaks, below any numeric tolerance
    G = build("d4").G
    g, x = next((g, x) for g, x in G.compose if not (G.is_unit(g) or G.is_unit(x) or x == G.inv(g)))
    R = build("rotation(4,1)").G
    tiny = next((g, x) for g, x in R.compose if not (R.is_unit(g) or R.is_unit(x)))
    cases = [
        ("d4", {(g, x): (1, 3)}),
        ("d4", {(g, x): (1, 3), (G.inv(g), G.mul(g, x)): (2, 3)}),
        ("rotation(4,1)", {tiny: (1, 2**45)}),
    ]
    script = (
        "from weylkit import corpus\n"
        "from weylkit.algebra import commutant_check, wedderburn_blocks\n"
        "from weylkit.cocycle import TwoCocycle\n"
        "from weylkit.phases import Phase\n"
        f"for name, shift in {cases!r}:\n"
        "    e = corpus.by_name(name)\n"
        "    values = dict(e.omega.values)\n"
        "    for pair, (num, den) in shift.items():\n"
        "        values[pair] = e.omega.omega(*pair) + Phase(num, den)\n"
        "    bad = TwoCocycle(e.G, values)\n"
        "    for run in (lambda: wedderburn_blocks(e.G, bad), lambda: commutant_check(e.G, bad, e.c, e.S)):\n"
        "        try:\n"
        "            run()\n"
        "        except Exception as exc:\n"
        "            print(type(exc).__name__, exc.witness)\n"
    )
    expected = []
    for name, shift in cases:
        bad = build(name).omega
        for pair, (num, den) in shift.items():
            bad = _mutated(bad, pair, Phase(num, den))
        law = broken_law_loop(bad.G, bad, bad.G.arrows)
        assert name != "d4" or law == _witness(total_representation_stack, G, bad)
        expected += 2 * [f"NotStarHomomorphism {law}"]
    assert [line.split()[1][2:-2] for line in expected] == ["star", "star", "product", "product", "star", "star"]
    assert expected[-1] == "NotStarHomomorphism ('star', '0|1')"
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == expected


def test_blocks_at_256_arrows_without_the_dense_stack():
    # the (|G|, |G|, |G|) stack alone would take 256**3 * 16 bytes = 268 MB, and so
    # would the span of the one eigenspace of rotation(16,1) or pair(16)
    for e, expected in (
        (corpus.rotation(16, 4), ([4] * 16, 16)),
        (corpus.rotation(16, 1), ([16], 1)),
        (build("pair(16)"), ([16], 1)),
    ):
        tracemalloc.start()
        try:
            blocks = wedderburn_blocks(e.G, e.omega)
            report = commutant_check(e.G, e.omega, e.c, e.S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == expected, e.G.name
        assert report.maximal_abelian, e.G.name
        assert peak < 100e6, (e.G.name, peak)


def coboundary_twist(G, omega, rng, at_units=False):
    """omega times the coboundary of a random lambda in (1/8)Z/Z, zero on the units unless ``at_units``.

    The algebra is isomorphic to omega's, with phases that are non-real on
    both sides of a generator.
    """
    lam = {g: Phase(0 if G.is_unit(g) and not at_units else int(rng.integers(8)), 8) for g in G.arrows}
    return TwoCocycle(G, {(g, h): omega.omega(g, h) + lam[g] + lam[h] - lam[G.mul(g, h)] for g, h in G.compose})


def _result(run, *args, **kwargs):
    """The value of a call, or its NotStarHomomorphism witness."""
    try:
        return run(*args, **kwargs)
    except NotStarHomomorphism as exc:
        return exc.witness


@pytest.mark.parametrize("name", INPUTS)
def test_blocks_match_the_stack_oracle_under_coboundaries(name):
    # the radical of omega(a, b) - omega(b, a) is a cohomology invariant, so a
    # coboundary zero on the units keeps the blocks; one that is not leaves no
    # normalized cocycle, breaks the star law delta_g^* = conj(omega(g, g^-1)) delta_{g^-1},
    # and both paths refuse it alike
    e = build(name)
    rng = np.random.default_rng(INPUTS.index(name))
    expected = [wedderburn_blocks_stack(e.G, e.omega, seed=seed) for seed in SEEDS]
    for at_units in (False, True):
        twisted = coboundary_twist(e.G, e.omega, rng, at_units)
        for seed, untwisted in zip(SEEDS, expected):
            blocks = _result(wedderburn_blocks, e.G, twisted, seed=seed)
            assert blocks == _result(wedderburn_blocks_stack, e.G, twisted, seed=seed)
            assert blocks == untwisted or (at_units and blocks[0] == "star")


@pytest.mark.parametrize("name", INPUTS)
def test_total_basis_is_the_fibres_in_unit_order(name):
    G = build(name).G
    assert np.array_equal(_total_basis(G), total_basis_loop(G))


def z4():
    G = build_groupoid(["0"], {str(k): ("0", "0") for k in range(4)}, lambda a, b: str((int(a) + int(b)) % 4))
    return G, TwoCocycle(G, {})


def products(*parts):
    """The disjoint union of the groupoids H_k x pair(n_k) for parts (H_k, omega_k, n_k).

    Arrow (x, a>b) of part k, spelled k:x:a>b, goes from s(x) at b to r(x)
    at a, and the cocycle is omega_k pulled back along (x, a>b) -> x.
    """
    arrows, split = {}, {}
    for k, (H, _, n) in enumerate(parts):
        for x in H.arrows:
            for a in range(n):
                for b in range(n):
                    g = f"{k}:{x}:{a}>{b}"
                    arrows[g] = (f"{k}:{H.src[x]}:{b}>{b}", f"{k}:{H.tgt[x]}:{a}>{a}")
                    split[g] = (k, x, a, b)

    def mul(g, h):
        (k, x, a, _), (_, y, _, c) = split[g], split[h]
        return f"{k}:{parts[k][0].mul(x, y)}:{a}>{c}"

    G = build_groupoid([g for g, (s, _) in arrows.items() if g == s], arrows, mul)
    values = {}
    for g, h in G.compose:
        (k, x, _, _), (_, y, _, _) = split[g], split[h]
        values[(g, h)] = parts[k][1].omega(x, y)
    return G, TwoCocycle(G, values)


def _part(name, n):
    e = build(name)
    return e.G, e.omega, n


HAND_BUILT = {  # non-abelian isotropy over several units, and orbits of both kinds side by side
    "d4 x pair(3)": (lambda: products(_part("d4", 3)), ([3, 3, 3, 3, 6], 5)),
    "q8 x pair(2)": (lambda: products(_part("q8", 2)), ([2, 2, 2, 2, 4], 5)),
    "d4 + q8 + Z4 + pauli x pair(2)": (
        lambda: products(_part("d4", 1), _part("q8", 1), (*z4(), 1), _part("pauli", 2)),
        ([1] * 12 + [2, 2, 4], 15),
    ),
    "s3 x pair(2) + rotation(4,2)": (
        lambda: products(_part("s3", 2), _part("rotation(4,2)", 1)),
        ([2, 2, 2, 2, 2, 2, 4], 7),
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_orbits_with_non_abelian_isotropy_match_the_stack_oracle(name):
    make, expected = HAND_BUILT[name]
    G, omega = make()
    assert wedderburn_blocks(G, omega) == expected
    rng = np.random.default_rng(5)
    for twisted in (omega, coboundary_twist(G, omega, rng)):
        for seed in SEEDS:
            assert wedderburn_blocks(G, twisted, seed=seed) == wedderburn_blocks_stack(G, twisted, seed=seed)


@pytest.mark.parametrize("name", ["pauli", "rotation(4,2)", "rotation(6,2)", "rotation(8,3)", "z2z2"])
def test_abelian_blocks_read_the_numerators_mod_the_denominator(name):
    e = build(name)
    alg = TwistedAlgebra(e.G, e.omega)
    shifted = alg.num + alg.den * np.random.default_rng(7).integers(-3, 4, alg.num.shape)
    assert _abelian_blocks(shifted, alg.den) == _abelian_blocks(alg.num, alg.den) == wedderburn_blocks(e.G, e.omega)


def test_blocks_at_1024_arrows_in_bounded_memory():
    # the whole-groupoid split held the center's Gram matrix, its eigenvectors and
    # A + A^*, 16.8 MB each here, and the table check compared every row at once:
    # the call peaked at 204 MB on pair(32) and 285 MB on rotation(32,16); the
    # commutant built the (|S|, |G|, |A0|) commutator map and peaked at 1,116 MB
    pair, rot = build("pair(32)"), corpus.rotation(32, 16)
    for run, expected in (
        (lambda: wedderburn_blocks(pair.G, pair.omega), ([32], 1)),
        (lambda: wedderburn_blocks(rot.G, rot.omega), ([2] * 256, 256)),
        (lambda: commutant_check(pair.G, pair.omega, pair.c, pair.S).as_dict(),
         {"dim_D": 32, "dim_A0": 1024, "commutant_dim": 32, "D_abelian": True, "maximal_abelian": True,
          "tol": SPEC_TOL}),
    ):
        tracemalloc.start()
        try:
            found = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == expected
        assert peak < 150e6, (expected, peak)


@pytest.mark.parametrize("name", ["pauli", "z2xR2", "rotation(8,3)", "rotation(16,1)", "pair(6)", "s3"])
def test_abelian_blocks_build_no_complex_table(monkeypatch, name):
    # the abelian path reads num, comp, den and defect; phase is a (|G|, |G|) complex table
    made = []

    class Recorded(TwistedAlgebra):
        def __init__(self, G, omega):
            super().__init__(G, omega)
            made.append(self)

    monkeypatch.setattr(weylkit.algebra, "TwistedAlgebra", Recorded)
    e = build(name)
    blocks = wedderburn_blocks(e.G, e.omega)
    (alg,) = made
    abelian = name != "s3"
    assert ("phase" in vars(alg)) != abelian
    assert not (abelian and "star_phase" in vars(alg))
    assert blocks == wedderburn_blocks_stack(e.G, e.omega)


@pytest.mark.parametrize("name", INPUTS)
def test_center_matches_the_stacked_commutator_map(name):
    e = build(name)
    G = e.G
    twisted = coboundary_twist(G, e.omega, np.random.default_rng(3))
    dims = []
    for omega in (e.omega, twisted):
        alg = TwistedAlgebra(G, omega)
        K = _commutator_map(alg, G.generators(), np.arange(len(G)))
        assert np.max(np.abs(_center_gram(alg) - K.conj().T @ K)) < 1e-12
        # and over S, on the zero-graded arrows, as the commutant reads it
        s = [G.index[g] for g in sorted(e.S)]
        A0 = [G.index[g] for g in G.arrows if e.c.value(g) == e.c.zero]
        K = _commutator_map(alg, s, A0)
        assert np.max(np.abs(_center_gram(alg, s, A0) - K.conj().T @ K), initial=0.0) < 1e-12
        new, old = _center_basis(alg), center_basis_stack(alg)
        assert new.shape == old.shape
        # the same subspace: equal orthogonal projections
        assert np.max(np.abs(new @ new.conj().T - old @ old.conj().T)) < 1e-8
        dims.append(new.shape[1])
    assert dims[0] == dims[1]


def test_center_at_256_arrows_without_the_commutator_map():
    # pair(16) has 30 generators, so the stacked map is 30 * 256**2 * 16 bytes = 31 MB
    # and the call peaked at 61 MB; the Gram matrix is 1 MB
    e = build("pair(16)")
    alg = TwistedAlgebra(e.G, e.omega)
    tracemalloc.start()
    try:
        center = _center_basis(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert center.shape == (256, 1)
    assert peak < 8e6, peak


def test_a_center_basis_with_a_repeated_column_is_a_degenerate_sample():
    # z stays central, so its eigenvalues fall in at most 5 clusters where 6 are asked for
    e = build("d4")
    alg = TwistedAlgebra(e.G, e.omega)
    target, value = _tables(alg, _total_basis(e.G))
    center = _center_basis(alg)
    assert center.shape[1] == 5
    for seed in SEEDS:
        assert _split_blocks(target, value, center, seed, SPEC_TOL) == [1, 1, 1, 1, 2]
        with pytest.raises(DegenerateSample, match=f"seed {seed}"):
            _split_blocks(target, value, np.hstack([center, center[:, :1]]), seed, SPEC_TOL)
