"""The algebra layer's laws are the cocycle identity, checked once, exactly.

On the tables of a twisted algebra the product law at (g, b) is the
cocycle identity at (g, b, x) on each basis vector x, and the star law is
the identity at (g, g^-1, gx) with the unit normalization.  So the algebra
calls run ``check_cocycle``'s exact test and no other law check on a
cocycle that passes it; for one that fails, the broken law is named from
the numerators mod den, as ``broken_law_loop`` names it with ``Phase``
sums.  A defect below the numeric tolerance is named all the same.
"""

import json

import numpy as np
import pytest

from weylkit import algebra, corpus
from weylkit.algebra import (
    TwistedAlgebra,
    _total_basis,
    commutant_check,
    compare_algebras,
    expectation_checks,
    reduced_norm,
    regular_representation,
    total_representation,
    wedderburn_blocks,
)
from weylkit.cli import main
from weylkit.cocycle import TwoCocycle, check_cocycle
from weylkit.dual import CharacterTable, GroupBundle, bundle_from_subgroupoid, dual_bundle
from weylkit.errors import DualityFailure, NotStarHomomorphism
from weylkit.groupoid import MAX_TABLE_INT, Grading, validate_grading
from weylkit.io import save_groupoid
from weylkit.phases import HALF, Phase

from oracles import (
    broken_law_loop,
    cocycle_violations_by_generator,
    phase_table_unique,
    represent_stack,
    wedderburn_blocks_stack,
)
from test_algebra_tables import INPUTS, _witness, build, coboundary_twist, mutations

TINY = Phase(1, 2**45)      # a shift of 2 pi 2^-45, about 1.8e-13, below HOM_TOL


def tiny_defect(name="rotation(4,1)"):
    """The corpus cocycle with one non-unit entry shifted by 2^-45: no cocycle, numerically a *-homomorphism.

    Returns (entry, the pair shifted, the shifted cocycle).
    """
    e = build(name)
    G = e.G
    pair = next((g, x) for g, x in G.compose if not (G.is_unit(g) or G.is_unit(x)))
    values = dict(e.omega.values)
    values[pair] = e.omega.omega(*pair) + TINY
    return e, pair, TwoCocycle(G, values)


def test_a_defect_below_the_tolerance_is_refused_exactly():
    e, _, bad = tiny_defect()
    alg = TwistedAlgebra(e.G, bad)
    assert alg.den > alg.num.size
    # the dense check on the stacked matrices finds nothing to name; the exact laws name the star law
    represent_stack(alg, _total_basis(e.G))
    law = broken_law_loop(e.G, bad, e.G.arrows)
    assert law == ("star", "0|1") != check_cocycle(e.G, bad, max_witnesses=1)[0]
    for run in (
        lambda: wedderburn_blocks(e.G, bad),
        lambda: compare_algebras(e.G, e.omega, e.G, bad),
        lambda: commutant_check(e.G, bad, e.c, e.S),
        lambda: total_representation(e.G, bad),
    ):
        assert _witness(run) == law


def test_the_cli_refuses_a_defect_below_the_tolerance(tmp_path, capsys):
    e, _, bad = tiny_defect()
    path = tmp_path / "tiny.json"
    save_groupoid(str(path), e.G, bad, e.c, e.S)
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["algebra", str(path)]) == 1
    assert main(["algebra", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == ["failure: representation is not a *-homomorphism; witness ('star', '0|1')"] * 2
    good = tmp_path / "good.json"
    save_groupoid(str(good), e.G, e.omega, e.c, e.S)
    assert main(["algebra", str(good), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == [4]


def _assert_witnesses_match_the_loop(e, x, bad):
    """Every algebra entry point names the law ``broken_law_loop`` names, on the total basis and on x's fibre."""
    G = e.G
    law = broken_law_loop(G, bad, G.arrows)
    assert law is not None
    assert _witness(wedderburn_blocks, G, bad) == law
    assert _witness(compare_algebras, G, bad, G, e.omega) == law
    assert _witness(commutant_check, G, bad, e.c, e.S) == law
    assert _witness(total_representation, G, bad) == law
    u = G.src[x]
    assert _witness(regular_representation, G, bad, u) == broken_law_loop(G, bad, G.arrows_from(u))


@pytest.mark.parametrize("name", INPUTS)
def test_witnesses_match_the_exact_law_loop(name):
    for (_, x), bad in mutations(name):
        _assert_witnesses_match_the_loop(build(name), x, bad)


@pytest.mark.parametrize("name", ["rotation(4,1)", "d4", "pair(4)"])
def test_sub_tolerance_witnesses_match_the_exact_law_loop(name):
    e, (_, x), bad = tiny_defect(name)
    _assert_witnesses_match_the_loop(e, x, bad)


@pytest.mark.parametrize("name", INPUTS)
def test_the_pass_path_runs_no_numeric_law_check(name, monkeypatch):
    def refuse(*args):
        raise RuntimeError("law naming on the pass path")

    e = build(name)
    monkeypatch.setattr(algebra, "_broken_law", refuse)
    expected = wedderburn_blocks_stack(e.G, e.omega)
    assert wedderburn_blocks(e.G, e.omega) == expected
    assert compare_algebras(e.G, e.omega, e.G, e.omega).passed
    commutant_check(e.G, e.omega, e.c, e.S)
    total_representation(e.G, e.omega)
    regular_representation(e.G, e.omega, e.G.units[-1])
    reduced_norm(e.G, e.omega, {e.G.arrows[-1]: 1.0})


def test_a_failing_cocycle_names_its_broken_law_once(monkeypatch):
    e = build("d4")
    G = e.G
    pair = next((g, x) for g, x in G.compose if not (G.is_unit(g) or G.is_unit(x)))
    values = dict(e.omega.values)
    values[pair] = e.omega.omega(*pair) + HALF
    bad = TwoCocycle(G, values)
    calls = []
    real = algebra._broken_law
    monkeypatch.setattr(algebra, "_broken_law", lambda *args: calls.append(1) or real(*args))
    with pytest.raises(NotStarHomomorphism) as info:
        wedderburn_blocks(G, bad)
    assert calls == [1] and info.value.witness[0] in ("star", "product")


@pytest.mark.parametrize("name", INPUTS)
def test_the_phase_lookup_is_bit_equal_to_the_distinct_numerators(name):
    e = build(name)
    alg = TwistedAlgebra(e.G, e.omega)
    assert alg.den <= alg.num.size
    assert np.array_equal(alg.phase, phase_table_unique(alg.num, alg.den))


def test_a_denominator_past_the_table_size_keeps_the_distinct_numerators():
    # a coboundary in (1/1024)Z/Z: 1,024 > 16 * 16 possible numerators
    e = build("rotation(4,1)")
    rng = np.random.default_rng(0)
    lam = {g: Phase(0 if e.G.is_unit(g) else int(rng.integers(1024)), 1024) for g in e.G.arrows}
    twisted = TwoCocycle(e.G, {(g, h): e.omega.omega(g, h) + lam[g] + lam[h] - lam[e.G.mul(g, h)]
                               for g, h in e.G.compose})
    alg = TwistedAlgebra(e.G, twisted)
    assert alg.den > alg.num.size
    assert np.array_equal(alg.phase, phase_table_unique(alg.num, alg.den))
    assert wedderburn_blocks(e.G, twisted) == ([4], 1)
    _, _, tiny = tiny_defect()
    alg = TwistedAlgebra(e.G, tiny)
    assert np.array_equal(alg.phase, phase_table_unique(alg.num, alg.den))


@pytest.mark.parametrize("name", INPUTS)
def test_the_blocked_check_lists_the_generator_loops_witnesses(name):
    e = build(name)
    G = e.G
    rng = np.random.default_rng(INPUTS.index(name))
    pairs = list(G.compose)
    cocycles = [e.omega, coboundary_twist(G, e.omega, rng, at_units=True)]
    for k in rng.choice(len(pairs), min(6, len(pairs)), replace=False):
        values = dict(e.omega.values)
        values[pairs[k]] = e.omega.omega(*pairs[k]) + Phase(int(rng.integers(1, 5)), 5)
        cocycles.append(TwoCocycle(G, values))
    for omega in cocycles:
        for most in (1, 5, 10**6):
            assert check_cocycle(G, omega, most) == cocycle_violations_by_generator(G, omega, most)


def test_a_one_element_fibre_has_the_trivial_character():
    e = corpus.pair_groupoid(3)
    dual = dual_bundle(bundle_from_subgroupoid(e.G, e.G.units))
    for x in e.G.units:
        t = dual.tables[x]
        assert (t.elements, t.ids, t.exponent, t.identity) == ((x,), (f"{x}#0",), 1, 0)
        assert t.values.tolist() == t.mul.tolist() == t.product.tolist() == [[0]]
        assert t.inverse.tolist() == [0] and t.pairing == [[1 + 0j]]
        assert dual.trivial(x).is_trivial and dual.fibres[x] == (dual.trivial(x),)


@pytest.mark.parametrize("element, square, identity", [("a", "b", "a"), ("a", "a", "e")])
def test_a_one_element_fibre_must_be_the_trivial_group(element, square, identity):
    bundle = GroupBundle(("x",), {"x": (element,)}, {element: "x"},
                         lambda a, b: square, lambda a: a, {"x": identity})
    with pytest.raises(DualityFailure) as info:
        CharacterTable(bundle, "x")
    assert info.value.witness == ("fibre is not a group", "x")


@pytest.mark.parametrize("name", ["q8", "z2xR2", "pair(6)", "rotation(6,2)"])
def test_expectation_reads_the_character_tables_alone(name, monkeypatch):
    duals = []

    def keep(bundle):
        duals.append(real(bundle))
        return duals[-1]

    real = algebra.dual_bundle
    monkeypatch.setattr(algebra, "dual_bundle", keep)
    e = build(name)
    assert expectation_checks(e.G, e.omega, e.S, trials=10).all_pass()
    (dual,) = duals
    # views and character products are built on first read, and nothing read them
    assert not {"fibres", "char_id", "by_id", "position"} & set(vars(dual))
    assert not any({"product", "inverse"} & set(vars(t)) for t in dual.tables.values())


def test_grading_values_reduce_before_the_size_bound():
    e = build("rotation(4,1)")
    G, c = e.G, e.c
    big = Grading(c.group, {g: tuple(x + 3 * n * 2**61 for x, n in zip(v, c.group)) for g, v in c.values.items()})
    assert np.array_equal(validate_grading(G, big), validate_grading(G, c))
    rows = np.array([c.value(g) for g in G.arrows], dtype=np.int64)
    assert np.array_equal(validate_grading(G, c), rows)
    negative = Grading(c.group, {g: tuple(x - n for x, n in zip(v, c.group)) for g, v in c.values.items()})
    assert np.array_equal(validate_grading(G, negative), rows)
    assert max(c.group) < MAX_TABLE_INT
