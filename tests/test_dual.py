"""Pontryagin duality for finite abelian group bundles."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylkit
from weylkit import corpus
from weylkit.dual import (
    Character,
    GroupBundle,
    bundle_from_subgroupoid,
    double_dual_iso,
    dual_bundle,
)
from weylkit.errors import FibreMismatch, NotAbelian
from weylkit.phases import Phase
from weylkit.semidirect import SemidirectSpec, build_semidirect


def _bundle(entry, name):
    e = entry(name)
    return bundle_from_subgroupoid(e.G, e.S)


def test_cyclic_fibre_characters(entry):
    bundle = _bundle(entry, "s3")
    dual = dual_bundle(bundle)
    unit = bundle.base[0]
    chars = dual.fibres[unit]
    assert len(chars) == 3
    gen = "1|0"
    assert {chi.value(gen) for chi in chars} == {
        Phase(Fraction(j, 3)) for j in range(3)
    }


def test_z2_x_z4_against_brute_force():
    spec = SemidirectSpec(name="z2z4", h_orders=(2, 4), k_orders=(1,))
    G, _, S, _ = build_semidirect(spec)
    bundle = bundle_from_subgroupoid(G, S)
    dual = dual_bundle(bundle)
    unit = G.units[0]
    fibre = bundle.fibre(unit)
    assert len(dual.fibres[unit]) == 8

    # brute force: every map sending each element to a multiple of 1/order
    # that is a homomorphism on the whole fibre
    options = {
        a: [Phase(Fraction(j, bundle.element_order(a)))
            for j in range(bundle.element_order(a))]
        for a in fibre
    }
    brute = set()
    for combo in itertools.product(*(options[a] for a in fibre)):
        table = dict(zip(fibre, combo))
        if all(
            table[bundle.mult(a, b)] == table[a] + table[b]
            for a, b in itertools.product(fibre, fibre)
        ):
            brute.add(Character.from_table(unit, table))
    assert brute == set(dual.fibres[unit])


def test_two_unit_bundle_split(entry):
    bundle = _bundle(entry, "z2xR2")
    dual = dual_bundle(bundle)
    assert sum(len(dual.fibres[x]) for x in bundle.base) == 4
    for x in bundle.base:
        assert len(dual.fibres[x]) == 2
        for chi in dual.fibres[x]:
            assert dual.p(chi) == x


def test_character_group_operations(entry):
    dual = dual_bundle(_bundle(entry, "q8"))
    x = dual.base[0]
    for chi in dual.fibres[x]:
        assert dual.multiply(chi, dual.invert(chi)) == dual.trivial(x)
        assert dual.power(chi, 2) == dual.multiply(chi, chi)
    K = dual.to_bundle()
    assert sorted(K.fibre(x)) == sorted(dual.char_id[c] for c in dual.fibres[x])
    # the dual of Z4 is cyclic of order 4
    assert sorted(K.element_order(t) for t in K.fibre(x)) == [1, 2, 4, 4]


def test_character_ids_deterministic(entry):
    d1 = dual_bundle(_bundle(entry, "q8"))
    d2 = dual_bundle(_bundle(entry, "q8"))
    assert set(d1.by_id) == set(d2.by_id)
    assert all(d1.by_id[k] == d2.by_id[k] for k in d1.by_id)


@pytest.mark.parametrize("name", ["pauli", "q8", "z2xR2"])
def test_double_dual_evaluation(entry, name):
    bundle = _bundle(entry, name)
    dual, ddual, eval_map = double_dual_iso(bundle)
    for x in bundle.base:
        assert len(ddual.fibres[x]) == len(bundle.fibre(x))
        e = bundle.identity[x]
        assert eval_map[e].is_trivial


def test_nonabelian_fibre_rejected(entry):
    G = entry("q8").G
    bundle = GroupBundle(
        base=tuple(G.units),
        fibres={G.units[0]: tuple(G.arrows)},
        p={g: G.units[0] for g in G.arrows},
        mult=G.mul,
        inv=G.inv,
        identity={G.units[0]: G.units[0]},
    )
    with pytest.raises(NotAbelian):
        dual_bundle(bundle)


def test_bundle_from_subgroupoid_rejects_non_isotropy():
    e = corpus.pair_groupoid(2)
    with pytest.raises(NotAbelian):
        bundle_from_subgroupoid(e.G, frozenset(e.G.arrows))


def test_duality_check_survives_optimized_mode():
    # the check raises a typed error, so it still runs under python -O
    script = (
        "from weylkit import corpus\n"
        "from weylkit.dual import CharacterBundle, _verify_dual, bundle_from_subgroupoid, dual_bundle\n"
        "e = corpus.by_name('d4')\n"
        "bundle = bundle_from_subgroupoid(e.G, e.S)\n"
        "dual = dual_bundle(bundle)\n"
        "x = bundle.base[0]\n"
        "try:\n"
        "    _verify_dual(bundle, CharacterBundle(bundle, {x: dual.fibres[x][:-1]}))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc.witness)\n"
    )
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.startswith("DualityFailure ('character count'"), out


def test_characters_over_different_base_points_do_not_multiply(entry):
    bundle = _bundle(entry, "z2xR2")
    dual = dual_bundle(bundle)
    x, y = bundle.base
    with pytest.raises(FibreMismatch):
        dual.multiply(dual.trivial(x), dual.trivial(y))
