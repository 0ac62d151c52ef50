"""Pontryagin duality for finite abelian group bundles."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weylkit
from weylkit import corpus
from weylkit.dual import (
    Character,
    GroupBundle,
    bundle_from_subgroupoid,
    double_dual_iso,
    dual_bundle,
)
from weylkit.errors import FibreMismatch, FibreTooLarge, NotAbelian
from weylkit.groupoid import FIBRE_CAP
from weylkit.phases import Phase
from weylkit.semidirect import SemidirectSpec, build_semidirect

from oracles import dual_fibres_oracle, enumerate_fibre_characters


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
            assert chi.unit == x


def test_character_group_operations(entry):
    dual = dual_bundle(_bundle(entry, "q8"))
    x = dual.base[0]
    for chi in dual.fibres[x]:
        assert dual.multiply(chi, dual.invert(chi)) == dual.trivial(x)
        assert dual.multiply(chi, chi) == Character.from_table(x, {a: p.times(2) for a, p in chi.values})
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
    # the table checks raise typed errors, so they still run under python -O
    script = (
        "from weylkit import corpus\n"
        "from weylkit.dual import bundle_from_subgroupoid, dual_bundle\n"
        "e = corpus.by_name('d4')\n"
        "t = dual_bundle(bundle_from_subgroupoid(e.G, e.S)).tables[e.G.units[0]]\n"
        "duplicated = t.values.copy()\n"
        "duplicated[1] = duplicated[0]\n"
        "off = t.values.copy()\n"
        "off[1, 1] = (off[1, 1] + 1) % t.exponent\n"
        "for bad in (t.values[:-1], duplicated, off):\n"
        "    try:\n"
        "        t.check(bad)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc.witness)\n"
    )
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert len(out) == 3, out
    assert out[0] == "DualityFailure ('character count', '0|0', 3, 4)", out
    assert out[1] == "DualityFailure ('duplicate characters', '0|0')", out
    assert out[2].startswith("DualityFailure ('not multiplicative', '0|0', '0|0#"), out


def test_characters_over_different_base_points_do_not_multiply(entry):
    bundle = _bundle(entry, "z2xR2")
    dual = dual_bundle(bundle)
    x, y = bundle.base
    with pytest.raises(FibreMismatch):
        dual.multiply(dual.trivial(x), dual.trivial(y))


@pytest.mark.parametrize("name", ["pauli", "d4", "q8", "z2xR2", "rotation(4,1)"])
def test_cached_products_match_value_tables(entry, name):
    # the product and inverse tables, built once per bundle, against Phase sums
    dual = dual_bundle(_bundle(entry, name))
    for x in dual.base:
        chars = dual.fibres[x]
        for chi in chars:
            table = dict(chi.values)
            assert all(chi.value(a) == table[a] for a in table)
            # an equal character that is not the bundle's own instance
            copy = Character.from_table(x, table)
            inverse = Character.from_table(x, {a: -p for a, p in chi.values})
            assert dual.invert(chi) == inverse
            for nu in chars:
                product = Character.from_table(x, {a: p + dict(nu.values)[a] for a, p in chi.values})
                assert dual.multiply(chi, nu) == product
                assert dual.multiply(chi, nu) is dual.fibres[x][dual.tables[x].product[chars.index(chi), chars.index(nu)]]
                assert dual.multiply(copy, nu) is dual.multiply(chi, nu)


def _cyclic_product(orders) -> GroupBundle:
    """Z_n1 x ... x Z_nk as a one-fibre bundle over the base point 0."""
    elems = tuple(itertools.product(*(range(n) for n in orders)))
    return GroupBundle(
        base=(0,),
        fibres={0: elems},
        p={a: 0 for a in elems},
        mult=lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)),
        inv=lambda a: tuple(-x % n for x, n in zip(a, orders)),
        identity={0: tuple(0 for _ in orders)},
    )


def test_dual_and_double_dual_at_the_fibre_cap():
    G, _, S, _ = build_semidirect(SemidirectSpec("t", (16, 16), (1,)))
    bundle = bundle_from_subgroupoid(G, S)
    x = bundle.base[0]
    assert len(bundle.fibre(x)) == FIBRE_CAP
    dual, ddual, eval_map = double_dual_iso(bundle)
    assert len(dual.fibres[x]) == len(ddual.fibres[x]) == FIBRE_CAP
    assert dual.tables[x].exponent == 16
    assert eval_map[x] is ddual.trivial(x)
    assert len(set(map(id, eval_map.values()))) == FIBRE_CAP


def test_fibre_past_the_cap_is_refused():
    with pytest.raises(FibreTooLarge):
        dual_bundle(_cyclic_product((FIBRE_CAP + 1,)))


def _assert_matches_oracle(bundle):
    dual = dual_bundle(bundle)
    expected = dual_fibres_oracle(bundle)
    for x in bundle.base:
        assert dual.fibres[x] == expected[x]
        assert [dual.char_id[chi] for chi in dual.fibres[x]] == [f"{x}#{i}" for i in range(len(expected[x]))]
    return dual


@pytest.mark.parametrize("name", list(corpus.BUILDERS) + ["rotation(12,5)", "rotation(6,0)", "pair(3)"])
def test_table_dual_matches_object_enumeration(entry, name):
    e = corpus.pair_groupoid(3) if name == "pair(3)" else entry(name)
    dual = _assert_matches_oracle(bundle_from_subgroupoid(e.G, e.S))
    # the double dual's elements are ids "x#i", whose sorted order puts x#10 before x#2
    _assert_matches_oracle(dual.to_bundle())


@pytest.mark.parametrize("name", ["q8", "z2xR2", "rotation(4,0)"])
def test_dual_of_the_weyl_unit_bundle_matches_object_enumeration(derived, name):
    # the elements of T are (class id, character id) pairs
    _assert_matches_oracle(derived(name).T)


def test_double_dual_ids_sort_by_string():
    e = corpus.rotation(12, 5)
    dual = dual_bundle(bundle_from_subgroupoid(e.G, e.S))
    x = dual.base[0]
    ddual = _assert_matches_oracle(dual.to_bundle())
    columns = ddual.tables[x].elements
    assert columns.index(f"{x}#10") < columns.index(f"{x}#2")


@st.composite
def cyclic_orders(draw, cap=64):
    """Orders of up to three cyclic factors whose product is at most ``cap``."""
    orders = [draw(st.integers(1, cap))]
    while len(orders) < 3 and draw(st.booleans()):
        orders.append(draw(st.integers(1, cap // math.prod(orders))))
    return tuple(orders)


@settings(max_examples=25, deadline=None)
@given(cyclic_orders())
def test_cyclic_products_match_object_enumeration(orders):
    # the enumeration alone: the oracle's own check takes m^3 Phase sums
    bundle = _cyclic_product(orders)
    expected = sorted(enumerate_fibre_characters(bundle, 0), key=lambda c: c.values)
    assert dual_bundle(bundle).fibres[0] == tuple(expected)
