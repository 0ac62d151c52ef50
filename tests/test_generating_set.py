"""Checks over a generating set and on the compose array, against exhaustive oracles."""

import itertools
import random

import pytest

from oracles import (
    associativity_violations,
    cocycle_violations,
    is_cocycle_violation,
    validate_groupoid_loops,
)
from weylkit import corpus
from weylkit.cocycle import TwoCocycle, check_cocycle
from weylkit.dual import bundle_from_subgroupoid
from weylkit.errors import AssociativityViolation, WeylkitError
from weylkit.groupoid import validate_groupoid
from weylkit.phases import HALF, Phase
from weylkit.reconstruct import bundle_package
from weylkit.weyl import build_weyl_groupoid, weyl_twist_cocycle

CORPUS = ["pauli", "z2z2", "s3", "s3-ungraded", "d4", "q8", "z2xR2",
          "rotation(3,1)", "rotation(4,1)", "rotation(6,2)", "rotation(8,3)",
          "pair(3)", "pair(4)"]
WEYL = ["pair(3)", "pair(4)", "rotation(4,1)", "rotation(6,2)", "rotation(6,3)"]


def _entry(entry, name):
    if name.startswith("pair("):
        return corpus.pair_groupoid(int(name[5:-1]))
    return entry(name)


def _inputs(entry, name, weyl):
    """(groupoid, cocycle): the corpus entry, or its Weyl groupoid and twist."""
    e = _entry(entry, name)
    if not weyl:
        return e.G, e.omega
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    return GW, weyl_twist_cocycle(GW, data)


ALL_INPUTS = [(n, False) for n in CORPUS] + [(n, True) for n in WEYL]


def _arrows(G):
    return {g: (G.src[g], G.tgt[g]) for g in G.arrows}


def _closure(G, gens):
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for y in list(seen):
                for pair in ((x, y), (y, x)):
                    if pair in G.compose and G.compose[pair] not in seen:
                        seen.add(G.compose[pair])
                        new.append(G.compose[pair])
        frontier = new
    return seen


@pytest.mark.parametrize("name, weyl", ALL_INPUTS)
def test_generators_close_to_every_arrow(entry, name, weyl):
    G, _ = _inputs(entry, name, weyl)
    gens = [G.arrows[i] for i in G.generators()]
    assert _closure(G, gens) == set(G.arrows)
    # greedy: no generator lies in the closure of the ones before it
    for i, g in enumerate(gens):
        assert g not in _closure(G, gens[:i])
    assert G.generators() is G.generators() and not G.generators().flags.writeable


def test_generators_cover_units_by_products_or_themselves():
    # non-unit arrows are scanned first, so every unit of pair(3) is a product g * g^-1
    G = corpus.pair_groupoid(3).G
    gens = [G.arrows[i] for i in G.generators()]
    assert not set(gens) & set(G.units)
    assert set(G.units) <= _closure(G, gens)
    G = corpus.rotation(8, 3).G
    assert [G.arrows[i] for i in G.generators()] == ["0|1", "1|0"]
    # a groupoid of units alone: each unit is a generator itself
    e = corpus.by_name("z2xR2")
    H = bundle_package(bundle_from_subgroupoid(e.G, e.S)).H
    assert set(H.arrows) == set(H.units)
    assert H.generators().tolist() == list(range(len(H.units)))


def _associativity_agrees(G, compose):
    """The reduced check agrees with the exhaustive one on a compose table."""
    exhaustive = associativity_violations(_arrows(G), compose)
    try:
        validate_groupoid(G.units, _arrows(G), compose)
    except AssociativityViolation as exc:
        assert exc.triple in exhaustive
        return True
    assert not exhaustive
    return False


def _rows(G, rng, count):
    non_units = [g for g in G.arrows if not G.is_unit(g)]
    return rng.sample(non_units, min(count, len(non_units)))


@pytest.mark.parametrize("name, weyl", ALL_INPUTS)
def test_associativity_matches_exhaustive_oracle(entry, name, weyl):
    G, _ = _inputs(entry, name, weyl)
    rng = random.Random(name)
    assert not _associativity_agrees(G, dict(G.compose))
    tried = found = 0
    for g in _rows(G, rng, 6):
        # swap two composites in the row of g, as in the certify FAIL document
        hs = [h for h in G.arrows if not G.is_unit(h) and G.composable(g, h)]
        pairs = [(h1, h2) for h1 in hs for h2 in hs
                 if h1 < h2 and (G.src[h1], G.tgt[h1]) == (G.src[h2], G.tgt[h2])]
        if pairs:
            h1, h2 = rng.choice(pairs)
            compose = dict(G.compose)
            compose[(g, h1)], compose[(g, h2)] = compose[(g, h2)], compose[(g, h1)]
            tried, found = tried + 1, found + _associativity_agrees(G, compose)
        # flip one composite to another arrow with the same endpoints
        h = rng.choice(hs)
        k = G.mul(g, h)
        others = [a for a in G.arrows if a != k and not G.is_unit(a)
                  and (G.src[a], G.tgt[a]) == (G.src[k], G.tgt[k])]
        if others:
            compose = dict(G.compose)
            compose[(g, h)] = rng.choice(others)
            tried, found = tried + 1, found + _associativity_agrees(G, compose)
    # a principal groupoid has one arrow per pair of endpoints: nothing to swap
    principal = len({(G.src[a], G.tgt[a]) for a in G.arrows}) == len(G)
    assert found == tried and (tried or principal)


def _shift(omega, pair, by):
    values = dict(omega.values)
    values[pair] = omega.omega(*pair) + by
    return TwoCocycle(omega.G, values)


def _cocycle_agrees(G, omega):
    reduced = check_cocycle(G, omega, max_witnesses=50)
    triples = [t for t in reduced if not (t[0] == t[1] == t[2] and G.is_unit(t[0]))]
    exhaustive = cocycle_violations(G, omega)
    assert bool(triples) == bool(exhaustive)
    assert set(triples) <= set(exhaustive)
    assert all(is_cocycle_violation(G, omega, t) for t in triples)
    return reduced


@pytest.mark.parametrize("name, weyl", ALL_INPUTS)
def test_cocycle_check_matches_exhaustive_oracle(entry, name, weyl):
    G, omega = _inputs(entry, name, weyl)
    assert _cocycle_agrees(G, omega) == []
    rng = random.Random(name)
    u = rng.choice(G.units)
    unit_rows = [(u, g) for g in G.arrows if G.composable(u, g)]
    unit_cols = [(g, u) for g in G.arrows if G.composable(g, u)]
    pairs = sorted(G.compose)
    for pair in rng.sample(pairs, min(8, len(pairs))) + rng.sample(unit_rows, 2) + rng.sample(unit_cols, 2):
        for by in (HALF, Phase.of(1, 3)):
            assert _cocycle_agrees(G, _shift(omega, pair, by))


def test_cocycle_check_matches_oracle_on_every_half_valued_cochain(entry):
    # some of these fail only at middles outside a subgroup, such as 1/2 at
    # (1|0, 1|0) and (1|1, 1|1), which every middle in {0|0, 0|1} passes:
    # each generator is needed
    G = entry("z2z2").G
    non_units = [g for g in G.arrows if not G.is_unit(g)]
    pairs = [(a, b) for a in non_units for b in non_units]
    invalid = 0
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        omega = TwoCocycle(G, {pair: HALF for pair, bit in zip(pairs, bits) if bit})
        invalid += bool(_cocycle_agrees(G, omega))
    assert 0 < invalid < 2 ** len(pairs)


def test_cocycle_witnesses_list_unit_normalization_first(entry):
    e = entry("rotation(4,1)")
    u = e.G.units[0]
    omega = _shift(_shift(e.omega, (u, u), HALF), ("1|1", "2|3"), HALF)
    witnesses = check_cocycle(e.G, omega, max_witnesses=4)
    assert witnesses[0] == (u, u, u) and len(witnesses) == 4
    # then generator order, then (a, c) index order
    gens = list(e.G.generators())
    keys = [(gens.index(e.G.index[b]), e.G.index[a], e.G.index[c]) for a, b, c in witnesses[1:]]
    assert keys == sorted(keys)


def _outcome(f, *args):
    try:
        return f(*args)
    except WeylkitError as exc:
        return type(exc).__name__, str(exc)


def _validate(units, arrows, compose, inverse=None):
    return validate_groupoid(units, arrows, compose, inverse).inverse


def _malformed(entry):
    """(label, units, arrows, compose, inverse) for each rule of validation."""
    cases = []
    pair = corpus.pair_groupoid(3).G
    q8 = entry("q8").G
    for G in (pair, q8, entry("s3").G, entry("z2xR2").G):
        arrows, compose = _arrows(G), dict(G.compose)
        non_units = [a for a in G.arrows if not G.is_unit(a)]
        g = non_units[0]
        h = next(a for a in non_units if a != g and G.composable(g, a))
        x = next(a for a in G.arrows if a != g)
        cases += [
            ("unknown key id", G.units, arrows, {**compose, ("nope", g): g}, None),
            ("unknown composite id", G.units, arrows, {**compose, (g, h): "nope"}, None),
            ("missing composite", G.units, arrows,
             {k: v for k, v in compose.items() if k != (g, h)}, None),
            ("missing declared inverse", G.units, arrows, compose,
             {k: v for k, v in G.inverse.items() if k != g}),
            ("unknown declared inverse", G.units, arrows, compose, {**G.inverse, g: "nope"}),
            # the inverse laws fail before the involution check can
            ("non-involutive declared inverse", G.units, arrows, compose,
             {**G.inverse, G.inv(g): x}),
        ]
        # several witnesses, so the caller's order picks the first
        reversed_arrows = dict(reversed(list(arrows.items())))
        gone = {(a, G.src[a]) for a in non_units[:3]}
        cases.append(("missing composites, reversed order", G.units, reversed_arrows,
                      dict(reversed([kv for kv in compose.items() if kv[0] not in gone])), None))
        # another arrow with the endpoints of g (none in a pair groupoid)
        twins = [a for a in non_units if a != g and (G.src[a], G.tgt[a]) == (G.src[g], G.tgt[g])]
        if twins:
            cases.append(("unit fails identity", G.units, reversed_arrows,
                          {**compose, (G.tgt[g], g): twins[0], (G.tgt[h], h): g}, None))
    arrows = _arrows(pair)
    cases += [
        ("non-composable key", pair.units, arrows, {**pair.compose, ("0>1", "0>1"): "0>1"}, None),
        ("broken endpoint rule", pair.units, arrows, {**pair.compose, ("0>1", "1>2"): "0>0"}, None),
        ("bad declared inverse", q8.units, _arrows(q8), q8.compose, {**q8.inverse, "i": "j"}),
        # a monoid, not a group: z*z = z has no inverse
        ("no inverse", ["e"], {"e": ("e", "e"), "z": ("e", "e")},
         {("e", "e"): "e", ("e", "z"): "z", ("z", "e"): "z", ("z", "z"): "z"}, None),
        ("dangling endpoint", pair.units, {**arrows, "x": ("0>0", "9>9")}, pair.compose, None),
    ]
    return cases


def test_array_validation_matches_loop_oracle(entry):
    cases = _malformed(entry)
    failures = set()
    for label, units, arrows, compose, inverse in cases:
        got = _outcome(_validate, units, arrows, compose, inverse)
        want = _outcome(validate_groupoid_loops, units, arrows, compose, inverse)
        assert got == want, label
        assert isinstance(got, tuple), label
        failures.add(got[0])
    assert failures >= {"UnknownArrowId", "SchemaError", "MissingComposite",
                        "DanglingUnit", "BadInverse"}


@pytest.mark.parametrize("name", ["pauli", "s3", "q8", "z2xR2", "pair(3)", "rotation(4,1)"])
def test_array_validation_derives_the_oracle_inverse(entry, name):
    G = _entry(entry, name).G
    for arrows in (_arrows(G), dict(reversed(list(_arrows(G).items())))):
        assert _validate(G.units, arrows, G.compose) == validate_groupoid_loops(
            G.units, arrows, G.compose)
        assert _validate(G.units, arrows, G.compose, G.inverse) == G.inverse
