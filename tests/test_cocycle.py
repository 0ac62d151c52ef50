"""2-cocycle validation, symmetry, consequences, maximal-subgroupoid search."""

import pytest

from weylkit import corpus
from weylkit.cocycle import (
    TwoCocycle,
    check_cocycle,
    check_symmetric_on,
    find_maximal_symmetric_abelian,
    is_maximal_symmetric_abelian,
)
from weylkit.errors import SchemaError, UndefinedPair
from weylkit.groupoid import validate_groupoid
from weylkit.phases import HALF, Phase

from oracles import check_unit_identity


def test_trivial_cocycle_valid(entry):
    for name in ("q8", "s3", "z2xR2"):
        G = entry(name).G
        assert check_cocycle(G, TwoCocycle(G, {})) == []


def test_rotation_cocycles_valid(entry):
    for name in ("pauli", "rotation(3,1)", "rotation(4,3)"):
        e = entry(name)
        assert check_cocycle(e.G, e.omega) == []


def test_single_entry_mutation_detected(entry):
    e = entry("rotation(4,1)")
    values = dict(e.omega.values)
    key = next(iter(sorted(values)))
    values[key] = values[key] + HALF
    violations = check_cocycle(e.G, TwoCocycle(e.G, values))
    assert violations and len(violations[0]) == 3


def test_unit_normalization_enforced(entry):
    G = entry("pauli").G
    u = G.units[0]
    bad = TwoCocycle(G, {(u, u): HALF})
    violations = check_cocycle(G, bad)
    assert (u, u, u) in violations


def test_undefined_pair_rejected(entry):
    e = corpus.pair_groupoid(2)
    with pytest.raises(UndefinedPair):
        TwoCocycle(e.G, {("0>1", "0>1"): HALF})
    with pytest.raises(UndefinedPair):
        TwoCocycle(e.G, {}).omega("0>1", "0>1")


def test_symmetry_on_subsets(entry):
    e = entry("pauli")
    assert check_symmetric_on(e.omega, e.S)
    assert not check_symmetric_on(e.omega, e.G.arrows)
    assert check_symmetric_on(TwoCocycle(e.G, {}), e.G.arrows)


def test_unit_identity_consequences(entry):
    e = entry("rotation(4,1)")
    assert check_unit_identity(e.omega)
    # omega(gamma, gamma^-1) = omega(gamma^-1, gamma) = -theta for gamma=(1,1)
    gamma = "1|1"
    gi = e.G.inv(gamma)
    assert e.omega.omega(gamma, gi) == Phase.of(3, 4)
    assert e.omega.omega(gi, gamma) == Phase.of(3, 4)
    # corrupted table breaks the consequence
    values = dict(e.omega.values)
    values[(gamma, gi)] = values.get((gamma, gi), Phase.of(0)) + HALF
    assert not check_unit_identity(TwoCocycle(e.G, values))


def test_maximal_search_pauli_unique(entry):
    e = entry("pauli")
    found = find_maximal_symmetric_abelian(e.G, e.omega, e.c)
    assert len(found) == 1 and found[0].members == e.S


def test_maximal_search_s3_ungraded(entry):
    e = entry("s3-ungraded")
    found = find_maximal_symmetric_abelian(e.G, e.omega, e.c)
    members = {f.members for f in found}
    # A3 plus the three reflection subgroups
    assert len(members) == 4
    assert e.S in members
    normal_count = sum(
        1 for m in members
        if all(e.G.conjugate(g, a) in m
               for g in e.G.arrows for a in m if e.G.tgt[a] == e.G.tgt[g])
    )
    assert normal_count == 1


def test_maximal_search_q8_kernel(entry):
    e = entry("q8")
    found = find_maximal_symmetric_abelian(e.G, e.omega, e.c)
    assert len(found) == 1 and found[0].members == e.S


def test_is_maximal_witness(entry):
    e = entry("d4")
    assert is_maximal_symmetric_abelian(e.G, e.omega, e.c, e.S) is None
    center = frozenset(["0|0", "2|0"])
    witness = is_maximal_symmetric_abelian(e.G, e.omega, e.c, center)
    assert witness is not None and witness[1] in e.S - center


LARGE_PRIMES = (1000003, 1000033, 1000037, 1000039)


def test_oversized_common_denominator_is_a_schema_error(entry):
    # the lcm of four primes near 10^6 no longer fits the int64 numerator table
    G = entry("d4").G
    pairs = [(g, g) for g in G.arrows if not G.is_unit(g)]
    omega = TwoCocycle(G, {pair: Phase.of(1, p) for pair, p in zip(pairs, LARGE_PRIMES)})
    with pytest.raises(SchemaError, match=r"phase 1/1000039 at \('.*'\) takes the common denominator"):
        check_cocycle(G, omega)
    # three of them still fit
    del omega.values[pairs[3]]
    assert check_cocycle(G, omega)


def test_cocycle_of_another_groupoid_is_a_schema_error(entry):
    G = entry("q8").G
    other = TwoCocycle(entry("d4").G, {})
    with pytest.raises(SchemaError, match="defined on d4, not on q8"):
        check_cocycle(G, other)
    # a groupoid with the same arrows, validated again, reads the same table
    e = entry("pauli")
    again = validate_groupoid(e.G.units, {g: (e.G.src[g], e.G.tgt[g]) for g in e.G.arrows}, e.G.compose)
    assert check_cocycle(again, e.omega) == []
    shifted = TwoCocycle(e.G, {**e.omega.values, ("0|1", "1|0"): e.omega.omega("0|1", "1|0") + HALF})
    assert check_cocycle(again, shifted) == check_cocycle(e.G, shifted) != []
