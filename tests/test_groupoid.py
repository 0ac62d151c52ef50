"""Groupoid validation, subgroupoid analysis, gradings, quotients, isomorphism."""

import pytest

from weylkit import corpus
from weylkit.errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    GroupoidError,
    MissingComposite,
    NotHomomorphism,
    NotNormal,
    UnknownArrowId,
)
from weylkit.groupoid import (
    Grading,
    build_groupoid,
    check_effective,
    find_isomorphism,
    iso_subgroupoid,
    isotropy_fibres,
    kernel_of_grading,
    orbit_quotient,
    quotient_by_bundle,
    subgroupoid_properties,
    validate_groupoid,
)


def test_trivial_groupoid():
    G = validate_groupoid(["e"], {"e": ("e", "e")}, {("e", "e"): "e"})
    assert len(G) == 1 and G.units == ("e",) and G.inv("e") == "e"


def test_q8_cayley_table_is_valid_group(entry):
    G = entry("q8").G
    assert len(G) == 8 and len(G.units) == 1
    assert G.mul("i", "j") == "k" and G.mul("j", "i") == "-k"
    assert G.inv("i") == "-i" and G.element_order("i") == 4
    assert G.element_order("-1") == 2


def test_flipped_composite_detected(entry):
    G = entry("d4").G
    compose = dict(G.compose)
    # corrupt one non-unit product with a different non-unit value
    key = next(
        (g, h) for (g, h) in sorted(compose)
        if not G.is_unit(g) and not G.is_unit(h) and not G.is_unit(compose[(g, h)])
    )
    wrong = next(
        a for a in G.arrows if not G.is_unit(a) and a != compose[key]
    )
    compose[key] = wrong
    with pytest.raises(AssociativityViolation) as exc:
        validate_groupoid(G.units, {g: (G.src[g], G.tgt[g]) for g in G.arrows}, compose)
    assert len(exc.value.triple) == 3


def test_missing_composite_detected(entry):
    G = entry("pauli").G
    compose = dict(G.compose)
    key = next((g, h) for (g, h) in sorted(compose) if not G.is_unit(g))
    del compose[key]
    with pytest.raises(MissingComposite):
        validate_groupoid(G.units, {g: (G.src[g], G.tgt[g]) for g in G.arrows}, compose)


def test_bad_declared_inverse(entry):
    G = entry("q8").G
    inverse = dict(G.inverse)
    inverse["i"] = "j"
    with pytest.raises(BadInverse):
        validate_groupoid(
            G.units, {g: (G.src[g], G.tgt[g]) for g in G.arrows}, G.compose, inverse
        )


def test_unit_must_be_arrow():
    with pytest.raises(DanglingUnit):
        validate_groupoid(["u"], {"g": ("u", "u")}, {})


def test_subgroupoid_properties_d4_rotations(entry):
    e = entry("d4")
    rep = subgroupoid_properties(e.G, e.S)
    assert rep.all_true()


def test_subgroupoid_properties_s3_reflection_not_normal(entry):
    G = entry("s3").G
    S = frozenset(["0|0", "0|1"])  # a single reflection and the unit
    rep = subgroupoid_properties(G, S)
    assert rep.is_subgroupoid and rep.is_group_bundle and rep.fibres_abelian
    assert not rep.is_normal and "normal" in rep.witnesses


def test_subgroupoid_properties_units(entry):
    G = entry("q8").G
    assert subgroupoid_properties(G, G.units).all_true()


def test_subgroupoid_properties_unknown_member(entry):
    with pytest.raises(UnknownArrowId):
        subgroupoid_properties(entry("q8").G, ["nope"])


def test_isotropy_and_effectiveness():
    pair = corpus.pair_groupoid(2)
    assert iso_subgroupoid(pair.G).members == frozenset(pair.G.units)
    assert check_effective(pair.G)

    z2r2 = corpus.z2_x_r2()
    iso = iso_subgroupoid(z2r2.G)
    assert len(iso.members) == 4  # two per unit
    assert not check_effective(z2r2.G)
    assert not check_effective(corpus.s3().G)


def test_kernel_of_grading(entry):
    e = entry("d4")
    kernel = kernel_of_grading(e.G, e.c)
    assert kernel.members == e.S

    p = entry("pauli")
    assert kernel_of_grading(p.G, p.c).members == p.S


def test_grading_must_be_homomorphism(entry):
    G = entry("pauli").G
    bad = Grading(group=(2,), values={g: (1,) if g == "1|0" else (0,) for g in G.arrows})
    with pytest.raises(NotHomomorphism):
        kernel_of_grading(G, bad)


def test_quotient_d4_by_rotations(entry):
    e = entry("d4")
    Q, class_map = quotient_by_bundle(e.G, e.S)
    assert len(Q) == 2 and len(Q.units) == 1
    assert len(set(class_map.values())) == 2


def test_quotient_z2xr2_is_pair_groupoid():
    e = corpus.z2_x_r2()
    Q, _ = quotient_by_bundle(e.G, e.S)
    pair = corpus.pair_groupoid(2)
    assert len(Q) == 4 and len(Q.units) == 2
    assert find_isomorphism(Q, pair.G) is not None


def test_quotient_by_units_recovers_g(entry):
    G = entry("s3").G
    Q, class_map = quotient_by_bundle(G, G.units)
    assert len(Q) == len(G)
    assert find_isomorphism(Q, G) is not None


def test_quotient_rejects_non_normal(entry):
    G = entry("s3").G
    with pytest.raises(NotNormal):
        quotient_by_bundle(G, frozenset(["0|0", "0|1"]))


def test_find_isomorphism_separates_d4_q8(entry):
    d4, q8 = entry("d4").G, entry("q8").G
    assert find_isomorphism(q8, q8) is not None
    assert find_isomorphism(d4, q8) is None


def test_conjugation_and_inverse_grading(entry):
    e = entry("d4")
    G, c = e.G, e.c
    for g in G.arrows:
        assert c.value(G.inv(g)) == c.neg(c.value(g))
        for a in e.S:
            if G.tgt[a] == G.tgt[g]:
                assert G.conjugate(g, a) in e.S


def test_build_groupoid_matches_validate(entry):
    G = entry("pauli").G
    rebuilt = build_groupoid(
        G.units, {g: (G.src[g], G.tgt[g]) for g in G.arrows}, G.mul, name=G.name
    )
    assert rebuilt.compose == G.compose and rebuilt.inverse == G.inverse


def test_groupoid_error_is_common_base():
    for exc in (AssociativityViolation, BadInverse, DanglingUnit, MissingComposite):
        assert issubclass(exc, GroupoidError)


def test_orbit_quotient_requires_a_partition():
    G = corpus.pair_groupoid(3).G
    u = G.units[0]
    with pytest.raises(NotNormal, match="partition"):
        orbit_quotient(G, lambda g: frozenset({g, u}), name="bad", error=NotNormal)
    # the trivial partition gives G back
    Q, class_map = orbit_quotient(G, lambda g: frozenset({g}), name="same", error=NotNormal)
    assert len(Q) == len(G) and all(class_map[g] == g for g in G.arrows)


def test_isotropy_fibres():
    e = corpus.z2_x_r2()
    fibres = isotropy_fibres(e.G, e.G.arrows)
    assert set(fibres) == set(e.G.units)
    assert all(len(fs) == 2 and u in fs for u, fs in fibres.items())
    assert fibres == isotropy_fibres(e.G, e.S)
