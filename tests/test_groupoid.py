"""Groupoid validation, subgroupoid analysis, gradings, quotients, isomorphism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    all_true,
    check_effective,
    conjugate,
    element_order,
    find_isomorphism,
    grading_add,
    grading_zero,
    iso_subgroupoid,
)
import weylkit
from weylkit import corpus
from weylkit.errors import (
    AssociativityViolation,
    BadInverse,
    DanglingUnit,
    GroupoidError,
    MissingComposite,
    NotHomomorphism,
    NotNormal,
    SchemaError,
    UnknownArrowId,
)
from weylkit.groupoid import (
    Grading,
    build_groupoid,
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
    assert G.inv("i") == "-i" and element_order(G, "i") == 4
    assert element_order(G, "-1") == 2


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
    assert all_true(rep)


def test_subgroupoid_properties_s3_reflection_not_normal(entry):
    G = entry("s3").G
    S = frozenset(["0|0", "0|1"])  # a single reflection and the unit
    rep = subgroupoid_properties(G, S)
    assert rep.is_subgroupoid and rep.is_group_bundle and rep.fibres_abelian
    assert not rep.is_normal and "normal" in rep.witnesses


def test_subgroupoid_properties_units(entry):
    G = entry("q8").G
    assert all_true(subgroupoid_properties(G, G.units))


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
        assert grading_add(c, c.value(g), c.value(G.inv(g))) == grading_zero(c)
        for a in e.S:
            if G.tgt[a] == G.tgt[g]:
                assert conjugate(G, g, a) in e.S


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
    ar = np.arange(len(G.arrows))[:, None]
    for orbits in (np.hstack([ar, np.full_like(ar, G.index[G.units[0]])]), ar[:, :0]):
        with pytest.raises(NotNormal, match="partition"):
            orbit_quotient(G, orbits, name="bad", error=NotNormal)
    # the trivial partition gives G back
    Q, class_map = orbit_quotient(G, ar, name="same", error=NotNormal)
    assert len(Q) == len(G) and all(class_map[g] == g for g in G.arrows)


def test_isotropy_fibres():
    e = corpus.z2_x_r2()
    fibres = isotropy_fibres(e.G, e.G.arrows)
    assert set(fibres) == set(e.G.units)
    assert all(len(fs) == 2 and u in fs for u, fs in fibres.items())
    assert fibres == isotropy_fibres(e.G, e.S)


def _kernel_oracle(G, c):
    """kernel_of_grading with the homomorphism law checked pair by pair."""
    for u in G.units:
        if c.value(u) != grading_zero(c):
            raise NotHomomorphism((u, u))
    for (g, h), k in G.compose.items():
        if c.value(k) != grading_add(c, c.value(g), c.value(h)):
            raise NotHomomorphism((g, h))
    return frozenset(g for g in G.arrows if c.value(g) == grading_zero(c))


def _kernel_outcome(kernel, G, c):
    try:
        return kernel(G, c)
    except NotHomomorphism as exc:
        return exc.witness


def _pair_distance(e):
    """The Z-grading a>b -> a - b on the pair groupoid."""
    def diff(g):
        a, b = g.split(">")
        return (int(a) - int(b),)
    return Grading((0,), {g: diff(g) for g in e.G.arrows})


GRADING_INPUTS = ["pauli", "z2z2", "s3", "d4", "q8", "z2xR2",
                  "rotation(4,1)", "rotation(6,2)", "rotation(8,3)", "pair(5)"]


@pytest.mark.parametrize("name", GRADING_INPUTS)
def test_kernel_of_grading_matches_pairwise_oracle(entry, name):
    e = corpus.pair_groupoid(5) if name == "pair(5)" else entry(name)
    G = e.G
    gradings = [e.c] + ([_pair_distance(e)] if name == "pair(5)" else [])
    for g in [x for x in G.arrows if not G.is_unit(x)][:3] + [G.units[-1]]:
        # one finite factor, one infinite cyclic factor, and both together
        finite = Grading(e.c.group, {**e.c.values, g: tuple(x + 1 for x in e.c.values[g])})
        integer = Grading((0,), {a: (2 if a == g else 0,) for a in G.arrows})
        both = Grading(finite.group + integer.group,
                       {a: finite.values[a] + integer.values[a] for a in G.arrows})
        gradings += [finite, integer, both]
    witnesses = 0
    for c in gradings:
        out = _kernel_outcome(lambda G, c: kernel_of_grading(G, c).members, G, c)
        assert out == _kernel_outcome(_kernel_oracle, G, c)
        witnesses += isinstance(out, tuple)
    assert witnesses >= 6


def test_malformed_grading_is_a_schema_error(entry):
    G = entry("pauli").G
    good = {g: (0,) for g in G.arrows}
    missing = dict(good)
    del missing["1|1"]
    for values, message in (
        (missing, "no value on arrow '1|1'"),
        ({**good, "0|0": (0, 0)}, "'0|0' does not have 1 entries"),
        ({**good, "1|0": (2**61,)}, "must lie within"),
    ):
        with pytest.raises(SchemaError, match=message):
            kernel_of_grading(G, Grading((0,), values))
    with pytest.raises(SchemaError, match="must lie within"):
        kernel_of_grading(G, Grading((2**62,), good))
    with pytest.raises(SchemaError, match="must be nonnegative"):
        kernel_of_grading(G, Grading((-2,), good))


def test_comp_matrix_is_built_once_and_read_only(entry):
    G = entry("q8").G
    comp = G.comp_matrix()
    assert G.comp_matrix() is comp and not comp.flags.writeable
    with pytest.raises(ValueError):
        comp[0, 0] = 0
    # so are the inverse and endpoint index arrays the validation keeps
    inv, (s, t) = G.inverse_indices(), G.endpoint_indices()
    assert G.inverse_indices() is inv and G.endpoint_indices()[0] is s
    assert inv.tolist() == [G.index[G.inv(g)] for g in G.arrows]
    assert (s.tolist(), t.tolist()) == ([G.index[G.src[g]] for g in G.arrows], [G.index[G.tgt[g]] for g in G.arrows])
    for a in (inv, s, t):
        with pytest.raises(ValueError):
            a[0] = 1


def test_grading_witness_follows_compose_order(entry):
    G0 = entry("pauli").G
    compose = dict(reversed(list(G0.compose.items())))
    G = validate_groupoid(G0.units, {g: (G0.src[g], G0.tgt[g]) for g in G0.arrows}, compose)
    c = Grading((0,), {g: (2 if g == "0|1" else 0,) for g in G.arrows})
    with pytest.raises(NotHomomorphism) as exc:
        kernel_of_grading(G, c)
    assert exc.value.witness == _kernel_outcome(_kernel_oracle, G, c)
    # the first bad pair in sorted order is another one
    assert exc.value.witness != _kernel_outcome(_kernel_oracle, G0, c)


def test_property_witnesses_do_not_depend_on_the_hash_seed():
    # members are scanned in G.arrows order, not in frozenset order; the last run is under -O
    script = (
        "from weylkit import corpus\n"
        "from weylkit.errors import WeylkitError\n"
        "from weylkit.groupoid import quotient_by_bundle, subgroupoid_properties\n"
        "s3, z2r2 = corpus.by_name('s3').G, corpus.z2_x_r2().G\n"
        "for G, S in ((s3, s3.arrows), (s3, ['0|0', '0|1', '1|1']), (z2r2, z2r2.arrows)):\n"
        "    print(subgroupoid_properties(G, S).witnesses)\n"
        "    try:\n"
        "        quotient_by_bundle(G, S)\n"
        "    except WeylkitError as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    src = str(Path(weylkit.__file__).parents[1])
    outs = []
    for seed, flags in (("1", []), ("2", []), ("3", ["-O"])):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs.append(subprocess.run([sys.executable, *flags, "-c", script], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1] == outs[2], outs
    lines = outs[0].splitlines()
    assert lines[0] == "{'abelian': ('0|1', '1|0')}"
    assert lines[1].startswith("NotAbelian") and "('0|1', '1|0')" in lines[1]
    assert len(lines) == 6, lines
