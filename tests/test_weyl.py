"""Cartan hypotheses, quotient action, Weyl groupoid, twist, expectation."""

import pytest

from weylkit import corpus
from weylkit.cocycle import check_cocycle
from weylkit.dual import bundle_from_subgroupoid, dual_bundle
from weylkit.errors import NotAnAction
from weylkit.groupoid import find_isomorphism
from weylkit.phases import HALF, ZERO
from weylkit.weyl import (
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    check_immediately_centralizing,
    choose_section,
    conditional_expectation,
    iso_kernel_members,
    verify_groupoid_action,
    weyl_action,
    weyl_twist_cocycle,
)

NAMED = ["pauli", "s3", "d4", "q8", "z2xR2"]


@pytest.mark.parametrize("name", NAMED + ["rotation(4,1)", "rotation(6,2)"])
def test_hypotheses_pass_on_corpus(entry, name):
    e = entry(name)
    report = check_gamma_cartan_hypotheses(e.G, e.omega, e.c, e.S)
    assert report.all_pass(), report.as_dict()


def test_s3_ungraded_fails_only_immediately_centralizing(entry):
    e = entry("s3-ungraded")
    report = check_gamma_cartan_hypotheses(e.G, e.omega, e.c, e.S)
    assert not report.all_pass()
    flags = report.as_dict()
    failing = [
        k for k in (
            "contained_in_iso_kernel", "wide", "group_bundle", "abelian",
            "symmetric", "maximal", "normal", "immediately_centralizing",
        )
        if not flags[k]
    ]
    assert failing == ["immediately_centralizing"]
    t, k = report.witnesses["immediately_centralizing"]
    assert t == "0|1" and k == 3  # a reflection; all of A3 commutes at the cube


def test_containment_failure_witnessed(entry):
    e = entry("s3")
    S_bad = frozenset(["0|0", "0|1"])
    report = check_gamma_cartan_hypotheses(e.G, e.omega, e.c, S_bad)
    assert not report.contained_in_iso_kernel
    assert report.witnesses["contained_in_iso_kernel"] == "0|1"


def test_maximality_failure(entry):
    e = entry("d4")
    center = frozenset(["0|0", "2|0"])
    report = check_gamma_cartan_hypotheses(e.G, e.omega, e.c, center)
    assert not report.maximal and "maximal" in report.witnesses


def test_immediately_centralizing_direct(entry):
    q8 = entry("q8")
    G = q8.G
    T = frozenset(G.arrows)
    # the whole abelian bundle inside itself
    assert check_immediately_centralizing(G, q8.S, q8.S) == (True, None)
    # <i> inside Q8: j commutes with i^2 but not with i
    ok, (t, k) = check_immediately_centralizing(G, q8.S, T)
    assert not ok and t in {"j", "-j", "k", "-k"} and k == 2
    # the center is immediately centralizing in Q8
    assert check_immediately_centralizing(G, frozenset(["1", "-1"]), T)[0]


def test_weyl_action_trivial_for_abelian_trivial_cocycle(entry):
    e = entry("z2z2")
    _, _, dual, action = weyl_action(e.G, e.S, e.omega)
    for (cid, char_id), chi in action.items():
        assert chi == dual.by_id[char_id]


def test_weyl_action_pauli_shifts_characters(entry):
    e = entry("pauli")
    Q, class_map, dual, action = weyl_action(e.G, e.S, e.omega)
    u = e.G.units[0]
    nontrivial_class = class_map["0|1"]
    triv = dual.trivial(u)
    # the k=1 class shifts every character of Z2-hat by one step
    for chi in dual.fibres[u]:
        moved = action[(nontrivial_class, dual.char_id[chi])]
        assert moved != chi
    assert action[(nontrivial_class, dual.char_id[triv])] != triv


@pytest.mark.parametrize("name", NAMED)
def test_weyl_cardinality(entry, name):
    e = entry(name)
    GW, _ = build_weyl_groupoid(e.G, e.S, e.omega)
    assert len(GW) == len(e.G)


def test_d4_weyl_orbits(entry):
    e = entry("d4")
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    assert len(GW.units) == 4 and len(GW) == 8
    reflection_class = data.class_map["0|1"]
    orbits = set()
    for chi in data.dual.fibres[e.G.units[0]]:
        orbit = frozenset({
            data.char_id(chi),
            data.char_id(data.action[(reflection_class, data.char_id(chi))]),
        })
        orbits.add(orbit)
    assert sorted(len(o) for o in orbits) == [1, 1, 2]


def test_rotation31_weyl_is_full_equivalence_relation(entry):
    e = entry("rotation(3,1)")
    GW, _ = build_weyl_groupoid(e.G, e.S, e.omega)
    pair = corpus.pair_groupoid(3)
    assert find_isomorphism(GW, pair.G) is not None


def test_choose_section_units_and_least(entry):
    e = entry("q8")
    _, data = build_weyl_groupoid(e.G, e.S, e.omega)
    for u in e.G.units:
        assert data.section[data.class_map[u]] == u
    nontrivial = next(c for c in data.classes if c != data.class_map["1"])
    assert data.section[nontrivial] == min(data.classes[nontrivial])


def test_twist_trivial_for_multiplicative_section(entry):
    e = entry("z2z2")
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    C = weyl_twist_cocycle(GW, data)
    assert C.is_trivial()


def test_twist_q8_takes_both_values(entry):
    e = entry("q8")
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    C = weyl_twist_cocycle(GW, data)
    assert check_cocycle(GW, C) == []
    nontrivial = next(c for c in data.classes if c != data.class_map["1"])
    # the section representative squares to -1, so the twist on pairs of
    # nontrivial classes evaluates characters at -1: values 0 and 1/2
    vals = {
        C.omega(a1, a2)
        for (a1, a2) in GW.compose
        if data.split_gw_id(a1)[0] == nontrivial
        and data.split_gw_id(a2)[0] == nontrivial
    }
    assert vals == {ZERO, HALF}


@pytest.mark.parametrize("name", NAMED + ["rotation(5,2)"])
def test_twist_is_cocycle(entry, name):
    e = entry(name)
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    assert check_cocycle(GW, weyl_twist_cocycle(GW, data)) == []


def test_conditional_expectation_basics(entry):
    e = entry("q8")
    dual = dual_bundle(bundle_from_subgroupoid(e.G, e.S))
    u = e.G.units[0]
    # indicator of the unit
    out = conditional_expectation(e.G, dual, {u: 1.0})
    assert all(abs(v - 1) < 1e-12 for v in out.values())
    # indicator of a nontrivial bundle element evaluates the character
    out = conditional_expectation(e.G, dual, {"i": 1.0})
    for char_id, v in out.items():
        expected = dual.by_id[char_id].value("i").to_complex()
        assert abs(v - expected) < 1e-12
    # support outside S vanishes
    out = conditional_expectation(e.G, dual, {"j": 1.0})
    assert all(abs(v) < 1e-12 for v in out.values())


def test_iso_kernel_members(entry):
    e = entry("d4")
    assert iso_kernel_members(e.G, e.c) == e.S


def test_custom_section_roundtrip(entry):
    e = entry("q8")
    _, data = build_weyl_groupoid(e.G, e.S, e.omega)
    section = choose_section(e.G, data.class_map, data.classes)
    for cid, rep in section.items():
        assert rep in data.classes[cid]


def _exhaustive_immediately_centralizing(G, S, T):
    """The check as stated: every t and every bound k, powers recomputed."""
    for t in sorted(T):
        u = G.src[t]
        fibre = sorted(s for s in S if G.src[s] == u and G.tgt[s] == u)
        if not fibre or all(G.mul(t, s) == G.mul(s, t) for s in fibre):
            continue
        top = max(G.element_order(s) for s in fibre)
        for k in range(1, top + 1):
            premise = True
            for s in fibre:
                p, hit = s, False
                for _ in range(k):
                    hit = hit or G.mul(t, p) == G.mul(p, t)
                    p = G.mul(p, s)
                premise = premise and hit
            if premise:
                return False, (t, k)
    return True, None


@pytest.mark.parametrize(
    "name", NAMED + ["s3-ungraded", "z2z2"] + [f"rotation({n},{p})" for n in (4, 5, 6) for p in range(n)]
)
def test_immediately_centralizing_matches_exhaustive_oracle(entry, name):
    e = entry(name)
    G = e.G
    iso = frozenset(g for g in G.arrows if G.src[g] == G.tgt[g])
    # the last marking need not be closed or normal
    for S, T in ((e.S, iso_kernel_members(G, e.c)), (e.S, iso), (frozenset(sorted(iso)[:2]), iso)):
        assert check_immediately_centralizing(G, S, T) == _exhaustive_immediately_centralizing(G, S, T)


def test_action_axiom_check_reports_a_witness(entry):
    e = entry("pauli")
    Q, class_map, dual, action = weyl_action(e.G, e.S, e.omega)
    units = {class_map[u]: u for u in e.G.units}
    verify_groupoid_action(Q, dual, action, units)
    unit_class = class_map[e.G.units[0]]
    key = next(k for k in action if k[0] == unit_class)
    broken = dict(action)
    broken[key] = next(chi for chi in dual.fibres[e.G.units[0]] if chi != action[key])
    with pytest.raises(NotAnAction) as exc:
        verify_groupoid_action(Q, dual, broken, units)
    assert exc.value.witness == ("unit acts nontrivially", *key)
