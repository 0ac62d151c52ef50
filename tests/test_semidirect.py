"""Semidirect products, untwisting, and the rotation family."""

from collections import Counter

import pytest

from oracles import element_order, invert
from weylkit import semidirect, weyl
from weylkit.cocycle import check_cocycle
from weylkit.errors import (
    CocycleInvalid,
    NotAutomorphism,
    RestrictionNotTrivial,
    SchemaError,
)
from weylkit.phases import HALF, Phase, ZERO
from weylkit.semidirect import (
    SemidirectSpec,
    build_semidirect,
    gen_rotation,
    omega_restricts_trivially,
    semidirect_weyl_action,
    verify_untwisting,
)


def test_s3_structure(entry):
    G = entry("s3").G
    assert len(G) == 6 and len(G.units) == 1
    orders = sorted(element_order(G, g) for g in G.arrows)
    assert orders == [1, 2, 2, 2, 3, 3]
    # nonabelian: a rotation and a reflection do not commute
    assert G.mul("1|0", "0|1") != G.mul("0|1", "1|0")


def test_d4_structure(entry):
    G = entry("d4").G
    orders = sorted(element_order(G, g) for g in G.arrows)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_gen_rotation_pauli_table():
    spec = gen_rotation(2, 1)
    # omega((h,k),(h',k')) = k h' / 2
    assert spec.omega(((0,), (1,)), ((1,), (0,))) == HALF
    assert spec.omega(((1,), (0,)), ((0,), (1,))) == ZERO
    G, omega, S, c = build_semidirect(spec)
    assert len(G) == 4 and check_cocycle(G, omega) == []
    assert S == frozenset(["0|0", "1|0"])
    assert c.value("0|1") == (1,) and c.value("1|0") == (0,)


def test_gen_rotation_validation():
    with pytest.raises(SchemaError):
        gen_rotation(0, 0)
    with pytest.raises(SchemaError):
        gen_rotation(4, 4)
    assert gen_rotation(3, 0).omega(((1,), (1,)), ((1,), (1,))) == ZERO


def test_bad_action_rejected():
    spec = SemidirectSpec(
        name="bad", h_orders=(3,), k_orders=(2,),
        beta=lambda k, h: (0,) if k[0] else h,
    )
    with pytest.raises(NotAutomorphism):
        build_semidirect(spec)


def test_invalid_cocycle_rejected():
    # a one-entry table is not a cocycle on Z2 x Z2
    spec = SemidirectSpec(
        name="badomega", h_orders=(2,), k_orders=(2,),
        omega=lambda a, b: HALF if (a, b) == (((1,), (0,)), ((1,), (0,))) else ZERO,
    )
    with pytest.raises(CocycleInvalid):
        build_semidirect(spec)


def test_omega_restriction_flags():
    rot = gen_rotation(4, 1)
    assert omega_restricts_trivially(rot, "H")
    assert omega_restricts_trivially(rot, "K")
    spec = SemidirectSpec(
        name="onH", h_orders=(2,), k_orders=(2,),
        omega=lambda a, b: Phase.of(a[0][0] * b[0][0], 2),
    )
    assert not omega_restricts_trivially(spec, "H")
    with pytest.raises(RestrictionNotTrivial):
        semidirect_weyl_action(spec)


def test_s3_closed_form_action_is_inversion(entry):
    e = entry("s3")
    G, _, S, _, action = semidirect_weyl_action(e.spec)
    from weylkit.dual import bundle_from_subgroupoid, dual_bundle

    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    u = G.units[0]
    reflection_class = min("0|1 1|1 2|1".split())
    for chi in dual.fibres[u]:
        assert action[(reflection_class, dual.char_id[chi])] == invert(dual, chi)


@pytest.mark.parametrize(
    "name", ["pauli", "s3", "d4", "rotation(3,1)", "rotation(4,1)", "rotation(6,5)"]
)
def test_untwisting_report(entry, name):
    e = entry(name)
    report = verify_untwisting(e.spec)
    assert report.all_pass(), report
    assert report.twist_equals_omega_on_k
    # omega restricts trivially to K for the whole family, so the corollary
    # form must agree with the closed form
    assert report.corollary_agrees is True


def test_trivial_action_trivial_omega_gives_trivial_weyl_action():
    spec = SemidirectSpec(name="z6", h_orders=(3,), k_orders=(2,))
    G, _, S, _, action = semidirect_weyl_action(spec, use_corollary=True)
    from weylkit.dual import bundle_from_subgroupoid, dual_bundle

    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    for (cid, char_id), chi in action.items():
        assert chi == dual.by_id[char_id]


def test_verify_untwisting_builds_each_object_once(monkeypatch):
    calls = Counter()
    for module, name in ((weyl, "weyl_action"), (semidirect, "build_semidirect")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    report = verify_untwisting(gen_rotation(6, 1))
    assert report.all_pass() and report.corollary_agrees and not report.mismatches
    assert calls == {"weyl_action": 1, "build_semidirect": 1}
