"""Action packages, quotients, diamond action, theta, twisted product, round trip."""

import dataclasses

import pytest

from weylkit import corpus
from weylkit.dual import bundle_from_subgroupoid
from weylkit.errors import (
    AssumptionUnverified,
    MomentMapMismatch,
    NontrivialCocycle,
    SchemaError,
    ThetaInvalid,
)
from weylkit.groupoid import Grading, find_isomorphism
from weylkit.reconstruct import (
    ThetaDatum,
    build_boxtimes,
    bundle_package,
    check_imm_centralizing_action,
    derive_weyl_actions,
    diamond_action,
    induced_grading_on_H,
    quotient_HT,
    reconstruction_iso,
    theta_for_package,
    theta_from_section,
    trivial_theta,
    verify_action_package,
    verify_reconstruction_hypotheses,
    verify_theta,
)

from mutations import ALL_CLAUSES, EXPECTED_FAILURES, MUTATIONS

RECON = ["z2z2", "s3", "d4", "q8", "z2xR2"]


@pytest.mark.parametrize("name", RECON + ["pauli", "rotation(3,1)", "rotation(4,1)"])
def test_derived_packages_pass_all_clauses(derived, name):
    report = verify_action_package(derived(name))
    assert report.all_pass(), report.as_dict()


def test_bundle_package_passes(entry):
    e = entry("z2xR2")
    T = bundle_from_subgroupoid(e.G, e.S)
    report = verify_action_package(bundle_package(T))
    assert report.all_pass()


def test_moment_map_guards(derived):
    pkg = derived("z2xR2")  # two base units, so off-fibre elements exist
    H, T = pkg.H, pkg.T
    eta = next(a for a in H.arrows if not H.is_unit(a))
    wrong = next(t for t in pkg.t_elements() if T.p[t] != pkg.p_r(eta))
    with pytest.raises(MomentMapMismatch):
        pkg.left(wrong, eta)
    wrong_s = next(t for t in pkg.t_elements() if T.p[t] != pkg.p_s(eta))
    with pytest.raises(MomentMapMismatch):
        pkg.right(eta, wrong_s)


def test_mutation_clause_coverage():
    # every clause name appears in at least one expected-failure list
    sample = verify_action_package(
        derive_weyl_actions(corpus.z2z2(False).G, corpus.z2z2(False).S)
    )
    assert set(ALL_CLAUSES) == set(sample.clauses)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutations_fail_expected_clauses(derived, mutation):
    pkg = derived("q8")
    broken = MUTATIONS[mutation](pkg)
    report = verify_action_package(broken)
    assert not report.all_pass()
    for clause in EXPECTED_FAILURES[mutation]:
        assert report.clauses[clause] is False, (mutation, clause)
        assert clause in report.witnesses


def test_quotient_ht_counts(derived):
    HT, class_map = quotient_HT(derived("z2z2"))
    assert len(HT) == 2 and len(HT.units) == 1
    assert len(set(class_map.values())) == 2
    HT, _ = quotient_HT(derived("q8"))
    assert len(HT) == 2
    g = next(c for c in HT.arrows if not HT.is_unit(c))
    assert HT.element_order(g) == 2  # H/T is the two-element group


def test_quotient_of_bundle_package_is_base(entry):
    e = entry("z2xR2")
    T = bundle_from_subgroupoid(e.G, e.S)
    pkg = bundle_package(T)
    HT, _ = quotient_HT(pkg)
    assert len(HT) == len(T.base) and set(HT.arrows) == set(HT.units)


def test_quotient_requires_passing_report(derived):
    broken = MUTATIONS["lambda_identity"](derived("q8"))
    with pytest.raises(AssumptionUnverified):
        quotient_HT(broken)


def test_diamond_action_d4_inverts_dual(diamond):
    dia = diamond("d4")
    nontrivial = next(c for c in dia.HT.arrows if not dia.HT.is_unit(c))
    x = dia.pkg.p_s(min(dia.classes[nontrivial]))
    for chi in dia.That.fibres[x]:
        assert dia.act(nontrivial, chi) == dia.That.invert(chi)


def test_diamond_action_trivial_for_abelian(diamond):
    dia = diamond("z2z2")
    for (cid, char_id), chi in dia.action.items():
        assert chi == dia.That.by_id[char_id]


def test_theta_oracle_values(derived, diamond):
    # Q8: the lex section squares to -1 on the nontrivial class, so theta
    # has exactly one nontrivial entry, of order 2
    dia = diamond("q8")
    theta = theta_for_package(derived("q8"), dia)
    nontrivial = [v for v in theta.values.values() if not v.is_trivial]
    assert len(nontrivial) == 1
    chi = nontrivial[0]
    assert dia.That.multiply(chi, chi).is_trivial

    # D4: reflections square to the identity, so theta is entirely trivial
    dia4 = diamond("d4")
    theta4 = theta_for_package(derived("d4"), dia4)
    assert all(v.is_trivial for v in theta4.values.values())


def test_theta_multiplicative_section_trivial(derived, diamond):
    theta = theta_for_package(derived("z2z2"), diamond("z2z2"))
    assert all(v.is_trivial for v in theta.values.values())


def test_theta_requires_trivial_cocycle(derived, diamond):
    with pytest.raises(NontrivialCocycle):
        dia = diamond("z2z2")
        theta_for_package(derived("pauli"), dia)


def test_theta_requires_weyl_package(entry):
    e = entry("z2xR2")
    pkg = bundle_package(bundle_from_subgroupoid(e.G, e.S))
    dia = diamond_action(pkg)
    with pytest.raises(SchemaError):
        theta_for_package(pkg, dia)


def test_theta_section_must_fix_units(entry):
    e = entry("q8")
    pkg = derive_weyl_actions(e.G, e.S)
    dia = diamond_action(pkg)
    data = pkg.weyl
    bad = dict(data.section)
    unit_class = data.class_map["1"]
    bad[unit_class] = "i"  # not a unit
    with pytest.raises(SchemaError):
        theta_for_package(pkg, dia, bad)


def test_theta_verification_and_mutation(derived, diamond):
    dia = diamond("q8")
    theta = theta_for_package(derived("q8"), dia)
    assert verify_theta(dia, theta).all_pass()
    assert verify_theta(dia, trivial_theta(dia)).all_pass()

    # flip one unit-pair value to a nontrivial character
    broken = dict(theta.values)
    pair = next(
        (c1, c2) for (c1, c2) in broken
        if dia.HT.is_unit(c1) and broken[(c1, c2)].is_trivial
    )
    x = broken[pair].unit
    nontriv = next(c for c in dia.That.fibres[x] if not c.is_trivial)
    broken[pair] = nontriv
    report = verify_theta(dia, ThetaDatum(broken))
    assert not report.all_pass() and report.violations
    with pytest.raises(ThetaInvalid):
        build_boxtimes(dia, ThetaDatum(broken))


def test_theta_from_section_wrapper(entry):
    e = entry("q8")
    theta = theta_from_section(e.G, e.S)
    assert sum(not v.is_trivial for v in theta.values.values()) == 1


def test_boxtimes_isomorphism_types(entry, derived, diamond):
    dia = diamond("q8")
    theta = theta_for_package(derived("q8"), dia)
    B = build_boxtimes(dia, theta)
    assert len(B) == 8
    assert find_isomorphism(B, entry("q8").G) is not None
    assert find_isomorphism(B, entry("d4").G) is None

    # same diamond data with trivial theta yields D4 instead
    B0 = build_boxtimes(dia, trivial_theta(dia))
    assert find_isomorphism(B0, entry("d4").G) is not None
    assert find_isomorphism(B0, entry("q8").G) is None


def test_boxtimes_z2z2(entry, derived, diamond):
    dia = diamond("z2z2")
    B = build_boxtimes(dia, trivial_theta(dia))
    assert len(B) == 4
    assert all(B.element_order(g) <= 2 for g in B.arrows)


def test_boxtimes_bundle_only(entry):
    e = entry("z2xR2")
    pkg = bundle_package(bundle_from_subgroupoid(e.G, e.S))
    dia = diamond_action(pkg)
    B = build_boxtimes(dia, trivial_theta(dia))
    assert len(B.units) == len(pkg.T.base)
    assert set(B.arrows) - set(B.units) and all(
        B.src[g] == B.tgt[g] for g in B.arrows
    )


def test_imm_centralizing_action(diamond):
    # trivial action on an exponent-2 dual: immediately centralizing
    dia = diamond("z2z2")
    K = dia.That.to_bundle()
    act = {k: dia.That.char_id[v] for k, v in dia.action.items()}
    assert check_imm_centralizing_action(dia.HT, K, act, dia.x_unit) == (True, None)

    # inversion on a Z4 dual: premise holds at k=2 but the action moves
    # order-4 characters
    dia4 = diamond("d4")
    K4 = dia4.That.to_bundle()
    act4 = {k: dia4.That.char_id[v] for k, v in dia4.action.items()}
    ok, (g, k) = check_imm_centralizing_action(dia4.HT, K4, act4, dia4.x_unit)
    assert not ok and k == 2


def test_reconstruction_hypotheses_z2z2(entry, derived, diamond):
    e = entry("z2z2")
    pkg = derived("z2z2")
    dia = diamond("z2z2")
    theta = theta_for_package(pkg, dia)
    c_tilde = induced_grading_on_H(pkg, e.c)
    report = verify_reconstruction_hypotheses(dia, theta, c_tilde, roundtrip=True)
    assert report.all_pass()
    assert report.cross_validation.all_pass()
    assert report.roundtrip_succeeded is True


@pytest.mark.parametrize("name", ["d4", "q8"])
def test_reconstruction_hypotheses_fail_sufficiency(entry, derived, diamond, name):
    e = entry(name)
    pkg = derived(name)
    dia = diamond(name)
    theta = theta_for_package(pkg, dia)
    c_tilde = induced_grading_on_H(pkg, e.c)
    report = verify_reconstruction_hypotheses(dia, theta, c_tilde, roundtrip=True)
    assert not report.all_pass()
    assert not report.imm_centralizing
    _, k = report.witnesses["imm_centralizing"]
    assert k == 2
    assert report.roundtrip_succeeded is True
    assert "sufficient, not necessary" in report.note


def test_reconstruction_hypotheses_effectiveness_witness(derived, diamond):
    pkg = derived("q8")
    dia = diamond("q8")
    theta = theta_for_package(pkg, dia)
    flat = Grading(group=(1,), values={g: (0,) for g in pkg.H.arrows})
    report = verify_reconstruction_hypotheses(dia, theta, flat)
    assert not report.kernel_effective
    assert "kernel_effective" in report.witnesses


@pytest.mark.parametrize("name", RECON)
def test_roundtrip(entry, name):
    e = entry(name)
    rec = reconstruction_iso(e.G, e.S, e.c)
    assert rec.sizes == (len(e.G), len(e.G))
    assert rec.grading_checked
    # phi is a relabeling: image is exactly the arrow set
    assert set(rec.phi.values()) == set(e.G.arrows)


def test_action_check_names_the_exception_and_lets_bugs_through(derived):
    pkg = derived("q8")
    # an action that lands outside the arrow set fails its clauses, and the
    # witness says which exception the check raised
    report = verify_action_package(MUTATIONS["rho_identity"](pkg))
    assert report.witnesses["left_distributes"][-1] == "KeyError"

    # any other exception is a programming error and propagates
    def broken(t, eta):
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        verify_action_package(dataclasses.replace(pkg, left=broken))
