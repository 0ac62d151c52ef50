"""Action packages, quotients, diamond action, theta, twisted product, round trip."""

import itertools

import pytest

from weylkit import corpus, reconstruct
from weylkit.dual import Character, bundle_from_subgroupoid
from weylkit.errors import (
    AssumptionUnverified,
    IsoCheckFailed,
    NontrivialCocycle,
    SchemaError,
    ThetaInvalid,
)
from weylkit.groupoid import Grading, validate_groupoid
from weylkit.phases import Phase
from weylkit.reconstruct import (
    ThetaDatum,
    build_boxtimes,
    check_imm_centralizing_action,
    derive_weyl_actions,
    diamond_action,
    induced_grading_on_H,
    quotient_HT,
    reconstruction_iso,
    theta_for_package,
    trivial_theta,
    verify_action_package,
    verify_reconstruction_hypotheses,
    verify_theta,
)
from weylkit.weyl import action_ids

from mutations import ALL_CLAUSES, EXPECTED_FAILURES, MUTATIONS
from oracles import (
    bundle_lookups,
    bundle_package,
    class_table,
    element_order,
    find_isomorphism,
    invert,
    mul_all,
    multiply,
    p_r,
    p_s,
    tabulate_actions,
    theta_from_section,
    trivial,
)

RECON = ["z2z2", "s3", "d4", "q8", "z2xR2"]


def direct_value(chi, a):
    return dict(chi.values)[a]


def direct_multiply(chi, nu):
    return Character.from_table(chi.unit, {a: p + direct_value(nu, a) for a, p in chi.values})


def direct_invert(chi):
    return Character.from_table(chi.unit, {a: -p for a, p in chi.values})


def oracle_maps(pkg):
    """The closed formulas behind a Weyl-derived package, recomputed on every call.

    Returns (left, right, lam, rho, mult, inv), each evaluating the value
    tables directly, with no table or cached product.
    """
    data = pkg.weyl
    G, dual = data.G, data.dual

    def char_of(t):
        return dual.by_id[t[1]]

    def id_of(chi):
        return data.class_map[chi.unit], dual.char_id[chi]

    def ad(cid, chi):
        # conjugation by the least member of the class, dual side
        gamma = min(class_table(data.class_map)[cid])
        gi = G.inv(gamma)
        table = {
            a: direct_value(chi, mul_all(G, gamma, a, gi))
            for a in dual.bundle.fibres[G.src[gamma]]
        }
        return Character.from_table(G.src[gamma], table)

    def left(t, eta):
        cid, chi = eta[0], char_of(eta)
        return cid, dual.char_id[direct_multiply(ad(cid, char_of(t)), chi)]

    def right(eta, t):
        cid, chi = eta[0], char_of(eta)
        return cid, dual.char_id[direct_multiply(chi, char_of(t))]

    def lam(eta, t):
        return id_of(ad(data.Q.inv(eta[0]), char_of(t)))

    def rho(t, eta):
        return id_of(ad(eta[0], char_of(t)))

    def mult(a, b):
        return id_of(direct_multiply(char_of(a), char_of(b)))

    def inv(a):
        return id_of(direct_invert(char_of(a)))

    return left, right, lam, rho, mult, inv


def pair3_package():
    e = corpus.pair_groupoid(3)
    return derive_weyl_actions(e.G, e.S, e.omega)


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
    off = 0
    for i, t in enumerate(pkg.t_elements()):
        for j, eta in enumerate(H.arrows):
            on_r, on_s = T.p[t] == p_r(pkg, eta), T.p[t] == p_s(pkg, eta)
            assert (pkg.left[i, j] >= 0) == on_r and (pkg.rho[i, j] >= 0) == on_r, (t, eta)
            assert (pkg.right[j, i] >= 0) == on_s and (pkg.lam[j, i] >= 0) == on_s, (eta, t)
            off += not on_r
    assert off > 0
    assert not any(a.flags.writeable for a in (pkg.left, pkg.right, pkg.lam, pkg.rho))


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
    assert element_order(HT, g) == 2  # H/T is the two-element group


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
    x = p_s(dia.pkg, min(class_table(dia.class_map)[nontrivial]))
    action = action_ids(dia.HT, dia.That, dia.image, dia.x_unit)
    for chi in dia.That.fibres[x]:
        assert dia.That.by_id[action[(nontrivial, dia.That.char_id[chi])]] == invert(dia.That, chi)


def test_diamond_action_trivial_for_abelian(diamond):
    dia = diamond("z2z2")
    for (cid, char_id), image in action_ids(dia.HT, dia.That, dia.image, dia.x_unit).items():
        assert image == char_id


def test_theta_oracle_values(derived, diamond):
    # Q8: the lex section squares to -1 on the nontrivial class, so theta
    # has exactly one nontrivial entry, of order 2
    dia = diamond("q8")
    theta = theta_for_package(derived("q8"), dia)
    nontrivial = [v for v in theta.values.values() if not v.is_trivial]
    assert len(nontrivial) == 1
    chi = nontrivial[0]
    assert multiply(dia.That, chi, chi).is_trivial

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


def test_boxtimes_is_reused_only_for_equal_theta_values(entry):
    e = entry("q8")
    rep = reconstruction_iso(e.G, e.S, e.c)
    dia, theta = rep.dia, rep.theta
    assert build_boxtimes(dia, theta) is rep.boxtimes
    assert build_boxtimes(dia, ThetaDatum(dict(theta.values))) is rep.boxtimes

    # a datum with one value changed is verified again, and fails
    pair = next(p for p, v in theta.values.items() if dia.HT.is_unit(p[0]))
    nontriv = next(c for c in dia.That.fibres[theta.values[pair].unit] if not c.is_trivial)
    with pytest.raises(ThetaInvalid):
        build_boxtimes(dia, ThetaDatum({**theta.values, pair: nontriv}))
    assert build_boxtimes(dia, theta) is rep.boxtimes


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
    assert all(element_order(B, g) <= 2 for g in B.arrows)


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
    assert check_imm_centralizing_action(dia.HT, dia.That, dia.image, dia.x_unit) == (True, None)

    # inversion on a Z4 dual: premise holds at k=2 but the action moves
    # order-4 characters
    dia4 = diamond("d4")
    ok, (g, k) = check_imm_centralizing_action(dia4.HT, dia4.That, dia4.image, dia4.x_unit)
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


def test_action_check_names_the_witness_and_lets_bugs_through(derived):
    pkg = derived("q8")
    # an action that lands outside the arrow set fails its clauses, with
    # the first failing instance as the witness
    report = verify_action_package(MUTATIONS["rho_identity"](pkg))
    assert report.witnesses["left_distributes"] == (("-j", "1#0"), ("-1", "1#0"), ("-1", "1#2"))

    # a map that raises anything but KeyError or WeylkitError while it is
    # tabulated is a programming error, and it propagates
    def broken(t, eta):
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tabulate_actions(pkg, left=broken)


@pytest.mark.parametrize("name", RECON + ["pauli", "rotation(4,1)", "pair(3)"])
def test_tabulated_package_matches_closed_formulas(derived, name):
    pkg = pair3_package() if name == "pair(3)" else derived(name)
    H, T = pkg.H, pkg.T
    left, right, lam, rho, mult, inv = oracle_maps(pkg)
    t_mult, t_inv = bundle_lookups(T)
    ids = pkg.t_elements()
    for i, t in enumerate(ids):
        assert t_inv(t) == inv(t), (t,)
        for t2 in T.fibres[T.p[t]]:
            assert t_mult(t, t2) == mult(t, t2), (t, t2)
        for j, eta in enumerate(H.arrows):
            if p_r(pkg, eta) == T.p[t]:
                assert H.arrows[pkg.left[i, j]] == left(t, eta), (t, eta)
                assert ids[pkg.rho[i, j]] == rho(t, eta), (t, eta)
            if p_s(pkg, eta) == T.p[t]:
                assert H.arrows[pkg.right[j, i]] == right(eta, t), (eta, t)
                assert ids[pkg.lam[j, i]] == lam(eta, t), (eta, t)


def clause_domain_sizes(pkg):
    """How many instances each action-package clause has, from fibre sizes."""
    H, T = pkg.H, pkg.T
    n_r = {eta: len(T.fibres[p_r(pkg, eta)]) for eta in H.arrows}
    n_s = {eta: len(T.fibres[p_s(pkg, eta)]) for eta in H.arrows}
    on_left, on_right = sum(n_r.values()), sum(n_s.values())
    composable = [
        (g, e) for g, e in itertools.product(H.arrows, H.arrows) if H.src[g] == H.tgt[e]
    ]
    on_units = sum(len(T.fibres[T.p[u]]) for u in H.units)
    after = sum(n_s[e] for _, e in composable)
    before = sum(n_r[g] for g, _ in composable)
    return {
        "units_compatible": on_units,
        "identity_on_units": on_units,
        "endpoints_compatible": on_left + on_right,
        "lambda_rho_inverse": on_left + on_right,
        "left_free": on_left,
        "left_via_rho": on_left,
        "inverse_left": on_left,
        "right_free": on_right,
        "right_via_lambda": on_right,
        "inverse_right": on_right,
        "actions_commute": sum(n_r[eta] * n_s[eta] for eta in H.arrows),
        "lambda_multiplicative": sum(n * n for n in n_s.values()),
        "right_distributes": after,
        "lambda_composition": after,
        "left_distributes": before,
        "rho_composition": before,
    }


@pytest.mark.parametrize("name", ["q8", "z2xR2", "pair(3)"])
def test_action_report_counts_every_clause_instance(derived, name):
    pkg = pair3_package() if name == "pair(3)" else derived(name)
    report = verify_action_package(pkg)
    expected = clause_domain_sizes(pkg)
    assert report.instances == expected
    assert set(expected) == set(report.clauses)
    assert all(n > 0 for n in report.instances.values()), report.instances
    assert report.as_dict()["instances"] == expected


def _units_only(B):
    return validate_groupoid(B.units, {u: (u, u) for u in B.units}, {(u, u): u for u in B.units})


def _units_swapped(B):
    """B transported along the bijection that swaps its first two unit ids."""
    u, v = B.units[:2]
    sigma = {a: a for a in B.arrows}
    sigma[u], sigma[v] = v, u
    arrows = {sigma[a]: (sigma[B.src[a]], sigma[B.tgt[a]]) for a in B.arrows}
    return validate_groupoid(B.units, arrows, {(sigma[g], sigma[h]): sigma[k] for (g, h), k in B.compose.items()})


def _stray_character(B):
    a = (B.units[0][0], "nowhere#0")
    return validate_groupoid([a], {a: (a, a)}, {(a, a): a})


@pytest.mark.parametrize("name,wrong,branch", [
    ("q8", lambda build, dia, theta: build(dia, trivial_theta(dia)), "composition"),
    ("pair(3)", lambda build, dia, theta: _units_swapped(build(dia, theta)), "endpoints"),
    ("pair(3)", lambda build, dia, theta: _units_only(build(dia, theta)), "not a bijection"),
    ("d4", lambda build, dia, theta: _stray_character(build(dia, theta)), "character not in the image of evaluation"),
])
def test_iso_check_names_each_failure(entry, monkeypatch, name, wrong, branch):
    # the twisted product handed to the iso check is swapped for a wrong one
    e = corpus.pair_groupoid(3) if name == "pair(3)" else entry(name)
    build = reconstruct.build_boxtimes
    monkeypatch.setattr(reconstruct, "build_boxtimes", lambda dia, theta: wrong(build, dia, theta))
    with pytest.raises(IsoCheckFailed) as exc:
        reconstruction_iso(e.G, e.S, e.c)
    assert exc.value.witness[0] == branch


def test_iso_check_names_an_arrow_off_its_grade(entry):
    e = entry("d4")
    # graded by the H part: not constant on the classes of G/S
    c = Grading(group=(4,), values={g: (int(g.split("|")[0]),) for g in e.G.arrows})
    with pytest.raises(IsoCheckFailed) as exc:
        reconstruction_iso(e.G, e.S, c)
    assert exc.value.witness[0] == "grading"


@pytest.mark.parametrize("name", ["q8", "z2xR2"])
def test_theta_value_outside_the_dual_is_a_violation(diamond, derived, name):
    dia = diamond(name)
    theta = theta_for_package(derived(name), dia)
    pair = next(iter(theta.values))
    x = theta.values[pair].unit
    stray = Character.from_table(x, {t: Phase(1, 5) for t in dia.That.tables[x].elements})
    # a character of the dual of T, but over another base point
    elsewhere = [trivial(dia.That, y) for y in dia.That.base if y != x]
    for value in [stray] + elsewhere:
        report = verify_theta(dia, ThetaDatum({**theta.values, pair: value}))
        assert not report.all_pass() and ("outside the dual", pair) in report.violations
        with pytest.raises(ThetaInvalid):
            build_boxtimes(dia, ThetaDatum({**theta.values, pair: value}))


def test_theta_cocycle_break_fails_although_a_value_is_missing(diamond):
    # d4: H/T is Z2 acting on the dual of Z4 by inversion
    dia = diamond("d4")
    c = next(a for a in dia.HT.arrows if not dia.HT.is_unit(a))
    e = dia.HT.src[c]
    values = dict(trivial_theta(dia).values)
    x = values[(c, c)].unit
    # theta(c, c) of order 4 breaks the identity on (c, c, c): c inverts it
    values[(c, c)] = dia.That.fibres[x][next(
        r for r, i in enumerate(dia.That.tables[x].inverse) if i != r)]
    del values[(e, e)]
    report = verify_theta(dia, ThetaDatum(values))
    assert not report.coverage
    assert report.cocycle_identity is False
    assert ("cocycle", (c, c, c)) in report.violations
