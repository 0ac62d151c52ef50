"""Cartan hypotheses, quotient action, Weyl groupoid, twist, expectation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit import corpus
from weylkit.cocycle import TwoCocycle, check_cocycle
from weylkit.dual import Character, bundle_from_subgroupoid, dual_bundle
from weylkit.errors import NotAnAction, RepresentativeDisagreement, SchemaError, WeylkitError
from weylkit.groupoid import (
    MAX_TABLE_INT,
    class_table,
    find_isomorphism,
    quotient_by_bundle,
    validate_groupoid,
)
from weylkit.io import label
from weylkit.phases import HALF, ZERO, Phase
from weylkit.weyl import (
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    check_immediately_centralizing,
    choose_section,
    conditional_expectation,
    action_ids,
    iso_kernel_members,
    verify_groupoid_action,
    weyl_action,
    weyl_twist_cocycle,
)

from oracles import verify_groupoid_action_loop

NAMED = ["pauli", "s3", "d4", "q8", "z2xR2"]


def weyl_characters(G, S, omega):
    """``weyl_action`` with its table spelled as (class id, character id) -> Character."""
    Q, class_map, dual, image = weyl_action(G, S, omega)
    ids = action_ids(Q, dual, image, class_map)
    return Q, class_map, dual, {key: dual.by_id[i] for key, i in ids.items()}


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


def test_a_marked_set_that_is_no_bundle_gets_a_report():
    """Every arrow of the pair groupoid marked: omega is compared only on pairs that compose both ways."""
    e = corpus.pair_groupoid(3)
    report = check_gamma_cartan_hypotheses(e.G, e.omega, e.c, e.G.arrows)
    assert not report.group_bundle and not report.all_pass()
    assert report.witnesses["props_bundle"] == "0>1"
    assert report.symmetric


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
    _, _, dual, action = weyl_characters(e.G, e.S, e.omega)
    for (cid, char_id), chi in action.items():
        assert chi == dual.by_id[char_id]


def test_weyl_action_pauli_shifts_characters(entry):
    e = entry("pauli")
    Q, class_map, dual, action = weyl_characters(e.G, e.S, e.omega)
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
    action = action_ids(data.Q, data.dual, data.image, data.class_map)
    orbits = set()
    for chi in data.dual.fibres[e.G.units[0]]:
        orbit = frozenset({
            data.dual.char_id[chi],
            action[(reflection_class, data.dual.char_id[chi])],
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
    classes = class_table(data.class_map)
    nontrivial = next(c for c in classes if c != data.class_map["1"])
    assert data.section[nontrivial] == min(classes[nontrivial])


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
    nontrivial = next(c for c in class_table(data.class_map) if c != data.class_map["1"])
    # the section representative squares to -1, so the twist on pairs of
    # nontrivial classes evaluates characters at -1: values 0 and 1/2
    vals = {
        C.omega(a1, a2)
        for (a1, a2) in GW.compose
        if a1[0] == nontrivial
        and a2[0] == nontrivial
    }
    assert vals == {ZERO, HALF}


@pytest.mark.parametrize("name", NAMED + ["rotation(5,2)"])
def test_twist_is_cocycle(entry, name):
    e = entry(name)
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    assert check_cocycle(GW, weyl_twist_cocycle(GW, data)) == []


def _with_separators(e):
    """``e`` with every id g renamed to 'a&g#b', so ids contain '&' and '#'."""
    name = {g: f"a&{g}#b" for g in e.G.arrows}
    G = validate_groupoid(
        [name[u] for u in e.G.units],
        {name[g]: (name[e.G.src[g]], name[e.G.tgt[g]]) for g in e.G.arrows},
        {(name[g], name[h]): name[k] for (g, h), k in e.G.compose.items()},
    )
    omega = TwoCocycle(G, {(name[g], name[h]): ph for (g, h), ph in e.omega.values.items()})
    return G, frozenset(name[g] for g in e.S), omega


@pytest.mark.parametrize("name", ["pauli", "q8", "z2xR2", "rotation(3,1)"])
def test_weyl_groupoid_of_ids_with_separators(entry, name):
    G, S, omega = _with_separators(entry(name))
    GW, data = build_weyl_groupoid(G, S, omega)
    assert len(GW) == len(G)
    assert check_cocycle(GW, weyl_twist_cocycle(GW, data)) == []


@pytest.mark.parametrize(
    "name", list(corpus.BUILDERS) + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)]
)
def test_weyl_arrows_sort_like_their_labels(entry, name):
    e = entry(name)
    GW, _ = build_weyl_groupoid(e.G, e.S, e.omega)
    labels = [label(a) for a in GW.arrows]
    assert labels == sorted(labels)


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
    section = choose_section(e.G, data.class_map)
    classes = class_table(data.class_map)
    for cid, rep in section.items():
        assert rep in classes[cid]


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
    Q, class_map, dual, image = weyl_action(e.G, e.S, e.omega)
    verify_groupoid_action(Q, dual, image, class_map)
    unit_class = class_map[e.G.units[0]]
    broken = image.copy()
    broken[Q.index[unit_class], 0] = 1      # the trivial character sent to the other one
    with pytest.raises(NotAnAction) as exc:
        verify_groupoid_action(Q, dual, broken, class_map)
    assert exc.value.witness == ("unit acts nontrivially", unit_class, dual.tables[e.G.units[0]].ids[0])


def _corpus(entry, name):
    return corpus.pair_groupoid(int(name[len("pair("):-1])) if name.startswith("pair(") else entry(name)


def _act_one_oracle(G, omega, dual, gamma, chi):
    """The quotient action of one representative, in Phase arithmetic."""
    gi = G.inv(gamma)
    base = -omega.omega(gamma, gi)
    table = {}
    for a in dual.bundle.fibre(G.tgt[gamma]):
        gia = G.mul(gi, a)
        table[a] = base + omega.omega(gi, a) + omega.omega(gia, gamma) + chi.value(G.mul(gia, gamma))
    return Character.from_table(G.tgt[gamma], table)


def _weyl_action_oracle(G, S, omega):
    """weyl_action evaluated representative by representative."""
    Q, class_map = quotient_by_bundle(G, S)
    dual = dual_bundle(bundle_from_subgroupoid(G, S))
    action = {}
    for cid, members in class_table(class_map).items():
        for chi in dual.fibres[G.src[cid]]:
            results = {_act_one_oracle(G, omega, dual, g, chi) for g in members}
            if len(results) != 1:
                raise RepresentativeDisagreement((cid, dual.char_id[chi]))
            action[(cid, dual.char_id[chi])] = results.pop()
    verify_groupoid_action_loop(Q, dual, action, {class_map[u]: u for u in G.units})
    return action


def _outcome(f):
    try:
        return f()
    except WeylkitError as exc:
        return type(exc).__name__, getattr(exc, "witness", str(exc))


ORACLE_INPUTS = ["pauli", "z2z2", "s3", "d4", "q8", "z2xR2",
                 "rotation(4,1)", "rotation(6,2)", "rotation(8,3)", "pair(5)"]


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_weyl_action_matches_per_representative_oracle(entry, name):
    e = _corpus(entry, name)
    assert weyl_characters(e.G, e.S, e.omega)[3] == _weyl_action_oracle(e.G, e.S, e.omega)


@pytest.mark.parametrize("name", ["pauli", "d4", "q8", "rotation(4,1)", "rotation(6,2)"])
def test_weyl_action_witness_matches_oracle_on_shifted_cocycles(entry, name):
    e = entry(name)
    G = e.G
    outcomes = set()
    for g in [x for x in G.arrows if not G.is_unit(x)][:4]:
        for h in G.arrows[-3:]:
            values = dict(e.omega.values)
            values[(g, h)] = e.omega.omega(g, h) + Phase.of(1, 2 * G.element_order(g))
            omega = TwoCocycle(G, values)
            new = _outcome(lambda: weyl_characters(G, e.S, omega)[3])
            assert new == _outcome(lambda: _weyl_action_oracle(G, e.S, omega))
            outcomes.add(new[0] if isinstance(new, tuple) else "action")
    assert "RepresentativeDisagreement" in outcomes


@pytest.mark.parametrize("name", ["pauli", "rotation(4,1)"])
def test_representatives_disagree_when_S_is_everything(entry, name):
    e = entry(name)
    with pytest.raises(RepresentativeDisagreement) as exc:
        weyl_action(e.G, e.G.arrows, e.omega)
    assert exc.value.witness == ("0|0", "0|0#0")


def test_oversized_common_denominator_is_a_schema_error(entry):
    e = entry("pauli")
    g = "0|1"
    # odd, so the characters' denominator 2 doubles it past the bound
    omega = TwoCocycle(e.G, {(g, g): Phase.of(1, MAX_TABLE_INT - 1)})
    with pytest.raises(SchemaError, match="common denominator"):
        weyl_action(e.G, e.S, omega)


def test_failures_survive_python_O():
    # the checks raise typed errors or return witnesses, so they still run under python -O
    script = (
        "from weylkit import corpus\n"
        "from weylkit.cocycle import TwoCocycle, check_cocycle\n"
        "from weylkit.groupoid import Grading, kernel_of_grading, validate_groupoid\n"
        "from weylkit.phases import HALF\n"
        "from weylkit.weyl import weyl_action\n"
        "e = corpus.by_name('pauli')\n"
        "arrows = {g: (e.G.src[g], e.G.tgt[g]) for g in e.G.arrows}\n"
        "for f in (lambda: weyl_action(e.G, e.G.arrows, e.omega),\n"
        "          lambda: kernel_of_grading(e.G, Grading((0,), {g: (int(g == '0|1'),) for g in e.G.arrows}))):\n"
        "    try:\n"
        "        f()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc.witness)\n"
        "try:\n"
        "    validate_groupoid(e.G.units, arrows, {**e.G.compose, ('0|1', '1|1'): '0|0'})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc.triple)\n"
        "print(check_cocycle(e.G, TwoCocycle(e.G, {**e.omega.values, ('1|0', '0|1'): HALF}))[:2])\n"
        "import numpy as np\n"
        "from weylkit.errors import NotNormal\n"
        "from weylkit.groupoid import orbit_quotient\n"
        "from weylkit.weyl import build_weyl_groupoid, weyl_twist_cocycle\n"
        "s3 = corpus.by_name('s3').G\n"
        "# every row the class of 0|0 alone, then the left cosets of the reflection 0|1\n"
        "for orbits in (np.zeros((6, 1), dtype=np.int64), s3.comp_matrix()[:, [0, 1]]):\n"
        "    try:\n"
        "        orbit_quotient(s3, orbits, name='Q', error=NotNormal)\n"
        "    except NotNormal as exc:\n"
        "        print('NotNormal', exc)\n"
        "r = corpus.by_name('rotation(3,0)')\n"
        "GW, data = build_weyl_groupoid(r.G, r.S, r.omega)\n"
        "data.section = {**data.section, '0|1': '1|2'}\n"
        "try:\n"
        "    weyl_twist_cocycle(GW, data)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc.arrow)\n"
    )
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "RepresentativeDisagreement ('0|0', '0|0#0')",
        "NotHomomorphism ('0|1', '0|1')",
        "AssociativityViolation ('0|1', '0|1', '1|0')",
        "[('1|0', '0|1', '0|1'), ('1|0', '0|1', '1|0')]",
        "NotNormal orbits do not partition the arrow set",
        "NotNormal quotient composition depends on representatives: (0|1, 1|0)",
        "ElementNotInS 2|2",
    ], out


# The coboundary of f = 1/4 at the rotation 1|0 of d4, 0 elsewhere: a
# cocycle symmetric on S, under which the reflection class sends every
# character of S to a map that is not multiplicative.
OUTSIDE_SCRIPT = """
from weylkit import corpus
from weylkit.cocycle import TwoCocycle
from weylkit.errors import NotAnAction
from weylkit.phases import ZERO, Phase
from weylkit.reconstruct import ThetaDatum, diamond_action, derive_weyl_actions, theta_for_package, verify_theta
from weylkit.weyl import weyl_action

e = corpus.by_name("d4")
f = {g: Phase(1, 4) if g == "1|0" else ZERO for g in e.G.arrows}
omega = TwoCocycle(e.G, {pair: f[pair[0]] + f[pair[1]] - f[k] for pair, k in e.G.compose.items()})
try:
    weyl_action(e.G, e.S, omega)
except NotAnAction as exc:
    print(exc.witness)

dia = diamond_action(derive_weyl_actions(e.G, e.S))
theta = theta_for_package(dia.pkg, dia)
pair = next(iter(theta.values))
x = theta.values[pair].unit
stray = type(theta.values[pair]).from_table(x, {t: Phase(1, 5) for t in dia.That.tables[x].elements})
print(verify_theta(dia, ThetaDatum({**theta.values, pair: stray})).violations)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_images_outside_the_dual_fail_typed(flags):
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, *flags, "-c", OUTSIDE_SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == "('image outside the dual', '0|1', '0|0#0')"
    assert out[1].startswith("[('outside the dual', "), out
