"""The cocycle's kept numerator table, and the array-built Weyl twist against its Phase loop."""

import json
import random

import numpy as np
import pytest

from oracles import weyl_twist_cocycle_loop
from weylkit import cocycle, corpus, io, semidirect
from weylkit.cocycle import TwoCocycle, check_cocycle, numerator_table
from weylkit.errors import ElementNotInS, SchemaError, WeylkitError
from weylkit.groupoid import class_table
from weylkit.phases import HALF, Phase
from weylkit.weyl import build_weyl_groupoid, weyl_action, weyl_twist_cocycle


def action_outcome(G, S, omega):
    try:
        return weyl_action(G, S, omega)[3].tolist()
    except WeylkitError as exc:
        return type(exc).__name__, str(exc)


# (name, mutation of a pair -> Phase dict); each changes the pauli cocycle's table
MUTATIONS = {
    "setitem": lambda v: v.__setitem__(("0|1", "1|0"), v.get(("0|1", "1|0"), Phase.of(0)) + HALF),
    "delitem": lambda v: v.__delitem__(next(iter(v))),
    "update": lambda v: v.update({("1|1", "1|1"): Phase.of(1, 4)}),
    "update-pairs": lambda v: v.update([(("1|0", "1|1"), Phase.of(1, 3))]),
    "pop": lambda v: v.pop(next(iter(v))),
    "popitem": lambda v: v.popitem(),
    "setdefault": lambda v: v.setdefault(("1|0", "1|0"), HALF),
    "clear": lambda v: v.clear(),
    "ior": lambda v: v.__ior__({("0|1", "0|1"): Phase.of(1, 6)}),
    # a write that no dict subclass could see
    "unbound-update": lambda v: dict.update(v, {("1|0", "1|0"): HALF}),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_write_to_values_reaches_the_next_reader(entry, name):
    e = entry("pauli")
    gf = io.parse_groupoid_data(json.loads(json.dumps(io.emit_groupoid_data(e.G, e.omega, e.c, e.S))))
    gf.omega.values                                   # built from arrays; values read before the write
    for G, S, omega in [(e.G, e.S, TwoCocycle(e.G, e.omega.values)), (gf.G, gf.marked, gf.omega)]:
        assert check_cocycle(G, omega) == []
        weyl_action(G, S, omega)
        before = omega._int_table()[0]

        MUTATIONS[name](omega.values)
        fresh = TwoCocycle(G, dict(omega.values))
        om, _, den = omega._int_table()
        assert not np.array_equal(om, before)
        assert (om.tolist(), den) == (fresh._int_table()[0].tolist(), fresh._int_table()[2])
        assert check_cocycle(G, omega) == check_cocycle(G, fresh)
        assert all(omega.omega(g, h) == fresh.omega(g, h) for g, h in G.compose)
        assert action_outcome(G, S, omega) == action_outcome(G, S, fresh)


def test_values_is_a_plain_dict(entry):
    e = entry("pauli")
    doc = json.loads(json.dumps(io.emit_groupoid_data(e.G, e.omega, e.c, e.S)))
    for omega in (TwoCocycle(e.G, e.omega.values), io.parse_groupoid_data(doc).omega):
        assert type(omega.values) is dict


def test_kept_table_is_read_only(entry):
    om, _, _ = entry("d4").omega._int_table()
    with pytest.raises(ValueError):
        om[0, 0] = 1


def test_certify_pass_builds_each_table_once(monkeypatch):
    e = corpus.rotation(4, 1)
    doc = json.dumps(io.emit_groupoid_data(e.G, e.omega, e.c, e.S))
    built = []
    monkeypatch.setattr(cocycle, "numerator_table",
                        lambda G, values: built.append(values) or numerator_table(G, values))

    gf = io.parse_groupoid_data(json.loads(doc))
    parsed, _, parsed_den = gf.omega._int_table()
    assert check_cocycle(gf.G, gf.omega) == []
    GW, data = build_weyl_groupoid(gf.G, gf.marked, gf.omega)
    C = weyl_twist_cocycle(GW, data)
    assert check_cocycle(GW, C) == []
    # omega's table once, by the parser; C's once, by the twist itself;
    # neither is converted from a values dict
    assert built == [] and gf.omega._int_table()[0] is parsed
    rebuilt, rebuilt_den = numerator_table(gf.G, gf.omega.values)
    assert parsed_den == rebuilt_den and np.array_equal(parsed, rebuilt)
    om, _, den = C._int_table()
    rebuilt, rebuilt_den = numerator_table(GW, C.values)
    assert den == rebuilt_den and np.array_equal(om, rebuilt)


TWIST_INPUTS = sorted(corpus.BUILDERS) + ["pair(4)"] + [
    f"rotation({n},{p})" for n in range(1, 9) for p in range(n)
]


def by_name(name):
    return corpus.pair_groupoid(4) if name == "pair(4)" else corpus.by_name(name)


def sections(G, data, seed):
    """The least-id section, then two seeded ones: units on unit classes, random members elsewhere."""
    yield dict(data.section)
    rng = random.Random(seed)
    units = {data.class_map[u]: u for u in G.units}
    for _ in range(2):
        yield {cid: units.get(cid) or rng.choice(sorted(members))
               for cid, members in sorted(class_table(data.class_map).items())}


def same_twist(GW, new, old):
    assert new.values == old.values
    assert all(str(new.omega(*pair)) == str(old.omega(*pair)) for pair in GW.compose)
    om, _, den = new._int_table()
    rebuilt, rebuilt_den = numerator_table(GW, old.values)
    assert den == rebuilt_den and np.array_equal(om, rebuilt)


@pytest.mark.parametrize("name", TWIST_INPUTS)
def test_twist_matches_phase_loop(name):
    e = by_name(name)
    GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
    for seed, section in enumerate(sections(e.G, data, name)):
        data.section = section
        same_twist(GW, weyl_twist_cocycle(GW, data), weyl_twist_cocycle_loop(GW, data))


def test_defect_outside_S_raises_with_the_loop_witness():
    raised = 0
    for name in TWIST_INPUTS:
        e = by_name(name)
        GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
        G = e.G
        for cid in sorted(c for c in data.Q.arrows if not G.is_unit(data.section[c])):
            # an arrow with the same endpoints from another class; outside S,
            # or the defects of a two-class quotient all stay in S
            other = [g for g in G.arrows if data.class_map[g] != cid and g not in e.S
                     and (G.src[g], G.tgt[g]) == (G.src[cid], G.tgt[cid])]
            if other:
                data.section = {**data.section, cid: other[-1]}
                break
        else:
            continue
        with pytest.raises(ElementNotInS) as new:
            weyl_twist_cocycle(GW, data)
        with pytest.raises(ElementNotInS) as old:
            weyl_twist_cocycle_loop(GW, data)
        assert new.value.arrow == old.value.arrow and str(new.value) == str(old.value)
        raised += 1
    assert raised >= 30, raised


@pytest.mark.parametrize("name, pair", [("pair(3)", "(0>1, 1>0)"), ("z2xR2", "(z0:0>1, z0:1>0)")])
def test_section_value_with_other_endpoints_is_a_typed_error(name, pair):
    e = corpus.pair_groupoid(3) if name == "pair(3)" else corpus.by_name(name)
    G = e.G
    GW, data = build_weyl_groupoid(G, e.S, e.omega)
    cid = min(c for c in data.Q.arrows if not G.is_unit(data.section[c]))
    other = min(g for g in G.arrows if (G.src[g], G.tgt[g]) != (G.src[cid], G.tgt[cid]))
    data.section = {**data.section, cid: other}
    # the first class pair, in Q.compose order, whose defect does not compose
    with pytest.raises(SchemaError) as exc:
        weyl_twist_cocycle(GW, data)
    assert str(exc.value).startswith(f"section defect at classes {pair} is undefined")
    # the loop it replaced fails untyped
    with pytest.raises(KeyError):
        weyl_twist_cocycle_loop(GW, data)


def test_untwisting_lists_every_pair_where_the_twist_leaves_omega(monkeypatch):
    shifted = []

    def shifted_twist(GW, data):
        C = weyl_twist_cocycle(GW, data)
        shifted[:] = list(GW.compose)[5::11]
        return TwoCocycle(GW, {**C.values, **{pair: C.omega(*pair) + HALF for pair in shifted}})

    monkeypatch.setattr(semidirect, "weyl_twist_cocycle", shifted_twist)
    report = semidirect.verify_untwisting(corpus.rotation(4, 1).spec)
    assert report.action_matches_closed_form and not report.twist_equals_omega_on_k
    assert len(shifted) > 5 and report.mismatches == shifted
