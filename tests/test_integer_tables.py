"""The cocycle's kept numerator table, and the array-built Weyl twist against its Phase loop."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from oracles import class_table, weyl_twist_cocycle_loop
from weylkit import cocycle, corpus, io, semidirect
from weylkit.cocycle import TableValues, TwoCocycle, check_cocycle, numerator_table
from weylkit.errors import ElementNotInS, SchemaError, WeylkitError
from weylkit.phases import HALF, Phase
from weylkit.reconstruct import build_boxtimes, reconstruction_iso, verify_theta
from weylkit.weyl import build_weyl_groupoid, weyl_action, weyl_twist_cocycle


def action_outcome(G, S, omega):
    try:
        return weyl_action(G, S, omega)[3].tolist()
    except WeylkitError as exc:
        return type(exc).__name__, str(exc)


# (name, write into a mapping v at its key k, at a key a it lacks, or of the value x): each changes a dict
MUTATIONS = {
    "setitem": lambda v, k, a, x: v.__setitem__(a, x),
    "delitem": lambda v, k, a, x: v.__delitem__(k),
    "update": lambda v, k, a, x: v.update({a: x}),
    "update-pairs": lambda v, k, a, x: v.update([(k, x)]),
    "pop": lambda v, k, a, x: v.pop(k),
    "popitem": lambda v, k, a, x: v.popitem(),
    "setdefault": lambda v, k, a, x: v.setdefault(a, x),
    "clear": lambda v, k, a, x: v.clear(),
    "ior": lambda v, k, a, x: v.__ior__({a: x}),
    # writes that no dict subclass could see
    "unbound-update": lambda v, k, a, x: dict.update(v, {a: x}),
    "unbound-setitem": lambda v, k, a, x: dict.__setitem__(v, k, x),
}
REFUSED = {"ior", "unbound-update", "unbound-setitem"}     # by a cocycle's values, which is no dict


def parsed(e):
    return io.parse_groupoid_data(json.loads(json.dumps(io.emit_groupoid_data(e.G, e.omega, e.c, e.S))))


def cocycles():
    """(G, S, omega): the pauli cocycle built from a dict and parsed from its file, and the
    Weyl twist of parsed q8, which is nontrivial, marked by the units."""
    e, gf, q8 = corpus.by_name("pauli"), parsed(corpus.by_name("pauli")), parsed(corpus.by_name("q8"))
    GW, data = build_weyl_groupoid(q8.G, q8.marked, q8.omega)
    return [(e.G, e.S, TwoCocycle(e.G, e.omega.values)), (gf.G, gf.marked, gf.omega),
            (GW, frozenset(GW.units), weyl_twist_cocycle(GW, data))]


def readers(G, S, omega):
    """What the checks read of omega: its table, the cocycle check's witnesses and the Weyl action's outcome."""
    om, _, den = omega._int_table()
    return om.tolist(), den, check_cocycle(G, omega), action_outcome(G, S, omega)


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_write_to_values_reaches_the_next_reader(name):
    """A write into a cocycle's values replaces its table at once, or raises and leaves it as it was."""
    for G, S, omega in cocycles():
        values = dict(omega.values)
        k = next(iter(values))
        a = next(pair for pair in G.compose if pair not in values)
        x = values[k] + Phase(1, 3)
        before = readers(G, S, omega)
        if name in REFUSED:
            with pytest.raises((AttributeError, TypeError)):
                MUTATIONS[name](omega.values, k, a, x)
            assert readers(G, S, omega) == before
            continue
        MUTATIONS[name](omega.values, k, a, x)
        om = omega._int_table()[0]
        assert om is omega._int_table()[0] and not om.flags.writeable
        assert readers(G, S, omega) == readers(G, S, TwoCocycle(G, dict(omega.values))) != before
        MUTATIONS[name](values, k, a, x)
        assert name == "popitem" or dict(omega.values) == values
        assert all(omega.omega(g, h) == omega.values.get((g, h), Phase(0)) for g, h in G.compose)


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_write_to_compose_or_theta_raises(name):
    rec = reconstruction_iso(corpus.by_name("q8").G, corpus.by_name("q8").S)
    for view in (rec.dia.pkg.H.compose, rec.theta.values):
        before = dict(view)
        k = next(iter(view))
        with pytest.raises((AttributeError, TypeError)):
            MUTATIONS[name](view, k, ("not", "a pair"), view[k])
        assert dict(view) == before
    assert verify_theta(rec.dia, rec.theta).all_pass()
    assert build_boxtimes(rec.dia, rec.theta) is rec.boxtimes


def test_values_is_a_view_of_the_table():
    for G, _, omega in cocycles():
        assert isinstance(omega.values, TableValues) and type(G.compose) is MappingProxyType
        # spelled once per table, in arrow-index order
        assert omega.values._omega._spell() is omega._values
        assert list(omega.values) == sorted(omega.values, key=lambda pair: (G.index[pair[0]], G.index[pair[1]]))


def test_every_constructor_keeps_one_table():
    built = [omega for _, _, omega in cocycles()]
    om, _, den = built[0]._int_table()
    built.append(TwoCocycle.from_table(built[0].G, om, den))
    for omega in built:
        first = omega._int_table()[0]
        omega.values
        assert omega._int_table()[0] is first and omega._int_table()[0] is first


def test_writes_are_checked_under_python_O():
    # the views check writes by their type and by raising, not by an assert
    script = (
        "from weylkit import corpus\n"
        "from weylkit.phases import HALF\n"
        "from weylkit.reconstruct import reconstruction_iso\n"
        "e = corpus.by_name('q8')\n"
        "rec = reconstruction_iso(e.G, e.S)\n"
        "for view in (e.G.compose, rec.theta.values):\n"
        "    try:\n"
        "        view[next(iter(view))] = None\n"
        "    except TypeError:\n"
        "        print('refused')\n"
        "omega = corpus.by_name('pauli').omega\n"
        "try:\n"
        "    dict.update(omega.values, {('1|0', '1|0'): HALF})\n"
        "except TypeError:\n"
        "    print('refused')\n"
        "omega.values[('1|0', '1|0')] = HALF\n"
        "print(omega.omega('1|0', '1|0'), int(omega._int_table()[0][2, 2]))\n"
    )
    src = str(Path(cocycle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused", "refused", "refused", "1/2", "1"]


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
