"""Groupoids validated from index arrays, against their dict and loop oracles.

The parser and ``build_semidirect`` hand index arrays to
``validate_arrays``, ``compose`` and ``values`` are built on first read, and
the quotient of an orbit table is built and checked by gathers.  The oracles
are the tuple-keyed dict parse, the multiplication-callable build and the
quotient of an orbit callable with its per-pair descent loop.
"""

import json
import random
import sys
from collections import Counter

import numpy as np
import pytest

from oracles import (
    build_semidirect_loop,
    element_order,
    is_cocycle_violation,
    mul_all,
    orbit_quotient_loop,
    orbits_of_table,
    parse_groupoid_data_dicts,
)
from weylkit import corpus
from weylkit.cocycle import TwoCocycle, check_cocycle
from weylkit.errors import GroupoidError, NotAutomorphism, NotNormal, WeylkitError
from weylkit.groupoid import (
    FiniteGroupoid,
    arrow_index,
    orbit_quotient,
    validate_arrays,
    validate_groupoid,
)
from weylkit.io import emit_groupoid_data, parse_groupoid_data
from weylkit.phases import HALF, Phase
from weylkit.reconstruct import induced_grading_on_H, reconstruction_iso, verify_reconstruction_hypotheses
from weylkit.semidirect import SemidirectSpec, build_semidirect, gen_rotation, verify_untwisting
from weylkit.weyl import build_weyl_groupoid, check_gamma_cartan_hypotheses, weyl_twist_cocycle

NAMES = sorted(corpus.BUILDERS) + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)]


def by_name(name):
    return corpus.pair_groupoid(4) if name == "pair(4)" else corpus.by_name(name)


def document(name):
    e = by_name(name)
    return emit_groupoid_data(e.G, e.omega, e.c, e.S, e.name)


def shuffled(data, seed):
    """A copy whose compose and cocycle keys are in a seeded random order."""
    rng = random.Random(seed)
    out = json.loads(json.dumps(data))
    for table in ("compose", "cocycle"):
        if table in out:
            items = list(out[table].items())
            rng.shuffle(items)
            out[table] = dict(items)
    return out


def same_groupoid(G, H):
    assert (G.name, G.units, G.arrows) == (H.name, H.units, H.arrows)
    assert list(G.src.items()) == list(H.src.items()) and list(G.tgt.items()) == list(H.tgt.items())
    assert np.array_equal(G.comp_matrix(), H.comp_matrix())
    assert list(G.inverse.items()) == list(H.inverse.items())
    assert G.generators().tolist() == H.generators().tolist()
    assert list(G.compose.items()) == list(H.compose.items())


def same_cocycle(new, old):
    om, _, den = new._int_table()
    old_om, _, old_den = old._int_table()
    assert den == old_den and np.array_equal(om, old_om)
    assert new.is_trivial() == old.is_trivial()
    assert list(new.values.items()) == list(old.values.items())


def arrays_answer_like_dicts(new, old):
    """mul and omega() of the array-built side, read before its dicts exist."""
    G, H = new.G, old.G
    assert G._compose is None and new._values is None
    assert all(G.mul(g, h) == k for (g, h), k in H.compose.items())
    assert all(new.omega(g, h) == old.omega(g, h) for g, h in H.compose)
    assert G._compose is None and new._values is None


def pairs(table):
    return [tuple(key.split(",")) for key in table]


@pytest.mark.parametrize("name", NAMES)
def test_parse_matches_the_dict_parse_in_file_order(name):
    data = document(name)
    for doc in (data, shuffled(data, name)):
        new, old = parse_groupoid_data(doc), parse_groupoid_data_dicts(doc)
        arrays_answer_like_dicts(new.omega, old.omega)
        same_groupoid(new.G, old.G)
        same_cocycle(new.omega, old.omega)
        assert (new.name, new.c, new.marked) == (old.name, old.c, old.marked)
        cocycle = doc.get("cocycle", {})
        assert list(new.G.compose) == pairs(doc["compose"])
        nonzero = pairs(k for k, v in cocycle.items() if not Phase.parse(v).is_zero)
        assert list(new.omega.values) == sorted(nonzero, key=lambda pair: tuple(map(new.G.index.get, pair)))
        assert emit_groupoid_data(new.G, new.omega, new.c, new.marked) == data


def edited(name, table, pos, key=None, value=None):
    """The document of ``name`` with entry ``pos`` of ``table`` given a new key or value, in place."""
    data = document(name)
    items = list(data.setdefault(table, {}).items())
    old_key, old_value = items[pos] if items else (None, None)
    items[pos:pos + 1] = [(old_key if key is None else key, old_value if value is None else value)]
    data[table] = dict(items)
    return data


def big_denominators():
    data = document("rotation(8,3)")
    for key, p in zip(list(data["cocycle"])[1:], [1000003, 1000033, 1000037, 1000039, 1000081]):
        data["cocycle"][key] = f"1/{p}"
    return data


MALFORMED = {
    "compose three-part key": lambda: edited("d4", "compose", 3, key="0|0,0|1,1|0"),
    "compose key without comma": lambda: edited("d4", "compose", 3, key="0|0"),
    "compose non-string value": lambda: edited("d4", "compose", 3, value=5),
    "compose unknown left id": lambda: edited("d4", "compose", 3, key="zz,0|0"),
    "compose unknown right id": lambda: edited("d4", "compose", 3, key="0|0,zz"),
    "compose unknown composite": lambda: edited("d4", "compose", 5, value="nope"),
    "compose not composable": lambda: edited("z2xR2", "compose", 0, key="z0:0>1,z0:0>1"),
    "compose swapped composites": lambda: edited("d4", "compose", 6, value="3|1"),
    "cocycle three-part key": lambda: edited("rotation(4,1)", "cocycle", 3, key="0|0,0|1,1|0"),
    "cocycle key without comma": lambda: edited("rotation(4,1)", "cocycle", 3, key="0|0"),
    "cocycle non-string value": lambda: edited("rotation(4,1)", "cocycle", 3, value=5),
    "cocycle unknown id": lambda: edited("rotation(4,1)", "cocycle", 3, key="0|0,zz"),
    "cocycle bad phase string": lambda: edited("rotation(4,1)", "cocycle", 4, value="1/x"),
    "cocycle zero denominator": lambda: edited("rotation(4,1)", "cocycle", 4, value="1/0"),
    "cocycle pair not composable": lambda: {
        **document("z2xR2"), "cocycle": {"z0:0>0,z0:0>0": "0/1", "z0:0>1,z0:0>1": "1/2"}},
    "cocycle denominators past MAX_TABLE_INT": big_denominators,
}


def outcome(parse, data):
    """Where and how the document fails: in the parse, or in its first cocycle check."""
    try:
        gf = parse(data)
    except WeylkitError as exc:
        return "parse", type(exc), str(exc)
    try:
        check_cocycle(gf.G, gf.omega)
    except WeylkitError as exc:
        return "check", type(exc), str(exc)
    return None


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_fail_like_the_dict_parse(case):
    data = MALFORMED[case]()
    new, old = outcome(parse_groupoid_data, data), outcome(parse_groupoid_data_dicts, data)
    assert new is not None and new == old
    # the common denominator is checked where the cocycle is made
    assert new[0] == "parse"


# ---------------------------------------------------------------- semidirect

def a4():
    """Z2 x Z2 x| Z3, the generator cycling the three nonzero elements: the alternating group A4."""
    def beta(k, h):
        for _ in range(k[0]):
            h = (h[1], (h[0] + h[1]) % 2)
        return h

    return SemidirectSpec(name="a4", h_orders=(2, 2), k_orders=(3,), beta=beta)


def z3_by_z2z2():
    """Z3 x| (Z2 x Z2), inverted by the first factor, with a bicharacter of K as cocycle."""
    return SemidirectSpec(
        name="z3:z2z2",
        h_orders=(3,),
        k_orders=(2, 2),
        beta=lambda k, h: ((-h[0]) % 3,) if k[0] else h,
        omega=lambda a, b: HALF if a[1][1] and b[1][0] else Phase(0),
    )


SPECS = {name: (lambda name=name: by_name(name).spec)
         for name in sorted(corpus.BUILDERS) if by_name(name).spec is not None}
SPECS.update({f"rotation({n},{p})": (lambda n=n, p=p: gen_rotation(n, p))
              for n in range(1, 13) for p in range(n)})
SPECS.update({"a4": a4, "z3:z2z2": z3_by_z2z2})


@pytest.mark.parametrize("name", SPECS)
def test_build_semidirect_matches_the_callable_build(name):
    spec = SPECS[name]()
    (G, omega, S, c), (H, old, old_S, old_c) = build_semidirect(spec), build_semidirect_loop(spec)
    arrays_answer_like_dicts(omega, old)
    same_groupoid(G, H)
    same_cocycle(omega, old)
    assert S == old_S and c.group == old_c.group and list(c.values.items()) == list(old_c.values.items())


BAD_ACTIONS = {
    "beta_0 moves": dict(h_orders=(3,), k_orders=(2,), beta=lambda k, h: ((h[0] + 1) % 3,)),
    "not a bijection": dict(h_orders=(3,), k_orders=(2,), beta=lambda k, h: (0,) if k[0] else h),
    "not a homomorphism": dict(h_orders=(3,), k_orders=(2,), beta=lambda k, h: ((h[0] + k[0]) % 3,)),
    "not an action": dict(h_orders=(4,), k_orders=(3,),
                          beta=lambda k, h: ((-h[0]) % 4,) if k[0] == 1 else h),
}


@pytest.mark.parametrize("case", BAD_ACTIONS)
def test_bad_actions_are_refused_like_the_callable_build(case):
    spec = SemidirectSpec(name=case, **BAD_ACTIONS[case])
    with pytest.raises(NotAutomorphism) as new:
        build_semidirect(spec)
    with pytest.raises(NotAutomorphism) as old:
        build_semidirect_loop(spec)
    assert str(new.value) == str(old.value)


# ------------------------------------------------------------------ validate_arrays

def entry_arrays(arrows, items):
    """(gi, hi, ki) of the compose entries ``items``, -1 for an unknown id."""
    index = arrow_index(arrows)
    gi, hi, ki = ([index.get(x, -1) for x in xs] for xs in zip(*((g, h, k) for (g, h), k in items)))
    return np.array(gi), np.array(hi), np.array(ki)


@pytest.mark.parametrize("name", ["d4", "q8", "rotation(4,1)"])
def test_validate_arrays_keeps_the_entry_order(name):
    G = by_name(name).G
    arrows = {g: (G.src[g], G.tgt[g]) for g in G.src}
    items = list(G.compose.items())[::-1]
    for H in (validate_arrays(G.units, arrows, *entry_arrays(arrows, items), items.__getitem__, name=G.name),
              validate_groupoid(G.units, arrows, dict(items), name=G.name)):
        assert H._compose is None
        assert list(H.compose.items()) == items
        assert np.array_equal(H.comp_matrix(), G.comp_matrix()) and H.inverse == G.inverse


@pytest.mark.parametrize("bad", ["unknown id", "not composable", "wrong endpoints"])
def test_validate_arrays_names_a_bad_entry_like_the_dict_entry(bad):
    G = corpus.pair_groupoid(3).G
    arrows = {g: (G.src[g], G.tgt[g]) for g in G.src}
    items = list(G.compose.items())
    j = next(j for j, ((g, h), k) in enumerate(items) if not G.is_unit(g) and not G.is_unit(h))
    (g, h), k = items[j]
    other = next(x for x in G.arrows if G.src[x] != G.tgt[h])    # not composable with h
    stray = next(x for x in G.arrows if G.src[x] != G.src[h])     # not a composite of (., h)
    items[j] = {"unknown id": ((g, h), "zz"),
                "not composable": ((other, h), k),
                "wrong endpoints": ((g, h), stray)}[bad]
    with pytest.raises(WeylkitError) as new:
        validate_arrays(G.units, arrows, *entry_arrays(arrows, items), items.__getitem__)
    with pytest.raises(WeylkitError) as old:
        validate_groupoid(G.units, arrows, dict(items))
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


# ------------------------------------------------------------------ quotient

QUOTIENTS = sorted(corpus.BUILDERS) + ["pair(4)"] + [
    f"rotation({n},{p})" for n in range(1, 9) for p in range(n)
]


def quotient_outcome(quotient, G, orbit):
    try:
        Q, class_map = quotient(G, orbit, name="Q", error=NotNormal)
    except WeylkitError as exc:
        return type(exc), str(exc)
    return Q.arrows, list(Q.compose.items()), list(class_map.items())


@pytest.mark.parametrize("name", QUOTIENTS)
def test_quotient_by_the_bundle_matches_the_loop(name):
    e = by_name(name)
    cosets = e.G.comp_matrix()[:, sorted(e.G.index[a] for a in e.S)]
    new = quotient_outcome(orbit_quotient, e.G, cosets)
    assert new == quotient_outcome(orbit_quotient_loop, e.G, orbits_of_table(e.G, cosets))
    assert len(new) == 3


def test_cosets_of_non_normal_subgroups_fail_like_the_loop():
    """Left and right cosets of each cyclic subgroup, also in groups parsed with shuffled compose keys."""
    groups = [by_name(name).G for name in ("s3", "d4", "q8", "pauli")]
    groups += [parse_groupoid_data(shuffled(document(name), seed)).G
               for name in ("s3", "d4") for seed in range(4)]
    failed = 0
    for G in groups:
        for a in G.arrows:
            powers = [G.index[mul_all(G, *[a] * n)] for n in range(1, element_order(G, a) + 1)]
            for cosets in (G.comp_matrix()[:, powers], G.comp_matrix()[powers].T):
                new = quotient_outcome(orbit_quotient, G, cosets)
                assert new == quotient_outcome(orbit_quotient_loop, G, orbits_of_table(G, cosets))
                failed += "depends on representatives" in str(new[-1])
    assert failed >= 15, failed


def non_partitions(G, cosets):
    """Mutants of the coset table that are no partition, each in the row of a class's least member.

    A row missing its own arrow, a row with a member repeated in place of
    another, a row with an extra member from another class, and a row with
    a member swapped for one from another class.  The loop checks the first
    row of each class, so these are the rows it sees.
    """
    table = np.hstack([cosets, np.full((len(cosets), 1), -1, dtype=cosets.dtype)])
    for a in np.unique(np.where(cosets >= 0, cosets, len(G.arrows)).min(axis=1)).tolist():
        row = table[a]
        members = row[row >= 0]
        if len(members) < 2:
            continue
        other = max(x for x in range(len(G.arrows)) if x not in members)
        for label, old, value in (("missing", a, -1), ("repeated", members.max(), a), ("extra", -1, other),
                                  ("swapped", members.max(), other)):
            out = table.copy()
            out[a, np.argmax(row == old)] = value
            yield label, out


@pytest.mark.parametrize("name", ["z2xR2", "q8", "d4", "pauli", "rotation(4,1)", "rotation(6,0)"])
def test_non_partitions_fail_like_the_loop(name):
    e = by_name(name)
    cosets = e.G.comp_matrix()[:, sorted(e.G.index[a] for a in e.S)]
    assert len(quotient_outcome(orbit_quotient, e.G, cosets)) == 3
    seen = set()
    for label, table in non_partitions(e.G, cosets):
        new = quotient_outcome(orbit_quotient, e.G, table)
        assert new == quotient_outcome(orbit_quotient_loop, e.G, orbits_of_table(e.G, table)), label
        assert new == (NotNormal, "orbits do not partition the arrow set"), label
        seen.add(label)
    assert seen == {"missing", "repeated", "extra", "swapped"}


def test_no_mul_call_comes_from_the_quotients_or_theta(monkeypatch):
    """FiniteGroupoid.mul calls by caller over a round trip and its hypotheses check."""
    callers, stacks = Counter(), set()
    mul = FiniteGroupoid.mul

    def counted(self, g, h):
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("mul_all", "conjugate") or frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        while frame is not None:
            stacks.add(frame.f_code.co_name)
            frame = frame.f_back
        return mul(self, g, h)

    monkeypatch.setattr(FiniteGroupoid, "mul", counted)
    for e in (corpus.rotation(8, 0), corpus.pair_groupoid(6)):
        rec = reconstruction_iso(e.G, e.S, e.c)
        c_tilde = induced_grading_on_H(rec.dia.pkg, e.c)
        assert verify_reconstruction_hypotheses(rec.dia, rec.theta, c_tilde).all_pass()
    # the counter sees a call through mul_all, made here
    mul_all(e.G, *e.G.arrows[:2])
    assert callers["test_no_mul_call_comes_from_the_quotients_or_theta"] == 1, callers
    # neither the class gathers nor the Weyl product call mul, themselves or through mul_all
    assert not callers.keys() & {"weyl_action", "derive_weyl_actions", "diamond_action", "gw_mul"}, callers
    banned = {"orbit_quotient", "quotient_by_bundle", "quotient_HT", "theta_for_package", "section_defects",
              "check_immediately_centralizing", "check_imm_centralizing_action"}
    assert not stacks & banned, (stacks & banned, callers)


# -------------------------------------------------------------- dict builds

def test_certify_ops_build_neither_dict_of_the_parsed_groupoid(monkeypatch):
    """The certify op bodies on the 256-arrow document (and the 144-arrow pass)."""
    built = []      # each read of a dict view
    for cls, view in ((FiniteGroupoid, "compose"), (TwoCocycle, "values")):
        orig = getattr(cls, view).fget
        monkeypatch.setattr(cls, view, property(lambda self, orig=orig: built.append(self) or orig(self)))
    rng = random.Random(7)
    e12, e16 = corpus.rotation(12, 5), corpus.rotation(16, 3)
    docs = {n: json.dumps(emit_groupoid_data(e.G, e.omega, e.c, e.S)) for n, e in ((12, e12), (16, e16))}
    G = e16.G
    non_units = [g for g in G.arrows if g not in G.units]
    shifted = json.loads(docs[16])
    g, h = rng.choice(non_units), rng.choice(non_units)
    shifted["cocycle"][f"{g},{h}"] = str(Phase.parse(shifted["cocycle"].get(f"{g},{h}", "0")) + HALF)
    swapped = json.loads(docs[16])
    g, (h1, h2) = non_units[0], rng.sample(non_units[1:], 2)
    row = swapped["compose"]
    row[f"{g},{h1}"], row[f"{g},{h2}"] = row[f"{g},{h2}"], row[f"{g},{h1}"]
    small = json.loads(docs[16])
    small["marked_subgroupoid"] = sorted({G.mul(a, a) for a in e16.S})
    parsed = []

    def parse(data):
        gf = parse_groupoid_data(json.loads(data) if isinstance(data, str) else data)
        parsed.append(gf)
        return gf

    for n, spec in ((12, e12.spec), (16, None)):                  # pass
        gf = parse(docs[n])
        assert check_cocycle(gf.G, gf.omega) == []
        assert check_gamma_cartan_hypotheses(gf.G, gf.omega, gf.c, gf.marked).all_pass()
        GW, data = build_weyl_groupoid(gf.G, gf.marked, gf.omega)
        assert check_cocycle(GW, weyl_twist_cocycle(GW, data)) == []
        assert spec is None or verify_untwisting(spec).all_pass()
    gf = parse(shifted)                                           # cocycle-shift
    witnesses = check_cocycle(gf.G, gf.omega)
    assert witnesses and is_cocycle_violation(gf.G, gf.omega, witnesses[0])
    before = len(built)
    with pytest.raises(GroupoidError):                            # compose-swap
        parse(swapped)
    assert len(built) == before
    gf = parse(small)                                             # index2-marked
    hyp = check_gamma_cartan_hypotheses(gf.G, gf.omega, gf.c, gf.marked)
    assert not hyp.maximal and "maximal" in hyp.witnesses

    assert len(parsed) == 4
    assert not [x for x in built if any(x is gf.G or x is gf.omega for gf in parsed)]
    assert all(gf.G._compose is None and gf.omega._values is None for gf in parsed)

    G = parsed[1].G                                               # mul answers from the array
    comp, n = G.comp_matrix(), len(G.arrows)
    assert n == 256
    gi, hi = (comp >= 0).nonzero()
    assert [G.mul(G.arrows[g], G.arrows[h]) for g, h in zip(gi, hi)] == [G.arrows[k] for k in comp[gi, hi]]
    assert G._compose is None
    assert python_refs(G) < n * n, "an n^2 table of ids was built"


def python_refs(obj):
    """Entries in the Python containers an object holds, one level of nesting deep."""
    def size(x):
        return len(x) if isinstance(x, (dict, list, tuple, set, frozenset)) else 0

    total = 0
    for v in vars(obj).values():
        total += size(v)
        if isinstance(v, (dict, list, tuple)):
            total += sum(map(size, v.values() if isinstance(v, dict) else v))
    return total
