"""Actions on a dual bundle, theta's checks and the twisted product on row tables, against loop oracles.

``verify_groupoid_action``, ``verify_theta`` and ``build_boxtimes`` read
one row table per action as gathers; the oracles in ``oracles.py`` take
the action as a dict of ``Character`` values, loop over every triple, and
build the twisted product through ``build_groupoid``.  Both must give the
same witness, verdicts, violations and groupoid, on healthy inputs and
under one-entry mutations of theta and of the action tables.  theta read
off the section-defect table and H/T from the orbit table ``right`` are
compared in the same way with their per-pair and per-arrow loops.
"""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit import corpus
from weylkit.dual import Character
from weylkit.errors import WeylkitError
from weylkit.phases import Phase
from weylkit.reconstruct import (
    ThetaDatum,
    build_boxtimes,
    derive_weyl_actions,
    diamond_action,
    quotient_HT,
    reconstruction_iso,
    theta_for_package,
    trivial_theta,
    verify_action_package,
    verify_theta,
)
from weylkit.weyl import action_ids, verify_groupoid_action

from oracles import (
    build_boxtimes_loop,
    class_table,
    quotient_HT_loop,
    theta_for_package_loop,
    verify_groupoid_action_loop,
    verify_theta_loop,
)

TRIVIAL = (
    [name for name in corpus.BUILDERS if corpus.by_name(name).omega.is_trivial()]
    + [f"pair({n})" for n in range(3, 9)]
    + [f"rotation({n},0)" for n in range(1, 9)]
    + ["rotation(12,0)"]
)
AFFINE = ["pauli"] + [f"rotation({n},1)" for n in range(2, 9)]


def entry(name):
    return corpus.pair_groupoid(int(name[5:-1])) if name.startswith("pair(") else corpus.by_name(name)


def outcome(f):
    """What ``f()`` returns, or the type and text of the weylkit error it raises."""
    try:
        return f()
    except WeylkitError as exc:
        return type(exc).__name__, str(exc)


def changed(image, c, r, size):
    """A writable copy of ``image`` with entry [c, r] moved to the next of ``size`` rows."""
    out = image.copy()
    out[c, r] = (out[c, r] + 1) % size
    return out


def action_mutants(Q, dual, image, unit_of_base):
    """The table and its one-entry mutations: a non-unit arrow's entry and a unit's row, where a fibre allows."""
    yield "healthy", image
    size = {unit_of_base[x]: len(t.ids) for x, t in dual.tables.items()}
    units = [Q.index[u] for u in Q.units]
    for name, pick in (("act entry", lambda c: c not in units), ("unit row", lambda c: c in units)):
        c = next((c for c in range(len(Q.arrows)) if pick(c) and size[Q.tgt[Q.arrows[c]]] > 1), None)
        if c is not None:
            yield name, changed(image, c, size[Q.src[Q.arrows[c]]] - 1, size[Q.tgt[Q.arrows[c]]])


def action_outcomes(Q, dual, image, unit_of_base):
    """The new check's and the oracle's outcome on ``image``, with the oracle fed Character values."""
    chars = {key: dual.by_id[i] for key, i in action_ids(Q, dual, image, unit_of_base).items()}
    base_of_unit = {u: x for x, u in unit_of_base.items() if x in dual.tables}
    return (outcome(lambda: verify_groupoid_action(Q, dual, image, unit_of_base)),
            outcome(lambda: verify_groupoid_action_loop(Q, dual, chars, base_of_unit)))


def theta_mutants(dia, theta):
    """theta and its mutations: another character of its fibre, one of another fibre, a stray one, a pair dropped."""
    yield "healthy", theta
    That, values = dia.That, theta.values
    for label, pair in (("first", next(iter(values))), ("last", list(values)[-1])):
        x = values[pair].unit
        fibre = That.fibres[x]
        if len(fibre) > 1:
            other = fibre[(fibre.index(values[pair]) + 1) % len(fibre)]
            yield f"other character ({label})", ThetaDatum({**values, pair: other})
        for y in That.base:
            if y != x:
                yield f"other fibre ({label})", ThetaDatum({**values, pair: That.fibres[y][-1]})
                break
        stray = Character.from_table(x, {t: Phase(1, 5) for t in That.tables[x].elements})
        yield f"stray ({label})", ThetaDatum({**values, pair: stray})
        yield f"missing ({label})", ThetaDatum({k: v for k, v in values.items() if k != pair})


def diamond_mutants(dia):
    """The diamond data and copies with one changed entry of its action table."""
    yield "healthy", dia
    for name, image in list(action_mutants(dia.HT, dia.That, dia.image, dia.x_unit))[1:]:
        yield name, dataclasses.replace(dia, image=image, boxtimes=None)


def theta_verdicts(report):
    return report.unit_triviality, report.cocycle_identity, report.coverage, report.violations, report.instances


def groupoid_tables(B):
    """What pins a twisted product: its arrows, endpoints, compose array and order, and inverse."""
    if not hasattr(B, "comp_matrix"):
        return B
    return (B.arrows, B.units, B.src, B.tgt, B.comp_matrix().tolist(), list(B.compose.items()), B.inverse)


def theta_agreement(dia, theta):
    """Whether the gathered and loop forms agree on ``dia`` and ``theta``: (verdicts, product), and the new report."""
    report = verify_theta(dia, theta)
    fresh = dataclasses.replace(dia, boxtimes=None)
    agree = (
        theta_verdicts(report) == theta_verdicts(verify_theta_loop(dia, theta)),
        outcome(lambda: groupoid_tables(build_boxtimes(fresh, theta)))
        == outcome(lambda: groupoid_tables(build_boxtimes_loop(dia, theta))),
    )
    return agree, report


def pipeline(name):
    e = entry(name)
    pkg = derive_weyl_actions(e.G, e.S, e.omega)
    return pkg, diamond_action(pkg) if e.omega.is_trivial() else None


@pytest.mark.parametrize("name", TRIVIAL + AFFINE)
def test_action_law_matches_the_loop_oracle(name):
    pkg, dia = pipeline(name)
    data = pkg.weyl
    tables = [(data.Q, data.dual, data.image, data.class_map)]
    if dia is not None:
        tables.append((dia.HT, dia.That, dia.image, dia.x_unit))
    for Q, dual, image, base in tables:
        for mutation, table in action_mutants(Q, dual, image, base):
            new, old = action_outcomes(Q, dual, table, base)
            assert new == old, (mutation, new, old)
            assert (new is None) == (mutation == "healthy"), mutation


@pytest.mark.parametrize("name", TRIVIAL)
def test_theta_and_boxtimes_match_the_loop_oracles(name):
    pkg, dia = pipeline(name)
    theta = theta_for_package(pkg, dia)
    seen = set()
    for state, d in diamond_mutants(dia):
        for mutation, th in list(theta_mutants(d, theta)) + [("trivial", trivial_theta(d))]:
            agree, report = theta_agreement(d, th)
            assert agree == (True, True), (state, mutation, agree)
            seen.add((state, mutation, report.all_pass()))
    assert ("healthy", "healthy", True) in seen
    assert not any(ok for state, mutation, ok in seen if mutation.startswith(("stray", "missing", "other fibre")))


def valid_sections(data, seed):
    """The least-id section, then two seeded ones: units on unit classes, random members elsewhere."""
    yield None
    rng = random.Random(seed)
    units = {data.class_map[u]: u for u in data.G.units}
    for _ in range(2):
        yield {cid: units.get(cid) or rng.choice(sorted(members)) for cid, members in sorted(class_table(data.class_map).items())}


@pytest.mark.parametrize("name", TRIVIAL)
def test_theta_for_package_matches_the_loop(name):
    pkg, dia = pipeline(name)
    for section in valid_sections(pkg.weyl, name):
        new, old = theta_for_package(pkg, dia, section), theta_for_package_loop(pkg, dia, section)
        assert list(new.values.items()) == list(old.values.items())


def package_mutants(pkg):
    """The package and copies with one entry of ``right`` or ``left`` changed.

    On the fibre an entry moves to the next arrow or to -1; off it, a -1
    becomes a member of the orbit already there, which leaves the orbit's set alone.
    """
    yield "healthy", pkg
    n = len(pkg.H.arrows)
    for side in ("right", "left"):
        table = getattr(pkg, side)
        orbits = table if side == "right" else table.T
        on, off = np.argwhere(orbits >= 0), np.argwhere(orbits < 0)
        changes = [("next arrow", on[-1], (orbits[tuple(on[-1])] + 1) % n), ("dropped", on[0], -1)]
        if len(off):
            changes.append(("repeated member", off[0], orbits[off[0][0]].max()))
        for label, (i, j), value in changes:
            out = table.copy()
            out[(i, j) if side == "right" else (j, i)] = value
            yield f"{side} {label}", dataclasses.replace(pkg, **{side: out})


def quotient_outcome(quotient, pkg, report):
    try:
        Q, class_map = quotient(pkg, report)
    except WeylkitError as exc:
        return type(exc).__name__, str(exc)
    return Q.arrows, list(Q.compose.items()), list(class_map.items())


@pytest.mark.parametrize("name", TRIVIAL)
def test_quotient_HT_matches_the_loop(name):
    pkg, _ = pipeline(name)
    report = verify_action_package(pkg)
    seen = set()
    for mutation, p in package_mutants(pkg):
        # the healthy package's passing report, so that the orbit comparison is reached
        new = quotient_outcome(quotient_HT, p, report)
        assert new == quotient_outcome(quotient_HT_loop, p, report), mutation
        seen.add((mutation.split()[-1], len(new) == 3))
    assert {("healthy", True), ("dropped", False)} <= seen and ("member", False) not in seen
    assert ("arrow", False) in seen or len(pkg.H.arrows) == 1


def test_boxtimes_keeps_the_order_of_arrows_as_built_past_ten_characters():
    # a fibre of 12 characters: "x#10" sorts before "x#2", so index order is not build order
    pkg, dia = pipeline("rotation(12,0)")
    theta = theta_for_package(pkg, dia)
    B = build_boxtimes(dia, theta)
    ids = dia.That.tables[dia.That.base[0]].ids
    built = [(c, i) for c in dia.HT.arrows for i in ids]
    assert list(B.arrows) != built
    assert list(dict.fromkeys(g for g, _ in B.compose)) == built
    assert groupoid_tables(B) == groupoid_tables(build_boxtimes_loop(dia, theta))


def test_instance_counts_on_theta():
    pkg, dia = pipeline("d4")
    theta = theta_for_package(pkg, dia)
    HT = dia.HT
    triples = sum(HT.src[c2] == HT.tgt[c3] for c1, c2 in HT.compose for c3 in HT.arrows)
    report = verify_theta(dia, theta)
    assert report.all_pass()
    assert report.instances == {"unit_triviality": 2 * len(HT.arrows), "cocycle_identity": triples}

    pair = next(iter(theta.values))
    report = verify_theta(dia, ThetaDatum({k: v for k, v in theta.values.items() if k != pair}))
    assert not report.coverage
    assert report.instances["unit_triviality"] == 2 * len(HT.arrows)
    assert 0 < report.instances["cocycle_identity"] < triples


def test_theta_rows_are_the_table_build_boxtimes_reads():
    pkg, dia = pipeline("q8")
    theta = theta_for_package(pkg, dia)
    rows = verify_theta(dia, theta).rows
    assert isinstance(rows, np.ndarray) and not rows.flags.writeable
    for (c1, c2), chi in theta.values.items():
        x, r = dia.That.position[dia.That.char_id[chi]]
        assert rows[dia.HT.index[c1], dia.HT.index[c2]] == r
    assert (rows >= 0).sum() == len(theta.values)


def test_rotation_32_round_trip():
    # 1,024 arrows, one fibre of 32 characters, H/T of 32 classes
    e = corpus.rotation(32, 0)
    report = reconstruction_iso(e.G, e.S, e.c)
    assert report.sizes == (1024, 1024)


O_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_theta_arrays import action_outcomes, diamond_mutants, pipeline, theta_agreement, theta_mutants
from weylkit.reconstruct import theta_for_package
for name in ("z2xR2", "pair(3)", "rotation(12,0)"):
    pkg, dia = pipeline(name)
    theta = theta_for_package(pkg, dia)
    for state, d in diamond_mutants(dia):
        new, old = action_outcomes(d.HT, d.That, d.image, d.x_unit)
        print(name, state.replace(" ", "-"), "action", new == old, new is None)
        for mutation, th in theta_mutants(d, theta):
            agree, report = theta_agreement(d, th)
            print(name, state.replace(" ", "-"), mutation.replace(" ", "-"), agree == (True, True), report.all_pass())
"""


def test_theta_and_boxtimes_match_the_loop_oracles_under_python_O():
    # the checks raise typed errors or return verdicts, so they still run under python -O
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = O_SCRIPT.format(tests=str(Path(__file__).parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert len(out) >= 30 and all(line.split()[3] == "True" for line in out), out
    healthy = [row[4] for row in map(str.split, out) if row[1] == "healthy" and row[2] in ("action", "healthy")]
    assert healthy == ["True"] * 6, out
