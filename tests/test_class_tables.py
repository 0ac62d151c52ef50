"""The class loops of the Weyl action, the action package and the diamond action as gathers, and theta as its row table.

``weyl_action``, ``derive_weyl_actions`` and ``diamond_action`` gather
over all classes of a quotient at once, in blocks of equal fibre size;
their loop oracles in ``oracles.py`` take one class at a time.
``theta_for_package`` and ``trivial_theta`` return theta as its row table
and spell ``values`` on first read; their oracles build the dict pair by
pair.  Both must give the same images, package tables, theta rows and
values (order included), and the same errors with the same witnesses, on
healthy inputs and on mutations that fail each check at a class other
than the first.  The mutations run once more under ``python -O``, and so do
the two immediately-centralizing checks on d4.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit import corpus, reconstruct
from weylkit.cocycle import TwoCocycle
from weylkit.errors import WeylkitError
from weylkit.groupoid import Grading, isotropy_fibres, quotient_by_bundle, validate_groupoid
from weylkit.phases import ZERO, Phase
from weylkit.reconstruct import (
    ActionPackageReport,
    ThetaDatum,
    _padded,
    derive_weyl_actions,
    diamond_action,
    theta_for_package,
    trivial_theta,
    verify_action_package,
    verify_theta,
)
from weylkit.dual import bundle_from_subgroupoid
from weylkit.weyl import weyl_action

import oracles
from oracles import (
    bundle_package,
    class_table,
    composable,
    derive_weyl_actions_loop,
    diamond_action_loop,
    grading_checks_loop,
    iso_grading_loop,
    p_s,
    theta_for_package_loop,
    trivial_theta_loop,
    weyl_action_loop,
)

INPUTS = list(corpus.BUILDERS) + [f"pair({n})" for n in range(2, 9)] + [f"rotation({n},0)" for n in range(1, 13)]


def entry(name):
    return corpus.pair_groupoid(int(name[5:-1])) if name.startswith("pair(") else corpus.by_name(name)


def outcome(f):
    """What ``f()`` returns, or the type and witness of the weylkit error it raises."""
    try:
        return f()
    except WeylkitError as exc:
        return type(exc).__name__, getattr(exc, "witness", str(exc))


def action(result):
    Q, class_map, dual, image = result
    return Q.arrows, dict(class_map), image.tolist()


def tables(pkg):
    return [a.tolist() for a in (pkg.left, pkg.right, pkg.lam, pkg.rho)]


def diamond(dia):
    return dia.HT.arrows, dict(dia.class_map), class_table(dia.class_map), dia.x_unit, dia.q_class, dia.image.tolist()


@pytest.mark.parametrize("name", INPUTS)
def test_class_index_of_the_quotients(name):
    e = entry(name)
    Q, class_map = quotient_by_bundle(e.G, e.S)
    HT, ht_map = reconstruct.quotient_HT(derive_weyl_actions(e.G, e.S))
    for G, q, cm in ((e.G, Q, class_map), (derive_weyl_actions(e.G, e.S).H, HT, ht_map)):
        assert [q.arrows[c] for c in cm.of.tolist()] == [cm[g] for g in G.arrows]
        members = [[G.arrows[m] for m in row if m >= 0] for row in cm.members.tolist()]
        assert members == [sorted(g for g in G.arrows if cm[g] == cid) for cid in q.arrows]


@pytest.mark.parametrize("name", INPUTS)
def test_weyl_action_and_package_match_the_class_loops(name):
    e = entry(name)
    assert outcome(lambda: action(weyl_action(e.G, e.S, e.omega))) == outcome(
        lambda: action(weyl_action_loop(e.G, e.S, e.omega)))
    for omega in (None, e.omega):
        assert outcome(lambda: tables(derive_weyl_actions(e.G, e.S, omega))) == outcome(
            lambda: tables(derive_weyl_actions_loop(e.G, e.S, omega)))


@pytest.mark.parametrize("name", INPUTS + ["bundle(z2xR2)"])
def test_diamond_action_matches_the_class_loops(name):
    if name == "bundle(z2xR2)":
        e = corpus.by_name("z2xR2")
        pkg = bundle_package(bundle_from_subgroupoid(e.G, e.S))
    else:
        e = entry(name)
        pkg = derive_weyl_actions(e.G, e.S)
    assert diamond(diamond_action(pkg)) == diamond(diamond_action_loop(pkg))


UNIONS = [("rotation(2,0)", "rotation(3,0)"), ("d4", "pair(3)"), ("rotation(4,0)", "z2xR2")]


def disjoint_union(names):
    """The disjoint union of corpus entries, ids tagged by position, and the union of their marked bundles."""
    units, arrows, compose, S = [], {}, {}, set()
    for tag, e in enumerate(map(entry, names)):
        def ren(g):
            return f"{tag}:{g}"
        units += map(ren, e.G.units)
        arrows.update({ren(g): (ren(e.G.src[g]), ren(e.G.tgt[g])) for g in e.G.arrows})
        compose.update({(ren(g), ren(h)): ren(k) for (g, h), k in e.G.compose.items()})
        S |= set(map(ren, e.S))
    return validate_groupoid(units, arrows, compose, name="+".join(names)), frozenset(S)


@pytest.mark.parametrize("names", UNIONS)
def test_fibres_of_different_sizes_match_the_class_loops(names):
    G, S = disjoint_union(names)
    assert len({len(f) for f in isotropy_fibres(G, S).values()}) > 1
    omega = TwoCocycle(G, {})
    assert action(weyl_action(G, S, omega)) == action(weyl_action_loop(G, S, omega))
    assert tables(derive_weyl_actions(G, S)) == tables(derive_weyl_actions_loop(G, S))
    pkg = derive_weyl_actions(G, S)
    dia = diamond_action(pkg)
    assert diamond(dia) == diamond(diamond_action_loop(pkg))
    theta = theta_for_package(pkg, dia)
    assert list(theta_for_package(pkg, dia).values.items()) == list(theta_for_package_loop(pkg, dia).values.items())
    assert verify_theta(dia, theta).all_pass() and reconstruct.reconstruction_iso(G, S).sizes == (len(G), len(G))
    # errors in either size: the first class, in index order, as the loop finds it
    classes = set()
    for (g, h) in G.compose:
        omega = TwoCocycle(G, {(g, h): Phase(1, 2)})
        new = outcome(lambda: action(weyl_action(G, S, omega)))
        assert new == outcome(lambda: action(weyl_action_loop(G, S, omega))), (g, h)
        if new[0] == "RepresentativeDisagreement":
            classes.add(new[1][0])
    assert len(classes) > 1


@pytest.mark.parametrize("name", INPUTS)
def test_theta_rows_and_values_match_the_dict_path(name):
    e = entry(name)
    pkg = derive_weyl_actions(e.G, e.S)
    dia = diamond_action(pkg)
    for new, old in ((theta_for_package(pkg, dia), theta_for_package_loop(pkg, dia)),
                     (trivial_theta(dia), trivial_theta_loop(dia))):
        rows = verify_theta(dia, new)
        assert new._values is None and new._table[1] is rows.rows and not rows.rows.flags.writeable
        as_dict = verify_theta(dia, ThetaDatum(dict(old.values)))
        assert np.array_equal(rows.rows, as_dict.rows)
        assert (rows.all_pass(), rows.violations, rows.instances) == (True, [], as_dict.instances)
        assert as_dict.all_pass() and not as_dict.violations
        assert list(new.values.items()) == list(old.values.items())
        # the rows stay the datum once values is read
        assert verify_theta(dia, new).rows is new._table[1] is rows.rows and new == old


def test_the_boxtimes_cache_compares_row_tables():
    e = corpus.by_name("z2xR2")
    pkg = derive_weyl_actions(e.G, e.S)
    dia = diamond_action(pkg)
    theta = theta_for_package(pkg, dia)
    B = reconstruct.build_boxtimes(dia, theta)
    assert reconstruct.build_boxtimes(dia, theta) is B
    assert reconstruct.build_boxtimes(dia, theta_for_package(pkg, dia)) is B
    assert reconstruct.build_boxtimes(dia, ThetaDatum(dict(theta.values))) is B
    # a pair more than the composable ones: the rows are the same, the datum is not
    extra = next((c, c) for c in dia.HT.arrows if not composable(dia.HT, c, c))
    with pytest.raises(weylkit.errors.ThetaInvalid):
        reconstruct.build_boxtimes(dia, ThetaDatum({**theta.values, extra: next(iter(theta.values.values()))}))
    # theta is trivial here, so the trivial datum has the same rows
    assert all(v.is_trivial for v in theta.values.values())
    assert reconstruct.build_boxtimes(dia, trivial_theta(dia)) is B


def test_padded_keeps_dtype_and_values():
    for a in (np.arange(6, dtype=np.int32).reshape(2, 3), np.arange(4), np.zeros((2, 2, 2), dtype=np.int64)):
        new, old = _padded(a), np.pad(a, [(0, 1)] * a.ndim, constant_values=-1)
        assert new.dtype == old.dtype and np.array_equal(new, old)


def test_a_zero_phase_written_into_values_is_trivial():
    e = corpus.by_name("d4")
    omega = TwoCocycle(e.G, {})
    u = e.G.units[0]
    omega.values[(u, u)] = ZERO
    assert omega.is_trivial() and dict(omega.values) == {}
    pkg = derive_weyl_actions(e.G, e.S, omega)
    dia = diamond_action(pkg)
    assert verify_theta(dia, theta_for_package(pkg, dia)).all_pass()
    omega.values[(u, u)] = Phase(1, 2)
    assert not omega.is_trivial()


@pytest.mark.parametrize("name", ["rotation(4,0)", "rotation(6,0)", "d4", "q8"])
def test_grading_checks_match_the_class_loops(name):
    e = entry(name)
    rep = reconstruct.reconstruction_iso(e.G, e.S)
    dia, H = rep.dia, rep.dia.pkg.H
    c_tilde = reconstruct.induced_grading_on_H(dia.pkg, e.c)
    assert c_tilde.values == {a: e.c.value(min(class_table(dia.pkg.weyl.class_map)[a[0]])) for a in H.arrows}
    # one arrow at a time, other than a class id, moved off its class's grade, or to zero
    seen = set()
    for g in (g for g in H.arrows if g not in dia.HT.index):
        for value in ((1,) * len(e.c.group), (0,) * len(e.c.group)):
            c = Grading(e.c.group, {**c_tilde.values, g: value})
            hyp = reconstruct.verify_reconstruction_hypotheses(dia, rep.theta, c)
            descends, effective, wit = grading_checks_loop(dia, c)
            assert (hyp.grading_descends, hyp.kernel_effective) == (descends, effective)
            assert {k: v for k, v in hyp.witnesses.items() if k in wit} == wit
            seen.update(wit)
    assert seen == {"grading_descends", "kernel_effective"}
    for g in e.G.arrows:
        c = Grading(e.c.group, {**e.c.values, g: (1,) * len(e.c.group)})
        expected = iso_grading_loop(rep, c)
        assert outcome(lambda: reconstruct.reconstruction_iso(e.G, e.S, c).grading_checked) == (
            True if expected is None else ("IsoCheckFailed", ("grading", expected)))


# ------------------------------------------------------------ mutations


def shifted(e, g, h):
    """e's cocycle with 1/2 added at (g, h)."""
    values = dict(e.omega.values)
    values[(g, h)] = e.omega.omega(g, h) + Phase(1, 2)
    return TwoCocycle(e.G, values)


def coboundary(e, g, q):
    """The coboundary of f = q at g, 0 elsewhere."""
    f = {a: q if a == g else ZERO for a in e.G.arrows}
    return TwoCocycle(e.G, {pair: f[pair[0]] + f[pair[1]] - f[k] for pair, k in e.G.compose.items()})


def passing(pkg):
    """A report that lets a mutated package through to the quotient."""
    names = verify_action_package(pkg).clauses
    return ActionPackageReport(dict.fromkeys(names, True))


def with_rho(pkg, columns, rows):
    """A copy of the package with ``rho[:, c]`` set to ``rows`` for each arrow index c of ``columns``."""
    rho = pkg.rho.copy()
    rho[:, columns] = np.asarray(rows)[:, None]
    return dataclasses.replace(pkg, rho=rho)


def non_unit_class(pkg, index=1):
    """The class index ``index`` of H/T, its member indices, and the T indices over its source."""
    HT, class_map = reconstruct.quotient_HT(pkg)
    members = class_map.members[index]
    members = members[members >= 0]
    s = p_s(pkg, HT.arrows[index])
    over = [i for i, t in enumerate(pkg.t_elements()) if pkg.T.p[t] == s]
    return HT.arrows[index], members, over


def descent_mutant():
    """rotation(4,0) with rho changed on one member of the second class of H/T."""
    e = corpus.by_name("rotation(4,0)")
    pkg = derive_weyl_actions(e.G, e.S)
    _, members, _ = non_unit_class(pkg)
    rho = pkg.rho[:, members[-1]].copy()
    rho[rho >= 0] = np.roll(rho[rho >= 0], 1)
    return with_rho(pkg, members[-1:], rho)


def outside_mutant():
    """rotation(4,0) with rho on the second class of H/T the constant map to a non-identity element."""
    e = corpus.by_name("rotation(4,0)")
    pkg = derive_weyl_actions(e.G, e.S)
    _, members, over = non_unit_class(pkg)
    rows = np.where(pkg.rho[:, members[0]] >= 0, over[1], -1)
    return with_rho(pkg, members, rows)


def broken_product(bundle, x):
    """``bundle`` with the product of the last character by itself, at base point x, moved by one row."""
    t = bundle.tables[x]
    product = t.product.copy()
    product[-1, -1] = (product[-1, -1] + 1) % len(t.ids)
    t.product = product
    return bundle


def diamond_outcomes(pkg, report, patch=None, monkeypatch=None):
    """The gathered and the loop diamond action's outcome, each through ``patch`` of ``dual_bundle`` if given."""
    result = []
    for module, run in ((reconstruct, reconstruct.diamond_action), (oracles, diamond_action_loop)):
        if patch is not None:
            real = module.dual_bundle
            monkeypatch.setattr(module, "dual_bundle", lambda T, real=real: patch(real(T)))
        result.append(outcome(lambda: diamond(run(pkg, report))))
    return result


def mutation_outcomes():
    """(name, gathered outcome, loop outcome) for each mutation, the class of its witness not the first."""
    out = []
    r = corpus.by_name("rotation(4,0)")
    z = corpus.by_name("z2xR2")
    for name, e, omega in (("disagreement rotation(4,0)", r, shifted(r, "0|1", "0|0")),
                           ("disagreement z2xR2", z, shifted(z, "z0:0>1", "z0:1>0")),
                           ("outside d4", corpus.by_name("d4"), coboundary(corpus.by_name("d4"), "1|0", Phase(1, 4)))):
        out.append((f"weyl {name}", outcome(lambda: action(weyl_action(e.G, e.S, omega))),
                    outcome(lambda: action(weyl_action_loop(e.G, e.S, omega)))))
    for name, pkg in (("descent", descent_mutant()), ("outside", outside_mutant())):
        out.append((f"diamond {name}", *diamond_outcomes(pkg, passing(pkg))))
    return out


def test_mutations_fail_at_a_later_class_as_the_loops_do():
    seen = {}
    for name, new, old in mutation_outcomes():
        assert new == old, (name, new, old)
        seen[name] = new
    assert seen == {
        "weyl disagreement rotation(4,0)": ("RepresentativeDisagreement", ("0|3", "0|0#0")),
        "weyl disagreement z2xR2": ("RepresentativeDisagreement", ("z0:0>1", "z0:1>1#0")),
        "weyl outside d4": ("NotAnAction", ("image outside the dual", "0|1", "0|0#0")),
        "diamond descent": ("DescentFailure", (("0|1", "0|0#0"), ("0|1", "0|0#1"))),
        # the trivial character goes to the trivial one, so the first to fail is the next
        "diamond outside": ("NotAnAction", ("image outside the dual", ("0|1", "0|0#0"), "0|0#1")),
    }


def test_only_the_loop_reads_a_forged_dual_product(monkeypatch):
    # each image is the pointwise pullback chi o rho and characters multiply
    # pointwise, so the gathered action maps characters multiplicatively once
    # every image lies in the dual; only a product table forged after the dual
    # was built breaks that, and only the loop reference reads the product
    d4 = corpus.by_name("d4")
    pkg = derive_weyl_actions(d4.G, d4.S)
    healthy = outcome(lambda: diamond(reconstruct.diamond_action(pkg)))
    new, old = diamond_outcomes(pkg, None, lambda b: broken_product(b, d4.G.units[0]), monkeypatch)
    assert new == healthy
    # the reflection class inverts the characters of Z4: the changed entry is read at (1, 1)
    assert old == ("NotAnAction", ("multiplicativity", ("0|1", "0|0#0"), "0|0#1", "0|0#1"))


@pytest.mark.parametrize("name", ["rotation(4,0)", "z2xR2", "d4"])
def test_every_shifted_cocycle_fails_as_the_loop_does(name):
    e = corpus.by_name(name)
    classes = set()
    for (g, h) in e.G.compose:
        omega = shifted(e, g, h)
        new = outcome(lambda: action(weyl_action(e.G, e.S, omega)))
        assert new == outcome(lambda: action(weyl_action_loop(e.G, e.S, omega))), (g, h)
        if new[0] == "RepresentativeDisagreement":
            classes.add(new[1][0])
    assert len(classes) > 1


def test_mutations_under_python_O():
    tests = Path(__file__).parent
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")]))}
    script = ("import test_class_tables as t\n"
              "for name, new, old in t.mutation_outcomes():\n"
              "    print(name, new == old, new)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, cwd=tests,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    expected = [f"{name} True {new}" for name, new, old in mutation_outcomes()]
    assert out == expected
    assert len(out) == 5 and all(" True (" in line for line in out)


def test_d4_fails_both_centralizing_checks_under_python_O():
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("from weylkit import corpus, reconstruct, weyl\n"
              "e = corpus.d4()\n"
              "print(weyl.check_immediately_centralizing(e.G, e.S, e.G.arrows))\n"
              "dia = reconstruct.diamond_action(reconstruct.derive_weyl_actions(e.G, e.S))\n"
              "print(reconstruct.check_imm_centralizing_action(dia.HT, dia.That, dia.image, dia.x_unit))\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["(False, ('0|1', 2))", "(False, (('0|1', '0|0#0'), 2))"]
