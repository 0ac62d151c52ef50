"""Group bundles as product tables, against the callables they replaced.

A ``GroupBundle`` holds the product of each fibre as a table of positions
in the fibre.  ``bundle_from_subgroupoid`` gathers it from the compose
table in blocks of equal fibre size, the Weyl unit bundle reuses the
character product tables, and ``CharacterTable`` reads it, permuted to the
fibre's sorted ids.  The oracles are ``tabulate_bundle``, one ``mul`` call
per pair, and ``CharacterTableLoop``, which builds the table from a
callable as ``CharacterTable`` once did.  Both must give the same tables,
and the same error with the same witness on a bundle that is no abelian
group bundle.  ``cocycle._maximal_extension`` tests its candidates on
index masks; its oracle is the set-of-ids loop it replaced.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit import corpus
from weylkit.cocycle import _maximal_extension
from weylkit.dual import CharacterTable, bundle_from_subgroupoid, dual_bundle
from weylkit.errors import WeylkitError
from weylkit.groupoid import FIBRE_CAP, isotropy_fibres, kernel_of_grading
from weylkit.reconstruct import derive_weyl_actions
from weylkit.semidirect import SemidirectSpec, build_semidirect

from test_class_tables import UNIONS, disjoint_union
from oracles import CharacterTableLoop, derive_weyl_actions_loop, maximal_extension_loop, tabulate_bundle, to_bundle

INPUTS = (list(corpus.BUILDERS) + [f"pair({n})" for n in range(2, 9)]
          + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)])


def entry(name):
    return corpus.pair_groupoid(int(name[5:-1])) if name.startswith("pair(") else corpus.by_name(name)


def outcome(f):
    """What ``f()`` returns, or the type and witness of the weylkit error it raises."""
    try:
        return f()
    except WeylkitError as exc:
        return type(exc).__name__, getattr(exc, "witness", str(exc))


def table(t):
    return (t.ids, t.elements, t.mul.tolist(), t.values.tolist(), t.product.tolist(), t.inverse.tolist(),
            t.exponent)


def same_tables(bundle, mult) -> list:
    """Each fibre's CharacterTable against the loop's over ``mult``: their common outcomes, in base order."""
    found = []
    for x in bundle.base:
        new = outcome(lambda: table(CharacterTable(bundle, x)))
        assert new == outcome(lambda: table(CharacterTableLoop(bundle.fibres[x], mult, bundle.identity[x], x))), x
        found.append(new)
    return found


def character_mult(dual):
    """The product of two character ids, read from the character product tables one pair at a time."""
    def mult(a, b):
        (x, i), (_, j) = dual.position[a], dual.position[b]
        return dual.tables[x].ids[dual.tables[x].product.item(i, j)]
    return mult


def products(bundle) -> dict:
    return {x: bundle.product[x].tolist() for x in bundle.base}


def check_bundle_and_dual(G, S):
    """The gathered bundle against the tabulated one, and both duals' tables against the loop's."""
    bundle = bundle_from_subgroupoid(G, S)
    tabulated = tabulate_bundle(bundle.base, bundle.fibres, G.mul, bundle.identity)
    assert (bundle.fibres, bundle.p, products(bundle)) == (tabulated.fibres, tabulated.p, products(tabulated))
    same_tables(bundle, G.mul)
    dual = dual_bundle(bundle)
    ids = {x: t.ids for x, t in dual.tables.items()}
    K = tabulate_bundle(dual.base, ids, character_mult(dual), {x: f[0] for x, f in ids.items()})
    assert products(K) == products(to_bundle(dual))
    same_tables(K, character_mult(dual))
    return bundle


@pytest.mark.parametrize("name", INPUTS + ["rotation(12,5)"])
def test_tables_match_the_callables(name):
    e = entry(name)
    check_bundle_and_dual(e.G, e.S)


@pytest.mark.parametrize("names", UNIONS + [("z2xR2",)])
def test_fibres_of_different_sizes_are_gathered_by_size(names):
    if len(names) > 1:
        G, S = disjoint_union(names)
    else:       # the whole fibre at one unit, the unit alone at the other
        G = entry(names[0]).G
        S = frozenset(isotropy_fibres(G, G.arrows)[G.units[0]]) | frozenset(G.units)
    bundle = check_bundle_and_dual(G, S)
    assert len({len(f) for f in bundle.fibres.values()}) > 1


def test_tables_match_at_the_fibre_cap():
    G, _, S, _ = build_semidirect(SemidirectSpec("t", (16, 16), (1,)))
    bundle = check_bundle_and_dual(G, S)
    assert [len(f) for f in bundle.fibres.values()] == [FIBRE_CAP]


@pytest.mark.parametrize("name", ["q8", "d4", "z2xR2", "rotation(4,0)", "rotation(12,0)", "pair(3)"])
def test_the_weyl_unit_bundle_in_row_order_has_the_tables_of_the_sorted_one(name):
    e = entry(name)
    T, sorted_T = derive_weyl_actions(e.G, e.S).T, derive_weyl_actions_loop(e.G, e.S).T
    assert {x: sorted(f) for x, f in T.fibres.items()} == {x: list(f) for x, f in sorted_T.fibres.items()}
    assert (T.p, T.identity) == (sorted_T.p, sorted_T.identity)
    for x in T.base:
        assert table(CharacterTable(T, x)) == table(CharacterTable(sorted_T, x)), x
    if name == "rotation(12,0)":       # ids "u#10" and "u#11" sort before "u#2"
        assert any(tuple(sorted(f)) != f for f in T.fibres.values())


def malformed():
    """(name, bundle, mult): bundles that are no abelian group bundle, with the callable of each."""
    q8, rot, pair = corpus.q8().G, corpus.rotation(4, 0).G, corpus.pair_groupoid(3).G
    u = q8.units[0]
    yield "q8", tabulate_bundle(q8.units, {u: q8.arrows}, q8.mul, {u: u}), q8.mul
    yield "unclosed", bundle_from_subgroupoid(rot, {"0|0", "1|0"}), rot.mul
    yield "units missing", bundle_from_subgroupoid(pair, {"0>0"}), pair.mul
    for element, square, identity in (("a", "b", "a"), ("a", "a", "e")):
        def mult(a, b, square=square):
            return square
        yield f"{element}*{element}={square}", tabulate_bundle(("x",), {"x": (element,)}, mult, {"x": identity}), mult


EXPECTED = {
    "q8": ["NotAbelian"],
    "unclosed": [("DualityFailure", ("fibre is not a group", "0|0"))],
    "units missing": [("DualityFailure", ("fibre is not a group", u)) for u in ("1>1", "2>2")],
    "a*a=b": [("DualityFailure", ("fibre is not a group", "x"))],
    "a*a=a": [("DualityFailure", ("fibre is not a group", "x"))],
}


def test_malformed_bundles_fail_like_the_callables():
    for name, bundle, mult in malformed():
        found = [f for f in same_tables(bundle, mult) if f[0] in ("NotAbelian", "DualityFailure")]
        assert [f if f[0] != "NotAbelian" else f[0] for f in found] == EXPECTED[name], name
        assert found[0][0] != "NotAbelian" or found[0][1].startswith("fibre at 1 is not abelian: ("), found


def test_malformed_bundles_fail_alike_under_python_O():
    script = (
        "from test_bundle_tables import CharacterTable, CharacterTableLoop, malformed, outcome, table\n"
        "for name, bundle, mult in malformed():\n"
        "    for x in bundle.base:\n"
        "        new = outcome(lambda: table(CharacterTable(bundle, x)))\n"
        "        old = outcome(lambda: table(CharacterTableLoop(bundle.fibres[x], mult, bundle.identity[x], x)))\n"
        "        if isinstance(new, tuple) and isinstance(new[0], str):\n"
        "            print(name, new == old, new)\n"
    )
    src, tests = str(Path(weylkit.__file__).parents[1]), str(Path(__file__).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 6 and all(line.split(" True ")[1:] for line in lines), lines
    assert lines[1] == "unclosed True ('DualityFailure', ('fibre is not a group', '0|0'))", lines


def markings(e, kernel):
    """S, the part of S central in its fibres with the units, every arrow, the units alone, and the
    units with the isotropy arrows outside ``kernel``, one at a time."""
    G = e.G
    center = frozenset(g for g in e.S if all(G.mul(g, h) == G.mul(h, g) for h in G.arrows
                                             if G.src[h] == G.tgt[h] == G.src[g]))
    units, inside = frozenset(G.units), {g for f in kernel.values() for g in f}
    outside = [units | {g} for g in G.arrows if G.src[g] == G.tgt[g] and g not in inside]
    return [e.S, center | units, frozenset(G.arrows), units] + outside


def test_maximal_extension_matches_the_set_loop():
    """On the isotropy of the grading's kernel, as the hypotheses check reads it, and on all isotropy."""
    verdicts = []
    for name in INPUTS:
        e = entry(name)
        graded = isotropy_fibres(e.G, kernel_of_grading(e.G, e.c).members)
        for kernel in (graded, isotropy_fibres(e.G, e.G.arrows)):
            for S in markings(e, graded):
                new = outcome(lambda: _maximal_extension(e.G, e.omega, kernel, S))
                assert new == outcome(lambda: maximal_extension_loop(e.G, e.omega, kernel, S)), (name, sorted(S))
                verdicts.append(new)
    assert None in verdicts and sum(v is not None for v in verdicts) > 40
