"""Subgroupoid checks and subgroup closures on the compose array, against their loop oracles.

``subgroupoid_properties`` computes each clause as one expression on the
compose array, and the subgroup closure of ``cocycle`` and
``FiniteGroupoid.generators`` share one product-closure routine.  The
oracles are the per-pair loop and the breadth-first search they replaced.
"""

import itertools

import pytest

from oracles import closure_bfs, subgroupoid_properties_loop
from weylkit import corpus
from weylkit.cocycle import _closure
from weylkit.groupoid import build_groupoid, isotropy_fibres, subgroupoid_properties
from weylkit.weyl import build_weyl_groupoid

CORPUS = sorted(corpus.BUILDERS) + ["pair(3)"] + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)]


def by_name(name):
    return corpus.pair_groupoid(3) if name == "pair(3)" else corpus.by_name(name)


def same_report(G, members):
    new, old = subgroupoid_properties(G, members), subgroupoid_properties_loop(G, members)
    assert new == old, (G.name, sorted(members))
    assert [type(v) for v in vars(new).values()][:5] == [bool] * 5
    return new


def subsets(G, S):
    """The marked set, its one-step mutations, and the plain subsets of G."""
    iso = frozenset(g for g in G.arrows if G.src[g] == G.tgt[g])
    out = [S, frozenset(G.units), frozenset(G.arrows), iso, frozenset(G.arrows[-1:])]
    for a in sorted(S - set(G.units))[:3]:
        out.append(S - {G.inv(a)})                    # an inverse dropped (or the arrow itself)
    for u in sorted(set(G.units) & S)[:2]:
        out.append(S - {u})                           # a unit dropped
    for a in sorted(set(G.arrows) - S)[:4]:
        out += [S | {a}, S | {a, G.inv(a)}]           # an escaping product or a non-isotropy arrow added
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_properties_match_the_loop_on_the_corpus(name):
    e = by_name(name)
    for members in subsets(e.G, e.S):
        same_report(e.G, members)


@pytest.mark.parametrize("name", ["pauli", "z2z2", "s3", "d4", "q8", "z2xR2", "rotation(4,1)", "rotation(6,2)"])
def test_properties_match_the_loop_on_weyl_groupoids(name):
    e = by_name(name)
    GW, _ = build_weyl_groupoid(e.G, e.S, e.omega)
    S = frozenset(g for g in GW.arrows if GW.src[g] == GW.tgt[g])
    for members in subsets(GW, S):
        same_report(GW, members)


def test_each_clause_fails_with_the_witness_of_the_loop():
    """Subsets chosen to fail one clause each, on the non-abelian groups."""
    seen = set()
    for name in ("d4", "q8", "s3"):
        G = corpus.by_name(name).G
        for a, b in itertools.combinations(G.arrows, 2):      # non-commuting pairs
            if G.mul(a, b) != G.mul(b, a):
                rep = same_report(G, _closure(G, G.units[0], {a, b}))
                seen.update(rep.witnesses)
    s3 = corpus.by_name("s3").G
    rep = same_report(s3, {"0|0", "0|1"})                     # the non-normal reflection
    assert rep.witnesses == {"normal": ("1|0", "0|1")}
    pair = corpus.pair_groupoid(3).G
    for members in (pair.arrows, set(pair.units) | {"0>1"}, set(pair.units) - {"1>1"}, {"0>1", "1>2", "1>0", "2>1"}):
        seen.update(same_report(pair, members).witnesses)
    d4 = corpus.by_name("d4")
    seen.update(same_report(d4.G, d4.S | {next(iter(set(d4.G.arrows) - d4.S))}).witnesses)
    assert {"subgroupoid", "bundle", "abelian", "normal"} <= seen, seen


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS) + ["pair(3)", "rotation(4,1)", "rotation(6,1)"])
def test_closure_matches_the_bfs_on_every_fibre(name):
    """Every seed set of fibres up to order 8, and every one or two seeds of larger fibres."""
    G = by_name(name).G
    for u, fibre in isotropy_fibres(G, G.arrows).items():
        sizes = range(len(fibre) + 1) if len(fibre) <= 8 else range(3)
        for k in sizes:
            for seeds in itertools.combinations(fibre, k):
                assert _closure(G, u, set(seeds)) == closure_bfs(G, u, set(seeds)), (u, seeds)


def test_build_groupoid_calls_mul_on_the_composable_pairs_in_arrow_order():
    G = corpus.z2_x_r2().G
    arrows = {g: (G.src[g], G.tgt[g]) for g in reversed(G.arrows)}
    calls = []
    H = build_groupoid(G.units, arrows, lambda g, h: calls.append((g, h)) or G.mul(g, h))
    assert calls == [(g, h) for g in arrows for h in arrows if arrows[g][0] == arrows[h][1]]
    assert list(H.compose) == calls and H.comp_matrix().tolist() == G.comp_matrix().tolist()


def test_mul_reads_the_array_and_refuses_pairs_off_it():
    G = corpus.pair_groupoid(3).G
    assert all(G.mul(g, h) == k for (g, h), k in G.compose.items())
    for pair in (("0>1", "0>1"), ("1>1", "0>0")):
        with pytest.raises(KeyError) as exc:
            G.mul(*pair)
        assert exc.value.args == (pair,)
    with pytest.raises(KeyError):
        G.mul("0>1", "nope")
