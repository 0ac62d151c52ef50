"""Files written from the index tables, and the semidirect action checked on its table.

``emit_groupoid_data`` spells the compose table from the compose array and
the cocycle table from the numerator table; ``semidirect._action_table``
checks the action laws as gathers on one table of beta (the oracles'
``validate_action`` calls it).  The oracles are the
dict-based emit and the tuple loop they replaced.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from oracles import composable, emit_groupoid_data_dicts, validate_action, validate_action_loop
from test_array_groupoids import SPECS, shuffled
from weylkit import corpus
from weylkit.cocycle import TwoCocycle, check_cocycle
from weylkit.errors import NotAutomorphism, SchemaError, UndefinedPair
from weylkit.groupoid import validate_groupoid
from weylkit.io import emit_groupoid_data, parse_groupoid_data
from weylkit.phases import ZERO, Phase
from weylkit.semidirect import SemidirectSpec
from weylkit.weyl import build_weyl_groupoid, weyl_twist_cocycle

ROOT = Path(__file__).resolve().parent.parent

NAMES = (sorted(corpus.BUILDERS) + [f"pair({n})" for n in range(3, 9)]
         + [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)] + ["rotation(12,5)", "rotation(16,3)"])


def build(name):
    if name.startswith("pair("):
        return corpus.pair_groupoid(int(name[len("pair("):-1]))
    return corpus.by_name(name)


def both(G, omega=None, c=None, marked=None, name=None):
    """The new and the oracle's document, as JSON text.

    The new emit runs first, and builds neither ``G.compose`` nor ``omega.values``.
    """
    before = G._compose, getattr(omega, "_values", None)
    new = json.dumps(emit_groupoid_data(G, omega, c, marked, name))
    assert G._compose is before[0] and getattr(omega, "_values", None) is before[1]
    return new, json.dumps(emit_groupoid_data_dicts(G, omega, c, marked, name))


@pytest.mark.parametrize("name", NAMES)
def test_emit_matches_the_dict_emit(name):
    e = build(name)
    # a semidirect product's cocycle is table-built, the others from a dict
    assert e.G._compose is None and (e.spec is None or e.omega._values is None)
    new, old = both(e.G, e.omega, e.c, e.S, e.name)
    assert new == old
    if e.S is not None:
        GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
        C = weyl_twist_cocycle(GW, data)
        assert GW._compose is None and C._values is None
        new, old = both(GW, C, name=GW.name, marked=sorted(GW.units))
        assert new == old
        # the Weyl groupoid's ids are pairs, spelled through ``label``
        assert "&" in json.loads(new)["arrows"][0]["id"]


@pytest.mark.parametrize("name", ["pauli", "d4", "rotation(4,1)", "rotation(8,3)", "pair(4)"])
def test_emit_after_values_was_read_matches_the_dict_emit(name):
    e = build(name)
    e.omega.values
    e.G.compose
    fresh = build(name)
    new, old = both(e.G, e.omega, e.c, e.S, e.name)
    assert new == old == json.dumps(emit_groupoid_data(fresh.G, fresh.omega, fresh.c, fresh.S, fresh.name))


@pytest.mark.parametrize("name", ["pauli", "s3", "q8", "z2xR2", "rotation(6,2)", "rotation(8,3)", "pair(5)"])
def test_emit_of_a_shuffled_parse_matches_the_dict_emit(name):
    e = build(name)
    data = emit_groupoid_data(e.G, e.omega, e.c, e.S, e.name)
    gf = parse_groupoid_data(shuffled(data, name))
    assert gf.G._compose is None and gf.omega._values is None
    new, old = both(gf.G, gf.omega, gf.c, gf.marked, gf.name)
    assert new == old == json.dumps(data)


def test_comma_ids_and_colliding_spellings_still_raise(colliding):
    G = validate_groupoid(["a,b"], {"a,b": ("a,b", "a,b")}, {("a,b", "a,b"): "a,b"})
    for emit in (emit_groupoid_data, emit_groupoid_data_dicts):
        with pytest.raises(SchemaError, match="contains a comma"):
            emit(G)
    gf = parse_groupoid_data(colliding)
    GW, _ = build_weyl_groupoid(gf.G, gf.marked, gf.omega)
    messages = []
    for emit in (emit_groupoid_data, emit_groupoid_data_dicts):
        with pytest.raises(SchemaError, match="are both spelled") as exc:
            emit(GW)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_a_zero_written_into_values_is_not_emitted():
    e = corpus.rotation(4, 1)
    G, omega = e.G, e.omega
    nonzero = dict(omega.values)
    pair = next((g, h) for (g, h) in G.compose if (g, h) not in nonzero)
    omega.values[pair] = ZERO
    assert dict(omega.values) == nonzero
    data = emit_groupoid_data(G, omega, e.c, e.S, e.name)
    assert f"{pair[0]},{pair[1]}" not in data["cocycle"]
    assert data == emit_groupoid_data_dicts(G, omega, e.c, e.S, e.name)
    back = parse_groupoid_data(data).omega
    assert back.values == nonzero
    assert (back._int_table()[0] == omega._int_table()[0]).all()
    # a cocycle whose only entries are zeros writes no table at all, as one given a zero
    u = G.units[0]
    trivial = TwoCocycle(G, {})
    trivial.values[(u, u)] = ZERO
    for omega in (trivial, TwoCocycle(G, {(u, u): ZERO})):
        data = emit_groupoid_data(G, omega)
        assert "cocycle" not in data and data == emit_groupoid_data_dicts(G, omega)
        assert parse_groupoid_data(data).omega.is_trivial()


def flipped_pairs():
    """Two pair groupoids on units x, y with the same arrows: a goes x -> y in the first, y -> x in the second."""
    out = []
    for x, y in (("x", "y"), ("y", "x")):
        arrows = {"x": ("x", "x"), "y": ("y", "y"), "a": (x, y), "b": (y, x)}
        compose = {("x", "x"): "x", ("y", "y"): "y", ("a", x): "a", (y, "a"): "a", ("b", y): "b", (x, "b"): "b",
                   ("a", "b"): y, ("b", "a"): x}
        out.append(validate_groupoid(["x", "y"], arrows, compose, name=f"{x}{y}"))
    return out


def test_a_value_off_the_composable_pairs_or_another_groupoid_is_refused():
    e = corpus.pair_groupoid(3)
    G = e.G
    g, h = next((g, h) for g in G.arrows for h in G.arrows if not composable(G, g, h))
    with pytest.raises(UndefinedPair):
        TwoCocycle(G, {(g, h): Phase(1, 2)})
    omega = TwoCocycle(G, {})
    with pytest.raises(UndefinedPair):
        omega.values[(g, h)] = Phase(1, 2)
    assert omega.is_trivial()
    other = corpus.rotation(2, 1)
    with pytest.raises(SchemaError, match="cocycle is defined on"):
        emit_groupoid_data(G, other.omega)
    # the same arrows composed otherwise: (a, x) is composable in the first only
    first, second = flipped_pairs()
    omega = TwoCocycle(first, {("a", "x"): Phase(1, 2)})
    for run in (emit_groupoid_data, check_cocycle):
        with pytest.raises(SchemaError, match="cocycle is defined on xy, not on yx"):
            run(second, omega)


def test_emit_at_576_arrows_in_bounded_memory():
    # the dicts behind the old emit, G.compose and omega.values, and one
    # string per cocycle entry peaked at 138 MB here
    e = corpus.rotation(24, 1)
    tracemalloc.start()
    try:
        data = emit_groupoid_data(e.G, e.omega, e.c, e.S, e.name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data["compose"]) == 576 ** 2
    assert peak < 100e6, peak


# ---------------------------------------------------------------- validate_action

def broken(spec, how):
    """``spec`` with beta changed at one place (or one k) so that, where H and K are big enough, ``how`` fails."""
    beta, hs, ks = spec.beta, spec.h_elements(), spec.k_elements()
    h0, h_last, k_last = hs[0], hs[-1], ks[-1]
    if how == "identity":       # beta_0 sends the last h out of H
        def new(k, h):
            return tuple(x + o for x, o in zip(h, spec.h_orders)) if k == ks[0] and h == h_last else beta(k, h)
    elif how == "bijection":    # beta_k sends the last h where it sends the first
        def new(k, h):
            return beta(k, h0 if k == k_last and h == h_last else h)
    elif how == "homomorphism":     # beta_k swaps the images of 0 and the last h
        def new(k, h):
            if k == k_last and h in (h0, h_last):
                h = h_last if h == h0 else h0
            return beta(k, h)
    else:                       # beta_k for the second k becomes beta_k beta_k composed with negation
        def new(k, h):
            if ks.index(k) != 1:
                return beta(k, h)
            return beta(k, beta(k, tuple((-x) % o for x, o in zip(h, spec.h_orders))))
    return SemidirectSpec(name=f"{spec.name} {how}", h_orders=spec.h_orders, k_orders=spec.k_orders, beta=new)


def outcome(check, spec):
    try:
        check(spec)
    except NotAutomorphism as exc:
        return str(exc)
    return None


HOW = ("identity", "bijection", "homomorphism", "action")


@pytest.mark.parametrize("name", SPECS)
def test_validate_action_matches_the_loop(name):
    spec = SPECS[name]()
    assert outcome(validate_action, spec) is outcome(validate_action_loop, spec) is None
    for how in HOW:
        bad = broken(spec, how)
        assert outcome(validate_action, bad) == outcome(validate_action_loop, bad), how


def test_each_way_of_breaking_an_action_is_seen():
    first_words = {"identity": "beta_0 is not the identity", "bijection": "is not a bijection",
                   "homomorphism": "is not a homomorphism", "action": "beta is not an action"}
    for name in ("a4", "z3:z2z2", "rotation(5,2)", "rotation(12,7)"):
        for how in HOW:
            found = outcome(validate_action, broken(SPECS[name](), how))
            assert found is not None and first_words[how] in found, (name, how, found)


def test_a_broken_action_is_refused_under_python_O():
    # A4 with beta_2 swapping the images of 0 and (1, 1): a bijection, not a homomorphism
    code = ("from oracles import validate_action, validate_action_loop\n"
            "from weylkit.semidirect import SemidirectSpec\n"
            "def beta(k, h):\n"
            "    if k == (2,) and h in ((0, 0), (1, 1)):\n"
            "        h = (1, 1) if h == (0, 0) else (0, 0)\n"
            "    for _ in range(k[0]):\n"
            "        h = (h[1], (h[0] + h[1]) % 2)\n"
            "    return h\n"
            "spec = SemidirectSpec(name='a4', h_orders=(2, 2), k_orders=(3,), beta=beta)\n"
            "for check in (validate_action, validate_action_loop):\n"
            "    try:\n"
            "        check(spec)\n"
            "        print('passed')\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    new, old = out.stdout.splitlines()
    assert new == old == "NotAutomorphism beta_(2,) is not a homomorphism at ((0, 0), (0, 0))"
