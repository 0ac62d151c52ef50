"""The int-pair Phase against the Fraction-backed one it replaced."""

import copy
import functools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import FractionPhase, times
from weylkit.errors import SchemaError
from weylkit.groupoid import MAX_TABLE_INT
from weylkit.phases import Phase

nums = st.integers(min_value=-3 * MAX_TABLE_INT, max_value=3 * MAX_TABLE_INT)
dens = st.one_of(st.integers(min_value=1, max_value=12),
                 st.integers(min_value=1, max_value=MAX_TABLE_INT))
pairs = st.tuples(nums, dens)


def same(new, old):
    """Equal as phases, in every rendering: str, repr, q, hash and the complex value bit for bit."""
    z, w = new.to_complex(), old.to_complex()
    return (
        str(new) == str(old)
        and repr(new) == repr(old)
        and new.q == old.q and type(new.q) is Fraction
        and hash(new) == hash(old)
        and (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
        and new.is_zero == old.is_zero
    )


@given(pairs)
def test_of_and_constructor_match_fraction_phase(pair):
    n, d = pair
    new = Phase.of(n, d)
    assert same(new, FractionPhase.of(n, d))
    assert Phase(Fraction(n, d)) == new and 0 <= new.num < new.den
    if d == 1:
        assert Phase(n) == new


@given(pairs, pairs, st.integers(min_value=-50, max_value=50))
def test_arithmetic_and_order_match_fraction_phase(a, b, k):
    p, q = Phase.of(*a), Phase.of(*b)
    op, oq = FractionPhase.of(*a), FractionPhase.of(*b)
    assert same(p + q, op + oq)
    assert same(p - q, op - oq)
    assert same(-p, -op)
    assert same(times(p, k), op.times(k))
    assert (p == q) == (op == oq) and (p != q) == (op != oq)
    assert (p < q, p <= q, p > q, p >= q) == (op < oq, op <= oq, op > oq, op >= oq)
    assert (p == p) and hash(p) == hash(Phase.of(*a))


@given(pairs, st.booleans())
def test_parse_matches_fraction_phase(pair, bare):
    n, d = pair
    text = str(n) if bare else f"{n}/{d}"
    assert same(Phase.parse(text), FractionPhase.parse(text))


@pytest.mark.parametrize("bad", ["2/0", "1/-2", "a/b", "", "1/2/3", "1.5", "1/2.0"])
def test_parse_rejects_what_fraction_phase_rejects(bad):
    with pytest.raises(SchemaError) as new:
        Phase.parse(bad)
    with pytest.raises(SchemaError) as old:
        FractionPhase.parse(bad)
    assert str(new.value) == str(old.value)


def test_zero_denominator_and_negative_denominator():
    with pytest.raises(ZeroDivisionError):
        Phase.of(1, 0)
    with pytest.raises(ZeroDivisionError):
        FractionPhase.of(1, 0)
    assert same(Phase.of(1, -4), FractionPhase.of(1, -4))
    assert same(Phase(Fraction(7, 7)), FractionPhase(Fraction(7, 7)))


def test_phase_is_immutable_and_slotted():
    p = Phase.of(1, 3)
    for name, value in (("num", 2), ("den", 5), ("q", Fraction(1, 2)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.num
    assert (p.num, p.den) == (1, 3) and not hasattr(p, "__dict__")
    assert p != FractionPhase.of(1, 3) and p != Fraction(1, 3)
    with pytest.raises(TypeError):
        _ = p < Fraction(1, 2)


@pytest.fixture
def instances(monkeypatch):
    """Count Phase instances by wrapping ``Phase.__init__``, as the benchmark's tracer does."""
    count = [0]
    init = Phase.__init__

    @functools.wraps(init)
    def counted(obj, *args, **kwargs):
        count[0] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Phase, "__init__", counted)
    return count


def test_every_instance_goes_through_init(instances):
    p, q = Phase.of(1, 3), Phase.of(1, 4)
    for make in (
        lambda: Phase.of(3, 7),
        lambda: Phase.parse("3/7"),
        lambda: Phase.parse("-2"),
        lambda: p + q,
        lambda: p + p,
        lambda: p - q,
        lambda: -p,
        lambda: times(p, 5),
        lambda: Phase(Fraction(2, 3)),
        lambda: copy.copy(p),
        lambda: copy.deepcopy(p),
        lambda: pickle.loads(pickle.dumps(p)),
    ):
        instances[0] = 0
        out = make()
        assert type(out) is Phase and instances[0] == 1
    instances[0] = 0
    _ = (p.q, p.is_zero, p.to_complex(), str(p), hash(p), p < q, p == q)
    assert instances[0] == 0
