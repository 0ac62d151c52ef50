"""Exact circle arithmetic."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylkit.errors import SchemaError
from weylkit.phases import HALF, ZERO, Phase

from oracles import times

phases = st.builds(
    Phase.of,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)


def test_normalization_into_unit_interval():
    assert Phase.of(3, 2) == HALF
    assert Phase.of(-1, 4) == Phase.of(3, 4)
    assert Phase(Fraction(7, 7)) == ZERO


def test_arithmetic():
    assert Phase.of(1, 3) + Phase.of(1, 3) == Phase.of(2, 3)
    assert Phase.of(1, 3) + Phase.of(2, 3) == ZERO
    assert Phase.of(1, 4) - Phase.of(1, 2) == Phase.of(3, 4)
    assert -Phase.of(1, 3) == Phase.of(2, 3)
    assert times(Phase.of(1, 6), 3) == HALF
    assert HALF.is_zero is False and ZERO.is_zero is True


def test_to_complex():
    assert abs(HALF.to_complex() + 1) < 1e-15
    assert abs(Phase.of(1, 4).to_complex() - 1j) < 1e-15
    assert abs(ZERO.to_complex() - 1) < 1e-15


def test_parse_and_str():
    assert Phase.parse("1/2") == HALF
    assert Phase.parse("3") == ZERO
    assert Phase.parse("-1/4") == Phase.of(3, 4)
    assert str(Phase.of(2, 4)) == "1/2"
    assert str(ZERO) == "0/1"


@pytest.mark.parametrize("bad", ["2/0", "1/-2", "a/b", "", "1/2/3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SchemaError):
        Phase.parse(bad)


@given(phases, phases, phases)
def test_group_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + ZERO == p
    assert p + (-p) == ZERO


@given(phases)
def test_serialization_roundtrip(p):
    assert Phase.parse(str(p)) == p


@given(phases, st.integers(min_value=0, max_value=20))
def test_times_is_repeated_addition(p, n):
    total = ZERO
    for _ in range(n):
        total = total + p
    assert times(p, n) == total


@given(phases)
def test_to_complex_matches_exponential(p):
    assert abs(p.to_complex() - cmath.exp(2j * cmath.pi * float(p.q))) < 1e-12
