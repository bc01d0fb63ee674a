from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetcode.field import GF, gf, make_field

# moduli re-derived with sympy's irreducibility test over every candidate
# in the same ascending-encoding order; frozen here so any change to the
# search is caught
FROZEN_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    121: (1, 0, 1),
    125: (1, 1, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def test_frozen_moduli():
    for q, modulus in FROZEN_MODULI.items():
        assert gf(q).modulus == modulus


def test_prime_field_modulus_is_formal():
    assert gf(7).modulus == (0, 1)


def test_gf4_table_facts():
    F = gf(4)
    assert F.add(2, 3) == 1
    assert F.mul(2, 2) == 3
    assert F.inv(2) == 3
    assert F.generator == 2


def test_prime_field_facts():
    assert gf(3).add(2, 2) == 1
    assert gf(5).mul(3, 4) == 2
    assert gf(5).inv(2) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_field_laws(q):
    F = gf(q)
    elems = list(F.elements())
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(a, b) == F.add(a, F.neg(b))
            if b:
                assert F.mul(F.div(a, b), b) == a
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_generator_spans_nonzero_elements(q):
    F = gf(q)
    powers = set()
    y = 1
    for _ in range(q - 1):
        powers.add(y)
        y = F.mul(y, F.generator)
    assert powers == set(range(1, q))
    assert y == 1


@pytest.mark.parametrize("q", [2, 4, 5, 9])
def test_pow(q):
    F = gf(q)
    for a in F.elements():
        assert F.pow(a, 0) == 1
        acc = 1
        for e in range(1, 2 * q):
            acc = F.mul(acc, a)
            assert F.pow(a, e) == acc
        if a:
            assert F.mul(F.pow(a, -1), a) == 1
            assert F.pow(a, -3) == F.inv(F.pow(a, 3))


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf(4).inv(0)
    with pytest.raises(ZeroDivisionError):
        gf(5).div(3, 0)
    with pytest.raises(ZeroDivisionError):
        gf(4).pow(0, -1)


def test_out_of_range_elements_rejected():
    F = gf(4)
    for bad in (-1, 4, 100):
        with pytest.raises(ValueError):
            F.add(bad, 1)
        with pytest.raises(ValueError):
            F.mul(1, bad)
    with pytest.raises(ValueError):
        F.check(2.0)


def test_field_construction_errors():
    with pytest.raises(ValueError):
        gf(6)
    with pytest.raises(ValueError):
        gf(12)
    with pytest.raises(ValueError):
        gf(1)
    with pytest.raises(ValueError):
        gf(257)
    with pytest.raises(ValueError):
        gf(512)
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_interning_and_equality():
    assert gf(9) is gf(9)
    assert gf(9) is make_field(3, 2)
    assert gf(4) == GF(2, 2)
    assert gf(4) != gf(8)
    assert hash(gf(25)) == hash(GF(5, 2))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_distributivity(a, b, c):
    F = gf(9)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.integers(0, 26), st.integers(0, 26))
def test_gf27_frobenius(a, b):
    # (a + b)^p = a^p + b^p in characteristic p
    F = gf(27)
    assert F.pow(F.add(a, b), 3) == F.add(F.pow(a, 3), F.pow(b, 3))


def _digitwise_sum(a, b, p, m):
    out = 0
    for i in range(m):
        out += (a // p**i % p + b // p**i % p) % p * p**i
    return out


@pytest.mark.parametrize("q", [2, 4, 7, 8, 9, 16, 25, 27, 49])
def test_tables_match_polynomial_arithmetic(q):
    F = gf(q)
    for a in range(q):
        for b in range(q):
            assert F._add[a][b] == _digitwise_sum(a, b, F.p, F.m)
            assert F._mul[a][b] == F._mul_raw(a, b)
        assert F._add[a][F._neg[a]] == 0
        if a:
            assert F._mul_raw(a, F._inv[a]) == 1


def test_addition_tables_are_digitwise_for_every_order():
    # the tables are built by rows (XOR, or the low digit plus the rest);
    # every entry against the digit-wise definition
    for q in range(2, 257):
        try:
            F = gf(q)
        except ValueError:
            continue
        assert F._add == [[_digitwise_sum(a, b, F.p, F.m) for b in range(q)] for a in range(q)], q


@st.composite
def scalar_and_rows(draw):
    F = gf(draw(st.sampled_from([2, 3, 4, 5, 9])))
    n = draw(st.integers(0, 6))
    element = st.integers(0, F.q - 1)
    x = draw(st.lists(element, min_size=n, max_size=n))
    y = draw(st.lists(element, min_size=n, max_size=n))
    return F, draw(element), x, y


@given(scalar_and_rows())
def test_row_ops_match_scalar_ops(args):
    F, c, x, y = args
    assert F._scale(c, y) == [F.mul(c, b) for b in y]
    assert F._add_scaled(x, c, y) == [F.add(a, F.mul(c, b)) for a, b in zip(x, y)]
    assert F._sub_scaled(x, c, y) == [F.sub(a, F.mul(c, b)) for a, b in zip(x, y)]
    dot = 0
    for a, b in zip(x, y):
        dot = F.add(dot, F.mul(a, b))
    assert F._dot(x, y) == dot
