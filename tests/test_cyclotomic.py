import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hspsim.cyclotomic import CycloField, Cyclotomic, cyclotomic_normalize, cyclotomic_polynomial

KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("order,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomials_known(order, coeffs):
    assert cyclotomic_polynomial(order) == coeffs


def test_cyclotomic_polynomial_degree_is_totient():
    def totient(n):
        return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    for order in range(1, 61):
        assert len(cyclotomic_polynomial(order)) - 1 == totient(order)


def test_cyclotomic_polynomial_roots_numerically():
    for order in (5, 8, 9, 10, 20, 36, 60):
        poly = cyclotomic_polynomial(order)
        z = complex(math.cos(2 * math.pi / order), math.sin(2 * math.pi / order))
        val = sum(c * z**i for i, c in enumerate(poly))
        assert abs(val) < 1e-8


def test_normalize_i_squared_plus_one():
    # 1 + w^2 with w of order 4 is 1 + i^2 = 0
    assert cyclotomic_normalize(4, [1, 0, 1]).is_zero()


def test_normalize_cube_root_sum():
    assert cyclotomic_normalize(3, [1, 1, 1]).is_zero()


def test_normalize_order_twelve_sum():
    # float check first, then the exact path must call it zero as well
    z = complex(math.cos(2 * math.pi / 12), math.sin(2 * math.pi / 12))
    val = z**4 + z**8 + 1
    assert abs(val) < 1e-12
    raw = [0] * 12
    raw[4] = 1
    raw[8] = 1
    raw[0] += 1
    assert cyclotomic_normalize(12, raw).is_zero()


def test_exponent_folding():
    fld = CycloField(12)
    assert fld.root(13) == fld.root(1)
    assert fld.root(-1) == fld.root(11)


def test_root_product_adds_exponents():
    fld = CycloField(20)
    for a in range(20):
        for b in range(20):
            assert fld.root(a) * fld.root(b) == fld.root(a + b)


def test_full_orbit_sums_to_zero():
    for order in (2, 3, 4, 6, 9, 12):
        fld = CycloField(order)
        total = fld.zero
        for e in range(order):
            total = total + fld.root(e)
        assert total.is_zero()


def test_ring_identities_random():
    rng = random.Random(5)
    fld = CycloField(12)

    def rand_elt():
        return fld.from_raw([rng.randrange(-9, 10) for _ in range(12)])

    for _ in range(200):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_norm2_real_nonnegative_and_zero_iff():
    rng = random.Random(6)
    for order in (4, 12, 20):
        fld = CycloField(order)
        for _ in range(60):
            a = fld.from_raw([rng.randrange(-5, 6) for _ in range(order)])
            n2 = a.norm2()
            assert n2 == n2.conjugate()  # real
            val = n2.to_complex()
            assert abs(val.imag) < 1e-9
            assert val.real >= -1e-9
            assert n2.is_zero() == a.is_zero()
            assert abs(val.real - abs(a.to_complex()) ** 2) < 1e-6 * (1 + val.real)


def test_norm2_of_gaussian_integers_is_rational():
    fld = CycloField(4)
    rng = random.Random(7)
    for _ in range(50):
        a = fld.from_raw([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        n2 = a.norm2()
        assert n2.is_rational() and n2.rational_value() >= 0


def test_rational_detection():
    fld = CycloField(12)
    assert fld.from_rational(7).is_rational()
    assert fld.from_rational(7).rational_value() == 7
    assert not fld.root(1).is_rational()
    with pytest.raises(ValueError):
        fld.root(1).rational_value()


def test_conjugate_inverts_roots():
    fld = CycloField(36)
    for e in range(36):
        assert fld.root(e).conjugate() == fld.root(-e)


def test_mixed_field_arithmetic_rejected():
    a = CycloField(4).root(1)
    b = CycloField(8).root(1)
    with pytest.raises(ValueError):
        _ = a + b


def test_field_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(CycloField, "_instances", {})
    first = CycloField(12)
    x = first.root(1)
    for order in range(13, 13 + CycloField.CACHE_SIZE):
        CycloField(order)
    assert len(CycloField._instances) == CycloField.CACHE_SIZE
    assert 12 not in CycloField._instances
    rebuilt = CycloField(12)
    assert rebuilt is not first and rebuilt is CycloField(12)
    # elements of the evicted instance still mix with the rebuilt one's
    y = rebuilt.root(1)
    assert x == y and (x + y) == y * 2 and x * y == rebuilt.root(2)
    # a hit moves a field to the back: 13 is now the oldest entry
    CycloField(14)
    CycloField(99)
    assert 13 not in CycloField._instances and 14 in CycloField._instances


def test_scalar_multiplication_with_fractions():
    from fractions import Fraction

    fld = CycloField(4)
    half = fld.root(1) * Fraction(1, 2)
    assert half + half == fld.root(1)


@st.composite
def element_pairs(draw):
    """A root order M and a list of (a, b) pairs of elements of Q(w_M), given
    by raw coefficient vectors over powers of w (zeros and empty lists
    included)."""
    order = draw(st.sampled_from([4, 12, 20, 24]))
    fld = CycloField(order)
    raw = st.lists(st.integers(-50, 50), max_size=order)
    pairs = draw(st.lists(st.tuples(raw, raw), max_size=6))
    return fld, [(fld.from_raw(a), fld.from_raw(b)) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_conj_dot_equals_the_naive_fold(case):
    fld, pairs = case
    naive = fld.zero
    for a, b in pairs:
        naive = naive + a.conjugate() * b
    got = fld.conj_dot(pairs)
    assert got.coeffs == naive.coeffs
    assert fld.conj_dot((a, a) for a, _ in pairs).coeffs == sum(
        (a.norm2() for a, _ in pairs), fld.zero
    ).coeffs


# Field axioms beyond the fixed sweeps.  The QFT's fiber memo and the dense
# pass's per-value memo both key on coefficient tuples, so they rely on
# canonical forms being unique: equal elements must come out of every
# operation with equal tuples.

ORDERS = [4, 12, 20, 24, 36]


@st.composite
def field_elements(draw, count=3):
    """A field of root order 4, 12, 20, 24 or 36 and `count` of its elements,
    each a canonical coefficient tuple (any tuple of length phi(M) is one)."""
    fld = CycloField(draw(st.sampled_from(ORDERS)))
    coeffs = st.lists(st.integers(-20, 20), min_size=fld.degree, max_size=fld.degree)
    return fld, [Cyclotomic(fld, tuple(draw(coeffs))) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(field_elements())
def test_field_ring_axioms(case):
    fld, (a, b, c) = case
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a + fld.zero).coeffs == a.coeffs
    assert (a + (-a)).coeffs == fld.zero.coeffs
    assert (a - b).coeffs == (a + (-b)).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert (a * fld.one).coeffs == a.coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@settings(max_examples=80, deadline=None)
@given(field_elements(count=2))
def test_conjugation_is_an_involutive_automorphism(case):
    fld, (a, b) = case
    conj = Cyclotomic.conjugate
    assert conj(conj(a)).coeffs == a.coeffs
    assert conj(a + b).coeffs == (conj(a) + conj(b)).coeffs
    assert conj(a * b).coeffs == (conj(a) * conj(b)).coeffs
    assert conj(fld.one).coeffs == fld.one.coeffs
    for e in (1, fld.order // 4, fld.order - 1):
        assert conj(fld.root(e)).coeffs == fld.root(-e).coeffs


@settings(max_examples=80, deadline=None)
@given(field_elements(count=1))
def test_norm2_is_the_product_with_the_conjugate(case):
    _, (a,) = case
    n2 = a.norm2()
    assert n2.coeffs == (a * a.conjugate()).coeffs
    assert n2.conjugate().coeffs == n2.coeffs


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(
    lambda order: st.tuples(st.just(order), st.lists(st.integers(-20, 20), max_size=2 * order))
))
def test_from_raw_equals_the_fold_of_powers(case):
    order, raw = case
    fld = CycloField(order)
    fold = fld.zero
    for e, c in enumerate(raw):
        fold = fold + fld.root(e) * c
    assert fld.from_raw(raw).coeffs == fold.coeffs
