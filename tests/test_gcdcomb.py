import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hspsim.gcdcomb import _combine_pair_stats, combine_many, combine_pair


def gcd_many(values, m):
    g = m
    for v in values:
        g = gcd(g, v)
    return g


def test_pair_example_from_nine():
    u = combine_pair(4, 6, 9)
    assert gcd(u * 4 + 6, 9) == gcd(4, gcd(6, 9)) == 1
    # exhaustive oracle over u in [0, 9): the best achievable gcd is 1
    best = min(gcd(u * 4 + 6, 9) for u in range(9))
    assert best == 1
    assert u == 1


def test_pair_zero_first_argument():
    for m in (2, 5, 12, 30):
        for z2 in range(m):
            u = combine_pair(0, z2, m)
            assert 0 <= u < m
            assert gcd(u * 0 + z2, m) == gcd_many([0, z2], m)


def test_pair_second_already_achieves():
    # gcd(z2, m) = gcd(z1, z2, m): u = 0 is acceptable, any valid u passes
    u = combine_pair(4, 3, 12)
    assert gcd(u * 4 + 3, 12) == 1


def test_pair_property_exhaustive_small():
    for m in range(1, 40):
        for z1 in range(m):
            for z2 in range(m):
                u, steps = _combine_pair_stats(z1, z2, m)
                assert 0 <= u < m
                assert gcd(u * z1 + z2, m) == gcd_many([z1, z2], m)
                assert steps <= max(1, m.bit_length())


def test_pair_agrees_with_exhaustive_minimum():
    # the returned combination achieves the best gcd an exhaustive search finds
    rng = random.Random(11)
    for m in range(2, 201):
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(12)]
        for z1, z2 in pairs:
            target = gcd_many([z1, z2], m)
            best = m
            for u in range(m):
                best = min(best, gcd(u * z1 + z2, m))
                if best == target:
                    break
            u = combine_pair(z1, z2, m)
            assert gcd(u * z1 + z2, m) == best == target


def test_many_single_value():
    assert combine_many([7], 12) == []


def test_many_example_30():
    zs = [6, 10, 15]
    us = combine_many(zs, 30)
    total = us[0] * 6 + us[1] * 10 + 15
    assert gcd(total, 30) == gcd_many(zs, 30) == 1
    # oracle: exhaustive search over coefficient pairs confirms 1 is reachable
    assert any(
        gcd(a * 6 + b * 10 + 15, 30) == 1 for a in range(30) for b in range(30)
    )


def test_many_all_zero():
    us = combine_many([0, 0, 0], 8)
    assert gcd(0, 8) == 8
    total = sum(u * 0 for u in us) + 0
    assert gcd(total, 8) == 8


def test_many_property_random():
    rng = random.Random(3)
    for _ in range(1500):
        m = rng.randrange(2, 10**5)
        s = rng.randrange(1, 7)
        zs = [rng.randrange(m) for _ in range(s)]
        us = combine_many(zs, m)
        assert len(us) == s - 1
        total = sum(u * z for u, z in zip(us, zs[:-1])) + zs[-1]
        assert gcd(total, m) == gcd_many(zs, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**9), st.lists(st.integers(0, 10**12), min_size=1, max_size=6))
def test_many_gcd_property(m, raw):
    # the combination keeps the gcd of all values with m, the coefficients
    # are reduced mod m, and there is one per value but the last
    zs = [z % m for z in raw]
    us = combine_many(zs, m)
    assert len(us) == len(zs) - 1
    assert all(0 <= u < m for u in us)
    total = sum(u * z for u, z in zip(us, zs[:-1])) + zs[-1]
    assert gcd(total, m) == gcd_many(zs, m)


def test_scan_bound_holds_adversarially():
    # moduli that are products of many small primes exercise the sieve
    for m in (2 * 3 * 5 * 7, 2 * 3 * 5 * 7 * 11 * 13, 2**10, 3**7, 6**5):
        for z1 in range(0, m, max(1, m // 97)):
            z2 = (z1 * 7 + 13) % m
            _, steps = _combine_pair_stats(z1, z2, m)
            assert steps <= m.bit_length()


def test_input_validation():
    with pytest.raises(ValueError):
        combine_pair(5, 0, 5)  # z1 not reduced
    with pytest.raises(ValueError):
        combine_many([], 5)
    with pytest.raises(ValueError):
        combine_many([1, 7], 5)
