import json

import pytest
from hypothesis import given, settings, strategies as st

from hspsim.groups import (
    BadOrderError,
    GroupArith,
    PermutationBackend,
    TableBackend,
    UnitsBackend,
    load_group,
)

from conftest import (
    backend_elements,
    brute_element_order,
    closure,
    make_a5,
    make_d4,
    make_heisenberg3,
    make_q8,
    make_s3,
    make_units15,
    perm_mul,
)


def test_permutation_encode_decode_roundtrip():
    b = PermutationBackend(4, [(1, 2, 3, 0)])
    for perm in [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2)]:
        assert b.decode(b.encode(perm)) == perm
    with pytest.raises(ValueError):
        b.encode((0, 0, 1, 2))


def test_permutation_mul_is_composition():
    b = PermutationBackend(3, [])
    p = (1, 2, 0)
    q = (1, 0, 2)
    code = b.mul(b.encode(p), b.encode(q))
    assert b.decode(code) == perm_mul(p, q)


def _permutations(degree):
    return st.permutations(range(degree)).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_permutation_products_match_composition(data):
    # each product is composed on cached images; every call counts once
    degree = data.draw(st.integers(1, 6))
    perms = data.draw(st.lists(_permutations(degree), min_size=2, max_size=8))
    b = PermutationBackend(degree, [])
    for calls, (p, q) in enumerate(zip(perms, perms[1:] + perms[:1]), start=1):
        code = b.mul(b.encode(p), b.encode(q))
        assert b.decode(code) == perm_mul(p, q)
        assert b.mul_calls == calls


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutation_mul_rejects_a_non_permutation_code(data):
    degree = data.draw(st.integers(2, 6))
    images = data.draw(
        st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree)
        .filter(lambda v: sorted(v) != list(range(degree)))
    )
    bad = sum(v * degree**i for i, v in enumerate(images))
    b = PermutationBackend(degree, [])
    good = b.encode(data.draw(_permutations(degree)))
    b.mul(good, good)
    for a, c in ((bad, good), (good, bad), (bad, good)):
        with pytest.raises(ValueError):
            b.mul(a, c)


def test_table_backend_identity_detection():
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    b = TableBackend(table, [1])
    assert b.identity_code() == 0
    assert b.mul(2, 4) == 1


def test_units_backend_validates():
    with pytest.raises(ValueError):
        UnitsBackend(15, [3])
    b = UnitsBackend(15, [2])
    assert b.mul(2, 8) == 1


def test_mul_call_counter():
    b = UnitsBackend(15, [2])
    before = b.mul_calls
    b.mul(2, 2)
    b.mul(4, 4)
    assert b.mul_calls == before + 2


def test_load_group_kinds():
    b, m = load_group(
        {"kind": "permutation", "degree": 3, "m": 6, "generators": [[1, 0, 2]]}
    )
    assert b.kind == "permutation" and m == 6
    b2, m2 = load_group(
        json.dumps({"kind": "units", "modulus": 15, "m": 2, "generators": [2, 14]})
    )
    assert b2.kind == "units" and m2 == 2
    b3, _ = load_group(
        {"kind": "table", "size": 2, "table": [[0, 1], [1, 0]], "generators": [1]}
    )
    assert b3.mul(1, 1) == 0
    with pytest.raises(ValueError):
        load_group({"kind": "nope"})


# ---------------------------------------------------------------------------
# Derived arithmetic


def test_identity_derived_from_powers():
    backend, m = make_s3()
    arith = GroupArith(backend, m)
    e = arith.identity()
    assert backend.decode(e) == (0, 1, 2)
    for g in backend.generators:
        assert arith.mul(e, g) == g == arith.mul(g, e)


def test_inverse_via_power_trick():
    backend, m = make_s3()
    arith = GroupArith(backend, m)
    elements, identity = backend_elements(backend)
    for x in elements:
        assert arith.mul(x, arith.inverse(x)) == identity


def test_power_negative_exponents():
    backend, m = make_units15()
    arith = GroupArith(backend, m)
    assert arith.power(2, -1) == 8  # 2 * 8 = 16 = 1 mod 15
    assert arith.power(2, 0) == 1
    assert arith.power(2, 5) == 2


def test_order_exponent_identity_is_zero():
    backend, m = make_s3()
    arith = GroupArith(backend, m)
    assert arith.order_m_exponent(arith.identity()) == 0


def test_order_exponent_units15():
    backend, m = make_units15()
    arith = GroupArith(backend, 2)
    assert arith.order_m_exponent(2) == 2  # order four divides 2^2
    assert arith.order_m_exponent(14) == 1
    assert arith.order_m_exponent(4) == 1


def test_order_exponent_not_dividing():
    backend, _ = make_s3()
    arith = GroupArith(backend, 2)
    three_cycle = backend.encode((1, 2, 0))
    assert arith.order_m_exponent(three_cycle) is None
    with pytest.raises(BadOrderError):
        arith.inverse(three_cycle)


def test_commutator_and_conjugate():
    backend, m = make_s3()
    arith = GroupArith(backend, m)
    elements, identity = backend_elements(backend)
    for a in elements:
        for b in elements:
            c = arith.commutator(a, b)
            # definition check: a*b = b*a*[a,b]
            assert arith.mul(arith.mul(b, a), c) == arith.mul(a, b)
        assert arith.conjugate(a, identity) == a


def test_zoo_orders_by_closure():
    for make, expected in [
        (make_s3, 6),
        (make_d4, 8),
        (make_q8, 8),
        (make_heisenberg3, 27),
        (make_units15, 8),
        (make_a5, 60),
    ]:
        backend, _ = make()
        elements, _ = backend_elements(backend)
        assert len(elements) == expected


def test_element_orders_divide_group_order():
    backend, m = make_q8()
    elements, identity = backend_elements(backend)
    for x in elements:
        assert 8 % brute_element_order(backend.mul, identity, x) == 0


def test_encode_element_per_kind():
    pb = PermutationBackend(3, [])
    assert pb.encode_element([1, 0, 2]) == pb.encode((1, 0, 2))
    tb = TableBackend([[0, 1], [1, 0]], [1])
    assert tb.encode_element(1) == 1
    with pytest.raises(ValueError):
        tb.encode_element(5)
    ub = UnitsBackend(15, [2])
    assert ub.encode_element(17) == 2
    with pytest.raises(ValueError):
        ub.encode_element(5)
