import hashlib
import random
from itertools import combinations, product as cartesian
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hspsim.lattice import (
    IntMatrix,
    SubgroupRep,
    contains_element,
    coset_element,
    coset_representative,
    enumerate_elements,
    equal_or_witness,
    format_matrix_text,
    full_subgroup,
    hermite_normal_form,
    invariant_factor_decomposition,
    join,
    least_with_pairing,
    lift_by_m,
    matrix_from_json,
    matrix_to_json,
    pairing_fibers,
    parse_matrix_text,
    perp_subgroup,
    section_map,
    smith_normal_form,
    subgroup_from_generators,
    subgroup_order,
    trivial_subgroup,
    _least_step,
)

from conftest import enumerate_subgroup_hnfs, lattice_points


def random_matrix(rng, n, s, bound=60):
    return IntMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(s)] for _ in range(n)]
    )


def random_unimodular(rng, n, ops=12):
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for _ in range(ops):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        q = rng.randrange(-3, 4)
        for i in range(n):
            cols[a][i] += q * cols[b][i]
    if rng.random() < 0.5 and n > 1:
        cols[0], cols[1] = cols[1], cols[0]
    return IntMatrix.from_columns(cols)


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_example_two_by_three():
    # oracle first: both lattices enumerate to the same point set in [0,12)^2
    M = IntMatrix.from_columns([(2, 3), (6, 0), (0, 6)])
    H, U = hermite_normal_form(M)
    assert H == M @ U
    assert U.is_unimodular()
    expected = [[2, 0, 0], [0, 3, 0]]
    assert H.to_lists() == expected

    def points(cols):
        pts = set()
        for c1, c2, c3 in cartesian(range(-12, 13), repeat=3):
            v = tuple(
                c1 * a + c2 * b + c3 * c for a, b, c in zip(cols[0], cols[1], cols[2])
            )
            if 0 <= v[0] < 12 and 0 <= v[1] < 12:
                pts.add(v)
        return pts

    assert points([(2, 3), (6, 0), (0, 6)]) == points([(2, 0), (0, 3), (0, 6)])


def test_hnf_identity_fixed_point():
    I = IntMatrix.identity(3)
    H, U = hermite_normal_form(I)
    assert H == I and U == I


def test_hnf_of_column_permutation_is_unchanged():
    H0 = IntMatrix.from_rows([[2, 0, 0], [1, 3, 0], [4, 2, 6]])
    cols = H0.columns()
    perm = IntMatrix.from_columns([cols[2], cols[0], cols[1]])
    H, _ = hermite_normal_form(perm)
    assert H == H0


def test_hnf_reconstruction_random(rng):
    for _ in range(150):
        n, s = rng.randrange(1, 5), rng.randrange(1, 6)
        M = random_matrix(rng, n, s)
        H, U = hermite_normal_form(M)
        assert H == M @ U
        assert U.is_unimodular()


def test_hnf_unique_under_unimodular_right_factor(rng):
    for _ in range(60):
        n = rng.randrange(1, 4)
        M = random_matrix(rng, n, n)
        V = random_unimodular(rng, n)
        H1, _ = hermite_normal_form(M)
        H2, _ = hermite_normal_form(M @ V)
        assert H1 == H2


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_diag_4_6():
    M = IntMatrix.diagonal([4, 6])
    S, L, R = smith_normal_form(M)
    assert S == (L @ M) @ R
    d = [S.data[0][0], S.data[1][1]]
    # oracle: d1 = gcd of all entries, d1*d2 = |det|
    assert d[0] == 2 and d[0] * d[1] == abs(M.det())
    assert S.to_lists() == [[2, 0], [0, 12]]


def test_snf_zero_matrix():
    M = IntMatrix.from_rows([[0, 0], [0, 0]])
    S, L, R = smith_normal_form(M)
    assert S == M and L == IntMatrix.identity(2) and R == IntMatrix.identity(2)


def test_snf_discrete_log_shape():
    o, d = 12, 5
    M = IntMatrix.from_rows([[1, 0], [o - d, o]])
    S, L, R = smith_normal_form(M)
    assert S == (L @ M) @ R
    assert S.to_lists() == [[1, 0], [0, 12]]


def test_snf_reconstruction_and_divisibility(rng):
    for _ in range(150):
        n, s = rng.randrange(1, 5), rng.randrange(1, 5)
        M = random_matrix(rng, n, s)
        S, L, R = smith_normal_form(M)
        assert S == (L @ M) @ R
        assert L.is_unimodular() and R.is_unimodular()
        diag = [S.data[i][i] for i in range(min(n, s))]
        for i in range(min(n, s)):
            for j in range(min(n, s)):
                if i != j:
                    assert S.data[i][j] == 0 if j < s and i < n else True
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
            if a == 0:
                assert b == 0


def _unimodular(data, size):
    """A random unimodular matrix: the identity under drawn row additions,
    swaps and negations."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        op = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            t = data.draw(st.integers(-3, 3))
            rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def _determinantal_divisors(M):
    """gcd of all k x k minors of M, for k = 1 .. min(rows, cols)."""
    out = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                sub = IntMatrix.from_rows([[M.data[r][c] for c in cols] for r in rows])
                g = gcd(g, sub.det())
        out.append(abs(g))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_snf_reconstruction_and_uniqueness_property(data):
    # S = L M R with L, R unimodular and S diagonal with d_1 | d_2 | ...;
    # the diagonal is unique: its prefix products are the gcds of the minors,
    # and an equivalent matrix U M V has the same Smith form
    n, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.integers(-30, 30)
    M = IntMatrix.from_rows([[data.draw(entry) for _ in range(s)] for _ in range(n)])
    S, L, R = smith_normal_form(M)
    assert S == (L @ M) @ R
    assert L.is_unimodular() and R.is_unimodular()
    assert all(S.data[i][j] == 0 for i in range(n) for j in range(s) if i != j)
    diag = [S.data[i][i] for i in range(min(n, s))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0
    prefix = 1
    for d, divisor in zip(diag, _determinantal_divisors(M)):
        prefix *= d
        assert prefix == divisor
    U, V = _unimodular(data, n), _unimodular(data, s)
    assert smith_normal_form((U @ M) @ V)[0] == S


# A pinned SHA-256 over S, L and R of `smith_normal_form` and the
# `invariant_factor_decomposition` (or its error) of a fixed seeded batch, so
# that the multipliers cannot move silently.  A change that alters them on
# purpose must say so and re-pin.
SMITH_PINNED = "5f5be5bae1e6844a6b92c93e8ee9ca1bc6e8d6c60196054a06f199a2f0c3480a"


def test_smith_outputs_are_pinned():
    # shapes up to 6 x 7, entries up to +-1000, about a fifth of them zero
    rng = random.Random(2023)
    digest = hashlib.sha256()
    for _ in range(400):
        n, s = rng.randint(1, 6), rng.randint(1, 7)
        M = IntMatrix.from_rows(
            [[0 if rng.random() < 0.2 else rng.randint(-1000, 1000) for _ in range(s)]
             for _ in range(n)]
        )
        S, L, R = smith_normal_form(M)
        try:
            dec = invariant_factor_decomposition(M, n)
            factored = (dec.factors, dec.generator_matrix and dec.generator_matrix.data)
        except ValueError as exc:
            factored = str(exc)
        digest.update(repr((S.data, L.data, R.data, factored)).encode())
    assert digest.hexdigest() == SMITH_PINNED


# ---------------------------------------------------------------------------
# Subgroup representation


def test_subgroup_from_no_generators_is_scalar_lattice():
    rep = subgroup_from_generators([], 6, 1, 3)
    assert rep.hnf == IntMatrix.diagonal([6, 6, 6])
    rep2 = subgroup_from_generators([], 2, 3, 2)
    assert rep2.hnf == IntMatrix.diagonal([8, 8])


def test_subgroup_from_unit_vectors_is_identity():
    rep = subgroup_from_generators([(1, 0), (0, 1)], 6, 1, 2)
    assert rep.hnf == IntMatrix.identity(2)


def test_subgroup_single_generator_mod6():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    assert rep.hnf.to_lists() == [[2, 0], [0, 3]]
    # oracle: the six multiples of (2,3) in Z_6^2 equal the lattice points
    multiples = {tuple((t * g) % 6 for g in (2, 3)) for t in range(6)}
    assert multiples == lattice_points(rep.hnf.to_lists(), 6, 2)


def test_subgroup_idempotent_on_own_columns(rng):
    for _ in range(40):
        m, n = rng.choice([2, 3, 4, 6]), rng.randrange(1, 4)
        gens = [
            tuple(rng.randrange(m) for _ in range(n)) for _ in range(rng.randrange(3))
        ]
        rep = subgroup_from_generators(gens, m, 1, n)
        again = subgroup_from_generators(rep.hnf.columns(), m, 1, n)
        assert again.hnf == rep.hnf


def test_subgroup_rep_validation():
    with pytest.raises(ValueError):
        SubgroupRep(6, 1, 2, IntMatrix.from_rows([[2, 1], [0, 3]]))  # upper entry
    with pytest.raises(ValueError):
        SubgroupRep(6, 1, 2, IntMatrix.from_rows([[5, 0], [0, 5]]))  # no m Z^n
    with pytest.raises(ValueError):
        SubgroupRep(6, 1, 2, IntMatrix.from_rows([[-2, 0], [0, 3]]))


def test_subgroup_order_examples():
    assert subgroup_order(trivial_subgroup(6, 1, 2)) == 1
    assert subgroup_order(full_subgroup(6, 1, 2)) == 36
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    assert subgroup_order(rep) == 6
    assert len(set(enumerate_elements(rep))) == 6


def test_contains_element_examples():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    assert contains_element(rep, (0, 0))
    assert contains_element(rep, (4, 0))  # 2*(2,3) = (4,6) = (4,0) mod 6
    assert not contains_element(trivial_subgroup(2, 1, 1), (1,))
    elements = lattice_points(rep.hnf.to_lists(), 6, 2)
    for v in cartesian(range(6), repeat=2):
        assert contains_element(rep, v) == (v in elements)


def test_coset_representative_is_canonical():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    reps = {coset_representative(rep, v) for v in cartesian(range(6), repeat=2)}
    assert len(reps) == 36 // 6
    for v in cartesian(range(6), repeat=2):
        r = coset_representative(rep, v)
        diff = tuple((a - b) % 6 for a, b in zip(v, r))
        assert contains_element(rep, diff)


@pytest.mark.parametrize(
    "gens, m, k, n",
    [
        ([(3, 1)], 3, 2, 2),
        ([(2, 1, 3), (0, 2, 2)], 2, 2, 3),
        ([(6, 3, 0), (0, 4, 2)], 2, 3, 3),
    ],
)
def test_coset_representative_matches_lattice_brute_force(gens, m, k, n):
    # exponent k > 1: representatives lie in the fundamental box, differ from
    # their input by a lattice point, and coincide exactly on cosets
    rep = subgroup_from_generators(gens, m, k, n)
    q = m**k
    assert any(rep.hnf.data[i][j] for i in range(n) for j in range(i))
    pts = lattice_points(rep.hnf.to_lists(), q, n)
    box = [rep.hnf.data[i][i] for i in range(n)]
    space = list(cartesian(range(q), repeat=n))
    reps = {v: coset_representative(rep, v) for v in space}
    for v, r in reps.items():
        assert all(0 <= x < d for x, d in zip(r, box))
        assert tuple((a - b) % q for a, b in zip(v, r)) in pts
    for v in space:
        for w in space:
            same = tuple((a - b) % q for a, b in zip(v, w)) in pts
            assert (reps[v] == reps[w]) == same
    assert len(set(reps.values())) * len(pts) == q**n


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subgroup_hnf_matches_hermite_normal_form(data):
    # the multiplier-free kernel behind subgroup_from_generators must give the
    # same basis as the public HNF of the generators plus m^k * I
    n = data.draw(st.integers(2, 6))
    m = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, 2))
    q = m**k
    vec = st.tuples(*[st.integers(-2 * q, 2 * q)] * n)
    gens = data.draw(st.lists(vec, max_size=2 * n))
    rep = subgroup_from_generators(gens, m, k, n)
    scalar = [tuple(q if i == j else 0 for i in range(n)) for j in range(n)]
    H, _ = hermite_normal_form(IntMatrix.from_columns(list(gens) + scalar))
    assert rep.hnf.data == tuple(row[:n] for row in H.data)
    assert all(v == 0 for row in H.data for v in row[n:])


def test_equal_or_witness():
    a = subgroup_from_generators([(2, 3)], 6, 1, 2)
    assert equal_or_witness(a, a) is None
    t = trivial_subgroup(2, 1, 1)
    f = full_subgroup(2, 1, 1)
    assert equal_or_witness(t, f) == (1,)
    b = subgroup_from_generators([(2, 3), (0, 1)], 6, 1, 2)
    w = equal_or_witness(a, b)
    assert w is not None
    assert contains_element(b, w) and not contains_element(a, w)
    with pytest.raises(ValueError):
        equal_or_witness(b, a)  # containment violated


def test_witness_never_in_smaller_subgroup(rng):
    for m, n in [(4, 2), (6, 2), (8, 2), (12, 2)]:
        cat = enumerate_subgroup_hnfs(m, n)
        reps = [SubgroupRep(m, 1, n, IntMatrix.from_rows(h)) for h in cat]
        pts = {r.hnf.data: lattice_points(r.hnf.to_lists(), m, n) for r in reps}
        for a in reps:
            for b in reps:
                if pts[a.hnf.data] < pts[b.hnf.data]:
                    w = equal_or_witness(a, b)
                    assert w in pts[b.hnf.data] and w not in pts[a.hnf.data]


def test_join_grows_lattice():
    a = trivial_subgroup(6, 1, 2)
    b = join(a, [(2, 3)])
    assert b.hnf.to_lists() == [[2, 0], [0, 3]]


# ---------------------------------------------------------------------------
# Duality


def test_perp_trivial_and_full():
    t = trivial_subgroup(6, 1, 2)
    f = full_subgroup(6, 1, 2)
    assert perp_subgroup(t).hnf == f.hnf
    assert perp_subgroup(f).hnf == t.hnf


@pytest.mark.parametrize("m", range(2, 13))
def test_perp_of_trivial_is_the_full_group(m):
    # solve_hsp_zmn starts its target at full_subgroup instead of computing
    # the perp of its trivial start
    for n in range(1, 5):
        assert perp_subgroup(trivial_subgroup(m, 1, n)) == full_subgroup(m, 1, n)


def test_perp_example_mod6():
    a = subgroup_from_generators([(2, 3)], 6, 1, 2)
    p = perp_subgroup(a)
    assert subgroup_order(p) == 6
    a_pts = lattice_points(a.hnf.to_lists(), 6, 2)
    p_pts = lattice_points(p.hnf.to_lists(), 6, 2)
    # brute force over all 36 elements
    expected = {
        y
        for y in cartesian(range(6), repeat=2)
        if all(sum(xi * yi for xi, yi in zip(x, y)) % 6 == 0 for x in a_pts)
    }
    assert p_pts == expected


def test_perp_rejects_higher_exponent():
    rep = trivial_subgroup(2, 2, 1)
    with pytest.raises(ValueError):
        perp_subgroup(rep)


def test_perp_involution_and_order_product():
    for m, n in [(2, 2), (3, 2), (4, 2), (6, 2), (5, 1), (12, 1)]:
        for h in enumerate_subgroup_hnfs(m, n):
            rep = SubgroupRep(m, 1, n, IntMatrix.from_rows(h))
            p = perp_subgroup(rep)
            assert perp_subgroup(p).hnf == rep.hnf
            assert subgroup_order(rep) * subgroup_order(p) == m**n


@st.composite
def small_subgroups(draw, max_points=1000, exponents=(1,)):
    """A subgroup of Z_{m^k}^n with m^(k*n) <= max_points, by random
    generators."""
    m, k, n = draw(st.sampled_from([
        (m, k, n) for m in range(2, 13) for k in exponents for n in range(1, 5)
        if m ** (k * n) <= max_points
    ]))
    vec = st.tuples(*[st.integers(0, m**k - 1)] * n)
    return subgroup_from_generators(draw(st.lists(vec, max_size=n + 1)), m, k, n)


def pairing(u, y, m):
    return sum(a * b for a, b in zip(u, y)) % m


@settings(max_examples=80, deadline=None)
@given(small_subgroups())
def test_perp_is_the_brute_force_complement(rep):
    m, n = rep.m, rep.n
    points = lattice_points(rep.hnf.to_lists(), m, n)
    perp = perp_subgroup(rep)
    expected = {y for y in cartesian(range(m), repeat=n)
                if all(pairing(x, y, m) == 0 for x in points)}
    assert set(enumerate_elements(perp)) == expected
    assert perp_subgroup(perp).hnf == rep.hnf
    assert len(points) * subgroup_order(perp) == m**n


@settings(max_examples=80, deadline=None)
@given(small_subgroups())
def test_perp_is_an_involution_kept_on_the_rep(rep):
    perp = perp_subgroup(rep)
    assert perp_subgroup(perp) == rep
    assert perp_subgroup(rep) is perp
    assert rep.det() == rep.hnf.det() == subgroup_order(perp)


@settings(max_examples=80, deadline=None)
@given(small_subgroups(), st.data())
def test_pairing_fibers_match_the_pairing_histogram(rep, data):
    # every fiber of y -> (u, y) on the subgroup, listed in order by rank
    m, n = rep.m, rep.n
    u = data.draw(st.tuples(*[st.integers(-m, 2 * m)] * n))
    fibers = {}
    for y in sorted(enumerate_elements(rep)):
        fibers.setdefault(pairing(u, y, m), []).append(y)
    d, y_d, kernel = pairing_fibers(rep, u)
    assert pairing(u, y_d, m) == d % m and contains_element(rep, y_d)
    assert sorted(fibers) == list(range(0, m, d))
    assert {len(ys) for ys in fibers.values()} == {subgroup_order(rep) * d // m}
    for a, ys in fibers.items():
        start = [a // d * y for y in y_d]
        assert [coset_element(kernel, m, start, r) for r in range(len(ys))] == ys


@settings(max_examples=80, deadline=None)
@given(small_subgroups(), st.data())
def test_coset_element_is_the_sorted_coset(rep, data):
    m, n = rep.m, rep.n
    start = data.draw(st.tuples(*[st.integers(-3 * m, 3 * m)] * n))
    kernel = rep.hnf.columns()
    coset = sorted({tuple((a + b) % m for a, b in zip(start, y))
                    for y in enumerate_elements(rep)})
    assert [coset_element(kernel, m, start, r) for r in range(len(coset))] == coset
    with pytest.raises(ValueError):
        coset_element(kernel, m, start, len(coset))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_least_step_is_the_first_hit_of_brute_force(data):
    g = data.draw(st.integers(1, 300))
    c, s = data.draw(st.integers(-g, 2 * g)), data.draw(st.integers(-g, 2 * g))
    lo = data.draw(st.integers(0, g - 1))
    hi = data.draw(st.integers(lo, g - 1))
    # (c + k * s) mod g repeats with period dividing g
    want = next((k for k in range(g) if lo <= (c + k * s) % g <= hi), None)
    assert _least_step(c, s, g, lo, hi) == want


def test_least_step_handles_moduli_far_past_the_recursion_limit():
    # consecutive Fibonacci numbers take Euclid's longest path
    a, b = 1, 1
    while b < 2**1600:
        a, b = b, a + b
    k = _least_step(0, a, b, b - 3, b - 1)
    assert b - 3 <= k * a % b <= b - 1
    assert all(not b - 3 <= t * a % b for t in range(min(k, 10**4)))


@settings(max_examples=80, deadline=None)
@given(small_subgroups(), st.data())
def test_least_with_pairing_is_the_least_flagged_element(rep, data):
    m, n = rep.m, rep.n
    u = data.draw(st.tuples(*[st.integers(0, m - 1)] * n))
    high = data.draw(st.integers(1, m - 1))
    low = data.draw(st.integers(0, high - 1))
    hits = [y for y in sorted(enumerate_elements(rep))
            if 1 <= pairing(u, y, m) <= low or pairing(u, y, m) >= high]
    if not hits:
        with pytest.raises(ValueError):
            least_with_pairing(rep, u, low, high)
    else:
        assert least_with_pairing(rep, u, low, high) == (hits[0], pairing(u, hits[0], m))


@settings(max_examples=80, deadline=None)
@given(small_subgroups(exponents=(1, 2)), st.data())
def test_reps_built_from_an_hnf_pass_the_outside_basis_checks(rep, data):
    # grown and complement reps skip __post_init__; rebuilding each from its
    # basis runs those checks
    m, k, n = rep.m, rep.k, rep.n
    vecs = data.draw(st.lists(st.tuples(*[st.integers(-m, 2 * m)] * n), max_size=3))
    built = [join(rep, vecs), subgroup_from_generators(vecs, m, k, n)]
    if k == 1:
        built.append(perp_subgroup(rep))
    for b in built:
        assert SubgroupRep(b.m, b.k, b.n, b.hnf) == b


def test_least_with_pairing_needs_exponent_one():
    with pytest.raises(ValueError, match="k = 1"):
        least_with_pairing(trivial_subgroup(2, 2, 2), (1, 0), 0, 2)


def test_a_grown_full_group_is_the_shared_rep():
    # its complement is then computed once and kept
    full = full_subgroup(6, 1, 3)
    assert subgroup_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 6, 1, 3) is full
    assert join(trivial_subgroup(6, 1, 3), [(1, 2, 3), (0, 1, 0), (0, 0, 5)]) is full
    assert join(trivial_subgroup(6, 1, 3), [(2, 0, 0)]) is not full


# ---------------------------------------------------------------------------
# Divide-by-m lifting


def test_lift_examples():
    h0 = trivial_subgroup(3, 2, 2)
    k0 = lift_by_m(h0)
    assert k0.hnf == IntMatrix.diagonal([3, 3])
    assert lift_by_m(full_subgroup(3, 2, 2)).hnf == IntMatrix.identity(2)
    h = subgroup_from_generators([(2,)], 2, 2, 1)
    assert lift_by_m(h).hnf == IntMatrix.identity(1)  # all of Z_4


def test_lift_matches_enumeration():
    for m, k, n in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (6, 2, 1)]:
        q = m**k
        for h in enumerate_subgroup_hnfs(m, n, k):
            rep = SubgroupRep(m, k, n, IntMatrix.from_rows(h))
            lifted = lift_by_m(rep)
            pts = lattice_points(rep.hnf.to_lists(), q, n)
            expected = {
                x
                for x in cartesian(range(q), repeat=n)
                if tuple((m * v) % q for v in x) in pts
            }
            assert lattice_points(lifted.hnf.to_lists(), q, n) == expected
            for col in rep.hnf.columns():
                assert contains_element(lifted, col)


@settings(max_examples=60, deadline=None)
@given(small_subgroups(max_points=4096, exponents=(1, 2, 3)))
def test_lift_is_the_enumerated_preimage_of_multiplication_by_m(rep):
    m, q, n = rep.m, rep.modulus, rep.n
    expected = {x for x in cartesian(range(q), repeat=n)
                if contains_element(rep, [m * v for v in x])}
    assert set(enumerate_elements(lift_by_m(rep))) == expected


@settings(max_examples=60, deadline=None)
@given(small_subgroups(exponents=(1, 2, 3)))
def test_lift_and_section_read_one_smith_form(rep):
    # section_map first, so lift_by_m reads the section the rep keeps
    m, n = rep.m, rep.n
    S, L, _ = smith_normal_form(rep.hnf)
    diag = [S.data[i][i] for i in range(n)]
    section = section_map(rep)
    assert section.g == tuple(gcd(d, m) for d in diag)
    # the columns are L^-1's, stretched by d_i / g_i
    unstretched = []
    for col, d, g in zip(section.cols, diag, section.g):
        assert all(c % (d // g) == 0 for c in col)
        unstretched.append([c // (d // g) for c in col])
    assert L @ IntMatrix.from_columns(unstretched) == IntMatrix.identity(n)
    lifted = lift_by_m(rep)
    assert lifted == subgroup_from_generators(section.cols, m, rep.k, n)
    assert section_map(rep, lifted) == section


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_section_is_linear_modulo_its_subgroup(data):
    # section(x) - sum of x_i * cols_i lies in the rep, for any integer x:
    # the claim `SectionMap.preimage` rests on
    rep = data.draw(small_subgroups(exponents=(1, 2, 3)))
    x = data.draw(st.tuples(*[st.integers(-3 * rep.m, 3 * rep.m)] * rep.n))
    section = section_map(rep)
    linear = [sum(xi * col[l] for xi, col in zip(x, section.cols)) for l in range(rep.n)]
    assert contains_element(rep, [a - b for a, b in zip(section(x), linear)])


def test_section_map_examples():
    # m=2, k=2: subgroup <2> of Z_4 lifts to everything; the section hits a
    # transversal of Z_4 / <2>
    h = subgroup_from_generators([(2,)], 2, 2, 1)
    k0 = lift_by_m(h)
    sec = section_map(h, k0)
    image = {sec((x,)) for x in range(2)}
    assert image == {(2,), (1,)}

    # m=3, k=2, trivial subgroup: the induced map into <3>/{0} is injective
    h2 = trivial_subgroup(3, 2, 1)
    sec2 = section_map(h2, lift_by_m(h2))
    vals = [sec2((x,)) for x in range(3)]
    assert vals == [(0,), (3,), (6,)]
    assert len(set(vals)) == 3


def test_section_map_is_homomorphism_mod_subgroup():
    for m, k, n in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (6, 2, 1)]:
        q = m**k
        for h in enumerate_subgroup_hnfs(m, n, k):
            rep = SubgroupRep(m, k, n, IntMatrix.from_rows(h))
            k0 = lift_by_m(rep)
            sec = section_map(rep, k0)
            for x in cartesian(range(m), repeat=n):
                assert contains_element(k0, sec(x))
            for x in cartesian(range(m), repeat=n):
                for y in cartesian(range(m), repeat=n):
                    s = tuple((a + b) % m for a, b in zip(x, y))
                    lhs = sec(s)
                    rhs = tuple((a + b) % q for a, b in zip(sec(x), sec(y)))
                    diff = tuple((a - b) % q for a, b in zip(lhs, rhs))
                    assert contains_element(rep, diff)
            # the induced map reaches every coset of the lift
            images = {coset_representative(rep, sec(x)) for x in cartesian(range(m), repeat=n)}
            cosets = {
                coset_representative(rep, v)
                for v in lattice_points(k0.hnf.to_lists(), q, n)
            }
            assert images == cosets


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_section_preimage_is_the_brute_force_preimage(data):
    # for current <= H in Z_{m^k}^n: the x in Z_m^n with
    # section(x) - section(0) in H, against the composed map's own preimage
    m, k, n = data.draw(st.sampled_from(
        [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (4, 2, 2), (6, 2, 1),
         (2, 3, 2), (6, 2, 2)]
    ))
    q = m**k
    vec = st.tuples(*[st.integers(0, q - 1)] * n)
    current = subgroup_from_generators(data.draw(st.lists(vec, max_size=n)), m, k, n)
    hidden = join(current, data.draw(st.lists(vec, max_size=n)))
    sec = section_map(current, lift_by_m(current))
    base = sec((0,) * n)
    expected = {x for x in cartesian(range(m), repeat=n)
                if contains_element(hidden, [a - b for a, b in zip(sec(x), base)])}
    pre = sec.preimage(hidden)
    assert (pre.m, pre.k, pre.n) == (m, 1, n)
    assert set(enumerate_elements(pre)) == expected


# ---------------------------------------------------------------------------
# Invariant factors


def test_invariant_factors_free_module():
    dec = invariant_factor_decomposition(IntMatrix.diagonal([6, 6]), 2)
    assert dec.factors == (6, 6)
    assert dec.nprime == 2


def test_invariant_factors_cyclic_quotient():
    dec = invariant_factor_decomposition(IntMatrix.diagonal([2, 3]), 2)
    assert dec.factors == (6,)
    # the single generator must have order 6 in Z^2 / diag(2,3)
    (row,) = dec.generator_matrix.to_lists()
    order = 0
    v = (0, 0)
    for t in range(1, 7):
        v = ((v[0] + row[0]) % 2, (v[1] + row[1]) % 3)
        if v == (0, 0):
            order = t
            break
    assert order == 6


def test_invariant_factors_discrete_log_matrix():
    o, d = 12, 5
    dec = invariant_factor_decomposition(
        IntMatrix.from_rows([[1, 0], [o - d, o]]), 2
    )
    assert dec.factors == (12,)
    # quotient enumeration: Z^2 / lattice has 12 classes
    pts = lattice_points([[1, 0], [o - d, o]], o, 2)
    assert (o * o) // len(pts) * len(pts) == o * o
    assert o * o // len(pts) == 12


def test_invariant_factors_reject_infinite():
    with pytest.raises(ValueError):
        invariant_factor_decomposition(IntMatrix.from_rows([[2, 0], [0, 0]]), 2)


def test_generator_matrix_relations_hold(rng):
    # Exponent rows must generate the quotient with the stated orders:
    # z_i has order f_i and the z_i together hit every class exactly once.
    for _ in range(30):
        n = rng.randrange(1, 4)
        q = rng.choice([4, 6, 8, 12])
        h = rng.choice(enumerate_subgroup_hnfs(q, n))
        mat = IntMatrix.from_rows(h)
        dec = invariant_factor_decomposition(mat, n)

        # order check inside Z^n / lattice, via repeated addition and membership
        def in_lattice(vec):
            c = [0] * n
            for i in range(n):
                r = vec[i] - sum(mat.data[i][j] * c[j] for j in range(i))
                qq, rem = divmod(r, mat.data[i][i])
                if rem:
                    return False
                c[i] = qq
            return True

        total = 1
        for f in dec.factors:
            total *= f
        assert total == abs(mat.det())
        if dec.generator_matrix is None:
            continue
        for row, f in zip(dec.generator_matrix.to_lists(), dec.factors):
            acc = tuple(0 for _ in range(n))
            order = None
            for t in range(1, f + 1):
                acc = tuple(a + b for a, b in zip(acc, row))
                if in_lattice(acc):
                    order = t
                    break
            assert order == f


# ---------------------------------------------------------------------------
# Text formats


def test_matrix_text_roundtrip():
    M = IntMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
    assert parse_matrix_text(format_matrix_text(M)) == M
    assert matrix_from_json(matrix_to_json(M)) == M


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n1 2\n3")
    with pytest.raises(ValueError):
        parse_matrix_text("1\n1")


def test_normal_forms_with_large_entries(rng):
    for _ in range(25):
        n, s = rng.randrange(1, 4), rng.randrange(1, 4)
        M = random_matrix(rng, n, s, bound=10**12)
        H, U = hermite_normal_form(M)
        assert H == M @ U and U.is_unimodular()
        S, L, R = smith_normal_form(M)
        assert S == (L @ M) @ R
        assert L.is_unimodular() and R.is_unimodular()


def test_hnf_rank_deficient_inputs(rng):
    # zero rows and dependent columns: the form is still canonical per lattice
    M = IntMatrix.from_rows([[0, 0], [1, 2]])
    H, U = hermite_normal_form(M)
    assert H == M @ U and U.is_unimodular()
    for _ in range(40):
        n = rng.randrange(2, 4)
        base = [rng.randrange(-9, 10) for _ in range(n)]
        scal = [[v * rng.randrange(-3, 4) for v in base] for _ in range(n)]
        M = IntMatrix.from_rows(scal)  # rank <= 1 rows
        H1, U1 = hermite_normal_form(M)
        assert H1 == M @ U1 and U1.is_unimodular()
        V = random_unimodular(rng, n)
        H2, _ = hermite_normal_form(M @ V)
        assert H2 == H1
