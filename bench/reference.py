"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports hspsim.  Subgroup catalogs, lattice identities and group
facts are computed from first principles (enumeration, elimination, closure,
counting), so a wrong answer from the layer being timed cannot also be the
expected answer.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# Subgroups of Z_q^n as lower-triangular bases (rows), q = m^k


def tri_contains(rows, vec) -> bool:
    """Whether vec lies in the column lattice of a lower-triangular basis."""
    c = []
    for i, row in enumerate(rows):
        r = vec[i] - sum(row[j] * c[j] for j in range(i))
        if r % row[i]:
            return False
        c.append(r // row[i])
    return True


def _holds_q_units(rows, q: int) -> bool:
    """Whether the leading block of rows contains q*e_j for every j it spans."""
    width = len(rows)
    return all(
        tri_contains(rows, [q if t == j else 0 for t in range(width)])
        for j in range(width)
    )


def subgroup_hnfs(m: int, n: int, k: int = 1) -> list[tuple[tuple[int, ...], ...]]:
    """Every subgroup of Z_{m^k}^n, as the rows of its reduced lower-triangular
    basis.  Rows are added top-down and a prefix is dropped as soon as its
    leading block fails to contain q*Z^i, which is exact because forward
    substitution through the first i rows depends on those rows only."""
    q = m**k
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    out = []

    def grow(rows):
        i = len(rows)
        if i == n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for d in divisors:
            for offsets in product(range(d), repeat=i):
                rows.append(list(offsets) + [d])
                if _holds_q_units(rows, q):
                    grow(rows)
                rows.pop()

    grow([])
    return [tuple(row + (0,) * (n - len(row)) for row in hnf) for hnf in out]


def subgroup_hnf(gens, q: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced lower-triangular basis (rows) of the lattice spanned by gens and
    q*Z^n, by plain gcd elimination one coordinate at a time."""
    vecs = [[int(x) % q for x in g] for g in gens]
    vecs += [[q if i == j else 0 for i in range(n)] for j in range(n)]
    basis = []
    for r in range(n):
        pivot = None
        rest = []
        for v in vecs:
            if v[r] == 0:
                rest.append(v)
            elif pivot is None:
                pivot = v
            else:
                g, x, y = xgcd(pivot[r], v[r])
                a, b = pivot[r] // g, v[r] // g
                pivot, other = (
                    [x * p + y * w for p, w in zip(pivot, v)],
                    [b * p - a * w for p, w in zip(pivot, v)],
                )
                rest.append(other)
        if pivot[r] < 0:
            pivot = [-p for p in pivot]
        basis.append(pivot)
        # the rest may be reduced mod q because q*e_t (t > r) spans with them
        vecs = [[x % q for x in v] for v in rest]
        vecs = [v for v in vecs if any(v)]
        vecs += [[q if i == t else 0 for i in range(n)] for t in range(r + 1, n)]
    for i in range(n):
        for j in range(i):
            t = basis[j][i] // basis[i][i]
            if t:
                basis[j] = [a - t * b for a, b in zip(basis[j], basis[i])]
    return tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))


def is_subgroup_hnf(rows, q: int) -> bool:
    """Reduced lower-triangular form of a lattice containing q*Z^n."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n or row[i] <= 0 or any(row[j] for j in range(i + 1, n)):
            return False
        if any(not 0 <= row[j] < row[i] for j in range(i)):
            return False
    return _holds_q_units(rows, q)


def subgroup_size(rows, q: int) -> int:
    size = q ** len(rows)
    for i, row in enumerate(rows):
        size //= row[i]
    return size


def columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


# ---------------------------------------------------------------------------
# Integer matrices (lists of rows)


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det(a) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(a)
    a = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(a) -> bool:
    return len(a) == len(a[0]) and det(a) in (1, -1)


def is_column_hnf(h) -> bool:
    """Column-style Hermite form: each nonzero column starts strictly below the
    previous one with a positive pivot, entries left of a pivot are reduced
    into [0, pivot), and zero columns come last."""
    last_pivot = -1
    zero_seen = False
    for j, col in enumerate(columns(h)):
        nonzero = [i for i, x in enumerate(col) if x]
        if not nonzero:
            zero_seen = True
            continue
        p = nonzero[0]
        if zero_seen or p <= last_pivot or col[p] <= 0:
            return False
        if any(not 0 <= h[p][jj] < col[p] for jj in range(j)):
            return False
        last_pivot = p
    return True


def is_smith_form(s) -> bool:
    """Diagonal, nonnegative, nonzero entries first and each dividing the next."""
    diag = []
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j and x:
                return False
        if i < len(row):
            diag.append(row[i])
    if any(d < 0 for d in diag):
        return False
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero:
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def random_unimodular(rng, n: int):
    """Product of elementary column operations, a permutation and sign flips."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        src, dst = rng.sample(range(n), 2) if n > 1 else (0, 0)
        t = rng.choice((-2, -1, 1, 2))
        if src != dst:
            for row in a:
                row[dst] += t * row[src]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(tuple(row[perm[j]] * signs[j] for j in range(n)) for row in a)


# ---------------------------------------------------------------------------
# Small solvable groups on integer codes: the encodings the hspsim backends
# use (permutations packed in base degree, table indices, residues), with a
# multiplication written here rather than taken from the backend.


def perm_code(perm) -> int:
    return sum(img * len(perm) ** i for i, img in enumerate(perm))


def perm_decode(code: int, degree: int) -> tuple[int, ...]:
    out = []
    for _ in range(degree):
        code, r = divmod(code, degree)
        out.append(r)
    return tuple(out)


def closure(mul, gens, identity) -> frozenset:
    seen = {identity}
    frontier = [identity]
    while frontier:
        v = frontier.pop()
        for g in gens:
            for w in (mul(v, g), mul(g, v)):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return frozenset(seen)


class RefGroup:
    """One group: kind and construction data, working modulus m, the element
    codes, and facts derived by brute force (derived chain, abelianization)."""

    def __init__(self, name, kind, m, mul, identity, gens, data):
        self.name, self.kind, self.m = name, kind, m
        self.mul, self.identity, self.data = mul, identity, data
        self.elements = closure(mul, gens, identity)
        self.sorted_elements = sorted(self.elements)
        self.inverse = {
            x: next(y for y in self.sorted_elements if mul(x, y) == identity)
            for x in self.sorted_elements
        }
        self.derived_chain = self._derived_chain()
        self.quotient_order_stats = self._quotient_order_stats(self.derived_chain[1])
        # every subgroup of these groups is generated by at most two elements
        subs = {
            self.closure_of([a, b]) for a in self.sorted_elements for b in self.sorted_elements
        }
        self.subgroups = sorted(subs, key=lambda h: (len(h), sorted(h)))

    def commutator(self, a, b):
        inv = self.inverse
        return self.mul(self.mul(inv[a], inv[b]), self.mul(a, b))

    def _derived_chain(self) -> list[frozenset]:
        chain = [self.elements]
        while len(chain[-1]) > 1:
            sub = sorted(chain[-1])
            comms = {self.commutator(a, b) for a in sub for b in sub}
            nxt = closure(self.mul, sorted(comms), self.identity)
            if nxt == chain[-1]:
                raise ValueError(f"{self.name} is not solvable")
            chain.append(nxt)
        return chain

    def _quotient_order_stats(self, normal: frozenset) -> Counter:
        """Element-order counts of G/normal, from the least k with x^k in normal."""
        stats = Counter()
        for x in self.sorted_elements:
            k, y = 1, x
            while y not in normal:
                y = self.mul(y, x)
                k += 1
            stats[k] += 1
        return Counter({k: c // len(normal) for k, c in stats.items()})

    def closure_of(self, gens) -> frozenset:
        return closure(self.mul, list(gens), self.identity)

    def generating_set(self, rng, within: frozenset | None = None):
        """Seeded list of at most two elements generating `within` (default
        the whole group); empty for the trivial subgroup."""
        target = self.elements if within is None else within
        if len(target) == 1:
            return []
        pool = sorted(target)
        while True:
            gens = rng.sample(pool, min(2, len(pool)))
            if self.closure_of(gens) == target:
                return gens


def cyclic_product_order_stats(factors) -> Counter:
    """Element-order counts of Z_f1 x ... x Z_fr."""
    stats = Counter()
    for xs in product(*(range(f) for f in factors)):
        order = 1
        for x, f in zip(xs, factors):
            o = f // gcd(x, f)
            order = order * o // gcd(order, o)
        stats[order] += 1
    return stats


def _perm_group(name, m, degree, perms):
    def mul(a, b):
        pa, pb = perm_decode(a, degree), perm_decode(b, degree)
        return perm_code(tuple(pa[pb[i]] for i in range(degree)))

    gens = [perm_code(p) for p in perms]
    return RefGroup(name, "permutation", m, mul, perm_code(tuple(range(degree))), gens, degree)


def _table_group(name, m, table, gens):
    return RefGroup(name, "table", m, lambda a, b: table[a][b], 0, gens, table)


def _units_group(name, m, modulus):
    units = [x for x in range(1, modulus) if gcd(x, modulus) == 1]
    return RefGroup(
        name, "units", m, lambda a, b: a * b % modulus, 1, units, modulus
    )


def _quaternion_table():
    # element 2*u + s is (-1)^s * u for the units u = 1, i, j, k (0..3)
    unit_products = {
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }

    def mul(a, b):
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        if ua == 0 or ub == 0:
            s, u = 0, ua + ub
        else:
            s, u = unit_products[(ua, ub)]
        return 2 * u + (sa + sb + s) % 2

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _heisenberg3_table():
    # (a, b, c) -> 9a + 3b + c with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')
    def mul(x, y):
        a, b, c = x // 9, x // 3 % 3, x % 3
        a2, b2, c2 = y // 9, y // 3 % 3, y % 3
        return 9 * ((a + a2) % 3) + 3 * ((b + b2) % 3) + (c + c2 + a * b2) % 3

    return [[mul(x, y) for y in range(27)] for x in range(27)]


def group_zoo() -> list[RefGroup]:
    """S3, D4, Q8, A4, D6, Heis3, U15 and U35, each with the working modulus m
    whose powers its order divides."""
    return [
        _perm_group("S3", 6, 3, [(1, 0, 2), (1, 2, 0)]),
        _perm_group("D4", 2, 4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
        _table_group("Q8", 2, _quaternion_table(), [2, 4]),
        _perm_group("A4", 6, 4, [(1, 2, 0, 3), (1, 0, 3, 2)]),
        _perm_group("D6", 6, 6, [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)]),
        _table_group("Heis3", 3, _heisenberg3_table(), [9, 3]),
        _units_group("U15", 2, 15),
        _units_group("U35", 12, 35),
    ]
