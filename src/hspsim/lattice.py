"""Exact integer linear algebra for subgroups of Z_{m^k}^n.

A subgroup is represented by the Hermite-normal-form basis of its preimage
lattice in Z^n (the lattice always contains m^k * Z^n, hence has full rank).
Duality and the fibers of a pairing come from that triangular basis directly.
One Smith elimination with multipliers supplies the invariant factors and
the divide-by-m lift and section used when reducing exponent-k instances to
exponent 1; both read the inverse left multiplier off mat @ R, and one gcd
step serves the Hermite and the Smith eliminations.

All entries are Python ints, so nothing here ever rounds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _cartesian
from math import gcd, prod
from operator import mul


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged matrix data")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(len(data), len(data[0]) if data else 0, data)

    @classmethod
    def from_columns(cls, cols) -> "IntMatrix":
        return cls.from_rows(zip(*cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls.from_rows(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.columns()
        return IntMatrix.from_rows(
            [[sum(map(mul, row, col)) for col in ot] for row in self.data]
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        a = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)


# ---------------------------------------------------------------------------
# Matrix text / JSON formats


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(token: str) -> int:
    """A decimal integer in ASCII: an optional sign, then digits.  int() alone
    would also accept underscores, surrounding blanks and non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_matrix_text(text: str) -> IntMatrix:
    """First line "rows cols", then rows of space-separated integers."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("matrix header must be 'rows cols'")
    rows, cols = parse_integer(head[0]), parse_integer(head[1])
    if len(lines) != rows + 1:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        row = [parse_integer(tok) for tok in ln.split()]
        if len(row) != cols:
            raise ValueError("row width mismatch")
        data.append(row)
    return IntMatrix.from_rows(data)


def format_matrix_text(mat: IntMatrix) -> str:
    return f"{mat.rows} {mat.cols}\n" + str(mat)


def matrix_to_json(mat: IntMatrix) -> dict:
    return {"rows": mat.rows, "cols": mat.cols, "data": mat.to_lists()}


def matrix_from_json(obj) -> IntMatrix:
    if isinstance(obj, str):
        obj = json.loads(obj)
    mat = IntMatrix.from_rows(obj["data"])
    if mat.rows != obj["rows"] or mat.cols != obj["cols"]:
        raise ValueError("matrix JSON dimensions disagree with data")
    return mat


# ---------------------------------------------------------------------------
# Normal forms


def hermite_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = mat @ U, U unimodular, H lower triangular with
    positive diagonal pivots, off-diagonal entries reduced into [0, pivot),
    and zero columns gathered on the right.
    """
    n, s = mat.rows, mat.cols
    # each column carries the matching identity column below it, so the
    # elimination builds U alongside H
    cols = [
        list(c) + [int(i == j) for i in range(s)] for j, c in enumerate(mat.columns())
    ]
    _hnf_columns(cols, n)
    H = IntMatrix.from_columns([c[:n] for c in cols])
    U = IntMatrix.from_columns([c[n:] for c in cols])
    return H, U


def _hnf_columns(cols: list[list[int]], n: int) -> None:
    """Bring integer columns to column Hermite normal form in their first n
    rows, in place.  Entries below row n only follow the column operations.

    Columns at or right of the current pivot are zero above the current row,
    so their updates start at that row.
    """
    s, length = len(cols), len(cols[0])
    pivot = 0
    for row in range(n):
        if pivot >= s:
            break
        for j in range(pivot + 1, s):
            b = cols[j][row]
            if b == 0:
                continue
            a = cols[pivot][row]
            if a == 0:
                cols[pivot], cols[j] = cols[j], cols[pivot]
                continue
            _gcd_step(cols[pivot], cols[j], a, b, row)
        cp = cols[pivot]
        d = cp[row]
        if d == 0:
            continue
        if d < 0:
            cols[pivot] = cp = [-x for x in cp]
            d = -d
        for j in range(pivot):
            q = cols[j][row] // d
            if q:
                cj = cols[j]
                for i in range(row, length):
                    cj[i] -= q * cp[i]
        pivot += 1


def _gcd_step(u: list[int], v: list[int], a: int, b: int, lo: int = 0) -> None:
    """Clear v's entry b against u's entry a != 0, in place from position lo.
    When a | b, v loses b/a copies of u; otherwise, with g = gcd(a, b) =
    x a + y b, (u, v) -> (x u + y v, (a/g) v - (b/g) u) leaves g in u.  Using
    the transform when a | b as well can cycle: the split is what makes an
    elimination terminate."""
    if b % a == 0:
        q = b // a
        for i in range(lo, len(v)):
            v[i] -= q * u[i]
        return
    g, x, y = xgcd(a, b)
    au, bu = a // g, b // g
    for i in range(lo, len(u)):
        u[i], v[i] = x * u[i] + y * v[i], -bu * u[i] + au * v[i]


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (S, L, R) with S = L @ mat @ R, L and R unimodular,
    nonzero entries d_1 | d_2 | ... on the leading diagonal positions.

    One elimination on the block [[mat, I], [I, 0]], its zero block left
    out: L rides beside mat's rows, so the row operations (`_gcd_step` on two
    top rows) build it, and R sits below mat's columns, so the column
    operations (one step over the block rows) build it.  Rows and columns
    before the pivot are already clear, so every step starts at the pivot.
    """
    n, s = mat.rows, mat.cols
    block = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat.data)]
    block += [[int(i == j) for j in range(s)] for i in range(s)]
    for t in range(min(n, s)):
        pivot = next(((i, j) for i in range(t, n) for j in range(t, s) if block[i][j]), None)
        if pivot is None:
            break
        pr, pc = pivot
        block[t], block[pr] = block[pr], block[t]
        for r in block[t:]:
            r[t], r[pc] = r[pc], r[t]
        while True:
            for i in range(t + 1, n):
                if block[i][t]:
                    _gcd_step(block[t], block[i], block[t][t], block[i][t], t)
            if any(block[t][t + 1 : s]):
                for j in range(t + 1, s):
                    a, b = block[t][t], block[t][j]
                    if b == 0:
                        continue
                    if b % a == 0:
                        q = b // a
                        for r in block[t:]:
                            r[j] -= q * r[t]
                        continue
                    g, x, y = xgcd(a, b)
                    au, bu = a // g, b // g
                    for r in block[t:]:
                        r[t], r[j] = x * r[t] + y * r[j], -bu * r[t] + au * r[j]
                continue
            # the pivot must divide the trailing block: add a row it does not
            # divide and eliminate again, which shrinks the pivot
            d = block[t][t]
            witness = next(
                (i for i in range(t + 1, n) if any(x % d for x in block[i][t + 1 : s])), None
            )
            if witness is None:
                break
            block[t] = [x + y for x, y in zip(block[t], block[witness])]
        if block[t][t] < 0:
            block[t] = [-x for x in block[t]]
    return (
        IntMatrix(n, s, tuple(tuple(r[:s]) for r in block[:n])),
        IntMatrix(n, n, tuple(tuple(r[s:]) for r in block[:n])),
        IntMatrix(s, s, tuple(map(tuple, block[n:]))),
    )


def _smith_basis(mat: IntMatrix) -> tuple[list[int], list[tuple[int, ...]]]:
    """The Smith diagonal d_1 | ... | d_n of a matrix with n rows, and the
    columns of L^{-1}.  S = L @ mat @ R gives mat @ R = L^{-1} @ S, so column
    i of L^{-1} is column i of mat @ R divided, exactly, by d_i.  Raises
    ValueError when a d_i is zero: the column lattice has lower rank."""
    S, _, R = smith_normal_form(mat)
    diag = [S.data[i][i] for i in range(min(mat.rows, mat.cols))]
    if len(diag) < mat.rows or 0 in diag:
        raise ValueError("relations do not define a finite group (zero invariant factor)")
    return diag, [
        tuple(sum(map(mul, row, rcol)) // d for row in mat.data)
        for d, rcol in zip(diag, R.columns())
    ]


# ---------------------------------------------------------------------------
# Subgroup representation


@dataclass(frozen=True)
class SubgroupRep:
    """A subgroup of Z_{m^k}^n as the HNF basis of its preimage lattice in Z^n."""

    m: int
    k: int
    n: int
    hnf: IntMatrix

    def __post_init__(self):
        m, k, n, H = self.m, self.k, self.n, self.hnf
        if m < 2 or k < 1 or n < 1:
            raise ValueError("need m >= 2, k >= 1, n >= 1")
        if H.rows != n or H.cols != n:
            raise ValueError("HNF basis must be n x n")
        q = m**k
        for i in range(n):
            if H.data[i][i] <= 0:
                raise ValueError("diagonal entries must be positive")
            for j in range(i + 1, n):
                if H.data[i][j] != 0:
                    raise ValueError("basis must be lower triangular")
            for j in range(i):
                if not (0 <= H.data[i][j] < H.data[i][i]):
                    raise ValueError("off-diagonal entries must be reduced")
        cols = H.columns()
        for i in range(n):
            vec = tuple(q if j == i else 0 for j in range(n))
            if not _in_column_lattice(cols, vec):
                raise ValueError("lattice must contain m^k * Z^n")
        # lower triangular, checked above: the determinant is the diagonal's product
        if (q**n) % prod(H.data[i][i] for i in range(n)) != 0:
            raise ValueError("lattice determinant must divide m^(k*n)")

    @property
    def modulus(self) -> int:
        return self.m**self.k

    @cached_property
    def _reduction_steps(self) -> tuple:
        """Per basis column i: (i, diagonal entry, ((row, entry) for every
        nonzero entry below the diagonal)) -- what coset reduction subtracts."""
        H = self.hnf.data
        return tuple(
            (i, H[i][i], tuple((r, H[r][i]) for r in range(i + 1, self.n) if H[r][i]))
            for i in range(self.n)
        )

    @cached_property
    def _complement(self) -> "SubgroupRep":
        """The orthogonal complement (k = 1): see `perp_subgroup`."""
        m, n, A = self.m, self.n, self.hnf.data
        X = [[0] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                s = (m if i == j else 0) - sum(A[i][l] * X[l][j] for l in range(j, i))
                X[i][j], r = divmod(s, A[i][i])
                if r:
                    raise ArithmeticError("invariant violation: m * A^-1 is not integral")
        # the rows of X, a full-rank basis, span a lattice containing m * Z^n
        _hnf_columns(X, n)
        return _hnf_rep(X, m, 1, n)

    @cached_property
    def _section(self) -> "SectionMap":
        """The divide-by-m section of this rep: see `SectionMap`."""
        diag, linv = _smith_basis(self.hnf)
        g = tuple(gcd(d, self.m) for d in diag)
        cols = tuple(tuple(d // gi * x for x in col) for d, gi, col in zip(diag, g, linv))
        return SectionMap(self.m, self.k, self.n, g, cols)

    def det(self) -> int:
        return prod(self.hnf.data[i][i] for i in range(self.n))


def subgroup_from_generators(gens, m: int, k: int, n: int) -> SubgroupRep:
    """Subgroup generated by the given vectors (mod m^k), as its canonical rep.

    Generators already inside the accumulated lattice are filtered by a cheap
    triangular reduction, so feeding a whole subgroup's element list stays
    linear in its size rather than cubic.  The basis is kept as a list of
    columns and reduced without a multiplier.
    """
    if m < 2 or k < 1 or n < 1:
        raise ValueError("need m >= 2, k >= 1, n >= 1")
    q = m**k
    return _grown([[q if i == j else 0 for i in range(n)] for j in range(n)], gens, m, k, n)


def _grown(basis, gens, m: int, k: int, n: int) -> SubgroupRep:
    """The subgroup whose lattice is spanned by basis, the HNF columns (as
    lists) of a lattice containing m^k * Z^n, and the generators mod m^k."""
    q = m**k
    pending = []
    for g in gens:
        vec = [int(x) % q for x in g]
        if len(vec) != n:
            raise ValueError("generator length mismatch")
        if not _in_column_lattice(basis, vec):
            pending.append(vec)
            if len(pending) >= n:
                basis = _hnf_basis(basis, pending)
                pending = []
    if pending:
        basis = _hnf_basis(basis, pending)
    return _hnf_rep(basis, m, k, n)


def _hnf_rep(basis, m: int, k: int, n: int) -> SubgroupRep:
    """The rep of HNF columns of a lattice containing m^k * Z^n by
    construction, so without __post_init__'s checks on an outside basis; the
    full group's rep is shared, with the complement it keeps."""
    data = tuple(zip(*basis))
    full = full_subgroup(m, k, n)
    if data == full.hnf.data:
        return full
    rep = object.__new__(SubgroupRep)
    rep.__dict__.update(m=m, k=k, n=n, hnf=IntMatrix(n, n, data))
    return rep


def _in_column_lattice(cols, vec) -> bool:
    """True iff vec is an integer combination of the lower-triangular columns."""
    r = list(vec)
    for i, col in enumerate(cols):
        q, rem = divmod(r[i], col[i])
        if rem:
            return False
        if q:
            for ii in range(i + 1, len(r)):
                r[ii] -= q * col[ii]
    return True


def _hnf_basis(basis_cols, extra_cols) -> list[list[int]]:
    """HNF basis of the lattice spanned by a full-rank basis plus extra columns."""
    n = len(basis_cols)
    cols = extra_cols + basis_cols
    _hnf_columns(cols, n)
    return cols[:n]


# Reps are frozen, so one shared instance per shape serves every caller.
@lru_cache(maxsize=64)
def trivial_subgroup(m: int, k: int, n: int) -> SubgroupRep:
    return SubgroupRep(m, k, n, IntMatrix.diagonal([m**k] * n))


@lru_cache(maxsize=64)
def full_subgroup(m: int, k: int, n: int) -> SubgroupRep:
    return SubgroupRep(m, k, n, IntMatrix.identity(n))


def subgroup_order(rep: SubgroupRep) -> int:
    """Number of elements: m^(k*n) divided by the basis determinant."""
    q, r = divmod(rep.modulus**rep.n, rep.det())
    if r:
        raise ArithmeticError("invariant violation: determinant does not divide m^(k*n)")
    return q


def contains_element(rep: SubgroupRep, x) -> bool:
    """True iff x (mod m^k) lies in the subgroup."""
    if len(x) != rep.n:
        raise ValueError("vector length mismatch")
    return _in_column_lattice(rep.hnf.columns(), [int(v) for v in x])


def coset_representative(rep: SubgroupRep, x) -> tuple[int, ...]:
    """Canonical representative of x + A inside the fundamental box of the basis."""
    r = list(map(int, x))
    for i, d, below in rep._reduction_steps:
        q, r[i] = divmod(r[i], d)
        if q:
            for ii, h in below:
                r[ii] -= q * h
    return tuple(r)


def enumerate_elements(rep: SubgroupRep):
    """All elements of the subgroup, as vectors reduced mod m^k."""
    q = rep.modulus
    H = rep.hnf
    ranges = [range(q // H.data[i][i]) for i in range(rep.n)]
    cols = H.columns()
    for ts in _cartesian(*ranges):
        v = [0] * rep.n
        for t, col in zip(ts, cols):
            if t:
                for i in range(rep.n):
                    v[i] += t * col[i]
        yield tuple(x % q for x in v)


def equal_or_witness(a: SubgroupRep, b: SubgroupRep) -> tuple[int, ...] | None:
    """For a <= b: None when equal, else a vector of b not in a.

    The witness is the leftmost basis column of b whose diagonal entry is
    smaller than the matching entry of a's basis.
    """
    if (a.m, a.k, a.n) != (b.m, b.k, b.n):
        raise ValueError("mismatched ambient groups")
    cols = b.hnf.columns()
    for col in a.hnf.columns():
        if not _in_column_lattice(cols, col):
            raise ValueError("precondition violated: first subgroup is not contained in second")
    if a.hnf == b.hnf:
        return None
    for j in range(a.n):
        if b.hnf.data[j][j] < a.hnf.data[j][j]:
            return tuple(v % b.modulus for v in cols[j])
    raise AssertionError("proper containment without a smaller diagonal entry")


def join(a: SubgroupRep, vectors) -> SubgroupRep:
    """Smallest subgroup containing a and the given vectors, grown from a's
    basis: vectors already in a cost one triangular check each."""
    return _grown([list(col) for col in a.hnf.columns()], vectors, a.m, a.k, a.n)


def perp_subgroup(rep: SubgroupRep) -> SubgroupRep:
    """The subgroup of all y with (x, y) = 0 mod m for every x in the input.

    Defined for exponent k = 1 only.  The basis A is lower triangular and its
    lattice contains m * Z^n, so X = m * A^{-1} is integral; the rows of X
    span the complement's lattice (A^T y in m * Z^n).  X comes from forward
    substitution, every division exact, once per rep: the rep keeps it.
    """
    if rep.k != 1:
        raise ValueError("orthogonal complement is defined modulo m (k = 1) only")
    return rep._complement


def pairing_fibers(rep: SubgroupRep, u) -> tuple[int, tuple[int, ...], list[list[int]]]:
    """How the pairing y -> (u, y) mod m splits a subgroup P of Z_m^n.

    Returns (d, y_d, kernel): the pairing maps P onto d * Z_m with
    d = gcd(m, (u, b_i)) over P's basis columns b_i, y_d in P pairs to d, and
    kernel is the lower-triangular HNF basis (as columns) of the pairing's
    kernel in P.  The fiber over a multiple a of d is (a/d) * y_d + kernel.
    One gcd elimination over the row of pairings, started from m (pairings
    are taken mod m), finds d and y_d; the columns it zeroes span the kernel.
    """
    if rep.k != 1:
        raise ValueError("the pairing is defined modulo m (k = 1) only")
    m, n = rep.m, rep.n
    if len(u) != n:
        raise ValueError("vector length mismatch")
    cols = [[m] + [0] * n] + [
        [sum(a * b for a, b in zip(u, col)) % m, *col] for col in rep.hnf.columns()
    ]
    _hnf_columns(cols, 1)
    d, *y_d = cols[0]
    kernel = _hnf_basis([col[1:] for col in cols[1:]], [])
    return d, tuple(y % m for y in y_d), kernel


def coset_element(kernel, m: int, start, r: int) -> tuple[int, ...]:
    """The r-th element, in lexicographic order of vectors in [0, m)^n, of the
    coset start + kernel, where kernel is a lower-triangular HNF basis (as
    columns) of a lattice containing m * Z^n.

    With diagonal entries e_i, coordinate i takes the values = v_i mod e_i
    in [0, m), each with the same number of completions, so the digit of r
    at coordinate i picks one of them; adding that multiple of column i
    moves only coordinates i and later.  O(n^2) work.
    """
    sizes = [m // col[i] for i, col in enumerate(kernel)]
    block = prod(sizes)
    if not 0 <= r < block:
        raise ValueError(f"rank {r} outside a coset of {block} elements")
    v = [x % m for x in start]
    for i, (col, size) in enumerate(zip(kernel, sizes)):
        block //= size
        digit, r = divmod(r, block)
        c = digit - v[i] // col[i]
        if c:
            for l in range(i, len(v)):
                v[l] = (v[l] + c * col[l]) % m
    return tuple(v)


def least_with_pairing(rep: SubgroupRep, u, low: int, high: int):
    """The lexicographically least x in a subgroup of Z_m^n (k = 1) whose
    pairing (u, x) mod m lies in [1, low] or [high, m), 0 <= low < high < m,
    and that pairing.  Coordinates are fixed in order: with a prefix fixed,
    coordinate i takes the values v_i mod e_i + k * e_i (e_i the diagonal
    entry, k >= 0), and the later basis columns reach the pairings
    c + k * s_i + g * Z_m, g = gcd(m, their pairings).  Modulo g the target
    set is every residue, or [1, low] and [g - (m - high), g - 1], and
    `_least_step` finds the least k reaching one.  O(n^2 + n log m) work."""
    if rep.k != 1:
        raise ValueError("the pairing is defined modulo m (k = 1) only")
    m, n = rep.m, rep.n
    cols = rep.hnf.columns()
    s = [sum(a * b for a, b in zip(u, col)) % m for col in cols]
    g = [m] * n
    for i in range(n - 1, 0, -1):
        g[i - 1] = gcd(g[i], s[i])
    v, c = [0] * n, 0
    for i, col in enumerate(cols):
        k, gi = -(v[i] // col[i]), g[i]
        if low < gi and m - high < gi:
            windows = [(gi - m + high, gi - 1)] + ([(1, low)] if low else [])
            steps = [t for lo, hi in windows
                     if (t := _least_step(c + k * s[i], s[i], gi, lo, hi)) is not None]
            if not steps:
                raise ValueError("no element of the subgroup pairs into the set")
            k += min(steps)
        for l in range(i, n):
            v[l] = (v[l] + k * col[l]) % m
        c = (c + k * s[i]) % m
    return tuple(v), c


def _least_step(c: int, s: int, g: int, lo: int, hi: int) -> int | None:
    """The least k >= 0 with lo <= (c + k * s) mod g <= hi, 0 <= lo <= hi < g;
    None when there is none.  After shifting the window by -c, either it
    holds 0 (k = 0), or the first multiple of a = s mod g past lo lands in
    it, or it lies strictly between two multiples of a, and k * a - y * g in
    [lo, hi] becomes y * (g mod a) mod a in [-hi mod a, -lo mod a]: the same
    problem on (g mod a, a), as in Euclid's algorithm, O(log g) steps."""
    lo, hi = (lo - c) % g, (hi - c) % g
    if lo == 0 or lo > hi:
        return 0
    a, frames = s % g, []
    while True:
        if a == 0:
            return None
        k = -(-lo // a)
        if k * a <= hi:
            break
        frames.append((lo, g, a))
        a, g, lo, hi = g % a, a, -hi % a, -lo % a
    for lo, g, a in reversed(frames):
        k = -(-(lo + k * g) // a)  # the least k for the least y found below
    return k


def lift_by_m(rep: SubgroupRep) -> SubgroupRep:
    """The subgroup of all x with m*x in the input subgroup: the one its
    section's columns generate (see `SectionMap`)."""
    return subgroup_from_generators(rep._section.cols, rep.m, rep.k, rep.n)


@dataclass(frozen=True)
class SectionMap:
    """Classical map Z_m^n -> Z_{m^k}^n whose composition with the quotient by a
    fixed subgroup A is a surjective homomorphism onto (divide-by-m lift)/A.

    With A's lattice in Smith form, S = L A R with diagonal d_i, column i of
    L^{-1} stretched by d_i / g_i, g_i = gcd(d_i, m), is `cols[i]`.  The
    columns generate the lift, and g_i * cols[i] = d_i * (column i of
    L^{-1}) lies in A.  The map sends x to the sum of r_i * cols[i], r_i the
    least positive residue of x_i modulo g_i, so it differs from
    x -> sum of x_i * cols[i] by an element of A.
    """

    m: int
    k: int
    n: int
    g: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]

    def __call__(self, x) -> tuple[int, ...]:
        if len(x) != self.n:
            raise ValueError("vector length mismatch")
        q = self.m**self.k
        out = [0] * self.n
        for xi, gi, col in zip(x, self.g, self.cols):
            r = int(xi) % gi or gi
            for l, c in enumerate(col):
                out[l] += r * c
        return tuple(v % q for v in out)

    def preimage(self, rep: SubgroupRep) -> SubgroupRep:
        """The subgroup of all x in Z_m^n with section(x) in rep, for rep
        containing the subgroup this map was built for.

        Modulo that subgroup the section is x -> sum of x_i * cols[i], a
        linear map that sends m * Z^n into it, so the preimage of rep is a
        lattice.  Column operations on [(cols[j]; e_j) | (rep columns; 0)]
        that bring the top n rows to HNF zero the top of the right n columns,
        whose bottoms span it.
        """
        n = self.n
        cols = [[*col, *(int(i == j) for i in range(n))] for j, col in enumerate(self.cols)]
        cols += [list(col) + [0] * n for col in rep.hnf.columns()]
        _hnf_columns(cols, n)
        return subgroup_from_generators([col[n:] for col in cols[n:]], self.m, 1, n)


def section_map(rep: SubgroupRep, lifted: SubgroupRep | None = None) -> SectionMap:
    """The transversal map for one divide-by-m reduction round, kept by the
    rep; given the lift, each basis vector's image is checked to lie in it."""
    sm = rep._section
    if lifted is not None:
        for i in range(rep.n):
            img = sm(tuple(1 if j == i else 0 for j in range(rep.n)))
            if not contains_element(lifted, img):
                raise AssertionError("section image escapes the lifted subgroup")
    return sm


# ---------------------------------------------------------------------------
# Invariant factors


@dataclass(frozen=True)
class AbelianDecomposition:
    """Cyclic decomposition: factors m_1 | m_2 | ... (each > 1) and exponent rows
    expressing the new generators in terms of the originals."""

    nprime: int
    factors: tuple[int, ...]
    generator_matrix: IntMatrix | None

    def __post_init__(self):
        if self.nprime != len(self.factors):
            raise ValueError("factor count mismatch")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError("factors must form a divisibility chain")

    def group_order(self) -> int:
        return prod(self.factors) if self.factors else 1


def invariant_factor_decomposition(relations: IntMatrix, n: int) -> AbelianDecomposition:
    """Decompose Z^n modulo the column lattice of a full-rank relation matrix.

    The Smith diagonal gives the invariant factors; the new generators are read
    off the columns of the inverse left multiplier (each column is the exponent
    vector of one new generator in terms of the originals).
    """
    if relations.rows != n:
        raise ValueError("relation matrix must have n rows")
    kept = [(d, col) for d, col in zip(*_smith_basis(relations)) if d > 1]
    if not kept:
        return AbelianDecomposition(0, (), None)
    factors, gen_rows = zip(*kept)
    return AbelianDecomposition(len(factors), factors, IntMatrix.from_rows(gen_rows))
