"""Black-box group backends: elements are packed integer codes, multiplication
is the only group oracle.  Identity, inverses and order information are derived
from repeated m-th powers, never read off the representation.

Three concrete encodings: permutations (image lists packed in base degree),
finite multiplication tables (element index), and unit groups modulo N
(the residue itself).

A permutation backend keeps the image tuple of every code it has multiplied,
decoded and checked once on first sight, and composes products on those
tuples: its memory is one tuple per distinct element it has multiplied.
"""

from __future__ import annotations

import json
from math import gcd


class GroupError(Exception):
    pass


class BadOrderError(GroupError):
    """An element's order has a prime factor outside the working modulus."""


class NotAGroupError(GroupError):
    """A multiplication table that is not the table of a group."""


def _integer(value, what: str) -> int:
    """The value itself if it is an int.  Group files are JSON, where 2.0,
    true and "2" are not integers: they are rejected, not truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class GroupBackend:
    """Shared surface: code length l_bits, generator codes, and mul()."""

    kind = "abstract"

    def __init__(self):
        self.mul_calls = 0

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def identity_code(self) -> int:
        """Encoding-level identity, used only to seed |identity> registers."""
        raise NotImplementedError

    def encode_element(self, obj) -> int:
        """Code for an element in this backend's input notation (image list,
        table index or residue)."""
        raise NotImplementedError

    def code_space(self) -> int:
        return 1 << self.l_bits


class PermutationBackend(GroupBackend):
    kind = "permutation"

    def __init__(self, degree: int, generators):
        super().__init__()
        if _integer(degree, "degree") < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self._images: dict[int, tuple[int, ...]] = {}
        span = degree**degree
        self.l_bits = max(1, (span - 1).bit_length())
        self.generators = [self.encode_element(g) for g in generators]

    def encode(self, perm) -> int:
        if sorted(perm) != list(range(self.degree)):
            raise ValueError(f"not a permutation of range({self.degree}): {perm}")
        code = 0
        for img in reversed(perm):
            code = code * self.degree + img
        return code

    def decode(self, code: int):
        out = []
        for _ in range(self.degree):
            code, r = divmod(code, self.degree)
            out.append(r)
        return tuple(out)

    def _image(self, code: int) -> tuple[int, ...]:
        """Decode a code not yet seen and keep its image; a code that decodes
        to a non-permutation raises ValueError."""
        img = self.decode(code)
        if sorted(img) != list(range(self.degree)):
            raise ValueError(f"not a permutation of range({self.degree}): {img}")
        self._images[code] = img
        return img

    def mul(self, a: int, b: int) -> int:
        self.mul_calls += 1
        images = self._images
        pa = images.get(a) or self._image(a)
        pb = images.get(b) or self._image(b)
        # the product maps i to pa[pb[i]]; pack its images by Horner's rule
        code, degree = 0, self.degree
        for j in reversed(pb):
            code = code * degree + pa[j]
        return code

    def identity_code(self) -> int:
        return self.encode(tuple(range(self.degree)))

    def encode_element(self, obj) -> int:
        return self.encode(tuple(_integer(v, "permutation image") for v in obj))


class TableBackend(GroupBackend):
    kind = "table"

    def __init__(self, table, generators):
        super().__init__()
        self.table = [list(row) for row in table]
        self.size = len(self.table)
        if any(len(row) != self.size for row in self.table):
            raise ValueError("multiplication table must be square")
        entries = (v for row in self.table for v in row)
        if any(type(v) is not int or not 0 <= v < self.size for v in entries):
            raise ValueError(f"table entries must be integers in range({self.size})")
        self.l_bits = max(1, (self.size - 1).bit_length())
        self.generators = [self.encode_element(g) for g in generators]

    def mul(self, a: int, b: int) -> int:
        self.mul_calls += 1
        return self.table[a][b]

    def identity_code(self) -> int:
        for e in range(self.size):
            if all(self.table[e][x] == x for x in range(self.size)):
                return e
        raise GroupError("table has no identity element")

    def encode_element(self, obj) -> int:
        code = _integer(obj, "table index")
        if not 0 <= code < self.size:
            raise ValueError(f"table index {code} is not in range({self.size})")
        return code


class UnitsBackend(GroupBackend):
    kind = "units"

    def __init__(self, modulus: int, generators):
        super().__init__()
        if _integer(modulus, "modulus") < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.l_bits = max(1, (modulus - 1).bit_length())
        self.generators = [self.encode_element(g) for g in generators]

    def mul(self, a: int, b: int) -> int:
        self.mul_calls += 1
        return (a * b) % self.modulus

    def identity_code(self) -> int:
        return 1 % self.modulus

    def encode_element(self, obj) -> int:
        code = _integer(obj, "residue") % self.modulus
        if gcd(code, self.modulus) != 1:
            raise ValueError(f"{obj} is not a unit modulo {self.modulus}")
        return code


def check_group_table(table) -> None:
    """Raise NotAGroupError unless a square table with entries in range(t) is
    the multiplication table of a group: a Latin square with a two-sided
    identity (a loop) whose product is associative, checked on all t^3
    triples."""
    t = len(table)
    full = set(range(t))
    if any(set(row) != full for row in table):
        raise NotAGroupError("a row of the table is not a permutation")
    if any(set(col) != full for col in zip(*table)):
        raise NotAGroupError("a column of the table is not a permutation")
    ids = list(range(t))
    e = next((e for e in ids if list(table[e]) == ids), None)
    if e is None or any(table[x][e] != x for x in ids):
        raise NotAGroupError("the table has no identity element")
    for a, row_a in enumerate(table):
        for b, row_b in enumerate(table):
            row_ab = table[row_a[b]]
            for c, bc in enumerate(row_b):
                if row_ab[c] != row_a[bc]:
                    raise NotAGroupError(f"(a*b)*c != a*(b*c) at a, b, c = {a}, {b}, {c}")


def load_group(obj) -> tuple[GroupBackend, int]:
    """Build a backend from its JSON description; returns (backend, m).  A
    table that is not a group raises NotAGroupError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("kind")
    m = _integer(obj.get("m", 2), "m")
    if m < 2:
        raise ValueError(f"working modulus m must be at least 2, got {m}")
    if kind == "permutation":
        backend = PermutationBackend(obj["degree"], obj["generators"])
    elif kind == "table":
        backend = TableBackend(obj["table"], obj.get("generators", []))
        if backend.size != _integer(obj.get("size", backend.size), "size"):
            raise ValueError("table size field disagrees with data")
        check_group_table(backend.table)
    elif kind == "units":
        backend = UnitsBackend(obj["modulus"], obj["generators"])
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    return backend, m


class GroupArith:
    """Derived group arithmetic over a backend, for a fixed working modulus m.

    Identity and inverses come from the smallest power of the form m^t fixing
    the element (t at most the code length), exactly the bound that holds when
    the group order divides a power of m.
    """

    def __init__(self, backend: GroupBackend, m: int):
        if m < 2:
            raise ValueError("working modulus must be at least 2")
        self.backend = backend
        self.m = m
        self._identity = None

    def mul(self, a: int, b: int) -> int:
        return self.backend.mul(a, b)

    def power(self, x: int, e: int) -> int:
        if e < 0:
            return self.power_no_identity(self.inverse(x), -e)
        if e == 0:
            return self.identity(x)
        return self.power_no_identity(x, e)

    def _fixing_exponent(self, x: int) -> int | None:
        """Least t in [0, l] with x^(m^t + 1) = x, or None."""
        y = x
        for t in range(self.backend.l_bits + 1):
            if self.mul(y, x) == x:
                return t
            y = self._m_th_power(y)
        return None

    def _m_th_power(self, y: int) -> int:
        return self.power_no_identity(y, self.m)

    def identity(self, hint: int | None = None) -> int:
        if self._identity is not None:
            return self._identity
        if hint is not None:
            x = hint
        elif self.backend.generators:
            x = self.backend.generators[0]
        else:
            self._identity = self.backend.identity_code()
            return self._identity
        t = self._fixing_exponent(x)
        if t is None:
            raise BadOrderError(f"order of {x} does not divide a power of {self.m}")
        if t == 0:
            # x^(m^0 + 1) = x^2 = x, so x is the identity itself
            self._identity = x
        else:
            self._identity = self.power_no_identity(x, self.m**t)
        return self._identity

    def power_no_identity(self, x: int, e: int) -> int:
        # e >= 1; square-and-multiply without needing the identity
        acc = None
        base = x
        while e:
            if e & 1:
                acc = base if acc is None else self.mul(acc, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return acc

    def inverse(self, x: int) -> int:
        t = self._fixing_exponent(x)
        if t is None:
            raise BadOrderError(f"order of {x} does not divide a power of {self.m}")
        e = self.m**t - 1
        if e == 0:
            return x  # x is the identity
        return self.power_no_identity(x, e)

    def order_m_exponent(self, x: int) -> int | None:
        """Least k with x^(m^k) = identity, or None when the order of x has a
        prime factor outside m (the not-dividing outcome)."""
        t = self._fixing_exponent(x)
        if t is None:
            return None
        e = self.identity(x)
        y = x
        for k in range(self.backend.l_bits + 1):
            if y == e:
                return k
            y = self._m_th_power(y)
        return None

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inverse(a), self.inverse(b)), self.mul(a, b))

    def conjugate(self, a: int, by: int) -> int:
        return self.mul(self.mul(self.inverse(by), a), by)
