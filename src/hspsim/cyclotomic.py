"""Exact arithmetic in the cyclotomic field Q(w), w a primitive M-th root of unity.

Elements are canonical residues modulo the M-th cyclotomic polynomial, so
equality -- and in particular "is exactly zero" -- is decidable.  Coefficients
are Python ints (or fractions.Fraction when a caller introduces them); every
operation is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import cos, pi, sin


def _poly_div_exact(num: list, den: list) -> list:
    """Divide integer polynomials known to divide exactly. den must be monic
    up to sign of its leading coefficient (cyclotomic polynomials are monic)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j, d in enumerate(den):
            num[i - dn + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the cyclotomic polynomial of the given order."""
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return (-1, 1)
    # (x^order - 1) divided by the product of all lower-order cyclotomic factors.
    num = [0] * (order + 1)
    num[0] = -1
    num[order] = 1
    for d in range(1, order):
        if order % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


class CycloField:
    """Arithmetic context for one root order M: the reduction tables for
    canonical residues modulo the M-th cyclotomic polynomial.

    Fields are shared per order through an LRU of CACHE_SIZE entries; an
    evicted field is rebuilt on demand, and two instances' elements mix."""

    CACHE_SIZE = 16
    _instances: dict[int, "CycloField"] = {}  # least recently used first

    def __new__(cls, order: int):
        inst = cls._instances.pop(order, None)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(order)
            if len(cls._instances) >= cls.CACHE_SIZE:
                del cls._instances[next(iter(cls._instances))]
        cls._instances[order] = inst
        return inst

    def _init(self, order: int) -> None:
        if order < 1:
            raise ValueError("root order must be positive")
        self.order = order
        phi = cyclotomic_polynomial(order)
        self.poly = phi
        self.degree = len(phi) - 1
        # Reduced form of x^e for e in [0, order): enough for folding exponents
        # mod order (x^order == 1 in the field) and for products of residues.
        table = []
        row = [0] * self.degree
        if self.degree:
            row[0] = 1
        for _ in range(order):
            table.append(tuple(row))
            # multiply by x, reduce by phi when the top coefficient spills over
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                for i in range(self.degree):
                    row[i] -= carry * phi[i]
        self.power_table = tuple(table)
        self.zero = Cyclotomic(self, (0,) * self.degree)
        self.one = Cyclotomic(self, self.power_table[0])

    def root(self, exponent: int) -> "Cyclotomic":
        """w^exponent as a canonical field element."""
        return Cyclotomic(self, self.power_table[exponent % self.order])

    def from_raw(self, coeffs) -> "Cyclotomic":
        """Canonicalize a raw coefficient vector over powers of w: exponents are
        folded mod the root order, then reduced modulo the cyclotomic polynomial."""
        out = [0] * self.degree
        for e, c in enumerate(coeffs):
            if c == 0:
                continue
            row = self.power_table[e % self.order]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        return Cyclotomic(self, tuple(out))

    def conj_dot(self, pairs) -> "Cyclotomic":
        """sum conj(a) * b over (a, b) pairs of elements of this field.  Pairs
        are grouped by their coefficient tuples, which hash in C, and each
        distinct pair is accumulated once (conj_dot_counted)."""
        return self.conj_dot_counted(
            Counter((a.coeffs, b.coeffs) for a, b in pairs).items()
        )

    def conj_dot_counted(self, counted) -> "Cyclotomic":
        """sum k * conj(a) * b over ((a.coeffs, b.coeffs), k) entries, reduced
        once: conj(w^i) * w^j = w^(j-i), so every product is accumulated as raw
        coefficients over powers of w, with b scaled by k, and the total goes
        through one from_raw.  Canonical residues are unique, so the result
        equals the term-by-term fold exactly."""
        raw = [0] * self.order
        for (ac, bc), k in counted:
            nzb = [(j, k * c) for j, c in enumerate(bc) if c]
            for i, ai in enumerate(ac):
                if ai:
                    # |j - i| < degree <= order: a negative index wraps to
                    # j - i + order, the same power of w
                    for j, bj in nzb:
                        raw[j - i] += ai * bj
        return self.from_raw(raw)

    def from_rational(self, value) -> "Cyclotomic":
        out = [0] * self.degree
        out[0] = value
        return Cyclotomic(self, tuple(out))

    def __repr__(self):
        return f"CycloField(order={self.order})"


def cyclotomic_normalize(order: int, coeffs) -> "Cyclotomic":
    """Canonical residue of sum_e coeffs[e] * w^e in Q(w), w of the given order."""
    return CycloField(order).from_raw(coeffs)


class Cyclotomic:
    """One element of Q(w) in canonical form. Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not a rational element: {self!r}")
        return self.coeffs[0]

    def conjugate(self) -> "Cyclotomic":
        fld = self.field
        out = [0] * fld.degree
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = fld.power_table[(-j) % fld.order]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        return Cyclotomic(fld, tuple(out))

    def norm2(self) -> "Cyclotomic":
        """self * conj(self): real and totally nonnegative, but rational only
        for special elements (sums of norms over conjugate-closed families are
        what the state machinery extracts rationals from)."""
        return self * self.conjugate()

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            if other.field is not self.field and other.field.order != self.field.order:
                raise ValueError("mixed root orders")
            return Cyclotomic(
                self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Cyclotomic):
            if other.field is not self.field and other.field.order != self.field.order:
                raise ValueError("mixed root orders")
            return Cyclotomic(
                self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
            )
        return NotImplemented

    def __neg__(self):
        return Cyclotomic(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        fld = self.field
        if isinstance(other, Cyclotomic):
            if other.field is not fld and other.field.order != fld.order:
                raise ValueError("mixed root orders")
            deg = fld.degree
            conv = [0] * (2 * deg - 1 if deg else 1)
            a = self.coeffs
            b = other.coeffs
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
            out = list(conv[:deg])
            for e in range(deg, len(conv)):
                c = conv[e]
                if c == 0:
                    continue
                row = fld.power_table[e % fld.order]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
            return Cyclotomic(fld, tuple(out))
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(fld, tuple(a * other for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            fa, fb = self.field, other.field
            return (fa is fb or fa.order == fb.order) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def to_complex(self) -> complex:
        M = self.field.order
        out = 0j
        for j, c in enumerate(self.coeffs):
            if c:
                out += float(c) * complex(cos(2 * pi * j / M), sin(2 * pi * j / M))
        return out

    def __repr__(self):
        return f"Cyclotomic(M={self.field.order}, coeffs={self.coeffs})"
