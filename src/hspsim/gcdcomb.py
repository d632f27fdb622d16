"""Deterministic gcd-preserving linear combination.

Given z_1, ..., z_s and a modulus m, produce coefficients u_1, ..., u_{s-1}
with gcd(u_1 z_1 + ... + u_{s-1} z_{s-1} + z_s, m) = gcd(z_1, ..., z_s, m).
The pair case sieves the small prime divisors of the (reduced) modulus, picks a
good residue class for each, combines them by CRT and scans a short arithmetic
progression; the scan is guaranteed to succeed within floor(log2 m) + 1 steps.
"""

from __future__ import annotations

from math import gcd


def _small_prime_divisors(n: int, bound: int) -> list[int]:
    """Prime divisors of n that are strictly below bound."""
    out = []
    d = 2
    r = n
    while d * d <= r and d < bound:
        if r % d == 0:
            out.append(d)
            while r % d == 0:
                r //= d
        d += 1
    if 1 < r < bound:
        out.append(r)
    return out


def _crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    x, mod = 0, 1
    for r, p in zip(residues, moduli):
        # moduli are distinct primes, so the running modulus is invertible mod p
        inv = pow(mod, -1, p)
        t = ((r - x) * inv) % p
        x += mod * t
        mod *= p
    return x % mod, mod


def _combine_pair_stats(z1: int, z2: int, m: int) -> tuple[int, int]:
    """Return (u, scan_steps) for the pair case."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 0, 0
    if not (0 <= z1 < m and 0 <= z2 < m):
        raise ValueError("inputs must be reduced mod m")
    g = gcd(gcd(z1, z2), m)
    a, b, mm = z1 // g, z2 // g, m // g
    if mm == 1:
        return 0, 0
    # coprime case: find u with gcd(u*a + b, mm) = 1
    bound = mm.bit_length()  # floor(log2 mm) + 1 > log2 mm
    primes = _small_prime_divisors(mm, bound)
    residues = []
    for p in primes:
        if a % p:
            inv = pow(a, -1, p)
            residues.append(((1 - b) * inv) % p)
        else:
            # p divides a, so p cannot divide b; any residue class works
            residues.append(0)
    if primes:
        u0, step = _crt(residues, primes)
    else:
        u0, step = 0, 1
    for t in range(bound):
        u = u0 + t * step
        if gcd(u * a + b, mm) == 1:
            return u % m, t + 1
    raise AssertionError("scan bound exceeded; unreachable for valid inputs")


def combine_pair(z1: int, z2: int, m: int) -> int:
    """Coefficient u in [0, m) with gcd(u*z1 + z2, m) = gcd(z1, z2, m)."""
    return _combine_pair_stats(z1, z2, m)[0]


def combine_many(zs, m: int) -> list[int]:
    """Coefficients u_1..u_{s-1} with
    gcd(u_1 z_1 + ... + u_{s-1} z_{s-1} + z_s, m) = gcd(z_1, ..., z_s, m).

    Folds right to left: each step combines the current tail value with the
    next z using the pair routine.
    """
    zs = [int(z) for z in zs]
    if not zs:
        raise ValueError("need at least one value")
    if any(not (0 <= z < m) for z in zs):
        raise ValueError("inputs must be reduced mod m")
    s = len(zs)
    if s == 1:
        return []
    us = [0] * (s - 1)
    tail = zs[-1]
    for i in range(s - 2, -1, -1):
        u = combine_pair(zs[i], tail, m)
        us[i] = u
        tail = (u * zs[i] + tail) % m
    return us
