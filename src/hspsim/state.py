"""Sparse exact quantum-state simulation over mixed-radix registers.

A state is a dictionary from basis labels (tuples, one slot per register) to
amplitudes, together with a global integer scale N: the physical state is
(1/sqrt(N)) * sum amp(label) |label>.  With the exact backend, amplitudes are
cyclotomic integers, every square root generated by the transforms is absorbed
into N, and normalization sum a*conj(a) = N is an exact identity maintained by
every primitive.  A float backend with complex-double amplitudes mirrors the
same interface for cross-checking.

The two backend classes are the only code that knows which amplitude type is
in use: the weighted draw, the conjugate dot product, the transform of one
QFT fiber, the zero, equality and overlap tests, the memo key, the dump
format and the tally of counted terms (exact sums merge equal terms, float
sums keep them in label order) are backend methods, and the primitives below
never branch on the backend.  A draw walks the running totals up to a
`threshold`, randrange(total) when exact and random() * total when float,
which a caller with runs of equal weights can locate by division instead.
The exact backend builds its field on first amplitude use.  The float tests
carry tolerances: zero within 1e-10 * sqrt(N), a
mass equal to its scale within 1e-6 relative, and amplitude products and
squared overlaps equal within 1e-9 relative.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite, lcm, sqrt
from operator import attrgetter

from .cyclotomic import CycloField, Cyclotomic

SUPPORT_LIMIT = 1 << 20
# The exact backend's field keeps a power table of order * phi(order)
# coefficients, at most 4096 * 2048 since every root order here is a
# multiple of 4; m = 1009 (root order 4036) still fits.
ROOT_ORDER_LIMIT = 4096


class SimulationError(Exception):
    pass


class NonBijectionError(SimulationError):
    """A supplied classical map collided on the support."""


class NotProductError(SimulationError):
    """The requested register split is entangled."""


class ResourceLimitError(SimulationError):
    """A state or table would exceed the simulator's support limit, or a
    field its root-order limit; the instance itself may keep every promise."""


def _check_support(count: int) -> None:
    if count > SUPPORT_LIMIT:
        raise ResourceLimitError(f"support {count} exceeds the hard limit {SUPPORT_LIMIT}")


# ---------------------------------------------------------------------------
# Amplitude backends


def _walk(t, weights) -> int:
    """Index of the first weight whose running total exceeds t (the last index
    when none does): the one weighted draw, fed a threshold by each backend."""
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if t < acc:
            return i
    return len(weights) - 1


class ExactBackend:
    """Cyclotomic-integer amplitudes in Q(w), w of order M."""

    name = "exact"
    is_exact = True
    memo_key = staticmethod(attrgetter("coeffs"))

    def __init__(self, root_order: int):
        if root_order % 4:
            raise ValueError("root order must be divisible by 4 (the imaginary unit must exist)")
        self.root_order = root_order

    @cached_property
    def field(self) -> CycloField:
        """The field, built on first amplitude use: a reduced round reads no
        amplitude unless a capture hook asks for its payload."""
        if self.root_order > ROOT_ORDER_LIMIT:
            raise ResourceLimitError(
                f"field root order {self.root_order} exceeds the hard limit {ROOT_ORDER_LIMIT}"
            )
        return CycloField(self.root_order)

    one = cached_property(attrgetter("field.one"))
    zero = cached_property(attrgetter("field.zero"))

    def root(self, exponent: int) -> Cyclotomic:
        return self.field.root(exponent)

    def imag_unit(self) -> Cyclotomic:
        return self.field.root(self.root_order // 4)

    def is_zero(self, amp, scale) -> bool:
        return amp.is_zero()

    def is_normalized(self, mass, scale) -> bool:
        return mass == scale

    def equal(self, a, b, scale) -> bool:
        return (a - b).is_zero()

    def overlap(self, z, scale_a, scale_b) -> tuple[bool, bool]:
        """(equal up to a phase, orthogonal) for two states of the given
        scales whose unscaled inner product is z."""
        ov2 = z.norm2()
        return ov2 == scale_a * scale_b, ov2 == 0

    def is_positive_real(self, z) -> bool:
        # only asked of an overlap already found to be exactly
        # +-sqrt(scale_a * scale_b), so a float evaluation fixes the sign safely
        return (z - z.conjugate()).is_zero() and z.to_complex().real > 0

    def conj(self, amp):
        return amp.conjugate()

    def abs2(self, amp):
        """amp * conj(amp) as an exact field element (real, not always rational)."""
        return amp.norm2()

    def conj_dot(self, pairs):
        """sum conj(a) * b over (a, b) amplitude pairs."""
        return self.field.conj_dot(pairs)

    def conj_dot_counted(self, counted):
        """sum k * conj(a) * b over ((a, b), k) entries, each distinct pair
        accumulated once."""
        return self.field.conj_dot_counted(
            self.tally(((a.coeffs, b.coeffs), k) for (a, b), k in counted)
        )

    def tally(self, counted) -> list:
        """(item, count) entries with equal items merged, in first-seen order;
        exact sums do not depend on the order of their terms."""
        out: dict = {}
        for item, k in counted:
            out[item] = out.get(item, 0) + k
        return list(out.items())

    def mass(self, amps):
        """Total squared magnitude of an amplitude family, as an exact rational.

        Equal amplitudes are counted once by coefficient tuple, and each
        distinct one enters the field's accumulation once, with its
        multiplicity.  Individual squared magnitudes can be irrational; the
        closed families produced by the transforms here always sum to a
        rational, and a violation means the caller is measuring something the
        exact sampler cannot represent."""
        counts = Counter(a.coeffs for a in amps)
        total = self.field.conj_dot_counted(((c, c), k) for c, k in counts.items())
        return self._rational(total.coeffs)

    def mass_total(self, counted):
        """mass() of a family given as (abs2(amplitude), multiplicity) entries:
        canonical residues add coefficientwise, so no product is taken."""
        total = [0] * self.field.degree
        for w, k in counted:
            for i, c in enumerate(w.coeffs):
                if c:
                    total[i] += k * c
        return self._rational(total)

    @staticmethod
    def _rational(coeffs):
        if any(coeffs[1:]):
            raise SimulationError(
                "total squared amplitude is irrational; cannot sample exactly"
            )
        return coeffs[0]

    def threshold(self, rng, total: int) -> int:
        """The draw's threshold for an integer total: rng.randrange(total)."""
        return rng.randrange(total)

    def draw(self, rng, masses) -> int:
        """Index drawn with probability proportional to its (rational) mass:
        fractional masses are scaled to integers over a common denominator and
        the threshold comes from `threshold`, so the draw is exact."""
        total = sum(masses)
        if type(total) is not int:
            den = lcm(*[x.denominator for x in masses])
            masses = [int(x * den) for x in masses]
            total = sum(masses)
        return _walk(self.threshold(rng, total), masses)

    def fourier(self, d: int, step: int):
        """The transform of one fiber of a dimension-d register, with phase
        w^(step*x*y): a function from the fiber's (x, amplitude) terms to its d
        output amplitudes, y = 0..d-1.  Each output is accumulated as raw
        coefficients over powers of w, each input coefficient shifted by its
        exponent, and canonicalized once; canonical residues are unique, so it
        equals the per-term fold.  Within one transform, nonzero coefficients
        are listed once per distinct amplitude, and each distinct fiber (its
        tuple of (x, coefficients) terms) is transformed once."""
        M = self.root_order
        # i + offs[t] lies in [-M, M): a negative index wraps to the same power
        offs = [(step * t) % M - M for t in range(d)]
        from_raw = self.field.from_raw
        nonzero: dict = {}  # coefficient tuple -> its nonzero (power, coefficient)s
        done: dict = {}  # fiber terms -> its d outputs

        def fiber(terms):
            terms = tuple((x, amp.coeffs) for x, amp in terms)
            out = done.get(terms)
            if out is not None:
                return out
            listed = []
            for x, c in terms:
                nz = nonzero.get(c)
                if nz is None:
                    nz = nonzero[c] = [(i, v) for i, v in enumerate(c) if v]
                listed.append((x, nz))
            out = done[terms] = []
            for y in range(d):
                raw = [0] * M
                for x, nz in listed:
                    off = offs[x * y % d]
                    for i, v in nz:
                        raw[i + off] += v
                out.append(from_raw(raw))
            return out

        return fiber

    def format_amp(self, amp) -> str:
        return str(list(amp.coeffs))

    def to_complex(self, amp) -> complex:
        return amp.to_complex()


class FloatBackend:
    """Complex-double mirror of the exact backend (comparison runs only); its
    tests carry the tolerances listed in the module docstring."""

    name = "float"
    is_exact = False
    tol = 1e-10
    # equal complex values can differ in the sign of a zero, so memo tables
    # key on the amplitude objects
    memo_key = staticmethod(id)

    def __init__(self, root_order: int):
        if root_order % 4:
            raise ValueError("root order must be divisible by 4")
        self.root_order = root_order
        self.one = 1.0 + 0.0j
        self.zero = 0.0j

    def root(self, exponent: int) -> complex:
        return cmath.exp(2j * cmath.pi * exponent / self.root_order)

    def imag_unit(self) -> complex:
        return 1j

    @staticmethod
    def _real(scale) -> float:
        """A scale as a float for the tolerances.  One past the float range
        is a resource limit, never an inf that every tolerance accepts
        (1e200 * 1e200 is inf with no exception)."""
        try:
            x = float(scale)
        except OverflowError:  # an integer scale past the float range
            x = inf
        if not isfinite(x):
            raise ResourceLimitError("state scale exceeds the float range")
        return x

    def is_zero(self, amp, scale) -> bool:
        return abs(amp) <= self.tol * sqrt(self._real(scale))

    def is_normalized(self, mass, scale) -> bool:
        s = self._real(scale)
        return abs(mass - s) <= 1e-6 * s

    def equal(self, a, b, scale) -> bool:
        return abs(a - b) <= 1e-9 * self._real(scale)

    def overlap(self, z, scale_a, scale_b) -> tuple[bool, bool]:
        # the product of two finite scales can still leave the float range
        rel = self.abs2(z) / self._real(self._real(scale_a) * self._real(scale_b))
        return abs(rel - 1.0) <= 1e-9, abs(rel) <= 1e-9

    def is_positive_real(self, z) -> bool:
        return abs(z.imag) < 1e-9 and z.real > 0

    def conj(self, amp):
        return amp.conjugate()

    def abs2(self, amp):
        return amp.real * amp.real + amp.imag * amp.imag

    def conj_dot(self, pairs):
        return self.conj_dot_counted((pair, 1) for pair in pairs)

    # Float sums depend on the order of their terms, so counted entries are
    # label runs in label order: an entry with count k adds its term k times
    # where it stands, and tally() merges nothing.

    def conj_dot_counted(self, counted):
        out = None
        for (a, b), k in counted:
            term = a.conjugate() * b
            for _ in range(k):
                out = term if out is None else out + term
        return self.zero if out is None else out

    def tally(self, counted) -> list:
        return list(counted)

    def mass(self, amps):
        return sum(self.abs2(a) for a in amps)

    def mass_total(self, counted):
        return sum(w for w, k in counted for _ in range(k))

    def threshold(self, rng, total) -> float:
        """The draw's threshold: rng.random() * total, a float."""
        try:
            return rng.random() * total
        except OverflowError:  # an integer total past the float range
            raise ResourceLimitError("draw total exceeds the float range") from None

    def draw(self, rng, masses) -> int:
        return _walk(self.threshold(rng, sum(masses)), masses)

    def fourier(self, d: int, step: int):
        roots = [self.root(step * t) for t in range(d)]

        def fiber(terms):
            out = []
            for y in range(d):
                acc = None
                for x, amp in terms:
                    term = amp * roots[x * y % d]
                    acc = term if acc is None else acc + term
                out.append(acc)
            return out

        return fiber

    def format_amp(self, amp) -> str:
        return repr(amp)

    def to_complex(self, amp) -> complex:
        return amp


def make_backend(kind: str, root_order: int):
    if kind == "exact":
        return ExactBackend(root_order)
    if kind == "float":
        return FloatBackend(root_order)
    raise ValueError(f"unknown backend {kind!r}")


# ---------------------------------------------------------------------------
# Registers


@dataclass(frozen=True)
class Register:
    """One addressable slot of the label tuple."""

    name: str
    kind: str  # "digit" (mod-d value), "qubit", or "group" (packed element code)
    dim: int

    def __post_init__(self):
        if self.kind not in ("digit", "qubit", "group"):
            raise ValueError(f"unknown register kind {self.kind!r}")
        if self.kind == "qubit" and self.dim != 2:
            raise ValueError("qubit registers have dimension 2")
        if self.dim < 1:
            raise ValueError("register dimension must be positive")


class RegisterLayout:
    """Ordered register list with name lookup."""

    def __init__(self, registers):
        regs = tuple(registers)
        names = [r.name for r in regs]
        if len(set(names)) != len(names):
            raise ValueError("register names must be unique")
        self.registers = regs
        self.index = {r.name: i for i, r in enumerate(regs)}

    def dim(self, name: str) -> int:
        return self.registers[self.index[name]].dim

    def names(self) -> list[str]:
        return [r.name for r in self.registers]

    def zero_label(self) -> tuple[int, ...]:
        return (0,) * len(self.registers)

    def __len__(self):
        return len(self.registers)

    def __eq__(self, other):
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __repr__(self):
        inner = ", ".join(f"{r.name}:{r.kind}({r.dim})" for r in self.registers)
        return f"RegisterLayout({inner})"


# ---------------------------------------------------------------------------
# States


class SparseState:
    """Sparse state with a global 1/sqrt(scale) factor."""

    __slots__ = ("layout", "backend", "scale", "amps")

    def __init__(self, layout: RegisterLayout, backend, scale, amps: dict):
        self.layout = layout
        self.backend = backend
        self.scale = scale
        self.amps = amps
        if not amps:
            raise SimulationError("state support must be nonempty")

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.amps)

    def amplitude(self, label) -> object:
        return self.amps.get(tuple(label), self.backend.zero)

    def mass(self):
        """sum a * conj(a) over the support (equals scale when normalized)."""
        return self.backend.mass(self.amps.values())

    def check_normalization(self) -> None:
        if not self.backend.is_normalized(self.mass(), self.scale):
            raise SimulationError("normalization invariant violated")

    def complex_amplitude(self, label) -> complex:
        return self.backend.to_complex(self.amplitude(label)) / sqrt(float(self.scale))

    def dump(self) -> str:
        fmt = self.backend.format_amp
        lines = [f"N={self.scale}"]
        lines += [f"{label} {fmt(self.amps[label])}" for label in self.support()]
        return "\n".join(lines)

    def copy_with(self, amps=None, scale=None) -> "SparseState":
        return SparseState(
            self.layout,
            self.backend,
            self.scale if scale is None else scale,
            dict(self.amps) if amps is None else amps,
        )


def prepare_zero(layout: RegisterLayout, backend) -> SparseState:
    return SparseState(layout, backend, 1, {layout.zero_label(): backend.one})


def prepare_basis(layout: RegisterLayout, backend, label) -> SparseState:
    label = tuple(label)
    for v, r in zip(label, layout.registers):
        if not 0 <= v < r.dim:
            raise ValueError("label out of range")
    return SparseState(layout, backend, 1, {label: backend.one})


def _pruned(backend, amps: dict, scale) -> dict:
    out = {lbl: a for lbl, a in amps.items() if not backend.is_zero(a, scale)}
    if not out:
        raise SimulationError("all amplitudes vanished (not a unitary step?)")
    return out


def apply_qft(state: SparseState, register: str, inverse: bool = False) -> SparseState:
    """Fourier transform of one digit register: |x> -> sum_y w^{xy} |y> / sqrt(d).

    Output labels come in first-seen order: each fiber (the labels that differ
    only in this register) gives its d labels y = 0..d-1 where its first input
    label stood.  The backend computes each fiber's d outputs."""
    idx = state.layout.index[register]
    reg = state.layout.registers[idx]
    if reg.kind != "digit":
        raise ValueError("Fourier transform applies to digit registers")
    d = reg.dim
    backend = state.backend
    M = backend.root_order
    if M % d:
        raise ValueError(f"register dimension {d} does not divide the root order {M}")
    fibers: dict = {}
    for label, amp in state.amps.items():
        fibers.setdefault((label[:idx], label[idx + 1 :]), []).append((label[idx], amp))
    _check_support(len(fibers) * d)
    transform = backend.fourier(d, -(M // d) if inverse else M // d)
    new: dict = {}
    for (pre, post), terms in fibers.items():
        for y, out in enumerate(transform(terms)):
            new[pre + (y,) + post] = out
    scale = state.scale * d
    return SparseState(state.layout, backend, scale, _pruned(backend, new, scale))


def apply_hadamard(state: SparseState, register: str) -> SparseState:
    idx = state.layout.index[register]
    if state.layout.registers[idx].kind != "qubit":
        raise ValueError("Hadamard applies to qubit registers")
    minus_one = state.backend.root(state.backend.root_order // 2)
    new: dict = {}
    for label, amp in state.amps.items():
        x = label[idx]
        pre = label[:idx]
        post = label[idx + 1 :]
        for y in (0, 1):
            a = amp * minus_one if (x & y) else amp
            nl = pre + (y,) + post
            cur = new.get(nl)
            new[nl] = a if cur is None else cur + a
    scale = state.scale * 2
    return SparseState(state.layout, state.backend, scale, _pruned(state.backend, new, scale))


def apply_classical_map(state: SparseState, mapping) -> SparseState:
    """Permute basis labels by a bijection; collisions on the support fault."""
    new: dict = {}
    for label, amp in state.amps.items():
        nl = tuple(mapping(label))
        if nl in new:
            raise NonBijectionError(f"labels collide at {nl}")
        new[nl] = amp
    return SparseState(state.layout, state.backend, state.scale, new)


def conditional_phase_i(state: SparseState, predicate, turns: int = 1) -> SparseState:
    """Multiply amplitudes on labels satisfying the predicate by i^turns.

    The product is computed once per distinct flagged amplitude (keyed by the
    backend's memo_key)."""
    backend = state.backend
    ph = backend.root((backend.root_order // 4) * (turns % 4))
    if turns % 4 == 0:
        return state.copy_with()
    key = backend.memo_key
    memo = {}
    new = {}
    for lbl, amp in state.amps.items():
        if predicate(lbl):
            k = key(amp)
            val = memo.get(k)
            if val is None:
                val = memo[k] = amp * ph
            amp = val
        new[lbl] = amp
    return SparseState(state.layout, backend, state.scale, new)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    if a.backend is not b.backend and a.backend.name != b.backend.name:
        raise ValueError("mixed backends")
    layout = RegisterLayout(a.layout.registers + b.layout.registers)
    _check_support(len(a.amps) * len(b.amps))
    amps = {}
    for la, va in a.amps.items():
        for lb, vb in b.amps.items():
            amps[la + lb] = va * vb
    return SparseState(layout, a.backend, a.scale * b.scale, amps)


def drop_register(state: SparseState, register: str) -> SparseState:
    """Remove a register whose value is constant across the support."""
    idx = state.layout.index[register]
    values = {lbl[idx] for lbl in state.amps}
    if len(values) != 1:
        raise SimulationError("register is not constant; cannot drop")
    layout = RegisterLayout(
        state.layout.registers[:idx] + state.layout.registers[idx + 1 :]
    )
    amps = {lbl[:idx] + lbl[idx + 1 :]: a for lbl, a in state.amps.items()}
    return SparseState(layout, state.backend, state.scale, amps)


def rename_register(state: SparseState, old: str, new: str) -> SparseState:
    regs = [
        Register(new, r.kind, r.dim) if r.name == old else r
        for r in state.layout.registers
    ]
    return SparseState(RegisterLayout(regs), state.backend, state.scale, dict(state.amps))


# ---------------------------------------------------------------------------
# Measurement


def pick_outcome(backend, groups: dict, mass, mode: str, rng):
    """The one outcome draw: pick a measured value among the keys of groups,
    `mass(group)` giving each group's mass.  Deterministic mode takes the
    least value and computes only its mass; seeded mode draws over the
    sorted values by their masses with `backend.draw`.

    Returns (value, scale, den): the picked group's mass as the collapsed
    state's scale, and the factor den by which its amplitudes are rescaled.
    An exact Fraction mass is cleared to an integer scale, den its
    denominator; any other mass is the scale itself, with den 1."""
    if mode == "deterministic":
        value = min(groups)
        total = mass(groups[value])
    elif mode == "seeded":
        if rng is None:
            raise ValueError("seeded measurement needs an rng")
        values = sorted(groups)
        masses = [mass(groups[v]) for v in values]
        i = backend.draw(rng, masses)
        value, total = values[i], masses[i]
    else:
        raise ValueError(f"unknown measurement mode {mode!r}")
    if isinstance(total, Fraction):
        den = total.denominator
        return value, int(total * den * den), den
    return value, total, 1


def measure_register(state: SparseState, register: str, mode: str = "seeded", rng=None):
    """Measure one register. Returns (outcome, collapsed state): the outcome
    is `pick_outcome` over the register's values, each group of amplitudes
    weighed by its exact mass on the exact backend."""
    idx = state.layout.index[register]
    groups: dict[int, list] = {}
    for lbl, amp in state.amps.items():
        groups.setdefault(lbl[idx], []).append(amp)
    outcome, scale, den = pick_outcome(state.backend, groups, state.backend.mass, mode, rng)
    kept = {lbl: a for lbl, a in state.amps.items() if lbl[idx] == outcome}
    if den != 1:
        kept = {lbl: a * den for lbl, a in kept.items()}
    return outcome, SparseState(state.layout, state.backend, scale, kept)


def measure_registers(state, registers, mode="seeded", rng=None):
    outcomes = []
    for reg in registers:
        out, state = measure_register(state, reg, mode=mode, rng=rng)
        outcomes.append(out)
    return tuple(outcomes), state


# ---------------------------------------------------------------------------
# Product structure


def factor_split(state: SparseState, registers) -> tuple[SparseState, SparseState]:
    """Split into (state on the named registers, state on the rest).

    Succeeds only when the amplitudes factor exactly across the partition;
    raises NotProductError otherwise.  Both factors come back normalized.
    """
    names = list(registers)
    idxs = [state.layout.index[r] for r in names]
    if not idxs or len(idxs) == len(state.layout.registers):
        raise ValueError("split must be a proper nonempty register subset")
    rest_idxs = [i for i in range(len(state.layout.registers)) if i not in idxs]

    def part(lbl, ids):
        return tuple(lbl[i] for i in ids)

    grouped: dict[tuple, dict] = {}
    for lbl, amp in state.amps.items():
        grouped.setdefault(part(lbl, idxs), {})[part(lbl, rest_idxs)] = amp

    r_keys = sorted(grouped)
    c_keys = sorted(grouped[r_keys[0]])
    c_set = set(c_keys)
    for r in r_keys:
        if set(grouped[r]) != c_set:
            raise NotProductError("support is not a rectangle")
    r0, c0 = r_keys[0], c_keys[0]
    a00 = grouped[r0][c0]
    # cross-ratio identity a(r,c) * a(r0,c0) == a(r,c0) * a(r0,c), checked exactly
    for r in r_keys:
        arc0 = grouped[r][c0]
        for c in c_keys:
            lhs = grouped[r][c] * a00
            rhs = arc0 * grouped[r0][c]
            if not state.backend.equal(lhs, rhs, state.scale):
                raise NotProductError("amplitudes do not factor")

    left_layout = RegisterLayout([state.layout.registers[i] for i in idxs])
    right_layout = RegisterLayout([state.layout.registers[i] for i in rest_idxs])
    left_amps = {r: grouped[r][c0] for r in r_keys}
    right_amps = {c: grouped[r0][c] for c in c_keys}
    left_scale = state.backend.mass(left_amps.values())
    right_scale = state.backend.mass(right_amps.values())
    left = SparseState(left_layout, state.backend, left_scale, left_amps)
    right = SparseState(right_layout, state.backend, right_scale, right_amps)
    return left, right


def inner_product_unscaled(a: SparseState, b: SparseState):
    """sum conj(a_amp) * b_amp over the common support (scales not divided out)."""
    common = ((a.amps.get(lbl), bv) for lbl, bv in b.amps.items())
    return a.backend.conj_dot((av, bv) for av, bv in common if av is not None)


def states_equal(a: SparseState, b: SparseState, up_to_phase: bool = False) -> bool:
    """Exact state equality (as normalized vectors); optionally up to a global phase."""
    if a.layout.names() != b.layout.names():
        return False
    z = inner_product_unscaled(a, b)
    equal, _orthogonal = a.backend.overlap(z, a.scale, b.scale)
    if not equal:
        return False
    # phase-free equality additionally needs <a|b> real and positive
    return up_to_phase or a.backend.is_positive_real(z)


def states_close(a: SparseState, b: SparseState, tol: float = 1e-9) -> bool:
    """Per-amplitude comparison after converting both sides to complex doubles."""
    labels = set(a.amps) | set(b.amps)
    return all(
        abs(a.complex_amplitude(lbl) - b.complex_amplitude(lbl)) <= tol for lbl in labels
    )


# ---------------------------------------------------------------------------
# Circuits


class Step:
    def apply(self, state: SparseState) -> SparseState:
        raise NotImplementedError

    def inverted(self) -> "Step":
        raise NotImplementedError

    def count(self, stats, inverse: bool = False) -> None:
        """Record the queries that one application of this step, or of its
        inverse when `inverse` is set, makes; most steps make none."""


@dataclass(frozen=True)
class QftStep(Step):
    register: str
    inverse: bool = False

    def apply(self, state):
        return apply_qft(state, self.register, inverse=self.inverse)

    def count(self, stats, inverse=False):
        if self.inverse != inverse:
            stats.qft_inverse_calls += 1
        else:
            stats.qft_calls += 1

    def inverted(self):
        return QftStep(self.register, not self.inverse)


@dataclass(frozen=True)
class HadamardStep(Step):
    register: str

    def apply(self, state):
        return apply_hadamard(state, self.register)

    def inverted(self):
        return self


@dataclass(frozen=True)
class PhaseStep(Step):
    """Phase i^turns on labels satisfying the predicate."""

    predicate: object
    turns: int = 1

    def apply(self, state):
        return conditional_phase_i(state, self.predicate, turns=self.turns)

    def inverted(self):
        return PhaseStep(self.predicate, (-self.turns) % 4)


@dataclass(frozen=True)
class ClassicalStep(Step):
    forward: object
    backward: object

    def apply(self, state):
        return apply_classical_map(state, self.forward)

    def inverted(self):
        return ClassicalStep(self.backward, self.forward)


class ReflectStep(Step):
    """The operator prep . S0(i^turns) . prep^{-1} = I + (i^turns - 1)|Psi><Psi|
    with Psi = prep|0>: a phase reflection about the prepared state.

    It is applied by that identity, which equals the literal three-step
    composition on every input, so prep^{-1} is never run and prep needs no
    inverse steps; `count` charges the uncompute as prep counted in reverse.

    A caller that already holds Psi passes it as psi, and prep is then never
    run; otherwise Psi is computed from |0> on first use.
    """

    def __init__(self, prep: "Circuit", turns: int = 1, psi: SparseState | None = None):
        self.prep = prep
        self.turns = turns % 4
        self._psi_cache: dict = {}
        if psi is not None:
            self._psi_cache[self._key(psi.layout, psi.backend)] = psi

    @staticmethod
    def _key(layout: RegisterLayout, backend) -> tuple:
        return (tuple(layout.names()), backend.name)

    def _psi(self, layout: RegisterLayout, backend) -> SparseState:
        key = self._key(layout, backend)
        psi = self._psi_cache.get(key)
        if psi is None:
            psi = self.prep.run(prepare_zero(layout, backend))
            self._psi_cache[key] = psi
        return psi

    def count(self, stats, inverse=False):
        # one inverse and one forward pass of prep per application, the
        # inverse reflection included
        self.prep.count(stats, inverse=True)
        self.prep.count(stats)

    def apply(self, state: SparseState) -> SparseState:
        psi = self._psi(state.layout, state.backend)
        if self.turns == 0:
            return state
        backend = state.backend
        z = inner_product_unscaled(psi, state)
        phase = backend.root((backend.root_order // 4) * self.turns)
        coef = (phase - backend.one) * z
        npsi = psi.scale
        pamps = psi.amps
        # amp * npsi + coef * p depends on the label only through (amp, p),
        # and the states here repeat few values over many labels: fold each
        # distinct pair once, keyed by the backend's memo_key.
        key = backend.memo_key
        memo = {}
        new = {}
        for lbl, amp in state.amps.items():
            p = pamps.get(lbl)
            pair = (key(amp), None if p is None else key(p))
            val = memo.get(pair)
            if val is None:
                val = memo[pair] = amp * npsi if p is None else amp * npsi + coef * p
            new[lbl] = val
        for lbl, p in pamps.items():
            if lbl not in new:
                pair = (None, key(p))
                val = memo.get(pair)
                if val is None:
                    val = memo[pair] = coef * p
                new[lbl] = val
        scale = state.scale * npsi * npsi
        return SparseState(state.layout, backend, scale, _pruned(backend, new, scale))

    def inverted(self) -> "ReflectStep":
        return ReflectStep(self.prep, (-self.turns) % 4)


@dataclass(frozen=True)
class Circuit:
    """A sequence of primitive steps.  `inverse()` needs every step to have
    an `inverted()`; an oracle step has none, so a circuit that holds one is
    only run forwards and counted either way."""

    steps: tuple[Step, ...]

    @classmethod
    def of(cls, *steps) -> "Circuit":
        flat = []
        for s in steps:
            if isinstance(s, Circuit):
                flat.extend(s.steps)
            else:
                flat.append(s)
        return cls(tuple(flat))

    def inverse(self) -> "Circuit":
        return Circuit(tuple(s.inverted() for s in reversed(self.steps)))

    def run(self, state: SparseState) -> SparseState:
        for s in self.steps:
            state = s.apply(state)
        return state

    def count(self, stats, inverse: bool = False) -> None:
        """Record the queries of one run, or of one run of the inverse circuit
        when `inverse` is set, without simulating it.  This walk is the one
        query-accounting path: run() records nothing, so a caller that
        simulates a circuit counts it here."""
        for s in reversed(self.steps) if inverse else self.steps:
            s.count(stats, inverse)


class StatePrep:
    """A preparation procedure identified with the state it produces from zeros
    on a named register block: an oracle's value block, which each query
    writes where the block is zero (`OracleStep`).

    The state may be given as a function of no arguments instead; it is then
    computed on the first read of `state`, so a preparation that no simulated
    query or scan reads never builds its state."""

    def __init__(self, registers, state):
        self.registers = tuple(registers)
        self._state = state

    @property
    def state(self) -> SparseState:
        if not isinstance(self._state, SparseState):
            self._state = self._state()
        return self._state


def amplitude_amplify(prep: Circuit, good) -> Circuit:
    """One exact amplification pass: prep, phase i on good labels, inverse prep,
    phase i on the all-zero label, prep again.

    When the good squared amplitude of prep|0> is exactly one half, the result
    has exactly zero mass outside the good labels; when it is zero, it stays
    zero.  The trailing three factors are one reflection about prep|0> (the
    identical operator), so the pass runs prep forwards only and counts the
    inverse prep without running it.
    """
    return Circuit.of(prep, PhaseStep(good, 1), ReflectStep(prep, 1))
