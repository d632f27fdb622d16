"""Exact hidden-subgroup solver for Z_{m^k}^n.

The exponent-1 solver keeps a growing subgroup K of the hidden subgroup and a
growing subgroup L of its orthogonal complement.  Each round probes a vector u
from L-perp outside K: Fourier sampling plus a helper qubit feeds one exact
amplification pass per threshold index j, and the measured register either
yields a new element of the complement (nonzero pairing with u) or, if every j
fails, certifies u itself belongs to the hidden subgroup.  Exponent k > 1 is
reduced to exponent 1 by repeatedly solving inside the divide-by-m lift of the
subgroup found so far.

Two equivalent round implementations exist: a dense one that drives the sparse
state machinery through the full circuit, and a reduced one that evaluates the
same amplitudes on the pairing-value classes of the sampled register.  The
amplification operator is a reflection about the prepared state, so after it
a label's amplitude depends only on its flag bit: the reduced round computes
two amplitudes per threshold index, both Gaussian integers, and weighs the
classes by their integer norms on either amplitude backend.  The two rounds
are cross-checked in the test suite.

The reduced round enumerates no subgroup.  It needs the complement P of the
hidden subgroup, which the subgroup's rep computes once and keeps.  The
pairing with the probe u maps P onto d * Z_m, so each class a (a multiple of
d) holds |P| * d / m elements and is the coset (a/d) * y_d + kernel, both
read off one gcd elimination over the pairings of u with P's basis.  A
measured element is the lexicographically r-th element of such a coset,
found in O(n^2) from the kernel's triangular basis: the least one over the
support classes when deterministic, a uniform rank in the sampled class when
seeded, which is the element and the RNG draw the sorted complement gave.
Flags are constant on four runs of classes, so a round costs O(|js|)
arithmetic plus O(n^2 log m) lattice and pick work, and the exact backend
builds its field only when an amplitude is read (a capture hook's payload).

The reduced round needs the hidden subgroup, so method="auto" runs it
exactly when the oracle knows that subgroup (`hidden_known`).  Every oracle
is one forward map `mult` of value labels; a classical f given as
`label_fn` only builds it.  Coset oracles (`build_coset_oracle`) and the
swap test's oracle on its promise declare the subgroup they hide, so a
reduced solve on them evaluates no f.  When an exponent-k oracle's subgroup
H is known, the composed oracle of each divide-by-m step declares the
preimage of H under its section, which agrees modulo the subgroup found so
far with a linear map, so reduced solves evaluate no f at any k.  Every
other oracle, classical or state-valued, finds its subgroup by one exact
scan of f over Z_q^n: each f(x) is the value block relabelled by
mult(x, .), states are compared by exact equality, and the scan accepts only
when their classes are the cosets of a subgroup and values on distinct
cosets are orthogonal.  `verify_hidden` runs the same scan.  An oracle off
that promise keeps its hidden subgroup unknown and runs the dense round,
which stays the reference every reduced path is checked against.

The Fourier-sampled state Phi (QFT, f, QFT from |0>) depends only on the
oracle and the amplitude backend, so the dense round computes it once per
oracle and backend.  A pass is prep, phase i on flagged labels, and the
reflection I + (i - 1)|Psi><Psi| about Psi = prep|0>, so a label whose Psi
amplitude is a and whose flag is f ends with a * A_f, where
A_f = phase(f) * N_Psi + (i - 1)<Psi|phase Psi>, the identity the reduced
round also uses.  The flag depends on x only through its pairing with the
probe, so each round tallies Phi into (pairing, amplitude) classes, and each
(probe, j) pass computes its values once per distinct (amplitude, flag), with
the steps' arithmetic in the steps' order, and is measured from sums over
those classes; the post-pass state is built only for a capture hook or a
caller that asks for it.  The Hadamard, phase and reflection steps run only
in the literal pass the tests compare it with.

Queries run forwards only: the reflection's uncompute, prep^{-1}, is never
simulated, and its inverse oracle and QFT calls are charged by counting prep
in reverse (`Circuit.count(inverse=True)`).  Running a circuit records no
query: `Circuit.count` is the one accounting path, and `OracleStep.count`
the one place an f call is charged.

Both rounds are generators that yield each (probe, j) pass's measured x
with its pairing and keep no books.  `hsp_round` alone records them: the
passes' queries with `HidingOracle.record_passes` (every pass makes the same
queries, so a tally of one pass circuit, walked once per n, is scaled), the
probe count, the `RoundTrace`, and whether a nonzero pairing found an
element of the complement.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import product as _cartesian
from operator import mul

from .lattice import (
    SubgroupRep,
    coset_element,
    coset_representative,
    equal_or_witness,
    full_subgroup,
    join,
    least_with_pairing,
    lift_by_m,
    pairing_fibers,
    perp_subgroup,
    section_map,
    subgroup_from_generators,
    trivial_subgroup,
)
from .state import (
    Circuit,
    ClassicalStep,
    HadamardStep,
    PrepStep,
    QftStep,
    Register,
    RegisterLayout,
    ResourceLimitError,
    SimulationError,
    SparseState,
    Step,
    _check_support,
    amplitude_amplify,
    apply_classical_map,
    inner_product_unscaled,
    make_backend,
    pick_outcome,
    prepare_zero,
)


# The first 13 primes.  Miller-Rabin to all of them as bases is exact below
# psi_13 = 3317044064679887385961981 (Sorenson & Webster, 2015); the first 12
# alone are exact only below psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test: division by the small primes of _MR_BASES, then
    deterministic Miller-Rabin to each of them as a base.  A number above
    the test's exact range without a small factor is a resource limit."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ResourceLimitError(
            f"primality of {n} is decided exactly only below {_MR_EXACT_BELOW}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def round_flag(m: int, j: int, pairing: int, b: int) -> int:
    """Acceptance flag for one amplification pass: set when the pairing lands in
    the upper half of [0, m), or the helper qubit is on and the pairing lies in
    (0, 2^j]."""
    if 2 * pairing >= m:
        return 1
    if b == 1 and j >= 0 and 0 < pairing <= (1 << j):
        return 1
    return 0


def probe_schedule(m: int) -> list[int]:
    """Threshold indices probed per round: -1 .. floor(log2 m), shrunk to
    {-1, 0} for prime moduli."""
    if is_prime(m):
        return [-1, 0]
    return list(range(-1, m.bit_length()))


@dataclass
class QueryStats:
    """Oracle and transform accounting for one solve."""

    f_calls: int = 0
    f_inverse_calls: int = 0
    qft_calls: int = 0
    qft_inverse_calls: int = 0
    rounds: int = 0
    j_probes: int = 0
    reduction_rounds: int = 0
    reduction_solves: int = 0

    def merge(self, other: "QueryStats", times: int = 1) -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + times * value)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RoundAttempt:
    j: int
    x: tuple[int, ...]
    pairing: int


@dataclass
class RoundTrace:
    probe: tuple[int, ...]
    attempts: list[RoundAttempt] = field(default_factory=list)
    found: bool = False

    def to_dict(self) -> dict:
        return {
            "probe": list(self.probe),
            "attempts": [
                {"j": a.j, "x": list(a.x), "pairing": a.pairing} for a in self.attempts
            ],
            "found": self.found,
        }


# ---------------------------------------------------------------------------
# Oracles

# one amplification pass's query tally per n (see HidingOracle.record_passes)
_PASS_TALLY: dict[int, QueryStats] = {}


class HidingOracle:
    """The query |x>|0> -> |x>|f(x)> as one forward map of value labels,
    `mult(x, v)`.

    `mult` relabels the value block into f(x): the block is the prepared
    state `prep` when the oracle has one, else |0> on the value registers.
    `label_fn=f` is a short way to build `mult` for a classical f: it adds
    f(x) into the value digits.  No inverse query is ever simulated: the
    amplification pass uncomputes by a reflection about the prepared state
    and only counts its inverse queries.  An oracle built with `hidden` is
    known to hide that subgroup and is not checked; one built without it
    finds its subgroup by one exact scan when it keeps the promise
    (`hidden_known`), so reduced rounds run on it either way.
    """

    def __init__(
        self,
        m: int,
        k: int,
        n: int,
        value_registers,
        *,
        label_fn=None,
        prep=None,
        mult=None,
        hidden: SubgroupRep | None = None,
    ):
        if hidden is not None and (hidden.m, hidden.k, hidden.n) != (m, k, n):
            raise ValueError(
                f"hidden subgroup has (m, k, n) = {(hidden.m, hidden.k, hidden.n)}, "
                f"the oracle {(m, k, n)}"
            )
        self.m, self.k, self.n = m, k, n
        self.value_registers = tuple(value_registers)
        self.prep = prep
        self._hidden = hidden
        self._scanned = False
        self._sampled: dict = {}
        self._tallies: dict = {}
        if label_fn is not None:
            if mult is not None:
                raise ValueError("give label_fn or mult, not both")
            dims = [r.dim for r in self.value_registers]

            def mult(x, v):
                return tuple((a + b) % d for a, b, d in zip(v, label_fn(x), dims))

        elif mult is None:
            raise ValueError("an oracle needs label_fn or mult")
        self.mult = mult

    @property
    def modulus(self) -> int:
        return self.m**self.k

    @property
    def hidden_known(self) -> bool:
        """Whether hidden_subgroup() is available without simulating a query:
        declared at construction, or found by one exact scan of an oracle
        that keeps the hiding promise.  The scan runs on first use and its
        outcome is kept."""
        if self._hidden is None and not self._scanned:
            self._scanned = True
            self._hidden = self._scan_states()
        return self._hidden is not None

    def hidden_subgroup(self) -> SubgroupRep:
        """The subgroup this oracle hides: the one it was built with, or the
        one its exact scan found."""
        if not self.hidden_known:
            raise ValueError("the oracle breaks the hiding promise")
        return self._hidden

    def _scan_states(self) -> SubgroupRep | None:
        """The subgroup this oracle hides, from one exact scan of f over
        Z_q^n whether or not it declares one; None when f breaks the promise.

        f(x) is the value block's state relabelled by mult(x, .), a basis
        state when the oracle has no preparation.  Amplitudes
        are copied, never computed, so states compare by exact equality on
        either backend (equal up to a phase is not enough: a phase varying
        with x moves the sampled distribution).  The promise holds when the x
        with f(x) = f(0) form a subgroup H, f is constant on the cosets of H
        and distinct on distinct cosets, and values on distinct cosets are
        orthogonal: disjoint supports, or an exact zero overlap where they
        meet.  The scan holds q^n * |supp f(0)| labels, as many as the dense
        round's sampled state, and obeys the same support limit."""
        regs = self.value_registers
        if self.prep is None:
            backend, scale = None, 1
            block = {(0,) * len(regs): 1}
        elif self.prep.registers != tuple(r.name for r in regs):
            return None  # the scan reads f(0) as the prepared value block
        else:
            psi = self.prep.state
            backend, scale, block = psi.backend, psi.scale, psi.amps
        q, n = self.modulus, self.n
        _check_support(q**n * len(block))
        value_of: dict[tuple[int, ...], frozenset] = {}
        for x in _cartesian(range(q), repeat=n):
            fx = {tuple(self.mult(x, v)): a for v, a in block.items()}
            if len(fx) != len(block):
                return None  # mult(x, .) collides on the value block
            value_of[x] = frozenset(fx.items())
        classes = list(set(value_of.values()))
        zero = value_of[(0,) * n]
        fiber = [x for x, fx in value_of.items() if fx == zero]
        # constant on the cosets of the subgroup the fiber generates makes the
        # fiber that subgroup; as many classes as cosets makes them the cosets
        hidden = subgroup_from_generators(fiber, self.m, self.k, n)
        if any(
            fx != value_of[coset_representative(hidden, x)] for x, fx in value_of.items()
        ):
            return None
        if len(classes) * len(fiber) != q**n:
            return None
        owners: dict = {}
        for c, fx in enumerate(classes):
            for lbl, _ in fx:
                owners.setdefault(lbl, []).append(c)
        meeting = {(a, b) for cs in owners.values() for a in cs for b in cs if a < b}
        layout = RegisterLayout(regs)

        def state(c):
            return SparseState(layout, backend, scale, dict(classes[c]))

        for a, b in meeting:
            if not backend.is_zero(inner_product_unscaled(state(a), state(b)), scale**2):
                return None
        return hidden

    def complement(self) -> tuple[SubgroupRep, int]:
        """The hidden subgroup's orthogonal complement and its order; the
        complement is computed once per subgroup rep, which keeps it."""
        if self.k != 1:
            raise ValueError("the complement is an exponent-1 operation")
        hidden = self.hidden_subgroup()
        # |H-perp| = [Z_m^n : H], the determinant of H's basis
        return hidden._complement, hidden.det()

    def sampled_state(self, backend) -> SparseState:
        """QFT, f, QFT over Z_m^n run from |0> on the round layout, helper
        qubits still zero.  It depends only on the oracle and the amplitude
        backend, so it is computed once per backend and shared by every
        (probe, j) pass, which builds new states from it and never changes
        it.  No query is recorded here: each pass records its own."""
        key = (backend.name, backend.root_order)
        phi = self._sampled.get(key)
        if phi is None:
            layout = sampling_layout(self, with_helpers=True)
            phi = sampling_circuit(self).run(prepare_zero(layout, backend))
            self._sampled[key] = phi
        return phi

    def sampled_tally(self, backend) -> tuple[list, dict]:
        """The sampled state's labels (x, v, 0, 0) that are nonzero at Psi's
        scale 2 * N_Phi, grouped by their x tuple and amplitude: a list of
        ((x, key), count) entries from `backend.tally`, key the backend's
        memo_key, and a dict from each key to its amplitude.  Computed once
        per backend beside the sampled state, so it is freed with the
        oracle."""
        key = (backend.name, backend.root_order)
        out = self._tallies.get(key)
        if out is None:
            phi = self.sampled_state(backend)
            npsi = 2 * phi.scale
            memo_key, n = backend.memo_key, self.n
            amp = {}
            items = []
            for lbl, a in phi.amps.items():
                if not backend.is_zero(a, npsi):
                    k = memo_key(a)
                    amp[k] = a
                    items.append(((lbl[:n], k), 1))
            out = self._tallies[key] = (backend.tally(items), amp)
        return out

    def record_passes(self, stats: "QueryStats", passes: int) -> None:
        """Record the queries of `passes` amplification passes of a round in
        stats.  Every (probe, j) pass makes the same queries, and the pass
        circuit's steps depend only on n, so one pass (probe 0, index -1) is
        walked once per n with `Circuit.count`, the one accounting path, and
        its tally scaled."""
        tally = _PASS_TALLY.get(self.n)
        if tally is None:
            tally = _PASS_TALLY[self.n] = QueryStats()
            prep = round_prep_circuit(self, (0,) * self.n, -1)
            amplitude_amplify(prep, _flag_is_set).count(tally)
        stats.merge(tally, passes)

    def composed_with(self, section) -> "HidingOracle":
        """The oracle x -> f(section(x)) over Z_m^n, for a `SectionMap` built
        for a subgroup of the hidden one.  When this oracle's hidden subgroup
        is already known (declared or scanned), the composed oracle declares
        its preimage under the section."""
        hidden = None if self._hidden is None else section.preimage(self._hidden)
        return HidingOracle(
            self.m,
            1,
            self.n,
            self.value_registers,
            prep=self.prep,
            mult=lambda x, v: self.mult(section(x), v),
            hidden=hidden,
        )


@dataclass(frozen=True)
class OracleStep(Step):
    """One forward query: prepare the value block if the oracle has a
    preparation, then relabel it by `mult`.  It runs on a layout that starts
    as the sampling layout does, x registers then the value block, and reads
    x and v as slices of each label.  It has no inverse step; a reflection
    whose preparation holds it counts the inverse query with
    `Circuit.count(inverse=True)`."""

    oracle: HidingOracle

    def apply(self, state: SparseState) -> SparseState:
        o = self.oracle
        n = o.n
        hi = n + len(o.value_registers)
        names = [f"x{i}" for i in range(n)] + [r.name for r in o.value_registers]
        if state.layout.names()[:hi] != names:
            raise ValueError("an oracle query runs on the sampling layout")
        mult = o.mult

        def fwd(lbl):
            x = lbl[:n]
            return x + tuple(mult(x, lbl[n:hi])) + lbl[hi:]

        if o.prep is not None:
            state = PrepStep(o.prep).apply(state)
        return apply_classical_map(state, fwd)

    def count(self, stats, inverse=False):
        if inverse:
            stats.f_inverse_calls += 1
        else:
            stats.f_calls += 1


def build_coset_oracle(rep: SubgroupRep) -> HidingOracle:
    """Test oracle hiding exactly the given subgroup: f maps x to the canonical
    representative of its coset, added into n digit registers.  The oracle
    declares rep as its hidden subgroup, so f is evaluated only when a query
    is simulated (dense rounds) or the oracle is scanned (verify_hidden)."""
    q = rep.modulus
    regs = [Register(f"v{i}", "digit", q) for i in range(rep.n)]
    return HidingOracle(
        rep.m,
        rep.k,
        rep.n,
        regs,
        label_fn=lambda x: coset_representative(rep, x),
        hidden=rep,
    )


def verify_hidden(oracle: HidingOracle, rep: SubgroupRep) -> bool:
    """Machine check that the oracle hides exactly the claimed subgroup: the
    exact scan, run even when the oracle declares a subgroup, finds rep."""
    return oracle._scan_states() == rep


# ---------------------------------------------------------------------------
# Fourier sampling and the amplified round


def sampling_layout(oracle: HidingOracle, with_helpers: bool = False) -> RegisterLayout:
    regs = [Register(f"x{i}", "digit", oracle.m) for i in range(oracle.n)]
    regs += list(oracle.value_registers)
    if with_helpers:
        regs.append(Register("b", "qubit", 2))
        regs.append(Register("flag", "qubit", 2))
    return RegisterLayout(regs)


def fourier_sample(oracle: HidingOracle, backend=None, stats=None) -> SparseState:
    """Transform, query, transform: the sampled register ends supported exactly
    on the complement of the hidden subgroup."""
    if oracle.k != 1:
        raise ValueError("Fourier sampling runs over exponent-1 oracles")
    if backend is None:
        backend = make_backend("exact", root_order=_root_order(oracle.m))
    layout = sampling_layout(oracle)
    circ = sampling_circuit(oracle)
    if stats is not None:
        circ.count(stats)
    return circ.run(prepare_zero(layout, backend))


def sampling_circuit(oracle: HidingOracle) -> Circuit:
    qfts = [QftStep(f"x{i}") for i in range(oracle.n)]
    return Circuit.of(*qfts, OracleStep(oracle), *qfts)


def _root_order(m: int) -> int:
    # i and all modulus-m phases must coexist in one field
    g = 4 if m % 4 == 0 else (2 if m % 2 == 0 else 1)
    return 4 * m // g


def flag_circuit(oracle: HidingOracle, probe, j: int) -> Circuit:
    """The part of a round's preparation that depends on the probe and j: a
    Hadamard on the helper qubit, then the flag write."""
    m = oracle.m

    def write_flag(lbl):
        pairing = sum(map(mul, probe, lbl)) % m  # lbl starts with the x registers
        f = round_flag(m, j, pairing, lbl[-2])
        return lbl[:-1] + (lbl[-1] ^ f,)

    return Circuit.of(HadamardStep("b"), ClassicalStep(write_flag, write_flag))


def round_prep_circuit(oracle: HidingOracle, probe, j: int) -> Circuit:
    """Preparation for one amplification pass at threshold index j."""
    return Circuit.of(sampling_circuit(oracle), flag_circuit(oracle, probe, j))


def _flag_is_set(lbl) -> bool:
    return lbl[-1] == 1


class _DensePasses:
    """The (probe, j) passes of one dense round, computed on classes of the
    sampled state Phi rather than on its labels (the A_f identity of the
    module docstring).  The flag depends on x only through the pairing
    p = probe . x mod m, so the round tallies Phi's (x, amplitude) entries
    (`HidingOracle.sampled_tally`) into (pairing, amplitude) classes, with
    the pairing computed once per distinct x.  A pass computes
    <Psi|phase Psi> from the class counts, then each label's value
    s * N_Psi + (i - 1) * <Psi|phase Psi> * a, at scale N_Psi^3, once per
    distinct (amplitude, flag), with s = a * i on flag 1 and a on flag 0:
    the steps' arithmetic in their order, so that float amplitudes keep
    their bits, and the float backend's tally keeps its entries in label
    order, so that float sums do too."""

    def __init__(self, oracle: HidingOracle, probe, backend):
        m = oracle.m
        tally, self.amp = oracle.sampled_tally(backend)
        self.oracle, self.backend, self.m = oracle, backend, m
        self.npsi = 2 * oracle.sampled_state(backend).scale
        self.ph = backend.root(backend.root_order // 4)
        self.pairing: dict = {}
        self.entries = []  # (x, key, count, pairing)
        for (x, k), c in tally:
            p = self.pairing.get(x)
            if p is None:
                p = self.pairing[x] = sum(map(mul, probe, x)) % m
            self.entries.append((x, k, c, p))
        self.classes = backend.tally(((p, k), c) for _x, k, c, p in self.entries)
        # per flag: key -> ((a, s), s * N_Psi), the same in every pass
        self.terms: tuple[dict, dict] = ({}, {})

    def values(self, j: int) -> tuple[dict, list[dict]]:
        """The pass at index j: the flags (at b = 0, at b = 1) of each
        pairing, and per flag a dict from amplitude key to the label value
        and its abs2, nonzero values only."""
        backend, m, npsi, ph = self.backend, self.m, self.npsi, self.ph
        flags: dict = {}
        reps: tuple[dict, dict] = ({}, {})  # per flag: this pass's terms
        counted = []  # ((a, s), count) per class and helper bit, in Psi's order
        for (p, k), c in self.classes:
            fs = flags.get(p)
            if fs is None:
                fs = flags[p] = (round_flag(m, j, p, 0), round_flag(m, j, p, 1))
            for f in fs:
                term = reps[f].get(k)
                if term is None:
                    term = self.terms[f].get(k)
                    if term is None:
                        a = self.amp[k]
                        s = a * ph if f else a
                        term = self.terms[f][k] = ((a, s), s * npsi)
                    reps[f][k] = term
                counted.append((term[0], c))
        coef = (ph - backend.one) * backend.conj_dot_counted(counted)
        scale = npsi * npsi * npsi
        products: dict = {}  # key -> coef * a, shared by both flags
        values = []
        for rep in reps:
            nonzero = {}
            for k, ((a, _s), sn) in rep.items():
                ca = products.get(k)
                if ca is None:
                    ca = products[k] = coef * a
                val = sn + ca
                if not backend.is_zero(val, scale):
                    nonzero[k] = (val, backend.abs2(val))
            values.append(nonzero)
        if not (values[0] or values[1]):
            raise SimulationError("all amplitudes vanished (not a unitary step?)")
        return flags, values

    def state(self, flags: dict, values: list[dict]) -> SparseState:
        """The pass's post-amplification state, materialized in Psi's order:
        each label (x, v, 0, 0) of Phi gives (x, v, b, flag), b = 0 then 1."""
        backend, n, npsi = self.backend, self.oracle.n, self.npsi
        phi = self.oracle.sampled_state(backend)
        key = backend.memo_key
        new = {}
        for lbl, a in phi.amps.items():
            if backend.is_zero(a, npsi):
                continue
            k = key(a)
            for b, f in enumerate(flags[self.pairing[lbl[:n]]]):
                vw = values[f].get(k)
                if vw is not None:
                    new[lbl[:-2] + (b, f)] = vw[0]
        return SparseState(phi.layout, backend, npsi * npsi * npsi, new)

    def measure(self, flags: dict, values: list[dict], mode: str, rng) -> tuple:
        """The x registers measured one at a time, as `measure_registers` would
        measure `state()`, on rows (x, abs2 of the value, count), one per
        class entry and helper bit with a nonzero value, in Psi's order.  Per
        register the rows are grouped by that register's value, each group's
        mass is the backend's total of its rows, and `pick_outcome` picks the
        group, whose rows go on to the next register.  The exact mass faults
        when irrational, and an exact rational mass rescales the rows by its
        squared denominator, as the collapse rescales the state."""
        backend = self.backend
        rows = []
        for x, k, c, p in self.entries:
            for f in flags[p]:
                vw = values[f].get(k)
                if vw is not None:
                    rows.append((x, vw[1], c))

        def mass(group):
            return backend.mass_total((w, c) for _x, w, c in group)

        outcome = []
        for r in range(self.oracle.n):
            groups: dict = {}
            for row in rows:
                groups.setdefault(row[0][r], []).append(row)
            v, _scale, den = pick_outcome(backend, groups, mass, mode, rng)
            outcome.append(v)
            rows = groups[v]
            if den != 1:
                d2 = den * den
                rows = [(x, w * d2, c) for x, w, c in rows]
        return tuple(outcome)


def amplified_round_state(oracle: HidingOracle, probe, j: int, backend) -> SparseState:
    """Post-amplification state of one (probe, j) pass, built densely.

    The pass is amplitude_amplify(round_prep_circuit(...)) run from |0>: prep,
    phase i on flagged labels, reflection about Psi = prep|0>.  Psi is the
    oracle's sampled state Phi with the helper Hadamard and the flag write
    applied, so neither the pass nor the reflection runs the sampling
    circuit: the values come from the pass's classes (`_DensePasses`).  No
    query is recorded here: the round records its passes with
    `HidingOracle.record_passes`."""
    passes = _DensePasses(oracle, probe, backend)
    return passes.state(*passes.values(j))


def _dense_round(oracle, probe, js, mode, rng, backend, capture):
    """The round through the full circuit's amplitudes, yielding each
    (probe, j) pass's measured x and its pairing with the probe: each pass
    is measured from its class sums (`_DensePasses.measure`), with the same
    outcome, masses and RNG draws as measuring the materialized
    post-amplification state register by register.  The state itself is
    built only for a capture hook's `round_state` payload."""
    passes = _DensePasses(oracle, probe, backend)
    for j in js:
        flags, values = passes.values(j)
        if capture is not None:
            state = passes.state(flags, values)
            capture("round_state", {"probe": tuple(probe), "j": j, "state": state})
        xs = passes.measure(flags, values, mode, rng)
        yield xs, sum(map(mul, probe, xs)) % oracle.m


def _reduced_round(oracle, probe, js, mode, rng, backend, capture):
    """Same outcome distribution as the dense round, computed on the classes of
    the pairing value.  The amplification operator is a reflection about the
    prepared state, so the final amplitude on a label depends only on its flag
    bit f: A_f = phase(f) * 2|H-perp| + (i - 1) * (c_0 + i c_1), where c_f
    counts the (pairing class, helper bit) pairs with flag f, weighted by the
    class sizes.  Two amplitudes per threshold index are everything.  Each
    pass yields its measured x and pairing, the class x was drawn from.

    Both amplitudes are Gaussian integers, kept as pairs (re, im): their norms
    are integers, so the normalization check is exact and the sampling weights
    are the same on both backends.  Backend amplitudes and the per-class
    payload lists are built only for a capture hook.  The hidden subgroup
    comes from the oracle: declared, or found by its exact scan.

    Nothing is enumerated.  The pairing maps H-perp onto d * Z_m, so the
    classes are the multiples of d, each of |H-perp| * d / m elements, and
    the class of a is the coset (a/d) * y_d + kernel (`pairing_fibers`).
    Flags are constant on four runs of classes, so c_f counts multiples of d
    per run.  The sampled register is read as the r-th element of a class
    (`coset_element`): when deterministic the least over the support, the
    zero vector whenever class 0 is in it, else `least_with_pairing`; when
    seeded a uniform rank in the class `backend.draw` would pick."""
    m, n = oracle.m, oracle.n
    perp, hn = oracle.complement()
    d, y_d, kernel = pairing_fibers(perp, probe)
    size = hn * d // m  # elements per class
    scale = (2 * hn) ** 3
    half = (m + 1) // 2  # 2a >= m from a = half on
    n_below = (half - 1) // d  # classes in (0, half)
    n_top = m // d - 1 - n_below  # classes in [half, m)

    if capture is not None:
        one, iunit = backend.one, backend.imag_unit()
        classes = range(0, m, d)
        na = [size if a % d == 0 else 0 for a in range(m)]
    for j in js:
        # flags at (b = 0, b = 1) are constant on four runs of classes: {0},
        # (0, 0); (0, low], (0, 1); the rest below half, (0, 0); the n_top
        # classes from half on, (1, 1)
        low = min(1 << j, half - 1) if j >= 0 else 0
        n_low = low // d
        c0, c1 = size * (2 + 2 * n_below - n_low), size * (n_low + 2 * n_top)
        # (i - 1)(c_0 + i c_1) = -(c_0 + c_1) + i (c_0 - c_1)
        re, im = -(c0 + c1), c0 - c1
        amps = [(re + 2 * hn, im), (re, im + 2 * hn)]
        norms = [x * x + y * y for x, y in amps]
        if c0 * norms[0] + c1 * norms[1] != scale:
            raise AssertionError("reduced-round normalization check failed")
        if capture is not None:
            values = [one * x + iunit * y for x, y in amps]
            flags = {a: (1, 1) if a >= half else (0, int(0 < a <= low)) for a in classes}
            support = [a for a in classes if norms[flags[a][0]] + norms[flags[a][1]]]
            capture(
                "round_reduced",
                {
                    "probe": tuple(probe),
                    "j": j,
                    "na": list(na),
                    "amp": {(a, b): values[flags[a][b]] for a in classes for b in (0, 1)},
                    "scale": scale,
                    "support_a": support,
                },
            )
        if mode == "deterministic" and norms[0]:
            # class 0 has flags (0, 0), so it is in the support, and its
            # rank-0 element, the zero vector, is the least of all
            yield (0,) * n, 0
        elif mode == "deterministic":
            # the support is then every class with a flag set
            yield least_with_pairing(perp, probe, low, half)
        else:
            # per-class weights by run; they total the checked scale
            w0, w1 = norms[0] * size, norms[1] * size
            runs = ((1, 2 * w0), (n_low, w0 + w1), (n_below - n_low, 2 * w0), (n_top, 2 * w1))
            cls = _drawn_class(backend.threshold(rng, scale), runs)
            start = [cls * y for y in y_d]
            yield coset_element(kernel, m, start, rng.randrange(size)), cls * d


def _drawn_class(threshold, runs) -> int:
    """The class index `_walk` picks for a threshold over the classes'
    weights, given as runs of (number of classes, weight per class).  The
    threshold, int or float, is an exact ratio num/den, so one integer
    division finds the first class whose running total exceeds it; past the
    total, the walk picks the last support class."""
    num, den = threshold.as_integer_ratio()
    first = acc = 0
    for count, w in runs:
        if count and w:
            end = acc + count * w
            if num < end * den:
                return first + (num - acc * den) // (w * den)
            last, acc = first + count - 1, end
        first += count
    return last


def hsp_round(
    oracle: HidingOracle,
    probe,
    *,
    mode: str = "seeded",
    rng=None,
    backend=None,
    method: str = "auto",
    stats: QueryStats | None = None,
    capture=None,
    js=None,
):
    """Run all threshold indices for one probe vector.

    Returns (found_xs, trace): found_xs are the measured sampler outputs with
    nonzero pairing (each certainly lies in the complement of the hidden
    subgroup); an empty list certifies that the probe lies in the hidden
    subgroup.  The round (dense or reduced) yields each pass's measured x
    with its pairing, and this loop alone keeps the round's books: the
    passes' queries, the probe count, the trace and what the round found.
    """
    if stats is None:
        stats = QueryStats()
    if backend is None:
        backend = make_backend("exact", _root_order(oracle.m))
    if js is None:
        js = probe_schedule(oracle.m)
    use_reduced = method == "reduced" or (method == "auto" and oracle.hidden_known)
    if use_reduced and not oracle.hidden_known:
        raise ValueError(
            "reduced rounds need the hidden subgroup, and this oracle breaks "
            "the hiding promise"
        )
    runner = _reduced_round if use_reduced else _dense_round
    # each index runs one pass of the round circuit
    oracle.record_passes(stats, len(js))
    trace = RoundTrace(probe=tuple(probe))
    found = []
    # the runner comes first, so zip runs it to completion rather than closing it
    for (xs, pairing), j in zip(runner(oracle, probe, js, mode, rng, backend, capture), js):
        stats.j_probes += 1
        trace.attempts.append(RoundAttempt(j, xs, pairing))
        if pairing != 0:
            found.append(xs)
    trace.found = bool(found)
    return found, trace


# ---------------------------------------------------------------------------
# Solvers


@dataclass
class HspResult:
    subgroup: SubgroupRep
    stats: QueryStats
    trace: list[RoundTrace]


def solve_hsp_zmn(
    oracle: HidingOracle,
    *,
    mode: str = "seeded",
    seed: int | None = None,
    rng=None,
    backend: str = "exact",
    method: str = "auto",
    capture=None,
    stats: QueryStats | None = None,
) -> HspResult:
    """Exact hidden-subgroup computation in Z_m^n (exponent 1)."""
    if oracle.k != 1:
        raise ValueError("use solve_hsp for exponent k > 1")
    m, n = oracle.m, oracle.n
    if rng is None and mode == "seeded":
        rng = random.Random(seed)
    amp_backend = (
        make_backend(backend, _root_order(m)) if isinstance(backend, str) else backend
    )
    if stats is None:
        stats = QueryStats()
    trace: list[RoundTrace] = []

    # low grows up to the hidden subgroup, comp inside the complement; both
    # start trivial, and target = perp(comp) is recomputed only when comp grows
    low = comp = trivial_subgroup(m, 1, n)
    target = full_subgroup(m, 1, n)
    while True:
        witness = equal_or_witness(low, target)
        if witness is None:
            break
        probe = tuple(w % m for w in witness)
        found, rtrace = hsp_round(
            oracle,
            probe,
            mode=mode,
            rng=rng,
            backend=amp_backend,
            method=method,
            stats=stats,
            capture=capture,
        )
        stats.rounds += 1
        trace.append(rtrace)
        if found:
            comp = join(comp, found)
            target = perp_subgroup(comp)
        else:
            low = join(low, [probe])
    return HspResult(low, stats, trace)


def solve_hsp(
    oracle: HidingOracle,
    *,
    mode: str = "seeded",
    seed: int | None = None,
    backend: str = "exact",
    method: str = "auto",
    capture=None,
    stats: QueryStats | None = None,
) -> HspResult:
    """Exact hidden-subgroup computation in Z_{m^k}^n via divide-by-m rounds."""
    m, k, n = oracle.m, oracle.k, oracle.n
    if stats is None:
        stats = QueryStats()
    rng = random.Random(seed) if mode == "seeded" else None
    if k == 1:
        return solve_hsp_zmn(
            oracle,
            mode=mode,
            rng=rng,
            backend=backend,
            method=method,
            capture=capture,
            stats=stats,
        )
    trace: list[RoundTrace] = []
    current = trivial_subgroup(m, k, n)
    while True:
        lifted = lift_by_m(current)
        if lifted.hnf == current.hnf:
            break
        section = section_map(current, lifted)
        inner = oracle.composed_with(section)
        sub = solve_hsp_zmn(
            inner,
            mode=mode,
            rng=rng,
            backend=backend,
            method=method,
            capture=capture,
        )
        stats.merge(sub.stats)
        stats.reduction_solves += 1
        trace.extend(sub.trace)
        gens = [
            section(tuple(c % m for c in col)) for col in sub.subgroup.hnf.columns()
        ]
        grown = join(current, gens)
        if grown.hnf == current.hnf:
            break
        current = grown
        stats.reduction_rounds += 1
    return HspResult(current, stats, trace)
