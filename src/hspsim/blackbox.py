"""Quantum structure computations in black-box groups whose order divides a
power of a known modulus m.

Everything here reduces to the hidden-subgroup solver: equality of preparable
states (conditional-swap instance over Z_2), membership through uniform
subgroup superpositions, presentations of abelian factors, and the staged
construction that turns s copies of |N> into s-1 copies of |<N, u>| -- the
building block for uniform superpositions along a polycyclic series, which
samples coset phases with the solver's own `fourier_sample`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .gcdcomb import combine_many
from .groups import BadOrderError, GroupArith, GroupBackend
from .hsp import (
    HidingOracle,
    QueryStats,
    _root_order,
    fourier_sample,
    solve_hsp,
    solve_hsp_zmn,
)
from .lattice import (
    AbelianDecomposition,
    IntMatrix,
    SubgroupRep,
    full_subgroup,
    invariant_factor_decomposition,
    trivial_subgroup,
)
from .state import (
    NotProductError,
    Register,
    RegisterLayout,
    SparseState,
    StatePrep,
    apply_classical_map,
    drop_register,
    factor_split,
    inner_product_unscaled,
    make_backend,
    measure_register,
    prepare_basis,
    rename_register,
    tensor,
)


class PromiseError(Exception):
    """A caller-guaranteed promise (equal-or-orthogonal, hiding, ...) failed."""


@dataclass
class NotSolvable:
    """Commutator replacements exceeded the code length: no polycyclic series."""

    replacements: int


@dataclass
class BadOrder:
    """An element's order has a prime factor the working modulus lacks."""

    element: int


@dataclass
class PolycyclicSeries:
    """Elements g_1..g_h; level i is generated by g_1..g_i, each factor order
    divides the working modulus."""

    elements: list[int]
    factor_orders: list[int]

    def __len__(self):
        return len(self.elements)

    def prefix(self, length: int) -> "PolycyclicSeries":
        return PolycyclicSeries(self.elements[:length], self.factor_orders[:length])


@dataclass
class Presentation:
    """Relations of a finitely generated abelian factor plus its invariant
    factor decomposition; k is the exponent of the Z_{m^k}^n instance that
    found the relations."""

    relations: IntMatrix
    decomposition: AbelianDecomposition
    k: int


class BlackboxContext:
    """Shared plumbing for one computation: derived arithmetic, amplitude
    backend, measurement policy, state/power caches and query accounting."""

    def __init__(
        self,
        backend: GroupBackend,
        m: int,
        *,
        amp_backend: str = "exact",
        mode: str = "deterministic",
        seed: int = 0,
    ):
        self.backend = backend
        self.m = m
        self.arith = GroupArith(backend, m)
        self.q = make_backend(amp_backend, _root_order(m))
        self.mode = mode
        self.rng = random.Random(seed)
        self.stats = QueryStats()
        self._states: dict[tuple[int, ...], SparseState] = {}
        self._pows: dict[tuple[int, int], int] = {}

    def power(self, x: int, e: int) -> int:
        key = (x, e)
        out = self._pows.get(key)
        if out is None:
            out = self.arith.power(x, e)
            self._pows[key] = out
        return out

    def group_register(self, name: str = "val") -> Register:
        return Register(name, "group", self.backend.code_space())

    def identity_state(self, name: str = "val") -> SparseState:
        layout = RegisterLayout([self.group_register(name)])
        return prepare_basis(layout, self.q, (self.arith.identity(),))


# ---------------------------------------------------------------------------
# Swap test and membership


def exact_swap_test(prep1, prep2, ctx: BlackboxContext, check_promise: bool = False) -> int:
    """1 when the two prepared states are equal up to a phase, 0 when they are
    orthogonal; exact in both cases.

    Realized as a hidden-subgroup instance over Z_2 whose oracle prepares both
    states and swaps them conditionally: the hidden subgroup is the whole group
    exactly when the states agree, and trivial when they are orthogonal.  The
    overlap <s1|s2> is computed once (O(|K|) work for states of support |K|)
    and tells which case holds, so on the promise the oracle is built knowing
    its hidden subgroup and solved with reduced rounds, without simulating the
    |K|^2-label pair state through the circuit; answers, deterministic traces
    and query counts are those of the dense round.  The float backend decides
    the cases to a relative tolerance of 1e-9.  Off the promise the dense round
    runs, unless check_promise is set, which raises PromiseError instead.
    """
    s1 = prep1.state if isinstance(prep1, StatePrep) else prep1
    s2 = prep2.state if isinstance(prep2, StatePrep) else prep2
    if len(s1.layout) != 1 or len(s2.layout) != 1:
        raise ValueError("swap test expects single-register preparations")
    dim = s1.layout.registers[0].dim
    if dim != s2.layout.registers[0].dim:
        raise ValueError("preparations act on different register sizes")
    equal, orthogonal = ctx.q.overlap(inner_product_unscaled(s1, s2), s1.scale, s2.scale)
    if check_promise and not (equal or orthogonal):
        raise PromiseError("states are neither equal-up-to-phase nor orthogonal")

    hidden = None
    if equal:
        hidden = full_subgroup(2, 1, 1)
    elif orthogonal:
        hidden = trivial_subgroup(2, 1, 1)
    res = solve_hsp_zmn(
        _swap_oracle(s1, s2, hidden),
        mode=ctx.mode,
        rng=ctx.rng,
        backend=ctx.q,
        stats=ctx.stats,
    )
    return 1 if res.subgroup.hnf.data[0][0] == 1 else 0


def _swap_oracle(
    s1: SparseState, s2: SparseState, hidden: SubgroupRep | None = None
) -> HidingOracle:
    """The swap test's oracle over Z_2: prepare both states, swap them when
    x = 1.  It hides Z_2 itself exactly when the states agree up to a phase;
    `hidden` passes that subgroup on when the caller already knows it.  The
    |K|^2-label pair state is built when a simulated step first reads it, so
    a reduced solve never builds it."""
    dim = s1.layout.registers[0].dim
    kind = s1.layout.registers[0].kind
    regs = (Register("w1", kind, dim), Register("w2", kind, dim))

    def pair() -> SparseState:
        return tensor(
            rename_register(s1, s1.layout.registers[0].name, "w1"),
            rename_register(s2, s2.layout.registers[0].name, "w2"),
        )

    prep = StatePrep(("w1", "w2"), pair)

    def cswap(x, v):
        return (v[1], v[0]) if x[0] == 1 else v

    return HidingOracle(2, 1, 1, regs, prep=prep, mult=cswap, hidden=hidden)


def left_multiplied(state: SparseState, u: int, ctx: BlackboxContext) -> SparseState:
    return apply_classical_map(state, lambda lbl: (ctx.arith.mul(u, lbl[0]),))


def superposition_membership(u: int, k_prep, ctx: BlackboxContext) -> bool:
    """Membership of u in the subgroup whose uniform superposition k_prep
    produces: left translation either fixes the superposition or moves it to an
    orthogonal coset state."""
    k_state = k_prep.state if isinstance(k_prep, StatePrep) else k_prep
    shifted = left_multiplied(k_state, u, ctx)
    return exact_swap_test(k_state, shifted, ctx) == 1


# ---------------------------------------------------------------------------
# Abelian presentations


def abelian_presentation(gens, k_prep, ctx: BlackboxContext) -> Presentation:
    """Present the factor of <gens, K> by K (K normal, generators commuting
    modulo K) by solving the hidden-subgroup instance of the relation lattice."""
    gens = [int(g) for g in gens]
    n = len(gens)
    if n == 0:
        raise ValueError("need at least one generator")
    arith = ctx.arith
    k = 1
    for g in gens:
        e = arith.order_m_exponent(g)
        if e is None:
            raise BadOrderError(f"order of {g} does not divide a power of {ctx.m}")
        k = max(k, e)

    k_state = k_prep.state if isinstance(k_prep, StatePrep) else k_prep

    wcache: dict[tuple[int, ...], int] = {}

    def word(x) -> int:
        w = wcache.get(x)
        if w is None:
            w = arith.identity()
            for g, e in zip(gens, x):
                if e:
                    w = arith.mul(w, ctx.power(g, e))
            wcache[x] = w
        return w

    regs = (ctx.group_register("val"),)
    support = sorted(k_state.amps)
    classical = len(support) == 1 and support[0] == (arith.identity(),)
    if classical:
        oracle = HidingOracle(ctx.m, k, n, regs, label_fn=lambda x: (word(tuple(x)),))
    else:
        oracle = HidingOracle(
            ctx.m,
            k,
            n,
            regs,
            prep=StatePrep(("val",), k_state),
            mult=lambda x, v: (arith.mul(word(tuple(x)), v[0]),),
        )
    res = solve_hsp(
        oracle,
        mode=ctx.mode,
        seed=ctx.rng.randrange(1 << 30) if ctx.mode == "seeded" else None,
        backend=ctx.q,
        stats=ctx.stats,
    )
    relations = res.subgroup.hnf
    decomposition = invariant_factor_decomposition(relations, n)
    return Presentation(relations, decomposition, k)


def order_modulo(g: int, sub_state: SparseState, ctx: BlackboxContext) -> int:
    """Order of g modulo the subgroup whose superposition is given."""
    pres = abelian_presentation([g], sub_state, ctx)
    return pres.relations.data[0][0]


# ---------------------------------------------------------------------------
# Superposition pyramid


def _sample_coset_phases(state: SparseState, u: int, ctx: BlackboxContext) -> SparseState:
    """Fourier sampling of left translation by u on one subgroup-superposition
    register, left unmeasured: `fourier_sample`, which counts the queries, on
    the oracle (y, g) -> u^y g over Z_m whose prepared value block is the
    register's state.  The sampled digit comes first, as register x0."""
    reg = state.layout.registers[0]
    upow = [ctx.power(u, t) for t in range(ctx.m)]
    mul = ctx.arith.mul
    prep = StatePrep((reg.name,), state)
    oracle = HidingOracle(
        ctx.m, 1, 1, (reg,), prep=prep, mult=lambda x, v: (mul(upow[x[0]], v[0]),)
    )
    return fourier_sample(oracle, ctx.q, ctx.stats)


def _pair_multiply(left: SparseState, right: SparseState, fn) -> tuple[SparseState, SparseState]:
    """Apply a two-register content map to two states on differently named
    registers and split the exact product back apart."""
    merged = apply_classical_map(tensor(left, right), fn)
    return factor_split(merged, [left.layout.registers[0].name])


def extend_superposition(
    copies, u: int, ctx: BlackboxContext, coherent: bool = False
):
    """From s copies of |N> build s-1 copies of |<N, u>| plus one garbage state.

    Each copy is Fourier-sampled against left translation by u
    (`_sample_coset_phases`); the sampled digits are measured and dropped
    (every later operation commutes with that measurement)
    and combined by one plan (`_extension_plan`: gcd-preserving coefficients,
    then ratios) so that content multiplications drive the last register's
    index to a generator and the others' to zero -- the zero-index state is
    exactly the uniform superposition over the extended subgroup.

    Returns (list of s-1 subgroup states, garbage state, measured indices).
    The step needs u^m in N; when the amplitudes fail to factor and u^m is
    outside N, that is reported as a PromiseError.
    """
    extend = _extend_superposition_coherent if coherent else _extend_superposition_hybrid
    try:
        return extend(copies, u, ctx)
    except NotProductError:
        if (ctx.power(u, ctx.m),) not in copies[0].amps:
            raise PromiseError(f"u^m must lie in N: u = {u}, m = {ctx.m}") from None
        raise


def _extend_superposition_hybrid(copies, u: int, ctx: BlackboxContext):
    """`extend_superposition` with each sampled digit measured and dropped:
    the measured indices' plan is applied one pair of copies at a time,
    coefficient kicks and then ratio kicks, each split back apart."""
    s = len(copies)
    if s < 2:
        raise ValueError("need at least two copies")
    m, mul, power = ctx.m, ctx.arith.mul, ctx.power
    states = []
    ys = []
    for i, st in enumerate(copies):
        st = rename_register(st, st.layout.registers[0].name, f"c{i}")
        y, work = measure_register(
            _sample_coset_phases(st, u, ctx), "x0", mode=ctx.mode, rng=ctx.rng
        )
        ys.append(y)
        states.append(drop_register(work, "x0"))

    coeffs, ts = _extension_plan(ys, m)
    # each copy i is multiplied by the last copy's content to the power
    # -coeffs[i], then the last copy by copy i's content to the power ts[i]
    kicks = [
        (i, lambda lbl, e=-c: (mul(power(lbl[1], e), lbl[0]), lbl[1]))
        for i, c in enumerate(coeffs) if c % m
    ] + [
        (i, lambda lbl, t=t: (lbl[0], mul(power(lbl[0], t), lbl[1])))
        for i, t in enumerate(ts) if t % m
    ]
    for i, kick in kicks:
        states[i], states[-1] = _pair_multiply(states[i], states[-1], kick)
    outputs = [
        _canonical_phase(rename_register(st, st.layout.registers[0].name, "val"))
        for st in states[: s - 1]
    ]
    garbage = rename_register(
        states[s - 1], states[s - 1].layout.registers[0].name, "val"
    )
    return outputs, garbage, tuple(ys)


def _canonical_phase(state: SparseState) -> SparseState:
    """Fix the unobservable global phase: multiply by the conjugate of the
    lexicographically least amplitude, making that amplitude real positive.
    Used on extension outputs, whose amplitude profile is uniform, so the
    rescaled mass stays rational."""
    ref = min(state.amps)
    c = state.backend.conj(state.amps[ref])
    amps = {lbl: a * c for lbl, a in state.amps.items()}
    scale = state.backend.mass(amps.values())
    return SparseState(state.layout, state.backend, scale, amps)


def _extension_plan(ys, m: int) -> tuple[list[int], list[int]]:
    """The recombination of s measured indices ys: gcd-preserving
    coefficients c_i (`combine_many`), which kick copy s-1's content into
    copy i so that g = ys[-1] + sum c_i ys[i] generates their gcd mod m, and
    the ratios t_i = ys[i] / g, which kick copy i's content back into copy
    s-1 and leave every other copy at index zero.  All zero when every index
    is zero."""
    if not any(ys):
        return [0] * (len(ys) - 1), [0] * (len(ys) - 1)
    coeffs = combine_many(list(ys), m)
    gen = (ys[-1] + sum(c * y for c, y in zip(coeffs, ys))) % m
    return coeffs, [_discrete_ratio(y, gen, m) for y in ys[:-1]]


def _discrete_ratio(target: int, base: int, m: int) -> int:
    """Least nonnegative t with t*base = target mod m (0 in the degenerate
    all-zero branch)."""
    if target % m == 0:
        return 0
    base %= m
    g = gcd(base, m)
    if target % g:
        raise ArithmeticError("no discrete ratio; gcd bookkeeping is broken")
    mm = m // g
    return (target // g) * pow(base // g, -1, mm) % mm


def _extend_superposition_coherent(copies, u: int, ctx: BlackboxContext):
    """Fully unitary variant (no measurements), for cross-checking the hybrid
    path on small instances: each copy's sampled digit is renamed y{i} and
    left unmeasured, the copies are tensored, one big classical map applies
    each sampled-index tuple's `_extension_plan` (kept in a dict of plans),
    and the subgroup copies are split off the still-entangled garbage at the
    end."""
    s = len(copies)
    m, mul, power = ctx.m, ctx.arith.mul, ctx.power
    big = None
    for i, st in enumerate(copies):
        st = rename_register(st, st.layout.registers[0].name, f"c{i}")
        part = rename_register(_sample_coset_phases(st, u, ctx), "x0", f"y{i}")
        big = part if big is None else tensor(big, part)

    y_idx = [big.layout.index[f"y{i}"] for i in range(s)]
    c_idx = [big.layout.index[f"c{i}"] for i in range(s)]
    plans: dict[tuple[int, ...], tuple] = {}  # measured indices -> their plan

    def kick_all(lbl):
        ys = tuple(lbl[i] for i in y_idx)
        plan = plans.get(ys)
        if plan is None:
            plan = plans[ys] = _extension_plan(ys, m)
        coeffs, ts = plan
        contents = [lbl[i] for i in c_idx]
        for i, c in enumerate(coeffs):
            if c % m:
                contents[i] = mul(power(contents[-1], -c), contents[i])
        for i, t in enumerate(ts):
            if t % m:
                contents[-1] = mul(power(contents[i], t), contents[-1])
        out = list(lbl)
        for i, c in zip(c_idx, contents):
            out[i] = c
        return tuple(out)

    big = apply_classical_map(big, kick_all)
    outputs = []
    rest = big
    for i in range(s - 1):
        piece, rest = factor_split(rest, [f"c{i}"])
        outputs.append(_canonical_phase(rename_register(piece, f"c{i}", "val")))
    return outputs, rest, None


def build_group_superposition(series: PolycyclicSeries, ctx: BlackboxContext) -> StatePrep:
    """Uniform superposition over the group, built level by level: h+1 copies of
    the identity state shrink by one copy per series element."""
    h = len(series)
    states = [ctx.identity_state() for _ in range(h + 1)]
    for i in range(h):
        states, _garbage, _ys = extend_superposition(states, series.elements[i], ctx)
    return StatePrep(("val",), states[0])


def _series_state(ctx: BlackboxContext, elements: tuple[int, ...]) -> SparseState:
    """|subgroup> for the subgroup generated by a series prefix; cached, built
    with the two-copy pyramid step per level."""
    cached = ctx._states.get(elements)
    if cached is not None:
        return cached
    if not elements:
        st = ctx.identity_state()
    else:
        prev = _series_state(ctx, elements[:-1])
        outs, _g, _ys = extend_superposition([prev, prev], elements[-1], ctx)
        st = outs[0]
    ctx._states[elements] = st
    return st


# ---------------------------------------------------------------------------
# Polycyclic series construction


def _member(ctx: BlackboxContext, u: int, series: PolycyclicSeries) -> bool:
    state = _series_state(ctx, tuple(series.elements))
    return superposition_membership(u, state, ctx)


def _extend_series_abelian(
    ctx: BlackboxContext, series: PolycyclicSeries, g: int
) -> PolycyclicSeries:
    """Extend a series by an element that normalizes the current subgroup;
    the extension is refined into levels whose factor orders divide the
    working modulus."""
    elems = list(series.elements)
    orders = list(series.factor_orders)
    running = order_modulo(g, _series_state(ctx, tuple(elems)), ctx)
    while running > 1:
        c = gcd(running, ctx.m)
        if c == 1:
            raise BadOrderError(f"factor order {running} shares no factor with {ctx.m}")
        running //= c
        elems.append(ctx.power(g, running))
        orders.append(c)
    return PolycyclicSeries(elems, orders)


def build_polycyclic_series(
    backend: GroupBackend, m: int, ctx: BlackboxContext | None = None
):
    """Bottom-up polycyclic series with factor orders dividing m.

    Returns a PolycyclicSeries, or BadOrder when some element's order has a
    prime factor outside m, or NotSolvable when commutator replacements exceed
    the code length (the certificate of non-solvability).
    """
    if ctx is None:
        ctx = BlackboxContext(backend, m)
    return _polycyclic_series(ctx, backend.generators)


def _polycyclic_series(ctx: BlackboxContext, generators):
    """build_polycyclic_series for the subgroup the given elements generate:
    conjugation closure runs over these generators only, and the context's
    arithmetic, caches and accounting are used throughout."""
    arith = ctx.arith
    for g in generators:
        if arith.order_m_exponent(g) is None:
            return BadOrder(element=g)
    series = PolycyclicSeries([], [])
    replacements = 0
    while True:
        outside = [g for g in generators if not _member(ctx, g, series)]
        if not outside:
            return series
        x = outside[0]
        while True:
            if arith.order_m_exponent(x) is None:
                return BadOrder(element=x)
            conjugates = [x]
            ext = _extend_series_abelian(ctx, series, x)
            replaced = False
            while True:
                escape = None
                for u in conjugates:
                    for y in outside:
                        c = arith.conjugate(u, y)
                        if not _member(ctx, c, ext):
                            escape = c
                            break
                    if escape is not None:
                        break
                if escape is None:
                    series = ext
                    break
                witness = None
                for w in conjugates:
                    cc = arith.commutator(w, escape)
                    if not _member(ctx, cc, series):
                        witness = cc
                        break
                if witness is not None:
                    replacements += 1
                    if replacements > ctx.backend.l_bits:
                        return NotSolvable(replacements=replacements)
                    x = witness
                    replaced = True
                    break
                conjugates.append(escape)
                ext = _extend_series_abelian(ctx, ext, escape)
            if not replaced:
                break


# ---------------------------------------------------------------------------
# Order, derived series, abelian factors


def group_order(series: PolycyclicSeries, ctx: BlackboxContext) -> int:
    """Product over the levels of the order of the level generator modulo the
    preceding subgroup, each found by the presentation routine."""
    total = 1
    for i, g in enumerate(series.elements):
        sub = _series_state(ctx, tuple(series.elements[:i]))
        total *= order_modulo(g, sub, ctx)
    return total


def commutator_subgroup(
    series: PolycyclicSeries, ctx: BlackboxContext
) -> PolycyclicSeries:
    """Series for the commutator subgroup of the group the series generates."""
    h = len(series)
    if h <= 1:
        return PolycyclicSeries([], [])
    nser = series.prefix(h - 1)
    g = series.elements[h - 1]
    nprime = commutator_subgroup(nser, ctx)
    current = nprime
    queue = list(nser.elements)
    while queue:
        w = queue.pop(0)
        c = ctx.arith.commutator(w, g)
        if not _member(ctx, c, current):
            current = _extend_series_abelian(ctx, current, c)
            queue.append(c)
    return current


def derived_series(
    backend: GroupBackend, m: int, ctx: BlackboxContext | None = None
) -> list[list[int]]:
    """Generator lists of the derived series, down to the trivial group."""
    if ctx is None:
        ctx = BlackboxContext(backend, m)
    built = build_polycyclic_series(backend, m, ctx)
    if not isinstance(built, PolycyclicSeries):
        raise PromiseError(f"group is not solvable of m-power order: {built}")
    return derived_chain(built, ctx)


def derived_chain(series: PolycyclicSeries, ctx: BlackboxContext) -> list[list[int]]:
    """The derived series from a built series of the whole group: its
    generators, then each commutator subgroup's series elements, down to the
    trivial group."""
    chain = [list(ctx.backend.generators)]
    while series.elements:
        series = commutator_subgroup(series, ctx)
        chain.append(list(series.elements))
    return chain


def subgroup_state(gens, ctx: BlackboxContext) -> SparseState:
    """|N> for the subgroup N the given elements generate, built along one
    polycyclic series of N; PromiseError when N is not solvable of m-power
    order."""
    series = _polycyclic_series(ctx, list(gens))
    if not isinstance(series, PolycyclicSeries):
        raise PromiseError(f"normal subgroup is not solvable of m-power order: {series}")
    return _series_state(ctx, tuple(series.elements))


def abelian_factor_decomposition(
    backend: GroupBackend, normal_gens, m: int, ctx: BlackboxContext | None = None
) -> AbelianDecomposition:
    """Invariant factors of (whole group)/(normal subgroup), the factor assumed
    abelian: `subgroup_state` builds |N>, then `abelian_presentation`
    presents the input generators modulo it."""
    if ctx is None:
        ctx = BlackboxContext(backend, m)
    n_state = subgroup_state(normal_gens, ctx)
    return abelian_presentation(backend.generators, n_state, ctx).decomposition
