import itertools
import random
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from hspsim.cyclotomic import CycloField
from hspsim.hsp import QueryStats
from hspsim.state import (
    Circuit,
    ClassicalStep,
    HadamardStep,
    NonBijectionError,
    NotProductError,
    PhaseStep,
    QftStep,
    ReflectStep,
    Register,
    RegisterLayout,
    ResourceLimitError,
    SimulationError,
    SparseState,
    StatePrep,
    amplitude_amplify,
    apply_classical_map,
    apply_hadamard,
    apply_qft,
    conditional_phase_i,
    drop_register,
    factor_split,
    inner_product_unscaled,
    make_backend,
    measure_register,
    measure_registers,
    prepare_basis,
    prepare_zero,
    states_close,
    states_equal,
    tensor,
    _pruned,
)

EX = make_backend("exact", 12)


def qubit_layout(*names):
    return RegisterLayout([Register(n, "qubit", 2) for n in names])


def digit_layout(dim, *names):
    return RegisterLayout([Register(n, "digit", dim) for n in names])


def random_state(rng, layout, backend, support=4):
    labels = set()
    dims = [r.dim for r in layout.registers]
    while len(labels) < support:
        labels.add(tuple(rng.randrange(d) for d in dims))
    amps = {}
    for lbl in labels:
        amps[lbl] = backend.root(rng.randrange(backend.root_order)) * rng.randrange(1, 4)
    scale = backend.mass(amps.values())
    return SparseState(layout, backend, scale, amps)


# ---------------------------------------------------------------------------
# Preparation and transforms


def test_prepare_zero_variants():
    for layout in (qubit_layout("q"), digit_layout(6, "x"), RegisterLayout(
        [Register("x", "digit", 6), Register("q", "qubit", 2)]
    )):
        st = prepare_zero(layout, EX)
        assert st.support() == [layout.zero_label()]
        assert st.scale == 1
        st.check_normalization()


def test_qft_uniform_from_zero():
    st = prepare_zero(digit_layout(6, "x"), EX)
    st = apply_qft(st, "x")
    assert len(st.amps) == 6
    assert all(a == EX.one for a in st.amps.values())
    assert st.scale == 6


def test_qft_forward_then_inverse_is_identity(rng):
    layout = RegisterLayout([Register("x", "digit", 6), Register("y", "digit", 4)])
    for _ in range(20):
        st = random_state(rng, layout, EX)
        out = apply_qft(apply_qft(st, "x"), "x", inverse=True)
        assert states_equal(st, out)
        out2 = apply_qft(apply_qft(st, "y", inverse=True), "y")
        assert states_equal(st, out2)


def test_qft_phase_row():
    # |1> goes to (1, w, w^2)/sqrt(3) for a three-valued digit
    st = prepare_basis(digit_layout(3, "x"), EX, (1,))
    st = apply_qft(st, "x")
    w = EX.root(12 // 3)
    assert st.amps[(0,)] == EX.one
    assert st.amps[(1,)] == w
    assert st.amps[(2,)] == w * w
    assert st.scale == 3


def test_qft_matches_dense_dft():
    for m in range(2, 13):
        M = 4 * m if m % 2 else (m if m % 4 == 0 else 2 * m)
        backend = make_backend("exact", M)
        layout = digit_layout(m, "x")
        rng = random.Random(m)
        st = random_state(rng, layout, backend, support=min(m, 3))
        vec = np.zeros(m, dtype=complex)
        for (x,), a in st.amps.items():
            vec[x] = backend.to_complex(a) / np.sqrt(float(st.scale))
        dft = np.array(
            [[np.exp(2j * np.pi * i * j / m) for j in range(m)] for i in range(m)]
        ) / np.sqrt(m)
        expected = dft @ vec
        out = apply_qft(st, "x")
        got = np.array([out.complex_amplitude((y,)) for y in range(m)])
        assert np.allclose(got, expected, atol=1e-9)


def test_hadamard_basics():
    st = prepare_zero(qubit_layout("q"), EX)
    plus = apply_hadamard(st, "q")
    assert plus.amps[(0,)] == EX.one and plus.amps[(1,)] == EX.one
    again = apply_hadamard(plus, "q")
    assert states_equal(st, again)
    minus = SparseState(
        qubit_layout("q"), EX, 2, {(0,): EX.one, (1,): -EX.one}
    )
    assert states_equal(apply_hadamard(minus, "q"), prepare_basis(qubit_layout("q"), EX, (1,)))


def test_hadamard_requires_qubit():
    st = prepare_zero(digit_layout(3, "x"), EX)
    with pytest.raises(ValueError):
        apply_hadamard(st, "x")


def test_classical_map_identity_and_xor():
    layout = qubit_layout("a", "b")
    st = apply_hadamard(prepare_zero(layout, EX), "a")
    same = apply_classical_map(st, lambda l: l)
    assert states_equal(st, same)

    def write_flag(l):
        return (l[0], l[1] ^ (l[0] & 1))

    once = apply_classical_map(st, write_flag)
    twice = apply_classical_map(once, write_flag)
    assert states_equal(st, twice)
    assert once.amps[(1, 1)] == EX.one


def test_classical_map_against_dense_matrix(rng):
    layout = digit_layout(4, "x", "y")
    perm = lambda l: ((l[0] + 1) % 4, (l[1] + l[0]) % 4)
    st = random_state(rng, layout, EX, support=5)
    out = apply_classical_map(st, perm)
    dense = np.zeros((16, 16))
    for a in range(4):
        for b in range(4):
            na, nb = perm((a, b))
            dense[na * 4 + nb, a * 4 + b] = 1
    vec = np.zeros(16, dtype=complex)
    for (a, b), amp in st.amps.items():
        vec[a * 4 + b] = st.complex_amplitude((a, b))
    expected = dense @ vec
    got = np.array([out.complex_amplitude((i // 4, i % 4)) for i in range(16)])
    assert np.allclose(got, expected, atol=1e-12)


def test_classical_map_collision_faults():
    layout = qubit_layout("a")
    st = apply_hadamard(prepare_zero(layout, EX), "a")
    with pytest.raises(NonBijectionError):
        apply_classical_map(st, lambda l: (0,))


def test_conditional_phase():
    layout = qubit_layout("a")
    st = apply_hadamard(prepare_zero(layout, EX), "a")
    nothing = conditional_phase_i(st, lambda l: False)
    assert states_equal(st, nothing)
    four = st
    for _ in range(4):
        four = conditional_phase_i(four, lambda l: l[0] == 1)
    assert states_equal(st, four)
    all_i = conditional_phase_i(st, lambda l: True)
    assert states_equal(st, all_i, up_to_phase=True)
    assert not states_equal(st, all_i)
    st.check_normalization()
    all_i.check_normalization()


# ---------------------------------------------------------------------------
# Measurement


def test_measure_basis_state_certain(rng):
    layout = digit_layout(6, "x")
    st = prepare_basis(layout, EX, (4,))
    out, post = measure_register(st, "x", mode="seeded", rng=rng)
    assert out == 4
    assert states_equal(st, post)


def test_measure_uniform_seeded_is_exact():
    layout = digit_layout(6, "x")
    st = apply_qft(prepare_zero(layout, EX), "x")
    counts = [0] * 6
    rng = random.Random(0)
    for _ in range(600):
        out, post = measure_register(st, "x", mode="seeded", rng=rng)
        counts[out] += 1
        assert post.support() == [(out,)]
        post.check_normalization()
    assert all(c > 0 for c in counts)


def test_measure_deterministic_lexicographic():
    layout = digit_layout(6, "x")
    amps = {(3,): EX.one, (5,): EX.root(3)}
    st = SparseState(layout, EX, 2, amps)
    out, post = measure_register(st, "x", mode="deterministic")
    assert out == 3
    assert post.scale == 1


def test_measure_collapse_renormalizes_exactly():
    layout = RegisterLayout([Register("x", "digit", 4), Register("q", "qubit", 2)])
    st = apply_hadamard(apply_qft(prepare_zero(layout, EX), "x"), "q")
    out, post = measure_register(st, "x", mode="deterministic")
    post.check_normalization()
    assert out == 0
    assert isinstance(post.scale, int)


def test_measure_sequence():
    layout = digit_layout(3, "x", "y")
    st = apply_qft(apply_qft(prepare_zero(layout, EX), "x"), "y")
    outs, post = measure_registers(st, ["x", "y"], mode="deterministic")
    assert outs == (0, 0)
    post.check_normalization()


# ---------------------------------------------------------------------------
# Products


def test_factor_split_product():
    a = apply_hadamard(prepare_zero(qubit_layout("a"), EX), "a")
    b = prepare_basis(qubit_layout("b"), EX, (1,))
    joint = tensor(a, b)
    left, right = factor_split(joint, ["a"])
    assert states_equal(left, a)
    assert states_equal(right, b)


def test_factor_split_bell_fails():
    layout = qubit_layout("a", "b")
    bell = SparseState(layout, EX, 2, {(0, 0): EX.one, (1, 1): EX.one})
    with pytest.raises(NotProductError):
        factor_split(bell, ["a"])


def test_factor_split_phase_goes_one_side(rng):
    a = apply_hadamard(prepare_zero(qubit_layout("a"), EX), "a")
    a_phased = conditional_phase_i(a, lambda l: True)
    b = apply_hadamard(prepare_zero(qubit_layout("b"), EX), "b")
    joint = tensor(a_phased, b)
    left, right = factor_split(joint, ["a"])
    assert states_equal(left, a, up_to_phase=True)
    assert states_equal(right, b, up_to_phase=True)
    # the product of the parts reproduces the joint state up to phase
    again = tensor(left, right)
    assert states_equal(joint, again, up_to_phase=True)


def test_drop_register():
    layout = digit_layout(3, "x", "y")
    st = apply_qft(prepare_zero(layout, EX), "y")
    out = drop_register(st, "x")
    assert out.layout.names() == ["y"]
    with pytest.raises(SimulationError):
        drop_register(st, "y")


# ---------------------------------------------------------------------------
# Circuits and amplification


def round_trip_circuit():
    def flip(l):
        return (l[0], l[1] ^ (1 if l[0] == 2 else 0))

    return Circuit.of(
        QftStep("x"),
        PhaseStep(lambda l: l[0] == 1, 1),
        ClassicalStep(flip, flip),
        QftStep("x", inverse=True),
    )


def test_circuit_inverse_roundtrip(rng):
    layout = RegisterLayout([Register("x", "digit", 6), Register("q", "qubit", 2)])
    circ = round_trip_circuit()
    inv = circ.inverse()
    for _ in range(15):
        st = random_state(rng, layout, EX)
        out = inv.run(circ.run(st))
        assert states_equal(st, out)


def test_amplify_half_mass_removes_bad_branch():
    # prep = Hadamard: both halves carry mass 1/2; goodness reads the qubit
    layout = qubit_layout("q")
    prep = Circuit.of(HadamardStep("q"))
    circ = amplitude_amplify(prep, lambda l: l[0] == 1)
    out = circ.run(prepare_zero(layout, EX))
    assert out.support() == [(1,)]
    out.check_normalization()


def test_amplify_zero_good_mass_stays_zero():
    layout = qubit_layout("q")
    prep = Circuit.of(HadamardStep("q"))
    circ = amplitude_amplify(prep, lambda l: False)
    out = circ.run(prepare_zero(layout, EX))
    assert out.support() == [(0,), (1,)]
    # truly nothing was marked, so the state is prep|0> up to a global phase
    assert states_equal(out, prep.run(prepare_zero(layout, EX)), up_to_phase=True)


def test_amplify_full_good_mass_gains_minus_one():
    layout = qubit_layout("q")
    flip = ClassicalStep(lambda l: (l[0] ^ 1,), lambda l: (l[0] ^ 1,))
    prep = Circuit.of(flip)
    circ = amplitude_amplify(prep, lambda l: l[0] == 1)
    out = circ.run(prepare_zero(layout, EX))
    assert out.support() == [(1,)]
    amp = out.amps[(1,)]
    # phase is exactly -1
    val = EX.to_complex(amp) / float(out.scale) ** 0.5
    assert abs(val + 1) < 1e-12
    assert (amp + EX.root(0) * _int_sqrt(out.scale)).is_zero()


def _int_sqrt(n):
    r = int(n**0.5)
    while r * r < n:
        r += 1
    while r * r > n:
        r -= 1
    assert r * r == n
    return r


def literal_amplify(prep, good):
    """The amplification pass step by step: prep, phase i on good labels,
    inverse prep, phase i on the all-zero label, prep again.  It works only
    when every step of prep is invertible on arbitrary states."""

    def all_zero(label):
        return not any(label)

    return Circuit.of(
        prep,
        PhaseStep(good, 1),
        prep.inverse(),
        PhaseStep(all_zero, 1),
        prep,
    )


def test_amplify_literal_equals_reflection(rng):
    layout = RegisterLayout([Register("x", "digit", 4), Register("q", "qubit", 2)])

    def mark(l):
        return (l[0], l[1] ^ (1 if l[0] in (2, 3) else 0))

    prep = Circuit.of(QftStep("x"), ClassicalStep(mark, mark))
    good = lambda l: l[1] == 1
    lit = literal_amplify(prep, good)
    ref = amplitude_amplify(prep, good)
    z = prepare_zero(layout, EX)
    assert states_equal(lit.run(z), ref.run(z))


def test_reflection_inverse_roundtrip(rng):
    layout = qubit_layout("q")
    prep = Circuit.of(HadamardStep("q"))
    step = ReflectStep(prep, 1)
    inv = step.inverted()
    for _ in range(10):
        st = random_state(rng, layout, EX, support=2)
        out = inv.apply(step.apply(st))
        assert states_equal(st, out)


def _counted_steps():
    """Steps that have an inverted(): transforms either way, Hadamard, phase,
    classical, and reflections about circuits of such steps."""

    def same(label):
        return label

    leaf = hst.one_of(
        hst.builds(QftStep, hst.sampled_from(["x", "y"]), hst.booleans()),
        hst.just(HadamardStep("q")),
        hst.builds(PhaseStep, hst.just(any), hst.integers(0, 3)),
        hst.just(ClassicalStep(same, same)),
    )
    return hst.recursive(
        leaf,
        lambda inner: hst.builds(
            lambda steps, turns: ReflectStep(Circuit.of(*steps), turns),
            hst.lists(inner, max_size=4),
            hst.integers(0, 3),
        ),
        max_leaves=12,
    )


@given(hst.lists(_counted_steps(), max_size=6))
@settings(max_examples=80, deadline=None)
def test_inverse_count_equals_the_count_of_the_inverse_circuit(steps):
    circ = Circuit.of(*steps)
    got, want = QueryStats(), QueryStats()
    circ.count(got, inverse=True)
    circ.inverse().count(want)
    assert got.to_dict() == want.to_dict()


def test_normalization_invariant_across_primitives(rng):
    layout = RegisterLayout(
        [Register("x", "digit", 6), Register("q", "qubit", 2)]
    )
    for _ in range(10):
        st = random_state(rng, layout, EX)
        st.check_normalization()
        for op in (
            lambda s: apply_qft(s, "x"),
            lambda s: apply_qft(s, "x", inverse=True),
            lambda s: apply_hadamard(s, "q"),
            lambda s: conditional_phase_i(s, lambda l: l[0] % 2 == 0),
            lambda s: apply_classical_map(s, lambda l: ((l[0] + 1) % 6, l[1])),
        ):
            st = op(st)
            st.check_normalization()


# ---------------------------------------------------------------------------
# Prep steps


def test_state_prep_injection():
    psi = apply_hadamard(prepare_zero(qubit_layout("v"), EX), "v")
    prep = StatePrep(("v",), psi)
    layout = RegisterLayout([Register("x", "digit", 3), Register("v", "qubit", 2)])
    base = apply_qft(prepare_zero(layout, EX), "x")
    injected = prep.as_circuit().run(base)
    assert len(injected.amps) == 6


def test_state_prep_requires_zero_block():
    psi = prepare_basis(qubit_layout("v"), EX, (1,))
    prep = StatePrep(("v",), psi)
    layout = qubit_layout("v")
    nonzero = prepare_basis(layout, EX, (1,))
    with pytest.raises(SimulationError):
        prep.as_circuit().run(nonzero)


def test_state_prep_needs_a_contiguous_block_in_its_order():
    # the block is written into each label as one slice
    psi = apply_hadamard(tensor(prepare_zero(qubit_layout("v"), EX),
                                prepare_zero(qubit_layout("w"), EX)), "w")
    prep = StatePrep(("v", "w"), psi)
    x = Register("x", "digit", 3)
    v, w = psi.layout.registers
    for regs in ([v, x, w], [w, v, x]):
        with pytest.raises(ValueError):
            prep.as_circuit().run(prepare_zero(RegisterLayout(regs), EX))
    injected = prep.as_circuit().run(prepare_zero(RegisterLayout([x, v, w]), EX))
    assert {lbl: a.coeffs for lbl, a in injected.amps.items()} == {
        (0,) + lbl: a.coeffs for lbl, a in psi.amps.items()
    }


# ---------------------------------------------------------------------------
# Backends and misc


def test_float_backend_mirrors_exact(rng):
    fl = make_backend("float", 12)
    layout = digit_layout(6, "x")
    ste = apply_qft(prepare_zero(layout, EX), "x")
    stf = apply_qft(prepare_zero(layout, fl), "x")
    assert states_close(ste, stf, tol=1e-9)


def test_dump_format():
    st = apply_qft(prepare_zero(digit_layout(3, "x"), EX), "x")
    text = st.dump()
    lines = text.splitlines()
    assert lines[0] == "N=3"
    assert len(lines) == 4
    assert lines[1].startswith("(0,)")


def test_support_limit_guard():
    layout = RegisterLayout([Register("x", "digit", 3)])
    st = prepare_zero(layout, EX)
    from hspsim import state as state_mod

    old = state_mod.SUPPORT_LIMIT
    state_mod.SUPPORT_LIMIT = 2
    try:
        with pytest.raises(SimulationError):
            apply_qft(st, "x")
    finally:
        state_mod.SUPPORT_LIMIT = old


def test_measure_collapse_clears_fractional_scale():
    from fractions import Fraction

    from hspsim.cyclotomic import CycloField

    fld = CycloField(12)
    half = fld.from_rational(Fraction(1, 2))
    layout = digit_layout(3, "x")
    st = SparseState(layout, EX, Fraction(1, 2), {(0,): half, (1,): half})
    st.check_normalization()
    out, post = measure_register(st, "x", mode="deterministic")
    assert out == 0
    assert isinstance(post.scale, int)
    post.check_normalization()


# ---------------------------------------------------------------------------
# The reflection and the exact sums fold each distinct amplitude pair once;
# these properties compare them with the per-label fold on states that repeat
# a few values over many labels.


@hst.composite
def repeated_amplitude_states(draw):
    """An exact backend of root order 4, 12, 20 or 24 and two states on one
    4x4 layout whose amplitudes come from a pool of at most three values of
    the form c * w^e, so that every mass is rational."""
    order = draw(hst.sampled_from([4, 12, 20, 24]))
    backend = make_backend("exact", order)
    pool = [
        backend.root(e) * c
        for c, e in draw(
            hst.lists(
                hst.tuples(hst.integers(-3, 3).filter(bool), hst.integers(0, order - 1)),
                min_size=1,
                max_size=3,
            )
        )
    ]
    layout = digit_layout(4, "a", "b")
    labels = list(itertools.product(range(4), repeat=2))

    def draw_state():
        support = draw(hst.lists(hst.sampled_from(labels), min_size=1, unique=True))
        amps = {lbl: draw(hst.sampled_from(pool)) for lbl in support}
        return SparseState(layout, backend, naive_mass(backend, amps.values()), amps)

    return backend, draw_state(), draw_state(), draw(hst.integers(1, 3))


def naive_conj_dot(backend, pairs):
    total = backend.zero
    for a, b in pairs:
        total = total + a.conjugate() * b
    return total


def naive_mass(backend, amps):
    return naive_conj_dot(backend, ((a, a) for a in amps)).rational_value()


def check_reflection(psi, state, turns, z, view):
    """ReflectStep.apply against its per-label fold given the overlap z,
    comparing amplitudes through view."""
    backend = state.backend
    coef = (backend.root(backend.root_order // 4 * turns) - backend.one) * z
    new = {lbl: a * psi.scale for lbl, a in state.amps.items()}
    for lbl, p in psi.amps.items():
        new[lbl] = new[lbl] + coef * p if lbl in new else coef * p
    scale = state.scale * psi.scale**2
    expected = {lbl: a for lbl, a in new.items() if not backend.is_zero(a, scale)}
    step = ReflectStep(Circuit(()), turns, psi=psi)
    if not expected:
        with pytest.raises(SimulationError):
            step.apply(state)
        return
    out = step.apply(state)
    assert out.scale == scale
    assert [(lbl, view(a)) for lbl, a in out.amps.items()] == [
        (lbl, view(a)) for lbl, a in expected.items()
    ]


@settings(max_examples=80, deadline=None)
@given(repeated_amplitude_states())
def test_grouped_sums_equal_the_per_label_fold(case):
    backend, psi, state, _ = case
    assert state.mass() == state.scale
    assert backend.mass(list(state.amps.values()) + list(psi.amps.values())) == (
        state.scale + psi.scale
    )
    common = [(psi.amps[lbl], a) for lbl, a in state.amps.items() if lbl in psi.amps]
    assert inner_product_unscaled(psi, state).coeffs == naive_conj_dot(backend, common).coeffs


@settings(max_examples=80, deadline=None)
@given(repeated_amplitude_states())
def test_memoized_reflection_equals_the_per_label_fold(case):
    backend, psi, state, turns = case
    common = ((psi.amps[lbl], a) for lbl, a in state.amps.items() if lbl in psi.amps)
    check_reflection(psi, state, turns, naive_conj_dot(backend, common), attrgetter("coeffs"))


@settings(max_examples=40, deadline=None)
@given(repeated_amplitude_states())
def test_float_reflection_is_bit_identical_to_the_per_label_fold(case):
    backend, psi, state, turns = case
    fl = make_backend("float", backend.root_order)
    shared = {}  # equal exact values become one float object, as a copy would

    def to_float(s):
        amps = {l: shared.setdefault(a.coeffs, a.to_complex()) for l, a in s.amps.items()}
        return SparseState(s.layout, fl, s.scale, amps)

    fpsi, fstate = to_float(psi), to_float(state)
    check_reflection(fpsi, fstate, turns, inner_product_unscaled(fpsi, fstate), repr)


# The exact QFT canonicalizes once per output label, and the phase step and
# the exact mass work once per distinct amplitude; these compare them with the
# per-term folds.


def naive_qft(state, register, inverse):
    """The per-term fold sum_x amp_x * w^{+-step*x*y}, then _pruned."""
    backend = state.backend
    idx = state.layout.index[register]
    d = state.layout.dim(register)
    step = backend.root_order // d * (-1 if inverse else 1)
    new = {}
    for lbl, amp in state.amps.items():
        for y in range(d):
            nl = lbl[:idx] + (y,) + lbl[idx + 1 :]
            term = amp * backend.root(step * lbl[idx] * y)
            new[nl] = new[nl] + term if nl in new else term
    scale = state.scale * d
    return scale, _pruned(backend, new, scale)


@hst.composite
def repeated_fiber_states(draw):
    """A case shaped like repeated_amplitude_states' whose state copies one
    fiber of register a (amplitudes c * w^e over a = 0..3) to two or more
    values of register b, so that transforming a meets equal fibers, and adds
    at most one other label."""
    order = draw(hst.sampled_from([4, 12, 20, 24]))
    backend = make_backend("exact", order)
    value = hst.builds(
        lambda c, e: backend.root(e) * c,
        hst.integers(-3, 3).filter(bool),
        hst.integers(0, order - 1),
    )
    fiber = draw(hst.dictionaries(hst.integers(0, 3), value, min_size=1))
    copies = draw(hst.lists(hst.integers(0, 3), min_size=2, unique=True))
    amps = {(a, b): amp for b in copies for a, amp in fiber.items()}
    extra = draw(hst.sampled_from(list(itertools.product(range(4), repeat=2))))
    amps.setdefault(extra, draw(value))
    state = SparseState(digit_layout(4, "a", "b"), backend, naive_mass(backend, amps.values()), amps)
    return backend, state, state, 1


@settings(max_examples=80, deadline=None)
@given(
    hst.one_of(repeated_amplitude_states(), repeated_fiber_states()),
    hst.sampled_from(["a", "b"]),
    hst.booleans(),
)
def test_batched_qft_equals_the_per_term_fold(case, register, inverse):
    _, _, state, _ = case
    scale, expected = naive_qft(state, register, inverse)
    out = apply_qft(state, register, inverse=inverse)
    assert out.scale == scale
    assert [(lbl, a.coeffs) for lbl, a in out.amps.items()] == [
        (lbl, a.coeffs) for lbl, a in expected.items()
    ]


def test_qft_transforms_each_distinct_fiber_once(monkeypatch):
    # fibers of register a at b = 0, 1, 2 are equal, the one at b = 3 is not:
    # two distinct fibers, each canonicalized once per output label
    backend = make_backend("exact", 12)
    w = backend.root
    fiber = {0: w(1), 1: w(4) * 2, 3: -w(0)}
    amps = {(a, b): amp for b in range(3) for a, amp in fiber.items()}
    amps[(2, 3)] = w(7)
    state = SparseState(digit_layout(4, "a", "b"), backend, naive_mass(backend, amps.values()), amps)
    scale, expected = naive_qft(state, "a", False)
    calls = []
    real = CycloField.from_raw
    monkeypatch.setattr(CycloField, "from_raw", lambda self, raw: calls.append(1) or real(self, raw))
    out = apply_qft(state, "a")
    assert len(calls) == 2 * 4
    assert out.scale == scale
    assert [(lbl, a.coeffs) for lbl, a in out.amps.items()] == [
        (lbl, a.coeffs) for lbl, a in expected.items()
    ]


def check_phase_step(state, flagged, turns, view):
    backend = state.backend
    ph = backend.root(backend.root_order // 4 * turns)
    expected = {lbl: a * ph if lbl in flagged else a for lbl, a in state.amps.items()}
    out = conditional_phase_i(state, lambda lbl: lbl in flagged, turns)
    assert out.scale == state.scale
    assert [(lbl, view(a)) for lbl, a in out.amps.items()] == [
        (lbl, view(a)) for lbl, a in expected.items()
    ]


@settings(max_examples=80, deadline=None)
@given(repeated_amplitude_states())
def test_memoized_phase_step_equals_the_per_label_fold(case):
    backend, psi, state, turns = case
    check_phase_step(state, set(psi.amps), turns, attrgetter("coeffs"))
    fl = make_backend("float", backend.root_order)
    shared = {}  # equal exact values become one float object, as a copy would
    amps = {l: shared.setdefault(a.coeffs, a.to_complex()) for l, a in state.amps.items()}
    check_phase_step(SparseState(state.layout, fl, state.scale, amps), set(psi.amps), turns, repr)


@settings(max_examples=80, deadline=None)
@given(repeated_amplitude_states())
def test_counted_mass_equals_the_per_label_fold(case):
    backend, psi, state, _ = case
    family = list(state.amps.values()) * 2 + list(psi.amps.values())
    assert backend.mass(family) == naive_mass(backend, family)
    assert backend.mass(state.amps.values()) == naive_mass(backend, state.amps.values())
    # the counted forms: each distinct amplitude once, with its multiplicity
    counted = backend.tally((a, 1) for a in family)
    assert backend.mass_total((backend.abs2(a), k) for a, k in counted) == naive_mass(
        backend, family
    )
    pairs = list(zip(family, reversed(family)))
    assert backend.conj_dot_counted(backend.tally((p, 1) for p in pairs)).coeffs == (
        naive_conj_dot(backend, pairs).coeffs
    )


def test_irrational_mass_faults():
    # |1 + w|^2 = 2 + sqrt(2) for w of order 8: no exact draw can use it
    backend = make_backend("exact", 8)
    amp = backend.one + backend.root(1)
    with pytest.raises(SimulationError, match="irrational"):
        backend.mass([amp])
    with pytest.raises(SimulationError, match="irrational"):
        backend.mass_total([(backend.abs2(amp), 3)])


def test_exact_field_is_built_on_first_amplitude_use():
    # a backend above the root-order limit can be made and can draw; reading
    # an amplitude is what builds the field, and that meets the limit
    backend = make_backend("exact", 4 * 1031)
    assert "field" not in vars(backend)
    assert backend.threshold(random.Random(1), 10) == random.Random(1).randrange(10)
    assert backend.draw(random.Random(1), [3, 0, 4]) in (0, 2)
    for read in (lambda b: b.one, lambda b: b.zero, lambda b: b.root(1), lambda b: b.field):
        with pytest.raises(ResourceLimitError, match="root order 4124 exceeds"):
            read(backend)
    small = make_backend("exact", 12)
    assert small.one == small.field.one and small.root(3) == small.imag_unit()


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_draw_takes_its_threshold_from_the_backend(kind):
    backend = make_backend(kind, 4)
    masses = [2, 0, 5, 1]
    for seed in range(20):
        t = backend.threshold(random.Random(seed), sum(masses))
        acc = [sum(masses[: i + 1]) for i in range(len(masses))]
        assert backend.draw(random.Random(seed), masses) == next(
            i for i, a in enumerate(acc) if t < a
        )
