import math
import random
import time
from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import example, given, settings, strategies as st

from hspsim.hsp import (
    HidingOracle,
    OracleStep,
    QueryStats,
    amplified_round_state,
    build_coset_oracle,
    fourier_sample,
    hsp_round,
    is_prime,
    probe_schedule,
    round_flag,
    round_prep_circuit,
    sampling_layout,
    solve_hsp,
    solve_hsp_zmn,
    verify_hidden,
    _drawn_class,
    _flag_is_set,
    _root_order,
)
from hspsim.lattice import (
    IntMatrix,
    SubgroupRep,
    contains_element,
    coset_representative,
    enumerate_elements,
    full_subgroup,
    pairing_fibers,
    perp_subgroup,
    subgroup_from_generators,
    subgroup_order,
    trivial_subgroup,
)
from hspsim.state import (
    Register,
    RegisterLayout,
    ResourceLimitError,
    SimulationError,
    SparseState,
    StatePrep,
    amplitude_amplify,
    apply_qft,
    make_backend,
    measure_registers,
    prepare_zero,
    _walk,
)
from hspsim import state as state_module
from hspsim.blackbox import _swap_oracle

from conftest import enumerate_subgroup_hnfs, lattice_points
from reduced_round_reference import reference_reduced_round


def rep_of(rows, m, k=1):
    return SubgroupRep(m, k, len(rows), IntMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# Oracles


def label_table(oracle):
    """f over all of Z_q^n for an oracle without a preparation: each query
    relabels the value registers' |0>."""
    zero = (0,) * len(oracle.value_registers)
    return {x: oracle.mult(x, zero)
            for x in cartesian(range(oracle.modulus), repeat=oracle.n)}


def test_coset_oracle_constant_for_full_group():
    oracle = build_coset_oracle(full_subgroup(6, 1, 2))
    values = set(label_table(oracle).values())
    assert len(values) == 1


def test_coset_oracle_injective_for_trivial():
    oracle = build_coset_oracle(trivial_subgroup(6, 1, 2))
    tab = label_table(oracle)
    assert len(set(tab.values())) == len(tab)


def test_coset_oracle_hides_exactly():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    oracle = build_coset_oracle(rep)
    tab = label_table(oracle)
    assert len(set(tab.values())) == 6  # index of the subgroup
    pts = lattice_points(rep.hnf.to_lists(), 6, 2)
    for x in tab:
        for y in tab:
            same = tuple((a - b) % 6 for a, b in zip(x, y)) in pts
            assert (tab[x] == tab[y]) == same
    assert oracle.hidden_subgroup().hnf == rep.hnf


def test_verify_hidden():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    oracle = build_coset_oracle(rep)
    assert verify_hidden(oracle, rep)
    assert not verify_hidden(oracle, full_subgroup(6, 1, 2))
    assert not verify_hidden(oracle, trivial_subgroup(6, 1, 2))
    # the check scans f itself, so an oracle that declares the wrong subgroup
    # is rejected for it and verified for the one it hides
    wrong = HidingOracle(6, 1, 2, oracle.value_registers,
                         label_fn=lambda x: coset_representative(rep, x),
                         hidden=trivial_subgroup(6, 1, 2))
    assert not verify_hidden(wrong, trivial_subgroup(6, 1, 2))
    assert verify_hidden(wrong, rep)


def test_label_table_respects_the_support_limit(monkeypatch):
    # the scan over Z_q^n faults before evaluating f above the limit, while a
    # reduced solve on the declared subgroup, which evaluates no f, still runs
    rep = subgroup_from_generators([(1, 2)], 3, 1, 2)
    oracle = build_coset_oracle(rep)
    mult, calls = oracle.mult, []
    oracle.mult = lambda x, v: calls.append(x) or mult(x, v)
    monkeypatch.setattr(state_module, "SUPPORT_LIMIT", 8)
    with pytest.raises(SimulationError):
        verify_hidden(oracle, rep)
    assert calls == []
    res = solve_hsp_zmn(oracle, mode="deterministic", method="reduced")
    assert res.subgroup.hnf == rep.hnf
    monkeypatch.setattr(state_module, "SUPPORT_LIMIT", 9)
    assert verify_hidden(oracle, rep)
    assert len(calls) == 9


def test_hand_rolled_oracle_agrees_with_packaged():
    # an independently built hiding function (coset ids via closure) must give
    # the same hidden subgroup through the solver
    m, n = 6, 2
    gens = [(2, 3)]
    pts = lattice_points([[2, 0], [0, 3]], m, n)
    ids = {}
    table = {}
    for x in cartesian(range(m), repeat=n):
        key = min(tuple((a - b) % m for a, b in zip(x, p)) for p in pts)
        table[x] = ids.setdefault(key, len(ids))
    from hspsim.state import Register

    oracle = HidingOracle(
        m, 1, n,
        [Register("v0", "digit", len(ids))],
        label_fn=lambda x: (table[tuple(x)],),
    )
    res = solve_hsp_zmn(oracle, mode="deterministic")
    assert res.subgroup.hnf.to_lists() == [[2, 0], [0, 3]]


def _state_oracle(m, k, n, hidden=None):
    """A state-valued oracle that nothing here queries: it only carries a
    shape and, optionally, a known hidden subgroup."""
    regs = [Register("v0", "digit", 2)]
    return HidingOracle(m, k, n, regs, mult=lambda x, v: v, hidden=hidden)


@pytest.mark.parametrize("hidden", [
    trivial_subgroup(2, 1, 2), trivial_subgroup(4, 2, 2), trivial_subgroup(4, 1, 3),
], ids=["m", "k", "n"])
def test_known_hidden_subgroup_must_match_the_oracle_shape(hidden):
    with pytest.raises(ValueError):
        _state_oracle(4, 1, 2, hidden)


def _swap_oracle_of(amps1, amps2, backend_kind="exact"):
    """The swap test's oracle, built without its hidden subgroup, for two
    states on one qubit-sized digit register given as {value: amplitude}."""
    backend = make_backend(backend_kind, _root_order(2))
    layout = RegisterLayout([Register("w", "digit", 2)])

    def state(amps):
        return SparseState(layout, backend, len(amps),
                           {(v,): backend.one * a for v, a in amps.items()})

    return _swap_oracle(state(amps1), state(amps2))


def test_state_valued_oracle_needs_mult():
    with pytest.raises(ValueError):
        HidingOracle(2, 1, 1, [Register("v0", "digit", 2)])


def test_oracle_takes_label_fn_or_mult_not_both():
    with pytest.raises(ValueError):
        HidingOracle(2, 1, 1, [Register("v0", "digit", 2)],
                     label_fn=lambda x: x, mult=lambda x, v: v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_pass_charges_its_uncompute_as_inverse_queries(n):
    # prep = QFT^n, f, QFT^n runs forwards twice and is uncomputed once
    stats = QueryStats()
    build_coset_oracle(trivial_subgroup(2, 1, n)).record_passes(stats, 1)
    assert (stats.f_calls, stats.f_inverse_calls) == (2, 1)
    assert (stats.qft_calls, stats.qft_inverse_calls) == (4 * n, 2 * n)


def test_oracle_step_runs_on_the_sampling_layout():
    # x and the value block are read as slices, so a query on a layout that
    # does not start with them faults rather than relabel the wrong registers
    oracle = build_coset_oracle(trivial_subgroup(2, 1, 1))
    backend = make_backend("exact", 4)
    (v0,) = oracle.value_registers
    swapped = RegisterLayout([v0, Register("x0", "digit", 2)])
    with pytest.raises(ValueError):
        OracleStep(oracle).apply(prepare_zero(swapped, backend))
    queried = OracleStep(oracle).apply(
        apply_qft(prepare_zero(sampling_layout(oracle), backend), "x0"))
    assert sorted(queried.amps) == [(0, 0), (1, 1)]


def _overlapping_swap_oracle():
    # |0> against |0> + |1>: they overlap and are not equal, which breaks the
    # promise that f(0) and f(1) are equal or orthogonal
    return _swap_oracle_of({0: 1}, {0: 1, 1: 1})


def test_known_hidden_subgroup_enables_reduced_rounds():
    rep = subgroup_from_generators([(2, 0)], 4, 1, 2)
    oracle = _state_oracle(4, 1, 2, rep)
    assert oracle.hidden_subgroup() is rep
    # a probe inside the subgroup pairs to zero with all of its complement, a
    # probe outside it does not
    assert hsp_round(oracle, (2, 0), mode="deterministic", method="reduced")[0] == []
    assert hsp_round(oracle, (1, 0), mode="deterministic", method="reduced")[0]
    # without a declared subgroup the exact scan finds it: f is constant, so
    # the oracle hides the whole group and every probe lies inside it
    scanned = _state_oracle(4, 1, 2)
    assert scanned.hidden_known
    assert scanned.hidden_subgroup().hnf == full_subgroup(4, 1, 2).hnf
    assert hsp_round(scanned, (1, 0), mode="deterministic", method="reduced")[0] == []
    # an oracle off the promise has no hidden subgroup to reduce with
    off_promise = _overlapping_swap_oracle()
    assert not off_promise.hidden_known
    with pytest.raises(ValueError):
        hsp_round(off_promise, (1,), mode="deterministic", method="reduced")
    with pytest.raises(ValueError):
        off_promise.hidden_subgroup()


def _valued_oracle(values, dim):
    """A state-valued oracle over Z_m, m = len(values), without a preparation:
    f(x) is the basis state |values[x]> of one digit register."""
    return HidingOracle(len(values), 1, 1, [Register("v0", "digit", dim)],
                        mult=lambda x, v: ((v[0] + values[x[0]]) % dim,))


def _label_oracle(values, dim):
    """The same f as `_valued_oracle`, built from its label function."""
    return HidingOracle(len(values), 1, 1, [Register("v0", "digit", dim)],
                        label_fn=lambda x: (values[x[0]],))


@pytest.mark.parametrize("values,hnf", [
    ([0, 1, 2, 0, 1, 2], ((3,),)),
    ([0, 0, 0, 0], ((1,),)),
    ([0, 1, 2, 3], ((4,),)),
    ([0, 1, 1, 0, 1, 1], None),  # two cosets of {0, 3} share a value
    ([0, 1, 2, 0, 2, 2], None),  # not constant on the cosets of {0, 3}
    ([0, 0, 1, 1], None),  # the fiber over f(0) is no subgroup
], ids=["order-3", "full", "trivial", "shared-value", "split-coset", "no-subgroup"])
def test_scan_finds_the_hidden_subgroup_exactly_on_the_promise(values, hnf):
    # both constructions, mult= and label_fn=, are one oracle kind
    for make in (_valued_oracle, _label_oracle):
        oracle = make(values, 4)
        assert oracle.hidden_known == (hnf is not None)
        if hnf is not None:
            assert oracle.hidden_subgroup().hnf.data == hnf
            res = solve_hsp_zmn(oracle, mode="deterministic")
            assert res.subgroup.hnf.data == hnf
            continue
        # off the promise "auto" runs the dense round, the reference
        for mode, seed in (("deterministic", None), ("seeded", 5)):
            auto, dense = (
                solve_hsp_zmn(make(values, 4), mode=mode, seed=seed, method=method)
                for method in ("auto", "dense")
            )
            assert auto.subgroup.hnf == dense.subgroup.hnf
            assert [t.to_dict() for t in auto.trace] == [t.to_dict() for t in dense.trace]
            assert auto.stats.to_dict() == dense.stats.to_dict()


def _hides(f, m, n):
    """Brute force: f hides its fiber H over f(0) exactly when f(x) = f(y)
    holds iff x - y lies in H (closure under addition follows).  Returns H
    as a set, or None."""
    xs = list(cartesian(range(m), repeat=n))
    fiber = {x for x in xs if f[x] == f[(0,) * n]}
    for x in xs:
        for y in xs:
            diff = tuple((a - b) % m for a, b in zip(x, y))
            if (f[x] == f[y]) != (diff in fiber):
                return None
    return fiber


@st.composite
def coset_maps(draw):
    """A coset map of a random subgroup of Z_m^n (m <= 6, n <= 2) with its
    values relabelled, and sometimes one value perturbed."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 2))
    rows = draw(st.sampled_from(enumerate_subgroup_hnfs(m, n)))
    rep = SubgroupRep(m, 1, n, IntMatrix.from_rows(rows))
    xs = list(cartesian(range(m), repeat=n))
    dim = m**n
    labels = draw(st.permutations(range(dim)))
    cosets = {}
    f = {x: labels[cosets.setdefault(coset_representative(rep, x), len(cosets))]
         for x in xs}
    if draw(st.booleans()):
        f[draw(st.sampled_from(xs))] = draw(st.integers(0, dim - 1))
    return m, n, dim, rep, f


@settings(max_examples=60, deadline=None)
@given(coset_maps(), st.booleans())
def test_scan_agrees_with_a_brute_force_hiding_check(inst, by_label):
    m, n, dim, rep, f = inst
    regs = [Register("v0", "digit", dim)]
    if by_label:
        oracle = HidingOracle(m, 1, n, regs, label_fn=lambda x: (f[tuple(x)],))
    else:
        oracle = HidingOracle(m, 1, n, regs,
                              mult=lambda x, v: ((v[0] + f[tuple(x)]) % dim,))
    hidden = _hides(f, m, n)
    assert oracle.hidden_known == (hidden is not None)
    assert verify_hidden(oracle, rep) == (hidden == set(enumerate_elements(rep)))
    if hidden is None:
        with pytest.raises(ValueError):
            oracle.hidden_subgroup()
    else:
        found = oracle.hidden_subgroup()
        assert set(enumerate_elements(found)) == hidden
        assert verify_hidden(oracle, found)


@pytest.mark.parametrize("backend_kind", ["exact", "float"])
def test_scan_reads_overlapping_values_by_their_exact_overlap(backend_kind):
    # |0> + |1> against |0> - |1>: the swapped pair states share their whole
    # support and are orthogonal, so the oracle hides the trivial subgroup
    oracle = _swap_oracle_of({0: 1, 1: 1}, {0: 1, 1: -1}, backend_kind)
    assert oracle.hidden_subgroup().hnf.data == ((2,),)
    # a mult that collides on the value block keeps the subgroup unknown, even
    # where the collided value is orthogonal to f(0)
    backend = make_backend(backend_kind, _root_order(2))
    layout = RegisterLayout([Register("v0", "digit", 4)])
    block = SparseState(layout, backend, 2, {(0,): backend.one, (1,): backend.one})
    collide = HidingOracle(2, 1, 1, layout.registers, prep=StatePrep(("v0",), block),
                           mult=lambda x, v: (2,) if x[0] else v)
    assert not collide.hidden_known


# ---------------------------------------------------------------------------
# Fourier sampling


def test_fourier_sample_full_group_concentrates():
    st = fourier_sample(build_coset_oracle(full_subgroup(6, 1, 2)))
    ys = {lbl[:2] for lbl in st.amps}
    assert ys == {(0, 0)}


def test_fourier_sample_trivial_group_spreads():
    st = fourier_sample(build_coset_oracle(trivial_subgroup(6, 1, 2)))
    ys = {lbl[:2] for lbl in st.amps}
    assert ys == set(cartesian(range(6), repeat=2))


def test_fourier_sample_support_is_the_complement():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    st = fourier_sample(build_coset_oracle(rep))
    ys = {lbl[:2] for lbl in st.amps}
    assert ys == set(enumerate_elements(perp_subgroup(rep)))


def test_fourier_sample_counts_queries():
    stats = QueryStats()
    oracle = build_coset_oracle(trivial_subgroup(3, 1, 2))
    fourier_sample(oracle, stats=stats)
    assert stats.f_calls == 1
    assert stats.qft_calls == 4


# ---------------------------------------------------------------------------
# Round flag and schedule


def test_round_flag_definition():
    # j = -1: only the upper-half rule fires
    assert round_flag(6, -1, 3, 0) == 1
    assert round_flag(6, -1, 2, 1) == 0
    # b gates the interval rule
    assert round_flag(6, 1, 2, 1) == 1
    assert round_flag(6, 1, 2, 0) == 0
    assert round_flag(6, 1, 0, 1) == 0
    # odd modulus upper-half threshold is fractional
    assert round_flag(9, -1, 5, 0) == 1
    assert round_flag(9, -1, 4, 0) == 0


def test_probe_schedule():
    assert probe_schedule(2) == [-1, 0]
    assert probe_schedule(5) == [-1, 0]
    assert probe_schedule(6) == [-1, 0, 1, 2]
    assert probe_schedule(12) == [-1, 0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Amplified rounds: exactness


def test_round_probe_inside_subgroup_never_pairs():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    oracle = build_coset_oracle(rep)
    backend = make_backend("exact", 12)
    probe = (2, 3)  # inside the hidden subgroup
    rng = random.Random(7)
    for method in ("dense", "reduced"):
        found, trace = hsp_round(
            oracle, probe, mode="seeded", rng=rng, backend=backend, method=method
        )
        assert found == []
        assert all(a.pairing == 0 for a in trace.attempts)


def test_round_simon_case_certain_at_minus_one():
    # two-valued modulus: the complement pairing is forced already at j=-1
    rep = subgroup_from_generators([(1, 1)], 2, 1, 2)
    oracle = build_coset_oracle(rep)
    backend = make_backend("exact", 4)
    state = amplified_round_state(oracle, (1, 0), -1, backend)
    flag_idx = len(state.layout) - 1
    assert all(lbl[flag_idx] == 1 for lbl in state.amps)
    # every supported sampler output pairs nonzero with the probe
    assert all((lbl[0] * 1 + lbl[1] * 0) % 2 == 1 for lbl in state.amps)


def test_round_witness_index_all_good_for_odd_ratio():
    # modulus 9 with pairing image generated by 3: the witness index is 2
    rep = subgroup_from_generators([(3,)], 9, 1, 1)
    oracle = build_coset_oracle(rep)
    backend = make_backend("exact", 36)
    # d = 3, m/d = 3 odd; at j = ceil(log2 3) = 2 the state is entirely good
    state = amplified_round_state(oracle, (1,), 2, backend)
    flag_idx = len(state.layout) - 1
    assert all(lbl[flag_idx] == 1 for lbl in state.amps)
    assert all(lbl[0] % 9 != 0 for lbl in state.amps)
    # at a non-witness index the support still contains bad labels
    state_bad = amplified_round_state(oracle, (1,), 0, backend)
    assert any(lbl[flag_idx] == 0 for lbl in state_bad.amps)


def literal_round_state(oracle, probe, j, backend, stats):
    """Reference for amplified_round_state: the whole pass run from |0>, which
    runs the sampling circuit once for the pass and once more to locate the
    reflection axis, with its queries counted on the pass's own circuit."""
    layout = sampling_layout(oracle, with_helpers=True)
    circ = amplitude_amplify(round_prep_circuit(oracle, probe, j), _flag_is_set)
    circ.count(stats)
    return circ.run(prepare_zero(layout, backend))


def assert_round_states_match(make_oracle, probe, backend, js):
    # every pass on one oracle (the later ones reuse its sampled state) against
    # the literal pass on a fresh oracle: same scale, amplitudes in the same
    # order, and the oracle's per-pass tally equal to each pass's query count
    oracle, ref_oracle = make_oracle(), make_oracle()
    stats, ref_stats = QueryStats(), QueryStats()
    for j in js:
        got = amplified_round_state(oracle, probe, j, backend)
        oracle.record_passes(stats, 1)
        want = literal_round_state(ref_oracle, probe, j, backend, ref_stats)
        assert got.layout == want.layout
        assert got.scale == want.scale
        assert list(got.amps.items()) == list(want.amps.items())
    assert stats.to_dict() == ref_stats.to_dict()


@st.composite
def small_round_instances(draw):
    """A random subgroup of Z_m^n with m <= 6, n <= 3 and m^n <= 36 (small
    enough for the literal pass), and a probe."""
    m, n = draw(st.sampled_from(
        [(m, n) for m in range(2, 7) for n in range(1, 4) if m**n <= 36]
    ))
    vec = st.tuples(*[st.integers(0, m - 1)] * n)
    return m, n, draw(st.lists(vec, max_size=2)), draw(vec)


@settings(max_examples=30, deadline=None)
@given(small_round_instances(), st.sampled_from(["exact", "float"]))
def test_round_state_matches_the_literal_pass(instance, backend_kind):
    m, n, gens, probe = instance
    rep = subgroup_from_generators(gens, m, 1, n)
    backend = make_backend(backend_kind, _root_order(m))
    assert_round_states_match(lambda: build_coset_oracle(rep), probe, backend,
                              probe_schedule(m))


@st.composite
def swap_pairs(draw):
    """Two unit-modulus states on one digit register, amplitudes powers of a
    root of unity of order 4 or 24 (whose float sums depend on their order)."""
    dim = draw(st.integers(2, 4))
    order = draw(st.sampled_from([4, 24]))

    def one_state():
        support = draw(st.sets(st.integers(0, dim - 1), min_size=1))
        return {v: draw(st.integers(0, order - 1)) for v in sorted(support)}

    return dim, order, one_state(), one_state()


@settings(max_examples=30, deadline=None)
@given(swap_pairs(), st.sampled_from(["exact", "float"]))
# float pairs whose overlap sums change their last bits when reordered
@example((2, 24, {0: 1, 1: 18}, {0: 21, 1: 5}), "float")
@example((3, 24, {0: 7, 1: 18, 2: 17}, {0: 4, 1: 11, 2: 19}), "float")
def test_swap_test_round_state_matches_the_literal_pass(pair, backend_kind):
    # the state-valued conditional-swap oracle of the swap test
    dim, order, amps1, amps2 = pair
    backend = make_backend(backend_kind, order)
    layout = RegisterLayout([Register("w", "digit", dim)])

    def state(amps):
        return SparseState(layout, backend, len(amps),
                           {(v,): backend.root(e) for v, e in amps.items()})

    s1, s2 = state(amps1), state(amps2)
    assert_round_states_match(lambda: _swap_oracle(s1, s2), (1,), backend,
                              probe_schedule(2))


def test_dense_solve_runs_the_sampling_transforms_once(monkeypatch):
    # the sampled state is computed once per oracle and backend: one QFT per
    # coordinate before the query and one after, for the whole solve
    calls = []
    real_qft = state_module.apply_qft

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real_qft(*args, **kwargs)

    monkeypatch.setattr(state_module, "apply_qft", counted)
    m, n = 6, 2
    rep = subgroup_from_generators([(2, 3)], m, 1, n)
    res = solve_hsp_zmn(build_coset_oracle(rep), mode="deterministic", method="dense")
    assert res.subgroup.hnf == rep.hnf
    assert res.stats.j_probes > 1
    assert calls == ["x0", "x1", "x0", "x1"]


def test_dense_passes_run_none_of_the_pass_steps(monkeypatch):
    # a dense pass is one sweep over the sampled state: the helper Hadamard,
    # the phase step and the reflection run only in the literal pass
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(state_module, "apply_hadamard",
                        spy("hadamard", state_module.apply_hadamard))
    monkeypatch.setattr(state_module, "conditional_phase_i",
                        spy("phase", state_module.conditional_phase_i))
    monkeypatch.setattr(state_module.ReflectStep, "apply",
                        spy("reflect", state_module.ReflectStep.apply))
    m, n = 6, 2
    rep = subgroup_from_generators([(2, 3)], m, 1, n)
    for backend in ("exact", "float"):
        res = solve_hsp_zmn(build_coset_oracle(rep), mode="deterministic",
                            backend=backend, method="dense")
        assert res.subgroup.hnf == rep.hnf
        assert res.stats.j_probes > 1
    assert calls == []
    literal_round_state(build_coset_oracle(rep), (1, 0), 0,
                        make_backend("exact", _root_order(m)), QueryStats())
    assert set(calls) == {"hadamard", "phase", "reflect"}


def test_dense_solves_never_call_measure_register(monkeypatch):
    # a dense pass is measured from its class sums, with or without a capture
    # hook; measure_register runs only on the materialized state
    calls = []
    real = state_module.measure_register

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(state_module, "measure_register", spy)
    m, n = 6, 2
    rep = subgroup_from_generators([(2, 3)], m, 1, n)
    for backend in ("exact", "float"):
        for mode, seed in (("deterministic", None), ("seeded", 5)):
            for capture in (None, lambda event, payload: None):
                res = solve_hsp_zmn(build_coset_oracle(rep), mode=mode, seed=seed,
                                    backend=backend, method="dense", capture=capture)
                assert res.subgroup.hnf == rep.hnf
    assert calls == []
    state = amplified_round_state(build_coset_oracle(rep), (1, 0), 0,
                                  make_backend("exact", _root_order(m)))
    measure_registers(state, ["x0", "x1"], mode="deterministic")
    assert calls == ["x0", "x1"]


@settings(max_examples=40, deadline=None)
@given(
    small_round_instances(),
    st.sampled_from(["exact", "float"]),
    st.sampled_from(["seeded", "deterministic"]),
    st.integers(0, 2**32),
)
def test_dense_measurement_matches_measuring_the_materialized_pass(
    instance, backend_kind, mode, seed
):
    # the class-sum measurement of every pass against measure_registers on
    # the pass's materialized state: the same outcome and the same RNG use
    m, n, gens, probe = instance
    rep = subgroup_from_generators(gens, m, 1, n)
    backend = make_backend(backend_kind, _root_order(m))
    oracle = build_coset_oracle(rep)
    registers = [f"x{i}" for i in range(n)]
    for j in probe_schedule(m):
        rng = random.Random(seed) if mode == "seeded" else None
        _found, trace = hsp_round(oracle, probe, mode=mode, rng=rng, backend=backend,
                                  method="dense", js=[j])
        ref_rng = random.Random(seed) if mode == "seeded" else None
        state = amplified_round_state(oracle, probe, j, backend)
        want, _collapsed = measure_registers(state, registers, mode=mode, rng=ref_rng)
        assert trace.attempts[0].x == want
        if rng is not None:
            assert rng.getstate() == ref_rng.getstate()


def test_dense_and_reduced_rounds_agree(rng):
    cases = [
        ((6, 2), [(2, 3)]),
        ((6, 2), []),
        ((4, 2), [(2, 0), (0, 2)]),
        ((9, 1), [(3,)]),
        ((8, 1), [(2,)]),
        ((5, 2), [(1, 2)]),
    ]
    for (m, n), gens in cases:
        rep = subgroup_from_generators(gens, m, 1, n)
        oracle = build_coset_oracle(rep)
        backend = make_backend("exact", _root_order(m))
        perp = perp_subgroup(rep)
        probes = [c for c in perp.hnf.columns() if any(v % m for v in c)]
        probes.append(tuple([1] + [0] * (n - 1)))
        for probe in probes:
            probe = tuple(v % m for v in probe)
            for j in probe_schedule(m):
                dense = amplified_round_state(oracle, probe, j, backend)
                dense_y = {lbl[:n] for lbl in dense.amps}
                captured = {}

                def grab(event, payload):
                    if payload["j"] == j:
                        captured.update(payload)

                hsp_round(
                    oracle,
                    probe,
                    mode="deterministic",
                    backend=backend,
                    method="reduced",
                    capture=grab,
                    js=[j],
                )
                sup_a = set(captured["support_a"])
                reduced_y = {
                    y
                    for y in enumerate_elements(perp)
                    if sum(p * v for p, v in zip(probe, y)) % m in sup_a
                }
                assert dense_y == reduced_y
                # weights: dense marginal must match the reduced class weights
                na = captured["na"]
                amp = captured["amp"]
                scale = captured["scale"]
                for y in reduced_y:
                    a = sum(p * v for p, v in zip(probe, y)) % m
                    w = (
                        backend.abs2(amp[(a, 0)]).rational_value()
                        + backend.abs2(amp[(a, 1)]).rational_value()
                    )
                    expected = Fraction(w, scale)
                    got = sum(
                        (
                            backend.abs2(dense.amps[lbl]).rational_value()
                            for lbl in dense.amps
                            if lbl[:n] == y
                        ),
                        start=Fraction(0),
                    ) / dense.scale
                    assert got == expected


@st.composite
def round_instances(draw):
    """A random subgroup of Z_m^n (m <= 12, n <= 3) by generators, and a probe."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, m - 1)] * n)
    return m, n, subgroup_from_generators(draw(st.lists(vec, max_size=3)), m, 1, n), draw(vec)


@st.composite
def wide_round_instances(draw):
    """m <= 200, n <= 3, a hidden subgroup H and a probe.  H is the
    complement of a subgroup P drawn by up to three generators, the last
    ones dropped until |P| <= 2000, so the reference's sorted list of P
    stays small while m, and with it the flag runs, grows."""
    m = draw(st.integers(2, 200))
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, m - 1)] * n)
    gens = draw(st.lists(vec, max_size=3))
    perp = subgroup_from_generators(gens, m, 1, n)
    while subgroup_order(perp) > 2000:
        gens.pop()
        perp = subgroup_from_generators(gens, m, 1, n)
    return m, n, perp_subgroup(perp), draw(vec)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(round_instances(), wide_round_instances()),
    st.sampled_from(["exact", "float"]),
    st.sampled_from(["seeded", "deterministic"]),
    st.integers(0, 2**32),
)
def test_reduced_round_matches_per_class_reference(instance, backend_kind, mode, seed):
    # the closed form (flag counts per run of classes, the threshold located
    # among the runs, the least flagged element by prefix search) against
    # the original per-pairing-class round at every threshold index: same
    # payloads, outputs, traces and RNG use, and the same outputs when
    # nothing captures the payloads
    m, n, rep, probe = instance
    backend = make_backend(backend_kind, _root_order(m))
    js = list(range(-1, m.bit_length()))

    def run(runner, capture=True):
        oracle = build_coset_oracle(rep)
        rng = random.Random(seed) if mode == "seeded" else None
        stats = QueryStats()
        payloads = []
        found, trace = runner(oracle, probe, js, mode, rng, backend, stats,
                              (lambda event, payload: payloads.append(payload))
                              if capture else None)
        state = rng.getstate() if rng is not None else None
        return found, trace.to_dict(), payloads, stats.to_dict(), state

    def closed_form(oracle, probe, js, mode, rng, backend, stats, capture):
        return hsp_round(oracle, probe, mode=mode, rng=rng, backend=backend,
                         method="reduced", stats=stats, capture=capture, js=js)

    got, want = run(closed_form), run(reference_reduced_round)
    assert [p["j"] for p in got[2]] == js
    assert got == want
    uncaptured = run(closed_form, capture=False)
    assert uncaptured[2] == []
    assert uncaptured[:2] + uncaptured[3:] == want[:2] + want[3:]


def test_drawn_class_is_the_walk_over_the_listed_classes():
    # integer and half-integer thresholds, through every run boundary and up
    # to the total itself, where the walk falls back to the last class
    for runs in (((1, 5), (3, 2), (0, 9), (2, 3)), ((1, 0), (3, 2), (2, 7), (2, 0)),
                 ((1, 4), (0, 2), (3, 0), (1, 1))):
        listed = [w for count, w in runs for _ in range(count)]
        support = [i for i, w in enumerate(listed) if w]
        total = sum(listed)
        for t in [x / 2 for x in range(2 * total + 1)] + list(range(total + 1)):
            want = support[_walk(t, [listed[i] for i in support])]
            assert _drawn_class(t, runs) == want


LARGE_M = [(1031, 1), (2**20, 1), (10**6 + 3, 1), (3**38, 1), (2**61 - 1, 1), (2**20, 2)]


@pytest.mark.parametrize("m,k", LARGE_M, ids=[f"m{m}-k{k}" for m, k in LARGE_M])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("mode", ["deterministic", "seeded"])
def test_planted_solve_at_large_m_is_fast(m, k, backend, mode):
    # a reduced round costs O(|js|) arithmetic plus lattice and pick work
    # polynomial in log m, and the exact backend builds no field; a round
    # linear in m takes tens of seconds at m = 2^20
    q = m**k
    rng = random.Random(m + k)
    cases = [
        [[rng.randrange(q) for _ in range(3)]],
        [[rng.randrange(q) for _ in range(3)] for _ in range(2)],
        [[2 * m ** (k - 1), 0, 4]],
    ]
    for gens in cases:
        rep = subgroup_from_generators(gens, m, k, 3)
        start = time.perf_counter()
        res = solve_hsp(build_coset_oracle(rep), mode=mode, seed=7, backend=backend)
        elapsed = time.perf_counter() - start
        assert res.subgroup.hnf == rep.hnf
        assert elapsed < 1.0, f"{gens}: {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Full solves


def test_solve_constant_function_returns_full_group():
    res = solve_hsp_zmn(
        build_coset_oracle(full_subgroup(6, 1, 2)), mode="deterministic"
    )
    assert res.subgroup.hnf == IntMatrix.identity(2)


def test_solve_injective_function_returns_trivial():
    res = solve_hsp_zmn(
        build_coset_oracle(trivial_subgroup(6, 1, 2)), mode="deterministic"
    )
    assert res.subgroup.hnf == IntMatrix.diagonal([6, 6])


def test_solve_simon_instance():
    rep = subgroup_from_generators([(1, 1)], 2, 1, 2)
    res = solve_hsp_zmn(build_coset_oracle(rep), mode="deterministic")
    assert res.subgroup.hnf.to_lists() == [[1, 0], [1, 2]]


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (5, 1), (6, 2), (9, 1)])
def test_solve_every_subgroup_small(m, n):
    for rows in enumerate_subgroup_hnfs(m, n):
        rep = rep_of([list(r) for r in rows], m)
        perp = perp_subgroup(rep)
        oracle = build_coset_oracle(rep)
        for mode, seed in (("deterministic", None), ("seeded", 1), ("seeded", 2)):
            res = solve_hsp_zmn(oracle, mode=mode, seed=seed)
            assert res.subgroup.hnf.data == rows
            # the solver's invariants, read off the trace: a round that found
            # nothing probed an element of H, and every attempt with a nonzero
            # pairing measured an element of perp(H)
            for t in res.trace:
                assert t.found or contains_element(rep, t.probe)
                for a in t.attempts:
                    assert a.pairing == 0 or contains_element(perp, a.x)


def test_solve_methods_agree_everywhere():
    for m, n in [(4, 2), (6, 2), (9, 1), (8, 2)]:
        for rows in enumerate_subgroup_hnfs(m, n):
            rep = rep_of([list(r) for r in rows], m)
            oracle = build_coset_oracle(rep)
            dense = solve_hsp_zmn(oracle, mode="deterministic", method="dense")
            reduced = solve_hsp_zmn(oracle, mode="deterministic", method="reduced")
            assert dense.subgroup.hnf == reduced.subgroup.hnf
            assert dense.subgroup.hnf.data == rows
            # identical deterministic traces, not just identical answers
            d = [(a.j, a.x, a.pairing) for t in dense.trace for a in t.attempts]
            r = [(a.j, a.x, a.pairing) for t in reduced.trace for a in t.attempts]
            assert d == r
            assert dense.stats.to_dict() == reduced.stats.to_dict()


def test_auto_runs_the_reduced_round_exactly_when_the_hidden_subgroup_is_known(
    monkeypatch,
):
    import hspsim.hsp as hsp_module

    dense_calls = []
    real_dense = hsp_module._dense_round

    def recording(oracle, *args):
        dense_calls.append(oracle)
        return real_dense(oracle, *args)

    monkeypatch.setattr(hsp_module, "_dense_round", recording)
    # small classical coset oracles, declared or found by the exact scan
    for m, n in [(2, 1), (2, 2), (3, 2), (4, 2)]:
        for rows in enumerate_subgroup_hnfs(m, n):
            rep = rep_of([list(r) for r in rows], m)
            declared = build_coset_oracle(rep)
            scanned = HidingOracle(m, 1, n, declared.value_registers,
                                   label_fn=lambda x, rep=rep: coset_representative(rep, x))
            for oracle in (declared, scanned):
                res = solve_hsp_zmn(oracle, mode="seeded", seed=1)
                assert res.subgroup.hnf.data == rows
    # state-valued swap oracles built without their hidden subgroup, on the
    # promise: the exact scan finds the subgroup
    for amps2, hnf in [({1: 1}, ((2,),)), ({0: 1}, ((1,),)), ({0: -1}, ((1,),))]:
        oracle = _swap_oracle_of({0: 1}, amps2)
        res = solve_hsp_zmn(oracle, mode="deterministic", backend=make_backend("exact", 4))
        assert res.subgroup.hnf.data == hnf
    assert dense_calls == []
    # off the promise the dense round runs
    overlapping = _overlapping_swap_oracle()
    solve_hsp_zmn(overlapping, mode="deterministic", backend=make_backend("exact", 4))
    assert dense_calls and all(o is overlapping for o in dense_calls)


def test_solve_seeded_reproducible():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    oracle = build_coset_oracle(rep)
    r1 = solve_hsp_zmn(oracle, mode="seeded", seed=99)
    r2 = solve_hsp_zmn(oracle, mode="seeded", seed=99)
    assert [t.to_dict() for t in r1.trace] == [t.to_dict() for t in r2.trace]


def test_query_accounting_matches_the_schedule():
    m, n = 6, 2
    rep = subgroup_from_generators([(2, 3)], m, 1, n)
    oracle = build_coset_oracle(rep)
    res = solve_hsp_zmn(oracle, mode="deterministic")
    stats = res.stats
    per_round = len(probe_schedule(m))
    assert stats.j_probes == stats.rounds * per_round
    assert stats.f_calls + stats.f_inverse_calls == 3 * stats.j_probes
    assert stats.qft_calls + stats.qft_inverse_calls == 6 * n * stats.j_probes


@pytest.mark.parametrize("m,k,n", [(6, 1, 3), (8, 1, 3), (12, 1, 3), (2, 2, 3), (3, 2, 2),
                                   (4, 2, 2)])
def test_reduced_solve_reads_no_label_table(m, k, n):
    # a coset oracle declares its subgroup, and the composed oracles of a
    # k >= 2 solve declare its preimage, so a reduced solve evaluates no f at
    # any k; the same label function behind an oracle that does not declare
    # it (the subgroups then found by the exact scan) is the reference
    hnfs = enumerate_subgroup_hnfs(m, n, k)
    for rows in random.Random(m * 10 + k).sample(hnfs, 3):
        rep = SubgroupRep(m, k, n, IntMatrix.from_rows(rows))
        for mode, seed in (("deterministic", None), ("seeded", 11)):
            declared = build_coset_oracle(rep)
            mult, calls = declared.mult, []
            declared.mult = lambda x, v: calls.append(x) or mult(x, v)
            scanned = HidingOracle(m, k, n, declared.value_registers,
                                   label_fn=lambda x: coset_representative(rep, x))
            solve = solve_hsp_zmn if k == 1 else solve_hsp
            runs = []
            for oracle in (declared, scanned):
                res = solve(oracle, mode=mode, seed=seed, method="reduced")
                runs.append((res.subgroup.hnf, [t.to_dict() for t in res.trace],
                             res.stats.to_dict()))
            assert runs[0] == runs[1]
            assert runs[0][0].data == rows
            assert calls == []


def planted_subgroup(m, k, n, rng):
    """A random subgroup of Z_{m^k}^n: up to n generators, each a random
    vector times a random divisor of m^k."""
    q = m**k
    divs = [d for d in range(1, q + 1) if q % d == 0]
    gens = [[rng.choice(divs) * rng.randrange(q) % q for _ in range(n)]
            for _ in range(rng.randint(1, n))]
    return subgroup_from_generators(gens, m, k, n)


@pytest.mark.parametrize("m,k,n", [(6, 1, 4), (12, 1, 5), (10, 1, 6), (7, 1, 7), (9, 1, 8),
                                   (8, 1, 9), (12, 1, 10), (6, 1, 11), (30, 1, 12),
                                   (11, 1, 12), (6, 2, 8), (4, 2, 10)])
def test_reduced_solves_scale_polynomially(m, k, n):
    # no reduced solve enumerates a subgroup or reads a label table, so
    # planted subgroups of groups with up to 5 * 10^17 elements solve in
    # well under a second; exponent-1 solves keep the criterion-4 bounds
    rep = planted_subgroup(m, k, n, random.Random(f"{m}/{k}/{n}"))
    solve = solve_hsp_zmn if k == 1 else solve_hsp
    for mode, seed in (("deterministic", None), ("seeded", 5)):
        start = time.perf_counter()
        res = solve(build_coset_oracle(rep), mode=mode, seed=seed, method="reduced")
        assert time.perf_counter() - start < 1.0
        assert res.subgroup.hnf == rep.hnf
        if k > 1:
            continue
        stats = res.stats
        jcount = 2 if is_prime(m) else m.bit_length() + 1
        assert stats.f_calls + stats.f_inverse_calls <= 3 * jcount * stats.rounds
        assert stats.rounds <= math.ceil(n * math.log2(m)) + 1
        if is_prime(m):
            assert stats.rounds <= n + 1
            assert stats.j_probes <= 2 * stats.rounds


def test_float_backend_solves_match_exact():
    for m, n, gens in [(2, 2, [(1, 1)]), (3, 2, [(1, 2)]), (6, 1, [(2,)])]:
        rep = subgroup_from_generators(gens, m, 1, n)
        oracle = build_coset_oracle(rep)
        ex = solve_hsp_zmn(oracle, mode="deterministic", backend="exact", method="dense")
        fl = solve_hsp_zmn(oracle, mode="deterministic", backend="float", method="dense")
        assert ex.subgroup.hnf == fl.subgroup.hnf


# ---------------------------------------------------------------------------
# Exponent-k reduction


def test_solve_k1_delegates():
    rep = subgroup_from_generators([(2, 3)], 6, 1, 2)
    res = solve_hsp(build_coset_oracle(rep), mode="deterministic")
    assert res.subgroup.hnf == rep.hnf


def test_solve_k2_example_mod4():
    rep = subgroup_from_generators([(2,)], 2, 2, 1)
    res = solve_hsp(build_coset_oracle(rep), mode="deterministic")
    assert res.subgroup.hnf.to_lists() == [[2]]
    assert res.stats.reduction_rounds <= 2


def test_solve_k2_example_mod9():
    rep = subgroup_from_generators([(3, 0), (0, 1)], 3, 2, 2)
    res = solve_hsp(build_coset_oracle(rep), mode="deterministic")
    assert res.subgroup.hnf == rep.hnf


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (6, 1)])
def test_solve_k2_every_subgroup(m, n):
    for rows in enumerate_subgroup_hnfs(m, n, k=2):
        rep = SubgroupRep(m, 2, n, IntMatrix.from_rows(rows))
        oracle = build_coset_oracle(rep)
        for mode, seed in (("deterministic", None), ("seeded", 5)):
            res = solve_hsp(oracle, mode=mode, seed=seed)
            assert res.subgroup.hnf.data == rows
            assert res.stats.reduction_rounds <= 2
            assert res.stats.reduction_solves <= 3


def test_is_prime():
    assert [p for p in range(14) if is_prime(p)] == [2, 3, 5, 7, 11, 13]


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)
    ]


def test_is_prime_on_large_moduli():
    assert is_prime(2**61 - 1)
    # a strong pseudoprime to every prime base up to 23
    assert not is_prime(3825123056546413051)
    assert not is_prime(149491 * 747451)
    assert not is_prime((2**31 - 1) ** 2)


def test_is_prime_above_its_exact_range_is_a_resource_limit():
    # Miller-Rabin over the first 13 prime bases is exact below
    # 3317044064679887385961981; above it only small factors are decided
    assert not is_prime(2**100)
    assert not is_prime(3 * (2**89 - 1))
    with pytest.raises(ResourceLimitError):
        is_prime(2**89 - 1)


def test_witness_divisor_recorded_with_known_hidden():
    # the witness divisor of a round is the d with probe . perp(H) = d * Z_m,
    # computed from each traced probe
    rep = subgroup_from_generators([(3,)], 9, 1, 1)
    res = solve_hsp_zmn(build_coset_oracle(rep), mode="deterministic")
    perp = perp_subgroup(rep)
    divisors = [pairing_fibers(perp, t.probe)[0] for t in res.trace]
    assert 3 in divisors  # pairing image is generated by three
    assert res.subgroup.hnf == rep.hnf


def test_reduction_solve_count_edge_case():
    # after two enlarging rounds the subgroup is complete, but confirming that
    # the divide-by-m lift adds nothing costs one more sub-solve
    rep = subgroup_from_generators([(1, 0), (0, 2)], 2, 2, 2)
    res = solve_hsp(build_coset_oracle(rep), mode="deterministic")
    assert res.subgroup.hnf == rep.hnf
    assert res.stats.reduction_rounds == 2
    assert res.stats.reduction_solves == 3


@pytest.mark.parametrize("m", [15, 16, 18, 20])
def test_solver_outside_the_acceptance_grid(m):
    # moduli beyond the sweep grid, random subgroups, brute-force expected
    rng = random.Random(m)
    cat = enumerate_subgroup_hnfs(m, 2)
    for rows in rng.sample(cat, 12):
        rep = SubgroupRep(m, 1, 2, IntMatrix.from_rows(rows))
        oracle = build_coset_oracle(rep)
        for mode, seed in (("deterministic", None), ("seeded", 3)):
            res = solve_hsp_zmn(oracle, mode=mode, seed=seed, method="reduced")
            assert res.subgroup.hnf.data == rows


def test_solver_ignores_value_relabelings(rng):
    # hiding is about the fiber structure, not the value encoding: scrambling
    # the value labels must not change the recovered subgroup
    from hspsim.state import Register

    for m, n in [(6, 2), (8, 2), (9, 2)]:
        for rows in rng.sample(enumerate_subgroup_hnfs(m, n), 6):
            rep = SubgroupRep(m, 1, n, IntMatrix.from_rows(rows))
            table = label_table(build_coset_oracle(rep))
            values = sorted(set(table.values()))
            shuffled = list(range(len(values)))
            rng.shuffle(shuffled)
            relabel = {v: shuffled[i] for i, v in enumerate(values)}
            oracle = HidingOracle(
                m,
                1,
                n,
                [Register("v0", "digit", len(values))],
                label_fn=lambda x, t=table, r=relabel: (r[t[tuple(x)]],),
            )
            for method in ("dense", "reduced"):
                res = solve_hsp_zmn(oracle, mode="deterministic", method=method)
                assert res.subgroup.hnf.data == rows, (m, n, rows, method)
