import pytest
from hypothesis import given, settings, strategies as st

from hspsim import blackbox
from hspsim import hsp as hsp_module
from hspsim import state as state_module
from hspsim.blackbox import (
    BadOrder,
    BlackboxContext,
    NotSolvable,
    PolycyclicSeries,
    PromiseError,
    abelian_factor_decomposition,
    abelian_presentation,
    build_group_superposition,
    build_polycyclic_series,
    commutator_subgroup,
    derived_series,
    exact_swap_test,
    extend_superposition,
    group_order,
    left_multiplied,
    order_modulo,
    solve_hsp_zmn,
    superposition_membership,
    _swap_oracle,
)
from hspsim.groups import TableBackend, UnitsBackend
from hspsim.hsp import QueryStats, solve_hsp
from hspsim.state import (
    Register,
    RegisterLayout,
    SparseState,
    conditional_phase_i,
    prepare_basis,
    states_equal,
)

from conftest import (
    ZOO,
    backend_elements,
    brute_abelian_invariants,
    brute_derived_chain,
    closure,
    make_a5,
    make_d4,
    make_heisenberg3,
    make_s3,
    make_units15,
    make_z6xz4,
    make_z7_table,
)


def ctx_for(make):
    backend, m = make()
    return backend, m, BlackboxContext(backend, m)


def uniform_state(ctx, codes):
    layout = ctx.identity_state().layout
    amps = {(c,): ctx.q.one for c in codes}
    return SparseState(layout, ctx.q, len(codes), amps)


# ---------------------------------------------------------------------------
# Swap test


def test_swap_equal_states():
    backend, m, ctx = ctx_for(make_s3)
    st = ctx.identity_state()
    assert exact_swap_test(st, st, ctx) == 1


def test_swap_orthogonal_basis_states():
    backend, m, ctx = ctx_for(make_s3)
    a = ctx.identity_state()
    b = prepare_basis(a.layout, ctx.q, (backend.generators[0],))
    assert exact_swap_test(a, b, ctx) == 0


def test_swap_equal_up_to_phase():
    backend, m, ctx = ctx_for(make_s3)
    st = ctx.identity_state()
    phased = conditional_phase_i(st, lambda l: True)
    assert exact_swap_test(st, phased, ctx) == 1


def test_swap_on_superpositions():
    backend, m, ctx = ctx_for(make_s3)
    elements, identity = backend_elements(backend)
    sub = closure(backend.mul, [backend.generators[1]], identity)  # the 3-cycle part
    k_state = uniform_state(ctx, sub)
    shifted = left_multiplied(k_state, backend.generators[0], ctx)
    assert exact_swap_test(k_state, k_state, ctx) == 1
    assert exact_swap_test(k_state, shifted, ctx) == 0


def test_swap_promise_violation_detected():
    backend, m, ctx = ctx_for(make_s3)
    a = ctx.identity_state()
    both = uniform_state(ctx, [ctx.arith.identity(), backend.generators[0]])
    with pytest.raises(PromiseError):
        exact_swap_test(a, both, ctx, check_promise=True)
    # without the check the run completes (outcome is unspecified by contract)
    exact_swap_test(a, both, ctx)


def swap_test_with_solve(s1, s2, ctx):
    """exact_swap_test's answer with the solve it ran: HNF, trace and query
    counts."""
    solves = []

    def recording(oracle, **kwargs):
        res = real_solve(oracle, **kwargs)
        solves.append(res)
        return res

    real_solve = blackbox.solve_hsp_zmn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blackbox, "solve_hsp_zmn", recording)
        answer = exact_swap_test(s1, s2, ctx)
    [res] = solves
    return _solve_record(answer, res)


def dense_swap_test(s1, s2, ctx):
    """The swap test as a dense-round solve of its conditional-swap oracle."""
    oracle = _swap_oracle(s1, s2)
    res = solve_hsp_zmn(oracle, mode=ctx.mode, rng=ctx.rng, backend=ctx.q,
                        method="dense", stats=QueryStats())
    return _solve_record(1 if res.subgroup.hnf.data[0][0] == 1 else 0, res)


def _solve_record(answer, res):
    return (answer, res.subgroup.hnf, [t.to_dict() for t in res.trace],
            res.stats.to_dict())


def assert_swap_test_matches_dense(make_ctx, make_pair, expected):
    """exact_swap_test against the dense solve, each on a fresh context: the
    answer always, and in deterministic mode the HNF, trace and query counts
    as well."""
    ctx = make_ctx()
    got = swap_test_with_solve(*make_pair(ctx), ctx)
    ctx = make_ctx()
    want = dense_swap_test(*make_pair(ctx), ctx)
    assert got[0] == want[0] == expected
    if ctx.mode == "deterministic":
        assert got == want


@st.composite
def promise_pairs(draw):
    """Two states on one digit register, amplitudes powers of i, that keep the
    swap test's promise: equal up to a power of i, orthogonal with disjoint
    supports, or orthogonal on the first state's support with half its signs
    flipped.  Returned as (dim, first, second, whether they are equal)."""
    dim = draw(st.integers(2, 4))
    support = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    first = {v: draw(st.integers(0, 3)) for v in support}
    kind = draw(st.sampled_from(["equal", "disjoint", "flipped"]))
    if kind == "disjoint" and len(support) == dim:
        kind = "flipped"
    if kind == "flipped" and len(support) == 1:
        kind = "disjoint"
    if kind == "equal":
        turn = draw(st.integers(0, 3))
        second = {v: (e + turn) % 4 for v, e in first.items()}
    elif kind == "disjoint":
        rest = [v for v in range(dim) if v not in first]
        second = {v: draw(st.integers(0, 3))
                  for v in sorted(draw(st.sets(st.sampled_from(rest), min_size=1)))}
    else:
        keep = support[: len(support) // 2 * 2]
        flipped = set(draw(st.permutations(keep))[: len(keep) // 2])
        second = {v: (first[v] + 2 * (v in flipped)) % 4 for v in keep}
    return dim, first, second, kind == "equal"


@settings(max_examples=40, deadline=None)
@given(
    promise_pairs(),
    st.sampled_from(["exact", "float"]),
    st.sampled_from(["deterministic", "seeded"]),
    st.integers(0, 2**32),
)
def test_swap_test_on_the_promise_matches_the_dense_solve(pair, amp_backend, mode, seed):
    dim, first, second, equal = pair
    backend, m = make_s3()

    def make_ctx():
        return BlackboxContext(backend, m, amp_backend=amp_backend, mode=mode, seed=seed)

    def make_pair(ctx):
        layout = RegisterLayout([Register("w", "digit", dim)])
        quarter = ctx.q.root_order // 4

        def state(turns):
            amps = {(v,): ctx.q.root(quarter * e) for v, e in turns.items()}
            return SparseState(layout, ctx.q, len(amps), amps)

        return state(first), state(second)

    assert_swap_test_matches_dense(make_ctx, make_pair, int(equal))


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.parametrize("amp_backend", ["exact", "float"])
def test_swap_test_on_zoo_translates_matches_the_dense_solve(name, amp_backend):
    # K = <g> for the first generator g, against its left translates by a
    # member and by a non-member of K
    backend, m = ZOO[name][0]()
    elements, identity = backend_elements(backend)
    sub = closure(backend.mul, backend.generators[:1], identity)
    outside = sorted(elements - sub)

    def make_ctx():
        return BlackboxContext(backend, m, amp_backend=amp_backend)

    for u in [max(sub)] + outside[:1]:

        def make_pair(ctx):
            k_state = uniform_state(ctx, sub)
            return k_state, left_multiplied(k_state, u, ctx)

        assert_swap_test_matches_dense(make_ctx, make_pair, int(u in sub))


def test_swap_test_on_the_promise_runs_no_transform(monkeypatch):
    # the overlap decides the hidden subgroup, so no QFT is simulated; the
    # query counts still charge the circuit's transforms
    calls = []
    real_qft = state_module.apply_qft

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real_qft(*args, **kwargs)

    monkeypatch.setattr(state_module, "apply_qft", counted)
    backend, m, ctx = ctx_for(make_s3)
    elements, identity = backend_elements(backend)
    sub = closure(backend.mul, [backend.generators[1]], identity)
    k_state = uniform_state(ctx, sub)
    assert exact_swap_test(k_state, k_state, ctx) == 1
    assert exact_swap_test(k_state, left_multiplied(k_state, backend.generators[0], ctx), ctx) == 0
    assert ctx.stats.qft_calls > 0
    assert calls == []
    # off the promise the dense round still runs
    exact_swap_test(ctx.identity_state(), uniform_state(ctx, sorted(sub)), ctx)
    assert calls


def test_swap_deterministic_across_seeds():
    backend, m, _ = ctx_for(make_s3)
    results = set()
    for seed in range(4):
        ctx = BlackboxContext(backend, m, mode="seeded", seed=seed)
        st = ctx.identity_state()
        other = prepare_basis(st.layout, ctx.q, (backend.generators[1],))
        results.add(
            (exact_swap_test(st, st, ctx), exact_swap_test(st, other, ctx))
        )
    assert results == {(1, 0)}


# ---------------------------------------------------------------------------
# Membership


def test_membership_identity_always_true():
    backend, m, ctx = ctx_for(make_s3)
    assert superposition_membership(ctx.arith.identity(), ctx.identity_state(), ctx)


def test_membership_alternating_subgroup():
    backend, m, ctx = ctx_for(make_s3)
    elements, identity = backend_elements(backend)
    three_cycle = backend.encode((1, 2, 0))
    transposition = backend.encode((1, 0, 2))
    a3 = closure(backend.mul, [three_cycle], identity)
    k_state = uniform_state(ctx, a3)
    assert superposition_membership(three_cycle, k_state, ctx)
    assert not superposition_membership(transposition, k_state, ctx)


def test_membership_matches_enumeration_everywhere():
    backend, m, ctx = ctx_for(make_d4)
    elements, identity = backend_elements(backend)
    r = backend.generators[0]
    rot = closure(backend.mul, [r], identity)
    k_state = uniform_state(ctx, rot)
    for u in sorted(elements):
        assert superposition_membership(u, k_state, ctx) == (u in rot)


# ---------------------------------------------------------------------------
# Presentations


def test_presentation_cyclic_order_six():
    backend = UnitsBackend(7, [3])  # 3 has order 6 mod 7
    ctx = BlackboxContext(backend, 6)
    pres = abelian_presentation([3], ctx.identity_state(), ctx)
    assert pres.relations.to_lists() == [[6]]
    assert pres.decomposition.factors == (6,)


def test_presentation_discrete_log():
    # generator 2 of the units mod 13 (order 12); the first input is 2^5
    backend = UnitsBackend(13, [6, 2])
    ctx = BlackboxContext(backend, 12)
    pres = abelian_presentation([6, 2], ctx.identity_state(), ctx)
    assert pres.relations.to_lists() == [[1, 0], [7, 12]]


def test_presentation_units15():
    backend, m = make_units15()
    ctx = BlackboxContext(backend, m)
    pres = abelian_presentation([2, 14], ctx.identity_state(), ctx)
    assert pres.decomposition.factors == (2, 4)
    assert pres.k == 2  # the order of 2 is 4 = 2^2


def test_presentation_modulo_subgroup():
    backend, m, ctx = ctx_for(make_s3)
    elements, identity = backend_elements(backend)
    a3 = closure(backend.mul, [backend.encode((1, 2, 0))], identity)
    k_state = uniform_state(ctx, a3)
    t = backend.encode((1, 0, 2))
    pres = abelian_presentation([t], k_state, ctx)
    assert pres.relations.to_lists() == [[2]]
    assert order_modulo(t, k_state, ctx) == 2
    assert order_modulo(backend.encode((1, 2, 0)), k_state, ctx) == 1


def test_presentation_rejects_bad_order():
    backend, _ = make_s3()
    ctx = BlackboxContext(backend, 2)
    from hspsim.groups import BadOrderError

    with pytest.raises(BadOrderError):
        abelian_presentation([backend.encode((1, 2, 0))], ctx.identity_state(), ctx)


# ---------------------------------------------------------------------------
# Superposition extension (the pyramid step)


def test_extend_trivial_to_cyclic():
    backend, m, ctx = ctx_for(make_s3)
    u = backend.encode((1, 2, 0))
    copies = [ctx.identity_state(), ctx.identity_state()]
    outs, garbage, ys = extend_superposition(copies, u, ctx)
    assert len(outs) == 1
    elements, identity = backend_elements(backend)
    expected = closure(backend.mul, [u], identity)
    assert {lbl[0] for lbl in outs[0].amps} == expected
    assert states_equal(outs[0], uniform_state(ctx, expected))


def test_extend_with_element_already_inside():
    backend, m, ctx = ctx_for(make_s3)
    u = backend.encode((1, 2, 0))
    elements, identity = backend_elements(backend)
    sub = closure(backend.mul, [u], identity)
    base = uniform_state(ctx, sub)
    outs, garbage, ys = extend_superposition([base, base, base], u, ctx)
    for out in outs:
        assert states_equal(out, base)


def test_extend_d4_center_by_rotation():
    backend, m, ctx = ctx_for(make_d4)
    r = backend.generators[0]
    r2 = backend.mul(r, r)
    elements, identity = backend_elements(backend)
    center = closure(backend.mul, [r2], identity)
    base = uniform_state(ctx, center)
    outs, garbage, ys = extend_superposition([base, base], r, ctx)
    rotations = closure(backend.mul, [r], identity)
    assert states_equal(outs[0], uniform_state(ctx, rotations))
    assert len(rotations) == 4


@pytest.mark.parametrize("coherent", [False, True])
@pytest.mark.parametrize("group, gen", [("D4", 0), ("Q8", 0), ("Q8", 1), ("U15", 0)])
def test_extension_off_its_precondition_names_it(group, gen, coherent):
    # each generator has order 4 with m = 2, so u^m is outside the trivial
    # subgroup; seeded at seed 0 the amplitudes then fail to factor
    backend, m = ZOO[group][0]()
    ctx = BlackboxContext(backend, m, mode="seeded", seed=0)
    copies = [ctx.identity_state(), ctx.identity_state()]
    with pytest.raises(PromiseError, match=r"u\^m must lie in N"):
        extend_superposition(copies, backend.generators[gen], ctx, coherent=coherent)


@pytest.mark.parametrize("s", [2, 3])
def test_hybrid_and_coherent_extension_agree(s):
    cases = []
    backend, m, _ = ctx_for(make_d4)
    r = backend.generators[0]
    r2 = backend.mul(r, r)
    cases.append((backend, m, [r2], r))  # center extended by the rotation
    t_backend = TableBackend([[(i + j) % 4 for j in range(4)] for i in range(4)], [1])
    cases.append((t_backend, 2, [2], 1))  # <2> inside the four-cycle
    if s == 2:
        # every zoo group: the trivial subgroup extended by each generator,
        # raised to the power m^(e-1) of order dividing m when its order is
        # m^e, as one extension step needs u^m in the subgroup
        for make, _order in ZOO.values():
            backend, m = make()
            arith = BlackboxContext(backend, m).arith
            for g in backend.generators:
                e = max(arith.order_m_exponent(g), 1)
                cases.append((backend, m, [], arith.power(g, m ** (e - 1))))
    # each copy is Fourier-sampled once: one query between two transforms
    sampled = QueryStats(f_calls=s, qft_calls=2 * s).to_dict()
    for backend, m, sub_gens, u in cases:
        elements, identity = backend_elements(backend)
        sub = closure(backend.mul, sub_gens, identity) if sub_gens else {identity}
        for seed in (0, 1, 2):
            ctx = BlackboxContext(backend, m, mode="seeded", seed=seed)
            base = uniform_state(ctx, sub)
            outs, _, _ = extend_superposition([base] * s, u, ctx)
            ctx2 = BlackboxContext(backend, m)
            base2 = uniform_state(ctx2, sub)
            couts, _, _ = extend_superposition([base2] * s, u, ctx2, coherent=True)
            assert ctx.stats.to_dict() == ctx2.stats.to_dict() == sampled
            assert len(outs) == len(couts) == s - 1
            for a, b in zip(outs, couts):
                assert states_equal(a, b, up_to_phase=True)
                assert states_equal(a, b)  # both are positive uniform states


# ---------------------------------------------------------------------------
# Series construction and the group pyramid


def test_series_trivial_group():
    backend = TableBackend([[0]], [])
    ctx = BlackboxContext(backend, 2)
    series = build_polycyclic_series(backend, 2, ctx)
    assert isinstance(series, PolycyclicSeries)
    assert series.elements == []
    sup = build_group_superposition(series, ctx)
    assert sup.state.support() == [(0,)]


def test_series_units15():
    backend, m = make_units15()
    ctx = BlackboxContext(backend, m)
    series = build_polycyclic_series(backend, m, ctx)
    assert isinstance(series, PolycyclicSeries)
    assert series.factor_orders == [2, 2, 2]
    assert group_order(series, ctx) == 8


def test_series_s3():
    backend, m = make_s3()
    ctx = BlackboxContext(backend, m)
    series = build_polycyclic_series(backend, m, ctx)
    assert isinstance(series, PolycyclicSeries)
    assert series.factor_orders == [3, 2]
    assert group_order(series, ctx) == 6


def test_series_not_solvable_a5():
    backend, m = make_a5()
    result = build_polycyclic_series(backend, m)
    assert isinstance(result, NotSolvable)
    assert result.replacements > backend.l_bits


def test_series_bad_order():
    backend, m = make_z7_table()
    result = build_polycyclic_series(backend, m)
    assert isinstance(result, BadOrder)


def test_group_superposition_z4():
    backend = TableBackend([[(i + j) % 4 for j in range(4)] for i in range(4)], [1])
    ctx = BlackboxContext(backend, 2)
    series = PolycyclicSeries([2, 1], [2, 2])
    sup = build_group_superposition(series, ctx)
    st = sup.state
    assert sorted(lbl[0] for lbl in st.amps) == [0, 1, 2, 3]
    amps = set(st.amps.values())
    assert len(amps) == 1
    (a,) = amps
    # amplitudes are exactly one half: |a|^2 * 4 == scale
    assert (ctx.q.abs2(a) * 4).rational_value() == st.scale


def test_group_superposition_s3_uniform():
    backend, m = make_s3()
    ctx = BlackboxContext(backend, m)
    series = build_polycyclic_series(backend, m, ctx)
    sup = build_group_superposition(series, ctx)
    elements, _ = backend_elements(backend)
    assert {lbl[0] for lbl in sup.state.amps} == elements
    vals = set(sup.state.amps.values())
    assert len(vals) == 1


# ---------------------------------------------------------------------------
# State-valued presentation oracles: the exact scan against the dense round


def _zoo_presentation_solves(amp_backend):
    """Series, order, derived series and decomposition modulo the derived
    subgroup on every zoo group, deterministic, with the abelian presentations'
    solves and every dense round recorded.  Returns (the state-valued
    word-coset oracles solved, with their contexts; the oracles the dense
    round ran on).  A word-coset oracle is the state-valued one on the
    "val" register; the swap test's oracle holds two registers."""
    solved, dense_oracles = [], []
    real_solve, real_dense = blackbox.solve_hsp, hsp_module._dense_round

    def recording_solve(oracle, **kwargs):
        solved.append((oracle, kwargs["backend"]))
        return real_solve(oracle, **kwargs)

    def recording_dense(oracle, *args):
        dense_oracles.append(oracle)
        return real_dense(oracle, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blackbox, "solve_hsp", recording_solve)
        mp.setattr(hsp_module, "_dense_round", recording_dense)
        for name in sorted(ZOO):
            make, expected = ZOO[name]
            backend, m = make()
            ctx = BlackboxContext(backend, m, amp_backend=amp_backend)
            series = build_polycyclic_series(backend, m, ctx)
            assert group_order(series, ctx) == expected, name
            chain = derived_series(backend, m, ctx)
            abelian_factor_decomposition(backend, chain[1], m, ctx)
    word_coset = [
        (o, q) for o, q in solved
        if o.prep is not None and [r.name for r in o.value_registers] == ["val"]
    ]
    return word_coset, dense_oracles


@pytest.mark.parametrize("amp_backend", ["exact", "float"])
def test_zoo_presentations_run_no_dense_round(amp_backend):
    oracles, dense_oracles = _zoo_presentation_solves(amp_backend)
    assert oracles
    assert dense_oracles == []


@pytest.mark.parametrize("amp_backend", ["exact", "float"])
def test_zoo_presentation_oracles_match_the_dense_solve(amp_backend):
    # every word-coset oracle the zoo reaches, and at k >= 2 the section
    # compositions its solve builds, gives the dense solve's HNF, trace and
    # query counts
    oracles, _ = _zoo_presentation_solves(amp_backend)
    assert any(o.k >= 2 for o, _ in oracles)
    for oracle, q in oracles:
        got, want = (
            solve_hsp(oracle, mode="deterministic", backend=q, method=method)
            for method in ("auto", "dense")
        )
        assert got.subgroup.hnf == want.subgroup.hnf
        assert [t.to_dict() for t in got.trace] == [t.to_dict() for t in want.trace]
        assert got.stats.to_dict() == want.stats.to_dict()


# ---------------------------------------------------------------------------
# Orders, derived series, decompositions


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_orders(name):
    make, expected = ZOO[name]
    backend, m = make()
    ctx = BlackboxContext(backend, m)
    series = build_polycyclic_series(backend, m, ctx)
    assert isinstance(series, PolycyclicSeries), name
    assert group_order(series, ctx) == expected


def test_derived_series_abelian():
    backend, m = make_units15()
    chain = derived_series(backend, m)
    assert len(chain) == 2
    assert chain[1] == []


def test_derived_series_s3():
    backend, m = make_s3()
    ctx = BlackboxContext(backend, m)
    chain = derived_series(backend, m, ctx)
    elements, identity = backend_elements(backend)
    closures = [
        closure(backend.mul, gens, identity) if gens else {identity}
        for gens in chain
    ]
    expected = brute_derived_chain(backend.mul, elements, identity)
    assert closures == [set(c) for c in expected]


def test_derived_series_a4():
    make, _ = ZOO["A4"]
    backend, m = make()
    ctx = BlackboxContext(backend, m)
    chain = derived_series(backend, m, ctx)
    elements, identity = backend_elements(backend)
    closures = [
        closure(backend.mul, gens, identity) if gens else {identity}
        for gens in chain
    ]
    expected = brute_derived_chain(backend.mul, elements, identity)
    assert closures == [set(c) for c in expected]
    assert [len(c) for c in closures] == [12, 4, 1]


def test_derived_series_rejects_nonsolvable():
    backend, m = make_a5()
    with pytest.raises(PromiseError):
        derived_series(backend, m)


def test_abelian_factor_whole_group_is_trivial():
    backend, m = make_s3()
    ctx = BlackboxContext(backend, m)
    decomp = abelian_factor_decomposition(backend, backend.generators, m, ctx)
    assert decomp.factors == ()


def test_abelian_factor_d4_over_rotations():
    backend, m = make_d4()
    ctx = BlackboxContext(backend, m)
    decomp = abelian_factor_decomposition(backend, [backend.generators[0]], m, ctx)
    assert decomp.factors == (2,)


def test_abelian_factor_z6xz4():
    backend, m = make_z6xz4()
    ctx = BlackboxContext(backend, m)
    decomp = abelian_factor_decomposition(backend, [], m, ctx)
    assert decomp.factors == (2, 12)
    elements, identity = backend_elements(backend)
    assert brute_abelian_invariants(backend.mul, elements, identity) == [2, 12]


def test_commutator_subgroup_heisenberg():
    backend, m = make_heisenberg3()
    ctx = BlackboxContext(backend, m)
    series = build_polycyclic_series(backend, m, ctx)
    derived = commutator_subgroup(series, ctx)
    elements, identity = backend_elements(backend)
    got = closure(backend.mul, derived.elements, identity) if derived.elements else {identity}
    expected = set(
        brute_derived_chain(backend.mul, elements, identity)[1]
    )
    assert got == expected
    assert len(got) == 3


def test_not_solvable_certificate_across_seeds():
    backend, m = make_a5()
    for seed in (0, 1):
        ctx = BlackboxContext(backend, m, mode="seeded", seed=seed)
        result = build_polycyclic_series(backend, m, ctx)
        assert isinstance(result, NotSolvable)


def test_wide_pyramid_elementary_abelian():
    # order sixteen, series of length four: a five-copy-wide pyramid
    size = 16

    def add_mul(i, j):
        return i ^ j

    table = [[add_mul(i, j) for j in range(size)] for i in range(size)]
    backend = TableBackend(table, [1, 2, 4, 8])
    ctx = BlackboxContext(backend, 2)
    series = build_polycyclic_series(backend, 2, ctx)
    assert isinstance(series, PolycyclicSeries)
    assert sorted(series.factor_orders) == [2, 2, 2, 2]
    sup = build_group_superposition(series, ctx)
    assert {lbl[0] for lbl in sup.state.amps} == set(range(size))
    amps = set(sup.state.amps.values())
    assert len(amps) == 1
    (a,) = amps
    assert (ctx.q.abs2(a) * size).rational_value() == sup.state.scale
    assert group_order(series, ctx) == size


def test_presentations_of_random_unit_groups():
    # presentation layer vs counting-based invariants on assorted unit groups
    from math import gcd as _gcd

    from hspsim.groups import UnitsBackend

    for modulus, gens, m in [
        (9, [2], 6),
        (16, [3, 15], 4),
        (21, [2, 20], 6),
        (24, [5, 7, 13], 2),
        (33, [2, 32], 10),
    ]:
        backend = UnitsBackend(modulus, gens)
        elements, identity = backend_elements(backend)
        ctx = BlackboxContext(backend, m)
        pres = abelian_presentation(gens, ctx.identity_state(), ctx)
        expected = brute_abelian_invariants(backend.mul, elements, identity)
        assert list(pres.decomposition.factors) == expected, modulus
        assert pres.decomposition.group_order() == len(elements)


def test_every_series_level_state_is_uniform():
    from hspsim.blackbox import _series_state

    for name in sorted(ZOO):
        make, _ = ZOO[name]
        backend, m = make()
        ctx = BlackboxContext(backend, m)
        series = build_polycyclic_series(backend, m, ctx)
        assert isinstance(series, PolycyclicSeries), name
        _, identity = backend_elements(backend)
        for level in range(len(series.elements) + 1):
            st = _series_state(ctx, tuple(series.elements[:level]))
            expected = (
                closure(backend.mul, series.elements[:level], identity)
                if level
                else {identity}
            )
            assert {lbl[0] for lbl in st.amps} == expected, (name, level)
            amps = set(st.amps.values())
            assert len(amps) == 1, (name, level)
            (a,) = amps
            assert (ctx.q.abs2(a) * len(expected)).rational_value() == st.scale
