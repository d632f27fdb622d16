"""The four benchmark workloads.

A workload is an endless sequence of cycles.  Cycle c is a shuffled list of
items made from (workload, seed, c) alone, with a fixed mix of item kinds, so
every cycle stresses the layers in the same proportions and the same seed
always gives the same inputs.  An item is one public hspsim call that a user
waits for; its check compares the output with an answer from `reference`,
computed without hspsim.

Workloads receive the hspsim modules as a namespace and look functions up at
call time, so that the traced run sees the wrapped versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable

import reference as ref


@dataclass
class Item:
    label: str
    # run() -> (output, QueryStats or None); the output goes to check()
    run: Callable[[], tuple[Any, Any]]
    check: Callable[[Any], bool]
    backend: Any = None  # group backend whose mul_calls the item drives


def cycle_rng(name: str, seed: int, index) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{name}/{seed}/{index}")


class _PlantedSolves:
    """Items solving coset oracles of planted subgroups from a catalog."""

    name = ""
    method = ""

    def __init__(self, hs, seed: int):
        self.hs = hs
        self.seed = seed

    def solve_mode(self, rng):
        """One deterministic solve per six, as in the acceptance sweep (one
        deterministic run plus five seeds per subgroup)."""
        if rng.randrange(6) == 0:
            return "deterministic", None
        return "seeded", rng.randrange(1 << 30)

    def _item(self, m, k, n, rows, rng, capture) -> Item:
        lat, hsp = self.hs.lattice, self.hs.hsp
        rep = lat.SubgroupRep(m, k, n, lat.IntMatrix.from_rows(rows))
        mode, seed = self.solve_mode(rng)
        method = self.method

        def run():
            oracle = hsp.build_coset_oracle(rep)
            solve = hsp.solve_hsp_zmn if k == 1 else hsp.solve_hsp
            res = solve(oracle, mode=mode, seed=seed, method=method, capture=capture)
            return res, res.stats

        return Item(
            f"{self.name} m={m} k={k} n={n} {mode} seed={seed} rows={rows}",
            run,
            lambda res: res.subgroup.hnf.data == rows,
        )


class HspSweep(_PlantedSolves):
    """Reduced-round solves over a seeded sample of subgroups of Z_m^3 (the
    exhaustive acceptance sweep's costly cells) plus an exponent-2 slice."""

    name = "hsp-sweep"
    method = "reduced"
    EXP1_CELLS = [(m, 1, 3) for m in (6, 8, 9, 10, 12)]
    EXP2_CELLS = [(m, 2, n) for m in (2, 3, 4) for n in (2, 3)]
    PER_CELL = {1: 8, 2: 1}
    trace_cycles = 16

    def __init__(self, hs, seed: int):
        super().__init__(hs, seed)
        self.catalog = {
            cell: ref.subgroup_hnfs(cell[0], cell[2], cell[1])
            for cell in self.EXP1_CELLS + self.EXP2_CELLS
        }

    def cycle(self, index: int, capture=None) -> list[Item]:
        rng = cycle_rng(self.name, self.seed, index)
        items = []
        for (m, k, n), hnfs in self.catalog.items():
            for rows in rng.sample(hnfs, self.PER_CELL[k]):
                items.append(self._item(m, k, n, rows, rng, capture))
        rng.shuffle(items)
        return items


class DenseRounds(_PlantedSolves):
    """Deterministic dense-circuit solves over every subgroup of small cells,
    as in the dense cross-check.  Every cycle does the same work and the seed
    only orders it: seeded solves take a different number of rounds for each
    seed, which moved the median latency by a fifth from seed to seed.  Z_6^2
    is left out because its slowest solves take 0.5 s, and with it a run held
    only three or four cycles."""

    name = "dense-rounds"
    method = "dense"
    CELLS = [(4, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)]
    trace_cycles = 2

    def __init__(self, hs, seed: int):
        super().__init__(hs, seed)
        self.catalog = {cell: ref.subgroup_hnfs(cell[0], cell[2]) for cell in self.CELLS}

    def solve_mode(self, rng):
        return "deterministic", None

    def cycle(self, index: int, capture=None) -> list[Item]:
        rng = cycle_rng(self.name, self.seed, index)
        items = [
            self._item(m, k, n, rows, rng, capture)
            for (m, k, n), hnfs in self.catalog.items()
            for rows in hnfs
        ]
        rng.shuffle(items)
        return items


class GroupStructure:
    """Black-box structure queries on the solvable group zoo.  Each cycle
    draws a fresh generating set per group and, per group, runs the series
    with the group order, the derived series, the abelianization and several
    membership queries against seeded subgroups."""

    name = "group-structure"
    MEMBERSHIPS = 6
    trace_cycles = 1

    def __init__(self, hs, seed: int):
        self.hs = hs
        self.seed = seed
        self.zoo = ref.group_zoo()

    def _backend(self, group, gens):
        groups = self.hs.groups
        if group.kind == "permutation":
            perms = [ref.perm_decode(g, group.data) for g in gens]
            backend = groups.PermutationBackend(group.data, perms)
        elif group.kind == "table":
            backend = groups.TableBackend(group.data, gens)
        else:
            backend = groups.UnitsBackend(group.data, gens)
        if backend.generators != gens:
            raise RuntimeError(f"{group.name}: backend encodes elements differently")
        return backend

    def cycle(self, index: int, capture=None) -> list[Item]:
        rng = cycle_rng(self.name, self.seed, index)
        items = []
        for group in self.zoo:
            backend = self._backend(group, group.generating_set(rng))
            normal_gens = group.generating_set(rng, within=group.derived_chain[1])
            items += [
                self._series_order(group, backend),
                self._derived(group, backend),
                self._abelian(group, backend, normal_gens),
            ]
            for slot in range(self.MEMBERSHIPS):
                sub, u = self._membership_query(group, slot, rng)
                items.append(self._membership(group, backend, sub, u))
        rng.shuffle(items)
        return items

    def _membership_query(self, group, slot, rng):
        """Slot s asks about a seeded subgroup of a fixed order, spread from
        the trivial subgroup to the whole group, and alternates members with
        non-members, so every cycle has the same mix of query sizes."""
        orders = sorted({len(h) for h in group.subgroups})
        order = orders[round(slot * (len(orders) - 1) / (self.MEMBERSHIPS - 1))]
        sub = rng.choice([h for h in group.subgroups if len(h) == order])
        outside = [x for x in group.sorted_elements if x not in sub]
        pool = sorted(sub) if slot % 2 == 0 or not outside else outside
        return sub, rng.choice(pool)

    def _context(self, group, backend):
        return self.hs.blackbox.BlackboxContext(backend, group.m)

    def _series_order(self, group, backend) -> Item:
        bb = self.hs.blackbox
        ctx = self._context(group, backend)

        def run():
            series = bb.build_polycyclic_series(backend, group.m, ctx)
            return bb.group_order(series, ctx), ctx.stats

        return Item(
            f"{self.name} {group.name} series+order gens={backend.generators}",
            run,
            lambda order: order == len(group.elements),
            backend,
        )

    def _derived(self, group, backend) -> Item:
        bb = self.hs.blackbox
        ctx = self._context(group, backend)

        def run():
            return bb.derived_series(backend, group.m, ctx), ctx.stats

        def check(chain):
            return [group.closure_of(gens) for gens in chain] == group.derived_chain

        return Item(
            f"{self.name} {group.name} derived gens={backend.generators}",
            run,
            check,
            backend,
        )

    def _abelian(self, group, backend, normal_gens) -> Item:
        bb = self.hs.blackbox
        ctx = self._context(group, backend)

        def run():
            out = bb.abelian_factor_decomposition(backend, normal_gens, group.m, ctx)
            return out, ctx.stats

        def check(decomp):
            factors = list(decomp.factors)
            chain = all(f > 1 for f in factors) and all(
                b % a == 0 for a, b in zip(factors, factors[1:])
            )
            stats = ref.cyclic_product_order_stats(factors)
            return chain and stats == group.quotient_order_stats

        return Item(
            f"{self.name} {group.name} abelian gens={backend.generators} normal={normal_gens}",
            run,
            check,
            backend,
        )

    def _membership(self, group, backend, sub, u) -> Item:
        bb, st = self.hs.blackbox, self.hs.state
        ctx = self._context(group, backend)
        layout = st.RegisterLayout([ctx.group_register("val")])
        k_state = st.SparseState(layout, ctx.q, len(sub), {(c,): ctx.q.one for c in sub})
        expected = u in sub

        def run():
            return bb.superposition_membership(u, k_state, ctx), ctx.stats

        return Item(
            f"{self.name} {group.name} member u={u} |K|={len(sub)} gens={backend.generators}",
            run,
            lambda got: got == expected,
            backend,
        )


class LatticeToolkit:
    """Direct toolkit calls at n = 2..6: normal forms of unreduced integer
    matrices, subgroups from generators, complements, invariant factors, and
    gcd-preserving combinations."""

    name = "lattice-toolkit"
    DIMS = (2, 3, 4, 5, 6)
    PER_KIND = 2
    # (m, k) ambient groups for subgroup_from_generators
    AMBIENT = [(4, 1), (6, 1), (8, 1), (9, 1), (10, 1), (12, 1), (2, 2), (3, 2)]
    PERP_MODULI = (4, 6, 8, 9, 10, 12)
    ENTRY = 30
    trace_cycles = 300

    def __init__(self, hs, seed: int):
        self.hs = hs
        self.seed = seed
        self.kinds = [
            self._hnf,
            self._snf,
            self._subgroup,
            self._perp,
            self._invariant,
            self._combine,
        ]

    def cycle(self, index: int, capture=None) -> list[Item]:
        rng = cycle_rng(self.name, self.seed, index)
        items = [
            make(rng, n) for n in self.DIMS for make in self.kinds for _ in range(self.PER_KIND)
        ]
        rng.shuffle(items)
        return items

    def _matrix(self, rng, rows, cols):
        return tuple(
            tuple(rng.randint(-self.ENTRY, self.ENTRY) for _ in range(cols)) for _ in range(rows)
        )

    def _gens(self, rng, q, n):
        """Seeded generators, each a random vector times a random divisor of q,
        so the generated subgroups vary in size."""
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        return [
            tuple(rng.choice(divisors) * rng.randrange(q) % q for _ in range(n))
            for _ in range(rng.randint(1, n + 1))
        ]

    def _hnf(self, rng, n) -> Item:
        lat = self.hs.lattice
        a = self._matrix(rng, n, rng.choice((n, n + 1)))
        mat = lat.IntMatrix.from_rows(a)

        def check(out):
            h, u = out[0].data, out[1].data
            return ref.matmul(a, u) == h and ref.is_unimodular(u) and ref.is_column_hnf(h)

        return Item(
            f"{self.name} hnf {a}", lambda: (lat.hermite_normal_form(mat), None), check
        )

    def _snf(self, rng, n) -> Item:
        lat = self.hs.lattice
        a = self._matrix(rng, n, rng.choice((n, n + 1)))
        mat = lat.IntMatrix.from_rows(a)

        def check(out):
            s, left, right = (x.data for x in out)
            return (
                ref.matmul(ref.matmul(left, a), right) == s
                and ref.is_unimodular(left)
                and ref.is_unimodular(right)
                and ref.is_smith_form(s)
            )

        return Item(
            f"{self.name} snf {a}", lambda: (lat.smith_normal_form(mat), None), check
        )

    def _subgroup(self, rng, n) -> Item:
        lat = self.hs.lattice
        m, k = rng.choice(self.AMBIENT)
        gens = self._gens(rng, m**k, n)
        expected = ref.subgroup_hnf(gens, m**k, n)

        return Item(
            f"{self.name} subgroup m={m} k={k} gens={gens}",
            lambda: (lat.subgroup_from_generators(gens, m, k, n), None),
            lambda rep: rep.hnf.data == expected,
        )

    def _perp(self, rng, n) -> Item:
        lat = self.hs.lattice
        m = rng.choice(self.PERP_MODULI)
        rows = ref.subgroup_hnf(self._gens(rng, m, n), m, n)
        rep = lat.SubgroupRep(m, 1, n, lat.IntMatrix.from_rows(rows))

        def check(perp):
            # pairing zero on generators puts perp inside the complement, and
            # the sizes |H| * |perp| = m^n make it all of it
            prows = perp.hnf.data
            pairs_zero = all(
                sum(a * b for a, b in zip(x, y)) % m == 0
                for x in ref.columns(rows)
                for y in ref.columns(prows)
            )
            return (
                ref.is_subgroup_hnf(prows, m)
                and pairs_zero
                and ref.subgroup_size(rows, m) * ref.subgroup_size(prows, m) == m**n
            )

        return Item(
            f"{self.name} perp m={m} rows={rows}", lambda: (lat.perp_subgroup(rep), None), check
        )

    def _invariant(self, rng, n) -> Item:
        """Relations A * D * B with A, B unimodular plant the invariant
        factors of D."""
        lat = self.hs.lattice
        cols = rng.choice((n, n + 1))
        chain = [rng.choice((1, 1, 2, 3))]
        for _ in range(n - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3, 5)))
        diag = [[chain[i] if i == j else 0 for j in range(cols)] for i in range(n)]
        rel = ref.matmul(
            ref.matmul(ref.random_unimodular(rng, n), diag), ref.random_unimodular(rng, cols)
        )
        mat = lat.IntMatrix.from_rows(rel)
        expected = tuple(d for d in chain if d > 1)

        def check(dec):
            return dec.factors == expected and dec.nprime == len(expected)

        return Item(
            f"{self.name} invariant {rel}",
            lambda: (lat.invariant_factor_decomposition(mat, n), None),
            check,
        )

    def _combine(self, rng, n) -> Item:
        gc = self.hs.gcdcomb
        m = rng.randrange(2, 10**6)
        zs = [rng.randrange(m) for _ in range(n)]
        target = gcd(m, *zs)

        def check(us):
            total = sum(u * z for u, z in zip(us, zs)) + zs[-1]
            return len(us) == n - 1 and all(0 <= u < m for u in us) and gcd(total, m) == target

        return Item(
            f"{self.name} combine m={m} zs={zs}", lambda: (gc.combine_many(zs, m), None), check
        )


WORKLOADS = {w.name: w for w in (HspSweep, DenseRounds, GroupStructure, LatticeToolkit)}
