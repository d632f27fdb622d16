"""Pinned SHA-256 digests over reduced and dense solves, so that round traces
cannot move silently.

The digest covers, per solve: the recovered HNF, the trace, `QueryStats`
(which holds the oracle query counters), the RNG state after the solve and
every `round_reduced` capture payload (exact amplitudes as coefficient tuples,
float amplitudes by `repr`).  The solves are reduced solves of coset oracles
on a fixed sample of acceptance-grid cells, exponents 1 and 2, in
deterministic mode and with seeds 1 and 77, on the exact and float backends.

A second digest covers dense solves, which run the full round circuit (QFT,
reflection, measurement) that reduced solves never reach: per solve the HNF,
the trace, `QueryStats`, the RNG state and the `dump()` of every `round_state`
capture (exact amplitudes as coefficient lists, float amplitudes by `repr`),
over every subgroup of a few small cells at exponent 1, in the same modes and
on both backends.

A third digest covers dense solves without a capture hook, the path a dense
solve takes when nothing asks for its states: per solve the HNF, the trace,
`QueryStats` and the RNG state, over the dense cells above plus a fixed
sample of subgroups of Z_3^3, in the same modes and on both backends.

A change that alters any of these on purpose must say so and re-pin.
"""

import hashlib
import random

from hspsim import hsp as hsp_module
from hspsim.hsp import build_coset_oracle, solve_hsp, solve_hsp_zmn
from hspsim.lattice import IntMatrix, SubgroupRep

from conftest import enumerate_subgroup_hnfs

CELLS = [(4, 1, 2), (6, 1, 2), (12, 1, 2), (6, 1, 3), (8, 1, 3), (9, 1, 3), (10, 1, 3),
         (12, 1, 3), (2, 2, 2), (3, 2, 2), (6, 2, 1)]
PER_CELL = 5
MODES = (("deterministic", None), ("seeded", 1), ("seeded", 77))
PINNED = "8ea916e0cfe228ae5908058d9878327c1e16b926b304aea8d265db57d85b1c91"
DENSE_CELLS = [(4, 2), (3, 2), (2, 3), (5, 2), (2, 2), (6, 1), (12, 1)]
DENSE_PINNED = "94785f9ffaa501231810da0b14f7c4f9b4139a8fe28c9fd3325d7bb581f177f2"
UNCAPTURED_SAMPLE = ((3, 3), 8)  # the cell and how many of its subgroups
UNCAPTURED_PINNED = "431c31f57d755e98635e4dd5f1e162fc246ef4c07752b2a453dcfa4ebdc65c2e"


class _RecordingRandom:
    """Stands in for the `random` module inside `hspsim.hsp`, keeping the
    generators that `solve_hsp` makes so their state can be read after it."""

    def __init__(self, made):
        self.made = made

    def Random(self, seed):
        rng = random.Random(seed)
        self.made.append(rng)
        return rng


def _value(v):
    coeffs = getattr(v, "coeffs", None)
    return repr(coeffs) if coeffs is not None else repr(v)


def _payload(event, payload):
    assert event == "round_reduced"
    amp = sorted((key, _value(v)) for key, v in payload["amp"].items())
    return (payload["probe"], payload["j"], payload["na"], amp, payload["scale"],
            payload["support_a"])


def _solve_records(m, k, n, rows, backend, mode, seed):
    rep = SubgroupRep(m, k, n, IntMatrix.from_rows(rows))
    payloads = []
    capture = lambda event, payload: payloads.append(_payload(event, payload))  # noqa: E731
    oracle = build_coset_oracle(rep)
    if k == 1:
        rng = random.Random(seed) if mode == "seeded" else None
        res = solve_hsp_zmn(oracle, mode=mode, rng=rng, backend=backend,
                            method="reduced", capture=capture)
        rng_state = rng.getstate() if rng is not None else None
    else:
        made = []
        hsp_module.random = _RecordingRandom(made)
        try:
            res = solve_hsp(oracle, mode=mode, seed=seed, backend=backend,
                            method="reduced", capture=capture)
        finally:
            hsp_module.random = random
        rng_state = made[0].getstate() if made else None
    assert res.subgroup.hnf.data == rows
    return (m, k, n, rows, backend, mode, seed, res.subgroup.hnf.data,
            [t.to_dict() for t in res.trace], res.stats.to_dict(), rng_state, payloads)


def reduced_solve_digest() -> tuple[str, int]:
    digest, count = hashlib.sha256(), 0
    for m, k, n in CELLS:
        hnfs = enumerate_subgroup_hnfs(m, n, k)
        for rows in random.Random(f"{m}/{k}/{n}").sample(hnfs, PER_CELL):
            for backend in ("exact", "float"):
                for mode, seed in MODES:
                    record = _solve_records(m, k, n, rows, backend, mode, seed)
                    digest.update(repr(record).encode())
                    count += 1
    return digest.hexdigest(), count


def test_reduced_solves_match_the_pinned_digest():
    got, count = reduced_solve_digest()
    assert count == len(CELLS) * PER_CELL * 2 * len(MODES)
    assert got == PINNED


def _dense_solve_record(m, n, rows, backend, mode, seed):
    rep = SubgroupRep(m, 1, n, IntMatrix.from_rows(rows))
    dumps = []

    def capture(event, payload):
        assert event == "round_state"
        dumps.append((payload["probe"], payload["j"], payload["state"].dump()))

    rng = random.Random(seed) if mode == "seeded" else None
    res = solve_hsp_zmn(build_coset_oracle(rep), mode=mode, rng=rng, backend=backend,
                        method="dense", capture=capture)
    assert res.subgroup.hnf.data == rows
    return (m, n, rows, backend, mode, seed, res.subgroup.hnf.data,
            [t.to_dict() for t in res.trace], res.stats.to_dict(),
            rng.getstate() if rng is not None else None, dumps)


def dense_solve_digest() -> tuple[str, int]:
    digest, count = hashlib.sha256(), 0
    for m, n in DENSE_CELLS:
        for rows in enumerate_subgroup_hnfs(m, n):
            for backend in ("exact", "float"):
                for mode, seed in MODES:
                    record = _dense_solve_record(m, n, rows, backend, mode, seed)
                    digest.update(repr(record).encode())
                    count += 1
    return digest.hexdigest(), count


def test_dense_solves_match_the_pinned_digest():
    got, count = dense_solve_digest()
    assert count == 60 * 2 * len(MODES)
    assert got == DENSE_PINNED


def _uncaptured_dense_record(m, n, rows, backend, mode, seed):
    rep = SubgroupRep(m, 1, n, IntMatrix.from_rows(rows))
    rng = random.Random(seed) if mode == "seeded" else None
    res = solve_hsp_zmn(build_coset_oracle(rep), mode=mode, rng=rng, backend=backend,
                        method="dense")
    assert res.subgroup.hnf.data == rows
    return (m, n, rows, backend, mode, seed, res.subgroup.hnf.data,
            [t.to_dict() for t in res.trace], res.stats.to_dict(),
            rng.getstate() if rng is not None else None)


def uncaptured_dense_digest() -> tuple[str, int]:
    (m3, n3), size = UNCAPTURED_SAMPLE
    cells = [(m, n, enumerate_subgroup_hnfs(m, n)) for m, n in DENSE_CELLS]
    cells.append((m3, n3, random.Random(f"{m3}/1/{n3}").sample(
        enumerate_subgroup_hnfs(m3, n3), size)))
    digest, count = hashlib.sha256(), 0
    for m, n, hnfs in cells:
        for rows in hnfs:
            for backend in ("exact", "float"):
                for mode, seed in MODES:
                    record = _uncaptured_dense_record(m, n, rows, backend, mode, seed)
                    digest.update(repr(record).encode())
                    count += 1
    return digest.hexdigest(), count


def test_uncaptured_dense_solves_match_the_pinned_digest():
    got, count = uncaptured_dense_digest()
    assert count == (60 + UNCAPTURED_SAMPLE[1]) * 2 * len(MODES)
    assert got == UNCAPTURED_PINNED
