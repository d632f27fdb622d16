"""Reference implementation of the reduced round, one amplitude per pairing
class.

This is the original per-class form of `hspsim.hsp._reduced_round`: it
enumerates and sorts the hidden subgroup's complement, evaluates the final
amplitude separately for every (pairing class, helper bit) pair and the
sampling weight of each class with a second mass pass, and reads measured
elements off the sorted list.  The package now uses the closed form with one
amplitude per flag bit and reads elements off the pairing's fibers without
enumerating; the tests run both and require identical amplitudes, supports,
measurements and RNG consumption.
"""

from hspsim.hsp import RoundAttempt, RoundTrace, round_flag
from hspsim.lattice import enumerate_elements, perp_subgroup


def reference_reduced_round(oracle, probe, js, mode, rng, backend, stats, capture):
    """Same outcome distribution as the dense round, computed on the classes of
    the pairing value.  The amplification operator is a reflection about the
    prepared state, so the final amplitude on a label depends only on that
    label's pairing class and helper qubit; the class histogram is everything."""
    m, n = oracle.m, oracle.n
    elems = sorted(enumerate_elements(perp_subgroup(oracle.hidden_subgroup())))
    hn = len(elems)
    avals = [sum(p * y[i] for i, p in enumerate(probe)) % m for y in elems]
    na = [0] * m
    for a in avals:
        na[a] += 1
    iunit = backend.imag_unit()
    one = backend.one
    im1 = iunit - one if backend.is_exact else iunit - 1.0

    members: dict[int, list[int]] | None = None
    trace = RoundTrace(probe=tuple(probe))
    found = []
    for j in js:
        stats.j_probes += 1
        stats.f_calls += 2
        stats.f_inverse_calls += 1
        stats.qft_calls += 4 * n
        stats.qft_inverse_calls += 2 * n

        flags = [(round_flag(m, j, a, 0), round_flag(m, j, a, 1)) for a in range(m)]
        phases = (one, iunit)
        zsum = None
        for a in range(m):
            if na[a] == 0:
                continue
            term = (phases[flags[a][0]] + phases[flags[a][1]]) * na[a]
            zsum = term if zsum is None else zsum + term
        amp = {}
        for a in range(m):
            if na[a] == 0:
                continue
            for b in (0, 1):
                amp[(a, b)] = phases[flags[a][b]] * (2 * hn) + im1 * zsum
        if backend.is_exact:
            total = 0
            for (a, b), v in amp.items():
                total += backend.abs2(v).rational_value() * na[a]
            if total != (2 * hn) ** 3:
                raise AssertionError("reduced-round normalization check failed")
        support_a = sorted(
            {
                a
                for (a, b), v in amp.items()
                if not backend.is_zero(v, (2 * hn) ** 3)
            }
        )
        if capture is not None:
            capture(
                "round_reduced",
                {
                    "probe": tuple(probe),
                    "j": j,
                    "na": list(na),
                    "amp": dict(amp),
                    "scale": (2 * hn) ** 3,
                    "support_a": list(support_a),
                },
            )
        asup = set(support_a)
        if mode == "deterministic":
            xs, pairing = next(
                (y, a) for y, a in zip(elems, avals) if a in asup
            )
        else:
            weights = [
                backend.mass([amp[(a, 0)], amp[(a, 1)]]) * na[a] for a in support_a
            ]
            if backend.is_exact:
                total = sum(weights)
                t = rng.randrange(total)
            else:
                total = float(sum(weights))
                t = rng.random() * total
            acc = 0
            a_pick = support_a[-1]
            for a, w in zip(support_a, weights):
                acc += w
                if t < acc:
                    a_pick = a
                    break
            if members is None:
                members = {}
                for i, a in enumerate(avals):
                    members.setdefault(a, []).append(i)
            xs = elems[members[a_pick][rng.randrange(na[a_pick])]]
            pairing = a_pick
        trace.attempts.append(RoundAttempt(j, xs, pairing))
        if pairing != 0:
            found.append(xs)
    trace.found = bool(found)
    return found, trace

