#!/usr/bin/env python3
"""hspsim benchmark: exact-simulation workloads with per-layer attribution.

    python3 bench/run.py --workload hsp-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in this one process on one thread as a closed loop with
one client.  The untraced run (--trace 0) sets up several times and reports
the median set-up time, then runs whole cycles of items until --seconds have
passed and reports end-to-end metrics.  The traced run (--trace 1) runs a
fixed number of cycles untraced and again with every layer wrapped, and
reports per-layer metrics; its counters are exact.  Every item's output is
checked against an independently computed answer.  The last line of standard
output is the result as JSON.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("lattice", "cyclotomic", "state", "hsp", "gcdcomb", "groups", "blackbox")
SETUP_REPEATS = 7
# reserved for confirming a claimed gain on inputs not seen while writing it
HELD_OUT_SEED = 7919

# Counters that repeat exactly for a given seed and commit.
EXACT = (
    "lattice.calls",
    "lattice.perp_subgroup.calls",
    "lattice.subgroup_from_generators.calls",
    "lattice.join.calls",
    "lattice.hermite_normal_form.calls",
    "lattice.smith_normal_form.calls",
    "cyclotomic.mul.calls",
    "cyclotomic.coeff_bits_max",
    "state.apply_qft.calls",
    "state.reflect.calls",
    "state.measure.calls",
    "state.peak_support",
    "state.scale_bits_max",
    "hsp.rounds",
    "hsp.j_probes",
    "hsp.f_calls",
    "hsp.qft_calls",
    "groups.mul_calls",
    "blackbox.swap_tests",
    "blackbox.membership.calls",
    "gcdcomb.calls",
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_hspsim():
    """Import hspsim from this checkout's src/, dropping any earlier import so
    that each set-up pays the import again."""
    if not (SRC / "hspsim" / "__init__.py").is_file():
        fail(f"no hspsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hspsim" or n.startswith("hspsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hspsim")
    if Path(pkg.__file__).resolve().parent != SRC / "hspsim":
        fail(f"imported hspsim from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload_cls, seed: int):
    """Import, build static inputs and the first cycle: everything before the
    first timed item.  Garbage left by an earlier set-up is collected first,
    untimed, so that no set-up pays for another's."""
    gc.collect()
    t0 = time.perf_counter()
    pkg = import_hspsim()
    workload = workload_cls(pkg, seed)
    first = workload.cycle(0)
    return time.perf_counter() - t0, pkg, workload, first


def run_item(item, failures: list):
    """Run one item; returns (latency in ns, its query stats) and records a
    failure when it raises or its output disagrees with the expected answer."""
    t0 = time.perf_counter_ns()
    try:
        out, stats = item.run()
    except Exception as exc:  # any exception is a failed item, not a crash
        dt = time.perf_counter_ns() - t0
        failures.append(f"{item.label}: raised {exc!r}")
        return dt, None
    dt = time.perf_counter_ns() - t0
    try:
        ok = item.check(out)
    except Exception as exc:  # a malformed output fails its check
        ok = False
        failures.append(f"{item.label}: check raised {exc!r}")
    else:
        if not ok:
            failures.append(f"{item.label}: wrong output {out!r}")
    return dt, stats


def untraced(workload, first, seconds: float):
    """Whole cycles until `seconds` have passed since the first item."""
    latencies, failures = [], []
    gc.collect()
    deadline = time.perf_counter() + seconds
    index, items = 0, first
    while True:
        for item in items:
            latencies.append(run_item(item, failures)[0])
        if time.perf_counter() >= deadline:
            return latencies, failures
        index += 1
        items = workload.cycle(index)


def end_to_end(latencies, setup_times) -> dict:
    ms = sorted(ns / 1e6 for ns in latencies)
    return {
        "items_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(pkg, workload):
    """The first trace_cycles cycles untraced, then the same cycles traced."""
    cycles = range(workload.trace_cycles)
    failures = []
    plain_ns = sum(
        run_item(item, failures)[0] for c in cycles for item in workload.cycle(c)
    )
    tracer = Tracer()
    batches = [workload.cycle(c, capture=tracer.capture) for c in cycles]
    backends = {id(i.backend): i.backend for b in batches for i in b if i.backend is not None}
    mul_before = sum(b.mul_calls for b in backends.values())
    tracer.install(pkg, LAYERS)
    traced_ns = 0
    query = dict.fromkeys(("rounds", "j_probes", "f_calls", "qft_calls"), 0)
    attempted = 0
    for batch in batches:
        for item in batch:
            tracer.stack[:] = [0]
            dt, stats = run_item(item, failures)
            traced_ns += dt
            attempted += 1
            if stats is not None:
                for key in query:
                    query[key] += getattr(stats, key)
    mul_calls = sum(b.mul_calls for b in backends.values()) - mul_before
    metrics = layer_metrics(tracer, traced_ns, query, mul_calls)
    metrics["trace_overhead"] = (traced_ns / plain_ns, "ratio")
    return metrics, 2 * attempted, failures


def layer_metrics(tr, total_ns: int, query: dict, mul_calls: int) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def layer(name):
        keys = tr.layer_keys(name)
        self_ns = tr.self_ns(*keys)
        return keys, self_ns / 1e9, self_ns / total_ns

    def per_call(key):
        calls = tr.calls(key)
        put(f"{key}.calls", calls, "count")
        put(f"{key}.us_per_call", tr.inclusive_ns(key) / calls / 1e3 if calls else 0.0, "us")

    keys, self_s, share = layer("lattice")
    put("lattice.self_s", self_s, "s")
    put("lattice.share", share, "ratio")
    put("lattice.calls", tr.calls(*keys), "count")
    for fn in ("perp_subgroup", "subgroup_from_generators", "join", "hermite_normal_form",
               "smith_normal_form"):
        per_call(f"lattice.{fn}")

    _, self_s, share = layer("cyclotomic")
    put("cyclotomic.mul.calls",
        tr.calls("cyclotomic.Cyclotomic.__mul__", "cyclotomic.Cyclotomic.__rmul__"), "count")
    put("cyclotomic.self_s", self_s, "s")
    put("cyclotomic.share", share, "ratio")
    put("cyclotomic.coeff_bits_max", tr.coeff_bits_max, "bits")

    _, self_s, share = layer("state")
    per_call("state.apply_qft")
    put("state.reflect.calls", tr.calls("state.ReflectStep.apply"), "count")
    put("state.reflect.self_s", tr.self_ns("state.ReflectStep.apply") / 1e9, "s")
    put("state.measure.calls", tr.calls("state.measure_register"), "count")
    put("state.self_s", self_s, "s")
    put("state.share", share, "ratio")
    put("state.peak_support", tr.peak_support, "labels")
    put("state.scale_bits_max", tr.scale_bits_max, "bits")

    _, self_s, share = layer("hsp")
    for key, value in query.items():
        put(f"hsp.{key}", value, "count")
    put("hsp.round.self_s", tr.self_ns("hsp.hsp_round") / 1e9, "s")
    put("hsp.oracle_build.self_s",
        tr.self_ns("hsp.build_coset_oracle", "hsp.HidingOracle.table") / 1e9, "s")
    put("hsp.self_s", self_s, "s")
    put("hsp.share", share, "ratio")

    _, self_s, share = layer("groups")
    put("groups.mul_calls", mul_calls, "count")
    put("groups.self_s", self_s, "s")

    _, self_s, share = layer("blackbox")
    put("blackbox.swap_tests", tr.calls("blackbox.exact_swap_test"), "count")
    put("blackbox.membership.calls", tr.calls("blackbox.superposition_membership"), "count")
    put("blackbox.self_s", self_s, "s")
    put("blackbox.share", share, "ratio")

    keys, self_s, _ = layer("gcdcomb")
    put("gcdcomb.calls", tr.calls(*keys), "count")
    put("gcdcomb.self_s", self_s, "s")
    return out


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hspsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def report(metrics: dict, attempted: int, failures: list, env: dict, exact=None) -> bool:
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")
    failed = len(failures)
    print(f"{'failed_frac':<42} {failed / attempted:>16.6g} ratio ({failed} of {attempted} items)")
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"env": env}
    if exact is not None:
        info["exact"] = exact
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return failed == 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    cls = WORKLOADS[args.workload]
    if args.trace:
        _, pkg, workload, _ = set_up(cls, args.seed)
        metrics, attempted, failures = traced(pkg, workload)
        env = environment(args.workload, args.seed)
        return 0 if report(metrics, attempted, failures, env, list(EXACT)) else 1

    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, pkg, workload, first = set_up(cls, args.seed)
        setup_times.append(elapsed)
    latencies, failures = untraced(workload, first, args.seconds)
    metrics = end_to_end(latencies, setup_times)
    env = environment(args.workload, args.seed)
    return 0 if report(metrics, len(latencies), failures, env) else 1


if __name__ == "__main__":
    sys.exit(main())
