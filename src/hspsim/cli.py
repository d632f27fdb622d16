"""Command-line front end: hidden-subgroup runs, lattice utilities, gcd
combination, group-structure computations and a quick selftest.

Reports are JSON (schema "1") on stdout or to a file.  Exit codes: 0 success,
1 reported promise violation or simulator resource limit, 2 malformed input.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import gcd as _gcd

from . import blackbox as bb
from .gcdcomb import combine_many
from .groups import BadOrderError, NotAGroupError, _integer, load_group
from .hsp import build_coset_oracle, solve_hsp, verify_hidden
from .lattice import (
    IntMatrix,
    format_matrix_text,
    hermite_normal_form,
    matrix_from_json,
    matrix_to_json,
    parse_integer,
    parse_matrix_text,
    perp_subgroup,
    smith_normal_form,
    subgroup_from_generators,
    subgroup_order,
)
from .state import ResourceLimitError, SimulationError

SCHEMA = "1"


@dataclass
class RunConfig:
    backend: str = "exact"
    mode: str = "seeded"
    seed: int = 0
    output: str | None = None
    verbose: bool = False
    assert_exact: bool = False


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_matrix(path: str) -> IntMatrix:
    text = _read_text(path)
    try:
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            _integer(obj["rows"], "rows")
            _integer(obj["cols"], "cols")
            for row in obj["data"]:
                for v in row:
                    _integer(v, "matrix entry")
            return matrix_from_json(obj)
        return parse_matrix_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(report: dict, cfg: RunConfig) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, indent=2)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_hsp_solve(args) -> int:
    cfg = _config(args)
    payload = _read_json(args.instance)
    try:
        m = _integer(payload["m"], "m")
        k = _integer(payload.get("k", 1), "k")
        n = _integer(payload["n"], "n")
        gens = [
            tuple(_integer(v, "generator entry") for v in g)
            for g in payload["hidden_subgroup_generators"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad instance file: {exc}") from exc
    try:
        hidden = subgroup_from_generators(gens, m, k, n)
    except ValueError as exc:
        raise InputError(f"bad instance file: {exc}") from exc
    oracle = build_coset_oracle(hidden)
    res = solve_hsp(
        oracle,
        mode=cfg.mode,
        seed=cfg.seed,
        backend=cfg.backend,
    )
    report = {
        "command": "hsp solve",
        "m": m,
        "k": k,
        "n": n,
        "hnf": res.subgroup.hnf.to_lists(),
        "order": subgroup_order(res.subgroup),
        "stats": res.stats.to_dict(),
        "trace": [t.to_dict() for t in res.trace],
    }
    if cfg.assert_exact:
        report["exactness"] = {
            "backend": "exact",
            "output_verified_against_oracle": verify_hidden(oracle, res.subgroup),
        }
        if not report["exactness"]["output_verified_against_oracle"]:
            _emit(report, cfg)
            return 1
    _emit(report, cfg)
    return 0


def _cmd_lattice(args) -> int:
    cfg = _config(args)
    mat = _load_matrix(args.matrix)
    if args.op == "hnf":
        H, U = hermite_normal_form(mat)
        report = {
            "command": "lattice hnf",
            "hnf": matrix_to_json(H),
            "multiplier": matrix_to_json(U),
        }
        if cfg.verbose:
            print(format_matrix_text(H), file=sys.stderr)
    elif args.op == "snf":
        S, L, R = smith_normal_form(mat)
        report = {
            "command": "lattice snf",
            "snf": matrix_to_json(S),
            "left": matrix_to_json(L),
            "right": matrix_to_json(R),
        }
    elif args.op == "perp":
        if args.m is None:
            raise InputError("lattice perp needs -m")
        if args.m < 2:
            raise InputError(f"lattice perp needs -m >= 2, got {args.m}")
        if mat.rows != mat.cols:
            raise InputError("perp expects a square subgroup basis")
        rep = subgroup_from_generators(mat.columns(), args.m, 1, mat.rows)
        perp = perp_subgroup(rep)
        report = {
            "command": "lattice perp",
            "m": args.m,
            "hnf": matrix_to_json(perp.hnf),
            "order": subgroup_order(perp),
        }
    else:
        raise InputError(f"unknown lattice op {args.op}")
    _emit(report, cfg)
    return 0


def _cmd_gcd_combine(args) -> int:
    cfg = _config(args)
    if args.m < 1:
        raise InputError(f"gcd-combine needs -m >= 1, got {args.m}")
    zs = [z % args.m for z in args.values]
    coeffs = combine_many(zs, args.m)
    total = (sum(c * z for c, z in zip(coeffs, zs[:-1])) + zs[-1]) % args.m
    achieved = _gcd(total, args.m)
    target = args.m
    for z in zs:
        target = _gcd(target, z)
    report = {
        "command": "gcd-combine",
        "m": args.m,
        "values": zs,
        "coefficients": coeffs,
        "combination": total,
        "gcd": achieved,
        "target_gcd": target,
        "exact": achieved == target,
    }
    _emit(report, cfg)
    return 0 if achieved == target else 1


def _cmd_group(args) -> int:
    cfg = _config(args)
    payload = _read_json(args.group)
    try:
        backend, m = load_group(payload)
    except NotAGroupError as exc:
        report = {"command": f"group {args.op}", "status": "not-a-group"}
        report["reason"] = str(exc)
        _emit(report, cfg)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group file: {exc}") from exc
    ctx = bb.BlackboxContext(
        backend, m, amp_backend=cfg.backend, mode=cfg.mode, seed=cfg.seed
    )
    report: dict = {"command": f"group {args.op}", "kind": backend.kind, "m": m}

    built = bb.build_polycyclic_series(backend, m, ctx)
    if isinstance(built, bb.BadOrder):
        report["status"] = "bad-order"
        report["element"] = built.element
        _emit(report, cfg)
        return 0
    if isinstance(built, bb.NotSolvable):
        report["status"] = "not-solvable"
        report["replacements"] = built.replacements
        _emit(report, cfg)
        return 0
    report["status"] = "ok"
    report["series"] = {
        "elements": list(built.elements),
        "factor_orders": list(built.factor_orders),
    }
    if args.op == "series":
        pass
    elif args.op == "order":
        report["order"] = bb.group_order(built, ctx)
    elif args.op == "derived":
        report["derived_series"] = bb.derived_chain(built, ctx)
    elif args.op == "decompose":
        try:
            ngens = [
                backend.encode_element(g)
                for g in payload.get("normal_subgroup_generators", [])
            ]
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad normal subgroup generators: {exc}") from exc
        decomp = bb.abelian_factor_decomposition(backend, ngens, m, ctx)
        report["decomposition"] = {
            "factors": list(decomp.factors),
            "generator_matrix": decomp.generator_matrix.to_lists()
            if decomp.generator_matrix
            else [],
        }
    else:
        raise InputError(f"unknown group op {args.op}")
    report["stats"] = ctx.stats.to_dict()
    report["group_oracle_calls"] = backend.mul_calls
    _emit(report, cfg)
    return 0


def _cmd_selftest(args) -> int:
    cfg = _config(args)
    failures = []
    checks = 0

    def check(name, ok):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(name)
        if cfg.verbose:
            print(("PASS " if ok else "FAIL ") + name, file=sys.stderr)

    # lattice identities on a fixed pseudo-random batch
    import random as _random

    rng = _random.Random(7)
    for trial in range(25):
        n = rng.randrange(1, 4)
        s = rng.randrange(1, 4)
        mat = IntMatrix.from_rows(
            [[rng.randrange(-50, 50) for _ in range(s)] for _ in range(n)]
        )
        H, U = hermite_normal_form(mat)
        check(f"hnf-identity-{trial}", H == mat @ U and U.is_unimodular())
        S, L, R = smith_normal_form(mat)
        check(f"snf-identity-{trial}", S == (L @ mat) @ R)

    # gcd combination property
    for trial in range(200):
        m = rng.randrange(2, 5000)
        s = rng.randrange(1, 5)
        zs = [rng.randrange(m) for _ in range(s)]
        coeffs = combine_many(zs, m)
        total = (sum(c * z for c, z in zip(coeffs, zs[:-1])) + zs[-1]) % m
        target = m
        for z in zs:
            target = _gcd(target, z)
        check(f"gcd-{trial}", _gcd(total, m) == target)

    # hidden-subgroup sweep on small moduli
    for m, n in [(2, 2), (3, 2), (4, 1), (6, 2)]:
        for gens in _small_subgroup_generators(m, n):
            hidden = subgroup_from_generators(gens, m, 1, n)
            oracle = build_coset_oracle(hidden)
            res = solve_hsp(oracle, mode="deterministic", backend="exact")
            check(
                f"hsp-{m}-{n}-{gens}",
                res.subgroup.hnf == hidden.hnf,
            )

    # swap test / membership on S3
    from .groups import PermutationBackend

    s3 = PermutationBackend(3, [(1, 0, 2), (1, 2, 0)])
    ctx = bb.BlackboxContext(s3, 6)
    built = bb.build_polycyclic_series(s3, 6, ctx)
    ok = isinstance(built, bb.PolycyclicSeries) and bb.group_order(built, ctx) == 6
    check("s3-order", ok)

    report = {
        "command": "selftest",
        "checks": checks,
        "failures": failures,
        "ok": not failures,
    }
    _emit(report, cfg)
    return 0 if not failures else 1


def _small_subgroup_generators(m, n):
    from itertools import product as cartesian

    seen = set()
    out = []
    for g in cartesian(range(m), repeat=n):
        rep = subgroup_from_generators([g], m, 1, n)
        key = rep.hnf.data
        if key not in seen:
            seen.add(key)
            out.append([g])
    return out


# ---------------------------------------------------------------------------
# Argument parsing


def _config(args) -> RunConfig:
    cfg = RunConfig(
        backend=getattr(args, "backend", "exact"),
        mode=getattr(args, "mode", "seeded"),
        seed=getattr(args, "seed", 0),
        output=getattr(args, "output", None),
        verbose=getattr(args, "verbose", False),
        assert_exact=getattr(args, "assert_exact", False),
    )
    if cfg.assert_exact and cfg.backend != "exact":
        raise InputError("--assert-exact requires --backend exact")
    return cfg


def _int_arg(text: str) -> int:
    """Integer arguments take the check text matrices use."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hspsim")
    p.add_argument("--backend", choices=["exact", "float"], default="exact")
    p.add_argument("--mode", choices=["seeded", "deterministic"], default="seeded")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("-o", "--output", default=None, help="write the JSON report here")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    hsp = sub.add_parser("hsp", help="hidden-subgroup runs")
    hsp_sub = hsp.add_subparsers(dest="hsp_op", required=True)
    solve = hsp_sub.add_parser("solve")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument("--assert-exact", action="store_true")
    solve.set_defaults(func=_cmd_hsp_solve)

    lat = sub.add_parser("lattice", help="integer-lattice utilities")
    lat.add_argument("op", choices=["hnf", "snf", "perp"])
    lat.add_argument("matrix", help="matrix file (text or JSON)")
    lat.add_argument("-m", type=_int_arg, default=None, help="modulus for perp")
    lat.set_defaults(func=_cmd_lattice)

    gc = sub.add_parser("gcd-combine", help="gcd-preserving combination")
    gc.add_argument("values", type=_int_arg, nargs="+")
    gc.add_argument("-m", type=_int_arg, required=True)
    gc.set_defaults(func=_cmd_gcd_combine)

    grp = sub.add_parser("group", help="black-box group structure")
    grp.add_argument("op", choices=["order", "series", "derived", "decompose"])
    grp.add_argument("group", help="group JSON file")
    grp.set_defaults(func=_cmd_group)

    st = sub.add_parser("selftest", help="run the built-in verification sweep")
    st.set_defaults(func=_cmd_selftest)
    return p


def _run(args) -> int:
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except (bb.PromiseError, BadOrderError, SimulationError) as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the report is written only once the command has its exit code, so a
    # reader that closes the pipe early cannot change that code
    out = io.StringIO()
    with redirect_stdout(out):
        code = _run(args)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # nobody reads the report; point stdout at devnull so that the flush
        # at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
