import json

import pytest

from hspsim import cli as cli_module
from hspsim import state as state_module
from hspsim.blackbox import BlackboxContext, build_polycyclic_series, derived_chain
from hspsim.cli import main
from hspsim.groups import load_group


def child_env():
    """The environment for a `python -m hspsim.cli` child: the package source
    first on PYTHONPATH, so the child imports it without an install."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(p)


def test_lattice_hnf_command(tmp_path, capsys):
    # columns (2,3), (6,0), (0,6) reduce to the diagonal block
    path = write(tmp_path, "m.txt", "2 3\n2 6 0\n3 0 6\n")
    code, report = run_cli(capsys, "lattice", "hnf", path)
    assert code == 0
    assert report["schema"] == "1"
    assert report["hnf"]["data"] == [[2, 0, 0], [0, 3, 0]]


def test_lattice_hnf_json_input(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"rows": 2, "cols": 2, "data": [[4, 6], [0, 2]]})
    code, report = run_cli(capsys, "lattice", "snf", path)
    assert code == 0
    S = report["snf"]["data"]
    assert S[0][0] == 2 and S[1][1] == 4


def test_lattice_perp_command(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2 2\n2 0\n0 3\n")
    code, report = run_cli(capsys, "lattice", "perp", path, "-m", "6")
    assert code == 0
    assert report["order"] == 6


def test_gcd_combine_command(capsys):
    code, report = run_cli(capsys, "gcd-combine", "6", "10", "15", "-m", "30")
    assert code == 0
    assert report["exact"] is True
    assert report["gcd"] == report["target_gcd"] == 1


def test_hsp_solve_command(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 6, "k": 1, "n": 2, "hidden_subgroup_generators": [[2, 3]]},
    )
    code, report = run_cli(
        capsys, "--mode", "deterministic", "hsp", "solve", inst, "--assert-exact"
    )
    assert code == 0
    assert report["hnf"] == [[2, 0], [0, 3]]
    assert report["exactness"]["output_verified_against_oracle"] is True
    assert report["stats"]["rounds"] >= 1
    assert report["trace"]


def test_hsp_solve_constant_function(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 4, "n": 2, "hidden_subgroup_generators": [[1, 0], [0, 1]]},
    )
    code, report = run_cli(capsys, "--mode", "deterministic", "hsp", "solve", inst)
    assert code == 0
    assert report["hnf"] == [[1, 0], [0, 1]]


def test_hsp_solve_deterministic_is_stable(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 6, "n": 2, "hidden_subgroup_generators": [[2, 3]]},
    )
    runs = [
        run_cli(capsys, "--mode", "deterministic", "hsp", "solve", inst)[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    seeded = [
        run_cli(capsys, "--seed", "5", "hsp", "solve", inst)[1] for _ in range(2)
    ]
    assert seeded[0] == seeded[1]


def test_group_order_command(tmp_path, capsys):
    grp = write(
        tmp_path,
        "s3.json",
        {"kind": "permutation", "degree": 3, "m": 6, "generators": [[1, 0, 2], [1, 2, 0]]},
    )
    code, report = run_cli(capsys, "group", "order", grp)
    assert code == 0
    assert report["status"] == "ok"
    assert report["order"] == 6


def test_group_not_solvable_report(tmp_path, capsys):
    grp = write(
        tmp_path,
        "a5.json",
        {
            "kind": "permutation",
            "degree": 5,
            "m": 30,
            "generators": [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]],
        },
    )
    code, report = run_cli(capsys, "group", "series", grp)
    assert code == 0
    assert report["status"] == "not-solvable"


def test_group_bad_order_report(tmp_path, capsys):
    table = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    grp = write(
        tmp_path, "z7.json", {"kind": "table", "size": 7, "m": 2, "table": table, "generators": [1]}
    )
    code, report = run_cli(capsys, "group", "order", grp)
    assert code == 0
    assert report["status"] == "bad-order"


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 1]],
        # a loop of order 5: a Latin square with identity 0, not associative
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    ],
    ids=["not-latin", "loop-of-order-5"],
)
def test_group_table_that_is_not_a_group_is_rejected(tmp_path, capsys, table):
    grp = write(tmp_path, "magma.json", {"kind": "table", "table": table, "generators": [1], "m": 2})
    code, report = run_cli(capsys, "group", "order", grp)
    assert code == 1
    assert report["status"] == "not-a-group"
    assert "order" not in report


def test_group_decompose_command(tmp_path, capsys):
    grp = write(
        tmp_path,
        "u15.json",
        {"kind": "units", "modulus": 15, "m": 2, "generators": [2, 14]},
    )
    code, report = run_cli(capsys, "group", "decompose", grp)
    assert code == 0
    assert report["decomposition"]["factors"] == [2, 4]


def test_output_file_option(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 2, "n": 1, "hidden_subgroup_generators": []},
    )
    out = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "--mode", "deterministic", "-o", str(out), "hsp", "solve", inst
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hnf"] == [[2]]


def test_malformed_inputs_exit_two(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    code = main(["hsp", "solve", bad])
    assert code == 2
    missing = str(tmp_path / "missing.json")
    assert main(["hsp", "solve", missing]) == 2
    badmat = write(tmp_path, "bad.txt", "1 2\n1\n")
    assert main(["lattice", "hnf", badmat]) == 2
    assert main(["nonsense"]) == 2
    incomplete = write(tmp_path, "inc.json", {"m": 4})
    assert main(["hsp", "solve", incomplete]) == 2


@pytest.mark.parametrize(
    "instance",
    [
        {"m": 1, "n": 1, "hidden_subgroup_generators": []},
        {"m": 4, "n": 0, "hidden_subgroup_generators": []},
        {"m": 4, "n": 2, "hidden_subgroup_generators": [[1, 2, 3]]},
        {"m": 0, "n": 1, "hidden_subgroup_generators": [[1]]},
    ],
    ids=["m-one", "n-zero", "generator-length", "m-zero"],
)
def test_malformed_instance_exits_two(tmp_path, capsys, instance):
    inst = write(tmp_path, "inst.json", instance)
    assert main(["hsp", "solve", inst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad instance file:")


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "perp", "{basis}", "-m", "0"],
        ["lattice", "perp", "{basis}", "-m", "1"],
        ["gcd-combine", "6", "10", "-m", "0"],
        ["gcd-combine", "6", "10", "-m", "-5"],
    ],
    ids=["perp-m-zero", "perp-m-one", "gcd-m-zero", "gcd-m-negative"],
)
def test_malformed_modulus_exits_two(tmp_path, capsys, argv):
    basis = write(tmp_path, "b.txt", "2 2\n1 0\n0 1\n")
    assert main([a.format(basis=basis) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "group",
    [
        {"kind": "units", "modulus": 15, "m": 0, "generators": [2, 14]},
        {"kind": "table", "size": 2, "m": 2, "table": [[0, 1], [1, 0]], "generators": [5]},
        {"kind": "table", "size": 2, "m": 2, "table": [[0, 1], [1, 7]], "generators": [1]},
        {"kind": "table", "m": 2, "table": [["a"]], "generators": []},
        {"kind": "table", "m": 2, "table": [[0.5]], "generators": []},
        {"kind": "table", "m": 2, "table": [[0, 1], [1, False]], "generators": [1]},
        {"kind": "table", "m": 2, "table": [[[0]]], "generators": []},
        {"kind": "table", "m": 2, "table": [[0, 1], [1, 0]], "generators": [[1]]},
        {"kind": "table", "table": [[0, 1], [1, 0]], "generators": [1.9], "m": 2},
        {"kind": "units", "modulus": 15, "generators": [2.5], "m": 4},
        {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2.0]], "m": 2},
        {"kind": "units", "modulus": 15.0, "generators": [2], "m": 2},
        {"kind": "permutation", "degree": "3", "generators": [[1, 0, 2]], "m": 2},
        {"kind": "units", "modulus": 15, "generators": [2], "m": 2.0},
        {"kind": "units", "modulus": 15, "generators": [True], "m": 2},
    ],
    ids=["m-zero", "table-generator-outside", "table-entry-outside", "table-entry-str",
         "table-entry-float", "table-entry-bool", "table-entry-list", "table-generator-list",
         "table-generator-float", "units-generator-float", "permutation-image-float",
         "units-modulus-float", "permutation-degree-str", "m-float", "units-generator-bool"],
)
def test_malformed_group_exits_two(tmp_path, capsys, group):
    grp = write(tmp_path, "group.json", group)
    assert main(["group", "order", grp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad group file:")


@pytest.mark.parametrize(
    "argv,content",
    [
        (["hsp", "solve"], b'\xff\xfe{"m": 4}'),
        (["lattice", "hnf"], b"\xff\xfe2 2\n1 0\n0 1\n"),
        (["hsp", "solve"], b'{"m": 1e400, "n": 1, "hidden_subgroup_generators": []}'),
        (["lattice", "hnf"], b'{"rows": 1, "cols": 1, "data": [[1e400]]}'),
        (["lattice", "hnf"], b'{"rows": 1.0, "cols": 1, "data": [[2]]}'),
        (["lattice", "hnf"], b'{"rows": 1, "cols": 1, "data": [[2.5]]}'),
        (["hsp", "solve"], b'{"m": 4, "n": 2, "hidden_subgroup_generators": [[2.5, 3]]}'),
        (["hsp", "solve"], b'{"m": 2.0, "n": 1, "hidden_subgroup_generators": [[1]]}'),
        (["hsp", "solve"], b'{"m": 4, "n": 1, "hidden_subgroup_generators": [[true]]}'),
        (["hsp", "solve"], b'{"m": 4, "k": true, "n": 1, "hidden_subgroup_generators": [[1]]}'),
        (["lattice", "hnf"], b"1 1\n1_0\n"),
        (["lattice", "hnf"], "1 1\n\u0661\u0662\n".encode()),
        (["lattice", "hnf"], b"1_0 1\n5\n"),
        (["lattice", "hnf"], "1 \uff11\n5\n".encode()),
        (["lattice", "hnf"], b"1 1\n+-3\n"),
    ],
    ids=["instance-not-utf8", "matrix-not-utf8", "instance-overflow", "matrix-overflow",
         "matrix-rows-float", "matrix-entry-float", "generator-float", "m-float",
         "generator-bool", "k-bool", "text-entry-underscore", "text-entry-arabic-indic",
         "text-header-underscore", "text-header-fullwidth", "text-entry-two-signs"],
)
def test_non_integer_input_exits_two(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "1_0", "gcd-combine", "6", "10", "-m", "12"],
        ["gcd-combine", "6", "1_0", "-m", "12"],
        ["gcd-combine", "6", "10", "-m", "1_2"],
        ["gcd-combine", "6", "\u0661\u0660", "-m", "12"],
        ["gcd-combine", "6", "10", "-m", " 12"],
        ["lattice", "perp", "MATRIX", "-m", "\u0666"],
    ],
    ids=["seed-underscore", "value-underscore", "m-underscore", "value-arabic-indic",
         "m-blank", "perp-m-arabic-indic"],
)
def test_integer_arguments_are_ascii_integers(tmp_path, capsys, argv):
    matrix = write(tmp_path, "m.txt", "2 2\n2 0\n0 3\n")
    assert main([matrix if a == "MATRIX" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not an integer" in captured.err
    assert "Traceback" not in captured.err


def test_signed_integer_arguments_still_parse(capsys):
    code, report = run_cli(capsys, "--seed", "+3", "gcd-combine", "6", "-4", "-m", "+12")
    assert code == 0
    assert report["m"] == 12
    assert report["values"] == [6, 8]


def solve_with(monkeypatch, **options):
    # the CLI has no switch for the round method or a capture hook, so its
    # solver is wrapped
    solve = cli_module.solve_hsp
    monkeypatch.setattr(
        cli_module, "solve_hsp", lambda oracle, **kw: solve(oracle, **kw, **options)
    )


def test_field_above_the_root_order_limit_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # m = 10^9 + 7 asks for a field of root order 4m; a dense round reads
    # amplitudes, and the field is refused before the cyclotomic polynomial
    # is built
    solve_with(monkeypatch, method="dense")
    inst = write(tmp_path, "inst.json",
                 {"m": 10**9 + 7, "n": 1, "hidden_subgroup_generators": []})
    code = main(["hsp", "solve", inst])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        f"resource limit: field root order {4 * (10**9 + 7)} exceeds the hard limit "
        f"{state_module.ROOT_ORDER_LIMIT}"
    )


@pytest.mark.parametrize(
    "options",
    [{}, {"method": "dense"}, {"capture": lambda event, payload: None}],
    ids=["reduced", "dense", "captured"],
)
def test_reduced_exact_solve_builds_no_field(tmp_path, capsys, monkeypatch, options):
    # Z_1031^3 needs root order 4124, above the limit: a reduced round reads
    # no amplitude, so the exact solve runs; a dense round, or a capture hook
    # asking for amplitudes, still meets the limit
    solve_with(monkeypatch, **options)
    gens = [[1, 2, 3], [0, 5, 7]]
    inst = write(tmp_path, "inst.json", {"m": 1031, "n": 3, "hidden_subgroup_generators": gens})
    code = main(["--backend", "exact", "hsp", "solve", inst])
    captured = capsys.readouterr()
    if not options:
        assert code == 0
        report = json.loads(captured.out)
        assert report["order"] == 1031**2
        return
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("resource limit: field root order 4124 exceeds")


def test_float_draw_past_the_float_range_is_a_resource_limit(tmp_path, capsys):
    # Z_m^6 with m = 2^61 - 1 and H trivial: the reduced round's weights total
    # (2 m^6)^3, about 2^1101, which no float holds; the exact backend draws it
    inst = write(tmp_path, "inst.json",
                 {"m": 2**61 - 1, "n": 6, "hidden_subgroup_generators": []})
    assert main(["--backend", "float", "hsp", "solve", inst]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource limit: draw total exceeds the float range")
    code, report = run_cli(capsys, "hsp", "solve", inst)
    assert code == 0 and report["order"] == 1


def test_root_order_limit_admits_m_1009():
    # m = 1009 needs root order 4036; its field takes about 0.7 s and 60 MB
    # to build, so it is not built here
    from hspsim.hsp import _root_order

    assert _root_order(1009) == 4036 <= state_module.ROOT_ORDER_LIMIT


def test_assert_exact_requires_exact_backend(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 2, "n": 1, "hidden_subgroup_generators": []},
    )
    code = main(["--backend", "float", "hsp", "solve", inst, "--assert-exact"])
    assert code == 2


def test_assert_exact_refuses_a_label_table_above_the_support_limit(tmp_path, capsys):
    # Z_2^21 has 2^21 labels, twice the support limit: the check faults
    # before the table is built
    n = 21
    gens = [[int(i == j) for j in range(n)] for i in range(n)]
    inst = write(tmp_path, "inst.json", {"m": 2, "n": n, "hidden_subgroup_generators": gens})
    code = main(["hsp", "solve", inst, "--assert-exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "exceeds the hard limit" in captured.err


def test_support_limit_is_reported_as_a_resource_limit(tmp_path, capsys, monkeypatch):
    # the instance keeps every promise; only the simulator's support limit
    # (lowered here below the 36 labels of Z_6^2) stops it
    monkeypatch.setattr(state_module, "SUPPORT_LIMIT", 35)
    inst = write(tmp_path, "inst.json", {"m": 6, "n": 2, "hidden_subgroup_generators": [[2, 3]]})
    code = main(["hsp", "solve", inst, "--assert-exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("resource limit: support 36 exceeds the hard limit 35")


def test_hsp_solve_exponent_two_instance(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"m": 2, "k": 2, "n": 1, "hidden_subgroup_generators": [[2]]},
    )
    code, report = run_cli(capsys, "--mode", "deterministic", "hsp", "solve", inst)
    assert code == 0
    assert report["hnf"] == [[2]]
    assert report["stats"]["reduction_rounds"] <= 2


def test_group_derived_command(tmp_path, capsys):
    grp = write(
        tmp_path,
        "s3.json",
        {
            "kind": "permutation",
            "degree": 3,
            "m": 6,
            "generators": [[1, 0, 2], [1, 2, 0]],
        },
    )
    code, report = run_cli(capsys, "group", "derived", grp)
    assert code == 0
    chain = report["derived_series"]
    assert len(chain) == 3 and chain[-1] == []


def test_group_derived_builds_the_series_once(tmp_path, capsys):
    # the report's rounds are the series' and the derived chain's, no more
    a4 = {"kind": "permutation", "degree": 4, "m": 6,
          "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}
    grp = write(tmp_path, "a4.json", a4)
    _, series = run_cli(capsys, "--mode", "deterministic", "group", "series", grp)
    code, report = run_cli(capsys, "--mode", "deterministic", "group", "derived", grp)
    assert code == 0
    assert report["derived_series"] == [[201, 177], [177, 78], []]
    backend, m = load_group(a4)
    ctx = BlackboxContext(backend, m, mode="deterministic")
    built = build_polycyclic_series(backend, m, ctx)
    before = ctx.stats.rounds
    assert derived_chain(built, ctx) == report["derived_series"]
    chain_rounds = ctx.stats.rounds - before
    assert report["stats"]["rounds"] == series["stats"]["rounds"] + chain_rounds == 34


def test_group_decompose_with_normal_subgroup(tmp_path, capsys):
    # dihedral group on four points modulo its rotations: a two-element factor
    grp = write(
        tmp_path,
        "d4.json",
        {
            "kind": "permutation",
            "degree": 4,
            "m": 2,
            "generators": [[1, 2, 3, 0], [3, 2, 1, 0]],
            "normal_subgroup_generators": [[1, 2, 3, 0]],
        },
    )
    code, report = run_cli(capsys, "group", "decompose", grp)
    assert code == 0
    assert report["decomposition"]["factors"] == [2]


def test_console_script_entry_point():
    import subprocess, sys

    out = subprocess.run(
        [sys.executable, "-m", "hspsim.cli", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 0
    assert "gcd-combine" in out.stdout


def test_selftest_command(capsys):
    code, report = run_cli(capsys, "selftest")
    assert code == 0
    assert report["ok"] is True
    assert report["failures"] == []


def test_closed_pipe_keeps_the_exit_code(tmp_path):
    # a reader that closes the pipe early loses the report, but the run still
    # ends with the command's own exit code and no traceback
    import os, subprocess, sys

    inst = write(tmp_path, "inst.json",
                 {"m": 6, "k": 1, "n": 2, "hidden_subgroup_generators": [[2, 3]]})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hspsim.cli", "hsp", "solve", inst, "--assert-exact"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_float_scale_past_the_float_range_is_a_resource_limit(tmp_path, capsys):
    # at this seed the float backend's state scale overflows while the exact
    # backend finds order 12; the overflow is reported, not a traceback
    grp = write(tmp_path, "a4.json", {"kind": "permutation", "degree": 4, "m": 6,
                                      "generators": [[3, 0, 2, 1], [3, 2, 1, 0], [2, 0, 1, 3]]})
    assert main(["--backend", "float", "--seed", "6", "group", "order", grp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource limit:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mode", ["seeded", "deterministic"])
def test_group_decompose_rejects_a_nonabelian_quotient(tmp_path, capsys, mode):
    # S3 modulo the trivial subgroup: S3 is not abelian, so nothing is presented
    grp = write(tmp_path, "s3.json", {"kind": "permutation", "degree": 3, "m": 6,
                                      "generators": [[1, 0, 2], [1, 2, 0]],
                                      "normal_subgroup_generators": []})
    assert main(["--mode", mode, "group", "decompose", grp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("promise violation:")
