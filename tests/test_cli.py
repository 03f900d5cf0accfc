"""CLI golden files, exit codes, byte determinism, exact-rational reports.

The CLI runs in-process through `cli.main(argv)`; three tests start a real
`python -m superext.cli` child to cover the process boundary: one golden,
the environment variable and the usage error.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES
from cli_run import INPUTS, SRC, run_cli, run_cli_process
from superext import cli

EXPECTED = Path(__file__).parent / "golden" / "expected"


@pytest.mark.parametrize("name,argv,want_exit", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, want_exit):
    r = run_cli(argv)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (EXPECTED / f"{name}.out").read_bytes()


REDUCED = [(alg, n) for alg in ("gl11", "sl2") for n in range(5)]


@pytest.mark.parametrize("alg,n", REDUCED, ids=[f"{a}-h{n}" for a, n in REDUCED])
def test_golden_where_the_torus_reduction_acts(alg, n):
    # recorded before cohomology was computed on the torus-weight-0 block;
    # not in CASES, which is also a benchmark workload
    r = run_cli(["cohomology", f"{alg}.json", "--degree", str(n), "--json"])
    assert r.returncode == 0, r.stderr.decode()
    want = Path(__file__).parent / "golden" / "expected_reduced" / f"cohomology_{alg}_h{n}.out"
    assert r.stdout == want.read_bytes()


def test_golden_as_subprocess():
    name, argv, want_exit = next(c for c in CASES if c[0] == "cohomology_susy_h6")
    r = run_cli_process(argv)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (EXPECTED / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "name,argv,want_exit",
    [c for c in CASES if "--json" in c[1]][:8],
    ids=[c[0] for c in CASES if "--json" in c[1]][:8],
)
def test_json_reports_byte_stable(name, argv, want_exit):
    a = run_cli(argv)
    b = run_cli(argv)
    assert a.stdout == b.stdout


def test_no_decimal_numbers_anywhere():
    pat = re.compile(rb"\d+\.\d")
    for name, argv, _ in CASES:
        r = run_cli(argv)
        assert not pat.search(r.stdout), f"decimal number leaked in {name}"


def test_unknown_command_usage_exit_2():
    r = run_cli_process(["frobnicate"])
    assert r.returncode == 2
    assert b"usage" in r.stderr.lower() or b"invalid choice" in r.stderr


def test_no_command_exit_2():
    r = run_cli([])
    assert r.returncode == 2


def test_error_messages_name_the_field():
    r = run_cli(["validate", "badcoeff.json"])
    assert r.returncode == 2
    assert b"coeff" in r.stderr and b"1/0" in r.stderr
    r = run_cli(["validate", "conflict.json"])
    assert r.returncode == 1
    assert b"antisymmetry" in r.stderr


@pytest.mark.parametrize("coeff", ['"1e5000"', "1" + "0" * 5000],
                         ids=["exponent_string", "long_integer_literal"])
def test_oversized_coefficient_exit_2(coeff, tmp_path):
    # the string is refused by its form; the JSON integer, which is over
    # the interpreter's digit limit, while the file is read
    doc = {"name": "big", "basis": [{"name": "a", "parity": 0}, {"name": "b", "parity": 0}],
           "brackets": [{"left": "a", "right": "b", "value": [{"basis": "b", "coeff": "C"}]}]}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc).replace('"C"', coeff))
    r = run_cli(["derivations", str(p), "--json"], cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout == b"" and r.stderr.startswith(b"error: ")


def test_results_past_the_int_string_limit_are_emitted(tmp_path):
    # both coefficients pass the input rule; the derivations of [a,b] = 10^2500 b,
    # [a,c] = 10^-2500 c have entries of 5001 digits, over the interpreter's
    # 4300-digit limit on converting an int to a string
    big = "1" + "0" * 2500
    doc = {"name": "wide", "basis": [{"name": x, "parity": 0} for x in "abc"],
           "brackets": [{"left": "a", "right": x, "value": [{"basis": x, "coeff": c}]}
                        for x, c in (("b", big), ("c", "1/" + big))]}
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(doc))
    for json_flag in (True, False):
        r = run_cli(["derivations", str(p)] + ["--json"] * json_flag, cwd=tmp_path)
        assert (r.returncode, r.stderr) == (0, b"")
        assert b"1/1" + b"0" * 5000 in r.stdout
        if json_flag:
            assert json.loads(r.stdout)["dim"] > 0


# A child interpreter runs one command in-process and reports the modules it loaded.
FOOTPRINT = """
import contextlib, io, json, sys
from superext import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv,absent", [
    (["validate", "susy_line.json"],
     {"dataclasses", "superext.cochains", "superext.extensions", "superext.cohomology"}),
    (["check-data", "susy_datum.json"], {"superext.cohomology"}),
], ids=["validate", "check-data"])
def test_command_imports_only_its_layers(argv, absent):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], cwd=INPUTS,
                       capture_output=True, env=env, check=True)
    code, loaded = json.loads(r.stdout)
    assert code == 0
    assert absent.isdisjoint(loaded)


def test_missing_file_exit_2():
    r = run_cli(["validate", "no_such_file.json"])
    assert r.returncode == 2


def test_build_output_file_round_trips(tmp_path):
    out = tmp_path / "built.json"
    r = run_cli(["build", str(INPUTS / "susy_datum.json"), "--name", "susy_rebuilt",
                 "-o", str(out), "--json"], cwd=tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert json.loads(out.read_text()) == report["algebra"]
    # the written file validates
    r2 = run_cli(["validate", str(out)], cwd=tmp_path)
    assert r2.returncode == 0


def test_transform_output_feeds_back(tmp_path):
    out = tmp_path / "moved.json"
    r = run_cli(["transform", str(INPUTS / "split_datum.json"),
                 "--witness", str(INPUTS / "b_split.json"), "-o", str(out)])
    assert r.returncode == 0
    # the emitted datum still references the same algebras and checks out
    r2 = run_cli(["check-data", str(out)])
    assert r2.returncode == 0, r2.stderr.decode()
    # and the original datum is equivalent to it via the same witness
    r3 = run_cli(["equivalent", str(INPUTS / "split_datum.json"), str(out),
                  "--witness", str(INPUTS / "b_split.json")])
    assert r3.returncode == 0


def test_out_output_is_valid_algebra_file(tmp_path):
    out = tmp_path / "out_heis3.json"
    r = run_cli(["out", str(INPUTS / "heis3.json"), "-o", str(out)])
    assert r.returncode == 0
    r2 = run_cli(["validate", str(out)], cwd=tmp_path)
    assert r2.returncode == 0


def test_dimension_guard(tmp_path):
    doc = {
        "name": "big",
        "basis": [{"name": f"x{i}", "parity": 0} for i in range(13)],
        "brackets": [],
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["validate", str(p)], cwd=tmp_path)
    assert r.returncode == 2
    r2 = run_cli(["validate", str(p), "--allow-large"], cwd=tmp_path)
    assert r2.returncode == 0


def test_arity_cap_env_var(tmp_path):
    r = run_cli_process(["cohomology", "a01.json", "--degree", "6"], SUPEREXT_ARITY_CAP="3")
    assert r.returncode == 2
    assert b"cap" in r.stderr
    r2 = run_cli_process(["cohomology", "a01.json", "--degree", "3"], SUPEREXT_ARITY_CAP="3")
    assert r2.returncode == 0


def test_arity_cap_is_read_per_call(monkeypatch):
    # the cap lives in one `main` call: a later call without the variable
    # gets the default back
    monkeypatch.setenv("SUPEREXT_ARITY_CAP", "3")
    r = run_cli(["cohomology", "a01.json", "--degree", "6"])
    assert r.returncode == 2
    assert r.stderr == b"error: --degree must lie in 0..3 (the arity cap)\n"
    monkeypatch.delenv("SUPEREXT_ARITY_CAP")
    r2 = run_cli(["cohomology", "a01.json", "--degree", "6"])
    assert r2.returncode == 0, r2.stderr.decode()


@pytest.mark.parametrize("name", ["obstruction", "transform"])
def test_arity_cap_bounds_only_the_cohomology_degree(name, monkeypatch):
    # commands without a degree ignore the cap, however small
    monkeypatch.setenv("SUPEREXT_ARITY_CAP", "0")
    argv, want_exit = next((c[1], c[2]) for c in CASES if c[0] == name)
    r = run_cli(argv)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (EXPECTED / f"{name}.out").read_bytes()


@pytest.mark.parametrize("value", ["x", "-1", "2.5"])
def test_arity_cap_env_var_must_be_a_nonnegative_integer(value, monkeypatch):
    monkeypatch.setenv("SUPEREXT_ARITY_CAP", value)
    r = run_cli(["validate", "susy_line.json"])
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr == (f"error: SUPEREXT_ARITY_CAP must be a nonnegative integer, "
                        f"got {value!r}\n").encode()


def test_section_data_rejects_non_section():
    # the projection itself is not a section: wrong domain name
    r = run_cli(["section-data", "--e", "susy_line.json", "--h", "a10.json",
                 "--g", "a01.json", "--i", "i_susy.json", "--p", "p_susy.json",
                 "--section", "p_susy.json"])
    assert r.returncode == 2  # domain/codomain names do not match


def test_cochain_non_canonical_tuple_rejected(tmp_path):
    doc = {
        "g": str(INPUTS / "a20.json"), "h": str(INPUTS / "a10.json"),
        "alpha": [],
        "rho": {"entries": [{"args": ["u1", "u0"],
                             "value": [{"basis": "H", "coeff": "1"}]}]},
    }
    p = tmp_path / "bad_datum.json"
    p.write_text(json.dumps(doc))
    r = run_cli(["check-data", str(p)], cwd=tmp_path)
    assert r.returncode == 1
    assert b"canonical" in r.stderr


def test_datum_with_bad_refs_is_schema_error(tmp_path):
    p = tmp_path / "bad1.json"
    p.write_text(json.dumps({"g": 7, "h": "a10.json"}))
    r = run_cli(["check-data", str(p)], cwd=tmp_path)
    assert r.returncode == 2
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps([1, 2, 3]))
    r2 = run_cli(["check-data", str(p2)], cwd=tmp_path)
    assert r2.returncode == 2
    p3 = tmp_path / "bad3.json"
    p3.write_text(json.dumps({"g": str(INPUTS / "a20.json"),
                              "h": str(INPUTS / "a10.json"), "rho": [1]}))
    r3 = run_cli(["check-data", str(p3)], cwd=tmp_path)
    assert r3.returncode == 2


def test_unreadable_and_unwritable_paths_exit_2(tmp_path):
    # a directory or undecodable bytes where a file is read, and a
    # directory where one is written: exit 2 naming the path, no traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    for argv in (["validate", str(tmp_path)],
                 ["validate", str(bad)],
                 ["out", str(INPUTS / "heis3.json"), "-o", str(tmp_path)]):
        r = run_cli(argv, cwd=tmp_path)
        assert r.returncode == 2, argv
        assert r.stdout == b""
        assert r.stderr.startswith(b"error: " + str(argv[-1]).encode() + b": "), r.stderr


@pytest.mark.parametrize("g,h", [("broken.json", "a10.json"), ("a10.json", "broken.json")])
def test_datum_over_an_invalid_algebra_exit_1(g, h, tmp_path):
    # g or h fails validate_algebra: every datum command refuses it up front
    p = tmp_path / "datum.json"
    p.write_text(json.dumps({"g": str(INPUTS / g), "h": str(INPUTS / h)}))
    witness = str(INPUTS / "b_zero.json")
    for argv in (["check-data", str(p)],
                 ["build", str(p)],
                 ["transform", str(p), "--witness", witness],
                 ["equivalent", str(p), str(p), "--witness", witness],
                 ["split-check", str(p), "--solve-abelian"],
                 ["split-check", str(p), "--witness", witness]):
        r = run_cli(argv + ["--json"], cwd=tmp_path)
        assert r.returncode == 1, (argv, r.stderr)
        assert r.stdout == b""
        assert r.stderr.startswith(b"check failed: "), r.stderr
        assert b"not a valid super Lie algebra" in r.stderr


@pytest.mark.parametrize("argv", [
    ["center", "broken.json"],
    ["derivations", "broken.json"],
    ["out", "broken.json"],
    ["cohomology", "broken.json", "--degree", "1"],
    ["obstruction", "--g", "broken.json", "--h", "a10.json", "--alpha-bar", "ab_a01_a10.json"],
    ["classify", "--g", "a01.json", "--h", "broken.json", "--alpha-bar", "ab_a01_a10.json"],
])
def test_commands_on_an_invalid_algebra_exit_1(argv):
    r = run_cli(argv + ["--json"])
    assert r.returncode == 1, r.stderr
    assert r.stdout == b""
    assert r.stderr == f"check failed: {argv[argv.index('broken.json')]}: ".encode() \
        + b"not a valid super Lie algebra\n"


def test_deeply_nested_json_exit_2(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    r = run_cli(["validate", str(p)], cwd=tmp_path)
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr.startswith(b"error: " + str(p).encode() + b": "), r.stderr


def test_fuzzed_inputs_never_traceback(tmp_path):
    # mutate a valid algebra file in deterministic ways; the CLI must exit
    # 0/1/2 with a clean message, never a traceback
    import random
    base = json.loads((INPUTS / "susy_line.json").read_text())
    rng = random.Random(99)
    junk = [None, True, 3.5, "", "x", [], {}, -1, [{"weird": 1}], "1/0"]

    def mutate(doc):
        doc = json.loads(json.dumps(doc))
        path = []
        node = doc
        while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
            key = rng.choice(sorted(node) if isinstance(node, dict)
                             else range(len(node)))
            path.append(key)
            node = node[key]
        if not path:
            return rng.choice(junk)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(junk)
        return doc

    for i in range(60):
        doc = mutate(base)
        p = tmp_path / f"fuzz{i}.json"
        p.write_text(json.dumps(doc))
        r = run_cli(["validate", str(p)], cwd=tmp_path)
        assert r.returncode in (0, 1, 2), r.stderr.decode()
        assert b"Traceback" not in r.stderr, (doc, r.stderr.decode())


@pytest.mark.parametrize("name", ["obstruction", "classify", "pullback",
                                  "pullback_center_refused"])
def test_out_built_once_per_command(name, monkeypatch, capsys):
    # in-process: abar is typed by the same out(h) the library call uses,
    # so each command solves der(h) exactly once
    from superext import superlie

    argv, want_exit = next((c[1], c[2]) for c in CASES if c[0] == name)
    calls = []
    fn = superlie.derivations

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "superext" and vars(mod).get("derivations") is fn:
            monkeypatch.setattr(mod, "derivations", counted)
    monkeypatch.chdir(INPUTS)
    assert cli.main(argv) == want_exit
    assert capsys.readouterr().out.encode() == (EXPECTED / f"{name}.out").read_bytes()
    assert len(calls) == 1


def test_build_checks_a_valid_datum_once(monkeypatch, capsys):
    # `build` runs `check_datum` once, inside `build_extension`; the report
    # of a failing datum is the one place that reads it again
    from superext import extensions

    argv, want_exit = next((c[1], c[2]) for c in CASES if c[0] == "build")
    calls = []
    fn = extensions.check_datum

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(extensions, "check_datum", counted)
    monkeypatch.chdir(INPUTS)
    assert argv[:2] == ["build", "susy_datum.json"] and "--json" in argv
    assert cli.main(argv) == want_exit
    assert capsys.readouterr().out.encode() == (EXPECTED / "build.out").read_bytes()
    assert len(calls) == 1


def _write_changed(tmp_path, name, change):
    """A golden input file with one field changed by `change(doc)`, written to tmp_path."""
    doc = json.loads((INPUTS / name).read_text())
    change(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("argv", [["validate"], ["cohomology", "--degree", "2"]],
                         ids=["validate", "cohomology"])
def test_float_parity_exit_2(argv, tmp_path):
    # 1.0 == 1, but only the JSON integers 0 and 1 are parities: a float
    # parity used to pass, and reach the cochain layer as a list index
    def change(doc):
        doc["basis"][1]["parity"] = 1.0

    path = _write_changed(tmp_path, "susy_line.json", change)
    r = run_cli([argv[0], path, *argv[1:]], cwd=tmp_path)
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == f"error: {path}.basis[1].parity: must be 0 or 1\n".encode()


@pytest.mark.parametrize("command", ["transform", "split-check"])
def test_float_map_degree_exit_2(command, tmp_path):
    def change(doc):
        doc["degree"] = 0.0

    witness = _write_changed(tmp_path, "b_split.json", change)
    r = run_cli([command, "split_datum.json", "--witness", witness])
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == f"error: {witness}.degree: must be 0 or 1\n".encode()


@pytest.mark.parametrize("argv", [["transform", "split_datum.json"],
                                  ["equivalent", "split_datum.json", "split_datum.json"],
                                  ["split-check", "split_datum.json"]],
                         ids=["transform", "equivalent", "split-check"])
def test_odd_witness_exit_2(argv, tmp_path):
    # a witness is degree 0: an odd one ended in a traceback in equivalent and split-check
    def change(doc):
        doc["degree"], doc["matrix"] = 1, [["0", "0", "0"]]

    witness = _write_changed(tmp_path, "b_split.json", change)
    r = run_cli([*argv, "--witness", witness])
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == f"error: {witness}: witness must be degree 0\n".encode()


def test_split_check_refuses_a_datum_that_fails_check_data(tmp_path):
    # on the abelian a20, [alpha_u0, alpha_u1] = alpha_u1 is not ad of rho = 0:
    # check-data fails the datum, and split-check exits 1 naming that
    # failure on both paths (a traceback, and a witness "found", before)
    a20 = str(INPUTS / "a20.json")
    datum = tmp_path / "bad.json"
    datum.write_text(json.dumps({
        "g": a20, "h": a20, "rho": {"entries": []},
        "alpha": [{"arg": "u0", "matrix": [["1", "0"], ["0", "0"]]},
                  {"arg": "u1", "matrix": [["0", "1"], ["0", "0"]]}]}))
    zero = tmp_path / "b0.json"
    zero.write_text(json.dumps({"domain": "a20", "codomain": "a20", "degree": 0,
                                "matrix": [["0", "0"], ["0", "0"]]}))
    assert run_cli(["check-data", str(datum)], cwd=tmp_path).returncode == 1
    for how in (["--witness", str(zero)], ["--solve-abelian"]):
        r = run_cli(["split-check", str(datum), *how, "--json"], cwd=tmp_path)
        assert (r.returncode, r.stdout) == (1, b""), (how, r.stderr)
        assert r.stderr.startswith(b"check failed: datum fails the extension conditions: "
                                   b"commutator defect on (u0,u1) is not ad of the curvature"), r.stderr


@pytest.mark.parametrize("name", [5, ["x"], {"a": 1}, None], ids=["int", "list", "object", "null"])
def test_module_name_must_be_a_string_exit_2(name, tmp_path):
    # as for an algebra's name: a module's name used to be echoed back as given
    def change(doc):
        doc["name"] = name

    module = _write_changed(tmp_path, "mod_m2_a20.json", change)
    r = run_cli(["cohomology", "a20.json", "--degree", "1", "--module", module])
    assert (r.returncode, r.stdout) == (2, b"")
    assert r.stderr == f"error: {module}.name: must be a string\n".encode()


# Each subcommand's argparse actions as (option strings, dest, required, type,
# action class, default, help), recorded before the subcommands were declared
# in one table.  Attributes, not the rendered help, so the spec reads the same
# on every supported Python.
HELP = (("-h", "--help"), "help", False, None, "_HelpAction", argparse.SUPPRESS,
        "show this help message and exit")
JSON = (("--json",), "json", False, None, "_StoreTrueAction", False, "machine-readable report")
ALLOW_LARGE = (("--allow-large",), "allow_large", False, None, "_StoreTrueAction", False,
               "lift the dimension guard (default max 12)")
PARSER_SPEC = [
    ("", None, [
        HELP,
        (("--version",), "version", False, None, "_VersionAction", argparse.SUPPRESS,
         "show program's version number and exit"),
        ((), "command", False, None, "_SubParsersAction", None, None),
    ]),
    ("validate", "check the super Lie algebra axioms", [
        HELP,
        ((), "algebra", True, None, "_StoreAction", None, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("center", "basis of the graded center", [
        HELP,
        ((), "algebra", True, None, "_StoreAction", None, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("derivations", "basis of der(h), inner members flagged", [
        HELP,
        ((), "algebra", True, None, "_StoreAction", None, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("out", "the quotient out(h) = der(h)/ad(h)", [
        HELP,
        ((), "algebra", True, None, "_StoreAction", None, None),
        (("-o", "--output"), "output", False, None, "_StoreAction", None,
         "write out(h) as an algebra file"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("cohomology", "graded Chevalley cohomology, split by weight", [
        HELP,
        ((), "algebra", True, None, "_StoreAction", None, None),
        (("--degree",), "degree", True, "int", "_StoreAction", None, None),
        (("--module",), "module", False, None, "_StoreAction", None,
         "module file (default: trivial line)"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("section-data", "connection and curvature of a section", [
        HELP,
        (("--e",), "e", True, None, "_StoreAction", None, "total algebra file"),
        (("--h",), "h", True, None, "_StoreAction", None, "kernel algebra file"),
        (("--g",), "g", True, None, "_StoreAction", None, "quotient algebra file"),
        (("--i",), "i", True, None, "_StoreAction", None, "inclusion map file h -> e"),
        (("--p",), "p", True, None, "_StoreAction", None, "projection map file e -> g"),
        (("--section",), "section", True, None, "_StoreAction", None, "section map file g -> e"),
        (("-o", "--output"), "output", False, None, "_StoreAction", None,
         "write the induced datum file"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("check-data", "extension-data conditions with residuals", [
        HELP,
        ((), "datum", True, None, "_StoreAction", None, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("build", "build the extension algebra from a datum", [
        HELP,
        ((), "datum", True, None, "_StoreAction", None, None),
        (("-o", "--output"), "output", False, None, "_StoreAction", None,
         "write the built algebra file"),
        (("--name",), "name", False, None, "_StoreAction", None, "name for the built algebra"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("transform", "move a datum by a witness b: g -> h", [
        HELP,
        ((), "datum", True, None, "_StoreAction", None, None),
        (("--witness",), "witness", True, None, "_StoreAction", None,
         "map file g -> h of degree 0"),
        (("-o", "--output"), "output", False, None, "_StoreAction", None,
         "write the transformed datum file"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("equivalent", "check a witness between two data", [
        HELP,
        ((), "datum", True, None, "_StoreAction", None, None),
        ((), "datum2", True, None, "_StoreAction", None, None),
        (("--witness",), "witness", True, None, "_StoreAction", None, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("split-check", "splitting witnesses; linear solver for abelian kernels", [
        HELP,
        ((), "datum", True, None, "_StoreAction", None, None),
        (("--witness",), "witness", False, None, "_StoreAction", None, None),
        (("--solve-abelian",), "solve_abelian", False, None, "_StoreTrueAction", False, None),
        JSON,
        ALLOW_LARGE,
    ]),
    ("obstruction", "degree-3 obstruction class of an outer action", [
        HELP,
        (("--g",), "g", True, None, "_StoreAction", None, None),
        (("--h",), "h", True, None, "_StoreAction", None, None),
        (("--alpha-bar",), "alpha_bar", True, None, "_StoreAction", None,
         "map file g -> out(h) of degree 0"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("classify", "classification of extensions inducing an outer action", [
        HELP,
        (("--g",), "g", True, None, "_StoreAction", None, None),
        (("--h",), "h", True, None, "_StoreAction", None, None),
        (("--alpha-bar",), "alpha_bar", True, None, "_StoreAction", None,
         "map file g -> out(h) of degree 0"),
        JSON,
        ALLOW_LARGE,
    ]),
    ("pullback", "pullback extension for a centerless kernel", [
        HELP,
        (("--g",), "g", True, None, "_StoreAction", None, None),
        (("--h",), "h", True, None, "_StoreAction", None, None),
        (("--alpha-bar",), "alpha_bar", True, None, "_StoreAction", None,
         "map file g -> out(h) of degree 0"),
        (("-o", "--output"), "output", False, None, "_StoreAction", None,
         "write the pullback algebra file"),
        (("--name",), "name", False, None, "_StoreAction", None, "name for the pullback algebra"),
        JSON,
        ALLOW_LARGE,
    ]),
]


def _actions(parser):
    return [(tuple(a.option_strings), a.dest, a.required, getattr(a.type, "__name__", a.type),
             type(a).__name__, a.default, a.help) for a in parser._actions]


def test_parser_spec_is_pinned():
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = [("", None, _actions(parser))] + [
        (c.dest, c.help, _actions(sub.choices[c.dest])) for c in sub._choices_actions]
    assert got == PARSER_SPEC
