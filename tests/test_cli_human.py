"""Goldens kept out of `cli_cases.CASES`, which is also a benchmark workload.

- `golden/expected_human/<name>.out`: the stdout of every `--json` case of
  `CASES` and `OBSTRUCTED` run without `--json` (`validate_ok` without it
  is `validate_human`, already in `CASES`), and of the `WRITTEN` runs;
- `golden/expected_obstructed/<name>.out`: the JSON reports of `OBSTRUCTED`,
  an outer action whose degree-3 obstruction class is nonzero.

Human output is pinned byte for byte, as the JSON reports are.  `WRITTEN`
runs pass `-o written.json` and run in a temporary copy of the inputs, so
their `written to` lines name the same relative path on every run.  The
transform run moves the split datum by minus its splitting witness, so its
curvature prints as `rho = 0`.
"""

import json
import shutil
from pathlib import Path

import pytest

from cli_cases import CASES
from cli_run import INPUTS, run_cli

GOLDEN = Path(__file__).parent / "golden"

# kx4 = <x, v0 | v1, z> with [x,v0] = 2 v0, [x,v1] = 2 v1; abar(Q) is the class
# of the odd derivation x -> z, v0 -> v1, v1 -> v0, whose class in H^3 is (3)
OBSTRUCTED = [
    ("obstruction_nonvanishing",
     ["obstruction", "--g", "a01.json", "--h", "kx4.json",
      "--alpha-bar", "ab_a01_kx4.json", "--json"], 1),
    ("classify_obstructed",
     ["classify", "--g", "a01.json", "--h", "kx4.json",
      "--alpha-bar", "ab_a01_kx4.json", "--json"], 1),
]

HUMAN = [(name, [a for a in argv if a != "--json"], code)
         for name, argv, code in CASES + OBSTRUCTED
         if "--json" in argv and name != "validate_ok"]

WRITTEN = [
    ("out_written", ["out", "heis3.json", "-o", "written.json"], 0),
    ("build_written",
     ["build", "susy_datum.json", "--name", "susy_rebuilt", "-o", "written.json"], 0),
    ("transform_written",
     ["transform", "split_datum.json", "--witness", "b_flatten.json", "-o", "written.json"], 0),
    ("section_data_written",
     ["section-data", "--e", "susy_line.json", "--h", "a10.json", "--g", "a01.json",
      "--i", "i_susy.json", "--p", "p_susy.json", "--section", "s_susy.json",
      "-o", "written.json"], 0),
    ("pullback_written",
     ["pullback", "--g", "a10.json", "--h", "sl2.json", "--alpha-bar", "ab_a10_sl2.json",
      "-o", "written.json"], 0),
]


@pytest.mark.parametrize("name,argv,want_exit", OBSTRUCTED, ids=[c[0] for c in OBSTRUCTED])
def test_obstructed_golden(name, argv, want_exit):
    r = run_cli(argv)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (GOLDEN / "expected_obstructed" / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name,argv,want_exit", HUMAN, ids=[c[0] for c in HUMAN])
def test_human_golden(name, argv, want_exit):
    r = run_cli(argv)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (GOLDEN / "expected_human" / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name,argv,want_exit", WRITTEN, ids=[c[0] for c in WRITTEN])
def test_written_golden(name, argv, want_exit, tmp_path):
    work = tmp_path / "inputs"
    shutil.copytree(INPUTS, work)
    r = run_cli(argv, cwd=work)
    assert r.returncode == want_exit, r.stderr.decode()
    assert r.stdout == (GOLDEN / "expected_human" / f"{name}.out").read_bytes()
    assert (work / "written.json").is_file()


# g = h = a20 with alpha(u0) = E_00 and alpha(u1) = E_01: both operators are
# derivations of the abelian h, but [alpha(u0), alpha(u1)] = E_01 is not
# ad of any curvature, so `build` lists both ordered pairs and exits 1
REFUSED_DATUM = {"g": "a20.json", "h": "a20.json",
                 "alpha": [{"arg": "u0", "matrix": [["1", "0"], ["0", "0"]]},
                           {"arg": "u1", "matrix": [["0", "1"], ["0", "0"]]}]}
REFUSED = {
    "human": b"""datum fails the extension conditions:
  commutator defect on (u0,u1) is not ad of the curvature
  commutator defect on (u1,u0) is not ad of the curvature
""",
    "json": b"""{
  "command": "build",
  "failures": [
    "commutator defect on (u0,u1) is not ad of the curvature",
    "commutator defect on (u1,u0) is not ad of the curvature"
  ],
  "ok": false
}
""",
}


@pytest.mark.parametrize("form", sorted(REFUSED))
def test_build_refuses_a_datum_that_fails_check_datum(form, tmp_path):
    shutil.copy(INPUTS / "a20.json", tmp_path)
    (tmp_path / "bad_datum.json").write_text(json.dumps(REFUSED_DATUM))
    argv = ["build", "bad_datum.json"] + (["--json"] if form == "json" else [])
    r = run_cli(argv, cwd=tmp_path)
    assert r.returncode == 1, r.stderr.decode()
    assert r.stdout == REFUSED[form]
