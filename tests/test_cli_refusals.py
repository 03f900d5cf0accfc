"""Refusals of CLI input, each run once in-process.

Every case changes one golden input (or writes a small map or module
file) so that exactly one check of the CLI, the file formats or the
library refuses it, and asserts the exit code, the one stderr line and an
empty stdout: 2 for a schema or usage error, 1 for an invariant violation
or a failed check.  One test calls the library for the refusal of
`validate_triple` that the CLI cannot reach, and the last one covers a
line of the human `classify` report that no golden prints.
"""

import json

import pytest

from cli_run import INPUTS, run_cli
from superext import formats
from superext.extensions import ExtensionTriple, validate_triple
from superext.gvs import linear_map
from test_cli import _write_changed as changed


def written(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def refused(argv, code, line):
    r = run_cli(argv)
    assert (r.returncode, r.stdout) == (code, b""), r.stderr
    assert r.stderr == (line + "\n").encode()


def map_doc(domain, codomain, *rows):
    return {"domain": domain, "codomain": codomain, "degree": 0,
            "matrix": [[str(x) for x in row] for row in rows]}


# ---------- the CLI's own checks ----------

# (e, h, g, inclusion, projection, section): each map is of degree 0, the
# section a right inverse of the projection, and each triple fails one check
NOT_EXACT = {
    "inclusion_not_injective": (
        "susy_line", "a10", "a01", map_doc("a10", "susy_line", [0], [0]),
        map_doc("susy_line", "a01", [0, 1]), map_doc("a01", "susy_line", [0], [1])),
    "dim_e_not_dim_h_plus_dim_g": (
        "susy_line", "a10", "a11", map_doc("a10", "susy_line", [1], [0]),
        map_doc("susy_line", "a11", [1, 0], [0, 1]), map_doc("a11", "susy_line", [1, 0], [0, 1])),
    "projection_after_inclusion_not_zero": (
        "a20", "a10", "a10", map_doc("a10", "a20", [1], [0]),
        map_doc("a20", "a10", [1, 1]), map_doc("a10", "a20", [0], [1])),
    "inclusion_not_a_homomorphism": (  # u0, u1 -> P, Q, but [P, Q] = Z
        "heis3", "a20", "a10", map_doc("a20", "heis3", [1, 0], [0, 1], [0, 0]),
        map_doc("heis3", "a10", [0, 0, 1]), map_doc("a10", "heis3", [0], [0], [1])),
}


@pytest.mark.parametrize("case", sorted(NOT_EXACT))
def test_section_data_refuses_maps_that_are_not_exact(case, tmp_path):
    e, h, g, incl, proj, section = NOT_EXACT[case]
    maps = [written(tmp_path, f"{k}.json", doc)
            for k, doc in (("i", incl), ("p", proj), ("s", section))]
    argv = ["section-data", "--e", f"{e}.json", "--h", f"{h}.json", "--g", f"{g}.json"]
    refused(argv + ["--i", maps[0], "--p", maps[1], "--section", maps[2], "--json"], 1,
            "check failed: the maps do not form an exact sequence of homomorphisms")


def test_validate_triple_refuses_a_projection_that_is_not_onto():
    # the CLI checks its section first, and p s = 1 makes p onto, so only
    # a triple without a section reaches this refusal
    load = {n: formats.parse_algebra(formats.load_json(str(INPUTS / f"{n}.json")))[1]
            for n in ("susy_line", "a10", "a01")}
    e, h, g = load["susy_line"], load["a10"], load["a01"]
    t = ExtensionTriple(h, g, e, linear_map(h.space, e.space, 0, ((1,), (0,))),
                        linear_map(e.space, g.space, 0, ((0, 0),)))
    assert validate_triple(t) is False


def test_cohomology_refuses_an_action_that_is_not_a_homomorphism(tmp_path):
    # on two even m0, m1: [E_00, E_01] = E_01, while [u0, u1] = 0
    def change(doc):
        doc["basis"][1]["parity"] = 0
        doc["action"] = [{"arg": "u0", "matrix": [["1", "0"], ["0", "0"]]},
                         {"arg": "u1", "matrix": [["0", "1"], ["0", "0"]]}]

    module = changed(tmp_path, "mod_m2_a20.json", change)
    refused(["cohomology", "a20.json", "--degree", "1", "--module", module, "--json"], 1,
            f"check failed: {module}: action is not a homomorphism on the pair (u0,u1)")


def test_equivalent_refuses_data_over_different_algebras():
    refused(["equivalent", "susy_datum.json", "split_datum.json", "--witness", "b_zero.json",
             "--json"], 2, "error: the two data live over different algebras")


@pytest.mark.parametrize("flags, line", [
    (["--witness", "b_split.json", "--solve-abelian"],
     "error: pass either --witness or --solve-abelian, not both"),
    ([], "error: pass --witness FILE or --solve-abelian"),
], ids=["both", "neither"])
def test_split_check_takes_exactly_one_of_its_flags(flags, line):
    refused(["split-check", "split_datum.json", *flags, "--json"], 2, line)


def test_outer_action_of_degree_one_refused(tmp_path):
    # Q -> the odd-shifted class of the even derivation of a10: homogeneous, but not degree 0
    def change(doc):
        doc["degree"], doc["matrix"] = 1, [["1"]]

    abar = changed(tmp_path, "ab_a01_a10.json", change)
    refused(["obstruction", "--g", "a01.json", "--h", "a10.json", "--alpha-bar", abar, "--json"],
            1, "check failed: abar must be a degree-0 map g -> out(h)")


# ---------- the file formats ----------

def test_bracket_listed_twice_refused(tmp_path):
    def change(doc):
        doc["brackets"].append(doc["brackets"][0])

    path = changed(tmp_path, "heis3.json", change)
    refused(["validate", path, "--json"], 1,
            f"invariant violation: {path}.brackets[1]: bracket [P,Q] listed twice")


def test_value_that_is_not_a_list_refused(tmp_path):
    def change(doc):
        doc["brackets"][0]["value"] = "Z"

    path = changed(tmp_path, "heis3.json", change)
    refused(["validate", path, "--json"], 2,
            f"error: {path}.brackets[0].value: must be a list of {{basis, coeff}} objects")


def test_map_matrix_with_the_wrong_number_of_rows_refused(tmp_path):
    def change(doc):
        doc["matrix"].append(["0", "0", "0"])

    witness = changed(tmp_path, "b_split.json", change)
    refused(["transform", "split_datum.json", "--witness", witness, "--json"], 2,
            f"error: {witness}.matrix: expected 1 row")


def datum_refused(tmp_path, change, code, line):
    """check-data on split_datum.json (g = sl2, h = a10) with `change` applied."""
    def both(doc):  # read from tmp_path, the datum names its algebras by absolute path
        doc["g"], doc["h"] = str(INPUTS / doc["g"]), str(INPUTS / doc["h"])
        change(doc)

    path = changed(tmp_path, "split_datum.json", both)
    refused(["check-data", path, "--json"], code, line.format(path=path))


def test_rho_entries_must_be_a_list(tmp_path):
    def change(doc):
        doc["rho"]["entries"] = {"args": ["E", "F"]}

    datum_refused(tmp_path, change, 2, "error: {path}.rho.entries: must be a list")


def test_cochain_arguments_of_the_wrong_number_refused(tmp_path):
    def change(doc):
        doc["rho"]["entries"][0]["args"] = ["E"]

    datum_refused(tmp_path, change, 2,
                  "error: {path}.rho.entries[0].args: expected 2 argument names")


def test_cochain_tuple_listed_twice_refused(tmp_path):
    def change(doc):
        doc["rho"]["entries"].append(doc["rho"]["entries"][0])

    datum_refused(tmp_path, change, 1,
                  "invariant violation: {path}.rho.entries[1].args: "
                  "tuple ['E', 'F'] listed twice")


def test_cochain_value_of_the_wrong_parity_refused(tmp_path):
    # over h = a01, rho(E, F) must be even, but Q is odd; the arguments
    # are named by their basis names, as every other refusal names them
    def change(doc):
        doc["h"] = str(INPUTS / "a01.json")
        doc["rho"]["entries"][0]["value"] = [{"basis": "Q", "coeff": "1"}]

    datum_refused(tmp_path, change, 1,
                  "invariant violation: {path}.rho.entries: value on (E,F) has a "
                  "parity-1 component but must lie in parity 0")


@pytest.mark.parametrize("alpha, code, line", [
    ([{"arg": "X", "matrix": [["0"]]}], 2,
     "error: {path}.alpha[0].arg: unknown basis element 'X'"),
    ([{"arg": "E", "matrix": [["0"]]}] * 2, 1,
     "invariant violation: {path}.alpha[1]: operator for 'E' listed twice"),
], ids=["unknown", "repeated"])
def test_operator_for_an_unknown_or_repeated_argument_refused(alpha, code, line, tmp_path):
    def change(doc):
        doc["alpha"] = alpha

    datum_refused(tmp_path, change, code, line)


def test_operator_matrix_that_is_not_homogeneous_refused(tmp_path):
    # u0 is even, so its operator on m0 | m1 has degree 0, but m1 -> m0 is odd
    def change(doc):
        doc["action"] = [{"arg": "u0", "matrix": [["0", "1"], ["0", "0"]]}]

    module = changed(tmp_path, "mod_m2_a20.json", change)
    refused(["cohomology", "a20.json", "--degree", "1", "--module", module, "--json"], 1,
            f"invariant violation: {module}.action[0].matrix: "
            "the entry from m1 to m0 violates homogeneity of degree 0")


# ---------- report branches ----------

def test_classify_reports_a_centerless_kernel():
    r = run_cli(["classify", "--g", "a10.json", "--h", "sl2.json",
                 "--alpha-bar", "ab_a10_sl2.json"])
    assert (r.returncode, r.stderr) == (0, b"")
    assert b"\n  kernel is centerless: the outer action alone determines the class\n" in r.stdout
