"""File formats: exact round trips, canonical serialization, located errors."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from superext import formats
from superext.catalog import gl11, heis3, sl2, susy_line
from superext.formats import InvariantError, SchemaError

INPUTS = Path(__file__).parent / "golden" / "inputs"


def test_parse_rational_exact():
    assert formats.parse_rational("1/2", "x") == Fraction(1, 2)
    assert formats.parse_rational("-7", "x") == Fraction(-7)
    assert formats.parse_rational(3, "x") == Fraction(3)


def test_parse_rational_rejects():
    with pytest.raises(SchemaError):
        formats.parse_rational("1/0", "x")
    with pytest.raises(SchemaError):
        formats.parse_rational(0.5, "x")
    with pytest.raises(SchemaError):
        formats.parse_rational(True, "x")
    with pytest.raises(SchemaError):
        formats.parse_rational("0.5e3x", "x")
    # only "p" and "p/q" strings: the form is refused before Fraction builds 10**5000
    for text in ("1e5000", "1e999999999", "0.5", "1_000", " 1", "1/2 "):
        with pytest.raises(SchemaError):
            formats.parse_rational(text, "x")


def test_format_rational_past_the_int_string_limit():
    # str() refuses ints over 4300 digits; the exact digits must still come out
    big = 10 ** 5000
    assert formats.format_rational(Fraction(big)) == "1" + "0" * 5000
    assert formats.format_rational(Fraction(-big, 3)) == "-1" + "0" * 5000 + "/3"
    assert formats.format_rational(Fraction(7, big)) == "7/1" + "0" * 5000
    assert formats.format_rational(Fraction(-7, 2)) == "-7/2"


def test_algebra_round_trip_byte_identical():
    for alg in (susy_line(), sl2(), heis3(), gl11()):
        doc = formats.format_algebra("a", alg)
        text = formats.dump_json(doc)
        name, parsed = formats.parse_algebra(json.loads(text))
        assert parsed == alg
        assert formats.dump_json(formats.format_algebra(name, parsed)) == text


def test_corpus_files_round_trip():
    for path in sorted(INPUTS.glob("*.json")):
        doc = json.loads(path.read_text())
        if not (isinstance(doc, dict) and {"name", "basis"} <= set(doc)):
            continue
        try:
            name, alg = formats.parse_algebra(doc, where=path.name)
        except (SchemaError, InvariantError):
            continue  # deliberately broken corpus entries
        text1 = formats.dump_json(formats.format_algebra(name, alg))
        name2, alg2 = formats.parse_algebra(json.loads(text1))
        assert alg2 == alg and name2 == name
        assert formats.dump_json(formats.format_algebra(name2, alg2)) == text1


def test_antisymmetry_completion():
    doc = {
        "name": "x",
        "basis": [{"name": "P", "parity": 0}, {"name": "Q", "parity": 0},
                  {"name": "Z", "parity": 0}],
        "brackets": [{"left": "P", "right": "Q", "value": [{"basis": "Z", "coeff": "1"}]}],
    }
    _, alg = formats.parse_algebra(doc)
    assert alg.brackets[1][0] == (0, 0, -1)


def test_consistent_double_listing_accepted():
    doc = {
        "name": "x",
        "basis": [{"name": "P", "parity": 0}, {"name": "Q", "parity": 0},
                  {"name": "Z", "parity": 0}],
        "brackets": [
            {"left": "P", "right": "Q", "value": [{"basis": "Z", "coeff": "1"}]},
            {"left": "Q", "right": "P", "value": [{"basis": "Z", "coeff": "-1"}]},
        ],
    }
    _, alg = formats.parse_algebra(doc)
    assert alg.brackets[0][1] == (0, 0, 1)


def test_conflicting_double_listing_rejected():
    doc = {
        "name": "x",
        "basis": [{"name": "P", "parity": 0}, {"name": "Q", "parity": 0},
                  {"name": "Z", "parity": 0}],
        "brackets": [
            {"left": "P", "right": "Q", "value": [{"basis": "Z", "coeff": "1"}]},
            {"left": "Q", "right": "P", "value": [{"basis": "Z", "coeff": "1"}]},
        ],
    }
    with pytest.raises(InvariantError):
        formats.parse_algebra(doc)


def test_odd_pair_double_listing_uses_plus_sign():
    # odd-odd brackets are symmetric: [Q,R] = +[R,Q]
    doc = {
        "name": "x",
        "basis": [{"name": "Q", "parity": 1}, {"name": "R", "parity": 1},
                  {"name": "H", "parity": 0}],
        "brackets": [
            {"left": "Q", "right": "R", "value": [{"basis": "H", "coeff": "1"}]},
            {"left": "R", "right": "Q", "value": [{"basis": "H", "coeff": "1"}]},
        ],
    }
    _, alg = formats.parse_algebra(doc)
    assert alg.brackets[0][1] == alg.brackets[1][0] == (0, 0, 1)


def test_schema_errors_carry_location():
    with pytest.raises(SchemaError) as ex:
        formats.parse_algebra({"name": "x", "basis": [{"name": "a"}]}, where="f.json")
    assert "f.json.basis[0]" in str(ex.value)
    with pytest.raises(SchemaError) as ex:
        formats.parse_algebra({
            "name": "x",
            "basis": [{"name": "a", "parity": 0}],
            "brackets": [{"left": "a", "right": "a",
                          "value": [{"basis": "a", "coeff": "x/y"}]}],
        }, where="f.json")
    assert "brackets[0].value[0].coeff" in str(ex.value)


def test_duplicate_basis_names_rejected():
    with pytest.raises(SchemaError):
        formats.parse_algebra({
            "name": "x",
            "basis": [{"name": "a", "parity": 0}, {"name": "a", "parity": 1}],
        })


def test_map_homogeneity_is_invariant_error():
    from superext.gvs import SuperVectorSpace
    dom = ("d", SuperVectorSpace(("x",), (0,)))
    cod = ("c", SuperVectorSpace(("y",), (1,)))
    doc = {"domain": "d", "codomain": "c", "degree": 0, "matrix": [["1"]]}
    with pytest.raises(InvariantError):
        formats.parse_map(doc, dom, cod)


def test_map_wrong_shape_is_schema_error():
    from superext.gvs import SuperVectorSpace
    dom = ("d", SuperVectorSpace(("x",), (0,)))
    cod = ("c", SuperVectorSpace(("y",), (0,)))
    doc = {"domain": "d", "codomain": "c", "degree": 0, "matrix": [["1", "2"]]}
    with pytest.raises(SchemaError):
        formats.parse_map(doc, dom, cod)


def test_matrix_shape_refusals_count_one_in_the_singular():
    from superext.gvs import SuperVectorSpace
    one, two = SuperVectorSpace(("x",), (0,)), SuperVectorSpace(("y", "w"), (0, 0))
    for cod, matrix, line in ((one, [["1"], ["2"]], "m.matrix: expected 1 row"),
                              (two, [["1"]], "m.matrix: expected 2 rows"),
                              (one, [["1", "2"]], "m.matrix[0]: expected 1 entry")):
        doc = {"domain": "d", "codomain": "c", "degree": 0, "matrix": matrix}
        with pytest.raises(SchemaError) as ex:
            formats.parse_map(doc, ("d", one), ("c", cod), "m")
        assert str(ex.value) == line


def test_cochain_entries_round_trip():
    from superext.gvs import SuperVectorSpace
    src = SuperVectorSpace(("a", "q"), (0, 1))
    tgt = SuperVectorSpace(("w",), (0,))
    doc = {
        "source": "g", "target": "h", "arity": 2, "weight": 0,
        "entries": [{"args": ["q", "q"], "value": [{"basis": "w", "coeff": "1/3"}]}],
    }
    phi = formats.parse_cochain(doc, ("g", src), ("h", tgt))
    assert phi.value((1, 1)) == (Fraction(1, 3),)
    doc2 = formats.format_cochain(phi, "g", "h")
    assert formats.dump_json(doc2) == formats.dump_json(doc)


@pytest.mark.parametrize("bad", [1.0, 0.0, True, False, "1", None, 2, -1],
                         ids=["1.0", "0.0", "true", "false", "string", "null", "2", "-1"])
def test_parity_degree_and_weight_are_the_integers_0_and_1(bad):
    from superext.gvs import SuperVectorSpace
    with pytest.raises(SchemaError, match=r"^f\.json\.basis\[0\]\.parity: must be 0 or 1$"):
        formats.parse_algebra({"name": "x", "basis": [{"name": "a", "parity": bad}]},
                              where="f.json")
    line = ("l", SuperVectorSpace(("x",), (0,)))
    with pytest.raises(SchemaError, match=r"^map\.degree: must be 0 or 1$"):
        formats.parse_map({"domain": "l", "codomain": "l", "degree": bad, "matrix": [["1"]]},
                          line, line)
    doc = {"source": "l", "target": "l", "arity": 1, "weight": bad, "entries": []}
    with pytest.raises(SchemaError, match=r"^cochain\.weight: must be 0 or 1$"):
        formats.parse_cochain(doc, line, line)


@pytest.mark.parametrize("bad", [True, 1.0, -1, "1", None])
def test_cochain_arity_is_a_nonnegative_integer(bad):
    from superext.gvs import SuperVectorSpace
    line = ("l", SuperVectorSpace(("x",), (0,)))
    doc = {"source": "l", "target": "l", "arity": bad, "weight": 0, "entries": []}
    with pytest.raises(SchemaError, match=r"^cochain\.arity: must be a nonnegative integer$"):
        formats.parse_cochain(doc, line, line)


def test_serialized_coeffs_are_exact_strings():
    from superext.superlie import algebra_from_table
    alg = algebra_from_table(("a", "b"), (0, 0), {("a", "b"): {"a": Fraction(22, 7)}})
    doc = formats.format_algebra("x", alg)
    assert doc["brackets"][0]["value"][0]["coeff"] == "22/7"
