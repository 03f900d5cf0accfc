"""Refusals of the public library entry points that no CLI input reaches.

Each case builds the smallest bad argument for one `ValueError` check of
the library and asserts the exception type and its whole message.  The
CLI's own refusals are in `test_cli_refusals.py`; internal faults
(`RuntimeError`) cannot be reached from valid arithmetic and have no case.
"""

import pytest

from superext import formats
from superext.catalog import abelian, heis3, sl2, susy_line
from superext.cochains import (
    TRIVIAL_LINE,
    Cochain,
    canonical_tuples,
    cochain_from_coordinates,
    covariant_delta,
    make_cochain,
    multigraded_sign,
    nr_bracket,
    wedge,
    zero_ops,
)
from superext.cohomology import cohomology_space, gmodule, trivial_module
from superext.extensions import (
    ExtensionDatum,
    ExtensionTriple,
    canonical_section,
    induced_data,
    transform_datum,
    trivial_datum,
    witness_cochain,
)
from superext.gvs import GradedLinearMap, SuperVectorSpace, linear_map
from superext.superlie import (
    SuperLieAlgebra,
    ad,
    is_homomorphism,
    make_algebra,
)

G, H = sl2(), heis3()
LINE, ODD = TRIVIAL_LINE, SuperVectorSpace(("q",), (1,))
ZERO, IDENTITY = GradedLinearMap.zero, GradedLinearMap.identity_map
KER, BASE, SUSY = abelian(1, 0, "k").space, abelian(0, 1, "q").space, susy_line().space


def one_form(source, target=LINE):
    """A nonzero weight-0 1-cochain valued in `target`, on the first basis element."""
    return make_cochain(source.space, target, 1, 0, {(0,): (1,) + (0,) * (target.dim - 1)})


def susy_triple(**changed):
    """The triple of susy_line (H central, Q odd) over the odd line, incl H and proj Q,
    with the fields in `changed` replaced."""
    fields = {"h": abelian(1, 0, "k"), "g": abelian(0, 1, "q"), "e": susy_line(),
              "incl": linear_map(KER, SUSY, 0, ((1,), (0,))),
              "proj": linear_map(SUSY, BASE, 0, ((0, 1),))}
    return ExtensionTriple(**{**fields, **changed})


def not_exact():
    """sl2 = span(E) + span(H, F), read as 0 -> A(1|0) -> sl2 -> A(2|0) -> 0: H -> a0,
    F -> a1 and E spans the kernel.  span(E) is not an ideal, as [F, E] = -H."""
    g = abelian(2, 0)
    incl = linear_map(KER, G.space, 0, ((0,), (1,), (0,)))
    proj = linear_map(G.space, g.space, 0, ((1, 0, 0), (0, 0, 1)))
    section = linear_map(g.space, G.space, 0, ((1, 0), (0, 0), (0, 1)))
    return induced_data(ExtensionTriple(abelian(1, 0, "k"), g, G, incl, proj, section))


def datum_with(rho):
    return ExtensionDatum(G, abelian(1, 0, "k"), zero_ops(G.space, KER), rho)


CASES = {
    # gvs
    "space names and parities of different lengths":
        (lambda: SuperVectorSpace(("a", "b"), (0,)), "names and parities differ in length"),
    "compose maps whose spaces do not meet":
        (lambda: IDENTITY(G.space).compose(IDENTITY(H.space)),
         "composition: domains do not match"),
    "add maps of different spaces":
        (lambda: IDENTITY(G.space) + IDENTITY(H.space), "maps not addable"),
    "linear_map of a matrix not m x n":
        (lambda: linear_map(G.space, LINE, 0, ((1, 0),)), "the matrix is not 1 x 3"),
    # superlie
    "algebra table not dim x dim":
        (lambda: SuperLieAlgebra(LINE, (1, ())), "bracket table must be dim x dim"),
    "make_algebra value of the wrong length":
        (lambda: make_algebra(LINE, {(0, 0): (1, 2)}), "bracket value has wrong length"),
    "ad of an even element at degree 1":
        (lambda: ad(G, (1, 0, 0), degree=1), "element has parity 0, not 1"),
    "is_homomorphism of a map between other algebras":
        (lambda: is_homomorphism(IDENTITY(G.space), H, H),
         "map does not connect the given algebras"),
    # cochains
    "multigraded_sign of a parity word not 0/1":
        (lambda: multigraded_sign((1, 0), (0, 2)), "parity word entries must be 0 or 1"),
    "canonical_tuples of negative arity":
        (lambda: canonical_tuples(G.space, -1), "arity must be >= 0"),
    "Cochain of negative arity":
        (lambda: Cochain(G.space, LINE, -1, 0, ()), "arity must be >= 0"),
    "Cochain tuple of the wrong length":
        (lambda: Cochain(G.space, LINE, 2, 0, (((0,), (1,)),)), "tuple (0,) has wrong length"),
    "Cochain lists a tuple twice":
        (lambda: Cochain(G.space, LINE, 1, 0, (((0,), (1,)), ((0,), (2,)))),
         "duplicate tuple (0,)"),
    "Cochain value of the wrong length":
        (lambda: Cochain(G.space, LINE, 1, 0, (((0,), (1, 1)),)), "value has wrong length"),
    "cochain sum over different spaces":
        (lambda: one_form(G) + one_form(H), "cochains live in different spaces"),
    "cochain_from_coordinates of the wrong length":
        (lambda: cochain_from_coordinates(G.space, LINE, 1, 0, [((0,), 0)], (1, 2)),
         "coordinate vector and basis differ in length"),
    "wedge of forms on different sources":
        (lambda: wedge(one_form(G), one_form(H)), "wedge factors have different sources"),
    "nr_bracket of values outside the algebra":
        (lambda: nr_bracket(one_form(G), one_form(G), G),
         "bracket requires both cochains valued in the given algebra"),
    "nr_bracket of different sources":
        (lambda: nr_bracket(one_form(G, G.space), one_form(H, G.space), G),
         "bracket factors have different sources"),
    "operators fewer than the basis of g":
        (lambda: gmodule(G, LINE, zero_ops(H.space, LINE)[:2]),
         "need one operator per basis element of g"),
    "operator not on the target space":
        (lambda: gmodule(G, LINE, (ZERO(ODD, ODD),) + zero_ops(G.space, LINE)[1:]),
         "operator 0 does not act on the target space"),
    "covariant_delta of a cochain on another algebra":
        (lambda: covariant_delta(G, zero_ops(G.space, LINE), one_form(H)),
         "cochain source does not match the algebra"),
    # cohomology
    "cohomology of a module over another algebra":
        (lambda: cohomology_space(G, trivial_module(H), 1), "module is over a different algebra"),
    # extensions
    "datum rho not g^2 -> h":
        (lambda: datum_with(make_cochain(H.space, KER, 2, 0)),
         "rho must map g^2 to h"),
    "datum rho of arity 1":
        (lambda: datum_with(make_cochain(G.space, KER, 1, 0)),
         "rho must have arity 2 and weight 0"),
    "triple inclusion not h -> e":
        (lambda: susy_triple(incl=ZERO(BASE, SUSY)), "inclusion must map h into e"),
    "triple projection not e -> g":
        (lambda: susy_triple(proj=ZERO(SUSY, KER)), "projection must map e onto g"),
    "triple inclusion of degree 1":
        (lambda: susy_triple(incl=ZERO(KER, SUSY, 1)), "inclusion and projection must be degree 0"),
    "triple section of degree 1":
        (lambda: susy_triple(section=ZERO(BASE, SUSY, 1)), "section must be a degree-0 map g -> e"),
    "canonical_section of a projection that is not onto":
        (lambda: canonical_section(susy_triple(proj=ZERO(SUSY, BASE))),
         "projection is not surjective"),
    "induced_data with no section":
        (lambda: induced_data(susy_triple()), "the triple carries no section; pass one"),
    "induced_data of a kernel that is not an ideal":
        (not_exact, "[s(a1), h] leaves the kernel: the sequence is not exact"),
    "witness_cochain of a degree-1 map":
        (lambda: witness_cochain(ZERO(LINE, ODD, 1)), "witness must be degree 0"),
    "transform_datum by a witness not g -> h":
        (lambda: transform_datum(trivial_datum(G, H), ZERO(H.space, H.space)),
         "witness must map g to h"),
}

PARSE_CASES = {
    "parse_cochain source name mismatch":
        ({"source": "x", "target": "h"}, "cochain.source: expected 'g', got 'x'"),
    "parse_cochain target name mismatch":
        ({"source": "g", "target": "x"}, "cochain.target: expected 'h', got 'x'"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_refusal(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as ex:
        call()
    assert type(ex.value) is ValueError
    assert str(ex.value) == message


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_cochain_refuses_other_names(name):
    doc, message = PARSE_CASES[name]
    doc = {**doc, "arity": 1, "weight": 0, "entries": []}
    with pytest.raises(formats.SchemaError) as ex:
        formats.parse_cochain(doc, ("g", G.space), ("h", H.space))
    assert str(ex.value) == message

