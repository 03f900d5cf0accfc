"""Record: the frozen value-record base every library record derives from."""

from fractions import Fraction

import pytest

from superext.catalog import heis3, sl2
from superext.cochains import Cochain
from superext.extensions import ExtensionTriple, build_extension, trivial_datum
from superext.gvs import SuperVectorSpace, linear_map


def _records():
    space = SuperVectorSpace(("x", "y"), (0, 1))
    zero, one = Fraction(0), Fraction(1)
    swap = linear_map(space, space, 1, ((zero, one), (one, zero)))
    phi = Cochain(space, space, 1, 1, (((0,), (0, 1)),))
    return space, swap, phi


def test_separately_built_records_are_equal_and_hash_equal():
    for a, b in zip(_records(), _records()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
    space = _records()[0]
    assert hash(space) == hash((space.names, space.parities))
    assert space != SuperVectorSpace(("x", "z"), (0, 1))
    assert space != ("x", "y") and space.__eq__(object()) is NotImplemented


def test_cached_property_does_not_change_equality_or_hash():
    read, fresh = _records()[2], _records()[2]
    assert read.value((0,)) == (0, 1)
    assert "_table" in vars(read)
    assert read == fresh and fresh == read and hash(read) == hash(fresh)


def test_fields_cannot_be_assigned_or_deleted():
    space = _records()[0]
    with pytest.raises(AttributeError):
        space.names = ("z",)
    with pytest.raises(AttributeError):
        del space.parities
    with pytest.raises(AttributeError):
        space.extra = 1
    assert space.names == ("x", "y")


def test_keywords_defaults_and_post_init():
    assert SuperVectorSpace(parities=(0,), names=("x",)) == SuperVectorSpace(("x",), (0,))
    with pytest.raises(ValueError):
        SuperVectorSpace(("x", "x"), (0, 0))
    built = build_extension(trivial_datum(sl2(), heis3()))
    bare = ExtensionTriple(built.h, built.g, built.e, built.incl, built.proj)
    assert built.section is not None and bare.section is None
    assert ExtensionTriple(built.h, built.g, built.e, built.incl, built.proj,
                           section=built.section) == built


@pytest.mark.parametrize("args,kw", [
    ((("x",),), {}),
    ((("x",), (0,), 1), {}),
    ((("x",), (0,)), {"colour": 1}),
    ((("x",),), {"names": ("x",), "parities": (0,)}),
], ids=["missing", "extra", "unknown_keyword", "given_twice"])
def test_wrong_arguments_raise_type_error(args, kw):
    with pytest.raises(TypeError):
        SuperVectorSpace(*args, **kw)


def test_repr_names_each_field():
    assert repr(SuperVectorSpace(("x",), (0,))) == "SuperVectorSpace(names=('x',), parities=(0,))"
