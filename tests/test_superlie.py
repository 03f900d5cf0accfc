"""Structure constants, validation, ad, center, derivations, out, homs."""

from fractions import Fraction

import pytest

from superext.catalog import abelian, gl11, heis3, osp12, sl2, susy_line
from superext.gvs import GradedLinearMap, linear_map, unit_vec
from superext.superlie import (
    ad,
    algebra_from_table,
    center,
    derivations,
    direct_sum,
    is_derivation,
    is_homomorphism,
    make_algebra,
    out_quotient,
    outer_algebra,
    validate_algebra,
)

from oracles import (brute_jacobi, dense_ad, dense_kernel_basis, dense_rref, derivation_algebra,
                     graded_commutator, random_homogeneous_vector)

F = Fraction


# ---------- validate_algebra ----------

def test_validate_abelian():
    assert validate_algebra(abelian(2, 0)).ok


def test_validate_susy_line():
    rep = validate_algebra(susy_line())
    assert rep.ok and rep.degree_zero and rep.antisymmetry and rep.jacobi


def test_validate_broken_degree_zero():
    bad = algebra_from_table(("H", "Q"), (0, 1), {("Q", "Q"): {"Q": 1}})
    rep = validate_algebra(bad)
    assert not rep.degree_zero
    assert not rep.ok


def test_validate_broken_jacobi():
    # [a,b]=c, [b,c]=a, [a,c]=c violates Jacobi on (a,b,c)
    bad = algebra_from_table(("a", "b", "c"), (0, 0, 0),
                             {("a", "b"): {"c": 1}, ("a", "c"): {"c": 1},
                              ("b", "c"): {"a": 1}})
    rep = validate_algebra(bad)
    assert rep.antisymmetry and not rep.jacobi
    assert any("jacobi" in f for f in rep.failures)


def test_validate_agrees_with_brute_oracle(corpus, rng):
    algebras = list(corpus.values())
    bad1 = algebra_from_table(("H", "Q"), (0, 1), {("Q", "Q"): {"Q": 1}})
    bad2 = algebra_from_table(("a", "b", "c"), (0, 0, 0),
                              {("a", "b"): {"c": 1}, ("a", "c"): {"c": 1},
                               ("b", "c"): {"a": 1}})
    for alg in algebras + [bad1, bad2]:
        assert validate_algebra(alg).ok == brute_jacobi(alg)


# ---------- ad ----------

def test_ad_abelian_zero():
    a = abelian(1, 1)
    assert ad(a, (1, 0)).is_zero()


def test_ad_sl2_cartan():
    s = sl2()
    m = ad(s, unit_vec(3, 0)).matrix  # ad_H in basis (H, E, F)
    assert m == ((0, 0, 0), (0, 2, 0), (0, 0, -2))


def test_ad_susy_odd_generator():
    s = susy_line()
    adq = ad(s, unit_vec(2, 1))
    assert adq.degree == 1
    assert adq.apply(unit_vec(2, 1)) == (2, 0)   # Q -> 2H
    assert adq.apply(unit_vec(2, 0)) == (0, 0)   # H -> 0


def test_constructors_refuse_malformed_input():
    # parities pass through unconverted to the space's own check, and a
    # bracket pair must index the basis: (-1, 0) is not row n - 1
    for bad in ((0.5,), (True,)):
        with pytest.raises(ValueError, match="parities must be 0 or 1"):
            algebra_from_table(("a",), bad, {})
    space = susy_line().space
    for pair in ((-1, 0), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match=rf"bracket pair \({pair[0]}, {pair[1]}\)"):
            make_algebra(space, {pair: (1, 0)})


def test_ad_requires_homogeneous():
    with pytest.raises(ValueError):
        ad(susy_line(), (1, 1))


def test_ad_is_derivation(corpus, rng):
    for alg in corpus.values():
        for p in (0, 1):
            x = random_homogeneous_vector(alg.space, p, rng)
            assert is_derivation(alg, ad(alg, x, degree=p))


# ---------- center ----------

def test_center_abelian_everything():
    a = abelian(1, 1)
    z = center(a)
    assert len(z) == 2


def test_center_sl2_zero():
    assert center(sl2()) == []


def test_center_heis3():
    z = center(heis3())
    assert z == [unit_vec(3, 2)]


def test_center_is_kernel_of_ad(corpus):
    # cross-check: Z(h) = kernel of X -> ad_X
    for alg in corpus.values():
        n = alg.dim
        cols = [[x for row in ad(alg, unit_vec(n, i), degree=alg.space.parities[i]).matrix
                 for x in row] for i in range(n)]
        rows = tuple(tuple(c[r] for c in cols) for r in range(n * n))
        assert dense_kernel_basis(rows, n) == center(alg)


@pytest.mark.parametrize("name, make", [
    ("abelian(1,1)", lambda: abelian(1, 1)), ("sl2", sl2), ("heis3", heis3),
    ("susy_line", susy_line), ("gl11", gl11), ("osp12", osp12),
    ("sl2+heis3", lambda: direct_sum(sl2(), heis3())),
])
def test_center_is_the_dense_kernel_of_the_stacked_ad_rows(name, make):
    # Z(h) = {Z : [e_i, Z] = 0 for all i}: the rows of every ad_{e_i}, stacked
    alg = make()
    n = alg.dim
    rows = [row for i in range(n)
            for row in dense_ad(alg, unit_vec(n, i), alg.space.parities[i]).matrix]
    assert center(alg) == dense_kernel_basis(rows, n)
    assert all(type(x) is Fraction for v in center(alg) for x in v)


# ---------- derivations ----------

def test_derivations_point_dim_one():
    ds = derivations(abelian(1, 0))
    assert len(ds.basis) == 1 and ds.inner_count == 0
    assert ds.basis[0].degree == 0


def test_derivations_sl2_all_inner():
    ds = derivations(sl2())
    assert len(ds.basis) == 3 and ds.inner_count == 3
    for k in range(3):
        assert ds.basis[k] == ad(sl2(), ds.inner_preimages[k])


def test_derivations_a11_full_gl():
    ds = derivations(abelian(1, 1))
    degs = sorted(d.degree for d in ds.basis)
    assert len(ds.basis) == 4 and degs == [0, 0, 1, 1]
    assert ds.inner_count == 0


def test_derivations_heis3_dims():
    ds = derivations(heis3())
    assert len(ds.basis) == 6
    assert ds.inner_count == 2


def test_derivations_satisfy_leibniz(corpus):
    for alg in corpus.values():
        ds = derivations(alg)
        for d in ds.basis:
            assert is_derivation(alg, d)


def test_inner_preimages_match(corpus):
    for alg in corpus.values():
        ds = derivations(alg)
        for k in range(ds.inner_count):
            h = ds.inner_preimages[k]
            assert ad(alg, h, degree=ds.basis[k].degree) == ds.basis[k]


# ---------- out quotient ----------

def test_out_sl2_trivial():
    out, pi = out_quotient(sl2())
    assert out.dim == 0


def test_out_point_is_gl1():
    out, pi = out_quotient(abelian(1, 0))
    assert out.dim == 1 and out.is_abelian()


def test_out_heis3_dim():
    ds = derivations(heis3())
    out, pi = out_quotient(heis3())
    assert out.dim == len(ds.basis) - ds.inner_count == 4


def test_out_projection_is_homomorphism(corpus):
    for alg in corpus.values():
        ds = derivations(alg)
        der_alg = derivation_algebra(ds)
        out, pi = out_quotient(alg)
        assert is_homomorphism(pi, der_alg, out)
        # pi kills the inner part
        for k in range(ds.inner_count):
            assert all(c == 0 for c in pi.apply(unit_vec(len(ds.basis), k)))
        # pi is onto out(h), and lift_coordinates is a section of it
        assert len(dense_rref(pi.matrix)[1]) == out.dim
        outer = outer_algebra(alg)
        for a in range(out.dim):
            e_a = unit_vec(out.dim, a)
            assert pi.apply(outer.lift_coordinates(e_a)) == e_a


def test_der_algebra_commutator_sign(corpus):
    # the bracket of der(h) is the graded commutator of the members
    for alg in corpus.values():
        ds = derivations(alg)
        der_alg = derivation_algebra(ds)
        m = len(ds.basis)
        for i in range(m):
            for j in range(m):
                comm = graded_commutator(ds.basis[i], ds.basis[j])
                coords = der_alg.brackets[i][j]
                acc = GradedLinearMap.zero(alg.space, alg.space, comm.degree)
                for k, c in enumerate(coords):
                    if c != 0:
                        acc = acc + ds.basis[k].scale(c)
                assert acc == comm


def test_out_bracket_is_trailing_block_of_der(corpus):
    # out(h) is bracketed on its own members only; it must agree with the
    # trailing block of der(h)'s full table on every ordered pair
    algebras = list(corpus.values()) + [osp12(), direct_sum(sl2(), heis3())]
    for alg in algebras:
        outer = outer_algebra(alg)
        der_alg = derivation_algebra(outer.ds)
        c = outer.ds.inner_count
        for a in range(outer.out.dim):
            for b in range(outer.out.dim):
                assert outer.out.brackets[a][b] == der_alg.brackets[c + a][c + b][c:]


@pytest.mark.parametrize("name, expected", [("osp12", 0), ("sl2", 0), ("heis3", 10)])
def test_out_commutators_once_per_unordered_pair(monkeypatch, name, expected):
    # heis3 has 4 outer derivations, so 4 * 5 / 2 = 10 pairs; a simple
    # algebra has none, and no commutator touches an inner derivation.
    # Every der(h) bracket goes through the one sparse commutator core.
    from superext import superlie
    alg = {"osp12": osp12, "sl2": sl2, "heis3": heis3}[name]()
    calls = []
    commutator = superlie._commutator

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(superlie, "_commutator", counted)
    outer_algebra(alg)
    assert len(calls) == expected


def test_validate_der_and_out(corpus):
    for alg in corpus.values():
        ds = derivations(alg)
        assert validate_algebra(derivation_algebra(ds)).ok
        out, _ = out_quotient(alg)
        assert validate_algebra(out).ok


# ---------- is_homomorphism ----------

def test_identity_is_homomorphism():
    s = sl2()
    assert is_homomorphism(GradedLinearMap.identity_map(s.space), s, s)


def test_zero_is_homomorphism():
    s, a = sl2(), abelian(1, 0)
    assert is_homomorphism(GradedLinearMap.zero(s.space, a.space, 0), s, a)


def test_heis3_quotient_maps():
    h, a = heis3(), abelian(1, 0, "e")
    # P -> e, Q -> 0, Z -> 0: a homomorphism
    f1 = linear_map(h.space, a.space, 0, ((1, 0, 0),))
    assert is_homomorphism(f1, h, a)
    # P -> e, Q -> e, Z -> 0: still one ([P,Q] = Z -> 0 = [e,e])
    f2 = linear_map(h.space, a.space, 0, ((1, 1, 0),))
    assert is_homomorphism(f2, h, a)
    # P,Q -> 0, Z -> e: not one
    f3 = linear_map(h.space, a.space, 0, ((0, 0, 1),))
    assert not is_homomorphism(f3, h, a)


def test_homomorphism_rejects_degree_one():
    s = susy_line()
    f = linear_map(s.space, s.space, 1, ((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        is_homomorphism(f, s, s)


def test_direct_sum_valid(corpus):
    d = direct_sum(corpus["sl2"], corpus["susy_line"])
    assert validate_algebra(d).ok
    assert d.dim == 5
