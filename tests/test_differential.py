"""The sparse differential assembler and the sparse elimination kernel.

Both are checked against slow oracles that share no code with them
(`tests/oracles.py`), against exact ranks from sympy, and against
cohomology values from the literature.
"""

from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superext import cochains
from superext.catalog import gl11, heis3, osp12, sl2, susy_line
from superext.cochains import covariant_delta
from superext.cohomology import _torus, cohomology_space, gmodule, trivial_module
from superext.gvs import IncrementalSpan, dense_vec, linear_map, unit_vec
from superext.superlie import ad, direct_sum

from oracles import (
    delta_by_terms,
    delta_matrix,
    delta_matrix_by_columns,
    dense_rows,
    dense_rref,
    eager_weight_cohomology,
    random_cochain,
)
from test_gvs import kept_rref
from test_structure_constants import RESCALED, rescaled

F = Fraction


def gl11_sl2_heis3():
    return direct_sum(direct_sum(gl11(), sl2()), heis3())


ALGEBRAS = {
    "sl2": sl2,
    "heis3": heis3,
    "susy_line": susy_line,
    "gl11": gl11,
    "osp12": osp12,
    "gl11+sl2+heis3": gl11_sl2_heis3,
    # structure constants that are not integers: the differential's rows carry a scale
    **{name: (lambda f=factors, b=base: rescaled(b(), f))
       for name, (factors, base) in RESCALED.items()},
}


def adjoint_module(g):
    return gmodule(g, g.space, tuple(ad(g, unit_vec(g.dim, i)) for i in range(g.dim)))


def scaled_adjoint(g):
    """The adjoint module in the basis s_m e_m, s = 1, 2, 1/3, 1, 2, ...

    For sl2 the basis is (H, 2E, F/3).  The action has denominators 2, 3
    and 6 that g's structure constants need not have, so the scale of the
    differential is not g's alone.
    """
    s = [(F(1), F(2), F(1, 3))[m % 3] for m in range(g.dim)]
    ops = [ad(g, unit_vec(g.dim, i)) for i in range(g.dim)]
    return gmodule(g, g.space, tuple(linear_map(g.space, g.space, op.degree, tuple(
        tuple(op.matrix[k][m] * s[m] / s[k] for m in range(g.dim)) for k in range(g.dim)))
        for op in ops))


MODULES = {"trivial": trivial_module, "adjoint": adjoint_module}
ORACLE_MODULES = {**MODULES, "scaled adjoint": scaled_adjoint}


def max_arity(g, module):
    if g.dim <= 5:
        return 4
    # the column oracle's cost grows with (dim C^n)^2; the 10-dim adjoint
    # case stops at arity 2 to keep the suite short
    return 3 if module == "trivial" else 2


# ---------- assembler ----------

@pytest.mark.parametrize("module", sorted(ORACLE_MODULES))
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_delta_matrix_matches_column_oracle(name, module):
    g = ALGEBRAS[name]()
    mod = ORACLE_MODULES[module](g)
    for n in range(max_arity(g, module) + 1):
        for y in (0, 1):
            rows, src, dst = delta_matrix(mod, n, y)
            assert src == cochains.space_basis(g.space, mod.space, n, y)
            assert dst == cochains.space_basis(g.space, mod.space, n + 1, y)
            assert len(rows) == len(dst)
            assert dense_rows(rows, len(src)) == \
                delta_matrix_by_columns(g, mod.action, mod.space, n, y)


@pytest.mark.parametrize("name", ["susy_line", "gl11", "osp12", "sl2 rescaled", "osp12 rescaled"])
def test_covariant_delta_matches_term_oracle(name, rng):
    g = ALGEBRAS[name]()
    for mod in (trivial_module(g), adjoint_module(g), scaled_adjoint(g)):
        for n in range(4):
            for y in (0, 1):
                phi = random_cochain(g.space, mod.space, n, y, rng)
                assert covariant_delta(g, mod.action, phi) == delta_by_terms(g, mod.action, phi)
                assert cochains.chevalley_delta(g, phi) == delta_by_terms(g, None, phi)


def test_sign_error_in_the_assembler_is_an_internal_fault(monkeypatch):
    g = sl2()
    mod = trivial_module(g)
    assert cohomology_space(g, mod, 2).total_dim == 0
    stencil = cochains._delta_stencil

    def first_bracket_term_flipped(alg, tup, weight):
        flipped = False
        for coef, rest, gen in stencil(alg, tup, weight):
            if gen is None and not flipped:
                coef, flipped = -coef, True
            yield coef, rest, gen

    monkeypatch.setattr(cochains, "_delta_stencil", first_bracket_term_flipped)
    with pytest.raises(RuntimeError, match="internal fault: the differential does not square"):
        cohomology_space(g, mod, 2)


# ---------- elimination ----------

def assert_rref_matches_oracle(rows):
    ncols = len(rows[0]) if rows else 0
    want_red, want_pivots = dense_rref(rows)
    span = IncrementalSpan()
    accepted = [span.add(r) for r in rows]
    assert [min(r) for r in kept_rref(rows, ncols)] == want_pivots
    assert [list(dense_vec(r, ncols)) for r in kept_rref(rows, ncols)] == want_red
    assert sum(accepted) == span.rank == len(want_pivots)


def test_rref_edge_cases():
    assert kept_rref([], 0) == [] and IncrementalSpan().rank == 0
    assert_rref_matches_oracle([])
    assert_rref_matches_oracle([(F(0), F(0)), (F(0), F(0))])      # zero rows only
    assert_rref_matches_oracle([(F(0), F(3), F(0), F(6))])        # zero columns, pivot 3
    assert_rref_matches_oracle([(F(0),)] * 3)
    assert_rref_matches_oracle([(F(2), F(4), F(1)), (F(0), F(0), F(0)), (F(4), F(8), F(5))])
    assert_rref_matches_oracle([(F(1, 3), F(-2, 7)), (F(5), F(1, 2)), (F(0), F(0))])
    assert kept_rref([(F(0), F(2), F(4)), (F(0), F(3), F(7))], 3) == [{1: 1}, {2: 1}]


entries = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7)))
def test_rref_matches_dense_oracle(rows):
    assert_rref_matches_oracle([tuple(r) for r in rows])


def test_rref_of_differentials_matches_dense_oracle():
    g = osp12()
    mod = adjoint_module(g)
    for n in range(3):
        for y in (0, 1):
            rows, src, _ = delta_matrix(mod, n, y)
            assert_rref_matches_oracle(dense_rows(rows, len(src)))


# ---------- literature values and an independent rank ----------

def test_osp12_trivial_cohomology_is_that_of_sp2():
    # H^*(osp(1|2n); C) = H^*(sp(2n); C) (Fuks 1986): one class, in degree 3
    g = osp12()
    mod = trivial_module(g)
    assert [cohomology_space(g, mod, n).total_dim for n in range(7)] == [1, 0, 0, 1, 0, 0, 0]


def sympy_rank(rows, ncols):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows or not ncols:
        return 0
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row] for row in rows],
                        (len(rows), ncols), QQ).rank()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_differential_ranks_match_sympy(corpus, module):
    for g in [*corpus.values(), osp12()]:
        mod = MODULES[module](g)
        for n in range(4):
            rep = cohomology_space(g, mod, n)
            for y in (0, 1):
                rows, src, _ = delta_matrix(mod, n, y)
                assert sympy_rank(dense_rows(rows, len(src)), len(src)) == \
                    len(src) - rep.weight(y).dim_cocycles


# ---------- the sparse cohomology path against the eager dense one ----------

def closed_form_dim(g, module_space, n, y):
    """dim C^{n,y}: j odd arguments give C(p, n-j) C(q+j-1, j) tuples valued in M_{y+j}."""
    p, q = g.space.dim_even, g.space.dim_odd
    m = (module_space.parities.count(0), module_space.parities.count(1))
    return sum(comb(p, n - j) * (comb(q + j - 1, j) if j else 1) * m[(y + j) % 2]
               for j in range(n + 1))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_weight_cohomology_matches_eager_oracle(corpus, module):
    for g in [*corpus.values(), osp12()]:
        mod = MODULES[module](g)
        for n in range(5 if g.dim <= 5 else 4):
            rep = cohomology_space(g, mod, n)
            for y in (0, 1):
                w = rep.weight(y)
                cocycles, coboundaries, reps, rank = eager_weight_cohomology(mod, n, y)
                assert (w.dim_cocycles, w.dim_coboundaries) == (len(cocycles), len(coboundaries))
                assert w.representatives == reps
                assert w.representatives is w.representatives  # built once, on first read
                assert len(w.basis) == closed_form_dim(g, mod.space, n, y)
                assert w.dim_cocycles + rank == len(w.basis)


def trivial_dims(g, top):
    mod = trivial_module(g)
    return [tuple(cohomology_space(g, mod, n).weight(y).dim for y in (0, 1))
            for n in range(top + 1)]


def kunneth(a, b):
    """Dims of H^n(a + b) by weight from the factors': degrees and weights add."""
    out = []
    for n in range(len(a)):
        h = [0, 0]
        for i in range(n + 1):
            for ya in (0, 1):
                for yb in (0, 1):
                    h[(ya + yb) % 2] += a[i][ya] * b[n - i][yb]
        out.append(tuple(h))
    return out


@pytest.mark.parametrize("parts, top", [((gl11, sl2, heis3), 4), ((gl11, osp12, sl2), 6)],
                         ids=["gl11+sl2+heis3", "gl11+osp12+sl2"])
def test_kunneth_for_direct_sums(parts, top):
    # trivial coefficients: H^*(a + b) = H^*(a) (x) H^*(b) (Fuks 1986, Ch. 1)
    want = reduce(kunneth, [trivial_dims(f(), top) for f in parts])
    g = reduce(direct_sum, [f() for f in parts])
    assert trivial_dims(g, top) == want
    if parts == (gl11, sl2, heis3):
        assert want == [(1, 0), (3, 0), (4, 0), (4, 0), (4, 0)]
    else:  # 12-dim, on the weight-0 block of its torus a, d, H, H
        assert len(_torus(trivial_module(g))) == 4
        assert want == [(1, 0), (1, 0), (0, 0), (2, 0), (2, 0), (0, 0), (1, 0)]
