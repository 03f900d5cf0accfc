"""The factored solver and the sparse products, against dense oracles.

`LinearSystem(cols, nrows).solve(b)` must give exactly the augmented-RREF answer of
`oracles.dense_solve` for every b, and `mat_mul`, `mat_vec` and
`bracket_vec` must equal full dense sums with every entry a Fraction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superext.catalog import gl11, heis3, osp12, sl2, susy_line
from superext.gvs import LinearSystem, mat_mul, mat_vec
from superext.superlie import ad, derivations, direct_sum

from oracles import dense_bracket, dense_columns, dense_mat_mul, dense_mat_vec, dense_solve
from test_structure_constants import rescaled

F = Fraction

entries = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3)])


def system_of(A, ncols=None):
    """The `LinearSystem` of dense rows A, built from its columns."""
    return LinearSystem(dense_columns(A, ncols), len(A))


def assert_solves_like_oracle(A, rhss, ncols=None):
    system = system_of(A, ncols)
    for b in rhss:
        want = dense_solve(A, b, ncols)
        assert system.solve(b) == want


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


# ---------- the solver ----------

@st.composite
def systems(draw):
    """A matrix with dependent columns spliced in, and right-hand sides.

    Half the right-hand sides are A x for a random x (consistent), the
    others are random vectors, which are mostly outside the image.
    """
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 5))
    cols = [[draw(entries) for _ in range(nrows)] for _ in range(ncols)]
    for _ in range(draw(st.integers(0, 3)) if cols else 0):
        coeffs = [draw(entries) for _ in cols]
        combo = [sum((c * col[r] for c, col in zip(coeffs, cols)), F(0)) for r in range(nrows)]
        cols.insert(draw(st.integers(0, len(cols))), combo)
    A = tuple(tuple(col[r] for col in cols) for r in range(nrows))
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        x = [draw(entries) for _ in cols]
        rhss.append(tuple(sum((a * c for a, c in zip(row, x)), F(0)) for row in A))
        rhss.append(tuple(draw(entries) for _ in range(nrows)))
    return A, len(cols), rhss


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_dense_oracle(system):
    A, ncols, rhss = system
    assert_solves_like_oracle(A, rhss, ncols)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_sparse_rhs_solves_like_dense_rhs(system):
    # a {row: nonzero} right-hand side is reduced in full, as a dense one is:
    # the same solution, and None exactly when the dense one gives None
    A, ncols, rhss = system
    system = system_of(A, ncols)
    for b in rhss:
        got = system.solve({i: x for i, x in enumerate(b) if x})
        assert got == system.solve(b) == dense_solve(A, b, ncols)
        assert got is None or all_fractions(got)


def test_sparse_rhs_outside_the_image_and_out_of_range():
    system = system_of(((F(1), F(1)), (F(2), F(2)), (F(0), F(0))))
    assert system.solve({0: F(1), 1: F(2)}) == (F(1), F(0))
    assert system.solve({1: 3}) is None
    assert system.solve({2: F(1, 2)}) is None
    assert system.solve({}) == (F(0), F(0))
    for bad in ({3: F(1)}, {-1: F(1)}):
        with pytest.raises(ValueError, match="row index outside 0..2"):
            system.solve(bad)


def test_solve_dependent_columns_take_zero():
    # column 1 = 2 * column 0 and column 3 = column 0 + column 2: both free
    A = ((F(1), F(2), F(0), F(1)),
         (F(0), F(0), F(1), F(1)))
    assert system_of(A).solve((F(3), F(4))) == (F(3), F(0), F(4), F(0))
    assert_solves_like_oracle(A, [(F(3), F(4)), (F(0), F(0))])


def test_solve_inconsistent_rhs():
    A = ((F(1), F(1)), (F(2), F(2)), (F(0), F(0)))
    system = system_of(A)
    assert system.solve((F(1), F(2), F(0))) == (F(1), F(0))
    assert system.solve((F(1), F(3), F(0))) is None
    assert system.solve((F(0), F(0), F(1))) is None
    assert_solves_like_oracle(A, [(1, 2, 0), (1, 3, 0), (0, 0, 1)])


def test_solve_without_rows():
    assert LinearSystem([(), (), ()], 0).solve(()) == (F(0),) * 3
    assert LinearSystem([{}, {}, {}], 0).solve(()) == (F(0),) * 3
    assert_solves_like_oracle((), [()], ncols=3)
    zero_rows = ((F(0), F(0)), (F(0), F(0)))
    assert system_of(zero_rows).solve((0, 0)) == (F(0), F(0))
    assert system_of(zero_rows).solve((0, 1)) is None
    assert_solves_like_oracle(zero_rows, [(0, 0), (0, 1), (5, 0)], ncols=2)


def test_solve_without_columns():
    A = ((), (), ())
    assert LinearSystem([], 3).solve((0, 0, 0)) == ()
    assert LinearSystem([], 3).solve((0, 1, 0)) is None
    assert_solves_like_oracle(A, [(0, 0, 0), (0, 1, 0)], ncols=0)


def test_solve_non_unit_pivots():
    A = ((F(2), F(-3), F(0)),
         (F(0), F(1, 2), F(5)),
         (F(4), F(0), F(-5, 3)))
    b = (F(1), F(-7, 2), F(2, 9))
    x = system_of(A).solve(b)
    assert tuple(sum((a * c for a, c in zip(row, x)), F(0)) for row in A) == b
    assert_solves_like_oracle(A, [b, (0, 0, 0), (1, 1, 1)])


def test_solve_many_rhs_against_one_system():
    rng = random.Random(7)
    pool = [F(0)] * 4 + [F(1), F(-2), F(3, 4)]
    A = tuple(tuple(rng.choice(pool) for _ in range(6)) for _ in range(5))
    rhss = [tuple(rng.choice(pool) for _ in range(5)) for _ in range(40)]
    rhss += [tuple(row[j] for row in A) for j in range(6)]  # each column is in the image
    assert_solves_like_oracle(A, rhss)


def test_solve_checks_shapes():
    with pytest.raises(ValueError, match="column 0 has 2 entries, not 1"):
        LinearSystem([(F(1), F(2))], 1)
    with pytest.raises(ValueError, match="rhs length"):
        system_of(((F(1), F(2)),)).solve((1, 2))


# ---------- the sparse products ----------

def corpus_maps():
    """ad of every basis element and every derivation basis map of the corpus."""
    maps = []
    for alg in (sl2(), heis3(), susy_line(), gl11(), osp12(), direct_sum(sl2(), heis3())):
        n = alg.dim
        maps.extend(ad(alg, tuple(F(int(i == k)) for i in range(n))).matrix for k in range(n))
        maps.extend(d.matrix for d in derivations(alg).basis)
    return maps


def test_products_of_corpus_maps_match_dense_oracle():
    maps = corpus_maps()
    for A in maps:
        for B in maps:
            if len(A[0]) == len(B):
                prod = mat_mul(A, B)
                assert prod == dense_mat_mul(A, B)
                assert all(all_fractions(row) for row in prod)
        v = tuple(F(k % 3 - 1, 1 + k % 2) for k in range(len(A[0])))
        assert mat_vec(A, v) == dense_mat_vec(A, v)
        assert all_fractions(mat_vec(A, v))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_sparse_products_match_dense_oracle(n, k, m, data):
    A = tuple(tuple(data.draw(entries) for _ in range(k)) for _ in range(n))
    B = tuple(tuple(data.draw(entries) for _ in range(m)) for _ in range(k))
    v = tuple(data.draw(entries) for _ in range(k))
    prod = mat_mul(A, B)
    assert prod == dense_mat_mul(A, B)
    assert all(all_fractions(row) for row in prod)
    assert mat_vec(A, v) == dense_mat_vec(A, v)
    assert all_fractions(mat_vec(A, v))


def test_products_of_int_entries_are_fractions():
    # a zero or an int entry must still come out as a Fraction, so JSON and
    # human formatting cannot tell the sparse sums from the dense ones
    A, B = ((1, 0), (0, 0)), ((0, 2), (3, 0))
    assert mat_mul(A, B) == ((0, 2), (0, 0))
    assert all(all_fractions(row) for row in mat_mul(A, B))
    assert all_fractions(mat_vec(A, (0, 5)))


def test_bracket_vec_matches_dense_oracle(rng):
    pool = [0, 0, 0, 1, -1, F(1, 2), 3]
    # the last two have constants that are not integers: the sum is divided by their lcm
    for alg in (sl2(), heis3(), susy_line(), gl11(), osp12(), direct_sum(gl11(), heis3()),
                rescaled(sl2(), (1, 2, F(1, 3))), rescaled(osp12(), (1, 1, 1, F(1, 2), 3))):
        for _ in range(20):
            u = [rng.choice(pool) for _ in range(alg.dim)]
            v = [rng.choice(pool) for _ in range(alg.dim)]
            w = alg.bracket_vec(u, v)
            assert w == dense_bracket(alg, u, v)
            assert all_fractions(w)
        assert all_fractions(alg.bracket_vec([0] * alg.dim, [1] * alg.dim))
