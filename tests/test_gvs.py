"""Linear-algebra kernel: canonical solves, kernels, echelon spans, graded maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superext.gvs import (
    GradedLinearMap,
    IncrementalSpan,
    LinearSystem,
    SuperVectorSpace,
    dense_vec,
    identity,
    kernel_basis,
    mat,
    mat_vec,
    rref,
    scalar,
    sparse_kernel_basis,
    unit_vec,
    zero_vec,
    zeros,
)

from oracles import dense_kernel_basis, dense_rref, dense_solve

F = Fraction


def test_solve_identity():
    assert LinearSystem(identity(2)).solve((1, F(1, 2))) == (1, F(1, 2))


def test_solve_zero():
    assert LinearSystem(zeros(2, 2)).solve((0, 0)) == (0, 0)


def test_solve_canonical_particular():
    # rank-1 system: canonical solution has the free coordinate zero
    A = mat([[1, 2], [2, 4]])
    sol = LinearSystem(A).solve((1, 2))
    assert sol == (1, 0)
    assert mat_vec(A, sol) == (1, 2)


def test_solve_inconsistent():
    assert LinearSystem(mat([[1, 2], [2, 4]])).solve((1, 3)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearSystem(mat([[1, 2]])).solve((1, 2))


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)) == []


def test_kernel_zero_full():
    assert kernel_basis(zeros(3, 3)) == [unit_vec(3, i) for i in range(3)]


def test_kernel_rank_one():
    ker = kernel_basis(mat([[1, 2], [2, 4]]))
    assert ker == [(-2, 1)]
    assert mat_vec(mat([[1, 2], [2, 4]]), ker[0]) == (0, 0)


def test_kernel_empty_matrix_needs_ncols():
    assert kernel_basis((), ncols=2) == [unit_vec(2, 0), unit_vec(2, 1)]


def test_rank_nullity(rng):
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        A = mat([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])
        ker = kernel_basis(A)
        for v in ker:
            assert mat_vec(A, v) == tuple(F(0) for _ in range(nrows))
        # independent rank: count nonzero rows after elimination
        assert len(ker) + len(rref(A)[0]) == ncols


def test_solutions_are_exact(rng):
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        A = mat([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])
        x = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols))
        rhs = mat_vec(A, x)
        sol = LinearSystem(A).solve(rhs)
        assert sol is not None
        assert mat_vec(A, sol) == rhs


def test_homogeneity_enforced():
    dom = SuperVectorSpace(("x",), (0,))
    cod = SuperVectorSpace(("y",), (1,))
    with pytest.raises(ValueError):
        GradedLinearMap(dom, cod, 0, mat([[1]]))
    GradedLinearMap(dom, cod, 1, mat([[1]]))  # degree 1 is fine


def test_determinism_bit_for_bit():
    A = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    runs = {(*LinearSystem(mat(A)).solve((1, 2, 3)),) for _ in range(5)}
    assert len(runs) == 1
    kers = {tuple(map(tuple, kernel_basis(mat([[1, 2, 3]])))) for _ in range(5)}
    assert len(kers) == 1


# ---------- the integer elimination kernel against the dense oracles ----------

def all_fractions(values):
    return all(type(x) is Fraction for x in values)


@st.composite
def matrices(draw):
    """Rows of rationals with denominators 1..7, or of integers up to 2**80.

    Zero rows and combinations of earlier rows are spliced in, so ranks
    fall short of the shape and, read as columns, some columns depend on
    the ones before them.
    """
    ncols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
    else:
        entry = st.integers(-2 ** 80, 2 ** 80).map(F)
    entry = st.one_of(st.just(F(0)), entry)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(entry) for _ in rows]
        combo = [sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    return [tuple(r) for r in rows], ncols


def sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_kernel_match_dense_oracles(matrix):
    rows, ncols = matrix
    red, pivots = rref(rows)
    want_red, want_pivots = dense_rref(rows) if rows else ([], [])
    assert (red, pivots) == (want_red, want_pivots)
    assert all(all_fractions(r) for r in red)
    want_kernel = dense_kernel_basis(rows, ncols)
    kernel = sparse_kernel_basis(sparse(rows), ncols)
    assert [dense_vec(v, ncols) for v in kernel] == want_kernel
    assert all(all_fractions(v.values()) and all(v.values()) for v in kernel)
    assert kernel_basis(rows, ncols) == want_kernel


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_incremental_span_matches_dense_rref(matrix):
    rows, ncols = matrix
    span = IncrementalSpan()
    for k, r in enumerate(rows):
        before = len(dense_rref(rows[:k])[1]) if k else 0
        grew = span.add(sparse([r])[0] if k % 2 else r)
        assert grew == (len(dense_rref(rows[:k + 1])[1]) > before)
    want = dense_rref(rows)[0] if rows else []
    assert span.rank == len(want)
    assert span.rows() == sparse(want)
    assert all(all_fractions(r.values()) for r in span.rows())


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_on_dependent_columns_matches_dense_oracle(matrix, data):
    cols, nrows = matrix  # the drawn rows are the columns of A
    A = tuple(tuple(c[i] for c in cols) for i in range(nrows))
    systems = (LinearSystem(A, len(cols)), LinearSystem.from_columns(cols, nrows),
               LinearSystem.from_columns([{i: x for i, x in enumerate(c) if x} for c in cols],
                                         nrows))
    x = [data.draw(st.builds(F, st.integers(-5, 5), st.integers(1, 7))) for _ in cols]
    consistent = tuple(sum((a * c for a, c in zip(row, x)), F(0)) for row in A)
    unit = unit_vec(nrows, data.draw(st.integers(0, nrows - 1)))
    for b in (consistent, unit, zero_vec(nrows)):
        want = dense_solve(A, b, len(cols))
        for system in systems:  # rows, dense columns and sparse columns agree
            got = system.solve(b)
            assert got == want
            assert got is None or all_fractions(got)


def test_from_columns_checks_dense_column_length():
    with pytest.raises(ValueError):
        LinearSystem.from_columns([(1, 2), (3,)], 2)
    assert LinearSystem.from_columns([], 2).solve((0, 0)) == ()


def test_scalar_takes_the_string_rule_of_the_file_formats():
    assert scalar("-3/4") == F(-3, 4)
    assert scalar("+12") == 12
    for text in ("0.5", " 7 ", "1e4000", "1_000", "3/-4", ""):
        with pytest.raises(ValueError):
            scalar(text)
