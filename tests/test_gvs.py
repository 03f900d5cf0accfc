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
    linear_map,
    scalar,
    unit_vec,
    zero_vec,
)

from oracles import dense_columns, dense_kernel_basis, dense_mat_vec, dense_rref, dense_solve

F = Fraction


def sparse(rows):
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def kernel(rows, ncols):
    """`IncrementalSpan.kernel` of dense rows, as dense vectors."""
    return [dense_vec(v, ncols) for v in IncrementalSpan(sparse(rows)).kernel(ncols)]


def kept_rref(rows, ncols):
    """The RREF of the span of `rows`, read off `LinearSystem.kept_rows()` with the rows
    as the columns, as {index: Fraction} dicts; each row is checked against its tags."""
    cols, out = [r if isinstance(r, dict) else dict(enumerate(r)) for r in rows], []
    for p, r, t in LinearSystem(rows, ncols).kept_rows():
        combo = {}
        for j, c in t.items():
            for i, x in cols[j].items():
                combo[i] = combo.get(i, 0) + c * x
        assert {i: x for i, x in combo.items() if x} == r
        out.append({i: F(x, r[p]) for i, x in r.items()})
    return out


def solve(A, b):
    """`LinearSystem` of the dense rows A, built from its columns, solving A x = b."""
    got = LinearSystem(dense_columns(A), len(A)).solve(b)
    assert got == dense_solve(A, b)
    return got


def test_solve_identity():
    assert solve(((1, 0), (0, 1)), (1, F(1, 2))) == (1, F(1, 2))


def test_solve_zero():
    assert solve(((0, 0), (0, 0)), (0, 0)) == (0, 0)


def test_solve_canonical_particular():
    # rank-1 system: canonical solution has the free coordinate zero
    A = ((F(1), F(2)), (F(2), F(4)))
    sol = solve(A, (1, 2))
    assert sol == (1, 0)
    assert dense_mat_vec(A, sol) == (1, 2)


def test_solve_inconsistent():
    assert solve(((1, 2), (2, 4)), (1, 3)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearSystem([(1,), (2,)], 1).solve((1, 2))


def test_kernel_identity_empty():
    assert kernel(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3) == []


def test_kernel_zero_full():
    assert kernel(((0, 0, 0),) * 3, 3) == [unit_vec(3, i) for i in range(3)]


def test_kernel_rank_one():
    A = ((F(1), F(2)), (F(2), F(4)))
    ker = kernel(A, 2)
    assert ker == [(-2, 1)] == dense_kernel_basis(A, 2)
    assert dense_mat_vec(A, ker[0]) == (0, 0)


def test_kernel_of_no_rows_is_the_whole_domain():
    assert IncrementalSpan().kernel(2) == [{0: 1}, {1: 1}]


def test_rank_nullity(rng):
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        A = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(ncols)) for _ in range(nrows))
        ker = kernel(A, ncols)
        for v in ker:
            assert dense_mat_vec(A, v) == tuple(F(0) for _ in range(nrows))
        assert len(ker) + IncrementalSpan(A).rank == ncols
        # independent rank: count nonzero rows after elimination
        assert len(ker) + len(dense_rref(A)[0]) == ncols


def test_solutions_are_exact(rng):
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        A = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(ncols)) for _ in range(nrows))
        x = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols))
        rhs = dense_mat_vec(A, x)
        sol = solve(A, rhs)
        assert sol is not None
        assert dense_mat_vec(A, sol) == rhs


def test_homogeneity_enforced():
    dom = SuperVectorSpace(("x",), (0,))
    cod = SuperVectorSpace(("y",), (1,))
    with pytest.raises(ValueError):
        linear_map(dom, cod, 0, ((F(1),),))
    linear_map(dom, cod, 1, ((F(1),),))  # degree 1 is fine


def test_map_record_refuses_floats():
    # a float entry once sat in the dense matrix; the record holds Fractions only
    sp = SuperVectorSpace(("x", "y"), (0, 0))
    with pytest.raises((TypeError, ValueError)):
        GradedLinearMap(sp, sp, 0, ((1, 0.5), (0, 1)))
    with pytest.raises(ValueError, match="nonzero \\(row, Fraction\\) entries"):
        GradedLinearMap(sp, sp, 0, (((0, 0.5),), ((1, F(1)),)))
    with pytest.raises(TypeError, match="not an exact rational"):
        linear_map(sp, sp, 0, ((1, 0.5), (0, 1)))


def test_map_record_is_canonical():
    # a list of dense rows once built a map unequal to the same map as tuples,
    # and unhashable; the record is refused, and `linear_map` makes it canonical
    sp = SuperVectorSpace(("x", "y"), (0, 0))
    with pytest.raises(ValueError):
        GradedLinearMap(sp, sp, 0, [[1, 0], [0, 1]])
    for bad in ((((1, F(1)), (0, F(1))), ()), (((0, F(0)),), ()), ((((0, F(1)),),), ())):
        with pytest.raises(ValueError, match="ascending row order"):
            GradedLinearMap(sp, sp, 0, bad)
    ident = GradedLinearMap.identity_map(sp)
    built = linear_map(sp, sp, 0, [[1, 0], ["0", 1]])
    assert built == ident and hash(built) == hash(ident)
    assert built.columns == (((0, F(1)),), ((1, F(1)),))


@pytest.mark.parametrize("v", [(1,), (1, 2, 3)])
def test_apply_refuses_a_vector_of_the_wrong_length(v):
    # a short vector was padded with zeros, a long one raised IndexError
    ident = GradedLinearMap.identity_map(SuperVectorSpace(("x", "y"), (0, 0)))
    with pytest.raises(ValueError, match="vector length"):
        ident.apply(v)
    assert ident.apply((1, 2)) == (1, 2)


@pytest.mark.parametrize("parity", [1.0, True, Fraction(1), "1"])
def test_space_rejects_non_integer_parity(parity):
    # 1.0 == 1 and True == 1, but a grade is an int; a float once reached
    # cohomology_space and failed there with a TypeError
    with pytest.raises(ValueError, match="parities must be 0 or 1"):
        SuperVectorSpace(("x",), (parity,))


@pytest.mark.parametrize("degree", [1.0, True, False, Fraction(0)])
def test_map_rejects_non_integer_degree(degree):
    sp = SuperVectorSpace(("x",), (0,))
    with pytest.raises(ValueError, match="degree must be 0 or 1"):
        linear_map(sp, sp, degree, ((F(0),),))


def test_determinism_bit_for_bit():
    A = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
    runs = {(*LinearSystem(dense_columns(A), 3).solve((1, 2, 3)),) for _ in range(5)}
    assert len(runs) == 1
    kers = {tuple(map(tuple, kernel(((1, 2, 3),), 3))) for _ in range(5)}
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


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_kernel_match_dense_oracles(matrix):
    rows, ncols = matrix
    span = IncrementalSpan(rows)
    want_red, want_pivots = dense_rref(rows) if rows else ([], [])
    assert [dense_vec(r, ncols) for r in kept_rref(rows, ncols)] == [tuple(r) for r in want_red]
    assert [min(r) for r in kept_rref(rows, ncols)] == want_pivots
    assert span.rank == len(want_pivots)
    want_kernel = dense_kernel_basis(rows, ncols)
    kernel = IncrementalSpan(sparse(rows)).kernel(ncols)
    assert [dense_vec(v, ncols) for v in kernel] == want_kernel
    assert all(all_fractions(v.values()) and all(v.values()) for v in kernel)


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
    assert kept_rref(rows, ncols) == sparse(want)
    assert all(all_fractions(r.values()) for r in kept_rref(rows, ncols))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_on_dependent_columns_matches_dense_oracle(matrix, data):
    cols, nrows = matrix  # the drawn rows are the columns of A
    A = tuple(tuple(c[i] for c in cols) for i in range(nrows))
    systems = (LinearSystem(cols, nrows), LinearSystem(iter(cols), nrows),
               LinearSystem([{i: x for i, x in enumerate(c) if x} for c in cols], nrows))
    x = [data.draw(st.builds(F, st.integers(-5, 5), st.integers(1, 7))) for _ in cols]
    consistent = tuple(sum((a * c for a, c in zip(row, x)), F(0)) for row in A)
    unit = unit_vec(nrows, data.draw(st.integers(0, nrows - 1)))
    for b in (consistent, unit, zero_vec(nrows)):
        want = dense_solve(A, b, len(cols))
        for system in systems:  # dense columns, from a list or not, and sparse ones agree
            got = system.solve(b)
            assert got == want
            assert got is None or all_fractions(got)


def with_zeros(rows):
    """Sparse dicts that keep every entry of dense rows, zeros included."""
    return [dict(enumerate(r)) for r in rows]


def test_sparse_inputs_may_carry_zeros():
    # an explicit zero, here in the leftmost place, is dropped by every entry point
    row = {0: F(0), 1: F(1)}
    assert kept_rref([row], 2) == kept_rref([(0, 1)], 2) == [{1: F(1)}]
    assert IncrementalSpan([row]).kernel(2) == IncrementalSpan([(0, 1)]).kernel(2) == [{0: F(1)}]
    assert LinearSystem([{0: F(0), 1: F(2)}], 2).solve({1: F(1)}) == (F(1, 2),)
    assert LinearSystem([[0, 2]], 2).solve({0: F(0), 1: F(1)}) == (F(1, 2),)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_sparse_inputs_with_zeros_match_dense_ones(matrix):
    rows, ncols = matrix
    assert kept_rref(with_zeros(rows), ncols) == kept_rref(rows, ncols)
    assert (IncrementalSpan(with_zeros(rows)).kernel(ncols)
            == IncrementalSpan(sparse(rows)).kernel(ncols))
    dense, zeros = LinearSystem(rows, ncols), LinearSystem(with_zeros(rows), ncols)
    for b in [*rows[:2], unit_vec(ncols, 0)]:  # the drawn rows are the columns
        assert zeros.solve(b) == dense.solve(with_zeros([b])[0]) == dense.solve(b)


def test_entry_points_leave_integer_rows_unchanged():
    # all-int rows, explicit zeros included, are read and never written:
    # an entry point that reduced them in place would corrupt its caller's data
    rows = [{0: 2, 1: 0, 2: -4}, {1: 3, 2: 6}, {0: 1, 2: 0}, {0: 0}]
    rhs = {0: 4, 1: 0, 2: -2}
    kept = [dict(r) for r in rows], dict(rhs)
    system = LinearSystem(rows, 3)
    system.solve(rhs)
    LinearSystem(rows, 3).kept_rows()
    IncrementalSpan(rows).kernel(3)
    assert (rows, rhs) == kept


def test_linear_system_checks_dense_column_length():
    with pytest.raises(ValueError, match="column 1 has 1 entries, not 2"):
        LinearSystem([(1, 2), (3,)], 2)
    assert LinearSystem([], 2).solve((0, 0)) == ()
    assert LinearSystem([], 2).solve((0, 1)) is None


def test_sparse_indices_outside_the_shape_are_refused():
    # a sparse row or column index is checked as the length of a dense one is:
    # row 5 of a 2-row column is not a tag, and row -1 is not b's coefficient
    with pytest.raises(ValueError, match="column 0 has a row index outside 0..1"):
        LinearSystem([{5: F(1)}], 2)
    with pytest.raises(ValueError, match="column 0 has a row index outside 0..1"):
        LinearSystem([{-1: F(1)}, {0: F(1)}], 2)
    with pytest.raises(ValueError, match="column index outside 0..1"):
        IncrementalSpan([{0: F(1), 3: F(1)}]).kernel(2)
    with pytest.raises(ValueError, match="column index outside 0..1"):
        IncrementalSpan([{0: F(1), -1: F(2)}, {0: F(1)}]).kernel(2)
    assert LinearSystem([{1: F(2)}], 2).solve({1: F(1)}) == (F(1, 2),)
    assert IncrementalSpan([{1: F(1)}]).kernel(2) == [{0: F(1)}]


def test_scalar_takes_the_string_rule_of_the_file_formats():
    assert scalar("-3/4") == F(-3, 4)
    assert scalar("+12") == 12
    for text in ("0.5", " 7 ", "1e4000", "1_000", "3/-4", ""):
        with pytest.raises(ValueError):
            scalar(text)
